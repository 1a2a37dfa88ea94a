//! Workloads and their schedules.
//!
//! A schedule is a pure function of the seed and the workload name: every
//! session slot draws its turns from its own generator, seeded from
//! `(seed, workload name, slot)`. The program under test receives only the
//! generated plans and utterances.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The three serving workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 8 long-lived sessions of zero-work chains; nothing is ever reaped.
    ChatLong,
    /// 64 short conversations at a time, finished and replaced as they end;
    /// the mix adds an 8-way fanout with a join.
    ServingChurn,
    /// 4 sessions of HR-domain utterances, planned and executed by the
    /// domain's own agents.
    HrAssistant,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ChatLong,
        Workload::ServingChurn,
        Workload::HrAssistant,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ChatLong => "chat_long",
            Workload::ServingChurn => "serving_churn",
            Workload::HrAssistant => "hr_assistant",
        }
    }

    /// Concurrent sessions the load thread keeps open.
    pub fn sessions(self) -> usize {
        match self {
            Workload::ChatLong => 8,
            Workload::ServingChurn => 64,
            Workload::HrAssistant => 4,
        }
    }

    /// The router's `max_in_flight`.
    pub fn max_in_flight(self) -> usize {
        match self {
            Workload::ChatLong | Workload::HrAssistant => 2,
            Workload::ServingChurn => 8,
        }
    }

    /// Whether the workload runs the benchmark's zero-work agents (as
    /// opposed to the HR domain's).
    pub fn zero_work(self) -> bool {
        self != Workload::HrAssistant
    }

    /// Whether sessions end after a short conversation and are replaced.
    pub fn churns(self) -> bool {
        self == Workload::ServingChurn
    }
}

/// A zero-work flow: the plan shape of one turn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flow {
    /// A chain of stages, each feeding the next.
    Chain(&'static [&'static str]),
    /// `fan-split` → 8 × `fan-worker` (one per lane) → `fan-join`.
    Fanout,
}

pub const CHAT: Flow = Flow::Chain(&["chat-responder"]);
pub const NL2SQL: Flow = Flow::Chain(&["nl2sql-translator", "sql-executor"]);
pub const EXTRACTION: Flow =
    Flow::Chain(&["span-extractor", "entity-normalizer", "report-renderer"]);
pub const FANOUT_LANES: usize = 8;
pub const SPLIT: &str = "fan-split";
pub const WORKER: &str = "fan-worker";
pub const JOIN: &str = "fan-join";

/// The chain agents of every flow (the fanout agents are listed apart
/// because their parameters differ).
pub const CHAIN_AGENTS: [&str; 6] = [
    "chat-responder",
    "nl2sql-translator",
    "sql-executor",
    "span-extractor",
    "entity-normalizer",
    "report-renderer",
];

/// The paper's running example and the rest of the HR utterance mix.
pub const HR_UTTERANCES: [&str; 4] = [
    blueprint_bench::RUNNING_EXAMPLE,
    "I am looking for a machine learning engineer position in Oakland.",
    "what are the required skills for a data scientist?",
    "How many applicants per city?",
];

/// What one turn submits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TurnKind {
    /// An explicit zero-work plan.
    Flow(Flow),
    /// An HR utterance (index into [`HR_UTTERANCES`]), planned by the
    /// runtime.
    Utterance(usize),
}

/// One session's turns: the conversation length (churning workloads only)
/// and an endless sequence of turn kinds.
pub struct Script {
    rng: StdRng,
    workload: Workload,
}

/// FNV-1a, so the per-slot seed depends on the workload name's bytes and
/// not on a hasher that may change between builds.
fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Script {
    /// The script of session slot `slot`; a churning workload starts slot
    /// `slot`'s `generation`-th conversation from its own seed, so replacing
    /// a session does not depend on how far the others got.
    pub fn new(workload: Workload, seed: u64, slot: usize, generation: u64) -> Script {
        let mut h = fnv1a(workload.name().as_bytes(), 0xcbf2_9ce4_8422_2325);
        for part in [seed, slot as u64, generation] {
            h = fnv1a(&part.to_le_bytes(), h);
        }
        Script {
            rng: StdRng::seed_from_u64(h),
            workload,
        }
    }

    /// Turns in this conversation before the session is finished, or
    /// `None` for sessions that never finish.
    pub fn conversation_len(&mut self) -> Option<usize> {
        self.workload
            .churns()
            .then(|| self.rng.gen_range(2..=5usize))
    }

    pub fn next_turn(&mut self) -> TurnKind {
        match self.workload {
            Workload::ChatLong => {
                TurnKind::Flow([CHAT, NL2SQL, EXTRACTION][self.rng.gen_range(0..3usize)])
            }
            Workload::ServingChurn => TurnKind::Flow(
                [CHAT, NL2SQL, EXTRACTION, Flow::Fanout][self.rng.gen_range(0..4usize)],
            ),
            Workload::HrAssistant => {
                TurnKind::Utterance(self.rng.gen_range(0..HR_UTTERANCES.len()))
            }
        }
    }
}

/// What a zero-work stage does to its input: appends its name (a fanout
/// worker also its lane).
pub fn stage_output(input: &str, agent: &str, lane: Option<usize>) -> String {
    match lane {
        Some(lane) => format!("{input}>{agent}{lane}"),
        None => format!("{input}>{agent}"),
    }
}

/// What the join stage makes of its lane inputs, in lane order.
pub fn join_output(parts: &[&str]) -> String {
    format!("[{}]>{JOIN}", parts.join(","))
}

/// The output a correct run of `flow` produces from the turn's utterance.
/// The zero-work utterance is the turn's task id, so an output that names
/// another turn is caught as a leak.
pub fn expected_output(flow: Flow, utterance: &str) -> String {
    match flow {
        Flow::Chain(stages) => stages.iter().fold(utterance.to_string(), |acc, agent| {
            stage_output(&acc, agent, None)
        }),
        Flow::Fanout => {
            let split = stage_output(utterance, SPLIT, None);
            let lanes: Vec<String> = (0..FANOUT_LANES)
                .map(|lane| stage_output(&split, WORKER, Some(lane)))
                .collect();
            join_output(&lanes.iter().map(String::as_str).collect::<Vec<_>>())
        }
    }
}

/// The task id (and zero-work utterance) of the `turn`-th turn of slot
/// `slot`'s `generation`-th session: unique per turn, like a real caller's.
pub fn task_id(workload: Workload, slot: usize, generation: u64, turn: u64) -> String {
    format!("{}-s{slot}g{generation}t{turn}", workload.name())
}

/// The turn a zero-work stage input belongs to: everything before the first
/// stage mark.
pub fn turn_of(input: &str) -> &str {
    let end = input.find(['>', '[']).unwrap_or(input.len());
    &input[..end]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_turns(workload: Workload, seed: u64, slot: usize) -> (Option<usize>, Vec<TurnKind>) {
        let mut s = Script::new(workload, seed, slot, 0);
        let len = s.conversation_len();
        (len, (0..64).map(|_| s.next_turn()).collect())
    }

    #[test]
    fn schedules_are_a_function_of_seed_and_workload() {
        for w in Workload::ALL {
            for slot in [0, 3, 63] {
                assert_eq!(first_turns(w, 7, slot), first_turns(w, 7, slot));
            }
            assert_ne!(first_turns(w, 7, 0).1, first_turns(w, 8, 0).1, "{w:?}");
            assert_ne!(first_turns(w, 7, 0).1, first_turns(w, 7, 1).1, "{w:?}");
        }
    }

    #[test]
    fn generations_of_a_slot_differ() {
        let mut a = Script::new(Workload::ServingChurn, 1, 0, 0);
        let mut b = Script::new(Workload::ServingChurn, 1, 0, 1);
        let a: Vec<_> = (0..32).map(|_| a.next_turn()).collect();
        let b: Vec<_> = (0..32).map(|_| b.next_turn()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn only_churn_conversations_end() {
        assert_eq!(
            Script::new(Workload::ChatLong, 1, 0, 0).conversation_len(),
            None
        );
        assert_eq!(
            Script::new(Workload::HrAssistant, 1, 0, 0).conversation_len(),
            None
        );
        for slot in 0..64 {
            let len = Script::new(Workload::ServingChurn, 1, slot, 0).conversation_len();
            assert!(matches!(len, Some(2..=5)), "{len:?}");
        }
    }

    #[test]
    fn mixes_cover_every_flow() {
        let mut s = Script::new(Workload::ServingChurn, 3, 0, 0);
        let seen: Vec<TurnKind> = (0..200).map(|_| s.next_turn()).collect();
        for flow in [CHAT, NL2SQL, EXTRACTION, Flow::Fanout] {
            assert!(seen.contains(&TurnKind::Flow(flow)), "{flow:?}");
        }
        let mut s = Script::new(Workload::ChatLong, 3, 0, 0);
        assert!((0..200).all(|_| s.next_turn() != TurnKind::Flow(Flow::Fanout)));
    }

    #[test]
    fn expected_chain_output_appends_each_stage() {
        assert_eq!(
            expected_output(EXTRACTION, "chat_long-9"),
            "chat_long-9>span-extractor>entity-normalizer>report-renderer"
        );
        assert_eq!(expected_output(CHAT, "x-1"), "x-1>chat-responder");
    }

    #[test]
    fn expected_fanout_output_joins_lanes_in_order() {
        let out = expected_output(Flow::Fanout, "t-2");
        let lanes: Vec<String> = (0..FANOUT_LANES)
            .map(|l| format!("t-2>fan-split>fan-worker{l}"))
            .collect();
        assert_eq!(out, format!("[{}]>fan-join", lanes.join(",")));
    }

    #[test]
    fn stage_inputs_name_their_turn() {
        let id = task_id(Workload::ServingChurn, 12, 3, 1);
        assert_eq!(id, "serving_churn-s12g3t1");
        let split = stage_output(&id, SPLIT, None);
        assert_eq!(turn_of(&stage_output(&split, WORKER, Some(3))), id);
        assert_eq!(turn_of(&id), id);
    }
}
