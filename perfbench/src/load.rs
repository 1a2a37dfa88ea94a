//! One run: set-up, the closed-loop load thread, the checks of every turn,
//! and the growth gauges.
//!
//! Every session runs a closed loop: its next turn is submitted as soon as
//! the load thread sees the previous turn's terminal status message on its
//! one `task-status` subscription. A turn's latency is the wall time from
//! the start of its submit call to that message.

use std::collections::HashMap;
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use blueprint_core::session::{Disposition, SessionReport};
use blueprint_core::streams::{Selector, StoreStats, StreamError, TagFilter};
use blueprint_core::{Blueprint, ServingRuntime, POOL_SCOPE};

use crate::setup::{self, flow_plan, zero_work_output, HrFixture};
use crate::trace::{self, Deltas, Metrics, Observer, Probes, Spans, StampLog, TurnTiming};
use crate::workload::{expected_output, task_id, Flow, Script, TurnKind, Workload, HR_UTTERANCES};

/// Set-ups per run; the last one is driven.
pub const SETUP_REPEATS: usize = 21;
/// A set-up runtime whose drop has not ended after this long counts as a
/// hung teardown.
const TEARDOWN_LIMIT: Duration = Duration::from_secs(5);
/// No terminal status for this long while turns are in flight ends the run
/// and counts those turns as timed out.
const STALL: Duration = Duration::from_secs(10);
/// How often the load thread samples the process's CPU time.
pub const CPU_SAMPLE: Duration = Duration::from_millis(100);
const TERMINAL: [&str; 3] = ["task-completed", "task-failed", "task-aborted"];

/// How a turn ended, after its completion record was checked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fate {
    /// Submitted; no terminal status seen yet.
    InFlight,
    /// `task-completed` seen; completion record not checked yet.
    Completed,
    Ok,
    Failed,
    Rejected,
    TimedOut,
    WrongOutput,
    /// Terminal status seen, but the session's report has no record of it.
    Missing,
}

pub struct Turn {
    pub task: String,
    pub session: u64,
    pub kind: TurnKind,
    pub submitted: Instant,
    pub seen: Option<Instant>,
    pub fate: Fate,
}

/// What the runtime retains, read from its public API at the end of a run.
pub struct Gauges {
    pub store: StoreStats,
    pub pool_retained_msgs: u64,
    pub live_streams: u64,
    pub monitor_events: u64,
    pub running_instances: u64,
}

pub struct RunOutput {
    /// CPU time of the whole process over each set-up (s).
    pub setup_s: Vec<f64>,
    /// Wall time of each set-up (s).
    pub setup_wall_s: Vec<f64>,
    /// Set-up runtimes whose drop did not end within [`TEARDOWN_LIMIT`].
    pub teardown_hangs: u64,
    pub t0: Instant,
    pub window: Duration,
    pub turns: Vec<Turn>,
    /// Completion records and status messages that match no turn of their
    /// session (a cross-session leak or a stray status).
    pub strays: u64,
    pub gauges: Gauges,
    /// The process's peak resident memory (`VmHWM`, MiB) at the end of the
    /// timed window, when the run retains the most.
    pub peak_rss_mb: f64,
    /// The process's CPU time (s) through the timed window, sampled every
    /// [`CPU_SAMPLE`] from its start to its end: user and system time of
    /// every thread, without the time a busy host stole from them.
    pub cpu: Vec<(Instant, f64)>,
    /// The share of the machine's CPU time that the host stole over the
    /// timed window (`/proc/stat`).
    pub steal_share: f64,
    /// Messages the runtime published per attempted turn, from the run's
    /// `StoreStats` deltas (without the probes' own messages).
    pub publishes_per_turn: f64,
    /// Per-layer metrics and spans (traced runs only).
    pub layers: Option<(Metrics, Spans)>,
}

struct Slot {
    session: u64,
    scope: String,
    script: Script,
    generation: u64,
    turn: u64,
    /// Turns left in a churning session's conversation.
    left: Option<usize>,
    /// Indices of this session's turns.
    turns: Vec<usize>,
}

struct LoadThread<'a> {
    workload: Workload,
    seed: u64,
    bp: &'a Blueprint,
    serving: &'a ServingRuntime<'a>,
    hr: Option<&'a HrFixture>,
    slots: Vec<Slot>,
    turns: Vec<Turn>,
    in_flight: HashMap<String, usize>,
    by_task: HashMap<String, usize>,
    strays: u64,
    spans: Option<Spans>,
}

/// Runs `workload` for `seconds` seconds. A traced run arms metrics, probes
/// the layers and records spans; the end-to-end metrics come from untraced
/// runs.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    hr: Option<&HrFixture>,
) -> Result<RunOutput, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut setup_wall_s = Vec::with_capacity(SETUP_REPEATS);
    let mut teardown_hangs = 0;
    for _ in 1..SETUP_REPEATS {
        let (cpu, wall, hung) = setup_and_drop(workload)?;
        setup_s.push(cpu);
        setup_wall_s.push(wall);
        teardown_hangs += u64::from(hung);
    }

    let stamps = traced.then(|| Arc::new(StampLog::default()));
    let (start, cpu) = (Instant::now(), process_cpu_s());
    let bp = setup::blueprint(workload, stamps.clone())?;
    let serving = bp.serving().map_err(|e| e.to_string())?;
    let mut load = LoadThread {
        workload,
        seed,
        bp: &bp,
        serving: &serving,
        hr,
        slots: Vec::new(),
        turns: Vec::new(),
        in_flight: HashMap::new(),
        by_task: HashMap::new(),
        strays: 0,
        spans: traced.then(Spans::default),
    };
    for slot in 0..workload.sessions() {
        let opened = load.open(slot, 0)?;
        load.slots.push(opened);
    }
    setup_s.push(process_cpu_s() - cpu);
    setup_wall_s.push(start.elapsed().as_secs_f64());

    let store = bp.store();
    let status = store
        .subscribe(Selector::AllStreams, TagFilter::any_of(["task-status"]))
        .map_err(|e| e.to_string())?;
    let mut probes = match (traced, hr) {
        (true, Some(fixture)) => Some(Probes::new(store, fixture)?),
        _ => None,
    };
    let observer = if traced && !workload.zero_work() {
        Some(Observer::start(store)?)
    } else {
        None
    };
    let stats_before = store.stats();
    let metrics_before = bp.metrics();

    let steal_before = stolen_ticks();
    let t0 = Instant::now();
    let mut cpu = vec![(t0, process_cpu_s())];
    let deadline = t0 + Duration::from_secs_f64(seconds);
    for slot in 0..load.slots.len() {
        load.submit_next(slot)?;
    }
    let mut progress = t0;
    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let next_cpu = cpu[cpu.len() - 1].0 + CPU_SAMPLE;
        if now >= next_cpu {
            cpu.push((now, process_cpu_s()));
        }
        let mut until = deadline.min(next_cpu);
        if let (Some(p), Some(spans)) = (probes.as_mut(), load.spans.as_mut()) {
            p.run_due(spans)?;
            until = until.min(p.next_due());
        }
        match status.recv_timeout(until.saturating_duration_since(Instant::now())) {
            Ok(msg) => {
                if load.on_status(&msg, true)? {
                    progress = Instant::now();
                }
            }
            Err(StreamError::Timeout) => {}
            Err(e) => return Err(format!("status subscription: {e}")),
        }
        if progress.elapsed() > STALL {
            break;
        }
    }
    let end = Instant::now();
    cpu.push((end, process_cpu_s()));
    let window = end.duration_since(t0);
    let steal_after = stolen_ticks();
    let steal_share = (steal_after.0 - steal_before.0) as f64
        / USER_HZ
        / (window.as_secs_f64() * steal_after.1.max(1) as f64);

    // Let the turns still in flight end, then read the gauges before any
    // session is finished (finishing reaps its streams).
    while !load.in_flight.is_empty() {
        match status.recv_timeout(STALL) {
            Ok(msg) => {
                load.on_status(&msg, false)?;
            }
            Err(StreamError::Timeout) => break,
            Err(e) => return Err(format!("status subscription: {e}")),
        }
    }
    for &i in load.in_flight.values() {
        load.turns[i].fate = Fate::TimedOut;
    }
    load.in_flight.clear();
    let gauges = gauges(&bp);
    let peak_rss_mb = proc_status_mb("VmHWM");
    let stats_after = store.stats();
    let metrics_after = bp.metrics();
    let (stamps, observed) = match (&stamps, observer) {
        (Some(log), None) => (log.take(), 0),
        (_, Some(observer)) => observer.finish()?,
        (None, None) => (Vec::new(), 0),
    };

    for slot in 0..load.slots.len() {
        load.finish(slot)?;
    }

    let counter = |name: &str| {
        metrics_after
            .counter(name)
            .saturating_sub(metrics_before.counter(name))
    };
    let (own_publishes, own_deliveries, roundtrips) = probes.as_ref().map_or((0, 0, 0), |p| {
        (p.own_publishes, p.own_deliveries, p.roundtrips)
    });
    let deltas = Deltas {
        turns: load.turns.len() as u64,
        publishes: (stats_after.messages_published - stats_before.messages_published)
            .saturating_sub(own_publishes),
        deliveries: (stats_after.deliveries - stats_before.deliveries)
            .saturating_sub(own_deliveries + observed),
        invocations: counter("blueprint.agents.invocations").saturating_sub(roundtrips),
        dispatches: counter("blueprint.coordinator.dispatches"),
        llm_calls: counter("blueprint.llmsim.calls"),
        llm_tokens: counter("blueprint.llmsim.tokens_out"),
    };
    let publishes_per_turn = deltas.publishes as f64 / deltas.turns.max(1) as f64;
    let layers = match load.spans.take() {
        Some(mut spans) => {
            let turns: Vec<TurnTiming> = load
                .turns
                .iter()
                .filter_map(|t| {
                    Some(TurnTiming {
                        task: &t.task,
                        submitted: t.submitted,
                        seen: t.seen?,
                        chain: matches!(t.kind, TurnKind::Flow(Flow::Chain(_)))
                            || !workload.zero_work(),
                    })
                })
                .collect();
            let metrics = trace::layer_metrics(&spans, &turns, &stamps, &deltas);
            trace::stamp_spans(&mut spans, &stamps);
            Some((metrics, spans))
        }
        None => None,
    };
    Ok(RunOutput {
        setup_s,
        setup_wall_s,
        teardown_hangs,
        t0,
        window,
        turns: load.turns,
        strays: load.strays,
        gauges,
        peak_rss_mb,
        cpu,
        steal_share,
        publishes_per_turn,
        layers,
    })
}

/// Builds `workload`'s runtime and opens its sessions on a thread of its
/// own, then drops it there. Returns the set-up's CPU and wall time (s) and
/// whether the drop failed to end within [`TEARDOWN_LIMIT`]; a hung drop is
/// left behind and counted, not waited for. `ServingRuntime`'s drop can hang:
/// `SessionRouter::shutdown` raises its flag and notifies the workers without
/// the state lock, so a worker that has just checked the flag sleeps on
/// through the notification, most often when the runtime is dropped right
/// after it starts, as here.
fn setup_and_drop(workload: Workload) -> Result<(f64, f64, bool), String> {
    off_thread(TEARDOWN_LIMIT, move |timed| setup_once(workload, timed))
}

type Timed = Sender<Result<(f64, f64), String>>;

/// Runs `setup` on a thread of its own: the times it sends on its channel,
/// and whether the thread failed to end within `limit` after sending them.
fn off_thread<F>(limit: Duration, setup: F) -> Result<(f64, f64, bool), String>
where
    F: FnOnce(&Timed) -> Result<(), String> + Send + 'static,
{
    let (timed_tx, timed) = mpsc::channel();
    let (done_tx, done) = mpsc::channel();
    std::thread::spawn(move || {
        if let Err(e) = setup(&timed_tx) {
            let _ = timed_tx.send(Err(e));
        }
        let _ = done_tx.send(());
    });
    let (cpu, wall) = timed
        .recv()
        .map_err(|_| "set-up thread ended without a result".to_string())??;
    match done.recv_timeout(limit) {
        Ok(()) => Ok((cpu, wall, false)),
        Err(RecvTimeoutError::Timeout) => Ok((cpu, wall, true)),
        Err(RecvTimeoutError::Disconnected) => Err("set-up runtime's drop panicked".into()),
    }
}

/// One set-up: sends its CPU and wall time on `timed`, then drops the
/// runtime.
fn setup_once(workload: Workload, timed: &Timed) -> Result<(), String> {
    let (start, cpu) = (Instant::now(), process_cpu_s());
    let bp = setup::blueprint(workload, None)?;
    let serving = bp.serving().map_err(|e| e.to_string())?;
    for _ in 0..workload.sessions() {
        serving.open_session().map_err(|e| e.to_string())?;
    }
    let _ = timed.send(Ok((process_cpu_s() - cpu, start.elapsed().as_secs_f64())));
    Ok(())
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User plus system time of every thread of this process so far (s), to
/// the nanosecond, without the time a busy host stole from them.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (64-bit Linux).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Clock ticks per second in `/proc/stat`.
const USER_HZ: f64 = 100.0;

/// The machine's stolen time so far, in clock ticks summed over its CPUs,
/// and the number of CPUs, from `/proc/stat`.
fn stolen_ticks() -> (u64, usize) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let steal = stat
        .lines()
        .find_map(|l| l.strip_prefix("cpu "))
        // user nice system idle iowait irq softirq steal
        .and_then(|f| f.split_whitespace().nth(7)?.parse().ok())
        .unwrap_or(0);
    let cpus = stat
        .lines()
        .filter(|l| l.starts_with("cpu") && !l.starts_with("cpu "))
        .count();
    (steal, cpus)
}

/// A memory figure of this process from `/proc/self/status`, in MiB.
pub fn proc_status_mb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn gauges(bp: &Blueprint) -> Gauges {
    let store = bp.store();
    let pool_retained_msgs = store
        .list_streams(Some(POOL_SCOPE))
        .iter()
        .map(|id| store.read(id, 0).map_or(0, |m| m.len() as u64))
        .sum();
    Gauges {
        store: store.stats(),
        pool_retained_msgs,
        live_streams: store.list_streams(None).len() as u64,
        monitor_events: store.monitor().len() as u64,
        running_instances: bp.factory().stats().running_instances as u64,
    }
}

impl LoadThread<'_> {
    fn span(&mut self, name: &'static str, start: Instant, turn: Option<&str>) {
        if let Some(spans) = &mut self.spans {
            spans.push(name, start, Instant::now(), turn);
        }
    }

    /// Opens slot `slot`'s `generation`-th session.
    fn open(&mut self, slot: usize, generation: u64) -> Result<Slot, String> {
        let start = Instant::now();
        let session = self.serving.open_session().map_err(|e| e.to_string())?;
        self.span("session.open", start, None);
        let scope = self
            .serving
            .session_scope(session)
            .ok_or("opened session has no scope")?;
        let mut script = Script::new(self.workload, self.seed, slot, generation);
        let left = script.conversation_len();
        Ok(Slot {
            session,
            scope,
            script,
            generation,
            turn: 0,
            left,
            turns: Vec::new(),
        })
    }

    fn submit_next(&mut self, slot: usize) -> Result<(), String> {
        let s = &mut self.slots[slot];
        let kind = s.script.next_turn();
        let turn = s.turn;
        s.turn += 1;
        if let Some(left) = &mut s.left {
            *left -= 1;
        }
        let session = s.session;
        let (start, task) = match kind {
            TurnKind::Flow(flow) => {
                let plan = flow_plan(flow, &task_id(self.workload, slot, s.generation, turn));
                let start = Instant::now();
                (start, self.serving.submit_plan(session, plan))
            }
            TurnKind::Utterance(u) => {
                let start = Instant::now();
                (start, self.serving.submit(session, HR_UTTERANCES[u]))
            }
        };
        let task = task.map_err(|e| format!("submit: {e}"))?;
        self.span("session.submit", start, Some(&task));
        let index = self.turns.len();
        self.slots[slot].turns.push(index);
        self.in_flight.insert(task.clone(), index);
        self.by_task.insert(task.clone(), index);
        self.turns.push(Turn {
            task,
            session,
            kind,
            submitted: start,
            seen: None,
            fate: Fate::InFlight,
        });
        Ok(())
    }

    /// Handles one status message; returns whether it ended a turn. While
    /// `more` is set, the turn's session goes on with its next turn (or, at
    /// the end of a churning conversation, is finished and replaced).
    fn on_status(
        &mut self,
        msg: &blueprint_core::streams::Message,
        more: bool,
    ) -> Result<bool, String> {
        let seen = Instant::now();
        let Some(op) = msg.control_op().filter(|op| TERMINAL.contains(op)) else {
            return Ok(false);
        };
        let task = if op == "task-completed" {
            msg.control_args()
                .and_then(|a| a.get("task"))
                .and_then(|t| t.as_str())
                .map(str::to_string)
        } else {
            // Failure statuses do not name their task: find the in-flight
            // turn whose status stream ended.
            self.in_flight
                .keys()
                .find(|task| self.status_ended(task))
                .cloned()
        };
        let Some(index) = task.and_then(|t| self.in_flight.remove(&t)) else {
            self.strays += 1;
            return Ok(false);
        };
        let turn = &mut self.turns[index];
        turn.seen = Some(seen);
        turn.fate = if op == "task-completed" {
            Fate::Completed
        } else {
            Fate::Failed
        };
        let (task, submitted) = (turn.task.clone(), turn.submitted);
        if let Some(spans) = &mut self.spans {
            spans.push("turn", submitted, seen, Some(&task));
        }
        if more {
            let slot = self
                .slots
                .iter()
                .position(|s| s.turns.last() == Some(&index))
                .ok_or("status for a turn of no open session")?;
            if self.slots[slot].left == Some(0) {
                self.finish(slot)?;
                let generation = self.slots[slot].generation + 1;
                self.slots[slot] = self.open(slot, generation)?;
            }
            self.submit_next(slot)?;
        }
        Ok(true)
    }

    fn status_ended(&self, task: &str) -> bool {
        let Some(&index) = self.in_flight.get(task) else {
            return false;
        };
        let session = self.turns[index].session;
        let Some(slot) = self.slots.iter().find(|s| s.session == session) else {
            return false;
        };
        let stream = format!("{}:task:{task}:status", slot.scope);
        self.bp
            .store()
            .last(&stream.as_str().into())
            .ok()
            .flatten()
            .and_then(|m| m.control_op().map(|op| TERMINAL.contains(&op)))
            .unwrap_or(false)
    }

    /// Finishes slot `slot`'s session and checks every completion record in
    /// its report against the turns submitted to it.
    fn finish(&mut self, slot: usize) -> Result<(), String> {
        let start = Instant::now();
        let report = self
            .serving
            .finish(self.slots[slot].session)
            .map_err(|e| format!("finish: {e}"))?;
        self.span("session.finish", start, None);
        let turns = std::mem::take(&mut self.slots[slot].turns);
        self.check(&report, &turns);
        Ok(())
    }

    fn check(&mut self, report: &SessionReport, turns: &[usize]) {
        let mut recorded = vec![false; turns.len()];
        for c in &report.completions {
            let Some(pos) = self
                .by_task
                .get(&c.label)
                .and_then(|i| turns.iter().position(|t| t == i))
            else {
                self.strays += 1;
                continue;
            };
            recorded[pos] = true;
            let turn = &mut self.turns[turns[pos]];
            if turn.fate != Fate::Completed {
                continue;
            }
            turn.fate = match c.disposition {
                Disposition::Completed if output_ok(turn, &c.output, self.hr) => Fate::Ok,
                Disposition::Completed => Fate::WrongOutput,
                Disposition::Failed => Fate::Failed,
                Disposition::Rejected => Fate::Rejected,
            };
        }
        for (pos, &i) in turns.iter().enumerate() {
            if !recorded[pos] && self.turns[i].fate == Fate::Completed {
                self.turns[i].fate = Fate::Missing;
            }
        }
    }
}

/// Whether a completed turn's output is what it should be.
fn output_ok(turn: &Turn, output: &serde_json::Value, hr: Option<&HrFixture>) -> bool {
    match turn.kind {
        TurnKind::Flow(flow) => {
            zero_work_output(output) == Some(expected_output(flow, &turn.task).as_str())
        }
        TurnKind::Utterance(u) => hr.is_some_and(|f| *output == f.references[u]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_drop_that_outlasts_the_limit_counts_as_hung() {
        let quick = off_thread(Duration::from_secs(5), |t| {
            let _ = t.send(Ok((1.0, 2.0)));
            Ok(())
        });
        assert_eq!(quick, Ok((1.0, 2.0, false)));
        let hung = off_thread(Duration::from_millis(20), |t| {
            let _ = t.send(Ok((1.0, 2.0)));
            std::thread::sleep(Duration::from_millis(500));
            Ok(())
        });
        assert_eq!(hung, Ok((1.0, 2.0, true)));
        let failed = off_thread(Duration::from_secs(5), |_| Err("no".into()));
        assert_eq!(failed, Err("no".to_string()));
    }
}
