//! The traced run: spans the benchmark records around its own calls into
//! the runtime, stage stamps, sampled layer probes, and the per-layer
//! metrics derived from them. Nothing inside the runtime is instrumented.

use std::collections::{BTreeMap, HashMap};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Select, Sender};
use parking_lot::Mutex;
use serde_json::{json, Value};

use blueprint_core::agents::{AgentReport, ExecuteAgent, Inputs};
use blueprint_core::optimizer::optimize_unified;
use blueprint_core::streams::{Message, Selector, StreamStore, Subscription, TagFilter};

use crate::setup::{HrFixture, ECHO};
use crate::stats::{median, sorted, tail};
use crate::workload::HR_UTTERANCES;
use blueprint_bench::RUNNING_EXAMPLE;

/// One stage execution of a turn: processor entry and exit for the
/// benchmark's zero-work agents; instruction and report as the observer
/// receives them for the HR domain's agents.
pub struct Stamp {
    pub turn: String,
    pub enter: Instant,
    pub exit: Instant,
}

/// Where the traced run's stage processors record their stamps.
#[derive(Default)]
pub struct StampLog(Mutex<Vec<Stamp>>);

impl StampLog {
    pub fn record(&self, turn: &str, enter: Instant, exit: Instant) {
        self.0.lock().push(Stamp {
            turn: turn.to_string(),
            enter,
            exit,
        });
    }

    pub fn take(&self) -> Vec<Stamp> {
        std::mem::take(&mut *self.0.lock())
    }
}

/// A span: a named interval, tied to the turn it belongs to (if any). The
/// parent of a turn's spans is that turn's `turn` span.
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub turn: Option<String>,
}

#[derive(Default)]
pub struct Spans(pub Vec<Span>);

impl Spans {
    pub fn push(&mut self, name: &'static str, start: Instant, end: Instant, turn: Option<&str>) {
        self.0.push(Span {
            name,
            start,
            end,
            turn: turn.map(str::to_string),
        });
    }

    /// Spans as JSON, times in µs since `t0`, parents as indices.
    pub fn to_json(&self, t0: Instant) -> Value {
        let roots: HashMap<&str, usize> = self
            .0
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "turn")
            .filter_map(|(i, s)| Some((s.turn.as_deref()?, i)))
            .collect();
        let us = |t: Instant| t.saturating_duration_since(t0).as_secs_f64() * 1e6;
        let spans: Vec<Value> = self
            .0
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = match (&s.turn, s.name) {
                    (_, "turn") | (None, _) => None,
                    (Some(t), _) => roots.get(t.as_str()).copied(),
                };
                json!({
                    "id": id,
                    "name": s.name,
                    "start_us": us(s.start),
                    "end_us": us(s.end),
                    "parent": parent,
                    "turn": s.turn,
                })
            })
            .collect();
        Value::Array(spans)
    }

    fn durations_us(&self, name: &str) -> Vec<f64> {
        self.0
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end.duration_since(s.start).as_secs_f64() * 1e6)
            .collect()
    }
}

/// Watches `pool:instructions` and `pool:reports` on a thread of its own and
/// stamps each stage when its instruction and then its report arrive. Used
/// where the agents are the domain's and cannot stamp themselves.
pub struct Observer {
    stop: Sender<()>,
    handle: JoinHandle<(Vec<Stamp>, u64)>,
}

impl Observer {
    pub fn start(store: &StreamStore) -> Result<Observer, String> {
        let sub = |stream: &str| {
            store
                .subscribe(Selector::Stream(stream.into()), TagFilter::all())
                .map_err(|e| e.to_string())
        };
        let instructions = sub("pool:instructions")?;
        let reports = sub("pool:reports")?;
        let (stop, stop_rx) = bounded::<()>(1);
        let handle = std::thread::Builder::new()
            .name("perfbench-observer".into())
            .spawn(move || {
                let mut issued: HashMap<(String, String), Instant> = HashMap::new();
                let mut stamps = Vec::new();
                let mut received = 0u64;
                loop {
                    let mut select = Select::new();
                    let stop_idx = select.recv(&stop_rx);
                    let instr_idx = select.recv(instructions.receiver());
                    select.recv(reports.receiver());
                    let op = select.select();
                    let now = Instant::now();
                    let idx = op.index();
                    if idx == stop_idx {
                        break;
                    }
                    let sub = if idx == instr_idx {
                        &instructions
                    } else {
                        &reports
                    };
                    let Ok(msg) = op.recv(sub.receiver()) else {
                        break;
                    };
                    received += 1;
                    if let Some(e) = ExecuteAgent::from_message(&msg) {
                        issued.insert((e.task_id, e.node_id), now);
                    } else if let Some(r) = AgentReport::from_message(&msg) {
                        if let Some(enter) = issued.remove(&(r.task_id.clone(), r.node_id.clone()))
                        {
                            stamps.push(Stamp {
                                turn: r.task_id,
                                enter,
                                exit: now,
                            });
                        }
                    }
                }
                (stamps, received)
            })
            .map_err(|e| format!("observer thread: {e}"))?;
        Ok(Observer { stop, handle })
    }

    /// Stops the thread; returns its stamps and the messages it received.
    pub fn finish(self) -> Result<(Vec<Stamp>, u64), String> {
        let _ = self.stop.send(());
        self.handle
            .join()
            .map_err(|_| "observer thread panicked".to_string())
    }
}

const PROBE_TASK: &str = "perfbench-probe";
const PROBE_STREAM: &str = "pool:perfbench-probe";
const PUBLISH_EVERY: Duration = Duration::from_millis(2);
const ROUNDTRIP_EVERY: Duration = Duration::from_millis(10);
const CPU_EVERY: Duration = Duration::from_millis(50);
const ROUNDTRIP_TIMEOUT: Duration = Duration::from_secs(10);

/// Layer probes the load thread runs between turns, each on its own
/// schedule, recording one span per call.
pub struct Probes<'a> {
    store: StreamStore,
    fixture: &'a HrFixture,
    reports: Subscription,
    next_publish: Instant,
    next_roundtrip: Instant,
    next_cpu: Instant,
    /// CPU-layer probes made; picks the next utterance.
    cpu_probes: usize,
    /// Messages the probes published and received, taken out of the
    /// per-turn stream counts.
    pub own_publishes: u64,
    pub own_deliveries: u64,
    pub roundtrips: u64,
}

impl<'a> Probes<'a> {
    pub fn new(store: &StreamStore, fixture: &'a HrFixture) -> Result<Probes<'a>, String> {
        let reports = store
            .subscribe(
                Selector::Stream("pool:reports".into()),
                TagFilter::any_of([format!("task:{PROBE_TASK}")]),
            )
            .map_err(|e| e.to_string())?;
        let now = Instant::now();
        Ok(Probes {
            store: store.clone(),
            fixture,
            reports,
            next_publish: now,
            next_roundtrip: now,
            next_cpu: now,
            cpu_probes: 0,
            own_publishes: 0,
            own_deliveries: 0,
            roundtrips: 0,
        })
    }

    pub fn next_due(&self) -> Instant {
        self.next_publish
            .min(self.next_roundtrip)
            .min(self.next_cpu)
    }

    /// Runs every probe that is due.
    pub fn run_due(&mut self, spans: &mut Spans) -> Result<(), String> {
        let now = Instant::now();
        if now >= self.next_publish {
            self.next_publish = now + PUBLISH_EVERY;
            self.pool_publish(spans)?;
        }
        if now >= self.next_roundtrip {
            self.next_roundtrip = now + ROUNDTRIP_EVERY;
            self.roundtrip(spans)?;
        }
        if now >= self.next_cpu {
            self.next_cpu = now + CPU_EVERY;
            self.cpu_layers(spans)?;
        }
        Ok(())
    }

    /// A `publish_to` onto a `pool:` stream nobody reads: the cost of one
    /// publish on the pool shard.
    fn pool_publish(&mut self, spans: &mut Spans) -> Result<(), String> {
        let msg = Message::data("probe").with_tag("perfbench-probe");
        let start = Instant::now();
        self.store
            .publish_to(PROBE_STREAM, ["perfbench-probe"], msg)
            .map_err(|e| e.to_string())?;
        spans.push("streams.pool_publish", start, Instant::now(), None);
        self.own_publishes += 1;
        Ok(())
    }

    /// An `ExecuteAgent` to the pool echo agent, until its `AgentReport`.
    fn roundtrip(&mut self, spans: &mut Spans) -> Result<(), String> {
        let node = format!("p{}", self.roundtrips);
        let exec = ExecuteAgent {
            agent: ECHO.into(),
            inputs: Inputs::new().with("text", json!("probe")),
            output_stream: format!("{PROBE_STREAM}:out"),
            task_id: PROBE_TASK.into(),
            node_id: node.clone(),
            span: None,
        };
        let start = Instant::now();
        self.store
            .publish_to(
                "pool:instructions",
                ["instructions"],
                exec.into_message().from_producer("perfbench"),
            )
            .map_err(|e| e.to_string())?;
        loop {
            let msg = self
                .reports
                .recv_timeout(ROUNDTRIP_TIMEOUT)
                .map_err(|e| format!("host round trip: {e}"))?;
            if AgentReport::from_message(&msg).is_some_and(|r| r.node_id == node) {
                break;
            }
        }
        spans.push("agents.host_roundtrip", start, Instant::now(), None);
        // Instruction, output and report published; instruction and report
        // delivered.
        self.own_publishes += 3;
        self.own_deliveries += 2;
        self.roundtrips += 1;
        Ok(())
    }

    /// Planner, optimizer and datastore calls on the solo HR fixture.
    fn cpu_layers(&mut self, spans: &mut Spans) -> Result<(), String> {
        let i = self.cpu_probes % HR_UTTERANCES.len();
        self.cpu_probes += 1;
        let bp = &self.fixture.bp;
        let start = Instant::now();
        let plan = bp.task_planner().plan(HR_UTTERANCES[i]);
        spans.push("planner.plan", start, Instant::now(), None);
        std::hint::black_box(plan.map_err(|e| e.to_string())?);

        let dp = bp.data_planner();
        let start = Instant::now();
        let picked = optimize_unified(
            &self.fixture.choice_points[i],
            dp.objective(),
            &dp.constraints(),
        );
        spans.push("optimizer.optimize_unified", start, Instant::now(), None);
        std::hint::black_box(picked);

        let start = Instant::now();
        let rows = dp
            .plan_job_query(RUNNING_EXAMPLE)
            .and_then(|plan| dp.execute(&plan))
            .map_err(|e| e.to_string())?;
        spans.push("datastore.job_query", start, Instant::now(), None);
        std::hint::black_box(rows);
        Ok(())
    }
}

/// Submit, first stage and terminal status of one turn.
pub struct TurnTiming<'t> {
    pub task: &'t str,
    pub submitted: Instant,
    pub seen: Instant,
    /// Whether the turn's stages form one chain (node gaps are measured on
    /// chains only).
    pub chain: bool,
}

/// Counter deltas over the traced window, per turn.
pub struct Deltas {
    pub turns: u64,
    pub publishes: u64,
    pub deliveries: u64,
    pub invocations: u64,
    pub dispatches: u64,
    pub llm_calls: u64,
    pub llm_tokens: u64,
}

/// Named figures: value and unit.
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// Dispatch wait, node gaps and finish gaps from the stage stamps.
fn stage_gaps(turns: &[TurnTiming], stamps: &[Stamp]) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut by_turn: HashMap<&str, Vec<&Stamp>> = HashMap::new();
    for s in stamps {
        by_turn.entry(s.turn.as_str()).or_default().push(s);
    }
    let us = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e6;
    let (mut wait, mut node, mut finish) = (Vec::new(), Vec::new(), Vec::new());
    for t in turns {
        let Some(stages) = by_turn.get_mut(t.task) else {
            continue;
        };
        stages.sort_by_key(|s| s.enter);
        wait.push(us(t.submitted, stages[0].enter));
        if t.chain {
            for pair in stages.windows(2) {
                node.push(us(pair[0].exit, pair[1].enter));
            }
        }
        let last_exit = stages.iter().map(|s| s.exit).max().expect("non-empty");
        finish.push(us(last_exit, t.seen));
    }
    (wait, node, finish)
}

/// The per-layer metrics of a traced run.
pub fn layer_metrics(
    spans: &Spans,
    turns: &[TurnTiming],
    stamps: &[Stamp],
    deltas: &Deltas,
) -> Metrics {
    let mut m = Metrics::new();
    let p50 = |v: Vec<f64>| median(&sorted(v)).unwrap_or(0.0);
    let p99 = |v: Vec<f64>| tail(&sorted(v)).map_or(0.0, |(x, _)| x);
    let per_turn = |x: u64| x as f64 / deltas.turns.max(1) as f64;

    let publish = spans.durations_us("streams.pool_publish");
    m.insert("streams.pool_publish_us_p50", (p50(publish.clone()), "us"));
    m.insert("streams.pool_publish_us_p99", (p99(publish), "us"));
    m.insert(
        "streams.publishes_per_turn",
        (per_turn(deltas.publishes), "count"),
    );
    m.insert(
        "streams.deliveries_per_turn",
        (per_turn(deltas.deliveries), "count"),
    );

    let roundtrip = spans.durations_us("agents.host_roundtrip");
    m.insert("agents.host_roundtrip_us_p50", (p50(roundtrip), "us"));
    m.insert(
        "agents.invocations_per_turn",
        (per_turn(deltas.invocations), "count"),
    );

    m.insert(
        "session.submit_us_p50",
        (p50(spans.durations_us("session.submit")), "us"),
    );
    m.insert(
        "session.open_us_p50",
        (p50(spans.durations_us("session.open")), "us"),
    );
    m.insert(
        "session.finish_us_p50",
        (p50(spans.durations_us("session.finish")), "us"),
    );

    let (wait, node, finish) = stage_gaps(turns, stamps);
    m.insert("session.dispatch_wait_us_p50", (p50(wait), "us"));
    m.insert("coordinator.node_gap_us_p50", (p50(node), "us"));
    m.insert("coordinator.finish_gap_us_p50", (p50(finish), "us"));
    m.insert(
        "coordinator.dispatches_per_turn",
        (per_turn(deltas.dispatches), "count"),
    );

    m.insert(
        "planner.plan_us_p50",
        (p50(spans.durations_us("planner.plan")), "us"),
    );
    m.insert(
        "optimizer.optimize_unified_us_p50",
        (p50(spans.durations_us("optimizer.optimize_unified")), "us"),
    );
    m.insert(
        "datastore.job_query_us_p50",
        (p50(spans.durations_us("datastore.job_query")), "us"),
    );
    m.insert(
        "llmsim.calls_per_turn",
        (per_turn(deltas.llm_calls), "count"),
    );
    m.insert(
        "llmsim.tokens_per_turn",
        (per_turn(deltas.llm_tokens), "count"),
    );
    m
}

/// Stage stamps as spans of their turns.
pub fn stamp_spans(spans: &mut Spans, stamps: &[Stamp]) {
    for s in stamps {
        spans.push("agents.stage", s.enter, s.exit, Some(&s.turn));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaps_follow_the_chain() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let stamp = |enter, exit| Stamp {
            turn: "t".into(),
            enter: at(enter),
            exit: at(exit),
        };
        // Recorded out of order, as concurrent processors would.
        let stamps = [stamp(300, 350), stamp(100, 150)];
        let turns = [TurnTiming {
            task: "t",
            submitted: at(0),
            seen: at(400),
            chain: true,
        }];
        let (wait, node, finish) = stage_gaps(&turns, &stamps);
        assert_eq!(wait, vec![100.0]);
        assert_eq!(node, vec![150.0]);
        assert_eq!(finish, vec![50.0]);
    }

    #[test]
    fn span_parents_are_turn_spans() {
        let t0 = Instant::now();
        let mut spans = Spans::default();
        spans.push("session.submit", t0, t0, Some("a"));
        spans.push("turn", t0, t0, Some("a"));
        spans.push("streams.pool_publish", t0, t0, None);
        let json = spans.to_json(t0);
        assert_eq!(json[0]["parent"], json!(1));
        assert_eq!(json[1]["parent"], Value::Null);
        assert_eq!(json[2]["parent"], Value::Null);
    }
}
