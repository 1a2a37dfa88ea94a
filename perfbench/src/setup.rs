//! Building what a run drives: the blueprint with its agents, the turn
//! plans, and the solo HR fixture used for reference outputs and layer
//! probes.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use serde_json::{json, Value};

use blueprint_core::agents::{
    AgentContext, AgentSpec, CostProfile, DataType, FnProcessor, Inputs, Outputs, ParamSpec,
};
use blueprint_core::coordinator::Outcome;
use blueprint_core::optimizer::ChoicePoint;
use blueprint_core::planner::{InputBinding, PlanIr, PlanNode, TaskPlan};
use blueprint_core::Blueprint;

use crate::trace::StampLog;
use crate::workload::{
    join_output, stage_output, turn_of, Flow, Workload, CHAIN_AGENTS, FANOUT_LANES, HR_UTTERANCES,
    JOIN, SPLIT, WORKER,
};

/// The pool agent the host round-trip probe addresses. It is registered in
/// the factory only, so the task planner never assigns it.
pub const ECHO: &str = "perfbench-echo";

/// The blueprint of one run, with the serving knob set and, for zero-work
/// workloads, the benchmark's stage agents registered. A traced run arms
/// metrics, stamps every stage processor into `stamps`, and adds [`ECHO`].
pub fn blueprint(workload: Workload, stamps: Option<Arc<StampLog>>) -> Result<Blueprint, String> {
    let traced = stamps.is_some();
    let mut builder =
        Blueprint::builder().with_serving(workload.sessions(), workload.max_in_flight());
    if !workload.zero_work() {
        builder = builder.with_hr_domain(blueprint_bench::bench_hr());
    }
    if traced {
        builder = builder.with_metrics();
    }
    let bp = builder.build().map_err(|e| format!("blueprint: {e}"))?;
    if workload.zero_work() {
        for agent in CHAIN_AGENTS.into_iter().chain([SPLIT]) {
            register(&bp, agent, &["text"], Stage::Append, &stamps, true)?;
        }
        register(&bp, WORKER, &["text", "lane"], Stage::Lane, &stamps, true)?;
        let lanes: Vec<String> = (0..FANOUT_LANES).map(|l| format!("a{l}")).collect();
        let lanes: Vec<&str> = lanes.iter().map(String::as_str).collect();
        register(&bp, JOIN, &lanes, Stage::Join, &stamps, true)?;
    }
    if traced {
        register(&bp, ECHO, &["text"], Stage::Append, &None, false)?;
    }
    Ok(bp)
}

#[derive(Clone, Copy)]
enum Stage {
    /// Appends the agent's name to `text`.
    Append,
    /// Appends the agent's name and `lane` to `text`.
    Lane,
    /// Joins the lane inputs `a0..` in order.
    Join,
}

fn register(
    bp: &Blueprint,
    agent: &'static str,
    params: &[&str],
    stage: Stage,
    stamps: &Option<Arc<StampLog>>,
    plannable: bool,
) -> Result<(), String> {
    let mut spec = AgentSpec::new(agent, "zero-work benchmark stage")
        .with_output(ParamSpec::required("out", "stage output", DataType::Text))
        .with_profile(CostProfile::FREE);
    for p in params {
        spec = spec.with_input(ParamSpec::required(*p, "stage input", DataType::Text));
    }
    let params: Vec<String> = params.iter().map(|p| p.to_string()).collect();
    let stamps = stamps.clone();
    let processor = FnProcessor::new(move |inputs: &Inputs, _ctx: &AgentContext| {
        let entered = Instant::now();
        let out = match stage {
            Stage::Append => stage_output(inputs.require_str("text")?, agent, None),
            Stage::Lane => {
                let lane = inputs.require_str("lane")?.parse().ok();
                stage_output(inputs.require_str("text")?, agent, lane)
            }
            Stage::Join => {
                let parts = params
                    .iter()
                    .map(|p| inputs.require_str(p))
                    .collect::<Result<Vec<_>, _>>()?;
                join_output(&parts)
            }
        };
        if let Some(log) = &stamps {
            let first = inputs.require_str(&params[0])?;
            log.record(turn_of(first), entered, Instant::now());
        }
        Ok(Outputs::new().with("out", json!(out)))
    });
    bp.factory()
        .register(spec.clone(), Arc::new(processor))
        .map_err(|e| format!("register {agent}: {e}"))?;
    if plannable {
        bp.agent_registry()
            .register(spec)
            .map_err(|e| format!("register {agent}: {e}"))?;
    }
    Ok(())
}

fn node(id: String, agent: &str, inputs: BTreeMap<String, InputBinding>) -> PlanNode {
    PlanNode {
        id,
        agent: agent.into(),
        task: "zero-work benchmark stage".into(),
        inputs,
        profile: CostProfile::FREE,
    }
}

fn from_node(node: &str) -> InputBinding {
    InputBinding::FromNode {
        node: node.into(),
        output: "out".into(),
    }
}

/// The plan of one zero-work turn. Its utterance is the task id, which the
/// stages thread through to the output.
pub fn flow_plan(flow: Flow, task_id: &str) -> TaskPlan {
    let mut plan = TaskPlan::new(task_id, task_id);
    match flow {
        Flow::Chain(stages) => {
            let mut upstream = InputBinding::FromUser;
            for (i, agent) in stages.iter().enumerate() {
                let id = format!("n{}", i + 1);
                plan.push(node(
                    id.clone(),
                    agent,
                    BTreeMap::from([("text".to_string(), upstream)]),
                ));
                upstream = from_node(&id);
            }
        }
        Flow::Fanout => {
            plan.push(node(
                "split".into(),
                SPLIT,
                BTreeMap::from([("text".to_string(), InputBinding::FromUser)]),
            ));
            let mut join = BTreeMap::new();
            for lane in 0..FANOUT_LANES {
                let id = format!("w{lane}");
                plan.push(node(
                    id.clone(),
                    WORKER,
                    BTreeMap::from([
                        ("text".to_string(), from_node("split")),
                        (
                            "lane".to_string(),
                            InputBinding::Literal(json!(lane.to_string())),
                        ),
                    ]),
                ));
                join.insert(format!("a{lane}"), from_node(&id));
            }
            plan.push(node("join".into(), JOIN, join));
        }
    }
    plan
}

/// The zero-work output carried on a completion record.
pub fn zero_work_output(output: &Value) -> Option<&str> {
    output.get("out").and_then(Value::as_str)
}

/// A solo HR runtime over the same bench domain, outside the serving
/// runtime under test: it answers each utterance once through
/// `BlueprintSession::handle` for the reference outputs, and serves the
/// planner, optimizer and datastore probes of traced runs.
pub struct HrFixture {
    pub bp: Blueprint,
    /// `handle` output per utterance of [`HR_UTTERANCES`].
    pub references: Vec<Value>,
    /// Choice points of each utterance's lowered (spliced) IR.
    pub choice_points: Vec<Vec<ChoicePoint<String>>>,
}

impl HrFixture {
    pub fn new() -> Result<HrFixture, String> {
        let bp = blueprint_bench::bench_blueprint();
        let mut references = Vec::new();
        let mut choice_points = Vec::new();
        {
            let mut session = bp.start_session().map_err(|e| e.to_string())?;
            for utterance in HR_UTTERANCES {
                let report = session
                    .handle(utterance)
                    .map_err(|e| format!("reference for {utterance:?}: {e}"))?;
                match report.outcome {
                    Outcome::Completed { output } => references.push(output),
                    other => return Err(format!("reference for {utterance:?}: {other:?}")),
                }
                let plan = bp
                    .task_planner()
                    .plan(utterance)
                    .map_err(|e| e.to_string())?;
                let ir = PlanIr::lower_spliced(&plan, bp.data_planner())
                    .map_err(|e| format!("lowering {utterance:?}: {e}"))?;
                choice_points.push(ir.choice_points());
            }
            session.shutdown();
        }
        Ok(HrFixture {
            bp,
            references,
            choice_points,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{expected_output, CHAT, EXTRACTION, NL2SQL};
    use blueprint_core::session::Disposition;

    #[test]
    fn zero_work_agents_produce_the_expected_output() {
        let bp = blueprint(Workload::ServingChurn, None).unwrap();
        let serving = bp.serving().unwrap();
        let session = serving.open_session().unwrap();
        let flows = [CHAT, NL2SQL, EXTRACTION, Flow::Fanout];
        for (i, flow) in flows.iter().enumerate() {
            let task = format!("t-{i}");
            serving
                .submit_plan(session, flow_plan(*flow, &task))
                .unwrap();
        }
        serving.await_idle();
        let report = serving.finish(session).unwrap();
        assert_eq!(report.completions.len(), flows.len());
        for (c, flow) in report.completions.iter().zip(flows) {
            assert!(matches!(c.disposition, Disposition::Completed), "{c:?}");
            let expected = expected_output(flow, &c.label);
            assert_eq!(zero_work_output(&c.output), Some(expected.as_str()));
        }
    }
}
