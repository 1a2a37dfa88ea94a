//! Wall-clock serving benchmark of the blueprint runtime.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload chat_long --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The time is split into runs on fresh runtimes. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` traces every second run, prints the
//! per-layer metrics and writes the last traced run's spans under
//! `.bench_out/`. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the metrics that
//! `BENCHMARK.json` in the working directory lists. See
//! `perfbench/README.md`.

mod load;
mod setup;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::io::Read;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use serde_json::{json, Value};

use load::{Fate, Gauges, RunOutput};
use setup::HrFixture;
use stats::{median, sorted, tail};
use trace::Metrics;
use workload::Workload;

/// Runs per invocation.
const REPS: usize = 5;
/// A run may take this much longer than its timed window (set-ups, the
/// drain of the turns in flight, hung teardowns) before it is killed.
const RUN_GRACE: Duration = Duration::from_secs(60);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Make one run in this process and print its raw figures.
    single: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or(format!("missing {name}"))
    };
    let workload = value("--workload")?;
    let workload = Workload::parse(workload).ok_or(format!(
        "unknown workload {workload:?}; one of chat_long, serving_churn, hr_assistant"
    ))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be within (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        single: args.iter().any(|a| a == "--single"),
    })
}

/// The process's CPU time at `t`, interpolated between the samples around
/// it.
fn cpu_at(samples: &[(Instant, f64)], t: Instant) -> f64 {
    let after = samples.partition_point(|(at, _)| *at < t);
    match (after.checked_sub(1).map(|i| samples[i]), samples.get(after)) {
        (Some((t0, c0)), Some(&(t1, c1))) if t1 > t0 => {
            let f = t.duration_since(t0).as_secs_f64() / t1.duration_since(t0).as_secs_f64();
            c0 + f * (c1 - c0)
        }
        (_, Some(&(_, c))) | (Some((_, c)), None) => c,
        (None, None) => 0.0,
    }
}

/// End-to-end figures of one untraced run.
struct EndToEnd {
    metrics: Metrics,
    samples: usize,
    tail_pct: f64,
    attempted: u64,
    failed: u64,
    fates: BTreeMap<String, u64>,
}

fn end_to_end(out: &RunOutput) -> EndToEnd {
    let window_end = out.t0 + out.window;
    let window_s = out.window.as_secs_f64();
    let mut done: Vec<(Instant, f64)> = out
        .turns
        .iter()
        .filter(|t| t.fate == Fate::Ok)
        .filter_map(|t| Some((t.seen?, t.submitted)))
        .filter(|(seen, _)| *seen <= window_end)
        .map(|(seen, submitted)| (seen, seen.duration_since(submitted).as_secs_f64() * 1e3))
        .collect();
    done.sort_by_key(|(seen, _)| *seen);
    let latencies = sorted(done.iter().map(|(_, ms)| *ms).collect());
    let n = done.len();
    let throughput = n as f64 / window_s;
    // The last quarter of the turns, over the wall time since the turn
    // before it ended.
    let quarter = n / 4;
    let late_from = (quarter > 0).then(|| done[n - quarter - 1].0);
    let late = match late_from {
        Some(from) => quarter as f64 / window_end.duration_since(from).as_secs_f64(),
        None => throughput,
    };
    let (p99, tail_pct) =
        tail(&latencies).unwrap_or((latencies.last().copied().unwrap_or(0.0), 100.0));
    let mut fates: BTreeMap<String, u64> = BTreeMap::new();
    for t in &out.turns {
        *fates.entry(format!("{:?}", t.fate)).or_default() += 1;
    }
    let attempted = out.turns.len() as u64;
    let failed = out.turns.iter().filter(|t| t.fate != Fate::Ok).count() as u64 + out.strays;
    let mut metrics = BTreeMap::new();
    metrics.insert("turn_p50_ms", (median(&latencies).unwrap_or(0.0), "ms"));
    metrics.insert("turn_p99_ms", (p99, "ms"));
    metrics.insert("throughput_tps", (throughput, "1/s"));
    // As if the host had stolen no time: the window less its stolen share.
    metrics.insert(
        "steal_adj_throughput_tps",
        (throughput / (1.0 - out.steal_share.min(0.9)), "1/s"),
    );
    metrics.insert("late_throughput_tps", (late, "1/s"));
    metrics.insert(
        "error_rate",
        (failed as f64 / attempted.max(1) as f64, "ratio"),
    );
    metrics.insert("peak_rss_mb", (out.peak_rss_mb, "MiB"));
    let cpu_end = out.cpu[out.cpu.len() - 1].1;
    metrics.insert(
        "cpu_ms_per_turn",
        ((cpu_end - out.cpu[0].1) * 1e3 / n.max(1) as f64, "ms"),
    );
    metrics.insert(
        "late_cpu_ms_per_turn",
        match late_from {
            Some(from) => (
                (cpu_end - cpu_at(&out.cpu, from)) * 1e3 / quarter as f64,
                "ms",
            ),
            None => (metrics["cpu_ms_per_turn"].0, "ms"),
        },
    );
    metrics.insert("publishes_per_turn", (out.publishes_per_turn, "count"));
    metrics.insert("steal_share", (out.steal_share, "ratio"));
    EndToEnd {
        metrics,
        samples: n,
        tail_pct,
        attempted,
        failed,
        fates,
    }
}

/// The growth gauges read at the end of a run.
fn gauges(g: &Gauges) -> Metrics {
    let count = |n: u64| (n as f64, "count");
    Metrics::from([
        (
            "streams.active_subscriptions",
            count(g.store.active_subscriptions),
        ),
        ("streams.pool_retained_msgs", count(g.pool_retained_msgs)),
        ("streams.live_streams", count(g.live_streams)),
        ("streams.monitor_events", count(g.monitor_events)),
        ("streams.streams_created", count(g.store.streams_created)),
        (
            "streams.messages_published",
            count(g.store.messages_published),
        ),
        ("streams.deliveries", count(g.store.deliveries)),
        (
            "streams.bytes_published",
            (g.store.bytes_published as f64, "B"),
        ),
        ("agents.running_instances", count(g.running_instances)),
    ])
}

/// The names of the end-to-end and the per-layer metrics that
/// `BENCHMARK.json` in the working directory lists: the ones the result
/// line carries.
fn listed_metrics() -> Result<(Vec<String>, Vec<String>), String> {
    let path = "BENCHMARK.json";
    let doc: Value = std::fs::read_to_string(path)
        .map_err(|e| format!("{path}: {e}"))
        .and_then(|s| serde_json::from_str(&s).map_err(|e| format!("{path}: {e}")))?;
    let names = |key: &str| -> Result<Vec<String>, String> {
        doc[key]
            .as_array()
            .ok_or(format!("{path}: no {key} list"))?
            .iter()
            .map(|m| m["name"].as_str().map(str::to_string))
            .collect::<Option<_>>()
            .ok_or(format!("{path}: a {key} metric has no name"))
    };
    Ok((names("end_to_end")?, names("per_layer")?))
}

/// The `names` entries of `metrics`, failing on any it lacks.
fn select(
    metrics: &serde_json::Map<String, Value>,
    names: &[String],
) -> Result<serde_json::Map<String, Value>, String> {
    names
        .iter()
        .map(|name| {
            let m = metrics
                .get(name)
                .ok_or(format!("BENCHMARK.json lists {name}, which the run lacks"))?;
            Ok((name.clone(), m.clone()))
        })
        .collect()
}

/// The commit of the checkout, read from `.git` without running git;
/// "unknown" outside a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn metric_json(metrics: &Metrics) -> Value {
    metrics
        .iter()
        .map(|(k, (v, unit))| (k.to_string(), json!({"value": v, "unit": unit})))
        .collect::<serde_json::Map<_, _>>()
        .into()
}

/// Writes a traced run's spans to `.bench_out/` in the working directory.
fn write_spans(args: &Args, spans: &Value) -> Result<String, String> {
    let dir = ".bench_out";
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    let path = format!(
        "{dir}/spans-{}-seed{}.json",
        args.workload.name(),
        args.seed
    );
    let doc = json!({"workload": args.workload.name(), "seed": args.seed, "spans": spans});
    std::fs::write(&path, doc.to_string()).map_err(|e| format!("{path}: {e}"))?;
    Ok(path)
}

/// One run in this process (`--single`): its figures as one JSON line.
fn single_run(args: &Args) -> Result<Value, String> {
    let w = args.workload;
    let fixture = if args.trace || !w.zero_work() {
        Some(HrFixture::new()?)
    } else {
        None
    };
    let mut out = load::run(w, args.seed, args.seconds, args.trace, fixture.as_ref())?;
    let e = end_to_end(&out);
    let (layers, spans) = match out.layers.take() {
        Some((mut layers, spans)) => {
            layers.insert("trace.throughput_tps", e.metrics["throughput_tps"]);
            let path = write_spans(args, &spans.to_json(out.t0))?;
            (metric_json(&layers), json!(path))
        }
        None => (Value::Null, Value::Null),
    };
    Ok(json!({
        "metrics": metric_json(&e.metrics),
        "layers": layers,
        "spans": spans,
        "setup_s": out.setup_s,
        "setup_wall_s": out.setup_wall_s,
        "teardown_hangs": out.teardown_hangs,
        "timed": e.samples,
        "tail_percentile": e.tail_pct,
        "attempted": e.attempted,
        "failed": e.failed,
        "fates": e.fates,
        "gauges": metric_json(&gauges(&out.gauges)),
    }))
}

/// Per-metric medians over runs' `{name: {value, unit}}` maps.
fn medians(runs: &[&Value]) -> serde_json::Map<String, Value> {
    let Some(first) = runs.first().and_then(|r| r.as_object()) else {
        return serde_json::Map::new();
    };
    first
        .iter()
        .map(|(name, m)| {
            let values = sorted(
                runs.iter()
                    .filter_map(|r| r[name]["value"].as_f64())
                    .collect(),
            );
            let value = median(&values).unwrap_or(0.0);
            (name.clone(), json!({"value": value, "unit": m["unit"]}))
        })
        .collect()
}

fn print_metrics(title: &str, metrics: &serde_json::Map<String, Value>) {
    println!("{title}");
    for (name, m) in metrics {
        let value = m["value"].as_f64().unwrap_or(f64::NAN);
        println!(
            "  {name:<36} {value:>14.4} {}",
            m["unit"].as_str().unwrap_or("")
        );
    }
}

/// Runs REPS runs of `seconds / REPS` each, every one in a child process of
/// its own, so that each run starts from a fresh heap and its `VmHWM` is its
/// own. The end-to-end figures are medians over the untraced runs; with
/// `--trace 1` every second run is traced and the per-layer figures are
/// medians over the traced runs.
fn invocation(args: &Args) -> Result<Value, String> {
    let (listed_e2e, listed_layers) = listed_metrics()?;
    let w = args.workload;
    let meta = json!({
        "workload": w.name(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": REPS,
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "profile": if cfg!(debug_assertions) { "debug" } else { "release" },
        "commit": commit(),
        "sessions": w.sessions(),
        "max_in_flight": w.max_in_flight(),
    });
    println!("perfbench {meta}");
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let seconds = format!("{}", args.seconds / REPS as f64);
    let mut runs = Vec::with_capacity(REPS);
    for rep in 1..=REPS {
        let traced = args.trace && rep % 2 == 0;
        let mut child = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &seconds,
                "--trace",
                if traced { "1" } else { "0" },
            ])
            .arg("--single")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("run {rep}: {e}"))?;
        let mut pipe = child.stdout.take().ok_or("run's stdout")?;
        let reader = std::thread::spawn(move || {
            let mut out = String::new();
            pipe.read_to_string(&mut out).map(|_| out)
        });
        let deadline =
            Instant::now() + Duration::from_secs_f64(args.seconds / REPS as f64) + RUN_GRACE;
        let status = loop {
            if let Some(status) = child.try_wait().map_err(|e| format!("run {rep}: {e}"))? {
                break status;
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("run {rep} hung; killed after {:?}", RUN_GRACE));
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let stdout = reader
            .join()
            .map_err(|_| format!("run {rep}: stdout reader panicked"))?
            .map_err(|e| format!("run {rep}: {e}"))?;
        if !status.success() {
            return Err(format!("run {rep} failed: {status}"));
        }
        let run: Value = stdout
            .lines()
            .last()
            .and_then(|l| serde_json::from_str(l).ok())
            .ok_or(format!("run {rep} printed no result"))?;
        let figures: Vec<String> = run["metrics"]
            .as_object()
            .into_iter()
            .flatten()
            .map(|(k, m)| format!("{k}={:.4}", m["value"].as_f64().unwrap_or(f64::NAN)))
            .collect();
        let kind = if traced { " (traced)" } else { "" };
        println!("run {rep}/{REPS}{kind}: {}", figures.join(" "));
        println!(
            "  gauges at end of run: {}",
            run["gauges"]
                .as_object()
                .into_iter()
                .flatten()
                .map(|(k, m)| format!("{k}={}", m["value"]))
                .collect::<Vec<_>>()
                .join(" ")
        );
        runs.push(run);
    }

    let (traced, plain): (Vec<&Value>, Vec<&Value>) =
        runs.iter().partition(|r| !r["layers"].is_null());
    let mut e2e = medians(&plain.iter().map(|r| &r["metrics"]).collect::<Vec<_>>());
    // Set-up times: the median over every set-up of the untraced runs.
    for key in ["setup_s", "setup_wall_s"] {
        let setups = sorted(
            plain
                .iter()
                .flat_map(|r| r[key].as_array().into_iter().flatten())
                .filter_map(Value::as_f64)
                .collect(),
        );
        e2e.insert(
            key.into(),
            json!({"value": median(&setups).unwrap_or(0.0), "unit": "s"}),
        );
    }
    print_metrics("end-to-end (median of the untraced runs):", &e2e);
    let count = |key: &str| runs.iter().filter_map(|r| r[key].as_u64()).sum::<u64>();
    let (attempted, failed) = (count("attempted"), count("failed"));
    println!(
        "  {} turns timed, {attempted} attempted, {failed} failed (all runs)",
        count("timed")
    );
    let hangs = count("teardown_hangs");
    println!(
        "  {hangs} of {} set-up runtimes hung in their drop (all runs)",
        runs.len() * (load::SETUP_REPEATS - 1)
    );
    if hangs > 0 {
        eprintln!(
            "perfbench: {hangs} set-up runtime(s) never finished dropping: \
             SessionRouter::shutdown lost a worker's wake-up"
        );
    }

    let mut report = json!({"meta": meta, "end_to_end": e2e, "runs": runs});
    let metrics = if traced.is_empty() {
        select(&e2e, &listed_e2e)?
    } else {
        let mut layers = medians(&traced.iter().map(|r| &r["layers"]).collect::<Vec<_>>());
        // The gauges come from the untraced runs, which carry no probe
        // traffic.
        layers.extend(medians(
            &plain.iter().map(|r| &r["gauges"]).collect::<Vec<_>>(),
        ));
        let ratio = layers["trace.throughput_tps"]["value"]
            .as_f64()
            .unwrap_or(0.0)
            / e2e["throughput_tps"]["value"]
                .as_f64()
                .unwrap_or(0.0)
                .max(f64::MIN_POSITIVE);
        layers.insert(
            "trace.throughput_ratio".into(),
            json!({"value": ratio, "unit": "ratio"}),
        );
        print_metrics("per-layer (median of the traced runs):", &layers);
        println!(
            "spans of the last traced run: {}",
            traced[traced.len() - 1]["spans"]
        );
        report["per_layer"] = Value::Object(layers.clone());
        select(&layers, &listed_layers)?
    };
    println!("report {report}");
    Ok(json!({
        "correct": failed == 0 && attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <chat_long|serving_churn|hr_assistant> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let result = if args.single {
        single_run(&args)
    } else {
        invocation(&args)
    };
    match result {
        Ok(result) => {
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn cpu_time_is_interpolated_between_samples() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let samples = [(at(0), 1.0), (at(100), 2.0), (at(200), 2.5)];
        assert_eq!(cpu_at(&samples, at(0)), 1.0);
        assert_eq!(cpu_at(&samples, at(50)), 1.5);
        assert_eq!(cpu_at(&samples, at(150)), 2.25);
        assert_eq!(cpu_at(&samples, at(300)), 2.5);
    }

    #[test]
    fn the_result_line_carries_exactly_the_listed_metrics() {
        let metrics = metric_json(&Metrics::from([("a", (1.0, "s")), ("b", (2.0, "ms"))]));
        let metrics = metrics.as_object().expect("a map");
        let picked = select(metrics, &["b".to_string()]).expect("b is there");
        assert_eq!(picked.keys().collect::<Vec<_>>(), ["b"]);
        assert!(select(metrics, &["c".to_string()]).is_err());
    }
}
