//! The repository benchmark: the `rmrls serve` and `rmrls batch` paths
//! end to end, and a traced in-process replay for a per-layer breakdown.
//!
//! ```text
//! bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads (see `workload.rs` for how each is generated):
//!
//! - `serve_warm_relabel`: relabeled and exact repeats of a pool that a
//!   daemon synthesized and reloaded from its store; nothing searches.
//! - `serve_cold_search`: unique classes; every request searches.
//! - `batch_cold_store`: `rmrls batch` over a manifest, fresh store.
//!
//! With `--trace 0` the run drives the real release binary (two
//! closed-loop clients, `--jobs 2`) and reports the end-to-end metrics.
//! With `--trace 1` it reports per-layer metrics: for each layer
//! `<layer>_ms` (median call), `<layer>.calls` and `<layer>.busy_ms`
//! (summed self time), plus search counters, `other_ms`/`other_frac`
//! (end-to-end latency not covered by layer spans) and
//! `trace_overhead_frac`. Every returned circuit is re-simulated by
//! `sim.rs`. The last line of stdout is the JSON result; the line
//! before it carries host facts and sample statistics.
//!
//! The specs come from `perfbench/inputs/`, which `perfbench
//! gen-inputs` writes (see `gen.rs`).
//!
//! `perfbench/collect.py` runs many seeds and summarizes them (median,
//! quartiles, spread, and the same-seed determinism check).

mod e2e;
mod gen;
mod proc;
mod sim;
mod stats;
mod traced;
mod workload;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use rmrls_obs::Json;

use crate::e2e::{E2e, OpResult};
use crate::workload::Workload;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|e| format!("--trace: {e}"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1) as f64,
        trace: trace.unwrap_or(0) != 0,
    })
}

/// A metric as the final line reports it.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// Host facts printed with every result.
fn host_facts() -> Json {
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let commit = run("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::Obj(vec![
        ("available_cores".to_string(), Json::uint(cores as u64)),
        ("commit".to_string(), Json::str(commit)),
        (
            "rustc".to_string(),
            Json::str(run("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string())),
        ),
    ])
}

/// Failures, and a check that every repeat of an operation returned
/// exactly the circuit its first run returned.
fn tally(results: &[OpResult], pass_len: usize, failures: &mut Vec<String>) {
    let first: Vec<Option<&e2e::Solved>> = results
        .iter()
        .filter(|r| r.index < pass_len)
        .map(|r| r.outcome.as_ref().ok())
        .collect();
    for r in results {
        match &r.outcome {
            Err(e) => failures.push(format!("op {}: {e}", r.index)),
            Ok(s) => {
                if let Some(Some(f)) = first.get(r.index % pass_len) {
                    if *f != s {
                        failures.push(format!(
                            "op {}: circuit differs from its first run",
                            r.index
                        ));
                    }
                }
            }
        }
    }
}

struct Outcome {
    metrics: Vec<Metric>,
    detail: Vec<(String, Json)>,
    attempted: usize,
    failures: Vec<String>,
}

fn untraced(bin: &str, w: &Workload, seconds: f64, work: &Path) -> Result<Outcome, String> {
    let e: E2e = match w.name {
        "serve_warm_relabel" => e2e::serve_warm(bin, w, seconds, work)?,
        "serve_cold_search" => e2e::serve_cold(bin, w, seconds)?,
        _ => e2e::batch(bin, w, seconds, work)?,
    };
    let mut failures = Vec::new();
    tally(&e.timed, w.ops.len(), &mut failures);
    // Each warm set-up synthesizes the pool afresh in a new process.
    let pool: Vec<OpResult> = e
        .setup_ops
        .iter()
        .enumerate()
        .map(|(k, r)| OpResult {
            index: k,
            ..r.clone()
        })
        .collect();
    if !w.pool.is_empty() {
        tally(&pool, w.pool.len(), &mut failures);
    }
    let first_pass = e.timed.iter().filter(|r| r.index < w.ops.len());
    let (gates, qc) = first_pass
        .filter_map(|r| r.outcome.as_ref().ok())
        .fold((0, 0), |(g, q), s| (g + s.gates, q + s.quantum_cost));
    // Every timing is the median over the run's passes of the pass's
    // figure, each pass doing the same work, so a burst of host noise
    // in a few passes does not move it.
    let cpu_ms_per_op: Vec<f64> = e
        .pass_cpu_s
        .iter()
        .map(|s| s * 1e3 / w.ops.len() as f64)
        .collect();
    let latencies: Vec<f64> = e
        .timed
        .iter()
        .map(|r| r.latency_ms)
        .filter(|l| l.is_finite())
        .collect();
    // A pass's tail is its highest percentile with ten samples beyond
    // it.
    let per_pass: Vec<(f64, (f64, f64))> = e
        .timed
        .chunks_exact(w.ops.len())
        .map(|pass| {
            let l: Vec<f64> = pass
                .iter()
                .map(|r| r.latency_ms)
                .filter(|l| l.is_finite())
                .collect();
            let l = stats::sorted(&l);
            (stats::quantile(&l, 0.5), stats::tail(&l))
        })
        .collect();
    let pass_p50: Vec<f64> = per_pass.iter().map(|p| p.0).collect();
    let pass_tail: Vec<f64> = per_pass.iter().map(|p| p.1 .1).collect();
    let tail_percentile = per_pass.first().map_or(f64::NAN, |p| p.1 .0);
    let attempted = e.timed.len() + e.setup_ops.len();
    let metrics = vec![
        metric(
            "throughput_ops",
            w.ops.len() as f64 / stats::median(&e.pass_s),
            "1/s",
        ),
        metric("latency_p50_ms", stats::median(&pass_p50), "ms"),
        metric("latency_tail_ms", stats::median(&pass_tail), "ms"),
        metric("gates_total", gates as f64, "count"),
        metric("quantum_cost_total", qc as f64, "count"),
        metric("cpu_ms_per_op", stats::median(&cpu_ms_per_op), "ms"),
        metric("peak_rss_mb", stats::median(&e.pass_rss_mb), "MB"),
        metric("setup_s", stats::median(&e.setup_s), "s"),
    ];
    let detail = vec![
        ("passes".to_string(), Json::uint(e.passes as u64)),
        ("timed_s".to_string(), Json::Num(e.timed_s)),
        ("latency_ms".to_string(), stats::summary(&latencies)),
        (
            "pass_tail_percentile".to_string(),
            Json::Num(tail_percentile),
        ),
        ("setup_s".to_string(), stats::summary(&e.setup_s)),
        ("pass_s".to_string(), stats::summary(&e.pass_s)),
        ("pass_p50_ms".to_string(), stats::summary(&pass_p50)),
        ("pass_tail_ms".to_string(), stats::summary(&pass_tail)),
        (
            "pass_cpu_ms_per_op".to_string(),
            stats::summary(&cpu_ms_per_op),
        ),
        (
            "failed_frac".to_string(),
            Json::Num(failures.len() as f64 / attempted as f64),
        ),
    ];
    Ok(Outcome {
        metrics,
        detail,
        attempted,
        failures,
    })
}

/// End-to-end latency of each operation of the replay sequence (pool
/// then pass), from one untraced pass through the real binary, plus
/// healthz round trips recorded as spans.
fn e2e_pass(
    bin: &str,
    w: &Workload,
    work: &Path,
    tr: &mut traced::Tracer,
) -> Result<Vec<OpResult>, String> {
    const PROBES: u64 = 50;
    let probe = |tr: &mut traced::Tracer, addr| -> Result<(), String> {
        for i in 0..PROBES {
            let (status, _) =
                tr.span("http.healthz_rtt", i, None, || proc::get(addr, "/healthz"))?;
            if status != 200 {
                return Err(format!("/healthz answered {status}"));
            }
        }
        Ok(())
    };
    if w.name == "batch_cold_store" {
        let daemon = proc::Daemon::start(bin, &[])?;
        probe(tr, daemon.addr)?;
        daemon.stop()?;
        let manifest = work.join("manifest.txt");
        e2e::write_manifest(w, &manifest)?;
        let pass = e2e::batch_pass(bin, &manifest, &work.join("e2e"), w.ops.len())?;
        return Ok(pass
            .jobs
            .into_iter()
            .enumerate()
            .map(|(k, (latency_ms, rec))| OpResult {
                index: k,
                latency_ms,
                cache_hit: false,
                outcome: rec.and_then(|r| e2e::check_record(&w.ops[k], &r)),
            })
            .collect());
    }
    let dir = work.join("e2e");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let store = dir.join("circuits.store").to_string_lossy().into_owned();
    let journal = dir.join("requests.journal").to_string_lossy().into_owned();
    let args = match w.durable {
        true => vec!["--store", store.as_str(), "--journal", journal.as_str()],
        false => Vec::new(),
    };
    let mut daemon = proc::Daemon::start(bin, &args)?;
    let (mut out, _) = e2e::drive(daemon.addr, &w.pool);
    if !w.pool.is_empty() {
        // Restart on the same store, without the journal.
        daemon.stop()?;
        daemon = proc::Daemon::start(bin, &args[..2])?;
    }
    let (pass, _) = e2e::drive(daemon.addr, &w.ops);
    probe(tr, daemon.addr)?;
    daemon.stop()?;
    out.extend(pass.into_iter().map(|mut r| {
        r.index += w.pool.len();
        r
    }));
    Ok(out)
}

fn traced_run(
    bin: &str,
    w: &Workload,
    seconds: f64,
    work: &Path,
    spans_out: &Path,
) -> Result<Outcome, String> {
    let mut tr = traced::Tracer::new(true);
    let e2e = e2e_pass(bin, w, work, &mut tr)?;
    let mut failures = Vec::new();
    tally(&e2e, e2e.len(), &mut failures);

    // Pairs of an untraced and a traced replay until the run time is
    // spent, with at least two pairs and an even count. Odd pairs run
    // the traced replay first, so the order within a pair does not
    // bias the overhead, which is the median over the pairs. The spans
    // and counts come from the first traced replay.
    let started = Instant::now();
    let mut overheads = Vec::new();
    let mut n = traced::Counts::default();
    let mut gates = Vec::new();
    while overheads.len() < 2
        || overheads.len() % 2 == 1
        || started.elapsed().as_secs_f64() < seconds
    {
        let first = overheads.is_empty();
        let untraced = || {
            traced::replay(
                w,
                &work.join("replay-untraced"),
                &mut traced::Tracer::new(false),
                &mut traced::Counts::default(),
            )
            .map(|(_, s)| s)
        };
        let mut scratch = (traced::Tracer::new(true), traced::Counts::default());
        let (tracer, counts) = match first {
            true => (&mut tr, &mut n),
            false => (&mut scratch.0, &mut scratch.1),
        };
        let traced_first = overheads.len() % 2 == 1;
        let before = (!traced_first).then(untraced).transpose()?;
        let (out, traced_s) = traced::replay(w, &work.join("replay-traced"), tracer, counts)?;
        let untraced_s = match before {
            Some(s) => s,
            None => untraced()?,
        };
        if first {
            gates = out;
        }
        overheads.push((traced_s - untraced_s) / untraced_s);
    }
    for (i, (replayed, sent)) in gates.iter().zip(&e2e).enumerate() {
        match (replayed, &sent.outcome) {
            (Err(e), _) => failures.push(format!("replay op {i}: {e}")),
            (Ok(g), Ok(s)) if *g != s.circuit => {
                failures.push(format!("replay op {i}: circuit differs from the daemon's"))
            }
            _ => {}
        }
    }
    traced::runner_replay(w, &work.join("replay-runner"), &mut tr)?;
    tr.write(spans_out)?;

    let layers = traced::layer_stats(&tr.spans);
    let mut metrics = Vec::new();
    for name in traced::LAYERS {
        let l = layers.get(name);
        metrics.push(metric(
            format!("{name}_ms"),
            l.map_or(0.0, |l| l.p50_ms),
            "ms",
        ));
        metrics.push(metric(
            format!("{name}.calls"),
            l.map_or(0, |l| l.calls) as f64,
            "count",
        ));
        metrics.push(metric(
            format!("{name}.busy_ms"),
            l.map_or(0.0, |l| l.busy_ms),
            "ms",
        ));
    }
    for name in traced::FALLIBLE {
        let f = n.failures.get(name).copied().unwrap_or(0);
        metrics.push(metric(format!("{name}.failures"), f as f64, "count"));
    }
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let search_s = layers.get("core.search").map_or(0.0, |l| l.busy_ms / 1e3);
    let count = |name: &str, v: u64| metric(format!("core.search.{name}"), v as f64, "count");
    metrics.extend([
        count("nodes_expanded", n.nodes_expanded),
        metric(
            "core.search.nodes_per_s",
            if search_s > 0.0 {
                n.nodes_expanded as f64 / search_s
            } else {
                0.0
            },
            "1/s",
        ),
        count("candidates_scored", n.candidates_scored),
        count("candidates_materialized", n.candidates_materialized),
        metric(
            "core.search.materialize_ratio",
            ratio(n.candidates_materialized, n.candidates_scored),
            "frac",
        ),
        count("children_pushed", n.children_pushed),
        count("dedup_hits", n.dedup_hits),
        count("restarts", n.restarts),
        count("queue_peak", n.queue_peak),
        count("live_terms_peak", n.live_terms_peak),
        metric(
            "engine.cache.hit_ratio",
            ratio(n.cache_hits, n.cache_gets),
            "frac",
        ),
        metric("engine.store.entries", n.store_entries as f64, "count"),
        metric(
            "engine.store.hit_ratio",
            ratio(n.store_hits, n.store_gets),
            "frac",
        ),
    ]);
    // "Other": end-to-end latency the layer spans of the same operation
    // do not cover (connection threads, admission, queue wait).
    let layer_ms = traced::layer_time_per_op(&tr.spans, e2e.len());
    let (e2e_sum, layer_sum) = e2e
        .iter()
        .filter(|r| r.latency_ms.is_finite())
        .fold((0.0, 0.0), |(a, b), r| {
            (a + r.latency_ms, b + layer_ms[r.index])
        });
    metrics.extend([
        metric("other_ms", (e2e_sum - layer_sum) / e2e.len() as f64, "ms"),
        metric("other_frac", (e2e_sum - layer_sum) / e2e_sum, "frac"),
        metric("trace_overhead_frac", stats::median(&overheads), "frac"),
    ]);
    let attempted = e2e.len() + gates.len();
    let detail = vec![
        (
            "replay_pairs".to_string(),
            Json::uint(overheads.len() as u64),
        ),
        ("spans".to_string(), Json::uint(tr.spans.len() as u64)),
        (
            "spans_file".to_string(),
            Json::str(spans_out.to_string_lossy()),
        ),
        (
            "failed_frac".to_string(),
            Json::Num(failures.len() as f64 / attempted as f64),
        ),
    ];
    Ok(Outcome {
        metrics,
        detail,
        attempted,
        failures,
    })
}

fn result_line(o: &Outcome) -> String {
    let mut line = format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{"#,
        o.failures.is_empty(),
        o.attempted,
        o.failures.len()
    );
    for (i, m) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            r#"{sep}"{}": {{"value": {}, "unit": "{}"}}"#,
            m.name,
            Json::Num(m.value),
            m.unit
        );
    }
    line.push_str("}}");
    line
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [cmd, dir] = &argv[..] {
        if cmd == "gen-inputs" {
            return gen::run(Path::new(dir));
        }
    }
    let args = parse_args()?;
    let bin = std::env::var("PERFBENCH_RMRLS")
        .map_err(|_| "PERFBENCH_RMRLS must name the rmrls binary (run via perfbench/run.sh)")?;
    if !Path::new(&bin).is_file() {
        return Err(format!("no rmrls binary at {bin}"));
    }
    let target = PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or(".bench_build".into()));
    let work = target
        .join("perfbench-work")
        .join(std::process::id().to_string());
    let spans_dir = target.join("perfbench-spans");
    for d in [&work, &spans_dir] {
        std::fs::create_dir_all(d).map_err(|e| format!("cannot create {}: {e}", d.display()))?;
    }
    let started = Instant::now();
    let w = workload::generate(&args.workload, args.seed)?;
    let generated_s = started.elapsed().as_secs_f64();
    let outcome = if args.trace {
        let spans = spans_dir.join(format!("{}-seed{}.jsonl", w.name, args.seed));
        traced_run(&bin, &w, args.seconds, &work, &spans)
    } else {
        untraced(&bin, &w, args.seconds, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    let outcome = outcome?;
    let mut detail = vec![
        ("workload".to_string(), Json::str(w.name)),
        ("seed".to_string(), Json::uint(args.seed)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("host".to_string(), host_facts()),
        ("generate_s".to_string(), Json::Num(generated_s)),
        (
            "run_s".to_string(),
            Json::Num(started.elapsed().as_secs_f64()),
        ),
        ("pool_ops".to_string(), Json::uint(w.pool.len() as u64)),
        ("pass_ops".to_string(), Json::uint(w.ops.len() as u64)),
    ];
    detail.extend(outcome.detail.iter().cloned());
    detail.push((
        "failures".to_string(),
        Json::Arr(outcome.failures.iter().take(5).map(Json::str).collect()),
    ));
    println!("perfbench {}", Json::Obj(detail));
    println!("{}", result_line(&outcome));
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
