//! The untraced end-to-end runs: the real release `rmrls` binary,
//! driven from this one process. Serve workloads go over loopback TCP
//! from two closed-loop client threads (one connection each, since the
//! daemon closes every connection after its response); the batch
//! workload runs `rmrls batch` as a child process.

use std::io::Read;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rmrls_obs::Json;

use crate::proc::{self, Daemon};
use crate::sim;
use crate::workload::{Op, Workload};

const CLIENTS: usize = 2;
/// `rmrls batch --jobs`.
const BATCH_WORKERS: usize = 2;
/// Fewest warm set-ups per run; `setup_s` is their median.
const WARM_SETUPS: usize = 5;
const BATCH_POLL: Duration = Duration::from_micros(250);
/// How often the batch process's VmHWM is sampled while it runs.
const RSS_EVERY_S: f64 = 0.005;

/// A solved, simulator-checked result.
#[derive(Clone, Debug, PartialEq)]
pub struct Solved {
    pub gates: u64,
    pub quantum_cost: u64,
    pub circuit: Vec<String>,
}

/// One operation as the client saw it.
#[derive(Clone, Debug)]
pub struct OpResult {
    /// Position in the issue sequence; the op is `ops[index % ops.len()]`.
    pub index: usize,
    pub latency_ms: f64,
    pub cache_hit: bool,
    pub outcome: Result<Solved, String>,
}

/// Everything one untraced run measured.
#[derive(Default)]
pub struct E2e {
    /// Timed-phase operations, every pass.
    pub timed: Vec<OpResult>,
    /// Set-up operations (the warm pool, once per set-up).
    pub setup_ops: Vec<OpResult>,
    pub timed_s: f64,
    /// CPU seconds of the program in each complete timed pass.
    pub pass_cpu_s: Vec<f64>,
    /// Peak RSS of each program process that ran timed work.
    pub pass_rss_mb: Vec<f64>,
    pub setup_s: Vec<f64>,
    /// Wall time of each complete timed pass.
    pub pass_s: Vec<f64>,
    pub passes: usize,
}

/// Validates one result record against its spec: solved, verified by
/// the program, and re-simulated here.
pub fn check_record(op: &Op, record: &Json) -> Result<Solved, String> {
    let status = record.get("status").and_then(Json::as_str).unwrap_or("?");
    if status != "solved" {
        return Err(format!("status {status}"));
    }
    if record.get("verified").and_then(Json::as_bool) != Some(true) {
        return Err("not verified".to_string());
    }
    let circuit: Vec<String> = record
        .get("circuit")
        .and_then(Json::as_arr)
        .ok_or("record has no circuit")?
        .iter()
        .map(|g| g.as_str().map(str::to_string).ok_or("gate is not a string"))
        .collect::<Result<_, _>>()?;
    sim::check(op.width, &circuit, &op.spec)?;
    let gates = record
        .get("gates")
        .and_then(Json::as_u64)
        .ok_or("no gates")?;
    if gates != circuit.len() as u64 {
        return Err(format!("gates {gates} but {} gate strings", circuit.len()));
    }
    let quantum_cost = record
        .get("quantum_cost")
        .and_then(Json::as_u64)
        .ok_or("no quantum_cost")?;
    Ok(Solved {
        gates,
        quantum_cost,
        circuit,
    })
}

fn serve_one(addr: SocketAddr, op: &Op, index: usize) -> OpResult {
    let request = proc::synthesize_request(&format!("op{index}"), &op.text);
    let start = Instant::now();
    let reply = proc::exchange(addr, &request);
    let latency_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut cache_hit = false;
    let outcome = reply.and_then(|(status, body)| {
        if status != 200 {
            return Err(format!("HTTP {status}: {body}"));
        }
        let json = Json::parse(&body).map_err(|e| format!("bad response JSON: {e}"))?;
        cache_hit = json.get("cache_hit").and_then(Json::as_bool) == Some(true);
        check_record(op, json.get("record").ok_or("response has no record")?)
    });
    OpResult {
        index,
        latency_ms,
        cache_hit,
        outcome,
    }
}

/// Closed loop: each client sends its next request when the previous
/// one is answered, until every op of `ops` has been issued once.
/// Returns the results in index order and the wall time.
pub fn drive(addr: SocketAddr, ops: &[Op]) -> (Vec<OpResult>, f64) {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= ops.len() {
                    break;
                }
                let r = serve_one(addr, &ops[i], i);
                out.lock().expect("result lock poisoned").push(r);
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let mut results = out.into_inner().expect("result lock poisoned");
    results.sort_by_key(|r| r.index);
    (results, wall)
}

fn path_str(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// `--store FILE --journal FILE` in `dir`, store first.
fn serve_args(dir: &Path) -> Result<[String; 4], String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok([
        "--store".to_string(),
        path_str(&dir.join("circuits.store")),
        "--journal".to_string(),
        path_str(&dir.join("requests.journal")),
    ])
}

fn start(bin: &str, args: &[String]) -> Result<Daemon, String> {
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    Daemon::start(bin, &args)
}

/// serve_warm_relabel, in cycles until the run time is spent: a
/// set-up synthesizes the pool through a daemon with a store and
/// journal, stops it with SIGINT and restarts it on the same store;
/// the restarted daemon then serves one pass of relabeled and exact
/// repeats. Each pass does the same work on a fresh daemon, so its
/// peak RSS does not grow with how many requests the host's speed let
/// through. The restarted daemon has no journal: its fsync on every
/// request made the median latency follow the host disk's fsync
/// latency rather than the program.
pub fn serve_warm(bin: &str, w: &Workload, seconds: f64, work: &Path) -> Result<E2e, String> {
    let mut e = E2e::default();
    let started = Instant::now();
    while e.passes < WARM_SETUPS || started.elapsed().as_secs_f64() < seconds {
        let args = serve_args(&work.join(format!("warm{}", e.passes)))?;
        let t0 = Instant::now();
        let first = start(bin, &args)?;
        let (pool, _) = drive(first.addr, &w.pool);
        first.stop()?;
        let daemon = start(bin, &args[..2])?;
        e.setup_s.push(t0.elapsed().as_secs_f64());
        e.setup_ops.extend(pool);
        let cpu0 = proc::cpu_seconds(daemon.pid());
        let (results, wall) = drive(daemon.addr, &w.ops);
        e.pass_cpu_s.push(proc::cpu_seconds(daemon.pid()) - cpu0);
        e.pass_rss_mb.push(proc::peak_rss_mb(daemon.pid()));
        daemon.stop()?;
        // The timed phase must never search: the first touch of a
        // class is a store hit, every later one an LRU hit.
        let offset = e.passes * w.ops.len();
        e.timed.extend(results.into_iter().map(|mut r| {
            r.index += offset;
            if !r.cache_hit && r.outcome.is_ok() {
                r.outcome = Err("searched in the timed phase".to_string());
            }
            r
        }));
        e.timed_s += wall;
        e.pass_s.push(wall);
        e.passes += 1;
    }
    Ok(e)
}

/// serve_cold_search: every pass runs on a freshly started daemon (no
/// store, empty LRU), so every request searches.
pub fn serve_cold(bin: &str, w: &Workload, seconds: f64) -> Result<E2e, String> {
    let mut e = E2e::default();
    while e.passes == 0 || e.timed_s < seconds {
        let t0 = Instant::now();
        let daemon = Daemon::start(bin, &[])?;
        e.setup_s.push(t0.elapsed().as_secs_f64());
        let cpu0 = proc::cpu_seconds(daemon.pid());
        let (results, wall) = drive(daemon.addr, &w.ops);
        e.pass_cpu_s.push(proc::cpu_seconds(daemon.pid()) - cpu0);
        e.pass_rss_mb.push(proc::peak_rss_mb(daemon.pid()));
        daemon.stop()?;
        let offset = e.passes * w.ops.len();
        e.timed.extend(results.into_iter().map(|mut r| {
            r.index += offset;
            r
        }));
        e.timed_s += wall;
        e.pass_s.push(wall);
        e.passes += 1;
    }
    Ok(e)
}

/// One `rmrls batch` run, observed by tailing its fsync'd results
/// journal.
pub struct BatchPass {
    /// Spawn until the journal header is on disk.
    pub setup_s: f64,
    /// Header until the process exited.
    pub run_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    /// Per job (admission order): completion latency reconstructed
    /// from the journal, and the final record.
    pub jobs: Vec<(f64, Result<Json, String>)>,
}

/// Runs the batch over `manifest` with a fresh store and results file.
///
/// Workers take jobs in admission order, so with `W` workers job `k`
/// starts when the `(k - W)`-th completion frees a worker (the first
/// `W` start when the header is written). Completion times are read
/// by polling the journal, so latencies carry the poll interval's
/// resolution.
pub fn batch_pass(
    bin: &str,
    manifest: &Path,
    dir: &Path,
    jobs: usize,
) -> Result<BatchPass, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let results = dir.join("results.jsonl");
    let cpu0 = proc::children_cpu_seconds();
    let t0 = Instant::now();
    let mut child = Command::new(bin)
        .args(["batch", "--jobs", &BATCH_WORKERS.to_string(), "--manifest"])
        .arg(manifest)
        .arg("--store")
        .arg(dir.join("circuits.store"))
        .arg("--results")
        .arg(&results)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {bin}: {e}"))?;
    let pid = child.id();
    let mut file: Option<std::fs::File> = None;
    let mut buf = String::new();
    let mut header_at: Option<f64> = None;
    let mut done_at: Vec<Option<f64>> = vec![None; jobs];
    let mut peak = 0.0f64;
    let mut rss_due = 0.0;
    let exit_at = loop {
        let exited = matches!(child.try_wait(), Ok(Some(_)));
        let now = t0.elapsed().as_secs_f64();
        if !exited && now >= rss_due {
            peak = peak.max(proc::peak_rss_mb(pid));
            rss_due = now + RSS_EVERY_S;
        }
        if file.is_none() {
            file = std::fs::File::open(&results).ok();
        }
        if let Some(f) = file.as_mut() {
            let mut chunk = String::new();
            let _ = f.read_to_string(&mut chunk);
            buf.push_str(&chunk);
            while let Some(end) = buf.find('\n') {
                let line: String = buf.drain(..=end).collect();
                match Json::parse(line.trim())
                    .ok()
                    .and_then(|j| j.get("index")?.as_u64())
                {
                    Some(i) => {
                        if let Some(slot) = done_at.get_mut(i as usize) {
                            slot.get_or_insert(now);
                        }
                    }
                    None => {
                        header_at.get_or_insert(now);
                    }
                }
            }
        }
        if exited {
            break now;
        }
        if t0.elapsed() > Duration::from_secs(170) {
            let _ = child.kill();
            let _ = child.wait();
            return Err("batch did not finish in time".to_string());
        }
        std::thread::sleep(BATCH_POLL);
    };
    let status = child
        .wait()
        .map_err(|e| format!("cannot reap batch: {e}"))?;
    let cpu_s = proc::children_cpu_seconds() - cpu0;
    let header_at = header_at.ok_or("batch never wrote its results header")?;
    // Completion order frees workers in order; rebuild start times.
    let mut completions: Vec<f64> = done_at.iter().flatten().copied().collect();
    completions.sort_by(f64::total_cmp);
    let text = std::fs::read_to_string(&results)
        .map_err(|e| format!("cannot read {}: {e}", results.display()))?;
    let mut records: Vec<Result<Json, String>> =
        vec![Err(format!("no record (batch exited with {status})")); jobs];
    for line in text.lines().skip(1) {
        let json = Json::parse(line).map_err(|e| format!("bad results line: {e}"))?;
        if let Some(i) = json.get("index").and_then(Json::as_u64) {
            if let Some(slot) = records.get_mut(i as usize) {
                *slot = Ok(json);
            }
        }
    }
    let jobs = records
        .into_iter()
        .enumerate()
        .map(|(k, rec)| {
            let started = if k < BATCH_WORKERS {
                header_at
            } else {
                completions
                    .get(k - BATCH_WORKERS)
                    .copied()
                    .unwrap_or(header_at)
            };
            let latency = done_at[k].map_or(f64::NAN, |d| (d - started).max(0.0) * 1e3);
            (latency, rec)
        })
        .collect();
    let _ = std::fs::remove_dir_all(dir);
    Ok(BatchPass {
        setup_s: header_at,
        run_s: exit_at - header_at,
        cpu_s,
        peak_rss_mb: peak,
        jobs,
    })
}

pub fn write_manifest(w: &Workload, path: &Path) -> Result<(), String> {
    let text: String = w.ops.iter().map(|o| format!("perm {}\n", o.text)).collect();
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// batch_cold_store: repeated `rmrls batch` runs, each on a fresh store.
pub fn batch(bin: &str, w: &Workload, seconds: f64, work: &Path) -> Result<E2e, String> {
    let manifest: PathBuf = work.join("manifest.txt");
    write_manifest(w, &manifest)?;
    let mut e = E2e::default();
    while e.passes == 0 || e.timed_s < seconds {
        let pass = batch_pass(
            bin,
            &manifest,
            &work.join(format!("batch{}", e.passes)),
            w.ops.len(),
        )?;
        e.setup_s.push(pass.setup_s);
        e.timed_s += pass.run_s;
        e.pass_s.push(pass.run_s);
        e.pass_cpu_s.push(pass.cpu_s);
        e.pass_rss_mb.push(pass.peak_rss_mb);
        let offset = e.passes * w.ops.len();
        for (k, (latency_ms, rec)) in pass.jobs.into_iter().enumerate() {
            let op = &w.ops[k];
            let outcome = rec.and_then(|r| check_record(op, &r));
            e.timed.push(OpResult {
                index: offset + k,
                latency_ms,
                cache_hit: false,
                outcome,
            });
        }
        e.passes += 1;
    }
    Ok(e)
}
