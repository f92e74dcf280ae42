//! The traced run: replays a workload's generated inputs in process
//! through each layer's public functions, in pipeline order, with a
//! span around every call into a layer.
//!
//! Spans carry a name, start, end, parent and request id; they are
//! kept in memory and written out when the run ends. Layer spans are
//! children of one root span per operation. A layer's busy time is its
//! self time: its span minus the part its child spans cover.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use rmrls_circuit::Circuit;
use rmrls_core::{synthesize, CancelToken, SynthesisOptions};
use rmrls_engine::{
    admit_inline, canonical_form, uncanonicalize_circuit, Admission, BatchOptions, CacheKey,
    JobOutcome, JobRecord, JobRunner, JournalHeader, JournalWriter, SharedCache, SharedStore,
    SolveTier, SpecData,
};
use rmrls_obs::{Json, PhaseProfile};
use rmrls_pprm::MultiPprm;
use rmrls_serve::{RequestJournal, SynthesisRequest};
use rmrls_spec::Permutation;
use rmrls_telemetry::{read_request_limited, write_response, Response};

use crate::proc;
use crate::workload::{Op, Workload};

/// Every traced layer, in pipeline order.
pub const LAYERS: [&str; 24] = [
    "http.healthz_rtt",
    "http.parse",
    "serve.request.parse",
    "engine.manifest.admit",
    "serve.journal.append",
    "engine.canon.w3",
    "engine.canon.w4",
    "engine.canon.w5",
    "engine.canon.w6",
    "engine.canon.w7",
    "engine.canon.w8",
    "engine.cache.get",
    "engine.store.open",
    "engine.store.get",
    "pprm.from_permutation",
    "core.search",
    "engine.cache.insert",
    "engine.store.insert",
    "engine.canon.uncanon",
    "circuit.verify",
    "obs.json.encode",
    "engine.journal.append",
    "http.write",
    "engine.runner.run",
];

/// Layers whose calls can fail; each gets a `.failures` count.
pub const FALLIBLE: [&str; 8] = [
    "http.parse",
    "serve.request.parse",
    "engine.manifest.admit",
    "serve.journal.append",
    "core.search",
    "engine.store.insert",
    "circuit.verify",
    "engine.journal.append",
];

const MAX_BODY: usize = 256 * 1024;

fn canon_layer(width: usize) -> &'static str {
    match width {
        0..=3 => "engine.canon.w3",
        4 => "engine.canon.w4",
        5 => "engine.canon.w5",
        6 => "engine.canon.w6",
        7 => "engine.canon.w7",
        _ => "engine.canon.w8",
    }
}

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

/// In-memory span recorder. Disabled, it records nothing, so the same
/// replay code runs untraced to measure the tracing overhead.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, req: u64, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    pub fn span<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, req, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Writes the spans as JSON lines.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let mut text = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or(Json::Null, |p| Json::uint(p as u64));
            let line = Json::Obj(vec![
                ("name".to_string(), Json::str(s.name)),
                ("start_ns".to_string(), Json::uint(s.start_ns)),
                ("end_ns".to_string(), Json::uint(s.end_ns)),
                ("parent".to_string(), parent),
                ("req".to_string(), Json::uint(s.req)),
            ]);
            text.push_str(&line.to_string());
            text.push('\n');
        }
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// Counters gathered where the work happens.
#[derive(Default)]
pub struct Counts {
    pub failures: BTreeMap<&'static str, u64>,
    pub cache_gets: u64,
    pub cache_hits: u64,
    pub store_gets: u64,
    pub store_hits: u64,
    pub store_entries: u64,
    pub nodes_expanded: u64,
    pub candidates_scored: u64,
    pub candidates_materialized: u64,
    pub children_pushed: u64,
    pub dedup_hits: u64,
    pub restarts: u64,
    pub queue_peak: u64,
    pub live_terms_peak: u64,
}

impl Counts {
    fn fail(&mut self, layer: &'static str) -> String {
        *self.failures.entry(layer).or_default() += 1;
        format!("{layer} failed")
    }
}

/// The engine stages one serve request or batch job runs through.
struct Engine {
    cache: SharedCache,
    store: Option<SharedStore>,
    opts: SynthesisOptions,
}

impl Engine {
    fn open(store: Option<&Path>, tr: &mut Tracer) -> Result<Engine, String> {
        let store = match store {
            Some(p) => {
                let path = p.to_string_lossy().into_owned();
                Some(tr.span("engine.store.open", 0, None, || SharedStore::open(&path))?)
            }
            None => None,
        };
        let defaults = BatchOptions::default();
        Ok(Engine {
            cache: SharedCache::new(defaults.cache_size.expect("the default cache is on")),
            store,
            opts: defaults.synthesis,
        })
    }

    /// canonicalize → LRU → store → (search → insert) → uncanonicalize
    /// → verify, as the engine runs a permutation job.
    fn job(
        &self,
        perm: &Permutation,
        req: u64,
        root: Option<usize>,
        tr: &mut Tracer,
        n: &mut Counts,
    ) -> Result<(Circuit, bool, SolveTier), String> {
        let width = perm.num_vars();
        let (table, sigma) = tr.span(canon_layer(width), req, root, || canonical_form(perm, 8));
        let key = CacheKey {
            num_vars: width,
            table,
        };
        n.cache_gets += 1;
        let mut found = tr.span("engine.cache.get", req, root, || {
            self.cache.lock().get(&key)
        });
        let cache_hit = found.is_some();
        n.cache_hits += u64::from(cache_hit);
        if let (None, Some(store)) = (&found, &self.store) {
            n.store_gets += 1;
            found = tr.span("engine.store.get", req, root, || store.lock().get(&key));
            if let Some((circuit, tier)) = &found {
                n.store_hits += 1;
                tr.span("engine.cache.insert", req, root, || {
                    self.cache
                        .lock()
                        .insert(key.clone(), circuit.clone(), *tier)
                });
            }
        }
        let reused = found.is_some();
        let (canon_circuit, tier) = match found {
            Some(hit) => hit,
            None => {
                let spec = tr.span("pprm.from_permutation", req, root, || {
                    MultiPprm::from_permutation(&key.table, width)
                });
                let s = tr
                    .span("core.search", req, root, || {
                        synthesize(&spec, &self.opts).ok()
                    })
                    .ok_or_else(|| n.fail("core.search"))?;
                let st = &s.stats;
                n.nodes_expanded += st.nodes_expanded;
                n.candidates_scored += st.candidates_scored;
                n.candidates_materialized += st.candidates_materialized;
                n.children_pushed += st.children_pushed;
                n.dedup_hits += st.dedup_hits;
                n.restarts += st.restarts;
                n.queue_peak = n.queue_peak.max(st.queue_peak);
                n.live_terms_peak = n.live_terms_peak.max(st.live_terms_peak);
                tr.span("engine.cache.insert", req, root, || {
                    self.cache
                        .lock()
                        .insert(key.clone(), s.circuit.clone(), SolveTier::Rmrls)
                });
                if let Some(store) = &self.store {
                    tr.span("engine.store.insert", req, root, || {
                        store
                            .lock()
                            .insert(&key, &s.circuit, SolveTier::Rmrls, "perfbench")
                    })
                    .map_err(|_| n.fail("engine.store.insert"))?;
                }
                (s.circuit, SolveTier::Rmrls)
            }
        };
        let circuit = tr.span("engine.canon.uncanon", req, root, || {
            uncanonicalize_circuit(&canon_circuit, &sigma)
        });
        if !tr.span("circuit.verify", req, root, || {
            circuit.to_permutation() == perm.as_slice()
        }) {
            return Err(n.fail("circuit.verify"));
        }
        Ok((circuit, reused, tier))
    }
}

fn solved_record(
    name: &str,
    origin: String,
    circuit: Circuit,
    cache_hit: bool,
    tier: SolveTier,
) -> JobRecord {
    JobRecord {
        name: name.to_string(),
        origin,
        cache_hit,
        seconds: 0.0,
        outcome: JobOutcome::Solved {
            circuit,
            verified: Some(true),
            solved_by: tier,
        },
        profile: PhaseProfile::default(),
    }
}

fn gate_strings(c: &Circuit) -> Vec<String> {
    c.gates().iter().map(|g| g.to_string()).collect()
}

/// One `POST /synthesize` as the daemon handles it.
fn serve_op(
    e: &Engine,
    journal: Option<&RequestJournal>,
    bytes: &[u8],
    id: u64,
    tr: &mut Tracer,
    n: &mut Counts,
) -> Replayed {
    let root = tr.open("op", id, None);
    let http = tr
        .span("http.parse", id, root, || {
            read_request_limited(bytes, MAX_BODY)
        })
        .map_err(|_| n.fail("http.parse"))?;
    let request = tr
        .span("serve.request.parse", id, root, || {
            http.body_str()
                .map_err(|e| e.to_string())
                .and_then(SynthesisRequest::from_json_str)
        })
        .map_err(|_| n.fail("serve.request.parse"))?;
    let admission = tr.span("engine.manifest.admit", id, root, || request.admit(id));
    let Admission::Job(job) = &admission else {
        return Err(n.fail("engine.manifest.admit"));
    };
    let SpecData::Perm(perm) = &job.spec else {
        return Err(n.fail("engine.manifest.admit"));
    };
    if let Some(j) = journal {
        tr.span("serve.journal.append", id, root, || {
            j.append_submitted(id, &request)
        })
        .map_err(|_| n.fail("serve.journal.append"))?;
    }
    let (circuit, cache_hit, tier) = e.job(perm, id, root, tr, n)?;
    let gates = gate_strings(&circuit);
    let (record, body) = tr.span("obs.json.encode", id, root, || {
        let record =
            solved_record(&job.name, job.origin.clone(), circuit, cache_hit, tier).to_json();
        let body = Json::Obj(vec![
            ("id".to_string(), Json::uint(id)),
            ("cache_hit".to_string(), Json::Bool(cache_hit)),
            ("record".to_string(), record.clone()),
        ])
        .to_string();
        (record, body)
    });
    if let Some(j) = journal {
        tr.span("serve.journal.append", id, root, || {
            j.append_completed(id, cache_hit, &record)
        })
        .map_err(|_| n.fail("serve.journal.append"))?;
    }
    let mut wire = Vec::with_capacity(body.len() + 128);
    tr.span("http.write", id, root, || {
        write_response(&mut wire, &Response::json(200, body), false)
    })
    .map_err(|e| format!("http.write: {e}"))?;
    tr.close(root);
    Ok(gates)
}

/// One manifest job as `rmrls batch` runs it.
fn batch_op(
    e: &Engine,
    writer: &mut JournalWriter,
    op: &Op,
    index: usize,
    tr: &mut Tracer,
    n: &mut Counts,
) -> Replayed {
    let id = index as u64;
    let root = tr.open("op", id, None);
    let origin = format!("manifest.txt:{}", index + 1);
    let name = format!("perm {}", op.text);
    let admission = tr.span("engine.manifest.admit", id, root, || {
        admit_inline(&name, "perm", &op.text, origin.clone())
    });
    let Admission::Job(job) = &admission else {
        return Err(n.fail("engine.manifest.admit"));
    };
    let SpecData::Perm(perm) = &job.spec else {
        return Err(n.fail("engine.manifest.admit"));
    };
    let (circuit, cache_hit, tier) = e.job(perm, id, root, tr, n)?;
    let gates = gate_strings(&circuit);
    let line = tr.span("obs.json.encode", id, root, || {
        solved_record(&job.name, origin.clone(), circuit, cache_hit, tier)
            .to_json_indexed(index)
            .to_string()
    });
    tr.span("engine.journal.append", id, root, || writer.append(&line))
        .map_err(|_| n.fail("engine.journal.append"))?;
    tr.close(root);
    Ok(gates)
}

/// The operations a workload replays, in order, with the request
/// bytes a client would send for each.
pub fn sequence(w: &Workload) -> Vec<(&Op, Vec<u8>)> {
    w.pool
        .iter()
        .chain(&w.ops)
        .enumerate()
        .map(|(i, op)| (op, proc::synthesize_request(&format!("op{i}"), &op.text)))
        .collect()
}

/// The gate strings one replayed operation returned, or its failure.
pub type Replayed = Result<Vec<String>, String>;

/// One in-process replay of the whole sequence into `dir`. Returns the
/// gate strings per operation (or the failure) and the wall time.
pub fn replay(
    w: &Workload,
    dir: &Path,
    tr: &mut Tracer,
    n: &mut Counts,
) -> Result<(Vec<Replayed>, f64), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let store = dir.join("circuits.store");
    let store = w.durable.then_some(store.as_path());
    let seq = sequence(w);
    let start = Instant::now();
    let mut out = Vec::with_capacity(seq.len());
    let mut engine = Engine::open(store, tr)?;
    if w.name == "batch_cold_store" {
        let admissions: Vec<Admission> = w
            .ops
            .iter()
            .map(|o| admit_inline("perm", "perm", &o.text, String::new()))
            .collect();
        let header = JournalHeader::new(&admissions, &BatchOptions::default());
        let path = dir.join("results.jsonl").to_string_lossy().into_owned();
        let mut writer = JournalWriter::create(&path, &header)?;
        for (i, (op, _)) in seq.iter().enumerate() {
            out.push(batch_op(&engine, &mut writer, op, i, tr, n));
        }
    } else {
        let journal_path = dir.join("requests.journal").to_string_lossy().into_owned();
        let mut journal = match w.durable {
            true => Some(RequestJournal::open(&journal_path)?.0),
            false => None,
        };
        for (i, (_, bytes)) in seq.iter().enumerate() {
            if i == w.pool.len() && i > 0 {
                // The restart between the warm set-up and the stream:
                // a verified store load, an empty LRU, no journal.
                drop(engine);
                engine = Engine::open(store, tr)?;
                journal = None;
            }
            out.push(serve_op(&engine, journal.as_ref(), bytes, i as u64, tr, n));
        }
    }
    n.store_entries = engine.store.as_ref().map_or(0, |s| s.len() as u64);
    let wall = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(dir);
    Ok((out, wall))
}

/// `JobRunner::run` in process over the same sequence, one span per
/// job, with a runner configured like the daemon's.
pub fn runner_replay(w: &Workload, dir: &Path, tr: &mut Tracer) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let store = dir.join("circuits.store").to_string_lossy().into_owned();
    let runner = |store: &str| -> Result<JobRunner, String> {
        Ok(JobRunner::new(BatchOptions {
            store: w.durable.then(|| SharedStore::open(store)).transpose()?,
            ..BatchOptions::default()
        }))
    };
    let mut current = runner(&store)?;
    let cancel = CancelToken::new();
    for (i, (op, _)) in sequence(w).iter().enumerate() {
        if i == w.pool.len() && i > 0 {
            drop(current);
            current = runner(&store)?;
        }
        let admission = admit_inline("perm", "perm", &op.text, format!("request:{i}"));
        tr.span("engine.runner.run", i as u64, None, || {
            current.run(&admission, None, &cancel, None, None)
        });
    }
    drop(current);
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

/// Per-layer numbers from a traced replay.
pub struct LayerStats {
    pub calls: u64,
    pub busy_ms: f64,
    pub p50_ms: f64,
}

/// Self time per span: its duration minus the time its children cover.
pub fn layer_stats(spans: &[Span]) -> BTreeMap<&'static str, LayerStats> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut by_name: BTreeMap<&'static str, (Vec<f64>, f64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = (s.end_ns - s.start_ns) as f64 / 1e6;
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64 / 1e6;
        let entry = by_name.entry(s.name).or_default();
        entry.0.push(dur);
        entry.1 += own;
    }
    by_name
        .into_iter()
        .map(|(name, (durs, busy))| {
            (
                name,
                LayerStats {
                    calls: durs.len() as u64,
                    busy_ms: busy,
                    p50_ms: crate::stats::median(&durs),
                },
            )
        })
        .collect()
}

/// Per request: the summed duration of the root span's children (the
/// layer time of that operation), indexed by request id.
pub fn layer_time_per_op(spans: &[Span], ops: usize) -> Vec<f64> {
    let mut per = vec![0.0; ops];
    for s in spans {
        if let Some(p) = s.parent {
            if spans[p].name == "op" {
                if let Some(slot) = per.get_mut(s.req as usize) {
                    *slot += (s.end_ns - s.start_ns) as f64 / 1e6;
                }
            }
        }
    }
    per
}
