//! `perfbench gen-inputs DIR`: writes the committed workload inputs.
//!
//! Run it only when a workload is redefined, and commit its output:
//!
//! ```text
//! bash perfbench/run.sh gen-inputs perfbench/inputs
//! ```
//!
//! For each quota of `workload.rs` it draws seeded random NCT circuit
//! specs (`random_circuit_spec`, the paper's §V-E generator), drops
//! any spec whose class under wire relabeling (`canonical_form`) it
//! has already drawn, and screens each with the search the program
//! runs, capped at the quota's node band. A spec is kept when its
//! search drains its queue within the quota's bands. The search only
//! stops early on the cap, so at this commit the program does exactly
//! the screened work for a kept spec. The same code and seed write the
//! same files.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::Path;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmrls_core::{synthesize, StopReason};
use rmrls_engine::{canonical_form, BatchOptions};
use rmrls_pprm::MultiPprm;
use rmrls_spec::{random_circuit_spec, GateLibrary, Permutation};

use crate::workload::{quotas, Quota, WORKLOADS};

/// What a screened search did.
struct Screened {
    nodes: u64,
    restarts: u64,
    queue_bytes: u64,
}

struct Candidate {
    width: usize,
    spec: Vec<u64>,
}

/// Canonical table and, when the search capped at `cap` nodes drained
/// its queue, what it did.
fn screen(c: &Candidate, cap: u64) -> (Vec<u64>, Option<Screened>) {
    let perm = Permutation::from_vec(c.spec.clone()).expect("a circuit is a bijection");
    let (canon, _) = canonical_form(&perm, 8);
    let opts = BatchOptions::default().synthesis.with_max_nodes(cap);
    let screened = match synthesize(&MultiPprm::from_permutation(&canon, c.width), &opts) {
        Ok(s) if s.stats.stop_reason == Some(StopReason::QueueExhausted) => Some(Screened {
            nodes: s.stats.nodes_expanded,
            restarts: s.stats.restarts,
            queue_bytes: s.stats.queue_bytes_peak,
        }),
        _ => None,
    };
    (canon, screened)
}

fn fits(q: &Quota, s: &Screened) -> bool {
    q.nodes.contains(&s.nodes)
        && q.queue_bytes.contains(&s.queue_bytes)
        && (!q.restarts || s.restarts > 0)
}

/// Draws specs until every quota holds its count, and
/// returns them as inputs-file lines. Candidates are drawn serially
/// from `rng` and screened on two threads, then accepted in draw
/// order, so the result depends only on the seed.
fn fill(quotas: &[Quota], rng: &mut StdRng) -> Result<Vec<String>, String> {
    let mut left: Vec<usize> = quotas.iter().map(|q| q.count).collect();
    let cap = |width: usize| {
        let ends = quotas.iter().filter(|q| q.width == width);
        ends.map(|q| q.nodes.end).max().unwrap_or(0)
    };
    let mut seen: HashSet<Vec<u64>> = HashSet::new();
    let mut lines = vec![Vec::new(); quotas.len()];
    let mut drawn = 0usize;
    while left.iter().any(|&n| n > 0) {
        if drawn > 200_000 {
            return Err("the generator cannot fill its quotas".to_string());
        }
        let mut chunk = Vec::new();
        for (q, _) in quotas.iter().zip(&left).filter(|(_, &n)| n > 0) {
            for _ in 0..8 {
                let gates = q.gates[rng.random_range(0..q.gates.len())];
                let (perm, _) = random_circuit_spec(q.width, gates, GateLibrary::Nct, rng);
                chunk.push(Candidate {
                    width: q.width,
                    spec: perm.as_slice().to_vec(),
                });
            }
        }
        drawn += chunk.len();
        let half = chunk.len().div_ceil(2);
        let screened: Vec<(Vec<u64>, Option<Screened>)> = std::thread::scope(|s| {
            let handles: Vec<_> = chunk
                .chunks(half)
                .map(|part| {
                    s.spawn(move || {
                        part.iter()
                            .map(|c| screen(c, cap(c.width)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("screening thread panicked"))
                .collect()
        });
        for (c, (canon, screened)) in chunk.into_iter().zip(screened) {
            if !seen.insert(canon) {
                continue;
            }
            let Some(s) = screened else { continue };
            let slot = (0..quotas.len())
                .find(|&i| left[i] > 0 && quotas[i].width == c.width && fits(&quotas[i], &s));
            if let Some(i) = slot {
                left[i] -= 1;
                let spec: Vec<String> = c.spec.iter().map(u64::to_string).collect();
                lines[i].push(format!(
                    "{i} {} {} {} {}",
                    s.nodes,
                    s.restarts,
                    s.queue_bytes,
                    spec.join(",")
                ));
            }
        }
    }
    Ok(lines.concat())
}

pub fn run(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    for (k, name) in WORKLOADS.into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(k as u64);
        let lines = fill(quotas(name)?, &mut rng)?;
        let mut text = String::new();
        let _ = writeln!(
            text,
            "# Inputs of the {name} workload, written by `perfbench gen-inputs`."
        );
        let _ = writeln!(text, "# quota nodes restarts queue_bytes spec");
        for line in lines {
            let _ = writeln!(text, "{line}");
        }
        let path = dir.join(format!("{name}.txt"));
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}
