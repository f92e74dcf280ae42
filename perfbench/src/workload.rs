//! Seeded, deterministic workloads built from committed inputs.
//!
//! The specs come from `perfbench/inputs/<workload>.txt`, written once
//! by `perfbench gen-inputs` (see `gen.rs`) and compiled into the
//! benchmark. Each file holds, per quota below, the specs a pass uses,
//! all distinct classes under wire relabeling. A run's `--seed` picks
//! the order they are issued in, which of them repeat and the wire
//! relabelings of repeats, never which specs a run uses: a seeded
//! choice among more specs made the work differ from seed to seed (the
//! three restarting cold specs a seed chose among peaked at 4.0 to 5.4
//! MB of queue, and that one spec sets the workload's peak RSS).
//! Nothing here calls the program under test, so a seed gives the same
//! inputs at every commit, and a change to the search shows in what
//! the same specs cost.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

pub const WORKLOADS: [&str; 3] = [
    "serve_warm_relabel",
    "serve_cold_search",
    "batch_cold_store",
];

/// One request or job: a permutation spec.
#[derive(Clone, Debug)]
pub struct Op {
    pub width: usize,
    pub spec: Vec<u64>,
    /// The spec as the wire form expects it (`1,0,3,2`).
    pub text: String,
}

impl Op {
    pub fn new(width: usize, spec: Vec<u64>) -> Op {
        let text = spec
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        Op { width, spec, text }
    }
}

/// A generated workload.
pub struct Workload {
    pub name: &'static str,
    /// Specs synthesized during set-up (the warm pool); empty otherwise.
    pub pool: Vec<Op>,
    /// One pass of the timed phase, in issue order.
    pub ops: Vec<Op>,
    /// Whether the program runs with a store (and, when serving, a
    /// request journal until the warm restart).
    pub durable: bool,
}

/// A quota: `count` specs per run of `width` wires, drawn as seeded
/// random NCT circuits (the paper's §V-E generator) of one of `gates`
/// gates, whose search under the program's default options drained
/// its queue after expanding `nodes` nodes with a queue peak in
/// `queue_bytes`, restarting (§IV-E) at least once when `restarts`.
pub struct Quota {
    pub width: usize,
    pub gates: &'static [usize],
    pub nodes: Range<u64>,
    pub queue_bytes: Range<u64>,
    pub restarts: bool,
    pub count: usize,
}

/// Queue peak of the cheap quotas. The few specs past it set a run's
/// peak RSS and latency tail on their own.
const SMALL_QUEUE: Range<u64> = 0..1 << 20;

const fn q(width: usize, gates: &'static [usize], nodes: Range<u64>, count: usize) -> Quota {
    Quota {
        width,
        gates,
        nodes,
        queue_bytes: SMALL_QUEUE,
        restarts: false,
        count,
    }
}

/// Warm pool: unique classes at widths 4–8, cheap to synthesize. The
/// 4- and 5-wire classes, which most requests repeat, come from one
/// gate count, so the quality totals vary little across seeds.
const WARM: [Quota; 5] = [
    q(4, &[4], 0..20_001, 48),
    q(5, &[4], 0..20_001, 48),
    q(6, &[3, 4], 0..20_001, 20),
    q(7, &[3, 4], 0..20_001, 16),
    q(8, &[3, 4], 0..20_001, 12),
];

/// Cold specs at widths 4–6. 30% drain under 1k nodes, 45% under 3k
/// and 25% in 4k–6k, so the median request sits inside the middle
/// band. One more spec restarts its search and builds a queue of a
/// few MB, so the restart path and the queue's memory are measured.
const COLD: [Quota; 9] = [
    Quota {
        width: 4,
        gates: &[11, 12],
        nodes: 25_000..60_001,
        queue_bytes: 2 << 20..8 << 20,
        restarts: true,
        count: 1,
    },
    q(4, &[6], 0..1_000, 15),
    q(4, &[6], 1_000..3_000, 15),
    q(4, &[6], 4_000..6_001, 35),
    q(5, &[5, 6], 0..1_000, 20),
    q(5, &[5, 6], 1_000..3_000, 30),
    q(5, &[5, 6], 4_000..6_001, 10),
    q(6, &[5], 0..1_000, 19),
    q(6, &[5], 1_000..3_000, 36),
];

/// Queue peak of the batch jobs. A batch process's peak RSS follows
/// its largest queue, so a tighter bound than the serve workloads'
/// keeps it from depending on which specs a seed picks.
const BATCH_QUEUE: Range<u64> = 0..384 << 10;

const fn b(width: usize, gates: &'static [usize], nodes: Range<u64>, count: usize) -> Quota {
    Quota {
        queue_bytes: BATCH_QUEUE,
        ..q(width, gates, nodes, count)
    }
}

/// Unique batch jobs at widths 3–5. With the repeats, the 3-wire jobs
/// make the cheapest 40%, so the median job sits inside the 1k–2k
/// node band.
const BATCH: [Quota; 5] = [
    b(3, &[4, 5, 6], 0..4_001, 10),
    b(4, &[6], 1_000..2_000, 20),
    b(4, &[6], 2_000..4_001, 25),
    b(5, &[5, 6], 1_000..2_000, 20),
    b(5, &[5, 6], 2_000..4_001, 25),
];

/// Repeats appended to the batch manifest.
const BATCH_REPEATS: usize = 50;

/// The quotas of a workload.
pub fn quotas(name: &str) -> Result<&'static [Quota], String> {
    match name {
        "serve_warm_relabel" => Ok(&WARM),
        "serve_cold_search" => Ok(&COLD),
        "batch_cold_store" => Ok(&BATCH),
        other => Err(format!(
            "unknown workload {other:?} (one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

fn inputs_text(name: &str) -> &'static str {
    match name {
        "serve_warm_relabel" => include_str!("../inputs/serve_warm_relabel.txt"),
        "serve_cold_search" => include_str!("../inputs/serve_cold_search.txt"),
        _ => include_str!("../inputs/batch_cold_store.txt"),
    }
}

/// The committed specs of a workload, per quota, in file order. A line
/// is `<quota> <nodes> <restarts> <queue_bytes> <spec>`; `#` starts a
/// comment line.
fn inputs(name: &str, quotas: &[Quota]) -> Result<Vec<Vec<Op>>, String> {
    let mut per_quota: Vec<Vec<Op>> = quotas.iter().map(|_| Vec::new()).collect();
    for (k, line) in inputs_text(name).lines().enumerate() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let bad = |what: &str| format!("inputs/{name}.txt line {}: {what}", k + 1);
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [quota, _, _, _, spec] = fields[..] else {
            return Err(bad("expected five fields"));
        };
        let quota: usize = quota.parse().map_err(|_| bad("bad quota"))?;
        let spec: Vec<u64> = spec
            .split(',')
            .map(str::parse)
            .collect::<Result<_, _>>()
            .map_err(|_| bad("bad spec"))?;
        let width = spec.len().trailing_zeros() as usize;
        let slot = per_quota
            .get_mut(quota)
            .ok_or_else(|| bad("no such quota"))?;
        if spec.len() != 1 << width || width != quotas[quota].width {
            return Err(bad("spec width does not match its quota"));
        }
        slot.push(Op::new(width, spec));
    }
    for (i, (ops, quota)) in per_quota.iter().zip(quotas).enumerate() {
        if ops.len() != quota.count {
            return Err(format!(
                "inputs/{name}.txt has {} specs for quota {i}, which needs {}",
                ops.len(),
                quota.count
            ));
        }
    }
    Ok(per_quota)
}

/// `x` with bit `i` moved to bit `sigma[i]`.
fn permute_bits(x: u64, sigma: &[u8]) -> u64 {
    sigma
        .iter()
        .enumerate()
        .fold(0, |y, (i, &to)| y | (x >> i & 1) << to)
}

/// A uniformly random wire relabeling of `op` (the identity included):
/// the spec with every input and output word's bits moved alike.
fn relabel(op: &Op, rng: &mut StdRng) -> Op {
    let mut sigma: Vec<u8> = (0..op.width as u8).collect();
    sigma.shuffle(rng);
    let mut spec = vec![0; op.spec.len()];
    for (x, &y) in op.spec.iter().enumerate() {
        spec[permute_bits(x as u64, &sigma) as usize] = permute_bits(y, &sigma);
    }
    Op::new(op.width, spec)
}

/// A relabeled (`relabeled_in_10` in ten) or exact repeat of `op`.
fn repeat(op: &Op, relabeled_in_10: u32, rng: &mut StdRng) -> Op {
    if rng.random_range(0..10u32) < relabeled_in_10 {
        relabel(op, rng)
    } else {
        op.clone()
    }
}

pub fn generate(name: &str, seed: u64) -> Result<Workload, String> {
    let quotas = quotas(name)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let specs: Vec<Vec<Op>> = inputs(name, quotas)?
        .into_iter()
        .map(|mut ops| {
            ops.shuffle(&mut rng);
            ops
        })
        .collect();
    match name {
        "serve_warm_relabel" => {
            let pool: Vec<Op> = specs.into_iter().flatten().collect();
            // One pass requests every class a fixed number of times,
            // each a relabeled (70%) or exact (30%) repeat. 86% of the
            // requests are at 4 or 5 wires, so the median sits well
            // inside that group, below the slower part of it that runs
            // beside an 8-wire request. The 7% at 8 wires make the tail:
            // a pass's 95th percentile (the highest with ten requests
            // beyond it) sits well inside them.
            let mut ops = Vec::new();
            for (width, repeats) in [(4, 3), (5, 6), (6, 1), (7, 1), (8, 3)] {
                for class in pool.iter().filter(|o| o.width == width) {
                    for _ in 0..repeats {
                        ops.push(repeat(class, 7, &mut rng));
                    }
                }
            }
            ops.shuffle(&mut rng);
            Ok(Workload {
                name: "serve_warm_relabel",
                pool,
                ops,
                durable: true,
            })
        }
        "serve_cold_search" => {
            // The restarting spec goes first, so it runs beside the
            // cheap ones rather than alone at the end of a pass.
            let (heavy, cheap): (Vec<_>, Vec<_>) = specs
                .into_iter()
                .zip(quotas)
                .partition(|(_, quota)| quota.restarts);
            let mut ops: Vec<Op> = cheap.into_iter().flat_map(|(ops, _)| ops).collect();
            ops.shuffle(&mut rng);
            let mut first: Vec<Op> = heavy.into_iter().flat_map(|(ops, _)| ops).collect();
            first.extend(ops);
            Ok(Workload {
                name: "serve_cold_search",
                pool: Vec::new(),
                ops: first,
                durable: false,
            })
        }
        _ => {
            let mut unique: Vec<Op> = specs.into_iter().flatten().collect();
            unique.shuffle(&mut rng);
            // Repeats draw from all but the last few unique jobs, so no
            // repeat can run while its original is still searching.
            let mut repeats: Vec<Op> = (0..BATCH_REPEATS)
                .map(|_| {
                    let original = &unique[rng.random_range(0..unique.len() - 8)];
                    repeat(original, 5, &mut rng)
                })
                .collect();
            repeats.shuffle(&mut rng);
            unique.extend(repeats);
            Ok(Workload {
                name: "batch_cold_store",
                pool: Vec::new(),
                ops: unique,
                durable: true,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmrls_engine::canonical_form;
    use rmrls_spec::Permutation;

    fn texts(w: &Workload) -> Vec<String> {
        w.pool
            .iter()
            .chain(&w.ops)
            .map(|o| o.text.clone())
            .collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        for name in WORKLOADS {
            let a = generate(name, 3).unwrap();
            let b = generate(name, 3).unwrap();
            assert_eq!(texts(&a), texts(&b));
            let c = generate(name, 4).unwrap();
            assert_ne!(texts(&a), texts(&c));
        }
        assert_eq!(generate("batch_cold_store", 3).unwrap().ops.len(), 150);
    }

    #[test]
    fn every_quota_has_its_specs_in_distinct_classes() {
        for name in WORKLOADS {
            let quotas = quotas(name).unwrap();
            let per_quota = inputs(name, quotas).unwrap();
            let mut classes = std::collections::HashSet::new();
            for (ops, quota) in per_quota.iter().zip(quotas) {
                assert_eq!(ops.len(), quota.count, "{name}");
                for op in ops {
                    let perm = Permutation::from_vec(op.spec.clone()).unwrap();
                    assert!(classes.insert(canonical_form(&perm, 8).0), "{name}");
                }
            }
        }
    }

    #[test]
    fn a_relabeling_stays_in_its_class() {
        let w = generate("serve_warm_relabel", 1).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        for op in w.pool.iter().take(40) {
            let r = relabel(op, &mut rng);
            let canon =
                |o: &Op| canonical_form(&Permutation::from_vec(o.spec.clone()).unwrap(), 8).0;
            assert_eq!(canon(op), canon(&r));
        }
    }
}
