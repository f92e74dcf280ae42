//! Canonical representatives under wire relabeling.
//!
//! Two specifications that differ only by a renaming of wires have
//! structurally identical syntheses: if circuit `C` realizes `π`, then
//! `C` with every gate's wires renamed through `σ` realizes the
//! conjugate `p_σ ∘ π ∘ p_σ⁻¹`, where `p_σ` is the bit permutation
//! moving bit `i` to bit `σ[i]`. The batch cache exploits this by
//! keying every permutation job on the lexicographically smallest
//! conjugate over all `σ ∈ S_n` — the **canonical representative** —
//! and mapping a cached canonical circuit back to the requested
//! labeling with a SWAP-free gate-mask rewrite.
//!
//! The minimization enumerates all `n!` wire permutations (Heap's
//! algorithm). It builds no table per `σ`: each conjugate entry is
//! computed in index order and compared with the running best, and `σ`
//! is decided at the first entry that differs, so a random permutation
//! pays about one entry per `σ`. `p_σ` and `p_σ⁻¹` are
//! evaluated through per-`σ` nibble lookup tables (`16·⌈n/4⌉` entries
//! each) instead of `n` shifts per bit. Symmetric specifications tie on
//! long prefixes for many `σ` and are the worst case: the identity ties
//! on all `2^n` entries for every `σ`. Measured on a 2-core x86-64 host
//! (release build): random permutations take about 0.04 ms at n=6,
//! 0.2 ms at n=7 and 1.5–2 ms at n=8; the identity at n=8 takes ~45 ms
//! (the full-table comparison took 0.8, 12, 226 and 247 ms). The search
//! is gated on `canon_limit` (default 8 wires); wider permutations fall
//! back to the identity labeling and still cache on their raw table.

use rmrls_circuit::{Circuit, Gate};
use rmrls_spec::Permutation;

/// A wire relabeling: wire `i` of the original becomes wire
/// `sigma[i]` of the canonical form.
pub type WirePerm = Vec<u8>;

/// Applies the bit permutation `p_σ`: bit `i` of `x` moves to bit
/// `sigma[i]` of the result.
pub fn permute_bits(x: u64, sigma: &[u8]) -> u64 {
    let mut y = 0u64;
    for (i, &s) in sigma.iter().enumerate() {
        y |= (x >> i & 1) << s;
    }
    y
}

/// The inverse relabeling: `inverse(σ)[σ[i]] = i`.
pub fn inverse_wire_perm(sigma: &[u8]) -> WirePerm {
    let mut inv = vec![0u8; sigma.len()];
    for (i, &s) in sigma.iter().enumerate() {
        inv[s as usize] = i as u8;
    }
    inv
}

/// Conjugates a permutation table by the wire relabeling `sigma`:
/// returns the table of `p_σ ∘ π ∘ p_σ⁻¹`.
pub fn conjugate_table(map: &[u64], sigma: &[u8]) -> Vec<u64> {
    let mut out = vec![0u64; map.len()];
    for (x, &y) in map.iter().enumerate() {
        out[permute_bits(x as u64, sigma) as usize] = permute_bits(y, sigma);
    }
    out
}

/// The canonical representative of `perm` under wire relabeling, and
/// the relabeling `σ*` that produces it (`canon = p_σ* ∘ π ∘ p_σ*⁻¹`).
///
/// Visits every `σ` in Heap's-algorithm order (identity first) and keeps
/// the first strictly smaller conjugate, so ties resolve to the earliest
/// `σ` visited. Each conjugate is computed entry by entry against the
/// running best and decided at the first entry that differs.
///
/// When `perm` is wider than `canon_limit` the search is skipped and
/// the permutation is its own representative under the identity
/// relabeling — correct, just without cross-labeling cache sharing.
pub fn canonical_form(perm: &Permutation, canon_limit: usize) -> (Vec<u64>, WirePerm) {
    let n = perm.num_vars();
    let map = perm.as_slice();
    let identity: WirePerm = (0..n as u8).collect();
    if n > canon_limit || n <= 1 {
        return (map.to_vec(), identity);
    }
    let mut best_table = map.to_vec();
    let mut best_sigma = identity.clone();
    let mut sigma = identity.clone();
    let mut inv = identity;
    // `fwd` evaluates p_σ and `back` evaluates p_σ⁻¹ = p_inv.
    let mut fwd = BitPermLut::new(n);
    let mut back = BitPermLut::new(n);
    // Heap's algorithm over σ; the identity is the first visited state.
    let mut c = vec![0usize; n];
    let mut i = 0;
    while i < n {
        if c[i] < i {
            let j = if i % 2 == 0 { 0 } else { c[i] };
            sigma.swap(j, i);
            inv[sigma[j] as usize] = j as u8;
            inv[sigma[i] as usize] = i as u8;
            fwd.rebuild(&sigma);
            back.rebuild(&inv);
            if replace_if_smaller(map, &fwd, &back, &mut best_table) {
                best_sigma.copy_from_slice(&sigma);
            }
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    (best_table, best_sigma)
}

/// Overwrites `best` with the conjugate `x ↦ fwd(map[back(x)])` if that
/// table is lexicographically strictly smaller, and reports whether it
/// was. Entries are computed in index order and the comparison stops at
/// the first one that differs, so a losing `σ` usually costs one or two
/// entries; on a win only the tail from the first smaller entry on is
/// written, since the prefix before it is equal.
fn replace_if_smaller(map: &[u64], fwd: &BitPermLut, back: &BitPermLut, best: &mut [u64]) -> bool {
    let entry = |x: usize| fwd.apply(map[back.apply(x as u64) as usize]);
    for x in 0..best.len() {
        let y = entry(x);
        if y > best[x] {
            return false;
        }
        if y < best[x] {
            best[x] = y;
            for (x, slot) in best.iter_mut().enumerate().skip(x + 1) {
                *slot = entry(x);
            }
            return true;
        }
    }
    false
}

/// A bit permutation `p_σ` tabulated per 4-bit input nibble: the image
/// of `x` is the OR of one 16-entry lookup per nibble of `x`. A bit
/// permutation is XOR-linear, so each table fills in 15 steps as
/// `t[v] = t[v & (v-1)] | image(lowest set bit of v)`.
struct BitPermLut {
    tables: Vec<[u64; 16]>,
}

impl BitPermLut {
    fn new(num_vars: usize) -> BitPermLut {
        BitPermLut {
            tables: vec![[0; 16]; num_vars.div_ceil(4)],
        }
    }

    /// Re-tabulates for `sigma` (bit `i` moves to bit `sigma[i]`); bits
    /// at or past `sigma.len()` map to nothing.
    fn rebuild(&mut self, sigma: &[u8]) {
        for (j, table) in self.tables.iter_mut().enumerate() {
            for v in 1..16usize {
                let bit = 4 * j + v.trailing_zeros() as usize;
                let image = sigma.get(bit).map_or(0, |&s| 1u64 << s);
                table[v] = table[v & (v - 1)] | image;
            }
        }
    }

    fn apply(&self, x: u64) -> u64 {
        self.tables
            .iter()
            .enumerate()
            .fold(0, |y, (j, table)| y | table[(x >> (4 * j) & 15) as usize])
    }
}

/// Renames every wire of `circuit` through `rho` (wire `i` → wire
/// `rho[i]`), without inserting any SWAP gates. If `circuit` realizes
/// `f`, the result realizes `p_ρ ∘ f ∘ p_ρ⁻¹`.
pub fn relabel_circuit(circuit: &Circuit, rho: &[u8]) -> Circuit {
    let remap_mask = |mask: u32| -> u32 {
        let mut out = 0u32;
        for (i, &r) in rho.iter().enumerate() {
            out |= (mask >> i & 1) << r;
        }
        out
    };
    let gates = circuit
        .gates()
        .iter()
        .map(|g| match *g {
            Gate::Toffoli { controls, target } => {
                Gate::toffoli_mask(remap_mask(controls), rho[target as usize] as usize)
            }
            Gate::Fredkin { controls, targets } => Gate::fredkin_mask(
                remap_mask(controls),
                rho[targets.0 as usize] as usize,
                rho[targets.1 as usize] as usize,
            ),
        })
        .collect();
    Circuit::from_gates(circuit.width(), gates)
}

/// Maps a circuit for the canonical representative back to the
/// original labeling: given `C` realizing `p_σ ∘ π ∘ p_σ⁻¹`, returns a
/// circuit realizing `π`.
pub fn uncanonicalize_circuit(canonical: &Circuit, sigma: &[u8]) -> Circuit {
    relabel_circuit(canonical, &inverse_wire_perm(sigma))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    #[test]
    fn permute_bits_round_trips() {
        let sigma = [2u8, 0, 1];
        let inv = inverse_wire_perm(&sigma);
        for x in 0..8u64 {
            assert_eq!(permute_bits(permute_bits(x, &sigma), &inv), x);
        }
    }

    #[test]
    fn conjugation_by_identity_is_identity() {
        let p = Permutation::from_vec(vec![1, 0, 7, 2, 3, 4, 5, 6]).unwrap();
        let (table, _) = canonical_form(&p, 0); // above limit: no search
        assert_eq!(table, p.as_slice());
    }

    /// The exhaustive minimization `canonical_form` must reproduce: one
    /// full conjugate table per `σ`, in the same Heap's-algorithm order
    /// and with the same strict-`<` tie-break.
    fn brute_force_canonical_form(perm: &Permutation) -> (Vec<u64>, WirePerm) {
        let n = perm.num_vars();
        let mut best_table = perm.as_slice().to_vec();
        let mut best_sigma: WirePerm = (0..n as u8).collect();
        let mut sigma = best_sigma.clone();
        let mut c = vec![0usize; n];
        let mut i = 0;
        while i < n {
            if c[i] < i {
                sigma.swap(if i % 2 == 0 { 0 } else { c[i] }, i);
                let table = conjugate_table(perm.as_slice(), &sigma);
                if table < best_table {
                    best_table = table;
                    best_sigma = sigma.clone();
                }
                c[i] += 1;
                i = 0;
            } else {
                c[i] = 0;
                i += 1;
            }
        }
        (best_table, best_sigma)
    }

    /// 8-wire specs from the `serve_warm_relabel` benchmark inputs.
    const RELABEL8: [&[u64]; 3] = [
        &[
            0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23,
            24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 38, 39, 36, 37, 34, 35, 40, 41, 46, 47, 44, 45,
            42, 43, 48, 49, 54, 55, 52, 53, 50, 51, 56, 57, 62, 63, 60, 61, 58, 59, 65, 64, 67, 66,
            69, 68, 71, 70, 73, 72, 75, 74, 77, 76, 79, 78, 81, 80, 83, 82, 85, 84, 87, 86, 89, 88,
            91, 90, 93, 92, 95, 94, 97, 96, 103, 102, 101, 100, 99, 98, 105, 104, 111, 110, 109,
            108, 107, 106, 113, 112, 119, 118, 117, 116, 115, 114, 121, 120, 127, 126, 125, 124,
            123, 122, 128, 129, 130, 131, 132, 133, 134, 135, 136, 137, 138, 139, 140, 141, 142,
            143, 144, 145, 146, 147, 148, 149, 150, 151, 152, 153, 154, 155, 156, 157, 158, 159,
            160, 161, 166, 167, 164, 165, 162, 163, 168, 169, 174, 175, 172, 173, 170, 171, 176,
            177, 182, 183, 180, 181, 178, 179, 184, 185, 190, 191, 188, 189, 186, 187, 193, 192,
            195, 194, 197, 196, 199, 198, 201, 200, 203, 202, 205, 204, 207, 206, 209, 208, 211,
            210, 213, 212, 215, 214, 217, 216, 219, 218, 221, 220, 223, 222, 225, 224, 231, 230,
            229, 228, 227, 226, 233, 232, 239, 238, 237, 236, 235, 234, 241, 240, 247, 246, 245,
            244, 243, 242, 249, 248, 255, 254, 253, 252, 251, 250,
        ],
        &[
            128, 145, 130, 147, 132, 149, 134, 151, 8, 25, 10, 27, 12, 29, 14, 31, 144, 129, 146,
            131, 148, 133, 150, 135, 24, 9, 26, 11, 28, 13, 30, 15, 160, 177, 162, 179, 164, 181,
            166, 183, 40, 57, 42, 59, 44, 61, 46, 63, 176, 161, 178, 163, 180, 165, 182, 167, 56,
            41, 58, 43, 60, 45, 62, 47, 192, 209, 194, 211, 196, 213, 198, 215, 72, 89, 74, 91, 76,
            93, 78, 95, 208, 193, 210, 195, 212, 197, 214, 199, 88, 73, 90, 75, 92, 77, 94, 79,
            224, 241, 226, 243, 228, 245, 230, 247, 104, 121, 106, 123, 108, 125, 110, 127, 240,
            225, 242, 227, 244, 229, 246, 231, 120, 105, 122, 107, 124, 109, 126, 111, 0, 17, 2,
            19, 4, 21, 6, 23, 136, 153, 138, 155, 140, 157, 142, 159, 16, 1, 18, 3, 20, 5, 22, 7,
            152, 137, 154, 139, 156, 141, 158, 143, 32, 49, 34, 51, 36, 53, 38, 55, 168, 185, 170,
            187, 172, 189, 174, 191, 48, 33, 50, 35, 52, 37, 54, 39, 184, 169, 186, 171, 188, 173,
            190, 175, 64, 81, 66, 83, 68, 85, 70, 87, 200, 217, 202, 219, 204, 221, 206, 223, 80,
            65, 82, 67, 84, 69, 86, 71, 216, 201, 218, 203, 220, 205, 222, 207, 96, 113, 98, 115,
            100, 117, 102, 119, 232, 249, 234, 251, 236, 253, 238, 255, 112, 97, 114, 99, 116, 101,
            118, 103, 248, 233, 250, 235, 252, 237, 254, 239,
        ],
        &[
            0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 48, 49, 50, 51, 52, 53, 54, 55,
            56, 57, 58, 59, 60, 61, 62, 63, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45,
            46, 47, 17, 16, 19, 18, 21, 20, 23, 22, 25, 24, 27, 26, 29, 28, 31, 30, 64, 65, 66, 67,
            68, 69, 70, 71, 72, 73, 74, 75, 76, 77, 78, 79, 112, 113, 114, 115, 116, 117, 118, 119,
            120, 121, 122, 123, 124, 125, 126, 127, 224, 225, 226, 227, 228, 229, 230, 231, 232,
            233, 234, 235, 236, 237, 238, 239, 209, 208, 211, 210, 213, 212, 215, 214, 217, 216,
            219, 218, 221, 220, 223, 222, 128, 129, 130, 131, 132, 133, 134, 135, 136, 137, 138,
            139, 140, 141, 142, 143, 176, 177, 178, 179, 180, 181, 182, 183, 184, 185, 186, 187,
            188, 189, 190, 191, 160, 161, 162, 163, 164, 165, 166, 167, 168, 169, 170, 171, 172,
            173, 174, 175, 145, 144, 147, 146, 149, 148, 151, 150, 153, 152, 155, 154, 157, 156,
            159, 158, 192, 193, 194, 195, 196, 197, 198, 199, 200, 201, 202, 203, 204, 205, 206,
            207, 240, 241, 242, 243, 244, 245, 246, 247, 248, 249, 250, 251, 252, 253, 254, 255,
            96, 97, 98, 99, 100, 101, 102, 103, 104, 105, 106, 107, 108, 109, 110, 111, 81, 80, 83,
            82, 85, 84, 87, 86, 89, 88, 91, 90, 93, 92, 95, 94,
        ],
    ];

    #[test]
    fn matches_brute_force_on_random_permutations() {
        for seed in [1u64, 2, 3, 4] {
            let mut rng = StdRng::seed_from_u64(seed);
            for n in 2..=7 {
                let p = rmrls_spec::random_permutation(n, &mut rng);
                assert_eq!(
                    canonical_form(&p, 8),
                    brute_force_canonical_form(&p),
                    "n={n} seed={seed}"
                );
            }
        }
        // Each n=8 oracle call walks 40320 full tables; keep them few.
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..3 {
            let p = rmrls_spec::random_permutation(8, &mut rng);
            assert_eq!(canonical_form(&p, 8), brute_force_canonical_form(&p));
        }
    }

    #[test]
    fn matches_brute_force_on_symmetric_and_served_specs() {
        // Symmetric specs tie on long prefixes (the identity on every
        // entry for every σ), the case where early exit helps least.
        let nots: Vec<Gate> = (0..8).map(|w| Gate::toffoli(&[] as &[usize], w)).collect();
        let symmetric = [
            Circuit::new(8),
            Circuit::from_gates(8, nots),
            Circuit::from_gates(8, vec![Gate::toffoli(&[] as &[usize], 5)]),
            Circuit::from_gates(8, vec![Gate::toffoli(&[1, 4], 6), Gate::toffoli(&[6], 1)]),
        ];
        let tables = symmetric
            .iter()
            .map(Circuit::to_permutation)
            .chain(RELABEL8.iter().map(|t| t.to_vec()));
        for (k, table) in tables.enumerate() {
            let p = Permutation::from_vec(table).unwrap();
            assert_eq!(
                canonical_form(&p, 8),
                brute_force_canonical_form(&p),
                "spec #{k}"
            );
        }
    }

    #[test]
    fn canonical_form_is_relabeling_invariant() {
        // π and every conjugate of π share one canonical table.
        let mut rng = StdRng::seed_from_u64(11);
        for n in 3..=8 {
            for _ in 0..3 {
                let p = rmrls_spec::random_permutation(n, &mut rng);
                let (canon, _) = canonical_form(&p, 8);
                let mut sigma: WirePerm = (0..n as u8).collect();
                sigma.shuffle(&mut rng);
                let relabeled =
                    Permutation::from_vec(conjugate_table(p.as_slice(), &sigma)).unwrap();
                let (canon2, _) = canonical_form(&relabeled, 8);
                assert_eq!(
                    canon, canon2,
                    "conjugates must share a canonical form (n={n})"
                );
            }
        }
    }

    #[test]
    fn canonical_sigma_reproduces_the_table() {
        let mut rng = StdRng::seed_from_u64(13);
        let p = rmrls_spec::random_permutation(4, &mut rng);
        let (canon, sigma) = canonical_form(&p, 8);
        assert_eq!(conjugate_table(p.as_slice(), &sigma), canon);
        // Canonical is lexicographically minimal, so never above the
        // original table.
        assert!(canon <= p.as_slice().to_vec());
    }

    #[test]
    fn relabeled_circuit_realizes_the_conjugate() {
        // C = CNOT(a→b) then NOT(c) on 3 wires.
        let c = Circuit::from_gates(
            3,
            vec![Gate::toffoli(&[0], 1), Gate::toffoli(&[] as &[usize], 2)],
        );
        let sigma = [2u8, 0, 1];
        let relabeled = relabel_circuit(&c, &sigma);
        for x in 0..8u64 {
            let inv = inverse_wire_perm(&sigma);
            let expected = permute_bits(c.apply(permute_bits(x, &inv)), &sigma);
            assert_eq!(relabeled.apply(x), expected, "input {x}");
        }
    }

    #[test]
    fn uncanonicalize_recovers_the_original_function() {
        // Synthesize the canonical form, map back, verify against π.
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..4 {
            let p = rmrls_spec::random_permutation(3, &mut rng);
            let (canon, sigma) = canonical_form(&p, 8);
            let canon_spec = rmrls_pprm::MultiPprm::from_permutation(&canon, 3);
            let opts = rmrls_core::SynthesisOptions::new().with_max_nodes(50_000);
            let canon_circuit = rmrls_core::synthesize(&canon_spec, &opts)
                .expect("3-variable canon synthesizes")
                .circuit;
            let circuit = uncanonicalize_circuit(&canon_circuit, &sigma);
            assert_eq!(
                circuit.to_permutation(),
                p.as_slice(),
                "conjugated circuit must realize the original permutation"
            );
        }
    }

    #[test]
    fn fredkin_gates_relabel_too() {
        let c = Circuit::from_gates(3, vec![Gate::fredkin_mask(0b100, 0, 1)]);
        let sigma = [1u8, 2, 0];
        let relabeled = relabel_circuit(&c, &sigma);
        let inv = inverse_wire_perm(&sigma);
        for x in 0..8u64 {
            let expected = permute_bits(c.apply(permute_bits(x, &inv)), &sigma);
            assert_eq!(relabeled.apply(x), expected);
        }
    }
}
