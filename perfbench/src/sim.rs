//! An independent simulator for the gate strings `rmrls` returns.
//!
//! It shares no code with `rmrls-circuit`: it parses the paper's
//! notation (`TOFn(c1,...,t)` and `FREn(c1,...,t0,t1)`, wires named
//! `a`, `b`, ... for bits 0, 1, ... and `xN` past `z`), applies the
//! cascade to every input word and compares the result with the spec.

/// One parsed gate: a control mask and the target bit(s).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SimGate {
    Toffoli { controls: u64, target: u32 },
    Fredkin { controls: u64, t0: u32, t1: u32 },
}

fn wire_index(name: &str) -> Result<u32, String> {
    let bad = || format!("bad wire name {name:?}");
    if let Some(digits) = name.strip_prefix('x') {
        if !digits.is_empty() {
            return digits.parse::<u32>().map_err(|_| bad());
        }
    }
    let mut chars = name.chars();
    match (chars.next(), chars.next()) {
        (Some(c @ 'a'..='z'), None) => Ok(c as u32 - 'a' as u32),
        _ => Err(bad()),
    }
}

fn parse_gate(text: &str, width: usize) -> Result<SimGate, String> {
    let (head, rest) = text
        .split_once('(')
        .ok_or_else(|| format!("gate {text:?} has no argument list"))?;
    let args = rest
        .strip_suffix(')')
        .ok_or_else(|| format!("gate {text:?} is not closed"))?;
    let (kind, size) = if let Some(n) = head.strip_prefix("TOF") {
        ("TOF", n)
    } else if let Some(n) = head.strip_prefix("FRE") {
        ("FRE", n)
    } else {
        return Err(format!("unknown gate kind in {text:?}"));
    };
    let size: usize = size
        .parse()
        .map_err(|_| format!("bad gate size in {text:?}"))?;
    let wires = args
        .split(',')
        .map(wire_index)
        .collect::<Result<Vec<u32>, String>>()?;
    if wires.len() != size {
        return Err(format!("gate {text:?} names {} wires", wires.len()));
    }
    let mut seen = 0u64;
    for &w in &wires {
        if w as usize >= width || seen >> w & 1 == 1 {
            return Err(format!("gate {text:?} repeats or exceeds a wire"));
        }
        seen |= 1 << w;
    }
    let mask = |ws: &[u32]| ws.iter().fold(0u64, |m, &w| m | 1 << w);
    match kind {
        "TOF" => {
            let (target, controls) = wires.split_last().expect("size checked above");
            Ok(SimGate::Toffoli {
                controls: mask(controls),
                target: *target,
            })
        }
        _ => {
            if wires.len() < 2 {
                return Err(format!("Fredkin gate {text:?} needs two targets"));
            }
            let (controls, targets) = wires.split_at(wires.len() - 2);
            Ok(SimGate::Fredkin {
                controls: mask(controls),
                t0: targets[0],
                t1: targets[1],
            })
        }
    }
}

fn apply(gate: SimGate, x: u64) -> u64 {
    match gate {
        SimGate::Toffoli { controls, target } => {
            if x & controls == controls {
                x ^ 1 << target
            } else {
                x
            }
        }
        SimGate::Fredkin { controls, t0, t1 } => {
            let differ = (x >> t0 ^ x >> t1) & 1;
            if x & controls == controls && differ == 1 {
                x ^ (1 << t0 | 1 << t1)
            } else {
                x
            }
        }
    }
}

/// The permutation table the gate strings compute on `width` wires.
pub fn simulate<S: AsRef<str>>(width: usize, gates: &[S]) -> Result<Vec<u64>, String> {
    if width == 0 || width > 20 {
        return Err(format!("unsupported width {width}"));
    }
    let parsed = gates
        .iter()
        .map(|g| parse_gate(g.as_ref(), width))
        .collect::<Result<Vec<SimGate>, String>>()?;
    Ok((0..1u64 << width)
        .map(|x| parsed.iter().fold(x, |x, &g| apply(g, x)))
        .collect())
}

/// Checks that the gate strings implement `spec` exactly.
pub fn check<S: AsRef<str>>(width: usize, gates: &[S], spec: &[u64]) -> Result<(), String> {
    let table = simulate(width, gates)?;
    match table.iter().zip(spec).position(|(a, b)| a != b) {
        None if table.len() == spec.len() => Ok(()),
        None => Err("spec and circuit differ in size".to_string()),
        Some(x) => Err(format!(
            "circuit maps input {x} to {}, spec says {}",
            table[x], spec[x]
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rmrls_circuit::{Circuit, Gate};
    use rmrls_spec::{random_circuit, GateLibrary};

    fn strings(c: &Circuit) -> Vec<String> {
        c.gates().iter().map(|g| g.to_string()).collect()
    }

    #[test]
    fn agrees_with_the_library_on_seeded_random_toffoli_circuits() {
        let mut rng = StdRng::seed_from_u64(11);
        for round in 0..300 {
            let width = 1 + round % 8;
            let c = random_circuit(width, 1 + round % 12, GateLibrary::Gt, &mut rng);
            assert_eq!(
                simulate(width, &strings(&c)).unwrap(),
                c.to_permutation(),
                "{:?}",
                strings(&c)
            );
        }
    }

    #[test]
    fn agrees_with_the_library_on_seeded_random_fredkin_circuits() {
        let mut rng = StdRng::seed_from_u64(12);
        for round in 0..200 {
            let width = 2 + round % 7;
            let mut c = Circuit::new(width);
            for _ in 0..1 + round % 10 {
                let t0 = rng.random_range(0..width);
                let mut t1 = rng.random_range(0..width - 1);
                if t1 >= t0 {
                    t1 += 1;
                }
                let mut controls = 0u32;
                for w in 0..width {
                    if w != t0 && w != t1 && rng.random_range(0..3u32) == 0 {
                        controls |= 1 << w;
                    }
                }
                c.push(Gate::fredkin_mask(controls, t0, t1));
            }
            assert_eq!(simulate(width, &strings(&c)).unwrap(), c.to_permutation());
        }
    }

    #[test]
    fn rejects_a_circuit_that_misses_the_spec() {
        let spec = [1u64, 0, 2, 3];
        assert!(check(2, &["TOF1(a)"], &[1, 0, 3, 2]).is_ok());
        assert!(check(2, &["TOF1(a)"], &spec).is_err());
        assert!(check(2, &["TOF2(a,b)"], &[0, 3, 2, 1]).is_ok());
    }

    #[test]
    fn rejects_malformed_gates() {
        for bad in [
            "TOF2(a)",
            "TOF1(c)",
            "TOF2(a,a)",
            "NOT(a)",
            "TOF1(a",
            "FRE1(a)",
        ] {
            assert!(simulate(2, &[bad]).is_err(), "{bad}");
        }
    }
}
