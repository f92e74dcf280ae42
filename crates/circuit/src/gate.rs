//! Reversible gates: generalized Toffoli and Fredkin.

use std::fmt;
use std::str::FromStr;

/// Maximum circuit width supported by the gate representation.
pub const MAX_WIDTH: usize = 32;

/// A reversible gate over at most [`MAX_WIDTH`] wires.
///
/// - `Toffoli` passes every wire through unchanged except the target,
///   which is inverted when all control wires are 1. With zero controls it
///   is the NOT gate (`TOF1`), with one control the CNOT/Feynman gate
///   (`TOF2`).
/// - `Fredkin` swaps its two target wires when all control wires are 1.
///   With zero controls it is the unconditional SWAP gate.
///
/// Every gate is self-inverse.
///
/// ```
/// use rmrls_circuit::Gate;
///
/// let tof3 = Gate::toffoli(&[2, 0], 1); // TOF3(c, a; b)
/// assert_eq!(tof3.apply(0b101), 0b111);
/// assert_eq!(tof3.apply(0b100), 0b100);
/// assert_eq!(tof3.to_string(), "TOF3(a,c,b)");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Gate {
    /// Generalized Toffoli: invert `target` iff all `controls` are 1.
    Toffoli {
        /// Bitmask of control wires (must not include the target).
        controls: u32,
        /// Target wire index.
        target: u8,
    },
    /// Generalized Fredkin: swap `targets` iff all `controls` are 1.
    Fredkin {
        /// Bitmask of control wires (must not include either target).
        controls: u32,
        /// The two swapped wire indices.
        targets: (u8, u8),
    },
}

impl Gate {
    /// Builds a Toffoli gate from a control list and target.
    ///
    /// # Panics
    ///
    /// Panics if the target is listed as a control, a control repeats, or
    /// any index is `>= MAX_WIDTH`.
    pub fn toffoli(controls: &[usize], target: usize) -> Gate {
        assert!(target < MAX_WIDTH, "target {target} out of range");
        let mut mask = 0u32;
        for &c in controls {
            assert!(c < MAX_WIDTH, "control {c} out of range");
            assert_ne!(c, target, "target cannot also be a control");
            assert_eq!(mask >> c & 1, 0, "duplicate control {c}");
            mask |= 1 << c;
        }
        Gate::Toffoli {
            controls: mask,
            target: target as u8,
        }
    }

    /// Builds a Toffoli gate from a raw control mask and target.
    ///
    /// # Panics
    ///
    /// Panics if the mask includes the target or the target is out of
    /// range.
    pub fn toffoli_mask(controls: u32, target: usize) -> Gate {
        assert!(target < MAX_WIDTH, "target {target} out of range");
        assert_eq!(
            controls >> target & 1,
            0,
            "target {target} cannot also be a control"
        );
        Gate::Toffoli {
            controls,
            target: target as u8,
        }
    }

    /// The NOT gate on `wire` (`TOF1`).
    pub fn not(wire: usize) -> Gate {
        Gate::toffoli(&[], wire)
    }

    /// The CNOT/Feynman gate (`TOF2`) with one control.
    pub fn cnot(control: usize, target: usize) -> Gate {
        Gate::toffoli(&[control], target)
    }

    /// Builds a Fredkin gate from a control list and two targets.
    ///
    /// # Panics
    ///
    /// Panics on overlapping targets/controls or out-of-range indices.
    pub fn fredkin(controls: &[usize], t0: usize, t1: usize) -> Gate {
        assert!(t0 < MAX_WIDTH && t1 < MAX_WIDTH, "target out of range");
        assert_ne!(t0, t1, "fredkin targets must differ");
        let mut mask = 0u32;
        for &c in controls {
            assert!(c < MAX_WIDTH, "control {c} out of range");
            assert!(c != t0 && c != t1, "target cannot also be a control");
            assert_eq!(mask >> c & 1, 0, "duplicate control {c}");
            mask |= 1 << c;
        }
        Gate::Fredkin {
            controls: mask,
            targets: (t0.min(t1) as u8, t0.max(t1) as u8),
        }
    }

    /// The unconditional SWAP gate.
    pub fn swap(t0: usize, t1: usize) -> Gate {
        Gate::fredkin(&[], t0, t1)
    }

    /// Builds a Fredkin gate from a raw control mask and two targets.
    ///
    /// # Panics
    ///
    /// Panics if the mask includes a target, the targets coincide, or an
    /// index is out of range.
    pub fn fredkin_mask(controls: u32, t0: usize, t1: usize) -> Gate {
        assert!(t0 < MAX_WIDTH && t1 < MAX_WIDTH, "target out of range");
        assert_ne!(t0, t1, "fredkin targets must differ");
        assert_eq!(
            controls & ((1 << t0) | (1 << t1)),
            0,
            "targets cannot also be controls"
        );
        Gate::Fredkin {
            controls,
            targets: (t0.min(t1) as u8, t0.max(t1) as u8),
        }
    }

    /// The control mask of the gate.
    pub fn controls(self) -> u32 {
        match self {
            Gate::Toffoli { controls, .. } | Gate::Fredkin { controls, .. } => controls,
        }
    }

    /// Bitmask of the wires the gate may modify.
    pub fn target_mask(self) -> u32 {
        match self {
            Gate::Toffoli { target, .. } => 1 << target,
            Gate::Fredkin { targets, .. } => (1 << targets.0) | (1 << targets.1),
        }
    }

    /// Bitmask of every wire the gate touches (controls and targets).
    pub fn support(self) -> u32 {
        self.controls() | self.target_mask()
    }

    /// Number of wires the gate touches: the `n` of `TOFn`/`FREn`.
    pub fn size(self) -> usize {
        self.support().count_ones() as usize
    }

    /// Number of control wires.
    pub fn control_count(self) -> usize {
        self.controls().count_ones() as usize
    }

    /// Smallest circuit width that can contain the gate.
    pub fn min_width(self) -> usize {
        32 - self.support().leading_zeros() as usize
    }

    /// Applies the gate to an input word (bit `i` = wire `i`).
    #[inline]
    pub fn apply(self, x: u64) -> u64 {
        match self {
            Gate::Toffoli { controls, target } => {
                if x as u32 & controls == controls {
                    x ^ (1 << target)
                } else {
                    x
                }
            }
            Gate::Fredkin { controls, targets } => {
                if x as u32 & controls == controls {
                    let b0 = x >> targets.0 & 1;
                    let b1 = x >> targets.1 & 1;
                    if b0 != b1 {
                        x ^ (1 << targets.0) ^ (1 << targets.1)
                    } else {
                        x
                    }
                } else {
                    x
                }
            }
        }
    }

    /// Whether two gates commute (sufficient structural condition): they
    /// act on disjoint modified wires and neither modifies a wire the
    /// other reads, or they are Toffoli gates with the same target.
    pub fn commutes_with(self, other: Gate) -> bool {
        let same_toffoli_target = matches!(
            (self, other),
            (Gate::Toffoli { target: t1, .. }, Gate::Toffoli { target: t2, .. }) if t1 == t2
        );
        if same_toffoli_target {
            // Both only flip the shared target; controls are unaffected.
            return true;
        }
        self.target_mask() & other.support() == 0 && other.target_mask() & self.support() == 0
    }
}

impl fmt::Display for Gate {
    /// Paper notation: `TOFn(controls..., target)` / `FREn(controls...,
    /// t0, t1)` with wires named `a, b, c, ...` in ascending index order.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn name(w: usize) -> String {
            if w < 26 {
                ((b'a' + w as u8) as char).to_string()
            } else {
                format!("x{w}")
            }
        }
        let controls = self.controls();
        let list = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            let mut first = true;
            for w in 0..MAX_WIDTH {
                if controls >> w & 1 == 1 {
                    if !first {
                        write!(f, ",")?;
                    }
                    write!(f, "{}", name(w))?;
                    first = false;
                }
            }
            if !first {
                write!(f, ",")?;
            }
            Ok(())
        };
        match *self {
            Gate::Toffoli { target, .. } => {
                write!(f, "TOF{}(", self.size())?;
                list(f)?;
                write!(f, "{})", name(target as usize))
            }
            Gate::Fredkin { targets, .. } => {
                write!(f, "FRE{}(", self.size())?;
                list(f)?;
                write!(
                    f,
                    "{},{})",
                    name(targets.0 as usize),
                    name(targets.1 as usize)
                )
            }
        }
    }
}

impl FromStr for Gate {
    type Err = String;

    /// Parses the [`Display`](fmt::Display) form back into a gate:
    /// `TOF3(a,c,b)`, `FRE3(c,a,b)`. Only the exact canonical text is
    /// accepted (controls ascending, no repeats, size matching the wire
    /// count), so `s.parse::<Gate>()?.to_string() == s` always holds.
    fn from_str(s: &str) -> Result<Gate, String> {
        let bad = || format!("malformed gate {s:?}");
        let wire = |w: &str| -> Option<usize> {
            let i = match w.as_bytes() {
                [c @ b'a'..=b'z'] => usize::from(c - b'a'),
                _ => w.strip_prefix('x')?.parse().ok()?,
            };
            (i < MAX_WIDTH).then_some(i)
        };
        let (kind, rest) = s.split_at_checked(3).ok_or_else(bad)?;
        let (_, list) = rest
            .strip_suffix(')')
            .and_then(|r| r.split_once('('))
            .ok_or_else(bad)?;
        let wires: Vec<usize> = list
            .split(',')
            .map(wire)
            .collect::<Option<_>>()
            .ok_or_else(bad)?;
        let mask = |ws: &[usize]| ws.iter().fold(0u32, |m, &w| m | 1 << w);
        let gate = match (kind, wires.as_slice()) {
            ("TOF", [controls @ .., t]) if mask(controls) >> t & 1 == 0 => {
                Gate::toffoli_mask(mask(controls), *t)
            }
            ("FRE", [controls @ .., t0, t1])
                if t0 != t1 && mask(controls) & mask(&[*t0, *t1]) == 0 =>
            {
                Gate::fredkin_mask(mask(controls), *t0, *t1)
            }
            _ => return Err(bad()),
        };
        if gate.to_string() == s {
            Ok(gate)
        } else {
            Err(bad())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn not_gate_inverts_unconditionally() {
        let g = Gate::not(1);
        assert_eq!(g.apply(0b000), 0b010);
        assert_eq!(g.apply(0b010), 0b000);
        assert_eq!(g.size(), 1);
    }

    #[test]
    fn cnot_conditional() {
        let g = Gate::cnot(0, 2);
        assert_eq!(g.apply(0b001), 0b101);
        assert_eq!(g.apply(0b000), 0b000);
        assert_eq!(g.to_string(), "TOF2(a,c)");
    }

    #[test]
    fn toffoli_requires_all_controls() {
        let g = Gate::toffoli(&[0, 1], 2);
        assert_eq!(g.apply(0b011), 0b111);
        assert_eq!(g.apply(0b001), 0b001);
        assert_eq!(g.apply(0b111), 0b011);
        assert_eq!(g.size(), 3);
        assert_eq!(g.control_count(), 2);
    }

    #[test]
    fn gates_are_self_inverse() {
        let gates = [
            Gate::not(0),
            Gate::cnot(1, 3),
            Gate::toffoli(&[0, 2, 4], 1),
            Gate::swap(0, 2),
            Gate::fredkin(&[3], 0, 1),
        ];
        for g in gates {
            for x in 0..32u64 {
                assert_eq!(g.apply(g.apply(x)), x, "{g} not self-inverse at {x}");
            }
        }
    }

    #[test]
    fn fredkin_swaps_conditionally() {
        let g = Gate::fredkin(&[2], 0, 1);
        assert_eq!(g.apply(0b101), 0b110);
        assert_eq!(g.apply(0b001), 0b001, "control off");
        assert_eq!(g.apply(0b111), 0b111, "equal bits");
    }

    #[test]
    fn swap_unconditional() {
        let g = Gate::swap(0, 1);
        assert_eq!(g.apply(0b01), 0b10);
        assert_eq!(g.apply(0b10), 0b01);
        assert_eq!(g.apply(0b11), 0b11);
    }

    #[test]
    #[should_panic(expected = "cannot also be a control")]
    fn target_as_control_panics() {
        let _ = Gate::toffoli(&[1], 1);
    }

    #[test]
    #[should_panic(expected = "duplicate control")]
    fn duplicate_control_panics() {
        let _ = Gate::toffoli(&[0, 0], 1);
    }

    #[test]
    fn min_width_covers_support() {
        assert_eq!(Gate::not(0).min_width(), 1);
        assert_eq!(Gate::toffoli(&[0, 4], 2).min_width(), 5);
    }

    #[test]
    fn commutation_structural() {
        let a = Gate::cnot(0, 1);
        let b = Gate::cnot(0, 2);
        assert!(a.commutes_with(b), "shared control only");
        let c = Gate::cnot(1, 2);
        assert!(!a.commutes_with(c), "a writes c's control");
        let d = Gate::toffoli(&[0], 1);
        assert!(a.commutes_with(d), "same target");
    }

    #[test]
    fn commutation_is_sound() {
        // Whenever commutes_with says yes, the two orders agree everywhere.
        let pool = [
            Gate::not(0),
            Gate::not(2),
            Gate::cnot(0, 1),
            Gate::cnot(1, 0),
            Gate::cnot(2, 1),
            Gate::toffoli(&[0, 1], 2),
            Gate::toffoli(&[0, 2], 1),
            Gate::swap(0, 1),
            Gate::fredkin(&[0], 1, 2),
        ];
        for &g1 in &pool {
            for &g2 in &pool {
                if g1.commutes_with(g2) {
                    for x in 0..8u64 {
                        assert_eq!(
                            g2.apply(g1.apply(x)),
                            g1.apply(g2.apply(x)),
                            "{g1} vs {g2} at {x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn display_matches_paper() {
        assert_eq!(Gate::toffoli(&[2, 0], 1).to_string(), "TOF3(a,c,b)");
        assert_eq!(Gate::not(0).to_string(), "TOF1(a)");
        assert_eq!(Gate::fredkin(&[2], 0, 1).to_string(), "FRE3(c,a,b)");
    }

    #[test]
    fn parse_inverts_display() {
        for g in [
            Gate::not(0),
            Gate::toffoli(&[2, 0], 1),
            Gate::toffoli(&[0, 27], 30),
            Gate::swap(3, 1),
            Gate::fredkin(&[2, 5], 0, 1),
        ] {
            assert_eq!(g.to_string().parse::<Gate>(), Ok(g));
        }
        for bad in [
            "",
            "TOF",
            "TOF1()",
            "TOF1(a",
            "TOF2(a,a)",
            "TOF3(c,a,b)",
            "TOF2(a,b,c)",
            "FRE2(a,a)",
            "FRE3(a,b,a)",
            "TOF1(x32)",
            "NOT1(a)",
            "TOF1(A)",
        ] {
            assert!(bad.parse::<Gate>().is_err(), "{bad:?} must not parse");
        }
    }
}
