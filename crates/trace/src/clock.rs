//! Virtual (model-time) clock.

/// A monotone model-time clock measured in seconds.
///
/// `VirtualClock` is the **only** time source the simulator in `crates/dist`
/// is allowed to use for trace timestamps (`sidco-lint` bans wall-clock reads
/// there). It is a plain `f64` accumulator: advancing it performs exactly the
/// same floating-point additions the simulator's own cost accounting
/// performs, so routing model time through the clock cannot perturb results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VirtualClock {
    now: f64,
}

impl VirtualClock {
    /// A clock starting at `start` seconds of model time.
    #[must_use]
    pub fn new(start: f64) -> Self {
        Self { now: start }
    }

    /// Current model time in seconds.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advance by `dt` seconds (`dt` may be zero; negative `dt` is ignored
    /// so the clock stays monotone even on degenerate cost inputs).
    pub fn advance_by(&mut self, dt: f64) {
        if dt > 0.0 {
            self.now += dt;
        }
    }
}

impl Default for VirtualClock {
    fn default() -> Self {
        Self::new(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_are_monotone() {
        let mut c = VirtualClock::new(1.0);
        c.advance_by(0.5);
        assert_eq!(c.now(), 1.5);
        c.advance_by(-2.0);
        assert_eq!(c.now(), 1.5);
    }

    #[test]
    fn matches_plain_accumulation_bitwise() {
        // The trainer replaces `clock += dt` with `clock.advance_by(dt)`;
        // both must produce bit-identical sums.
        let steps = [0.1, 0.37, 1e-9, 42.5, 0.001];
        let mut plain = 0.25f64;
        let mut clock = VirtualClock::new(0.25);
        for dt in steps {
            plain += dt;
            clock.advance_by(dt);
        }
        assert_eq!(plain.to_bits(), clock.now().to_bits());
    }
}
