//! Cycle-indexed test schedules: the *Input* of Algorithm 3.
//!
//! A [`TestSchedule`] fully determines one simulation round: for every
//! cycle, the assertion state of each controllable reset domain and the
//! value of each symbolic data input. Round 1 uses random bits (Algorithm
//! 3 line 3: "Initialize Input ← randombits()"); later rounds come from
//! solver models.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use soccar_rtl::design::NetId;
use soccar_rtl::value::LogicVec;

/// One controllable reset domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResetTrack {
    /// Domain source name (for reports).
    pub source: String,
    /// The top-level input net driving the domain.
    pub net: NetId,
    /// Assertion polarity.
    pub active_low: bool,
    /// Per-cycle assertion state.
    pub asserted: Vec<bool>,
    /// Cycles whose assertion edge lands *during the clock-high phase*
    /// instead of before the rising edge. Needed to excite implicit
    /// governors composed with a clock level (the Section V-C SHA256
    /// construct) — only the Refined analysis schedules these.
    pub high_phase: Vec<bool>,
}

impl ResetTrack {
    /// The line value at `cycle`.
    #[must_use]
    pub fn value_at(&self, cycle: u64) -> LogicVec {
        let asserted = self.asserted.get(cycle as usize).copied().unwrap_or(false);
        LogicVec::from_u64(1, u64::from(asserted != self.active_low))
    }

    /// Cycles at which the reset asserts after being deasserted.
    #[must_use]
    pub fn assert_edges(&self) -> Vec<u64> {
        let mut out = Vec::new();
        let mut prev = false;
        for (i, a) in self.asserted.iter().enumerate() {
            if *a && !prev {
                out.push(i as u64);
            }
            prev = *a;
        }
        out
    }
}

/// One symbolic data input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputTrack {
    /// Hierarchical net name.
    pub name: String,
    /// The top-level input net.
    pub net: NetId,
    /// Width in bits.
    pub width: u32,
    /// Per-cycle values.
    pub values: Vec<LogicVec>,
}

/// A complete per-cycle stimulus description for one concolic round.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TestSchedule {
    /// Simulation horizon in cycles.
    pub cycles: u64,
    /// Reset domain tracks.
    pub resets: Vec<ResetTrack>,
    /// Symbolic data input tracks.
    pub inputs: Vec<InputTrack>,
}

impl TestSchedule {
    /// Creates an all-deasserted, all-zero schedule.
    #[must_use]
    pub fn quiet(
        cycles: u64,
        resets: Vec<(String, NetId, bool)>,
        inputs: Vec<(String, NetId, u32)>,
    ) -> TestSchedule {
        TestSchedule {
            cycles,
            resets: resets
                .into_iter()
                .map(|(source, net, active_low)| ResetTrack {
                    source,
                    net,
                    active_low,
                    asserted: vec![false; cycles as usize],
                    high_phase: vec![false; cycles as usize],
                })
                .collect(),
            inputs: inputs
                .into_iter()
                .map(|(name, net, width)| InputTrack {
                    name,
                    net,
                    width,
                    values: vec![LogicVec::zeros(width); cycles as usize],
                })
                .collect(),
        }
    }

    /// Randomizes the schedule (Algorithm 3 round 1): each domain gets an
    /// initial power-on pulse plus 0–2 random mid-run pulses; inputs get
    /// random bits every cycle.
    pub fn randomize(&mut self, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cycles = self.cycles as usize;
        for track in &mut self.resets {
            track.asserted = vec![false; cycles];
            track.high_phase = vec![false; cycles];
            // Power-on reset during cycle 0.
            if cycles > 0 {
                track.asserted[0] = true;
            }
            let pulses = rng.gen_range(0..=2u32);
            for _ in 0..pulses {
                if cycles <= 2 {
                    break;
                }
                let at = rng.gen_range(1..cycles);
                let hold = rng.gen_range(1..=2usize);
                for c in at..(at + hold).min(cycles) {
                    track.asserted[c] = true;
                }
            }
        }
        for track in &mut self.inputs {
            for v in &mut track.values {
                let mut nv = LogicVec::zeros(track.width);
                for i in 0..track.width {
                    if rng.gen_bool(0.5) {
                        nv.set_bit(i, soccar_rtl::Bit::One);
                    }
                }
                *v = nv;
            }
        }
    }

    /// Clears all mid-run pulses, keeping only the cycle-0 power-on reset.
    pub fn power_on_only(&mut self) {
        for track in &mut self.resets {
            for (i, a) in track.asserted.iter_mut().enumerate() {
                *a = i == 0;
            }
            track.high_phase.iter_mut().for_each(|h| *h = false);
        }
    }

    /// Adds an assertion pulse to domain `domain_idx`.
    ///
    /// # Panics
    ///
    /// Panics if `domain_idx` is out of range.
    pub fn add_pulse(&mut self, domain_idx: usize, at_cycle: u64, hold: u64) {
        let track = &mut self.resets[domain_idx];
        for c in at_cycle..(at_cycle + hold.max(1)).min(self.cycles) {
            track.asserted[c as usize] = true;
        }
    }

    /// Adds a pulse whose assertion edge lands during the clock-high phase
    /// of `at_cycle` (see [`ResetTrack::high_phase`]).
    ///
    /// # Panics
    ///
    /// Panics if `domain_idx` is out of range.
    pub fn add_high_phase_pulse(&mut self, domain_idx: usize, at_cycle: u64) {
        self.add_pulse(domain_idx, at_cycle, 1);
        let track = &mut self.resets[domain_idx];
        if (at_cycle as usize) < track.high_phase.len() {
            track.high_phase[at_cycle as usize] = true;
        }
    }

    /// A compact single-line description (for reports and witnesses).
    #[must_use]
    pub fn summary(&self) -> String {
        let mut parts = Vec::new();
        for t in &self.resets {
            let edges: Vec<String> = t.assert_edges().iter().map(u64::to_string).collect();
            parts.push(format!("{}@[{}]", t.source, edges.join(",")));
        }
        format!("{} cycles; pulses: {}", self.cycles, parts.join(" "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule() -> TestSchedule {
        TestSchedule::quiet(
            10,
            vec![("top.rst_n".into(), NetId(0), true)],
            vec![("top.d".into(), NetId(1), 8)],
        )
    }

    #[test]
    fn quiet_schedule_is_deasserted() {
        let s = schedule();
        assert_eq!(s.resets[0].asserted, vec![false; 10]);
        // Active-low deasserted = 1.
        assert_eq!(s.resets[0].value_at(3).to_u64(), Some(1));
        assert_eq!(s.inputs[0].values[0].to_u64(), Some(0));
    }

    #[test]
    fn randomize_is_deterministic_and_pulses_poweron() {
        let mut a = schedule();
        let mut b = schedule();
        a.randomize(42);
        b.randomize(42);
        assert_eq!(a, b);
        assert!(a.resets[0].asserted[0], "power-on pulse");
        let mut c = schedule();
        c.randomize(43);
        assert_ne!(a.inputs[0].values, c.inputs[0].values);
    }

    #[test]
    fn pulses_and_edges() {
        let mut s = schedule();
        s.add_pulse(0, 4, 2);
        assert_eq!(s.resets[0].assert_edges(), vec![4]);
        assert!(s.resets[0].asserted[5]);
        assert!(!s.resets[0].asserted[6]);
        // Asserted active-low → line is 0.
        assert_eq!(s.resets[0].value_at(4).to_u64(), Some(0));
        s.add_pulse(0, 0, 1);
        assert_eq!(s.resets[0].assert_edges(), vec![0, 4]);
        s.power_on_only();
        assert_eq!(s.resets[0].assert_edges(), vec![0]);
    }

    #[test]
    fn summary_mentions_pulse_cycles() {
        let mut s = schedule();
        s.add_pulse(0, 2, 1);
        assert!(s.summary().contains("top.rst_n@[2]"));
    }
}
