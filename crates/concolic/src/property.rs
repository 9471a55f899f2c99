//! Security properties — the "Restricts" of the paper's Algorithm 3.
//!
//! "Algorithm 3 can account for additional security constraints … a
//! representative constraint can be *after a reset the data memory must be
//! cleared*. Such constraints are generally available as part of the
//! security regression in industrial practice. The simulation checks each
//! such available constraint at each round; if any of the constraints is
//! violated, the simulation will return an invalidation message and
//! mention the module that violates the restriction."
//!
//! Property kinds map to the paper's three violation classes (Table III):
//!
//! * [`PropertyKind::ClearedAfterReset`] — information leakage (crypto
//!   registers must be scrubbed by the reset);
//! * [`PropertyKind::AssertedAfterReset`] — loss of data integrity (the
//!   address-range check must be re-armed by the reset);
//! * [`PropertyKind::AlwaysOneOf`] — privilege-mode availability (the
//!   privilege register must stay within the legal encodings);
//! * [`PropertyKind::NeverEqual`] — generic information-flow check (a
//!   public port must never expose a secret register).

use soccar_rtl::design::{Design, NetId};
use soccar_rtl::value::LogicVec;
use soccar_sim::{Algebra, Simulator};

/// What a property asserts. Signals are hierarchical net names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropertyKind {
    /// While the named reset domain is *asserted* (after `window` grace
    /// cycles from the assertion edge), `signal` must equal `expected`
    /// (typically zero: "after a reset the data memory must be cleared").
    /// Checking during assertion is what makes the property immune to
    /// legitimate post-release reloads.
    ClearedAfterReset {
        /// Domain source net name (see `ResetDomain::source`).
        domain: String,
        /// Monitored signal.
        signal: String,
        /// Required value.
        expected: LogicVec,
        /// Grace cycles after the assertion edge before checking starts
        /// (0 for asynchronous resets, whose effect is immediate).
        window: u64,
    },
    /// While the domain is asserted (after `window` grace cycles),
    /// `signal` must be non-zero — a guard/lock the reset must re-arm.
    AssertedAfterReset {
        /// Domain source net name.
        domain: String,
        /// Monitored signal.
        signal: String,
        /// Grace cycles.
        window: u64,
    },
    /// `signal` must always hold one of `allowed` (checked every cycle;
    /// X/Z counts as a violation once the signal has left reset).
    AlwaysOneOf {
        /// Monitored signal.
        signal: String,
        /// Legal values.
        allowed: Vec<LogicVec>,
    },
    /// `a` must never equal `b` while `enable` (if given) is truthy.
    NeverEqual {
        /// First signal (e.g. a ciphertext port).
        a: String,
        /// Second signal (e.g. a plaintext register).
        b: String,
        /// Optional qualifying signal.
        enable: Option<String>,
    },
}

/// A named security property with the module it blames on violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecurityProperty {
    /// Property name (unique within a run).
    pub name: String,
    /// The module/IP an invalidation message names (paper: "mention the
    /// module that violates the restriction").
    pub module: String,
    /// The assertion.
    pub kind: PropertyKind,
}

/// A property violation — the paper's *invalidation message*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Violated property name.
    pub property: String,
    /// Module blamed.
    pub module: String,
    /// Cycle at which the violation was observed.
    pub cycle: u64,
    /// Human-readable details (signal and value).
    pub details: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "INVALID [{}] module `{}` at cycle {}: {}",
            self.property, self.module, self.cycle, self.details
        )
    }
}

#[derive(Debug, Clone, Copy)]
enum MonitorState {
    /// Waiting for the domain reset to assert.
    Idle,
    /// Reset asserted at `since`; checking once the grace window elapses.
    InReset { since: u64, satisfied: bool },
}

/// Runtime monitor for one property.
#[derive(Debug, Clone)]
pub struct PropertyMonitor {
    property: SecurityProperty,
    signal_net: Option<NetId>,
    aux_net: Option<NetId>,
    domain_net: Option<NetId>,
    domain_active_low: bool,
    state: MonitorState,
    fired: bool,
}

impl PropertyMonitor {
    /// Resolves a property against a design. Domain polarity comes from
    /// `domains` (source name → active-low flag).
    ///
    /// # Errors
    ///
    /// Returns a message if a referenced signal does not exist.
    pub fn resolve(
        design: &Design,
        property: SecurityProperty,
        domains: &[(String, bool)],
    ) -> Result<PropertyMonitor, String> {
        let find = |name: &str| {
            design
                .find_net(name)
                .ok_or_else(|| format!("property `{}`: no net `{name}`", property.name))
        };
        let (signal_net, aux_net, domain_net, domain_active_low) = match &property.kind {
            PropertyKind::ClearedAfterReset { domain, signal, .. }
            | PropertyKind::AssertedAfterReset { domain, signal, .. } => {
                let d = find(domain)?;
                let active_low = domains
                    .iter()
                    .find(|(n, _)| n == domain)
                    .map_or(true, |(_, al)| *al);
                (Some(find(signal)?), None, Some(d), active_low)
            }
            PropertyKind::AlwaysOneOf { signal, .. } => (Some(find(signal)?), None, None, true),
            PropertyKind::NeverEqual { a, b, enable } => {
                let e = match enable {
                    Some(n) => Some(find(n)?),
                    None => None,
                };
                (Some(find(a)?), Some(find(b)?), e, true)
            }
        };
        Ok(PropertyMonitor {
            property,
            signal_net,
            aux_net,
            domain_net,
            domain_active_low,
            state: MonitorState::Idle,
            fired: false,
        })
    }

    /// The monitored property.
    #[must_use]
    pub fn property(&self) -> &SecurityProperty {
        &self.property
    }

    /// Re-arms the monitor for a new run.
    pub fn reset(&mut self) {
        self.state = MonitorState::Idle;
        self.fired = false;
    }

    fn domain_asserted<A: Algebra>(&self, sim: &Simulator<'_, A>) -> bool {
        let Some(net) = self.domain_net else {
            return false;
        };
        let v = sim.net_logic(net);
        match v.truthy() {
            Some(high) => high != self.domain_active_low,
            None => false,
        }
    }

    /// The net a resolved monitor must hold for `role`, or a degraded-path
    /// error naming the property (never a panic — an unresolved monitor is
    /// a monitoring gap, not a reason to abort the whole analysis).
    fn resolved_net(&self, net: Option<NetId>, role: &str) -> Result<NetId, String> {
        net.ok_or_else(|| {
            format!(
                "property `{}`: {role} net was never resolved",
                self.property.name
            )
        })
    }

    /// Checks the property at the end of a settled cycle; returns an
    /// invalidation message on (first) violation.
    ///
    /// # Errors
    ///
    /// Returns a message if the monitor's nets were never resolved (an
    /// internal misconfiguration). Callers fold this into the run's
    /// degraded health instead of aborting.
    pub fn check_cycle<A: Algebra>(
        &mut self,
        sim: &Simulator<'_, A>,
        cycle: u64,
    ) -> Result<Option<Violation>, String> {
        if self.fired {
            return Ok(None);
        }
        match &self.property.kind {
            PropertyKind::ClearedAfterReset {
                expected,
                window,
                signal,
                ..
            } => {
                let expected = expected.clone();
                let window = *window;
                let signal = signal.clone();
                self.check_post_reset(sim, cycle, window, &signal, move |v| {
                    v.case_eq(&expected).is_all_ones()
                })
            }
            PropertyKind::AssertedAfterReset { window, signal, .. } => {
                let window = *window;
                let signal = signal.clone();
                self.check_post_reset(sim, cycle, window, &signal, |v| v.truthy() == Some(true))
            }
            PropertyKind::AlwaysOneOf { signal, allowed } => {
                let net = self.resolved_net(self.signal_net, "signal")?;
                let v = sim.net_logic(net);
                if v.has_unknown() {
                    // X before any activity is the pre-reset don't-care.
                    return Ok(None);
                }
                if allowed.iter().any(|a| v.case_eq(a).is_all_ones()) {
                    return Ok(None);
                }
                self.fired = true;
                Ok(Some(Violation {
                    property: self.property.name.clone(),
                    module: self.property.module.clone(),
                    cycle,
                    details: format!("`{signal}` holds illegal value {v}"),
                }))
            }
            PropertyKind::NeverEqual { a, b, .. } => {
                if let Some(en) = self.domain_net {
                    if sim.net_logic(en).truthy() != Some(true) {
                        return Ok(None);
                    }
                }
                let na = self.resolved_net(self.signal_net, "signal")?;
                let nb = self.resolved_net(self.aux_net, "aux")?;
                let va = sim.net_logic(na);
                let vb = sim.net_logic(nb);
                if va.has_unknown() || vb.has_unknown() {
                    return Ok(None);
                }
                if !va.case_eq(vb).is_all_ones() {
                    return Ok(None);
                }
                self.fired = true;
                Ok(Some(Violation {
                    property: self.property.name.clone(),
                    module: self.property.module.clone(),
                    cycle,
                    details: format!("`{a}` equals `{b}` (= {va}): secret exposed"),
                }))
            }
        }
    }

    fn check_post_reset<A: Algebra>(
        &mut self,
        sim: &Simulator<'_, A>,
        cycle: u64,
        window: u64,
        signal: &str,
        ok: impl Fn(&LogicVec) -> bool,
    ) -> Result<Option<Violation>, String> {
        let asserted = self.domain_asserted(sim);
        match self.state {
            MonitorState::Idle => {
                if asserted {
                    self.state = MonitorState::InReset {
                        since: cycle,
                        satisfied: false,
                    };
                    // Asynchronous resets act immediately: check this
                    // cycle if no grace was requested.
                    return self.check_post_reset(sim, cycle, window, signal, ok);
                }
                Ok(None)
            }
            MonitorState::InReset { since, satisfied } => {
                if !asserted {
                    self.state = MonitorState::Idle;
                    return Ok(None);
                }
                if satisfied || cycle < since + window {
                    return Ok(None);
                }
                let net = self.resolved_net(self.signal_net, "signal")?;
                let v = sim.net_logic(net);
                if ok(v) {
                    self.state = MonitorState::InReset {
                        since,
                        satisfied: true,
                    };
                    return Ok(None);
                }
                self.fired = true;
                self.state = MonitorState::Idle;
                Ok(Some(Violation {
                    property: self.property.name.clone(),
                    module: self.property.module.clone(),
                    cycle,
                    details: format!("`{signal}` = {v} while reset asserted (grace {window})"),
                }))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soccar_sim::{InitPolicy, Simulator};

    const LEAKY: &str =
        "module m(input clk, input rst_n, output reg [7:0] key, output reg [7:0] ctr);
        always @(posedge clk or negedge rst_n)
          if (!rst_n) ctr <= 8'd0;              // BUG: key not cleared
          else begin ctr <= ctr + 8'd1; key <= 8'hA5; end
      endmodule";

    const CLEAN: &str =
        "module m(input clk, input rst_n, output reg [7:0] key, output reg [7:0] ctr);
        always @(posedge clk or negedge rst_n)
          if (!rst_n) begin ctr <= 8'd0; key <= 8'd0; end
          else begin ctr <= ctr + 8'd1; key <= 8'hA5; end
      endmodule";

    fn run_cleared_check(src: &str) -> Vec<Violation> {
        let (design, _) = soccar_rtl::compile("m.v", src, "m").expect("compile");
        let prop = SecurityProperty {
            name: "key-cleared".into(),
            module: "m".into(),
            kind: PropertyKind::ClearedAfterReset {
                domain: "m.rst_n".into(),
                signal: "m.key".into(),
                expected: LogicVec::zeros(8),
                window: 0,
            },
        };
        let mut mon =
            PropertyMonitor::resolve(&design, prop, &[("m.rst_n".into(), true)]).expect("resolve");
        let mut sim = Simulator::concrete(&design, InitPolicy::Ones);
        let clk = design.find_net("m.clk").expect("clk");
        let rst = design.find_net("m.rst_n").expect("rst");
        let mut violations = Vec::new();
        let drive = |sim: &mut Simulator<_>,
                     rst_v: u64,
                     cycle: u64,
                     mon: &mut PropertyMonitor,
                     out: &mut Vec<Violation>| {
            sim.write_input(rst, LogicVec::from_u64(1, rst_v))
                .expect("rst");
            sim.settle().expect("settle");
            sim.tick(clk).expect("tick");
            out.extend(mon.check_cycle(sim, cycle).expect("resolved monitor"));
        };
        // Run, reset mid-way, release, observe.
        drive(&mut sim, 1, 0, &mut mon, &mut violations);
        drive(&mut sim, 1, 1, &mut mon, &mut violations);
        drive(&mut sim, 0, 2, &mut mon, &mut violations); // async assert
        drive(&mut sim, 1, 3, &mut mon, &mut violations); // release → watch
        drive(&mut sim, 1, 4, &mut mon, &mut violations);
        drive(&mut sim, 1, 5, &mut mon, &mut violations);
        violations
    }

    #[test]
    fn leaky_design_fires_cleared_after_reset() {
        let v = run_cleared_check(LEAKY);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].module, "m");
        assert!(v[0].details.contains("key"));
    }

    #[test]
    fn clean_design_passes() {
        let v = run_cleared_check(CLEAN);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn always_one_of_catches_illegal_state() {
        let src = "module m(input clk, input rst_n, output reg [1:0] priv);
            always @(posedge clk or negedge rst_n)
              if (!rst_n) priv <= 2'b10;   // BUG: undefined privilege level
              else priv <= 2'b11;
          endmodule";
        let (design, _) = soccar_rtl::compile("m.v", src, "m").expect("compile");
        let prop = SecurityProperty {
            name: "priv-legal".into(),
            module: "m".into(),
            kind: PropertyKind::AlwaysOneOf {
                signal: "m.priv".into(),
                allowed: vec![
                    LogicVec::from_u64(2, 0b00),
                    LogicVec::from_u64(2, 0b01),
                    LogicVec::from_u64(2, 0b11),
                ],
            },
        };
        let mut mon = PropertyMonitor::resolve(&design, prop, &[]).expect("resolve");
        let mut sim = Simulator::concrete(&design, InitPolicy::Ones);
        let rst = design.find_net("m.rst_n").expect("rst");
        sim.write_input(rst, LogicVec::from_u64(1, 0)).expect("rst");
        sim.settle().expect("settle");
        let v = mon
            .check_cycle(&sim, 0)
            .expect("resolved monitor")
            .expect("violation");
        assert!(v.details.contains("illegal"));
        // Monitor fires once.
        assert!(mon
            .check_cycle(&sim, 1)
            .expect("resolved monitor")
            .is_none());
    }

    #[test]
    fn never_equal_detects_exposure() {
        let src = "module m(input [7:0] secret, output [7:0] port, input en);
            assign port = en ? secret : 8'd0;
          endmodule";
        let (design, _) = soccar_rtl::compile("m.v", src, "m").expect("compile");
        let prop = SecurityProperty {
            name: "no-leak".into(),
            module: "m".into(),
            kind: PropertyKind::NeverEqual {
                a: "m.port".into(),
                b: "m.secret".into(),
                enable: Some("m.en".into()),
            },
        };
        let mut mon = PropertyMonitor::resolve(&design, prop, &[]).expect("resolve");
        let mut sim = Simulator::concrete(&design, InitPolicy::Zeros);
        let sec = design.find_net("m.secret").expect("secret");
        let en = design.find_net("m.en").expect("en");
        sim.write_input(sec, LogicVec::from_u64(8, 0x5A))
            .expect("sec");
        sim.write_input(en, LogicVec::from_u64(1, 0)).expect("en");
        sim.settle().expect("settle");
        assert!(
            mon.check_cycle(&sim, 0)
                .expect("resolved monitor")
                .is_none(),
            "disabled: no check"
        );
        sim.write_input(en, LogicVec::from_u64(1, 1)).expect("en");
        sim.settle().expect("settle");
        let v = mon
            .check_cycle(&sim, 1)
            .expect("resolved monitor")
            .expect("violation");
        assert!(v.details.contains("secret exposed"));
    }

    #[test]
    fn asserted_after_reset_fires_when_guard_stays_down() {
        let src = "module m(input clk, input rst_n, output reg guard);
            always @(posedge clk or negedge rst_n)
              if (!rst_n) guard <= 1'b0;   // BUG: guard must re-arm to 1
              else guard <= guard;
          endmodule";
        let (design, _) = soccar_rtl::compile("m.v", src, "m").expect("compile");
        let prop = SecurityProperty {
            name: "range-check-armed".into(),
            module: "m".into(),
            kind: PropertyKind::AssertedAfterReset {
                domain: "m.rst_n".into(),
                signal: "m.guard".into(),
                window: 0,
            },
        };
        let mut mon =
            PropertyMonitor::resolve(&design, prop, &[("m.rst_n".into(), true)]).expect("resolve");
        let mut sim = Simulator::concrete(&design, InitPolicy::Ones);
        let clk = design.find_net("m.clk").expect("clk");
        let rst = design.find_net("m.rst_n").expect("rst");
        let mut violations = Vec::new();
        for (cycle, rv) in [(0u64, 1u64), (1, 0), (2, 1), (3, 1), (4, 1), (5, 1)] {
            sim.write_input(rst, LogicVec::from_u64(1, rv))
                .expect("rst");
            sim.settle().expect("settle");
            sim.tick(clk).expect("tick");
            violations.extend(mon.check_cycle(&sim, cycle).expect("resolved monitor"));
        }
        assert_eq!(violations.len(), 1, "{violations:?}");
    }

    #[test]
    fn resolve_rejects_unknown_signals() {
        let (design, _) =
            soccar_rtl::compile("m.v", "module m(input a); endmodule", "m").expect("compile");
        let prop = SecurityProperty {
            name: "p".into(),
            module: "m".into(),
            kind: PropertyKind::AlwaysOneOf {
                signal: "m.nope".into(),
                allowed: vec![LogicVec::from_u64(1, 0)],
            },
        };
        assert!(PropertyMonitor::resolve(&design, prop, &[]).is_err());
    }
}
