//! Cross-crate end-to-end tests: witness replay, solver-driven coverage,
//! and pipeline behaviour on hand-written designs.

use soccar::{Soccar, SoccarConfig};
use soccar_concolic::{ConcolicConfig, PropertyKind, PropertyMonitor, SecurityProperty};
use soccar_rtl::LogicVec;
use soccar_sim::{InitPolicy, Simulator};

const GUARDED_LEAK: &str = "
    module vault(input clk, input rst_n, input [7:0] combo,
                 output reg [7:0] secret, output reg open);
      always @(posedge clk or negedge rst_n)
        if (!rst_n) begin
          open <= 1'b0;
          if (combo == 8'h5A) secret <= secret;  // BUG: kept when combo matches
          else secret <= 8'd0;
        end else begin
          secret <= 8'hC3;
          open <= combo == 8'h5A;
        end
    endmodule
    module top(input clk, input vault_rst_n, input [7:0] combo,
               output [7:0] secret, output open);
      vault u (.clk(clk), .rst_n(vault_rst_n), .combo(combo),
               .secret(secret), .open(open));
    endmodule";

fn leak_property() -> SecurityProperty {
    SecurityProperty {
        name: "vault-secret-cleared".into(),
        module: "vault".into(),
        kind: PropertyKind::ClearedAfterReset {
            domain: "top.vault_rst_n".into(),
            signal: "top.u.secret".into(),
            expected: LogicVec::zeros(8),
            window: 0,
        },
    }
}

/// The bug only manifests when the reset arrives while `combo == 0x5A` —
/// a data-guarded condition the solver must construct.
#[test]
fn solver_constructs_the_magic_combo() {
    let config = SoccarConfig {
        concolic: ConcolicConfig {
            cycles: 10,
            max_rounds: 24,
            seed: 3,
            symbolic_inputs: vec!["top.combo".into()],
            skip_sweep: true, // force the solver to do the work
            ..ConcolicConfig::default()
        },
        ..SoccarConfig::default()
    };
    let report = Soccar::new(config)
        .analyze("vault.v", GUARDED_LEAK, "top", vec![leak_property()])
        .expect("analyze");
    assert!(
        report.concolic.violated("vault-secret-cleared"),
        "report: {report:?}"
    );
    assert!(
        report.concolic.solver_calls > 0,
        "the solver must have been engaged"
    );
}

/// A witness schedule must replay: driving the recorded reset pulses and
/// input values through a fresh concrete simulation re-triggers the same
/// violation.
#[test]
fn witness_schedules_replay_concretely() {
    let config = SoccarConfig {
        concolic: ConcolicConfig {
            cycles: 10,
            max_rounds: 8,
            symbolic_inputs: vec!["top.combo".into()],
            ..ConcolicConfig::default()
        },
        ..SoccarConfig::default()
    };
    let report = Soccar::new(config)
        .analyze("vault.v", GUARDED_LEAK, "top", vec![leak_property()])
        .expect("analyze");
    let witness = report
        .concolic
        .witnesses
        .iter()
        .find(|w| w.property == "vault-secret-cleared")
        .expect("witness recorded");

    // Replay on a fresh concrete simulator.
    let (design, _) = soccar_rtl::compile("vault.v", GUARDED_LEAK, "top").expect("compile");
    let mut sim = Simulator::concrete(&design, InitPolicy::Ones);
    let mut monitor = PropertyMonitor::resolve(
        &design,
        leak_property(),
        &[("top.vault_rst_n".into(), true)],
    )
    .expect("resolve");
    let clk = design.find_net("top.clk").expect("clk");
    for track in &witness.schedule.resets {
        sim.write_input(track.net, track.value_at(u64::MAX)).ok();
        let deassert = LogicVec::from_u64(1, u64::from(track.active_low));
        sim.write_input(track.net, deassert).expect("deassert");
    }
    sim.write_input(clk, LogicVec::from_u64(1, 0)).expect("clk");
    sim.settle().expect("settle");
    let mut violated = false;
    for cycle in 0..witness.schedule.cycles {
        for track in &witness.schedule.inputs {
            sim.write_input(track.net, track.values[cycle as usize].clone())
                .expect("input");
        }
        for track in &witness.schedule.resets {
            sim.write_input(track.net, track.value_at(cycle))
                .expect("reset");
        }
        sim.settle().expect("settle");
        sim.tick(clk).expect("tick");
        if monitor
            .check_cycle(&sim, cycle)
            .expect("resolved monitor")
            .is_some()
        {
            violated = true;
            break;
        }
    }
    assert!(
        violated,
        "witness must reproduce: {}",
        witness.schedule.summary()
    );
}

/// Clean version of the same design: no violations, full coverage of the
/// reachable AR_CFG targets.
#[test]
fn fixed_design_passes_with_coverage() {
    let fixed = GUARDED_LEAK.replace(
        "if (combo == 8'h5A) secret <= secret;  // BUG: kept when combo matches\n          else secret <= 8'd0;",
        "secret <= 8'd0;",
    );
    assert_ne!(fixed, GUARDED_LEAK);
    let config = SoccarConfig {
        concolic: ConcolicConfig {
            cycles: 10,
            max_rounds: 16,
            symbolic_inputs: vec!["top.combo".into()],
            ..ConcolicConfig::default()
        },
        ..SoccarConfig::default()
    };
    let report = Soccar::new(config)
        .analyze("vault.v", &fixed, "top", vec![leak_property()])
        .expect("analyze");
    assert!(report.violations().is_empty(), "{:?}", report.violations());
    assert!(report.concolic.coverage() > 0.7, "{report:?}");
}

/// The pipeline handles multiple interacting reset domains: a violation in
/// one domain is attributed to the right module, and pulsing one domain
/// does not disturb state owned by another.
#[test]
fn multi_domain_isolation_and_attribution() {
    let rtl = "
        module cnt(input clk, input rst_n, output reg [7:0] q);
          always @(posedge clk or negedge rst_n)
            if (!rst_n) q <= 8'd0; else q <= q + 8'd1;
        endmodule
        module bad(input clk, input rst_n, output reg [7:0] q);
          always @(posedge clk or negedge rst_n)
            if (!rst_n) q <= q;      // BUG
            else q <= q + 8'd1;
        endmodule
        module top(input clk, input a_rst_n, input b_rst_n);
          cnt u_good (.clk(clk), .rst_n(a_rst_n), .q());
          bad u_bad (.clk(clk), .rst_n(b_rst_n), .q());
        endmodule";
    let props = vec![
        SecurityProperty {
            name: "good-cleared".into(),
            module: "cnt".into(),
            kind: PropertyKind::ClearedAfterReset {
                domain: "top.a_rst_n".into(),
                signal: "top.u_good.q".into(),
                expected: LogicVec::zeros(8),
                window: 0,
            },
        },
        SecurityProperty {
            name: "bad-cleared".into(),
            module: "bad".into(),
            kind: PropertyKind::ClearedAfterReset {
                domain: "top.b_rst_n".into(),
                signal: "top.u_bad.q".into(),
                expected: LogicVec::zeros(8),
                window: 0,
            },
        },
    ];
    let report = Soccar::new(SoccarConfig::default())
        .analyze("multi.v", rtl, "top", props)
        .expect("analyze");
    assert_eq!(report.extraction.reset_domains, 2);
    assert_eq!(report.violations().len(), 1);
    assert_eq!(report.violations()[0].property, "bad-cleared");
    assert_eq!(report.violations()[0].module, "bad");
}

/// A module defined twice resolves to its first definition in every
/// stage: the report equals that of the same file without the second
/// body, even when the second body's reset process sits at another
/// always-block index.
#[test]
fn duplicate_module_resolves_to_its_first_definition() {
    let first = "
        module ip(input clk, input rst_n, output reg [7:0] key);
          always @(posedge clk or negedge rst_n)
            if (!rst_n) key <= key;   // BUG: key survives reset
            else key <= 8'hA5;
        endmodule";
    let second = "
        module ip(input clk, input rst_n, output reg [7:0] key, output reg q);
          always @(posedge clk) q <= ~q;
          always @(posedge clk or negedge rst_n)
            if (!rst_n) key <= 8'h00;
            else key <= 8'h5A;
        endmodule";
    let top = "
        module top(input clk, input sec_rst_n);
          ip u (.clk(clk), .rst_n(sec_rst_n));
        endmodule";
    let props = || {
        vec![SecurityProperty {
            name: "key-cleared".into(),
            module: "ip".into(),
            kind: PropertyKind::ClearedAfterReset {
                domain: "top.sec_rst_n".into(),
                signal: "top.u.key".into(),
                expected: LogicVec::zeros(8),
                window: 0,
            },
        }]
    };
    let soccar = Soccar::new(SoccarConfig::default());
    let twice = soccar
        .analyze("dup.v", &format!("{first}{second}{top}"), "top", props())
        .expect("a duplicate module must not fail the analysis");
    let once = soccar
        .analyze("dup.v", &format!("{first}{top}"), "top", props())
        .expect("analyze");
    assert_eq!(twice.violations(), once.violations());
    assert_eq!(twice.violations().len(), 1, "the first body's bug is found");
    assert_eq!(
        twice.extraction.reset_domains,
        once.extraction.reset_domains
    );
    assert_eq!(twice.extraction.ar_events, once.extraction.ar_events);
}
