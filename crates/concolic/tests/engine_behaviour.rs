//! Engine behaviour tests: determinism, unreachable-target accounting,
//! witness quality, and multi-domain scheduling.

use soccar_cfg::{bind_events, compose_soc, GovernorAnalysis, ResetNaming};
use soccar_concolic::{ConcolicConfig, ConcolicEngine, PropertyKind, SecurityProperty};
use soccar_rtl::parser::parse;
use soccar_rtl::span::FileId;
use soccar_rtl::LogicVec;

fn run(
    src: &str,
    props: Vec<SecurityProperty>,
    analysis: GovernorAnalysis,
    config: ConcolicConfig,
) -> soccar_concolic::ConcolicReport {
    let unit = parse(FileId(0), src).expect("parse");
    let design = soccar_rtl::elaborate::elaborate(&unit, "top").expect("elaborate");
    let soc = compose_soc(&unit, "top", &ResetNaming::new(), analysis).expect("compose");
    let bound = bind_events(&design, &soc).expect("bind");
    ConcolicEngine::new(&design, &bound, props, config)
        .expect("engine")
        .run()
        .expect("run")
}

const TWO_DOMAIN: &str = "
    module ip(input clk, input rst_n, output reg [7:0] q);
      always @(posedge clk or negedge rst_n)
        if (!rst_n) q <= 8'd0; else q <= q + 8'd1;
    endmodule
    module bad_ip(input clk, input rst_n, output reg [7:0] secret);
      always @(posedge clk or negedge rst_n)
        if (!rst_n) secret <= secret;  // BUG
        else secret <= 8'h77;
    endmodule
    module top(input clk, input a_rst_n, input b_rst_n);
      ip u_a (.clk(clk), .rst_n(a_rst_n));
      bad_ip u_b (.clk(clk), .rst_n(b_rst_n));
    endmodule";

fn secret_prop() -> SecurityProperty {
    SecurityProperty {
        name: "secret-cleared".into(),
        module: "bad_ip".into(),
        kind: PropertyKind::ClearedAfterReset {
            domain: "top.b_rst_n".into(),
            signal: "top.u_b.secret".into(),
            expected: LogicVec::zeros(8),
            window: 0,
        },
    }
}

#[test]
fn identical_seeds_give_identical_reports() {
    let config = ConcolicConfig {
        cycles: 12,
        max_rounds: 6,
        seed: 1234,
        ..ConcolicConfig::default()
    };
    let a = run(
        TWO_DOMAIN,
        vec![secret_prop()],
        GovernorAnalysis::Explicit,
        config.clone(),
    );
    let b = run(
        TWO_DOMAIN,
        vec![secret_prop()],
        GovernorAnalysis::Explicit,
        config,
    );
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.violations, b.violations);
    assert_eq!(a.targets_covered, b.targets_covered);
    assert_eq!(a.first_violation_round, b.first_violation_round);
    assert_eq!(a.witnesses.len(), b.witnesses.len());
    for (wa, wb) in a.witnesses.iter().zip(&b.witnesses) {
        assert_eq!(wa.schedule, wb.schedule);
        assert_eq!(wa.round, wb.round);
    }
}

#[test]
fn different_seeds_still_converge_on_detection() {
    for seed in [1, 99, 0xDEAD] {
        let config = ConcolicConfig {
            cycles: 12,
            max_rounds: 6,
            seed,
            ..ConcolicConfig::default()
        };
        let r = run(
            TWO_DOMAIN,
            vec![secret_prop()],
            GovernorAnalysis::Explicit,
            config,
        );
        assert!(r.violated("secret-cleared"), "seed {seed}: {r:?}");
    }
}

#[test]
fn both_domains_are_discovered_and_pulsed() {
    let config = ConcolicConfig {
        cycles: 10,
        max_rounds: 4,
        ..ConcolicConfig::default()
    };
    let unit = parse(FileId(0), TWO_DOMAIN).expect("parse");
    let design = soccar_rtl::elaborate::elaborate(&unit, "top").expect("elaborate");
    let soc = compose_soc(
        &unit,
        "top",
        &ResetNaming::new(),
        GovernorAnalysis::Explicit,
    )
    .expect("compose");
    let bound = bind_events(&design, &soc).expect("bind");
    let engine = ConcolicEngine::new(&design, &bound, vec![], config).expect("engine");
    let sources: Vec<&str> = engine
        .domains()
        .iter()
        .map(|(s, _, _)| s.as_str())
        .collect();
    assert_eq!(sources, vec!["top.a_rst_n", "top.b_rst_n"]);
    assert!(engine.target_count() >= 4);
}

#[test]
fn internally_generated_domain_yields_unreachable_targets() {
    // The reset is derived from internal logic, not a top input: the
    // engine cannot pulse it directly and must account the targets as
    // unreachable rather than spinning forever.
    let src = "
        module ip(input clk, input rst_n, output reg [3:0] q);
          always @(posedge clk or negedge rst_n)
            if (!rst_n) q <= 4'd0; else q <= q + 4'd1;
        endmodule
        module top(input clk, input [3:0] ctl);
          wire derived_rst_n;
          assign derived_rst_n = ctl != 4'hF;
          ip u (.clk(clk), .rst_n(derived_rst_n));
        endmodule";
    let config = ConcolicConfig {
        cycles: 8,
        max_rounds: 6,
        skip_sweep: true,
        ..ConcolicConfig::default()
    };
    let r = run(src, vec![], GovernorAnalysis::Explicit, config);
    assert!(r.targets_total > 0);
    // Nothing is controllable; every uncovered target must end up
    // unreachable or covered (via the derived reset toggling at init),
    // and the run must terminate quickly.
    assert!(r.rounds <= 7, "{r:?}");
    assert_eq!(
        r.targets_covered + r.targets_unreachable,
        r.targets_total,
        "{r:?}"
    );
}

#[test]
fn witness_pulses_match_the_monitored_domain() {
    let config = ConcolicConfig {
        cycles: 12,
        max_rounds: 6,
        ..ConcolicConfig::default()
    };
    let r = run(
        TWO_DOMAIN,
        vec![secret_prop()],
        GovernorAnalysis::Explicit,
        config,
    );
    let w = r
        .witnesses
        .iter()
        .find(|w| w.property == "secret-cleared")
        .expect("witness");
    // The schedule must actually assert the violating domain.
    let b_track = w
        .schedule
        .resets
        .iter()
        .find(|t| t.source == "top.b_rst_n")
        .expect("domain track");
    assert!(
        !b_track.assert_edges().is_empty(),
        "witness asserts the domain: {}",
        w.schedule.summary()
    );
}

#[test]
fn skip_sweep_limits_rounds() {
    let config = ConcolicConfig {
        cycles: 12,
        max_rounds: 5,
        skip_sweep: true,
        ..ConcolicConfig::default()
    };
    let r = run(TWO_DOMAIN, vec![], GovernorAnalysis::Explicit, config);
    assert!(r.rounds <= 5, "{}", r.rounds);
}

/// The future-work extension: arbitrary asynchronous event lines (here an
/// IRQ) are swept like reset domains. The bug: an interrupt arriving in
/// the same instant as a privilege downgrade leaves the mode register in
/// the undefined encoding — only reachable by pulsing the IRQ line at
/// specific cycles.
#[test]
fn async_event_lines_are_swept_like_domains() {
    let src = "
        module core(input clk, input rst_n, input irq, output reg [1:0] priv_mode,
                    output reg [3:0] step);
          always @(posedge clk or negedge rst_n)
            if (!rst_n) begin
              priv_mode <= 2'b11;
              step <= 4'd0;
            end else begin
              step <= step + 4'd1;
              if (step == 4'd5) begin
                // Scheduled downgrade M → S...
                if (irq) priv_mode <= 2'b10;   // BUG: races with the IRQ path
                else priv_mode <= 2'b01;
              end else if (irq) priv_mode <= 2'b11;
            end
        endmodule
        module top(input clk, input rst_n, input ext_irq);
          core u (.clk(clk), .rst_n(rst_n), .irq(ext_irq));
        endmodule";
    let prop = SecurityProperty {
        name: "priv-legal".into(),
        module: "core".into(),
        kind: PropertyKind::AlwaysOneOf {
            signal: "top.u.priv_mode".into(),
            allowed: vec![
                LogicVec::from_u64(2, 0b00),
                LogicVec::from_u64(2, 0b01),
                LogicVec::from_u64(2, 0b11),
            ],
        },
    };
    // Without the async-event line, irq is a plain input pinned to zero:
    // the race is unreachable.
    let base = ConcolicConfig {
        cycles: 12,
        max_rounds: 4,
        seed: 5,
        ..ConcolicConfig::default()
    };
    let r = run(
        src,
        vec![prop.clone()],
        GovernorAnalysis::Explicit,
        base.clone(),
    );
    assert!(!r.violated("priv-legal"), "{r:?}");
    // With ext_irq registered as an asynchronous event, the sweep pulses
    // it across cycle positions and hits the step==5 race.
    let cfg = ConcolicConfig {
        async_events: vec!["top.ext_irq".into()],
        ..base
    };
    let r = run(src, vec![prop], GovernorAnalysis::Explicit, cfg);
    assert!(r.violated("priv-legal"), "{r:?}");
}

/// A witness schedule replayed through `ConcolicEngine::replay` drives
/// the design back into the violating state (here: the secret register
/// still holding data while its domain reset is asserted), and the
/// replayed round raises the witness's property again.
#[test]
fn replay_reproduces_the_violation_state() {
    let config = ConcolicConfig {
        cycles: 12,
        max_rounds: 6,
        ..ConcolicConfig::default()
    };
    let unit = parse(FileId(0), TWO_DOMAIN).expect("parse");
    let design = soccar_rtl::elaborate::elaborate(&unit, "top").expect("elaborate");
    let soc = compose_soc(
        &unit,
        "top",
        &ResetNaming::new(),
        GovernorAnalysis::Explicit,
    )
    .expect("compose");
    let bound = soccar_cfg::bind_events(&design, &soc).expect("bind");
    let mut engine =
        ConcolicEngine::new(&design, &bound, vec![secret_prop()], config).expect("engine");
    let report = engine.run().expect("run");
    let w = report
        .witnesses
        .iter()
        .find(|w| w.property == "secret-cleared")
        .expect("witness");
    let run = engine.replay(&w.schedule).expect("replay");
    assert!(
        run.violations.iter().any(|v| v.property == w.property),
        "the replay raises the witness's property: {:?}",
        run.violations
    );
    let sim = &run.sim;
    // During the final state of the replay the trace must contain a cycle
    // where b_rst_n was asserted; and the secret was never cleared by it.
    let secret = design.find_net("top.u_b.secret").expect("secret");
    let b_rst = design.find_net("top.b_rst_n").expect("rst");
    let rst_asserted = sim
        .trace()
        .iter()
        .any(|e| e.net == b_rst && e.value.is_all_zero());
    assert!(rst_asserted, "replay asserted the domain");
    let secret_cleared = sim
        .trace()
        .iter()
        .any(|e| e.net == secret && e.value.is_all_zero());
    assert!(!secret_cleared, "the buggy secret register never cleared");
}
