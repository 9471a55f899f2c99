//! Soundness of the flip solver on real flip queries: on the bundled and
//! generated SoCs, every Sat answer to an engine flip query (the path
//! prefix pinned, one branch flipped) comes with a model that satisfies
//! all of the query's assertions under the reference term evaluator.
//! The first-round answers of the clean bundled SoCs are pinned too.

use soccar_concolic::{ConcolicConfig, ConcolicEngine};
use soccar_smt::{model_satisfies, CheckResult, Solver};

/// Checks the last `cap` flip queries of the first round of `name` (a
/// catalog design) at each seed; returns `(queries, sat)`.
fn check_design(name: &str, variant: Option<u32>, seeds: &[u64], cap: usize) -> (usize, usize) {
    let soc = soccar_soc::catalog::resolve(name, variant).expect("catalog design");
    let unit = soccar_rtl::parser::parse(soccar_rtl::span::FileId(0), &soc.source)
        .expect("catalog designs parse");
    let design =
        soccar_rtl::elaborate::elaborate(&unit, &soc.top).expect("catalog designs elaborate");
    let arcfg = soccar_cfg::compose_soc(
        &unit,
        &soc.top,
        &soccar_cfg::ResetNaming::new(),
        soccar_cfg::GovernorAnalysis::Explicit,
    )
    .expect("catalog designs compose");
    let bound = soccar_cfg::bind_events(&design, &arcfg).expect("catalog designs bind");
    let (mut queries, mut sat) = (0, 0);
    for &seed in seeds {
        let config = ConcolicConfig {
            cycles: 10,
            seed,
            symbolic_inputs: soc.symbolic.clone(),
            ..ConcolicConfig::default()
        };
        let workload = ConcolicEngine::new(&design, &bound, Vec::new(), config)
            .expect("engine")
            .flip_workload()
            .expect("the first round simulates");
        let graph = workload.graph();
        for terms in workload.queries(cap) {
            let mut solver = Solver::new();
            for t in &terms {
                solver.assert(*t);
            }
            queries += 1;
            if let CheckResult::Sat(model) = solver.check(graph) {
                sat += 1;
                assert!(
                    model_satisfies(graph, &terms, &model),
                    "{name} (variant {variant:?}, seed {seed}): a Sat flip model violates its query"
                );
            }
        }
    }
    (queries, sat)
}

#[test]
fn every_sat_flip_model_satisfies_its_query() {
    for (name, variant) in [
        ("clustersoc", Some(3)),
        ("autosoc", Some(2)),
        ("gen:3:1", None),
        ("gen:5:2", None),
    ] {
        let (queries, sat) = check_design(name, variant, &[1, 2], usize::MAX);
        assert!(
            sat > 0 && sat < queries,
            "{name}: expected both Sat and non-Sat flips, got {sat} of {queries}"
        );
    }
    // The clean bundled SoCs at the smoke horizon (10 cycles) and the
    // default seed: the last 256 candidates of the first round, pinned.
    let seed = ConcolicConfig::default().seed;
    for (name, pinned) in [("clustersoc", (256, 62)), ("autosoc", (256, 45))] {
        assert_eq!(check_design(name, None, &[seed], 256), pinned, "{name}");
    }
}
