//! Criterion benches for every pipeline stage and experiment of the paper:
//!
//! * `frontend/*` — parse + elaborate each benchmark SoC;
//! * `synthesis/*` — the Table I area estimation;
//! * `extraction/*` — Algorithms 1–2 (AR_CFG generation + composition);
//! * `detection/*` — the full Section V-C pipeline per variant (the
//!   "verification time of a few seconds" claim);
//! * `solver/*` — representative Algorithm 3 constraint queries;
//! * `flip_solving/*` — the flip queries of one frozen concolic round
//!   (docs/SOLVER.md);
//! * `simulation/*` — raw simulation throughput;
//! * `init_policy/*` — the all-ones vs zeros ablation.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use soccar::evaluation::evaluate_variant;
use soccar::SoccarConfig;
use soccar_bench::paper_config;
use soccar_cfg::{compose_soc, GovernorAnalysis, ResetNaming};
use soccar_concolic::ConcolicConfig;
use soccar_rtl::{elaborate::elaborate, parser::parse, span::FileId};
use soccar_sim::{InitPolicy, Simulator};
use soccar_smt::{BvVal, Solver, TermGraph};
use soccar_soc::SocModel;
use soccar_synth::{estimate, TechModel};

fn bench_frontend(c: &mut Criterion) {
    let mut g = c.benchmark_group("frontend");
    for model in [SocModel::ClusterSoc, SocModel::AutoSoc] {
        let design = soccar_soc::generate(model, None);
        g.bench_function(format!("{model:?}"), |b| {
            b.iter(|| {
                let unit = parse(FileId(0), &design.source).expect("parse");
                elaborate(&unit, &design.top).expect("elaborate")
            });
        });
    }
    g.finish();
}

fn bench_synthesis(c: &mut Criterion) {
    let mut g = c.benchmark_group("synthesis");
    for model in [SocModel::ClusterSoc, SocModel::AutoSoc] {
        let design = soccar_soc::generate(model, None);
        let (d, _) = soccar_rtl::compile("soc.v", &design.source, &design.top).expect("compile");
        g.bench_function(format!("table1_{model:?}"), |b| {
            b.iter(|| estimate(&d, &TechModel::default()));
        });
    }
    g.finish();
}

fn bench_extraction(c: &mut Criterion) {
    let mut g = c.benchmark_group("extraction");
    for model in [SocModel::ClusterSoc, SocModel::AutoSoc] {
        let design = soccar_soc::generate(model, None);
        let unit = parse(FileId(0), &design.source).expect("parse");
        g.bench_function(format!("ar_cfg_{model:?}"), |b| {
            b.iter(|| {
                compose_soc(
                    &unit,
                    &design.top,
                    &ResetNaming::new(),
                    GovernorAnalysis::Explicit,
                )
                .expect("compose")
            });
        });
    }
    g.finish();
}

fn bench_detection(c: &mut Criterion) {
    let mut g = c.benchmark_group("detection");
    g.sample_size(10);
    for spec in soccar_soc::variants() {
        g.bench_function(spec.name().replace(' ', "_").replace('#', ""), |b| {
            b.iter_batched(
                paper_config,
                |config| evaluate_variant(&spec, config).expect("evaluates"),
                BatchSize::PerIteration,
            );
        });
    }
    // The Refined ablation on the implicit-governor variant.
    let spec = soccar_soc::variant(SocModel::AutoSoc, 2).expect("variant");
    g.bench_function("AutoSoC_Variant_2_refined", |b| {
        b.iter_batched(
            || SoccarConfig {
                analysis: GovernorAnalysis::Refined,
                ..paper_config()
            },
            |config| evaluate_variant(&spec, config).expect("evaluates"),
            BatchSize::PerIteration,
        );
    });
    g.finish();
}

fn bench_solver(c: &mut Criterion) {
    let mut g = c.benchmark_group("solver");
    // The Algorithm 3 shape: reset/clock equivalences plus a data guard.
    g.bench_function("reset_constraint", |b| {
        b.iter(|| {
            let mut graph = TermGraph::new();
            let rst = graph.var("rst", 1);
            let state = graph.var("state", 3);
            let magic = graph.var("magic", 8);
            let zero = graph.const_u64(1, 0);
            let busy = graph.const_u64(3, 5);
            let key = graph.const_u64(8, 0x5A);
            let c1 = graph.eq(rst, zero);
            let c2 = graph.eq(state, busy);
            let c3 = graph.eq(magic, key);
            let mut s = Solver::new();
            s.assert(c1);
            s.assert(c2);
            s.assert(c3);
            s.check(&graph)
        });
    });
    g.bench_function("multiplier_inversion_16bit", |b| {
        b.iter(|| {
            let mut graph = TermGraph::new();
            let x = graph.var("x", 16);
            let y = graph.var("y", 16);
            let p = graph.mul(x, y);
            let c = graph.constant(BvVal::from_u64(16, 12_019)); // 7 × 17 × 101
            let eq = graph.eq(p, c);
            let one = graph.const_u64(16, 1);
            let xg = graph.ult(one, x);
            let yg = graph.ult(one, y);
            let mut s = Solver::new();
            s.assert(eq);
            s.assert(xg);
            s.assert(yg);
            s.check(&graph)
        });
    });
    g.finish();
}

fn bench_flip_solving(c: &mut Criterion) {
    let mut g = c.benchmark_group("flip_solving");
    g.sample_size(10);
    // The frozen round state the `detection` binary records into
    // BENCH_<soc>.json.
    for model in [SocModel::ClusterSoc, SocModel::AutoSoc] {
        let workload = soccar_bench::flip_workload(model, &soccar_bench::smoke_config());
        let cap = soccar_bench::FLIP_SOLVING_CAP;
        let recorder = soccar_obs::Recorder::disabled();
        g.bench_function(format!("{model:?}_oneshot"), |b| {
            b.iter(|| workload.solve(cap, &recorder));
        });
    }
    g.finish();
}

fn bench_simulation(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulation");
    g.sample_size(10);
    let design = soccar_soc::generate(SocModel::ClusterSoc, None);
    let (d, _) = soccar_rtl::compile("soc.v", &design.source, &design.top).expect("compile");
    let clk = d.find_net("cluster_soc.clk").expect("clk");
    let inputs: Vec<_> = d.top_inputs().collect();
    g.bench_function("cluster_soc_100_cycles", |b| {
        b.iter(|| {
            let mut sim = Simulator::concrete(&d, InitPolicy::Ones);
            for net in &inputs {
                let w = sim.design().net(*net).width;
                sim.write_input(*net, soccar_rtl::LogicVec::zeros(w))
                    .expect("in");
            }
            for rst in ["sys_rst_n", "mem_rst_n", "crypto_rst_n", "periph_rst_n"] {
                let n = d.find_net(&format!("cluster_soc.{rst}")).expect("rst");
                sim.write_input(n, soccar_rtl::LogicVec::from_u64(1, 1))
                    .expect("rst");
            }
            sim.settle().expect("settle");
            for _ in 0..100 {
                sim.tick(clk).expect("tick");
            }
            sim.time()
        });
    });
    g.finish();
}

fn bench_init_policy(c: &mut Criterion) {
    let mut g = c.benchmark_group("init_policy");
    g.sample_size(10);
    let spec = soccar_soc::variant(SocModel::ClusterSoc, 1).expect("variant");
    for (label, init) in [("ones", InitPolicy::Ones), ("zeros", InitPolicy::Zeros)] {
        g.bench_function(label, |b| {
            b.iter_batched(
                || {
                    let base = paper_config();
                    SoccarConfig {
                        concolic: ConcolicConfig {
                            init,
                            ..base.concolic
                        },
                        ..base
                    }
                },
                |config| evaluate_variant(&spec, config).expect("evaluates"),
                BatchSize::PerIteration,
            );
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_frontend,
    bench_synthesis,
    bench_extraction,
    bench_detection,
    bench_solver,
    bench_flip_solving,
    bench_simulation,
    bench_init_policy
);
criterion_main!(benches);
