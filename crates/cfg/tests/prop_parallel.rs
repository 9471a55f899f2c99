//! Property test: parallel AR_CFG extraction is indistinguishable from
//! serial extraction. For random small module sets — mixed reset
//! polarities, widths, scrubbed and unscrubbed arms, reset-free blocks —
//! `extract_all_jobs` at any worker count must return exactly the
//! per-module CFG/AR_CFG pairs (same events, same edges, same order)
//! that the serial path produces. A leading comment pads every module
//! set past `MIN_FANOUT_BYTES`, so the extraction really fans out.

use proptest::prelude::*;
use soccar_cfg::{extract_all, extract_all_jobs, GovernorAnalysis, ResetNaming};
use soccar_rtl::fingerprint::MIN_FANOUT_BYTES;
use soccar_rtl::parser::parse;
use soccar_rtl::span::FileId;

/// Renders one random module from `seed`'s bits: reset polarity, data
/// width, register count, whether the reset arm scrubs, and whether an
/// extra reset-free always block rides along (it must never reach the
/// AR projection).
fn module_source(index: usize, seed: u64) -> String {
    let active_low = seed & 1 != 0;
    let scrub = seed & 2 != 0;
    let width = 1 + (seed >> 2) % 8;
    let regs = 1 + (seed >> 5) % 3;
    let plain_block = seed & (1 << 7) != 0;

    let (rst, edge, test) = if active_low {
        ("rst_n", "negedge rst_n", "!rst_n")
    } else {
        ("rst", "posedge rst", "rst")
    };
    let top = width - 1;
    let mut src = format!("module m{index}(input clk, input {rst}, input [{top}:0] d");
    for r in 0..regs {
        src.push_str(&format!(", output reg [{top}:0] q{r}"));
    }
    src.push_str(");\n");
    for r in 0..regs {
        let cleared = if scrub {
            format!("{width}'d0")
        } else {
            format!("q{r}") // unscrubbed: holds its value through reset
        };
        src.push_str(&format!(
            "  always @(posedge clk or {edge})\n    if ({test}) q{r} <= {cleared}; else q{r} <= d;\n"
        ));
    }
    if plain_block {
        src.push_str("  reg [3:0] free;\n  always @(posedge clk) free <= free + 4'd1;\n");
    }
    src.push_str("endmodule\n");
    src
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parallel_extraction_matches_serial(
        seeds in proptest::collection::vec(0u64..1u64 << 32, 1..7),
        jobs in 2usize..9,
    ) {
        let modules: String = seeds
            .iter()
            .enumerate()
            .map(|(i, s)| module_source(i, *s))
            .collect();
        let src = format!("/*{}*/\n{modules}", " ".repeat(MIN_FANOUT_BYTES));
        let unit = parse(FileId(0), &src).expect("generated module set parses");
        let naming = ResetNaming::new();

        for analysis in [GovernorAnalysis::Explicit, GovernorAnalysis::Refined] {
            let serial = extract_all(&unit, &naming, analysis);
            let (parallel, stats) = extract_all_jobs(&unit, &naming, analysis, jobs);
            prop_assert_eq!(&serial, &parallel);
            prop_assert_eq!(stats.tasks, unit.modules.len());
            prop_assert_eq!(stats.jobs, jobs.min(unit.modules.len()));
            // Module order tracks source order for every job count.
            for (i, (cfg, ar)) in parallel.iter().enumerate() {
                prop_assert_eq!(&cfg.module, &format!("m{i}"));
                prop_assert_eq!(&ar.module, &cfg.module);
            }
        }
    }
}
