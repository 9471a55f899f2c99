//! Seeded, deterministic SoC topology generation (`gen:<seed>:<scale>`).
//!
//! The paper validates SoCCAR on two hand-built SoCs; this module scales
//! that universe. It composes the existing `ip/` library into an
//! N-cluster design — each cluster a private Wishbone island with a
//! RISC-V core, a DMA engine, two SRAMs, two crypto engines, a DSP
//! datapath, a peripheral and a coverage gate — behind a second,
//! top-level interconnect tier, with seeded bug-family injection drawn
//! from the Table III catalog. Alongside the RTL it emits a
//! machine-readable ground-truth [`Manifest`]: which bug, in which
//! module, of which [`ViolationType`], and at which pipeline stage
//! detection is expected. See `docs/GENERATOR.md`.
//!
//! Determinism contract: the same `(seed, scale)` pair yields
//! byte-identical RTL, checks, symbolic inputs and manifest JSON on
//! every platform. The internal RNG is a fixed splitmix64 — changing
//! the stream (or any draw order below) is a breaking change that
//! requires regenerating the stress-tier baselines.

use std::fmt::Write as _;

use crate::bugs::ViolationType;
use crate::checks::{CheckKind, CheckSpec};
use crate::ip::crypto::{self, CryptoBug};
use crate::ip::dma;
use crate::ip::dsp;
use crate::ip::periph;
use crate::ip::riscv::{self, CoreBug, CoreVariant};
use crate::ip::sram::{self, MemoryBug};
use crate::ip::wishbone::{self, BusBug};

/// Upper bound on `scale` (clusters). Keeps a typo like `gen:1:9999`
/// from allocating gigabytes of RTL text.
pub const MAX_SCALE: u32 = 128;

/// A parsed `gen:<seed>:<scale>` catalog name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GenSpec {
    /// RNG seed; selects topology rotation and bug injection.
    pub seed: u64,
    /// Cluster count. Each cluster contributes 11 modules.
    pub scale: u32,
}

impl GenSpec {
    /// Parses a `gen:<seed>:<scale>` name.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the name is not of that
    /// shape or `scale` is outside `1..=MAX_SCALE`.
    pub fn parse(name: &str) -> Result<GenSpec, String> {
        let rest = name
            .strip_prefix("gen:")
            .ok_or_else(|| format!("`{name}` is not a `gen:<seed>:<scale>` name"))?;
        let (seed, scale) = rest
            .split_once(':')
            .ok_or_else(|| format!("`{name}`: expected `gen:<seed>:<scale>`"))?;
        let seed: u64 = seed
            .parse()
            .map_err(|_| format!("`{name}`: seed `{seed}` is not a u64"))?;
        let scale: u32 = scale
            .parse()
            .map_err(|_| format!("`{name}`: scale `{scale}` is not a u32"))?;
        if scale == 0 || scale > MAX_SCALE {
            return Err(format!(
                "`{name}`: scale must be in 1..={MAX_SCALE}, got {scale}"
            ));
        }
        Ok(GenSpec { seed, scale })
    }

    /// The canonical catalog name, `gen:<seed>:<scale>`.
    #[must_use]
    pub fn name(&self) -> String {
        format!("gen:{}:{}", self.seed, self.scale)
    }

    /// A filename-safe slug, `gen_<seed>_<scale>` (bench records and
    /// pipeline file names cannot carry `:`).
    #[must_use]
    pub fn slug(&self) -> String {
        format!("gen_{}_{}", self.seed, self.scale)
    }
}

/// Where the pipeline is expected to catch a seeded bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectionStage {
    /// The concolic stage: one of the `detectors` checks is violated.
    Concolic,
    /// The lint pre-pass: `implicit-governor` flags the module (the
    /// Section V-C construct the Explicit analysis cannot see).
    Lint,
}

impl DetectionStage {
    /// Stable manifest token.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            DetectionStage::Concolic => "concolic",
            DetectionStage::Lint => "lint",
        }
    }
}

/// One seeded bug, as ground truth for recall scoring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestBug {
    /// Cluster index the bug lives in.
    pub cluster: u32,
    /// Violation class (Table III).
    pub violation: ViolationType,
    /// Uniquified module name carrying the bug (e.g. `aes192_c3`).
    pub module: String,
    /// Hierarchical instance path (e.g. `gen_soc.u_c3.u_aes192`).
    pub instance: String,
    /// Whether the implicit-governor construct was used.
    pub implicit: bool,
    /// Expected detection stage.
    pub stage: DetectionStage,
    /// Check names whose violation counts as detecting this bug.
    pub detectors: Vec<String>,
}

impl ManifestBug {
    /// One-line rendering for test-failure messages.
    #[must_use]
    pub fn describe(&self) -> String {
        format!(
            "cluster {} {} @ {} ({}){} — expect {}: [{}]",
            self.cluster,
            violation_token(self.violation),
            self.module,
            self.instance,
            if self.implicit { " implicit" } else { "" },
            self.stage.token(),
            self.detectors.join(", ")
        )
    }
}

/// The machine-readable ground truth emitted beside the RTL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Catalog name (`gen:<seed>:<scale>`).
    pub name: String,
    /// RNG seed.
    pub seed: u64,
    /// Cluster count.
    pub scale: u32,
    /// Total Verilog modules emitted.
    pub modules: u32,
    /// Top-level asynchronous reset domains.
    pub reset_domains: u32,
    /// The seeded bugs (at least one; clusters without a draw are clean).
    pub bugs: Vec<ManifestBug>,
}

/// Stable manifest token for a violation class.
#[must_use]
pub fn violation_token(v: ViolationType) -> &'static str {
    match v {
        ViolationType::InformationLeakage => "information-leakage",
        ViolationType::DataIntegrity => "data-integrity",
        ViolationType::PrivilegeMode => "privilege-mode",
    }
}

/// A fully generated design: RTL plus everything the pipeline and the
/// evaluation harness need.
#[derive(Debug, Clone)]
pub struct GeneratedSoc {
    /// Catalog name (`gen:<seed>:<scale>`).
    pub name: String,
    /// Filename-safe slug (`gen_<seed>_<scale>`).
    pub slug: String,
    /// Complete Verilog source.
    pub source: String,
    /// Top module name (always `gen_soc`).
    pub top: String,
    /// The security regression for this design (variant-independent in
    /// spirit: checks cover every cluster, buggy or clean).
    pub checks: Vec<CheckSpec>,
    /// Symbolic top-level inputs for the concolic engine.
    pub symbolic: Vec<String>,
    /// Ground truth.
    pub manifest: Manifest,
}

/// The fixed pinned sweep shared by the tier-1 recall oracle test and
/// the CI stress tier: 5 seeds × 3 scales.
#[must_use]
pub fn pinned_sweep() -> Vec<GenSpec> {
    let mut out = Vec::new();
    for seed in [3, 17, 29, 97, 1913] {
        for scale in [1, 2, 4] {
            out.push(GenSpec { seed, scale });
        }
    }
    out
}

/// splitmix64 — the fixed, platform-independent RNG stream behind the
/// determinism contract. Do not swap for `rand`: its stub stream is not
/// part of this crate's API stability surface.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-ish pick in `0..n` (modulo bias is irrelevant here).
    fn pick(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Renames the single module declared in `src` from `base` to `unique`.
fn uniquify(src: &str, base: &str, unique: &str) -> String {
    let needle = format!("module {base}");
    assert!(
        src.contains(&needle),
        "IP source for `{base}` has no `{needle}` declaration"
    );
    src.replacen(&needle, &format!("module {unique}"), 1)
}

const CORE_SET: [CoreVariant; 5] = [
    CoreVariant::Rv32i,
    CoreVariant::Rv32e,
    CoreVariant::Rv32ic,
    CoreVariant::Rv32im,
    CoreVariant::Rv32imc,
];

const DSP_SET: [&str; 4] = ["fir_filter", "dft_core", "idft_core", "iir_filter"];
const PERIPH_SET: [&str; 3] = ["uart", "spi_ctrl", "eth_mac"];

/// The seven injectable bug families, one per `BugFamily::pick` arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BugFamily {
    CryptoExplicit,
    CryptoImplicit,
    MemorySp,
    MemoryDp,
    MemoryDma,
    CorePriv,
    BusMask,
}

const FAMILIES: [BugFamily; 7] = [
    BugFamily::CryptoExplicit,
    BugFamily::CryptoImplicit,
    BugFamily::MemorySp,
    BugFamily::MemoryDp,
    BugFamily::MemoryDma,
    BugFamily::CorePriv,
    BugFamily::BusMask,
];

/// Everything chosen for one cluster, fixed before any RTL is emitted
/// so the draw order is a stable part of the determinism contract.
struct ClusterPlan {
    core: CoreVariant,
    engines: [&'static str; 2],
    dsp: &'static str,
    periph: &'static str,
    magic: u8,
    bug: Option<BugFamily>,
}

fn plan_cluster(rng: &mut SplitMix64) -> ClusterPlan {
    let core = CORE_SET[rng.pick(CORE_SET.len() as u64) as usize];
    let e0 = rng.pick(crypto::ENGINE_NAMES.len() as u64) as usize;
    let e1 = (e0 + 1 + rng.pick(crypto::ENGINE_NAMES.len() as u64 - 1) as usize)
        % crypto::ENGINE_NAMES.len();
    let dsp = DSP_SET[rng.pick(DSP_SET.len() as u64) as usize];
    let periph = PERIPH_SET[rng.pick(PERIPH_SET.len() as u64) as usize];
    // 1..=254: the all-zeros/all-ones patterns are too easy for the
    // concolic engine to stumble onto concretely.
    let magic = 1 + rng.pick(254) as u8;
    let bug = if rng.pick(100) < 50 {
        Some(FAMILIES[rng.pick(FAMILIES.len() as u64) as usize])
    } else {
        None
    };
    ClusterPlan {
        core,
        engines: [crypto::ENGINE_NAMES[e0], crypto::ENGINE_NAMES[e1]],
        dsp,
        periph,
        magic,
        bug,
    }
}

/// Number of cluster reset-domain groups (`g<k>_rst_n` top inputs).
/// Bounded so the reset sweep stays O(domains × cycles) no matter the
/// scale; hierarchy depth, not domain count, grows with `scale`.
fn groups(scale: u32) -> u32 {
    scale.min(4)
}

/// Generates the design for a spec. Deterministic: same spec, same
/// bytes — RTL, checks, symbolic inputs and manifest alike.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn generate(spec: &GenSpec) -> GeneratedSoc {
    // Mix scale into the stream so `gen:7:2` is not a prefix of
    // `gen:7:4`'s topology.
    let mut rng = SplitMix64::new(spec.seed ^ (u64::from(spec.scale) << 32));
    let plans: Vec<ClusterPlan> = (0..spec.scale).map(|_| plan_cluster(&mut rng)).collect();
    let force_bug = plans.iter().all(|p| p.bug.is_none());

    let mut src = String::new();
    let mut modules = 0u32;
    let mut checks = Vec::new();
    let mut bugs = Vec::new();
    let g = groups(spec.scale);

    for (i, plan) in plans.iter().enumerate() {
        let i = i as u32;
        let bug = if force_bug && i == 0 {
            Some(BugFamily::CryptoExplicit)
        } else {
            plan.bug
        };
        let domain = format!("gen_soc.g{}_rst_n", i % g);
        emit_cluster(&mut src, &mut modules, &mut checks, i, plan, bug, &domain);
        if let Some(family) = bug {
            bugs.push(manifest_bug(i, plan, family));
        }
    }

    emit_shared(&mut src, &mut modules, &mut checks);
    emit_top(&mut src, &mut modules, spec.scale, g);

    let symbolic = vec![
        "gen_soc.tst_key".to_owned(),
        "gen_soc.tst_pt".to_owned(),
        "gen_soc.tst_start".to_owned(),
        "gen_soc.tst_magic".to_owned(),
    ];
    let manifest = Manifest {
        name: spec.name(),
        seed: spec.seed,
        scale: spec.scale,
        modules,
        reset_domains: g + 3,
        bugs,
    };
    GeneratedSoc {
        name: spec.name(),
        slug: spec.slug(),
        source: src,
        top: "gen_soc".to_owned(),
        checks,
        symbolic,
        manifest,
    }
}

fn manifest_bug(i: u32, plan: &ClusterPlan, family: BugFamily) -> ManifestBug {
    let (violation, base, inst, implicit, stage, detectors) = match family {
        BugFamily::CryptoExplicit => (
            ViolationType::InformationLeakage,
            plan.engines[0],
            format!("u_{}", plan.engines[0]),
            false,
            DetectionStage::Concolic,
            vec![
                format!("c{i}-{}-key-cleared", plan.engines[0]),
                format!("c{i}-{}-pt-cleared", plan.engines[0]),
            ],
        ),
        BugFamily::CryptoImplicit => (
            ViolationType::InformationLeakage,
            plan.engines[1],
            format!("u_{}", plan.engines[1]),
            true,
            DetectionStage::Lint,
            vec![format!("c{i}-{}-no-leak", plan.engines[1])],
        ),
        BugFamily::MemorySp => (
            ViolationType::DataIntegrity,
            "sram_sp",
            "u_sram0".to_owned(),
            false,
            DetectionStage::Concolic,
            vec![format!("c{i}-sram0-guard-armed")],
        ),
        BugFamily::MemoryDp => (
            ViolationType::DataIntegrity,
            "sram_dp",
            "u_sram1".to_owned(),
            false,
            DetectionStage::Concolic,
            vec![format!("c{i}-sram1-guard-armed")],
        ),
        BugFamily::MemoryDma => (
            ViolationType::DataIntegrity,
            "dma_engine",
            "u_dma".to_owned(),
            false,
            DetectionStage::Concolic,
            vec![format!("c{i}-dma-lock-armed")],
        ),
        BugFamily::CorePriv => (
            ViolationType::PrivilegeMode,
            plan.core.module_name(),
            "u_cpu".to_owned(),
            false,
            DetectionStage::Concolic,
            vec![format!("c{i}-priv-legal")],
        ),
        BugFamily::BusMask => (
            ViolationType::DataIntegrity,
            "wb_fabric",
            "u_fabric".to_owned(),
            false,
            DetectionStage::Concolic,
            vec![format!("c{i}-bus-mask-armed")],
        ),
    };
    ManifestBug {
        cluster: i,
        violation,
        module: format!("{base}_c{i}"),
        instance: format!("gen_soc.u_c{i}.{inst}"),
        implicit,
        stage,
        detectors,
    }
}

#[allow(clippy::too_many_lines)]
fn emit_cluster(
    src: &mut String,
    modules: &mut u32,
    checks: &mut Vec<CheckSpec>,
    i: u32,
    plan: &ClusterPlan,
    bug: Option<BugFamily>,
    domain: &str,
) {
    let core_base = plan.core.module_name();
    let core_bug = if bug == Some(BugFamily::CorePriv) {
        CoreBug::PrivUndefined
    } else {
        CoreBug::None
    };
    src.push_str(&uniquify(
        &riscv::core(plan.core, core_bug),
        core_base,
        &format!("{core_base}_c{i}"),
    ));
    let eng_bugs = [
        if bug == Some(BugFamily::CryptoExplicit) {
            CryptoBug::LeakExplicit
        } else {
            CryptoBug::None
        },
        if bug == Some(BugFamily::CryptoImplicit) {
            CryptoBug::LeakImplicit
        } else {
            CryptoBug::None
        },
    ];
    for (e, ebug) in plan.engines.iter().zip(eng_bugs) {
        src.push_str(&uniquify(
            &crypto::by_name(e, ebug),
            e,
            &format!("{e}_c{i}"),
        ));
    }
    let sp_bug = if bug == Some(BugFamily::MemorySp) {
        MemoryBug::RangeCheckLost
    } else {
        MemoryBug::None
    };
    let dp_bug = if bug == Some(BugFamily::MemoryDp) {
        MemoryBug::RangeCheckLost
    } else {
        MemoryBug::None
    };
    let dma_bug = if bug == Some(BugFamily::MemoryDma) {
        MemoryBug::RangeCheckLost
    } else {
        MemoryBug::None
    };
    src.push_str(&uniquify(
        &sram::sram_sp(sp_bug),
        "sram_sp",
        &format!("sram_sp_c{i}"),
    ));
    src.push_str(&uniquify(
        &sram::sram_dp(dp_bug),
        "sram_dp",
        &format!("sram_dp_c{i}"),
    ));
    src.push_str(&uniquify(
        &dma::dma(dma_bug),
        "dma_engine",
        &format!("dma_engine_c{i}"),
    ));
    let bus_bug = if bug == Some(BugFamily::BusMask) {
        BusBug::ProtMaskCleared
    } else {
        BusBug::None
    };
    src.push_str(&wishbone::wb_fabric(
        &format!("wb_fabric_c{i}"),
        2,
        2,
        bus_bug,
    ));
    let dsp_src = match plan.dsp {
        "fir_filter" => dsp::fir(),
        "dft_core" => dsp::dft(),
        "idft_core" => dsp::idft(),
        _ => dsp::iir(),
    };
    src.push_str(&uniquify(&dsp_src, plan.dsp, &format!("{}_c{i}", plan.dsp)));
    let periph_src = match plan.periph {
        "uart" => periph::uart(),
        "spi_ctrl" => periph::spi(),
        _ => periph::eth(),
    };
    src.push_str(&uniquify(
        &periph_src,
        plan.periph,
        &format!("{}_c{i}", plan.periph),
    ));
    // The coverage gate: a symbolic-condition branch inside the reset
    // arm. Observing it untaken gives the concolic engine a flippable
    // target whose only SAT assignment is this cluster's magic byte —
    // the construct that drives real solver work at every scale.
    let _ = write!(
        src,
        "module tst_gate_c{i}(
  input clk,
  input rst_n,
  input [7:0] magic,
  output reg armed,
  output reg [7:0] beat
);
  always @(posedge clk or negedge rst_n)
    if (!rst_n) begin
      if (magic == 8'h{magic:02X}) armed <= 1'b1;
      beat <= 8'd0;
    end else
      beat <= beat + 8'd1;
endmodule
",
        magic = plan.magic
    );
    emit_cluster_wrapper(src, i, plan);
    *modules += 11;
    cluster_checks(checks, i, plan, domain);
}

fn emit_cluster_wrapper(src: &mut String, i: u32, plan: &ClusterPlan) {
    let core = format!("{}_c{i}", plan.core.module_name());
    let dsp_ports = if plan.dsp == "dft_core" || plan.dsp == "idft_core" {
        ".out_sample(), .bin_index(), .out_valid()"
    } else {
        ".out_sample(), .out_valid()"
    };
    let periph_inst = match plan.periph {
        "uart" => format!(
            "uart_c{i} u_periph (
    .clk(clk), .rst_n(rst_n),
    .tx_start(tst_start[0]), .tx_data(tst_pt[7:0]),
    .txd(), .tx_busy(),
    .rxd(1'b0), .rx_data(), .rx_valid()
  );"
        ),
        "spi_ctrl" => format!(
            "spi_ctrl_c{i} u_periph (
    .clk(clk), .rst_n(rst_n),
    .start(tst_start[0]), .mosi_data(tst_pt[15:8]),
    .sck(), .mosi(), .miso(1'b0),
    .cs_n(), .miso_data(), .busy()
  );"
        ),
        _ => format!(
            "eth_mac_c{i} u_periph (
    .clk(clk), .rst_n(rst_n),
    .tx_start(tst_start[0]), .tx_len(8'd4),
    .tx_word(tst_pt[31:0]), .tx_word_valid(tst_start[1]), .tx_done(),
    .phy_tx_en(), .phy_txd(),
    .phy_rx_dv(1'b0), .phy_rxd(32'd0),
    .rx_word(), .rx_valid(), .csum()
  );"
        ),
    };
    let _ = write!(
        src,
        "module cluster_c{i}(
  input clk,
  input rst_n,
  input mem_rst_n,
  input crypto_rst_n,
  input bus_unlock,
  input mem_unlock,
  input [63:0] tst_key,
  input [63:0] tst_pt,
  input [1:0] tst_start,
  input [7:0] tst_magic,
  input dma_go,
  output [1:0] priv,
  output bus_viol,
  output [1:0] done,
  output [1:0] leak,
  output gate_armed
);
  wire [31:0] m0_addr;
  wire [31:0] m0_wdata;
  wire [31:0] m0_rdata;
  wire m0_we;
  wire m0_stb;
  wire m0_ack;
  wire [31:0] m1_addr;
  wire [31:0] m1_wdata;
  wire [31:0] m1_rdata;
  wire m1_we;
  wire m1_stb;
  wire m1_ack;
  wire [31:0] s0_addr;
  wire [31:0] s0_wdata;
  wire [31:0] s0_rdata;
  wire s0_we;
  wire s0_stb;
  wire s0_ack;
  wire [31:0] s1_addr;
  wire [31:0] s1_wdata;
  wire [31:0] s1_rdata;
  wire s1_we;
  wire s1_stb;
  wire s1_ack;
  wire [1:0] prot_mask_w;

  {core} #(.HARTID({i})) u_cpu (
    .clk(clk), .rst_n(rst_n),
    .bus_addr(m0_addr), .bus_wdata(m0_wdata), .bus_rdata(m0_rdata),
    .bus_we(m0_we), .bus_stb(m0_stb), .bus_ack(m0_ack),
    .irq(1'b0), .priv_mode(priv), .pc(), .halted()
  );
  dma_engine_c{i} u_dma (
    .clk(clk), .rst_n(mem_rst_n), .go(dma_go), .unlock(mem_unlock),
    .src(32'h00000100), .dst(32'h00000200), .len(8'd4),
    .bus_addr(m1_addr), .bus_wdata(m1_wdata), .bus_rdata(m1_rdata),
    .bus_we(m1_we), .bus_stb(m1_stb), .bus_ack(m1_ack),
    .busy(), .desc_lock()
  );
  wb_fabric_c{i} u_fabric (
    .clk(clk), .rst_n(rst_n), .bus_unlock(bus_unlock),
    .m0_addr(m0_addr), .m0_wdata(m0_wdata), .m0_rdata(m0_rdata),
    .m0_we(m0_we), .m0_stb(m0_stb), .m0_ack(m0_ack),
    .m1_addr(m1_addr), .m1_wdata(m1_wdata), .m1_rdata(m1_rdata),
    .m1_we(m1_we), .m1_stb(m1_stb), .m1_ack(m1_ack),
    .s0_addr(s0_addr), .s0_wdata(s0_wdata), .s0_rdata(s0_rdata),
    .s0_we(s0_we), .s0_stb(s0_stb), .s0_ack(s0_ack),
    .s1_addr(s1_addr), .s1_wdata(s1_wdata), .s1_rdata(s1_rdata),
    .s1_we(s1_we), .s1_stb(s1_stb), .s1_ack(s1_ack),
    .prot_mask(prot_mask_w), .bus_viol(bus_viol)
  );
  sram_sp_c{i} #(.AW(14)) u_sram0 (
    .clk(clk), .rst_n(mem_rst_n),
    .stb(s0_stb), .we(s0_we), .unlock(mem_unlock),
    .addr(s0_addr[15:2]), .wdata(s0_wdata), .rdata(s0_rdata),
    .ack(s0_ack), .prot_en(), .viol()
  );
  sram_dp_c{i} #(.AW(14)) u_sram1 (
    .clk(clk), .rst_n(mem_rst_n),
    .a_stb(s1_stb), .a_we(s1_we), .unlock(mem_unlock),
    .a_addr(s1_addr[15:2]), .a_wdata(s1_wdata), .a_rdata(s1_rdata),
    .a_ack(s1_ack),
    .b_stb(1'b0), .b_addr(14'd0), .b_rdata(), .b_ack(),
    .prot_en(), .viol()
  );
  {e0}_c{i} u_{e0} (
    .clk(clk), .rst_n(crypto_rst_n), .start(tst_start[0]),
    .key_in(tst_key), .pt_in(tst_pt),
    .ct_out(), .busy(), .done(done[0]), .leak_obs(leak[0])
  );
  {e1}_c{i} u_{e1} (
    .clk(clk), .rst_n(crypto_rst_n), .start(tst_start[1]),
    .key_in(tst_key), .pt_in(tst_pt),
    .ct_out(), .busy(), .done(done[1]), .leak_obs(leak[1])
  );
  {dsp}_c{i} u_dsp (
    .clk(clk), .rst_n(rst_n),
    .in_valid(tst_start[0]), .in_sample(tst_pt[15:0]),
    {dsp_ports}
  );
  {periph_inst}
  tst_gate_c{i} u_gate (
    .clk(clk), .rst_n(rst_n), .magic(tst_magic),
    .armed(gate_armed), .beat()
  );
endmodule
",
        e0 = plan.engines[0],
        e1 = plan.engines[1],
        dsp = plan.dsp,
    );
}

fn cluster_checks(checks: &mut Vec<CheckSpec>, i: u32, plan: &ClusterPlan, domain: &str) {
    let top = format!("gen_soc.u_c{i}");
    for e in plan.engines {
        let inst = format!("{top}.u_{e}");
        checks.push(CheckSpec {
            name: format!("c{i}-{e}-key-cleared"),
            module: format!("{e}_c{i}"),
            domain: "gen_soc.crypto_rst_n".to_owned(),
            kind: CheckKind::SecretCleared {
                signal: format!("{inst}.key_reg"),
                width: 192,
            },
        });
        checks.push(CheckSpec {
            name: format!("c{i}-{e}-pt-cleared"),
            module: format!("{e}_c{i}"),
            domain: "gen_soc.crypto_rst_n".to_owned(),
            kind: CheckKind::SecretCleared {
                signal: format!("{inst}.pt_reg"),
                width: 64,
            },
        });
        checks.push(CheckSpec {
            name: format!("c{i}-{e}-no-leak"),
            module: format!("{e}_c{i}"),
            domain: "gen_soc.crypto_rst_n".to_owned(),
            kind: CheckKind::NeverFlagged {
                signal: format!("{inst}.leak_obs"),
            },
        });
    }
    checks.push(CheckSpec {
        name: format!("c{i}-sram0-guard-armed"),
        module: format!("sram_sp_c{i}"),
        domain: "gen_soc.mem_rst_n".to_owned(),
        kind: CheckKind::GuardArmed {
            signal: format!("{top}.u_sram0.prot_en"),
        },
    });
    checks.push(CheckSpec {
        name: format!("c{i}-sram1-guard-armed"),
        module: format!("sram_dp_c{i}"),
        domain: "gen_soc.mem_rst_n".to_owned(),
        kind: CheckKind::GuardArmed {
            signal: format!("{top}.u_sram1.prot_en"),
        },
    });
    checks.push(CheckSpec {
        name: format!("c{i}-dma-lock-armed"),
        module: format!("dma_engine_c{i}"),
        domain: "gen_soc.mem_rst_n".to_owned(),
        kind: CheckKind::GuardArmed {
            signal: format!("{top}.u_dma.desc_lock"),
        },
    });
    checks.push(CheckSpec {
        name: format!("c{i}-bus-mask-armed"),
        module: format!("wb_fabric_c{i}"),
        domain: domain.to_owned(),
        kind: CheckKind::GuardArmed {
            signal: format!("{top}.u_fabric.prot_mask"),
        },
    });
    checks.push(CheckSpec {
        name: format!("c{i}-priv-legal"),
        module: format!("{}_c{i}", plan.core.module_name()),
        domain: domain.to_owned(),
        kind: CheckKind::LegalValues {
            signal: format!("{top}.u_cpu.priv_mode"),
            width: 2,
            allowed: vec![0b00, 0b01, 0b11],
        },
    });
}

/// The second interconnect tier: a shared fabric with a shared DMA
/// master and a shared SRAM slave, always clean (the manifest only
/// claims cluster bugs).
fn emit_shared(src: &mut String, modules: &mut u32, checks: &mut Vec<CheckSpec>) {
    src.push_str(&uniquify(
        &sram::sram_sp(MemoryBug::None),
        "sram_sp",
        "sram_sp_shr",
    ));
    src.push_str(&uniquify(
        &dma::dma(MemoryBug::None),
        "dma_engine",
        "dma_engine_shr",
    ));
    src.push_str(&wishbone::wb_fabric("wb_fabric_top", 2, 1, BusBug::None));
    *modules += 3;
    checks.push(CheckSpec {
        name: "shr-sram-guard-armed".to_owned(),
        module: "sram_sp_shr".to_owned(),
        domain: "gen_soc.mem_rst_n".to_owned(),
        kind: CheckKind::GuardArmed {
            signal: "gen_soc.u_sram_shr.prot_en".to_owned(),
        },
    });
    checks.push(CheckSpec {
        name: "shr-dma-lock-armed".to_owned(),
        module: "dma_engine_shr".to_owned(),
        domain: "gen_soc.sys_rst_n".to_owned(),
        kind: CheckKind::GuardArmed {
            signal: "gen_soc.u_dma_shr.desc_lock".to_owned(),
        },
    });
    checks.push(CheckSpec {
        name: "top-bus-mask-armed".to_owned(),
        module: "wb_fabric_top".to_owned(),
        domain: "gen_soc.sys_rst_n".to_owned(),
        kind: CheckKind::GuardArmed {
            signal: "gen_soc.u_bus_top.prot_mask".to_owned(),
        },
    });
}

#[allow(clippy::too_many_lines)]
fn emit_top(src: &mut String, modules: &mut u32, scale: u32, g: u32) {
    let n = scale;
    let mut ports = String::new();
    for k in 0..g {
        let _ = writeln!(ports, "  input g{k}_rst_n,");
    }
    let mut body = String::new();
    for i in 0..n {
        let _ = writeln!(
            body,
            "  wire [1:0] c{i}_priv;\n  wire c{i}_viol;\n  wire [1:0] c{i}_done;\n  \
             wire [1:0] c{i}_leak;\n  wire c{i}_armed;"
        );
    }
    for i in 0..n {
        let _ = writeln!(
            body,
            "  cluster_c{i} u_c{i} (
    .clk(clk), .rst_n(g{k}_rst_n), .mem_rst_n(mem_rst_n), .crypto_rst_n(crypto_rst_n),
    .bus_unlock(bus_unlock), .mem_unlock(mem_unlock),
    .tst_key(tst_key), .tst_pt(tst_pt), .tst_start(tst_start[1:0]), .tst_magic(tst_magic),
    .dma_go(tst_start[2]),
    .priv(c{i}_priv), .bus_viol(c{i}_viol),
    .done(c{i}_done), .leak(c{i}_leak), .gate_armed(c{i}_armed)
  );",
            k = i % g
        );
    }
    // The shared tier: DMA master 0, tied-off master 1, one SRAM slave.
    body.push_str(
        "  wire [31:0] t0_addr;
  wire [31:0] t0_wdata;
  wire [31:0] t0_rdata;
  wire t0_we;
  wire t0_stb;
  wire t0_ack;
  wire [31:0] ts0_addr;
  wire [31:0] ts0_wdata;
  wire [31:0] ts0_rdata;
  wire ts0_we;
  wire ts0_stb;
  wire ts0_ack;
  wire [0:0] shr_mask_w;
  dma_engine_shr u_dma_shr (
    .clk(clk), .rst_n(sys_rst_n), .go(tst_start[3]), .unlock(mem_unlock),
    .src(32'h00000400), .dst(32'h00000800), .len(8'd4),
    .bus_addr(t0_addr), .bus_wdata(t0_wdata), .bus_rdata(t0_rdata),
    .bus_we(t0_we), .bus_stb(t0_stb), .bus_ack(t0_ack),
    .busy(), .desc_lock()
  );
  wb_fabric_top u_bus_top (
    .clk(clk), .rst_n(sys_rst_n), .bus_unlock(bus_unlock),
    .m0_addr(t0_addr), .m0_wdata(t0_wdata), .m0_rdata(t0_rdata),
    .m0_we(t0_we), .m0_stb(t0_stb), .m0_ack(t0_ack),
    .m1_addr(32'd0), .m1_wdata(32'd0), .m1_rdata(),
    .m1_we(1'b0), .m1_stb(1'b0), .m1_ack(),
    .s0_addr(ts0_addr), .s0_wdata(ts0_wdata), .s0_rdata(ts0_rdata),
    .s0_we(ts0_we), .s0_stb(ts0_stb), .s0_ack(ts0_ack),
    .prot_mask(shr_mask_w), .bus_viol(shr_bus_viol)
  );
  sram_sp_shr #(.AW(14)) u_sram_shr (
    .clk(clk), .rst_n(mem_rst_n),
    .stb(ts0_stb), .we(ts0_we), .unlock(mem_unlock),
    .addr(ts0_addr[15:2]), .wdata(ts0_wdata), .rdata(ts0_rdata),
    .ack(ts0_ack), .prot_en(), .viol()
  );
",
    );
    let concat = |field: &str| {
        let parts: Vec<String> = (0..n).rev().map(|i| format!("c{i}_{field}")).collect();
        parts.join(", ")
    };
    let _ = writeln!(body, "  assign priv_all = {{{}}};", concat("priv"));
    let _ = writeln!(body, "  assign viol_all = {{{}}};", concat("viol"));
    let _ = writeln!(body, "  assign done_all = {{{}}};", concat("done"));
    let _ = writeln!(body, "  assign leak_all = {{{}}};", concat("leak"));
    let _ = writeln!(body, "  assign armed_all = {{{}}};", concat("armed"));
    let _ = write!(
        src,
        "module gen_soc(
  input clk,
  input sys_rst_n,
  input mem_rst_n,
  input crypto_rst_n,
{ports}  input bus_unlock,
  input mem_unlock,
  input [63:0] tst_key,
  input [63:0] tst_pt,
  input [3:0] tst_start,
  input [7:0] tst_magic,
  output [{pw}:0] priv_all,
  output [{nw}:0] viol_all,
  output [{pw}:0] done_all,
  output [{pw}:0] leak_all,
  output [{nw}:0] armed_all,
  output shr_bus_viol
);
{body}endmodule
",
        pw = 2 * n - 1,
        nw = n - 1,
    );
    *modules += 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        let spec = GenSpec::parse("gen:7:4").expect("parse");
        assert_eq!(spec, GenSpec { seed: 7, scale: 4 });
        assert_eq!(spec.name(), "gen:7:4");
        assert_eq!(spec.slug(), "gen_7_4");
        assert!(GenSpec::parse("gen:7").is_err());
        assert!(GenSpec::parse("gen:x:4").is_err());
        assert!(GenSpec::parse("gen:7:0").is_err());
        assert!(GenSpec::parse("gen:7:999").is_err());
        assert!(GenSpec::parse("clustersoc").is_err());
    }

    #[test]
    fn generation_is_byte_deterministic() {
        let spec = GenSpec { seed: 42, scale: 3 };
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a.source, b.source);
        assert_eq!(a.manifest, b.manifest);
        assert_eq!(a.checks, b.checks);
        assert_eq!(a.symbolic, b.symbolic);
    }

    #[test]
    fn seeds_and_scales_change_the_topology() {
        let base = generate(&GenSpec { seed: 1, scale: 2 }).source;
        assert_ne!(base, generate(&GenSpec { seed: 2, scale: 2 }).source);
        assert_ne!(base, generate(&GenSpec { seed: 1, scale: 3 }).source);
    }

    #[test]
    fn module_count_matches_the_manifest() {
        for spec in [GenSpec { seed: 5, scale: 1 }, GenSpec { seed: 5, scale: 4 }] {
            let gen = generate(&spec);
            let declared = gen.source.matches("\nmodule ").count()
                + usize::from(gen.source.starts_with("module "));
            assert_eq!(gen.manifest.modules as usize, declared, "{}", spec.name());
            assert_eq!(gen.manifest.modules, 11 * spec.scale + 4);
        }
    }

    #[test]
    fn every_generated_design_has_ground_truth() {
        for spec in pinned_sweep() {
            let gen = generate(&spec);
            assert!(
                !gen.manifest.bugs.is_empty(),
                "{}: a generated design always carries at least one bug",
                spec.name()
            );
            assert!(gen.source.contains("BUG("), "{}", spec.name());
            for bug in &gen.manifest.bugs {
                assert!(!bug.detectors.is_empty(), "{}", bug.describe());
                let class = crate::catalog::classify(&bug.module)
                    .unwrap_or_else(|| panic!("unclassified {}", bug.module));
                assert_eq!(class.violation(), Some(bug.violation), "{}", bug.describe());
            }
        }
    }

    #[test]
    fn generated_designs_elaborate_and_checks_resolve() {
        let gen = generate(&GenSpec { seed: 29, scale: 2 });
        let (d, _) =
            soccar_rtl::compile("gen.v", &gen.source, &gen.top).unwrap_or_else(|e| panic!("{e}"));
        for check in &gen.checks {
            let signal = match &check.kind {
                CheckKind::SecretCleared { signal, .. }
                | CheckKind::GuardArmed { signal }
                | CheckKind::LegalValues { signal, .. }
                | CheckKind::NeverFlagged { signal } => signal,
            };
            assert!(
                d.find_net(signal).is_some(),
                "check `{}` references missing `{signal}`",
                check.name
            );
            assert!(
                d.find_net(&check.domain).is_some(),
                "check `{}` references missing domain `{}`",
                check.name,
                check.domain
            );
        }
        for name in &gen.symbolic {
            assert!(d.find_net(name).is_some(), "missing input {name}");
        }
        for bug in &gen.manifest.bugs {
            assert!(
                d.instances().iter().any(|inst| inst.name == bug.instance),
                "manifest bug instance `{}` not in the design",
                bug.instance
            );
        }
    }

    #[test]
    fn check_names_are_unique() {
        let gen = generate(&GenSpec { seed: 11, scale: 4 });
        let mut names: Vec<&str> = gen.checks.iter().map(|c| c.name.as_str()).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate check names");
        // 11 per cluster + 3 shared.
        assert_eq!(before, 11 * 4 + 3);
    }
}
