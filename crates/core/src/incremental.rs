//! Incremental re-analysis: the content-hashed session cache behind
//! `soccar serve`.
//!
//! [`AnalysisSession`] runs the batch pipeline's own stages (see
//! [`Soccar::analyze`]) behind five cache tiers, each keyed by content so
//! an RTL edit invalidates exactly what it touches:
//!
//! | tier | key | holds | invalidated by |
//! |------|-----|-------|----------------|
//! | parse | raw chunk hash | per-module AST (spans at the chunk's last offset) + chunk text + structural fingerprint, lent to each request | editing that module's text |
//! | design | ordered structural hashes + top + extraction config | elaborated design, composed `SocArCfg`, bound events | semantic edit anywhere |
//! | lint | ordered structural hashes + reset naming + lint config | each module's resets, the connection profiles, and each chunk's findings by (chunk index, raw chunk hash) with chunk-relative spans and the chunk text | semantic edit anywhere (whole entry); editing a chunk's text (that chunk's findings) |
//! | concolic | design key + properties + config | [`ConcolicReport`] | semantic edit / request change |
//! | report | raw source + request | full [`AnalysisReport`] + the request's source, file name, top and key text | any byte change |
//!
//! The raw hashes are [`hash_bytes`], a word hash that keeps the
//! per-request passes over the source at eight bytes a step but is easy
//! to collide on purpose. So the parse, lint and report tiers confirm
//! every hit against the bytes they hashed (the chunk text, the whole
//! request), and a mismatch is a miss, counted in `server.key_mismatch`.
//! The structural hashes and the configuration parts of the design, lint
//! and concolic keys are [`fnv1a`], which is hard to collide; those
//! tiers never confirm a hit.
//!
//! On a miss a tier's stage runs exactly as in batch (the same spans,
//! stage reports and worker pools); on a hit the stage's report is
//! rebuilt from the cached product. The contract — pinned by the
//! `warm_equals_cold` tests and the server integration suite — is that
//! [`AnalysisSession::analyze_with_config`] returns a report whose
//! [`AnalysisReport::canonical_json`] is byte-identical to a cold batch
//! run of the same request. A warm edit costs what it touches: the parse
//! tier lends each unchanged module's AST into the request's unit (moved,
//! not copied) and takes it back afterwards; a lent module is
//! span-rebased only when its chunk moved in the file, so diagnostics
//! cannot drift; and the design-tier key reads each module's structural
//! fingerprint from the tier, so only re-parsed chunks are
//! pretty-printed and hashed; on a lint-tier hit only the re-parsed
//! chunks are linted, and every other chunk's findings are rebased to
//! its offset and described against the request's own file name.
//! Requests carrying a fault-injection plan bypass every tier and
//! delegate to the batch pipeline, because injected faults key on global
//! task indices that cached stages would skip.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use serde::Serialize;
use soccar_concolic::{ConcolicReport, SecurityProperty};
use soccar_lint::{DesignFacts, Diagnostic, LintReport, Linter};
use soccar_rtl::elaborate::elaborate_traced;
use soccar_rtl::fingerprint::{
    assemble_unit, fnv1a, hash_bytes, split_modules, AssembledUnit, ModuleChunk, ParsedChunk,
};
use soccar_rtl::span::{FileId, SourceMap};
use soccar_rtl::Design;

use crate::error::SoccarError;
use crate::pipeline::{AnalysisReport, ComposedSoc, Soccar, SoccarConfig, Stages};

/// What one [`AnalysisSession::analyze_with_config`] call reused and
/// recomputed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RequestStats {
    /// The whole report came from the report tier.
    pub report_cache_hit: bool,
    /// The request fell back to the batch pipeline (unsplittable source
    /// or a fault-injection plan).
    pub fallback: bool,
    /// Modules in the source.
    pub modules_total: usize,
    /// Modules whose chunk text changed and were re-parsed.
    pub modules_reparsed: usize,
    /// Modules extracted: all of them on a design-tier miss, none on a
    /// hit.
    pub modules_reextracted: usize,
    /// Modules linted: all of them on a lint-tier miss, the re-parsed
    /// ones on a hit.
    pub modules_relinted: usize,
    /// Elaboration/composition/binding was reused from the design tier.
    pub design_cache_hit: bool,
    /// The concolic stage was reused from the result tier.
    pub concolic_cache_hit: bool,
    /// Concolic targets actually re-run (0 on a concolic cache hit).
    pub targets_rerun: usize,
}

/// Session-lifetime cache counters, for `status` responses and the
/// `server.*` observability counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct SessionCounters {
    /// Analyze requests served.
    pub requests: u64,
    /// Requests answered entirely from the report tier.
    pub cache_hits: u64,
    /// Requests that bypassed the session (fallback to batch).
    pub fallbacks: u64,
    /// Module re-parses across all requests.
    pub modules_reparsed: u64,
    /// Module re-extractions across all requests.
    pub modules_reextracted: u64,
    /// Modules linted across all requests.
    pub modules_relinted: u64,
    /// Concolic targets re-run across all requests.
    pub targets_rerun: u64,
    /// Entries dropped from any tier by capacity eviction.
    pub evictions: u64,
}

/// Current entry counts of the session's cache tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TierSizes {
    /// Per-module ASTs with their structural fingerprints.
    pub parse: usize,
    /// Elaborated + composed designs.
    pub design: usize,
    /// Per-design lint facts with per-chunk findings.
    pub lint: usize,
    /// Concolic reports.
    pub concolic: usize,
    /// Full analysis reports.
    pub report: usize,
}

/// Capacity limits for the cache tiers (entries, not bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CacheCaps {
    parse: usize,
    design: usize,
    lint: usize,
    concolic: usize,
    report: usize,
}

impl Default for CacheCaps {
    fn default() -> CacheCaps {
        CacheCaps {
            parse: 4096,
            design: 8,
            lint: 8,
            concolic: 64,
            report: 64,
        }
    }
}

/// A bounded map with cost-aware, recency-tiered eviction — the policy
/// every cache tier shares (it replaced the original FIFO once the serve
/// layer saw real mixed traffic).
///
/// Each entry carries a caller-supplied **cost**: an estimate of what
/// recomputing it takes, scaled by its size (bytes of source for the
/// structural tiers, targets × cycles for the concolic tier). Eviction
/// picks its victim in two tiers:
///
/// 1. **cold** entries — untouched for more than `cap` map operations —
///    are evicted first, cheapest first;
/// 2. only when no entry is cold does eviction reach into the **recent**
///    tier, again cheapest first.
///
/// Ties break on insertion sequence (oldest first), so the victim is a
/// pure function of the operation history: no wall clock, no hash-map
/// iteration order, no thread timing. Requests serialize over the
/// session mutex, which makes the operation history — and therefore
/// eviction — deterministic for a given request sequence, exactly like
/// the FIFO it replaced. Cached *results* are never policy-dependent;
/// the policy only decides what is recomputed.
#[derive(Debug)]
struct CostAwareMap<K, V> {
    entries: HashMap<K, CostSlot<V>>,
    cap: usize,
    /// Logical clock: bumps on every get/remove/insert; drives the
    /// recency tier.
    clock: u64,
    /// Insertion sequence: the deterministic tie-breaker.
    seq: u64,
}

#[derive(Debug)]
struct CostSlot<V> {
    value: V,
    cost: u64,
    last_use: u64,
    seq: u64,
}

impl<K: Eq + Hash + Clone, V> CostAwareMap<K, V> {
    fn new(cap: usize) -> CostAwareMap<K, V> {
        CostAwareMap {
            entries: HashMap::new(),
            cap: cap.max(1),
            clock: 0,
            seq: 0,
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    fn get(&mut self, key: &K) -> Option<&V> {
        self.clock += 1;
        let clock = self.clock;
        self.entries.get_mut(key).map(|slot| {
            slot.last_use = clock;
            &slot.value
        })
    }

    /// Takes `key`'s value out of the map (a lookup that lends it: the
    /// caller inserts it again when done).
    fn remove(&mut self, key: &K) -> Option<V> {
        self.clock += 1;
        self.entries.remove(key).map(|slot| slot.value)
    }

    /// Inserts with a recompute-cost estimate, returning how many old
    /// entries were evicted to make room.
    fn insert(&mut self, key: K, value: V, cost: u64) -> u64 {
        self.clock += 1;
        let mut evicted = 0;
        if !self.entries.contains_key(&key) {
            while self.entries.len() >= self.cap {
                let Some(victim) = self.victim() else { break };
                self.entries.remove(&victim);
                evicted += 1;
            }
        }
        self.seq += 1;
        self.entries.insert(
            key,
            CostSlot {
                value,
                cost,
                last_use: self.clock,
                seq: self.seq,
            },
        );
        evicted
    }

    /// The deterministic eviction victim: cold before recent, cheap
    /// before expensive, oldest insertion as the final tie-break.
    fn victim(&self) -> Option<K> {
        let horizon = self.clock.saturating_sub(self.cap as u64);
        self.entries
            .iter()
            .min_by_key(|(_, slot)| (slot.last_use > horizon, slot.cost, slot.seq))
            .map(|(key, _)| key.clone())
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Everything derived from one structural design state: the elaborated
/// design and the ar_cfg stage's product. Shared via `Arc` so the
/// concolic engine can borrow it while the session mutates other tiers.
#[derive(Debug)]
struct DesignEntry {
    design: Design,
    composed: ComposedSoc,
}

/// The frontend's design: a design-tier hit, or freshly elaborated.
enum Elaborated {
    Hit(Arc<DesignEntry>),
    Miss(Box<Design>),
}

/// Design-tier key: the ordered structural fingerprints of every module
/// plus the top module and the extraction-configuration fingerprint
/// (analysis flavor, reset naming, keep-going). Comment/whitespace edits
/// hash identically and hit; any semantic edit misses.
type DesignKey = (Vec<u64>, String, u64);

/// Lint-tier key: the ordered structural fingerprints of every module
/// plus the fingerprint of the reset naming and the lint configuration.
type LintKey = (Vec<u64>, u64);

/// What the lint tier keeps for one structural design state.
#[derive(Debug)]
struct LintEntry {
    /// Each module's resets and the connection profiles. They depend
    /// only on structure, so they hold for every request with this key.
    facts: DesignFacts,
    /// Each chunk's text and findings by (chunk index, raw fingerprint),
    /// spans relative to the chunk's start, locations unresolved: the
    /// chunks of the last request with this key. A hit is confirmed
    /// against the text.
    chunks: HashMap<(usize, u64), (Arc<str>, Vec<Diagnostic>)>,
}

/// A report-tier entry: the report and the request it answers, which
/// every hit is confirmed against.
#[derive(Debug)]
struct ReportEntry {
    source: String,
    file_name: String,
    top: String,
    text: KeyText,
    report: AnalysisReport,
}

impl ReportEntry {
    fn new(req: &Request<'_>, report: AnalysisReport) -> ReportEntry {
        ReportEntry {
            source: req.source.to_owned(),
            file_name: req.file_name.to_owned(),
            top: req.top.to_owned(),
            text: req.text.clone(),
            report,
        }
    }

    /// Whether this entry answers `req`: the bytes its key hashed are
    /// `req`'s.
    fn answers(&self, req: &Request<'_>) -> bool {
        self.source == req.source
            && self.file_name == req.file_name
            && self.top == req.top
            && self.text == req.text
    }
}

/// A persistent, content-hashed analysis session (see the
/// [module docs](self)).
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use soccar::incremental::AnalysisSession;
/// use soccar::SoccarConfig;
///
/// let src = "module top(input clk, input sys_rst_n, output reg q);
///   always @(posedge clk or negedge sys_rst_n)
///     if (!sys_rst_n) q <= 1'b0; else q <= 1'b1;
/// endmodule";
/// let config = SoccarConfig::default();
/// let mut session = AnalysisSession::new(config.clone());
/// let (cold, s1) = session.analyze_with_config("t.v", src, "top", vec![], &config)?;
/// let (warm, s2) = session.analyze_with_config("t.v", src, "top", vec![], &config)?;
/// assert!(!s1.report_cache_hit);
/// assert!(s2.report_cache_hit);
/// assert_eq!(cold.canonical_json()?, warm.canonical_json()?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AnalysisSession {
    config: SoccarConfig,
    recorder: soccar_obs::Recorder,
    parse_cache: CostAwareMap<u64, ParsedChunk>,
    design_cache: CostAwareMap<DesignKey, Arc<DesignEntry>>,
    lint_cache: CostAwareMap<LintKey, LintEntry>,
    concolic_cache: CostAwareMap<u64, ConcolicReport>,
    report_cache: CostAwareMap<u64, ReportEntry>,
    counters: SessionCounters,
}

impl AnalysisSession {
    /// Creates a session with default cache capacities.
    #[must_use]
    pub fn new(config: SoccarConfig) -> AnalysisSession {
        AnalysisSession::with_caps(config, CacheCaps::default())
    }

    /// Creates a session with explicit cache capacities.
    pub(crate) fn with_caps(config: SoccarConfig, caps: CacheCaps) -> AnalysisSession {
        AnalysisSession {
            config,
            recorder: soccar_obs::Recorder::disabled(),
            parse_cache: CostAwareMap::new(caps.parse),
            design_cache: CostAwareMap::new(caps.design),
            lint_cache: CostAwareMap::new(caps.lint),
            concolic_cache: CostAwareMap::new(caps.concolic),
            report_cache: CostAwareMap::new(caps.report),
            counters: SessionCounters::default(),
        }
    }

    /// Attaches an observability recorder: every analysis traces its
    /// `pipeline.*` stage spans through it like a batch CLI run, and
    /// cache effectiveness lands in `server.cache_hits` /
    /// `server.modules_reextracted` / `server.targets_rerun` /
    /// `server.evictions` / `server.key_mismatch` counters.
    #[must_use]
    pub fn with_recorder(mut self, recorder: soccar_obs::Recorder) -> AnalysisSession {
        self.recorder = recorder;
        self
    }

    /// The configuration the session was created with. Each request
    /// passes its own full configuration to
    /// [`AnalysisSession::analyze_with_config`].
    #[must_use]
    pub fn config(&self) -> &SoccarConfig {
        &self.config
    }

    /// Session-lifetime cache counters.
    #[must_use]
    pub fn counters(&self) -> &SessionCounters {
        &self.counters
    }

    /// Entries currently held by each tier.
    #[must_use]
    pub fn tier_sizes(&self) -> TierSizes {
        TierSizes {
            parse: self.parse_cache.len(),
            design: self.design_cache.len(),
            lint: self.lint_cache.len(),
            concolic: self.concolic_cache.len(),
            report: self.report_cache.len(),
        }
    }

    /// Runs one analysis request against the session caches, with a
    /// fully explicit per-request configuration — requests carry their
    /// own cycles/rounds/symbolic-input/analysis knobs. Every cache key
    /// incorporates the configuration fields that influence its tier, so
    /// mixed-configuration request streams stay correct.
    ///
    /// The returned report's canonical form is byte-identical to
    /// `Soccar::new(config.clone()).analyze(..)` on the same input.
    ///
    /// # Errors
    ///
    /// Exactly the batch pipeline's errors: frontend, composition,
    /// binding, engine-setup and simulation failures.
    pub fn analyze_with_config(
        &mut self,
        file_name: &str,
        source: &str,
        top: &str,
        properties: Vec<SecurityProperty>,
        config: &SoccarConfig,
    ) -> Result<(AnalysisReport, RequestStats), SoccarError> {
        self.counters.requests += 1;
        self.recorder.counter_add("server.requests", 1);
        let req = Request {
            file_name,
            source,
            top,
            config,
            text: KeyText::new(&properties, config),
        };

        // Fault plans key on global task indices that only the batch
        // fan-out reproduces; delegate wholesale.
        if !config.fault_plan.is_empty() || !config.concolic.fault_plan.is_empty() {
            return self.fallback(&req, properties);
        }

        let request_fp = req.fingerprint();
        let cached = self
            .report_cache
            .get(&request_fp)
            .map(|entry| entry.answers(&req).then(|| entry.report.clone()));
        match cached {
            Some(Some(report)) => {
                self.counters.cache_hits += 1;
                self.recorder.counter_add("server.cache_hits", 1);
                let stats = RequestStats {
                    report_cache_hit: true,
                    modules_total: report.extraction.modules,
                    ..RequestStats::default()
                };
                return Ok((report, stats));
            }
            Some(None) => self.count_key_mismatches(1),
            None => {}
        }

        // Sources the chunk scanner cannot shape fall back to batch —
        // including anything that would not parse, so error reporting is
        // untouched.
        let Some(chunks) = split_modules(source) else {
            return self.fallback(&req, properties);
        };
        // The request borrows its modules from the parse tier; whatever
        // the outcome, they go back, each placed where this request used
        // it.
        let mut lent = None;
        let result = self.analyze_chunks(&req, properties, request_fp, &chunks, &mut lent);
        if let Some(assembled) = lent {
            let mut evictions = 0;
            for (raw_fp, parsed) in assembled.into_parsed() {
                // Re-parse cost scales with the chunk's size.
                let span = parsed.module().span;
                let cost = u64::from(span.end - span.start);
                evictions += self.parse_cache.insert(raw_fp, parsed, cost);
            }
            self.count_evictions(evictions);
        }
        result
    }

    /// The stages of one request past the report tier, on a unit lent
    /// from the parse tier into `lent`.
    fn analyze_chunks(
        &mut self,
        req: &Request<'_>,
        properties: Vec<SecurityProperty>,
        request_fp: u64,
        chunks: &[ModuleChunk<'_>],
        lent: &mut Option<AssembledUnit>,
    ) -> Result<(AnalysisReport, RequestStats), SoccarError> {
        let config = req.config;
        let mut evictions = 0u64;
        let stages = Stages::new(config, &self.recorder);
        let analyze_span = stages.analyze_span(req.file_name, req.top);

        // Frontend: parse only the chunks the parse tier cannot lend,
        // and elaborate on a design-tier miss.
        let frontend = stages.open("frontend");
        let parse_cache = &mut self.parse_cache;
        let assembled = lent.insert(assemble_unit(FileId(0), chunks, stages.jobs(), |raw_fp| {
            parse_cache.remove(&raw_fp)
        }));
        let mut stats = RequestStats {
            modules_total: chunks.len(),
            modules_reparsed: assembled.reparsed(),
            ..RequestStats::default()
        };
        self.counters.modules_reparsed += stats.modules_reparsed as u64;
        let mut mismatches = assembled.clashes() as u64;
        if !assembled.is_complete() {
            // A chunk failed to parse: the batch path reproduces the
            // exact diagnostic.
            drop((frontend, analyze_span));
            self.count_key_mismatches(mismatches);
            return self.fallback(req, properties);
        }
        let unit = assembled.unit();
        let mut map = SourceMap::new();
        map.add_file(req.file_name, req.source);
        // Extraction depends on the analysis flavor, the reset naming
        // convention and the failure policy; all join the structural keys.
        let extract_cfg_fp = fnv1a(
            format!(
                "{:?}/{:?}/{}",
                config.analysis, config.naming, config.keep_going
            )
            .as_bytes(),
        );
        let design_key: DesignKey = (assembled.structural(), req.top.to_owned(), extract_cfg_fp);
        // On a design miss, elaboration runs inside the frontend stage,
        // as in batch.
        let elaborated = match self.design_cache.get(&design_key) {
            Some(entry) => Elaborated::Hit(Arc::clone(entry)),
            None => Elaborated::Miss(Box::new(elaborate_traced(unit, req.top, &self.recorder)?)),
        };
        let design = match &elaborated {
            Elaborated::Hit(entry) => &entry.design,
            Elaborated::Miss(design) => design,
        };
        let frontend = frontend.frontend(unit, design);

        // Lint: the tier lends its facts and the findings of every chunk
        // it has seen at the same index with the same text.
        let lint_key: LintKey = (
            design_key.0.clone(),
            fnv1a(format!("{:?}/{:?}", config.naming, config.lint).as_bytes()),
        );
        let lint_cache = &mut self.lint_cache;
        let linter = stages.linter();
        let (lint, lint_stage) = stages.lint_with(|| {
            let pass = lint_through_tier(
                lint_cache,
                &linter,
                lint_key,
                assembled,
                &map,
                req.source.len(),
            );
            stats.modules_relinted = pass.relinted;
            evictions += pass.evictions;
            mismatches += pass.clashes;
            pass.report
        });
        self.counters.modules_relinted += stats.modules_relinted as u64;
        self.recorder
            .counter_add("server.modules_relinted", stats.modules_relinted as u64);

        let (entry, ar_cfg_stage) = match elaborated {
            Elaborated::Hit(entry) => {
                stats.design_cache_hit = true;
                let stage = stages.open("ar_cfg").ar_cfg(&entry.composed);
                (entry, stage)
            }
            Elaborated::Miss(design) => {
                let (composed, stage) = stages.ar_cfg(unit, &design, req.top)?;
                stats.modules_reextracted = unit.modules.len();
                let entry = Arc::new(DesignEntry {
                    design: *design,
                    composed,
                });
                // Rebuilding a design entry re-elaborates and re-composes
                // the whole file: cost is the full source size.
                evictions += self.design_cache.insert(
                    design_key.clone(),
                    Arc::clone(&entry),
                    req.source.len() as u64,
                );
                (entry, stage)
            }
        };
        self.counters.modules_reextracted += stats.modules_reextracted as u64;
        self.recorder.counter_add(
            "server.modules_reextracted",
            stats.modules_reextracted as u64,
        );

        // Concolic: the result tier keys on the design key plus every
        // request field that reaches the engine (properties and the
        // jobs-normalized engine config — reports are job-invariant).
        let concolic_key = {
            let mut h = fnv1a(format!("{design_key:?}").as_bytes());
            h ^= fnv1a(req.text.properties.as_bytes()).rotate_left(13);
            h ^= fnv1a(req.text.engine.as_bytes()).rotate_left(29);
            h
        };
        let cached = self.concolic_cache.get(&concolic_key).cloned();
        stats.concolic_cache_hit = cached.is_some();
        let (concolic, concolic_stage) = match cached {
            Some(report) => {
                let stage = stages.open("concolic").concolic(&report);
                (report, stage)
            }
            None => {
                let (report, stage) =
                    stages.concolic(&entry.design, &entry.composed.bound, properties)?;
                stats.targets_rerun = report.targets_total;
                // Re-running concolic costs roughly targets × cycles of
                // simulate-and-solve work.
                let cost = (report.targets_total as u64 + 1) * config.concolic.cycles.max(1);
                evictions += self
                    .concolic_cache
                    .insert(concolic_key, report.clone(), cost);
                (report, stage)
            }
        };
        self.counters.targets_rerun += stats.targets_rerun as u64;
        self.recorder
            .counter_add("server.targets_rerun", stats.targets_rerun as u64);

        let report = AnalysisReport {
            stages: vec![frontend, lint_stage, ar_cfg_stage, concolic_stage],
            lint,
            extraction: entry.composed.summary(unit.modules.len()),
            concolic,
            total: analyze_span.close(),
        };
        evictions += self.report_cache.insert(
            request_fp,
            ReportEntry::new(req, report.clone()),
            req.source.len() as u64,
        );
        self.count_evictions(evictions);
        self.count_key_mismatches(mismatches);
        Ok((report, stats))
    }

    /// Delegates a request to the batch pipeline (no structural caches),
    /// still counting it and caching the full report when safe.
    fn fallback(
        &mut self,
        req: &Request<'_>,
        properties: Vec<SecurityProperty>,
    ) -> Result<(AnalysisReport, RequestStats), SoccarError> {
        self.counters.fallbacks += 1;
        self.recorder.counter_add("server.fallbacks", 1);
        let config = req.config;
        let report = Soccar::new(config.clone())
            .with_recorder(self.recorder.clone())
            .analyze(req.file_name, req.source, req.top, properties.clone())?;
        let stats = RequestStats {
            fallback: true,
            modules_total: report.extraction.modules,
            modules_reparsed: report.extraction.modules,
            modules_reextracted: report.extraction.modules,
            modules_relinted: report.extraction.modules,
            targets_rerun: report.concolic.targets_total,
            ..RequestStats::default()
        };
        self.counters.modules_reparsed += stats.modules_reparsed as u64;
        self.counters.modules_reextracted += stats.modules_reextracted as u64;
        self.counters.modules_relinted += stats.modules_relinted as u64;
        self.counters.targets_rerun += stats.targets_rerun as u64;
        self.recorder.counter_add(
            "server.modules_reextracted",
            stats.modules_reextracted as u64,
        );
        self.recorder
            .counter_add("server.modules_relinted", stats.modules_relinted as u64);
        self.recorder
            .counter_add("server.targets_rerun", stats.targets_rerun as u64);
        if config.fault_plan.is_empty() && config.concolic.fault_plan.is_empty() {
            let evictions = self.report_cache.insert(
                req.fingerprint(),
                ReportEntry::new(req, report.clone()),
                req.source.len() as u64,
            );
            self.count_evictions(evictions);
        }
        Ok((report, stats))
    }

    /// Adds capacity evictions to the session counters.
    fn count_evictions(&mut self, evictions: u64) {
        if evictions > 0 {
            self.counters.evictions += evictions;
            self.recorder.counter_add("server.evictions", evictions);
        }
    }

    /// Counts hits whose hash matched but whose bytes did not, only when
    /// there are any, so a healthy trace has no such counter.
    fn count_key_mismatches(&self, mismatches: u64) {
        if mismatches > 0 {
            self.recorder.counter_add("server.key_mismatch", mismatches);
        }
    }
}

/// What one pass of the lint stage through the lint tier did.
struct LintPass {
    report: LintReport,
    /// Modules linted.
    relinted: usize,
    /// Entries the insert evicted.
    evictions: u64,
    /// Chunks whose key matched a kept chunk of another text.
    clashes: u64,
}

/// The lint stage through the lint tier. On a hit, a chunk found at the
/// same index with the same raw fingerprint and text reuses its findings,
/// rebased to the chunk's offset; every other chunk is linted again,
/// because a comment inside a module can move a finding's line or column
/// without changing the module's structure. On a miss every module is
/// linted and the entry is filled. Either way the entry then holds this
/// request's chunks only, and the findings are described against the
/// request's own `map` (the file name can differ between requests).
fn lint_through_tier(
    cache: &mut CostAwareMap<LintKey, LintEntry>,
    linter: &Linter,
    key: LintKey,
    assembled: &AssembledUnit,
    map: &SourceMap,
    cost: usize,
) -> LintPass {
    let unit = assembled.unit();
    let mut entry = cache.remove(&key).unwrap_or_else(|| LintEntry {
        facts: linter.facts(unit),
        chunks: HashMap::new(),
    });
    let ctx = linter.context(unit, &entry.facts);
    let mut chunks = HashMap::with_capacity(unit.modules.len());
    let mut diagnostics = Vec::new();
    let (mut relinted, mut clashes) = (0, 0);
    for (index, (raw, offset, text)) in assembled.chunks().enumerate() {
        // A chunk lent by the parse tier shares its text's allocation,
        // which the comparison checks first.
        let kept = entry
            .chunks
            .remove(&(index, raw))
            .and_then(|(kept, found)| {
                let same = kept == *text;
                clashes += u64::from(!same);
                same.then_some(found)
            });
        let found = kept.unwrap_or_else(|| {
            relinted += 1;
            let mut found = linter.check_modules(&ctx, [index]);
            for diag in &mut found {
                diag.span.start -= offset;
                diag.span.end -= offset;
            }
            found
        });
        diagnostics.extend(found.iter().map(|diag| {
            let mut diag = diag.clone();
            diag.span.start += offset;
            diag.span.end += offset;
            diag
        }));
        chunks.insert((index, raw), (Arc::clone(text), found));
    }
    entry.chunks = chunks;
    LintPass {
        report: LintReport::finish(diagnostics, map),
        relinted,
        // Re-linting costs the whole file.
        evictions: cache.insert(key, entry, cost as u64),
        clashes,
    }
}

/// One analyze request's inputs, less its properties.
struct Request<'a> {
    file_name: &'a str,
    source: &'a str,
    top: &'a str,
    config: &'a SoccarConfig,
    text: KeyText,
}

/// The `Debug` text of a request's properties and configuration, built
/// once per request. With the source, file name and top it is what the
/// report-tier key hashes and a hit is confirmed against; the concolic
/// key hashes `properties` and `engine` too. `Debug` renderings are
/// stable within a build, which is the cache's lifetime.
#[derive(Debug, Clone, PartialEq, Eq)]
struct KeyText {
    properties: String,
    /// The engine configuration with its job count cleared (reports are
    /// job-invariant), and the failure policy.
    engine: String,
    /// The analysis flavor, the reset naming and the lint configuration.
    frontend: String,
}

impl KeyText {
    fn new(properties: &[SecurityProperty], config: &SoccarConfig) -> KeyText {
        let mut engine = config.concolic.clone();
        engine.jobs = 0;
        KeyText {
            properties: format!("{properties:?}"),
            engine: format!("{engine:?}/{}", config.keep_going),
            frontend: format!(
                "{:?}/{:?}/{:?}",
                config.analysis, config.naming, config.lint
            ),
        }
    }
}

impl Request<'_> {
    /// Report-tier key: every request field that can influence the
    /// result.
    fn fingerprint(&self) -> u64 {
        let mut h = hash_bytes(self.source.as_bytes());
        h ^= hash_bytes(self.file_name.as_bytes()).rotate_left(7);
        h ^= hash_bytes(self.top.as_bytes()).rotate_left(17);
        h ^= hash_bytes(self.text.properties.as_bytes()).rotate_left(27);
        h ^= hash_bytes(self.text.engine.as_bytes()).rotate_left(37);
        h ^= hash_bytes(self.text.frontend.as_bytes()).rotate_left(47);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use soccar_concolic::PropertyKind;
    use soccar_lint::LintConfig;
    use soccar_rtl::LogicVec;

    /// The pipeline test design: an unscrubbed key register behind a
    /// reset-governed module, parameterized so tests can perturb one
    /// module without touching the other.
    fn leaky(ip_value: u8, top_comment: &str) -> String {
        format!(
            "module ip(input clk, input rst_n, output reg [7:0] key);
  always @(posedge clk or negedge rst_n)
    if (!rst_n) key <= key;
    else key <= 8'h{ip_value:02X};
endmodule
module top(input clk, input sec_rst_n);{top_comment}
  ip u (.clk(clk), .rst_n(sec_rst_n));
endmodule
"
        )
    }

    fn key_property() -> SecurityProperty {
        SecurityProperty {
            name: "key-cleared".into(),
            module: "ip".into(),
            kind: PropertyKind::ClearedAfterReset {
                domain: "top.sec_rst_n".into(),
                signal: "top.u.key".into(),
                expected: LogicVec::zeros(8),
                window: 0,
            },
        }
    }

    fn batch_canonical(source: &str, config: &SoccarConfig) -> String {
        Soccar::new(config.clone())
            .analyze("t.v", source, "top", vec![key_property()])
            .expect("batch analyze")
            .canonical_json()
            .expect("canonical json")
    }

    /// Runs `source` through `session` with the test property and the
    /// session's own configuration.
    fn analyze(session: &mut AnalysisSession, source: &str) -> (AnalysisReport, RequestStats) {
        let config = session.config().clone();
        session
            .analyze_with_config("t.v", source, "top", vec![key_property()], &config)
            .expect("session analyze")
    }

    #[test]
    fn warm_session_matches_batch_byte_for_byte() {
        let src = leaky(0xA5, "");
        let config = SoccarConfig::default();
        let batch = batch_canonical(&src, &config);

        let mut session = AnalysisSession::new(config);
        let (cold, s1) = analyze(&mut session, &src);
        assert!(!s1.report_cache_hit);
        assert!(!s1.fallback);
        assert_eq!(s1.modules_total, 2);
        assert_eq!(s1.modules_reparsed, 2);
        assert_eq!(s1.modules_reextracted, 2);
        assert_eq!(cold.canonical_json().expect("json"), batch);

        let (warm, s2) = analyze(&mut session, &src);
        assert!(s2.report_cache_hit);
        assert_eq!(s2.modules_reextracted, 0);
        assert_eq!(warm.canonical_json().expect("json"), batch);
        assert_eq!(session.counters().requests, 2);
        assert_eq!(session.counters().cache_hits, 1);

        // Both bundled SoCs, under the bench smoke budget: an inert wire
        // added to the first module re-parses that module alone and, on
        // the design-tier miss, extracts every module; the warm report
        // equals a cold batch run of the edited source; repeating the
        // request is a report-tier hit that re-runs no target.
        for (name, modules) in [("clustersoc", 16), ("autosoc", 29)] {
            let soc = soccar_soc::resolve(name, None).expect("bundled SoC");
            let mut config = SoccarConfig::default();
            config.concolic.cycles = 10;
            config.concolic.max_rounds = 3;
            config.concolic.sweep_stride = 3;
            config.concolic.symbolic_inputs = soc.symbolic.clone();
            let properties: Vec<SecurityProperty> =
                soc.checks.iter().map(crate::property_of).collect();
            let edited = soc.source.replacen(
                "endmodule",
                "  wire probe_unused;\n  assign probe_unused = 1'b0;\nendmodule",
                1,
            );
            let mut session = AnalysisSession::new(config.clone());
            let mut run = |source: &str| {
                let file = &soc.file_name;
                let props = properties.clone();
                assert_request_matches_batch(&mut session, file, source, &soc.top, props, &config)
                    .expect("analysis")
                    .1
            };
            assert_eq!(run(&soc.source).modules_total, modules, "{name}");
            let warm = run(&edited);
            assert_eq!(warm.modules_reparsed, 1, "{name}");
            assert_eq!(warm.modules_reextracted, modules, "{name}");
            let repeat = run(&edited);
            assert!(repeat.report_cache_hit, "{name}");
            assert_eq!(repeat.targets_rerun, 0, "{name}");
        }
    }

    #[test]
    fn comment_edit_keeps_structural_and_result_tiers() {
        let config = SoccarConfig::default();
        let mut session = AnalysisSession::new(config.clone());
        analyze(&mut session, &leaky(0xA5, ""));

        let v1 = leaky(0xA5, " // wiring only");
        let (report, stats) = analyze(&mut session, &v1);
        assert!(!stats.report_cache_hit, "source bytes changed");
        assert_eq!(stats.modules_reparsed, 1, "only top's chunk changed");
        assert_eq!(stats.modules_reextracted, 0, "structure unchanged");
        assert!(stats.design_cache_hit);
        assert!(stats.concolic_cache_hit);
        assert_eq!(stats.targets_rerun, 0);
        assert_eq!(
            report.canonical_json().expect("json"),
            batch_canonical(&v1, &config)
        );
    }

    /// Stage timings come from the stage spans alone: on a request that
    /// misses every tier, each stage report's `elapsed` is exactly the
    /// duration of its `pipeline.<stage>` span.
    #[test]
    fn stage_timings_are_the_stage_spans() {
        let recorder = soccar_obs::Recorder::enabled();
        let mut session =
            AnalysisSession::new(SoccarConfig::default()).with_recorder(recorder.clone());
        let (report, stats) = analyze(&mut session, &leaky(0xA5, ""));
        assert!(!stats.design_cache_hit && !stats.concolic_cache_hit);
        let spans = recorder.snapshot().spans;
        let analyze = spans
            .iter()
            .position(|s| s.name == "pipeline.analyze")
            .expect("pipeline.analyze span");
        assert_eq!(spans[analyze].elapsed, Some(report.total));
        assert_eq!(report.stages.len(), 4);
        for stage in &report.stages {
            let span = spans
                .iter()
                .find(|s| s.name == format!("pipeline.{}", stage.stage))
                .unwrap_or_else(|| panic!("no span for stage {}", stage.stage));
            assert_eq!(span.parent, Some(analyze), "{}", stage.stage);
            assert_eq!(span.elapsed, Some(stage.elapsed), "{}", stage.stage);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// A comment line put into any module of `padded` lints that
        /// module alone, and the report equals batch.
        #[test]
        fn comment_line_in_any_module_relints_it_alone(
            module in 0usize..3,
            tag in 0u32..1000,
        ) {
            let base = padded("");
            let mut session = AnalysisSession::new(SoccarConfig::default());
            analyze(&mut session, &base);
            let start = base.match_indices("module ").nth(module).expect("module").0;
            let at = start + base[start..].find('\n').expect("header line") + 1;
            let edited = format!("{}  // note {tag}\n{}", &base[..at], &base[at..]);
            let stats = assert_matches_batch(&mut session, &edited, "top").expect("analysis");
            prop_assert_eq!(stats.modules_reparsed, 1);
            prop_assert_eq!(stats.modules_relinted, 1);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// A perturbed edit to one module re-parses exactly that module
        /// and, on the design-tier miss, extracts all of them; the warm
        /// report equals a cold batch run of the edited source
        /// byte-for-byte.
        #[test]
        fn single_module_edit_reparses_only_that_module(
            v0 in 0u8..=255,
            v1 in 0u8..=255,
        ) {
            prop_assume!(v0 != v1);
            let config = SoccarConfig::default();
            let mut session = AnalysisSession::new(config.clone());
            analyze(&mut session, &leaky(v0, ""));

            let src1 = leaky(v1, "");
            let (warm, stats) = analyze(&mut session, &src1);
            prop_assert!(!stats.report_cache_hit);
            prop_assert_eq!(stats.modules_reparsed, 1);
            prop_assert_eq!(stats.modules_reextracted, 2);
            prop_assert!(!stats.design_cache_hit);
            prop_assert_eq!(
                warm.canonical_json().expect("json"),
                batch_canonical(&src1, &config)
            );
        }
    }

    #[test]
    fn fault_plan_requests_fall_back_to_batch() {
        let config = SoccarConfig {
            keep_going: true,
            fault_plan: soccar_exec::FaultPlan::parse("task_panic@extract:1").expect("plan"),
            ..SoccarConfig::default()
        };
        let src = leaky(0xA5, "");
        let batch = batch_canonical(&src, &config);
        let mut session = AnalysisSession::new(config);
        let (report, stats) = analyze(&mut session, &src);
        assert!(stats.fallback);
        assert_eq!(report.canonical_json().expect("json"), batch);
        assert_eq!(session.counters().fallbacks, 1);
    }

    #[test]
    fn parse_errors_match_batch_via_fallback() {
        let config = SoccarConfig::default();
        let mut session = AnalysisSession::new(config.clone());
        let err = session
            .analyze_with_config("t.v", "module broken(", "broken", vec![], &config)
            .expect_err("parse error");
        let batch_err = Soccar::new(config)
            .analyze("t.v", "module broken(", "broken", vec![])
            .expect_err("batch parse error");
        assert_eq!(err.to_string(), batch_err.to_string());
        assert!(matches!(err, SoccarError::Rtl(_)));
    }

    #[test]
    fn eviction_prefers_cold_entries_over_expensive_recent_ones() {
        let mut map: CostAwareMap<&str, ()> = CostAwareMap::new(2);
        map.insert("cheap_recent", (), 10);
        map.insert("costly_cold", (), 1000);
        // Touch the cheap entry; the costly one ages past the horizon.
        assert!(map.get(&"cheap_recent").is_some());
        map.insert("newcomer", (), 1);
        assert!(
            map.get(&"costly_cold").is_none(),
            "a cold entry is evicted before a recent one, whatever its cost"
        );
        assert!(map.get(&"cheap_recent").is_some());
        assert!(map.get(&"newcomer").is_some());
    }

    #[test]
    fn eviction_picks_the_cheapest_cold_entry_with_seq_tiebreak() {
        let mut map: CostAwareMap<&str, ()> = CostAwareMap::new(2);
        map.insert("expensive", (), 500);
        map.insert("cheap", (), 1);
        // Age both entries past the recency horizon with missed lookups.
        assert!(map.get(&"absent").is_none());
        assert!(map.get(&"absent").is_none());
        map.insert("newcomer", (), 7);
        assert!(
            map.get(&"cheap").is_none(),
            "cheapest cold entry goes first"
        );
        assert!(map.get(&"expensive").is_some());

        // Equal costs: the older insertion loses.
        let mut map: CostAwareMap<&str, ()> = CostAwareMap::new(2);
        map.insert("older", (), 3);
        map.insert("newer", (), 3);
        assert!(map.get(&"absent").is_none());
        assert!(map.get(&"absent").is_none());
        map.insert("newcomer", (), 3);
        assert!(map.get(&"older").is_none());
        assert!(map.get(&"newer").is_some());
    }

    #[test]
    fn reinserting_an_existing_key_never_evicts() {
        let mut map: CostAwareMap<&str, u32> = CostAwareMap::new(2);
        map.insert("a", 1, 1);
        map.insert("b", 2, 1);
        assert_eq!(map.insert("a", 3, 1), 0, "overwrite needs no room");
        assert_eq!(map.len(), 2);
        assert_eq!(map.get(&"a"), Some(&3));
    }

    /// The leaky design behind a first module, `pad`, whose body carries
    /// `pad_lines`: editing `pad` moves every later module, including
    /// `ip`, the one the lint diagnostics point into.
    fn padded(pad_lines: &str) -> String {
        format!(
            "module pad(input a, output y);\n{pad_lines}  assign y = a;\nendmodule\n{}",
            leaky(0xA5, "")
        )
    }

    /// Runs one request through `session` and through batch and asserts
    /// the same canonical report, or the same error; returns the
    /// session's stats on success.
    fn assert_matches_batch(
        session: &mut AnalysisSession,
        source: &str,
        top: &str,
    ) -> Option<RequestStats> {
        let config = session.config().clone();
        let properties = vec![key_property()];
        assert_request_matches_batch(session, "t.v", source, top, properties, &config)
            .map(|(_, stats)| stats)
    }

    /// [`assert_matches_batch`] with every request field explicit; also
    /// returns the session's report.
    fn assert_request_matches_batch(
        session: &mut AnalysisSession,
        file_name: &str,
        source: &str,
        top: &str,
        properties: Vec<SecurityProperty>,
        config: &SoccarConfig,
    ) -> Option<(AnalysisReport, RequestStats)> {
        let batch = Soccar::new(config.clone()).analyze(file_name, source, top, properties.clone());
        let warm = session.analyze_with_config(file_name, source, top, properties, config);
        match (warm, batch) {
            (Ok((warm, stats)), Ok(batch)) => {
                assert_eq!(
                    warm.canonical_json().expect("json"),
                    batch.canonical_json().expect("json")
                );
                Some((warm, stats))
            }
            (Err(warm), Err(batch)) => {
                assert_eq!(warm.to_string(), batch.to_string());
                None
            }
            (warm, batch) => panic!(
                "session {:?} but batch {:?}",
                warm.map(|_| ()),
                batch.map(|_| ())
            ),
        }
    }

    #[test]
    fn line_shifting_edits_keep_spans_exact() {
        let mut session = AnalysisSession::new(SoccarConfig::default());
        let base = padded("");
        let (cold, _) = analyze(&mut session, &base);
        assert!(
            cold.lint.diagnostics.iter().any(|d| d.module == "ip"),
            "the test needs diagnostics in a module after the edit"
        );
        // Edit 1 grows `pad` by three lines; edit 2 takes them out again
        // (with a same-line comment, so its text is new), so `ip` and
        // `top` move forward, then back.
        let edits = [
            padded("  // one\n  // two\n  // three\n"),
            base.replacen("assign y = a;", "assign y = a; // back", 1),
        ];
        for source in edits {
            let stats = assert_matches_batch(&mut session, &source, "top").expect("analysis");
            assert_eq!(stats.modules_reparsed, 1, "only pad's chunk is new");
            assert!(stats.design_cache_hit);
            assert_eq!(stats.modules_relinted, 1, "a lint-tier hit lints pad alone");
        }
        assert_eq!(session.counters().modules_relinted, 3 + 1 + 1);
    }

    /// A comment on the line of `ip`'s `always`, before it, moves the
    /// column of `ip`'s findings while its structure stays the same: the
    /// lint tier hits, and `ip` is linted again.
    #[test]
    fn same_line_comment_moves_a_finding_under_a_lint_tier_hit() {
        let mut session = AnalysisSession::new(SoccarConfig::default());
        let base = padded("");
        let (cold, _) = analyze(&mut session, &base);
        let edited = base.replacen("  always", "  /* c */ always", 1);
        let (warm, stats) = assert_request_matches_batch(
            &mut session,
            "t.v",
            &edited,
            "top",
            vec![key_property()],
            &SoccarConfig::default(),
        )
        .expect("analysis");
        assert!(stats.design_cache_hit);
        assert_eq!(stats.modules_reparsed, 1);
        assert_eq!(stats.modules_relinted, 1);
        let locations = |report: &AnalysisReport| -> Vec<String> {
            let lint = report.lint.diagnostics.iter();
            lint.filter(|d| d.module == "ip")
                .map(|d| d.location.clone())
                .collect()
        };
        assert_ne!(locations(&cold), locations(&warm), "a column moved");
    }

    /// The lint tier describes findings against each request's own file
    /// name, and any change to the allow/deny configuration misses it.
    #[test]
    fn file_name_and_lint_config_changes_against_batch() {
        let mut session = AnalysisSession::new(SoccarConfig::default());
        let source = padded("");
        let config = SoccarConfig::default();
        analyze(&mut session, &source);

        let properties = || vec![key_property()];
        let (report, stats) = assert_request_matches_batch(
            &mut session,
            "u.v",
            &source,
            "top",
            properties(),
            &config,
        )
        .expect("analysis");
        assert!(
            !stats.report_cache_hit,
            "the file name is part of the request"
        );
        assert_eq!(stats.modules_reparsed, 0);
        assert_eq!(stats.modules_relinted, 0, "every chunk's findings reused");
        assert!(report
            .lint
            .diagnostics
            .iter()
            .all(|d| d.location.starts_with("u.v:")));

        for lint in [
            LintConfig {
                allow: vec![],
                deny: vec!["async-reset-unsynchronized".into()],
            },
            LintConfig {
                allow: vec!["async-reset-unsynchronized".into()],
                deny: vec![],
            },
        ] {
            let config = SoccarConfig {
                lint,
                ..SoccarConfig::default()
            };
            let (_, stats) = assert_request_matches_batch(
                &mut session,
                "t.v",
                &source,
                "top",
                properties(),
                &config,
            )
            .expect("analysis");
            assert!(stats.design_cache_hit);
            assert_eq!(stats.modules_relinted, 3, "a new lint config misses");
        }
    }

    /// `ip`'s block is governed by its reset implicitly, so `reset` is a
    /// reset by its name alone.
    fn implicit(reset: &str) -> String {
        format!(
            "module ip(input clk, input {reset}, output reg [7:0] key);
  always @(negedge {reset})
    if (clk) key <= 8'h00;
endmodule
module top(input clk, input sec_rst_n);
  ip u (.clk(clk), .{reset}(sec_rst_n));
endmodule
"
        )
    }

    /// Renaming `ip`'s reset to a name the convention does not match
    /// changes the structure, so the lint tier misses; `top`'s findings
    /// change with it, because `sec_rst_n` no longer feeds a reset.
    #[test]
    fn renaming_a_reset_misses_and_changes_the_parent_findings() {
        let mut session = AnalysisSession::new(SoccarConfig::default());
        let config = SoccarConfig::default();
        let top_findings = |report: &AnalysisReport| -> Vec<&'static str> {
            let lint = report.lint.diagnostics.iter();
            lint.filter(|d| d.module == "top").map(|d| d.rule).collect()
        };
        let (before, _) = assert_request_matches_batch(
            &mut session,
            "t.v",
            &implicit("rst_n"),
            "top",
            vec![],
            &config,
        )
        .expect("analysis");
        let (after, stats) = assert_request_matches_batch(
            &mut session,
            "t.v",
            &implicit("go_n"),
            "top",
            vec![],
            &config,
        )
        .expect("analysis");
        assert_eq!(stats.modules_relinted, 2, "a structural edit misses");
        assert!(top_findings(&before).is_empty());
        assert_eq!(top_findings(&after), ["reset-name-shadowing"]);
    }

    /// The same module text at two indices: each chunk keeps its own
    /// findings, and a later edit elsewhere reuses both.
    #[test]
    fn duplicate_chunks_keep_their_own_findings() {
        let mut session = AnalysisSession::new(SoccarConfig::default());
        let leaky = leaky(0xA5, "");
        let ip = &leaky[..leaky.find("module top").expect("top")];
        let doubled = |pad: &str| format!("{ip}{}", padded(pad));
        let stats = assert_matches_batch(&mut session, &doubled(""), "top").expect("analysis");
        assert_eq!(stats.modules_relinted, 4);
        let stats =
            assert_matches_batch(&mut session, &doubled("  // edit\n"), "top").expect("analysis");
        assert_eq!(stats.modules_reparsed, 2, "pad, and ip's text parsed again");
        assert_eq!(stats.modules_relinted, 1, "pad alone");
        assert_eq!(session.tier_sizes().lint, 1);
    }

    /// A perfbench-shaped edit on the x10 design (`/* rev N */` before one
    /// module's `endmodule`) lints exactly that module.
    #[test]
    fn x10_comment_edit_relints_one_module() {
        let soc = soccar_soc::resolve("gen:11:15", None).expect("x10");
        let mut config = SoccarConfig::default();
        config.concolic.cycles = 8;
        config.concolic.max_rounds = 0;
        let mut session = AnalysisSession::new(config.clone());
        let run = |session: &mut AnalysisSession, source: &str| {
            session
                .analyze_with_config(&soc.file_name, source, &soc.top, vec![], &config)
                .expect("analysis")
        };
        let (_, cold) = run(&mut session, &soc.source);
        assert_eq!(cold.modules_relinted, cold.modules_total);
        let starts: Vec<usize> = soc
            .source
            .match_indices("module ")
            .map(|(i, _)| i)
            .collect();
        let start = starts[starts.len() / 2];
        let at = start + soc.source[start..].find("endmodule").expect("endmodule");
        for rev in 1..=2 {
            let edited = format!("{}/* rev {rev} */ {}", &soc.source[..at], &soc.source[at..]);
            let (report, stats) = run(&mut session, &edited);
            assert_eq!(stats.modules_reparsed, 1);
            assert_eq!(stats.modules_relinted, 1);
            let batch = Soccar::new(config.clone())
                .analyze(&soc.file_name, &edited, &soc.top, vec![])
                .expect("batch");
            assert_eq!(
                report.canonical_json().expect("json"),
                batch.canonical_json().expect("json")
            );
        }
    }

    #[test]
    fn errors_and_odd_shapes_leave_the_session_consistent() {
        let mut session = AnalysisSession::new(SoccarConfig::default());
        analyze(&mut session, &padded(""));
        let edited = padded("  // edit 1\n");
        let stats = assert_matches_batch(&mut session, &edited, "top").expect("analysis");
        assert_eq!(stats.modules_reparsed, 1);

        // An elaboration error after every module was lent.
        assert!(assert_matches_batch(&mut session, &edited, "nope").is_none());
        // A chunk that does not parse: the batch fallback.
        let broken = edited.replace("assign y = a;", "assign y = ;");
        assert!(assert_matches_batch(&mut session, &broken, "top").is_none());
        let stats =
            assert_matches_batch(&mut session, &padded("  // edit 2\n"), "top").expect("analysis");
        assert_eq!(stats.modules_reparsed, 1, "only pad's chunk is new");
        assert!(stats.design_cache_hit);

        // The same module text twice: two chunks, one raw fingerprint.
        let ip = &leaky(0xA5, "")[..leaky(0xA5, "").find("module top").expect("top")];
        let doubled = format!("{ip}{}", padded("  // edit 2\n"));
        let stats = assert_matches_batch(&mut session, &doubled, "top").expect("batch accepts it");
        assert_eq!(stats.modules_total, 4);
        assert_eq!(
            stats.modules_reparsed, 1,
            "the repeated text is parsed again"
        );
        let stats =
            assert_matches_batch(&mut session, &padded("  // edit 3\n"), "top").expect("analysis");
        assert_eq!(stats.modules_reparsed, 1);
        // Four `pad` texts, `ip` and `top`; the broken chunk is not kept.
        assert_eq!(session.tier_sizes().parse, 6);
    }

    /// The `server.key_mismatch` count in `recorder`, `None` when no
    /// mismatch was ever counted.
    fn key_mismatches(recorder: &soccar_obs::Recorder) -> Option<u64> {
        recorder
            .snapshot()
            .counters
            .get("server.key_mismatch")
            .copied()
    }

    /// A session tracing into a fresh recorder, and the recorder.
    fn traced_session() -> (AnalysisSession, soccar_obs::Recorder) {
        let recorder = soccar_obs::Recorder::enabled();
        let session = AnalysisSession::new(SoccarConfig::default()).with_recorder(recorder.clone());
        (session, recorder)
    }

    /// The raw fingerprint of chunk `index` of `source`.
    fn raw(source: &str, index: usize) -> u64 {
        split_modules(source).expect("split")[index].raw_fingerprint()
    }

    /// Another request's report under a request's report-tier key, where
    /// a hash clash would put it: the hit is confirmed against the
    /// request's bytes, so it is a miss, and batch's bytes are served.
    #[test]
    fn a_clashing_report_entry_is_a_miss() {
        let (mut session, recorder) = traced_session();
        // Two designs whose reports differ (two modules against three).
        let (a, b) = (leaky(0xA5, ""), padded(""));
        analyze(&mut session, &a);
        assert_eq!(
            key_mismatches(&recorder),
            None,
            "a healthy trace has no counter"
        );
        let config = SoccarConfig::default();
        let properties = [key_property()];
        let key = |source| {
            let text = KeyText::new(&properties, &config);
            let (file_name, top, config) = ("t.v", "top", &config);
            let req = Request {
                file_name,
                source,
                top,
                config,
                text,
            };
            req.fingerprint()
        };
        let entry = session.report_cache.remove(&key(&a)).expect("a's report");
        session.report_cache.insert(key(&b), entry, 1);
        let stats = assert_matches_batch(&mut session, &b, "top").expect("analysis");
        assert!(!stats.report_cache_hit);
        assert_eq!(key_mismatches(&recorder), Some(1));
        // The miss replaced the clashing entry.
        assert!(analyze(&mut session, &b).1.report_cache_hit);
        assert_eq!(key_mismatches(&recorder), Some(1));
    }

    /// `ip`'s parse under the raw fingerprint of an edited `ip` chunk
    /// whose findings sit one column further: the lent module is
    /// confirmed against the chunk text, the chunk is parsed again, and
    /// the findings are batch's.
    #[test]
    fn a_clashing_parse_entry_is_parsed_again() {
        let (mut session, recorder) = traced_session();
        let base = padded("");
        analyze(&mut session, &base);
        let edited = base.replacen("  always", "  /* c */ always", 1);
        let parsed = session.parse_cache.remove(&raw(&base, 1)).expect("ip");
        session.parse_cache.insert(raw(&edited, 1), parsed, 1);
        let stats = assert_matches_batch(&mut session, &edited, "top").expect("analysis");
        assert_eq!(stats.modules_reparsed, 1);
        assert!(stats.design_cache_hit);
        assert_eq!(key_mismatches(&recorder), Some(1));
    }

    /// `ip`'s findings under the key of an edited `ip` chunk whose
    /// findings sit one column further: the lint tier confirms the chunk
    /// text, lints `ip` again, and the report equals batch.
    #[test]
    fn a_clashing_lint_chunk_is_linted_again() {
        let (mut session, recorder) = traced_session();
        let base = padded("");
        analyze(&mut session, &base);
        let edited = base.replacen("  always", "  /* c */ always", 1);
        assert_eq!(session.lint_cache.len(), 1);
        for slot in session.lint_cache.entries.values_mut() {
            let kept = slot.value.chunks.remove(&(1, raw(&base, 1)));
            let kept = kept.expect("ip's findings");
            slot.value.chunks.insert((1, raw(&edited, 1)), kept);
        }
        let stats = assert_matches_batch(&mut session, &edited, "top").expect("analysis");
        assert_eq!(stats.modules_relinted, 1);
        assert_eq!(key_mismatches(&recorder), Some(1));
    }

    #[test]
    fn report_tier_eviction_is_counted() {
        let caps = CacheCaps {
            report: 1,
            ..CacheCaps::default()
        };
        let mut session = AnalysisSession::with_caps(SoccarConfig::default(), caps);
        for value in [0x11u8, 0x22, 0x33] {
            analyze(&mut session, &leaky(value, ""));
        }
        assert!(session.counters().evictions >= 2);
        assert_eq!(session.tier_sizes().report, 1);
    }
}
