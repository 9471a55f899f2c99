//! Content fingerprinting and incremental re-parse support.
//!
//! The incremental session behind `soccar serve` keys its caches on two
//! fingerprints computed here:
//!
//! * a **raw fingerprint** ([`hash_bytes`] over a module's source chunk),
//!   which decides whether the cached AST for that chunk can be reused
//!   without re-parsing, and
//! * a **structural fingerprint** ([`module_fingerprint`], a hash of the
//!   pretty-printed AST), which decides whether downstream results
//!   (elaboration, AR_CFG composition) are still valid — it is
//!   insensitive to comments, whitespace and span positions.
//!
//! [`split_modules`] slices a source file into per-module chunks without
//! parsing it, so an edit to one module invalidates only that module's
//! caches. [`assemble_unit`] builds the file's [`SourceUnit`] from the
//! chunks: a chunk the caller can lend (a [`ParsedChunk`] kept from an
//! earlier request) is moved in, and only the others are parsed. The
//! structural fingerprint is computed once, when a chunk is parsed, and
//! travels with its AST. A lent module is span-rebased only when its
//! chunk moved, straight from its old byte offset to its new one
//! ([`rebase_module_spans`]), so every diagnostic span — and hence lint
//! output — stays byte-identical to a cold full-file parse. After the
//! request, [`AssembledUnit::into_parsed`] hands the modules back for the
//! next one.

use crate::ast::{
    AlwaysBlock, CaseArm, Declarator, Expr, Instance, Item, Module, NetDecl, ParamDecl, Port,
    PortConn, Range, SensItem, Sensitivity, SourceUnit, Stmt,
};
use crate::printer;
use crate::span::{FileId, Span};

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of `bytes`.
///
/// Deterministic across runs and platforms (unlike `DefaultHasher`), so
/// fingerprints can appear in traces and be compared across processes.
///
/// # Examples
///
/// ```
/// let h = soccar_rtl::fingerprint::hash_bytes(b"module m; endmodule");
/// assert_eq!(h, soccar_rtl::fingerprint::hash_bytes(b"module m; endmodule"));
/// assert_ne!(h, soccar_rtl::fingerprint::hash_bytes(b"module n; endmodule"));
/// ```
#[must_use]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Structural fingerprint of a parsed module: the [`hash_bytes`] of its
/// pretty-printed form.
///
/// Two modules that differ only in formatting, comments or source
/// position hash identically; any semantic edit (port, parameter,
/// statement, expression) changes the hash. This is the key for the
/// extraction and elaboration caches, where results do not depend on
/// spans.
#[must_use]
pub fn module_fingerprint(m: &Module) -> u64 {
    hash_bytes(printer::print_module(m).as_bytes())
}

/// One per-module slice of a source file, produced by [`split_modules`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleChunk {
    /// Module name as spelled at the definition.
    pub name: String,
    /// Byte offset of the `module` keyword in the full source.
    pub offset: u32,
    /// Source text from the `module` keyword through `endmodule`.
    pub text: String,
}

impl ModuleChunk {
    /// Raw fingerprint of the chunk text (see [`hash_bytes`]).
    #[must_use]
    pub fn raw_fingerprint(&self) -> u64 {
        hash_bytes(self.text.as_bytes())
    }
}

/// Splits `source` into per-module chunks without parsing it.
///
/// The scanner understands line/block comments, string literals and
/// escaped identifiers, so `module`/`endmodule` inside any of those do
/// not confuse it. Returns `None` — meaning "fall back to a full parse"
/// — when the file does not follow the simple shape of top-level module
/// definitions separated only by whitespace/comments (e.g. stray text,
/// an unterminated construct, or a nested `module`). `None` is never an
/// error: the caller simply loses incrementality for that input.
///
/// For a well-formed subset file, concatenating chunk parses and
/// rebasing their spans reproduces the full-file parse exactly; the
/// `chunks_reassemble_exactly` tests pin that equivalence.
#[must_use]
pub fn split_modules(source: &str) -> Option<Vec<ModuleChunk>> {
    let bytes = source.as_bytes();
    let mut chunks = Vec::new();
    let mut i = 0usize;
    // Offset of the `module` keyword of the chunk being scanned, plus the
    // module's name once seen; `None` between modules.
    let mut current: Option<(usize, Option<String>)> = None;

    while i < bytes.len() {
        let b = bytes[i];
        // Comments and whitespace are legal everywhere.
        if b.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
            let close = source.get(i + 2..)?.find("*/")?;
            i += 2 + close + 2;
            continue;
        }
        // String literals only occur inside a module body.
        if b == b'"' {
            current.as_ref()?;
            i += 1;
            loop {
                match bytes.get(i)? {
                    b'"' => {
                        i += 1;
                        break;
                    }
                    b'\\' => i += 2,
                    _ => i += 1,
                }
            }
            continue;
        }
        // Escaped identifier: backslash through the next whitespace. Never
        // a keyword, so just skip it (only legal inside a module).
        if b == b'\\' {
            current.as_ref()?;
            while i < bytes.len() && !bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            continue;
        }
        // An ordinary identifier/keyword token.
        if b.is_ascii_alphabetic() || b == b'_' {
            let start = i;
            while i < bytes.len()
                && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'$')
            {
                i += 1;
            }
            let word = &source[start..i];
            match (&mut current, word) {
                (None, "module") => current = Some((start, None)),
                // Anything else at top level (including `endmodule` with no
                // opener, or `macromodule`) breaks the simple shape.
                (None, _) => return None,
                // A nested `module` keyword is not subset Verilog.
                (Some(_), "module") => return None,
                (Some((chunk_start, name)), "endmodule") => {
                    let name = name.take()?;
                    chunks.push(ModuleChunk {
                        name,
                        offset: u32::try_from(*chunk_start).ok()?,
                        text: source[*chunk_start..i].to_owned(),
                    });
                    current = None;
                }
                (Some((_, name @ None)), w) => *name = Some(w.to_owned()),
                (Some((_, Some(_))), _) => {}
            }
            continue;
        }
        // Any other byte (punctuation, digits, `$`…) is only legal inside
        // a module body.
        current.as_ref()?;
        i += 1;
    }

    // An unterminated module means the shape assumption failed.
    if current.is_some() {
        return None;
    }
    Some(chunks)
}

/// Moves every span in `m` from a module placed at byte offset `from` to
/// one placed at `to`; `to` may lie before `from`.
///
/// Used when a module parsed from a [`ModuleChunk`]'s text (spans from
/// 0) or kept from an earlier request (spans at that request's chunk
/// offset) is placed into a [`SourceUnit`] whose chunk starts at `to`.
/// After rebasing, diagnostics render identical line/column positions to
/// a full-file parse.
pub fn rebase_module_spans(m: &mut Module, from: u32, to: u32) {
    // A modular shift: exact for every span inside the module, whichever
    // way it moves.
    let shift = to.wrapping_sub(from);
    let fix = |s: &mut Span| {
        s.start = s.start.wrapping_add(shift);
        s.end = s.end.wrapping_add(shift);
    };
    fix(&mut m.span);
    for p in &mut m.params {
        rebase_param(p, &fix);
    }
    for p in &mut m.ports {
        rebase_port(p, &fix);
    }
    for item in &mut m.items {
        rebase_item(item, &fix);
    }
}

fn rebase_param(p: &mut ParamDecl, fix: &impl Fn(&mut Span)) {
    fix(&mut p.span);
    rebase_expr(&mut p.value, fix);
}

fn rebase_port(p: &mut Port, fix: &impl Fn(&mut Span)) {
    fix(&mut p.span);
    if let Some(r) = &mut p.range {
        rebase_range(r, fix);
    }
}

fn rebase_range(r: &mut Range, fix: &impl Fn(&mut Span)) {
    fix(&mut r.span);
    rebase_expr(&mut r.msb, fix);
    rebase_expr(&mut r.lsb, fix);
}

fn rebase_declarator(d: &mut Declarator, fix: &impl Fn(&mut Span)) {
    fix(&mut d.span);
    if let Some(a) = &mut d.array {
        rebase_range(a, fix);
    }
    if let Some(init) = &mut d.init {
        rebase_expr(init, fix);
    }
}

fn rebase_net(d: &mut NetDecl, fix: &impl Fn(&mut Span)) {
    fix(&mut d.span);
    if let Some(r) = &mut d.range {
        rebase_range(r, fix);
    }
    for n in &mut d.names {
        rebase_declarator(n, fix);
    }
}

fn rebase_sens(s: &mut Sensitivity, fix: &impl Fn(&mut Span)) {
    if let Sensitivity::List(items) = s {
        for SensItem { span, .. } in items {
            fix(span);
        }
    }
}

fn rebase_always(a: &mut AlwaysBlock, fix: &impl Fn(&mut Span)) {
    fix(&mut a.span);
    rebase_sens(&mut a.sensitivity, fix);
    rebase_stmt(&mut a.body, fix);
}

fn rebase_conn(c: &mut PortConn, fix: &impl Fn(&mut Span)) {
    fix(&mut c.span);
    if let Some(e) = &mut c.expr {
        rebase_expr(e, fix);
    }
}

fn rebase_instance(inst: &mut Instance, fix: &impl Fn(&mut Span)) {
    fix(&mut inst.span);
    for c in &mut inst.params {
        rebase_conn(c, fix);
    }
    for c in &mut inst.conns {
        rebase_conn(c, fix);
    }
}

fn rebase_item(item: &mut Item, fix: &impl Fn(&mut Span)) {
    match item {
        Item::Net(d) => rebase_net(d, fix),
        Item::Param(p) => rebase_param(p, fix),
        Item::Assign { lhs, rhs, span } => {
            fix(span);
            rebase_expr(lhs, fix);
            rebase_expr(rhs, fix);
        }
        Item::Always(a) => rebase_always(a, fix),
        Item::Initial { body, span } => {
            fix(span);
            rebase_stmt(body, fix);
        }
        Item::Instance(inst) => rebase_instance(inst, fix),
    }
}

fn rebase_stmt(stmt: &mut Stmt, fix: &impl Fn(&mut Span)) {
    match stmt {
        Stmt::Block { stmts, span } => {
            fix(span);
            for s in stmts {
                rebase_stmt(s, fix);
            }
        }
        Stmt::If {
            cond,
            then_stmt,
            else_stmt,
            span,
        } => {
            fix(span);
            rebase_expr(cond, fix);
            rebase_stmt(then_stmt, fix);
            if let Some(e) = else_stmt {
                rebase_stmt(e, fix);
            }
        }
        Stmt::Case {
            selector,
            arms,
            span,
            ..
        } => {
            fix(span);
            rebase_expr(selector, fix);
            for CaseArm { labels, body, span } in arms {
                fix(span);
                for l in labels {
                    rebase_expr(l, fix);
                }
                rebase_stmt(body, fix);
            }
        }
        Stmt::Blocking { lhs, rhs, span } | Stmt::NonBlocking { lhs, rhs, span } => {
            fix(span);
            rebase_expr(lhs, fix);
            rebase_expr(rhs, fix);
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
            span,
            ..
        } => {
            fix(span);
            rebase_expr(init, fix);
            rebase_expr(cond, fix);
            rebase_expr(step, fix);
            rebase_stmt(body, fix);
        }
        Stmt::Null { span } => fix(span),
    }
}

fn rebase_expr(e: &mut Expr, fix: &impl Fn(&mut Span)) {
    match e {
        Expr::Number { span, .. } | Expr::Ident { span, .. } => fix(span),
        Expr::Unary { operand, span, .. } => {
            fix(span);
            rebase_expr(operand, fix);
        }
        Expr::Binary { lhs, rhs, span, .. } => {
            fix(span);
            rebase_expr(lhs, fix);
            rebase_expr(rhs, fix);
        }
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
            span,
        } => {
            fix(span);
            rebase_expr(cond, fix);
            rebase_expr(then_expr, fix);
            rebase_expr(else_expr, fix);
        }
        Expr::Concat { parts, span } => {
            fix(span);
            for p in parts {
                rebase_expr(p, fix);
            }
        }
        Expr::Repeat { count, expr, span } => {
            fix(span);
            rebase_expr(count, fix);
            rebase_expr(expr, fix);
        }
        Expr::Index { index, span, .. } => {
            fix(span);
            rebase_expr(index, fix);
        }
        Expr::PartSelect { msb, lsb, span, .. } => {
            fix(span);
            rebase_expr(msb, fix);
            rebase_expr(lsb, fix);
        }
        Expr::IndexedPartSelect {
            start, width, span, ..
        } => {
            fix(span);
            rebase_expr(start, fix);
            rebase_expr(width, fix);
        }
    }
}

/// One chunk's parse, as a cache keeps it between requests: the module
/// with its spans placed at the chunk's offset in the file it was last
/// assembled into, and its structural fingerprint, computed once when
/// the chunk was parsed.
#[derive(Debug)]
pub struct ParsedChunk {
    module: Module,
    /// Byte offset the module's spans are placed at.
    offset: u32,
    /// [`module_fingerprint`] of `module`.
    structural: u64,
}

impl ParsedChunk {
    /// The parsed module, spans as last placed.
    #[must_use]
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Parses `chunk`'s text into `file`, spans from 0. `None` unless
    /// the text parses as exactly one module.
    fn parse(file: FileId, chunk: &ModuleChunk) -> Option<ParsedChunk> {
        let unit = crate::parser::parse(file, &chunk.text).ok()?;
        let [module] = <[Module; 1]>::try_from(unit.modules).ok()?;
        let structural = module_fingerprint(&module);
        Some(ParsedChunk {
            module,
            offset: 0,
            structural,
        })
    }

    /// Places the module at byte `offset`, rebasing its spans only if it
    /// moved.
    fn place_at(&mut self, offset: u32) {
        if offset != self.offset {
            rebase_module_spans(&mut self.module, self.offset, offset);
            self.offset = offset;
        }
    }
}

/// The [`SourceUnit`] [`assemble_unit`] builds, plus what it takes to
/// hand each module back with [`AssembledUnit::into_parsed`].
#[derive(Debug)]
pub struct AssembledUnit {
    unit: SourceUnit,
    /// One entry per module of `unit`, in order.
    placed: Vec<Placement>,
    reparsed: usize,
    complete: bool,
}

/// Where one module of an [`AssembledUnit`] came from.
#[derive(Debug)]
struct Placement {
    raw: u64,
    offset: u32,
    structural: u64,
}

impl AssembledUnit {
    /// The modules in chunk order, with spans in the full file's
    /// coordinates.
    #[must_use]
    pub fn unit(&self) -> &SourceUnit {
        &self.unit
    }

    /// Whether every chunk parsed as exactly one module. When `false`,
    /// `unit` holds only the modules before the first chunk that did not.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// Chunks handed to the parser because `lend` had no module for them
    /// (a chunk that failed to parse included).
    #[must_use]
    pub fn reparsed(&self) -> usize {
        self.reparsed
    }

    /// The structural fingerprints of `unit`'s modules, in order.
    #[must_use]
    pub fn structural(&self) -> Vec<u64> {
        self.placed.iter().map(|p| p.structural).collect()
    }

    /// Each module's chunk as `(raw fingerprint, byte offset)`, in order.
    pub fn chunks(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.placed.iter().map(|p| (p.raw, p.offset))
    }

    /// Hands the modules back as `(raw fingerprint, parse)` pairs, in
    /// chunk order, each placed where this unit used it.
    pub fn into_parsed(self) -> impl Iterator<Item = (u64, ParsedChunk)> {
        self.unit
            .modules
            .into_iter()
            .zip(self.placed)
            .map(|(module, p)| {
                let parsed = ParsedChunk {
                    module,
                    offset: p.offset,
                    structural: p.structural,
                };
                (p.raw, parsed)
            })
    }
}

/// Builds the full-file [`SourceUnit`] from `chunks`, indistinguishable
/// from `parse(file, source)`.
///
/// `lend` is asked once per chunk, with the chunk's raw fingerprint, for
/// a [`ParsedChunk`] of that text previously assembled into `file`. A
/// lent module is moved in and rebased only if its chunk moved. Only
/// chunks `lend` has no module for are parsed (a lender holds one module
/// per text, so a text repeated within the file is parsed again). Assembly
/// stops at the first chunk that does not parse as one module (see
/// [`AssembledUnit::is_complete`]): the caller falls back to the
/// full-file parse so error reporting is untouched.
pub fn assemble_unit(
    file: FileId,
    chunks: &[ModuleChunk],
    mut lend: impl FnMut(u64) -> Option<ParsedChunk>,
) -> AssembledUnit {
    let mut assembled = AssembledUnit {
        unit: SourceUnit {
            modules: Vec::with_capacity(chunks.len()),
        },
        placed: Vec::with_capacity(chunks.len()),
        reparsed: 0,
        complete: true,
    };
    for chunk in chunks {
        let raw = chunk.raw_fingerprint();
        let mut parsed = match lend(raw) {
            Some(parsed) => parsed,
            None => {
                assembled.reparsed += 1;
                let Some(parsed) = ParsedChunk::parse(file, chunk) else {
                    assembled.complete = false;
                    break;
                };
                parsed
            }
        };
        parsed.place_at(chunk.offset);
        assembled.placed.push(Placement {
            raw,
            offset: chunk.offset,
            structural: parsed.structural,
        });
        assembled.unit.modules.push(parsed.module);
    }
    assembled
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use std::collections::HashMap;

    const TWO_MODULES: &str = "\
// leading comment with the word module in it
module leaf(input [7:0] a, output [7:0] y);
  // endmodule in a comment
  assign y = a[3:0] + a[7 -: 4] + {2{a[1 +: 2]}};
endmodule

/* block comment: module nope; endmodule */
module top(input clk, input rst_n, input [7:0] a, output [7:0] y);
  wire [7:0] t;
  leaf u (.a(a), .y(t));
  reg [7:0] q;
  always @(posedge clk or negedge rst_n)
    if (!rst_n) q <= 8'd0;
    else begin
      q <= t;
    end
  assign y = q;
endmodule
";

    #[test]
    fn split_finds_both_modules() {
        let chunks = split_modules(TWO_MODULES).expect("splittable");
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].name, "leaf");
        assert_eq!(chunks[1].name, "top");
        for c in &chunks {
            assert!(c.text.starts_with("module"));
            assert!(c.text.ends_with("endmodule"));
            assert_eq!(
                &TWO_MODULES[c.offset as usize..c.offset as usize + c.text.len()],
                c.text
            );
        }
    }

    #[test]
    fn split_rejects_malformed_shapes() {
        assert!(
            split_modules("module m(input a);").is_none(),
            "unterminated"
        );
        assert!(
            split_modules("stray; module m(); endmodule").is_none(),
            "stray top-level text"
        );
        assert!(
            split_modules("module m(); module n(); endmodule endmodule").is_none(),
            "nested module"
        );
        assert!(split_modules("endmodule").is_none(), "dangling endmodule");
        assert!(split_modules("/* unterminated").is_none());
    }

    #[test]
    fn split_tolerates_trailing_trivia() {
        let chunks = split_modules("module m(); endmodule // done\n").expect("split");
        assert_eq!(chunks.len(), 1);
        let chunks = split_modules("").expect("empty file");
        assert!(chunks.is_empty());
    }

    #[test]
    fn chunks_reassemble_exactly() {
        let file = FileId(3);
        let full = parse(file, TWO_MODULES).expect("full parse");
        let chunks = split_modules(TWO_MODULES).expect("split");
        let assembled = assemble_unit(file, &chunks, |_| None);
        assert!(assembled.is_complete());
        assert_eq!(assembled.reparsed(), 2);
        let structural: Vec<u64> = full.modules.iter().map(module_fingerprint).collect();
        assert_eq!(assembled.structural(), structural);
        // Derived PartialEq covers every span, so this checks rebasing
        // byte-for-byte, not just structure.
        assert_eq!(&full, assembled.unit());
    }

    /// Assembles `source` lending from `cache`, checks the unit against a
    /// full parse, hands the modules back and returns the re-parse count.
    fn assemble_through(cache: &mut HashMap<u64, ParsedChunk>, source: &str) -> usize {
        let chunks = split_modules(source).expect("split");
        let assembled = assemble_unit(FileId(0), &chunks, |raw| cache.remove(&raw));
        assert!(assembled.is_complete());
        assert_eq!(
            parse(FileId(0), source).expect("full parse"),
            assembled.unit
        );
        let reparsed = assembled.reparsed();
        cache.extend(assembled.into_parsed());
        reparsed
    }

    #[test]
    fn lent_modules_move_both_ways_and_still_match() {
        let mut cache = HashMap::new();
        assert_eq!(assemble_through(&mut cache, TWO_MODULES), 2);
        // Two new lines in `leaf` move `top` forward: only `leaf` is
        // parsed, and `top` is rebased from its old offset.
        let grown = TWO_MODULES.replacen(
            "  // endmodule in a comment\n",
            "  // endmodule in a comment\n  // one\n  // two\n",
            1,
        );
        assert_eq!(assemble_through(&mut cache, &grown), 1);
        // Back to the original: both texts are cached, and `top` moves
        // back by a negative delta.
        assert_eq!(assemble_through(&mut cache, TWO_MODULES), 0);
        assert_eq!(cache.len(), 3);
        let top = &cache[&split_modules(TWO_MODULES).expect("split")[1].raw_fingerprint()];
        assert_eq!(top.offset, top.module.span.start);
    }

    #[test]
    fn repeated_chunk_text_is_parsed_again() {
        let leaf = "module leaf(input a, output y); assign y = a; endmodule\n";
        let source = format!("{leaf}// again\n{leaf}");
        let mut cache = HashMap::new();
        assert_eq!(assemble_through(&mut cache, &source), 2);
        assert_eq!(cache.len(), 1);
        assert_eq!(assemble_through(&mut cache, &source), 1);
    }

    #[test]
    fn assembly_stops_at_a_chunk_that_does_not_parse() {
        let source = "module a(); endmodule\nmodule b(; endmodule\nmodule c(); endmodule\n";
        let chunks = split_modules(source).expect("split");
        let assembled = assemble_unit(FileId(0), &chunks, |_| None);
        assert!(!assembled.is_complete());
        assert_eq!(assembled.reparsed(), 2);
        let handed_back: Vec<_> = assembled
            .into_parsed()
            .map(|(_, p)| p.module.name)
            .collect();
        assert_eq!(handed_back, ["a"]);
    }

    #[test]
    fn structural_fingerprint_ignores_formatting() {
        let a = parse(
            FileId(0),
            "module m(input a, output y); assign y = ~a; endmodule",
        )
        .expect("parse a");
        let b = parse(
            FileId(0),
            "// comment\nmodule m(input a,\n        output y);\n  assign y = ~a;\nendmodule\n",
        )
        .expect("parse b");
        assert_eq!(
            module_fingerprint(&a.modules[0]),
            module_fingerprint(&b.modules[0])
        );
        let c = parse(
            FileId(0),
            "module m(input a, output y); assign y = a; endmodule",
        )
        .expect("parse c");
        assert_ne!(
            module_fingerprint(&a.modules[0]),
            module_fingerprint(&c.modules[0])
        );
    }
}
