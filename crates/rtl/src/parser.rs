//! Recursive-descent parser for the Verilog subset.
//!
//! Grammar highlights:
//!
//! * ANSI-style module headers with `#(parameter ...)` lists.
//! * `wire`/`reg`/`integer` declarations with packed ranges, memory
//!   dimensions and wire initializers.
//! * `assign`, `always @(...)`, `initial`, and named-connection module
//!   instantiation with parameter overrides.
//! * Statements: `begin/end`, `if/else`, `case/casez/casex`, bounded
//!   `for`, blocking and non-blocking assignments (including concatenated
//!   lvalues), null statements, and ignored system tasks.
//! * Full operator-precedence expression parsing (Pratt), concatenation,
//!   replication, bit/part/indexed-part selects and the ternary operator.
//!
//! Constructs outside the subset produce [`RtlErrorKind::Unsupported`]
//! diagnostics rather than silently misparsing. Expressions nested deeper
//! than [`MAX_EXPR_DEPTH`], and statements nested deeper than
//! [`MAX_STMT_DEPTH`], produce an [`RtlErrorKind::Limit`] diagnostic
//! instead of overflowing the stack of this parser or of the recursive
//! passes after it.

use crate::ast::*;
use crate::error::{RtlError, RtlErrorKind, RtlResult};
use crate::lexer::Lexer;
use crate::span::{FileId, Span};
use crate::token::{Keyword, Punct, Token, TokenKind};

/// Parses the Verilog `text` of `file` into a [`SourceUnit`].
///
/// # Errors
///
/// Returns the first lexical error in the file if there is one, since
/// malformed text makes any later diagnostic moot; otherwise the first
/// syntax, subset or limit error.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), soccar_rtl::error::RtlError> {
/// use soccar_rtl::parser::parse;
/// use soccar_rtl::span::FileId;
///
/// let unit = parse(FileId(0), "module t(input wire a, output wire b);
///   assign b = ~a;
/// endmodule")?;
/// assert_eq!(unit.modules.len(), 1);
/// # Ok(())
/// # }
/// ```
pub fn parse(file: FileId, text: &str) -> RtlResult<SourceUnit> {
    parse_traced(file, text, &soccar_obs::Recorder::disabled())
}

/// [`parse`] under an observability recorder: one `rtl.parse` span with
/// source size and module count, plus `rtl.tokens` (every token of the
/// file, `Eof` included) / `rtl.modules` counters.
///
/// # Errors
///
/// As [`parse`].
pub fn parse_traced(
    file: FileId,
    text: &str,
    recorder: &soccar_obs::Recorder,
) -> RtlResult<SourceUnit> {
    let mut span = soccar_obs::span!(recorder, "rtl.parse", bytes = text.len());
    let mut parser = Parser::new(Lexer::new(file, text));
    let parsed = parser.source_unit();
    let unit = parser.finish(parsed, recorder)?;
    recorder.counter_add("rtl.modules", unit.modules.len() as u64);
    span.record("modules", unit.modules.len());
    Ok(unit)
}

/// The deepest expression nesting the frontend accepts. Each
/// parenthesis, concatenation, ternary arm and prefix operator opens one
/// level. Every pass over an expression (parsing, elaboration, constant
/// folding, simulation) recurses once per level, so the limit keeps the
/// whole pipeline inside a worker thread's 2 MiB stack.
pub const MAX_EXPR_DEPTH: usize = 128;

/// The deepest statement nesting the frontend accepts. Each statement
/// opens one level, so a `begin` block, an `if` arm (an `else if` chain
/// too), a `case` arm and a `for` body each nest one level below the
/// statement that holds them. Every pass over a statement tree (parsing,
/// elaboration, AR_CFG extraction, lint, simulation) recurses once per
/// level, so, like [`MAX_EXPR_DEPTH`], the limit keeps the whole pipeline
/// inside a worker thread's 2 MiB stack. The two limits share that stack:
/// in a debug build the deepest accepted statement holding the deepest
/// accepted expression analyzes end to end. Probed with the limit lifted,
/// 193 statement levels over a 128-deep concatenation overflow it (a
/// `begin` nest, the costliest shape; `if` nests reach 266), in the
/// passes after elaboration. Elaboration itself gave out first, at 75
/// levels, while it lowered every statement kind in one function.
pub const MAX_STMT_DEPTH: usize = 48;

/// A recursive-descent parser over a token stream. It holds one token of
/// lookahead and moves each token it consumes into the tree.
struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The current token: `Eof` once the stream has ended or failed.
    tok: Token,
    /// The span of the last token consumed.
    prev: Span,
    /// Tokens pulled from the lexer so far, `Eof` included.
    pulled: u64,
    /// The lexer's error, once the stream has failed.
    lex_error: Option<RtlError>,
    /// Current expression nesting level (see [`MAX_EXPR_DEPTH`]).
    depth: usize,
    /// Current statement nesting level (see [`MAX_STMT_DEPTH`]).
    stmt_depth: usize,
}

impl<'a> Parser<'a> {
    fn new(lexer: Lexer<'a>) -> Parser<'a> {
        let mut parser = Parser {
            lexer,
            tok: Token {
                kind: TokenKind::Eof,
                span: Span::dummy(),
            },
            prev: Span::dummy(),
            pulled: 0,
            lex_error: None,
            depth: 0,
            stmt_depth: 0,
        };
        parser.tok = parser.pull();
        parser.prev = parser.tok.span;
        parser
    }

    /// The next token of the stream. A lexical error ends the stream: it
    /// is kept for [`Parser::finish`] and the parser sees `Eof`.
    fn pull(&mut self) -> Token {
        match self.lexer.next_token() {
            Ok(tok) => {
                self.pulled += 1;
                tok
            }
            Err(e) => {
                let span = e.span;
                self.lex_error = Some(e);
                Token {
                    kind: TokenKind::Eof,
                    span,
                }
            }
        }
    }

    /// The parse result, unless the file has a lexical error: that
    /// outranks any error the parser met first, as if the whole file had
    /// been lexed before parsing began. On a parse error the rest of the
    /// stream is lexed to find one. Without one, the file's token count
    /// goes to `rtl.tokens`.
    fn finish(
        &mut self,
        parsed: RtlResult<SourceUnit>,
        recorder: &soccar_obs::Recorder,
    ) -> RtlResult<SourceUnit> {
        if parsed.is_err() {
            while self.lex_error.is_none() && !self.at_eof() {
                self.tok = self.pull();
            }
        }
        if let Some(e) = self.lex_error.take() {
            return Err(e);
        }
        recorder.counter_add("rtl.tokens", self.pulled);
        parsed
    }

    fn peek(&self) -> &TokenKind {
        &self.tok.kind
    }

    fn at_eof(&self) -> bool {
        matches!(self.tok.kind, TokenKind::Eof)
    }

    fn at_punct(&self, p: Punct) -> bool {
        matches!(self.tok.kind, TokenKind::Punct(q) if q == p)
    }

    fn at_keyword(&self, k: Keyword) -> bool {
        matches!(self.tok.kind, TokenKind::Keyword(q) if q == k)
    }

    fn span(&self) -> Span {
        self.tok.span
    }

    fn prev_span(&self) -> Span {
        self.prev
    }

    /// Consumes the current token and returns it; at `Eof` it stays put.
    fn bump(&mut self) -> Token {
        if self.at_eof() {
            return self.tok.clone();
        }
        let next = self.pull();
        let tok = std::mem::replace(&mut self.tok, next);
        self.prev = tok.span;
        tok
    }

    fn err(&self, msg: impl Into<String>) -> RtlError {
        RtlError::new(RtlErrorKind::Parse, msg, self.span())
    }

    fn unsupported(&self, msg: impl Into<String>) -> RtlError {
        RtlError::new(RtlErrorKind::Unsupported, msg, self.span())
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.at_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> RtlResult<Span> {
        if self.at_punct(p) {
            Ok(self.bump().span)
        } else {
            Err(self.err(format!("expected `{p}`, found {}", self.peek())))
        }
    }

    fn eat_keyword(&mut self, k: Keyword) -> bool {
        if self.at_keyword(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, k: Keyword) -> RtlResult<Span> {
        if self.at_keyword(k) {
            Ok(self.bump().span)
        } else {
            Err(self.err(format!("expected `{}`, found {}", k.as_str(), self.peek())))
        }
    }

    fn expect_ident(&mut self) -> RtlResult<(String, Span)> {
        if !matches!(self.peek(), TokenKind::Ident(_)) {
            return Err(self.err(format!("expected identifier, found {}", self.peek())));
        }
        match self.bump() {
            Token {
                kind: TokenKind::Ident(name),
                span,
            } => Ok((name, span)),
            _ => unreachable!("peeked an identifier"),
        }
    }

    fn source_unit(&mut self) -> RtlResult<SourceUnit> {
        let mut modules = Vec::new();
        while !self.at_eof() {
            modules.push(self.module()?);
        }
        Ok(SourceUnit { modules })
    }

    fn module(&mut self) -> RtlResult<Module> {
        let start = self.expect_keyword(Keyword::Module)?;
        let (name, _) = self.expect_ident()?;
        let mut params = Vec::new();
        if self.eat_punct(Punct::Hash) {
            self.expect_punct(Punct::LParen)?;
            loop {
                // `parameter` keyword optional on continuation entries.
                self.eat_keyword(Keyword::Parameter);
                self.skip_optional_range()?;
                let (pname, pspan) = self.expect_ident()?;
                self.expect_punct(Punct::Assign)?;
                let value = self.expr()?;
                params.push(ParamDecl {
                    name: pname,
                    value,
                    local: false,
                    span: pspan,
                });
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            self.expect_punct(Punct::RParen)?;
        }
        let mut ports = Vec::new();
        if self.eat_punct(Punct::LParen) && !self.eat_punct(Punct::RParen) {
            loop {
                ports.push(self.ansi_port(&ports)?);
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            self.expect_punct(Punct::RParen)?;
        }
        self.expect_punct(Punct::Semi)?;
        let mut items = Vec::new();
        while !self.eat_keyword(Keyword::Endmodule) {
            if self.at_eof() {
                return Err(self.err(format!("missing `endmodule` for module `{name}`")));
            }
            items.push(self.item()?);
        }
        Ok(Module {
            name,
            params,
            ports,
            items,
            span: start.to(self.prev_span()),
        })
    }

    fn skip_optional_range(&mut self) -> RtlResult<Option<Range>> {
        if self.at_punct(Punct::LBracket) {
            Ok(Some(self.range()?))
        } else {
            Ok(None)
        }
    }

    fn range(&mut self) -> RtlResult<Range> {
        let start = self.expect_punct(Punct::LBracket)?;
        let msb = self.expr()?;
        self.expect_punct(Punct::Colon)?;
        let lsb = self.expr()?;
        let end = self.expect_punct(Punct::RBracket)?;
        Ok(Range {
            msb,
            lsb,
            span: start.to(end),
        })
    }

    fn ansi_port(&mut self, prev: &[Port]) -> RtlResult<Port> {
        let span = self.span();
        let (dir, explicit) = match self.peek() {
            TokenKind::Keyword(Keyword::Input) => {
                self.bump();
                (PortDir::Input, true)
            }
            TokenKind::Keyword(Keyword::Output) => {
                self.bump();
                (PortDir::Output, true)
            }
            TokenKind::Keyword(Keyword::Inout) => {
                return Err(self.unsupported("`inout` ports are outside the subset"))
            }
            _ => {
                // Direction inherited from the previous port (ANSI lists
                // allow `input a, b, c`).
                let Some(p) = prev.last() else {
                    return Err(self.err("port list must start with a direction"));
                };
                (p.dir, false)
            }
        };
        let mut kind = if self.eat_keyword(Keyword::Reg) {
            NetKind::Reg
        } else {
            self.eat_keyword(Keyword::Wire);
            NetKind::Wire
        };
        self.eat_keyword(Keyword::Signed); // accepted, treated unsigned
        let mut range = self.skip_optional_range()?;
        if !explicit && kind == NetKind::Wire && range.is_none() {
            // `input [3:0] a, b` gives b the same range/kind as a.
            if let Some(p) = prev.last() {
                range.clone_from(&p.range);
                kind = p.kind;
            }
        }
        let (name, nspan) = self.expect_ident()?;
        Ok(Port {
            name,
            dir,
            kind,
            range,
            span: span.to(nspan),
        })
    }

    fn item(&mut self) -> RtlResult<Item> {
        match self.peek() {
            TokenKind::Keyword(Keyword::Wire) => self.net_decl(NetKind::Wire),
            TokenKind::Keyword(Keyword::Reg) => self.net_decl(NetKind::Reg),
            TokenKind::Keyword(Keyword::Integer) => self.net_decl(NetKind::Integer),
            TokenKind::Keyword(Keyword::Parameter) => self.param_item(false),
            TokenKind::Keyword(Keyword::Localparam) => self.param_item(true),
            TokenKind::Keyword(Keyword::Assign) => self.assign_item(),
            TokenKind::Keyword(Keyword::Always) => self.always_item(),
            TokenKind::Keyword(Keyword::Initial) => {
                let span = self.bump().span;
                let body = self.stmt()?;
                let end = body.span();
                Ok(Item::Initial {
                    body,
                    span: span.to(end),
                })
            }
            TokenKind::Keyword(Keyword::Input | Keyword::Output) => Err(self.unsupported(
                "non-ANSI port declarations are outside the subset; declare ports in the header",
            )),
            TokenKind::Ident(_) => self.instance_item(),
            other => Err(self.err(format!("expected module item, found {other}"))),
        }
    }

    fn net_decl(&mut self, kind: NetKind) -> RtlResult<Item> {
        let start = self.bump().span;
        self.eat_keyword(Keyword::Signed);
        let range = if kind == NetKind::Integer {
            None
        } else {
            self.skip_optional_range()?
        };
        let mut names = Vec::new();
        loop {
            let (name, nspan) = self.expect_ident()?;
            let array = if self.at_punct(Punct::LBracket) {
                Some(self.range()?)
            } else {
                None
            };
            let init = if self.eat_punct(Punct::Assign) {
                Some(self.expr()?)
            } else {
                None
            };
            names.push(Declarator {
                name,
                array,
                init,
                span: nspan,
            });
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        let end = self.expect_punct(Punct::Semi)?;
        Ok(Item::Net(NetDecl {
            kind,
            range,
            names,
            span: start.to(end),
        }))
    }

    fn param_item(&mut self, local: bool) -> RtlResult<Item> {
        let start = self.bump().span;
        self.skip_optional_range()?;
        let (name, _) = self.expect_ident()?;
        self.expect_punct(Punct::Assign)?;
        let value = self.expr()?;
        let end = self.expect_punct(Punct::Semi)?;
        Ok(Item::Param(ParamDecl {
            name,
            value,
            local,
            span: start.to(end),
        }))
    }

    fn assign_item(&mut self) -> RtlResult<Item> {
        let start = self.bump().span;
        let lhs = self.lvalue()?;
        self.expect_punct(Punct::Assign)?;
        let rhs = self.expr()?;
        let end = self.expect_punct(Punct::Semi)?;
        Ok(Item::Assign {
            lhs,
            rhs,
            span: start.to(end),
        })
    }

    fn always_item(&mut self) -> RtlResult<Item> {
        let start = self.bump().span;
        self.expect_punct(Punct::At)?;
        let sensitivity = if self.eat_punct(Punct::Star) {
            Sensitivity::Star
        } else {
            self.expect_punct(Punct::LParen)?;
            if self.eat_punct(Punct::Star) {
                self.expect_punct(Punct::RParen)?;
                Sensitivity::Star
            } else {
                let mut items = Vec::new();
                loop {
                    let ispan = self.span();
                    let edge = if self.eat_keyword(Keyword::Posedge) {
                        Some(Edge::Pos)
                    } else if self.eat_keyword(Keyword::Negedge) {
                        Some(Edge::Neg)
                    } else {
                        None
                    };
                    let (signal, _) = self.expect_ident()?;
                    items.push(SensItem {
                        edge,
                        signal,
                        span: ispan.to(self.prev_span()),
                    });
                    // `or` keyword or comma separate entries.
                    if self.eat_keyword(Keyword::Or) || self.eat_punct(Punct::Comma) {
                        continue;
                    }
                    break;
                }
                self.expect_punct(Punct::RParen)?;
                Sensitivity::List(items)
            }
        };
        let body = self.stmt()?;
        let end = body.span();
        Ok(Item::Always(AlwaysBlock {
            sensitivity,
            body,
            span: start.to(end),
        }))
    }

    fn named_conns(&mut self) -> RtlResult<Vec<PortConn>> {
        let mut conns = Vec::new();
        self.expect_punct(Punct::LParen)?;
        if self.eat_punct(Punct::RParen) {
            return Ok(conns);
        }
        loop {
            let start = self.expect_punct(Punct::Dot)?;
            let (port, _) = self.expect_ident()?;
            self.expect_punct(Punct::LParen)?;
            let expr = if self.at_punct(Punct::RParen) {
                None
            } else {
                Some(self.expr()?)
            };
            let end = self.expect_punct(Punct::RParen)?;
            conns.push(PortConn {
                port,
                expr,
                span: start.to(end),
            });
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::RParen)?;
        Ok(conns)
    }

    fn instance_item(&mut self) -> RtlResult<Item> {
        let start = self.span();
        let (module, _) = self.expect_ident()?;
        let params = if self.eat_punct(Punct::Hash) {
            self.named_conns()?
        } else {
            Vec::new()
        };
        let (name, _) = self.expect_ident()?;
        let conns = self.named_conns()?;
        let end = self.expect_punct(Punct::Semi)?;
        Ok(Item::Instance(Instance {
            module,
            name,
            params,
            conns,
            span: start.to(end),
        }))
    }

    /// Parses one statement one nesting level deeper, or fails with
    /// [`RtlErrorKind::Limit`] past [`MAX_STMT_DEPTH`].
    fn stmt(&mut self) -> RtlResult<Stmt> {
        if self.stmt_depth >= MAX_STMT_DEPTH {
            return Err(RtlError::new(
                RtlErrorKind::Limit,
                format!("statement nesting deeper than {MAX_STMT_DEPTH} levels"),
                self.span(),
            ));
        }
        self.stmt_depth += 1;
        let s = self.stmt_level();
        self.stmt_depth -= 1;
        s
    }

    /// Dispatches on the statement's first token. Each kind is its own
    /// function, so a nesting level's stack holds only the locals of the
    /// kinds on its path: [`MAX_STMT_DEPTH`] is sized against that.
    fn stmt_level(&mut self) -> RtlResult<Stmt> {
        match self.peek() {
            TokenKind::Keyword(Keyword::Begin) => self.block_stmt(),
            TokenKind::Keyword(Keyword::If) => self.if_stmt(),
            TokenKind::Keyword(Keyword::Case) => self.case_stmt(CaseKind::Case),
            TokenKind::Keyword(Keyword::Casez) => self.case_stmt(CaseKind::Casez),
            TokenKind::Keyword(Keyword::Casex) => self.case_stmt(CaseKind::Casex),
            TokenKind::Keyword(Keyword::For) => self.for_stmt(),
            TokenKind::Punct(Punct::Semi) => {
                let span = self.bump().span;
                Ok(Stmt::Null { span })
            }
            TokenKind::SysName(_) => self.system_task(),
            TokenKind::Punct(Punct::Hash) => {
                Err(self.unsupported("delay controls (`#`) are outside the subset"))
            }
            _ => self.assign_stmt(),
        }
    }

    fn block_stmt(&mut self) -> RtlResult<Stmt> {
        let start = self.bump().span;
        // Optional named block `begin : name`.
        if self.eat_punct(Punct::Colon) {
            self.expect_ident()?;
        }
        let mut stmts = Vec::new();
        while !self.eat_keyword(Keyword::End) {
            if self.at_eof() {
                return Err(self.err("missing `end`"));
            }
            stmts.push(self.stmt()?);
        }
        Ok(Stmt::Block {
            stmts,
            span: start.to(self.prev_span()),
        })
    }

    fn if_stmt(&mut self) -> RtlResult<Stmt> {
        let start = self.bump().span;
        self.expect_punct(Punct::LParen)?;
        let cond = self.expr()?;
        self.expect_punct(Punct::RParen)?;
        let then_stmt = Box::new(self.stmt()?);
        let else_stmt = if self.eat_keyword(Keyword::Else) {
            Some(Box::new(self.stmt()?))
        } else {
            None
        };
        let end = else_stmt
            .as_ref()
            .map_or_else(|| then_stmt.span(), |e| e.span());
        Ok(Stmt::If {
            cond,
            then_stmt,
            else_stmt,
            span: start.to(end),
        })
    }

    fn case_stmt(&mut self, kind: CaseKind) -> RtlResult<Stmt> {
        let start = self.bump().span;
        self.expect_punct(Punct::LParen)?;
        let selector = self.expr()?;
        self.expect_punct(Punct::RParen)?;
        let mut arms = Vec::new();
        while !self.eat_keyword(Keyword::Endcase) {
            if self.at_eof() {
                return Err(self.err("missing `endcase`"));
            }
            let aspan = self.span();
            let labels = if self.eat_keyword(Keyword::Default) {
                self.eat_punct(Punct::Colon);
                Vec::new()
            } else {
                let mut labels = vec![self.expr()?];
                while self.eat_punct(Punct::Comma) {
                    labels.push(self.expr()?);
                }
                self.expect_punct(Punct::Colon)?;
                labels
            };
            let body = self.stmt()?;
            let end = body.span();
            arms.push(CaseArm {
                labels,
                body,
                span: aspan.to(end),
            });
        }
        Ok(Stmt::Case {
            kind,
            selector,
            arms,
            span: start.to(self.prev_span()),
        })
    }

    fn for_stmt(&mut self) -> RtlResult<Stmt> {
        let start = self.bump().span;
        self.expect_punct(Punct::LParen)?;
        let (var, _) = self.expect_ident()?;
        self.expect_punct(Punct::Assign)?;
        let init = self.expr()?;
        self.expect_punct(Punct::Semi)?;
        let cond = self.expr()?;
        self.expect_punct(Punct::Semi)?;
        let (var2, _) = self.expect_ident()?;
        if var2 != var {
            return Err(self.unsupported("for-loop step must assign the loop variable"));
        }
        self.expect_punct(Punct::Assign)?;
        let step = self.expr()?;
        self.expect_punct(Punct::RParen)?;
        let body = Box::new(self.stmt()?);
        let end = body.span();
        Ok(Stmt::For {
            var,
            init,
            cond,
            step,
            body,
            span: start.to(end),
        })
    }

    /// System tasks (`$display` etc.) are parsed and discarded.
    fn system_task(&mut self) -> RtlResult<Stmt> {
        let span = self.bump().span;
        if self.eat_punct(Punct::LParen) {
            let mut depth = 1u32;
            loop {
                match self.peek() {
                    TokenKind::Punct(Punct::LParen) => depth += 1,
                    TokenKind::Punct(Punct::RParen) => {
                        depth -= 1;
                        if depth == 0 {
                            self.bump();
                            break;
                        }
                    }
                    TokenKind::Eof => return Err(self.err("unterminated system call")),
                    _ => {}
                }
                self.bump();
            }
        }
        let end = self.expect_punct(Punct::Semi)?;
        Ok(Stmt::Null { span: span.to(end) })
    }

    fn assign_stmt(&mut self) -> RtlResult<Stmt> {
        let lhs = self.lvalue()?;
        let start = lhs.span();
        if self.eat_punct(Punct::Assign) {
            let rhs = self.expr()?;
            let end = self.expect_punct(Punct::Semi)?;
            Ok(Stmt::Blocking {
                lhs,
                rhs,
                span: start.to(end),
            })
        } else if self.eat_punct(Punct::LtEq) {
            let rhs = self.expr()?;
            let end = self.expect_punct(Punct::Semi)?;
            Ok(Stmt::NonBlocking {
                lhs,
                rhs,
                span: start.to(end),
            })
        } else {
            Err(self.err(format!(
                "expected `=` or `<=` in assignment, found {}",
                self.peek()
            )))
        }
    }

    /// Parses an lvalue: identifier, bit/part select, or concatenation of
    /// lvalues.
    fn lvalue(&mut self) -> RtlResult<Expr> {
        if self.at_punct(Punct::LBrace) {
            let start = self.bump().span;
            let mut parts = vec![self.lvalue()?];
            while self.eat_punct(Punct::Comma) {
                parts.push(self.lvalue()?);
            }
            let end = self.expect_punct(Punct::RBrace)?;
            return Ok(Expr::Concat {
                parts,
                span: start.to(end),
            });
        }
        let (name, span) = self.expect_ident()?;
        self.selects_on(name, span)
    }

    /// Parses optional `[...]` selects after an identifier.
    fn selects_on(&mut self, base: String, span: Span) -> RtlResult<Expr> {
        if !self.eat_punct(Punct::LBracket) {
            return Ok(Expr::Ident { name: base, span });
        }
        let first = self.expr()?;
        if self.eat_punct(Punct::Colon) {
            let lsb = self.expr()?;
            let end = self.expect_punct(Punct::RBracket)?;
            Ok(Expr::PartSelect {
                base,
                msb: Box::new(first),
                lsb: Box::new(lsb),
                span: span.to(end),
            })
        } else if self.eat_punct(Punct::PlusColon) {
            let width = self.expr()?;
            let end = self.expect_punct(Punct::RBracket)?;
            Ok(Expr::IndexedPartSelect {
                base,
                start: Box::new(first),
                width: Box::new(width),
                ascending: true,
                span: span.to(end),
            })
        } else if self.eat_punct(Punct::MinusColon) {
            let width = self.expr()?;
            let end = self.expect_punct(Punct::RBracket)?;
            Ok(Expr::IndexedPartSelect {
                base,
                start: Box::new(first),
                width: Box::new(width),
                ascending: false,
                span: span.to(end),
            })
        } else {
            let end = self.expect_punct(Punct::RBracket)?;
            Ok(Expr::Index {
                base,
                index: Box::new(first),
                span: span.to(end),
            })
        }
    }

    /// Pratt expression parser entry point.
    fn expr(&mut self) -> RtlResult<Expr> {
        self.ternary()
    }

    /// Runs `f` one expression nesting level deeper, or fails with
    /// [`RtlErrorKind::Limit`] past [`MAX_EXPR_DEPTH`].
    fn nested(&mut self, f: impl FnOnce(&mut Self) -> RtlResult<Expr>) -> RtlResult<Expr> {
        if self.depth >= MAX_EXPR_DEPTH {
            return Err(RtlError::new(
                RtlErrorKind::Limit,
                format!("expression nesting deeper than {MAX_EXPR_DEPTH} levels"),
                self.span(),
            ));
        }
        self.depth += 1;
        let e = f(self);
        self.depth -= 1;
        e
    }

    fn ternary(&mut self) -> RtlResult<Expr> {
        self.nested(Parser::ternary_level)
    }

    fn ternary_level(&mut self) -> RtlResult<Expr> {
        let cond = self.binary(0)?;
        if self.eat_punct(Punct::Question) {
            let then_expr = self.ternary()?;
            self.expect_punct(Punct::Colon)?;
            let else_expr = self.ternary()?;
            let span = cond.span().to(else_expr.span());
            Ok(Expr::Ternary {
                cond: Box::new(cond),
                then_expr: Box::new(then_expr),
                else_expr: Box::new(else_expr),
                span,
            })
        } else {
            Ok(cond)
        }
    }

    fn binop_at(&self, min_prec: u8) -> Option<(BinaryOp, u8)> {
        let (op, prec) = match self.peek() {
            TokenKind::Punct(Punct::PipePipe) => (BinaryOp::LogicalOr, 1),
            TokenKind::Punct(Punct::AmpAmp) => (BinaryOp::LogicalAnd, 2),
            TokenKind::Punct(Punct::Pipe) => (BinaryOp::Or, 3),
            TokenKind::Punct(Punct::Caret) => (BinaryOp::Xor, 4),
            TokenKind::Punct(Punct::TildeCaret) => (BinaryOp::Xnor, 4),
            TokenKind::Punct(Punct::Amp) => (BinaryOp::And, 5),
            TokenKind::Punct(Punct::EqEq) => (BinaryOp::Eq, 6),
            TokenKind::Punct(Punct::NotEq) => (BinaryOp::Ne, 6),
            TokenKind::Punct(Punct::CaseEq) => (BinaryOp::CaseEq, 6),
            TokenKind::Punct(Punct::CaseNotEq) => (BinaryOp::CaseNe, 6),
            TokenKind::Punct(Punct::Lt) => (BinaryOp::Lt, 7),
            TokenKind::Punct(Punct::LtEq) => (BinaryOp::Le, 7),
            TokenKind::Punct(Punct::Gt) => (BinaryOp::Gt, 7),
            TokenKind::Punct(Punct::GtEq) => (BinaryOp::Ge, 7),
            TokenKind::Punct(Punct::Shl) => (BinaryOp::Shl, 8),
            TokenKind::Punct(Punct::Shr) => (BinaryOp::Shr, 8),
            TokenKind::Punct(Punct::AShr) => (BinaryOp::AShr, 8),
            TokenKind::Punct(Punct::Plus) => (BinaryOp::Add, 9),
            TokenKind::Punct(Punct::Minus) => (BinaryOp::Sub, 9),
            TokenKind::Punct(Punct::Star) => (BinaryOp::Mul, 10),
            TokenKind::Punct(Punct::Slash) => (BinaryOp::Div, 10),
            TokenKind::Punct(Punct::Percent) => (BinaryOp::Mod, 10),
            TokenKind::Punct(Punct::Star2) => (BinaryOp::Pow, 11),
            _ => return None,
        };
        (prec >= min_prec).then_some((op, prec))
    }

    fn binary(&mut self, min_prec: u8) -> RtlResult<Expr> {
        let mut lhs = self.unary()?;
        while let Some((op, prec)) = self.binop_at(min_prec) {
            self.bump();
            let rhs = self.binary(prec + 1)?;
            let span = lhs.span().to(rhs.span());
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> RtlResult<Expr> {
        let span = self.span();
        let op = match self.peek() {
            TokenKind::Punct(Punct::Bang) => Some(UnaryOp::LogicalNot),
            TokenKind::Punct(Punct::Tilde) => Some(UnaryOp::Not),
            TokenKind::Punct(Punct::Minus) => Some(UnaryOp::Neg),
            TokenKind::Punct(Punct::Plus) => Some(UnaryOp::Plus),
            TokenKind::Punct(Punct::Amp) => Some(UnaryOp::RedAnd),
            TokenKind::Punct(Punct::Pipe) => Some(UnaryOp::RedOr),
            TokenKind::Punct(Punct::Caret) => Some(UnaryOp::RedXor),
            TokenKind::Punct(Punct::TildeCaret) => Some(UnaryOp::RedXnor),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let operand = self.nested(Parser::unary)?;
            let espan = span.to(operand.span());
            return Ok(Expr::Unary {
                op,
                operand: Box::new(operand),
                span: espan,
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> RtlResult<Expr> {
        match self.peek() {
            TokenKind::Number { .. } | TokenKind::Ident(_) => {
                let Token { kind, span } = self.bump();
                match kind {
                    TokenKind::Number { value, sized } => Ok(Expr::Number { value, sized, span }),
                    TokenKind::Ident(name) => self.selects_on(name, span),
                    _ => unreachable!("peeked a number or an identifier"),
                }
            }
            TokenKind::Punct(Punct::LParen) => {
                self.bump();
                let e = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                Ok(e)
            }
            TokenKind::Punct(Punct::LBrace) => self.braces(),
            other => Err(self.err(format!("expected expression, found {other}"))),
        }
    }

    /// A concatenation `{a, b}` or replication `{n{a, b}}`. Kept out of
    /// [`Parser::primary`], and split into small functions, so that the
    /// stack frame every nesting level pays for stays small.
    fn braces(&mut self) -> RtlResult<Expr> {
        let start = self.bump().span;
        let first = self.expr()?;
        if self.eat_punct(Punct::LBrace) {
            // Replication {count{expr, ...}}.
            let head = self.expr()?;
            let mut parts = self.expr_list(head)?;
            self.expect_punct(Punct::RBrace)?;
            let end = self.expect_punct(Punct::RBrace)?;
            let span = start.to(end);
            let inner = if parts.len() == 1 {
                parts.pop().expect("one element")
            } else {
                Expr::Concat { parts, span }
            };
            Ok(Expr::Repeat {
                count: Box::new(first),
                expr: Box::new(inner),
                span,
            })
        } else {
            let parts = self.expr_list(first)?;
            let end = self.expect_punct(Punct::RBrace)?;
            Ok(Expr::Concat {
                parts,
                span: start.to(end),
            })
        }
    }

    /// `first` followed by any further comma-separated expressions.
    fn expr_list(&mut self, first: Expr) -> RtlResult<Vec<Expr>> {
        let mut parts = vec![first];
        while self.eat_punct(Punct::Comma) {
            parts.push(self.expr()?);
        }
        Ok(parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(src: &str) -> SourceUnit {
        parse(FileId(0), src).expect("parse ok")
    }

    fn perr(src: &str) -> RtlError {
        parse(FileId(0), src).expect_err("expected parse failure")
    }

    #[test]
    fn empty_module() {
        let u = p("module m; endmodule");
        assert_eq!(u.modules.len(), 1);
        assert_eq!(u.modules[0].name, "m");
        assert!(u.modules[0].ports.is_empty());
    }

    #[test]
    fn ansi_ports_with_ranges() {
        let u = p("module m(input wire clk, input [7:0] d, output reg [7:0] q); endmodule");
        let m = &u.modules[0];
        assert_eq!(m.ports.len(), 3);
        assert_eq!(m.ports[0].dir, PortDir::Input);
        assert!(m.ports[0].range.is_none());
        assert!(m.ports[1].range.is_some());
        assert_eq!(m.ports[2].kind, NetKind::Reg);
        assert_eq!(m.ports[2].dir, PortDir::Output);
    }

    #[test]
    fn port_direction_inheritance() {
        let u = p("module m(input [3:0] a, b, output wire y); endmodule");
        let m = &u.modules[0];
        assert_eq!(m.ports[1].dir, PortDir::Input);
        assert!(m.ports[1].range.is_some());
        assert_eq!(m.ports[2].dir, PortDir::Output);
    }

    #[test]
    fn header_parameters() {
        let u = p("module m #(parameter W = 8, DEPTH = 16)(input [W-1:0] d); endmodule");
        let m = &u.modules[0];
        assert_eq!(m.params.len(), 2);
        assert_eq!(m.params[0].name, "W");
        assert_eq!(m.params[1].name, "DEPTH");
    }

    #[test]
    fn declarations() {
        let u = p("module m; wire [3:0] a, b; reg [7:0] mem [0:255]; integer i; localparam X = 4; endmodule");
        let m = &u.modules[0];
        assert_eq!(m.items.len(), 4);
        match &m.items[0] {
            Item::Net(d) => {
                assert_eq!(d.kind, NetKind::Wire);
                assert_eq!(d.names.len(), 2);
            }
            other => panic!("{other:?}"),
        }
        match &m.items[1] {
            Item::Net(d) => {
                assert_eq!(d.kind, NetKind::Reg);
                assert!(d.names[0].array.is_some());
            }
            other => panic!("{other:?}"),
        }
        match &m.items[3] {
            Item::Param(p) => assert!(p.local),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wire_initializer() {
        let u = p("module m; wire [3:0] a = 4'd7; endmodule");
        match &u.modules[0].items[0] {
            Item::Net(d) => assert!(d.names[0].init.is_some()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn assign_and_expressions() {
        let u = p(
            "module m(input [7:0] a, b, output [7:0] y); assign y = (a + b) * 8'd2 ^ ~a; endmodule",
        );
        match &u.modules[0].items[0] {
            Item::Assign { rhs, .. } => match rhs {
                Expr::Binary {
                    op: BinaryOp::Xor, ..
                } => {}
                other => panic!("precedence wrong: {other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn precedence_mul_over_add() {
        let u = p("module m(output [7:0] y); assign y = 1 + 2 * 3; endmodule");
        match &u.modules[0].items[0] {
            Item::Assign {
                rhs:
                    Expr::Binary {
                        op: BinaryOp::Add,
                        rhs,
                        ..
                    },
                ..
            } => {
                assert!(matches!(
                    **rhs,
                    Expr::Binary {
                        op: BinaryOp::Mul,
                        ..
                    }
                ));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn always_with_async_reset_sensitivity() {
        let u = p("module m(input clk, rst_n); reg [3:0] q; always @(posedge clk or negedge rst_n) begin if (!rst_n) q <= 4'd0; else q <= q + 4'd1; end endmodule");
        let m = &u.modules[0];
        let a = m.always_blocks().next().expect("always");
        match &a.sensitivity {
            Sensitivity::List(items) => {
                assert_eq!(items.len(), 2);
                assert_eq!(items[0].edge, Some(Edge::Pos));
                assert_eq!(items[0].signal, "clk");
                assert_eq!(items[1].edge, Some(Edge::Neg));
                assert_eq!(items[1].signal, "rst_n");
            }
            other => panic!("{other:?}"),
        }
        match &a.body {
            Stmt::Block { stmts, .. } => {
                assert!(matches!(stmts[0], Stmt::If { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn comma_separated_sensitivity() {
        let u = p("module m(input a, b, output reg y); always @(a, b) y = a & b; endmodule");
        let blk = u.modules[0].always_blocks().next().expect("a");
        match &blk.sensitivity {
            Sensitivity::List(items) => assert_eq!(items.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn always_star_forms() {
        for src in [
            "module m(input a, output reg y); always @* y = a; endmodule",
            "module m(input a, output reg y); always @(*) y = a; endmodule",
        ] {
            let u = p(src);
            let blk = u.modules[0].always_blocks().next().expect("a");
            assert_eq!(blk.sensitivity, Sensitivity::Star);
        }
    }

    #[test]
    fn case_statement() {
        let u = p("module m(input [1:0] s, output reg [3:0] y); always @* case (s) 2'd0: y = 4'd1; 2'd1, 2'd2: y = 4'd2; default: y = 4'd0; endcase endmodule");
        let blk = u.modules[0].always_blocks().next().expect("a");
        match &blk.body {
            Stmt::Case { kind, arms, .. } => {
                assert_eq!(*kind, CaseKind::Case);
                assert_eq!(arms.len(), 3);
                assert_eq!(arms[1].labels.len(), 2);
                assert!(arms[2].labels.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn casez_with_wildcards() {
        let u = p("module m(input [3:0] s, output reg y); always @* casez (s) 4'b1???: y = 1'b1; default: y = 1'b0; endcase endmodule");
        let blk = u.modules[0].always_blocks().next().expect("a");
        match &blk.body {
            Stmt::Case { kind, .. } => assert_eq!(*kind, CaseKind::Casez),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn for_loop() {
        let u = p("module m(output reg [7:0] y); integer i; always @* begin y = 8'd0; for (i = 0; i < 8; i = i + 1) y = y + 8'd1; end endmodule");
        let blk = u.modules[0].always_blocks().next().expect("a");
        match &blk.body {
            Stmt::Block { stmts, .. } => assert!(matches!(stmts[1], Stmt::For { .. })),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn instance_with_params() {
        let u = p("module top(input clk); sub #(.W(8)) u_sub (.clk(clk), .q()); endmodule");
        match &u.modules[0].items[0] {
            Item::Instance(i) => {
                assert_eq!(i.module, "sub");
                assert_eq!(i.name, "u_sub");
                assert_eq!(i.params.len(), 1);
                assert_eq!(i.conns.len(), 2);
                assert!(i.conns[1].expr.is_none());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn concat_repeat_selects() {
        let u = p("module m(input [7:0] a, output [15:0] y, output b); assign y = {a, {2{a[3:0]}}}; assign b = a[a[0]]; endmodule");
        match &u.modules[0].items[0] {
            Item::Assign {
                rhs: Expr::Concat { parts, .. },
                ..
            } => {
                assert_eq!(parts.len(), 2);
                assert!(matches!(parts[1], Expr::Repeat { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn indexed_part_select() {
        let u = p("module m(input [31:0] a, input [1:0] s, output [7:0] y); assign y = a[s*8 +: 8]; endmodule");
        match &u.modules[0].items[0] {
            Item::Assign {
                rhs: Expr::IndexedPartSelect { ascending, .. },
                ..
            } => {
                assert!(ascending);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn concat_lvalue() {
        let u = p("module m(input [3:0] a, b, output reg c, output reg [3:0] s); always @* {c, s} = a + b; endmodule");
        let blk = u.modules[0].always_blocks().next().expect("a");
        match &blk.body {
            Stmt::Blocking {
                lhs: Expr::Concat { parts, .. },
                ..
            } => {
                assert_eq!(parts.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nonblocking_vs_comparison() {
        // `<=` in a condition is comparison; after an lvalue it's NBA.
        let u = p("module m(input clk, input [3:0] a, output reg y); always @(posedge clk) if (a <= 4'd3) y <= 1'b1; endmodule");
        let blk = u.modules[0].always_blocks().next().expect("a");
        match &blk.body {
            Stmt::If {
                cond, then_stmt, ..
            } => {
                assert!(matches!(
                    cond,
                    Expr::Binary {
                        op: BinaryOp::Le,
                        ..
                    }
                ));
                assert!(matches!(**then_stmt, Stmt::NonBlocking { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ternary_right_associative() {
        let u =
            p("module m(input a, b, output y); assign y = a ? 1'b0 : b ? 1'b1 : 1'b0; endmodule");
        match &u.modules[0].items[0] {
            Item::Assign {
                rhs: Expr::Ternary { else_expr, .. },
                ..
            } => {
                assert!(matches!(**else_expr, Expr::Ternary { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn system_task_ignored() {
        let u =
            p("module m(input clk); always @(posedge clk) $display(\"tick %d\", clk); endmodule");
        let blk = u.modules[0].always_blocks().next().expect("a");
        match &blk.body {
            Stmt::Null { .. } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn initial_block() {
        let u = p("module m; reg [3:0] q; initial q = 4'd5; endmodule");
        assert!(matches!(u.modules[0].items[1], Item::Initial { .. }));
    }

    #[test]
    fn unsupported_constructs_diagnosed() {
        assert_eq!(
            perr("module m(inout w); endmodule").kind,
            RtlErrorKind::Unsupported
        );
        assert_eq!(
            perr("module m(input clk); always @(posedge clk) #5 q <= 1; endmodule").kind,
            RtlErrorKind::Unsupported
        );
        assert_eq!(
            perr("module m; input clk; endmodule").kind,
            RtlErrorKind::Unsupported
        );
    }

    #[test]
    fn syntax_errors_have_spans() {
        let e = perr("module m(input a); assign ; endmodule");
        assert_eq!(e.kind, RtlErrorKind::Parse);
        assert!(e.span.start > 0);
    }

    #[test]
    fn missing_endmodule() {
        let e = perr("module m(input a);");
        assert!(e.message.contains("endmodule"));
    }

    #[test]
    fn two_modules() {
        let u = p("module a; endmodule module b; endmodule");
        assert_eq!(u.modules.len(), 2);
        assert!(u.module("a").is_some());
        assert!(u.module("b").is_some());
        assert!(u.module("c").is_none());
    }

    #[test]
    fn a_lex_error_outranks_an_earlier_parse_error() {
        // The parser fails at `;` long before the stream reaches `\x01`.
        let e = perr("module m(input a); assign ; endmodule\nwire \x01;");
        assert_eq!(e.kind, RtlErrorKind::Lex, "{e}");
        assert_eq!(e.message, "unexpected character `\u{1}`");
        assert_eq!((e.span.start, e.span.end), (43, 44));
    }

    #[test]
    fn a_lex_error_outranks_an_earlier_limit_error() {
        let deep = format!("{}a{}", "(".repeat(200), ")".repeat(200));
        let src = format!("module m(input a, output y); assign y = {deep}; endmodule 4'h");
        assert_eq!(perr(&src[..src.len() - 4]).kind, RtlErrorKind::Limit);
        let e = perr(&src);
        assert_eq!(e.kind, RtlErrorKind::Lex, "{e}");
        assert_eq!(e.message, "based literal has no digits");
    }

    #[test]
    fn token_count_includes_eof_and_survives_a_parse_error() {
        let count = |src: &str| {
            let recorder = soccar_obs::Recorder::enabled();
            let _ = parse_traced(FileId(0), src, &recorder);
            recorder.counter_value("rtl.tokens")
        };
        assert_eq!(count("module m; endmodule"), 5);
        assert_eq!(count(""), 1);
        // A parse error still counts the whole file; a lex error counts
        // nothing.
        assert_eq!(count("module m; assign ; endmodule wire w;"), 10);
        assert_eq!(count("module m; assign ; endmodule \x01"), 0);
    }

    #[test]
    fn named_begin_block() {
        let u = p("module m(input clk); reg q; always @(posedge clk) begin : blk q <= 1'b1; end endmodule");
        assert_eq!(u.modules.len(), 1);
    }
}
