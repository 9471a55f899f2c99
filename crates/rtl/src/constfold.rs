//! Constant expression evaluation over a parameter environment.
//!
//! Used during elaboration for parameter values, packed/unpacked ranges,
//! replication counts and case labels. The evaluator implements the same
//! operator semantics as [`crate::value::LogicVec`]; any reference to a
//! non-parameter identifier is an error.

use std::collections::HashMap;

use crate::ast::{BinaryOp, Expr, UnaryOp};
use crate::error::{RtlError, RtlErrorKind, RtlResult};
use crate::span::Span;
use crate::value::LogicVec;

/// The widest expression and the widest net elaboration accepts, in
/// bits: the same bound as a literal's ([`crate::lexer::MAX_LITERAL_BITS`]).
/// Expression widths are computed in checked `u64` arithmetic, so a
/// replication or concatenation past it is an [`RtlErrorKind::Limit`]
/// error, never a wrapped or truncated width.
pub const MAX_EXPR_BITS: u32 = 1 << 20;

/// `bits` as an expression width: a [`RtlErrorKind::Limit`] error if the
/// checked arithmetic that computed it overflowed (`None`) or it is
/// wider than [`MAX_EXPR_BITS`].
pub(crate) fn expr_width(bits: Option<u64>, span: Span) -> RtlResult<u32> {
    match bits {
        Some(w) if w <= u64::from(MAX_EXPR_BITS) => Ok(w as u32),
        _ => Err(RtlError::new(
            RtlErrorKind::Limit,
            format!("expression wider than {MAX_EXPR_BITS} bits"),
            span,
        )),
    }
}

/// A constant-evaluation environment: parameter name → value.
#[derive(Debug, Clone, Default)]
pub struct ConstEnv {
    values: HashMap<String, LogicVec>,
}

impl ConstEnv {
    /// Creates an empty environment.
    #[must_use]
    pub fn new() -> ConstEnv {
        ConstEnv::default()
    }

    /// Binds `name` to `value`, replacing any previous binding.
    pub fn bind(&mut self, name: impl Into<String>, value: LogicVec) {
        self.values.insert(name.into(), value);
    }

    /// Looks up a binding.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&LogicVec> {
        self.values.get(name)
    }

    /// Iterates over all bindings (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &LogicVec)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v))
    }
}

/// Evaluates a constant expression.
///
/// # Errors
///
/// Returns a [`RtlErrorKind::Semantic`] error if the expression references
/// an identifier that is not bound in `env`, or uses a construct that is
/// not constant (selects on non-parameters, memory reads).
pub fn eval_const(expr: &Expr, env: &ConstEnv) -> RtlResult<LogicVec> {
    match expr {
        Expr::Number { value, .. } => Ok(value.clone()),
        Expr::Ident { name, span } => env.get(name).cloned().ok_or_else(|| {
            RtlError::new(
                RtlErrorKind::Semantic,
                format!("`{name}` is not a constant in this context"),
                *span,
            )
        }),
        Expr::Unary { op, operand, .. } => {
            let v = eval_const(operand, env)?;
            Ok(match op {
                UnaryOp::Not => v.not(),
                UnaryOp::LogicalNot => v.logical_not(),
                UnaryOp::Neg => v.neg(),
                UnaryOp::Plus => v,
                UnaryOp::RedAnd => v.reduce_and(),
                UnaryOp::RedOr => v.reduce_or(),
                UnaryOp::RedXor => v.reduce_xor(),
                UnaryOp::RedNand => v.reduce_and().not(),
                UnaryOp::RedNor => v.reduce_or().not(),
                UnaryOp::RedXnor => v.reduce_xor().not(),
            })
        }
        Expr::Binary { op, lhs, rhs, span } => {
            let a = eval_const(lhs, env)?;
            let b = eval_const(rhs, env)?;
            Ok(match op {
                BinaryOp::Add => a.add(&b),
                BinaryOp::Sub => a.sub(&b),
                BinaryOp::Mul => a.mul(&b),
                BinaryOp::Div => a.udiv(&b),
                BinaryOp::Mod => a.urem(&b),
                BinaryOp::Pow => {
                    let base = a.to_u64().ok_or_else(|| {
                        RtlError::new(RtlErrorKind::Semantic, "non-constant power base", *span)
                    })?;
                    let exp = b.to_u64().ok_or_else(|| {
                        RtlError::new(RtlErrorKind::Semantic, "non-constant power exponent", *span)
                    })?;
                    let mut acc: u64 = 1;
                    for _ in 0..exp {
                        acc = acc.wrapping_mul(base);
                    }
                    LogicVec::from_u64(a.width().max(32), acc)
                }
                BinaryOp::And => a.and(&b),
                BinaryOp::Or => a.or(&b),
                BinaryOp::Xor => a.xor(&b),
                BinaryOp::Xnor => a.xor(&b).not(),
                BinaryOp::LogicalAnd => a.logical_and(&b),
                BinaryOp::LogicalOr => a.logical_or(&b),
                BinaryOp::Eq => a.eq_logic(&b),
                BinaryOp::Ne => a.ne_logic(&b),
                BinaryOp::CaseEq => a.case_eq(&b),
                BinaryOp::CaseNe => a.case_eq(&b).logical_not(),
                BinaryOp::Lt => a.ult(&b),
                BinaryOp::Le => a.ule(&b),
                BinaryOp::Gt => b.ult(&a),
                BinaryOp::Ge => b.ule(&a),
                BinaryOp::Shl => a.shl(&b),
                BinaryOp::Shr => a.lshr(&b),
                BinaryOp::AShr => a.ashr(&b),
            })
        }
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
            span,
        } => {
            let c = eval_const(cond, env)?;
            match c.truthy() {
                Some(true) => eval_const(then_expr, env),
                Some(false) => eval_const(else_expr, env),
                None => Err(RtlError::new(
                    RtlErrorKind::Semantic,
                    "unknown condition in constant expression",
                    *span,
                )),
            }
        }
        Expr::Concat { parts, span } => {
            let mut vals = parts
                .iter()
                .map(|p| eval_const(p, env))
                .collect::<RtlResult<Vec<_>>>()?;
            let mut acc = vals.remove(0);
            for v in vals {
                expr_width(
                    u64::from(acc.width()).checked_add(u64::from(v.width())),
                    *span,
                )?;
                acc = acc.concat(&v);
            }
            Ok(acc)
        }
        Expr::Repeat { count, expr, span } => {
            let c = eval_const(count, env)?
                .to_u64()
                .filter(|c| *c > 0)
                .ok_or_else(|| {
                    RtlError::new(
                        RtlErrorKind::Semantic,
                        "replication count must be a positive constant",
                        *span,
                    )
                })?;
            let v = eval_const(expr, env)?;
            expr_width(u64::from(v.width()).checked_mul(c), *span)?;
            // The count is at most the checked width.
            Ok(v.replicate(c as u32))
        }
        Expr::Index { span, .. }
        | Expr::PartSelect { span, .. }
        | Expr::IndexedPartSelect { span, .. } => Err(RtlError::new(
            RtlErrorKind::Semantic,
            "selects are not supported in constant expressions",
            *span,
        )),
    }
}

/// Evaluates a constant expression to a `u64`.
///
/// # Errors
///
/// As [`eval_const`], plus an error if the result has unknown bits or does
/// not fit in 64 bits.
pub fn eval_const_u64(expr: &Expr, env: &ConstEnv) -> RtlResult<u64> {
    let v = eval_const(expr, env)?;
    v.to_u64().ok_or_else(|| {
        RtlError::new(
            RtlErrorKind::Semantic,
            "constant expression has unknown bits or exceeds 64 bits",
            expr.span(),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::span::FileId;

    fn expr_of(src: &str) -> Expr {
        // Wrap in a module with a localparam so we can reuse the parser.
        let unit = parse(
            FileId(0),
            &format!("module m; localparam P = {src}; endmodule"),
        )
        .expect("parse");
        match &unit.modules[0].items[0] {
            crate::ast::Item::Param(p) => p.value.clone(),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn arithmetic_folding() {
        let env = ConstEnv::new();
        assert_eq!(eval_const_u64(&expr_of("2 + 3 * 4"), &env).expect("ok"), 14);
        assert_eq!(
            eval_const_u64(&expr_of("(1 << 4) - 1"), &env).expect("ok"),
            15
        );
        assert_eq!(eval_const_u64(&expr_of("2 ** 10"), &env).expect("ok"), 1024);
    }

    #[test]
    fn parameters_resolve() {
        let mut env = ConstEnv::new();
        env.bind("W", LogicVec::from_u64(32, 8));
        assert_eq!(eval_const_u64(&expr_of("W - 1"), &env).expect("ok"), 7);
        assert_eq!(eval_const_u64(&expr_of("W * 2 + 1"), &env).expect("ok"), 17);
    }

    #[test]
    fn unbound_identifier_errors() {
        let env = ConstEnv::new();
        let err = eval_const(&expr_of("UNDEFINED + 1"), &env).expect_err("must fail");
        assert_eq!(err.kind, RtlErrorKind::Semantic);
        assert!(err.message.contains("UNDEFINED"));
    }

    #[test]
    fn ternary_and_comparison() {
        let mut env = ConstEnv::new();
        env.bind("W", LogicVec::from_u64(32, 16));
        assert_eq!(
            eval_const_u64(&expr_of("W > 8 ? 2 : 1"), &env).expect("ok"),
            2
        );
    }

    #[test]
    fn concat_and_repeat() {
        let env = ConstEnv::new();
        assert_eq!(
            eval_const_u64(&expr_of("{4'hA, 4'h5}"), &env).expect("ok"),
            0xA5
        );
        assert_eq!(
            eval_const_u64(&expr_of("{3{2'b10}}"), &env).expect("ok"),
            0b10_10_10
        );
    }

    #[test]
    fn x_result_rejected_by_u64() {
        let env = ConstEnv::new();
        assert!(eval_const_u64(&expr_of("4'bxxxx + 1"), &env).is_err());
    }
}
