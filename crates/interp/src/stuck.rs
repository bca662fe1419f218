//! Loops that provably never end.
//!
//! An edit that deletes a loop's increment leaves the interpreter
//! spinning until its step budget runs out, ten million steps of one
//! iteration repeated. [`StuckLoops::classify`] finds, once per
//! sequential run, the loops that cannot leave that state, so that
//! `exec` can end one after its second completed iteration with exactly
//! the record the slow path reaches: `StepLimit` at `max_steps + 1`
//! steps, the same trace, no output and no fault.
//!
//! A loop is *stuck* when
//!
//! - its guard, `for` step and body hold no call (builtins included),
//!   no declaration, no `spawn` or `join`, no nested loop, no `switch`
//!   and no `return`;
//! - its only writes are top-level `x = e`, `x op= e`, `x++` or `x--`
//!   statements (or the `for` step), one per target, whose target is an
//!   *accumulator*: an `int`/`char` local whose address is never taken
//!   in its function;
//! - an accumulator is read only inside the right-hand side of such a
//!   write, under total integer operators (`+ - * & | ^ << >>`, the
//!   comparisons, unary `-` and `~`) that have only accumulators and
//!   integer literals below them, except that the write's top operator
//!   (or its compound `op=`) may take one *fixed* operand: an
//!   expression that reads no accumulator and writes nothing. Guards,
//!   `if` tests and every other expression in the loop are fixed.
//!
//! Why skipping the rest of the budget is exact:
//!
//! - Nothing but accumulators changes while the loop runs, and nothing
//!   can point at an accumulator, so every fixed expression yields the
//!   same value and touches the same locations in every iteration. The
//!   guard and the `if` tests are fixed, so every iteration takes the
//!   path the first one took, and a loop that completed two iterations
//!   never leaves.
//! - Integer operators on integers wrap and cannot fault, but an `int`
//!   local can hold another kind of value: C's assignments are lax and
//!   the interpreter does not convert. So `exec` also checks that every
//!   accumulator holds an integer after the first and after the second
//!   iteration. In the second iteration every operator that reads an
//!   accumulator then had integer operands, except that a write's top
//!   operator may have one fixed operand, whose value is the same in
//!   every iteration. Whether such an operator yields an integer, rather
//!   than faulting or yielding something else, depends only on the kinds
//!   of its operands, not on the integer's value, and it did yield one:
//!   its result is what its accumulator held at the end of the iteration
//!   (each accumulator is written once). So the third iteration sees the
//!   kinds of values the second saw, cannot fault and ends with integers
//!   again, and by induction so does every later one.
//! - From the second iteration on, every read sees the same last writer
//!   (an earlier write of the same iteration or the previous
//!   iteration's), so each iteration adds exactly the trace facts the
//!   second one added, and the partial iteration the budget cuts short
//!   adds a subset of them.
//!
//! Threaded runs never take the shortcut: another thread may write what
//! a guard reads.

use alias::fxhash::HashMap;
use cfront::ast::{BinOp, Block, ExprId, ExprKind, FuncDecl, IdentTarget, LocalId, Program};
use cfront::ast::{Stmt, UnOp};
use cfront::types::TypeKind;

/// The stuck loops of one program, keyed by the address of their
/// statement in the program, each with its accumulators.
#[derive(Default)]
pub(crate) struct StuckLoops(HashMap<usize, Box<[LocalId]>>);

fn key(s: &Stmt) -> usize {
    std::ptr::from_ref(s) as usize
}

impl StuckLoops {
    /// Classifies every loop of `prog`.
    pub(crate) fn classify(prog: &Program) -> Self {
        let mut out = StuckLoops::default();
        for func in &prog.funcs {
            if let Some(body) = &func.body {
                out.visit_block(prog, func, body);
            }
        }
        out
    }

    /// The accumulators of `s`, if it is a stuck loop.
    pub(crate) fn get(&self, s: &Stmt) -> Option<&[LocalId]> {
        self.0.get(&key(s)).map(|a| &**a)
    }

    fn visit_block(&mut self, prog: &Program, func: &FuncDecl, b: &Block) {
        for s in &b.stmts {
            self.visit(prog, func, s);
        }
    }

    fn visit(&mut self, prog: &Program, func: &FuncDecl, s: &Stmt) {
        let (guard, step, body) = match s {
            Stmt::While { cond, body } | Stmt::DoWhile { body, cond } => (Some(*cond), None, body),
            Stmt::For {
                cond, step, body, ..
            } => (*cond, *step, body),
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                self.visit_block(prog, func, then_blk);
                if let Some(e) = else_blk {
                    self.visit_block(prog, func, e);
                }
                return;
            }
            Stmt::Switch { cases, default, .. } => {
                for c in cases {
                    self.visit_block(prog, func, &c.body);
                }
                if let Some(d) = default {
                    self.visit_block(prog, func, d);
                }
                return;
            }
            Stmt::Block(b) => return self.visit_block(prog, func, b),
            _ => return,
        };
        if let Some(accs) = stuck(prog, func, guard, step, body) {
            self.0.insert(key(s), accs);
        }
        self.visit_block(prog, func, body);
    }
}

/// A loop's statements sorted by what they may do.
#[derive(Default)]
struct Shape {
    /// Expressions that must be fixed: the guard, `if` tests, and
    /// expression statements that are not writes.
    fixed: Vec<ExprId>,
    /// Each write: its target, its compound operator, and its
    /// right-hand side (`None` for `x++`/`x--`).
    writes: Vec<(LocalId, Option<BinOp>, Option<ExprId>)>,
}

impl Shape {
    /// Sorts the statements of `b`; `false` if one of them rules the
    /// loop out.
    fn block(&mut self, prog: &Program, b: &Block) -> bool {
        b.stmts.iter().all(|s| match s {
            Stmt::Expr(e) => {
                self.effect(prog, *e);
                true
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                self.fixed.push(*cond);
                self.block(prog, then_blk) && else_blk.as_ref().is_none_or(|e| self.block(prog, e))
            }
            Stmt::Block(b) => self.block(prog, b),
            Stmt::Break(_) | Stmt::Continue(_) => true,
            _ => false,
        })
    }

    /// Sorts an expression statement (or `for` step): a write to a
    /// local, or an expression that must be fixed.
    fn effect(&mut self, prog: &Program, e: ExprId) {
        let local = |x: ExprId| match prog.exprs.get(x).kind {
            ExprKind::Ident {
                target: Some(IdentTarget::Local(l)),
                ..
            } => Some(l),
            _ => None,
        };
        let write = match prog.exprs.get(e).kind {
            ExprKind::Assign { op, lhs, rhs } => local(lhs).map(|l| (l, op, Some(rhs))),
            ExprKind::IncDec { arg, .. } => local(arg).map(|l| (l, None, None)),
            _ => None,
        };
        match write {
            Some(w) => self.writes.push(w),
            None => self.fixed.push(e),
        }
    }
}

/// The accumulators of the loop with `guard`, `step` and `body` in
/// `func`, if the loop is stuck.
fn stuck(
    prog: &Program,
    func: &FuncDecl,
    guard: Option<ExprId>,
    step: Option<ExprId>,
    body: &Block,
) -> Option<Box<[LocalId]>> {
    let mut shape = Shape::default();
    if !shape.block(prog, body) {
        return None;
    }
    shape.fixed.extend(guard);
    if let Some(st) = step {
        shape.effect(prog, st);
    }
    let mut accs: Vec<LocalId> = shape.writes.iter().map(|w| w.0).collect();
    accs.sort_unstable_by_key(|a| a.0);
    accs.dedup();
    if accs.len() != shape.writes.len() {
        return None;
    }
    let scalar = |a: &LocalId| {
        let v = &func.vars[a.0 as usize];
        !v.addr_taken && matches!(prog.types.kind(v.ty), TypeKind::Int | TypeKind::Char)
    };
    if !accs.iter().all(scalar) {
        return None;
    }
    let x = Exprs { prog, accs: &accs };
    let writes_ok = shape.writes.iter().all(|&(_, op, rhs)| match (op, rhs) {
        (_, None) => true,
        (None, Some(r)) => x.top(r),
        (Some(op), Some(r)) => total(op) && x.operand(r),
    });
    (writes_ok && shape.fixed.iter().all(|&e| x.fixed(e))).then(|| accs.into())
}

/// Whether `op` on two integers always yields an integer.
fn total(op: BinOp) -> bool {
    !matches!(op, BinOp::Div | BinOp::Rem | BinOp::And | BinOp::Or)
}

/// Expression classes relative to one loop's accumulators.
struct Exprs<'a> {
    prog: &'a Program,
    accs: &'a [LocalId],
}

impl Exprs<'_> {
    fn is_acc(&self, target: Option<IdentTarget>) -> bool {
        matches!(target, Some(IdentTarget::Local(l)) if self.accs.contains(&l))
    }

    /// Reads no accumulator and writes nothing.
    fn fixed(&self, e: ExprId) -> bool {
        match self.prog.exprs.get(e).kind {
            ExprKind::IntLit(_)
            | ExprKind::FloatLit(_)
            | ExprKind::StrLit(_)
            | ExprKind::Null
            | ExprKind::SizeofType(_)
            | ExprKind::SizeofExpr(_) => true,
            ExprKind::Ident { target, .. } => !self.is_acc(target),
            ExprKind::Unary { arg, .. } | ExprKind::Cast { arg, .. } => self.fixed(arg),
            ExprKind::Member { base, .. } => self.fixed(base),
            ExprKind::Binary { lhs, rhs, .. } | ExprKind::Comma { lhs, rhs } => {
                self.fixed(lhs) && self.fixed(rhs)
            }
            ExprKind::Index { base, index } => self.fixed(base) && self.fixed(index),
            ExprKind::Cond {
                cond,
                then_e,
                else_e,
            } => self.fixed(cond) && self.fixed(then_e) && self.fixed(else_e),
            ExprKind::Assign { .. }
            | ExprKind::IncDec { .. }
            | ExprKind::Call { .. }
            | ExprKind::InitList(_) => false,
        }
    }

    /// Total integer operators over accumulators and integer literals:
    /// an integer whenever every accumulator holds one.
    fn integral(&self, e: ExprId) -> bool {
        match self.prog.exprs.get(e).kind {
            ExprKind::IntLit(_) => true,
            ExprKind::Ident { target, .. } => self.is_acc(target),
            ExprKind::Unary {
                op: UnOp::Neg | UnOp::BitNot,
                arg,
            } => self.integral(arg),
            ExprKind::Binary { op, lhs, rhs } => {
                total(op) && self.integral(lhs) && self.integral(rhs)
            }
            _ => false,
        }
    }

    /// An operand of a write's top operator.
    fn operand(&self, e: ExprId) -> bool {
        self.integral(e) || self.fixed(e)
    }

    /// The right-hand side of a plain write.
    fn top(&self, e: ExprId) -> bool {
        match self.prog.exprs.get(e).kind {
            ExprKind::Binary { op, lhs, rhs } if total(op) => {
                self.operand(lhs) && self.operand(rhs)
            }
            _ => self.operand(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// How many loops of `src` are stuck.
    fn stuck_count(src: &str) -> usize {
        let p = cfront::compile(src).expect("compiles");
        StuckLoops::classify(&p).0.len()
    }

    #[test]
    fn every_loop_form_can_be_stuck() {
        for body in [
            "while (c) {}",
            "do {} while (c);",
            "for (;;) {}",
            "for (; c;) {}",
            "for (;; i++) {}",
            "for (i = 0; c; i += 2) { if (c == 0) break; }",
            "while (*p == 32 || p[1] == 9) { n = n * 31 + 7; s += *p; }",
        ] {
            let src = format!(
                "int main(void) {{ int c; int i; int n; int s; char *p; \
                 c = 1; i = 0; n = 0; s = 0; p = \"  \"; {body} return 0; }}"
            );
            assert_eq!(stuck_count(&src), 1, "{body}");
        }
    }

    #[test]
    fn near_misses_are_not_stuck() {
        for body in [
            // A write to a global, through a pointer, or to a pointer.
            "while (c) { g = g + 1; }",
            "while (c) { *q = 1; }",
            "while (c) { p++; }",
            // An accumulator in the guard, a test, an index or a divisor.
            "while (n >= 0) { n++; }",
            "while (c) { if (n) break; n++; }",
            "while (c) { n = p[n]; }",
            "while (c) { s = 100 / n; n--; }",
            // Nested operators over a fixed operand, two writes to one
            // target, and an accumulator whose address is taken.
            "while (c) { n = (n + *p) * 2; }",
            "while (c) { n++; n++; }",
            "while (c) { t++; }",
            // A call, a declaration, a nested loop, a return.
            "while (c) { n = abs(n); }",
            "while (c) { int k; k = 1; }",
            "while (c) { while (c) {} }",
            "while (c) { return 1; }",
        ] {
            let src = format!(
                "int g; int main(void) {{ int c; int n; int s; int t; int *q; char *p; \
                 c = 1; n = 0; s = 0; t = 0; q = &t; p = \"ab\"; {body} return 0; }}"
            );
            let want = usize::from(body.contains("while (c) {}"));
            assert_eq!(stuck_count(&src), want, "{body}");
        }
    }
}
