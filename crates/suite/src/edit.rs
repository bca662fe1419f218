//! Seeded source-edit generator for the incremental-analysis harness.
//!
//! Produces "the program changed a little" pairs and chains: parse the
//! source, apply one small AST edit (insert/delete/mutate a statement,
//! add a parameter, rename a local), pretty-print, and validate that
//! the result still compiles. Edits are free to change program
//! *behavior* — the incremental equivalence harness only requires that
//! both sides analyze the same (valid) program — but every returned
//! edit is guaranteed to compile.
//!
//! Determinism: the same `(source, seed)` always yields the same edit.

use cfront::ast::{Block, ExprId, ExprKind, FuncId, Program, Stmt, VarSlot};
use cfront::{lexer, parser, pretty, Span};

use crate::rng::Rng;

/// The kind of edit that was applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EditKind {
    /// Cloned an existing expression statement to a new position.
    InsertStmt,
    /// Deleted one statement.
    DeleteStmt,
    /// Mutated an integer literal or swapped a binary operator.
    MutateExpr,
    /// Appended an `int` parameter and `0` at every direct call site.
    AddParam,
    /// Renamed a parameter or block-scoped local and its uses.
    RenameLocal,
}

impl EditKind {
    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            EditKind::InsertStmt => "insert-stmt",
            EditKind::DeleteStmt => "delete-stmt",
            EditKind::MutateExpr => "mutate-expr",
            EditKind::AddParam => "add-param",
            EditKind::RenameLocal => "rename-local",
        }
    }
}

/// One applied, compile-validated edit.
#[derive(Debug, Clone)]
pub struct Edit {
    /// What was done.
    pub kind: EditKind,
    /// Human-readable description (function and construct touched).
    pub description: String,
}

/// One link of an edit chain: the edited source and what changed.
#[derive(Debug, Clone)]
pub struct EditStep {
    /// The program after the edit (compiles).
    pub source: String,
    /// The edit that produced it.
    pub edit: Edit,
}

/// Applies one seeded random edit to `src`, retrying with fresh random
/// choices until the edited program compiles. Returns `None` only if no
/// valid edit is found within the attempt budget (e.g. a program with
/// no statements at all).
pub fn apply_random_edit(src: &str, seed: u64) -> Option<EditStep> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let parsed = parser::parse(lexer::lex(src).ok()?).ok()?;
    for _ in 0..64 {
        let mut prog = parsed.clone();
        let kind = match rng.gen_range(0..8) {
            0 | 1 => EditKind::InsertStmt,
            2 | 3 => EditKind::DeleteStmt,
            4 => EditKind::MutateExpr,
            5 => EditKind::AddParam,
            _ => EditKind::RenameLocal,
        };
        let Some(description) = try_edit(&mut prog, kind, &mut rng) else {
            continue;
        };
        let out = pretty::print_program(&prog);
        if cfront::compile(&out).is_ok() {
            return Some(EditStep {
                source: out,
                edit: Edit { kind, description },
            });
        }
    }
    None
}

/// Applies `len` successive seeded edits, each validated, returning the
/// intermediate programs. The chain may be shorter than `len` if the
/// program runs out of editable material.
pub fn edit_chain(src: &str, seed: u64, len: usize) -> Vec<EditStep> {
    let mut out = Vec::with_capacity(len);
    let mut cur = src.to_string();
    for i in 0..len {
        let Some(step) = apply_random_edit(
            &cur,
            seed.wrapping_add(i as u64)
                .wrapping_mul(0x517c_c1b7_2722_0a95),
        ) else {
            break;
        };
        cur = step.source.clone();
        out.push(step);
    }
    out
}

fn try_edit(prog: &mut Program, kind: EditKind, rng: &mut Rng) -> Option<String> {
    match kind {
        EditKind::InsertStmt => insert_stmt(prog, rng),
        EditKind::DeleteStmt => delete_stmt(prog, rng),
        EditKind::MutateExpr => mutate_expr(prog, rng),
        EditKind::AddParam => add_param(prog, rng),
        EditKind::RenameLocal => rename_local(prog, rng),
    }
}

/// Functions that have a body, as indices.
fn defined_funcs(prog: &Program) -> Vec<usize> {
    (0..prog.funcs.len())
        .filter(|&i| prog.funcs[i].body.is_some())
        .collect()
}

/// Visits every block of a statement tree in pre-order.
fn visit_blocks<F: FnMut(&mut Block)>(blk: &mut Block, f: &mut F) {
    f(blk);
    for s in &mut blk.stmts {
        visit_stmt_blocks(s, f);
    }
}

fn visit_stmt_blocks<F: FnMut(&mut Block)>(s: &mut Stmt, f: &mut F) {
    match s {
        Stmt::If {
            then_blk, else_blk, ..
        } => {
            visit_blocks(then_blk, f);
            if let Some(e) = else_blk {
                visit_blocks(e, f);
            }
        }
        Stmt::While { body, .. } | Stmt::DoWhile { body, .. } | Stmt::For { body, .. } => {
            visit_blocks(body, f)
        }
        Stmt::Switch { cases, default, .. } => {
            for c in cases {
                visit_blocks(&mut c.body, f);
            }
            if let Some(d) = default {
                visit_blocks(d, f);
            }
        }
        Stmt::Block(b) => visit_blocks(b, f),
        _ => {}
    }
}

fn count_blocks(prog: &mut Program, fi: usize) -> usize {
    let mut n = 0;
    if let Some(body) = prog.funcs[fi].body.as_mut() {
        visit_blocks(body, &mut |_| n += 1);
    }
    n
}

/// Runs `f` on the `target`-th block (pre-order) of function `fi`.
fn with_block<F: FnMut(&mut Block)>(prog: &mut Program, fi: usize, target: usize, f: &mut F) {
    let mut i = 0;
    if let Some(body) = prog.funcs[fi].body.as_mut() {
        visit_blocks(body, &mut |b| {
            if i == target {
                f(b);
            }
            i += 1;
        });
    }
}

fn insert_stmt(prog: &mut Program, rng: &mut Rng) -> Option<String> {
    let funcs = defined_funcs(prog);
    if funcs.is_empty() {
        return None;
    }
    let fi = funcs[rng.gen_range(0..funcs.len())];
    // Clone an existing expression statement (sharing its ExprId is
    // fine: the program is re-parsed from text before analysis).
    let mut candidates: Vec<Stmt> = Vec::new();
    with_block(prog, fi, usize::MAX, &mut |_| {});
    let nblocks = count_blocks(prog, fi);
    for b in 0..nblocks {
        with_block(prog, fi, b, &mut |blk| {
            for s in &blk.stmts {
                if matches!(s, Stmt::Expr(_)) {
                    candidates.push(s.clone());
                }
            }
        });
    }
    if candidates.is_empty() {
        return None;
    }
    let stmt = candidates[rng.gen_range(0..candidates.len())].clone();
    let target = rng.gen_range(0..nblocks);
    let mut done = false;
    let pos_roll = rng.gen_range(0..1usize << 16);
    with_block(prog, fi, target, &mut |blk| {
        if done {
            return;
        }
        let pos = pos_roll % (blk.stmts.len() + 1);
        blk.stmts.insert(pos, stmt.clone());
        done = true;
    });
    done.then(|| format!("clone a statement in `{}`", prog.funcs[fi].name))
}

fn delete_stmt(prog: &mut Program, rng: &mut Rng) -> Option<String> {
    let funcs = defined_funcs(prog);
    if funcs.is_empty() {
        return None;
    }
    let fi = funcs[rng.gen_range(0..funcs.len())];
    let nblocks = count_blocks(prog, fi);
    // Deleting a `Local` would orphan its uses; anything else is fair
    // game (the compile check rejects the rare structural fallout).
    let mut spots: Vec<(usize, usize)> = Vec::new();
    for b in 0..nblocks {
        with_block(prog, fi, b, &mut |blk| {
            for (i, s) in blk.stmts.iter().enumerate() {
                if !matches!(s, Stmt::Local { .. }) {
                    spots.push((b, i));
                }
            }
        });
    }
    if spots.is_empty() {
        return None;
    }
    let (b, i) = spots[rng.gen_range(0..spots.len())];
    let mut done = false;
    with_block(prog, fi, b, &mut |blk| {
        if !done && i < blk.stmts.len() {
            blk.stmts.remove(i);
            done = true;
        }
    });
    done.then(|| format!("delete a statement in `{}`", prog.funcs[fi].name))
}

fn mutate_expr(prog: &mut Program, rng: &mut Rng) -> Option<String> {
    let mut lits: Vec<ExprId> = Vec::new();
    let mut bins: Vec<ExprId> = Vec::new();
    for (id, e) in prog.exprs.iter() {
        match &e.kind {
            ExprKind::IntLit(_) => lits.push(id),
            ExprKind::Binary { op, .. } if swap_op(*op).is_some() => bins.push(id),
            _ => {}
        }
    }
    let use_lit = bins.is_empty() || (!lits.is_empty() && rng.gen_bool(0.5));
    if use_lit && !lits.is_empty() {
        let id = lits[rng.gen_range(0..lits.len())];
        let bump = 1 + rng.gen_range(0..7) as i64;
        if let ExprKind::IntLit(v) = &mut prog.exprs.get_mut(id).kind {
            *v = v.wrapping_add(bump);
            return Some(format!("perturb an integer literal by {bump}"));
        }
        None
    } else if !bins.is_empty() {
        let id = bins[rng.gen_range(0..bins.len())];
        if let ExprKind::Binary { op, .. } = &mut prog.exprs.get_mut(id).kind {
            let new = swap_op(*op).expect("filtered to swappable");
            let desc = format!("swap `{}` for `{}`", op.symbol(), new.symbol());
            *op = new;
            return Some(desc);
        }
        None
    } else {
        None
    }
}

/// A same-shape substitute for a binary operator, when one exists.
fn swap_op(op: cfront::ast::BinOp) -> Option<cfront::ast::BinOp> {
    use cfront::ast::BinOp::*;
    Some(match op {
        Add => Sub,
        Sub => Add,
        Mul => Add,
        Lt => Le,
        Le => Lt,
        Gt => Ge,
        Ge => Gt,
        Eq => Ne,
        Ne => Eq,
        And => Or,
        Or => And,
        BitAnd => BitOr,
        BitOr => BitXor,
        BitXor => BitAnd,
        _ => return None,
    })
}

fn add_param(prog: &mut Program, rng: &mut Rng) -> Option<String> {
    let funcs: Vec<usize> = defined_funcs(prog)
        .into_iter()
        .filter(|&i| prog.funcs[i].name != "main")
        .collect();
    if funcs.is_empty() {
        return None;
    }
    let fi = funcs[rng.gen_range(0..funcs.len())];
    let fname = prog.funcs[fi].name.clone();
    let pname = format!("zz_p{}", prog.funcs[fi].n_params);
    let int = prog.types.int();
    let span = Span::new(0, 0);
    let np = prog.funcs[fi].n_params;
    prog.funcs[fi].vars.insert(
        np,
        VarSlot {
            name: pname,
            ty: int,
            span,
            is_param: true,
            addr_taken: false,
        },
    );
    prog.funcs[fi].n_params += 1;
    // Pass `0` at every direct call site. Indirect calls through a
    // function pointer would make the program type-invalid; the compile
    // check rejects those candidates and the harness retries.
    let mut sites: Vec<ExprId> = Vec::new();
    for (id, e) in prog.exprs.iter() {
        if let ExprKind::Call { callee, .. } = &e.kind {
            if let ExprKind::Ident { name, .. } = &prog.exprs.get(*callee).kind {
                if *name == fname {
                    sites.push(id);
                }
            }
        }
    }
    for id in sites {
        let zero = prog.exprs.alloc(ExprKind::IntLit(0), span);
        if let ExprKind::Call { args, .. } = &mut prog.exprs.get_mut(id).kind {
            args.push(zero);
        }
    }
    Some(format!("append an int parameter to `{fname}`"))
}

fn rename_local(prog: &mut Program, rng: &mut Rng) -> Option<String> {
    let funcs = defined_funcs(prog);
    if funcs.is_empty() {
        return None;
    }
    let fi = funcs[rng.gen_range(0..funcs.len())];
    // Candidates: parameters plus block-scoped declarations.
    let mut names: Vec<String> = prog.funcs[fi]
        .params()
        .iter()
        .map(|p| p.name.clone())
        .collect();
    let nblocks = count_blocks(prog, fi);
    for b in 0..nblocks {
        with_block(prog, fi, b, &mut |blk| {
            for s in &blk.stmts {
                if let Stmt::Local { name, .. } = s {
                    names.push(name.clone());
                }
            }
        });
    }
    if names.is_empty() {
        return None;
    }
    let old = names[rng.gen_range(0..names.len())].clone();
    let new = format!("zz_r{}", rng.gen_range(0..10_000));
    // Rename the declaration (slot or local stmt) and every identifier
    // use reachable from this function's body. Shadowing subtleties are
    // left to the compile check.
    for p in prog.funcs[fi].vars.iter_mut() {
        if p.name == old {
            p.name = new.clone();
        }
    }
    let mut roots: Vec<ExprId> = Vec::new();
    for b in 0..nblocks {
        with_block(prog, fi, b, &mut |blk| {
            for s in &mut blk.stmts {
                if let Stmt::Local { name, init, .. } = s {
                    if *name == old {
                        *name = new.clone();
                    }
                    if let Some(e) = init {
                        roots.push(*e);
                    }
                } else {
                    collect_stmt_exprs(s, &mut roots);
                }
            }
        });
    }
    let mut stack = roots;
    let mut seen: std::collections::HashSet<ExprId> = std::collections::HashSet::new();
    while let Some(id) = stack.pop() {
        if !seen.insert(id) {
            continue;
        }
        for k in expr_kids(&prog.exprs.get(id).kind) {
            stack.push(k);
        }
        if let ExprKind::Ident { name, .. } = &mut prog.exprs.get_mut(id).kind {
            if *name == old {
                *name = new.clone();
            }
        }
    }
    Some(format!(
        "rename `{old}` to `{new}` in `{}`",
        prog.funcs[fi].name
    ))
}

/// Root expressions of one statement (not recursing into blocks; the
/// block walk visits those separately).
fn collect_stmt_exprs(s: &Stmt, out: &mut Vec<ExprId>) {
    match s {
        Stmt::Expr(e) => out.push(*e),
        Stmt::Local { init, .. } => {
            if let Some(e) = init {
                out.push(*e);
            }
        }
        Stmt::If { cond, .. } => out.push(*cond),
        Stmt::While { cond, .. } | Stmt::DoWhile { cond, .. } => out.push(*cond),
        Stmt::For {
            init, cond, step, ..
        } => {
            if let Some(s) = init {
                collect_stmt_exprs(s, out);
            }
            if let Some(e) = cond {
                out.push(*e);
            }
            if let Some(e) = step {
                out.push(*e);
            }
        }
        Stmt::Switch { scrutinee, .. } => out.push(*scrutinee),
        Stmt::Return { value, .. } => {
            if let Some(e) = value {
                out.push(*e);
            }
        }
        Stmt::Spawn { call, .. } => out.push(*call),
        Stmt::Break(_) | Stmt::Continue(_) | Stmt::Block(_) | Stmt::Join(_) => {}
    }
}

/// Child expressions of one expression kind.
fn expr_kids(kind: &ExprKind) -> Vec<ExprId> {
    match kind {
        ExprKind::Unary { arg, .. }
        | ExprKind::IncDec { arg, .. }
        | ExprKind::Cast { arg, .. }
        | ExprKind::SizeofExpr(arg) => vec![*arg],
        ExprKind::Binary { lhs, rhs, .. }
        | ExprKind::Assign { lhs, rhs, .. }
        | ExprKind::Comma { lhs, rhs } => vec![*lhs, *rhs],
        ExprKind::Call { callee, args } => {
            let mut v = vec![*callee];
            v.extend(args.iter().copied());
            v
        }
        ExprKind::Member { base, .. } => vec![*base],
        ExprKind::Index { base, index } => vec![*base, *index],
        ExprKind::Cond {
            cond,
            then_e,
            else_e,
        } => vec![*cond, *then_e, *else_e],
        ExprKind::InitList(es) => es.clone(),
        _ => Vec::new(),
    }
}

// FuncId is referenced for doc purposes only.
#[allow(unused)]
fn _doc(_: FuncId) {}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "int g; int h; int *gp;\n\
        int pick(int c, int *a, int *b) { if (c) { gp = a; } else { gp = b; } return *gp; }\n\
        int main(void) { int x; x = pick(1, &g, &h); return x; }";

    #[test]
    fn every_edit_compiles() {
        let mut kinds_seen = std::collections::HashSet::new();
        for seed in 0..40u64 {
            let step = apply_random_edit(SRC, seed).expect("an edit applies");
            assert!(
                cfront::compile(&step.source).is_ok(),
                "seed {seed}: {:?} produced a non-compiling program",
                step.edit
            );
            kinds_seen.insert(step.edit.kind);
        }
        assert!(
            kinds_seen.len() >= 4,
            "expected edit-kind variety, saw {kinds_seen:?}"
        );
    }

    #[test]
    fn edits_are_deterministic() {
        let a = apply_random_edit(SRC, 7).unwrap();
        let b = apply_random_edit(SRC, 7).unwrap();
        assert_eq!(a.source, b.source);
        assert_eq!(a.edit.kind, b.edit.kind);
    }

    #[test]
    fn chains_stay_valid() {
        let chain = edit_chain(SRC, 11, 6);
        assert!(chain.len() >= 4, "chain stalled: {} steps", chain.len());
        for step in &chain {
            assert!(cfront::compile(&step.source).is_ok());
        }
    }

    #[test]
    fn generated_programs_are_editable() {
        let src = crate::generator::generate(3, &crate::generator::GenConfig::default());
        let chain = edit_chain(&src, 5, 4);
        assert!(!chain.is_empty());
    }
}
