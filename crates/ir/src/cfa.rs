//! Control flow automata (CFAs), per §3.2 of the paper.
//!
//! A CFA is a finite set of control locations connected by directed
//! edges labeled with operations (assignments or assumes). Some
//! locations are *atomic*: while any thread sits at an atomic
//! location, only that thread may be scheduled — this models nesC's
//! `atomic` sections. A CFA also owns its variable table, with each
//! variable marked global (shared between all threads) or local
//! (per-thread copy).

use crate::expr::{BoolExpr, Expr};
use std::collections::BTreeSet;
use std::fmt;

/// A program variable, an index into the owning CFA's variable table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(u32);

impl Var {
    /// Builds a `Var` from a raw index. Intended for tests and for
    /// tools that construct CFAs programmatically in table order.
    pub fn from_raw(ix: u32) -> Var {
        Var(ix)
    }

    /// The raw table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Whether a variable is shared between threads or thread-private.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarKind {
    /// Shared by all threads.
    Global,
    /// Each thread owns a private copy.
    Local,
}

/// Name and kind of a variable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VarInfo {
    /// Source-level name.
    pub name: String,
    /// Global or local.
    pub kind: VarKind,
}

/// A control location of a CFA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Loc(u32);

impl Loc {
    /// Builds a `Loc` from a raw index.
    pub fn from_raw(ix: u32) -> Loc {
        Loc(ix)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// An edge of a CFA, an index into the edge table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(u32);

impl EdgeId {
    /// Builds an `EdgeId` from a raw index.
    pub fn from_raw(ix: u32) -> EdgeId {
        EdgeId(ix)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// An operation labeling a CFA edge (`Op.X` in the paper).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Op {
    /// Assignment `x := e`.
    Assign(Var, Expr),
    /// Guard `asm [p]`: the edge may be taken only in states
    /// satisfying `p`; no variable changes.
    Assume(BoolExpr),
}

impl Op {
    /// Assignment constructor.
    pub fn assign(v: Var, e: impl Into<Expr>) -> Op {
        Op::Assign(v, e.into())
    }

    /// Assume constructor.
    pub fn assume(p: impl Into<BoolExpr>) -> Op {
        Op::Assume(p.into())
    }

    /// A no-op (`assume true`), used for skip edges.
    pub fn skip() -> Op {
        Op::Assume(BoolExpr::tru())
    }

    /// The variable written by the operation, if any.
    pub fn written(&self) -> Option<Var> {
        match self {
            Op::Assign(v, _) => Some(*v),
            Op::Assume(_) => None,
        }
    }

    /// The variables read by the operation: the right-hand side of an
    /// assignment, or all variables of an assume predicate (§4.1).
    pub fn reads(&self) -> BTreeSet<Var> {
        match self {
            Op::Assign(_, e) => e.vars(),
            Op::Assume(p) => p.vars(),
        }
    }

    /// All variables mentioned (read or written).
    pub fn vars(&self) -> BTreeSet<Var> {
        let mut s = self.reads();
        if let Some(v) = self.written() {
            s.insert(v);
        }
        s
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Assign(v, e) => write!(f, "{v} := {e}"),
            Op::Assume(p) => write!(f, "[{p}]"),
        }
    }
}

/// How an operation touches a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// The variable is read.
    Read,
    /// The variable is written.
    Write,
}

/// A directed, operation-labeled edge between two locations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    /// Source location.
    pub src: Loc,
    /// The operation executed when the edge is taken.
    pub op: Op,
    /// Target location.
    pub dst: Loc,
}

/// A control flow automaton: `(Q, q0, X, →, Q*)` in the paper.
#[derive(Debug, Clone)]
pub struct Cfa {
    name: String,
    vars: Vec<VarInfo>,
    num_locs: u32,
    entry: Loc,
    edges: Vec<Edge>,
    atomic: BTreeSet<Loc>,
    error: BTreeSet<Loc>,
    out: Vec<Vec<EdgeId>>,
    loc_names: Vec<Option<String>>,
    /// Per location: whether it is atomic, and the variables its
    /// out-edges write and read. Derived from the fields above once,
    /// in [`CfaBuilder::build`], because the interpreter and the race
    /// checks ask for them at every visited state.
    atomic_mask: Vec<bool>,
    writes: Vec<BTreeSet<Var>>,
    reads: Vec<BTreeSet<Var>>,
}

impl Cfa {
    /// The CFA's (thread's) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of control locations.
    pub fn num_locs(&self) -> usize {
        self.num_locs as usize
    }

    /// Iterator over all locations.
    pub fn locs(&self) -> impl Iterator<Item = Loc> {
        (0..self.num_locs).map(Loc)
    }

    /// The start location `q0`.
    pub fn entry(&self) -> Loc {
        self.entry
    }

    /// Whether `l` is an atomic location.
    pub fn is_atomic(&self, l: Loc) -> bool {
        self.atomic_mask[l.index()]
    }

    /// The set of atomic locations.
    pub fn atomic_locs(&self) -> &BTreeSet<Loc> {
        &self.atomic
    }

    /// Whether `l` is an error location (the target of a failed
    /// `assert`).
    pub fn is_error(&self, l: Loc) -> bool {
        self.error.contains(&l)
    }

    /// The set of error locations.
    pub fn error_locs(&self) -> &BTreeSet<Loc> {
        &self.error
    }

    /// All edges, indexable by [`EdgeId`].
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this CFA.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// Ids of the out-edges of `l`.
    pub fn out_edges(&self, l: Loc) -> &[EdgeId] {
        &self.out[l.index()]
    }

    /// The variable table.
    pub fn vars(&self) -> &[VarInfo] {
        &self.vars
    }

    /// Info for one variable.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to this CFA.
    pub fn var_info(&self, v: Var) -> &VarInfo {
        &self.vars[v.index()]
    }

    /// The source-level name of `v`.
    pub fn var_name(&self, v: Var) -> &str {
        &self.vars[v.index()].name
    }

    /// Whether `v` is global.
    pub fn is_global(&self, v: Var) -> bool {
        self.vars[v.index()].kind == VarKind::Global
    }

    /// All global variables.
    pub fn globals(&self) -> Vec<Var> {
        (0..self.vars.len() as u32).map(Var).filter(|v| self.is_global(*v)).collect()
    }

    /// All local variables.
    pub fn locals(&self) -> Vec<Var> {
        (0..self.vars.len() as u32).map(Var).filter(|v| !self.is_global(*v)).collect()
    }

    /// Looks up a variable by source name.
    pub fn var_by_name(&self, name: &str) -> Option<Var> {
        self.vars.iter().position(|vi| vi.name == name).map(|ix| Var(ix as u32))
    }

    /// A human-readable label for a location (its source label, if the
    /// builder attached one, else `L<n>`).
    pub fn loc_label(&self, l: Loc) -> String {
        match &self.loc_names[l.index()] {
            Some(n) => n.clone(),
            None => format!("{l}"),
        }
    }

    /// Variables *written* by some out-edge of `l` — `Write.i.x` holds
    /// iff `x ∈ writes_at(pc_i)` (§4.1).
    pub fn writes_at(&self, l: Loc) -> &BTreeSet<Var> {
        &self.writes[l.index()]
    }

    /// Variables *read* by some out-edge of `l`.
    pub fn reads_at(&self, l: Loc) -> &BTreeSet<Var> {
        &self.reads[l.index()]
    }

    /// Variables read or written by some out-edge of `l`.
    pub fn accesses_at(&self, l: Loc) -> BTreeSet<Var> {
        self.reads_at(l).union(self.writes_at(l)).copied().collect()
    }

    /// Whether a thread at `l` can access `v` with the given kind.
    pub fn can_access(&self, l: Loc, v: Var, kind: AccessKind) -> bool {
        match kind {
            AccessKind::Read => self.reads_at(l).contains(&v),
            AccessKind::Write => self.writes_at(l).contains(&v),
        }
    }
}

/// Incremental builder for [`Cfa`].
///
/// The entry location is created eagerly (location 0); further
/// locations come from [`CfaBuilder::fresh_loc`]. [`CfaBuilder::build`]
/// validates the automaton.
#[derive(Debug, Clone)]
pub struct CfaBuilder {
    name: String,
    vars: Vec<VarInfo>,
    num_locs: u32,
    edges: Vec<Edge>,
    atomic: BTreeSet<Loc>,
    error: BTreeSet<Loc>,
    loc_names: Vec<Option<String>>,
}

impl CfaBuilder {
    /// Starts a new CFA with the given thread name. Location `0` is
    /// the entry.
    pub fn new(name: impl Into<String>) -> CfaBuilder {
        CfaBuilder {
            name: name.into(),
            vars: Vec::new(),
            num_locs: 1,
            edges: Vec::new(),
            atomic: BTreeSet::new(),
            error: BTreeSet::new(),
            loc_names: vec![None],
        }
    }

    /// Declares a global variable and returns its handle.
    pub fn global(&mut self, name: impl Into<String>) -> Var {
        self.add_var(name.into(), VarKind::Global)
    }

    /// Declares a (per-thread) local variable and returns its handle.
    pub fn local(&mut self, name: impl Into<String>) -> Var {
        self.add_var(name.into(), VarKind::Local)
    }

    fn add_var(&mut self, name: String, kind: VarKind) -> Var {
        assert!(!self.vars.iter().any(|vi| vi.name == name), "duplicate variable name `{name}`");
        let v = Var(self.vars.len() as u32);
        self.vars.push(VarInfo { name, kind });
        v
    }

    /// The entry location.
    pub fn entry(&self) -> Loc {
        Loc(0)
    }

    /// Number of locations allocated so far.
    pub fn num_locs(&self) -> usize {
        self.num_locs as usize
    }

    /// Allocates a fresh control location.
    pub fn fresh_loc(&mut self) -> Loc {
        let l = Loc(self.num_locs);
        self.num_locs += 1;
        self.loc_names.push(None);
        l
    }

    /// Attaches a human-readable label to a location (for printing).
    pub fn name_loc(&mut self, l: Loc, name: impl Into<String>) {
        self.loc_names[l.index()] = Some(name.into());
    }

    /// Marks `l` atomic.
    pub fn mark_atomic(&mut self, l: Loc) {
        self.atomic.insert(l);
    }

    /// Marks `l` as an error location (reached when an `assert`
    /// fails). Error locations are checked by the assertion-safety
    /// analyses; the race analyses ignore them.
    pub fn mark_error(&mut self, l: Loc) {
        self.error.insert(l);
    }

    /// Adds an edge `src --op--> dst`.
    pub fn edge(&mut self, src: Loc, op: Op, dst: Loc) -> EdgeId {
        assert!(src.0 < self.num_locs && dst.0 < self.num_locs, "edge endpoints must exist");
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge { src, op, dst });
        id
    }

    /// Finalizes and validates the CFA.
    ///
    /// # Panics
    ///
    /// Panics if an edge mentions a variable outside the table, or if
    /// the entry location is atomic (the paper's semantics assume a
    /// non-atomic start so that at most one thread is ever atomic).
    pub fn build(self) -> Cfa {
        assert!(!self.atomic.contains(&Loc(0)), "entry location must not be atomic");
        let nvars = self.vars.len() as u32;
        for e in &self.edges {
            for v in e.op.vars() {
                assert!(v.0 < nvars, "edge {e:?} mentions undeclared variable {v}");
            }
        }
        let n = self.num_locs as usize;
        let mut out = vec![Vec::new(); n];
        let mut writes = vec![BTreeSet::new(); n];
        let mut reads = vec![BTreeSet::new(); n];
        for (ix, e) in self.edges.iter().enumerate() {
            let src = e.src.index();
            out[src].push(EdgeId(ix as u32));
            writes[src].extend(e.op.written());
            reads[src].extend(e.op.reads());
        }
        let atomic_mask = (0..self.num_locs).map(|l| self.atomic.contains(&Loc(l))).collect();
        Cfa {
            name: self.name,
            vars: self.vars,
            num_locs: self.num_locs,
            entry: Loc(0),
            edges: self.edges,
            atomic: self.atomic,
            error: self.error,
            out,
            loc_names: self.loc_names,
            atomic_mask,
            writes,
            reads,
        }
    }
}

/// Builds the paper's running example (Figure 1): the test-and-set
/// thread guarding the shared variable `x` with the flag `state`.
///
/// ```text
/// int x, state;
/// Thread() { int old;
///   1: while (1) { atomic {
///   2:   old := state;
///   3:   if (state = 0) {
///   4:     state := 1; } [old != 0] }
///   5:   if (old = 0) {
///   6:     x := x + 1;
///   7:     state := 0; } } }
/// ```
///
/// Locations 3 and 4 (inside the `atomic` block, after its first
/// operation) are atomic. Returns the CFA; look up `x`, `state`,
/// `old` via [`Cfa::var_by_name`].
pub fn figure1_cfa() -> Cfa {
    let mut b = CfaBuilder::new("test_and_set");
    let x = b.global("x");
    let state = b.global("state");
    let old = b.local("old");

    // Use paper numbering: entry (builder loc 0) is "1".
    let l1 = b.entry();
    b.name_loc(l1, "1");
    let l2 = b.fresh_loc(); // inside atomic, after `old := state`
    b.name_loc(l2, "2");
    let l3 = b.fresh_loc();
    b.name_loc(l3, "3");
    let l5 = b.fresh_loc();
    b.name_loc(l5, "5");
    let l6 = b.fresh_loc();
    b.name_loc(l6, "6");
    let l7 = b.fresh_loc();
    b.name_loc(l7, "7");

    // Entering the atomic block: locations 2 and 3 are atomic (the
    // thread holding them cannot be preempted).
    b.mark_atomic(l2);
    b.mark_atomic(l3);

    use crate::expr::{BoolExpr, Expr};
    // 1 -> 2 : old := state   (first op of the atomic block)
    b.edge(l1, Op::assign(old, Expr::var(state)), l2);
    // 2 -> 3 : [state = 0]; state := 1  — split in two CFA edges via 3
    b.edge(l2, Op::assume(BoolExpr::eq(Expr::var(state), Expr::int(0))), l3);
    b.edge(l3, Op::assign(state, Expr::int(1)), l5);
    // 2 -> 5 : [state != 0]  (else-branch leaves the atomic block)
    b.edge(l2, Op::assume(BoolExpr::ne(Expr::var(state), Expr::int(0))), l5);
    // 5 -> 6 : [old = 0]
    b.edge(l5, Op::assume(BoolExpr::eq(Expr::var(old), Expr::int(0))), l6);
    // 5 -> 1 : [old != 0]  (loop back)
    b.edge(l5, Op::assume(BoolExpr::ne(Expr::var(old), Expr::int(0))), l1);
    // 6 -> 7 : x := x + 1
    b.edge(l6, Op::assign(x, Expr::var(x) + Expr::int(1)), l7);
    // 7 -> 1 : state := 0
    b.edge(l7, Op::assign(state, Expr::int(0)), l1);

    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BoolExpr, Expr};

    #[test]
    fn builder_basic() {
        let mut b = CfaBuilder::new("t");
        let x = b.global("x");
        let y = b.local("y");
        let l0 = b.entry();
        let l1 = b.fresh_loc();
        b.edge(l0, Op::assign(x, Expr::int(1)), l1);
        b.edge(l1, Op::assume(BoolExpr::eq(Expr::var(y), Expr::int(0))), l0);
        let cfa = b.build();
        assert_eq!(cfa.num_locs(), 2);
        assert_eq!(cfa.edges().len(), 2);
        assert!(cfa.is_global(x));
        assert!(!cfa.is_global(y));
        assert_eq!(cfa.var_by_name("x"), Some(x));
        assert_eq!(cfa.var_by_name("nope"), None);
    }

    #[test]
    fn access_queries() {
        let mut b = CfaBuilder::new("t");
        let x = b.global("x");
        let y = b.global("y");
        let l0 = b.entry();
        let l1 = b.fresh_loc();
        b.edge(l0, Op::assign(x, Expr::var(y) + Expr::int(1)), l1);
        let cfa = b.build();
        assert!(cfa.writes_at(l0).contains(&x));
        assert!(!cfa.writes_at(l0).contains(&y));
        assert!(cfa.reads_at(l0).contains(&y));
        assert!(cfa.can_access(l0, x, AccessKind::Write));
        assert!(cfa.can_access(l0, y, AccessKind::Read));
        assert!(!cfa.can_access(l1, x, AccessKind::Write));
    }

    #[test]
    #[should_panic(expected = "duplicate variable")]
    fn duplicate_var_panics() {
        let mut b = CfaBuilder::new("t");
        b.global("x");
        b.global("x");
    }

    #[test]
    #[should_panic(expected = "entry location must not be atomic")]
    fn atomic_entry_panics() {
        let mut b = CfaBuilder::new("t");
        let e = b.entry();
        b.mark_atomic(e);
        b.build();
    }

    #[test]
    fn figure1_shape() {
        let cfa = figure1_cfa();
        assert_eq!(cfa.num_locs(), 6);
        assert_eq!(cfa.edges().len(), 8);
        let x = cfa.var_by_name("x").unwrap();
        let state = cfa.var_by_name("state").unwrap();
        assert!(cfa.is_global(x) && cfa.is_global(state));
        let old = cfa.var_by_name("old").unwrap();
        assert!(!cfa.is_global(old));
        // exactly one location can write x (location "6")
        let writers: Vec<_> = cfa.locs().filter(|l| cfa.writes_at(*l).contains(&x)).collect();
        assert_eq!(writers.len(), 1);
        assert_eq!(cfa.loc_label(writers[0]), "6");
        // two atomic locations
        assert_eq!(cfa.atomic_locs().len(), 2);
        assert!(!cfa.is_atomic(cfa.entry()));
    }

    #[test]
    fn op_reads_writes() {
        let x = Var::from_raw(0);
        let y = Var::from_raw(1);
        let a = Op::assign(x, Expr::var(y));
        assert_eq!(a.written(), Some(x));
        assert!(a.reads().contains(&y));
        let g = Op::assume(BoolExpr::eq(Expr::var(x), Expr::var(y)));
        assert_eq!(g.written(), None);
        assert_eq!(g.reads().len(), 2);
    }
}
