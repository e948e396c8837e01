//! Structural digests of CFAs.
//!
//! The digest identifies a CFA up to *naming*: variables enter the
//! hash as table indices plus their global/local kind (alpha-renaming
//! — the source-level spellings are invisible), locations as their
//! already-canonical table indices, and edges in edge-table order with
//! their operations rendered over variable indices. Two programs that
//! lower to structurally identical automata — e.g. the same file
//! re-saved with different identifier names or whitespace — share a
//! digest; any semantic change to a location, edge, operation,
//! atomic-section mark, or variable kind changes it.
//!
//! The persistent predicate store (`circ-core`) keys its entries on
//! this digest, so the hash must be stable across runs and platforms:
//! it is FNV-1a 64 over a deterministic text rendering, the same hash
//! family the cache snapshots use for their checksums.

use crate::cfa::{Cfa, Op, VarKind};
use std::fmt::Write as _;

/// FNV-1a 64-bit over raw bytes: the one hash behind the structural
/// digest, the cache-file checksums, and the batch journal's content
/// digests. Hand-rolled so on-disk values are independent of `std`'s
/// unstable `DefaultHasher` internals.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The canonical text rendering the digest hashes. Exposed for tests
/// and for DESIGN.md-level debugging (`circ inspect` could print it);
/// the wire format of the predicate store stores only the hash.
pub fn structural_rendering(cfa: &Cfa) -> String {
    let mut s = String::new();
    // Variables: index order, kind only — names are alpha-renamed away.
    let _ = write!(s, "cfa locs={} entry={} vars=", cfa.num_locs(), cfa.entry().index());
    for info in cfa.vars() {
        s.push(match info.kind {
            VarKind::Global => 'G',
            VarKind::Local => 'L',
        });
    }
    s.push('\n');
    // Edges in edge-table order; `Expr`/`BoolExpr` display over `v<ix>`
    // is already index-based, hence name-free.
    for edge in cfa.edges() {
        let _ = match &edge.op {
            Op::Assign(v, e) => {
                writeln!(
                    s,
                    "edge {} {} := v{} {}",
                    edge.src.index(),
                    edge.dst.index(),
                    v.index(),
                    e
                )
            }
            Op::Assume(p) => {
                writeln!(s, "edge {} {} asm {}", edge.src.index(), edge.dst.index(), p)
            }
        };
    }
    // Atomic and error marks, in location order (BTreeSet iteration).
    let _ = write!(s, "atomic");
    for l in cfa.atomic_locs() {
        let _ = write!(s, " {}", l.index());
    }
    let _ = write!(s, "\nerror");
    for l in cfa.error_locs() {
        let _ = write!(s, " {}", l.index());
    }
    s.push('\n');
    s
}

/// Structural digest of a CFA: FNV-1a 64 of [`structural_rendering`].
pub fn structural_digest(cfa: &Cfa) -> u64 {
    fnv1a64(structural_rendering(cfa).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfa::{figure1_cfa, CfaBuilder};
    use crate::expr::{BoolExpr, Expr};

    /// The figure-1 CFA with every identifier renamed; structurally
    /// identical.
    fn renamed_figure1(name: &str, vars: [&str; 3]) -> Cfa {
        let mut b = CfaBuilder::new(name);
        let x = b.global(vars[0]);
        let state = b.global(vars[1]);
        let old = b.local(vars[2]);
        let l1 = b.entry();
        let l2 = b.fresh_loc();
        let l3 = b.fresh_loc();
        let l5 = b.fresh_loc();
        let l6 = b.fresh_loc();
        let l7 = b.fresh_loc();
        b.mark_atomic(l2);
        b.mark_atomic(l3);
        b.edge(l1, Op::assign(old, Expr::var(state)), l2);
        b.edge(l2, Op::assume(BoolExpr::eq(Expr::var(state), Expr::int(0))), l3);
        b.edge(l3, Op::assign(state, Expr::int(1)), l5);
        b.edge(l2, Op::assume(BoolExpr::ne(Expr::var(state), Expr::int(0))), l5);
        b.edge(l5, Op::assume(BoolExpr::eq(Expr::var(old), Expr::int(0))), l6);
        b.edge(l5, Op::assume(BoolExpr::ne(Expr::var(old), Expr::int(0))), l1);
        b.edge(l6, Op::assign(x, Expr::var(x) + Expr::int(1)), l7);
        b.edge(l7, Op::assign(state, Expr::int(0)), l1);
        b.build()
    }

    #[test]
    fn digest_is_alpha_renaming_invariant() {
        let a = renamed_figure1("fig1", ["x", "state", "old"]);
        let b = renamed_figure1("totally_different", ["count", "flag", "snapshot"]);
        assert_eq!(structural_digest(&a), structural_digest(&b));
        assert_eq!(structural_digest(&a), structural_digest(&figure1_cfa()));
    }

    #[test]
    fn digest_sees_semantic_changes() {
        let base = figure1_cfa();
        let mut changed_op = renamed_figure1("fig1", ["x", "state", "old"]);
        // identical so far
        assert_eq!(structural_digest(&base), structural_digest(&changed_op));
        // an extra edge changes the digest
        let mut b = CfaBuilder::new("fig1");
        let x = b.global("x");
        let _state = b.global("state");
        let _old = b.local("old");
        let l1 = b.entry();
        b.edge(l1, Op::assign(x, Expr::int(0)), l1);
        changed_op = b.build();
        assert_ne!(structural_digest(&base), structural_digest(&changed_op));
    }

    #[test]
    fn digest_sees_atomicity_and_kind_changes() {
        // Same automaton, one atomic mark removed: different digest.
        let with_atomic = renamed_figure1("a", ["x", "state", "old"]);
        let mut b = CfaBuilder::new("a");
        let x = b.global("x");
        let state = b.global("state");
        let old = b.local("old");
        let l1 = b.entry();
        let l2 = b.fresh_loc();
        let l3 = b.fresh_loc();
        let l5 = b.fresh_loc();
        let l6 = b.fresh_loc();
        let l7 = b.fresh_loc();
        b.mark_atomic(l2); // l3 not atomic this time
        b.edge(l1, Op::assign(old, Expr::var(state)), l2);
        b.edge(l2, Op::assume(BoolExpr::eq(Expr::var(state), Expr::int(0))), l3);
        b.edge(l3, Op::assign(state, Expr::int(1)), l5);
        b.edge(l2, Op::assume(BoolExpr::ne(Expr::var(state), Expr::int(0))), l5);
        b.edge(l5, Op::assume(BoolExpr::eq(Expr::var(old), Expr::int(0))), l6);
        b.edge(l5, Op::assume(BoolExpr::ne(Expr::var(old), Expr::int(0))), l1);
        b.edge(l6, Op::assign(x, Expr::var(x) + Expr::int(1)), l7);
        b.edge(l7, Op::assign(state, Expr::int(0)), l1);
        let without = b.build();
        assert_ne!(structural_digest(&with_atomic), structural_digest(&without));
    }

    #[test]
    fn rendering_has_no_variable_names() {
        let cfa = renamed_figure1("fig1", ["somename", "othername", "third"]);
        let r = structural_rendering(&cfa);
        assert!(!r.contains("somename") && !r.contains("fig1"), "{r}");
    }
}
