//! Abstract control flow automata (§3.3).
//!
//! An ACFA is `(Q, q0, X, →, Q*, r)`: abstract locations labeled by
//! regions `r(q)` over the *global* predicates, havoc-labeled edges,
//! and atomic locations. When an abstract thread traverses an edge
//! `q -Y→ q'`, the globals in `Y` receive arbitrary values subject to
//! the target label `r(q')`.

use crate::cube::Region;
use circ_ir::Var;
use std::collections::BTreeSet;
use std::fmt;
use std::fmt::Write as _;

/// An abstract location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AcfaLocId(pub u32);

impl AcfaLocId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AcfaLocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A{}", self.0)
    }
}

/// A havoc edge of an ACFA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcfaEdge {
    /// Source location.
    pub src: AcfaLocId,
    /// Global variables written (with arbitrary values) on traversal.
    pub havoc: BTreeSet<Var>,
    /// Target location.
    pub dst: AcfaLocId,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct AcfaLoc {
    region: Region,
    atomic: bool,
}

/// An abstract control flow automaton.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Acfa {
    locs: Vec<AcfaLoc>,
    edges: Vec<AcfaEdge>,
    out: Vec<Vec<usize>>,
}

impl Acfa {
    /// The *empty* ACFA over `n_preds` predicates: a single non-atomic
    /// location labeled `true` with no edges — a context that does
    /// nothing (the initial context of CIRC).
    pub fn empty(n_preds: usize) -> Acfa {
        Acfa {
            locs: vec![AcfaLoc { region: Region::full(n_preds), atomic: false }],
            edges: Vec::new(),
            out: vec![Vec::new()],
        }
    }

    /// Builds an ACFA from parts. Location 0 is the start location.
    ///
    /// # Panics
    ///
    /// Panics if `regions` is empty, lengths mismatch, or an edge
    /// endpoint is out of range.
    pub fn from_parts(regions: Vec<Region>, atomic: Vec<bool>, edges: Vec<AcfaEdge>) -> Acfa {
        assert!(!regions.is_empty(), "an ACFA needs at least the start location");
        assert_eq!(regions.len(), atomic.len(), "regions/atomic length mismatch");
        let n = regions.len();
        let mut out = vec![Vec::new(); n];
        for (i, e) in edges.iter().enumerate() {
            assert!(e.src.index() < n && e.dst.index() < n, "edge endpoint out of range");
            out[e.src.index()].push(i);
        }
        let locs = regions
            .into_iter()
            .zip(atomic)
            .map(|(region, atomic)| AcfaLoc { region, atomic })
            .collect();
        Acfa { locs, edges, out }
    }

    /// The start location.
    pub fn entry(&self) -> AcfaLocId {
        AcfaLocId(0)
    }

    /// Number of abstract locations.
    pub fn num_locs(&self) -> usize {
        self.locs.len()
    }

    /// Iterator over location ids.
    pub fn locs(&self) -> impl Iterator<Item = AcfaLocId> {
        (0..self.locs.len() as u32).map(AcfaLocId)
    }

    /// The region labeling `q`.
    pub fn region(&self, q: AcfaLocId) -> &Region {
        &self.locs[q.index()].region
    }

    /// Whether `q` is atomic.
    pub fn is_atomic(&self, q: AcfaLocId) -> bool {
        self.locs[q.index()].atomic
    }

    /// All edges.
    pub fn edges(&self) -> &[AcfaEdge] {
        &self.edges
    }

    /// Out-edges of `q`, in [`Acfa::edges`] order.
    pub fn out_edges(&self, q: AcfaLocId) -> impl Iterator<Item = &AcfaEdge> {
        self.out[q.index()].iter().map(|&i| &self.edges[i])
    }

    /// Indices into [`Acfa::edges`] of the out-edges of `q`, ascending.
    pub fn out_edge_ixs(&self, q: AcfaLocId) -> &[usize] {
        &self.out[q.index()]
    }

    /// Whether a context thread at `q` can write `x`: some out-edge
    /// havocs `x` (§4.1 — abstract threads never *read*).
    pub fn writes_at(&self, q: AcfaLocId, x: Var) -> bool {
        self.out_edges(q).any(|e| e.havoc.contains(&x))
    }

    /// The τ-closure of every location: `closures[q]` lists, in
    /// ascending order, the locations reachable from `q` by edges with
    /// an empty havoc set, `q` itself included.
    pub fn tau_closures(&self) -> Vec<Vec<AcfaLocId>> {
        // `seen[s] == q + 1` marks `s` as already in `q`'s closure, so
        // one mark vector serves every search without clearing.
        let mut seen = vec![0u32; self.num_locs()];
        let mut stack = Vec::new();
        self.locs()
            .map(|q| {
                let stamp = q.0 + 1;
                seen[q.index()] = stamp;
                let mut closure = vec![q];
                stack.push(q);
                while let Some(s) = stack.pop() {
                    for e in self.out_edges(s) {
                        if e.havoc.is_empty() && seen[e.dst.index()] != stamp {
                            seen[e.dst.index()] = stamp;
                            closure.push(e.dst);
                            stack.push(e.dst);
                        }
                    }
                }
                closure.sort_unstable();
                closure
            })
            .collect()
    }

    /// Renders the ACFA as text, naming predicates with `pred_name`
    /// and variables with `var_name`.
    pub fn display_with(
        &self,
        pred_name: &impl Fn(crate::cube::PredIx) -> String,
        var_name: &impl Fn(Var) -> String,
    ) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "ACFA ({} locations, {} edges)", self.num_locs(), self.edges.len());
        for q in self.locs() {
            let star = if self.is_atomic(q) { "*" } else { " " };
            let entry = if q == self.entry() { " (start)" } else { "" };
            let _ = writeln!(s, "  {q}{star}{entry}  [{}]", self.region(q).display_with(pred_name));
            for e in self.out_edges(q) {
                let havoc: Vec<String> = e.havoc.iter().map(|v| var_name(*v)).collect();
                let _ = writeln!(s, "    --havoc{{{}}}--> {}", havoc.join(","), e.dst);
            }
        }
        s
    }
}

impl fmt::Display for Acfa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display_with(&|i| format!("{i}"), &|v| format!("{v}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::{Cube, PredIx};

    fn v(n: u32) -> Var {
        Var::from_raw(n)
    }

    #[test]
    fn empty_acfa_shape() {
        let a = Acfa::empty(2);
        assert_eq!(a.num_locs(), 1);
        assert!(a.edges().is_empty());
        assert!(!a.is_atomic(a.entry()));
        assert!(!a.region(a.entry()).is_empty());
    }

    #[test]
    fn from_parts_and_queries() {
        let r0 = Region::full(1);
        let r1 = Region::of_cube(Cube::top(1).with(PredIx(0), true));
        let e = AcfaEdge { src: AcfaLocId(0), havoc: [v(0)].into(), dst: AcfaLocId(1) };
        let a = Acfa::from_parts(vec![r0, r1], vec![false, true], vec![e]);
        assert_eq!(a.num_locs(), 2);
        assert!(a.is_atomic(AcfaLocId(1)));
        assert!(a.writes_at(AcfaLocId(0), v(0)));
        assert!(!a.writes_at(AcfaLocId(0), v(1)));
        assert!(!a.writes_at(AcfaLocId(1), v(0)));
    }

    #[test]
    fn tau_reach_follows_empty_havoc_only() {
        // 0 -τ-> 1 -{x}-> 2 -τ-> 0
        let r = Region::full(0);
        let edges = vec![
            AcfaEdge { src: AcfaLocId(0), havoc: BTreeSet::new(), dst: AcfaLocId(1) },
            AcfaEdge { src: AcfaLocId(1), havoc: [v(0)].into(), dst: AcfaLocId(2) },
            AcfaEdge { src: AcfaLocId(2), havoc: BTreeSet::new(), dst: AcfaLocId(0) },
        ];
        let a = Acfa::from_parts(vec![r.clone(), r.clone(), r], vec![false; 3], edges);
        let tau = a.tau_closures();
        assert_eq!(tau[0], [AcfaLocId(0), AcfaLocId(1)]);
        assert_eq!(tau[1], [AcfaLocId(1)]);
        assert_eq!(tau[2], [AcfaLocId(0), AcfaLocId(1), AcfaLocId(2)]); // 2 -τ-> 0 -τ-> 1
    }

    #[test]
    #[should_panic(expected = "edge endpoint out of range")]
    fn bad_edge_panics() {
        let e = AcfaEdge { src: AcfaLocId(0), havoc: BTreeSet::new(), dst: AcfaLocId(5) };
        let _ = Acfa::from_parts(vec![Region::full(0)], vec![false], vec![e]);
    }
}
