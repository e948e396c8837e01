//! The **CheckSim** procedure: weak simulation between ACFAs (§4.2).
//!
//! `check_sim(g, a)` decides whether `a` *weakly simulates* `g`
//! (written `g ⪯ a`): the greatest relation such that `q ⪯ p`
//! requires
//!
//! 1. `region(q) ⊆ region(p)` and equal atomicity flags,
//! 2. every silent move `q -∅→ q'` is matched by some `p'' ∈ τ*(p)`
//!    with `q' ⪯ p''`,
//! 3. every observable move `q -Y→ q'` (Y ≠ ∅) is matched by a weak
//!    move `p ⇒Y'⇒ p''` (τ\* then one `Y'`-edge then τ\*) with
//!    `Y ⊆ Y'` and `q' ⪯ p''`.
//!
//! The havoc-set inclusion `Y ⊆ Y'` follows the paper: an edge that
//! havocs more variables exhibits a superset of behaviors.
//!
//! This check discharges the *guarantee* step of the circular
//! assume–guarantee argument: if the abstract reachability graph of
//! the main thread (in context `A^∞`) is simulated by `A`, then `A`
//! soundly over-approximates every thread.

use crate::acfa::{Acfa, AcfaLocId};
use crate::cube::Region;
use circ_governor::{Budget, Exhausted};
use circ_ir::Var;
use circ_par::FxHashMap;
use std::collections::BTreeSet;

/// Decides `g ⪯ a` using syntactic region containment (every cube of
/// the left region subsumed by some cube of the right). See
/// [`check_sim_with`] for a semantic containment oracle.
pub fn check_sim(g: &Acfa, a: &Acfa) -> bool {
    check_sim_with(g, a, &|x, y| x.contained_in(y))
}

/// Decides `g ⪯ a` (see module docs) with a caller-supplied region
/// containment test (e.g. an SMT-backed semantic check). Both
/// automata must label their regions over the same predicate
/// indexing.
pub fn check_sim_with(g: &Acfa, a: &Acfa, contains: &dyn Fn(&Region, &Region) -> bool) -> bool {
    check_sim_budgeted(g, a, contains, &Budget::unlimited())
        .expect("an unlimited budget cannot exhaust")
        .0
}

/// [`check_sim_with`] governed by a resource budget, additionally
/// reporting the number of `(g-location, a-location)` pairs examined
/// across all fixpoint passes — the work metric CIRC's statistics
/// track.
///
/// The label pass asks `contains` once per distinct pair of
/// `(region, atomic)` labels, not once per location pair: the oracle
/// is a pure function of its two regions, so every location pair with
/// the same labels shares one answer. The greatest fixpoint is then
/// computed Jacobi-style: every pass reads the relation as it stood
/// at the start of the pass and the computed kills are applied
/// together at the end.
///
/// The budget is polled once before the label pass and once per
/// Jacobi pass; its fault plan draws one `task_panic` per distinct
/// g-label. On exhaustion the fixpoint is abandoned and the caller
/// receives [`Exhausted`]; the partially-pruned relation is an
/// over-approximation of the greatest simulation, so no verdict can
/// soundly be extracted from it and none is returned.
pub fn check_sim_budgeted(
    g: &Acfa,
    a: &Acfa,
    contains: &dyn Fn(&Region, &Region) -> bool,
    budget: &Budget,
) -> Result<(bool, u64), Exhausted> {
    let mut pairs: u64 = 0;
    let ng = g.num_locs();
    let na = a.num_locs();

    // Weak observable moves of `a`: (Y', destination) pairs.
    let a_tau = a.tau_closures();
    let mut weak: Vec<Vec<(BTreeSet<Var>, AcfaLocId)>> = vec![Vec::new(); na];
    for p in a.locs() {
        let mut set: BTreeSet<(BTreeSet<Var>, AcfaLocId)> = BTreeSet::new();
        for &p1 in &a_tau[p.index()] {
            for e in a.out_edges(p1) {
                if e.havoc.is_empty() {
                    continue;
                }
                for &p2 in &a_tau[e.dst.index()] {
                    set.insert((e.havoc.clone(), p2));
                }
            }
        }
        weak[p.index()] = set.into_iter().collect();
    }

    // Greatest fixpoint: start from the label condition, prune. The
    // label matrix is computed once per distinct label pair, then
    // expanded to location pairs by label id.
    budget.check()?;
    let (g_label, g_labels) = intern_labels(g);
    let (a_label, a_labels) = intern_labels(a);
    let matrix: Vec<Vec<bool>> = g_labels
        .iter()
        .map(|&(gr, g_atomic)| {
            if budget.faults().task_panic() {
                panic!("injected task panic");
            }
            a_labels
                .iter()
                .map(|&(ar, a_atomic)| g_atomic == a_atomic && contains(gr, ar))
                .collect()
        })
        .collect();
    let mut rel: Vec<Vec<bool>> = g_label
        .iter()
        .map(|&gl| {
            let row = &matrix[gl as usize];
            a_label.iter().map(|&al| row[al as usize]).collect()
        })
        .collect();
    pairs += (ng as u64) * (na as u64);

    let mut changed = true;
    while changed {
        budget.check()?;
        // One Jacobi pass: decide every surviving pair against the
        // frozen snapshot `rel`, then apply the kills at once.
        let next: Vec<Vec<bool>> = g
            .locs()
            .map(|q| {
                a.locs()
                    .map(|p| {
                        if !rel[q.index()][p.index()] {
                            return false;
                        }
                        pairs += 1;
                        g.out_edges(q).all(|e| {
                            // A havoc edge may rewrite the old values, so
                            // any weak Y′-move with Y ⊆ Y′ matches —
                            // including Y = ∅ (the paper's condition (2)
                            // does not special-case silent moves). Silent
                            // moves may additionally be matched by staying
                            // put (weak simulation).
                            let by_weak_move = weak[p.index()].iter().any(|(y, p2)| {
                                e.havoc.is_subset(y) && rel[e.dst.index()][p2.index()]
                            });
                            let by_stutter = e.havoc.is_empty()
                                && a_tau[p.index()].iter().any(|p2| rel[e.dst.index()][p2.index()]);
                            by_weak_move || by_stutter
                        })
                    })
                    .collect()
            })
            .collect();
        changed = next != rel;
        rel = next;
    }

    Ok((rel[g.entry().index()][a.entry().index()], pairs))
}

/// Interns each location's `(region, atomic)` label: returns every
/// location's label id and the distinct labels, numbered by first
/// occurrence in location order.
fn intern_labels(acfa: &Acfa) -> (Vec<u32>, Vec<(&Region, bool)>) {
    let mut ids: FxHashMap<(&Region, bool), u32> = FxHashMap::default();
    let mut labels = Vec::new();
    let of_loc = acfa
        .locs()
        .map(|q| {
            let label = (acfa.region(q), acfa.is_atomic(q));
            *ids.entry(label).or_insert_with(|| {
                labels.push(label);
                labels.len() as u32 - 1
            })
        })
        .collect();
    (of_loc, labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acfa::AcfaEdge;
    use crate::collapse::collapse;
    use crate::cube::{Cube, PredIx};

    fn v(n: u32) -> Var {
        Var::from_raw(n)
    }

    fn edge(s: u32, havoc: &[u32], d: u32) -> AcfaEdge {
        AcfaEdge {
            src: AcfaLocId(s),
            havoc: havoc.iter().map(|x| v(*x)).collect(),
            dst: AcfaLocId(d),
        }
    }

    fn plain(n_locs: usize, edges: Vec<AcfaEdge>) -> Acfa {
        Acfa::from_parts(vec![Region::full(0); n_locs], vec![false; n_locs], edges)
    }

    #[test]
    fn empty_acfa_simulates_itself_only() {
        let empty = Acfa::empty(0);
        assert!(check_sim(&empty, &empty));
        // a one-step writer is NOT simulated by the empty context
        let writer = plain(2, vec![edge(0, &[0], 1)]);
        assert!(!check_sim(&writer, &empty));
        // but the empty context is simulated by the writer
        assert!(check_sim(&empty, &writer));
    }

    #[test]
    fn havoc_superset_simulates() {
        // g: 0 -{x}-> 1 ; a: 0 -{x,y}-> 1 — a simulates g, not vice
        // versa.
        let g = plain(2, vec![edge(0, &[0], 1)]);
        let a = plain(2, vec![edge(0, &[0, 1], 1)]);
        assert!(check_sim(&g, &a));
        assert!(!check_sim(&a, &g));
    }

    #[test]
    fn weak_matching_through_tau() {
        // g: 0 -{x}-> 1 ; a: 0 -τ-> 1 -{x}-> 2 — weakly simulates.
        let g = plain(2, vec![edge(0, &[0], 1)]);
        let a = plain(3, vec![edge(0, &[], 1), edge(1, &[0], 2)]);
        assert!(check_sim(&g, &a));
    }

    #[test]
    fn tau_moves_matched_by_staying() {
        // g: 0 -τ-> 1 -{x}-> 0 ; a: single loc with {x} self loop.
        let g = plain(2, vec![edge(0, &[], 1), edge(1, &[0], 0)]);
        let a = plain(1, vec![edge(0, &[0], 0)]);
        assert!(check_sim(&g, &a));
    }

    #[test]
    fn labels_block_simulation() {
        // g's target location allows p0 true or false, a's insists on
        // p0 true: containment fails on the false branch.
        let top = Region::full(1);
        let p0_true = Region::of_cube(Cube::top(1).with(PredIx(0), true));
        let g = Acfa::from_parts(
            vec![top.clone(), top.clone()],
            vec![false; 2],
            vec![edge(0, &[0], 1)],
        );
        let a = Acfa::from_parts(vec![top, p0_true], vec![false; 2], vec![edge(0, &[0], 1)]);
        assert!(!check_sim(&g, &a));
        assert!(check_sim(&a, &g));
    }

    #[test]
    fn atomicity_must_match() {
        let g =
            Acfa::from_parts(vec![Region::full(0); 2], vec![false, true], vec![edge(0, &[0], 1)]);
        let a = plain(2, vec![edge(0, &[0], 1)]);
        assert!(!check_sim(&g, &a));
        assert!(check_sim(&g, &g));
    }

    #[test]
    fn collapse_quotient_simulates_original() {
        // The quotient of any graph must simulate it (the guarantee
        // CIRC relies on when it reuses the minimized ARG as context).
        let g =
            plain(4, vec![edge(0, &[], 1), edge(1, &[1], 2), edge(2, &[0], 3), edge(3, &[1], 0)]);
        let q = collapse(&g);
        assert!(check_sim(&g, &q.acfa), "quotient must simulate the original");
    }

    #[test]
    fn exhausted_budget_aborts_the_fixpoint() {
        let g = plain(2, vec![edge(0, &[0], 1)]);
        let expired = Budget::with_timeout(std::time::Duration::ZERO);
        let result = check_sim_budgeted(&g, &g, &|x, y| x.contained_in(y), &expired);
        assert!(matches!(result, Err(Exhausted::Deadline { .. })));
        // The same check under no budget still answers normally.
        let ok = check_sim_budgeted(&g, &g, &|x, y| x.contained_in(y), &Budget::unlimited());
        assert!(matches!(ok, Ok((true, _))));
    }

    #[test]
    fn cycle_vs_finite_unrolling() {
        // A two-step unrolling of a loop is simulated by the loop.
        let unrolled = plain(3, vec![edge(0, &[0], 1), edge(1, &[0], 2)]);
        let looped = plain(1, vec![edge(0, &[0], 0)]);
        assert!(check_sim(&unrolled, &looped));
        // The loop is not simulated by the (terminating) unrolling.
        assert!(!check_sim(&looped, &unrolled));
    }
}
