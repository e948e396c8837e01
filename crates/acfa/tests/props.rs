//! Randomized validation of the control-abstraction machinery: the
//! weak-bisimulation quotient must always simulate the original
//! automaton (the invariant CIRC's guarantee step relies on), be
//! idempotent, and the cube/region lattice operations must respect
//! their semantic contracts. CheckSim and Collapse are also compared
//! against straightforward reference implementations (one oracle call
//! per location pair, `BTreeSet` signatures) that they must match
//! exactly.
//!
//! Inputs are drawn from a deterministic seeded generator so failures
//! reproduce exactly; each assertion message carries the case index.

use circ_acfa::{
    check_sim, check_sim_budgeted, collapse, Acfa, AcfaEdge, AcfaLocId, CollapseResult, Cube,
    PredIx, Region,
};
use circ_governor::Budget;
use circ_ir::Var;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashSet};

const NPREDS: usize = 2;
const NVARS: u32 = 2;
const CASES: usize = 96;

fn gen_cube(rng: &mut StdRng) -> Cube {
    let mut c = Cube::top(NPREDS);
    for i in 0..NPREDS {
        match rng.gen_range(0u32..3) {
            0 => {}
            1 => c.set(PredIx(i as u32), false),
            _ => c.set(PredIx(i as u32), true),
        }
    }
    c
}

fn gen_region(rng: &mut StdRng) -> Region {
    let mut r = Region::empty();
    for _ in 0..rng.gen_range(1usize..3) {
        r.add(gen_cube(rng));
    }
    r
}

fn gen_acfa(rng: &mut StdRng) -> Acfa {
    let n = rng.gen_range(2u32..6);
    let regions = (0..n).map(|_| gen_region(rng)).collect();
    let mut atomic: Vec<bool> = (0..n).map(|_| rng.gen_bool_uniform()).collect();
    atomic[0] = false; // entry stays non-atomic
    let edges = (0..rng.gen_range(1usize..8))
        .map(|_| {
            let src = rng.gen_range(0..n);
            let dst = rng.gen_range(0..n);
            let havoc_mask = rng.gen_range(0u32..(1 << NVARS));
            AcfaEdge { src: AcfaLocId(src), havoc: havoc_of_mask(havoc_mask), dst: AcfaLocId(dst) }
        })
        .collect();
    Acfa::from_parts(regions, atomic, edges)
}

/// The havoc set holding variable `i` for every bit `i` set in `mask`.
fn havoc_of_mask(mask: u32) -> BTreeSet<Var> {
    (0..u32::BITS).filter(|i| mask & (1 << i) != 0).map(Var::from_raw).collect()
}

/// Semantic state set of a cube over boolean predicate valuations.
fn cube_admits(c: &Cube, valuation: u32) -> bool {
    c.literals().all(|(i, v)| ((valuation >> i.0) & 1 == 1) == v)
}

fn region_admits(r: &Region, valuation: u32) -> bool {
    r.cubes().iter().any(|c| cube_admits(c, valuation))
}

#[test]
fn quotient_simulates_original() {
    let mut rng = StdRng::seed_from_u64(0xacfa_0001);
    for case in 0..CASES {
        let g = gen_acfa(&mut rng);
        let q = collapse(&g);
        assert!(
            check_sim(&g, &q.acfa),
            "case {case}: the collapse quotient must weakly simulate its input: {g:?}"
        );
        assert!(q.acfa.num_locs() <= g.num_locs(), "case {case}");
        assert_eq!(q.map.len(), g.num_locs(), "case {case}");
        assert_eq!(q.map[g.entry().index()], q.acfa.entry(), "case {case}");
    }
}

/// Shrunk counterexample formerly checked in as a proptest regression
/// seed: two locations with comparable (but unequal) regions and a
/// havoc self-loop once collapsed into a quotient that failed to
/// weakly simulate the input.
#[test]
fn quotient_simulates_original_regression() {
    let mut narrow = Cube::top(NPREDS);
    narrow.set(PredIx(0), false);
    let mut r0 = Region::empty();
    r0.add(Cube::top(NPREDS));
    let mut r1 = Region::empty();
    r1.add(narrow);
    let havoc0: BTreeSet<Var> = [Var::from_raw(0)].into_iter().collect();
    let g = Acfa::from_parts(
        vec![r0, r1],
        vec![false, false],
        vec![
            AcfaEdge { src: AcfaLocId(0), havoc: havoc0.clone(), dst: AcfaLocId(1) },
            AcfaEdge { src: AcfaLocId(0), havoc: BTreeSet::new(), dst: AcfaLocId(1) },
            AcfaEdge { src: AcfaLocId(1), havoc: havoc0, dst: AcfaLocId(0) },
        ],
    );
    let q = collapse(&g);
    assert!(check_sim(&g, &q.acfa), "the collapse quotient must weakly simulate its input: {g:?}");
}

#[test]
fn collapse_is_idempotent() {
    let mut rng = StdRng::seed_from_u64(0xacfa_0002);
    for case in 0..CASES {
        let g = gen_acfa(&mut rng);
        let once = collapse(&g);
        let twice = collapse(&once.acfa);
        assert_eq!(
            once.acfa.num_locs(),
            twice.acfa.num_locs(),
            "case {case}: a quotient must be its own quotient: {g:?}"
        );
    }
}

#[test]
fn simulation_is_reflexive() {
    let mut rng = StdRng::seed_from_u64(0xacfa_0003);
    for case in 0..CASES {
        let g = gen_acfa(&mut rng);
        assert!(check_sim(&g, &g), "case {case}: {g:?}");
    }
}

#[test]
fn cube_meet_is_intersection() {
    let mut rng = StdRng::seed_from_u64(0xacfa_0004);
    for case in 0..CASES {
        let a = gen_cube(&mut rng);
        let b = gen_cube(&mut rng);
        for valuation in 0..(1u32 << NPREDS) {
            let both = cube_admits(&a, valuation) && cube_admits(&b, valuation);
            match a.meet(&b) {
                Some(m) => assert_eq!(
                    cube_admits(&m, valuation),
                    both,
                    "case {case}: meet of {a} and {b} wrong at {valuation:b}"
                ),
                None => assert!(!both, "case {case}: meet said empty but {valuation:b} is in both"),
            }
        }
    }
}

#[test]
fn cube_subsumption_is_containment() {
    let mut rng = StdRng::seed_from_u64(0xacfa_0005);
    for case in 0..CASES {
        let a = gen_cube(&mut rng);
        let b = gen_cube(&mut rng);
        if a.subsumed_by(&b) {
            for valuation in 0..(1u32 << NPREDS) {
                if cube_admits(&a, valuation) {
                    assert!(cube_admits(&b, valuation), "case {case}: {a} ⊑ {b}");
                }
            }
        }
    }
}

#[test]
fn region_union_and_containment() {
    let mut rng = StdRng::seed_from_u64(0xacfa_0006);
    for case in 0..CASES {
        let r1 = gen_region(&mut rng);
        let r2 = gen_region(&mut rng);
        let mut u = r1.clone();
        u.union(&r2);
        for valuation in 0..(1u32 << NPREDS) {
            assert_eq!(
                region_admits(&u, valuation),
                region_admits(&r1, valuation) || region_admits(&r2, valuation),
                "case {case}"
            );
        }
        // syntactic containment implies semantic containment
        if r1.contained_in(&r2) {
            for valuation in 0..(1u32 << NPREDS) {
                if region_admits(&r1, valuation) {
                    assert!(region_admits(&r2, valuation), "case {case}");
                }
            }
        }
        // both operands are contained in the union
        assert!(r1.contained_in(&u), "case {case}");
        assert!(r2.contained_in(&u), "case {case}");
    }
}

#[test]
fn region_meet_is_intersection() {
    let mut rng = StdRng::seed_from_u64(0xacfa_0007);
    for case in 0..CASES {
        let r1 = gen_region(&mut rng);
        let r2 = gen_region(&mut rng);
        let m = r1.meet(&r2);
        for valuation in 0..(1u32 << NPREDS) {
            assert_eq!(
                region_admits(&m, valuation),
                region_admits(&r1, valuation) && region_admits(&r2, valuation),
                "case {case}"
            );
        }
    }
}

#[test]
fn region_project_weakens() {
    let mut rng = StdRng::seed_from_u64(0xacfa_0008);
    for case in 0..CASES {
        let r = gen_region(&mut rng);
        let keep_mask = rng.gen_range(0u32..(1 << NPREDS));
        let p = r.project(&|i| keep_mask & (1 << i.0) != 0);
        for valuation in 0..(1u32 << NPREDS) {
            if region_admits(&r, valuation) {
                assert!(
                    region_admits(&p, valuation),
                    "case {case}: projection must over-approximate"
                );
            }
        }
    }
}

/// An ARG-shaped automaton: a spine of 20–60 locations with τ-chains,
/// back edges and branches, contiguous atomic runs, and at most two
/// distinct regions (so at most four distinct `(region, atomic)`
/// labels), mirroring the exported reachability graphs CIRC feeds to
/// CheckSim and Collapse.
fn gen_arg_shaped(rng: &mut StdRng) -> Acfa {
    let n = rng.gen_range(20u32..61);
    let pool = [gen_region(rng), gen_region(rng)];
    let regions = (0..n).map(|_| pool[rng.gen_range(0usize..2)].clone()).collect();
    let mut atomic = vec![false; n as usize];
    for _ in 0..rng.gen_range(0u32..4) {
        let start = rng.gen_range(1..n);
        let len = rng.gen_range(1u32..5);
        for q in start..(start + len).min(n) {
            atomic[q as usize] = true;
        }
    }
    let mut edges = Vec::new();
    for q in 0..n - 1 {
        // Spine edges are silent about half the time: τ-chains.
        let mask = if rng.gen_range(0u32..2) == 0 { 0 } else { rng.gen_range(1u32..8) };
        edges.push(AcfaEdge {
            src: AcfaLocId(q),
            havoc: havoc_of_mask(mask),
            dst: AcfaLocId(q + 1),
        });
    }
    for _ in 0..rng.gen_range(1u32..(n / 4)) {
        let src = rng.gen_range(0..n);
        let dst = rng.gen_range(0..n);
        let mask = if rng.gen_range(0u32..3) == 0 { 0 } else { rng.gen_range(1u32..8) };
        edges.push(AcfaEdge {
            src: AcfaLocId(src),
            havoc: havoc_of_mask(mask),
            dst: AcfaLocId(dst),
        });
    }
    Acfa::from_parts(regions, atomic, edges)
}

/// Semantic region containment over all predicate valuations.
fn semantic_contains(a: &Region, b: &Region) -> bool {
    (0..(1u32 << NPREDS)).all(|v| !region_admits(a, v) || region_admits(b, v))
}

/// Reference τ-closure: one `BTreeSet` per location.
fn ref_tau_reach(g: &Acfa, q: AcfaLocId) -> BTreeSet<AcfaLocId> {
    let mut seen: BTreeSet<AcfaLocId> = [q].into();
    let mut stack = vec![q];
    while let Some(s) = stack.pop() {
        for e in g.out_edges(s) {
            if e.havoc.is_empty() && seen.insert(e.dst) {
                stack.push(e.dst);
            }
        }
    }
    seen
}

/// Reference CheckSim: the oracle is asked for every location pair
/// with equal atomicity, then Jacobi passes prune the relation.
fn ref_check_sim(g: &Acfa, a: &Acfa, contains: &dyn Fn(&Region, &Region) -> bool) -> (bool, u64) {
    let a_tau: Vec<BTreeSet<AcfaLocId>> = a.locs().map(|p| ref_tau_reach(a, p)).collect();
    let weak: Vec<BTreeSet<(BTreeSet<Var>, AcfaLocId)>> = a
        .locs()
        .map(|p| {
            let mut set = BTreeSet::new();
            for &p1 in &a_tau[p.index()] {
                for e in a.out_edges(p1).filter(|e| !e.havoc.is_empty()) {
                    for &p2 in &a_tau[e.dst.index()] {
                        set.insert((e.havoc.clone(), p2));
                    }
                }
            }
            set
        })
        .collect();
    let mut rel: Vec<Vec<bool>> = g
        .locs()
        .map(|q| {
            a.locs()
                .map(|p| g.is_atomic(q) == a.is_atomic(p) && contains(g.region(q), a.region(p)))
                .collect()
        })
        .collect();
    let mut pairs = (g.num_locs() * a.num_locs()) as u64;
    let mut changed = true;
    while changed {
        let mut next = rel.clone();
        for q in g.locs() {
            for p in a.locs() {
                if !rel[q.index()][p.index()] {
                    continue;
                }
                pairs += 1;
                next[q.index()][p.index()] = g.out_edges(q).all(|e| {
                    let d = e.dst.index();
                    weak[p.index()].iter().any(|(y, p2)| e.havoc.is_subset(y) && rel[d][p2.index()])
                        || (e.havoc.is_empty()
                            && a_tau[p.index()].iter().any(|p2| rel[d][p2.index()]))
                });
            }
        }
        changed = next != rel;
        rel = next;
    }
    (rel[g.entry().index()][a.entry().index()], pairs)
}

type RefSig<'g> = BTreeSet<(Option<&'g BTreeSet<Var>>, u32)>;

/// Reference Collapse: partition keyed on the region's display text,
/// refined on `BTreeSet` signatures built from per-location
/// τ-closures: each iteration takes the blocks of every location's
/// closure, and a location's weak moves are its closure's havocking
/// edges, each to the blocks of its destination's closure.
fn ref_collapse(g: &Acfa) -> CollapseResult {
    let tau: Vec<BTreeSet<AcfaLocId>> = g.locs().map(|q| ref_tau_reach(g, q)).collect();
    let observable: Vec<BTreeSet<(&BTreeSet<Var>, AcfaLocId)>> = g
        .locs()
        .map(|q| {
            tau[q.index()]
                .iter()
                .flat_map(|&s1| g.out_edges(s1).filter(|e| !e.havoc.is_empty()))
                .map(|e| (&e.havoc, e.dst))
                .collect()
        })
        .collect();
    let mut keys: BTreeMap<(String, bool), u32> = BTreeMap::new();
    let mut block: Vec<u32> = g
        .locs()
        .map(|q| {
            let next = keys.len() as u32;
            *keys.entry((g.region(q).to_string(), g.is_atomic(q))).or_insert(next)
        })
        .collect();
    let mut iterations = 0;
    loop {
        iterations += 1;
        let tau_blocks: Vec<BTreeSet<u32>> =
            tau.iter().map(|c| c.iter().map(|s| block[s.index()]).collect()).collect();
        let mut keys: BTreeMap<(u32, RefSig), u32> = BTreeMap::new();
        let new_block: Vec<u32> = g
            .locs()
            .map(|q| {
                let mine = block[q.index()];
                let mut sig: RefSig = tau_blocks[q.index()]
                    .iter()
                    .filter(|&&b| b != mine)
                    .map(|&b| (None, b))
                    .collect();
                for &(y, dst) in &observable[q.index()] {
                    sig.extend(tau_blocks[dst.index()].iter().map(|&b| (Some(y), b)));
                }
                let next = keys.len() as u32;
                *keys.entry((mine, sig)).or_insert(next)
            })
            .collect();
        let old_count = block.iter().collect::<BTreeSet<_>>().len();
        block = new_block;
        if keys.len() == old_count {
            break;
        }
    }
    let mut renum: BTreeMap<u32, u32> = [(block[g.entry().index()], 0)].into();
    for &b in &block {
        let next = renum.len() as u32;
        renum.entry(b).or_insert(next);
    }
    let map: Vec<AcfaLocId> = block.iter().map(|b| AcfaLocId(renum[b])).collect();
    let mut reps: BTreeMap<u32, AcfaLocId> = BTreeMap::new();
    for q in g.locs() {
        reps.entry(map[q.index()].0).or_insert(q);
    }
    let mut edge_map: BTreeMap<(u32, u32), BTreeSet<Var>> = BTreeMap::new();
    for e in g.edges() {
        let (bs, bd) = (map[e.src.index()].0, map[e.dst.index()].0);
        if bs != bd || !e.havoc.is_empty() {
            edge_map.entry((bs, bd)).or_default().extend(e.havoc.iter().copied());
        }
    }
    let acfa = Acfa::from_parts(
        reps.values().map(|&q| g.region(q).clone()).collect(),
        reps.values().map(|&q| g.is_atomic(q)).collect(),
        edge_map
            .into_iter()
            .map(|((s, d), havoc)| AcfaEdge { src: AcfaLocId(s), havoc, dst: AcfaLocId(d) })
            .collect(),
    );
    CollapseResult { acfa, map, iterations }
}

fn assert_same_collapse(case: &str, got: &CollapseResult, want: &CollapseResult) {
    assert_eq!(got.map, want.map, "{case}: map");
    assert_eq!(got.iterations, want.iterations, "{case}: iterations");
    assert_eq!(got.acfa.edges(), want.acfa.edges(), "{case}: quotient edges");
    for q in want.acfa.locs() {
        assert_eq!(got.acfa.region(q), want.acfa.region(q), "{case}: region of {q}");
        assert_eq!(got.acfa.is_atomic(q), want.acfa.is_atomic(q), "{case}: atomicity of {q}");
    }
    assert_eq!(got.acfa.num_locs(), want.acfa.num_locs(), "{case}: quotient size");
}

#[test]
fn collapse_matches_reference() {
    let mut rng = StdRng::seed_from_u64(0xacfa_0009);
    for case in 0..CASES {
        let g = gen_acfa(&mut rng);
        assert_same_collapse(&format!("small case {case}"), &collapse(&g), &ref_collapse(&g));
        let g = gen_arg_shaped(&mut rng);
        assert_same_collapse(&format!("arg case {case}"), &collapse(&g), &ref_collapse(&g));
    }
}

#[test]
fn check_sim_matches_reference() {
    let mut rng = StdRng::seed_from_u64(0xacfa_000a);
    let syntactic = |x: &Region, y: &Region| x.contained_in(y);
    for case in 0..CASES {
        // Each automaton against its own quotient (the shape CIRC
        // checks), against a fresh automaton, and the reverse.
        let small = (gen_acfa(&mut rng), gen_acfa(&mut rng));
        let arg = (gen_arg_shaped(&mut rng), gen_arg_shaped(&mut rng));
        for (g, other) in [&small, &arg] {
            let quotient = collapse(g).acfa;
            for (x, y) in [(g, &quotient), (&quotient, g), (g, other), (other, g)] {
                for oracle in [&syntactic as &dyn Fn(&Region, &Region) -> bool, &semantic_contains]
                {
                    assert_eq!(
                        check_sim_budgeted(x, y, oracle, &Budget::unlimited()).unwrap(),
                        ref_check_sim(x, y, oracle),
                        "case {case}: {x:?} vs {y:?}"
                    );
                }
            }
        }
    }
}

/// Distinct `(g-label, a-label)` pairs with equal atomicity: the most
/// oracle calls CheckSim may make.
fn distinct_label_pairs(g: &Acfa, a: &Acfa) -> usize {
    let labels = |x: &Acfa| -> HashSet<(Region, bool)> {
        x.locs().map(|q| (x.region(q).clone(), x.is_atomic(q))).collect()
    };
    let a_labels = labels(a);
    labels(g).iter().map(|(_, ga)| a_labels.iter().filter(|(_, aa)| aa == ga).count()).sum()
}

#[test]
fn check_sim_asks_the_oracle_once_per_distinct_label_pair() {
    let mut rng = StdRng::seed_from_u64(0xacfa_000b);
    for case in 0..CASES {
        let g = gen_arg_shaped(&mut rng);
        let a = collapse(&g).acfa;
        let calls = Cell::new(0usize);
        let oracle = |x: &Region, y: &Region| {
            calls.set(calls.get() + 1);
            semantic_contains(x, y)
        };
        check_sim_budgeted(&g, &a, &oracle, &Budget::unlimited()).unwrap();
        let bound = distinct_label_pairs(&g, &a);
        let calls = calls.get();
        assert!(calls <= bound, "case {case}: {calls} oracle calls for {bound} label pairs");
    }
}

/// A ring-ARG lookalike: 100–500 locations on a spine cut into
/// segments of 5–50, most of them closed into a τ-SCC by a silent
/// back edge, with forward τ shortcuts between segments, havocking
/// edges (three distinct havoc sets) back to earlier locations, at
/// most four `(region, atomic)` labels, and labels that vary inside a
/// segment so components straddle blocks.
fn gen_scc_heavy(rng: &mut StdRng) -> Acfa {
    let n = rng.gen_range(100u32..501);
    let pool = [gen_region(rng), gen_region(rng)];
    let havocs = [havoc_of_mask(1), havoc_of_mask(2), havoc_of_mask(3)];
    let mut regions = Vec::with_capacity(n as usize);
    let mut atomic = Vec::with_capacity(n as usize);
    let mut edges = Vec::new();
    let mut segments: Vec<(u32, u32)> = Vec::new();
    let mut start = 0;
    while start < n {
        let end = (start + rng.gen_range(5u32..51)).min(n);
        let label = rng.gen_range(0usize..2);
        let seg_atomic = rng.gen_range(0u32..4) == 0;
        for q in start..end {
            let stray = rng.gen_range(0u32..5) == 0;
            regions.push(pool[if stray { 1 - label } else { label }].clone());
            atomic.push(q != 0 && seg_atomic);
            if q + 1 < end {
                edges.push(AcfaEdge {
                    src: AcfaLocId(q),
                    havoc: BTreeSet::new(),
                    dst: AcfaLocId(q + 1),
                });
            }
        }
        if rng.gen_range(0u32..4) != 0 {
            edges.push(AcfaEdge {
                src: AcfaLocId(end - 1),
                havoc: BTreeSet::new(),
                dst: AcfaLocId(start),
            });
        }
        if end < n {
            let silent = rng.gen_range(0u32..4) == 0;
            edges.push(AcfaEdge {
                src: AcfaLocId(end - 1),
                havoc: if silent {
                    BTreeSet::new()
                } else {
                    havocs[rng.gen_range(0usize..3)].clone()
                },
                dst: AcfaLocId(end),
            });
        }
        segments.push((start, end));
        start = end;
    }
    // The ring closes: the last location havocs back to the entry.
    edges.push(AcfaEdge { src: AcfaLocId(n - 1), havoc: havocs[0].clone(), dst: AcfaLocId(0) });
    for _ in 0..rng.gen_range(1u32..(n / 8)) {
        let src = rng.gen_range(0..n);
        if rng.gen_range(0u32..3) == 0 {
            // A forward τ shortcut into a later segment keeps every
            // τ-SCC inside one segment.
            let seg = segments.iter().position(|&(s, e)| (s..e).contains(&src)).unwrap();
            if let Some(&(s, e)) = segments.get(rng.gen_range(seg + 1..segments.len() + 1)) {
                let dst = rng.gen_range(s..e);
                edges.push(AcfaEdge {
                    src: AcfaLocId(src),
                    havoc: BTreeSet::new(),
                    dst: AcfaLocId(dst),
                });
            }
        } else {
            let dst = rng.gen_range(0..src + 1);
            edges.push(AcfaEdge {
                src: AcfaLocId(src),
                havoc: havocs[rng.gen_range(0usize..3)].clone(),
                dst: AcfaLocId(dst),
            });
        }
    }
    Acfa::from_parts(regions, atomic, edges)
}

/// The largest τ-SCC of `g`: the largest set of locations whose
/// reference τ-closures contain each other.
fn largest_tau_scc(g: &Acfa) -> usize {
    let tau: Vec<BTreeSet<AcfaLocId>> = g.locs().map(|q| ref_tau_reach(g, q)).collect();
    g.locs()
        .map(|q| tau[q.index()].iter().filter(|s| tau[s.index()].contains(&q)).count())
        .max()
        .unwrap_or(0)
}

#[test]
fn collapse_matches_reference_on_scc_heavy_args() {
    let mut rng = StdRng::seed_from_u64(0xacfa_000c);
    let mut widest = 0;
    for case in 0..12 {
        let g = gen_scc_heavy(&mut rng);
        widest = widest.max(largest_tau_scc(&g));
        assert_same_collapse(&format!("scc case {case}"), &collapse(&g), &ref_collapse(&g));
    }
    assert!(widest >= 20, "the generator must produce wide τ-SCCs (widest {widest})");
}

#[test]
fn every_location_carries_its_class_label() {
    let mut rng = StdRng::seed_from_u64(0xacfa_000d);
    for case in 0..CASES {
        let shaped = if case % 4 == 0 { gen_scc_heavy(&mut rng) } else { gen_arg_shaped(&mut rng) };
        for g in [gen_acfa(&mut rng), shaped] {
            let r = collapse(&g);
            for q in g.locs() {
                let class = r.map[q.index()];
                assert_eq!(g.region(q), r.acfa.region(class), "case {case}: region of {q}");
                assert_eq!(
                    g.is_atomic(q),
                    r.acfa.is_atomic(class),
                    "case {case}: atomicity of {q}"
                );
            }
        }
    }
}
