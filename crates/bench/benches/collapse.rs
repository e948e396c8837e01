//! Scaling of the weak-bisimulation quotient (`Collapse`) and the
//! simulation check (`CheckSim`) — the control-abstraction machinery
//! that keeps CIRC's context models small (the paper's ACFA column).

use circ_acfa::{check_sim, collapse, Acfa, AcfaEdge, AcfaLocId, Cube, PredIx, Region};
use circ_ir::Var;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::BTreeSet;

/// A ring of `n` locations where every `period`-th edge havocs a
/// global: collapses to roughly `period`-many classes.
fn ring(n: u32, period: u32) -> Acfa {
    let regions = vec![Region::full(0); n as usize];
    let atomic = vec![false; n as usize];
    let edges = (0..n)
        .map(|i| AcfaEdge {
            src: AcfaLocId(i),
            havoc: if i % period == 0 {
                [Var::from_raw((i / period) % 3)].into()
            } else {
                BTreeSet::new()
            },
            dst: AcfaLocId((i + 1) % n),
        })
        .collect();
    Acfa::from_parts(regions, atomic, edges)
}

/// An exported-ARG lookalike of `n` locations: τ-chains broken by a
/// havoc every fifth step, a havocking back edge closing the loop,
/// short atomic runs, and labels drawn from three non-trivial regions
/// over two predicates — many locations, few distinct labels.
fn arg_shaped(n: u32) -> Acfa {
    let top = Cube::top(2);
    let labels = [
        Region::of_cube(top.with(PredIx(0), true)),
        Region::of_cube(top.with(PredIx(0), false)),
        Region::of_cube(top.with(PredIx(0), true).with(PredIx(1), true)),
    ];
    let regions = (0..n).map(|i| labels[((i / 3) % 3) as usize].clone()).collect();
    let atomic = (0..n).map(|i| (10..13).contains(&(i % 16))).collect();
    let mut edges: Vec<AcfaEdge> = (0..n - 1)
        .map(|i| AcfaEdge {
            src: AcfaLocId(i),
            havoc: if i % 5 == 4 { [Var::from_raw((i / 5) % 3)].into() } else { BTreeSet::new() },
            dst: AcfaLocId(i + 1),
        })
        .collect();
    edges.push(AcfaEdge {
        src: AcfaLocId(n - 1),
        havoc: [Var::from_raw(0)].into(),
        dst: AcfaLocId(0),
    });
    edges.extend((8..n).step_by(8).map(|i| AcfaEdge {
        src: AcfaLocId(i),
        havoc: BTreeSet::new(),
        dst: AcfaLocId(i / 2),
    }));
    Acfa::from_parts(regions, atomic, edges)
}

/// A ring-ARG lookalike of `n` locations dominated by τ-SCCs: the
/// spine is cut into segments of 5–50 locations, each closed by a
/// silent back edge; segments join by edges that havoc one of three
/// sets (every fourth join is silent), every seventh location havocs
/// back to the start of the previous segment, and a silent shortcut
/// skips from each segment into the next but one. Labels come from
/// two regions and atomicity, switching per segment with a stray
/// label every sixth location.
fn tau_scc(n: u32) -> Acfa {
    let top = Cube::top(2);
    let labels = [
        Region::of_cube(top.with(PredIx(0), true)),
        Region::of_cube(top.with(PredIx(0), false).with(PredIx(1), true)),
    ];
    let havocs: [BTreeSet<Var>; 3] = [
        [Var::from_raw(0)].into(),
        [Var::from_raw(1)].into(),
        [Var::from_raw(0), Var::from_raw(1)].into(),
    ];
    let mut segments = Vec::new();
    let mut start = 0;
    while start < n {
        let end = (start + 5 + (segments.len() as u32 * 17) % 46).min(n);
        segments.push((start, end));
        start = end;
    }
    let mut regions = Vec::new();
    let mut atomic = Vec::new();
    let mut edges = Vec::new();
    let edge = |src: u32, havoc: &BTreeSet<Var>, dst: u32| AcfaEdge {
        src: AcfaLocId(src),
        havoc: havoc.clone(),
        dst: AcfaLocId(dst),
    };
    let silent = BTreeSet::new();
    for (i, &(start, end)) in segments.iter().enumerate() {
        for q in start..end {
            regions.push(labels[(i + usize::from(q % 6 == 5)) % 2].clone());
            atomic.push(i % 4 == 3);
            if q + 1 < end {
                edges.push(edge(q, &silent, q + 1));
            }
            if q % 7 == 6 && i > 0 {
                edges.push(edge(q, &havocs[q as usize % 3], segments[i - 1].0));
            }
        }
        edges.push(edge(end - 1, &silent, start));
        let join = if i % 4 == 3 { &silent } else { &havocs[i % 3] };
        edges.push(edge(end - 1, join, end % n));
        if let Some(&(skip, _)) = segments.get(i + 2) {
            edges.push(edge(start, &silent, skip));
        }
    }
    Acfa::from_parts(regions, atomic, edges)
}

fn bench_collapse(c: &mut Criterion) {
    let mut g = c.benchmark_group("collapse");
    for n in [16u32, 64, 256] {
        let acfa = ring(n, 4);
        g.bench_with_input(BenchmarkId::new("ring", n), &acfa, |b, acfa| {
            b.iter(|| collapse(acfa));
        });
    }
    for n in [64u32, 256, 1024] {
        let acfa = arg_shaped(n);
        g.bench_with_input(BenchmarkId::new("arg_shaped", n), &acfa, |b, acfa| {
            b.iter(|| collapse(acfa));
        });
    }
    for (n, classes) in [(256u32, 18usize), (1024, 74)] {
        let acfa = tau_scc(n);
        assert_eq!(collapse(&acfa).acfa.num_locs(), classes, "tau_scc {n} quotient size");
        g.bench_with_input(BenchmarkId::new("tau_scc", n), &acfa, |b, acfa| {
            b.iter(|| collapse(acfa));
        });
    }
    g.finish();
}

fn bench_checksim(c: &mut Criterion) {
    let mut g = c.benchmark_group("check_sim");
    for n in [16u32, 64, 256] {
        let big = ring(n, 4);
        let small = collapse(&big).acfa;
        g.bench_with_input(BenchmarkId::new("ring_vs_quotient", n), &n, |b, _| {
            b.iter(|| assert!(check_sim(&big, &small)));
        });
    }
    for n in [64u32, 256, 1024] {
        let big = arg_shaped(n);
        let small = collapse(&big).acfa;
        g.bench_with_input(BenchmarkId::new("arg_shaped_vs_quotient", n), &n, |b, _| {
            b.iter(|| assert!(check_sim(&big, &small)));
        });
    }
    for n in [256u32, 1024] {
        let big = tau_scc(n);
        let small = collapse(&big).acfa;
        g.bench_with_input(BenchmarkId::new("tau_scc_vs_quotient", n), &n, |b, _| {
            b.iter(|| assert!(check_sim(&big, &small)));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_collapse, bench_checksim);
criterion_main!(benches);
