//! A stored context is a certificate, not a verdict: whatever context
//! a predicate-store entry hands the engine, the run ends with the
//! verdict a cold run reaches. Every Table 1 model is checked cold,
//! then re-checked from its own stored context after one mutation
//! (a havoc set edited, an edge redirected or dropped, a cube literal
//! flipped, a cube of the wrong width, a havoc variable out of range).
//! Each mutant either fails to load from the store file or costs at
//! most one fallback to inference, and never panics.

use circ_acfa::{Acfa, AcfaEdge, AcfaLocId, Cube, Region};
use circ_core::pred_store::{parse_pred_store, render_pred_store};
use circ_core::{circ, CircConfig, CircOutcome, PredStore, StoredPreds};
use circ_ir::{MtProgram, Var};

/// `acfa` rebuilt with its labels and edges passed through `labels`
/// and `edges`.
fn rebuilt(
    acfa: &Acfa,
    labels: impl Fn(usize, &Region) -> Region,
    edges: impl Fn(Vec<AcfaEdge>) -> Vec<AcfaEdge>,
) -> Acfa {
    let regions = acfa.locs().map(|q| labels(q.index(), acfa.region(q))).collect();
    let atomic = acfa.locs().map(|q| acfa.is_atomic(q)).collect();
    Acfa::from_parts(regions, atomic, edges(acfa.edges().to_vec()))
}

fn region_of(cubes: impl IntoIterator<Item = Cube>) -> Region {
    let mut r = Region::empty();
    for c in cubes {
        r.add(c);
    }
    r
}

/// The first cube of `acfa` that assigns a literal, with that literal
/// flipped; `None` if no label assigns any.
fn flip_a_literal(acfa: &Acfa) -> Option<Acfa> {
    let (loc, cube, (i, v)) = acfa.locs().find_map(|q| {
        acfa.region(q).cubes().iter().find_map(|c| c.literals().next().map(|l| (q, c.clone(), l)))
    })?;
    Some(rebuilt(
        acfa,
        |q, r| {
            if q != loc.index() {
                return r.clone();
            }
            region_of(r.cubes().iter().map(|c| if *c == cube { c.with(i, !v) } else { c.clone() }))
        },
        |e| e,
    ))
}

/// Named one-step mutants of `acfa`, for a program whose globals are
/// `globals` and whose variable table has `n_vars` entries.
fn mutants(acfa: &Acfa, globals: &[Var], n_vars: usize) -> Vec<(&'static str, Acfa)> {
    let mut out = Vec::new();
    let same = |_: usize, r: &Region| r.clone();
    if let Some(g) = globals.first() {
        // Toggle one global in the first edge's havoc set, or add a
        // havocking self loop when there is no edge.
        out.push((
            "havoc set edited",
            rebuilt(acfa, same, |mut es| {
                match es.first_mut() {
                    Some(e) => {
                        if !e.havoc.remove(g) {
                            e.havoc.insert(*g);
                        }
                    }
                    None => es.push(AcfaEdge {
                        src: AcfaLocId(0),
                        havoc: [*g].into(),
                        dst: AcfaLocId(0),
                    }),
                }
                es
            }),
        ));
    }
    if !acfa.edges().is_empty() {
        let n = acfa.num_locs() as u32;
        out.push((
            "edge redirected",
            rebuilt(acfa, same, |mut es| {
                es[0].dst = AcfaLocId((es[0].dst.0 + 1) % n);
                es
            }),
        ));
        out.push(("edge dropped", rebuilt(acfa, same, |es| es[1..].to_vec())));
    }
    if let Some(flipped) = flip_a_literal(acfa) {
        out.push(("cube literal flipped", flipped));
    }
    out.push((
        "cube width wrong",
        rebuilt(
            acfa,
            |_, r| {
                let w = r.cubes().first().map_or(0, Cube::width);
                r.widen_to(w + 1)
            },
            |e| e,
        ),
    ));
    out.push((
        "havoc variable out of range",
        rebuilt(acfa, same, |mut es| {
            es.push(AcfaEdge {
                src: AcfaLocId(0),
                havoc: [Var::from_raw(n_vars as u32 + 3)].into(),
                dst: AcfaLocId(0),
            });
            es
        }),
    ));
    out
}

/// What a stored context may never change: the verdict, and for a
/// Safe verdict the predicates and `k`.
fn essence(o: &CircOutcome) -> (bool, bool, Vec<String>, u32) {
    match o {
        CircOutcome::Safe(r) => (true, false, r.preds.iter().map(|p| p.to_string()).collect(), r.k),
        CircOutcome::Unsafe(r) => (false, true, Vec::new(), r.k),
        CircOutcome::Unknown(_) => (false, false, Vec::new(), 0),
    }
}

#[test]
fn a_mutated_stored_context_costs_at_most_one_fallback_never_a_verdict() {
    let mut fallbacks_by_kind = std::collections::BTreeMap::<&str, u64>::new();
    let mut rejected_at_parse = 0;
    for m in circ_nesc::models() {
        let program: MtProgram = m.program();
        let globals = program.cfa().globals();
        let n_vars = program.cfa().vars().len();
        for base in [CircConfig::default(), CircConfig::omega()] {
            let cold = circ(&program, &base);
            // A buggy model has no context of its own: hand it the
            // empty one, a context that cannot certify a race-free run.
            let (preds, k, context) = match &cold {
                CircOutcome::Safe(r) => (r.preds.clone(), r.k, r.acfa.clone()),
                CircOutcome::Unsafe(r) => (r.preds.clone(), r.k, Acfa::empty(r.preds.len())),
                CircOutcome::Unknown(r) => {
                    panic!("{}: cold run inconclusive: {:?}", m.name, r.reason)
                }
            };
            for (kind, mutant) in mutants(&context, &globals, n_vars) {
                let what = format!("{} (omega={}): {kind}", m.name, base.omega_mode);
                // Through the store file: a mutant the wire format
                // cannot express is rejected whole, never built.
                let mut store = PredStore::new();
                let entry = StoredPreds {
                    preds: preds.clone(),
                    k,
                    rounds: 0,
                    context: Some(mutant.clone()),
                };
                store.record(1, 2, entry.clone());
                match parse_pred_store(&render_pred_store(&store)) {
                    Ok(back) => assert_eq!(back.lookup(1, 2), Some(&entry), "{what}"),
                    Err(_) => rejected_at_parse += 1,
                }
                // Straight into the engine: the check may fail, the
                // verdict may not change.
                let config = CircConfig {
                    initial_preds: preds.clone(),
                    initial_k: k,
                    initial_context: Some(mutant.clone()),
                    ..base.clone()
                };
                let warm = circ(&program, &config);
                let p = &warm.stats().pipeline;
                assert_eq!(p.ctx_checks, 1, "{what}");
                assert!(p.ctx_fallbacks <= 1, "{what}: {} fallbacks", p.ctx_fallbacks);
                assert_eq!(essence(&warm), essence(&cold), "{what}");
                match &warm {
                    // A mutant that still certifies the run is returned
                    // as its context; otherwise inference from the empty
                    // context rebuilds the cold run's.
                    CircOutcome::Safe(r) if p.ctx_fallbacks == 0 => assert_eq!(r.acfa, mutant),
                    CircOutcome::Safe(r) => assert_eq!(Some(&r.acfa), Some(&context), "{what}"),
                    _ => assert_eq!(p.ctx_fallbacks, 1, "{what}"),
                }
                *fallbacks_by_kind.entry(kind).or_default() += p.ctx_fallbacks;
            }
        }
    }
    // Contexts that do not fit the program never reach ReachAndBuild.
    assert!(rejected_at_parse > 0);
    for kind in ["cube width wrong", "havoc variable out of range"] {
        assert_eq!(fallbacks_by_kind[kind], 2 * circ_nesc::models().len() as u64, "{kind}");
    }
    // The semantic mutants exercise the fallback path too.
    for (kind, n) in &fallbacks_by_kind {
        assert!(*n > 0, "no {kind} mutant ever failed its check");
    }
}
