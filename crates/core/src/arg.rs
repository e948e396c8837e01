//! The abstract reachability graph (ARG) built by `ReachAndBuild`
//! (Algorithms 1–4 of the paper).
//!
//! ARG locations summarize abstract *thread states* `(pc, cube)` of
//! the main thread (context counters dropped); the augmented map `S`
//! records which thread states each location covers and `R` labels it
//! with their union region. `Connect` adds edges: an assignment
//! `x := e` contributes `{x}` to the havoc label, an assume
//! contributes a silent edge — unless an edge already joins the two
//! locations, in which case they are `Union`ed, as are the endpoints
//! of every environment (context) move (ARG condition 4 of §3.4).
//!
//! Alongside the location-level graph, the ARG records the exact
//! state-level transitions; `Refine` replays them to concretize
//! abstract context moves into CFA paths.

use crate::preds::PredSet;
use circ_acfa::{Acfa, AcfaEdge, AcfaLocId, Cube, Region};
use circ_ir::{Cfa, EdgeId, Loc, Op, Var};
use circ_par::FxHashMap;
use std::collections::{BTreeMap, BTreeSet};

/// An abstract thread state: main-thread control location plus data
/// cube.
pub type ThreadState = (Loc, Cube);

/// What induced a state-level ARG transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateEdgeKind {
    /// The main thread took this CFA edge.
    MainOp(EdgeId),
    /// A context thread moved, havocking these globals.
    Context(BTreeSet<Var>),
}

/// A state-level transition recorded during reachability.
#[derive(Debug, Clone)]
pub struct StateEdge {
    /// Source thread state.
    pub src: ThreadState,
    /// What happened.
    pub kind: StateEdgeKind,
    /// Target thread state.
    pub dst: ThreadState,
}

/// The augmented abstract reachability graph.
#[derive(Debug, Clone)]
pub struct Arg {
    /// Union-find parents over location slots.
    parent: Vec<usize>,
    regions: Vec<Region>,
    states: Vec<BTreeSet<ThreadState>>,
    atomic: Vec<bool>,
    state_to_loc: FxHashMap<ThreadState, usize>,
    /// Location-level edges `(src slot, dst slot, havoc)`; slots are
    /// canonicalized lazily at export.
    loc_edges: Vec<(usize, usize, BTreeSet<Var>)>,
    /// Fast existence check for Algorithm 2's "already an edge" test,
    /// keyed by canonical slots (rebuilt after unions).
    edge_index: BTreeSet<(usize, usize)>,
    state_edges: Vec<StateEdge>,
    entry: Option<ThreadState>,
}

/// The ARG exported as an ACFA (labels projected onto global
/// predicates, havocs restricted to globals) plus the map from thread
/// states to exported locations.
#[derive(Debug, Clone)]
pub struct ExportedArg {
    /// The ARG as an abstract control flow automaton.
    pub acfa: Acfa,
    /// Exported location of each covered thread state.
    pub state_loc: FxHashMap<ThreadState, AcfaLocId>,
}

impl Arg {
    /// An empty ARG.
    pub fn new() -> Arg {
        Arg {
            parent: Vec::new(),
            regions: Vec::new(),
            states: Vec::new(),
            atomic: Vec::new(),
            state_to_loc: FxHashMap::default(),
            loc_edges: Vec::new(),
            edge_index: BTreeSet::new(),
            state_edges: Vec::new(),
            entry: None,
        }
    }

    /// Registers the initial thread state (must be called once before
    /// any `connect`).
    ///
    /// # Panics
    ///
    /// Panics on a second call.
    pub fn set_entry(&mut self, cfa: &Cfa, s: ThreadState) {
        assert!(self.entry.is_none(), "entry already set");
        self.entry = Some(s.clone());
        self.find_or_create(cfa, &s);
    }

    /// The number of live (canonical) locations.
    pub fn num_locs(&self) -> usize {
        (0..self.parent.len()).filter(|&i| self.find(i) == i).count()
    }

    /// The recorded state-level transitions.
    pub fn state_edges(&self) -> &[StateEdge] {
        &self.state_edges
    }

    /// The initial thread state, if set.
    pub fn entry_state(&self) -> Option<&ThreadState> {
        self.entry.as_ref()
    }

    /// All thread states the ARG covers.
    pub fn thread_states(&self) -> impl Iterator<Item = &ThreadState> {
        self.state_to_loc.keys()
    }

    fn find(&self, mut i: usize) -> usize {
        while self.parent[i] != i {
            i = self.parent[i];
        }
        i
    }

    /// Algorithm 3 (`Find`): the location covering `s`, created fresh
    /// if none does.
    fn find_or_create(&mut self, cfa: &Cfa, s: &ThreadState) -> usize {
        if let Some(&ix) = self.state_to_loc.get(s) {
            return self.find(ix);
        }
        let ix = self.parent.len();
        self.parent.push(ix);
        self.regions.push(Region::of_cube(s.1.clone()));
        self.states.push([s.clone()].into());
        self.atomic.push(cfa.is_atomic(s.0));
        self.state_to_loc.insert(s.clone(), ix);
        ix
    }

    /// Algorithm 4 (`Union`): merges the locations of slots `a`, `b`.
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        // Merge the smaller member set into the larger.
        let (keep, drop) =
            if self.states[ra].len() >= self.states[rb].len() { (ra, rb) } else { (rb, ra) };
        self.parent[drop] = keep;
        let moved = std::mem::take(&mut self.states[drop]);
        self.states[keep].extend(moved);
        let region = std::mem::take(&mut self.regions[drop]);
        self.regions[keep].union(&region);
        // Mixed atomicity degrades to non-atomic: the context model
        // may only claim atomicity when every covered state has it
        // (claiming it otherwise would *restrict* interleavings).
        self.atomic[keep] = self.atomic[keep] && self.atomic[drop];
        // Rebuild the edge existence index with canonical slots.
        self.edge_index =
            self.loc_edges.iter().map(|(s, d, _)| (self.find(*s), self.find(*d))).collect();
    }

    fn add_loc_edge(&mut self, src: usize, dst: usize, havoc: BTreeSet<Var>) {
        let key = (self.find(src), self.find(dst));
        if self.edge_index.contains(&key) {
            // Merge into the existing edge(s) by unioning havocs: find
            // one with matching canonical endpoints.
            for (s, d, h) in &mut self.loc_edges {
                let sk = {
                    let mut i = *s;
                    while self.parent[i] != i {
                        i = self.parent[i];
                    }
                    i
                };
                let dk = {
                    let mut i = *d;
                    while self.parent[i] != i {
                        i = self.parent[i];
                    }
                    i
                };
                if (sk, dk) == key {
                    h.extend(havoc);
                    return;
                }
            }
        }
        self.loc_edges.push((key.0, key.1, havoc));
        self.edge_index.insert(key);
    }

    /// Algorithm 2 (`Connect`): records the transition `r --op--> r'`.
    pub fn connect(&mut self, cfa: &Cfa, r: ThreadState, kind: StateEdgeKind, r2: ThreadState) {
        let n = self.find_or_create(cfa, &r);
        let n2 = self.find_or_create(cfa, &r2);
        match &kind {
            StateEdgeKind::MainOp(eid) => match &cfa.edge(*eid).op {
                Op::Assign(x, _) => {
                    self.add_loc_edge(n, n2, [*x].into());
                }
                Op::Assume(_) => {
                    // "We add the edge n -∅→ n′ … unless there is
                    // already an edge n → n′" (§5, Connect). Only
                    // *context* moves unify locations; merging assume
                    // endpoints would collapse the guard classes whose
                    // labels carry the synchronization argument.
                    let key = (self.find(n), self.find(n2));
                    if key.0 != key.1 && !self.edge_index.contains(&key) {
                        self.add_loc_edge(n, n2, BTreeSet::new());
                    }
                }
            },
            StateEdgeKind::Context(_) => {
                // ARG condition (4): environment moves stay within one
                // location.
                self.union(n, n2);
            }
        }
        self.state_edges.push(StateEdge { src: r, kind, dst: r2 });
    }

    /// Exports the ARG as an ACFA over the global predicates.
    ///
    /// # Panics
    ///
    /// Panics if the entry was never set.
    pub fn export(&self, cfa: &Cfa, preds: &PredSet) -> ExportedArg {
        let entry = self.entry.as_ref().expect("ARG entry not set");
        let entry_root = self.find(self.state_to_loc[entry]);
        // Stable numbering: entry first, then remaining roots in slot
        // order.
        let mut roots: Vec<usize> = (0..self.parent.len())
            .filter(|&i| self.find(i) == i && !self.states[i].is_empty())
            .collect();
        roots.sort_unstable();
        roots.retain(|&r| r != entry_root);
        roots.insert(0, entry_root);
        let root_to_id: BTreeMap<usize, AcfaLocId> =
            roots.iter().enumerate().map(|(i, &r)| (r, AcfaLocId(i as u32))).collect();

        let keep_global = |i: circ_acfa::PredIx| preds.is_global_only(i);
        let regions: Vec<Region> =
            roots.iter().map(|&r| self.regions[r].project(&keep_global)).collect();
        let atomic: Vec<bool> = roots.iter().map(|&r| self.atomic[r]).collect();

        // Merge edges per (src, dst) with global-only havocs; drop
        // silent self loops.
        let mut merged: BTreeMap<(AcfaLocId, AcfaLocId), BTreeSet<Var>> = BTreeMap::new();
        for (s, d, havoc) in &self.loc_edges {
            let sid = root_to_id[&self.find(*s)];
            let did = root_to_id[&self.find(*d)];
            let ghavoc: BTreeSet<Var> =
                havoc.iter().copied().filter(|v| cfa.is_global(*v)).collect();
            if sid == did && ghavoc.is_empty() {
                continue;
            }
            merged.entry((sid, did)).or_default().extend(ghavoc);
        }
        // A merged self loop may have ended up empty after the global
        // filter; drop those too.
        let edges: Vec<AcfaEdge> = merged
            .into_iter()
            .filter(|((s, d), h)| !(s == d && h.is_empty()))
            .map(|((src, dst), havoc)| AcfaEdge { src, havoc, dst })
            .collect();

        let acfa = Acfa::from_parts(regions, atomic, edges);
        let state_loc = self
            .state_to_loc
            .iter()
            .map(|(s, &ix)| (s.clone(), root_to_id[&self.find(ix)]))
            .collect();
        ExportedArg { acfa, state_loc }
    }
}

impl Default for Arg {
    fn default() -> Arg {
        Arg::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circ_ir::{figure1_cfa, Expr, Pred};
    use std::sync::Arc;

    fn setup() -> (Arc<Cfa>, PredSet) {
        let cfa = Arc::new(figure1_cfa());
        let state = cfa.var_by_name("state").unwrap();
        let old = cfa.var_by_name("old").unwrap();
        let preds = PredSet::from_preds(
            &cfa,
            [
                Pred::eq(Expr::var(state), Expr::int(0)), // global-only
                Pred::eq(Expr::var(old), Expr::int(0)),   // local
            ],
        );
        (cfa, preds)
    }

    fn st(l: u32, cube: &Cube) -> ThreadState {
        (Loc::from_raw(l), cube.clone())
    }

    #[test]
    fn find_creates_one_loc_per_state() {
        let (cfa, _) = setup();
        let mut arg = Arg::new();
        let top = Cube::top(2);
        arg.set_entry(&cfa, st(0, &top));
        arg.connect(&cfa, st(0, &top), StateEdgeKind::MainOp(EdgeId::from_raw(0)), st(1, &top));
        arg.connect(&cfa, st(0, &top), StateEdgeKind::MainOp(EdgeId::from_raw(0)), st(1, &top));
        assert_eq!(arg.num_locs(), 2);
        assert_eq!(arg.state_edges().len(), 2);
    }

    #[test]
    fn context_edges_union_locations() {
        let (cfa, _) = setup();
        let mut arg = Arg::new();
        let top = Cube::top(2);
        let c1 = top.with(circ_acfa::PredIx(0), true);
        arg.set_entry(&cfa, st(0, &top));
        arg.connect(
            &cfa,
            st(0, &top),
            StateEdgeKind::Context([cfa.var_by_name("state").unwrap()].into()),
            st(0, &c1),
        );
        // both states share one location now
        assert_eq!(arg.num_locs(), 1);
    }

    #[test]
    fn export_projects_locals_and_globals() {
        let (cfa, preds) = setup();
        let state = cfa.var_by_name("state").unwrap();
        let old = cfa.var_by_name("old").unwrap();
        let mut arg = Arg::new();
        // cube: state=0 (global pred) ∧ old=0 (local pred)
        let cube = Cube::top(2).with(circ_acfa::PredIx(0), true).with(circ_acfa::PredIx(1), true);
        arg.set_entry(&cfa, st(0, &cube));
        // an assignment to the local `old` then to the global `state`
        arg.connect(&cfa, st(0, &cube), StateEdgeKind::MainOp(EdgeId::from_raw(0)), st(1, &cube));
        arg.connect(&cfa, st(1, &cube), StateEdgeKind::MainOp(EdgeId::from_raw(2)), st(3, &cube));
        let exported = arg.export(&cfa, &preds);
        let acfa = &exported.acfa;
        assert_eq!(acfa.num_locs(), 3);
        // edge 0 assigns `old` (local): its havoc must be stripped
        let entry_edges: Vec<_> = acfa.out_edges(acfa.entry()).collect();
        assert_eq!(entry_edges.len(), 1);
        assert!(entry_edges[0].havoc.is_empty(), "local havoc stripped");
        // edge 2 assigns `state` (global): havoc survives
        let mid = entry_edges[0].dst;
        let mid_edges: Vec<_> = acfa.out_edges(mid).collect();
        assert_eq!(mid_edges[0].havoc, [state].into());
        let _ = old;
        // labels only constrain the global predicate
        for q in acfa.locs() {
            for c in acfa.region(q).cubes() {
                assert_eq!(c.get(circ_acfa::PredIx(1)), None, "local pred projected out");
            }
        }
    }

    #[test]
    fn assume_keeps_locations_separate() {
        let (cfa, _) = setup();
        let mut arg = Arg::new();
        let top = Cube::top(2);
        arg.set_entry(&cfa, st(0, &top));
        // first an assignment edge 0 -> 1 (edge 0 of figure 1 assigns old)
        arg.connect(&cfa, st(0, &top), StateEdgeKind::MainOp(EdgeId::from_raw(0)), st(1, &top));
        assert_eq!(arg.num_locs(), 2);
        // an assume between the same two locations adds no edge and
        // must NOT merge them (only context moves Union; merging here
        // would collapse the guard classes the proofs depend on).
        arg.connect(&cfa, st(0, &top), StateEdgeKind::MainOp(EdgeId::from_raw(1)), st(1, &top));
        assert_eq!(arg.num_locs(), 2);
        // a second assignment between them merges havocs on the edge
        arg.connect(&cfa, st(0, &top), StateEdgeKind::MainOp(EdgeId::from_raw(2)), st(1, &top));
        assert_eq!(arg.num_locs(), 2);
    }

    #[test]
    fn atomicity_from_cfa_locations() {
        let (cfa, preds) = setup();
        let mut arg = Arg::new();
        let top = Cube::top(2);
        arg.set_entry(&cfa, st(0, &top));
        // figure 1: location 1 (builder index 1) is atomic
        arg.connect(&cfa, st(0, &top), StateEdgeKind::MainOp(EdgeId::from_raw(0)), st(1, &top));
        let exported = arg.export(&cfa, &preds);
        let entry = exported.acfa.entry();
        assert!(!exported.acfa.is_atomic(entry));
        let dst = exported.acfa.out_edges(entry).next().unwrap().dst;
        assert!(exported.acfa.is_atomic(dst));
    }

    #[test]
    fn export_entry_is_location_zero() {
        let (cfa, preds) = setup();
        let mut arg = Arg::new();
        let top = Cube::top(2);
        arg.set_entry(&cfa, st(0, &top));
        arg.connect(&cfa, st(0, &top), StateEdgeKind::MainOp(EdgeId::from_raw(0)), st(1, &top));
        let exported = arg.export(&cfa, &preds);
        assert_eq!(exported.state_loc[&st(0, &top)], exported.acfa.entry());
    }
}
