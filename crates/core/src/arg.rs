//! The abstract reachability graph (ARG) built by `ReachAndBuild`
//! (Algorithms 1–4 of the paper).
//!
//! ARG locations summarize abstract *thread states* `(pc, cube)` of
//! the main thread (context counters dropped); each location counts
//! the thread states it covers and `R` labels it with their union
//! region. `Connect` adds edges: an assignment `x := e` contributes
//! `{x}` to the havoc label, an assume contributes a silent edge, and
//! edges joining the same two locations merge. The endpoints of every
//! environment (context) move are `Union`ed (ARG condition 4 of §3.4).
//!
//! Alongside the location-level graph, the ARG records the main
//! thread's state-level transitions; `Refine` replays them to
//! concretize abstract context moves into CFA paths.

use crate::preds::PredSet;
use circ_acfa::{Acfa, AcfaEdge, AcfaLocId, Cube, Region};
use circ_ir::{Cfa, EdgeId, Loc, Op, Var};
use circ_par::FxHashMap;
use std::collections::{BTreeMap, BTreeSet};

/// An abstract thread state: main-thread control location plus data
/// cube.
pub type ThreadState = (Loc, Cube);

/// What induced a state-level ARG transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateEdgeKind {
    /// The main thread took this CFA edge.
    MainOp(EdgeId),
    /// A context thread moved.
    Context,
}

/// A main-thread transition recorded during reachability, between
/// the slots of two thread states (see [`Arg::thread_state`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateEdge {
    /// Slot of the source thread state.
    pub src: usize,
    /// The CFA edge the main thread took.
    pub edge: EdgeId,
    /// Slot of the target thread state.
    pub dst: usize,
}

/// The augmented abstract reachability graph.
#[derive(Debug, Clone)]
pub struct Arg {
    /// Union-find parents over location slots; slot `i` was created
    /// for thread state `thread_states[i]`.
    parent: Vec<usize>,
    regions: Vec<Region>,
    /// Thread states each root slot covers (0 once merged away).
    members: Vec<usize>,
    atomic: Vec<bool>,
    thread_states: Vec<ThreadState>,
    state_to_loc: FxHashMap<ThreadState, usize>,
    /// Location-level edges `(src slot, dst slot) → havoc`, keyed by
    /// the slots canonical when recorded; export canonicalizes again
    /// and merges per exported `(src, dst)`.
    loc_edges: FxHashMap<(usize, usize), BTreeSet<Var>>,
    state_edges: Vec<StateEdge>,
    entry: Option<usize>,
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
            members: Vec::new(),
            atomic: Vec::new(),
            thread_states: Vec::new(),
            state_to_loc: FxHashMap::default(),
            loc_edges: FxHashMap::default(),
            state_edges: Vec::new(),
            entry: None,
        }
    }

    /// Registers the initial thread state (must be called once before
    /// any `connect`) and returns its slot.
    ///
    /// # Panics
    ///
    /// Panics on a second call.
    pub fn set_entry(&mut self, cfa: &Cfa, s: &ThreadState) -> usize {
        assert!(self.entry.is_none(), "entry already set");
        let slot = self.slot(cfa, s);
        self.entry = Some(slot);
        slot
    }

    /// The number of live (canonical) locations.
    pub fn num_locs(&self) -> usize {
        (0..self.parent.len()).filter(|&i| self.find(i) == i).count()
    }

    /// The recorded main-thread transitions, in the order `connect`
    /// saw them.
    pub fn state_edges(&self) -> &[StateEdge] {
        &self.state_edges
    }

    /// The thread state slot `slot` was created for.
    pub fn thread_state(&self, slot: usize) -> &ThreadState {
        &self.thread_states[slot]
    }

    /// The initial thread state, if set.
    pub fn entry_state(&self) -> Option<&ThreadState> {
        self.entry.map(|slot| self.thread_state(slot))
    }

    fn find(&self, mut i: usize) -> usize {
        while self.parent[i] != i {
            i = self.parent[i];
        }
        i
    }

    /// Algorithm 3 (`Find`): the slot of `s`, created (as a location
    /// of its own) if `s` is new.
    fn slot(&mut self, cfa: &Cfa, s: &ThreadState) -> usize {
        if let Some(&ix) = self.state_to_loc.get(s) {
            return ix;
        }
        let ix = self.parent.len();
        self.parent.push(ix);
        self.regions.push(Region::of_cube(s.1.clone()));
        self.members.push(1);
        self.atomic.push(cfa.is_atomic(s.0));
        self.thread_states.push(s.clone());
        self.state_to_loc.insert(s.clone(), ix);
        ix
    }

    /// Algorithm 4 (`Union`): merges the locations of slots `a`, `b`.
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        // Merge the smaller location into the larger.
        let (keep, drop) = if self.members[ra] >= self.members[rb] { (ra, rb) } else { (rb, ra) };
        self.parent[drop] = keep;
        self.members[keep] += std::mem::take(&mut self.members[drop]);
        let region = std::mem::take(&mut self.regions[drop]);
        self.regions[keep].union(&region);
        // Mixed atomicity degrades to non-atomic: the context model
        // may only claim atomicity when every covered state has it
        // (claiming it otherwise would *restrict* interleavings).
        self.atomic[keep] = self.atomic[keep] && self.atomic[drop];
    }

    /// Algorithm 2 (`Connect`): records the transition `r --op--> r'`
    /// and returns the slot of `r'`.
    pub fn connect(
        &mut self,
        cfa: &Cfa,
        r: &ThreadState,
        kind: StateEdgeKind,
        r2: &ThreadState,
    ) -> usize {
        let n = self.slot(cfa, r);
        self.connect_from(cfa, n, kind, r2)
    }

    /// [`Arg::connect`] from the thread state of slot `n`.
    pub fn connect_from(
        &mut self,
        cfa: &Cfa,
        n: usize,
        kind: StateEdgeKind,
        r2: &ThreadState,
    ) -> usize {
        let n2 = self.slot(cfa, r2);
        match kind {
            StateEdgeKind::MainOp(edge) => {
                // An assume adds the silent edge n -∅→ n′ "unless there
                // is already an edge n → n′" (§5, Connect): merging it
                // into that edge, as export does per (src, dst), adds
                // nothing. Only *context* moves unify locations;
                // merging assume endpoints would collapse the guard
                // classes whose labels carry the synchronization
                // argument.
                let key = (self.find(n), self.find(n2));
                let havoc = self.loc_edges.entry(key).or_default();
                if let Op::Assign(x, _) = &cfa.edge(edge).op {
                    havoc.insert(*x);
                }
                self.state_edges.push(StateEdge { src: n, edge, dst: n2 });
            }
            // ARG condition (4): environment moves stay within one
            // location.
            StateEdgeKind::Context => self.union(n, n2),
        }
        n2
    }

    /// Exports the ARG as an ACFA over the global predicates.
    ///
    /// # Panics
    ///
    /// Panics if the entry was never set.
    pub fn export(&self, cfa: &Cfa, preds: &PredSet) -> ExportedArg {
        let entry_root = self.find(self.entry.expect("ARG entry not set"));
        // Stable numbering: entry first, then remaining roots in slot
        // order.
        let roots: Vec<usize> = std::iter::once(entry_root)
            .chain((0..self.parent.len()).filter(|&i| i != entry_root && self.find(i) == i))
            .collect();
        let mut root_id = vec![AcfaLocId(0); self.parent.len()];
        for (i, &r) in roots.iter().enumerate() {
            root_id[r] = AcfaLocId(i as u32);
        }
        let id_of = |slot: usize| root_id[self.find(slot)];

        let keep_global = |i: circ_acfa::PredIx| preds.is_global_only(i);
        let regions: Vec<Region> =
            roots.iter().map(|&r| self.regions[r].project(&keep_global)).collect();
        let atomic: Vec<bool> = roots.iter().map(|&r| self.atomic[r]).collect();

        // Merge edges per (src, dst) with global-only havocs; drop
        // silent self loops.
        let mut merged: BTreeMap<(AcfaLocId, AcfaLocId), BTreeSet<Var>> = BTreeMap::new();
        for (&(s, d), havoc) in &self.loc_edges {
            let ghavoc = havoc.iter().copied().filter(|v| cfa.is_global(*v));
            merged.entry((id_of(s), id_of(d))).or_default().extend(ghavoc);
        }
        let edges: Vec<AcfaEdge> = merged
            .into_iter()
            .filter(|((s, d), h)| !(s == d && h.is_empty()))
            .map(|((src, dst), havoc)| AcfaEdge { src, havoc, dst })
            .collect();

        let acfa = Acfa::from_parts(regions, atomic, edges);
        let state_loc =
            self.thread_states.iter().enumerate().map(|(i, s)| (s.clone(), id_of(i))).collect();
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
        arg.set_entry(&cfa, &st(0, &top));
        arg.connect(&cfa, &st(0, &top), StateEdgeKind::MainOp(EdgeId::from_raw(0)), &st(1, &top));
        arg.connect(&cfa, &st(0, &top), StateEdgeKind::MainOp(EdgeId::from_raw(0)), &st(1, &top));
        assert_eq!(arg.num_locs(), 2);
        assert_eq!(arg.state_edges().len(), 2);
    }

    #[test]
    fn context_edges_union_locations() {
        let (cfa, _) = setup();
        let mut arg = Arg::new();
        let top = Cube::top(2);
        let c1 = top.with(circ_acfa::PredIx(0), true);
        arg.set_entry(&cfa, &st(0, &top));
        arg.connect(&cfa, &st(0, &top), StateEdgeKind::Context, &st(0, &c1));
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
        arg.set_entry(&cfa, &st(0, &cube));
        // an assignment to the local `old` then to the global `state`
        arg.connect(&cfa, &st(0, &cube), StateEdgeKind::MainOp(EdgeId::from_raw(0)), &st(1, &cube));
        arg.connect(&cfa, &st(1, &cube), StateEdgeKind::MainOp(EdgeId::from_raw(2)), &st(3, &cube));
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
        arg.set_entry(&cfa, &st(0, &top));
        // first an assignment edge 0 -> 1 (edge 0 of figure 1 assigns old)
        arg.connect(&cfa, &st(0, &top), StateEdgeKind::MainOp(EdgeId::from_raw(0)), &st(1, &top));
        assert_eq!(arg.num_locs(), 2);
        // an assume between the same two locations adds no edge and
        // must NOT merge them (only context moves Union; merging here
        // would collapse the guard classes the proofs depend on).
        arg.connect(&cfa, &st(0, &top), StateEdgeKind::MainOp(EdgeId::from_raw(1)), &st(1, &top));
        assert_eq!(arg.num_locs(), 2);
        // a second assignment between them merges havocs on the edge
        arg.connect(&cfa, &st(0, &top), StateEdgeKind::MainOp(EdgeId::from_raw(2)), &st(1, &top));
        assert_eq!(arg.num_locs(), 2);
    }

    #[test]
    fn atomicity_from_cfa_locations() {
        let (cfa, preds) = setup();
        let mut arg = Arg::new();
        let top = Cube::top(2);
        arg.set_entry(&cfa, &st(0, &top));
        // figure 1: location 1 (builder index 1) is atomic
        arg.connect(&cfa, &st(0, &top), StateEdgeKind::MainOp(EdgeId::from_raw(0)), &st(1, &top));
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
        arg.set_entry(&cfa, &st(0, &top));
        arg.connect(&cfa, &st(0, &top), StateEdgeKind::MainOp(EdgeId::from_raw(0)), &st(1, &top));
        let exported = arg.export(&cfa, &preds);
        assert_eq!(exported.state_loc[&st(0, &top)], exported.acfa.entry());
    }

    /// The edge-index `Connect` the ARG used before it merged edges per
    /// `(src, dst)` map entry: a full rebuild of the existence index
    /// on every `Union`, a linear scan to merge havocs, and every
    /// transition's thread states kept. The reference for
    /// `connect_sequences_export_like_the_edge_index_arg`.
    struct EdgeIndexArg {
        parent: Vec<usize>,
        regions: Vec<Region>,
        states: Vec<BTreeSet<ThreadState>>,
        atomic: Vec<bool>,
        state_to_loc: FxHashMap<ThreadState, usize>,
        loc_edges: Vec<(usize, usize, BTreeSet<Var>)>,
        edge_index: BTreeSet<(usize, usize)>,
        main_moves: Vec<(ThreadState, EdgeId, ThreadState)>,
        entry: ThreadState,
    }

    impl EdgeIndexArg {
        fn new(cfa: &Cfa, entry: ThreadState) -> EdgeIndexArg {
            let mut arg = EdgeIndexArg {
                parent: Vec::new(),
                regions: Vec::new(),
                states: Vec::new(),
                atomic: Vec::new(),
                state_to_loc: FxHashMap::default(),
                loc_edges: Vec::new(),
                edge_index: BTreeSet::new(),
                main_moves: Vec::new(),
                entry: entry.clone(),
            };
            arg.find_or_create(cfa, &entry);
            arg
        }

        fn find(&self, mut i: usize) -> usize {
            while self.parent[i] != i {
                i = self.parent[i];
            }
            i
        }

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

        fn union(&mut self, a: usize, b: usize) {
            let (ra, rb) = (self.find(a), self.find(b));
            if ra == rb {
                return;
            }
            let (keep, drop) =
                if self.states[ra].len() >= self.states[rb].len() { (ra, rb) } else { (rb, ra) };
            self.parent[drop] = keep;
            let moved = std::mem::take(&mut self.states[drop]);
            self.states[keep].extend(moved);
            let region = std::mem::take(&mut self.regions[drop]);
            self.regions[keep].union(&region);
            self.atomic[keep] = self.atomic[keep] && self.atomic[drop];
            self.edge_index =
                self.loc_edges.iter().map(|(s, d, _)| (self.find(*s), self.find(*d))).collect();
        }

        fn add_loc_edge(&mut self, src: usize, dst: usize, havoc: BTreeSet<Var>) {
            let key = (self.find(src), self.find(dst));
            if self.edge_index.contains(&key) {
                let pos = (0..self.loc_edges.len()).find(|&i| {
                    let (s, d, _) = &self.loc_edges[i];
                    (self.find(*s), self.find(*d)) == key
                });
                if let Some(i) = pos {
                    self.loc_edges[i].2.extend(havoc);
                    return;
                }
            }
            self.loc_edges.push((key.0, key.1, havoc));
            self.edge_index.insert(key);
        }

        fn connect(&mut self, cfa: &Cfa, r: &ThreadState, kind: StateEdgeKind, r2: &ThreadState) {
            let n = self.find_or_create(cfa, r);
            let n2 = self.find_or_create(cfa, r2);
            match kind {
                StateEdgeKind::MainOp(eid) => {
                    match &cfa.edge(eid).op {
                        Op::Assign(x, _) => self.add_loc_edge(n, n2, [*x].into()),
                        Op::Assume(_) => {
                            let key = (self.find(n), self.find(n2));
                            if key.0 != key.1 && !self.edge_index.contains(&key) {
                                self.add_loc_edge(n, n2, BTreeSet::new());
                            }
                        }
                    }
                    self.main_moves.push((r.clone(), eid, r2.clone()));
                }
                StateEdgeKind::Context => self.union(n, n2),
            }
        }

        fn export(&self, cfa: &Cfa, preds: &PredSet) -> ExportedArg {
            let entry_root = self.find(self.state_to_loc[&self.entry]);
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

    /// SplitMix64: a seeded stream for the random connect sequences.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    #[test]
    fn connect_sequences_export_like_the_edge_index_arg() {
        let (cfa, preds) = setup();
        let vals = [None, Some(true), Some(false)];
        for seed in 0..500u64 {
            let mut rng = Rng(seed);
            // A small pool of thread states, so sequences revisit
            // states, re-enter edges and union the same locations.
            let pool: Vec<ThreadState> = (0..2 + rng.below(8))
                .map(|_| {
                    let mut cube = Cube::top(2);
                    for i in 0..2 {
                        if let Some(v) = vals[rng.below(3)] {
                            cube.set(circ_acfa::PredIx(i), v);
                        }
                    }
                    (Loc::from_raw(rng.below(cfa.num_locs()) as u32), cube)
                })
                .collect();
            let mut arg = Arg::new();
            arg.set_entry(&cfa, &pool[0]);
            let mut reference = EdgeIndexArg::new(&cfa, pool[0].clone());
            for _ in 0..rng.below(40) {
                let r = &pool[rng.below(pool.len())];
                let r2 = &pool[rng.below(pool.len())];
                let kind = match rng.below(3) {
                    0 => StateEdgeKind::Context,
                    _ => {
                        StateEdgeKind::MainOp(EdgeId::from_raw(rng.below(cfa.edges().len()) as u32))
                    }
                };
                arg.connect(&cfa, r, kind, r2);
                reference.connect(&cfa, r, kind, r2);
            }
            let (got, want) = (arg.export(&cfa, &preds), reference.export(&cfa, &preds));
            assert_eq!(got.acfa, want.acfa, "seed {seed}: exported ACFA");
            assert_eq!(got.state_loc, want.state_loc, "seed {seed}: state map");
            let moves: Vec<(ThreadState, EdgeId, ThreadState)> = arg
                .state_edges()
                .iter()
                .map(|e| (arg.thread_state(e.src).clone(), e.edge, arg.thread_state(e.dst).clone()))
                .collect();
            assert_eq!(moves, reference.main_moves, "seed {seed}: main-move state edges");
        }
    }
}
