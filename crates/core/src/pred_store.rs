//! The persistent predicate store behind incremental re-checking.
//!
//! CIRC's dominant cost on fresh input is CEGAR warm-up: the refine
//! loop re-discovers the same predicate set run after run. Following
//! the "abstractions from proofs" observation, the discovered set *is*
//! the reusable artifact — so this module persists, per check, the
//! final predicate set, the counter parameter `k` and, for a Safe
//! outcome, the final context ACFA into a versioned, checksummed file
//! under the cache directory, and seeds
//! [`CircConfig::initial_preds`]/[`CircConfig::initial_k`]/
//! [`CircConfig::initial_context`] from it on re-check.
//!
//! Verdicts are never stored and never replayed. The stored context is
//! a certificate that every run re-checks from scratch: one
//! ReachAndBuild against it, one CheckSim and, in ω mode, the goodness
//! check (see `circ`'s "Checking a stored context"). Soundness rests
//! on that check, not on where the context came from. If any step
//! fails, the run infers a context from the empty one, and it falls
//! back to ordinary refinement whenever the seeded predicates no
//! longer suffice. A stale or corrupted entry costs time, never a
//! verdict.
//!
//! # Keying
//!
//! Entries are keyed by the pair
//!
//! * **structural digest** of the lowered CFA
//!   ([`circ_ir::structural_digest`]): alpha-renamed (variables enter
//!   as table indices plus global/local kind, never as names) and
//!   location-order-canonical — *not* a hash of the input bytes, so a
//!   re-saved or reformatted file that lowers to the same automaton
//!   still hits; and
//! * **config fingerprint** ([`config_fingerprint`]): `initial_k`,
//!   `omega_mode`, `minimize`, any externally supplied seed
//!   predicates, and the checked property — everything that steers
//!   which predicates a run would discover.
//!
//! # Wire format
//!
//! The file reuses the checksummed envelope of [`circ_smt::persist`]
//! (kind `circ-pred-store`, `format=2`; any incompatible change bumps
//! the kind's format and old files degrade to a logged cold start).
//! Format 1 entries carried no context. One line per entry:
//!
//! ```text
//! P <cfa-digest> <config-fp> <k> <rounds> <n> <pred>*n <context>
//! ```
//!
//! with predicates in a prefix token encoding over variable indices
//! (`I n` literal, `V i` variable, `N` nondet, `+ - *` binary nodes;
//! a predicate is `<cmp> <lhs> <rhs>`). The context is `0` when the
//! entry has none (an Unsafe outcome), else
//!
//! ```text
//! <locs> <loc>*locs <edges> <edge>*edges
//! <loc>  = <atomic: 0|1> <cubes> <cube>*cubes
//! <cube> = c<slot>*n          slot: + true, - false, . unconstrained
//! <edge> = <src> <dst> <h> <var>*h   havoc variable indices, ascending
//! ```
//!
//! with location 0 the start location. A cube with other than `n`
//! slots or an edge endpoint that is not a location rejects the file.

use crate::circ::{CircConfig, CircOutcome};
use circ_acfa::{Acfa, AcfaEdge, AcfaLocId, Cube, PredIx, Region};
use circ_ir::digest::fnv1a64;
use circ_ir::{BinOp, CmpOp, Expr, Pred, Var};
use circ_smt::persist::{parse_cache_file, render_cache_file, Tokens};
use circ_smt::PersistError;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

const STORE_KIND: &str = "circ-pred-store";
const STORE_FORMAT: u32 = 2;

/// Hostile-input guards: real entries are tiny.
const MAX_PREDS: usize = 100_000;
const MAX_EXPR_DEPTH: u32 = 64;
const MAX_CONTEXT_ITEMS: usize = 1_000_000;

/// One stored check result: the discovered predicate set, the final
/// counter parameter, the context ACFA of a Safe verdict, and the
/// refinement rounds it cost to discover from a cold start (the
/// baseline for `refine_rounds_saved`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredPreds {
    /// The discovered predicates, in discovery order.
    pub preds: Vec<Pred>,
    /// The final counter parameter `k`.
    pub k: u32,
    /// Cumulative cold-start discovery cost in refinement rounds.
    pub rounds: u64,
    /// The final context ACFA of a Safe outcome, its cubes indexed
    /// by `preds`; `None` for an Unsafe one.
    pub context: Option<Acfa>,
}

/// The in-memory predicate store: `(cfa digest, config fingerprint)`
/// → stored entry. Deterministically ordered, so its rendering is
/// byte-stable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PredStore {
    entries: BTreeMap<(u64, u64), StoredPreds>,
}

impl PredStore {
    /// An empty store.
    pub fn new() -> PredStore {
        PredStore::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry for a `(cfa digest, config fingerprint)` key, if any.
    pub fn lookup(&self, cfa_digest: u64, config_fp: u64) -> Option<&StoredPreds> {
        self.entries.get(&(cfa_digest, config_fp))
    }

    /// Inserts or replaces the entry for a key.
    pub fn record(&mut self, cfa_digest: u64, config_fp: u64, entry: StoredPreds) {
        self.entries.insert((cfa_digest, config_fp), entry);
    }

    /// Merges another store into this one (later wins), used by the
    /// batch supervisor's deterministic input-order merge.
    pub fn absorb(&mut self, other: PredStore) {
        self.entries.extend(other.entries);
    }
}

/// Fingerprint of everything besides the program that steers predicate
/// discovery: the base `initial_k`, the ω mode, minimization, any
/// externally supplied seed predicates, and a tag naming the checked
/// property (e.g. `race v0`). Compute it from the configuration
/// *before* store seeding is applied, so warm runs rebuild the same
/// key they were recorded under.
pub fn config_fingerprint(
    initial_k: u32,
    omega_mode: bool,
    minimize: bool,
    seed_preds: &[Pred],
    property: &str,
) -> u64 {
    let mut s = format!(
        "k={initial_k} omega={} minimize={} property={property} seeds={}",
        omega_mode as u8,
        minimize as u8,
        seed_preds.len()
    );
    for p in seed_preds {
        s.push(' ');
        push_pred(&mut s, p);
    }
    fnv1a64(s.as_bytes())
}

/// Applies the store entry for `key` (if any) to `config`, seeding
/// `initial_preds`, `initial_k` and `initial_context`. Returns the
/// entry's recorded discovery cost when seeded; `None` on a store
/// miss. Seeds are *appended* to any preds the config already carries
/// (the fingerprint covered those, so the key still matches).
pub fn seed_config(
    store: &PredStore,
    cfa_digest: u64,
    config_fp: u64,
    config: &mut CircConfig,
) -> Option<u64> {
    let entry = store.lookup(cfa_digest, config_fp)?;
    config.initial_preds.extend(entry.preds.iter().cloned());
    config.initial_k = config.initial_k.max(entry.k);
    config.initial_context = entry.context.clone();
    Some(entry.rounds)
}

/// Records a completed check into the store. Safe and unsafe outcomes
/// both carry their discovered predicate set and final `k`, and a safe
/// one its final context; unknown outcomes record nothing (there is no
/// converged set to reuse). A warm run whose stored context passed its
/// check returns that same context, so it re-records an identical
/// entry.
/// `prior_rounds` is the seeded entry's recorded cost (0 on a cold
/// run), so the stored cost stays the cumulative cold-start cost. An
/// unsafe run always ends in one round that confirms the race rather
/// than refining; a seeded entry already counts it, so a warm re-check
/// that discovers nothing re-records an identical entry.
pub fn record_outcome(
    store: &mut PredStore,
    cfa_digest: u64,
    config_fp: u64,
    outcome: &CircOutcome,
    prior_rounds: u64,
) {
    let (preds, k, run_rounds, context) = match outcome {
        CircOutcome::Safe(r) => (&r.preds, r.k, r.stats.pipeline.refine_rounds, Some(&r.acfa)),
        CircOutcome::Unsafe(r) => {
            let confirmed_before = u64::from(prior_rounds > 0);
            (&r.preds, r.k, r.stats.pipeline.refine_rounds.saturating_sub(confirmed_before), None)
        }
        CircOutcome::Unknown(_) => return,
    };
    store.record(
        cfa_digest,
        config_fp,
        StoredPreds {
            preds: preds.clone(),
            k,
            rounds: prior_rounds + run_rounds,
            context: context.cloned(),
        },
    );
}

fn push_expr(out: &mut String, e: &Expr) {
    match e {
        Expr::Int(n) => {
            out.push_str("I ");
            out.push_str(&n.to_string());
        }
        Expr::Var(v) => {
            out.push_str("V ");
            out.push_str(&v.index().to_string());
        }
        Expr::Nondet => out.push('N'),
        Expr::Bin(op, a, b) => {
            out.push(match op {
                BinOp::Add => '+',
                BinOp::Sub => '-',
                BinOp::Mul => '*',
            });
            out.push(' ');
            push_expr(out, a);
            out.push(' ');
            push_expr(out, b);
        }
    }
}

fn parse_expr(toks: &mut Tokens<'_>, depth: u32) -> Result<Expr, PersistError> {
    if depth > MAX_EXPR_DEPTH {
        return Err(PersistError::Format("expression nesting too deep".into()));
    }
    match toks.next()? {
        "I" => Ok(Expr::Int(toks.next_int()?)),
        "V" => Ok(Expr::Var(Var::from_raw(toks.next_int()?))),
        "N" => Ok(Expr::Nondet),
        tag @ ("+" | "-" | "*") => {
            let op = match tag {
                "+" => BinOp::Add,
                "-" => BinOp::Sub,
                _ => BinOp::Mul,
            };
            let a = parse_expr(toks, depth + 1)?;
            let b = parse_expr(toks, depth + 1)?;
            Ok(Expr::Bin(op, Box::new(a), Box::new(b)))
        }
        other => Err(PersistError::Format(format!("bad expression tag {other:?}"))),
    }
}

fn push_pred(out: &mut String, p: &Pred) {
    out.push_str(match p.op {
        CmpOp::Eq => "=",
        CmpOp::Ne => "!=",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    });
    out.push(' ');
    push_expr(out, &p.lhs);
    out.push(' ');
    push_expr(out, &p.rhs);
}

fn parse_pred(toks: &mut Tokens<'_>) -> Result<Pred, PersistError> {
    let op = match toks.next()? {
        "=" => CmpOp::Eq,
        "!=" => CmpOp::Ne,
        "<" => CmpOp::Lt,
        "<=" => CmpOp::Le,
        ">" => CmpOp::Gt,
        ">=" => CmpOp::Ge,
        other => return Err(PersistError::Format(format!("bad comparison tag {other:?}"))),
    };
    let lhs = parse_expr(toks, 0)?;
    let rhs = parse_expr(toks, 0)?;
    Ok(Pred::new(lhs, op, rhs))
}

fn push_context(out: &mut String, context: Option<&Acfa>) {
    let Some(a) = context else {
        out.push_str(" 0");
        return;
    };
    let _ = write!(out, " {}", a.num_locs());
    for q in a.locs() {
        let cubes = a.region(q).cubes();
        let _ = write!(out, " {} {}", u8::from(a.is_atomic(q)), cubes.len());
        for c in cubes {
            out.push_str(" c");
            out.extend((0..c.width() as u32).map(|i| match c.get(PredIx(i)) {
                Some(true) => '+',
                Some(false) => '-',
                None => '.',
            }));
        }
    }
    let _ = write!(out, " {}", a.edges().len());
    for e in a.edges() {
        let _ = write!(out, " {} {} {}", e.src.0, e.dst.0, e.havoc.len());
        for v in &e.havoc {
            let _ = write!(out, " {}", v.index());
        }
    }
}

/// Reads a count field bounded by [`MAX_CONTEXT_ITEMS`].
fn parse_count(toks: &mut Tokens<'_>) -> Result<usize, PersistError> {
    let n: usize = toks.next_int()?;
    if n > MAX_CONTEXT_ITEMS {
        return Err(PersistError::Format("context count out of range".into()));
    }
    Ok(n)
}

fn parse_cube(tok: &str, n_preds: usize) -> Result<Cube, PersistError> {
    let slots = tok
        .strip_prefix('c')
        .filter(|s| s.len() == n_preds)
        .ok_or_else(|| PersistError::Format(format!("bad cube {tok:?}")))?;
    let mut cube = Cube::top(n_preds);
    for (i, slot) in slots.bytes().enumerate() {
        match slot {
            b'+' => cube.set(PredIx(i as u32), true),
            b'-' => cube.set(PredIx(i as u32), false),
            b'.' => {}
            _ => return Err(PersistError::Format(format!("bad cube {tok:?}"))),
        }
    }
    Ok(cube)
}

/// Parses a context whose cubes have `n_preds` slots. Checks every
/// edge endpoint before [`Acfa::from_parts`], which asserts them.
fn parse_context(toks: &mut Tokens<'_>, n_preds: usize) -> Result<Option<Acfa>, PersistError> {
    let n_locs = parse_count(toks)?;
    if n_locs == 0 {
        return Ok(None);
    }
    let mut regions = Vec::with_capacity(n_locs.min(1024));
    let mut atomic = Vec::with_capacity(n_locs.min(1024));
    for _ in 0..n_locs {
        atomic.push(match toks.next()? {
            "0" => false,
            "1" => true,
            other => return Err(PersistError::Format(format!("bad atomic flag {other:?}"))),
        });
        let mut region = Region::empty();
        for _ in 0..parse_count(toks)? {
            region.add(parse_cube(toks.next()?, n_preds)?);
        }
        regions.push(region);
    }
    let n_edges = parse_count(toks)?;
    let mut edges = Vec::with_capacity(n_edges.min(1024));
    for _ in 0..n_edges {
        let src: u32 = toks.next_int()?;
        let dst: u32 = toks.next_int()?;
        if src as usize >= n_locs || dst as usize >= n_locs {
            return Err(PersistError::Format("edge endpoint out of range".into()));
        }
        let mut havoc = BTreeSet::new();
        for _ in 0..parse_count(toks)? {
            let v = Var::from_raw(toks.next_int()?);
            if havoc.last().is_some_and(|&last| last >= v) {
                return Err(PersistError::Format("havoc variables not ascending".into()));
            }
            havoc.insert(v);
        }
        edges.push(AcfaEdge { src: AcfaLocId(src), havoc, dst: AcfaLocId(dst) });
    }
    Ok(Some(Acfa::from_parts(regions, atomic, edges)))
}

/// Serializes a store to the versioned wire format.
pub fn render_pred_store(store: &PredStore) -> String {
    let mut lines = Vec::with_capacity(store.entries.len());
    for ((digest, config_fp), entry) in &store.entries {
        let mut line = format!(
            "P {digest:016x} {config_fp:016x} {} {} {}",
            entry.k,
            entry.rounds,
            entry.preds.len()
        );
        for p in &entry.preds {
            line.push(' ');
            push_pred(&mut line, p);
        }
        push_context(&mut line, entry.context.as_ref());
        lines.push(line);
    }
    render_cache_file(STORE_KIND, STORE_FORMAT, lines)
}

/// Parses a store file rendered by [`render_pred_store`].
pub fn parse_pred_store(text: &str) -> Result<PredStore, PersistError> {
    let lines = parse_cache_file(STORE_KIND, STORE_FORMAT, text)?;
    let mut store = PredStore::new();
    for line in lines {
        let mut toks = Tokens::new(line);
        match toks.next()? {
            "P" => {
                let digest = u64::from_str_radix(toks.next()?, 16)
                    .map_err(|_| PersistError::Format("bad digest field".into()))?;
                let config_fp = u64::from_str_radix(toks.next()?, 16)
                    .map_err(|_| PersistError::Format("bad fingerprint field".into()))?;
                let k: u32 = toks.next_int()?;
                let rounds: u64 = toks.next_int()?;
                let n: usize = toks.next_int()?;
                if n > MAX_PREDS {
                    return Err(PersistError::Format("predicate count out of range".into()));
                }
                let mut preds = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    preds.push(parse_pred(&mut toks)?);
                }
                let context = parse_context(&mut toks, n)?;
                store.record(digest, config_fp, StoredPreds { preds, k, rounds, context });
            }
            other => return Err(PersistError::Format(format!("bad entry tag {other:?}"))),
        }
        toks.finish()?;
    }
    Ok(store)
}

/// Loads a predicate-store file. A missing file is `Ok(None)` (a fresh
/// cache dir is not an anomaly); anything else unreadable or invalid
/// is an error for the caller to log before cold-starting.
pub fn load_pred_store(path: &Path) -> Result<Option<PredStore>, PersistError> {
    load_pred_store_in(&circ_store::Store::real(), path)
}

/// [`load_pred_store`] through an explicit storage handle, so torture
/// runs can fail or truncate the read deterministically.
pub fn load_pred_store_in(
    io: &circ_store::Store,
    path: &Path,
) -> Result<Option<PredStore>, PersistError> {
    let text = match io.read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(PersistError::Io(e)),
    };
    parse_pred_store(&text).map(Some)
}

/// Saves a store to `path` (durable atomic write, the same crash
/// discipline as the cache snapshots).
pub fn save_pred_store(path: &Path, store: &PredStore) -> io::Result<()> {
    save_pred_store_in(&circ_store::Store::real(), path, store)
}

/// [`save_pred_store`] through an explicit storage handle.
pub fn save_pred_store_in(
    io: &circ_store::Store,
    path: &Path,
    store: &PredStore,
) -> io::Result<()> {
    io.write_atomic(path, &render_pred_store(store))
}

#[cfg(test)]
mod tests {
    use super::*;
    use circ_ir::{figure1_cfa, structural_digest};
    use std::fs;

    fn v(i: u32) -> Expr {
        Expr::var(Var::from_raw(i))
    }

    /// A three-location context over three predicates: an atomic
    /// location, a two-cube label, a τ edge and a multi-variable havoc.
    fn context3() -> Acfa {
        let top = Cube::top(3);
        let mut two = Region::of_cube(top.with(PredIx(0), true));
        two.add(top.with(PredIx(0), false).with(PredIx(2), true));
        let edge = |src, havoc: &[u32], dst| AcfaEdge {
            src: AcfaLocId(src),
            havoc: havoc.iter().map(|&i| Var::from_raw(i)).collect(),
            dst: AcfaLocId(dst),
        };
        Acfa::from_parts(
            vec![Region::full(3), two, Region::empty()],
            vec![false, true, false],
            vec![edge(0, &[], 1), edge(1, &[0, 2], 2), edge(2, &[1], 0), edge(0, &[0], 0)],
        )
    }

    fn populated_store() -> PredStore {
        let mut store = PredStore::new();
        store.record(
            0xdead_beef_0000_0001,
            0x0123_4567_89ab_cdef,
            StoredPreds {
                preds: vec![
                    Pred::eq(v(0), Expr::int(0)),
                    Pred::new(v(1) + Expr::int(3) * v(2), CmpOp::Le, Expr::int(-7)),
                    Pred::new(v(0) - v(1), CmpOp::Ne, Expr::Nondet),
                ],
                k: 3,
                rounds: 31,
                context: Some(context3()),
            },
        );
        store.record(
            0xdead_beef_0000_0002,
            0xffff_0000_ffff_0000,
            StoredPreds { preds: Vec::new(), k: 1, rounds: 0, context: None },
        );
        store.record(
            0xdead_beef_0000_0003,
            0xffff_0000_ffff_0001,
            StoredPreds { preds: Vec::new(), k: 2, rounds: 4, context: Some(Acfa::empty(0)) },
        );
        store
    }

    /// A one-entry store file holding `line` in a valid envelope.
    fn file_with(line: &str) -> String {
        render_cache_file(STORE_KIND, STORE_FORMAT, vec![line.to_string()])
    }

    #[test]
    fn malformed_contexts_are_rejected_before_they_are_built() {
        let entry = "P 0000000000000001 0000000000000002 1 0 1 = V 0 I 0";
        // Valid: one location, one cube, a self loop havocking v0.
        assert!(parse_pred_store(&file_with(&format!("{entry} 1 0 1 c+ 1 0 0 1 0"))).is_ok());
        for (ctx, why) in [
            ("1 0 1 c+ 1 0 1 0", "edge endpoint out of range"),
            ("2 0 0 1 0 1 2 0 0", "edge endpoint out of range"),
            ("1 0 1 c+. 0", "cube wider than the predicate set"),
            ("1 0 1 c 0", "cube narrower than the predicate set"),
            ("1 0 1 +. 0", "cube without its tag"),
            ("1 0 1 cx 0", "bad cube slot"),
            ("1 2 1 c+ 0", "bad atomic flag"),
            ("1 0 1 c+ 1 0 0 2 1 0", "havoc variables out of order"),
            ("1 0 1 c+ 1 0 0 2 0 0", "duplicate havoc variable"),
            ("1 0 1 c+ 1 0 0", "truncated edge"),
            ("99999999 0", "location count out of range"),
            ("1 0 1 c+ 0 7", "trailing token"),
        ] {
            let text = file_with(&format!("{entry} {ctx}"));
            assert!(parse_pred_store(&text).is_err(), "{why}: {ctx}");
        }
    }

    #[test]
    fn a_checked_context_re_records_an_identical_entry() {
        use crate::circ::{circ, CircConfig};
        use circ_ir::MtProgram;
        let cfa = figure1_cfa();
        let x = cfa.var_by_name("x").unwrap();
        let digest = structural_digest(&cfa);
        let program = MtProgram::new(cfa, x);

        for base in [CircConfig::default(), CircConfig::omega()] {
            let cold = circ(&program, &base);
            assert!(cold.is_safe());
            let mut store = PredStore::new();
            record_outcome(&mut store, digest, 42, &cold, 0);
            let entry = store.lookup(digest, 42).unwrap().clone();
            assert!(entry.context.is_some(), "a safe outcome records its context");

            let mut warm_config = base.clone();
            let prior = seed_config(&store, digest, 42, &mut warm_config).unwrap();
            assert_eq!(warm_config.initial_context, entry.context);
            let warm = circ(&program, &warm_config);
            let p = &warm.stats().pipeline;
            assert!(warm.is_safe());
            assert_eq!((p.ctx_checks, p.ctx_fallbacks), (1, 0), "the stored context holds");
            assert_eq!((p.reach_runs, p.sim_checks, p.refine_rounds), (1, 1, 0), "check mode");
            record_outcome(&mut store, digest, 42, &warm, prior);
            assert_eq!(store.lookup(digest, 42), Some(&entry));
        }
    }

    #[test]
    fn wire_round_trip_preserves_every_entry() {
        let store = populated_store();
        let text = render_pred_store(&store);
        let back = parse_pred_store(&text).unwrap();
        assert_eq!(store.entries, back.entries);
        // Canonical rendering: save(load(save(x))) == save(x).
        assert_eq!(render_pred_store(&back), text);
    }

    #[test]
    fn every_bit_flip_and_truncation_is_rejected() {
        let text = render_pred_store(&populated_store());
        let bytes = text.as_bytes();
        for i in 0..bytes.len() {
            let mut mutated = bytes.to_vec();
            mutated[i] ^= 0x01;
            let Ok(s) = String::from_utf8(mutated) else { continue };
            assert!(parse_pred_store(&s).is_err(), "flip at byte {i} accepted");
        }
        for i in 0..text.len() {
            if !text.is_char_boundary(i) {
                continue;
            }
            assert!(parse_pred_store(&text[..i]).is_err(), "prefix of {i} bytes accepted");
        }
        // Format 1 files (entries without a context) are rejected whole.
        assert!(parse_pred_store(&text.replace("format=2", "format=1")).is_err());
    }

    #[test]
    fn missing_file_is_a_clean_miss() {
        let path = std::env::temp_dir().join("circ_pred_store_does_not_exist.store");
        let _ = fs::remove_file(&path);
        assert!(load_pred_store(&path).unwrap().is_none());
    }

    #[test]
    fn save_load_round_trips_through_disk() {
        let path = std::env::temp_dir().join("circ_pred_store_unit.store");
        let _ = fs::remove_file(&path);
        let store = populated_store();
        save_pred_store(&path, &store).unwrap();
        let loaded = load_pred_store(&path).unwrap().unwrap();
        assert_eq!(store.entries, loaded.entries);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_separates_configs() {
        let base = config_fingerprint(1, true, true, &[], "race v0");
        assert_ne!(base, config_fingerprint(2, true, true, &[], "race v0"), "k matters");
        assert_ne!(base, config_fingerprint(1, false, true, &[], "race v0"), "omega matters");
        assert_ne!(base, config_fingerprint(1, true, false, &[], "race v0"), "minimize matters");
        assert_ne!(base, config_fingerprint(1, true, true, &[], "race v1"), "property matters");
        let seeded = config_fingerprint(1, true, true, &[Pred::eq(v(0), Expr::int(0))], "race v0");
        assert_ne!(base, seeded, "seed preds matter");
        assert_eq!(base, config_fingerprint(1, true, true, &[], "race v0"), "stable");
    }

    #[test]
    fn seed_config_applies_entry_and_misses_cleanly() {
        let cfa = figure1_cfa();
        let digest = structural_digest(&cfa);
        let mut store = PredStore::new();
        let entry = StoredPreds {
            preds: vec![Pred::eq(v(1), Expr::int(0)), Pred::eq(v(2), Expr::int(0))],
            k: 2,
            rounds: 9,
            context: Some(Acfa::empty(2)),
        };
        store.record(digest, 42, entry.clone());

        let mut config = CircConfig::omega();
        assert_eq!(seed_config(&store, digest, 7, &mut config), None, "wrong fp is a miss");
        assert!(config.initial_preds.is_empty());

        let rounds = seed_config(&store, digest, 42, &mut config);
        assert_eq!(rounds, Some(9));
        assert_eq!(config.initial_preds, entry.preds);
        assert_eq!(config.initial_k, 2);
        assert_eq!(config.initial_context, entry.context);
    }

    #[test]
    fn record_outcome_skips_unknown_and_accumulates_rounds() {
        use crate::circ::{circ, CircConfig, CircOutcome};
        use circ_ir::MtProgram;
        let cfa = figure1_cfa();
        let x = cfa.var_by_name("x").unwrap();
        let digest = structural_digest(&cfa);
        let program = MtProgram::new(cfa, x);
        let outcome = circ(&program, &CircConfig::omega());
        assert!(matches!(outcome, CircOutcome::Safe(_)));
        let run_rounds = outcome.stats().pipeline.refine_rounds;
        assert!(run_rounds > 0, "figure 1 needs refinement from cold");

        let mut store = PredStore::new();
        record_outcome(&mut store, digest, 42, &outcome, 0);
        let entry = store.lookup(digest, 42).expect("safe outcome must be recorded").clone();
        assert_eq!(entry.rounds, run_rounds);
        assert!(!entry.preds.is_empty());

        // A warm re-record accumulates on top of the prior cost.
        record_outcome(&mut store, digest, 42, &outcome, entry.rounds);
        assert_eq!(store.lookup(digest, 42).unwrap().rounds, run_rounds * 2);
    }

    #[test]
    fn a_seeded_unsafe_rerun_re_records_an_identical_entry() {
        use crate::circ::{circ, CircConfig, CircOutcome};
        use circ_ir::{CfaBuilder, MtProgram, Op};
        let mut b = CfaBuilder::new("unprotected");
        let x = b.global("x");
        let l0 = b.entry();
        let l1 = b.fresh_loc();
        b.edge(l0, Op::assign(x, Expr::var(x) + Expr::int(1)), l1);
        b.edge(l1, Op::assign(x, Expr::int(0)), l0);
        let cfa = b.build();
        let digest = structural_digest(&cfa);
        let program = MtProgram::new(cfa, x);

        let cold = circ(&program, &CircConfig::omega());
        assert!(matches!(cold, CircOutcome::Unsafe(_)));
        let mut store = PredStore::new();
        record_outcome(&mut store, digest, 42, &cold, 0);
        let entry = store.lookup(digest, 42).expect("unsafe outcome must be recorded").clone();
        assert_eq!(entry.rounds, cold.stats().pipeline.refine_rounds);
        assert_eq!(entry.context, None, "a race has no context to certify");

        // The seeded re-check spends exactly the confirming round, and
        // re-records the entry it was seeded from.
        let mut warm_config = CircConfig::omega();
        let prior = seed_config(&store, digest, 42, &mut warm_config).unwrap();
        let warm = circ(&program, &warm_config);
        assert!(matches!(warm, CircOutcome::Unsafe(_)));
        assert_eq!(warm.stats().pipeline.refine_rounds, 1);
        record_outcome(&mut store, digest, 42, &warm, prior);
        assert_eq!(store.lookup(digest, 42), Some(&entry));
    }

    #[test]
    fn seeded_rerun_skips_refinement_with_same_essence() {
        use crate::circ::{circ, CircConfig, CircOutcome};
        use circ_ir::MtProgram;
        let cfa = figure1_cfa();
        let x = cfa.var_by_name("x").unwrap();
        let digest = structural_digest(&cfa);
        let program = MtProgram::new(cfa, x);

        let cold = circ(&program, &CircConfig::omega());
        let CircOutcome::Safe(cold_report) = &cold else { panic!("figure 1 is safe") };
        let mut store = PredStore::new();
        record_outcome(&mut store, digest, 42, &cold, 0);

        let mut warm_config = CircConfig::omega();
        let prior = seed_config(&store, digest, 42, &mut warm_config).unwrap();
        let warm = circ(&program, &warm_config);
        let CircOutcome::Safe(warm_report) = &warm else { panic!("seeded run stays safe") };
        assert!(
            warm.stats().pipeline.refine_rounds < cold.stats().pipeline.refine_rounds,
            "warm run must refine strictly less (warm {} vs cold {})",
            warm.stats().pipeline.refine_rounds,
            cold.stats().pipeline.refine_rounds,
        );
        assert!(prior >= warm.stats().pipeline.refine_rounds);
        assert_eq!(warm_report.preds, cold_report.preds, "same final predicate set");
        assert_eq!(warm_report.k, cold_report.k, "same final k");
    }

    #[test]
    fn stale_seeds_fall_back_to_refinement() {
        use crate::circ::{circ, CircConfig, CircOutcome};
        use circ_ir::MtProgram;
        let cfa = figure1_cfa();
        let x = cfa.var_by_name("x").unwrap();
        let program = MtProgram::new(cfa, x);

        // Useless seeds for this program: refinement must still
        // converge to the same verdict as a cold run.
        let mut config = CircConfig::omega();
        config.initial_preds =
            vec![Pred::eq(v(0), Expr::int(99)), Pred::new(v(1), CmpOp::Ge, Expr::int(5))];
        let seeded = circ(&program, &config);
        let cold = circ(&program, &CircConfig::omega());
        match (&seeded, &cold) {
            (CircOutcome::Safe(_), CircOutcome::Safe(_)) => {}
            other => panic!("verdict must survive stale seeds: {other:?}"),
        }
    }
}
