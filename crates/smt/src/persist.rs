//! Disk persistence for solver result caches (and, via the shared
//! wire helpers, the entailment cache in `circ-core`).
//!
//! The format is a deliberately boring whitespace-tokenized text file:
//!
//! ```text
//! <kind> format=<F> atoms=1 entries=<N> sum=<16-hex fnv1a64 of body>
//! <line 1>
//! ...
//! <line N>
//! ```
//!
//! `F` is the kind's own line-syntax version ([`FORMAT_VERSION`] for
//! the solver and entailment caches). Lines are sorted lexicographically before writing, so a given cache
//! content has exactly one on-disk rendering regardless of hash-map
//! iteration order — that is what lets tests compare warm and cold
//! runs byte-for-byte.
//!
//! Soundness of cross-process reuse rests on two properties:
//!
//! 1. **Keys are numbering-stable.** Solver variables are assigned
//!    from CFA variable indices (`pre(v) = 2i`, `post(v) = 2i + 1`),
//!    which depend only on the program text, and atoms/formulas are
//!    canonicalized on construction by total functions of their
//!    content. The same query in a later process therefore builds the
//!    *identical* key.
//! 2. **Corruption cannot attach an answer to a mutated key.** The
//!    header carries an FNV-1a checksum of the whole body plus a
//!    format and atom-encoding version; any mismatch, parse anomaly,
//!    or truncation rejects the entire file (the caller logs and cold
//!    starts). A bit flip can therefore lose a cache, never corrupt a
//!    verdict.

use crate::atom::{Atom, Rel};
use crate::formula::Formula;
use crate::lia::Model;
use crate::lin::{LinExpr, SVar};
use crate::memo::{Keyed, Memo, Probe};
use crate::solver::SatResult;
use circ_ir::digest::fnv1a64;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

/// On-disk format version of the solver and entailment caches. Bump
/// when their line syntax changes.
pub const FORMAT_VERSION: u32 = 1;

/// Atom-encoding version. Bump when atom *normalization* changes
/// (GCD tightening, canonical sign, SVar numbering scheme): old files
/// would parse fine but mean something subtly different, so they must
/// be rejected wholesale.
pub const ATOM_VERSION: u32 = 1;

/// Maximum formula nesting depth accepted by the parser; a guard
/// against stack exhaustion on hostile input, far above anything the
/// pipeline produces.
const MAX_FORMULA_DEPTH: u32 = 64;

/// Why a cache file was rejected. All variants degrade to a logged
/// cold start at the call site — none are fatal.
#[derive(Debug)]
pub enum PersistError {
    /// The file exists but could not be read.
    Io(io::Error),
    /// Header, checksum, or body did not parse as a valid cache file.
    Format(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "cache file unreadable: {e}"),
            PersistError::Format(msg) => write!(f, "cache file rejected: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> PersistError {
        PersistError::Io(e)
    }
}

fn format_err(msg: impl Into<String>) -> PersistError {
    PersistError::Format(msg.into())
}

/// A cursor over whitespace-separated tokens of one cache-file line.
pub struct Tokens<'a> {
    iter: std::str::SplitWhitespace<'a>,
}

impl<'a> Tokens<'a> {
    /// Tokenizes a line.
    pub fn new(line: &'a str) -> Tokens<'a> {
        Tokens { iter: line.split_whitespace() }
    }

    /// Next token, or a format error when the line is exhausted.
    /// Deliberately not `Iterator::next`: the error-on-exhaustion
    /// contract is the point.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<&'a str, PersistError> {
        self.iter.next().ok_or_else(|| format_err("truncated line"))
    }

    /// Next token parsed as an integer.
    pub fn next_int<T: std::str::FromStr>(&mut self) -> Result<T, PersistError> {
        let tok = self.next()?;
        tok.parse().map_err(|_| format_err(format!("bad integer token {tok:?}")))
    }

    /// Asserts the line has no tokens left.
    pub fn finish(mut self) -> Result<(), PersistError> {
        match self.iter.next() {
            None => Ok(()),
            Some(tok) => Err(format_err(format!("trailing token {tok:?}"))),
        }
    }
}

/// Appends one atom's wire tokens: `rel n (svar coeff)*n const`, with
/// rel ∈ {`=`, `<`, `!`} and variables in strictly ascending order.
pub fn push_atom(out: &mut String, a: &Atom) {
    let rel = match a.rel() {
        Rel::Eq => "=",
        Rel::Le => "<",
        Rel::Ne => "!",
    };
    out.push_str(rel);
    let e = a.expr();
    out.push_str(&format!(" {}", e.num_terms()));
    for (v, c) in e.terms() {
        out.push_str(&format!(" {} {}", v.0, c));
    }
    out.push_str(&format!(" {}", e.constant_part()));
}

/// Parses one atom from the cursor. Rebuilds through the normalizing
/// [`Atom`] constructors, which are the identity on every atom the
/// writer can emit (constructed atoms are already GCD-normalized), so
/// `parse(render(a)) == a`. Variables must be strictly ascending —
/// this rejects duplicate-variable corruption before it can reach
/// `LinExpr::add_term`'s checked arithmetic.
pub fn parse_atom(toks: &mut Tokens<'_>) -> Result<Atom, PersistError> {
    let rel = match toks.next()? {
        "=" => Rel::Eq,
        "<" => Rel::Le,
        "!" => Rel::Ne,
        other => return Err(format_err(format!("bad relation token {other:?}"))),
    };
    let n: usize = toks.next_int()?;
    if n > 1_000_000 {
        return Err(format_err("atom term count out of range"));
    }
    let mut e = LinExpr::zero();
    let mut prev: Option<u32> = None;
    for _ in 0..n {
        let v: u32 = toks.next_int()?;
        let c: i64 = toks.next_int()?;
        if prev.is_some_and(|p| p >= v) {
            return Err(format_err("atom variables not strictly ascending"));
        }
        if c == 0 {
            return Err(format_err("zero coefficient"));
        }
        prev = Some(v);
        e.add_term(SVar(v), c);
    }
    e.add_constant(toks.next_int()?);
    if n == 0 {
        // Constant atoms bypass the constructors, which would fold
        // them to verum/falsum and lose e.g. the canonical `-1 = 0`.
        return Ok(Atom::from_normalized(e, rel));
    }
    Ok(match rel {
        Rel::Eq => Atom::eq(e),
        Rel::Le => Atom::le(e),
        Rel::Ne => Atom::ne(e),
    })
}

/// Appends one formula's wire tokens, prefix-encoded: `T`, `F`,
/// `A <atom>`, `& n <f>*n`, `| n <f>*n`. Cached keys are NNF, so
/// there is deliberately no `Not` tag.
pub fn push_formula(out: &mut String, f: &Formula) -> Result<(), PersistError> {
    match f {
        Formula::Const(true) => out.push('T'),
        Formula::Const(false) => out.push('F'),
        Formula::Atom(a) => {
            out.push_str("A ");
            push_atom(out, a);
        }
        Formula::Not(_) => return Err(format_err("negation in NNF cache key")),
        Formula::And(fs) | Formula::Or(fs) => {
            out.push(if matches!(f, Formula::And(_)) { '&' } else { '|' });
            out.push_str(&format!(" {}", fs.len()));
            for child in fs {
                out.push(' ');
                push_formula(out, child)?;
            }
        }
    }
    Ok(())
}

/// Parses one formula from the cursor, rebuilding the exact variant
/// structure the writer saw (raw `Formula::And`/`Or`/`Atom`, no
/// re-folding) so round-tripped keys hash identically.
pub fn parse_formula(toks: &mut Tokens<'_>) -> Result<Formula, PersistError> {
    parse_formula_at(toks, 0)
}

fn parse_formula_at(toks: &mut Tokens<'_>, depth: u32) -> Result<Formula, PersistError> {
    if depth > MAX_FORMULA_DEPTH {
        return Err(format_err("formula nesting too deep"));
    }
    match toks.next()? {
        "T" => Ok(Formula::Const(true)),
        "F" => Ok(Formula::Const(false)),
        "A" => Ok(Formula::Atom(parse_atom(toks)?)),
        tag @ ("&" | "|") => {
            let n: usize = toks.next_int()?;
            if n > 1_000_000 {
                return Err(format_err("formula arity out of range"));
            }
            let mut fs = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                fs.push(parse_formula_at(toks, depth + 1)?);
            }
            Ok(if tag == "&" { Formula::And(fs) } else { Formula::Or(fs) })
        }
        other => Err(format_err(format!("bad formula tag {other:?}"))),
    }
}

/// Appends a sat result: `S n (svar val)*n` for a model, `U` for
/// unsat. `Unknown` has no wire form — the writer filters it out
/// (re-solving an Unknown later is cheap insurance against persisting
/// a give-up).
fn push_sat_result(out: &mut String, r: &SatResult) -> Result<(), PersistError> {
    match r {
        SatResult::Sat(model) => {
            out.push_str(&format!("S {}", model.len()));
            for (v, val) in model {
                out.push_str(&format!(" {} {}", v.0, val));
            }
        }
        SatResult::Unsat => out.push('U'),
        SatResult::Unknown => return Err(format_err("unknown result has no wire form")),
    }
    Ok(())
}

fn parse_sat_result(toks: &mut Tokens<'_>) -> Result<SatResult, PersistError> {
    match toks.next()? {
        "U" => Ok(SatResult::Unsat),
        "S" => {
            let n: usize = toks.next_int()?;
            if n > 1_000_000 {
                return Err(format_err("model size out of range"));
            }
            let mut model = Model::new();
            for _ in 0..n {
                let v: u32 = toks.next_int()?;
                let val: i64 = toks.next_int()?;
                if model.insert(SVar(v), val).is_some() {
                    return Err(format_err("duplicate model variable"));
                }
            }
            Ok(SatResult::Sat(model))
        }
        other => Err(format_err(format!("bad result tag {other:?}"))),
    }
}

/// Renders a complete cache file: versioned, checksummed header plus
/// lexicographically sorted body lines (one entry per line). `format`
/// is the kind's line-syntax version.
pub fn render_cache_file(kind: &str, format: u32, mut lines: Vec<String>) -> String {
    lines.sort_unstable();
    let mut body = String::new();
    for line in &lines {
        body.push_str(line);
        body.push('\n');
    }
    let sum = fnv1a64(body.as_bytes());
    format!(
        "{kind} format={format} atoms={ATOM_VERSION} entries={} sum={sum:016x}\n{body}",
        lines.len()
    )
}

/// Validates the header and checksum of a rendered cache file and
/// returns its body lines. Every anomaly — wrong kind, a format other
/// than `want_format`, bad checksum, entry-count mismatch — is a
/// [`PersistError::Format`].
pub fn parse_cache_file<'a>(
    kind: &str,
    want_format: u32,
    text: &'a str,
) -> Result<Vec<&'a str>, PersistError> {
    let (header, body) = text.split_once('\n').ok_or_else(|| format_err("missing header line"))?;
    let mut toks = Tokens::new(header);
    let got_kind = toks.next()?;
    if got_kind != kind {
        return Err(format_err(format!("kind {got_kind:?}, expected {kind:?}")));
    }
    let mut format = None;
    let mut atoms = None;
    let mut entries = None;
    let mut sum = None;
    while let Ok(tok) = toks.next() {
        let (key, val) =
            tok.split_once('=').ok_or_else(|| format_err(format!("bad header field {tok:?}")))?;
        let slot = match key {
            "format" => &mut format,
            "atoms" => &mut atoms,
            "entries" => &mut entries,
            "sum" => &mut sum,
            _ => return Err(format_err(format!("unknown header field {key:?}"))),
        };
        if slot.replace(val).is_some() {
            return Err(format_err(format!("duplicate header field {key:?}")));
        }
    }
    fn want<'v>(v: Option<&'v str>, name: &str) -> Result<&'v str, PersistError> {
        v.ok_or_else(|| format_err(format!("missing header field {name:?}")))
    }
    let format: u32 =
        want(format, "format")?.parse().map_err(|_| format_err("bad format version"))?;
    if format != want_format {
        return Err(format_err(format!("unsupported format version {format}")));
    }
    let atoms: u32 = want(atoms, "atoms")?.parse().map_err(|_| format_err("bad atom version"))?;
    if atoms != ATOM_VERSION {
        return Err(format_err(format!("unsupported atom encoding version {atoms}")));
    }
    let entries: usize =
        want(entries, "entries")?.parse().map_err(|_| format_err("bad entry count"))?;
    let sum = u64::from_str_radix(want(sum, "sum")?, 16).map_err(|_| format_err("bad checksum"))?;
    if fnv1a64(body.as_bytes()) != sum {
        return Err(format_err("checksum mismatch"));
    }
    let lines: Vec<&str> = body.lines().collect();
    if lines.len() != entries {
        return Err(format_err(format!("entry count {} != header {entries}", lines.len())));
    }
    Ok(lines)
}

/// Writes `text` to `path` atomically and durably (same-directory
/// temp file, `fsync`, rename, directory `fsync` — see
/// [`circ_store::write_atomic`]), so a concurrent reader never
/// observes a torn file and a completed write survives a crash.
pub fn write_atomic(path: &Path, text: &str) -> io::Result<()> {
    circ_store::write_atomic(path, text)
}

const SOLVER_KIND: &str = "circ-solver-cache";

/// Shared, frozen-seed persistence store for [`crate::Solver`]
/// caches.
///
/// The seed (loaded from disk, or empty) is immutable for the store's
/// lifetime; every solver handed the store via
/// [`crate::Solver::set_seed`] reads through to it on a memo miss,
/// without copying it. Entries learned by finished
/// runs are absorbed into a separate write-only accumulator, which
/// keeps each formula once and never repeats a seed entry, so the
/// store holds at most one entry per distinct formula. That split
/// keeps concurrent runs isolated: what one in-flight run learns can
/// never influence another's cache counters, so per-run statistics
/// stay independent of scheduling.
///
/// The default store is *inert* ([`SolverPersist::inert`]): it seeds
/// nothing and absorbing into it is a no-op, so code paths without
/// `--cache-dir` pay nothing.
#[derive(Debug, Clone, Default)]
pub struct SolverPersist {
    inner: Option<Arc<PersistInner>>,
}

#[derive(Debug)]
struct PersistInner {
    /// Seed entries, frozen at construction.
    seed: Memo,
    /// Entries learned since construction (one per formula, none of
    /// them in the seed).
    learned: Mutex<Memo>,
}

impl PersistInner {
    fn learned(&self) -> MutexGuard<'_, Memo> {
        self.learned.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl SolverPersist {
    /// The inert store: seeds nothing, absorbs nothing.
    pub fn inert() -> SolverPersist {
        SolverPersist::default()
    }

    /// An active store warm-started from `seed` entries (typically
    /// loaded via [`load_solver_cache`]; pass an empty vector for an
    /// active-but-cold store). `Unknown` results are dropped, and a
    /// repeated formula keeps its first result.
    pub fn with_seed(seed: Vec<(Formula, SatResult)>) -> SolverPersist {
        let mut frozen = Memo::default();
        for (f, r) in seed {
            if !matches!(r, SatResult::Unknown) {
                frozen.entry(Keyed::new(f)).or_insert(r);
            }
        }
        SolverPersist {
            inner: Some(Arc::new(PersistInner {
                seed: frozen,
                learned: Mutex::new(Memo::default()),
            })),
        }
    }

    /// Whether this store seeds and accumulates (false for inert).
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Number of distinct seed formulas.
    pub fn seed_len(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.seed.len())
    }

    /// Number of distinct formulas held, seed and learned: the length
    /// of [`SolverPersist::merged_entries`] without building it.
    pub fn len(&self) -> usize {
        self.seed_len() + self.inner.as_ref().map_or(0, |i| i.learned().len())
    }

    /// True when the store holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The seed's result for a probed NNF formula, if it holds one.
    pub(crate) fn get(&self, nnf: &Probe<'_>) -> Option<&SatResult> {
        nnf.get(&self.inner.as_ref()?.seed)
    }

    /// Folds a finished solver's cache entries into the accumulator
    /// (no-op when inert). `Unknown` results are dropped, and so is
    /// every formula the store already holds, seed or learned (first
    /// result wins; the solver is deterministic, so colliding results
    /// are identical anyway).
    pub fn absorb(&self, entries: Vec<(Formula, SatResult)>) {
        let Some(inner) = &self.inner else { return };
        let mut learned = inner.learned();
        for (f, r) in entries {
            if matches!(r, SatResult::Unknown) {
                continue;
            }
            let key = Keyed::new(f);
            if !inner.seed.contains_key(&key) {
                learned.entry(key).or_insert(r);
            }
        }
    }

    /// Seed ∪ learned, one entry per formula. This is what
    /// [`save_solver_cache`] writes. Order is unspecified.
    pub fn merged_entries(&self) -> Vec<(Formula, SatResult)> {
        let Some(inner) = &self.inner else { return Vec::new() };
        let learned = inner.learned();
        inner
            .seed
            .iter()
            .chain(learned.iter())
            .map(|(k, r)| (k.formula().clone(), r.clone()))
            .collect()
    }
}

/// Serializes solver cache entries to the versioned wire format.
pub fn render_solver_cache(entries: &[(Formula, SatResult)]) -> String {
    let mut lines = Vec::with_capacity(entries.len());
    for (f, r) in entries {
        let mut line = String::new();
        if push_formula(&mut line, f).is_err() {
            continue; // non-NNF key: unreachable from the solver, skip
        }
        line.push(' ');
        if push_sat_result(&mut line, r).is_err() {
            continue; // Unknown: deliberately not persisted
        }
        lines.push(line);
    }
    render_cache_file(SOLVER_KIND, FORMAT_VERSION, lines)
}

/// Parses a solver cache file rendered by [`render_solver_cache`].
pub fn parse_solver_cache(text: &str) -> Result<Vec<(Formula, SatResult)>, PersistError> {
    let lines = parse_cache_file(SOLVER_KIND, FORMAT_VERSION, text)?;
    let mut out = Vec::with_capacity(lines.len());
    for line in lines {
        let mut toks = Tokens::new(line);
        let f = parse_formula(&mut toks)?;
        let r = parse_sat_result(&mut toks)?;
        toks.finish()?;
        out.push((f, r));
    }
    Ok(out)
}

/// Loads a solver cache file. A missing file is `Ok(None)` (a fresh
/// cache dir is not an anomaly); anything else unreadable or invalid
/// is an error for the caller to log before cold-starting.
pub fn load_solver_cache(path: &Path) -> Result<Option<Vec<(Formula, SatResult)>>, PersistError> {
    load_solver_cache_in(&circ_store::Store::real(), path)
}

/// [`load_solver_cache`] through an explicit storage handle, so
/// torture runs can fail or truncate the read deterministically.
pub fn load_solver_cache_in(
    store: &circ_store::Store,
    path: &Path,
) -> Result<Option<Vec<(Formula, SatResult)>>, PersistError> {
    let text = match store.read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(PersistError::Io(e)),
    };
    parse_solver_cache(&text).map(Some)
}

/// Saves a store's merged entries to `path` (durable atomic write).
pub fn save_solver_cache(path: &Path, store: &SolverPersist) -> io::Result<()> {
    save_solver_cache_in(&circ_store::Store::real(), path, store)
}

/// [`save_solver_cache`] through an explicit storage handle.
pub fn save_solver_cache_in(
    io: &circ_store::Store,
    path: &Path,
    store: &SolverPersist,
) -> io::Result<()> {
    io.write_atomic(path, &render_solver_cache(&store.merged_entries()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::Solver;
    use std::fs;

    fn x() -> LinExpr {
        LinExpr::var(SVar(0))
    }
    fn y() -> LinExpr {
        LinExpr::var(SVar(3))
    }
    fn c(n: i64) -> LinExpr {
        LinExpr::constant(n)
    }

    fn sample_atoms() -> Vec<Atom> {
        vec![
            Atom::eq(x() - y() + c(7)),
            Atom::le(x().scale(2) - c(5)),
            Atom::ne(y() - c(1)),
            Atom::eq(-x() + y()),
            Atom::le(-x() - y().scale(3) + c(100)),
            Atom::verum(),
            Atom::falsum(),
        ]
    }

    #[test]
    fn atom_wire_round_trip_is_exact() {
        for a in sample_atoms() {
            let mut wire = String::new();
            push_atom(&mut wire, &a);
            let mut toks = Tokens::new(&wire);
            let back = parse_atom(&mut toks).unwrap();
            toks.finish().unwrap();
            assert_eq!(a, back, "wire {wire:?}");
            // And canonical representatives round-trip too (cache keys
            // are canonicalized).
            let canon = a.canonical();
            let mut wire = String::new();
            push_atom(&mut wire, &canon);
            assert_eq!(canon, parse_atom(&mut Tokens::new(&wire)).unwrap());
        }
    }

    #[test]
    fn formula_wire_round_trip_is_exact() {
        let f = Formula::And(vec![
            Formula::Or(vec![
                Formula::Atom(Atom::eq(x())),
                Formula::Atom(Atom::le(y() - c(4))),
                Formula::Const(false),
            ]),
            Formula::Atom(Atom::ne(x() - y())),
            Formula::Const(true),
        ]);
        let mut wire = String::new();
        push_formula(&mut wire, &f).unwrap();
        let mut toks = Tokens::new(&wire);
        let back = parse_formula(&mut toks).unwrap();
        toks.finish().unwrap();
        assert_eq!(f, back);
    }

    #[test]
    fn not_has_no_wire_form() {
        let f = Formula::Not(Box::new(Formula::Const(true)));
        let mut wire = String::new();
        assert!(push_formula(&mut wire, &f).is_err());
    }

    #[test]
    fn malformed_atoms_are_rejected_not_panics() {
        for bad in [
            "",                // empty
            "? 0 0",           // bad relation
            "= 1 5",           // truncated term list
            "= 2 3 1 3 1 0",   // duplicate variable (add_term hazard)
            "= 2 5 1 3 1 0",   // descending variables
            "= 1 0 0 0",       // zero coefficient
            "= 99999999999 0", // absurd term count
            "= x 0",           // non-numeric count
        ] {
            assert!(parse_atom(&mut Tokens::new(bad)).is_err(), "input {bad:?}");
        }
    }

    #[test]
    fn deep_formula_nesting_is_rejected() {
        let mut wire = String::new();
        for _ in 0..200 {
            wire.push_str("& 1 ");
        }
        wire.push('T');
        assert!(parse_formula(&mut Tokens::new(&wire)).is_err());
    }

    #[test]
    fn solver_cache_file_round_trips() {
        let mut solver = Solver::new();
        let f1 = Formula::atom(Atom::eq(x()))
            .or(Formula::atom(Atom::eq(x() - c(1))))
            .and(Formula::atom(Atom::le(c(2) - x())));
        let f2 = Formula::atom(Atom::eq(x() - y())).and(Formula::atom(Atom::eq(y())));
        solver.check(&f1);
        solver.check(&f2);
        let entries = solver.entries();
        assert!(!entries.is_empty());

        let text = render_solver_cache(&entries);
        let back = parse_solver_cache(&text).unwrap();
        assert_eq!(back.len(), entries.len());
        let mut want: Vec<_> = entries.clone();
        let mut got = back;
        let key = |e: &(Formula, SatResult)| {
            let mut s = String::new();
            push_formula(&mut s, &e.0).unwrap();
            s
        };
        want.sort_by_key(|e| key(e));
        got.sort_by_key(|e| key(e));
        assert_eq!(want, got);

        // Rendering is canonical: re-rendering the parsed entries
        // reproduces the bytes.
        assert_eq!(render_solver_cache(&got), text);
    }

    #[test]
    fn unknown_results_are_not_persisted() {
        let entries = vec![
            (Formula::Atom(Atom::le(x())), SatResult::Unknown),
            (Formula::Atom(Atom::le(y())), SatResult::Unsat),
        ];
        let back = parse_solver_cache(&render_solver_cache(&entries)).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].1, SatResult::Unsat);
    }

    #[test]
    fn corruption_rejects_the_file() {
        let entries = vec![
            (Formula::Atom(Atom::eq(x() - c(3))), SatResult::Unsat),
            (
                Formula::Or(vec![
                    Formula::Atom(Atom::le(x())),
                    Formula::Atom(Atom::le(y() - c(2))),
                ]),
                SatResult::Sat(Model::from([(SVar(0), 0), (SVar(3), 9)])),
            ),
        ];
        let text = render_solver_cache(&entries);
        assert!(parse_solver_cache(&text).is_ok());

        // Bit-flip every byte position in turn: either the checksum
        // or the header parse must reject every mutation.
        let bytes = text.as_bytes();
        for i in 0..bytes.len() {
            let mut mutated = bytes.to_vec();
            mutated[i] ^= 0x01;
            let Ok(s) = String::from_utf8(mutated) else { continue };
            assert!(parse_solver_cache(&s).is_err(), "flip at byte {i} accepted");
        }

        // Truncation at every prefix length.
        for i in 0..text.len() {
            if !text.is_char_boundary(i) {
                continue;
            }
            assert!(parse_solver_cache(&text[..i]).is_err(), "prefix of {i} bytes accepted");
        }

        // Version bumps.
        assert!(parse_solver_cache(&text.replace("format=1", "format=2")).is_err());
        assert!(parse_solver_cache(&text.replace("atoms=1", "atoms=2")).is_err());
        // Wrong kind.
        assert!(parse_cache_file("circ-abs-cache", FORMAT_VERSION, &text).is_err());
    }

    #[test]
    fn inert_store_is_free() {
        let store = SolverPersist::inert();
        assert!(!store.is_active());
        assert_eq!(store.seed_len(), 0);
        store.absorb(vec![(Formula::Atom(Atom::le(x())), SatResult::Unsat)]);
        assert!(store.merged_entries().is_empty());
    }

    #[test]
    fn seeded_solver_hits_where_cold_misses() {
        let f = Formula::atom(Atom::eq(x()))
            .or(Formula::atom(Atom::eq(x() - c(1))))
            .and(Formula::atom(Atom::le(c(2) - x())));

        let mut cold = Solver::new();
        let cold_result = cold.check(&f);
        assert_eq!(cold.counters().cache_misses, 1);

        let store = SolverPersist::with_seed(cold.entries());
        assert_eq!(store.seed_len(), 1);
        let mut warm = Solver::new();
        warm.set_seed(store);
        assert_eq!(warm.check(&f), cold_result);
        let counters = warm.counters();
        assert_eq!(counters.cache_hits, 1, "seeded query must hit");
        assert_eq!(counters.cache_misses, 0);
    }

    /// A few distinct solved entries, each formula exactly once.
    fn solved_entries() -> Vec<(Formula, SatResult)> {
        let mut solver = Solver::new();
        for n in 0..6 {
            solver.check(&Formula::atom(Atom::le(x() - c(n))).and(Formula::atom(Atom::eq(y()))));
        }
        solver.check(&Formula::atom(Atom::eq(x())).and(Formula::atom(Atom::eq(x() - c(1)))));
        solver.entries()
    }

    #[test]
    fn absorb_keeps_one_entry_per_formula() {
        let entries = solved_entries();
        let store = SolverPersist::with_seed(Vec::new());
        store.absorb(entries.clone());
        assert_eq!(store.merged_entries().len(), entries.len());
        for _ in 0..5 {
            store.absorb(entries.clone());
            assert_eq!(store.merged_entries().len(), entries.len(), "re-absorbing grew the store");
            assert_eq!(store.len(), entries.len());
        }
    }

    #[test]
    fn seeded_solver_reads_through_without_copying() {
        let entries = solved_entries();
        let mut warm = Solver::new();
        warm.set_seed(SolverPersist::with_seed(entries.clone()));
        for (f, r) in &entries {
            assert_eq!(&warm.check(f), r);
        }
        assert_eq!(warm.counters().cache_hits, entries.len() as u64);
        assert!(warm.entries().is_empty(), "seed hits must not land in the solver's memo");
    }

    #[test]
    fn absorbing_seed_entries_adds_nothing() {
        let entries = solved_entries();
        let (seeded, fresh) = entries.split_at(3);
        let store = SolverPersist::with_seed(seeded.to_vec());
        assert_eq!(store.seed_len(), seeded.len());
        store.absorb(seeded.to_vec());
        assert_eq!(store.merged_entries().len(), seeded.len(), "seed entries were re-learned");
        store.absorb(entries.clone());
        assert_eq!(store.merged_entries().len(), entries.len());
        assert_eq!(store.len(), entries.len());
        store.absorb(fresh.to_vec());
        assert_eq!(store.len(), entries.len());
    }

    #[test]
    fn save_load_round_trip_keeps_the_entry_set() {
        let path = std::env::temp_dir().join("circ_persist_unit_entry_set.cache");
        let entries = solved_entries();
        let store = SolverPersist::with_seed(entries[..2].to_vec());
        store.absorb(entries.clone());
        save_solver_cache(&path, &store).unwrap();
        let reloaded = SolverPersist::with_seed(load_solver_cache(&path).unwrap().unwrap());
        let _ = fs::remove_file(&path);
        let rendered = |s: &SolverPersist| render_solver_cache(&s.merged_entries());
        assert_eq!(rendered(&reloaded), rendered(&store));
        assert_eq!(reloaded.len(), entries.len());
        assert_eq!(reloaded.seed_len(), entries.len());
    }

    #[test]
    fn save_load_round_trip_through_disk() {
        let path = std::env::temp_dir().join("circ_persist_unit_solver.cache");
        let _ = fs::remove_file(&path);
        assert!(load_solver_cache(&path).unwrap().is_none(), "missing file is a clean miss");

        let mut solver = Solver::new();
        solver.check(&Formula::atom(Atom::le(x() - c(5))));
        let store = SolverPersist::with_seed(Vec::new());
        store.absorb(solver.entries());
        save_solver_cache(&path, &store).unwrap();

        let loaded = load_solver_cache(&path).unwrap().unwrap();
        assert_eq!(loaded.len(), 1);
        let reloaded = SolverPersist::with_seed(loaded);
        assert_eq!(reloaded.seed_len(), 1);
        let _ = fs::remove_file(&path);
    }
}
