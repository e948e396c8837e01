//! Disk persistence: the checksummed cache-file envelope every
//! artifact under `--cache-dir` shares, and the entailment cache
//! written in it.
//!
//! The envelope is a deliberately boring whitespace-tokenized text
//! file:
//!
//! ```text
//! <kind> format=<F> atoms=1 entries=<N> sum=<16-hex fnv1a64 of body>
//! <line 1>
//! ...
//! <line N>
//! ```
//!
//! `F` is the kind's own line-syntax version ([`FORMAT_VERSION`] for
//! the entailment cache). Lines are sorted lexicographically before
//! writing, so a given cache content has exactly one on-disk rendering
//! regardless of hash-map iteration order — that is what lets tests
//! compare warm and cold runs byte-for-byte. The header carries an
//! FNV-1a checksum of the whole body plus a format and atom-encoding
//! version; any mismatch, parse anomaly, or truncation rejects the
//! entire file (the caller logs and cold starts). A bit flip can
//! therefore lose a cache, never corrupt a verdict.
//!
//! The entailment cache writes one line per entry:
//!
//! ```text
//! E <n> <atom>*n <goal-atom> <0|1>     entailment: premises ⊨ goal?
//! S <n> <atom>*n <0|1>                 conjunction satisfiable?
//! ```
//!
//! Cross-process reuse is sound because the keys are *canonical LIA
//! atoms over a numbering fixed by the program text*: solver variables
//! come from CFA variable indices (`pre(v) = 2i`, `post(v) = 2i + 1`),
//! premises are sorted/deduped/sign-normalized, and the atom
//! constructors normalize on construction. The same logical question
//! asked by any later process — even after predicate regrowth renumbers
//! every predicate — rebuilds the identical key (see
//! [`crate::cache`]).

use crate::cache::AbsSeed;
use circ_ir::digest::fnv1a64;
use circ_smt::{Atom, Formula, LinExpr, Rel, SVar, SatResult};
use std::fmt;
use std::io;
use std::path::Path;

/// On-disk format version of the entailment cache. Bump when its line
/// syntax changes.
pub const FORMAT_VERSION: u32 = 1;

/// Atom-encoding version. Bump when atom *normalization* changes
/// (GCD tightening, canonical sign, SVar numbering scheme): old files
/// would parse fine but mean something subtly different, so they must
/// be rejected wholesale.
pub const ATOM_VERSION: u32 = 1;

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

const ABS_KIND: &str = "circ-abs-cache";

/// Upper bound on premises per entry accepted by the parser (a
/// hostile-input guard; real premise lists are tiny).
const MAX_PREMISES: usize = 1_000_000;

fn push_bool(out: &mut String, b: bool) {
    out.push(if b { '1' } else { '0' });
}

fn parse_bool(toks: &mut Tokens<'_>) -> Result<bool, PersistError> {
    match toks.next()? {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(PersistError::Format(format!("bad boolean token {other:?}"))),
    }
}

fn parse_premises(toks: &mut Tokens<'_>) -> Result<Vec<Atom>, PersistError> {
    let n: usize = toks.next_int()?;
    if n > MAX_PREMISES {
        return Err(PersistError::Format("premise count out of range".into()));
    }
    let mut premises = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        premises.push(parse_atom(toks)?);
    }
    Ok(premises)
}

/// Serializes a seed to the versioned wire format.
pub fn render_abs_cache(seed: &AbsSeed) -> String {
    let mut lines = Vec::with_capacity(seed.entails_entries().len() + seed.sat_entries().len());
    for ((premises, goal), result) in seed.entails_entries() {
        let mut line = String::from("E ");
        line.push_str(&premises.len().to_string());
        for a in premises {
            line.push(' ');
            push_atom(&mut line, a);
        }
        line.push(' ');
        push_atom(&mut line, goal);
        line.push(' ');
        push_bool(&mut line, *result);
        lines.push(line);
    }
    for (atoms, result) in seed.sat_entries() {
        let mut line = String::from("S ");
        line.push_str(&atoms.len().to_string());
        for a in atoms {
            line.push(' ');
            push_atom(&mut line, a);
        }
        line.push(' ');
        push_bool(&mut line, *result);
        lines.push(line);
    }
    render_cache_file(ABS_KIND, FORMAT_VERSION, lines)
}

/// Parses a cache file rendered by [`render_abs_cache`].
pub fn parse_abs_cache(text: &str) -> Result<AbsSeed, PersistError> {
    let lines = parse_cache_file(ABS_KIND, FORMAT_VERSION, text)?;
    let mut entails = Vec::new();
    let mut sat = Vec::new();
    for line in lines {
        let mut toks = Tokens::new(line);
        match toks.next()? {
            "E" => {
                let premises = parse_premises(&mut toks)?;
                let goal = parse_atom(&mut toks)?;
                let result = parse_bool(&mut toks)?;
                entails.push(((premises, goal), result));
            }
            "S" => {
                let atoms = parse_premises(&mut toks)?;
                let result = parse_bool(&mut toks)?;
                sat.push((atoms, result));
            }
            other => return Err(PersistError::Format(format!("bad entry tag {other:?}"))),
        }
        toks.finish()?;
    }
    Ok(AbsSeed::from_entries(entails, sat))
}

/// Loads an entailment-cache file. A missing file is `Ok(None)` (a
/// fresh cache dir is not an anomaly); anything else unreadable or
/// invalid is an error for the caller to log before cold-starting.
pub fn load_abs_cache(path: &Path) -> Result<Option<AbsSeed>, PersistError> {
    load_abs_cache_in(&circ_store::Store::real(), path)
}

/// [`load_abs_cache`] through an explicit storage handle, so torture
/// runs can fail or truncate the read deterministically.
pub fn load_abs_cache_in(
    store: &circ_store::Store,
    path: &Path,
) -> Result<Option<AbsSeed>, PersistError> {
    let text = match store.read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(PersistError::Io(e)),
    };
    parse_abs_cache(&text).map(Some)
}

/// Saves a seed to `path` (durable atomic write).
pub fn save_abs_cache(path: &Path, seed: &AbsSeed) -> io::Result<()> {
    save_abs_cache_in(&circ_store::Store::real(), path, seed)
}

/// [`save_abs_cache`] through an explicit storage handle.
pub fn save_abs_cache_in(store: &circ_store::Store, path: &Path, seed: &AbsSeed) -> io::Result<()> {
    store.write_atomic(path, &render_abs_cache(seed))
}

/// A stable fingerprint of a rendered seed, used by benches to assert
/// that two runs saved identical caches.
pub fn abs_cache_fingerprint(seed: &AbsSeed) -> u64 {
    fnv1a64(render_abs_cache(seed).as_bytes())
}

/// Compat stub for `perfbench/`, which still builds one and hands it
/// to [`crate::AbsCtx::with_parts`], [`crate::circ_with_caches`] and
/// `circ_batch::flush_caches_in`. The solver keeps its memo in memory
/// for one run and persists nothing, so this store holds nothing and
/// every function taking one ignores it. Delete it, with
/// [`crate::CircConfig::jobs`], once perfbench stops naming it.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverPersist;

impl SolverPersist {
    /// The store. It holds nothing.
    pub fn inert() -> SolverPersist {
        SolverPersist
    }

    /// The store; `seed` is dropped (perfbench passes
    /// `circ_batch::LoadedCaches::solver_seed`, which is always empty).
    pub fn with_seed(_seed: Vec<(Formula, SatResult)>) -> SolverPersist {
        SolverPersist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::AbsCache;
    use std::fs;

    fn x() -> LinExpr {
        LinExpr::var(SVar(0))
    }
    fn y() -> LinExpr {
        LinExpr::var(SVar(5))
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
    fn corruption_rejects_the_file() {
        // The bare envelope, under a kind and format of its own.
        let lines = vec!["b 2 x".to_string(), "a 1".to_string(), "c".to_string()];
        let text = render_cache_file("test-kind", 3, lines);
        assert_eq!(parse_cache_file("test-kind", 3, &text).unwrap(), ["a 1", "b 2 x", "c"]);
        let rejects = |t: &str| parse_cache_file("test-kind", 3, t).is_err();
        let bytes = text.as_bytes();
        for i in 0..bytes.len() {
            let mut mutated = bytes.to_vec();
            mutated[i] ^= 0x01;
            let Ok(s) = String::from_utf8(mutated) else { continue };
            assert!(rejects(&s), "flip at byte {i} accepted");
        }
        for i in 0..text.len() {
            assert!(rejects(&text[..i]), "prefix of {i} bytes accepted");
        }
        assert!(rejects(&text.replace("format=3", "format=4")));
        assert!(rejects(&text.replace("atoms=1", "atoms=2")));
        assert!(parse_cache_file("other-kind", 3, &text).is_err(), "wrong kind accepted");
    }

    fn populated_cache() -> AbsCache {
        let cache = AbsCache::new();
        let premises = [Atom::eq(x()), Atom::le(y() - LinExpr::constant(3))];
        cache.entails(&premises, &Atom::le(y() - LinExpr::constant(9)));
        cache.entails(&premises, &Atom::eq(y()));
        cache.is_sat_conj(&premises);
        cache.is_sat_conj(&[Atom::eq(x() - LinExpr::constant(1)), Atom::eq(-x())]);
        cache
    }

    #[test]
    fn wire_round_trip_preserves_every_entry() {
        let seed = populated_cache().snapshot();
        let text = render_abs_cache(&seed);
        let back = parse_abs_cache(&text).unwrap();
        assert_eq!(seed.entails_entries(), back.entails_entries());
        assert_eq!(seed.sat_entries(), back.sat_entries());
        // Canonical rendering: save(load(save(x))) == save(x).
        assert_eq!(render_abs_cache(&back), text);
    }

    #[test]
    fn round_tripped_seed_turns_misses_into_hits() {
        let cold = populated_cache();
        let text = render_abs_cache(&cold.snapshot());
        let warm = AbsCache::with_seed(&parse_abs_cache(&text).unwrap());

        let premises = [Atom::eq(x()), Atom::le(y() - LinExpr::constant(3))];
        assert!(warm.entails(&premises, &Atom::le(y() - LinExpr::constant(9))));
        assert!(!warm.entails(&premises, &Atom::eq(y())));
        assert!(warm.is_sat_conj(&premises));
        let c = warm.counters();
        assert_eq!(c.cache_hits, 3);
        assert_eq!(c.cache_misses, 0);
    }

    #[test]
    fn every_bit_flip_and_truncation_is_rejected() {
        let text = render_abs_cache(&populated_cache().snapshot());
        let bytes = text.as_bytes();
        for i in 0..bytes.len() {
            let mut mutated = bytes.to_vec();
            mutated[i] ^= 0x01;
            let Ok(s) = String::from_utf8(mutated) else { continue };
            assert!(parse_abs_cache(&s).is_err(), "flip at byte {i} accepted");
        }
        for i in 0..text.len() {
            if !text.is_char_boundary(i) {
                continue;
            }
            assert!(parse_abs_cache(&text[..i]).is_err(), "prefix of {i} bytes accepted");
        }
        assert!(parse_abs_cache(&text.replace("format=1", "format=2")).is_err());
        assert!(parse_abs_cache(&text.replace("atoms=1", "atoms=2")).is_err());
    }

    #[test]
    fn missing_file_is_a_clean_miss() {
        let path = std::env::temp_dir().join("circ_abs_cache_does_not_exist.cache");
        let _ = fs::remove_file(&path);
        assert!(load_abs_cache(&path).unwrap().is_none());
    }

    #[test]
    fn save_load_round_trips_through_disk() {
        let path = std::env::temp_dir().join("circ_persist_unit_abs.cache");
        let _ = fs::remove_file(&path);
        let seed = populated_cache().snapshot();
        save_abs_cache(&path, &seed).unwrap();
        let loaded = load_abs_cache(&path).unwrap().unwrap();
        assert_eq!(seed.entails_entries(), loaded.entails_entries());
        assert_eq!(abs_cache_fingerprint(&seed), abs_cache_fingerprint(&loaded));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn inert_store_is_free() {
        // The compat stub changes nothing: a run handed one reports
        // what a run without one reports.
        let cfa = circ_ir::figure1_cfa();
        let x = cfa.var_by_name("x").unwrap();
        let program = circ_ir::MtProgram::new(cfa, x);
        let config = crate::CircConfig::default();
        let plain = crate::circ_with_cache(&program, &config, &AbsCache::new());
        let stub = SolverPersist::with_seed(Vec::new());
        let with_stub = crate::circ_with_caches(&program, &config, &AbsCache::new(), &stub);
        assert!(plain.is_safe() && with_stub.is_safe());
        let (a, b) = (&plain.stats().pipeline, &with_stub.stats().pipeline);
        assert_eq!((a.abs, a.solver, a.reach_runs), (b.abs, b.solver, b.reach_runs));
    }
}
