//! Disk persistence for the abstraction-layer entailment cache.
//!
//! Reuses the wire helpers and checksummed file envelope of
//! [`circ_smt::persist`]; see that module for the format and the
//! corruption-rejection guarantees. One line per entry:
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
use circ_smt::persist::{
    parse_atom, parse_cache_file, push_atom, render_cache_file, Tokens, FORMAT_VERSION,
};
use circ_smt::{Atom, PersistError};
use std::io;
use std::path::Path;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::AbsCache;
    use circ_smt::{LinExpr, SVar};
    use std::fs;

    fn x() -> LinExpr {
        LinExpr::var(SVar(0))
    }
    fn y() -> LinExpr {
        LinExpr::var(SVar(5))
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
}
