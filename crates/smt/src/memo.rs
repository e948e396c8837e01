//! Solver memo keys hashed once per query.
//!
//! The solver looks a missed NNF up in its own memo, then in the
//! persistence seed, and inserts it into the memo after solving. Keyed
//! on a plain [`Formula`], each of those three map operations would
//! hash the whole formula again. A [`Keyed`] carries its formula's
//! [`fx_hash`] alongside it, and the maps hash only that `u64`; a
//! lookup goes through a borrowed [`Probe`], so no formula is cloned
//! to ask. Equality still compares the formulas themselves.

use crate::formula::Formula;
use crate::solver::SatResult;
use circ_par::{fx_hash, FxHashMap};
use std::borrow::Borrow;
use std::hash::{Hash, Hasher};

/// A memo map from NNF formulas to results.
pub(crate) type Memo = FxHashMap<Keyed, SatResult>;

/// An owned memo key: a formula and its precomputed hash. The
/// derived equality compares both, as `dyn Key`'s does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Keyed {
    hash: u64,
    formula: Formula,
}

impl Keyed {
    /// Keys `formula`, hashing it.
    pub(crate) fn new(formula: Formula) -> Keyed {
        Keyed { hash: fx_hash(&formula), formula }
    }

    /// Keys `formula` under its already computed hash
    /// ([`Probe::hash`]).
    pub(crate) fn with_hash(hash: u64, formula: Formula) -> Keyed {
        debug_assert_eq!(hash, fx_hash(&formula), "stale memo hash");
        Keyed { hash, formula }
    }

    /// The keyed formula.
    pub(crate) fn formula(&self) -> &Formula {
        &self.formula
    }
}

/// A borrowed memo key, for lookups.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Probe<'a> {
    hash: u64,
    formula: &'a Formula,
}

impl<'a> Probe<'a> {
    /// Keys a borrowed `formula`, hashing it.
    pub(crate) fn new(formula: &'a Formula) -> Probe<'a> {
        Probe { hash: fx_hash(formula), formula }
    }

    /// The probed formula's hash.
    pub(crate) fn hash(&self) -> u64 {
        self.hash
    }

    /// `map[self]`, if present, without re-hashing the formula.
    pub(crate) fn get<'m>(&self, map: &'m Memo) -> Option<&'m SatResult> {
        map.get(self as &dyn Key)
    }
}

/// What the memo maps hash and compare: [`Keyed`] and [`Probe`] both
/// present as this, so a `Probe` can look up a `Keyed` entry.
pub(crate) trait Key {
    fn key_hash(&self) -> u64;
    fn key_formula(&self) -> &Formula;
}

impl Key for Keyed {
    fn key_hash(&self) -> u64 {
        self.hash
    }
    fn key_formula(&self) -> &Formula {
        &self.formula
    }
}

impl Key for Probe<'_> {
    fn key_hash(&self) -> u64 {
        self.hash
    }
    fn key_formula(&self) -> &Formula {
        self.formula
    }
}

impl<'a> Borrow<dyn Key + 'a> for Keyed {
    fn borrow(&self) -> &(dyn Key + 'a) {
        self
    }
}

impl Hash for dyn Key + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.key_hash());
    }
}

impl PartialEq for dyn Key + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.key_hash() == other.key_hash() && self.key_formula() == other.key_formula()
    }
}

impl Eq for dyn Key + '_ {}

// `Keyed`'s own `Hash` must agree with `dyn Key`'s, which `HashMap`
// relies on for `Borrow` lookups.
impl Hash for Keyed {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self as &dyn Key).hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Atom, LinExpr, SVar};

    #[test]
    fn probe_finds_the_keyed_entry_and_only_it() {
        let f = Formula::atom(Atom::le(LinExpr::var(SVar(0))));
        let g = Formula::atom(Atom::le(LinExpr::var(SVar(1))));
        let mut memo = Memo::default();
        memo.insert(Keyed::new(f.clone()), SatResult::Unsat);
        assert_eq!(Probe::new(&f).get(&memo), Some(&SatResult::Unsat));
        assert_eq!(Probe::new(&g).get(&memo), None);
        // Equal hashes alone do not make a match.
        let forged = Probe { hash: fx_hash(&f), formula: &g };
        assert_eq!(forged.get(&memo), None);
        assert_eq!(Keyed::with_hash(Probe::new(&f).hash(), f.clone()), Keyed::new(f));
    }
}
