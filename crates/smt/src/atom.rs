//! Normalized linear arithmetic atoms.
//!
//! Every comparison is normalized to one of three relations against
//! zero: `e = 0`, `e ≤ 0`, or `e ≠ 0`. Strict inequalities are
//! integer-tightened on construction (`a < b` becomes `a − b + 1 ≤ 0`),
//! so negation stays within the three forms.

use crate::lin::{div_floor, LinExpr};
use crate::SVar;
use std::fmt;

/// The relation of a normalized atom against zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rel {
    /// `e = 0`
    Eq,
    /// `e ≤ 0`
    Le,
    /// `e ≠ 0`
    Ne,
}

/// A normalized atom `expr rel 0`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Atom {
    expr: LinExpr,
    rel: Rel,
}

impl Atom {
    /// `e = 0`, GCD-normalized. If the coefficients' gcd does not
    /// divide the constant the atom is unsatisfiable and is returned
    /// as the canonical false atom `1 = 0`.
    pub fn eq(e: LinExpr) -> Atom {
        let g = e.coeff_gcd();
        if g == 0 {
            // constant equality
            return if e.constant_part() == 0 {
                Atom { expr: LinExpr::zero(), rel: Rel::Eq } // true: 0 = 0
            } else {
                Atom::falsum()
            };
        }
        if e.constant_part() % g != 0 {
            return Atom::falsum();
        }
        Atom { expr: e.divide_exact(g), rel: Rel::Eq }
    }

    /// `e ≤ 0`, GCD-tightened: `g·t + c ≤ 0` is equivalent (over the
    /// integers) to `t ≤ floor(−c/g)`, i.e. `t + ceil(c/g) ≤ 0`.
    pub fn le(e: LinExpr) -> Atom {
        let g = e.coeff_gcd();
        if g == 0 {
            return if e.constant_part() <= 0 {
                Atom { expr: LinExpr::zero(), rel: Rel::Le } // true
            } else {
                Atom::falsum()
            };
        }
        let mut t = e.divide_coeffs(g);
        // ceil(c/g) = -floor(-c/g)
        let c = -div_floor(-e.constant_part(), g);
        t.add_constant(c);
        Atom { expr: t, rel: Rel::Le }
    }

    /// `e < 0` over the integers, i.e. `e + 1 ≤ 0`.
    pub fn lt(mut e: LinExpr) -> Atom {
        e.add_constant(1);
        Atom::le(e)
    }

    /// `e ≥ 0`, i.e. `−e ≤ 0`.
    pub fn ge(e: LinExpr) -> Atom {
        Atom::le(-e)
    }

    /// `e > 0`, i.e. `−e + 1 ≤ 0`.
    pub fn gt(e: LinExpr) -> Atom {
        Atom::lt(-e)
    }

    /// `e ≠ 0`. If gcd does not divide the constant, the disequality
    /// is trivially true (`0 = 0` cannot happen) and we return the
    /// canonical true atom.
    pub fn ne(e: LinExpr) -> Atom {
        let g = e.coeff_gcd();
        if g == 0 {
            return if e.constant_part() != 0 { Atom::verum() } else { Atom::falsum() };
        }
        if e.constant_part() % g != 0 {
            return Atom::verum();
        }
        Atom { expr: e.divide_exact(g), rel: Rel::Ne }
    }

    /// The canonical false atom `1 = 0`.
    pub fn falsum() -> Atom {
        Atom { expr: LinExpr::constant(1), rel: Rel::Eq }
    }

    /// Rebuilds an atom from already-normalized parts (the cache-file
    /// wire decode in `circ-core`). Bypasses the normalizing
    /// constructors: those are the identity on every *variable* atom
    /// they can produce, but fold constant expressions to
    /// `verum`/`falsum`, which would not round-trip e.g. the canonical
    /// representative `-1 = 0`.
    pub fn from_normalized(expr: LinExpr, rel: Rel) -> Atom {
        Atom { expr, rel }
    }

    /// The canonical true atom `0 = 0`.
    pub fn verum() -> Atom {
        Atom { expr: LinExpr::zero(), rel: Rel::Eq }
    }

    /// Whether this atom is syntactically the constant true.
    pub fn is_verum(&self) -> bool {
        self.expr.is_constant()
            && match self.rel {
                Rel::Eq => self.expr.constant_part() == 0,
                Rel::Le => self.expr.constant_part() <= 0,
                Rel::Ne => self.expr.constant_part() != 0,
            }
    }

    /// Whether this atom is syntactically the constant false.
    pub fn is_falsum(&self) -> bool {
        self.expr.is_constant() && !self.is_verum()
    }

    /// The underlying expression.
    pub fn expr(&self) -> &LinExpr {
        &self.expr
    }

    /// The relation.
    pub fn rel(&self) -> Rel {
        self.rel
    }

    /// The semantic negation, still a single atom:
    /// `¬(e = 0) ≡ e ≠ 0`, `¬(e ≠ 0) ≡ e = 0`,
    /// `¬(e ≤ 0) ≡ e ≥ 1 ≡ −e + 1 ≤ 0`.
    pub fn negate(&self) -> Atom {
        match self.rel {
            Rel::Eq => Atom::ne(self.expr.clone()),
            Rel::Ne => Atom::eq(self.expr.clone()),
            Rel::Le => {
                let mut e = self.expr.clone().scale(-1);
                e.add_constant(1);
                Atom::le(e)
            }
        }
    }

    /// Substitutes `repl` for `v`, renormalizing.
    pub fn subst(&self, v: SVar, repl: &LinExpr) -> Atom {
        let e = self.expr.subst(v, repl);
        match self.rel {
            Rel::Eq => Atom::eq(e),
            Rel::Le => Atom::le(e),
            Rel::Ne => Atom::ne(e),
        }
    }

    /// Variables of the atom.
    pub fn vars(&self) -> impl Iterator<Item = SVar> + '_ {
        self.expr.vars()
    }

    /// Whether `v` occurs in the atom.
    pub fn mentions(&self, v: SVar) -> bool {
        self.expr.mentions(v)
    }

    /// Evaluates the atom under an assignment.
    pub fn eval(&self, assign: &impl Fn(SVar) -> i64) -> bool {
        let val = self.expr.eval(assign);
        match self.rel {
            Rel::Eq => val == 0,
            Rel::Le => val <= 0,
            Rel::Ne => val != 0,
        }
    }

    /// A canonical representative identifying an atom with its sign
    /// flip where the relation is symmetric (`e = 0` vs `−e = 0`).
    pub fn canonical(&self) -> Atom {
        match self.rel {
            Rel::Eq | Rel::Ne => {
                // The representative is the smaller of `e` and `−e`.
                // The order decides at the first term, whose nonzero
                // coefficient flips sign (at the constant when there
                // is no term), so `−e < e` exactly when that leading
                // number is positive: no need to build `−e` to know.
                let lead = self.expr.terms().next().map_or(self.expr.constant_part(), |(_, a)| a);
                if lead > 0 {
                    Atom { expr: self.expr.scale(-1), rel: self.rel }
                } else {
                    self.clone()
                }
            }
            Rel::Le => self.clone(),
        }
    }
}

impl LinExpr {
    /// Divides every coefficient and the constant by `g`, which must
    /// divide them all exactly.
    fn divide_exact(&self, g: i64) -> LinExpr {
        debug_assert!(g > 0);
        let mut out = LinExpr::zero();
        for (v, a) in self.terms() {
            debug_assert_eq!(a % g, 0);
            out.add_term(v, a / g);
        }
        debug_assert_eq!(self.constant_part() % g, 0);
        out.add_constant(self.constant_part() / g);
        out
    }

    /// Divides only the coefficients by `g` (constant handled by the
    /// caller with floor rounding).
    fn divide_coeffs(&self, g: i64) -> LinExpr {
        debug_assert!(g > 0);
        let mut out = LinExpr::zero();
        for (v, a) in self.terms() {
            debug_assert_eq!(a % g, 0);
            out.add_term(v, a / g);
        }
        out
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rel = match self.rel {
            Rel::Eq => "=",
            Rel::Le => "<=",
            Rel::Ne => "!=",
        };
        write!(f, "{} {} 0", self.expr, rel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> LinExpr {
        LinExpr::var(SVar(0))
    }

    #[test]
    fn strict_inequality_tightens() {
        // x < 0  ==>  x + 1 <= 0
        let a = Atom::lt(x());
        assert_eq!(a.rel(), Rel::Le);
        assert_eq!(a.expr().constant_part(), 1);
        assert!(a.eval(&|_| -1));
        assert!(!a.eval(&|_| 0));
    }

    #[test]
    fn gcd_tightening_le() {
        // 2x - 1 <= 0 tightens to x <= 0 over the integers.
        let e = LinExpr::scaled_var(SVar(0), 2) - LinExpr::constant(1);
        let a = Atom::le(e);
        assert_eq!(a.expr().constant_part(), 0);
        assert!(a.eval(&|_| 0)); // 2*0-1 <= 0 ✓
        assert!(!a.eval(&|_| 1)); // 2*1-1 = 1 > 0 ✗

        // 2x + 3 <= 0 tightens to x + 2 <= 0 (x <= -2).
        let e = LinExpr::scaled_var(SVar(0), 2) + LinExpr::constant(3);
        let a = Atom::le(e);
        assert!(a.eval(&|_| -2));
        assert!(!a.eval(&|_| -1));
    }

    #[test]
    fn unsat_equality_by_gcd() {
        // 2x - 1 = 0 has no integer solution
        let e = LinExpr::scaled_var(SVar(0), 2) - LinExpr::constant(1);
        assert!(Atom::eq(e.clone()).is_falsum());
        // and 2x - 1 != 0 is trivially true
        assert!(Atom::ne(e).is_verum());
    }

    #[test]
    fn negation_involutive_semantically() {
        let atoms = [
            Atom::eq(x() - LinExpr::constant(3)),
            Atom::le(x() - LinExpr::constant(3)),
            Atom::ne(x()),
        ];
        for a in &atoms {
            for val in -5..=5 {
                assert_eq!(a.eval(&|_| val), !a.negate().eval(&|_| val), "atom {a}, val {val}");
                assert_eq!(a.eval(&|_| val), a.negate().negate().eval(&|_| val));
            }
        }
    }

    #[test]
    fn constant_atoms_fold() {
        assert!(Atom::eq(LinExpr::constant(0)).is_verum());
        assert!(Atom::eq(LinExpr::constant(2)).is_falsum());
        assert!(Atom::le(LinExpr::constant(-1)).is_verum());
        assert!(Atom::le(LinExpr::constant(1)).is_falsum());
        assert!(Atom::ne(LinExpr::constant(1)).is_verum());
        assert!(Atom::ne(LinExpr::constant(0)).is_falsum());
    }

    #[test]
    fn canonical_identifies_sign_flip() {
        let a = Atom::eq(x() - LinExpr::var(SVar(1)));
        let b = Atom::eq(LinExpr::var(SVar(1)) - x());
        assert_eq!(a.canonical(), b.canonical());
    }

    #[test]
    fn subst_renormalizes() {
        // (x = 0)[x := 2y + 1]  =>  2y + 1 = 0  =>  falsum by gcd
        let a = Atom::eq(x());
        let repl = LinExpr::scaled_var(SVar(1), 2) + LinExpr::constant(1);
        assert!(a.subst(SVar(0), &repl).is_falsum());
    }
}
