//! Boolean combinations of linear atoms, with negation normal form.

use crate::atom::Atom;
use crate::lin::SVar;
use std::collections::BTreeSet;
use std::fmt;

/// A quantifier-free formula over linear integer atoms.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Formula {
    /// Constant truth value.
    Const(bool),
    /// An atom.
    Atom(Atom),
    /// Negation.
    Not(Box<Formula>),
    /// N-ary conjunction.
    And(Vec<Formula>),
    /// N-ary disjunction.
    Or(Vec<Formula>),
}

impl Formula {
    /// The constant true.
    pub fn tru() -> Formula {
        Formula::Const(true)
    }

    /// The constant false.
    pub fn fls() -> Formula {
        Formula::Const(false)
    }

    /// Wraps an atom, folding constant atoms.
    pub fn atom(a: Atom) -> Formula {
        if a.is_verum() {
            Formula::Const(true)
        } else if a.is_falsum() {
            Formula::Const(false)
        } else {
            Formula::Atom(a)
        }
    }

    /// Binary conjunction with constant folding.
    pub fn and(self, rhs: Formula) -> Formula {
        match (self, rhs) {
            (Formula::Const(false), _) | (_, Formula::Const(false)) => Formula::fls(),
            (Formula::Const(true), f) | (f, Formula::Const(true)) => f,
            (Formula::And(mut a), Formula::And(b)) => {
                a.extend(b);
                Formula::And(a)
            }
            (Formula::And(mut a), f) => {
                a.push(f);
                Formula::And(a)
            }
            (f, Formula::And(mut b)) => {
                b.insert(0, f);
                Formula::And(b)
            }
            (a, b) => Formula::And(vec![a, b]),
        }
    }

    /// Binary disjunction with constant folding.
    pub fn or(self, rhs: Formula) -> Formula {
        match (self, rhs) {
            (Formula::Const(true), _) | (_, Formula::Const(true)) => Formula::tru(),
            (Formula::Const(false), f) | (f, Formula::Const(false)) => f,
            (Formula::Or(mut a), Formula::Or(b)) => {
                a.extend(b);
                Formula::Or(a)
            }
            (Formula::Or(mut a), f) => {
                a.push(f);
                Formula::Or(a)
            }
            (f, Formula::Or(mut b)) => {
                b.insert(0, f);
                Formula::Or(b)
            }
            (a, b) => Formula::Or(vec![a, b]),
        }
    }

    /// Negation with double-negation elimination.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Formula {
        match self {
            Formula::Const(b) => Formula::Const(!b),
            Formula::Not(f) => *f,
            f => Formula::Not(Box::new(f)),
        }
    }

    /// `self → rhs`.
    pub fn implies(self, rhs: Formula) -> Formula {
        self.not().or(rhs)
    }

    /// Conjunction of an iterator of formulas.
    pub fn conj(fs: impl IntoIterator<Item = Formula>) -> Formula {
        fs.into_iter().fold(Formula::tru(), Formula::and)
    }

    /// Disjunction of an iterator of formulas.
    pub fn disj(fs: impl IntoIterator<Item = Formula>) -> Formula {
        fs.into_iter().fold(Formula::fls(), Formula::or)
    }

    /// Negation normal form: negations pushed onto atoms (and absorbed
    /// by [`Atom::negate`], so the result contains no `Not` at all).
    pub fn to_nnf(&self) -> Formula {
        self.nnf(false)
    }

    /// Whether `self` is already in the form [`Formula::to_nnf`]
    /// builds, so that `to_nnf` would return it unchanged: no `Not`,
    /// no constant atom, no constant below the root, and every
    /// `And`/`Or` has at least two children, none of its own kind.
    pub fn is_nnf(&self) -> bool {
        match self {
            Formula::Const(_) => true,
            Formula::Atom(a) => !a.expr().is_constant(),
            Formula::Not(_) => false,
            Formula::And(fs) => nnf_operands(fs, |f| matches!(f, Formula::And(_))),
            Formula::Or(fs) => nnf_operands(fs, |f| matches!(f, Formula::Or(_))),
        }
    }

    /// The NNF of `self` (`neg` false) or of its negation (`neg` true).
    pub(crate) fn nnf(&self, neg: bool) -> Formula {
        match self {
            Formula::Const(b) => Formula::Const(*b != neg),
            Formula::Atom(a) => {
                if neg {
                    Formula::atom(a.negate())
                } else {
                    Formula::atom(a.clone())
                }
            }
            Formula::Not(f) => f.nnf(!neg),
            Formula::And(fs) => {
                let parts = fs.iter().map(|f| f.nnf(neg));
                if neg {
                    Formula::disj(parts)
                } else {
                    Formula::conj(parts)
                }
            }
            Formula::Or(fs) => {
                let parts = fs.iter().map(|f| f.nnf(neg));
                if neg {
                    Formula::conj(parts)
                } else {
                    Formula::disj(parts)
                }
            }
        }
    }

    /// All atoms occurring in the formula.
    pub fn atoms(&self) -> BTreeSet<Atom> {
        let mut out = BTreeSet::new();
        self.collect_atoms(&mut out);
        out
    }

    fn collect_atoms(&self, out: &mut BTreeSet<Atom>) {
        match self {
            Formula::Const(_) => {}
            Formula::Atom(a) => {
                out.insert(a.clone());
            }
            Formula::Not(f) => f.collect_atoms(out),
            Formula::And(fs) | Formula::Or(fs) => {
                for f in fs {
                    f.collect_atoms(out);
                }
            }
        }
    }

    /// All solver variables occurring in the formula.
    pub fn vars(&self) -> BTreeSet<SVar> {
        self.atoms().iter().flat_map(|a| a.vars().collect::<Vec<_>>()).collect()
    }

    /// Substitutes `repl` for `v` in every atom.
    pub fn subst(&self, v: SVar, repl: &crate::LinExpr) -> Formula {
        match self {
            Formula::Const(_) => self.clone(),
            Formula::Atom(a) => Formula::atom(a.subst(v, repl)),
            Formula::Not(f) => f.subst(v, repl).not(),
            Formula::And(fs) => Formula::conj(fs.iter().map(|f| f.subst(v, repl))),
            Formula::Or(fs) => Formula::disj(fs.iter().map(|f| f.subst(v, repl))),
        }
    }

    /// Evaluates the formula under an assignment.
    pub fn eval(&self, assign: &impl Fn(SVar) -> i64) -> bool {
        match self {
            Formula::Const(b) => *b,
            Formula::Atom(a) => a.eval(assign),
            Formula::Not(f) => !f.eval(assign),
            Formula::And(fs) => fs.iter().all(|f| f.eval(assign)),
            Formula::Or(fs) => fs.iter().any(|f| f.eval(assign)),
        }
    }

    /// Whether the formula is syntactically `true`.
    pub fn is_true(&self) -> bool {
        matches!(self, Formula::Const(true))
    }

    /// Whether the formula is syntactically `false`.
    pub fn is_false(&self) -> bool {
        matches!(self, Formula::Const(false))
    }
}

/// Whether `fs` are the operands of an n-ary connective in NNF: at
/// least two, each in NNF, none constant and none `same_kind` (which
/// `to_nnf` would have flattened into its parent).
fn nnf_operands(fs: &[Formula], same_kind: impl Fn(&Formula) -> bool) -> bool {
    fs.len() >= 2
        && fs.iter().all(|f| !matches!(f, Formula::Const(_)) && !same_kind(f) && f.is_nnf())
}

impl From<Atom> for Formula {
    fn from(a: Atom) -> Formula {
        Formula::atom(a)
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::Const(b) => write!(f, "{b}"),
            Formula::Atom(a) => write!(f, "({a})"),
            Formula::Not(x) => write!(f, "!{x}"),
            Formula::And(fs) => {
                write!(f, "(")?;
                for (i, x) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " & ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
            Formula::Or(fs) => {
                write!(f, "(")?;
                for (i, x) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lin::LinExpr;

    fn x_eq(c: i64) -> Formula {
        Formula::atom(Atom::eq(LinExpr::var(SVar(0)) - LinExpr::constant(c)))
    }

    #[test]
    fn constant_folding() {
        assert!(Formula::tru().and(Formula::fls()).is_false());
        assert!(Formula::tru().or(Formula::fls()).is_true());
        assert_eq!(Formula::tru().and(x_eq(1)), x_eq(1));
    }

    #[test]
    fn nnf_eliminates_not() {
        let f = x_eq(1).and(x_eq(2).or(x_eq(3).not())).not();
        let nnf = f.to_nnf();
        fn has_not(f: &Formula) -> bool {
            match f {
                Formula::Not(_) => true,
                Formula::And(fs) | Formula::Or(fs) => fs.iter().any(has_not),
                _ => false,
            }
        }
        assert!(!has_not(&nnf));
        // semantics preserved at a few points
        for v in 0..5 {
            assert_eq!(f.eval(&|_| v), nnf.eval(&|_| v), "differs at {v}");
        }
    }

    #[test]
    fn implies_semantics() {
        let f = x_eq(1).implies(x_eq(1).or(x_eq(2)));
        for v in 0..4 {
            assert!(f.eval(&|_| v));
        }
    }

    #[test]
    fn atoms_collected_through_not() {
        let f = x_eq(1).and(x_eq(2).not());
        assert_eq!(f.atoms().len(), 2);
        assert_eq!(f.vars().len(), 1);
    }

    #[test]
    fn subst_folds_constants() {
        // (x = 1)[x := 1] = true
        let f = x_eq(1).subst(SVar(0), &LinExpr::constant(1));
        assert!(f.is_true());
        let g = x_eq(1).subst(SVar(0), &LinExpr::constant(2));
        assert!(g.is_false());
    }
}
