//! Linear integer expressions over solver variables.

use std::fmt;
use std::ops;

/// A solver variable. Clients own the numbering (typically a map from
/// program variables and SSA instances to `SVar`s).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SVar(pub u32);

impl fmt::Display for SVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A linear expression `Σ aᵢ·xᵢ + c` with `i64` coefficients.
///
/// Terms are a flat vector sorted by variable, and zero-coefficient
/// terms are never stored, so equal expressions are equal vectors.
/// The derived order compares the `(variable, coefficient)` sequence
/// lexicographically, then the constant: the order a sorted map of
/// the terms would give, which [`crate::Atom::canonical`], seed order
/// and every persisted cache file rely on.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct LinExpr {
    terms: Vec<(SVar, i64)>,
    constant: i64,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> LinExpr {
        LinExpr::default()
    }

    /// The constant expression `c`.
    pub fn constant(c: i64) -> LinExpr {
        LinExpr { terms: Vec::new(), constant: c }
    }

    /// The expression `1·v`.
    pub fn var(v: SVar) -> LinExpr {
        LinExpr::scaled_var(v, 1)
    }

    /// The expression `a·v`.
    pub fn scaled_var(v: SVar, a: i64) -> LinExpr {
        let terms = if a == 0 { Vec::new() } else { vec![(v, a)] };
        LinExpr { terms, constant: 0 }
    }

    /// The constant part.
    pub fn constant_part(&self) -> i64 {
        self.constant
    }

    fn position(&self, v: SVar) -> Result<usize, usize> {
        self.terms.binary_search_by_key(&v, |&(x, _)| x)
    }

    /// The coefficient of `v` (0 if absent).
    pub fn coeff(&self, v: SVar) -> i64 {
        self.position(v).map_or(0, |i| self.terms[i].1)
    }

    /// Iterates over `(variable, nonzero coefficient)` pairs in
    /// variable order.
    pub fn terms(&self) -> impl Iterator<Item = (SVar, i64)> + '_ {
        self.terms.iter().copied()
    }

    /// Number of variables with nonzero coefficient.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// True if the expression is a constant.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// The variables of the expression.
    pub fn vars(&self) -> impl Iterator<Item = SVar> + '_ {
        self.terms.iter().map(|&(v, _)| v)
    }

    /// Whether `v` occurs.
    pub fn mentions(&self, v: SVar) -> bool {
        self.position(v).is_ok()
    }

    /// Adds `a·v` in place.
    pub fn add_term(&mut self, v: SVar, a: i64) {
        match self.position(v) {
            Ok(i) => {
                let sum = self.terms[i].1.checked_add(a).expect("coefficient overflow");
                if sum == 0 {
                    self.terms.remove(i);
                } else {
                    self.terms[i].1 = sum;
                }
            }
            Err(i) if a != 0 => self.terms.insert(i, (v, a)),
            Err(_) => {}
        }
    }

    /// Adds a constant in place.
    pub fn add_constant(&mut self, c: i64) {
        self.constant = self.constant.checked_add(c).expect("constant overflow");
    }

    /// Returns `k · self`.
    pub fn scale(&self, k: i64) -> LinExpr {
        if k == 0 {
            return LinExpr::zero();
        }
        LinExpr {
            terms: self
                .terms
                .iter()
                .map(|&(v, a)| (v, a.checked_mul(k).expect("coefficient overflow")))
                .collect(),
            constant: self.constant.checked_mul(k).expect("constant overflow"),
        }
    }

    /// Adds `k · rhs` in place.
    fn add_scaled(&mut self, k: i64, rhs: &LinExpr) {
        for &(v, b) in &rhs.terms {
            self.add_term(v, b.checked_mul(k).expect("coefficient overflow"));
        }
        self.add_constant(rhs.constant.checked_mul(k).expect("constant overflow"));
    }

    /// Substitutes the expression `repl` for variable `v`:
    /// `self[v := repl]`.
    pub fn subst(&self, v: SVar, repl: &LinExpr) -> LinExpr {
        let mut out = self.clone();
        if let Ok(i) = self.position(v) {
            let (_, a) = out.terms.remove(i);
            out.add_scaled(a, repl);
        }
        out
    }

    /// Greatest common divisor of the variable coefficients (0 when
    /// constant).
    pub fn coeff_gcd(&self) -> i64 {
        self.terms.iter().fold(0i64, |g, &(_, a)| gcd(g, a.abs()))
    }

    /// Evaluates under an assignment.
    pub fn eval(&self, assign: &impl Fn(SVar) -> i64) -> i64 {
        let mut acc = self.constant as i128;
        for &(v, a) in &self.terms {
            acc += (a as i128) * (assign(v) as i128);
        }
        i64::try_from(acc).expect("evaluation overflow")
    }
}

/// `gcd(a, b)` with `gcd(0, x) = x`; result is non-negative.
pub(crate) fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Floor division (rounds towards −∞), used for integer tightening.
pub(crate) fn div_floor(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    let q = a / b;
    if a % b < 0 {
        q - 1
    } else {
        q
    }
}

impl ops::Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        self.add_scaled(1, &rhs);
        self
    }
}

impl ops::Sub for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: LinExpr) -> LinExpr {
        self.add_scaled(-1, &rhs);
        self
    }
}

impl ops::Neg for LinExpr {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        self.scale(-1)
    }
}

impl From<i64> for LinExpr {
    fn from(c: i64) -> LinExpr {
        LinExpr::constant(c)
    }
}

impl From<SVar> for LinExpr {
    fn from(v: SVar) -> LinExpr {
        LinExpr::var(v)
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, a) in &self.terms {
            if first {
                match *a {
                    1 => write!(f, "{v}")?,
                    -1 => write!(f, "-{v}")?,
                    a => write!(f, "{a}{v}")?,
                }
                first = false;
            } else if *a >= 0 {
                if *a == 1 {
                    write!(f, " + {v}")?;
                } else {
                    write!(f, " + {a}{v}")?;
                }
            } else if *a == -1 {
                write!(f, " - {v}")?;
            } else {
                write!(f, " - {}{v}", -a)?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant > 0 {
            write!(f, " + {}", self.constant)?;
        } else if self.constant < 0 {
            write!(f, " - {}", -self.constant)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: u32) -> SVar {
        SVar(n)
    }

    #[test]
    fn add_cancels_terms() {
        let e = LinExpr::var(v(0)) + LinExpr::scaled_var(v(0), -1);
        assert!(e.is_constant());
        assert_eq!(e.constant_part(), 0);
    }

    #[test]
    fn subst_linear() {
        // (2x + y + 3)[x := y - 1] = 3y + 1
        let e = LinExpr::scaled_var(v(0), 2) + LinExpr::var(v(1)) + LinExpr::constant(3);
        let repl = LinExpr::var(v(1)) - LinExpr::constant(1);
        let s = e.subst(v(0), &repl);
        assert_eq!(s.coeff(v(1)), 3);
        assert_eq!(s.coeff(v(0)), 0);
        assert_eq!(s.constant_part(), 1);
    }

    #[test]
    fn gcd_and_floor() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(-4, 6), 2);
        assert_eq!(div_floor(7, 2), 3);
        assert_eq!(div_floor(-7, 2), -4);
        assert_eq!(div_floor(-8, 2), -4);
    }

    #[test]
    fn eval_matches_structure() {
        let e = LinExpr::scaled_var(v(0), 2) - LinExpr::var(v(1)) + LinExpr::constant(5);
        assert_eq!(e.eval(&|x| if x == v(0) { 3 } else { 4 }), 7);
    }

    #[test]
    fn display_readable() {
        let e = LinExpr::scaled_var(v(0), 2) - LinExpr::var(v(1)) - LinExpr::constant(3);
        assert_eq!(format!("{e}"), "2s0 - s1 - 3");
        assert_eq!(format!("{}", LinExpr::constant(0)), "0");
    }

    #[test]
    fn coeff_gcd_ignores_constant() {
        let e = LinExpr::scaled_var(v(0), 4) + LinExpr::scaled_var(v(1), 6) + LinExpr::constant(3);
        assert_eq!(e.coeff_gcd(), 2);
    }
}
