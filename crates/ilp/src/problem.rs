//! The MILP problem model: variables, linear constraints, and a linear
//! objective to minimize.

/// A handle to a variable in a [`Problem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub usize);

/// The kind (and implied domain) of a variable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VarKind {
    /// A 0/1 variable.
    Binary,
    /// An integer variable within inclusive bounds.
    Integer {
        /// Lower bound.
        lo: i64,
        /// Upper bound.
        hi: i64,
    },
    /// A continuous variable within inclusive bounds.
    Continuous {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
}

impl VarKind {
    /// The numeric lower bound of the domain.
    pub fn lo(&self) -> f64 {
        match self {
            VarKind::Binary => 0.0,
            VarKind::Integer { lo, .. } => *lo as f64,
            VarKind::Continuous { lo, .. } => *lo,
        }
    }

    /// The numeric upper bound of the domain.
    pub fn hi(&self) -> f64 {
        match self {
            VarKind::Binary => 1.0,
            VarKind::Integer { hi, .. } => *hi as f64,
            VarKind::Continuous { hi, .. } => *hi,
        }
    }

    /// True for binary and integer variables.
    pub fn is_integral(&self) -> bool {
        !matches!(self, VarKind::Continuous { .. })
    }
}

/// Comparison operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `lhs <= rhs`
    Le,
    /// `lhs >= rhs`
    Ge,
    /// `lhs == rhs`
    Eq,
}

/// A linear constraint `sum(coef * var) cmp rhs`.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// The linear terms `(variable, coefficient)`.
    pub terms: Vec<(VarId, f64)>,
    /// The comparison operator.
    pub cmp: Cmp,
    /// The right-hand side constant.
    pub rhs: f64,
}

/// A mixed 0/1 linear program to *minimize*.
///
/// # Examples
///
/// ```
/// use tensat_ilp::{Problem, Cmp};
/// // minimize x + 2y  s.t.  x + y >= 1,  x,y binary
/// let mut p = Problem::new();
/// let x = p.add_binary(1.0);
/// let y = p.add_binary(2.0);
/// p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 1.0);
/// let sol = tensat_ilp::Solver::default().solve(&p);
/// assert_eq!(sol.value(x), 1.0);
/// assert_eq!(sol.value(y), 0.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Problem {
    pub(crate) kinds: Vec<VarKind>,
    pub(crate) objective: Vec<f64>,
    pub(crate) constraints: Vec<Constraint>,
}

impl Problem {
    /// Creates an empty problem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a variable with the given kind and objective coefficient.
    pub fn add_var(&mut self, kind: VarKind, objective: f64) -> VarId {
        self.kinds.push(kind);
        self.objective.push(objective);
        VarId(self.kinds.len() - 1)
    }

    /// Adds a binary variable with the given objective coefficient.
    pub fn add_binary(&mut self, objective: f64) -> VarId {
        self.add_var(VarKind::Binary, objective)
    }

    /// Adds a continuous variable with bounds and objective coefficient.
    pub fn add_continuous(&mut self, lo: f64, hi: f64, objective: f64) -> VarId {
        self.add_var(VarKind::Continuous { lo, hi }, objective)
    }

    /// Adds a bounded integer variable.
    pub fn add_integer(&mut self, lo: i64, hi: i64, objective: f64) -> VarId {
        self.add_var(VarKind::Integer { lo, hi }, objective)
    }

    /// Adds a linear constraint. Terms with zero coefficients are dropped.
    pub fn add_constraint(&mut self, terms: Vec<(VarId, f64)>, cmp: Cmp, rhs: f64) {
        let terms: Vec<(VarId, f64)> = terms.into_iter().filter(|(_, c)| *c != 0.0).collect();
        self.constraints.push(Constraint { terms, cmp, rhs });
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.kinds.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// The variable kinds.
    pub fn kinds(&self) -> &[VarKind] {
        &self.kinds
    }

    /// The objective coefficients.
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// The constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Evaluates the objective for an assignment.
    pub fn objective_value(&self, values: &[f64]) -> f64 {
        self.objective.iter().zip(values).map(|(c, v)| c * v).sum()
    }

    /// Checks whether an assignment satisfies every constraint and every
    /// variable domain (within `tol`).
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        if values.len() != self.num_vars() {
            return false;
        }
        for (kind, &v) in self.kinds.iter().zip(values) {
            if v < kind.lo() - tol || v > kind.hi() + tol {
                return false;
            }
            if kind.is_integral() && (v - v.round()).abs() > tol {
                return false;
            }
        }
        for c in &self.constraints {
            let lhs: f64 = c.terms.iter().map(|(v, coef)| coef * values[v.0]).sum();
            let ok = match c.cmp {
                Cmp::Le => lhs <= c.rhs + tol,
                Cmp::Ge => lhs >= c.rhs - tol,
                Cmp::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_evaluate() {
        let mut p = Problem::new();
        let x = p.add_binary(1.0);
        let y = p.add_continuous(0.0, 10.0, 0.5);
        let z = p.add_integer(0, 3, 2.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0), (z, 0.0)], Cmp::Ge, 1.0);
        assert_eq!(p.num_vars(), 3);
        assert_eq!(p.num_constraints(), 1);
        // The zero-coefficient term is dropped.
        assert_eq!(p.constraints()[0].terms.len(), 2);
        assert_eq!(p.objective_value(&[1.0, 2.0, 3.0]), 1.0 + 1.0 + 6.0);
    }

    #[test]
    fn feasibility_checks_domains_and_constraints() {
        let mut p = Problem::new();
        let x = p.add_binary(1.0);
        let y = p.add_binary(1.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 1.0);
        assert!(p.is_feasible(&[1.0, 0.0], 1e-6));
        assert!(!p.is_feasible(&[0.0, 0.0], 1e-6)); // violates constraint
        assert!(!p.is_feasible(&[0.5, 1.0], 1e-6)); // fractional binary
        assert!(!p.is_feasible(&[2.0, 0.0], 1e-6)); // out of domain
        assert!(!p.is_feasible(&[1.0], 1e-6)); // wrong arity
    }

    #[test]
    fn var_kind_bounds() {
        assert_eq!(VarKind::Binary.lo(), 0.0);
        assert_eq!(VarKind::Binary.hi(), 1.0);
        assert!(VarKind::Binary.is_integral());
        let k = VarKind::Continuous { lo: -1.5, hi: 2.5 };
        assert!(!k.is_integral());
        assert_eq!(k.lo(), -1.5);
        let k = VarKind::Integer { lo: 2, hi: 7 };
        assert_eq!(k.hi(), 7.0);
    }
}
