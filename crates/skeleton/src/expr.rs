//! Affine index expressions over loop variables.

/// Identifies a loop within a kernel's loop nest (outermost = 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LoopId(pub u32);

impl LoopId {
    /// Raw index into the kernel's loop vector.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An affine combination of loop variables: `Σ coeff·loop + offset`.
///
/// This is the index language of bounded regular section analysis: affine
/// indices over loops with known trip counts yield regular sections with
/// computable bounds and strides.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct AffineExpr {
    /// `(loop, coefficient)` pairs; at most one entry per loop, coefficients
    /// never zero (normalized by the constructors).
    pub terms: Vec<(LoopId, i64)>,
    /// Constant offset.
    pub offset: i64,
}

impl AffineExpr {
    /// The constant expression `c`.
    pub fn constant(c: i64) -> Self {
        AffineExpr {
            terms: Vec::new(),
            offset: c,
        }
    }

    /// The expression `1·loop + 0`.
    pub fn var(loop_id: LoopId) -> Self {
        AffineExpr {
            terms: vec![(loop_id, 1)],
            offset: 0,
        }
    }

    /// The expression `coeff·loop + offset`.
    pub fn scaled(loop_id: LoopId, coeff: i64, offset: i64) -> Self {
        let mut e = AffineExpr {
            terms: Vec::new(),
            offset,
        };
        if coeff != 0 {
            e.terms.push((loop_id, coeff));
        }
        e
    }

    /// The coefficient of `loop_id` (0 if absent).
    pub fn coeff(&self, loop_id: LoopId) -> i64 {
        self.terms
            .iter()
            .find(|(l, _)| *l == loop_id)
            .map(|&(_, c)| c)
            .unwrap_or(0)
    }

    /// True if the expression does not mention any loop.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Adds `coeff·loop_id` to the expression, normalizing zero
    /// coefficients away.
    pub fn add_term(&mut self, loop_id: LoopId, coeff: i64) {
        if let Some(entry) = self.terms.iter_mut().find(|(l, _)| *l == loop_id) {
            entry.1 += coeff;
            if entry.1 == 0 {
                self.terms.retain(|(l, _)| *l != loop_id);
            }
        } else if coeff != 0 {
            self.terms.push((loop_id, coeff));
        }
    }

    /// Evaluates the expression at a concrete loop-variable assignment
    /// (`values[l]` is the value of loop `l`).
    pub fn eval(&self, values: &[i64]) -> i64 {
        self.offset
            + self
                .terms
                .iter()
                .map(|&(l, c)| c * values[l.index()])
                .sum::<i64>()
    }

    /// The `(min, max)` of the expression given each loop's trip count
    /// (loop `l` ranges over `0 ..= trips[l]-1`).
    pub fn bounds(&self, trips: &[u64]) -> (i64, i64) {
        let mut lo = self.offset;
        let mut hi = self.offset;
        for &(l, c) in &self.terms {
            let last = trips[l.index()].saturating_sub(1) as i64;
            if c >= 0 {
                hi += c * last;
            } else {
                lo += c * last;
            }
        }
        (lo, hi)
    }

    /// A conservative stride for the value set of this expression: the gcd
    /// of all coefficients (1 for constants). The true value set may be
    /// sparser (sumsets), so this may under-estimate the stride — i.e.
    /// over-approximate the section — which is the safe direction.
    pub fn stride(&self) -> i64 {
        let mut g = 0i64;
        for &(_, c) in &self.terms {
            g = gcd(g, c.abs());
        }
        if g == 0 {
            1
        } else {
            g
        }
    }
}

impl std::ops::Add<i64> for AffineExpr {
    type Output = AffineExpr;
    fn add(mut self, rhs: i64) -> AffineExpr {
        self.offset += rhs;
        self
    }
}

impl std::ops::Sub<i64> for AffineExpr {
    type Output = AffineExpr;
    fn sub(mut self, rhs: i64) -> AffineExpr {
        self.offset -= rhs;
        self
    }
}

impl std::ops::Mul<i64> for AffineExpr {
    type Output = AffineExpr;
    fn mul(mut self, rhs: i64) -> AffineExpr {
        if rhs == 0 {
            return AffineExpr::constant(0);
        }
        for t in &mut self.terms {
            t.1 *= rhs;
        }
        self.offset *= rhs;
        self
    }
}

impl std::ops::Add<AffineExpr> for AffineExpr {
    type Output = AffineExpr;
    fn add(mut self, rhs: AffineExpr) -> AffineExpr {
        for (l, c) in rhs.terms {
            self.add_term(l, c);
        }
        self.offset += rhs.offset;
        self
    }
}

impl std::fmt::Display for AffineExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "{}", self.offset);
        }
        for (i, (l, c)) in self.terms.iter().enumerate() {
            match (i, *c) {
                (0, 1) => write!(f, "i{}", l.0)?,
                (0, -1) => write!(f, "-i{}", l.0)?,
                (0, c) => write!(f, "{c}*i{}", l.0)?,
                (_, 1) => write!(f, "+i{}", l.0)?,
                (_, -1) => write!(f, "-i{}", l.0)?,
                (_, c) if c > 0 => write!(f, "+{c}*i{}", l.0)?,
                (_, c) => write!(f, "{c}*i{}", l.0)?,
            }
        }
        match self.offset {
            0 => Ok(()),
            o if o > 0 => write!(f, "+{o}"),
            o => write!(f, "{o}"),
        }
    }
}

/// An array index expression: affine, or data-dependent (irregular).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum IndexExpr {
    /// A statically analyzable affine index.
    Affine(AffineExpr),
    /// A data-dependent index (e.g. CSR column indirection). The BRS is
    /// unknown; the analyzer conservatively assumes the whole dimension may
    /// be referenced (paper §III-B, sparse fallback).
    Irregular,
    /// A data-dependent index with *locality*: consecutive threads land
    /// within a window of the given span (e.g. unstructured-mesh neighbour
    /// lists after bandwidth-reducing renumbering). Still unbounded for
    /// section analysis, but coalescing degrades to `Strided(span)` rather
    /// than fully scattered — the kind of access-pattern annotation a
    /// GROPHECY code skeleton carries.
    IrregularBounded(u32),
}

impl IndexExpr {
    /// True for any data-dependent index.
    pub fn is_irregular(&self) -> bool {
        matches!(self, IndexExpr::Irregular | IndexExpr::IrregularBounded(_))
    }

    /// The affine payload, if regular.
    pub fn as_affine(&self) -> Option<&AffineExpr> {
        match self {
            IndexExpr::Affine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AffineExpr> for IndexExpr {
    fn from(e: AffineExpr) -> Self {
        IndexExpr::Affine(e)
    }
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_expr() {
        let e = AffineExpr::constant(5);
        assert!(e.is_constant());
        assert_eq!(e.eval(&[]), 5);
        assert_eq!(e.bounds(&[]), (5, 5));
        assert_eq!(e.stride(), 1);
        assert_eq!(e.to_string(), "5");
    }

    #[test]
    fn var_and_ops() {
        let i = AffineExpr::var(LoopId(0));
        let e = (i.clone() * 4 + 3) + (AffineExpr::var(LoopId(1)) * 2);
        assert_eq!(e.coeff(LoopId(0)), 4);
        assert_eq!(e.coeff(LoopId(1)), 2);
        assert_eq!(e.offset, 3);
        assert_eq!(e.eval(&[2, 5]), 4 * 2 + 2 * 5 + 3);
        assert_eq!(e.to_string(), "4*i0+2*i1+3");
    }

    #[test]
    fn add_term_cancellation() {
        let mut e = AffineExpr::var(LoopId(0));
        e.add_term(LoopId(0), -1);
        assert!(e.is_constant());
        assert_eq!(e.coeff(LoopId(0)), 0);
    }

    #[test]
    fn bounds_with_negative_coeff() {
        // e = 10 - i, i in 0..8  =>  [3, 10]
        let e = AffineExpr::constant(10) + AffineExpr::scaled(LoopId(0), -1, 0);
        assert_eq!(e.bounds(&[8]), (3, 10));
    }

    #[test]
    fn bounds_multi_loop() {
        // e = 4i + j, i in 0..3, j in 0..4 => [0, 11]
        let e = AffineExpr::scaled(LoopId(0), 4, 0) + AffineExpr::var(LoopId(1));
        assert_eq!(e.bounds(&[3, 4]), (0, 11));
    }

    #[test]
    fn stride_gcd() {
        let e = AffineExpr::scaled(LoopId(0), 4, 0) + AffineExpr::scaled(LoopId(1), 6, 0);
        assert_eq!(e.stride(), 2);
        let dense = AffineExpr::scaled(LoopId(0), 4, 0) + AffineExpr::var(LoopId(1));
        assert_eq!(dense.stride(), 1);
    }

    #[test]
    fn mul_by_zero_collapses() {
        #[allow(clippy::erasing_op)] // exactly the behaviour under test
        let e = AffineExpr::var(LoopId(3)) * 0;
        assert!(e.is_constant());
        assert_eq!(e.offset, 0);
    }

    #[test]
    fn sub_offset() {
        let e = AffineExpr::var(LoopId(0)) - 2;
        assert_eq!(e.offset, -2);
        assert_eq!(e.to_string(), "i0-2");
    }

    #[test]
    fn index_expr_conversions() {
        let ix: IndexExpr = AffineExpr::var(LoopId(0)).into();
        assert!(!ix.is_irregular());
        assert!(ix.as_affine().is_some());
        assert!(IndexExpr::Irregular.is_irregular());
        assert!(IndexExpr::Irregular.as_affine().is_none());
    }
}
