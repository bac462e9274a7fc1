//! Bounded Regular Section (BRS) analysis.
//!
//! This crate implements the array-section algebra that GROPHECY++ uses to
//! reason about which parts of which arrays a kernel reads and writes. It is
//! a faithful implementation of the *Bounded Regular Sections* of Havlak &
//! Kennedy ("An implementation of interprocedural bounded regular section
//! analysis", IEEE TPDS 1991), the representation cited by the paper
//! (reference \[5\]).
//!
//! A bounded regular section describes, per array dimension, a triplet
//! `lo : hi : stride` — the set `{ lo, lo+stride, lo+2*stride, ..., <= hi }`.
//! Multi-dimensional sections are cartesian products of such triplets, i.e.
//! strided hyper-rectangles. Two operators drive the analysis (paper §III-B):
//!
//! * [`Section::intersect`] — `INTERSECT`, detects overlap between sections
//!   (used for dependence detection between kernel statements), and
//! * [`SectionSet::union_with`] — `UNION`, merges the sections that must be
//!   transferred across the PCIe bus.
//!
//! Exactness policy: all operations on **dense** (stride-1) sections are
//! exact, including element counting of unions via disjoint decomposition.
//! Operations involving non-unit strides may over-approximate (return a
//! superset), which is the safe direction for transfer-size estimation: we
//! would rather transfer a few extra elements than miss one. Every
//! over-approximating code path is documented at the definition site.
//!
//! # Example
//!
//! ```
//! use gpp_brs::{Section, SectionSet};
//!
//! // A 2-D stencil reads rows 0..=101 and writes rows 1..=100 of a grid.
//! let read = Section::dense(&[(0, 101), (0, 101)]);
//! let written = Section::dense(&[(1, 100), (1, 100)]);
//!
//! // The halo (read but never written) is what must come from the CPU.
//! let mut halo = SectionSet::from_section(read);
//! halo.subtract_section(&written);
//! assert_eq!(halo.element_count(), 102 * 102 - 100 * 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dependence;
pub mod interval;
pub mod section;
pub mod set;

pub use dependence::{classify_dependence, DependenceKind};
pub use interval::Interval;
pub use section::Section;
pub use set::SectionSet;

/// Identifies an array within a kernel or kernel sequence.
///
/// `ArrayId`s are allocated by whoever builds the program representation
/// (see the `gpp-skeleton` crate) and are only meaningful within that scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub u32);

impl ArrayId {
    /// Returns the raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ArrayId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "A{}", self.0)
    }
}

/// Whether an array reference is a load or a store.
///
/// The data usage analyzer combines access kinds with section overlap to
/// decide what must be transferred: sections that are *read but not
/// previously written* flow host→device; the union of all *written* sections
/// flows device→host (paper §III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// The statement loads from the section.
    Read,
    /// The statement stores to the section.
    Write,
}

impl AccessKind {
    /// True if this access is a read.
    #[inline]
    pub fn is_read(self) -> bool {
        matches!(self, AccessKind::Read)
    }

    /// True if this access is a write.
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_id_display_and_index() {
        let a = ArrayId(7);
        assert_eq!(a.index(), 7);
        assert_eq!(a.to_string(), "A7");
    }

    #[test]
    fn access_kind_predicates() {
        assert!(AccessKind::Read.is_read());
        assert!(!AccessKind::Read.is_write());
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Write.is_read());
    }
}
