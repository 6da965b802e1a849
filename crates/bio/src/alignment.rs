//! Rectangular multiple sequence alignments.

use crate::alphabet::{DnaCode, NUM_STATES};
use crate::error::BioError;
use crate::sequence::Sequence;

/// A multiple sequence alignment: `n` taxa × `m` sites, all rows the
/// same length, taxon names unique.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Alignment {
    sequences: Vec<Sequence>,
    width: usize,
}

impl Alignment {
    /// Builds an alignment from sequences, validating rectangularity and
    /// name uniqueness.
    pub fn new(sequences: Vec<Sequence>) -> Result<Self, BioError> {
        let width = match sequences.first() {
            None => return Err(BioError::EmptyAlignment),
            Some(s) => s.len(),
        };
        if width == 0 {
            return Err(BioError::EmptyAlignment);
        }
        let mut names = std::collections::HashSet::new();
        for s in &sequences {
            if s.len() != width {
                return Err(BioError::RaggedAlignment {
                    name: s.name().to_string(),
                    len: s.len(),
                    expected: width,
                });
            }
            if !names.insert(s.name().to_string()) {
                return Err(BioError::DuplicateName(s.name().to_string()));
            }
        }
        Ok(Alignment { sequences, width })
    }

    /// Number of taxa (`n`).
    pub fn num_taxa(&self) -> usize {
        self.sequences.len()
    }

    /// Alignment width in sites (`m`).
    pub fn num_sites(&self) -> usize {
        self.width
    }

    /// The sequences, in row order.
    pub fn sequences(&self) -> &[Sequence] {
        &self.sequences
    }

    /// Row `t`.
    pub fn sequence(&self, t: usize) -> &Sequence {
        &self.sequences[t]
    }

    /// All taxon names, in row order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.sequences.iter().map(|s| s.name())
    }

    /// Index of the taxon with the given name.
    pub fn taxon_index(&self, name: &str) -> Option<usize> {
        self.sequences.iter().position(|s| s.name() == name)
    }

    /// The alignment column at site `site` (one code per taxon).
    pub fn column(&self, site: usize) -> Vec<DnaCode> {
        self.sequences.iter().map(|s| s.get(site)).collect()
    }

    /// Empirical base frequencies over all unambiguous characters, with
    /// a pseudocount of 1 per state so no frequency is ever zero.
    pub fn empirical_frequencies(&self) -> [f64; NUM_STATES] {
        let mut counts = [1.0f64; NUM_STATES];
        for s in &self.sequences {
            for c in s.codes() {
                if let Some(state) = c.state() {
                    counts[state] += 1.0;
                }
            }
        }
        let total: f64 = counts.iter().sum();
        counts.map(|c| c / total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Alignment {
        Alignment::new(vec![
            Sequence::from_str_named("a", "ACGT").unwrap(),
            Sequence::from_str_named("b", "ACGA").unwrap(),
            Sequence::from_str_named("c", "TCGA").unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn dimensions() {
        let a = toy();
        assert_eq!(a.num_taxa(), 3);
        assert_eq!(a.num_sites(), 4);
    }

    #[test]
    fn ragged_rejected() {
        let r = Alignment::new(vec![
            Sequence::from_str_named("a", "ACGT").unwrap(),
            Sequence::from_str_named("b", "ACG").unwrap(),
        ]);
        assert!(matches!(r, Err(BioError::RaggedAlignment { .. })));
    }

    #[test]
    fn duplicate_names_rejected() {
        let r = Alignment::new(vec![
            Sequence::from_str_named("a", "AC").unwrap(),
            Sequence::from_str_named("a", "GT").unwrap(),
        ]);
        assert!(matches!(r, Err(BioError::DuplicateName(_))));
    }

    #[test]
    fn empty_rejected() {
        assert!(matches!(
            Alignment::new(vec![]),
            Err(BioError::EmptyAlignment)
        ));
        let zero_width = Sequence::from_str_named("a", "").unwrap();
        assert!(Alignment::new(vec![zero_width]).is_err());
    }

    #[test]
    fn column_extraction() {
        let a = toy();
        let col0: String = a.column(0).iter().map(|c| c.to_char()).collect();
        assert_eq!(col0, "AAT");
    }

    #[test]
    fn empirical_frequencies_sum_to_one_and_reflect_counts() {
        let a = toy();
        let f = a.empirical_frequencies();
        let sum: f64 = f.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // 'C' and 'G' appear 3 times each; 'A' 4 times; 'T' 2 times.
        assert!(f[0] > f[3]);
    }

    #[test]
    fn pseudocount_prevents_zero_frequencies() {
        let a = Alignment::new(vec![
            Sequence::from_str_named("a", "AAAA").unwrap(),
            Sequence::from_str_named("b", "AAAA").unwrap(),
        ])
        .unwrap();
        let f = a.empirical_frequencies();
        assert!(f.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn taxon_lookup() {
        let a = toy();
        assert_eq!(a.taxon_index("b"), Some(1));
        assert_eq!(a.taxon_index("zz"), None);
    }
}
