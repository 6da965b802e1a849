//! Site-pattern compression.
//!
//! Identical alignment columns contribute identical per-site likelihood
//! terms, so likelihood programs collapse them into unique *patterns*
//! with integer multiplicities (weights). The paper's Table III sizes
//! datasets in "alignment patterns"; this module is what turns an
//! [`Alignment`] into that representation.

use crate::alignment::Alignment;
use crate::alphabet::DnaCode;
use crate::error::BioError;
use std::hash::{BuildHasher, RandomState};

/// One unique alignment column together with its multiplicity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SitePattern {
    /// One code per taxon, in alignment row order.
    pub column: Vec<DnaCode>,
    /// Number of original alignment sites exhibiting this column.
    pub weight: u32,
}

/// A pattern-compressed alignment: the tip data actually fed to the
/// likelihood kernels.
///
/// Layout: per-taxon contiguous code rows over patterns (not columns),
/// which is the access order of `newview` tip cases.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompressedAlignment {
    pub(crate) names: Vec<String>,
    /// `rows[t][p]` = code of taxon `t` at pattern `p`.
    pub(crate) rows: Vec<Vec<DnaCode>>,
    pub(crate) weights: Vec<u32>,
    pub(crate) original_sites: usize,
    /// Map pattern index -> first original site exhibiting it.
    pub(crate) representative_site: Vec<usize>,
}

impl CompressedAlignment {
    /// Compresses an alignment into unique weighted patterns.
    ///
    /// Pattern order is order of first appearance, which makes the
    /// compression deterministic and the mapping back to sites stable.
    ///
    /// Each column is keyed by its codes packed 4 bits per taxon into
    /// ⌈n/16⌉ `u64` words ([`PatternTable`]). The keys of a block of
    /// [`KEY_BLOCK`] columns are built row by row, eight taxa at a time
    /// in `u32` lanes, so every taxon's codes are read in order.
    pub fn from_alignment(aln: &Alignment) -> Self {
        let m = aln.num_sites();
        let words = aln.num_taxa().div_ceil(16);
        let mut table = PatternTable::new(words);
        let mut weights: Vec<u32> = Vec::new();
        let mut representative_site = Vec::new();
        // `keys[w * KEY_BLOCK + i]`: word `w` of the block's column `i`.
        let mut keys = vec![0u64; words * KEY_BLOCK];
        let mut lanes = [0u32; KEY_BLOCK];
        let mut key = vec![0u64; words];
        for start in (0..m).step_by(KEY_BLOCK) {
            let len = KEY_BLOCK.min(m - start);
            // Taxon `t` lands in word `t / 16` at bit `4 * (t % 16)`.
            for (eighth, taxa) in aln.sequences().chunks(8).enumerate() {
                let lanes = &mut lanes[..len];
                lanes.fill(0);
                for (j, seq) in taxa.iter().enumerate() {
                    for (lane, code) in lanes.iter_mut().zip(&seq.codes()[start..start + len]) {
                        *lane |= u32::from(code.bits()) << (4 * j);
                    }
                }
                // A word's first eight taxa set it, its second eight
                // add theirs.
                let block = &mut keys[eighth / 2 * KEY_BLOCK..][..len];
                if eighth % 2 == 0 {
                    for (k, &lane) in block.iter_mut().zip(lanes.iter()) {
                        *k = u64::from(lane);
                    }
                } else {
                    for (k, &lane) in block.iter_mut().zip(lanes.iter()) {
                        *k |= u64::from(lane) << 32;
                    }
                }
            }
            for i in 0..len {
                for (w, k) in key.iter_mut().enumerate() {
                    *k = keys[w * KEY_BLOCK + i];
                }
                match table.find_or_insert(&key) {
                    Some(p) => weights[p] += 1,
                    None => {
                        weights.push(1);
                        representative_site.push(start + i);
                    }
                }
            }
        }
        let rows = aln
            .sequences()
            .iter()
            .map(|seq| representative_site.iter().map(|&s| seq.get(s)).collect())
            .collect();

        CompressedAlignment {
            names: aln.names().map(str::to_string).collect(),
            rows,
            weights,
            original_sites: m,
            representative_site,
        }
    }

    /// Builds a compressed alignment directly from per-taxon pattern
    /// rows and weights (used by simulators that generate patterns
    /// without materializing the full alignment).
    pub fn from_parts(
        names: Vec<String>,
        rows: Vec<Vec<DnaCode>>,
        weights: Vec<u32>,
    ) -> Result<Self, BioError> {
        if rows.is_empty() || weights.is_empty() {
            return Err(BioError::EmptyAlignment);
        }
        if names.len() != rows.len() {
            return Err(BioError::EmptyAlignment);
        }
        for r in &rows {
            if r.len() != weights.len() {
                return Err(BioError::RaggedAlignment {
                    name: "<pattern row>".into(),
                    len: r.len(),
                    expected: weights.len(),
                });
            }
        }
        let original_sites = weights.iter().map(|&w| w as usize).sum();
        let representative_site = {
            // Representative sites are synthetic here: cumulative weight
            // offsets, i.e. patterns laid out consecutively.
            let mut v = Vec::with_capacity(weights.len());
            let mut acc = 0usize;
            for &w in &weights {
                v.push(acc);
                acc += w as usize;
            }
            v
        };
        Ok(CompressedAlignment {
            names,
            rows,
            weights,
            original_sites,
            representative_site,
        })
    }

    /// Number of taxa.
    pub fn num_taxa(&self) -> usize {
        self.rows.len()
    }

    /// Number of unique patterns.
    pub fn num_patterns(&self) -> usize {
        self.weights.len()
    }

    /// Width of the original (uncompressed) alignment.
    pub fn original_sites(&self) -> usize {
        self.original_sites
    }

    /// Pattern multiplicities.
    pub fn weights(&self) -> &[u32] {
        &self.weights
    }

    /// Taxon names, in row order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Codes of taxon `t` across patterns.
    pub fn row(&self, t: usize) -> &[DnaCode] {
        &self.rows[t]
    }

    /// Index of the taxon with the given name.
    pub fn taxon_index(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// First original site that exhibits pattern `p`.
    pub fn representative_site(&self, p: usize) -> usize {
        self.representative_site[p]
    }

    /// One weighted pattern.
    pub fn pattern(&self, p: usize) -> SitePattern {
        SitePattern {
            column: self.rows.iter().map(|r| r[p]).collect(),
            weight: self.weights[p],
        }
    }

    /// Empirical base frequencies weighted by pattern multiplicity, with
    /// a pseudocount of 1 per state.
    pub fn empirical_frequencies(&self) -> [f64; 4] {
        let mut counts = [1.0f64; 4];
        for (p, &w) in self.weights.iter().enumerate() {
            for row in &self.rows {
                if let Some(state) = row[p].state() {
                    counts[state] += w as f64;
                }
            }
        }
        let total: f64 = counts.iter().sum();
        counts.map(|c| c / total)
    }
}

/// Columns whose keys [`CompressedAlignment::from_alignment`] builds at
/// a time: 4 KiB of keys per key word.
const KEY_BLOCK: usize = 512;

/// An open-addressed (linear probing) set of packed column keys that
/// hands out pattern indices in order of first insertion.
///
/// The keys come from input files, so the slot hash starts from a
/// seed drawn per table (`RandomState`, as `HashMap` does): columns
/// cannot be chosen to pile up in one probe run. Slots never decide
/// pattern order, so the result does not depend on the seed.
struct PatternTable {
    seed: u64,
    words: usize,
    /// Key of pattern `p`: `keys[p * words..][..words]`.
    keys: Vec<u64>,
    /// Pattern index per slot, [`EMPTY`] if none; a power of two long
    /// and at most half full.
    slots: Vec<usize>,
}

const EMPTY: usize = usize::MAX;

impl PatternTable {
    fn new(words: usize) -> Self {
        PatternTable {
            seed: RandomState::new().hash_one(words),
            words,
            keys: Vec::new(),
            slots: vec![EMPTY; 256],
        }
    }

    fn patterns(&self) -> usize {
        self.keys.len() / self.words
    }

    /// Multiply-rotate over the seed and the words, then the high bits:
    /// a pattern's slot depends on every taxon's code.
    fn home(&self, key: &[u64]) -> usize {
        let mut h = self.seed;
        for &w in key {
            h = (h.rotate_left(23) ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
        h ^= h >> 29;
        let bits = self.slots.len().trailing_zeros();
        (h.wrapping_mul(0xbf58_476d_1ce4_e5b9) >> (64 - bits)) as usize
    }

    /// The index of the pattern whose key equals `key`, or `None` after
    /// adding it as the next pattern. Every hash hit compares the full
    /// key.
    fn find_or_insert(&mut self, key: &[u64]) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(key);
        loop {
            let p = self.slots[slot];
            if p == EMPTY {
                break;
            }
            let stored = &self.keys[p * self.words..][..self.words];
            if stored.iter().zip(key).all(|(a, b)| a == b) {
                return Some(p);
            }
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = self.patterns();
        self.keys.extend_from_slice(key);
        if 2 * self.patterns() > self.slots.len() {
            self.grow();
        }
        None
    }

    /// Doubles the slots and re-seats every pattern.
    fn grow(&mut self) {
        self.slots = vec![EMPTY; 2 * self.slots.len()];
        let mask = self.slots.len() - 1;
        for p in 0..self.patterns() {
            let mut slot = self.home(&self.keys[p * self.words..][..self.words]);
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::Sequence;

    fn aln(rows: &[(&str, &str)]) -> Alignment {
        Alignment::new(
            rows.iter()
                .map(|(n, s)| Sequence::from_str_named(*n, s).unwrap())
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn identical_columns_collapse() {
        let a = aln(&[("a", "AAGA"), ("b", "CCTC"), ("c", "GGAG")]);
        let c = CompressedAlignment::from_alignment(&a);
        assert_eq!(c.num_patterns(), 2);
        assert_eq!(c.weights(), &[3, 1]);
        assert_eq!(c.original_sites(), 4);
    }

    #[test]
    fn weights_sum_to_original_width() {
        let a = aln(&[("a", "ACGTACGTAC"), ("b", "ACGTACGTCC")]);
        let c = CompressedAlignment::from_alignment(&a);
        let total: u32 = c.weights().iter().sum();
        assert_eq!(total as usize, a.num_sites());
    }

    #[test]
    fn pattern_order_is_first_appearance() {
        let a = aln(&[("a", "GATG"), ("b", "GATG")]);
        let c = CompressedAlignment::from_alignment(&a);
        assert_eq!(c.num_patterns(), 3);
        assert_eq!(c.row(0)[0].to_char(), 'G');
        assert_eq!(c.row(0)[1].to_char(), 'A');
        assert_eq!(c.row(0)[2].to_char(), 'T');
        assert_eq!(c.representative_site(0), 0);
        assert_eq!(c.representative_site(2), 2);
    }

    #[test]
    fn ambiguity_distinguishes_patterns() {
        // Column {A,N} differs from column {A,A}.
        let a = aln(&[("a", "AA"), ("b", "AN")]);
        let c = CompressedAlignment::from_alignment(&a);
        assert_eq!(c.num_patterns(), 2);
    }

    #[test]
    fn pattern_accessor_matches_rows() {
        let a = aln(&[("a", "ACA"), ("b", "GTG")]);
        let c = CompressedAlignment::from_alignment(&a);
        let p = c.pattern(0);
        assert_eq!(p.weight, 2);
        assert_eq!(p.column.len(), 2);
        assert_eq!(p.column[1].to_char(), 'G');
    }

    #[test]
    fn from_parts_validates() {
        use crate::alphabet::DnaCode;
        let a = DnaCode::from_char('A').unwrap();
        let ok = CompressedAlignment::from_parts(
            vec!["x".into(), "y".into()],
            vec![vec![a, a], vec![a, a]],
            vec![2, 3],
        )
        .unwrap();
        assert_eq!(ok.original_sites(), 5);
        assert_eq!(ok.representative_site(1), 2);

        let ragged = CompressedAlignment::from_parts(
            vec!["x".into(), "y".into()],
            vec![vec![a], vec![a, a]],
            vec![1, 1],
        );
        assert!(ragged.is_err());
        let empty = CompressedAlignment::from_parts(vec![], vec![], vec![]);
        assert!(empty.is_err());
    }

    #[test]
    fn frequencies_respect_weights() {
        let a = aln(&[("a", "AAAG"), ("b", "AAAG")]);
        let c = CompressedAlignment::from_alignment(&a);
        let f = c.empirical_frequencies();
        assert!(f[0] > f[2]);
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }
}
