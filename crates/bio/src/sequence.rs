//! A named, 4-bit encoded DNA sequence.

use crate::alphabet::DnaCode;
use crate::error::BioError;

/// A named DNA sequence stored as 4-bit codes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sequence {
    name: String,
    codes: Vec<DnaCode>,
}

impl Sequence {
    /// Creates a sequence from pre-encoded codes.
    pub fn new(name: impl Into<String>, codes: Vec<DnaCode>) -> Self {
        Sequence {
            name: name.into(),
            codes,
        }
    }

    /// Parses a sequence from an ASCII string of IUPAC characters.
    /// Whitespace inside the string is ignored (PHYLIP interleaving).
    pub fn from_str_named(name: impl Into<String>, s: &str) -> Result<Self, BioError> {
        let mut codes = Vec::with_capacity(s.len());
        for c in s.chars() {
            if c.is_whitespace() {
                continue;
            }
            codes.push(DnaCode::from_char(c)?);
        }
        Ok(Sequence {
            name: name.into(),
            codes,
        })
    }

    /// Taxon name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of characters.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The encoded characters.
    pub fn codes(&self) -> &[DnaCode] {
        &self.codes
    }

    /// Character at position `i`.
    pub fn get(&self, i: usize) -> DnaCode {
        self.codes[i]
    }

    /// Renders the sequence as an IUPAC character string.
    pub fn to_iupac_string(&self) -> String {
        self.codes.iter().map(|c| c.to_char()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_render_roundtrip() {
        let s = Sequence::from_str_named("t1", "ACGTNRY").unwrap();
        assert_eq!(s.len(), 7);
        assert_eq!(s.to_iupac_string(), "ACGTNRY");
        assert_eq!(s.name(), "t1");
    }

    #[test]
    fn whitespace_ignored() {
        let s = Sequence::from_str_named("t", "AC GT\tAC\nGT").unwrap();
        assert_eq!(s.to_iupac_string(), "ACGTACGT");
    }

    #[test]
    fn invalid_char_propagates() {
        assert!(Sequence::from_str_named("t", "ACZ").is_err());
    }

    #[test]
    fn empty_sequence() {
        let s = Sequence::from_str_named("t", "").unwrap();
        assert!(s.is_empty());
    }
}
