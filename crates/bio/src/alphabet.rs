//! 4-bit DNA alphabet with IUPAC ambiguity codes.
//!
//! Each nucleotide character is a bitmask over the four states in RAxML
//! order `A=0b0001, C=0b0010, G=0b0100, T=0b1000`. An ambiguity code is
//! the union of the bits of its compatible states; the fully
//! undetermined characters (`N`, `?`, `-`, `X`, `O`) map to `0b1111`.
//! Code `0` is never produced by parsing and is rejected everywhere.

use crate::error::BioError;

/// Number of unambiguous DNA states.
pub const NUM_STATES: usize = 4;

/// Number of distinct 4-bit codes (`1..=15` are valid; `0` is invalid).
pub const NUM_DNA_CODES: usize = 16;

/// A 4-bit encoded DNA character (possibly ambiguous).
///
/// The wrapped value is always in `1..=15`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DnaCode(u8);

/// The four unambiguous states, indexable by state number 0..4.
pub const UNAMBIGUOUS: [DnaCode; NUM_STATES] = [
    DnaCode(0b0001), // A
    DnaCode(0b0010), // C
    DnaCode(0b0100), // G
    DnaCode(0b1000), // T
];

/// The fully undetermined character (gap / `N`).
pub const GAP: DnaCode = DnaCode(0b1111);

impl DnaCode {
    /// Creates a code from a raw 4-bit mask.
    ///
    /// Returns an error when the mask is `0` (no compatible state) or
    /// exceeds 4 bits.
    pub fn from_bits(bits: u8) -> Result<Self, BioError> {
        if bits == 0 || bits > 0b1111 {
            Err(BioError::InvalidCode(bits))
        } else {
            Ok(DnaCode(bits))
        }
    }

    /// Creates the unambiguous code for state index `state` (0=A, 1=C,
    /// 2=G, 3=T).
    ///
    /// # Panics
    /// Panics when `state >= 4`.
    pub fn from_state(state: usize) -> Self {
        UNAMBIGUOUS[state]
    }

    /// Parses an ASCII IUPAC nucleotide character (case-insensitive).
    pub fn from_char(c: char) -> Result<Self, BioError> {
        let bits = match c.to_ascii_uppercase() {
            'A' => 0b0001,
            'C' => 0b0010,
            'G' => 0b0100,
            'T' | 'U' => 0b1000,
            'M' => 0b0011, // A|C
            'R' => 0b0101, // A|G
            'W' => 0b1001, // A|T
            'S' => 0b0110, // C|G
            'Y' => 0b1010, // C|T
            'K' => 0b1100, // G|T
            'V' => 0b0111, // A|C|G
            'H' => 0b1011, // A|C|T
            'D' => 0b1101, // A|G|T
            'B' => 0b1110, // C|G|T
            'N' | '?' | '-' | 'X' | 'O' | '.' => 0b1111,
            other => return Err(BioError::InvalidChar(other)),
        };
        Ok(DnaCode(bits))
    }

    /// The canonical IUPAC character for this code.
    pub fn to_char(self) -> char {
        const CHARS: [char; 16] = [
            '!', 'A', 'C', 'M', 'G', 'R', 'S', 'V', 'T', 'W', 'Y', 'H', 'K', 'D', 'B', 'N',
        ];
        CHARS[self.0 as usize]
    }

    /// Raw 4-bit mask, guaranteed in `1..=15`.
    #[inline]
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Whether the code identifies exactly one state.
    #[inline]
    pub fn is_unambiguous(self) -> bool {
        self.0.count_ones() == 1
    }

    /// State index for an unambiguous code, `None` otherwise.
    #[inline]
    pub fn state(self) -> Option<usize> {
        if self.is_unambiguous() {
            Some(self.0.trailing_zeros() as usize)
        } else {
            None
        }
    }

    /// Whether state index `s` is compatible with this code.
    #[inline]
    pub fn allows(self, s: usize) -> bool {
        debug_assert!(s < NUM_STATES);
        self.0 & (1 << s) != 0
    }

    /// Iterator over the state indices compatible with this code.
    pub fn states(self) -> impl Iterator<Item = usize> {
        let bits = self.0;
        (0..NUM_STATES).filter(move |&s| bits & (1 << s) != 0)
    }

    /// All 15 valid codes, in mask order.
    pub fn all() -> impl Iterator<Item = DnaCode> {
        (1u8..=15).map(DnaCode)
    }
}

impl std::fmt::Debug for DnaCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DnaCode({})", self.to_char())
    }
}

impl std::fmt::Display for DnaCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unambiguous_roundtrip() {
        for (i, c) in ['A', 'C', 'G', 'T'].iter().enumerate() {
            let code = DnaCode::from_char(*c).unwrap();
            assert!(code.is_unambiguous());
            assert_eq!(code.state(), Some(i));
            assert_eq!(code.to_char(), *c);
            assert_eq!(DnaCode::from_state(i), code);
        }
    }

    #[test]
    fn ambiguity_masks_are_unions() {
        let r = DnaCode::from_char('R').unwrap();
        assert_eq!(r.bits(), 0b0101);
        assert!(r.allows(0) && r.allows(2));
        assert!(!r.allows(1) && !r.allows(3));
        assert_eq!(r.states().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn gap_aliases() {
        for c in ['N', '?', '-', 'X', 'o', 'n', '.'] {
            assert_eq!(DnaCode::from_char(c).unwrap(), GAP, "char {c}");
        }
        assert_eq!(GAP.to_char(), 'N');
    }

    #[test]
    fn lowercase_accepted() {
        assert_eq!(
            DnaCode::from_char('g').unwrap(),
            DnaCode::from_char('G').unwrap()
        );
    }

    #[test]
    fn uracil_maps_to_t() {
        assert_eq!(
            DnaCode::from_char('U').unwrap(),
            DnaCode::from_char('T').unwrap()
        );
    }

    #[test]
    fn invalid_char_rejected() {
        assert!(matches!(
            DnaCode::from_char('Z'),
            Err(BioError::InvalidChar('Z'))
        ));
        assert!(DnaCode::from_char('1').is_err());
    }

    #[test]
    fn zero_mask_rejected() {
        assert!(DnaCode::from_bits(0).is_err());
        assert!(DnaCode::from_bits(16).is_err());
        assert!(DnaCode::from_bits(0b1111).is_ok());
    }

    #[test]
    fn all_codes_roundtrip_via_char() {
        for code in DnaCode::all() {
            let back = DnaCode::from_char(code.to_char()).unwrap();
            assert_eq!(code, back);
        }
    }

    #[test]
    fn all_yields_fifteen() {
        assert_eq!(DnaCode::all().count(), 15);
    }
}
