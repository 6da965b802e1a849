//! The reader core under [`crate::phylip`] and [`crate::fasta`].
//!
//! Both formats are lines of whitespace-separated names and sequence
//! characters. Both walk the caller's text once with `str::lines`, as
//! `&str` slices (no `String` per line or per record), which numbers
//! lines as `BufRead::lines` does: a final line without `\n` counts, an
//! empty one after the last `\n` does not. [`Decoder`] writes sequence
//! characters through a 256-entry byte table straight into the
//! record's row of [`DnaCode`]s.
//!
//! A line that is not all codes is decoded again by `char`. Whitespace
//! there is what `char::is_whitespace` says it is, as in the rest of
//! the crate: `\x0B` (which `u8::is_ascii_whitespace` leaves out),
//! U+0085, U+00A0, … are skipped, and any other character that is no
//! code is rejected with the error `DnaCode::from_char` gives it.

use crate::alphabet::{DnaCode, GAP};
use crate::error::BioError;
use crate::sequence::Sequence;
use std::io::BufRead;

/// Decodes sequence characters through a byte table built from
/// [`DnaCode::from_char`], so the alphabet stays defined in one place.
pub(crate) struct Decoder {
    /// The byte's code, or a gap where the byte is no code.
    codes: [DnaCode; 256],
    is_code: [bool; 256],
}

impl Decoder {
    pub(crate) fn new() -> Self {
        let mut codes = [GAP; 256];
        let mut is_code = [false; 256];
        for b in 0..0x80u8 {
            if let Ok(code) = DnaCode::from_char(char::from(b)) {
                codes[usize::from(b)] = code;
                is_code[usize::from(b)] = true;
            }
        }
        Decoder { codes, is_code }
    }

    /// Appends the sequence characters of `s` to `record`, skipping
    /// whitespace.
    ///
    /// A character that is no nucleotide code still takes its UTF-8
    /// length in places (as a gap), so `record.row.len()` counts what a
    /// `String` of the record's characters would hold in bytes; the
    /// error [`DnaCode::from_char`] gives the first such character is
    /// kept for [`Record::into_sequence`].
    pub(crate) fn decode(&self, s: &str, record: &mut Record) {
        // Sequence lines are mostly nothing but codes: copy them through
        // `codes` in one branch-free pass and check afterwards, else
        // start over by `char` (a `match` in that pass made it 1.6x
        // slower).
        let before = record.row.len();
        let mut plain = true;
        record.row.extend(s.bytes().map(|b| {
            plain &= self.is_code[usize::from(b)];
            self.codes[usize::from(b)]
        }));
        if !plain {
            record.row.truncate(before);
            decode_chars(s, record);
        }
    }
}

/// [`Decoder::decode`] by `char`, for a line that is not all codes.
fn decode_chars(s: &str, record: &mut Record) {
    for c in s.chars() {
        if c.is_whitespace() {
            continue;
        }
        match DnaCode::from_char(c) {
            Ok(code) => record.row.push(code),
            Err(e) => {
                record.bad.get_or_insert(e);
                record.row.extend(std::iter::repeat_n(GAP, c.len_utf8()));
            }
        }
    }
}

/// One sequence record being read: its name, its row so far, and the
/// decode error of the first character in it that is no nucleotide
/// code.
pub(crate) struct Record {
    pub(crate) name: String,
    pub(crate) row: Vec<DnaCode>,
    bad: Option<BioError>,
}

impl Record {
    pub(crate) fn start(name: &str, capacity: usize) -> Self {
        Record {
            name: name.to_string(),
            row: Vec::with_capacity(capacity),
            bad: None,
        }
    }

    /// The finished sequence, or the first character's decode error.
    pub(crate) fn into_sequence(self) -> Result<Sequence, BioError> {
        match self.bad {
            Some(e) => Err(e),
            None => Ok(Sequence::new(self.name, self.row)),
        }
    }
}

/// Reads `reader` to its end as `BufRead::lines` would see it: the text
/// before the first line that is not UTF-8, and the error `lines`
/// raises on that line (`None` when every line is UTF-8). A format
/// reader returns that error where its lines run out, so anything it
/// finds wrong earlier in the text is reported first.
pub(crate) fn read_text<R: BufRead>(mut reader: R) -> Result<(String, Option<BioError>), BioError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    match String::from_utf8(bytes) {
        Ok(text) => Ok((text, None)),
        Err(e) => {
            let valid = &e.as_bytes()[..e.utf8_error().valid_up_to()];
            let cut = valid.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
            let text = String::from_utf8_lossy(&valid[..cut]).into_owned();
            let unreadable = BioError::Io("stream did not contain valid UTF-8".into());
            Ok((text, Some(unreadable)))
        }
    }
}
