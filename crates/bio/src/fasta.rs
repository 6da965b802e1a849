//! FASTA reading and writing.

use crate::alignment::Alignment;
use crate::error::BioError;
use crate::reader::{self, Decoder, Record};
use crate::sequence::Sequence;
use std::io::{BufRead, Write};

/// Parses FASTA text into an [`Alignment`].
///
/// Header lines start with `>`; the taxon name is the first whitespace
/// separated token after it. Sequence data may span multiple lines.
pub fn parse<R: BufRead>(reader: R) -> Result<Alignment, BioError> {
    let (text, unreadable) = reader::read_text(reader)?;
    parse_text(&text, unreadable)
}

/// Parses FASTA from a string.
pub fn parse_str(s: &str) -> Result<Alignment, BioError> {
    parse_text(s, None)
}

/// The reader behind [`parse`] and [`parse_str`]; `unreadable` is the
/// error that stands where `text` ends (see [`reader::read_text`]).
fn parse_text(text: &str, unreadable: Option<BioError>) -> Result<Alignment, BioError> {
    let decoder = Decoder::new();
    let mut sequences = Vec::new();
    let mut current: Option<Record> = None;
    let mut last_line = 0;
    for (line, lineno) in text.lines().zip(1..) {
        last_line = lineno;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix('>') {
            end_record(current.take(), &mut sequences, lineno)?;
            let name = rest.split_whitespace().next().unwrap_or("");
            if name.is_empty() {
                return Err(BioError::Parse {
                    line: lineno,
                    msg: "empty FASTA header".into(),
                });
            }
            current = Some(Record::start(name, 0));
        } else {
            let Some(record) = current.as_mut() else {
                return Err(BioError::Parse {
                    line: lineno,
                    msg: "sequence data before first header".into(),
                });
            };
            decoder.decode(trimmed, record);
        }
    }
    if let Some(e) = unreadable {
        return Err(e);
    }
    end_record(current, &mut sequences, last_line)?;
    Alignment::new(sequences)
}

/// Ends `record` (if any) at the header or end of input on `line`.
fn end_record(
    record: Option<Record>,
    sequences: &mut Vec<Sequence>,
    line: usize,
) -> Result<(), BioError> {
    if let Some(record) = record {
        // A data line is never blank, so it leaves at least one place.
        if record.row.is_empty() {
            return Err(BioError::Parse {
                line,
                msg: format!("record {:?} has no sequence data", record.name),
            });
        }
        sequences.push(record.into_sequence()?);
    }
    Ok(())
}

/// Writes an alignment as FASTA, wrapping sequence lines at `width`
/// characters (a `width` of 0 means no wrapping).
pub fn write<W: Write>(aln: &Alignment, mut out: W, width: usize) -> Result<(), BioError> {
    for s in aln.sequences() {
        writeln!(out, ">{}", s.name())?;
        let rendered = s.to_iupac_string();
        if width == 0 {
            writeln!(out, "{rendered}")?;
        } else {
            for chunk in rendered.as_bytes().chunks(width) {
                out.write_all(chunk)?;
                out.write_all(b"\n")?;
            }
        }
    }
    Ok(())
}

/// Renders an alignment to a FASTA string with 70-column wrapping.
pub fn to_string(aln: &Alignment) -> String {
    let mut buf = Vec::new();
    write(aln, &mut buf, 70).expect("writing to Vec cannot fail");
    String::from_utf8(buf).expect("FASTA output is ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic() {
        let a = parse_str(">a\nACGT\n>b\nAC\nGT\n").unwrap();
        assert_eq!(a.num_taxa(), 2);
        assert_eq!(a.sequence(1).to_iupac_string(), "ACGT");
    }

    #[test]
    fn header_takes_first_token() {
        let a = parse_str(">taxon_1 some description here\nACGT\n>b\nACGT\n").unwrap();
        assert_eq!(a.names().next().unwrap(), "taxon_1");
    }

    #[test]
    fn blank_lines_ignored() {
        let a = parse_str("\n>a\n\nAC\nGT\n\n>b\nACGT\n").unwrap();
        assert_eq!(a.num_sites(), 4);
    }

    #[test]
    fn data_before_header_rejected() {
        assert!(matches!(
            parse_str("ACGT\n>a\nACGT\n"),
            Err(BioError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn empty_record_rejected() {
        assert!(parse_str(">a\n>b\nACGT\n").is_err());
        assert!(parse_str(">a\nACGT\n>b\n").is_err());
    }

    #[test]
    fn empty_header_rejected() {
        assert!(parse_str(">\nACGT\n").is_err());
    }

    #[test]
    fn roundtrip() {
        let a = parse_str(">a\nACGTRYKM\n>b\nNNNNACGT\n").unwrap();
        let text = to_string(&a);
        let b = parse_str(&text).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn wrapping_at_width() {
        let a = parse_str(">a\nACGTACGT\n>b\nACGTACGT\n").unwrap();
        let mut buf = Vec::new();
        write(&a, &mut buf, 4).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("ACGT\nACGT"));
        let b = parse_str(&text).unwrap();
        assert_eq!(a, b);
    }
}
