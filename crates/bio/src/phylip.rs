//! Relaxed sequential PHYLIP reading and writing.
//!
//! RAxML and ExaML consume "relaxed" PHYLIP: a header line with the
//! number of taxa and sites, then one record per taxon where the name is
//! whitespace-delimited (no 10-character limit) and the sequence may
//! continue over following lines until the declared width is reached.

use crate::alignment::Alignment;
use crate::error::BioError;
use crate::reader::{self, Decoder, Record};
use std::io::{BufRead, Write};

/// Parses relaxed sequential PHYLIP text.
pub fn parse<R: BufRead>(reader: R) -> Result<Alignment, BioError> {
    let (text, unreadable) = reader::read_text(reader)?;
    parse_text(&text, unreadable)
}

/// Parses PHYLIP from a string.
pub fn parse_str(s: &str) -> Result<Alignment, BioError> {
    parse_text(s, None)
}

/// The reader behind [`parse`] and [`parse_str`]; `unreadable` is the
/// error that stands where `text` ends (see [`reader::read_text`]).
fn parse_text(text: &str, unreadable: Option<BioError>) -> Result<Alignment, BioError> {
    let mut lines = text.lines().zip(1..);

    // Header: two whitespace-separated integers.
    let (header_line, header) = loop {
        match lines.next() {
            None => {
                return Err(unreadable.unwrap_or_else(|| BioError::Parse {
                    line: 0,
                    msg: "empty PHYLIP input".into(),
                }))
            }
            Some((line, lineno)) if !line.trim().is_empty() => break (lineno, line),
            Some(_) => {}
        }
    };
    let mut it = header.split_whitespace();
    let parse_int = |tok: Option<&str>, what: &str| -> Result<usize, BioError> {
        tok.ok_or_else(|| BioError::Parse {
            line: header_line,
            msg: format!("missing {what} in header"),
        })?
        .parse()
        .map_err(|_| BioError::Parse {
            line: header_line,
            msg: format!("invalid {what} in header"),
        })
    };
    let ntaxa = parse_int(it.next(), "taxon count")?;
    let nsites = parse_int(it.next(), "site count")?;
    if ntaxa == 0 || nsites == 0 {
        return Err(BioError::EmptyAlignment);
    }

    // Nothing is sized from the header beyond what the text can fill:
    // no row holds more characters than the text has bytes, and the
    // taxa are counted as they come.
    let row_capacity = nsites.min(text.len());
    let decoder = Decoder::new();
    let mut sequences = Vec::new();
    let mut current: Option<Record> = None;

    for (line, lineno) in lines {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let record = match current.as_mut() {
            Some(record) => {
                decoder.decode(trimmed, record);
                record
            }
            None => {
                let (name, data) = trimmed
                    .split_once(char::is_whitespace)
                    .unwrap_or((trimmed, ""));
                let record = current.insert(Record::start(name, row_capacity));
                decoder.decode(data, record);
                record
            }
        };
        // The row holds one place per byte of the record's characters.
        let len = record.row.len();
        if len > nsites {
            return Err(BioError::Parse {
                line: lineno,
                msg: format!(
                    "sequence {:?} longer ({len}) than declared width {nsites}",
                    record.name
                ),
            });
        }
        if let Some(record) = current.take_if(|_| len == nsites) {
            sequences.push(record.into_sequence()?);
        }
    }

    if let Some(e) = unreadable {
        return Err(e);
    }
    if let Some(record) = current {
        return Err(BioError::Parse {
            line: 0,
            msg: format!(
                "sequence {:?} truncated: {} of {nsites} characters",
                record.name,
                record.row.len()
            ),
        });
    }
    if sequences.len() != ntaxa {
        return Err(BioError::Parse {
            line: 0,
            msg: format!("expected {ntaxa} taxa, found {}", sequences.len()),
        });
    }
    Alignment::new(sequences)
}

/// Writes an alignment in relaxed sequential PHYLIP format.
pub fn write<W: Write>(aln: &Alignment, mut out: W) -> Result<(), BioError> {
    writeln!(out, "{} {}", aln.num_taxa(), aln.num_sites())?;
    for s in aln.sequences() {
        writeln!(out, "{} {}", s.name(), s.to_iupac_string())?;
    }
    Ok(())
}

/// Renders an alignment to a PHYLIP string.
pub fn to_string(aln: &Alignment) -> String {
    let mut buf = Vec::new();
    write(aln, &mut buf).expect("writing to Vec cannot fail");
    String::from_utf8(buf).expect("PHYLIP output is ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic() {
        let a = parse_str("2 4\nalpha ACGT\nbeta  TGCA\n").unwrap();
        assert_eq!(a.num_taxa(), 2);
        assert_eq!(a.sequence(1).to_iupac_string(), "TGCA");
    }

    #[test]
    fn multiline_records() {
        let a = parse_str("2 8\na ACGT\nACGT\nb TTTT\nAAAA\n").unwrap();
        assert_eq!(a.sequence(0).to_iupac_string(), "ACGTACGT");
        assert_eq!(a.sequence(1).to_iupac_string(), "TTTTAAAA");
    }

    #[test]
    fn spaces_inside_sequence_allowed() {
        let a = parse_str("1 8\na ACGT ACGT\n").unwrap();
        assert_eq!(a.num_sites(), 8);
    }

    #[test]
    fn header_errors() {
        assert!(parse_str("").is_err());
        assert!(parse_str("x y\n").is_err());
        assert!(parse_str("2\n").is_err());
        assert!(parse_str("0 4\n").is_err());
    }

    #[test]
    fn truncated_sequence_rejected() {
        let r = parse_str("2 8\na ACGT\nb ACGTACGT\n");
        assert!(r.is_err());
    }

    #[test]
    fn overlong_sequence_rejected() {
        let r = parse_str("1 4\na ACGTA\n");
        assert!(r.is_err());
    }

    #[test]
    fn wrong_taxon_count_rejected() {
        let r = parse_str("3 4\na ACGT\nb ACGT\n");
        assert!(r.is_err());
    }

    #[test]
    fn roundtrip() {
        let a = parse_str("3 6\nt1 ACGTNN\nt2 AARYKM\nt3 TTTTTT\n").unwrap();
        let b = parse_str(&to_string(&a)).unwrap();
        assert_eq!(a, b);
    }
}
