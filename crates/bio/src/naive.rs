//! The line-based readers and the `HashMap` pattern compression, kept
//! as the oracle of the byte-level reader core and of
//! [`CompressedAlignment::from_alignment`].
//!
//! Each function here is the straightforward form of its production
//! counterpart: `BufRead::lines`, a `String` per record, a
//! `char`-by-`char` decode, a `Vec<u8>` key per column in a SipHash
//! map. Tests and the microbench compare the production code against
//! it on every input they generate — the same `Ok` value, or the same
//! error variant, message and line. Nothing else may call it.
//!
//! One known difference: a PHYLIP header's taxon count sizes an
//! allocation here before any record is read, so a huge count aborts
//! the process; [`crate::phylip::parse`] returns an error instead.

use crate::alignment::Alignment;
use crate::error::BioError;
use crate::patterns::CompressedAlignment;
use crate::sequence::Sequence;
use std::collections::HashMap;
use std::io::BufRead;

/// Relaxed sequential PHYLIP, line by line.
pub mod phylip {
    use super::*;

    /// Parses relaxed sequential PHYLIP text.
    pub fn parse<R: BufRead>(reader: R) -> Result<Alignment, BioError> {
        let mut lines = reader.lines().enumerate();

        // Header: two whitespace-separated integers.
        let (header_line, header) = loop {
            match lines.next() {
                None => {
                    return Err(BioError::Parse {
                        line: 0,
                        msg: "empty PHYLIP input".into(),
                    })
                }
                Some((i, line)) => {
                    let line = line?;
                    if !line.trim().is_empty() {
                        break (i + 1, line);
                    }
                }
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

        let mut sequences = Vec::with_capacity(ntaxa);
        let mut current: Option<(String, String)> = None;

        for (i, line) in lines {
            let lineno = i + 1;
            let line = line?;
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            match current.as_mut() {
                None => {
                    let mut toks = trimmed.splitn(2, char::is_whitespace);
                    let name = toks.next().unwrap().to_string();
                    let data: String = toks
                        .next()
                        .unwrap_or("")
                        .chars()
                        .filter(|c| !c.is_whitespace())
                        .collect();
                    current = Some((name, data));
                }
                Some((_, data)) => {
                    data.extend(trimmed.chars().filter(|c| !c.is_whitespace()));
                }
            }
            if let Some((name, data)) = current.as_ref() {
                if data.len() > nsites {
                    return Err(BioError::Parse {
                        line: lineno,
                        msg: format!(
                            "sequence {name:?} longer ({}) than declared width {nsites}",
                            data.len()
                        ),
                    });
                }
                if data.len() == nsites {
                    let (name, data) = current.take().unwrap();
                    sequences.push(Sequence::from_str_named(name, &data)?);
                }
            }
        }

        if let Some((name, data)) = current {
            return Err(BioError::Parse {
                line: 0,
                msg: format!(
                    "sequence {name:?} truncated: {} of {nsites} characters",
                    data.len()
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

    /// Parses PHYLIP from a string.
    pub fn parse_str(s: &str) -> Result<Alignment, BioError> {
        parse(std::io::Cursor::new(s))
    }
}

/// FASTA, line by line.
pub mod fasta {
    use super::*;

    /// Parses FASTA text into an [`Alignment`].
    pub fn parse<R: BufRead>(reader: R) -> Result<Alignment, BioError> {
        let mut sequences = Vec::new();
        let mut name: Option<String> = None;
        let mut data = String::new();

        let mut flush = |name: &mut Option<String>, data: &mut String, line: usize| {
            if let Some(n) = name.take() {
                if data.is_empty() {
                    return Err(BioError::Parse {
                        line,
                        msg: format!("record {n:?} has no sequence data"),
                    });
                }
                sequences.push(Sequence::from_str_named(n, data)?);
                data.clear();
            }
            Ok(())
        };

        let mut lineno = 0usize;
        for line in reader.lines() {
            lineno += 1;
            let line = line?;
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            if let Some(rest) = trimmed.strip_prefix('>') {
                flush(&mut name, &mut data, lineno)?;
                let n = rest.split_whitespace().next().unwrap_or("").to_string();
                if n.is_empty() {
                    return Err(BioError::Parse {
                        line: lineno,
                        msg: "empty FASTA header".into(),
                    });
                }
                name = Some(n);
            } else {
                if name.is_none() {
                    return Err(BioError::Parse {
                        line: lineno,
                        msg: "sequence data before first header".into(),
                    });
                }
                data.push_str(trimmed);
            }
        }
        flush(&mut name, &mut data, lineno)?;
        Alignment::new(sequences)
    }

    /// Parses FASTA from a string.
    pub fn parse_str(s: &str) -> Result<Alignment, BioError> {
        parse(std::io::Cursor::new(s))
    }
}

/// Compresses an alignment into unique weighted patterns, one
/// `Vec<u8>` key per column in a `HashMap`.
pub fn compress(aln: &Alignment) -> CompressedAlignment {
    let n = aln.num_taxa();
    let m = aln.num_sites();
    let mut index: HashMap<Vec<u8>, usize> = HashMap::new();
    let mut rows: Vec<Vec<crate::DnaCode>> = vec![Vec::new(); n];
    let mut weights: Vec<u32> = Vec::new();
    let mut representative_site = Vec::new();

    let mut key = Vec::with_capacity(n);
    for site in 0..m {
        key.clear();
        for t in 0..n {
            key.push(aln.sequence(t).get(site).bits());
        }
        match index.get(&key) {
            Some(&p) => weights[p] += 1,
            None => {
                let p = weights.len();
                index.insert(key.clone(), p);
                weights.push(1);
                representative_site.push(site);
                for t in 0..n {
                    rows[t].push(aln.sequence(t).get(site));
                }
                debug_assert_eq!(rows[0].len(), p + 1);
            }
        }
    }

    CompressedAlignment {
        names: aln.names().map(str::to_string).collect(),
        rows,
        weights,
        original_sites: m,
        representative_site,
    }
}
