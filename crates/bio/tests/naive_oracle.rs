//! The byte-level readers and the packed-key compression against
//! `phylo_bio::naive`, the line-based readers and the `HashMap`
//! compression they replaced.
//!
//! Parsers: valid PHYLIP and FASTA texts, mutated (byte flips,
//! truncation, inserted CR / tab / VT / NUL / non-ASCII whitespace and
//! other multi-byte characters, deleted and doubled lines, header
//! counts ±1), must give the same `Ok` alignment or the same error —
//! variant, message and line — through `parse_str` and through
//! `parse` on the raw bytes, and neither side may panic. Huge header
//! counts go to a table on the new reader alone: `naive` sizes an
//! allocation from the taxon count and aborts.
//!
//! Compression: random alignments of 1–40 taxa (across the 16- and
//! 32-taxon key-word boundaries), all 15 codes, heavy column
//! duplication, must compress to the same rows, weights,
//! representative sites and pattern order.

use phylo_bio::alphabet::DnaCode;
use phylo_bio::{fasta, naive, phylip, Alignment, CompressedAlignment, Sequence};
use proptest::prelude::*;

/// xorshift64*: the test's own stream, seeded per case.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// Every character `DnaCode::from_char` accepts, both cases.
const SEQ_CHARS: &[u8] = b"ACGTUMRWSYKVHDBN?-XO.acgtumrwsykvhdbnxo";

/// Whitespace and near-whitespace the readers must treat as the
/// `char`-based code does.
const INSERTS: &[&str] = &[
    "\r",
    "\t",
    "\x0B",
    "\x0C",
    "\0",
    " ",
    "\n",
    "\r\n",
    "\u{A0}",
    "\u{85}",
    "\u{2003}",
    "\u{3000}",
    "\u{1680}",
    "é",
    "\u{1F9EC}",
    ">",
    "Z",
    "1",
    "A",
    "-",
];

fn sequence_text(rng: &mut Rng, len: usize) -> String {
    (0..len).map(|_| char::from(*rng.pick(SEQ_CHARS))).collect()
}

/// A valid relaxed PHYLIP text, records split over lines at random.
fn phylip_text(rng: &mut Rng) -> String {
    let (ntaxa, nsites) = (1 + rng.below(5), 1 + rng.below(14));
    let mut s = format!(
        "{}{ntaxa} {nsites}\n",
        if rng.below(4) == 0 { "\n" } else { "" }
    );
    for t in 0..ntaxa {
        let seq = sequence_text(rng, nsites);
        let cut = rng.below(nsites + 1);
        s.push_str(&format!("t{t} {}\n", &seq[..cut]));
        if cut < nsites {
            s.push_str(&format!("{}\n", &seq[cut..]));
        }
        if rng.below(5) == 0 {
            s.push('\n');
        }
    }
    s
}

/// A valid FASTA text with wrapped sequence lines.
fn fasta_text(rng: &mut Rng) -> String {
    let (ntaxa, nsites) = (1 + rng.below(5), 1 + rng.below(14));
    let mut s = String::new();
    for t in 0..ntaxa {
        s.push_str(&format!(
            ">t{t}{}\n",
            if rng.below(3) == 0 { " desc" } else { "" }
        ));
        let seq = sequence_text(rng, nsites);
        let wrap = 1 + rng.below(nsites);
        for chunk in seq.as_bytes().chunks(wrap) {
            s.push_str(std::str::from_utf8(chunk).unwrap());
            s.push('\n');
        }
    }
    s
}

/// Changes the leading count of line 1 (PHYLIP) by ±1.
fn nudge_header(text: &str, rng: &mut Rng) -> Vec<u8> {
    let (head, rest) = text.split_once('\n').unwrap_or((text, ""));
    let mut toks: Vec<String> = head.split(' ').map(str::to_string).collect();
    let i = rng.below(toks.len());
    if let Ok(v) = toks[i].parse::<i64>() {
        toks[i] = (v + if rng.below(2) == 0 { 1 } else { -1 }).to_string();
    }
    format!("{}\n{rest}", toks.join(" ")).into_bytes()
}

/// One to three mutations of `text`.
fn mutate(text: &str, rng: &mut Rng) -> Vec<u8> {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(bytes.len() + 1);
        match rng.below(6) {
            0 if at < bytes.len() => bytes[at] ^= 1 << rng.below(8),
            1 => bytes.truncate(at),
            2 | 3 => {
                let insert = rng.pick(INSERTS).as_bytes();
                bytes.splice(at..at, insert.iter().copied());
            }
            4 => {
                let lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
                let i = rng.below(lines.len());
                let mut out: Vec<&[u8]> = lines.clone();
                if rng.below(2) == 0 {
                    out.remove(i);
                } else {
                    out.insert(i, lines[i]);
                }
                bytes = out.join(&b'\n');
            }
            _ => {
                if let Ok(s) = std::str::from_utf8(&bytes) {
                    bytes = nudge_header(s, rng);
                }
            }
        }
    }
    bytes
}

/// Both formats' readers agree with `naive` on `bytes`, through
/// `parse_str` (when the bytes are UTF-8) and through `parse` (each
/// format's mutants are also hostile input to the other reader).
fn assert_readers_agree(bytes: &[u8]) {
    if let Ok(text) = std::str::from_utf8(bytes) {
        let (new, old) = (phylip::parse_str(text), naive::phylip::parse_str(text));
        assert_eq!(new, old, "phylip parse_str on {text:?}");
        let (new, old) = (fasta::parse_str(text), naive::fasta::parse_str(text));
        assert_eq!(new, old, "fasta parse_str on {text:?}");
    }
    let (new, old) = (phylip::parse(bytes), naive::phylip::parse(bytes));
    assert_eq!(new, old, "phylip parse on {bytes:?}");
    let (new, old) = (fasta::parse(bytes), naive::fasta::parse(bytes));
    assert_eq!(new, old, "fasta parse on {bytes:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn mutated_phylip_reads_as_naive_reads_it(seed in 0u64..u64::MAX) {
        let mut rng = Rng::new(seed);
        let text = phylip_text(&mut rng);
        assert_readers_agree(text.as_bytes());
        assert_readers_agree(&mutate(&text, &mut rng));
    }

    #[test]
    fn mutated_fasta_reads_as_naive_reads_it(seed in 0u64..u64::MAX) {
        let mut rng = Rng::new(seed);
        let text = fasta_text(&mut rng);
        assert_readers_agree(text.as_bytes());
        assert_readers_agree(&mutate(&text, &mut rng));
    }
}

#[test]
fn pinned_parity_cases() {
    for text in [
        "",
        "\n\n",
        "1 4\na AC\u{A0}GT\n",
        "1 3\na ACé\n",
        "1 4\na ACé\n",
        "1 4\na AZ\nCGTA\n",
        "1 4\n\u{A0}a\u{A0}ACGT\n",
        "1 4\na\x0BACGT\n",
        "2 2\na AC\na GT\n",
        "1 2\na A\0\n",
        ">a\nAC\u{85}GT\n>b\nACGT",
        ">a\nA\x0BZ\n>\n",
        ">a\n>b\nAC\n",
        "AC\n>a\nAC\n",
        ">a\r\nAC\r\n>b\r\nA\r\n",
        "+2 +3\na ACG\nb ACG\n",
    ] {
        assert_readers_agree(text.as_bytes());
    }
    for bytes in [
        &b"1 4\na AC\xffGT\n"[..],
        b"1 4\na ACGT\n\xc3",
        b"2 4\na AZGT\n\xc3\nb ACGT\n",
        b">a\nACGT\n\xe2\x80\n",
        b"\xc3\n1 1\na A\n",
    ] {
        assert_readers_agree(bytes);
    }
}

/// Header numbers no input could fill: the new reader answers with a
/// structured error and allocates nothing from the header.
#[test]
fn huge_header_counts_are_errors_not_allocations() {
    let cases: &[(&str, &str)] = &[
        (
            "99999999999999 4\na ACGT\n",
            "parse error at line 0: expected 99999999999999 taxa, found 1",
        ),
        (
            "2 99999999999999\na ACGT\n",
            "parse error at line 0: sequence \"a\" truncated: 4 of 99999999999999 characters",
        ),
        (
            "18446744073709551615 18446744073709551615\na A\n",
            "parse error at line 0: sequence \"a\" truncated: 1 of 18446744073709551615 characters",
        ),
        (
            "18446744073709551616 4\na ACGT\n",
            "parse error at line 1: invalid taxon count in header",
        ),
        ("4 0\n", "alignment has no taxa or no sites"),
    ];
    for (text, want) in cases {
        let got = phylip::parse_str(text).expect_err(text);
        assert_eq!(got.to_string(), *want, "{text:?}");
        assert_eq!(
            phylip::parse(text.as_bytes()).expect_err(text).to_string(),
            *want
        );
    }
}

/// An alignment of `ntaxa` × `nsites` drawn from a pool of a few
/// columns, with some fresh ones mixed in.
fn duplicated_alignment(rng: &mut Rng, ntaxa: usize, nsites: usize) -> Alignment {
    let codes: Vec<DnaCode> = DnaCode::all().collect();
    let column = |rng: &mut Rng| -> Vec<DnaCode> {
        // Mostly-constant columns with a few variants, as low
        // divergence makes them, or anything at all.
        let base = *rng.pick(&codes);
        let noise = rng.below(3) == 0;
        (0..ntaxa)
            .map(|_| {
                if noise || rng.below(8) == 0 {
                    *rng.pick(&codes)
                } else {
                    base
                }
            })
            .collect()
    };
    let pool: Vec<Vec<DnaCode>> = (0..1 + rng.below(6)).map(|_| column(rng)).collect();
    let columns: Vec<Vec<DnaCode>> = (0..nsites)
        .map(|_| {
            if rng.below(5) == 0 {
                column(rng)
            } else {
                rng.pick(&pool).clone()
            }
        })
        .collect();
    let rows = (0..ntaxa)
        .map(|t| Sequence::new(format!("t{t}"), columns.iter().map(|c| c[t]).collect()))
        .collect();
    Alignment::new(rows).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    fn packed_keys_compress_as_the_hashmap_does(
        seed in 0u64..u64::MAX,
        ntaxa in 1usize..=40,
        nsites in 1usize..1200,
    ) {
        let aln = duplicated_alignment(&mut Rng::new(seed), ntaxa, nsites);
        let new = CompressedAlignment::from_alignment(&aln);
        prop_assert_eq!(&new, &naive::compress(&aln));
        prop_assert_eq!(new.weights().iter().map(|&w| w as usize).sum::<usize>(), nsites);
    }
}

#[test]
fn compression_at_the_key_word_boundaries() {
    let mut rng = Rng::new(17);
    for ntaxa in [1, 15, 16, 17, 31, 32, 33, 40] {
        // Past one key block, so a pattern first seen in a later block
        // keeps its place.
        for nsites in [1, 511, 512, 513, 2100] {
            let aln = duplicated_alignment(&mut rng, ntaxa, nsites);
            assert_eq!(
                CompressedAlignment::from_alignment(&aln),
                naive::compress(&aln),
                "{ntaxa} x {nsites}"
            );
        }
    }
}
