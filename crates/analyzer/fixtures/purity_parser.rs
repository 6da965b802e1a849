// Parser-tier purity fixture: analyzed under the synthetic path
// `crates/bio/src/phylip.rs` so `parse` and `parse_str` root the parser
// tier. The tier checks panics only: the `unwrap()` planted in the
// reader's decode helper must be reported, the row's allocations must
// not.

pub fn parse_str(s: &str) -> Result<Vec<u8>, String> {
    parse_text(s)
}

pub fn parse(bytes: &[u8]) -> Result<Vec<u8>, String> {
    parse_text(std::str::from_utf8(bytes).map_err(|e| e.to_string())?)
}

fn parse_text(s: &str) -> Result<Vec<u8>, String> {
    let mut row = Vec::new();
    for line in s.lines() {
        row.push(decode_first(line));
    }
    Ok(row)
}

fn decode_first(line: &str) -> u8 {
    *line.as_bytes().first().unwrap() // seeded: panics on a blank line
}
