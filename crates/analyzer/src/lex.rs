//! The Rust lexer underlying every analyzer pass.
//!
//! Produces a flat token stream with 1-based line numbers plus a
//! per-line comment map. This subsumes the per-line code/comment
//! split of `xtask::scan` (whose behavior is pinned by parity tests)
//! with real tokens: identifiers and keywords, lifetimes, string and
//! char literals in every flavor (`"…"`, `r#"…"#`, `b"…"`, `br#"…"#`,
//! `'c'`, `b'c'`), numeric literals with their text (so rules can
//! recognize float literals), and single-character punctuation.
//!
//! The lexer never fails: unexpected bytes become punctuation tokens
//! and an unterminated literal simply runs to end of file. Rules must
//! degrade to *noisy*, never to *silent*, on malformed input.

/// A delimiter kind for grouped tokens.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Delim {
    /// `( … )`
    Paren,
    /// `[ … ]`
    Bracket,
    /// `{ … }`
    Brace,
}

/// One lexed token.
#[derive(Clone, Debug, PartialEq)]
pub enum Tok {
    /// Identifier or keyword (`fn`, `unsafe`, `newview_ii`, …).
    Ident(String),
    /// Lifetime (`'a`), without the quote.
    Lifetime(String),
    /// String/char/byte literal of any flavor, carrying the raw
    /// contents (without quotes/prefix; escapes unprocessed). Rules
    /// must never pattern-match inside literal text — the contents
    /// exist only so attribute arguments (`cfg(feature = "x")`,
    /// `target_feature(enable = "fma")`) can be read.
    Literal(String),
    /// Numeric literal, original text kept (float detection).
    Num(String),
    /// A single punctuation character (`.`, `:`, `=`, `!`, …).
    Punct(char),
    /// Opening delimiter.
    Open(Delim),
    /// Closing delimiter.
    Close(Delim),
}

/// A token with its 1-based source line.
#[derive(Clone, Debug, PartialEq)]
pub struct Token {
    pub tok: Tok,
    pub line: u32,
}

/// The lexed form of one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All tokens in source order.
    pub tokens: Vec<Token>,
    /// Comment text per 1-based line (line comments and the portion
    /// of any block comment crossing that line). Lines without
    /// comments are absent.
    pub comments: std::collections::BTreeMap<u32, String>,
}

impl Lexed {
    /// Whether `line` (or any of the `window` lines above it) carries
    /// a comment containing `needle`.
    pub fn comment_near(&self, line: u32, window: u32, needle: &str) -> bool {
        let lo = line.saturating_sub(window);
        self.comments
            .range(lo..=line)
            .any(|(_, text)| text.contains(needle))
    }
}

struct Lexer<'a> {
    src: &'a [u8],
    i: usize,
    line: u32,
    out: Lexed,
}

/// Lexes one Rust source file.
pub fn lex(src: &str) -> Lexed {
    let mut lx = Lexer {
        src: src.as_bytes(),
        i: 0,
        line: 1,
        out: Lexed::default(),
    };
    lx.run();
    lx.out
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_cont(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

impl Lexer<'_> {
    fn peek(&self, ahead: usize) -> u8 {
        *self.src.get(self.i + ahead).unwrap_or(&0)
    }

    fn push(&mut self, tok: Tok) {
        self.out.tokens.push(Token {
            tok,
            line: self.line,
        });
    }

    fn comment_push(&mut self, c: char) {
        self.out.comments.entry(self.line).or_default().push(c);
    }

    fn bump_line(&mut self) {
        self.line += 1;
    }

    fn run(&mut self) {
        while self.i < self.src.len() {
            let b = self.src[self.i];
            match b {
                b'\n' => {
                    self.bump_line();
                    self.i += 1;
                }
                _ if b.is_ascii_whitespace() => self.i += 1,
                b'/' if self.peek(1) == b'/' => self.line_comment(),
                b'/' if self.peek(1) == b'*' => self.block_comment(),
                b'"' => self.string(),
                b'b' if self.peek(1) == b'"' => {
                    self.i += 1;
                    self.string();
                }
                b'r' | b'b' if self.raw_string_hashes().is_some() => {
                    // `r"`, `r#"`, `br#"` … — but NOT `r#ident` (a raw
                    // identifier), which raw_string_hashes rejects.
                    let hashes = self.raw_string_hashes().unwrap_or(0);
                    self.raw_string(hashes);
                }
                b'\'' => self.char_or_lifetime(),
                b'b' if self.peek(1) == b'\'' => {
                    self.i += 1;
                    self.char_or_lifetime();
                }
                _ if b.is_ascii_digit() => self.number(),
                _ if is_ident_start(b) => self.ident(),
                b'(' => self.delim(Tok::Open(Delim::Paren)),
                b')' => self.delim(Tok::Close(Delim::Paren)),
                b'[' => self.delim(Tok::Open(Delim::Bracket)),
                b']' => self.delim(Tok::Close(Delim::Bracket)),
                b'{' => self.delim(Tok::Open(Delim::Brace)),
                b'}' => self.delim(Tok::Close(Delim::Brace)),
                _ => {
                    self.push(Tok::Punct(b as char));
                    self.i += 1;
                }
            }
        }
    }

    fn delim(&mut self, tok: Tok) {
        self.push(tok);
        self.i += 1;
    }

    fn line_comment(&mut self) {
        self.i += 2;
        while self.i < self.src.len() && self.src[self.i] != b'\n' {
            self.comment_push(self.src[self.i] as char);
            self.i += 1;
        }
    }

    fn block_comment(&mut self) {
        self.i += 2;
        let mut depth = 1u32;
        while self.i < self.src.len() && depth > 0 {
            let b = self.src[self.i];
            if b == b'/' && self.peek(1) == b'*' {
                depth += 1;
                self.i += 2;
            } else if b == b'*' && self.peek(1) == b'/' {
                depth -= 1;
                self.i += 2;
            } else {
                if b == b'\n' {
                    self.bump_line();
                } else {
                    self.comment_push(b as char);
                }
                self.i += 1;
            }
        }
    }

    fn string(&mut self) {
        // self.i at the opening quote.
        let at = self.out.tokens.len();
        self.push(Tok::Literal(String::new()));
        self.i += 1;
        let start = self.i;
        while self.i < self.src.len() {
            match self.src[self.i] {
                b'\\' => self.i += 2,
                b'"' => {
                    self.set_literal_text(at, start, self.i);
                    self.i += 1;
                    return;
                }
                b'\n' => {
                    self.bump_line();
                    self.i += 1;
                }
                _ => self.i += 1,
            }
        }
        self.set_literal_text(at, start, self.src.len());
    }

    /// Back-fills a literal token's contents once its end is known.
    fn set_literal_text(&mut self, at: usize, start: usize, end: usize) {
        if let Some(Token {
            tok: Tok::Literal(text),
            ..
        }) = self.out.tokens.get_mut(at)
        {
            *text = String::from_utf8_lossy(&self.src[start..end.min(self.src.len())]).into_owned();
        }
    }

    /// `Some(hashes)` when the cursor starts a raw string literal
    /// (`r"`, `r#"`, `br#"`, …); `None` for raw identifiers and
    /// everything else.
    fn raw_string_hashes(&self) -> Option<usize> {
        let mut j = 0;
        if self.peek(j) == b'b' {
            j += 1;
        }
        if self.peek(j) != b'r' {
            return None;
        }
        j += 1;
        let mut hashes = 0;
        while self.peek(j) == b'#' {
            hashes += 1;
            j += 1;
        }
        if self.peek(j) == b'"' {
            Some(hashes)
        } else {
            None // `r#ident` raw identifier or plain ident starting r/b
        }
    }

    fn raw_string(&mut self, hashes: usize) {
        let at = self.out.tokens.len();
        self.push(Tok::Literal(String::new()));
        // Skip the prefix up to and including the opening quote.
        while self.i < self.src.len() && self.src[self.i] != b'"' {
            self.i += 1;
        }
        self.i += 1;
        let start = self.i;
        while self.i < self.src.len() {
            let b = self.src[self.i];
            if b == b'"' {
                let closing = (1..=hashes).all(|k| self.peek(k) == b'#');
                if closing {
                    self.set_literal_text(at, start, self.i);
                    self.i += 1 + hashes;
                    return;
                }
                self.i += 1;
            } else {
                if b == b'\n' {
                    self.bump_line();
                }
                self.i += 1;
            }
        }
    }

    fn char_or_lifetime(&mut self) {
        // self.i at the quote. A char literal either escapes or
        // closes two chars on; otherwise this is a lifetime.
        let escaped = self.peek(1) == b'\\';
        let closes = self.peek(2) == b'\'' && self.peek(1) != b'\'';
        if escaped {
            self.push(Tok::Literal(String::new()));
            self.i += 2; // quote + backslash
            while self.i < self.src.len() && self.src[self.i] != b'\'' {
                self.i += 1;
            }
            self.i += 1;
        } else if closes {
            self.push(Tok::Literal(String::new()));
            self.i += 3;
        } else {
            self.i += 1;
            let start = self.i;
            while self.i < self.src.len() && is_ident_cont(self.src[self.i]) {
                self.i += 1;
            }
            let name = String::from_utf8_lossy(&self.src[start..self.i]).into_owned();
            self.push(Tok::Lifetime(name));
        }
    }

    fn number(&mut self) {
        let start = self.i;
        // Integer part (covers 0x/0b/0o prefixes: hex digits and `_`
        // are in the alphanumeric class).
        while self.i < self.src.len() && (is_ident_cont(self.src[self.i])) {
            self.i += 1;
        }
        // Fraction: a `.` belongs to the number only when followed by
        // a digit (so `0..n` lexes as `0`, `.`, `.`, `n`).
        if self.peek(0) == b'.' && self.peek(1).is_ascii_digit() {
            self.i += 1;
            while self.i < self.src.len() && is_ident_cont(self.src[self.i]) {
                self.i += 1;
            }
        }
        // Exponent sign: `1.5e-3` — the `e`/`E` was consumed above;
        // pick up a sign directly after it.
        if (self.peek(0) == b'-' || self.peek(0) == b'+')
            && matches!(self.src.get(self.i - 1), Some(b'e' | b'E'))
        {
            self.i += 1;
            while self.i < self.src.len() && is_ident_cont(self.src[self.i]) {
                self.i += 1;
            }
        }
        let text = String::from_utf8_lossy(&self.src[start..self.i]).into_owned();
        self.push(Tok::Num(text));
    }

    fn ident(&mut self) {
        let start = self.i;
        while self.i < self.src.len() && is_ident_cont(self.src[self.i]) {
            self.i += 1;
        }
        let name = String::from_utf8_lossy(&self.src[start..self.i]).into_owned();
        self.push(Tok::Ident(name));
    }
}

/// Whether a numeric literal's text denotes a float (`1.0`, `1e-3`,
/// `2f64`), as opposed to an integer (`3`, `0xff`, `1_000u32`).
pub fn num_is_float(text: &str) -> bool {
    if text.starts_with("0x") || text.starts_with("0b") || text.starts_with("0o") {
        return false;
    }
    text.contains('.')
        || text.ends_with("f32")
        || text.ends_with("f64")
        || (text.contains(['e', 'E']) && !text.contains(|c: char| c.is_ascii_hexdigit() && c > 'e'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn literals_never_leak_tokens() {
        let src = r##"let s = "unsafe { Relaxed }"; let r = r#"panic! unsafe"#; let c = 'u';"##;
        let ids = idents(src);
        assert!(!ids
            .iter()
            .any(|s| s == "unsafe" || s == "Relaxed" || s == "panic"));
        assert_eq!(ids, ["let", "s", "let", "r", "let", "c"]);
    }

    #[test]
    fn byte_raw_strings_and_byte_chars() {
        let src = r##"let a = br#"unsafe " quote"#; let b = b"x"; let c = b'\n';"##;
        let ids = idents(src);
        assert!(!ids
            .iter()
            .any(|s| s == "unsafe" || s == "quote" || s == "x" || s == "n"));
    }

    #[test]
    fn lifetimes_are_distinct_from_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes = lexed
            .tokens
            .iter()
            .filter(|t| matches!(t.tok, Tok::Lifetime(_)))
            .count();
        let literals = lexed
            .tokens
            .iter()
            .filter(|t| matches!(t.tok, Tok::Literal(_)))
            .count();
        assert_eq!(lifetimes, 2);
        assert_eq!(literals, 1);
    }

    #[test]
    fn comments_attach_to_lines_and_nest() {
        let src = "a // one\n/* two /* nested */ still\nthree */ b\n";
        let lexed = lex(src);
        assert!(lexed.comments[&1].contains("one"));
        assert!(lexed.comments[&2].contains("two"));
        assert!(lexed.comments[&2].contains("still"));
        assert!(lexed.comments[&3].contains("three"));
        assert_eq!(idents(src), ["a", "b"]);
        assert_eq!(lexed.tokens[1].line, 3); // `b` sits on line 3
    }

    #[test]
    fn comment_near_window() {
        let lexed = lex("// SAFETY: fine\n\n\nunsafe {}\n");
        assert!(lexed.comment_near(4, 10, "SAFETY"));
        assert!(!lexed.comment_near(4, 1, "SAFETY"));
    }

    #[test]
    fn numbers_keep_text_and_float_detection() {
        let lexed = lex("let a = 1.5e-3; let b = 0xff; let c = 2f64; let r = 0..10;");
        let nums: Vec<_> = lexed
            .tokens
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Num(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(nums, ["1.5e-3", "0xff", "2f64", "0", "10"]);
        assert!(num_is_float("1.5e-3"));
        assert!(num_is_float("2f64"));
        assert!(!num_is_float("0xff"));
        assert!(!num_is_float("10"));
    }

    #[test]
    fn raw_identifiers_are_idents_not_strings() {
        // `r#fn` must not be mistaken for a raw string start.
        let ids = idents("let r#fn = 1; let br = 2;");
        assert!(ids.contains(&"fn".to_string()) || ids.contains(&"r".to_string()));
        assert!(ids.contains(&"br".to_string()));
    }

    /// Lines (1-based) carrying `ident` as a code token.
    fn ident_lines(src: &str, ident: &str) -> Vec<u32> {
        let lexed = lex(src);
        let on = |t: &&Token| matches!(&t.tok, Tok::Ident(s) if s == ident);
        lexed.tokens.iter().filter(on).map(|t| t.line).collect()
    }

    /// Lines whose comment text contains `needle`.
    fn comment_lines(src: &str, needle: &str) -> Vec<u32> {
        let lexed = lex(src);
        let has = |(_, text): &(&u32, &String)| text.contains(needle);
        lexed.comments.iter().filter(has).map(|(l, _)| *l).collect()
    }

    // The next four sources come from the PR 3 line scanner's parity
    // suite; the SAFETY-comment audit depends on exactly these calls.

    #[test]
    fn byte_raw_strings_hide_their_contents() {
        let src = "let b = br#\"unsafe { /* SAFETY */ }\"#;\nunsafe { op() } // SAFETY: real\n";
        // Neither the `unsafe` nor the comment inside the byte raw
        // string exists; the real ones sit on line 2.
        assert_eq!(ident_lines(src, "unsafe"), [2]);
        assert_eq!(comment_lines(src, "SAFETY"), [2]);
    }

    #[test]
    fn nested_block_comments_spanning_lines_stay_comments() {
        let src = "fn a() {}\n/* outer SAFETY\n   /* inner, still comment: unsafe */\n   back at depth one */\nunsafe fn b() {}\n";
        // The `unsafe` on line 3 is inside a doubly-nested block
        // comment; only line 5's is code, and each comment line keeps
        // its own text.
        assert_eq!(ident_lines(src, "unsafe"), [5]);
        assert_eq!(comment_lines(src, "SAFETY"), [2]);
        assert_eq!(comment_lines(src, "unsafe"), [3]);
        assert_eq!(comment_lines(src, "depth one"), [4]);
    }

    #[test]
    fn unbalanced_nesting_does_not_resurface_early() {
        // Two opens, one close: everything after stays comment.
        let src = "/* one /* two */ still comment\nunsafe\n";
        assert_eq!(ident_lines(src, "unsafe"), [0u32; 0]);
        assert_eq!(comment_lines(src, "unsafe"), [2]);
    }

    #[test]
    fn lifetimes_labels_and_char_literals_disambiguate() {
        let src = "fn f<'a>(x: &'a str) -> char {\n    let q = 'q';\n    let esc = '\\'';\n    'outer: loop { break 'outer; }\n    q\n}\n// SAFETY: none needed\n";
        // An escaped quote must not end its char literal early, and a
        // label must not open one that swallows the following lines.
        assert_eq!(ident_lines(src, "q"), [2, 5]);
        assert_eq!(ident_lines(src, "loop"), [4]);
        assert_eq!(comment_lines(src, "SAFETY"), [7]);
        // A char literal holding a comment opener must not start a
        // comment; a lifetime must not start a char literal that would
        // swallow the rest of the line.
        let tricky = "let c = '/'; let s = '*'; unsafe { op::<'static>() } // SAFETY: here\n";
        assert_eq!(ident_lines(tricky, "unsafe"), [1]);
        assert_eq!(ident_lines(tricky, "op"), [1]);
        assert_eq!(comment_lines(tricky, "SAFETY"), [1]);
    }

    #[test]
    fn unterminated_literal_is_not_an_infinite_loop() {
        let lexed = lex("let s = \"never closed");
        assert!(lexed
            .tokens
            .iter()
            .any(|t| matches!(t.tok, Tok::Literal(_))));
    }
}
