//! A small, dependency-free Rust tokenizer.
//!
//! volint needs just enough lexical structure to reason about calls,
//! items and scopes: identifiers, punctuation, literals and line
//! numbers, with comments and the interiors of string/char literals
//! stripped so they can never fake a match.  It is deliberately not a
//! full Rust lexer (`syn` is the obvious choice for that, but volint
//! must build with zero third-party dependencies so it can run in
//! minimal CI sandboxes and during offline bootstraps).

/// One lexical token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// 1-based line the token starts on.
    pub line: usize,
}

/// Token classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `impl`, `write_cr3`, `r#type`, ...).
    Ident(String),
    /// A single punctuation character (`.`, `(`, `{`, `<`, `#`, ...).
    Punct(char),
    /// String, raw-string, byte-string or char literal (contents dropped).
    Str(String),
    /// Numeric literal (text kept verbatim).
    Num(String),
    /// A lifetime such as `'a` (name kept without the quote).
    Lifetime(String),
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// True if this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }

    /// True if this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        matches!(&self.kind, TokenKind::Ident(i) if i == s)
    }

    /// The string-literal contents, if this token is a string literal.
    pub fn str_lit(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Tokenize `src`, dropping comments and whitespace.
///
/// The lexer is resilient: malformed input never panics, it just
/// produces a best-effort token stream (unterminated literals run to
/// end of input).
pub fn lex(src: &str) -> Vec<Token> {
    #[cfg(test)]
    LEX_CALLS.with(|n| n.set(n.get() + 1));
    let bytes: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    let mut line = 1;
    let n = bytes.len();

    while i < n {
        let c = bytes[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < n && bytes[i + 1] == '/' => {
                // Line comment (incl. doc comments): skip to newline.
                while i < n && bytes[i] != '\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < n && bytes[i + 1] == '*' => {
                // Block comment, possibly nested.
                let mut depth = 1usize;
                i += 2;
                while i < n && depth > 0 {
                    if bytes[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == '/' && i + 1 < n && bytes[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == '*' && i + 1 < n && bytes[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                let start_line = line;
                let (content, consumed, newlines) = scan_string(&bytes[i..]);
                out.push(Token {
                    kind: TokenKind::Str(content),
                    line: start_line,
                });
                line += newlines;
                i += consumed;
            }
            'r' | 'b' if starts_raw_or_byte_string(&bytes[i..]) => {
                let start_line = line;
                let (consumed, newlines) = scan_raw_or_byte_string(&bytes[i..]);
                out.push(Token {
                    kind: TokenKind::Str(String::new()),
                    line: start_line,
                });
                line += newlines;
                i += consumed;
            }
            '\'' => {
                // Lifetime or char literal.  A lifetime is `'ident` not
                // followed by a closing quote; anything else is a char.
                if i + 1 < n && (bytes[i + 1].is_alphabetic() || bytes[i + 1] == '_') {
                    let mut j = i + 1;
                    while j < n && (bytes[j].is_alphanumeric() || bytes[j] == '_') {
                        j += 1;
                    }
                    if j < n && bytes[j] == '\'' {
                        // 'a' — a char literal.
                        out.push(Token {
                            kind: TokenKind::Str(String::new()),
                            line,
                        });
                        i = j + 1;
                    } else {
                        let name: String = bytes[i + 1..j].iter().collect();
                        out.push(Token {
                            kind: TokenKind::Lifetime(name),
                            line,
                        });
                        i = j;
                    }
                } else {
                    // Escaped or punctuation char literal: '\n', '\'', '('.
                    let mut j = i + 1;
                    if j < n && bytes[j] == '\\' {
                        j += 2; // skip escape; handles '\'' and '\\'
                    } else if j < n {
                        j += 1;
                    }
                    while j < n && bytes[j] != '\'' {
                        j += 1;
                    }
                    out.push(Token {
                        kind: TokenKind::Str(String::new()),
                        line,
                    });
                    i = (j + 1).min(n);
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut j = i;
                while j < n && (bytes[j].is_alphanumeric() || bytes[j] == '_') {
                    j += 1;
                }
                let mut text: String = bytes[i..j].iter().collect();
                // Raw identifiers lex as `r` hitting the string check
                // above only for r" / r#"; `r#ident` lands here via the
                // fallthrough, so strip the prefix if present.
                if text == "r" && j + 1 < n && bytes[j] == '#' && is_ident_start(bytes[j + 1]) {
                    let mut k = j + 1;
                    while k < n && (bytes[k].is_alphanumeric() || bytes[k] == '_') {
                        k += 1;
                    }
                    text = bytes[j + 1..k].iter().collect();
                    i = k;
                } else {
                    i = j;
                }
                out.push(Token {
                    kind: TokenKind::Ident(text),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                let mut j = i;
                while j < n && (bytes[j].is_alphanumeric() || bytes[j] == '_' || bytes[j] == '.') {
                    // Stop a float scan at `..` (range) or `.method()`.
                    if bytes[j] == '.' && (j + 1 >= n || !bytes[j + 1].is_ascii_digit()) {
                        break;
                    }
                    j += 1;
                }
                out.push(Token {
                    kind: TokenKind::Num(bytes[i..j].iter().collect()),
                    line,
                });
                i = j;
            }
            c => {
                out.push(Token {
                    kind: TokenKind::Punct(c),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

/// Does the input start a raw string (`r"`, `r#"`), byte string (`b"`)
/// or raw byte string (`br"`, `br#"`)?
fn starts_raw_or_byte_string(s: &[char]) -> bool {
    let mut i = 0;
    if s.first() == Some(&'b') {
        i += 1;
    }
    if s.get(i) == Some(&'r') {
        i += 1;
        while s.get(i) == Some(&'#') {
            i += 1;
        }
        return s.get(i) == Some(&'"');
    }
    // plain byte string b"..."
    s.first() == Some(&'b') && s.get(1) == Some(&'"')
}

/// Scan a plain `"..."` string starting at `s[0] == '"'`.
/// Returns (contents, chars consumed, newlines crossed).
fn scan_string(s: &[char]) -> (String, usize, usize) {
    let mut i = 1;
    let mut newlines = 0;
    let mut content = String::new();
    while i < s.len() {
        match s[i] {
            '\\' => {
                // An escaped newline (a `\` line continuation) is a line.
                newlines += usize::from(s.get(i + 1) == Some(&'\n'));
                i += 2;
            }
            '"' => {
                return (content, i + 1, newlines);
            }
            c => {
                if c == '\n' {
                    newlines += 1;
                }
                content.push(c);
                i += 1;
            }
        }
    }
    (content, s.len(), newlines)
}

/// Scan `r"..."`, `r#"..."#`, `b"..."`, `br#"..."#` starting at `s[0]`.
/// Returns (chars consumed, newlines crossed).
fn scan_raw_or_byte_string(s: &[char]) -> (usize, usize) {
    let mut i = 0;
    let mut raw = false;
    if s.get(i) == Some(&'b') {
        i += 1;
    }
    if s.get(i) == Some(&'r') {
        raw = true;
        i += 1;
    }
    let mut hashes = 0;
    while s.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    debug_assert_eq!(s.get(i), Some(&'"'));
    i += 1;
    let mut newlines = 0;
    while i < s.len() {
        match s[i] {
            '\\' if !raw => {
                newlines += usize::from(s.get(i + 1) == Some(&'\n'));
                i += 2;
            }
            '\n' => {
                newlines += 1;
                i += 1;
            }
            '"' => {
                // A raw string closes only on `"` followed by `hashes` #s.
                let mut ok = true;
                for k in 0..hashes {
                    if s.get(i + 1 + k) != Some(&'#') {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    return (i + 1 + hashes, newlines);
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    (s.len(), newlines)
}

#[cfg(test)]
thread_local! {
    /// Calls to [`lex`] on this thread (each test runs on its own).
    pub(crate) static LEX_CALLS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter_map(|t| t.ident().map(String::from))
            .collect()
    }

    #[test]
    fn comments_and_strings_are_stripped() {
        let src = r##"
            // write_cr3 in a comment
            /* lidt /* nested */ still comment */
            let s = "cpu.write_cr3(0)";
            let r = r#"lgdt"#;
            let c = '(';
            call(); // trailing
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"write_cr3".to_string()));
        assert!(!ids.contains(&"lidt".to_string()));
        assert!(!ids.contains(&"lgdt".to_string()));
        assert!(ids.contains(&"call".to_string()));
    }

    #[test]
    fn lines_survive_multiline_constructs() {
        let src = "a\n/* x\ny */\nb\n\"s\ntring\"\nc";
        let toks = lex(src);
        let find = |name: &str| toks.iter().find(|t| t.is_ident(name)).unwrap().line;
        assert_eq!(find("a"), 1);
        assert_eq!(find("b"), 4);
        assert_eq!(find("c"), 7);
    }

    #[test]
    fn line_continuations_in_strings_keep_their_lines() {
        let toks = lex("let s = \"a \\\n b\";\nlet t = b\"c \\\n d\";\nafter");
        let after = toks.iter().find(|t| t.is_ident("after")).unwrap();
        assert_eq!(after.line, 5);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = lex("fn f<'a>(x: &'a u8) { let c = 'x'; let d = '\\n'; }");
        assert!(toks
            .iter()
            .any(|t| matches!(&t.kind, TokenKind::Lifetime(l) if l == "a")));
        let strs = toks
            .iter()
            .filter(|t| matches!(t.kind, TokenKind::Str(_)))
            .count();
        assert_eq!(strs, 2, "two char literals");
    }

    #[test]
    fn raw_identifiers_lose_prefix() {
        let ids = idents("let r#type = 1; r#fn();");
        assert!(ids.contains(&"type".to_string()));
        assert!(ids.contains(&"fn".to_string()));
    }

    #[test]
    fn numbers_do_not_eat_method_calls() {
        let toks = lex("1.max(2); 0..4; 1.5f64;");
        assert!(toks.iter().any(|t| t.is_ident("max")));
        assert!(toks
            .iter()
            .any(|t| matches!(&t.kind, TokenKind::Num(s) if s == "1.5f64")));
    }
}
