//! Token layer: sanitization, lexing, and operator cooking.
//!
//! The parser ([`crate::parse`]) consumes a *cooked* token stream:
//!
//! 1. [`sanitize`] blanks comment text and string/char literal contents
//!    with spaces, preserving every character position, so `// panic!`
//!    in a doc comment is invisible to the analyses while line *and column*
//!    numbers still match the raw source exactly.
//! 2. [`lex`] splits the sanitized text into identifier and
//!    single-character punctuation tokens, each carrying a 1-based
//!    `(line, col)` span.
//! 3. [`cook`] joins adjacent punctuation into Rust's multi-character
//!    operators (`::`, `->`, `..=`, `<<`, ...), float literals
//!    (`1.5`, `1e-6`), and blanked string/char literals (`""`, `''`),
//!    using source adjacency so `a - -b` is never mistaken for `a -- b`.

/// One token of sanitized source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token text. Multi-char operators and literals are joined by
    /// [`cook`]; string/char literal contents are blanked (`""`/`''`).
    pub text: String,
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column (chars), exact w.r.t. the raw source.
    pub col: usize,
    /// True for identifier/keyword/number tokens (alphanumeric runs).
    pub is_ident: bool,
}

impl Token {
    /// Number of source chars this token occupies.
    fn width(&self) -> usize {
        self.text.chars().count()
    }

    /// True when `next` starts exactly where this token ends (same
    /// line, no gap) — the condition for operator cooking.
    fn adjacent_to(&self, next: &Token) -> bool {
        self.line == next.line && self.col + self.width() == next.col
    }
}

/// A lexed, sanitized source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// Raw source lines (for report snippets).
    pub lines: Vec<String>,
    /// Cooked token stream of the sanitized source.
    pub tokens: Vec<Token>,
}

impl SourceFile {
    /// Lexes and cooks `src`; `rel_path` is recorded for findings.
    pub fn parse(rel_path: &str, src: &str) -> SourceFile {
        let sanitized = sanitize(src);
        let tokens = cook(lex(&sanitized));
        SourceFile {
            rel_path: rel_path.to_string(),
            lines: src.lines().map(str::to_string).collect(),
            tokens,
        }
    }

    /// The raw source line (1-based), trimmed, for report snippets.
    pub fn snippet(&self, line: usize) -> String {
        self.lines
            .get(line.saturating_sub(1))
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }
}

/// Replaces comment text and string/char literal contents with spaces,
/// preserving every character position (newlines and columns both
/// survive), so token spans match the raw source exactly.
pub fn sanitize(src: &str) -> String {
    let bytes: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    // Space-fill helper: keep newlines, blank everything else.
    let blank = |out: &mut String, c: char| {
        out.push(if c == '\n' { '\n' } else { ' ' });
    };
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            '/' if bytes.get(i + 1) == Some(&'/') => {
                while i < bytes.len() && bytes[i] != '\n' {
                    blank(&mut out, bytes[i]);
                    i += 1;
                }
            }
            '/' if bytes.get(i + 1) == Some(&'*') => {
                let mut depth = 1;
                blank(&mut out, bytes[i]);
                blank(&mut out, bytes[i + 1]);
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == '/' && bytes.get(i + 1) == Some(&'*') {
                        depth += 1;
                        blank(&mut out, bytes[i]);
                        blank(&mut out, bytes[i + 1]);
                        i += 2;
                    } else if bytes[i] == '*' && bytes.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        blank(&mut out, bytes[i]);
                        blank(&mut out, bytes[i + 1]);
                        i += 2;
                    } else {
                        blank(&mut out, bytes[i]);
                        i += 1;
                    }
                }
            }
            '"' => {
                out.push('"');
                i += 1;
                while i < bytes.len() && bytes[i] != '"' {
                    if bytes[i] == '\\' {
                        blank(&mut out, bytes[i]);
                        i += 1;
                        if i < bytes.len() {
                            blank(&mut out, bytes[i]);
                            i += 1;
                        }
                    } else {
                        blank(&mut out, bytes[i]);
                        i += 1;
                    }
                }
                out.push('"');
                i += 1;
            }
            'r' if matches!(bytes.get(i + 1), Some('"') | Some('#')) => {
                // Raw string: r"..." or r#"..."# etc. The prefix and
                // hashes are blanked; the quotes survive.
                let mut hashes = 0;
                let mut j = i + 1;
                while bytes.get(j) == Some(&'#') {
                    hashes += 1;
                    j += 1;
                }
                if bytes.get(j) == Some(&'"') {
                    blank(&mut out, 'r');
                    for _ in 0..hashes {
                        blank(&mut out, '#');
                    }
                    out.push('"');
                    j += 1;
                    'raw: while j < bytes.len() {
                        if bytes[j] == '"' {
                            let mut k = 0;
                            while k < hashes && bytes.get(j + 1 + k) == Some(&'#') {
                                k += 1;
                            }
                            if k == hashes {
                                out.push('"');
                                for _ in 0..hashes {
                                    blank(&mut out, '#');
                                }
                                j += 1 + hashes;
                                break 'raw;
                            }
                        }
                        blank(&mut out, bytes[j]);
                        j += 1;
                    }
                    i = j;
                } else {
                    out.push(c);
                    i += 1;
                }
            }
            '\'' => {
                // Char literal vs lifetime: a lifetime is `'ident` not
                // followed by a closing quote.
                let next = bytes.get(i + 1).copied().unwrap_or(' ');
                let after = bytes.get(i + 2).copied().unwrap_or(' ');
                let is_lifetime =
                    (next.is_alphabetic() || next == '_') && after != '\'' && next != '\\';
                if is_lifetime {
                    out.push('\'');
                    i += 1;
                } else {
                    out.push('\'');
                    i += 1;
                    while i < bytes.len() && bytes[i] != '\'' {
                        if bytes[i] == '\\' {
                            blank(&mut out, bytes[i]);
                            i += 1;
                            if i < bytes.len() {
                                blank(&mut out, bytes[i]);
                                i += 1;
                            }
                        } else {
                            blank(&mut out, bytes[i]);
                            i += 1;
                        }
                    }
                    out.push('\'');
                    i += 1;
                }
            }
            _ => {
                out.push(c);
                i += 1;
            }
        }
    }
    out
}

/// Splits sanitized source into identifier and single-char punctuation
/// tokens with exact `(line, col)` spans.
pub fn lex(sanitized: &str) -> Vec<Token> {
    let mut tokens = Vec::new();
    let mut line = 1usize;
    let mut col = 1usize;
    let chars: Vec<char> = sanitized.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            col = 1;
            i += 1;
        } else if c.is_whitespace() {
            col += 1;
            i += 1;
        } else if c.is_alphanumeric() || c == '_' {
            let start = i;
            let start_col = col;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
                col += 1;
            }
            tokens.push(Token {
                text: chars[start..i].iter().collect(),
                line,
                col: start_col,
                is_ident: true,
            });
        } else {
            tokens.push(Token {
                text: c.to_string(),
                line,
                col,
                is_ident: false,
            });
            col += 1;
            i += 1;
        }
    }
    tokens
}

/// Multi-char operators, longest first (maximal munch).
const OPERATORS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "..",
];

/// True when `t` is a numeric literal token (starts with a digit).
fn is_number(t: &Token) -> bool {
    t.is_ident && t.text.starts_with(|c: char| c.is_ascii_digit())
}

/// Joins adjacent raw tokens into multi-char operators, float literals,
/// and blanked string/char literals. See the module docs for the rules.
pub fn cook(raw: Vec<Token>) -> Vec<Token> {
    let mut out: Vec<Token> = Vec::with_capacity(raw.len());
    let mut i = 0;
    while i < raw.len() {
        let t = &raw[i];

        // Byte literal: `b` adjacent to a blanked `""`/`''` is one
        // literal token (`b"..."` / `b'{'` in the raw source).
        if t.text == "b"
            && raw
                .get(i + 1)
                .is_some_and(|n| (n.text == "\"" || n.text == "'") && t.adjacent_to(n))
        {
            let quote = raw[i + 1].text.clone();
            // The two delimiter quotes follow (see the literal rule
            // below); fold all three tokens into one.
            if raw.get(i + 2).is_some_and(|n| n.text == quote) {
                out.push(Token {
                    text: format!("b{quote}{quote}"),
                    line: t.line,
                    col: t.col,
                    is_ident: false,
                });
                i += 3;
                continue;
            }
        }

        // Blanked string/char literal: sanitize reduces every literal
        // to its two delimiter quotes (contents are space-filled, so
        // the quotes are *not* column-adjacent); consecutive identical
        // quote tokens are therefore always one literal's delimiters.
        if (t.text == "\"" || t.text == "'") && raw.get(i + 1).is_some_and(|n| n.text == t.text) {
            out.push(Token {
                text: format!("{}{}", t.text, t.text),
                line: t.line,
                col: t.col,
                is_ident: false,
            });
            i += 2;
            continue;
        }

        // Float literal: NUM `.` NUM (and exponent tail NUM(e|E) +/- NUM),
        // but only where the `.` cannot be a field access — i.e. the
        // previous *output* token is not an ident, `)`, or `]`.
        if is_number(t) && !t.text.starts_with("0x") && !t.text.starts_with("0b") {
            // A number right after a `.` is a tuple-index field
            // (`t.0`, `t.0.1`), never the start of a float literal.
            let field_context = out.last().is_some_and(|p| p.text == ".");
            if !field_context {
                let mut text = t.text.clone();
                let mut j = i + 1;
                // Fractional part: `.` digits (digits optional: `1.`).
                if raw.get(j).is_some_and(|d| d.text == ".")
                    && raw[j - 1].adjacent_to(&raw[j])
                    // `1..n` is a range, not a float.
                    && !raw.get(j + 1).is_some_and(|n| n.text == ".")
                {
                    // Only treat `N.` as a float when followed by an
                    // adjacent digit run or nothing numeric-ish; `N.method()`
                    // (e.g. `1.max(2)`) keeps the dot as a field/method dot.
                    let frac = raw.get(j + 1);
                    let frac_is_digits =
                        frac.is_some_and(|f| is_number(f) && raw[j].adjacent_to(f));
                    let frac_is_ident = frac.is_some_and(|f| f.is_ident && !is_number(f));
                    if frac_is_digits || !frac_is_ident {
                        text.push('.');
                        j += 1;
                        if frac_is_digits {
                            text.push_str(&raw[j].text);
                            j += 1;
                        }
                    }
                }
                // Exponent sign: `1e` `-` `6` or `1.0e` `+` `3`.
                if text.ends_with(['e', 'E'])
                    && text.chars().next().is_some_and(|c| c.is_ascii_digit())
                    && raw.get(j).is_some_and(|s| s.text == "-" || s.text == "+")
                    && raw[j - 1].adjacent_to(&raw[j])
                    && raw
                        .get(j + 1)
                        .is_some_and(|n| is_number(n) && raw[j].adjacent_to(n))
                {
                    text.push_str(&raw[j].text);
                    text.push_str(&raw[j + 1].text);
                    j += 2;
                }
                if j > i + 1 {
                    out.push(Token {
                        text,
                        line: t.line,
                        col: t.col,
                        is_ident: true,
                    });
                    i = j;
                    continue;
                }
            }
        }

        // Multi-char operators by maximal munch over adjacent punct.
        if !t.is_ident {
            let mut matched = None;
            for op in OPERATORS {
                let n = op.chars().count();
                if i + n > raw.len() {
                    continue;
                }
                let mut ok = true;
                let mut text = String::new();
                for (k, ch) in op.chars().enumerate() {
                    let tok = &raw[i + k];
                    if tok.is_ident || tok.text != ch.to_string() {
                        ok = false;
                        break;
                    }
                    if k > 0 && !raw[i + k - 1].adjacent_to(tok) {
                        ok = false;
                        break;
                    }
                    text.push(ch);
                }
                if ok {
                    matched = Some((text, n));
                    break;
                }
            }
            if let Some((text, n)) = matched {
                out.push(Token {
                    text,
                    line: t.line,
                    col: t.col,
                    is_ident: false,
                });
                i += n;
                continue;
            }
        }

        out.push(t.clone());
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        cook(lex(&sanitize(src)))
            .into_iter()
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn sanitize_strips_comments_and_literals() {
        let src = "let a = \"thread_rng\"; // Instant::now\n/* panic! */ let b = 'x';";
        let s = sanitize(src);
        assert!(!s.contains("thread_rng"));
        assert!(!s.contains("Instant"));
        assert!(!s.contains("panic"));
        assert_eq!(s.matches('\n').count(), src.matches('\n').count());
    }

    #[test]
    fn sanitize_preserves_columns() {
        let src = "let a = /* hidden */ foo;";
        let s = sanitize(src);
        // `foo` must sit at the same column as in the raw source.
        assert_eq!(s.find("foo"), src.find("foo"));
        assert_eq!(s.chars().count(), src.chars().count());
    }

    #[test]
    fn sanitize_handles_raw_strings_and_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let s = r#\"panic!(\"boom\")\"#; }";
        let s = sanitize(src);
        assert!(!s.contains("panic"));
        assert!(s.contains("'a"));
    }

    #[test]
    fn cook_joins_operators_and_literals() {
        assert_eq!(
            texts("a::b -> c == d && e..=f"),
            vec!["a", "::", "b", "->", "c", "==", "d", "&&", "e", "..=", "f"]
        );
        assert_eq!(texts("x = 1.5e-3;"), vec!["x", "=", "1.5e-3", ";"]);
        assert_eq!(texts("t.0.1"), vec!["t", ".", "0", ".", "1"]);
        assert_eq!(texts("0..n"), vec!["0", "..", "n"]);
        assert_eq!(texts("let s = \"hi\";"), vec!["let", "s", "=", "\"\"", ";"]);
        assert_eq!(texts("let c = 'x';"), vec!["let", "c", "=", "''", ";"]);
    }

    #[test]
    fn cook_respects_adjacency() {
        // `a - -b` must not become `a -- b`; `: :` must not become `::`.
        assert_eq!(texts("a - -b"), vec!["a", "-", "-", "b"]);
        assert_eq!(texts("x: :y"), vec!["x", ":", ":", "y"]);
    }

    #[test]
    fn cook_keeps_method_calls_on_int_literals() {
        assert_eq!(texts("1.max(2)"), vec!["1", ".", "max", "(", "2", ")"]);
        assert_eq!(
            texts("1.0.max(2.0)"),
            vec!["1.0", ".", "max", "(", "2.0", ")"]
        );
    }

    #[test]
    fn tokens_carry_exact_spans() {
        let toks = cook(lex(&sanitize("fn f() {\n    x.lock();\n}")));
        let x = toks.iter().find(|t| t.text == "x").expect("x token");
        assert_eq!((x.line, x.col), (2, 5));
        let lock = toks.iter().find(|t| t.text == "lock").expect("lock token");
        assert_eq!((lock.line, lock.col), (2, 7));
    }
}
