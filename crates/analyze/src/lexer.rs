//! A minimal Rust surface lexer for lint scanning.
//!
//! The lint engine does not need a full parse tree — every rule it
//! enforces is phrased over *code* tokens ("`.unwrap()` appears",
//! "`unsafe` appears") plus *comments* ("a `// SAFETY:` line precedes
//! it"). What it does need is to never be fooled by token look-alikes
//! inside string literals or comments. This module produces exactly
//! that separation:
//!
//! * [`Masked::code`] — the source text with every comment and every
//!   string/char-literal *content* replaced by spaces, byte-for-byte
//!   aligned with the original (newlines are preserved), so line/column
//!   arithmetic on the masked text maps directly back to the input;
//! * [`Masked::comments`] — each comment with its 1-based starting
//!   line, for `// SAFETY:` and `// lint: allow(...)` lookups;
//! * [`Masked::strings`] — the *content* of each string literal with
//!   its 1-based starting line, for rules that inspect literals (the
//!   `tagmatch` wire-tag lint reads protocol keywords out of them).
//!
//! Handled syntax: line comments, nested block comments, string
//! literals with escapes, raw (and byte/raw-byte) strings with `#`
//! fences, char literals, and the char-vs-lifetime ambiguity (`'a'`
//! versus `'a`).

/// Output of [`mask`]: comment/string-free code plus the comment list.
#[derive(Debug, Clone)]
pub struct Masked {
    /// Source with comments and literal contents blanked to spaces.
    pub code: String,
    /// `(starting line, full text)` of every comment, 1-based lines.
    pub comments: Vec<(usize, String)>,
    /// `(starting line, content)` of every string literal (quotes and
    /// raw-string fences stripped; escape sequences left raw).
    pub strings: Vec<(usize, String)>,
}

impl Masked {
    /// The masked code split into lines (1-based access helper).
    pub fn line(&self, line: usize) -> &str {
        self.code.lines().nth(line.saturating_sub(1)).unwrap_or("")
    }
}

/// Blank out comments and literal contents, preserving layout.
// The allow: the bytes the `keep!`/`blank!` macros push inside loops are
// loop-variant; clippy's same-item-push heuristic cannot see through the
// macro expansion.
#[allow(clippy::same_item_push)]
pub fn mask(src: &str) -> Masked {
    let bytes = src.as_bytes();
    let mut code = Vec::with_capacity(bytes.len());
    let mut comments = Vec::new();
    let mut strings = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;

    // Push `b` through to the masked output verbatim.
    macro_rules! keep {
        ($b:expr) => {{
            code.push($b);
            if $b == b'\n' {
                line += 1;
            }
        }};
    }
    // Push a blanked byte (newlines survive so lines stay aligned).
    macro_rules! blank {
        ($b:expr) => {{
            if $b == b'\n' {
                code.push(b'\n');
                line += 1;
            } else {
                code.push(b' ');
            }
        }};
    }

    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let start_line = line;
                let mut text = Vec::new();
                while i < bytes.len() && bytes[i] != b'\n' {
                    text.push(bytes[i]);
                    blank!(bytes[i]);
                    i += 1;
                }
                comments.push((start_line, String::from_utf8_lossy(&text).into_owned()));
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start_line = line;
                let mut text = Vec::new();
                let mut depth = 0usize;
                while i < bytes.len() {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        text.extend([b'/', b'*']);
                        blank!(bytes[i]);
                        blank!(bytes[i + 1]);
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        text.extend([b'*', b'/']);
                        blank!(bytes[i]);
                        blank!(bytes[i + 1]);
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        text.push(bytes[i]);
                        blank!(bytes[i]);
                        i += 1;
                    }
                }
                comments.push((start_line, String::from_utf8_lossy(&text).into_owned()));
            }
            b'"' => i = skip_string(bytes, i, &mut code, &mut line, &mut strings),
            b'r' | b'b' if starts_raw_or_byte_literal(bytes, i) => {
                // Consume the prefix (`r`, `b`, `br`, `rb`) verbatim,
                // then the string body.
                keep!(bytes[i]);
                i += 1;
                if bytes[i] == b'r' || bytes[i] == b'b' {
                    keep!(bytes[i]);
                    i += 1;
                }
                if bytes[i] == b'"' {
                    i = skip_string(bytes, i, &mut code, &mut line, &mut strings);
                } else {
                    // Raw string: r#"..."# with any number of fences.
                    let mut fences = 0usize;
                    while bytes.get(i) == Some(&b'#') {
                        keep!(b'#');
                        i += 1;
                        fences += 1;
                    }
                    debug_assert_eq!(bytes.get(i), Some(&b'"'));
                    keep!(b'"');
                    i += 1;
                    let start_line = line;
                    let mut content = Vec::new();
                    'body: while i < bytes.len() {
                        if bytes[i] == b'"' {
                            let close = (1..=fences).all(|f| bytes.get(i + f) == Some(&b'#'));
                            if close {
                                keep!(b'"');
                                i += 1;
                                for _ in 0..fences {
                                    keep!(b'#');
                                    i += 1;
                                }
                                break 'body;
                            }
                        }
                        content.push(bytes[i]);
                        blank!(bytes[i]);
                        i += 1;
                    }
                    strings.push((start_line, String::from_utf8_lossy(&content).into_owned()));
                }
            }
            b'\'' => {
                if is_char_literal(bytes, i) {
                    // 'x' or '\..': blank the content, keep the quotes.
                    keep!(b'\'');
                    i += 1;
                    while i < bytes.len() && bytes[i] != b'\'' {
                        if bytes[i] == b'\\' {
                            blank!(bytes[i]);
                            i += 1;
                        }
                        if i < bytes.len() {
                            blank!(bytes[i]);
                            i += 1;
                        }
                    }
                    if i < bytes.len() {
                        keep!(b'\'');
                        i += 1;
                    }
                } else {
                    // Lifetime: keep as code.
                    keep!(b'\'');
                    i += 1;
                }
            }
            _ => {
                keep!(b);
                i += 1;
            }
        }
    }

    Masked {
        code: String::from_utf8_lossy(&code).into_owned(),
        comments,
        strings,
    }
}

/// Consume a `"`-delimited string starting at `i`, blanking contents
/// into `code` (newlines survive; `line` tracks them) and recording the
/// raw content into `strings`.
fn skip_string(
    bytes: &[u8],
    mut i: usize,
    code: &mut Vec<u8>,
    line: &mut usize,
    strings: &mut Vec<(usize, String)>,
) -> usize {
    let blank = |b: u8, code: &mut Vec<u8>, line: &mut usize| {
        if b == b'\n' {
            code.push(b'\n');
            *line += 1;
        } else {
            code.push(b' ');
        }
    };
    let start_line = *line;
    let mut content = Vec::new();
    code.push(b'"');
    i += 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => {
                content.push(bytes[i]);
                blank(bytes[i], code, line);
                i += 1;
                if i < bytes.len() {
                    content.push(bytes[i]);
                    blank(bytes[i], code, line);
                    i += 1;
                }
            }
            b'"' => {
                code.push(b'"');
                strings.push((start_line, String::from_utf8_lossy(&content).into_owned()));
                return i + 1;
            }
            other => {
                content.push(other);
                blank(other, code, line);
                i += 1;
            }
        }
    }
    strings.push((start_line, String::from_utf8_lossy(&content).into_owned()));
    i
}

/// Is `bytes[i..]` the start of a raw/byte string literal (`r"`, `r#`,
/// `b"`, `br`, `rb`) rather than an identifier starting with r/b?
fn starts_raw_or_byte_literal(bytes: &[u8], i: usize) -> bool {
    // Not a literal if the r/b continues an identifier (e.g. `attr"x"`
    // cannot happen, but `number` / `buffer` followed by code can).
    if i > 0 && is_ident_byte(bytes[i - 1]) {
        return false;
    }
    let mut j = i + 1;
    if matches!(bytes.get(j), Some(b'r') | Some(b'b')) && bytes[j] != bytes[i] {
        j += 1;
    }
    loop {
        match bytes.get(j) {
            Some(b'#') => j += 1,
            Some(b'"') => return true,
            _ => return false,
        }
    }
}

/// Distinguish `'c'` / `'\n'` (char literal) from `'label` (lifetime).
fn is_char_literal(bytes: &[u8], i: usize) -> bool {
    match bytes.get(i + 1) {
        Some(b'\\') => true,
        Some(_) => bytes.get(i + 2) == Some(&b'\''),
        None => false,
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let src = r#"let x = "a.unwrap() // not code"; // real comment
let y = 1; /* block
.expect( */ let z = 2;"#;
        let m = mask(src);
        assert!(!m.code.contains(".unwrap()"));
        assert!(!m.code.contains(".expect("));
        assert!(m.code.contains("let x ="));
        assert!(m.code.contains("let z = 2;"));
        assert_eq!(m.comments.len(), 2);
        assert_eq!(m.comments[0].0, 1);
        assert!(m.comments[0].1.contains("real comment"));
        assert_eq!(m.comments[1].0, 2);
    }

    #[test]
    fn line_structure_is_preserved() {
        let src = "a\n\"two\nlines\"\nb\n";
        let m = mask(src);
        assert_eq!(m.code.lines().count(), src.lines().count());
        assert_eq!(m.line(4), "b");
    }

    #[test]
    fn raw_strings_with_fences() {
        let src = "let s = r#\"has .unwrap() and \"quotes\"\"#; s.len()";
        let m = mask(src);
        assert!(!m.code.contains(".unwrap()"));
        assert!(m.code.contains("s.len()"));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let c = '\\''; let q = 'y'; }";
        let m = mask(src);
        assert!(m.code.contains("fn f<'a>(x: &'a str)"));
        assert!(!m.code.contains('y'), "char literal content blanked");
    }

    #[test]
    fn nested_block_comments() {
        let src = "a /* outer /* inner */ still comment */ b";
        let m = mask(src);
        assert!(m.code.contains('a'));
        assert!(m.code.contains('b'));
        assert!(!m.code.contains("still"));
        assert_eq!(m.comments.len(), 1);
        assert!(m.comments[0].1.contains("inner"));
    }

    #[test]
    fn identifiers_starting_with_r_or_b_are_code() {
        let src = "let rounds = radius; let bits = 64;";
        let m = mask(src);
        assert_eq!(m.code, src);
        assert!(m.strings.is_empty());
    }

    #[test]
    fn string_contents_are_captured_with_lines() {
        let src = "let a = \"RESUME {} {}\";\nlet b = r#\"CKPT none\"#;\nlet c = \"esc\\\"aped\";";
        let m = mask(src);
        assert_eq!(m.strings.len(), 3);
        assert_eq!(m.strings[0], (1, "RESUME {} {}".to_string()));
        assert_eq!(m.strings[1], (2, "CKPT none".to_string()));
        assert_eq!(m.strings[2].0, 3);
        assert!(m.strings[2].1.starts_with("esc"));
    }
}
