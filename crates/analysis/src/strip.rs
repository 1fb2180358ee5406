//! Source preparation for the token scan.
//!
//! [`prepare`] walks a Rust source file once and produces a *stripped* copy
//! in which every comment and every string/char literal body is blanked to
//! spaces — byte-for-byte the same length as the input, with newlines
//! preserved, so line numbers and columns in the stripped text match the
//! original exactly.
//!
//! The scanner then never has to worry about a forbidden token appearing
//! inside a string literal, a doc comment, or a doc-test: all of those are
//! comments or literals and are blanked before any lint rule looks at the
//! text. Nothing inside a comment is ever read, so no comment can change
//! what the lint reports.

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Returns true when `bytes[i..]` starts a raw-string opener (`r"`, `r#"`,
/// `br##"` …) whose `r`/`b` is not part of a longer identifier; on success
/// also returns the number of `#`s.
fn raw_string_open(bytes: &[u8], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    if bytes.get(j) == Some(&b'b') {
        j += 1;
    }
    if bytes.get(j) != Some(&b'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if bytes.get(j) != Some(&b'"') {
        return None;
    }
    // `r` must begin a token: `var"x"` is not a raw string.
    if i > 0 && is_ident_byte(bytes[i - 1]) {
        return None;
    }
    Some((hashes, j + 1 - i))
}

/// Strips comments and literal bodies from `source`; see the module docs.
pub fn prepare(source: &str) -> String {
    let bytes = source.as_bytes();
    let mut out = vec![b' '; bytes.len()];
    let mut i = 0usize;

    // Every branch either copies bytes into `out` (code) or leaves the
    // pre-filled spaces in place (comments/literals); newlines are always
    // copied so the line structure survives.
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'\n' {
            out[i] = b'\n';
            i += 1;
            continue;
        }
        // Line comment: blanked up to (not including) its newline.
        if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        // Block comment (Rust block comments nest).
        if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
            let mut depth = 1usize;
            i += 2;
            while i < bytes.len() && depth > 0 {
                if bytes[i] == b'\n' {
                    out[i] = b'\n';
                    i += 1;
                } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    i += 2;
                } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            continue;
        }
        // Raw (and raw byte) strings: r"..", r#".."#, br".." …
        if (b == b'r' || b == b'b') && raw_string_open(bytes, i).is_some() {
            let (hashes, open_len) = match raw_string_open(bytes, i) {
                Some(open) => open,
                None => unreachable!(),
            };
            i += open_len;
            'raw: while i < bytes.len() {
                if bytes[i] == b'\n' {
                    out[i] = b'\n';
                    i += 1;
                    continue;
                }
                if bytes[i] == b'"' {
                    let mut k = 0;
                    while k < hashes && bytes.get(i + 1 + k) == Some(&b'#') {
                        k += 1;
                    }
                    if k == hashes {
                        i += 1 + hashes;
                        break 'raw;
                    }
                }
                i += 1;
            }
            continue;
        }
        // Ordinary (and byte) string literals.
        if b == b'"' {
            i += 1;
            while i < bytes.len() {
                match bytes[i] {
                    b'\\' => i += 2,
                    b'"' => {
                        i += 1;
                        break;
                    }
                    b'\n' => {
                        out[i] = b'\n';
                        i += 1;
                    }
                    _ => i += 1,
                }
            }
            continue;
        }
        // Char literal vs lifetime: 'x' / '\n' are literals, 'a in `&'a T`
        // is a lifetime (kept as code — harmless to the token rules).
        if b == b'\'' {
            if bytes.get(i + 1) == Some(&b'\\') {
                i += 2; // opening quote + backslash
                while i < bytes.len() && bytes[i] != b'\'' {
                    i += 1;
                }
                i += 1; // closing quote
                continue;
            }
            // `'x'` (any single ASCII char, quote at i+2) is a literal;
            // `'é'` (multibyte content) closes within a few bytes; anything
            // else (`'a` in `<'a, 'b>`) is a lifetime and stays as code.
            if bytes.get(i + 2) == Some(&b'\'') {
                i += 3;
                continue;
            }
            if bytes.get(i + 1).is_some_and(|&c| c >= 0x80) {
                let close = (i + 2..(i + 6).min(bytes.len())).find(|&j| bytes[j] == b'\'');
                if let Some(close) = close {
                    i = close + 1;
                    continue;
                }
            }
            out[i] = b'\'';
            i += 1;
            continue;
        }
        out[i] = b;
        i += 1;
    }

    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// Byte ranges of items gated behind a `test` attribute (`#[cfg(test)]`,
/// `#[test]`, `#[cfg(all(test, ...))]`), computed on *stripped* text so
/// strings can't fake an attribute. The lint families all scope themselves
/// to "non-test code"; any finding whose line falls inside one of these
/// ranges is dropped.
pub fn test_item_ranges(stripped: &str) -> Vec<(usize, usize)> {
    let bytes = stripped.as_bytes();
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] != b'#' || bytes.get(i + 1) != Some(&b'[') {
            i += 1;
            continue;
        }
        let attr_start = i;
        let Some(attr_end) = matching_bracket(bytes, i + 1, b'[', b']') else {
            break;
        };
        let attr_body = &stripped[i + 2..attr_end];
        // `#[cfg(not(test))]` gates *non*-test code and must not be skipped.
        if !contains_word(attr_body, "test") || attr_body.contains("not(test)") {
            i = attr_end + 1;
            continue;
        }
        // Skip any further attributes, then the gated item itself: either a
        // braced body (`mod tests { .. }`, `fn case() { .. }`) or a `;`
        // terminated item (`use ...;`).
        let mut j = attr_end + 1;
        loop {
            while j < bytes.len() && (bytes[j] as char).is_whitespace() {
                j += 1;
            }
            if bytes.get(j) == Some(&b'#') && bytes.get(j + 1) == Some(&b'[') {
                match matching_bracket(bytes, j + 1, b'[', b']') {
                    Some(end) => j = end + 1,
                    None => break,
                }
            } else {
                break;
            }
        }
        let mut end = j;
        while end < bytes.len() && bytes[end] != b'{' && bytes[end] != b';' {
            end += 1;
        }
        if bytes.get(end) == Some(&b'{') {
            end = matching_bracket(bytes, end, b'{', b'}').unwrap_or(bytes.len() - 1);
        }
        ranges.push((attr_start, end.min(bytes.len().saturating_sub(1))));
        i = end + 1;
    }
    ranges
}

/// Index of the bracket matching `bytes[open]` (which must be `open_b`).
fn matching_bracket(bytes: &[u8], open: usize, open_b: u8, close_b: u8) -> Option<usize> {
    debug_assert_eq!(bytes.get(open), Some(&open_b));
    let mut depth = 0usize;
    for (j, &b) in bytes.iter().enumerate().skip(open) {
        if b == open_b {
            depth += 1;
        } else if b == close_b {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Whether `text` contains `word` with identifier boundaries on both sides.
pub fn contains_word(text: &str, word: &str) -> bool {
    find_word(text, word).is_some()
}

/// Byte offset of the first occurrence of `word` in `text` with identifier
/// boundaries on both sides.
pub fn find_word(text: &str, word: &str) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut from = 0usize;
    while let Some(pos) = text[from..].find(word) {
        let at = from + pos;
        let end = at + word.len();
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let src = "let x = \"panic!\"; // a .unwrap() note\nlet y = 1;\n";
        let stripped = prepare(src);
        assert_eq!(stripped.len(), src.len());
        assert!(!stripped.contains("panic"));
        assert!(!stripped.contains("unwrap"));
        assert!(stripped.contains("let x ="));
        assert!(stripped.contains("let y = 1;"));
    }

    #[test]
    fn raw_strings_and_escapes_are_blanked() {
        let src = "let a = r#\"thread_rng \"quoted\"\"#; let b = \"esc \\\" HashMap\";\n";
        let stripped = prepare(src);
        assert!(!stripped.contains("thread_rng"));
        assert!(!stripped.contains("HashMap"));
        assert!(stripped.contains("let b ="));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let src = "fn f<'a>(x: &'a str) -> char { let c = '['; let d = '\\n'; c }\n";
        let stripped = prepare(src);
        // The bracket char literal is blanked; the lifetime survives as code.
        assert!(!stripped.contains("'['"));
        assert!(stripped.contains("<'a>"));
        assert!(stripped.contains("&'a str"));
    }

    #[test]
    fn nested_block_comments_preserve_lines() {
        let src = "a\n/* one /* two\nstill */ done */\nb\n";
        let stripped = prepare(src);
        let lines: Vec<&str> = stripped.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].trim(), "a");
        assert_eq!(lines[3].trim(), "b");
        assert!(lines[1].trim().is_empty() && lines[2].trim().is_empty());
    }

    #[test]
    fn cfg_test_mod_is_ranged() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn inner() { x.unwrap(); }\n}\nfn live2() {}\n";
        let ranges = test_item_ranges(&prepare(src));
        assert_eq!(ranges.len(), 1);
        let (start, end) = ranges[0];
        let covered = &src[start..=end];
        assert!(covered.contains("mod tests"));
        assert!(covered.contains("unwrap"));
        assert!(!covered.contains("live2"));
    }

    #[test]
    fn cfg_test_with_extra_attrs_and_use() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nfn helper() { body(); }\n#[cfg(test)]\nuse std::collections::HashSet;\nfn live() {}\n";
        let ranges = test_item_ranges(&prepare(src));
        assert_eq!(ranges.len(), 2);
        assert!(src[ranges[0].0..=ranges[0].1].contains("helper"));
        assert!(src[ranges[1].0..=ranges[1].1].contains("HashSet"));
    }

    #[test]
    fn word_boundaries() {
        assert!(contains_word("use std::collections::HashMap;", "HashMap"));
        assert!(!contains_word("let my_hashmap_like = 1;", "HashMap"));
        assert!(!contains_word("printlnx!(..)", "println"));
        assert_eq!(find_word("a print println", "println"), Some(8));
    }
}
