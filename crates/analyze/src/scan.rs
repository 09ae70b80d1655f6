//! Per-file scan state: test-region masking and waiver extraction.
//!
//! Sits between the lexer and the rules. For each file it produces
//!
//! * the full token stream (comments included),
//! * a `code` index listing the non-comment tokens,
//! * an `in_test` mask marking every token inside a `#[test]` or
//!   `#[cfg(test)]` item (the panic-contract and friends do not apply
//!   to test code),
//! * the parsed `// analyze::allow(rule-id): reason` waivers.

use crate::lexer::{lex, Tok, TokKind};

/// A parsed `// analyze::allow(rule-id): reason` comment.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// Rule id as written (`R1` ... `R8`); validated by the engine.
    pub rule: String,
    /// 1-based line of the waiver comment.
    pub line: u32,
    /// Trimmed reason text after `):`. Empty means the waiver is
    /// malformed — the engine reports that as a finding.
    pub reason: String,
}

/// Lexed view of one source file, ready for rule matching.
pub struct FileScan {
    /// Every token, comments included, in source order.
    pub toks: Vec<Tok>,
    /// Indices into `toks` of the non-comment tokens.
    pub code: Vec<usize>,
    /// `in_test[k]` is true when `toks[k]` sits inside a test item.
    pub in_test: Vec<bool>,
    /// Waivers parsed from line comments (outside test items too —
    /// a waiver in test code waives nothing, but is still listed so
    /// stale ones surface).
    pub waivers: Vec<Waiver>,
}

impl FileScan {
    /// Lexes and masks one file.
    pub fn new(src: &str) -> FileScan {
        let toks = lex(src);
        let code: Vec<usize> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_comment())
            .map(|(k, _)| k)
            .collect();
        let in_test = mask_test_items(&toks, &code);
        let waivers = parse_waivers(&toks);
        FileScan {
            toks,
            code,
            in_test,
            waivers,
        }
    }

    /// The code token at code-position `p`, if any.
    pub fn code_tok(&self, p: usize) -> Option<&Tok> {
        self.code.get(p).map(|&k| &self.toks[k])
    }

    /// True when the code token at code-position `p` is inside a test
    /// item.
    pub fn code_in_test(&self, p: usize) -> bool {
        self.code.get(p).map(|&k| self.in_test[k]).unwrap_or(false)
    }
}

/// Marks every token belonging to an item annotated `#[test]`,
/// `#[cfg(test)]` (or any `cfg(...)` whose argument list mentions
/// `test`, covering `#[cfg(all(test, ...))]`).
///
/// Works on the code-token sequence: finds an attribute opener `#`
/// `[`, collects the balanced attribute, and if it is test-like skips
/// any stacked attributes and then masks the following item — all
/// tokens (comments included) up to the end of the item's balanced
/// `{ ... }` block or its terminating top-level `;`.
fn mask_test_items(toks: &[Tok], code: &[usize]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut p = 0usize;
    while p < code.len() {
        let t = &toks[code[p]];
        if t.is_punct("#") && p + 1 < code.len() && toks[code[p + 1]].is_punct("[") {
            let (attr_end, is_test) = read_attribute(toks, code, p);
            if is_test {
                let mask_from = code[p];
                // Skip any further stacked attributes.
                let mut q = attr_end;
                while q < code.len()
                    && toks[code[q]].is_punct("#")
                    && q + 1 < code.len()
                    && toks[code[q + 1]].is_punct("[")
                {
                    let (next_end, _) = read_attribute(toks, code, q);
                    q = next_end;
                }
                // Mask the item that follows.
                let item_end = skip_item(toks, code, q);
                let mask_to = if item_end > 0 && item_end <= code.len() {
                    code[item_end - 1]
                } else {
                    toks.len() - 1
                };
                for m in mask.iter_mut().take(mask_to + 1).skip(mask_from) {
                    *m = true;
                }
                p = item_end;
                continue;
            }
            p = attr_end;
            continue;
        }
        p += 1;
    }
    mask
}

/// Reads the balanced attribute starting at code-position `p` (which
/// holds `#`). Returns (code-position past `]`, attribute-is-test).
fn read_attribute(toks: &[Tok], code: &[usize], p: usize) -> (usize, bool) {
    // p -> '#', p+1 -> '['. Scan for the matching ']'.
    let mut depth = 0usize;
    let mut q = p + 1;
    let mut body: Vec<&Tok> = Vec::new();
    while q < code.len() {
        let t = &toks[code[q]];
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                q += 1;
                break;
            }
        } else if depth >= 1 {
            body.push(t);
        }
        q += 1;
    }
    // Test-like: `test`, or `cfg` with `test` somewhere in its args.
    let is_test = match body.first() {
        Some(t) if t.is_ident("test") && body.len() == 1 => true,
        Some(t) if t.is_ident("cfg") => body.iter().skip(1).any(|t| t.is_ident("test")),
        _ => false,
    };
    (q, is_test)
}

/// Skips one item starting at code-position `p`, returning the
/// code-position just past it. An item ends at the close of its first
/// top-level `{ ... }` block (fn body, mod body, impl body) or at a
/// top-level `;` (use / type / extern declarations).
fn skip_item(toks: &[Tok], code: &[usize], p: usize) -> usize {
    let mut q = p;
    let mut stack: Vec<char> = Vec::new();
    while q < code.len() {
        let t = &toks[code[q]];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" | "(" | "[" => stack.push(t.text.chars().next().unwrap_or('{')),
                "}" | ")" | "]" => {
                    let was_brace = stack.last() == Some(&'{');
                    stack.pop();
                    if stack.is_empty() && was_brace && t.is_punct("}") {
                        return q + 1;
                    }
                }
                ";" if stack.is_empty() => return q + 1,
                _ => {}
            }
        }
        q += 1;
    }
    code.len()
}

/// Extracts `analyze::allow(rule): reason` waivers from line comments.
fn parse_waivers(toks: &[Tok]) -> Vec<Waiver> {
    let mut out = Vec::new();
    for t in toks {
        if t.kind != TokKind::LineComment {
            continue;
        }
        // Doc comments (`///`, `//!`) describe the waiver syntax in
        // prose; only plain `//` comments can carry a live waiver.
        if t.text.starts_with("///") || t.text.starts_with("//!") {
            continue;
        }
        let Some(at) = t.text.find("analyze::allow(") else {
            continue;
        };
        let rest = &t.text[at + "analyze::allow(".len()..];
        let Some(close) = rest.find(')') else {
            // Unclosed waiver: record with empty id so the engine can
            // flag it as malformed rather than silently ignoring it.
            out.push(Waiver {
                rule: String::new(),
                line: t.line,
                reason: String::new(),
            });
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let after = &rest[close + 1..];
        let reason = after
            .strip_prefix(':')
            .map(|r| r.trim().to_string())
            .unwrap_or_default();
        out.push(Waiver {
            rule,
            line: t.line,
            reason,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents_outside_tests(src: &str) -> Vec<String> {
        let fs = FileScan::new(src);
        (0..fs.code.len())
            .filter(|&p| !fs.code_in_test(p))
            .filter_map(|p| fs.code_tok(p))
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .collect()
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn hidden() { dead() }\n}\nfn after() {}\n";
        let idents = idents_outside_tests(src);
        assert!(idents.contains(&"live".to_string()));
        assert!(idents.contains(&"after".to_string()));
        assert!(!idents.contains(&"hidden".to_string()));
        assert!(!idents.contains(&"dead".to_string()));
    }

    #[test]
    fn test_attribute_masks_single_fn() {
        let src = "#[test]\nfn check() { target() }\nfn live() {}\n";
        let idents = idents_outside_tests(src);
        assert!(!idents.contains(&"target".to_string()));
        assert!(idents.contains(&"live".to_string()));
    }

    #[test]
    fn stacked_attributes_are_skipped() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod t { fn x() { inner() } }\nfn live() {}\n";
        let idents = idents_outside_tests(src);
        assert!(!idents.contains(&"inner".to_string()));
        assert!(idents.contains(&"live".to_string()));
    }

    #[test]
    fn cfg_all_test_is_masked_but_cfg_feature_is_not() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nfn a() { ta() }\n#[cfg(feature = \"x\")]\nfn b() { kb() }\n";
        let idents = idents_outside_tests(src);
        assert!(!idents.contains(&"ta".to_string()));
        assert!(idents.contains(&"kb".to_string()));
    }

    #[test]
    fn waiver_parsing() {
        let src =
            "// analyze::allow(R1): wall-clock telemetry\nlet t = 1;\n// analyze::allow(R2)\n";
        let fs = FileScan::new(src);
        assert_eq!(fs.waivers.len(), 2);
        assert_eq!(fs.waivers[0].rule, "R1");
        assert_eq!(fs.waivers[0].line, 1);
        assert_eq!(fs.waivers[0].reason, "wall-clock telemetry");
        assert_eq!(fs.waivers[1].rule, "R2");
        assert_eq!(fs.waivers[1].reason, "");
    }

    #[test]
    fn item_ending_in_semicolon_is_masked() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn live() {}\n";
        let idents = idents_outside_tests(src);
        assert!(!idents.contains(&"HashMap".to_string()));
        assert!(idents.contains(&"live".to_string()));
    }
}
