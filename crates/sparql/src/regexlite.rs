//! A small backtracking regular-expression engine for the SPARQL `REGEX`
//! and `REPLACE` builtins.
//!
//! Supported syntax: literals, `.`, `*`, `+`, `?`, `|`, grouping `(...)`,
//! character classes `[a-z0-9_]` with negation `[^...]` and ranges,
//! anchors `^` / `$`, escapes (`\d \w \s \D \W \S` and escaped
//! metacharacters), and the `i` (case-insensitive) flag. This covers every
//! pattern the paper's pipeline and the test corpus use; exotic features
//! (backreferences, lookaround, counted repetition) are rejected with an
//! error rather than mis-matched.

use std::fmt;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegexError(pub String);

impl fmt::Display for RegexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid regex: {}", self.0)
    }
}

impl std::error::Error for RegexError {}

/// A compiled pattern.
#[derive(Debug, Clone)]
pub struct Regex {
    prog: Node,
    case_insensitive: bool,
    anchored_start: bool,
}

#[derive(Debug, Clone)]
enum Node {
    /// Sequence of nodes.
    Seq(Vec<Node>),
    /// Alternation.
    Alt(Vec<Node>),
    /// Single char matcher.
    Char(char),
    /// Any char (`.`).
    Any,
    /// Character class.
    Class {
        negated: bool,
        items: Vec<ClassItem>,
    },
    /// Repetition of inner node: min, max (None = unbounded).
    Repeat {
        node: Box<Node>,
        min: u32,
        max: Option<u32>,
    },
    /// End anchor `$`.
    End,
}

#[derive(Debug, Clone)]
enum ClassItem {
    Char(char),
    Range(char, char),
    Digit,
    NonDigit,
    Word,
    NonWord,
    Space,
    NonSpace,
}

impl Regex {
    /// Compiles `pattern` with SPARQL-style `flags` (only `i` is
    /// meaningful; other known-but-unsupported flags error).
    pub fn new(pattern: &str, flags: &str) -> Result<Regex, RegexError> {
        let mut case_insensitive = false;
        for f in flags.chars() {
            match f {
                'i' => case_insensitive = true,
                's' => {} // `.` already matches everything except nothing
                other => {
                    return Err(RegexError(format!("unsupported flag '{other}'")));
                }
            }
        }
        let chars: Vec<char> = pattern.chars().collect();
        let mut p = RParser { chars, pos: 0 };
        let (node, anchored_start) = p.parse_top()?;
        if p.pos != p.chars.len() {
            return Err(RegexError(format!(
                "unexpected '{}' at offset {}",
                p.chars[p.pos], p.pos
            )));
        }
        Ok(Regex {
            prog: node,
            case_insensitive,
            anchored_start,
        })
    }

    /// True when the pattern matches anywhere in `text` (or at the start /
    /// covering the end if anchored).
    pub fn is_match(&self, text: &str) -> bool {
        self.find(text).is_some()
    }

    /// Finds the first match, returning `(start, end)` char offsets.
    pub fn find(&self, text: &str) -> Option<(usize, usize)> {
        let chars: Vec<char> = if self.case_insensitive {
            text.chars().flat_map(|c| c.to_lowercase()).collect()
        } else {
            text.chars().collect()
        };
        let starts: Box<dyn Iterator<Item = usize>> = if self.anchored_start {
            Box::new(std::iter::once(0))
        } else {
            Box::new(0..=chars.len())
        };
        for start in starts {
            if start > chars.len() {
                break;
            }
            if let Some(end) = self.match_at(&chars, start) {
                return Some((start, end));
            }
        }
        None
    }

    /// Replaces every non-overlapping match with `replacement`
    /// (no capture-group substitution; `$0`-style references are literal).
    pub fn replace_all(&self, text: &str, replacement: &str) -> String {
        // Operate on the original text; for case-insensitive matching,
        // offsets in the lowercased text line up with the original only
        // when lowercasing is length-preserving, which holds for the char
        // vector representation used here.
        let chars: Vec<char> = text.chars().collect();
        let matchable: Vec<char> = if self.case_insensitive {
            chars
                .iter()
                .map(|c| c.to_lowercase().next().unwrap_or(*c))
                .collect()
        } else {
            chars.clone()
        };
        let mut out = String::new();
        let mut i = 0;
        while i <= matchable.len() {
            let hit = if self.anchored_start && i != 0 {
                None
            } else {
                self.match_at(&matchable, i)
            };
            match hit {
                Some(end) if end > i => {
                    out.push_str(replacement);
                    i = end;
                }
                Some(_) => {
                    // Empty match: emit one char and advance to avoid loops.
                    out.push_str(replacement);
                    if i < chars.len() {
                        out.push(chars[i]);
                    }
                    i += 1;
                }
                None => {
                    if i < chars.len() {
                        out.push(chars[i]);
                    }
                    i += 1;
                }
            }
            if self.anchored_start && i > 0 && !out.is_empty() {
                // Anchored pattern can only match once at the start.
                out.extend(chars.get(i..).unwrap_or(&[]));
                return out;
            }
        }
        out
    }

    fn match_at(&self, chars: &[char], start: usize) -> Option<usize> {
        match_node(&self.prog, chars, start, self.case_insensitive, &mut 0)
    }
}

/// Backtracking matcher: returns the end offset of a successful match of
/// `node` starting at `pos`. `budget` caps backtracking steps so
/// pathological patterns fail closed instead of hanging.
fn match_node(
    node: &Node,
    chars: &[char],
    pos: usize,
    ci: bool,
    budget: &mut u64,
) -> Option<usize> {
    *budget += 1;
    if *budget > 1_000_000 {
        return None;
    }
    match node {
        Node::Seq(nodes) => match_seq(nodes, chars, pos, ci, budget),
        Node::Alt(arms) => arms
            .iter()
            .find_map(|arm| match_node(arm, chars, pos, ci, budget)),
        Node::Char(c) => {
            let want = if ci {
                c.to_lowercase().next().unwrap_or(*c)
            } else {
                *c
            };
            if chars.get(pos) == Some(&want) {
                Some(pos + 1)
            } else {
                None
            }
        }
        Node::Any => {
            if pos < chars.len() {
                Some(pos + 1)
            } else {
                None
            }
        }
        Node::Class { negated, items } => {
            let c = *chars.get(pos)?;
            let mut hit = items.iter().any(|item| class_item_matches(item, c, ci));
            if *negated {
                hit = !hit;
            }
            if hit {
                Some(pos + 1)
            } else {
                None
            }
        }
        Node::Repeat { node, min, max } => {
            match_repeat(node, *min, *max, &[], chars, pos, ci, budget)
        }
        Node::End => {
            if pos == chars.len() {
                Some(pos)
            } else {
                None
            }
        }
    }
}

fn match_seq(
    nodes: &[Node],
    chars: &[char],
    pos: usize,
    ci: bool,
    budget: &mut u64,
) -> Option<usize> {
    let Some((head, rest)) = nodes.split_first() else {
        return Some(pos);
    };
    if let Node::Repeat { node, min, max } = head {
        return match_repeat(node, *min, *max, rest, chars, pos, ci, budget);
    }
    let next = match_node(head, chars, pos, ci, budget)?;
    match_seq(rest, chars, next, ci, budget)
}

/// Longest-first repetition with backtracking into the continuation `rest`.
#[allow(clippy::too_many_arguments)]
fn match_repeat(
    inner: &Node,
    min: u32,
    max: Option<u32>,
    rest: &[Node],
    chars: &[char],
    pos: usize,
    ci: bool,
    budget: &mut u64,
) -> Option<usize> {
    // Collect all reachable end positions by repeated application.
    let mut ends = vec![pos];
    let mut cur = pos;
    let cap = max.unwrap_or(u32::MAX);
    while (ends.len() as u32 - 1) < cap {
        match match_node(inner, chars, cur, ci, budget) {
            Some(next) if next > cur => {
                ends.push(next);
                cur = next;
            }
            Some(_) => break, // zero-width inner match: stop expanding
            None => break,
        }
    }
    // Try longest first (greedy).
    for (count, &end) in ends.iter().enumerate().rev() {
        if (count as u32) < min {
            break;
        }
        if let Some(fin) = match_seq(rest, chars, end, ci, budget) {
            return Some(fin);
        }
    }
    None
}

fn class_item_matches(item: &ClassItem, c: char, ci: bool) -> bool {
    let eq = |a: char, b: char| {
        if ci {
            a.to_lowercase().eq(b.to_lowercase())
        } else {
            a == b
        }
    };
    match item {
        ClassItem::Char(x) => eq(*x, c),
        ClassItem::Range(lo, hi) => {
            if ci {
                let cl = c.to_lowercase().next().unwrap_or(c);
                let cu = c.to_uppercase().next().unwrap_or(c);
                (*lo..=*hi).contains(&cl) || (*lo..=*hi).contains(&cu) || (*lo..=*hi).contains(&c)
            } else {
                (*lo..=*hi).contains(&c)
            }
        }
        ClassItem::Digit => c.is_ascii_digit(),
        ClassItem::NonDigit => !c.is_ascii_digit(),
        ClassItem::Word => c.is_alphanumeric() || c == '_',
        ClassItem::NonWord => !(c.is_alphanumeric() || c == '_'),
        ClassItem::Space => c.is_whitespace(),
        ClassItem::NonSpace => !c.is_whitespace(),
    }
}

struct RParser {
    chars: Vec<char>,
    pos: usize,
}

impl RParser {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn parse_top(&mut self) -> Result<(Node, bool), RegexError> {
        let anchored = if self.peek() == Some('^') {
            self.pos += 1;
            true
        } else {
            false
        };
        let node = self.parse_alt()?;
        Ok((node, anchored))
    }

    fn parse_alt(&mut self) -> Result<Node, RegexError> {
        let mut arms = vec![self.parse_seq()?];
        while self.peek() == Some('|') {
            self.pos += 1;
            arms.push(self.parse_seq()?);
        }
        if arms.len() == 1 {
            Ok(arms.pop().expect("one arm"))
        } else {
            Ok(Node::Alt(arms))
        }
    }

    fn parse_seq(&mut self) -> Result<Node, RegexError> {
        let mut items = Vec::new();
        while let Some(c) = self.peek() {
            if c == '|' || c == ')' {
                break;
            }
            items.push(self.parse_repeatable()?);
        }
        Ok(Node::Seq(items))
    }

    fn parse_repeatable(&mut self) -> Result<Node, RegexError> {
        let atom = self.parse_atom()?;
        let node = match self.peek() {
            Some('*') => {
                self.pos += 1;
                Node::Repeat {
                    node: Box::new(atom),
                    min: 0,
                    max: None,
                }
            }
            Some('+') => {
                self.pos += 1;
                Node::Repeat {
                    node: Box::new(atom),
                    min: 1,
                    max: None,
                }
            }
            Some('?') => {
                self.pos += 1;
                Node::Repeat {
                    node: Box::new(atom),
                    min: 0,
                    max: Some(1),
                }
            }
            Some('{') => {
                return Err(RegexError(
                    "counted repetition {m,n} is not supported".into(),
                ))
            }
            _ => atom,
        };
        Ok(node)
    }

    fn parse_atom(&mut self) -> Result<Node, RegexError> {
        match self.bump() {
            Some('(') => {
                // Non-capturing prefix (?: is tolerated.
                if self.peek() == Some('?') {
                    self.pos += 1;
                    if self.peek() == Some(':') {
                        self.pos += 1;
                    } else {
                        return Err(RegexError("lookaround is not supported".into()));
                    }
                }
                let inner = self.parse_alt()?;
                if self.bump() != Some(')') {
                    return Err(RegexError("unclosed group".into()));
                }
                Ok(inner)
            }
            Some('[') => self.parse_class(),
            Some('.') => Ok(Node::Any),
            Some('$') => Ok(Node::End),
            Some('\\') => self.parse_escape(),
            Some('*') | Some('+') | Some('?') => Err(RegexError(
                "repetition operator with nothing to repeat".into(),
            )),
            Some(c) => Ok(Node::Char(c)),
            None => Err(RegexError("unexpected end of pattern".into())),
        }
    }

    fn parse_escape(&mut self) -> Result<Node, RegexError> {
        let one = |items: Vec<ClassItem>| Node::Class {
            negated: false,
            items,
        };
        match self.bump() {
            Some('d') => Ok(one(vec![ClassItem::Digit])),
            Some('D') => Ok(one(vec![ClassItem::NonDigit])),
            Some('w') => Ok(one(vec![ClassItem::Word])),
            Some('W') => Ok(one(vec![ClassItem::NonWord])),
            Some('s') => Ok(one(vec![ClassItem::Space])),
            Some('S') => Ok(one(vec![ClassItem::NonSpace])),
            Some('n') => Ok(Node::Char('\n')),
            Some('t') => Ok(Node::Char('\t')),
            Some('r') => Ok(Node::Char('\r')),
            Some(c) if !c.is_alphanumeric() => Ok(Node::Char(c)),
            Some(c) => Err(RegexError(format!("unsupported escape '\\{c}'"))),
            None => Err(RegexError("trailing backslash".into())),
        }
    }

    fn parse_class(&mut self) -> Result<Node, RegexError> {
        let negated = if self.peek() == Some('^') {
            self.pos += 1;
            true
        } else {
            false
        };
        let mut items = Vec::new();
        loop {
            match self.bump() {
                Some(']') if !items.is_empty() => return Ok(Node::Class { negated, items }),
                Some(']') => {
                    // A ']' first in the class is a literal.
                    items.push(ClassItem::Char(']'));
                }
                Some('\\') => match self.bump() {
                    Some('d') => items.push(ClassItem::Digit),
                    Some('D') => items.push(ClassItem::NonDigit),
                    Some('w') => items.push(ClassItem::Word),
                    Some('W') => items.push(ClassItem::NonWord),
                    Some('s') => items.push(ClassItem::Space),
                    Some('S') => items.push(ClassItem::NonSpace),
                    Some('n') => items.push(ClassItem::Char('\n')),
                    Some('t') => items.push(ClassItem::Char('\t')),
                    Some(c) => items.push(ClassItem::Char(c)),
                    None => return Err(RegexError("unterminated class".into())),
                },
                Some(c) => {
                    if self.peek() == Some('-')
                        && self.chars.get(self.pos + 1).is_some_and(|&n| n != ']')
                    {
                        self.pos += 1; // '-'
                        let hi = self.bump().expect("checked above");
                        if hi < c {
                            return Err(RegexError(format!("invalid range {c}-{hi}")));
                        }
                        items.push(ClassItem::Range(c, hi));
                    } else {
                        items.push(ClassItem::Char(c));
                    }
                }
                None => return Err(RegexError("unterminated character class".into())),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pat: &str, text: &str) -> bool {
        Regex::new(pat, "").unwrap().is_match(text)
    }

    #[test]
    fn literals_and_any() {
        assert!(m("apple", "green apples"));
        assert!(!m("apple", "grape"));
        assert!(m("a.c", "abc"));
        assert!(!m("a.c", "ac"));
    }

    #[test]
    fn repetition() {
        assert!(m("ab*c", "ac"));
        assert!(m("ab*c", "abbbc"));
        assert!(m("ab+c", "abc"));
        assert!(!m("ab+c", "ac"));
        assert!(m("ab?c", "ac"));
        assert!(m("ab?c", "abc"));
        assert!(!m("ab?c", "abbc"));
    }

    #[test]
    fn alternation_and_groups() {
        assert!(m("cat|dog", "hotdog"));
        assert!(m("(ab)+", "ababab"));
        assert!(m("gr(a|e)y", "grey"));
        assert!(m("gr(?:a|e)y", "gray"));
    }

    #[test]
    fn anchors() {
        assert!(m("^http", "http://e"));
        assert!(!m("^http", "see http://e"));
        assert!(m("soup$", "squash soup"));
        assert!(!m("soup$", "soup kitchen"));
        assert!(m("^full$", "full"));
        assert!(!m("^full$", "fullness"));
    }

    #[test]
    fn classes() {
        assert!(m("[a-z]+", "hello"));
        assert!(m("[0-9][0-9]", "year 42"));
        assert!(m("[^aeiou]", "sky"));
        assert!(!m("^[^s]", "sky"));
        assert!(m(r"\d+", "route 66"));
        assert!(m(r"\w+@\w+", "a_b@example"));
        assert!(m(r"\s", "a b"));
        assert!(!m(r"\S", "   "));
    }

    #[test]
    fn case_insensitive_flag() {
        let r = Regex::new("autumn", "i").unwrap();
        assert!(r.is_match("AUTUMN leaves"));
        assert!(r.is_match("Autumn"));
        let r = Regex::new("^Cauliflower", "i").unwrap();
        assert!(r.is_match("cauliflower potato curry"));
    }

    #[test]
    fn find_offsets() {
        let r = Regex::new("b+", "").unwrap();
        assert_eq!(r.find("aabbbcc"), Some((2, 5)));
        assert_eq!(r.find("no match"), None);
    }

    #[test]
    fn replace_all() {
        let r = Regex::new("o", "").unwrap();
        assert_eq!(r.replace_all("food stop", "0"), "f00d st0p");
        let r = Regex::new("[0-9]+", "").unwrap();
        assert_eq!(r.replace_all("a1b22c333", "#"), "a#b#c#");
    }

    #[test]
    fn errors() {
        assert!(Regex::new("a{2,3}", "").is_err());
        assert!(Regex::new("(unclosed", "").is_err());
        assert!(Regex::new("[unclosed", "").is_err());
        assert!(Regex::new("*oops", "").is_err());
        assert!(Regex::new("ok", "x").is_err());
    }

    #[test]
    fn escaped_metacharacters() {
        assert!(m(r"3\.5", "3.5"));
        assert!(!m(r"3\.5", "365"));
        assert!(m(r"\(note\)", "(note)"));
    }

    #[test]
    fn pathological_pattern_fails_closed() {
        // (a+)+b against a long run of 'a' — budget cap prevents hanging.
        let r = Regex::new("(a+)+b", "").unwrap();
        let text = "a".repeat(40);
        assert!(!r.is_match(&text));
    }
}
