//! Differential fuzzing of [`Json::parse`] against the char-at-a-time
//! string decoder that the one-pass decoder replaced, and the
//! linear-time regression test.
//!
//! The fuzzer is a deterministic SplitMix64 mutator (cargo-fuzz needs a
//! registry). Its seeds are the JSON files of the regression corpus,
//! batch bodies and JSON carriers of the shipped specs, and
//! escape-heavy strings. Every mutant must decode to an equal value, or
//! fail with an equal `(offset, message)` error, under both decoders.

use std::time::{Duration, Instant};

use super::{Json, JsonError, Parser};
use crate::rng::SplitMix64;

impl Parser<'_> {
    /// The reference decoder: it takes one char at a time and
    /// re-validates the rest of the input as UTF-8 for each, so it is
    /// quadratic in string length.
    pub(super) fn string_reference(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(JsonError::new(self.pos, "unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| JsonError::new(self.pos, "truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| JsonError::new(self.pos, "truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|e| JsonError::new(self.pos, e.to_string()))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|e| JsonError::new(self.pos, e.to_string()))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code).ok_or_else(|| {
                                    JsonError::new(self.pos, "bad \\u code point")
                                })?,
                            );
                        }
                        other => {
                            return Err(JsonError::new(
                                self.pos,
                                format!("bad escape {:?}", other as char),
                            ))
                        }
                    }
                }
                Some(_) => {
                    // Advance one full UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|e| JsonError::new(self.pos, e.to_string()))?;
                    let ch = rest.chars().next().expect("non-empty by construction");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }
}

fn reference_parse(text: &str) -> Result<Json, JsonError> {
    Parser {
        reference: true,
        ..Parser::new(text)
    }
    .parse()
}

/// Seeds that reach every branch of the string decoder: simple and
/// `\u` escapes (a signed `\u+041` included, which `from_str_radix`
/// accepts), surrogates, multibyte chars inside and around escapes, raw
/// control chars, and strings cut short.
const ESCAPE_SEEDS: &[&str] = &[
    r#""plain ascii""#,
    r#""a\"b\\c\/d\be\ff\ng\rh\ti""#,
    r#""\u0041\u00e9\u20ac\uffff\u0000""#,
    r#""\uD83D\uDE00""#,
    r#""\u+041\u-041""#,
    r#""\u12é4""#,
    r#""\x and \é""#,
    "\"é ∑ 😀 \\\"é\\\\ 😀\"",
    "\"raw \u{1}\u{1f}\t\n\u{7f} controls\"",
    "\"unterminated é",
    "\"ends in a backslash\\",
    "\"\\u00",
    r#"["a",{"kéy":"v\\"},"\"",{"":""}]"#,
    r#"{"spec":"[soc]\nppeak_gops = 40\n","edits":"\u0000é"}"#,
];

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// The files under `dir` with extension `ext`, sorted by name.
fn read_files(dir: &str, ext: &str) -> Vec<String> {
    let mut paths: Vec<_> = std::fs::read_dir(format!("{ROOT}/{dir}"))
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == ext))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|path| std::fs::read_to_string(path).expect("UTF-8 file"))
        .collect()
}

fn seeds() -> Vec<String> {
    let mut seeds = read_files("tests/corpus", "json");
    let mut specs = read_files("specs", "gables");
    specs.extend(read_files("specs", "ini"));
    let carrier = |spec: &str| {
        Json::Object(vec![
            ("spec".into(), Json::str(spec)),
            ("edits".into(), Json::str("ppeak_gops = 2")),
        ])
        .to_string()
    };
    seeds.extend(specs.iter().map(|spec| carrier(spec)));
    seeds.push(Json::Array(specs[..3].iter().map(Json::str).collect()).to_string());
    seeds.push(
        Json::Object(vec![(
            "specs".into(),
            Json::Array(specs.iter().map(Json::str).collect()),
        )])
        .to_string(),
    );
    seeds.extend(ESCAPE_SEEDS.iter().map(|s| s.to_string()));
    seeds
}

/// Byte strings the mutator inserts: JSON structure, escapes whole and
/// cut short, and chars of every UTF-8 length.
const TOKENS: &[&str] = &[
    "\"", "\\", "\\\"", "\\\\", "\\u", "\\u00e9", "\\uD83D", "\\u+04", "\\x", "é", "€", "😀",
    "\u{1}", "\u{7f}", "\n", "[", "]", "{", "}", ",", ":", "null", "-1.5e3", " ",
];

/// One to four random edits of `seed`; invalid UTF-8 left by a byte
/// edit becomes U+FFFD, so mutants stay `&str`.
fn mutate(rng: &mut SplitMix64, seed: &str, seeds: &[String]) -> String {
    let mut doc = seed.as_bytes().to_vec();
    for _ in 0..rng.range_usize(1, 4) {
        let at = rng.range_usize(0, doc.len());
        let len = rng.range_usize(1, 16).min(doc.len() - at);
        match rng.range_u64(0, 5) {
            0 if at < doc.len() => doc[at] = rng.next_u64() as u8,
            1 => {
                let token = TOKENS[rng.range_usize(0, TOKENS.len() - 1)];
                doc.splice(at..at, token.bytes());
            }
            2 => {
                doc.drain(at..at + len);
            }
            3 => {
                let copy = doc[at..at + len].to_vec();
                doc.splice(at..at, copy);
            }
            4 => doc.truncate(at),
            _ => {
                let other = seeds[rng.range_usize(0, seeds.len() - 1)].as_bytes();
                let from = rng.range_usize(0, other.len());
                let end = (from + rng.range_usize(1, 32)).min(other.len());
                doc.splice(at..at, other[from..end].iter().copied());
            }
        }
    }
    String::from_utf8_lossy(&doc).into_owned()
}

fn assert_same(doc: &str) -> bool {
    let got = Json::parse(doc);
    assert_eq!(got, reference_parse(doc), "{doc:?}");
    got.is_ok()
}

#[test]
fn every_prefix_of_the_escape_seeds_decodes_like_the_reference() {
    for seed in ESCAPE_SEEDS {
        for (cut, _) in seed.char_indices().chain([(seed.len(), ' ')]) {
            assert_same(&seed[..cut]);
        }
    }
}

#[test]
fn mutants_decode_like_the_char_at_a_time_reference() {
    const MUTANTS: usize = 50_000;
    let seeds = seeds();
    for seed in &seeds {
        assert_same(seed);
    }
    let mut rng = SplitMix64::new(0x4a53_4f4e);
    let mut accepted = 0;
    for i in 0..MUTANTS {
        let doc = mutate(&mut rng, &seeds[i % seeds.len()], &seeds);
        if assert_same(&doc) {
            accepted += 1;
        }
    }
    // Both verdicts must be well exercised, or the fuzzer compares
    // little beyond one error path.
    assert!(
        (MUTANTS / 20..MUTANTS - MUTANTS / 20).contains(&accepted),
        "{accepted} of {MUTANTS} mutants parsed"
    );
}

#[test]
fn a_one_mib_string_decodes_in_linear_time() {
    // The quadratic reference decoder needs seconds for the first
    // document even in a release build; the one-pass decoder needs
    // milliseconds in debug, so the budget separates them widely.
    const UNIT: &str = r#"ppeak_gops = 40 é→😀 \"\\\n\u00e9 "#;
    const DECODED: &str = "ppeak_gops = 40 é→😀 \"\\\né ";
    let ascii = "a".repeat(1 << 20);
    let mixed = UNIT.repeat((1 << 20) / UNIT.len());
    for (doc, decoded) in [
        (format!("{{\"spec\":\"{ascii}\"}}"), ascii.clone()),
        (
            format!("\"{mixed}\""),
            DECODED.repeat(mixed.len() / UNIT.len()),
        ),
    ] {
        let start = Instant::now();
        let value = Json::parse(&doc).expect("valid document");
        let elapsed = start.elapsed();
        let text = value.get("spec").unwrap_or(&value).as_str();
        assert_eq!(text, Some(decoded.as_str()));
        assert!(
            elapsed < Duration::from_secs(2),
            "a {} byte document took {elapsed:?}",
            doc.len()
        );
    }
}
