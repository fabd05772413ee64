//! Hostile text fed to [`serde_json::parse_value_str`]: truncated,
//! bit-flipped, random and deeply nested input must come back as `Err`
//! (or, for a flip that happens to leave valid JSON, as `Ok`), never as a
//! panic or a stack overflow.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use serde_json::{parse_value_str, to_string};

/// A document that reaches every parser branch: nested arrays and
/// objects, escapes and surrogate pairs, negative, float, exponent and
/// 64-bit integers, and the three literals.
fn sample_document() -> String {
    let leaf = |i: u64| {
        Value::Object(vec![
            ("id".into(), Value::UInt(u64::MAX - i)),
            ("neg".into(), Value::Int(-(i as i64) - 1)),
            ("x".into(), Value::Float(-1.25e-7 * i as f64)),
            ("s".into(), Value::Str(format!("é\n\"\\\t😀{i}\u{1}"))),
            (
                "flags".into(),
                Value::Array(vec![Value::Bool(true), Value::Bool(false), Value::Null]),
            ),
        ])
    };
    let doc = Value::Object(vec![
        ("name".into(), Value::Str("host😀ile/".into())),
        ("items".into(), Value::Array((0..4).map(leaf).collect())),
        ("nested".into(), Value::Array(vec![Value::Array(vec![leaf(9), Value::Object(vec![])])])),
    ]);
    // The printer writes `😀` and `/` raw; spell them as a surrogate-pair
    // and a solidus escape so the parser's `\u` pair branch runs too.
    let text = to_string(&doc).expect("serialize").replace("host😀ile/", r"host\ud83d\ude00ile\/");
    assert!(text.contains(r"\ud83d\ude00ile\/"), "{text}");
    assert_eq!(parse_value_str(&text).expect("the sample parses"), doc);
    text
}

#[test]
fn every_truncation_is_an_error() {
    let text = sample_document();
    for cut in (0..text.len()).filter(|&k| text.is_char_boundary(k)) {
        assert!(parse_value_str(&text[..cut]).is_err(), "prefix of {cut} bytes parsed");
    }
}

#[test]
fn deep_nesting_is_an_error() {
    for depth in [129usize, 1_000, 100_000] {
        let arrays = "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse_value_str(&arrays).is_err(), "{depth} arrays");
        let objects = "{\"k\":".repeat(depth) + "0" + &"}".repeat(depth);
        assert!(parse_value_str(&objects).is_err(), "{depth} objects");
        let mixed = "[{\"k\":".repeat(depth / 2) + "[";
        assert!(parse_value_str(&mixed).is_err(), "{depth} unclosed");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn bit_flips_never_panic(seed in 0u64..u64::MAX, flips in 1usize..4) {
        let mut bytes = sample_document().into_bytes();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..flips {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= 1 << rng.gen_range(0..8);
        }
        if let Ok(text) = std::str::from_utf8(&bytes) {
            // A flip may leave valid JSON (a digit for a digit); the parse
            // only has to return.
            let _ = parse_value_str(text);
        }
    }

    #[test]
    fn random_text_never_panics(seed in 0u64..u64::MAX, len in 0usize..200) {
        // Bytes drawn mostly from JSON's own alphabet reach deeper into
        // the parser than uniform noise does.
        const ALPHABET: &[u8] = b"{}[]\":,.-+eE0123456789 \\utrfalsn\n\xc3\xa9";
        let mut rng = StdRng::seed_from_u64(seed);
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                if rng.gen_bool(0.8) {
                    ALPHABET[rng.gen_range(0..ALPHABET.len())]
                } else {
                    rng.gen_range(0..=255u8)
                }
            })
            .collect();
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse_value_str(&text);
        // A valid document followed by random text is never valid.
        let tail = format!("{}{}", sample_document(), text.trim_start());
        prop_assert!(text.trim().is_empty() || parse_value_str(&tail).is_err());
    }
}
