//! The JSON layer end to end: the serde adapter (`soccar::json`) and the
//! streaming writer and strict reader in `soccar_obs::json`.
//!
//! The property tests check that whatever the writer emits, compact or
//! pretty, reads back to the value that was written: arbitrary strings
//! over all Unicode scalar values (quotes, backslashes, every control
//! character, non-BMP characters) and trees nested up to the reader's
//! `MAX_DEPTH`.

use std::collections::BTreeMap;

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use serde::Serialize;
use soccar::json::{to_json, to_json_pretty};
use soccar_obs::json::{Json, Writer, MAX_DEPTH};

/// Writes `value` compact and pretty; both must parse back to it.
fn assert_round_trips(value: &Json) {
    for pretty in [false, true] {
        let mut text = String::new();
        let mut w = if pretty {
            Writer::pretty(&mut text)
        } else {
            Writer::compact(&mut text)
        };
        value.write(&mut w);
        let parsed = Json::parse(&text).unwrap_or_else(|e| panic!("{e} in {text:?}"));
        assert_eq!(&parsed, value, "pretty={pretty}: {text:?}");
    }
}

/// Strings over every Unicode scalar value, weighted so control
/// characters, ASCII punctuation (`"` and `\`) and non-BMP characters
/// all show up often. Surrogate code points are not scalar values and
/// are dropped.
fn any_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            0u32..=0x1F,
            0x20..=0x7F,
            0x80..=0xFFFF,
            0x1_0000..=0x10_FFFF
        ],
        0..24,
    )
    .prop_map(|codes| codes.into_iter().filter_map(char::from_u32).collect())
}

/// JSON trees whose container nesting is anywhere from 0 to
/// [`MAX_DEPTH`]: a spine of arrays and objects with random scalar and
/// small-container siblings at every level.
struct Tree;

impl Tree {
    fn scalar(rng: &mut TestRng) -> Json {
        match rng.next_u64() % 6 {
            0 => Json::Null,
            1 => Json::Bool(rng.next_u64() % 2 == 0),
            2 => Json::Num((rng.next_u64() >> 11) as f64),
            3 => Json::Num(-((rng.next_u64() % 1000) as f64) / 8.0),
            4 => {
                let x = f64::from_bits(rng.next_u64());
                Json::Num(if x.is_finite() { x } else { 0.5 })
            }
            _ => Json::Str(any_string().generate(rng)),
        }
    }

    /// A value beside the spine; a container only where it stays within
    /// the spine's depth.
    fn sibling(rng: &mut TestRng, room: bool) -> Json {
        match rng.next_u64() % 4 {
            0 if room => Json::Arr(Vec::new()),
            1 if room => Json::Obj(Vec::new()),
            _ => Tree::scalar(rng),
        }
    }

    /// A value with exactly `depth` nested containers along its spine.
    fn spine(rng: &mut TestRng, depth: usize) -> Json {
        if depth == 0 {
            return Tree::scalar(rng);
        }
        let child = Tree::spine(rng, depth - 1);
        let mut items: Vec<Json> = (0..rng.next_u64() % 3)
            .map(|_| Tree::sibling(rng, depth > 1))
            .collect();
        let at = (rng.next_u64() % (items.len() as u64 + 1)) as usize;
        items.insert(at, child);
        if rng.next_u64() % 2 == 0 {
            Json::Arr(items)
        } else {
            Json::Obj(
                items
                    .into_iter()
                    .map(|value| (any_string().generate(rng), value))
                    .collect(),
            )
        }
    }
}

impl Strategy for Tree {
    type Value = Json;

    fn generate(&self, rng: &mut TestRng) -> Json {
        let depth = (rng.next_u64() % (MAX_DEPTH as u64 + 1)) as usize;
        Tree::spine(rng, depth)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn any_string_round_trips_through_writer_and_serde(s in any_string()) {
        assert_round_trips(&Json::Str(s.clone()));
        assert_round_trips(&Json::Obj(vec![(s.clone(), Json::Str(s.clone()))]));
        let via_serde = Json::parse(&to_json(&s).expect("serializes")).expect("parses");
        prop_assert_eq!(via_serde, Json::Str(s));
    }

    #[test]
    fn trees_up_to_max_depth_round_trip(tree in Tree) {
        assert_round_trips(&tree);
    }
}

#[test]
fn the_deepest_accepted_tree_round_trips() {
    let mut rng = TestRng::for_case(7);
    assert_round_trips(&Tree::spine(&mut rng, MAX_DEPTH));
}

#[derive(Serialize)]
struct Inner {
    name: String,
    hits: u32,
}

#[derive(Serialize)]
struct Outer {
    ok: bool,
    items: Vec<Inner>,
    note: Option<String>,
}

fn sample() -> Outer {
    Outer {
        ok: true,
        items: vec![
            Inner {
                name: "a\"b".into(),
                hits: 3,
            },
            Inner {
                name: "line\nbreak".into(),
                hits: 0,
            },
        ],
        note: None,
    }
}

#[test]
fn compact_output_round_trips_structure() {
    let json = to_json(&sample()).expect("serializes");
    assert_eq!(
        json,
        r#"{"ok":true,"items":[{"name":"a\"b","hits":3},{"name":"line\nbreak","hits":0}],"note":null}"#
    );
    let parsed = Json::parse(&json).expect("parses");
    assert_eq!(
        parsed
            .get("items")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(2)
    );
}

#[test]
fn pretty_output_is_indented() {
    let json = to_json_pretty(&sample()).expect("serializes");
    assert!(json.starts_with("{\n  \"ok\": true,"));
    assert!(json.ends_with("\n}"));
    assert!(json.contains("\n    {\n      \"name\": \"a\\\"b\","));
    assert_eq!(
        Json::parse(&json).expect("parses"),
        Json::parse(&to_json(&sample()).expect("serializes")).expect("parses")
    );
}

#[test]
fn scalars_and_maps() {
    let mut m = BTreeMap::new();
    m.insert("k".to_string(), vec![1u32, 2]);
    assert_eq!(to_json(&m).expect("serializes"), r#"{"k":[1,2]}"#);
    assert_eq!(to_json(&-5i32).expect("serializes"), "-5");
    assert_eq!(to_json("x").expect("serializes"), "\"x\"");
    assert_eq!(to_json(&f64::NAN).expect("serializes"), "null");
    assert_eq!(to_json(&1.5f64).expect("serializes"), "1.5");
}

#[test]
fn non_string_map_keys_are_quoted() {
    let mut m = BTreeMap::new();
    m.insert(7u32, "seven");
    assert_eq!(to_json(&m).expect("serializes"), r#"{"7":"seven"}"#);
    let mut m = BTreeMap::new();
    m.insert("a\"b".to_owned(), true);
    assert_eq!(to_json(&m).expect("serializes"), r#"{"a\"b":true}"#);
}

#[test]
fn empty_containers_stay_tight_in_pretty_mode() {
    let empty: Vec<u32> = vec![];
    assert_eq!(to_json_pretty(&empty).expect("serializes"), "[]");
    let nested: Vec<Vec<u32>> = vec![vec![]];
    assert_eq!(to_json_pretty(&nested).expect("serializes"), "[\n  []\n]");
}

#[test]
fn control_chars_are_escaped() {
    assert_eq!(to_json("\u{1}").expect("serializes"), "\"\\u0001\"");
    assert_eq!(
        to_json("\u{1f}\u{7f}").expect("serializes"),
        "\"\\u001f\u{7f}\""
    );
}

#[test]
fn top_level_values_are_newline_separated() {
    let mut out = String::new();
    let mut w = Writer::compact(&mut out);
    w.begin_object().key("n").u64(1).end_object();
    w.begin_object().key("n").u64(2).end_object();
    assert_eq!(out, "{\"n\":1}\n{\"n\":2}");
}

#[test]
fn scalars_parse() {
    assert_eq!(Json::parse("null").unwrap(), Json::Null);
    assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
    assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
    assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
    assert_eq!(Json::parse("-1.5e2").unwrap(), Json::Num(-150.0));
    assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
}

#[test]
fn escapes_decode() {
    // Exactly the escapes the writer emits.
    let parsed = Json::parse("\"a\\\"b\\\\c\\nd\\te\\rf\\u0001g\"").unwrap();
    assert_eq!(parsed, Json::Str("a\"b\\c\nd\te\rf\u{1}g".into()));
    // The ones it never emits, which other writers may.
    let parsed = Json::parse(r#""\/\b\f\u00e9\u00E9""#).unwrap();
    assert_eq!(parsed, Json::Str("/\u{8}\u{c}éé".into()));
    // A raw non-BMP character, and the same one as a surrogate pair.
    assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::Str("😀".into()));
    assert_eq!(
        Json::parse(r#""\ud83d\ude00x""#).unwrap(),
        Json::Str("😀x".into())
    );
}

#[test]
fn objects_preserve_order_and_support_lookup() {
    let v = Json::parse(r#"{"cmd":"analyze","cycles":24,"flags":["a","b"],"deep":{"x":null}}"#)
        .unwrap();
    assert_eq!(v.str_field("cmd"), Some("analyze"));
    assert_eq!(v.u64_field("cycles"), Some(24));
    assert_eq!(v.str_list_field("flags"), vec!["a", "b"]);
    assert!(v.get("deep").unwrap().get("x").unwrap().is_null());
    assert_eq!(v.str_field("missing"), None);
    assert!(!v.bool_field("missing"));
    assert_eq!(
        v.to_string(),
        r#"{"cmd":"analyze","cycles":24,"flags":["a","b"],"deep":{"x":null}}"#
    );
}

#[test]
fn verilog_source_survives_a_round_trip_through_the_writer() {
    #[derive(Serialize)]
    struct Payload<'a> {
        source: &'a str,
    }
    let source = "module top(input clk);\n\t// \"quoted\" comment\\\nendmodule\n";
    let text = to_json(&Payload { source }).unwrap();
    let parsed = Json::parse(&text).unwrap();
    assert_eq!(parsed.str_field("source"), Some(source));
}

#[test]
fn strict_errors() {
    for bad in [
        "",
        "{",
        "[1,]",
        "{\"a\":1,}",
        "true false",
        "\"\u{1}\"",         // raw control char
        "\"abc",             // unterminated
        "\"\\x\"",           // unknown escape
        r#""\ud800x""#,      // lone high surrogate
        r#""\ud800\u0041""#, // high surrogate without a low one
        r#""\udc00""#,       // lone low surrogate
        r#""\u12""#,         // truncated \u escape
        r#""\u12g4""#,       // bad hex
        "{\"a\" 1}",
        "{1:2}",
        "nul",
        "-",
    ] {
        assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
    }
}

#[test]
fn duplicate_keys_keep_the_last() {
    let v = Json::parse(r#"{"a":1,"a":2}"#).unwrap();
    assert_eq!(v.u64_field("a"), Some(2));
}
