//! Property suite for the JSON codec and the `POST /jobs` surface built on
//! it: every value the writer emits parses back to itself, and every
//! malformed, truncated, over-nested or out-of-range job body is refused
//! by `parse_job` and answered `4xx` with a JSON body, never a panic.

use std::time::Duration;

use izhi_bench::json::{self, Value};
use izhi_bench::serve::{
    http_request, parse_job, tiny_job_body, ServeConfig, Server, ServerHandle, JOB_KEYS,
};
use izhi_bench::supervise::SuperviseConfig;
use proptest::prelude::*;

/// SplitMix64, seeded per case, drives the recursive value generator (the
/// offline proptest shim has no recursive strategies).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Strings mixing quotes, backslashes, control characters, `/`, and
/// non-ASCII text up to astral code points.
fn string(rng: &mut Rng) -> String {
    const POOL: &[char] = &[
        'a',
        'Z',
        '0',
        ' ',
        '"',
        '\\',
        '/',
        '\n',
        '\r',
        '\t',
        '\u{0}',
        '\u{1f}',
        '\u{7f}',
        'é',
        'ß',
        '漢',
        '€',
        '\u{2028}',
        '😀',
        '\u{10ffff}',
    ];
    let len = rng.below(12);
    (0..len)
        .map(|_| match rng.below(3) {
            0 => char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('?'),
            _ => POOL[rng.below(POOL.len() as u64) as usize],
        })
        .collect()
}

fn int(rng: &mut Rng) -> i128 {
    match rng.below(5) {
        0 => rng.next() as i128,
        1 => rng.next() as i64 as i128,
        2 => rng.below(1000) as i128,
        3 => [0, u64::MAX as i128, i64::MIN as i128, (1 << 53) + 1][rng.below(4) as usize],
        _ => -(rng.below(1 << 20) as i128),
    }
}

fn float(rng: &mut Rng) -> f64 {
    loop {
        let x = match rng.below(3) {
            0 => f64::from_bits(rng.next()),
            1 => rng.below(1_000_000) as f64 / 1000.0,
            _ => [0.0, -0.0, 1e300, -1e-300, 5e-324, 2.0, 0.1][rng.below(7) as usize],
        };
        if x.is_finite() {
            return x;
        }
    }
}

fn value(rng: &mut Rng, depth: u32) -> Value {
    match rng.below(if depth == 0 { 5 } else { 7 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 1),
        2 => Value::Int(int(rng)),
        3 => Value::Float(float(rng)),
        4 => Value::Str(string(rng)),
        5 => Value::Array((0..rng.below(5)).map(|_| value(rng, depth - 1)).collect()),
        _ => Value::Object(
            (0..rng.below(5))
                .map(|_| (string(rng), value(rng, depth - 1)))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn written_values_parse_back_equal(seed in any::<u64>()) {
        let v = value(&mut Rng(seed), 4);
        let text = v.to_string();
        prop_assert_eq!(json::parse(&text), Ok(v.clone()), "{}", text);
    }
}

#[test]
fn integers_round_trip_exactly_across_u64_and_i64() {
    for i in [0, 1, (1 << 53) + 1, u64::MAX as i128, -1, i64::MIN as i128] {
        let text = Value::Int(i).to_string();
        assert_eq!(json::parse(&text), Ok(Value::Int(i)), "{text}");
    }
    assert_eq!(
        json::parse("18446744073709551615").unwrap().as_u64(),
        Some(u64::MAX)
    );
}

#[test]
fn non_finite_floats_are_written_as_null() {
    let doc = Value::object([
        ("nan", Value::Float(f64::NAN)),
        ("inf", Value::Float(f64::INFINITY)),
    ]);
    assert_eq!(doc.to_string(), r#"{"nan": null, "inf": null}"#);
    assert_eq!(Value::Float(f64::NAN).as_f64(), None);
}

#[test]
fn the_one_output_format() {
    let doc = Value::object([
        ("id", Value::Int(1)),
        (
            "rows",
            Value::Array(vec![
                Value::object([("key", "a".into()), ("ok", true.into())]),
                Value::Array(Vec::new()),
            ]),
        ),
        ("wall_s", Value::Float(0.25)),
    ]);
    let text = doc.to_string();
    assert_eq!(
        text,
        "{\n  \"id\": 1,\n  \"rows\": [\n    {\"key\": \"a\", \"ok\": true},\n    []\n  ],\n  \"wall_s\": 0.25\n}"
    );
    assert_eq!(json::parse(&text), Ok(doc));
}

#[test]
fn the_committed_bench_files_parse() {
    for text in [
        include_str!("../../../BENCH_1.json"),
        include_str!("../../../BENCH_2.json"),
        include_str!("../../../BENCH_3.json"),
        include_str!("../../../BENCH_4.json"),
        include_str!("../../../BENCH_5.json"),
        include_str!("../../../BENCH_6.json"),
        include_str!("../../../BENCH_7.json"),
        include_str!("../../../BENCH_8.json"),
        include_str!("../../../BENCH_9.json"),
    ] {
        let doc = json::parse(text).expect("BENCH files are JSON");
        assert!(doc.get("schema").and_then(Value::as_str).is_some());
    }
}

#[test]
fn nesting_is_capped_without_overflowing_the_stack() {
    let ok = format!(
        "{}{}",
        "[".repeat(json::MAX_DEPTH),
        "]".repeat(json::MAX_DEPTH)
    );
    assert!(json::parse(&ok).is_ok());
    let deep = format!(
        "{}{}",
        "[".repeat(json::MAX_DEPTH + 1),
        "]".repeat(json::MAX_DEPTH + 1)
    );
    assert!(json::parse(&deep).unwrap_err().contains("too deep"));
    assert!(json::parse(&"[".repeat(100_000)).is_err());
}

/// A small server for router probes.
fn server() -> ServerHandle {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_cap: 8,
        workers: 1,
        supervise: SuperviseConfig {
            wall_limit: Some(Duration::from_secs(30)),
            ..Default::default()
        },
    })
    .expect("server starts on an ephemeral port")
}

/// `parse_job` refuses `body` and the router answers it `4xx` with a JSON
/// body carrying an `error` string.
fn refused(addr: &str, body: &str) {
    assert!(parse_job(body).is_err(), "accepted: {body:.200}");
    let (status, resp) = http_request(addr, "POST", "/jobs", Some(body)).expect("submit");
    assert!((400..500).contains(&status), "{status} for {body:.200}");
    let doc = json::parse(&resp).unwrap_or_else(|e| panic!("{e}: {resp}"));
    assert!(doc.get("error").and_then(Value::as_str).is_some(), "{resp}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_bytes_are_refused(
        bodies in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..120), 16..17),
    ) {
        let handle = server();
        for bytes in bodies {
            refused(&handle.addr().to_string(), &String::from_utf8_lossy(&bytes));
        }
        handle.shutdown_and_join();
    }

    #[test]
    fn unknown_keys_are_refused(seed in any::<u64>()) {
        let key = string(&mut Rng(seed));
        prop_assume!(!JOB_KEYS.contains(&key.as_str()));
        let body = Value::object([
            ("scenario", "net8020".into()),
            (key.as_str(), Value::Int(5)),
        ]);
        let err = parse_job(&body.to_string()).unwrap_err();
        prop_assert!(err.contains("unknown key"), "{}", err);
    }
}

#[test]
fn truncated_over_nested_and_out_of_range_bodies_are_refused() {
    let handle = server();
    let addr = handle.addr().to_string();
    let full = r#"{"scenario": "net8020", "seed": 5, "sched": "relaxed", "quick": true, "ticks": 10, "n": 60, "n_cores": 1, "fault": "stall", "fault_arg": 1, "fault_core": 0, "fault_at": 0}"#;
    for body in [tiny_job_body(5).as_str(), full] {
        assert!(parse_job(body).is_ok(), "{body}");
        for end in 0..body.len() {
            refused(&addr, &body[..end]);
        }
    }
    for body in [
        "[".repeat(100_000),
        format!("{{\"scenario\": {}", "[".repeat(100_000)),
        "{\"a\":".repeat(100_000),
    ] {
        refused(&addr, &body);
    }
    for number in [
        "1e400",
        "-0",
        "18446744073709551616",
        "-1",
        "2.5",
        "1e3",
        "4294967296",
        "null",
    ] {
        refused(
            &addr,
            &format!("{{\"scenario\": \"net8020\", \"seed\": {number}}}"),
        );
    }
    handle.shutdown_and_join();
}
