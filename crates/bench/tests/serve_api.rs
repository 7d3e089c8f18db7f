//! Scenario-service acceptance suite: the HTTP API contract, bounded-
//! queue backpressure, per-job supervision (a poisoned job must never
//! take the server down), and graceful shutdown that drains accepted
//! work while still answering health and status queries.

use std::time::{Duration, Instant};

use izhi_bench::json::{self, Value};
use izhi_bench::serve::{
    burst_bodies, failure_isolated, generate_load, http_request, json_field_str, json_field_u64,
    tiny_job_body, ServeConfig, Server, ServerHandle,
};
use izhi_bench::supervise::SuperviseConfig;

fn start(queue_cap: usize, workers: usize) -> ServerHandle {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_cap,
        workers,
        supervise: SuperviseConfig {
            wall_limit: Some(Duration::from_secs(30)),
            ..Default::default()
        },
    })
    .expect("server starts on an ephemeral port")
}

/// Poll one job until it leaves the queue/running states.
fn wait_for_job(addr: &str, id: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, body) =
            http_request(addr, "GET", &format!("/jobs/{id}"), None).expect("status query");
        assert_eq!(status, 200, "job {id}: {body}");
        match json_field_str(&body, "status").as_deref() {
            Some("done") | Some("failed") => return body,
            _ if Instant::now() > deadline => panic!("job {id} never finished: {body}"),
            _ => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

#[test]
fn health_and_submit_and_result_round_trip() {
    let handle = start(8, 2);
    let addr = handle.addr().to_string();

    let (status, body) = http_request(&addr, "GET", "/health", None).expect("health");
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_field_str(&body, "status").as_deref(), Some("ok"));

    let (status, body) =
        http_request(&addr, "POST", "/jobs", Some(&tiny_job_body(5))).expect("submit");
    assert_eq!(status, 202, "{body}");
    let id = json_field_u64(&body, "id").expect("id in the 202");

    let body = wait_for_job(&addr, id);
    assert_eq!(
        json_field_str(&body, "status").as_deref(),
        Some("done"),
        "{body}"
    );
    assert!(json_field_u64(&body, "spikes").unwrap_or(0) > 0, "{body}");
    assert!(json_field_str(&body, "raster_hash").is_some(), "{body}");

    handle.shutdown_and_join();
}

#[test]
fn bad_requests_are_rejected_not_crashed() {
    let handle = start(8, 1);
    let addr = handle.addr().to_string();

    for (body, what) in [
        ("not json", "garbage body"),
        ("{\"scenario\": \"does-not-exist\"}", "unknown scenario"),
        ("{\"seed\": 1}", "missing scenario"),
        (
            "{\"scenario\": \"net8020\", \"sched\": \"warp-speed\"}",
            "unknown sched",
        ),
        (
            "{\"scenario\": \"net8020_large\", \"n_cores\": 1, \"quick\": false}",
            "a shape the engine cannot build",
        ),
        (
            "{\"scenario\": \"net8020_stdp\", \"n\": 28000, \"ticks\": 5, \"quick\": false}",
            "tables past the scaled memory map",
        ),
        ("{\"scenario\": \"a\\\"b\"}", "a quote in the echoed name"),
        (
            "{\"scenario\": \"net8020\", \"seed\": 2.5}",
            "a fractional seed",
        ),
        ("{\"scenario\": \"net8020\", \"sed\": 5}", "an unknown key"),
    ] {
        let (status, resp) = http_request(&addr, "POST", "/jobs", Some(body)).expect(what);
        assert_eq!(status, 400, "{what}: {resp}");
        let error = json::parse(&resp).map(|doc| doc.get("error").cloned());
        assert!(matches!(error, Ok(Some(Value::Str(_)))), "{what}: {resp}");
    }
    for (method, path, want) in [
        ("GET", "/jobs/999", 404),
        ("GET", "/jobs/x", 400),
        ("GET", "/nope", 404),
        ("DELETE", "/health", 405),
    ] {
        let (status, resp) = http_request(&addr, method, path, None).expect(path);
        assert_eq!(status, want, "{method} {path}: {resp}");
        assert!(json::parse(&resp).is_ok(), "{method} {path}: {resp}");
    }

    // The server still works after all of that.
    let (status, _) = http_request(&addr, "GET", "/health", None).expect("health");
    assert_eq!(status, 200);
    handle.shutdown_and_join();
}

#[test]
fn a_burst_beyond_capacity_is_backpressured_and_accepted_jobs_complete() {
    // 50 jobs into a queue of 4 with 2 workers: rejections are certain,
    // and every accepted job must still complete while health stays up.
    let handle = start(4, 2);
    let addr = handle.addr().to_string();
    // Two poisoned jobs ride along: a host panic and a guest trap.
    let bodies = burst_bodies(50, true);

    // `generate_load` errors on any submit status but 202 and 429, so
    // `accepted + rejected == submitted` holds by construction.
    let report = generate_load(&addr, &bodies, Duration::from_secs(120)).expect("burst");
    assert_eq!(report.submitted, 50);
    assert!(report.rejected > 0, "burst past capacity must see 429s");
    assert!(report.backpressure_hinted, "429s carry retry_after_ms");
    assert_eq!(
        report.completed + report.failed,
        report.accepted,
        "every accepted job finished"
    );
    assert!(report.completed >= 1, "the burst made progress");
    assert_eq!(
        report.health_ok, report.health_checks,
        "health stayed answered throughout"
    );
    assert!(
        failure_isolated(&report),
        "poisoned jobs must fail structurally without downing the server: {report:?}"
    );
    handle.shutdown_and_join();
}

#[test]
fn a_panicking_job_reports_its_kind_and_spares_its_neighbours() {
    let handle = start(8, 1); // single worker: the panic and the clean job share it
    let addr = handle.addr().to_string();

    let poison = "{\"scenario\": \"net8020\", \"seed\": 5, \"ticks\": 10, \"n\": 60, \
                  \"fault\": \"panic\", \"fault_at\": 1000}";
    let (status, body) = http_request(&addr, "POST", "/jobs", Some(poison)).expect("submit");
    assert_eq!(status, 202, "{body}");
    let poison_id = json_field_u64(&body, "id").unwrap();
    let (status, body) =
        http_request(&addr, "POST", "/jobs", Some(&tiny_job_body(7))).expect("submit");
    assert_eq!(status, 202, "{body}");
    let clean_id = json_field_u64(&body, "id").unwrap();

    let body = wait_for_job(&addr, poison_id);
    assert_eq!(
        json_field_str(&body, "status").as_deref(),
        Some("failed"),
        "{body}"
    );
    assert_eq!(
        json_field_str(&body, "error_kind").as_deref(),
        Some("panic"),
        "{body}"
    );
    let body = wait_for_job(&addr, clean_id);
    assert_eq!(
        json_field_str(&body, "status").as_deref(),
        Some("done"),
        "the worker survived the panic: {body}"
    );
    handle.shutdown_and_join();
}

#[test]
fn shutdown_drains_accepted_jobs_and_refuses_new_ones() {
    let handle = start(16, 2);
    let addr = handle.addr().to_string();
    let ids: Vec<u64> = (0..6u32)
        .map(|seed| {
            let (status, body) =
                http_request(&addr, "POST", "/jobs", Some(&tiny_job_body(seed))).expect("submit");
            assert_eq!(status, 202, "{body}");
            json_field_u64(&body, "id").unwrap()
        })
        .collect();

    let (status, body) = http_request(&addr, "POST", "/shutdown", None).expect("shutdown");
    assert_eq!(status, 202, "{body}");

    // While draining: no new admissions, but health and status answer.
    let (status, _) =
        http_request(&addr, "POST", "/jobs", Some(&tiny_job_body(99))).expect("late submit");
    assert_eq!(status, 503, "admissions closed during the drain");
    let (status, body) = http_request(&addr, "GET", "/health", None).expect("health");
    assert_eq!(status, 200);
    assert!(body.contains("\"draining\": true"), "{body}");

    // Every job accepted before the shutdown still completes.
    for id in ids {
        let body = wait_for_job(&addr, id);
        assert_eq!(
            json_field_str(&body, "status").as_deref(),
            Some("done"),
            "accepted job {id} drained: {body}"
        );
    }
    handle.join();
}
