//! Load generator for the scenario service: burst jobs past the queue
//! capacity, assert backpressure and failure isolation, print a report.
//!
//! Two modes:
//!
//! * `serve_load` — self-hosted: starts an in-process server on an
//!   ephemeral port, bursts against it, shuts it down. This is what the
//!   CI serve-smoke job runs.
//! * `serve_load --addr 127.0.0.1:7171` — bursts against an already
//!   running `izhirisc serve`.
//!
//! Exits non-zero when the burst violates any of the service guarantees:
//! accepted jobs must all finish, rejections must carry a retry hint,
//! health checks must be answered throughout, and injected faults must
//! fail structurally without taking the server down.

use std::time::Duration;

use izhi_bench::serve::{
    burst_bodies, failure_isolated, generate_load, LoadReport, ServeConfig, Server,
};

fn usage() -> ! {
    eprintln!(
        "usage: serve_load [--addr HOST:PORT] [--jobs N] [--queue-cap N] [--workers N] [--faults]\n\
         \n\
         Bursts N jobs (default 50) against the scenario service. Without\n\
         --addr a server is started in-process on an ephemeral port with\n\
         the given --queue-cap (default 8) and --workers (default 2).\n\
         --faults seeds the burst with a host-panic job and a guest-trap\n\
         job and asserts both are isolated."
    );
    std::process::exit(2);
}

struct Args {
    addr: Option<String>,
    jobs: usize,
    queue_cap: usize,
    workers: usize,
    faults: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: None,
        jobs: 50,
        queue_cap: 8,
        workers: 2,
        faults: true,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("error: {name} needs a value");
                usage();
            })
        };
        match arg.as_str() {
            "--addr" => args.addr = Some(value("--addr")),
            "--jobs" => {
                args.jobs = value("--jobs").parse().unwrap_or_else(|_| usage());
            }
            "--queue-cap" => {
                args.queue_cap = value("--queue-cap").parse().unwrap_or_else(|_| usage());
            }
            "--workers" => {
                args.workers = value("--workers").parse().unwrap_or_else(|_| usage());
            }
            "--faults" => args.faults = true,
            "--no-faults" => args.faults = false,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown argument `{other}`");
                usage();
            }
        }
    }
    args
}

fn print_report(r: &LoadReport) {
    println!("submitted            {}", r.submitted);
    println!("accepted             {}", r.accepted);
    println!("rejected (429)       {}", r.rejected);
    println!("completed            {}", r.completed);
    println!("failed (structured)  {}", r.failed);
    if !r.failure_kinds.is_empty() {
        println!("failure kinds        {}", r.failure_kinds.join(", "));
    }
    println!(
        "health checks        {}/{} ok",
        r.health_ok, r.health_checks
    );
    println!("backpressure hinted  {}", r.backpressure_hinted);
    println!("wall                 {:.3} s", r.wall_s);
    println!("throughput           {:.2} jobs/s", r.throughput_jobs_per_s);
}

fn main() {
    let args = parse_args();
    let bodies = burst_bodies(args.jobs as u32, args.faults);

    let (report, served_inline) = match &args.addr {
        Some(addr) => (
            generate_load(addr, &bodies, Duration::from_secs(180)),
            false,
        ),
        None => {
            let handle = Server::start(ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                queue_cap: args.queue_cap,
                workers: args.workers,
                ..Default::default()
            })
            .unwrap_or_else(|e| {
                eprintln!("error: failed to start in-process server: {e}");
                std::process::exit(1);
            });
            let addr = handle.addr().to_string();
            println!(
                "serving in-process on {addr} (queue cap {}, {} workers)",
                args.queue_cap, args.workers
            );
            let report = generate_load(&addr, &bodies, Duration::from_secs(180));
            handle.shutdown_and_join();
            (report, true)
        }
    };

    let report = report.unwrap_or_else(|e| {
        eprintln!("error: burst failed: {e}");
        std::process::exit(1);
    });
    print_report(&report);

    let mut failures = Vec::new();
    if report.accepted + report.rejected != report.submitted {
        failures.push("some submissions neither accepted nor backpressured".to_string());
    }
    if report.completed + report.failed != report.accepted {
        failures.push("some accepted jobs never finished".to_string());
    }
    if !report.backpressure_hinted {
        failures.push("a 429 lacked the retry_after_ms hint".to_string());
    }
    if report.health_ok != report.health_checks {
        failures.push(format!(
            "{} of {} health checks went unanswered",
            report.health_checks - report.health_ok,
            report.health_checks
        ));
    }
    if served_inline && args.jobs > args.queue_cap * 3 && report.rejected == 0 {
        // A burst far past capacity that never saw a 429 means the
        // bounded queue is not actually bounding.
        failures.push("burst far beyond queue capacity saw no backpressure".to_string());
    }
    if args.faults && args.jobs >= 2 && !failure_isolated(&report) {
        failures.push("injected faults were not isolated as structured failures".to_string());
    }
    if failures.is_empty() {
        println!("OK: service guarantees held under the burst");
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
