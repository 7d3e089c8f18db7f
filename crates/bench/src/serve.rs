//! The scenario service: a long-running batch server over the scenario
//! registry (`izhirisc serve`).
//!
//! The ROADMAP's north star is serving heavy traffic, so the service is
//! built around *graceful overload behaviour* rather than raw features:
//!
//! * **Bounded queue + explicit backpressure.** Submissions beyond
//!   [`ServeConfig::queue_cap`] are rejected with `429` and a
//!   `retry_after_ms` hint instead of queueing unboundedly — the client
//!   is told to come back, the server never falls over.
//! * **Supervised workers.** Every job runs through
//!   [`crate::supervise::run_supervised`]: panics, guest traps, cycle
//!   budgets and wall-clock stalls become structured per-job failures
//!   ([`RunErrorKind`]) while the worker (and every other job) survives.
//! * **Graceful shutdown.** `POST /shutdown` stops admissions, lets the
//!   workers drain queued and in-flight jobs, and keeps status/health
//!   queries answered throughout the drain.
//!
//! The whole stack is `std`-only: HTTP/1.1 on [`std::net::TcpListener`],
//! the workspace's JSON codec ([`crate::json`]) for every request and
//! response body, and a `Mutex<VecDeque> + Condvar` queue. The workspace
//! is offline, so no dependency was an option — and none is needed at this
//! size.
//!
//! ## Endpoints
//!
//! | Method & path | Purpose |
//! |---|---|
//! | `GET /health` | queue/worker counters; always answered, even while draining |
//! | `POST /jobs` | submit a job document; `202` + id, or `429` when full |
//! | `GET /jobs/<id>` | status/result of one job |
//! | `POST /shutdown` | stop admissions, drain, exit |
//!
//! A job document is a JSON object:
//! `{"scenario": "net8020", "seed": 5, "sched": "relaxed", "ticks": 20}`.
//! It accepts exactly these keys ([`JOB_KEYS`]): `scenario` (required),
//! `sched` (a battery label, default `"relaxed"`), `quick` (default
//! `true`), the integers `seed`, `ticks`, `n` and `n_cores`, and the
//! fault-injection knobs `fault` (`"panic" | "trap" | "stall" |
//! "corrupt"`), `fault_arg`, `fault_core` and `fault_at` for chaos drills.
//! An integer field takes an integer token (no fraction, no exponent, no
//! sign) that fits its type: `u32`, or `u64` for `fault_at` and a stall's
//! `fault_arg`. Anything else — another value, an unknown or repeated
//! key, a body that is not one JSON object — is a `400` whose JSON body
//! names the problem.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use izhi_programs::scenario::{self, ScenarioParams, Workload};
use izhi_programs::template;
use izhi_sim::{FaultKind, FaultPlan, FaultSpec, SchedMode};

use crate::battery::SchedSpec;
use crate::json::{self, Value};
use crate::supervise::{run_supervised, RunErrorKind, SuperviseConfig};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` picks an ephemeral port (tests).
    pub addr: String,
    /// Bounded queue capacity — the backpressure threshold.
    pub queue_cap: usize,
    /// Worker threads running supervised jobs.
    pub workers: usize,
    /// Supervision knobs applied to every job (wall limit, retry).
    pub supervise: SuperviseConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7171".to_string(),
            queue_cap: 16,
            workers: 2,
            supervise: SuperviseConfig {
                wall_limit: Some(Duration::from_secs(30)),
                ..Default::default()
            },
        }
    }
}

/// A validated job: everything a worker needs to build and run it.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Registered scenario name (validated at submit time).
    pub scenario: String,
    /// Parameter overrides (seed, n, ticks, n_cores).
    pub params: ScenarioParams,
    /// Scheduling mode (from its battery label).
    pub sched: SchedMode,
    /// The battery label the mode was requested under.
    pub sched_label: &'static str,
    /// Build at the scenario's quick (CI-sized) scale.
    pub quick: bool,
    /// Optional injected fault (chaos drills).
    pub fault: Option<FaultSpec>,
}

/// Where a job is in its life cycle.
#[derive(Debug, Clone)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is running it.
    Running,
    /// Completed and verified.
    Done {
        /// Simulated cycles (the job's scheduling-mode clock).
        cycles: u64,
        /// Retired instructions.
        instret: u64,
        /// Total spikes.
        spikes: u64,
        /// Order-independent raster hash.
        raster_hash: u64,
        /// Host wall time of the run.
        wall_s: f64,
        /// Supervised attempts it took.
        attempts: u32,
        /// Whether the worker reused a cached run template for the
        /// build (false on a cache miss or with the cache disabled).
        template_hit: bool,
    },
    /// Failed with a structured error.
    Failed {
        /// Failure class.
        kind: RunErrorKind,
        /// Detail message.
        message: String,
        /// Attempts made.
        attempts: u32,
    },
}

/// Shared server state.
struct ServerState {
    cfg: ServeConfig,
    queue: Mutex<VecDeque<(u64, JobSpec)>>,
    not_empty: Condvar,
    jobs: Mutex<HashMap<u64, JobState>>,
    next_id: AtomicU64,
    /// Set by `POST /shutdown` (or [`ServerHandle::shutdown`]): no new
    /// admissions; workers exit once the queue is empty.
    draining: AtomicBool,
    /// Set once the workers have drained; the accept loop exits after
    /// its next wake-up.
    accept_done: AtomicBool,
    running: AtomicU64,
    done: AtomicU64,
    failed: AtomicU64,
}

/// Lock helper: a poisoned mutex yields its data anyway — the service
/// must keep answering even if some thread died mid-update.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ServerState {
    fn counters(&self) -> (usize, u64, u64, u64) {
        (
            lock(&self.queue).len(),
            self.running.load(Ordering::SeqCst),
            self.done.load(Ordering::SeqCst),
            self.failed.load(Ordering::SeqCst),
        )
    }
}

/// A started service: handles for address, shutdown and join.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    worker_threads: Vec<std::thread::JoinHandle<()>>,
}

/// The scenario service.
pub struct Server;

impl Server {
    /// Bind, spawn the worker pool and the accept loop, return a handle.
    pub fn start(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let workers = cfg.workers.max(1);
        let state = Arc::new(ServerState {
            cfg,
            queue: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            jobs: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            draining: AtomicBool::new(false),
            accept_done: AtomicBool::new(false),
            running: AtomicU64::new(0),
            done: AtomicU64::new(0),
            failed: AtomicU64::new(0),
        });
        let worker_threads = (0..workers)
            .map(|_| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || worker_loop(&state))
            })
            .collect();
        let accept_state = Arc::clone(&state);
        let accept_thread = std::thread::spawn(move || accept_loop(&listener, &accept_state));
        Ok(ServerHandle {
            addr,
            state,
            accept_thread: Some(accept_thread),
            worker_threads,
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request a drain exactly as `POST /shutdown` would.
    pub fn shutdown(&self) {
        self.state.draining.store(true, Ordering::SeqCst);
        self.state.not_empty.notify_all();
    }

    /// Wait for the service to finish: workers drain the queue (after a
    /// shutdown request), then the accept loop is released. Status and
    /// health queries are answered throughout the drain.
    pub fn join(mut self) {
        for w in self.worker_threads.drain(..) {
            let _ = w.join();
        }
        self.state.accept_done.store(true, Ordering::SeqCst);
        // The accept loop blocks in `accept`; a no-op connection releases
        // it to observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Convenience for tests and in-process benchmarks: drain and join.
    pub fn shutdown_and_join(self) {
        self.shutdown();
        self.join();
    }
}

/// Worker: claim jobs from the bounded queue until a drain empties it.
fn worker_loop(state: &ServerState) {
    loop {
        let (id, spec) = {
            let mut q = lock(&state.queue);
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if state.draining.load(Ordering::SeqCst) {
                    return;
                }
                q = state
                    .not_empty
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        lock(&state.jobs).insert(id, JobState::Running);
        state.running.fetch_add(1, Ordering::SeqCst);
        let outcome = run_job(&spec, &state.cfg.supervise);
        state.running.fetch_sub(1, Ordering::SeqCst);
        match &outcome {
            JobState::Done { .. } => {
                state.done.fetch_add(1, Ordering::SeqCst);
            }
            _ => {
                state.failed.fetch_add(1, Ordering::SeqCst);
            }
        }
        lock(&state.jobs).insert(id, outcome);
    }
}

/// Build and run one job under supervision. Never panics outward: the
/// supervised runner isolates run panics, and build panics are caught
/// here.
fn run_job(spec: &JobSpec, sup: &SuperviseConfig) -> JobState {
    let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let sc = scenario::find(&spec.scenario)?;
        // Identical (scenario, shape) submissions share one cached build
        // through the process-wide template cache; only the
        // seed-dependent tables are patched per job.
        let (mut wl, template_hit) = template::instance(sc, &spec.params, spec.quick, spec.sched);
        if let Some(fault) = spec.fault {
            wl.cfg_mut().system.faults = FaultPlan {
                faults: vec![fault],
            };
        }
        Some((wl, template_hit))
    }));
    let (mut wl, template_hit) = match built {
        Ok(Some(wl)) => wl,
        Ok(None) => {
            return JobState::Failed {
                kind: RunErrorKind::GuestTrap,
                message: format!("unknown scenario `{}`", spec.scenario),
                attempts: 1,
            }
        }
        Err(payload) => {
            return JobState::Failed {
                kind: RunErrorKind::Panic,
                message: crate::supervise::panic_message(&*payload),
                attempts: 1,
            }
        }
    };
    let start = Instant::now();
    match run_supervised(&mut wl, sup) {
        Ok(sup) => JobState::Done {
            cycles: sup.result.cycles,
            instret: sup.result.instret,
            spikes: sup.result.raster.spikes.len() as u64,
            raster_hash: sup.result.raster_hash(),
            wall_s: start.elapsed().as_secs_f64(),
            attempts: sup.attempts,
            template_hit,
        },
        Err(e) => JobState::Failed {
            kind: e.kind,
            message: e.message,
            attempts: e.attempts,
        },
    }
}

/// Accept loop: handle each connection inline (requests are tiny and the
/// heavy work happens on the worker pool), exit once released after the
/// drain.
fn accept_loop(listener: &TcpListener, state: &ServerState) {
    for stream in listener.incoming() {
        if state.accept_done.load(Ordering::SeqCst) {
            return;
        }
        let Ok(mut stream) = stream else { continue };
        // A stalled client must not wedge the accept loop.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
        if let Ok(req) = read_request(&mut stream) {
            let (status, body, retry_after) = handle_request(state, &req);
            let _ = write_response(&mut stream, status, &body, retry_after);
        }
    }
}

/// One parsed HTTP request.
struct Request {
    method: String,
    path: String,
    body: String,
}

/// Read one HTTP/1.1 request (headers + `Content-Length` body).
fn read_request(stream: &mut TcpStream) -> Result<Request, String> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    let header_end = loop {
        if let Some(pos) = find_subslice(&buf, b"\r\n\r\n") {
            break pos;
        }
        if buf.len() > 64 * 1024 {
            return Err("headers too large".into());
        }
        let n = stream.read(&mut chunk).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("connection closed mid-request".into());
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..header_end]).into_owned();
    let mut lines = head.lines();
    let request_line = lines.next().ok_or("empty request")?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or("no method")?.to_string();
    let path = parts.next().ok_or("no path")?.to_string();
    let content_length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .unwrap_or(0);
    if content_length > 1024 * 1024 {
        return Err("body too large".into());
    }
    let mut body = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("connection closed mid-body".into());
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(Request {
        method,
        path,
        body: String::from_utf8_lossy(&body).into_owned(),
    })
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Write a JSON response; `retry_after` adds the backpressure hint
/// header.
fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &Value,
    retry_after: Option<Duration>,
) -> std::io::Result<()> {
    let body = body.to_string();
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    if let Some(d) = retry_after {
        head.push_str(&format!("Retry-After: {}\r\n", d.as_secs().max(1)));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// A response: status, JSON body and the optional backpressure hint.
type Response = (u16, Value, Option<Duration>);

fn error(status: u16, message: &str) -> Response {
    (status, Value::object([("error", message.into())]), None)
}

/// Route one request.
fn handle_request(state: &ServerState, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/health") => {
            let (queued, running, done, failed) = state.counters();
            let draining = state.draining.load(Ordering::SeqCst);
            let body = Value::object([
                ("status", "ok".into()),
                ("queued", queued.into()),
                ("running", running.into()),
                ("done", done.into()),
                ("failed", failed.into()),
                ("draining", draining.into()),
            ]);
            (200, body, None)
        }
        ("POST", "/jobs") => submit_job(state, &req.body),
        ("POST", "/shutdown") => {
            state.draining.store(true, Ordering::SeqCst);
            state.not_empty.notify_all();
            (202, Value::object([("status", "draining".into())]), None)
        }
        ("GET", path) if path.starts_with("/jobs/") => job_status(state, &path["/jobs/".len()..]),
        (_, "/health" | "/jobs" | "/shutdown") => error(405, "method not allowed"),
        _ => error(404, "no such endpoint"),
    }
}

/// `POST /jobs`: validate, admit or push back.
fn submit_job(state: &ServerState, body: &str) -> Response {
    if state.draining.load(Ordering::SeqCst) {
        return error(503, "shutting down");
    }
    let spec = match parse_job(body) {
        Ok(spec) => spec,
        Err(e) => return error(400, &e),
    };
    let mut q = lock(&state.queue);
    if q.len() >= state.cfg.queue_cap {
        // Explicit backpressure: the client is told when to come back
        // instead of the queue growing without bound. The hint scales
        // with the backlog a full queue represents.
        let hint = Duration::from_millis(
            100 * state.cfg.queue_cap as u64 / state.cfg.workers.max(1) as u64,
        );
        let body = Value::object([
            ("error", "queue full".into()),
            ("retry_after_ms", (hint.as_millis() as u64).into()),
        ]);
        return (429, body, Some(hint));
    }
    let id = state.next_id.fetch_add(1, Ordering::SeqCst);
    lock(&state.jobs).insert(id, JobState::Queued);
    q.push_back((id, spec));
    let queued = q.len();
    drop(q);
    state.not_empty.notify_one();
    let body = Value::object([("id", id.into()), ("queued", queued.into())]);
    (202, body, None)
}

/// `GET /jobs/<id>`.
fn job_status(state: &ServerState, id_str: &str) -> Response {
    let Ok(id) = id_str.parse::<u64>() else {
        return error(400, "bad job id");
    };
    let jobs = lock(&state.jobs);
    let Some(job) = jobs.get(&id) else {
        return error(404, "no such job");
    };
    let mut doc = vec![("id", id.into())];
    doc.extend(match job {
        JobState::Queued => vec![("status", "queued".into())],
        JobState::Running => vec![("status", "running".into())],
        JobState::Done {
            cycles,
            instret,
            spikes,
            raster_hash,
            wall_s,
            attempts,
            template_hit,
        } => vec![
            ("status", "done".into()),
            ("sim_cycles", (*cycles).into()),
            ("sim_instret", (*instret).into()),
            ("spikes", (*spikes).into()),
            ("raster_hash", format!("{raster_hash:#018x}").into()),
            ("wall_s", Value::decimal(*wall_s, 6)),
            ("attempts", (*attempts).into()),
            ("template_hit", (*template_hit).into()),
        ],
        JobState::Failed {
            kind,
            message,
            attempts,
        } => vec![
            ("status", "failed".into()),
            ("error_kind", kind.label().into()),
            ("error", message.as_str().into()),
            ("attempts", (*attempts).into()),
        ],
    });
    (200, Value::object(doc), None)
}

/// The keys a job document may carry.
pub const JOB_KEYS: [&str; 11] = [
    "scenario",
    "seed",
    "sched",
    "quick",
    "ticks",
    "n",
    "n_cores",
    "fault",
    "fault_arg",
    "fault_core",
    "fault_at",
];

/// Validate a job document into a [`JobSpec`].
pub fn parse_job(body: &str) -> Result<JobSpec, String> {
    let doc = json::parse(body).map_err(|e| format!("not JSON: {e}"))?;
    let Value::Object(members) = &doc else {
        return Err("a job document is a JSON object".into());
    };
    for (i, (key, _)) in members.iter().enumerate() {
        if !JOB_KEYS.contains(&key.as_str()) {
            return Err(format!("unknown key `{key}`"));
        }
        if members[..i].iter().any(|(k, _)| k == key) {
            return Err(format!("repeated key `{key}`"));
        }
    }
    let int = |key: &str, max: u64| -> Result<Option<u64>, String> {
        doc.get(key)
            .map(|v| {
                v.as_u64()
                    .filter(|&n| n <= max)
                    .ok_or_else(|| format!("`{key}` must be an integer in 0..={max}, not {v}"))
            })
            .transpose()
    };
    let u32_field = |key: &str| Ok::<_, String>(int(key, u32::MAX.into())?.map(|n| n as u32));
    let string = |key: &str| match doc.get(key) {
        None => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.as_str())),
        Some(v) => Err(format!("`{key}` must be a string, not {v}")),
    };
    let Some(scenario) = string("scenario")? else {
        return Err("`scenario` (string) is required".into());
    };
    let Some(sc) = scenario::find(scenario) else {
        return Err(format!("unknown scenario `{scenario}`"));
    };
    let sched_label = string("sched")?.unwrap_or("relaxed");
    let Some(spec) = SchedSpec::default_set(0)
        .into_iter()
        .find(|s| s.label == sched_label)
    else {
        return Err(format!("unknown sched label `{sched_label}`"));
    };
    let quick = match doc.get("quick") {
        None => true,
        Some(Value::Bool(b)) => *b,
        Some(v) => return Err(format!("`quick` must be a bool, not {v}")),
    };
    let params = ScenarioParams {
        seed: u32_field("seed")?,
        n: u32_field("n")?.map(|n| n as usize),
        ticks: u32_field("ticks")?,
        n_cores: u32_field("n_cores")?,
        ..Default::default()
    };
    // The shape check the CLI runs: a job the engine cannot build is a
    // 400 here, never a `panic` row from a worker.
    sc.validate(&params, quick)
        .map_err(|e| format!("invalid parameters: {e}"))?;
    let fault = match string("fault")? {
        None => None,
        Some(kind) => {
            let kind = match kind {
                "panic" => FaultKind::HostPanic,
                "trap" => FaultKind::GuestTrap,
                "stall" => FaultKind::StallMs(int("fault_arg", u64::MAX)?.unwrap_or(200)),
                "corrupt" => {
                    FaultKind::CorruptSpike(u32_field("fault_arg")?.unwrap_or(0xDEAD_BEEF))
                }
                k => return Err(format!("unknown fault kind `{k}`")),
            };
            Some(FaultSpec {
                core: u32_field("fault_core")?.unwrap_or(0),
                at_instret: int("fault_at", u64::MAX)?.unwrap_or(0),
                kind,
            })
        }
    };
    Ok(JobSpec {
        scenario: scenario.to_string(),
        params,
        sched: spec.mode,
        sched_label: spec.label,
        quick,
        fault,
    })
}

/// Minimal HTTP client for the load generator, tests and CI smoke:
/// one request, `Connection: close`.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let body = body.unwrap_or("");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes())?;
    let mut resp = Vec::new();
    stream.read_to_end(&mut resp)?;
    let text = String::from_utf8_lossy(&resp).into_owned();
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let payload = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, payload))
}

/// An unsigned integer field of a JSON object document.
pub fn json_field_u64(body: &str, key: &str) -> Option<u64> {
    json::parse(body).ok()?.get(key)?.as_u64()
}

/// A string field of a JSON object document.
pub fn json_field_str(body: &str, key: &str) -> Option<String> {
    Some(json::parse(body).ok()?.get(key)?.as_str()?.to_string())
}

/// What a load-generation burst observed (the `serve_api` suite's
/// assertions come from this).
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Jobs submitted.
    pub submitted: usize,
    /// Accepted (`202`).
    pub accepted: usize,
    /// Rejected with backpressure (`429` + retry hint).
    pub rejected: usize,
    /// Accepted jobs that finished `done`.
    pub completed: usize,
    /// Accepted jobs that finished `failed` (with a structured kind).
    pub failed: usize,
    /// Structured failure kinds observed, in job order.
    pub failure_kinds: Vec<String>,
    /// Health checks answered `200` during the burst and drain.
    pub health_ok: usize,
    /// Health checks attempted.
    pub health_checks: usize,
    /// Whether every `429` carried a `retry_after_ms` hint.
    pub backpressure_hinted: bool,
}

/// Submit a burst of job documents against a running service, poll every
/// accepted job to completion, and health-check throughout. Backpressured
/// submissions are *not* retried — the rejection count is the point.
pub fn generate_load(
    addr: &str,
    bodies: &[String],
    timeout: Duration,
) -> Result<LoadReport, String> {
    let start = Instant::now();
    let mut accepted_ids = Vec::new();
    let mut rejected = 0usize;
    let mut backpressure_hinted = true;
    let mut health_ok = 0usize;
    let mut health_checks = 0usize;
    let health = |ok: &mut usize, n: &mut usize| {
        *n += 1;
        if let Ok((200, _)) = http_request(addr, "GET", "/health", None) {
            *ok += 1;
        }
    };
    for body in bodies {
        let (status, resp) =
            http_request(addr, "POST", "/jobs", Some(body)).map_err(|e| e.to_string())?;
        match status {
            202 => {
                let id = json_field_u64(&resp, "id").ok_or("202 without an id")?;
                accepted_ids.push(id);
            }
            429 => {
                rejected += 1;
                if json_field_u64(&resp, "retry_after_ms").is_none() {
                    backpressure_hinted = false;
                }
            }
            other => return Err(format!("unexpected submit status {other}: {resp}")),
        }
        health(&mut health_ok, &mut health_checks);
    }
    // Poll accepted jobs to completion, health-checking as we go.
    let mut completed = 0usize;
    let mut failed = 0usize;
    let mut failure_kinds = Vec::new();
    let mut pending: VecDeque<u64> = accepted_ids.iter().copied().collect();
    while let Some(id) = pending.pop_front() {
        if start.elapsed() > timeout {
            return Err(format!(
                "burst timed out with {} jobs unfinished",
                pending.len() + 1
            ));
        }
        let (status, resp) =
            http_request(addr, "GET", &format!("/jobs/{id}"), None).map_err(|e| e.to_string())?;
        if status != 200 {
            return Err(format!("status {status} for job {id}: {resp}"));
        }
        match json_field_str(&resp, "status").as_deref() {
            Some("done") => completed += 1,
            Some("failed") => {
                failed += 1;
                failure_kinds
                    .push(json_field_str(&resp, "error_kind").unwrap_or_else(|| "?".into()));
            }
            _ => {
                pending.push_back(id);
                health(&mut health_ok, &mut health_checks);
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    Ok(LoadReport {
        submitted: bodies.len(),
        accepted: accepted_ids.len(),
        rejected,
        completed,
        failed,
        failure_kinds,
        health_ok,
        health_checks,
        backpressure_hinted,
    })
}

/// A small, fast job document for bursts (quick net8020 at few ticks).
pub fn tiny_job_body(seed: u32) -> String {
    tiny_job(seed, None)
}

/// [`tiny_job_body`], optionally with an injected fault kind.
fn tiny_job(seed: u32, fault: Option<&str>) -> String {
    let mut doc = vec![
        ("scenario", "net8020".into()),
        ("seed", seed.into()),
        ("sched", "relaxed".into()),
        ("ticks", 10u32.into()),
        ("n", 60u32.into()),
    ];
    doc.extend(fault.map(|f| ("fault", f.into())));
    Value::object(doc).to_string()
}

/// `n` tiny job documents; with `faults` (and `n >= 2`) the first two
/// inject a host panic and a guest trap.
pub fn burst_bodies(n: u32, faults: bool) -> Vec<String> {
    let faults = faults && n >= 2;
    (0..n)
        .map(|i| match i {
            0 if faults => tiny_job(5, Some("panic")),
            1 if faults => tiny_job(6, Some("trap")),
            seed => tiny_job(seed, None),
        })
        .collect()
}

/// Whether a load report demonstrates failure isolation: the injected
/// faults failed *structurally* (panic / guest-trap kinds), everything
/// else completed, and the server answered every health check.
pub fn failure_isolated(report: &LoadReport) -> bool {
    report.failed >= 2
        && report.failure_kinds.iter().any(|k| k == "panic")
        && report.failure_kinds.iter().any(|k| k == "guest-trap")
        && report.completed + report.failed == report.accepted
        && report.health_ok == report.health_checks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_json_parses_the_job_shapes() {
        let doc =
            json::parse("{\"scenario\": \"net8020\", \"seed\": 5, \"quick\": true, \"wall\": 1.5}")
                .unwrap();
        assert_eq!(doc.get("scenario"), Some(&Value::Str("net8020".into())));
        assert_eq!(doc.get("seed"), Some(&Value::Int(5)));
        assert_eq!(doc.get("quick"), Some(&Value::Bool(true)));
        assert_eq!(doc.get("wall"), Some(&Value::Float(1.5)));
        assert!(json::parse("{\"k\": }").is_err());
        assert!(json::parse("not json").is_err());
        assert_eq!(json::parse("{}").unwrap(), Value::Object(Vec::new()));
    }

    #[test]
    fn job_documents_validate() {
        let job = parse_job("{\"scenario\": \"net8020\", \"seed\": 7}").unwrap();
        assert_eq!(job.scenario, "net8020");
        assert_eq!(job.params.seed, Some(7));
        assert_eq!(job.sched_label, "relaxed");
        assert!(job.quick);
        assert!(job.fault.is_none());

        let err = parse_job("{\"seed\": 7}").unwrap_err();
        assert!(err.contains("scenario"), "{err}");
        let err = parse_job("{\"scenario\": \"nope\"}").unwrap_err();
        assert!(err.contains("unknown scenario"), "{err}");
        let err = parse_job("{\"scenario\": \"net8020\", \"sched\": \"bogus\"}").unwrap_err();
        assert!(err.contains("unknown sched label"), "{err}");
    }

    #[test]
    fn job_numbers_must_be_in_range_integers_and_keys_known() {
        // Negative, fractional, out-of-range, mistyped, unknown and
        // repeated fields are refused by name, never coerced or ignored.
        for (field, body) in [
            ("seed", r#"{"scenario":"net8020","seed":-1}"#),
            ("ticks", r#"{"scenario":"net8020","ticks":2.9}"#),
            ("seed", r#"{"scenario":"net8020","seed":1e300}"#),
            ("seed", r#"{"scenario":"net8020","seed":4294967296}"#),
            ("seed", r#"{"scenario":"net8020","seed":-0}"#),
            ("seed", r#"{"scenario":"net8020","seed":"5"}"#),
            ("sed", r#"{"scenario":"net8020","sed":5}"#),
            ("seed", r#"{"scenario":"net8020","seed":1,"seed":2}"#),
            (
                "fault_arg",
                r#"{"scenario":"net8020","fault":"corrupt","fault_arg":4294967296}"#,
            ),
        ] {
            let err = parse_job(body).unwrap_err();
            assert!(err.contains(&format!("`{field}`")), "{body}: {err}");
        }
        for body in ["[]", "5", "\"net8020\""] {
            assert!(parse_job(body).is_err(), "{body}");
        }
        // Every key the repo's clients send, at its type's extremes.
        let job = parse_job(
            r#"{"scenario":"net8020","seed":4294967295,"sched":"exact","quick":true,"ticks":5,
                "n":60,"n_cores":1,"fault":"stall","fault_arg":18446744073709551615,
                "fault_core":0,"fault_at":18446744073709551615}"#,
        )
        .unwrap();
        assert_eq!(job.params.seed, Some(u32::MAX));
        assert_eq!(job.fault.unwrap().kind, FaultKind::StallMs(u64::MAX));
    }

    #[test]
    fn job_documents_carry_fault_plans() {
        let job = parse_job(
            "{\"scenario\": \"net8020\", \"fault\": \"stall\", \"fault_core\": 1, \
             \"fault_at\": 500, \"fault_arg\": 80}",
        )
        .unwrap();
        let fault = job.fault.expect("fault parsed");
        assert_eq!(fault.core, 1);
        assert_eq!(fault.at_instret, 500);
        assert_eq!(fault.kind, FaultKind::StallMs(80));
        let err = parse_job("{\"scenario\": \"net8020\", \"fault\": \"meteor\"}").unwrap_err();
        assert!(err.contains("unknown fault kind"), "{err}");
    }

    #[test]
    fn json_escaping_is_safe_for_messages() {
        // Messages travel in JSON bodies: whatever they contain, the body
        // parses back to the message.
        let message = "unknown scenario `a\"b\\c\nd\u{1}é`";
        let (status, body, _) = error(400, message);
        assert_eq!(status, 400);
        let text = body.to_string();
        assert_eq!(text, r#"{"error": "unknown scenario `a\"b\\c\nd\u0001é`"}"#);
        assert_eq!(json_field_str(&text, "error").as_deref(), Some(message));
    }

    #[test]
    fn json_field_u64_is_exact_past_two_to_the_53() {
        let big = (1u64 << 53) + 1;
        assert_eq!(
            json_field_u64(&format!("{{\"id\": {big}}}"), "id"),
            Some(big)
        );
        assert_eq!(
            json_field_u64("{\"id\": 18446744073709551615}", "id"),
            Some(u64::MAX)
        );
        assert_eq!(json_field_u64("{\"id\": -1}", "id"), None);
        assert_eq!(json_field_u64("{\"id\": 1.0}", "id"), None);
    }
}
