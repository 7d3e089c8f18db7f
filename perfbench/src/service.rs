//! The service probe: jobs of a closed-loop workload put through an
//! in-process scenario service (`ServeConfig` defaults on an ephemeral
//! port) one at a time, submit then poll, so that the traced run times
//! what the service adds to a job. Each job must come back with the run
//! the benchmark got in-process at the same scenario, seed and mode.

use std::thread;
use std::time::{Duration, Instant};

use izhi_bench::serve::{http_request, json_field_str, json_field_u64, ServeConfig, Server};

use crate::job::JobResult;
use crate::{trace, Report};

/// Interval between status polls of the open job.
const POLL_EVERY: Duration = Duration::from_millis(5);
/// A job still open this long after it was accepted has failed.
const GIVE_UP: Duration = Duration::from_secs(60);

/// One job document: a registered scenario at its registry defaults.
pub struct ServiceJob {
    /// Registered scenario.
    pub scenario: &'static str,
    /// Job seed.
    pub seed: u32,
    /// Battery label of the scheduling mode.
    pub label: &'static str,
}

impl ServiceJob {
    /// The `POST /jobs` body.
    fn body(&self) -> String {
        format!(
            "{{\"scenario\": \"{}\", \"seed\": {}, \"sched\": \"{}\", \"quick\": false}}",
            self.scenario, self.seed, self.label
        )
    }
}

/// Client-side figures of the probe's jobs.
#[derive(Debug, Clone, Default)]
pub struct ServeLayers {
    /// `POST /jobs` round trips.
    pub submit_ms: Vec<f64>,
    /// From the 202 to the first poll that saw the job running or done.
    pub queue_wait_ms: Vec<f64>,
    /// The server-reported `wall_s` of each job.
    pub exec_ms: Vec<f64>,
    /// Latency minus queue wait minus execution: lookup, instantiate,
    /// HTTP and the poll interval.
    pub outside_exec_ms: Vec<f64>,
    /// Summed `GET /jobs/<id>` round trips.
    pub poll_s: f64,
    /// Number of `GET /jobs/<id>` requests.
    pub polls: u64,
    /// Jobs that were accepted and polled.
    pub polled_jobs: usize,
    /// Submissions refused with 429.
    pub rejected: usize,
}

/// A finished job's status document.
struct Status {
    cycles: u64,
    instret: u64,
    raster_hash: u64,
    wall_s: f64,
}

/// Put each job through a fresh service, each with the in-process result
/// it must reproduce, and return the client-side figures. The service
/// takes its templates from the process-wide cache.
pub fn probe(jobs: &[(ServiceJob, JobResult)], report: &mut Report) -> Result<ServeLayers, String> {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("the service did not start: {e}"))?;
    let addr = server.addr().to_string();
    let mut layers = ServeLayers::default();
    for (job, expected) in jobs {
        report.attempted += 1;
        if let Err(e) = submit_and_wait(&addr, job, expected, &mut layers) {
            report.fail(format!("service job {}: {e}", job.body()));
        }
    }
    server.shutdown_and_join();
    Ok(layers)
}

/// Submit one job, poll it until it ends, and check its run.
fn submit_and_wait(
    addr: &str,
    job: &ServiceJob,
    expected: &JobResult,
    l: &mut ServeLayers,
) -> Result<(), String> {
    let _job = trace::span("serve.job", None);
    let sent = Instant::now();
    let reply = {
        let _s = trace::span("serve.submit", None);
        http_request(addr, "POST", "/jobs", Some(&job.body()))
    };
    let accepted = Instant::now();
    l.submit_ms
        .push(accepted.duration_since(sent).as_secs_f64() * 1e3);
    let id = match reply {
        Ok((202, body)) => {
            json_field_u64(&body, "id").ok_or_else(|| format!("202 without a job id: {body}"))?
        }
        Ok((429, _)) => {
            l.rejected += 1;
            return Err("refused with 429".to_string());
        }
        Ok((code, body)) => return Err(format!("submit answered {code}: {body}")),
        Err(e) => return Err(format!("submit failed: {e}")),
    };
    l.polled_jobs += 1;
    let mut first_active = None;
    loop {
        if accepted.elapsed() > GIVE_UP {
            return Err(format!("still open after {} s", GIVE_UP.as_secs()));
        }
        thread::sleep(POLL_EVERY);
        let asked = Instant::now();
        let reply = {
            let _s = trace::span("serve.poll", None);
            http_request(addr, "GET", &format!("/jobs/{id}"), None)
        };
        let back = Instant::now();
        l.polls += 1;
        l.poll_s += back.duration_since(asked).as_secs_f64();
        let body = match reply {
            Ok((200, body)) => body,
            Ok((code, body)) => return Err(format!("status poll answered {code}: {body}")),
            Err(e) => return Err(format!("status poll failed: {e}")),
        };
        let status = json_field_str(&body, "status");
        if status.as_deref() == Some("queued") {
            continue;
        }
        let started = *first_active.get_or_insert(back);
        match status.as_deref() {
            Some("running") => continue,
            Some("done") => {
                let st = parse_done(&body)?;
                if (st.cycles, st.instret, st.raster_hash)
                    != (expected.cycles, expected.instret, expected.raster_hash)
                {
                    return Err("the service's run differs from the in-process run".to_string());
                }
                let wait_s = started.duration_since(accepted).as_secs_f64();
                let latency_s = back.duration_since(sent).as_secs_f64();
                l.queue_wait_ms.push(wait_s * 1e3);
                l.exec_ms.push(st.wall_s * 1e3);
                l.outside_exec_ms
                    .push((latency_s - wait_s - st.wall_s) * 1e3);
                return Ok(());
            }
            Some("failed") => {
                let kind = json_field_str(&body, "error_kind").unwrap_or_default();
                let error = json_field_str(&body, "error").unwrap_or_default();
                return Err(format!("{kind}: {error}"));
            }
            _ => return Err(format!("unreadable job status: {body}")),
        }
    }
}

/// Read a `done` status document.
fn parse_done(body: &str) -> Result<Status, String> {
    let raster_hash = json_field_str(body, "raster_hash")
        .and_then(|h| u64::from_str_radix(h.trim_start_matches("0x"), 16).ok());
    match (
        json_field_u64(body, "sim_cycles"),
        json_field_u64(body, "sim_instret"),
        raster_hash,
        number(body, "wall_s"),
    ) {
        (Some(cycles), Some(instret), Some(raster_hash), Some(wall_s)) => Ok(Status {
            cycles,
            instret,
            raster_hash,
            wall_s,
        }),
        _ => Err(format!("incomplete done status: {body}")),
    }
}

/// A fractional number field of a flat JSON document (the service's own
/// readers return whole numbers and strings).
fn number(body: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let rest = &body[body.find(&tag)? + tag.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}
