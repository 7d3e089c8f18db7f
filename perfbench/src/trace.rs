//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, the span that caused it and the
//! job it belongs to. Spans stay in memory while a workload runs and are
//! written out when it ends. With tracing off, opening a span costs one
//! relaxed atomic load and records nothing.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the process.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer call the span sits around.
    pub name: &'static str,
    /// Job the span belongs to (`None` for set-up, replays and probes).
    pub job: Option<u64>,
    /// When the call started.
    pub start: Instant,
    /// When the call returned.
    pub end: Instant,
}

impl Span {
    /// Wall time of the span.
    pub fn duration(&self) -> Duration {
        self.end.duration_since(self.start)
    }
}

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Ids of this thread's open spans, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Switch recording on or off.
pub fn set_enabled(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// A fresh span id.
fn new_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Store a finished span; dropped while tracing is off.
fn record(span: Span) {
    if enabled() {
        // A poisoned store only means another thread died mid-push; the
        // spans already stored stay valid.
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(span);
        }
    }
}

/// An open span, recorded when dropped; the end time is a placeholder
/// until then.
pub struct SpanGuard(Option<Span>);

/// Open a span nested under this thread's innermost open span.
pub fn span(name: &'static str, job: Option<u64>) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    let id = new_id();
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied();
        open.push(id);
        parent
    });
    let start = Instant::now();
    SpanGuard(Some(Span {
        id,
        parent,
        name,
        job,
        start,
        end: start,
    }))
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(mut span) = self.0.take() {
            span.end = Instant::now();
            OPEN.with(|open| open.borrow_mut().pop());
            record(span);
        }
    }
}

/// Take every recorded span, leaving the store empty.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover. Grandchildren are already inside their
/// parent's interval, and spans of other parents do not count.
pub fn self_times(spans: &[Span]) -> HashMap<u64, Duration> {
    let mut children: HashMap<u64, Vec<(Instant, Instant)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut cover: Vec<(Instant, Instant)> = children
                .get(&s.id)
                .into_iter()
                .flatten()
                .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                .filter(|(a, b)| a < b)
                .collect();
            cover.sort();
            let mut covered = Duration::ZERO;
            let mut run: Option<(Instant, Instant)> = None;
            for (a, b) in cover {
                run = match run {
                    Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
                    Some((ra, rb)) => {
                        covered += rb - ra;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ra, rb)) = run {
                covered += rb - ra;
            }
            (s.id, s.duration().saturating_sub(covered))
        })
        .collect()
}

/// Per-name totals: span count and summed self time.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (usize, Duration)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (usize, Duration)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += selfs[&s.id];
    }
    out
}

/// Durations in milliseconds of the spans named `name` that `keep`
/// accepts.
pub fn durations_ms(spans: &[Span], name: &str, keep: impl Fn(&Span) -> bool) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && keep(s))
        .map(|s| s.duration().as_secs_f64() * 1e3)
        .collect()
}

/// Write `header` (one JSON object) and then one JSON object per span,
/// with times in microseconds since `origin`.
pub fn write_jsonl(
    path: &Path,
    header: &str,
    spans: &[Span],
    origin: Instant,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let selfs = self_times(spans);
    let us = |t: Instant| t.duration_since(origin).as_micros();
    let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
    let mut out = BufWriter::new(File::create(path)?);
    writeln!(out, "{header}")?;
    for s in spans {
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"job\": {}, \"start_us\": {}, \
             \"end_us\": {}, \"self_us\": {}}}",
            s.id,
            opt(s.parent),
            s.name,
            opt(s.job),
            us(s.start),
            us(s.end),
            selfs[&s.id].as_micros()
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(base: Instant, id: u64, parent: Option<u64>, from_ms: u64, to_ms: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            job: None,
            start: base + Duration::from_millis(from_ms),
            end: base + Duration::from_millis(to_ms),
        }
    }

    #[test]
    fn self_time_subtracts_only_child_spans() {
        let b = Instant::now();
        let spans = [
            at(b, 1, None, 0, 10),
            // Children: an overlapping pair covering [2, 6) and one that
            // is clipped to the parent's end, [9, 10).
            at(b, 2, Some(1), 2, 4),
            at(b, 3, Some(1), 3, 6),
            at(b, 4, Some(1), 9, 12),
            // A grandchild lies inside its parent and is not subtracted again.
            at(b, 5, Some(2), 2, 3),
            // An unrelated span over the same interval is no child of span 1.
            at(b, 6, None, 0, 10),
        ];
        let selfs = self_times(&spans);
        let ms = |id: u64| selfs[&id].as_millis();
        assert_eq!(ms(1), 5);
        assert_eq!(ms(2), 1);
        assert_eq!(ms(3), 3);
        assert_eq!(ms(5), 1);
        assert_eq!(ms(6), 10);
    }
}
