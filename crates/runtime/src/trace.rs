//! Structured run traces: one JSON object per line (JSONL).
//!
//! Every run emits a stream of [`TraceEvent`]s — run lifecycle, per-round
//! results, drift alerts, checkpoint saves. The trace is the canonical
//! record of a run: round summaries consumed by scenario reports and bench
//! figures are rebuilt from these events, so what lands on disk and what
//! the in-process consumers see are the same data by construction.
//!
//! Serialization is hand-rolled (this workspace is dependency-free): a
//! fixed schema per variant tagged by an `"event"` field, a minimal string
//! escaper, and a small recursive-descent JSON reader for the inverse
//! direction (`trace` CLI inspection, resume tooling, tests).
//!
//! Wall-clock fields (`elapsed_ms`) are the only nondeterministic content;
//! [`TraceEvent::normalized`] zeroes them so two traces can be compared
//! bit-for-bit in determinism tests.

use crate::digest::Fnv1a;
use std::fmt::Write as _;
use std::fs;
use std::io::{BufWriter, Write};
use std::path::Path;

/// One line of a run trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Emitted once when the round loop starts (or resumes).
    RunStarted {
        /// Seed all RNG streams derive from.
        run_seed: u64,
        /// Hash of the run config.
        config_hash: u64,
        /// Total client population.
        num_clients: usize,
        /// Rounds the run will execute in total.
        rounds: usize,
        /// Worker threads used for client fan-out.
        workers: usize,
        /// Aggregation rule in effect.
        aggregator: String,
        /// Round a checkpoint resumed from, if any.
        resumed_from: Option<u32>,
    },
    /// Client sampling outcome at the top of a round.
    RoundStarted {
        /// Round index.
        round: usize,
        /// Sampled client ids, ascending.
        sampled: Vec<usize>,
        /// Subset of `sampled` under adversary control, ascending.
        compromised: Vec<usize>,
    },
    /// Aggregated results at the bottom of a round.
    RoundCompleted {
        /// Round index.
        round: usize,
        /// Aggregation rule applied this round.
        aggregator: String,
        /// Number of malicious updates submitted.
        num_malicious: usize,
        /// L2 norms of benign client updates, in sampled order.
        benign_norms: Vec<f64>,
        /// L2 norms of malicious client updates, in sampled order.
        malicious_norms: Vec<f64>,
        /// L2 norm of the aggregated (post-defense) global delta.
        agg_delta_norm: f64,
        /// Wall-clock time for the round, milliseconds.
        elapsed_ms: f64,
    },
    /// A monitor flagged anomalous global-model drift.
    ShiftAlert {
        /// Round the alert fired.
        round: usize,
        /// Observed displacement/utility value.
        observed: f64,
        /// Robust baseline (median) of the series.
        baseline_median: f64,
        /// Robust z-score of the observation.
        z_score: f64,
    },
    /// A snapshot was written.
    CheckpointSaved {
        /// Next round to execute when resuming from this snapshot.
        round: usize,
        /// Path the snapshot was written to.
        path: String,
    },
    /// A fault-plan decision removed a sampled client from the round's
    /// cohort (injected dropout, or a straggler shed by the deadline).
    ClientDropped {
        /// Round index.
        round: usize,
        /// The client removed from the cohort.
        client: usize,
        /// `"dropout"` or `"straggler"`.
        cause: String,
        /// Deterministic virtual delay for stragglers, in ms (0 for
        /// dropouts).
        delay_ms: f64,
    },
    /// The server rejected a client's update before aggregation
    /// (non-finite values — injected corruption or divergent training).
    UpdateRejected {
        /// Round index.
        round: usize,
        /// The client whose update was rejected.
        client: usize,
        /// `"injected_corruption"` or `"non_finite"`.
        reason: String,
    },
    /// A checkpoint-write attempt failed (injected or a real I/O error).
    CheckpointWriteFailed {
        /// Round the snapshot was for.
        round: usize,
        /// 1-based attempt number.
        attempt: usize,
        /// The error the attempt surfaced.
        error: String,
        /// Whether this was the final attempt (the snapshot was skipped).
        gave_up: bool,
    },
    /// Emitted once when the round loop finishes.
    RunCompleted {
        /// Rounds executed by this process (excludes resumed-over rounds).
        rounds_executed: usize,
        /// Total wall-clock time, milliseconds.
        elapsed_ms: f64,
    },
    /// Sim mode: a virtual client fetched the global model and started
    /// training.
    ClientArrived {
        /// Virtual time, integer microseconds (bitwise replay-stable).
        vtime_us: u64,
        /// Virtual client id.
        client: usize,
        /// Global model version the client fetched.
        version: u64,
    },
    /// Sim mode: an arrival was turned away without training.
    ClientUnavailable {
        /// Virtual time, integer microseconds.
        vtime_us: u64,
        /// Virtual client id.
        client: usize,
        /// `"offline"` (churn), `"busy"` (still training) or
        /// `"capacity"` (concurrency cap).
        reason: String,
    },
    /// Sim mode: the buffered-async aggregator merged its buffer.
    BufferFlushed {
        /// Virtual time, integer microseconds.
        vtime_us: u64,
        /// 0-based flush index (the sim analogue of a round).
        flush: u64,
        /// Completions merged.
        size: usize,
        /// Mean staleness (flushes elapsed since fetch) over the buffer.
        mean_staleness: f64,
        /// `"buffer_full"` (K reached) or `"deadline"`.
        cause: String,
    },
}

impl TraceEvent {
    /// The `"event"` tag this variant serializes under.
    pub fn kind(&self) -> &'static str {
        match self {
            Self::RunStarted { .. } => "run_started",
            Self::RoundStarted { .. } => "round_started",
            Self::RoundCompleted { .. } => "round_completed",
            Self::ShiftAlert { .. } => "shift_alert",
            Self::CheckpointSaved { .. } => "checkpoint_saved",
            Self::ClientDropped { .. } => "client_dropped",
            Self::UpdateRejected { .. } => "update_rejected",
            Self::CheckpointWriteFailed { .. } => "checkpoint_write_failed",
            Self::RunCompleted { .. } => "run_completed",
            Self::ClientArrived { .. } => "client_arrived",
            Self::ClientUnavailable { .. } => "client_unavailable",
            Self::BufferFlushed { .. } => "buffer_flushed",
        }
    }

    /// A copy with all wall-clock fields zeroed, for bit-exact comparison
    /// of traces from runs that differ only in scheduling.
    pub fn normalized(&self) -> Self {
        let mut e = self.clone();
        match &mut e {
            Self::RoundCompleted { elapsed_ms, .. } | Self::RunCompleted { elapsed_ms, .. } => {
                *elapsed_ms = 0.0
            }
            _ => {}
        }
        e
    }

    /// A copy with wall-clock *and* host-shape fields zeroed: everything
    /// [`TraceEvent::normalized`] removes plus the `workers` count in
    /// `RunStarted`. What remains is the deterministic payload of the run —
    /// identical for any worker count — so canonical digests can pin a
    /// run's event sequence across host shapes (the grid conformance
    /// harness compares these across workers).
    pub fn canonical(&self) -> Self {
        let mut e = self.normalized();
        if let Self::RunStarted { workers, .. } = &mut e {
            *workers = 0;
        }
        e
    }

    /// Serializes to a single JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        s.push('{');
        push_str_field(&mut s, "event", self.kind());
        match self {
            Self::RunStarted {
                run_seed,
                config_hash,
                num_clients,
                rounds,
                workers,
                aggregator,
                resumed_from,
            } => {
                push_u64_field(&mut s, "run_seed", *run_seed);
                push_u64_field(&mut s, "config_hash", *config_hash);
                push_usize_field(&mut s, "num_clients", *num_clients);
                push_usize_field(&mut s, "rounds", *rounds);
                push_usize_field(&mut s, "workers", *workers);
                push_str_field(&mut s, "aggregator", aggregator);
                match resumed_from {
                    Some(r) => push_u64_field(&mut s, "resumed_from", u64::from(*r)),
                    None => push_null_field(&mut s, "resumed_from"),
                }
            }
            Self::RoundStarted {
                round,
                sampled,
                compromised,
            } => {
                push_usize_field(&mut s, "round", *round);
                push_usize_array_field(&mut s, "sampled", sampled);
                push_usize_array_field(&mut s, "compromised", compromised);
            }
            Self::RoundCompleted {
                round,
                aggregator,
                num_malicious,
                benign_norms,
                malicious_norms,
                agg_delta_norm,
                elapsed_ms,
            } => {
                push_usize_field(&mut s, "round", *round);
                push_str_field(&mut s, "aggregator", aggregator);
                push_usize_field(&mut s, "num_malicious", *num_malicious);
                push_f64_array_field(&mut s, "benign_norms", benign_norms);
                push_f64_array_field(&mut s, "malicious_norms", malicious_norms);
                push_num_field(&mut s, "agg_delta_norm", *agg_delta_norm);
                push_num_field(&mut s, "elapsed_ms", *elapsed_ms);
            }
            Self::ShiftAlert {
                round,
                observed,
                baseline_median,
                z_score,
            } => {
                push_usize_field(&mut s, "round", *round);
                push_num_field(&mut s, "observed", *observed);
                push_num_field(&mut s, "baseline_median", *baseline_median);
                push_num_field(&mut s, "z_score", *z_score);
            }
            Self::CheckpointSaved { round, path } => {
                push_usize_field(&mut s, "round", *round);
                push_str_field(&mut s, "path", path);
            }
            Self::ClientDropped {
                round,
                client,
                cause,
                delay_ms,
            } => {
                push_usize_field(&mut s, "round", *round);
                push_usize_field(&mut s, "client", *client);
                push_str_field(&mut s, "cause", cause);
                push_num_field(&mut s, "delay_ms", *delay_ms);
            }
            Self::UpdateRejected {
                round,
                client,
                reason,
            } => {
                push_usize_field(&mut s, "round", *round);
                push_usize_field(&mut s, "client", *client);
                push_str_field(&mut s, "reason", reason);
            }
            Self::CheckpointWriteFailed {
                round,
                attempt,
                error,
                gave_up,
            } => {
                push_usize_field(&mut s, "round", *round);
                push_usize_field(&mut s, "attempt", *attempt);
                push_str_field(&mut s, "error", error);
                push_bool_field(&mut s, "gave_up", *gave_up);
            }
            Self::RunCompleted {
                rounds_executed,
                elapsed_ms,
            } => {
                push_usize_field(&mut s, "rounds_executed", *rounds_executed);
                push_num_field(&mut s, "elapsed_ms", *elapsed_ms);
            }
            Self::ClientArrived {
                vtime_us,
                client,
                version,
            } => {
                push_u64_field(&mut s, "vtime_us", *vtime_us);
                push_usize_field(&mut s, "client", *client);
                push_u64_field(&mut s, "version", *version);
            }
            Self::ClientUnavailable {
                vtime_us,
                client,
                reason,
            } => {
                push_u64_field(&mut s, "vtime_us", *vtime_us);
                push_usize_field(&mut s, "client", *client);
                push_str_field(&mut s, "reason", reason);
            }
            Self::BufferFlushed {
                vtime_us,
                flush,
                size,
                mean_staleness,
                cause,
            } => {
                push_u64_field(&mut s, "vtime_us", *vtime_us);
                push_u64_field(&mut s, "flush", *flush);
                push_usize_field(&mut s, "size", *size);
                push_num_field(&mut s, "mean_staleness", *mean_staleness);
                push_str_field(&mut s, "cause", cause);
            }
        }
        s.pop(); // trailing comma
        s.push('}');
        s
    }

    /// Parses one JSON trace line.
    pub fn from_json(line: &str) -> Result<Self, TraceError> {
        let value = parse_json(line)?;
        let obj = value
            .as_object()
            .ok_or_else(|| err("line is not an object"))?;
        let kind = get_str(obj, "event")?;
        match kind {
            "run_started" => Ok(Self::RunStarted {
                run_seed: get_u64(obj, "run_seed")?,
                config_hash: get_u64(obj, "config_hash")?,
                num_clients: get_usize(obj, "num_clients")?,
                rounds: get_usize(obj, "rounds")?,
                workers: get_usize(obj, "workers")?,
                aggregator: get_str(obj, "aggregator")?.to_string(),
                resumed_from: match lookup(obj, "resumed_from")? {
                    Value::Null => None,
                    v => Some(
                        v.as_u64()
                            .ok_or_else(|| err("resumed_from must be an integer or null"))?
                            as u32,
                    ),
                },
            }),
            "round_started" => Ok(Self::RoundStarted {
                round: get_usize(obj, "round")?,
                sampled: get_usize_array(obj, "sampled")?,
                compromised: get_usize_array(obj, "compromised")?,
            }),
            "round_completed" => Ok(Self::RoundCompleted {
                round: get_usize(obj, "round")?,
                aggregator: get_str(obj, "aggregator")?.to_string(),
                num_malicious: get_usize(obj, "num_malicious")?,
                benign_norms: get_f64_array(obj, "benign_norms")?,
                malicious_norms: get_f64_array(obj, "malicious_norms")?,
                agg_delta_norm: get_f64(obj, "agg_delta_norm")?,
                elapsed_ms: get_f64(obj, "elapsed_ms")?,
            }),
            "shift_alert" => Ok(Self::ShiftAlert {
                round: get_usize(obj, "round")?,
                observed: get_f64(obj, "observed")?,
                baseline_median: get_f64(obj, "baseline_median")?,
                z_score: get_f64(obj, "z_score")?,
            }),
            "checkpoint_saved" => Ok(Self::CheckpointSaved {
                round: get_usize(obj, "round")?,
                path: get_str(obj, "path")?.to_string(),
            }),
            "client_dropped" => Ok(Self::ClientDropped {
                round: get_usize(obj, "round")?,
                client: get_usize(obj, "client")?,
                cause: get_str(obj, "cause")?.to_string(),
                delay_ms: get_f64(obj, "delay_ms")?,
            }),
            "update_rejected" => Ok(Self::UpdateRejected {
                round: get_usize(obj, "round")?,
                client: get_usize(obj, "client")?,
                reason: get_str(obj, "reason")?.to_string(),
            }),
            "checkpoint_write_failed" => Ok(Self::CheckpointWriteFailed {
                round: get_usize(obj, "round")?,
                attempt: get_usize(obj, "attempt")?,
                error: get_str(obj, "error")?.to_string(),
                gave_up: get_bool(obj, "gave_up")?,
            }),
            "run_completed" => Ok(Self::RunCompleted {
                rounds_executed: get_usize(obj, "rounds_executed")?,
                elapsed_ms: get_f64(obj, "elapsed_ms")?,
            }),
            "client_arrived" => Ok(Self::ClientArrived {
                vtime_us: get_u64(obj, "vtime_us")?,
                client: get_usize(obj, "client")?,
                version: get_u64(obj, "version")?,
            }),
            "client_unavailable" => Ok(Self::ClientUnavailable {
                vtime_us: get_u64(obj, "vtime_us")?,
                client: get_usize(obj, "client")?,
                reason: get_str(obj, "reason")?.to_string(),
            }),
            "buffer_flushed" => Ok(Self::BufferFlushed {
                vtime_us: get_u64(obj, "vtime_us")?,
                flush: get_u64(obj, "flush")?,
                size: get_usize(obj, "size")?,
                mean_staleness: get_f64(obj, "mean_staleness")?,
                cause: get_str(obj, "cause")?.to_string(),
            }),
            other => Err(err(&format!("unknown event kind {other:?}"))),
        }
    }
}

/// In-memory trace with an optional JSONL file mirror.
///
/// Events are always retained in memory (so round summaries can be rebuilt
/// from the trace without re-reading the file); when a sink path is set,
/// each event is additionally appended to the file as it is pushed.
///
/// The exception is [`TraceLog::hashing`] mode, built for million-event
/// simulation runs: instead of retaining events it folds each one's
/// *normalized* JSON line into a running FNV-1a hash, so a whole event
/// sequence can be pinned against a golden fixture in O(1) memory.
#[derive(Debug, Default)]
pub struct TraceLog {
    events: Vec<TraceEvent>,
    writer: Option<BufWriter<fs::File>>,
    hasher: Option<EventHasher>,
}

/// Running FNV-1a over normalized event JSON lines (one `\n` terminator
/// per line, matching a hash over the equivalent JSONL file).
#[derive(Debug, Clone, Copy)]
struct EventHasher {
    state: Fnv1a,
    count: u64,
}

impl EventHasher {
    fn new() -> Self {
        Self {
            state: Fnv1a::new(),
            count: 0,
        }
    }

    fn fold(&mut self, line: &str) {
        self.state.write(line.as_bytes());
        self.state.write(b"\n");
        self.count += 1;
    }
}

impl TraceLog {
    /// A memory-only trace.
    pub fn in_memory() -> Self {
        Self::default()
    }

    /// A trace mirrored to a JSONL file (truncates any existing file).
    pub fn to_file(path: &Path) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        Ok(Self {
            events: Vec::new(),
            writer: Some(BufWriter::new(fs::File::create(path)?)),
            hasher: None,
        })
    }

    /// A hash-only trace: events are normalized (wall-clock fields
    /// zeroed), serialized, folded into a running FNV-1a and then
    /// discarded. [`TraceLog::events`] stays empty; read the digest with
    /// [`TraceLog::event_hash`]. This is the constructor for
    /// million-event simulations, where retaining the trace would defeat
    /// the bounded-memory guarantee.
    pub fn hashing() -> Self {
        Self {
            events: Vec::new(),
            writer: None,
            hasher: Some(EventHasher::new()),
        }
    }

    /// Appends an event (and writes it through to the file sink, if any).
    pub fn push(&mut self, event: TraceEvent) {
        if let Some(h) = &mut self.hasher {
            h.fold(&event.normalized().to_json());
            return;
        }
        if let Some(w) = &mut self.writer {
            // Trace output is advisory; a full disk should not kill the
            // run, so sink errors drop the mirror and keep the memory log.
            let line = event.to_json();
            if writeln!(w, "{line}").is_err() {
                self.writer = None;
            }
        }
        self.events.push(event);
    }

    /// All events pushed so far (always empty in hashing mode).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// `(fnv1a hash, event count)` of the normalized event sequence.
    /// `None` unless this log was built with [`TraceLog::hashing`].
    pub fn event_hash(&self) -> Option<(u64, u64)> {
        self.hasher.map(|h| (h.state.finish(), h.count))
    }

    /// Flushes the file sink (no-op for memory-only traces).
    pub fn flush(&mut self) {
        if let Some(w) = &mut self.writer {
            let _ = w.flush();
        }
    }
}

/// FNV-1a of an event sequence exactly as [`TraceLog::hashing`] computes
/// it — normalize, serialize, fold with a `\n` terminator per line — so
/// retained traces and hash-only traces can be cross-checked.
pub fn hash_events(events: &[TraceEvent]) -> (u64, u64) {
    let mut h = EventHasher::new();
    for e in events {
        h.fold(&e.normalized().to_json());
    }
    (h.state.finish(), h.count)
}

/// `(fnv1a hash, event count)` over [`TraceEvent::canonical`] JSON lines:
/// the worker-count-invariant digest of a run's event sequence. Two runs
/// of the same configuration at any worker counts must produce the same
/// canonical hash; the grid harness pins these against golden fixtures.
pub fn hash_canonical_events(events: &[TraceEvent]) -> (u64, u64) {
    let mut h = EventHasher::new();
    for e in events {
        h.fold(&e.canonical().to_json());
    }
    (h.state.finish(), h.count)
}

impl Drop for TraceLog {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Reads a JSONL trace file back into events.
///
/// Blank lines are skipped; any malformed line aborts with its line number.
pub fn read_trace(path: &Path) -> Result<Vec<TraceEvent>, TraceError> {
    let text = fs::read_to_string(path)
        .map_err(|e| err(&format!("cannot read {}: {e}", path.display())))?;
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event =
            TraceEvent::from_json(line).map_err(|e| err(&format!("line {}: {e}", i + 1)))?;
        events.push(event);
    }
    Ok(events)
}

/// A malformed trace line or file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    message: String,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for TraceError {}

fn err(message: &str) -> TraceError {
    TraceError {
        message: message.to_string(),
    }
}

// ---------------------------------------------------------------------------
// JSON writing
// ---------------------------------------------------------------------------

/// Escapes a string per RFC 8259 (quotes, backslash, control characters).
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats a float so it round-trips and stays valid JSON (no NaN/inf —
/// those serialize as null and read back as an error, which is the right
/// loudness for a poisoned norm).
fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        let mut s = format!("{v}");
        // `{}` prints integral floats without a dot; keep them
        // distinguishable as numbers that round-trip through f64.
        if !s.contains('.') && !s.contains('e') && !s.contains('E') {
            s.push_str(".0");
        }
        s
    } else {
        "null".to_string()
    }
}

fn push_str_field(s: &mut String, key: &str, value: &str) {
    let _ = write!(s, "\"{key}\":\"{}\",", escape_json(value));
}

fn push_u64_field(s: &mut String, key: &str, value: u64) {
    let _ = write!(s, "\"{key}\":{value},");
}

fn push_usize_field(s: &mut String, key: &str, value: usize) {
    let _ = write!(s, "\"{key}\":{value},");
}

fn push_null_field(s: &mut String, key: &str) {
    let _ = write!(s, "\"{key}\":null,");
}

fn push_bool_field(s: &mut String, key: &str, value: bool) {
    let _ = write!(s, "\"{key}\":{value},");
}

fn push_num_field(s: &mut String, key: &str, value: f64) {
    let _ = write!(s, "\"{key}\":{},", fmt_num(value));
}

fn push_usize_array_field(s: &mut String, key: &str, values: &[usize]) {
    let _ = write!(s, "\"{key}\":[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{v}");
    }
    s.push_str("],");
}

fn push_f64_array_field(s: &mut String, key: &str, values: &[f64]) {
    let _ = write!(s, "\"{key}\":[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&fmt_num(*v));
    }
    s.push_str("],");
}

// ---------------------------------------------------------------------------
// JSON reading (minimal recursive descent over the trace schema)
// ---------------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Self::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Self::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }
}

fn lookup<'a>(obj: &'a [(String, Value)], key: &str) -> Result<&'a Value, TraceError> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| err(&format!("missing field {key:?}")))
}

fn get_str<'a>(obj: &'a [(String, Value)], key: &str) -> Result<&'a str, TraceError> {
    lookup(obj, key)?
        .as_str()
        .ok_or_else(|| err(&format!("field {key:?} must be a string")))
}

fn get_u64(obj: &[(String, Value)], key: &str) -> Result<u64, TraceError> {
    lookup(obj, key)?
        .as_u64()
        .ok_or_else(|| err(&format!("field {key:?} must be a non-negative integer")))
}

fn get_usize(obj: &[(String, Value)], key: &str) -> Result<usize, TraceError> {
    Ok(get_u64(obj, key)? as usize)
}

fn get_f64(obj: &[(String, Value)], key: &str) -> Result<f64, TraceError> {
    lookup(obj, key)?
        .as_f64()
        .ok_or_else(|| err(&format!("field {key:?} must be a number")))
}

fn get_bool(obj: &[(String, Value)], key: &str) -> Result<bool, TraceError> {
    match lookup(obj, key)? {
        Value::Bool(b) => Ok(*b),
        _ => Err(err(&format!("field {key:?} must be a boolean"))),
    }
}

fn get_usize_array(obj: &[(String, Value)], key: &str) -> Result<Vec<usize>, TraceError> {
    match lookup(obj, key)? {
        Value::Arr(items) => items
            .iter()
            .map(|v| {
                v.as_u64()
                    .map(|n| n as usize)
                    .ok_or_else(|| err(&format!("field {key:?} must contain only integers")))
            })
            .collect(),
        _ => Err(err(&format!("field {key:?} must be an array"))),
    }
}

fn get_f64_array(obj: &[(String, Value)], key: &str) -> Result<Vec<f64>, TraceError> {
    match lookup(obj, key)? {
        Value::Arr(items) => items
            .iter()
            .map(|v| {
                v.as_f64()
                    .ok_or_else(|| err(&format!("field {key:?} must contain only numbers")))
            })
            .collect(),
        _ => Err(err(&format!("field {key:?} must be an array"))),
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse_json(text: &str) -> Result<Value, TraceError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(err("trailing characters after JSON value"));
    }
    Ok(value)
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Result<u8, TraceError> {
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| err("unexpected end of input"))
    }

    fn expect(&mut self, b: u8) -> Result<(), TraceError> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(err(&format!(
                "expected {:?} at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str, value: Value) -> Result<Value, TraceError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(err(&format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, TraceError> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Value::Str(self.string()?)),
            b't' => self.eat_literal("true", Value::Bool(true)),
            b'f' => self.eat_literal("false", Value::Bool(false)),
            b'n' => self.eat_literal("null", Value::Null),
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(err(&format!("unexpected character {:?}", c as char))),
        }
    }

    fn object(&mut self) -> Result<Value, TraceError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                c => return Err(err(&format!("expected ',' or '}}', got {:?}", c as char))),
            }
        }
    }

    fn array(&mut self) -> Result<Value, TraceError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                c => return Err(err(&format!("expected ',' or ']', got {:?}", c as char))),
            }
        }
    }

    fn string(&mut self) -> Result<String, TraceError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast-forward over the unescaped run.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| err("invalid utf-8 in string"))?,
            );
            match self.peek()? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek()? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| err("invalid \\u escape"))?;
                            // Trace strings never contain surrogate pairs;
                            // reject them rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        c => return Err(err(&format!("invalid escape \\{:?}", c as char))),
                    }
                    self.pos += 1;
                }
                _ => unreachable!("scan stops only at quote or backslash"),
            }
        }
    }

    fn number(&mut self) -> Result<Value, TraceError> {
        let start = self.pos;
        if self.peek()? == b'-' {
            self.pos += 1;
        }
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| err("invalid number"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| err(&format!("invalid number {text:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_log_matches_hash_of_retained_events() {
        let events = sample_events();
        let mut retained = TraceLog::in_memory();
        let mut hashed = TraceLog::hashing();
        for e in &events {
            retained.push(e.clone());
            hashed.push(e.clone());
        }
        assert!(hashed.events().is_empty(), "hashing mode retains nothing");
        assert_eq!(hashed.event_hash(), Some(hash_events(retained.events())));
        assert_eq!(retained.event_hash(), None);
        let (h, n) = hashed.event_hash().unwrap();
        assert_eq!(n, events.len() as u64);
        assert_ne!(h, Fnv1a::new().finish(), "events must perturb the hash");
    }

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RunStarted {
                run_seed: 42,
                config_hash: 0xABCD,
                num_clients: 16,
                rounds: 5,
                workers: 4,
                aggregator: "trimmed_mean".into(),
                resumed_from: None,
            },
            TraceEvent::RoundStarted {
                round: 0,
                sampled: vec![1, 4, 9],
                compromised: vec![4],
            },
            TraceEvent::RoundCompleted {
                round: 0,
                aggregator: "trimmed_mean".into(),
                num_malicious: 1,
                benign_norms: vec![0.5, 1.25],
                malicious_norms: vec![3.0],
                agg_delta_norm: 0.75,
                elapsed_ms: 12.5,
            },
            TraceEvent::ShiftAlert {
                round: 3,
                observed: 9.5,
                baseline_median: 1.0,
                z_score: 6.1,
            },
            TraceEvent::CheckpointSaved {
                round: 4,
                path: "/tmp/weird \"dir\"\\round-000004.ckpt".into(),
            },
            TraceEvent::ClientDropped {
                round: 2,
                client: 9,
                cause: "straggler".into(),
                delay_ms: 17.25,
            },
            TraceEvent::ClientDropped {
                round: 2,
                client: 4,
                cause: "dropout".into(),
                delay_ms: 0.0,
            },
            TraceEvent::UpdateRejected {
                round: 3,
                client: 1,
                reason: "injected_corruption".into(),
            },
            TraceEvent::CheckpointWriteFailed {
                round: 4,
                attempt: 2,
                error: "injected checkpoint-write fault".into(),
                gave_up: false,
            },
            TraceEvent::CheckpointWriteFailed {
                round: 4,
                attempt: 3,
                error: "disk on fire".into(),
                gave_up: true,
            },
            TraceEvent::ClientArrived {
                vtime_us: 1_250_500,
                client: 7,
                version: 3,
            },
            TraceEvent::ClientUnavailable {
                vtime_us: 1_251_000,
                client: 8,
                reason: "capacity".into(),
            },
            TraceEvent::BufferFlushed {
                vtime_us: 2_000_750,
                flush: 4,
                size: 16,
                mean_staleness: 1.5,
                cause: "buffer_full".into(),
            },
            TraceEvent::RunCompleted {
                rounds_executed: 5,
                elapsed_ms: 88.125,
            },
        ]
    }

    #[test]
    fn events_roundtrip_through_json() {
        for event in sample_events() {
            let line = event.to_json();
            let back = TraceEvent::from_json(&line)
                .unwrap_or_else(|e| panic!("parse failed for {line}: {e}"));
            assert_eq!(back, event);
        }
    }

    #[test]
    fn escaping_survives_hostile_strings() {
        let event = TraceEvent::CheckpointSaved {
            round: 1,
            path: "quote\" slash\\ newline\n tab\t ctrl\u{1} unicode é".into(),
        };
        assert_eq!(TraceEvent::from_json(&event.to_json()).unwrap(), event);
    }

    #[test]
    fn normalized_zeroes_wall_clock_only() {
        let events = sample_events();
        for e in &events {
            let n = e.normalized();
            match (&n, e) {
                (
                    TraceEvent::RoundCompleted {
                        elapsed_ms,
                        benign_norms,
                        ..
                    },
                    TraceEvent::RoundCompleted {
                        benign_norms: orig, ..
                    },
                ) => {
                    assert_eq!(*elapsed_ms, 0.0);
                    assert_eq!(benign_norms, orig);
                }
                (TraceEvent::RunCompleted { elapsed_ms, .. }, _) => {
                    assert_eq!(*elapsed_ms, 0.0)
                }
                _ => assert_eq!(&n, e),
            }
        }
    }

    #[test]
    fn canonical_zeroes_workers_and_wall_clock() {
        for e in sample_events() {
            let c = e.canonical();
            match (&c, &e) {
                (TraceEvent::RunStarted { workers, .. }, _) => assert_eq!(*workers, 0),
                (TraceEvent::RoundCompleted { elapsed_ms, .. }, _)
                | (TraceEvent::RunCompleted { elapsed_ms, .. }, _) => assert_eq!(*elapsed_ms, 0.0),
                _ => assert_eq!(&c, &e),
            }
        }
        // Same events at different worker counts hash identically.
        let at = |workers: usize| {
            let mut events = sample_events();
            if let TraceEvent::RunStarted { workers: w, .. } = &mut events[0] {
                *w = workers;
            }
            hash_canonical_events(&events)
        };
        assert_eq!(at(1), at(8));
        assert_ne!(hash_events(&sample_events()), (Fnv1a::new().finish(), 0));
    }

    #[test]
    fn malformed_lines_error_not_panic() {
        for bad in [
            "",
            "{",
            "[1,2",
            "{\"event\":\"nope\"}",
            "{\"event\":\"round_started\"}",
            "{\"event\":\"round_started\",\"round\":-1,\"sampled\":[],\"compromised\":[]}",
            "{\"event\":\"round_completed\",\"round\":0,\"aggregator\":3}",
            "not json at all",
            "{\"event\":\"run_completed\",\"rounds_executed\":1,\"elapsed_ms\":\"x\"}",
            "{\"event\":\"client_dropped\",\"round\":0,\"client\":1,\"cause\":7,\"delay_ms\":0.0}",
            "{\"event\":\"update_rejected\",\"round\":0,\"reason\":\"non_finite\"}",
            "{\"event\":\"checkpoint_write_failed\",\"round\":0,\"attempt\":1,\"error\":\"e\",\"gave_up\":\"yes\"}",
        ] {
            assert!(TraceEvent::from_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn trace_log_mirrors_to_file() {
        let dir = std::env::temp_dir().join(format!("collapois-trace-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("run.jsonl");
        let events = sample_events();
        {
            let mut log = TraceLog::to_file(&path).unwrap();
            for e in &events {
                log.push(e.clone());
            }
            assert_eq!(log.events(), &events[..]);
        }
        let back = read_trace(&path).unwrap();
        assert_eq!(back, events);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn nonfinite_norms_serialize_as_null_and_fail_loudly_on_read() {
        let event = TraceEvent::RoundCompleted {
            round: 0,
            aggregator: "mean".into(),
            num_malicious: 0,
            benign_norms: vec![f64::NAN],
            malicious_norms: vec![],
            agg_delta_norm: 1.0,
            elapsed_ms: 0.0,
        };
        let line = event.to_json();
        assert!(line.contains("null"));
        assert!(TraceEvent::from_json(&line).is_err());
    }
}
