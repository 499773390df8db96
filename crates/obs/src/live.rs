//! Live-observer plumbing: the broadcast ring, progress counters, and
//! the [`LiveObs`] bundle a telemetry server reads from (DESIGN.md
//! §12).
//!
//! Everything here is a *mirror* of deterministic state, never the
//! state itself. Trace records are pushed into a bounded [`Broadcast`]
//! ring *after* the primary tracer has consumed them; metrics tee into
//! a live registry the primary shards never read back; progress is a
//! handful of atomics the simulation bumps and only the server reads.
//! Dropping every structure in this module on the floor changes no
//! simulation output — that is the determinism argument for `--serve`,
//! and the serve-determinism suite enforces it byte-for-byte.
//!
//! Wall-clock appears exactly once (ops-per-second in
//! [`ProgressHandle::render_json`]) and, like [`crate::profile`], is
//! served live only — it never reaches traces, metrics, or `results/`.

use crate::event::TraceRecord;
use crate::metrics::MetricsRegistry;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Default broadcast ring capacity: enough tail for a human watching
/// `/trace/stream`, bounded so a multi-year run can't grow it.
pub const DEFAULT_BROADCAST_CAP: usize = 65_536;

struct BroadcastState {
    /// Cursor of the *next* record to be pushed. Record `i` (0-based
    /// since attach) has cursor `i`.
    next: u64,
    /// Most recent records, each with its cursor.
    buf: VecDeque<(u64, TraceRecord)>,
    cap: usize,
    closed: bool,
}

/// Bounded multi-reader broadcast ring for live trace mirroring.
///
/// Writers [`Broadcast::push`] records as the simulation emits them;
/// readers poll with a cursor and block (bounded) on a condvar until
/// something newer arrives. Readers that fall more than `cap` records
/// behind silently skip ahead — the cursor gap tells them how much
/// they missed. Under `par_map` the push interleave across tasks is
/// scheduling-dependent; that is fine because this ring is only ever a
/// live view, never an output.
#[derive(Clone)]
pub struct Broadcast {
    inner: Arc<(Mutex<BroadcastState>, Condvar)>,
}

impl Broadcast {
    /// A ring keeping the most recent `cap` records.
    pub fn new(cap: usize) -> Self {
        Broadcast {
            inner: Arc::new((
                Mutex::new(BroadcastState {
                    next: 0,
                    buf: VecDeque::new(),
                    cap: cap.max(1),
                    closed: false,
                }),
                Condvar::new(),
            )),
        }
    }

    /// Append one record and wake pollers.
    pub fn push(&self, rec: &TraceRecord) {
        let (lock, cond) = &*self.inner;
        let mut st = lock.lock().expect("broadcast lock");
        if st.buf.len() == st.cap {
            st.buf.pop_front();
        }
        let cursor = st.next;
        st.next += 1;
        st.buf.push_back((cursor, rec.clone()));
        drop(st);
        cond.notify_all();
    }

    /// The most recent `n` records, oldest first.
    pub fn tail(&self, n: usize) -> Vec<TraceRecord> {
        let (lock, _) = &*self.inner;
        let st = lock.lock().expect("broadcast lock");
        let skip = st.buf.len().saturating_sub(n);
        st.buf.iter().skip(skip).map(|(_, r)| r.clone()).collect()
    }

    /// Cursor one past the newest record (a fresh reader's starting
    /// point for [`Broadcast::poll_after`]).
    pub fn cursor(&self) -> u64 {
        let (lock, _) = &*self.inner;
        lock.lock().expect("broadcast lock").next
    }

    /// Records with cursor ≥ `after`, blocking up to `timeout` for new
    /// ones when there are none yet. Returns `(records, next_cursor,
    /// closed)`; `next_cursor` is what the reader should pass next
    /// time. A reader that fell out of the ring resumes at the oldest
    /// retained record.
    pub fn poll_after(
        &self,
        after: u64,
        timeout: Duration,
    ) -> (Vec<(u64, TraceRecord)>, u64, bool) {
        let (lock, cond) = &*self.inner;
        let mut st = lock.lock().expect("broadcast lock");
        let deadline = Instant::now() + timeout;
        loop {
            if st.next > after || st.closed {
                let out: Vec<(u64, TraceRecord)> = st
                    .buf
                    .iter()
                    .filter(|(c, _)| *c >= after)
                    .cloned()
                    .collect();
                let next = st.next.max(after);
                return (out, next, st.closed);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return (Vec::new(), after, st.closed);
            }
            let (guard, timed_out) = cond.wait_timeout(st, left).expect("broadcast lock");
            st = guard;
            if timed_out.timed_out() && st.next <= after && !st.closed {
                return (Vec::new(), after, st.closed);
            }
        }
    }

    /// Mark the stream finished and wake every poller. Pushing after
    /// close is allowed (late stragglers) but readers already saw
    /// `closed`.
    pub fn close(&self) {
        let (lock, cond) = &*self.inner;
        lock.lock().expect("broadcast lock").closed = true;
        cond.notify_all();
    }
}

impl fmt::Debug for Broadcast {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (lock, _) = &*self.inner;
        let st = lock.lock().expect("broadcast lock");
        f.debug_struct("Broadcast")
            .field("next", &st.next)
            .field("buffered", &st.buf.len())
            .field("closed", &st.closed)
            .finish()
    }
}

#[derive(Debug)]
struct ProgressInner {
    /// Highest simulated day reached by any task (`fetch_max`).
    day: AtomicU64,
    /// Day count the run expects to cover, if known.
    total_days: AtomicU64,
    /// Host operations processed so far.
    ops: AtomicU64,
    /// Devices the run simulates, if known.
    devices: AtomicU64,
    /// Devices finished so far (fleet runs).
    devices_done: AtomicU64,
    /// Per-mode day watermarks: label → (day, total_days). Only
    /// touched by mode-scoped handles (see [`ProgressHandle::for_mode`]),
    /// so the fast path stays atomic-only.
    modes: Mutex<BTreeMap<String, (u64, u64)>>,
    /// When the run attached — only for the served ops-per-second.
    started: Instant,
}

/// Optionally-disabled progress counters, mirroring the other obs
/// handles: `Default` is disabled and every bump is one branch.
///
/// Counters are monotone and commutative (`fetch_max` for day, adds
/// for the rest), so any number of `par_map` tasks can bump one shared
/// handle without coordination and without affecting determinism — the
/// values are served live and never written to run output.
///
/// Fan-out runs (one mode per task) additionally scope a clone with
/// [`ProgressHandle::for_mode`]: day bumps through that clone also
/// maintain a per-mode `label → (day, total_days)` watermark served as
/// the `"modes"` object in `/progress`, so a watcher sees how deep into
/// the simulated horizon each mode is, not just the global maximum.
#[derive(Clone, Default, Debug)]
pub struct ProgressHandle {
    inner: Option<Arc<ProgressInner>>,
    /// Mode label this clone reports day progress under, if any.
    mode: Option<Arc<str>>,
}

impl ProgressHandle {
    /// A live handle.
    pub fn enabled() -> Self {
        ProgressHandle {
            inner: Some(Arc::new(ProgressInner {
                day: AtomicU64::new(0),
                total_days: AtomicU64::new(0),
                ops: AtomicU64::new(0),
                devices: AtomicU64::new(0),
                devices_done: AtomicU64::new(0),
                modes: Mutex::new(BTreeMap::new()),
                started: Instant::now(),
            })),
            mode: None,
        }
    }

    /// A dead handle (the default).
    pub fn disabled() -> Self {
        ProgressHandle {
            inner: None,
            mode: None,
        }
    }

    /// Whether anything reads these counters.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A clone that also tracks day progress under `label` (e.g.
    /// `"fleet=ShrinkS"`). Shares every global counter with the
    /// original handle; only the day watermark is additionally
    /// mirrored into the per-mode map.
    pub fn for_mode(&self, label: &str) -> Self {
        ProgressHandle {
            inner: self.inner.clone(),
            mode: if self.inner.is_some() {
                Some(Arc::from(label))
            } else {
                None
            },
        }
    }

    /// Raise the current-day watermark (monotone across tasks).
    pub fn set_day(&self, day: u64) {
        if let Some(p) = &self.inner {
            p.day.fetch_max(day, Ordering::Relaxed);
            if let Some(mode) = &self.mode {
                let mut modes = p.modes.lock().expect("progress modes lock");
                let entry = modes.entry(mode.to_string()).or_insert((0, 0));
                entry.0 = entry.0.max(day);
            }
        }
    }

    /// Declare how many days the run will cover.
    pub fn set_total_days(&self, days: u64) {
        if let Some(p) = &self.inner {
            p.total_days.fetch_max(days, Ordering::Relaxed);
            if let Some(mode) = &self.mode {
                let mut modes = p.modes.lock().expect("progress modes lock");
                let entry = modes.entry(mode.to_string()).or_insert((0, 0));
                entry.1 = entry.1.max(days);
            }
        }
    }

    /// Count host operations processed.
    pub fn add_ops(&self, n: u64) {
        if let Some(p) = &self.inner {
            p.ops.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Declare how many devices the run simulates.
    pub fn add_devices(&self, n: u64) {
        if let Some(p) = &self.inner {
            p.devices.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Count devices that finished simulating.
    pub fn device_done(&self) {
        if let Some(p) = &self.inner {
            p.devices_done.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current `(day, total_days, ops, devices, devices_done)`.
    pub fn snapshot(&self) -> (u64, u64, u64, u64, u64) {
        match &self.inner {
            Some(p) => (
                p.day.load(Ordering::Relaxed),
                p.total_days.load(Ordering::Relaxed),
                p.ops.load(Ordering::Relaxed),
                p.devices.load(Ordering::Relaxed),
                p.devices_done.load(Ordering::Relaxed),
            ),
            None => (0, 0, 0, 0, 0),
        }
    }

    /// Per-mode `(label, day, total_days)` watermarks, sorted by label.
    pub fn mode_snapshot(&self) -> Vec<(String, u64, u64)> {
        match &self.inner {
            Some(p) => p
                .modes
                .lock()
                .expect("progress modes lock")
                .iter()
                .map(|(label, &(day, total))| (label.clone(), day, total))
                .collect(),
            None => Vec::new(),
        }
    }

    /// The `/progress` JSON body. Hand-assembled (the vendored serde
    /// has no map serializer) with a fixed field order; `ops_per_sec`
    /// is wall-clock-derived and intentionally excluded from anything
    /// deterministic.
    pub fn render_json(&self, run: &str, done: bool) -> String {
        let (day, total_days, ops, devices, devices_done) = self.snapshot();
        let ops_per_sec = match &self.inner {
            Some(p) => {
                let secs = p.started.elapsed().as_secs_f64();
                if secs > 0.0 {
                    ops as f64 / secs
                } else {
                    0.0
                }
            }
            None => 0.0,
        };
        let mut modes = String::new();
        for (i, (label, mode_day, mode_total)) in self.mode_snapshot().iter().enumerate() {
            if i > 0 {
                modes.push(',');
            }
            modes.push_str(&format!(
                "{}:{{\"day\":{mode_day},\"total_days\":{mode_total}}}",
                json_string(label)
            ));
        }
        format!(
            concat!(
                "{{\"run\":{run},\"day\":{day},\"total_days\":{total},",
                "\"ops\":{ops},\"devices\":{devices},",
                "\"devices_done\":{done_devices},\"ops_per_sec\":{rate:.1},",
                "\"modes\":{{{modes}}},\"done\":{done}}}"
            ),
            run = json_string(run),
            day = day,
            total = total_days,
            ops = ops,
            devices = devices,
            done_devices = devices_done,
            rate = ops_per_sec,
            modes = modes,
            done = done,
        )
    }
}

/// Minimal JSON string escaping for hand-assembled bodies.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// What a live telemetry server reads: the trace broadcast, a mirror
/// metrics registry, and the progress counters. Simulation code never
/// reads any of it back — see the module docs for the determinism
/// argument.
#[derive(Clone, Debug)]
pub struct LiveObs {
    /// Live mirror of emitted trace records (bounded ring).
    pub trace: Broadcast,
    /// Live mirror of the metrics registries (teed writes plus
    /// end-of-task bulk merges).
    pub metrics: Arc<Mutex<MetricsRegistry>>,
    /// Run progress counters.
    pub progress: ProgressHandle,
}

impl LiveObs {
    /// A live bundle with the default broadcast capacity.
    pub fn new() -> Self {
        Self::with_cap(DEFAULT_BROADCAST_CAP)
    }

    /// A live bundle keeping the most recent `cap` trace records.
    pub fn with_cap(cap: usize) -> Self {
        LiveObs {
            trace: Broadcast::new(cap),
            metrics: Arc::new(Mutex::new(MetricsRegistry::new())),
            progress: ProgressHandle::enabled(),
        }
    }

    /// Fold a finished shard's registry into the live mirror (for
    /// layers that merge shards at end of task rather than teeing
    /// every update).
    pub fn merge_metrics(&self, shard: &MetricsRegistry) {
        self.metrics.lock().expect("live metrics lock").merge(shard);
    }

    /// Render the live metrics mirror as Prometheus text.
    pub fn render_metrics(&self) -> String {
        self.metrics.lock().expect("live metrics lock").render()
    }
}

impl Default for LiveObs {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{SimTime, TraceEvent};

    fn rec(seq: u64) -> TraceRecord {
        TraceRecord {
            seq,
            time: SimTime::new(0, seq),
            event: TraceEvent::GcPass {
                block: seq,
                relocated: 1,
            },
        }
    }

    #[test]
    fn tail_returns_most_recent_in_order() {
        let b = Broadcast::new(4);
        for i in 0..10 {
            b.push(&rec(i));
        }
        let t = b.tail(2);
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].seq, 8);
        assert_eq!(t[1].seq, 9);
        assert_eq!(b.tail(100).len(), 4, "capped at ring size");
    }

    #[test]
    fn poll_after_sees_new_records_and_skips_evicted() {
        let b = Broadcast::new(4);
        for i in 0..3 {
            b.push(&rec(i));
        }
        let (got, next, closed) = b.poll_after(0, Duration::from_millis(0));
        assert_eq!(got.len(), 3);
        assert_eq!(next, 3);
        assert!(!closed);
        // Nothing new: bounded wait times out empty.
        let (got, next2, _) = b.poll_after(next, Duration::from_millis(1));
        assert!(got.is_empty());
        assert_eq!(next2, next);
        // Overflow past the reader: it resumes at the oldest retained.
        for i in 3..20 {
            b.push(&rec(i));
        }
        let (got, next3, _) = b.poll_after(next, Duration::from_millis(0));
        assert_eq!(got.len(), 4);
        assert_eq!(got[0].0, 16, "reader skipped to oldest retained");
        assert_eq!(next3, 20);
    }

    #[test]
    fn close_wakes_pollers() {
        let b = Broadcast::new(4);
        let b2 = b.clone();
        let waiter = std::thread::spawn(move || b2.poll_after(0, Duration::from_secs(10)));
        b.close();
        let (got, _, closed) = waiter.join().unwrap();
        assert!(got.is_empty());
        assert!(closed);
    }

    #[test]
    fn disabled_progress_is_inert() {
        let p = ProgressHandle::disabled();
        p.set_day(5);
        p.add_ops(100);
        assert_eq!(p.snapshot(), (0, 0, 0, 0, 0));
    }

    #[test]
    fn progress_counters_accumulate() {
        let p = ProgressHandle::enabled();
        p.set_total_days(100);
        p.set_day(3);
        p.set_day(2); // watermark: lower value ignored
        p.add_ops(10);
        p.add_ops(5);
        p.add_devices(4);
        p.device_done();
        assert_eq!(p.snapshot(), (3, 100, 15, 4, 1));
        let json = p.render_json("lifetime", false);
        assert!(json.contains("\"run\":\"lifetime\""), "{json}");
        assert!(json.contains("\"day\":3"), "{json}");
        assert!(json.contains("\"modes\":{}"), "{json}");
        assert!(json.contains("\"done\":false"), "{json}");
    }

    #[test]
    fn mode_scoped_handles_track_per_mode_days() {
        let p = ProgressHandle::enabled();
        let shrink = p.for_mode("fleet=ShrinkS");
        let base = p.for_mode("fleet=Baseline");
        shrink.set_total_days(200);
        shrink.set_day(40);
        shrink.set_day(10); // watermark: lower value ignored
        base.set_total_days(200);
        base.set_day(75);
        // Mode bumps flow into the shared global watermark too.
        assert_eq!(p.snapshot().0, 75);
        assert_eq!(
            p.mode_snapshot(),
            vec![
                ("fleet=Baseline".to_string(), 75, 200),
                ("fleet=ShrinkS".to_string(), 40, 200),
            ]
        );
        let json = p.render_json("fig3a", false);
        assert!(
            json.contains("\"fleet=ShrinkS\":{\"day\":40,\"total_days\":200}"),
            "{json}"
        );
        assert!(
            json.contains("\"fleet=Baseline\":{\"day\":75,\"total_days\":200}"),
            "{json}"
        );
        // Disabled handles stay inert through for_mode.
        let dead = ProgressHandle::disabled().for_mode("fleet=X");
        dead.set_day(9);
        assert!(dead.mode_snapshot().is_empty());
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn live_obs_merges_metric_shards() {
        let live = LiveObs::with_cap(8);
        let mut shard = MetricsRegistry::new();
        shard.inc("x_total", 2);
        live.merge_metrics(&shard);
        live.merge_metrics(&shard);
        let text = live.render_metrics();
        assert!(text.contains("x_total 4"), "{text}");
    }
}
