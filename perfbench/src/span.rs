//! Benchmark-side spans around every call into a layer's public API.
//!
//! A span is named `<layer>.<operation>`. The tracer keeps exact
//! per-name aggregates (calls, total and self time) plus the first
//! [`RAW_CAP`] raw spans with their parents, all in memory; the raw
//! spans are written out once the run ends. A span's self time is its
//! duration minus the time its direct child spans cover, so summing
//! self time by layer attributes every traced nanosecond exactly once.
//! A disabled tracer runs the wrapped call and nothing else.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Raw spans kept for the written-out trace; aggregates stay exact
/// past it.
pub const RAW_CAP: usize = 200_000;

/// Root span of a timed section. Its self time is the section's wall
/// time no layer span covers: the `unattributed` row.
pub const ROOT: &str = "bench.timed";

/// Exact totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    /// Spans closed under this name.
    pub calls: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// One recorded span (times relative to the tracer's creation).
#[derive(Debug, Clone, Copy)]
pub struct RawSpan {
    /// Span name.
    pub name: &'static str,
    /// Start offset.
    pub start_ns: u64,
    /// End offset.
    pub end_ns: u64,
    /// Index of the enclosing raw span, if it was recorded.
    pub parent: Option<u32>,
}

struct Frame {
    name: &'static str,
    start: Instant,
    child_ns: u64,
    raw: Option<u32>,
}

/// The span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    stack: Vec<Frame>,
    aggs: Vec<(&'static str, Agg)>,
    raw: Vec<RawSpan>,
    raw_dropped: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            stack: Vec::new(),
            aggs: Vec::new(),
            raw: Vec::new(),
            raw_dropped: 0,
        }
    }

    /// Open a span; close it with [`Self::exit`].
    #[inline]
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start = Instant::now();
        let raw = if self.raw.len() < RAW_CAP {
            let parent = self.stack.last().and_then(|f| f.raw);
            self.raw.push(RawSpan {
                name,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: 0,
                parent,
            });
            Some((self.raw.len() - 1) as u32)
        } else {
            self.raw_dropped += 1;
            None
        };
        self.stack.push(Frame {
            name,
            start,
            child_ns: 0,
            raw,
        });
    }

    /// Close the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end = Instant::now();
        let f = self.stack.pop().expect("span exit without enter");
        let dur = (end - f.start).as_nanos() as u64;
        if let Some(i) = f.raw {
            self.raw[i as usize].end_ns = (end - self.epoch).as_nanos() as u64;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let a = self.agg_mut(f.name);
        a.calls += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(f.child_ns);
    }

    /// Run `f` inside a span named `name`.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Charge time measured inside a call as a child span of the
    /// aggregate `parent` (closed already): `name` gains the time as
    /// self time and `parent` loses it. Used to fold a layer's own
    /// wall-clock phases into the benchmark's spans.
    pub fn fold_child(
        &mut self,
        parent: &'static str,
        name: &'static str,
        calls: u64,
        t: Duration,
    ) {
        if !self.on {
            return;
        }
        let ns = t.as_nanos() as u64;
        let p = self.agg_mut(parent);
        p.self_ns = p.self_ns.saturating_sub(ns);
        let a = self.agg_mut(name);
        a.calls += calls;
        a.total_ns += ns;
        a.self_ns += ns;
    }

    fn agg_mut(&mut self, name: &'static str) -> &mut Agg {
        let i = match self
            .aggs
            .iter()
            .position(|(n, _)| std::ptr::eq(*n, name) || *n == name)
        {
            Some(i) => i,
            None => {
                self.aggs.push((name, Agg::default()));
                self.aggs.len() - 1
            }
        };
        &mut self.aggs[i].1
    }

    /// Totals for one span name (zero when never recorded).
    pub fn agg(&self, name: &str) -> Agg {
        self.aggs
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, a)| *a)
            .unwrap_or_default()
    }

    /// Self time per layer (the span-name prefix before the first `.`),
    /// in seconds, sorted by layer.
    pub fn self_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (name, a) in &self.aggs {
            let layer = name.split('.').next().unwrap_or(name);
            *out.entry(layer).or_insert(0.0) += a.self_ns as f64 / 1e9;
        }
        out
    }

    /// The recorded spans as tab-separated text: a header, then
    /// `name start_ns end_ns parent` per raw span, then one
    /// `# agg name calls total_ns self_ns` line per span name.
    pub fn render(&self) -> String {
        let mut out = String::from("name\tstart_ns\tend_ns\tparent\n");
        for s in &self.raw {
            let parent = s.parent.map_or(-1, i64::from);
            let _ = writeln!(out, "{}\t{}\t{}\t{parent}", s.name, s.start_ns, s.end_ns);
        }
        let _ = writeln!(
            out,
            "# raw spans dropped past the cap: {}",
            self.raw_dropped
        );
        let mut aggs = self.aggs.clone();
        aggs.sort_by_key(|(n, _)| *n);
        for (n, a) in aggs {
            let _ = writeln!(out, "# agg {n} {} {} {}", a.calls, a.total_ns, a.self_ns);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children_and_lands_in_the_right_layer() {
        let mut tr = Tracer::on();
        tr.enter(ROOT);
        tr.enter("difs.tick");
        spin(Duration::from_millis(5));
        tr.span("obs.cluster_rollup", || spin(Duration::from_millis(20)));
        tr.exit();
        tr.exit();
        let layers = tr.self_by_layer();
        assert!(layers["obs"] >= 0.020, "{layers:?}");
        assert!(
            layers["difs"] >= 0.005 && layers["difs"] < 0.015,
            "{layers:?}"
        );
        assert!(layers["bench"] < 0.005, "{layers:?}");
        let tick = tr.agg("difs.tick");
        assert_eq!(tick.calls, 1);
        assert!(tick.total_ns >= 25_000_000 && tick.self_ns < tick.total_ns);
    }

    #[test]
    fn folded_children_move_time_out_of_the_parent() {
        let mut tr = Tracer::on();
        tr.span("fleet.run", || spin(Duration::from_millis(10)));
        tr.fold_child("fleet.run", "fleet.phase", 3, Duration::from_millis(4));
        let run = tr.agg("fleet.run");
        let phase = tr.agg("fleet.phase");
        assert_eq!(phase.calls, 3);
        assert_eq!(phase.self_ns, 4_000_000);
        assert_eq!(run.total_ns - run.self_ns, 4_000_000);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        assert_eq!(tr.span("ftl.read", || 7), 7);
        assert!(tr.self_by_layer().is_empty());
        assert_eq!(tr.render().lines().count(), 2);
    }
}
