//! `salamander-telemetry` — the live telemetry plane (DESIGN.md §12).
//!
//! A tiny blocking HTTP/1.1 server (`std::net::TcpListener`, zero
//! dependencies beyond `salamander-obs`) that a running simulation
//! attaches to via a [`LiveObs`] mirror. It is a read-only observer on
//! its own threads: every byte it serves comes from the mirror
//! structures in [`salamander_obs::live`], which the deterministic
//! pipeline writes into but never reads back — so `results/` CSVs,
//! traces, and metrics are byte-identical with the server on or off
//! (enforced by the serve-determinism suite).
//!
//! Endpoints:
//!
//! | path                | body                                             |
//! |---------------------|--------------------------------------------------|
//! | `GET /metrics`      | Prometheus text: the live registry mid-run, the exact `--metrics` file bytes once the run finished |
//! | `GET /healthz`      | liveness JSON (`{"status":"ok",...}`)            |
//! | `GET /health`       | JSON map of run label → `HealthReport` (published at end of run) |
//! | `GET /trace/tail`   | NDJSON of the most recent `?n=K` records (default 100) |
//! | `GET /trace/stream` | NDJSON long-poll from `?from=<cursor>`; the next cursor comes back in an `X-Next-Cursor` header |
//! | `GET /progress`     | sim day / ops / device counts / per-mode days / rollup day counts / wall-clock ops-per-sec |
//! | `GET /fleet`        | JSON snapshot: per-label rollup day count plus the latest [`FleetRollup`] |
//! | `GET /fleet/series` | `?metric=<name>[&fleet=<label>]`: per-label `[day, value]` series over the published rollups (metric names per [`FleetRollup::series_value`]) |
//! | `GET /latency`      | JSON snapshot: per-label latency-rollup day count, latest per-class tail stats, and tail-regression anomalies (DESIGN.md §15) |
//! | `GET /latency/series` | `?class=<op-class>&stat=<p50\|p90\|p99\|p999\|mean\|count>[&fleet=<label>]`: per-label `[day, ns]` series over the published latency rollups |
//! | `GET /cluster`      | JSON snapshot: per-label cluster-rollup tick count, the latest [`ClusterRollup`], exposure-window percentiles, and recovery anomalies (DESIGN.md §16) |
//! | `GET /cluster/series` | `?metric=<name>[&fleet=<label>]`: per-label `[tick, value]` series over the published cluster rollups (metric names per [`ClusterRollup::series_value`]) |
//! | `GET /quit`         | asks the host process to stop lingering          |
//!
//! The server holds no locks while blocked on I/O except the bounded
//! condvar wait inside [`Broadcast::poll_after`], and it cannot slow
//! the simulation beyond momentary mirror-lock contention.
//!
//! [`Broadcast::poll_after`]: salamander_obs::live::Broadcast::poll_after

use salamander_obs::{
    trace::to_jsonl, ClusterRollup, FleetRollup, LatencyRollup, LiveObs, Rollup, EXPOSURE_STATS,
    LAT_CLASSES,
};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

pub use salamander_obs::live::json_string;

/// How long `/trace/stream` blocks waiting for new records before
/// returning an empty poll.
pub const STREAM_POLL_TIMEOUT: Duration = Duration::from_secs(10);
/// Default record count for `/trace/tail`.
pub const DEFAULT_TAIL: usize = 100;
/// Longest request line accepted, terminator included.
const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Most header lines accepted after the request line.
const MAX_HEADERS: usize = 64;
/// Most header bytes accepted in total, terminators included.
const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Most bytes read and dropped after refusing an over-limit request,
/// so closing the socket does not reset the connection before the
/// refusal reaches the peer.
const DRAIN_LIMIT: u64 = 2 << 20;
/// Most connection handlers alive at once. Past it the accept thread
/// answers `503` itself and spawns nothing, so a flood of connections
/// cannot exhaust the host's threads.
const MAX_CONNECTIONS: usize = 64;
/// How long the accept thread may block writing a `503`, so a peer
/// that never reads cannot stall it.
const BUSY_WRITE_TIMEOUT: Duration = Duration::from_millis(100);

/// Run label → (published rollups of one family, pre-serialized JSON
/// array of the publisher's anomalies). The snapshot and `/…/series`
/// routes are pure views over it.
type RollupStore<R> = Mutex<BTreeMap<String, (Vec<R>, String)>>;

/// Shared state between the simulation side (which publishes) and the
/// server side (which serves). The simulation owns one, wrapped in an
/// [`Arc`], for the whole run.
pub struct TelemetryHub {
    /// The live mirror the simulation writes into.
    pub live: LiveObs,
    /// Run name (the binary's artifact name, e.g. `lifetime`).
    pub run: String,
    /// Run label → serialized `HealthReport` JSON, published as runs
    /// finish. Pre-serialized by the publisher so this crate needs no
    /// knowledge of the health types.
    health: Mutex<BTreeMap<String, String>>,
    /// Per-day fleet rollups (no anomalies: `/fleet` serves none).
    fleet: RollupStore<FleetRollup>,
    /// Per-day latency rollups and tail-regression anomalies. The
    /// anomalies are pre-serialized by the publisher (like `health`)
    /// so this crate needs no knowledge of the health types.
    latency: RollupStore<LatencyRollup>,
    /// Per-tick cluster rollups and recovery anomalies.
    cluster: RollupStore<ClusterRollup>,
    /// The exact rendered metrics text the run wrote (or would write)
    /// at exit. Once set, `/metrics` serves these bytes verbatim, so a
    /// final scrape equals the `--metrics` file byte-for-byte.
    final_metrics: Mutex<Option<String>>,
    done: AtomicBool,
    quit: AtomicBool,
}

impl TelemetryHub {
    /// A hub for one run.
    pub fn new(run: &str, live: LiveObs) -> Arc<TelemetryHub> {
        Arc::new(TelemetryHub {
            live,
            run: run.to_string(),
            health: Mutex::new(BTreeMap::new()),
            fleet: Mutex::new(BTreeMap::new()),
            latency: Mutex::new(BTreeMap::new()),
            cluster: Mutex::new(BTreeMap::new()),
            final_metrics: Mutex::new(None),
            done: AtomicBool::new(false),
            quit: AtomicBool::new(false),
        })
    }

    /// Publish one run label's `HealthReport`, pre-serialized to JSON.
    pub fn publish_health(&self, label: &str, report_json: String) {
        self.health
            .lock()
            .expect("health lock")
            .insert(label.to_string(), report_json);
    }

    /// Publish one run label's per-day fleet rollups, replacing any
    /// previous set for that label.
    pub fn publish_rollups(&self, label: &str, rollups: Vec<FleetRollup>) {
        self.fleet
            .lock()
            .expect("fleet lock")
            .insert(label.to_string(), (rollups, String::new()));
    }

    /// Publish one run label's per-day latency rollups plus a
    /// pre-serialized JSON array of tail-regression anomalies (from
    /// `salamander_health::latency_scan`; pass `"[]"` when the scan
    /// found nothing), replacing any previous set for that label.
    pub fn publish_latency(
        &self,
        label: &str,
        rollups: Vec<LatencyRollup>,
        regressions_json: String,
    ) {
        self.latency
            .lock()
            .expect("latency lock")
            .insert(label.to_string(), (rollups, regressions_json));
    }

    /// Publish the final metrics text and mark the run finished. The
    /// broadcast closes so `/trace/stream` pollers drain and return.
    pub fn mark_done(&self, final_metrics: Option<String>) {
        if let Some(text) = final_metrics {
            *self.final_metrics.lock().expect("final metrics lock") = Some(text);
        }
        self.done.store(true, Ordering::SeqCst);
        self.live.trace.close();
    }

    /// Whether [`TelemetryHub::mark_done`] was called.
    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::SeqCst)
    }

    /// Whether a client hit `/quit` (the host process should stop
    /// lingering).
    pub fn quit_requested(&self) -> bool {
        self.quit.load(Ordering::SeqCst)
    }

    /// The `/metrics` body: the published final text verbatim if the
    /// run finished, the live mirror otherwise.
    fn metrics_body(&self) -> String {
        if let Some(text) = self
            .final_metrics
            .lock()
            .expect("final metrics lock")
            .as_ref()
        {
            return text.clone();
        }
        self.live.render_metrics()
    }

    /// The `/health` body: `{"run":...,"done":...,"reports":{label:report}}`.
    /// Hand-assembled — the values are pre-serialized JSON documents.
    fn health_body(&self) -> String {
        let reports = self.health.lock().expect("health lock");
        let mut body = format!(
            "{{\"run\":{},\"done\":{},\"reports\":{{",
            json_string(&self.run),
            self.is_done()
        );
        for (i, (label, json)) in reports.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&json_string(label));
            body.push(':');
            body.push_str(json);
        }
        body.push_str("}}");
        body
    }

    /// The `/healthz` liveness body.
    fn healthz_body(&self) -> String {
        format!(
            "{{\"status\":\"ok\",\"run\":{},\"done\":{}}}",
            json_string(&self.run),
            self.is_done()
        )
    }

    /// The `/progress` body: the live counters, plus — once fleet
    /// rollups are published — a `rollup_days` object mapping each
    /// label to how many sampled days its rollup series covers.
    fn progress_body(&self) -> String {
        let mut body = self.live.progress.render_json(&self.run, self.is_done());
        let fleets = self.fleet.lock().expect("fleet lock");
        if !fleets.is_empty() {
            // render_json always ends with a closing brace; splice the
            // extra field in before it.
            body.pop();
            body.push_str(",\"rollup_days\":{");
            for (i, (label, (rollups, _))) in fleets.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                body.push_str(&json_string(label));
                body.push(':');
                body.push_str(&rollups.len().to_string());
            }
            body.push_str("}}");
        }
        body
    }

    /// The `/fleet` body: per-label day count plus the latest rollup
    /// record (serialized via serde, same shape as the JSONL trace
    /// form).
    fn fleet_body(&self) -> String {
        let fleets = self.fleet.lock().expect("fleet lock");
        let mut body = format!(
            "{{\"run\":{},\"done\":{},\"fleets\":{{",
            json_string(&self.run),
            self.is_done()
        );
        for (i, (label, (rollups, _))) in fleets.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&json_string(label));
            body.push_str(":{\"days\":");
            body.push_str(&rollups.len().to_string());
            body.push_str(",\"latest\":");
            match rollups.last().and_then(|r| serde_json::to_string(r).ok()) {
                Some(json) => body.push_str(&json),
                None => body.push_str("null"),
            }
            body.push('}');
        }
        body.push_str("}}");
        body
    }

    /// The `/latency` body: per-label sampled-day count, the latest
    /// non-empty rollup's per-class tail stats (classes with zero
    /// samples are omitted — the fleet path never populates gc/scrub/
    /// regen, DESIGN.md §15), and the publisher's tail-regression
    /// anomalies verbatim.
    fn latency_body(&self) -> String {
        let lats = self.latency.lock().expect("latency lock");
        let mut body = format!(
            "{{\"run\":{},\"done\":{},\"classes\":[",
            json_string(&self.run),
            self.is_done()
        );
        for (i, class) in LAT_CLASSES.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&json_string(class));
        }
        body.push_str("],\"latencies\":{");
        for (i, (label, (rollups, regressions))) in lats.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&json_string(label));
            body.push_str(":{\"days\":");
            body.push_str(&rollups.len().to_string());
            match rollups.iter().rev().find(|r| !r.is_empty()) {
                Some(r) => {
                    body.push_str(",\"latest_day\":");
                    body.push_str(&r.day.to_string());
                    body.push_str(",\"latest\":{");
                    let mut wrote = false;
                    for class in LAT_CLASSES {
                        let count = r.stat(class, "count").unwrap_or(0);
                        if count == 0 {
                            continue;
                        }
                        if wrote {
                            body.push(',');
                        }
                        body.push_str(&json_string(class));
                        body.push_str(&format!(
                            ":{{\"count\":{count},\"mean_ns\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"p999_ns\":{}}}",
                            r.stat(class, "mean").unwrap_or(0),
                            r.stat(class, "p50").unwrap_or(0),
                            r.stat(class, "p90").unwrap_or(0),
                            r.stat(class, "p99").unwrap_or(0),
                            r.stat(class, "p999").unwrap_or(0),
                        ));
                        wrote = true;
                    }
                    body.push('}');
                }
                None => body.push_str(",\"latest_day\":null,\"latest\":{}"),
            }
            body.push_str(",\"regressions\":");
            body.push_str(regressions);
            body.push('}');
        }
        body.push_str("}}");
        body
    }

    /// Publish one run label's per-tick cluster rollups plus a
    /// pre-serialized JSON array of recovery anomalies (from
    /// `salamander_health::cluster_scan`; pass `"[]"` when the scan
    /// found nothing), replacing any previous set for that label.
    pub fn publish_cluster(
        &self,
        label: &str,
        rollups: Vec<ClusterRollup>,
        anomalies_json: String,
    ) {
        self.cluster
            .lock()
            .expect("cluster lock")
            .insert(label.to_string(), (rollups, anomalies_json));
    }

    /// The `/cluster` body: per-label sampled-tick count, the latest
    /// rollup record verbatim (serde, same shape as the JSONL trace
    /// form), the exposure-window percentiles extracted from it, and
    /// the publisher's recovery anomalies verbatim.
    fn cluster_body(&self) -> String {
        let clusters = self.cluster.lock().expect("cluster lock");
        let mut body = format!(
            "{{\"run\":{},\"done\":{},\"clusters\":{{",
            json_string(&self.run),
            self.is_done()
        );
        for (i, (label, (rollups, anomalies))) in clusters.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&json_string(label));
            body.push_str(":{\"ticks\":");
            body.push_str(&rollups.len().to_string());
            body.push_str(",\"latest\":");
            match rollups.last() {
                Some(r) => {
                    body.push_str(&serde_json::to_string(r).unwrap_or_else(|_| "null".into()));
                    body.push_str(",\"exposure\":{\"windows\":");
                    body.push_str(&r.exposure_windows.to_string());
                    for (stat, q) in EXPOSURE_STATS {
                        body.push_str(&format!(",\"{stat}_ticks\":"));
                        match r.exposure_percentile(q) {
                            Some(v) => body.push_str(&v.to_string()),
                            None => body.push_str("null"),
                        }
                    }
                    body.push('}');
                }
                None => body.push_str("null,\"exposure\":null"),
            }
            body.push_str(",\"anomalies\":");
            body.push_str(anomalies);
            body.push('}');
        }
        body.push_str("}}");
        body
    }
}

/// The `/…/series` body: `{<head>,"series":{label:[[day,value],…]}}`
/// over every published label (or only `only`), read through
/// [`Rollup::series_value`]; records that cannot answer `name` (an
/// empty distribution) are gaps, not errors. `None` when no record of
/// the family answers `name` — the handler turns that into a 400.
fn series_body<R: Rollup>(
    store: &RollupStore<R>,
    head: &str,
    name: &str,
    only: Option<&str>,
) -> Option<String> {
    if !valid_series::<R>(name) {
        return None;
    }
    let store = store.lock().expect("rollup store lock");
    let mut body = format!("{{{head},\"series\":{{");
    let mut wrote = false;
    for (label, (rollups, _)) in store.iter() {
        if only.is_some_and(|f| f != label.as_str()) {
            continue;
        }
        let points: Vec<String> = rollups
            .iter()
            .filter_map(|r| r.series_value(name).map(|v| format!("[{},{v}]", r.day())))
            .collect();
        if wrote {
            body.push(',');
        }
        body.push_str(&json_string(label));
        body.push_str(":[");
        body.push_str(&points.join(","));
        body.push(']');
        wrote = true;
    }
    body.push_str("}}");
    Some(body)
}

/// Whether `name` is a series the family serves, probed against
/// [`Rollup::probe`] so this check cannot drift from the extraction.
fn valid_series<R: Rollup>(name: &str) -> bool {
    R::probe().series_value(name).is_some()
}

/// A running telemetry server: owns the listener thread and the bound
/// address (useful with `--serve 127.0.0.1:0`).
pub struct TelemetryServer {
    addr: SocketAddr,
    hub: Arc<TelemetryHub>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl TelemetryServer {
    /// Bind `addr` and start serving `hub` on a background accept
    /// thread (one short-lived thread per connection, at most
    /// `MAX_CONNECTIONS` at once). Returns after the socket is bound,
    /// so the endpoints are reachable before the simulation starts.
    pub fn start(addr: &str, hub: Arc<TelemetryHub>) -> std::io::Result<TelemetryServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_hub = hub.clone();
        let accept_stop = stop.clone();
        let handlers = Arc::new(AtomicUsize::new(0));
        let accept_thread = std::thread::Builder::new()
            .name("telemetry-accept".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    // Take the slot before the spawn; the handler's
                    // guard (or the dropped closure, if the spawn
                    // fails) gives it back.
                    let slot = HandlerSlot::take(&handlers);
                    if handlers.load(Ordering::SeqCst) > MAX_CONNECTIONS {
                        drop(slot);
                        turn_away(stream);
                        continue;
                    }
                    let hub = accept_hub.clone();
                    let _ = std::thread::Builder::new()
                        .name("telemetry-conn".into())
                        .spawn(move || {
                            let _slot = slot;
                            handle_connection(stream, &hub)
                        });
                }
            })?;
        Ok(TelemetryServer {
            addr: local,
            hub,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served hub.
    pub fn hub(&self) -> &Arc<TelemetryHub> {
        &self.hub
    }

    /// Stop accepting and join the accept thread. In-flight connection
    /// threads finish their one response on their own.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// One live connection handler, counted in the shared total until
/// dropped.
struct HandlerSlot(Arc<AtomicUsize>);

impl HandlerSlot {
    fn take(count: &Arc<AtomicUsize>) -> Self {
        count.fetch_add(1, Ordering::SeqCst);
        HandlerSlot(count.clone())
    }
}

impl Drop for HandlerSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Answer a connection past `MAX_CONNECTIONS` with a `503` (written
/// under [`BUSY_WRITE_TIMEOUT`]) and close it unread.
fn turn_away(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(BUSY_WRITE_TIMEOUT));
    respond(
        &mut stream,
        503,
        "text/plain",
        "too many connections\n",
        &[],
    );
}

/// One request per connection (`Connection: close`); anything
/// malformed gets a 400 and the socket drops. A request line, header
/// count or header size past its limit gets a 400 before the request
/// is parsed.
fn handle_connection(stream: TcpStream, hub: &TelemetryHub) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut line = Vec::new();
    match read_capped_line(&mut reader, MAX_REQUEST_LINE, &mut line) {
        Ok(_) if line.is_empty() => return,
        Ok(true) => {}
        Ok(false) => return refuse(stream, reader),
        Err(_) => return,
    }
    let Ok(line) = String::from_utf8(line) else {
        return;
    };
    // Drain headers (ignored) so the peer isn't left mid-send.
    let mut header = Vec::new();
    let mut header_bytes = 0;
    let mut headers = 0;
    loop {
        match read_capped_line(&mut reader, MAX_HEADER_BYTES - header_bytes, &mut header) {
            Ok(true) => {}
            Ok(false) => return refuse(stream, reader),
            Err(_) => break,
        }
        if header.is_empty() || header == b"\r\n" || header == b"\n" {
            break;
        }
        header_bytes += header.len();
        headers += 1;
        if headers > MAX_HEADERS {
            return refuse(stream, reader);
        }
    }
    let mut out = stream;
    let mut parts = line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m, t),
        _ => {
            respond(&mut out, 400, "text/plain", "bad request\n", &[]);
            return;
        }
    };
    if method != "GET" {
        respond(&mut out, 405, "text/plain", "method not allowed\n", &[]);
        return;
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    // The rollup label a `/…/series` request narrows to.
    let label = query_param(query, "fleet");
    match path {
        "/metrics" => {
            let body = hub.metrics_body();
            respond(&mut out, 200, "text/plain; version=0.0.4", &body, &[]);
        }
        "/healthz" => respond(&mut out, 200, "application/json", &hub.healthz_body(), &[]),
        "/health" => respond(&mut out, 200, "application/json", &hub.health_body(), &[]),
        "/progress" => {
            let body = hub.progress_body();
            respond(&mut out, 200, "application/json", &body, &[]);
        }
        "/fleet" => respond(&mut out, 200, "application/json", &hub.fleet_body(), &[]),
        "/fleet/series" => {
            let metric = query_param(query, "metric").unwrap_or("alive");
            let head = format!("\"metric\":{}", json_string(metric));
            respond_series(
                &mut out,
                series_body(&hub.fleet, &head, metric, label),
                "unknown metric (try alive, dead, dying, capacity, wear_p50, ...)\n",
            );
        }
        "/latency" => respond(&mut out, 200, "application/json", &hub.latency_body(), &[]),
        "/latency/series" => {
            let class = query_param(query, "class").unwrap_or("host_read");
            let stat = query_param(query, "stat").unwrap_or("p99");
            let head = format!(
                "\"class\":{},\"stat\":{}",
                json_string(class),
                json_string(stat)
            );
            respond_series(
                &mut out,
                series_body(&hub.latency, &head, &format!("{class}.{stat}"), label),
                "unknown class or stat (classes: host_read, host_write, gc, scrub, regen; stats: p50, p90, p99, p999, mean, count)\n",
            );
        }
        "/cluster" => respond(&mut out, 200, "application/json", &hub.cluster_body(), &[]),
        "/cluster/series" => {
            let metric = query_param(query, "metric").unwrap_or("backlog_chunks");
            let head = format!("\"metric\":{}", json_string(metric));
            respond_series(
                &mut out,
                series_body(&hub.cluster, &head, metric, label),
                "unknown metric (try full, degraded, critical, lost, backlog_chunks, backlog_bytes, repair_bytes, drain_bytes, data_at_risk, exposure_windows, exposure_p99, ...)\n",
            );
        }
        "/trace/tail" => {
            let n = query_param(query, "n")
                .and_then(|v| v.parse().ok())
                .unwrap_or(DEFAULT_TAIL);
            let body = to_jsonl(&hub.live.trace.tail(n));
            respond(&mut out, 200, "application/x-ndjson", &body, &[]);
        }
        "/trace/stream" => {
            let from = query_param(query, "from")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            let (records, next, closed) = hub.live.trace.poll_after(from, STREAM_POLL_TIMEOUT);
            let mut body = String::new();
            for (_, rec) in &records {
                body.push_str(&to_jsonl(std::slice::from_ref(rec)));
            }
            let next_header = format!("X-Next-Cursor: {next}");
            let closed_header = format!("X-Stream-Closed: {closed}");
            respond(
                &mut out,
                200,
                "application/x-ndjson",
                &body,
                &[&next_header, &closed_header],
            );
        }
        "/quit" => {
            hub.quit.store(true, Ordering::SeqCst);
            respond(&mut out, 200, "application/json", "{\"ok\":true}", &[]);
        }
        _ => respond(&mut out, 404, "text/plain", "not found\n", &[]),
    }
}

/// Read one line of at most `max` bytes (terminator included) into
/// `buf`: `Ok(false)` when the line runs past `max`.
fn read_capped_line(
    reader: &mut BufReader<TcpStream>,
    max: usize,
    buf: &mut Vec<u8>,
) -> std::io::Result<bool> {
    buf.clear();
    reader.take(max as u64 + 1).read_until(b'\n', buf)?;
    Ok(buf.len() <= max)
}

/// Refuse an over-limit request with a 400, then read and drop (up to
/// [`DRAIN_LIMIT`]) what the peer is still sending before the socket
/// closes.
fn refuse(mut out: TcpStream, reader: BufReader<TcpStream>) {
    respond(&mut out, 400, "text/plain", "request too large\n", &[]);
    let _ = std::io::copy(&mut reader.take(DRAIN_LIMIT), &mut std::io::sink());
}

/// A `/…/series` response: the body, or a 400 carrying `help` when the
/// series name is unknown.
fn respond_series(out: &mut TcpStream, body: Option<String>, help: &str) {
    match body {
        Some(body) => respond(out, 200, "application/json", &body, &[]),
        None => respond(out, 400, "text/plain", help, &[]),
    }
}

/// First value of `key` in a raw query string (`a=1&b=2`).
fn query_param<'q>(query: &'q str, key: &str) -> Option<&'q str> {
    query
        .split('&')
        .filter_map(|kv| kv.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

fn respond(out: &mut TcpStream, status: u16, content_type: &str, body: &str, extra: &[&str]) {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for h in extra {
        head.push_str(h);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let _ = out.write_all(head.as_bytes());
    let _ = out.write_all(body.as_bytes());
    let _ = out.flush();
}

/// An [`http_get`] response: status code, headers, body.
pub type HttpResponse = (u16, Vec<(String, String)>, String);

/// Minimal blocking HTTP GET for tests and scripted checks: returns
/// `(status, headers, body)`. Not a general client — exactly enough to
/// scrape this crate's server.
pub fn http_get(addr: impl ToSocketAddrs, path: &str) -> std::io::Result<HttpResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no header break"))?;
    let mut lines = head.lines();
    let status_line = lines
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "empty response"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    let headers = lines
        .filter_map(|l| l.split_once(": "))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    Ok((status, headers, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use salamander_obs::{SimTime, TraceEvent, TraceRecord};

    fn rec(seq: u64) -> TraceRecord {
        TraceRecord {
            seq,
            time: SimTime::new(1, seq),
            event: TraceEvent::GcPass {
                block: seq,
                relocated: 2,
            },
        }
    }

    fn start() -> (TelemetryServer, Arc<TelemetryHub>) {
        let hub = TelemetryHub::new("testrun", LiveObs::with_cap(128));
        let server = TelemetryServer::start("127.0.0.1:0", hub.clone()).unwrap();
        (server, hub)
    }

    fn header<'a>(headers: &'a [(String, String)], key: &str) -> Option<&'a str> {
        headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(key))
            .map(|(_, v)| v.as_str())
    }

    #[test]
    fn healthz_and_progress_respond() {
        let (server, hub) = start();
        hub.live.progress.set_day(12);
        let (status, _, body) = http_get(server.addr(), "/healthz").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        assert!(body.contains("\"run\":\"testrun\""), "{body}");
        let (status, _, body) = http_get(server.addr(), "/progress").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"day\":12"), "{body}");
        server.shutdown();
    }

    #[test]
    fn metrics_serves_live_then_final_verbatim() {
        let (server, hub) = start();
        {
            let mut live = hub.live.metrics.lock().unwrap();
            live.inc("live_counter_total", 3);
        }
        let (status, _, body) = http_get(server.addr(), "/metrics").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("live_counter_total 3"), "{body}");
        let final_text = "# TYPE frozen counter\nfrozen 1\n".to_string();
        hub.mark_done(Some(final_text.clone()));
        let (_, _, body) = http_get(server.addr(), "/metrics").unwrap();
        assert_eq!(body, final_text, "final scrape is the file bytes verbatim");
        server.shutdown();
    }

    #[test]
    fn trace_tail_and_stream_serve_ndjson() {
        let (server, hub) = start();
        for i in 0..10 {
            hub.live.trace.push(&rec(i));
        }
        let (status, _, body) = http_get(server.addr(), "/trace/tail?n=3").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body.lines().count(), 3);
        let parsed = salamander_obs::trace::parse_jsonl(&body).unwrap();
        assert_eq!(parsed[0].seq, 7);
        // Stream from cursor 0 returns everything retained plus the
        // next cursor in a header.
        let (status, headers, body) = http_get(server.addr(), "/trace/stream?from=0").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body.lines().count(), 10);
        assert_eq!(header(&headers, "X-Next-Cursor"), Some("10"));
        assert_eq!(header(&headers, "X-Stream-Closed"), Some("false"));
        // A poll at the frontier after close returns empty + closed.
        hub.mark_done(None);
        let (_, headers, body) = http_get(server.addr(), "/trace/stream?from=10").unwrap();
        assert!(body.is_empty());
        assert_eq!(header(&headers, "X-Stream-Closed"), Some("true"));
        server.shutdown();
    }

    #[test]
    fn health_reports_published_as_json_map() {
        let (server, hub) = start();
        let (_, _, body) = http_get(server.addr(), "/health").unwrap();
        assert!(body.contains("\"reports\":{}"), "{body}");
        hub.publish_health("mode=ShrinkS", "{\"score\":97}".to_string());
        hub.publish_health("mode=RegenS", "{\"score\":99}".to_string());
        let (_, _, body) = http_get(server.addr(), "/health").unwrap();
        assert!(
            body.contains("\"mode=RegenS\":{\"score\":99},\"mode=ShrinkS\":{\"score\":97}"),
            "{body}"
        );
        server.shutdown();
    }

    fn rollup(day: u32, alive: u32) -> FleetRollup {
        use salamander_obs::DIST_BUCKETS;
        let mut wear = vec![0u32; DIST_BUCKETS];
        wear[2] = alive;
        FleetRollup {
            day,
            alive,
            dead_wear: 100 - alive,
            dead_afr: 0,
            dying: 1,
            capacity_opages: u64::from(alive) * 1000,
            wear,
            pec: vec![0; DIST_BUCKETS],
            usable: vec![0; DIST_BUCKETS],
            health: vec![0; DIST_BUCKETS],
        }
    }

    #[test]
    fn fleet_snapshot_and_series_serve_published_rollups() {
        let (server, hub) = start();
        let (_, _, body) = http_get(server.addr(), "/fleet").unwrap();
        assert_eq!(body, "{\"run\":\"testrun\",\"done\":false,\"fleets\":{}}");
        hub.publish_rollups("fleet=ShrinkS", vec![rollup(30, 100), rollup(60, 97)]);
        hub.publish_rollups("fleet=Baseline", vec![rollup(30, 90)]);
        let (status, _, body) = http_get(server.addr(), "/fleet").unwrap();
        assert_eq!(status, 200);
        let zeros = "[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]";
        let latest = |day: u32, alive: u32| {
            format!(
                "{{\"day\":{day},\"alive\":{alive},\"dead_wear\":{},\"dead_afr\":0,\
                 \"dying\":1,\"capacity_opages\":{alive}000,\
                 \"wear\":[0,0,{alive},0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],\
                 \"pec\":{zeros},\"usable\":{zeros},\"health\":{zeros}}}",
                100 - alive
            )
        };
        assert_eq!(
            body,
            format!(
                "{{\"run\":\"testrun\",\"done\":false,\"fleets\":{{\
                 \"fleet=Baseline\":{{\"days\":1,\"latest\":{}}},\
                 \"fleet=ShrinkS\":{{\"days\":2,\"latest\":{}}}}}}}",
                latest(30, 90),
                latest(60, 97)
            )
        );
        // Series: every label unless ?fleet= narrows it.
        let (status, _, body) = http_get(server.addr(), "/fleet/series?metric=alive").unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            body,
            "{\"metric\":\"alive\",\"series\":{\"fleet=Baseline\":[[30,90]],\
             \"fleet=ShrinkS\":[[30,100],[60,97]]}}"
        );
        let (_, _, body) = http_get(
            server.addr(),
            "/fleet/series?metric=wear_p50&fleet=fleet=Baseline",
        )
        .unwrap();
        assert_eq!(
            body,
            "{\"metric\":\"wear_p50\",\"series\":{\"fleet=Baseline\":[[30,150]]}}"
        );
        // Unknown metrics are a 400, not an empty 200.
        let (status, _, body) = http_get(server.addr(), "/fleet/series?metric=bogus").unwrap();
        assert_eq!(status, 400);
        assert_eq!(
            body,
            "unknown metric (try alive, dead, dying, capacity, wear_p50, ...)\n"
        );
        // /progress grows a rollup_days object once rollups exist.
        let (_, _, body) = http_get(server.addr(), "/progress").unwrap();
        assert_eq!(
            body,
            "{\"run\":\"testrun\",\"day\":0,\"total_days\":0,\"ops\":0,\"devices\":0,\
             \"devices_done\":0,\"ops_per_sec\":0.0,\"modes\":{},\"done\":false,\
             \"rollup_days\":{\"fleet=Baseline\":1,\"fleet=ShrinkS\":2}}"
        );
        server.shutdown();
    }

    fn lat_rollup(day: u32, read_ns: u64) -> LatencyRollup {
        let mut r = LatencyRollup::empty(day);
        r.classes[0].observe(read_ns, 10); // host_read
        r.classes[1].observe(605_120, 4); // host_write
        r
    }

    #[test]
    fn latency_snapshot_and_series_serve_published_rollups() {
        let (server, hub) = start();
        let (_, _, body) = http_get(server.addr(), "/latency").unwrap();
        assert_eq!(
            body,
            "{\"run\":\"testrun\",\"done\":false,\
             \"classes\":[\"host_read\",\"host_write\",\"gc\",\"scrub\",\"regen\"],\
             \"latencies\":{}}"
        );
        hub.publish_latency(
            "fleet=RegenS",
            vec![lat_rollup(30, 60_120), lat_rollup(60, 76_786)],
            "[{\"day\":60,\"kind\":\"tail_latency_regression\"}]".to_string(),
        );
        hub.publish_latency(
            "fleet=Baseline",
            vec![lat_rollup(30, 60_120), LatencyRollup::empty(60)],
            "[]".to_string(),
        );
        let (status, _, body) = http_get(server.addr(), "/latency").unwrap();
        assert_eq!(status, 200);
        // Latest = last *non-empty* rollup; zero-count classes omitted.
        let write = "\"host_write\":{\"count\":4,\"mean_ns\":605120,\"p50_ns\":655360,\
                     \"p90_ns\":655360,\"p99_ns\":655360,\"p999_ns\":655360}";
        assert_eq!(
            body,
            format!(
                "{{\"run\":\"testrun\",\"done\":false,\
                 \"classes\":[\"host_read\",\"host_write\",\"gc\",\"scrub\",\"regen\"],\
                 \"latencies\":{{\"fleet=Baseline\":{{\"days\":2,\"latest_day\":30,\
                 \"latest\":{{\"host_read\":{{\"count\":10,\"mean_ns\":60120,\"p50_ns\":61440,\
                 \"p90_ns\":61440,\"p99_ns\":61440,\"p999_ns\":61440}},{write}}},\
                 \"regressions\":[]}},\
                 \"fleet=RegenS\":{{\"days\":2,\"latest_day\":60,\
                 \"latest\":{{\"host_read\":{{\"count\":10,\"mean_ns\":76786,\"p50_ns\":81920,\
                 \"p90_ns\":81920,\"p99_ns\":81920,\"p999_ns\":81920}},{write}}},\
                 \"regressions\":[{{\"day\":60,\"kind\":\"tail_latency_regression\"}}]}}}}}}"
            )
        );
        // Series over the log2-bucket upper edges; empty days are gaps.
        let (status, _, body) =
            http_get(server.addr(), "/latency/series?class=host_read&stat=p99").unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            body,
            "{\"class\":\"host_read\",\"stat\":\"p99\",\"series\":{\
             \"fleet=Baseline\":[[30,61440]],\"fleet=RegenS\":[[30,61440],[60,81920]]}}"
        );
        // Defaults are class=host_read, stat=p99; ?fleet= narrows.
        let (status, _, dflt) = http_get(server.addr(), "/latency/series").unwrap();
        assert_eq!(status, 200);
        assert_eq!(dflt, body);
        let (_, _, body) = http_get(
            server.addr(),
            "/latency/series?stat=count&fleet=fleet=Baseline",
        )
        .unwrap();
        assert_eq!(
            body,
            "{\"class\":\"host_read\",\"stat\":\"count\",\"series\":{\
             \"fleet=Baseline\":[[30,10]]}}"
        );
        // Unknown class or stat is a 400, not an empty 200, however
        // the two names split a valid-looking series name.
        for bad in [
            "/latency/series?class=bogus",
            "/latency/series?stat=bogus",
            "/latency/series?class=host&stat=read_p99",
            "/latency/series?class=host_read.p99&stat=p99",
        ] {
            let (status, _, body) = http_get(server.addr(), bad).unwrap();
            assert_eq!(status, 400, "{bad}");
            assert_eq!(
                body,
                "unknown class or stat (classes: host_read, host_write, gc, scrub, regen; \
                 stats: p50, p90, p99, p999, mean, count)\n"
            );
        }
        server.shutdown();
    }

    fn cluster_rollup(day: u32, backlog: u64) -> ClusterRollup {
        let mut r = ClusterRollup::empty(day);
        r.full = 500 - backlog;
        r.degraded = backlog;
        r.backlog_chunks = backlog;
        r.backlog_bytes = backlog * 65_536;
        r.repair_bytes = u64::from(day) * 1024;
        if backlog == 0 && day > 1 {
            // Windows from earlier ticks closed with dwell 1..4.
            r.exposure[1] = 3;
            r.exposure[2] = 1;
            r.exposure_windows = 4;
        }
        r
    }

    #[test]
    fn cluster_snapshot_and_series_serve_published_rollups() {
        let (server, hub) = start();
        let (_, _, body) = http_get(server.addr(), "/cluster").unwrap();
        assert_eq!(body, "{\"run\":\"testrun\",\"done\":false,\"clusters\":{}}");
        hub.publish_cluster(
            "cluster=ShrinkS",
            vec![
                cluster_rollup(1, 40),
                cluster_rollup(2, 40),
                cluster_rollup(3, 0),
            ],
            "[{\"day\":1,\"kind\":\"recovery_storm\"}]".to_string(),
        );
        hub.publish_cluster(
            "cluster=Baseline",
            vec![cluster_rollup(1, 0)],
            "[]".to_string(),
        );
        let (status, _, body) = http_get(server.addr(), "/cluster").unwrap();
        assert_eq!(status, 200);
        let latest = |day: u32, repair: u32, exposure: &str, windows: u32| {
            format!(
                "{{\"day\":{day},\"full\":500,\"degraded\":0,\"critical\":0,\"lost\":0,\
                 \"backlog_chunks\":0,\"backlog_bytes\":0,\"repair_bytes\":{repair},\
                 \"drain_bytes\":0,\"data_at_risk\":0,\
                 \"fullness\":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],\
                 \"exposure\":[{exposure},{}],\
                 \"exposure_windows\":{windows}}}",
                ["0"; 30].join(",")
            )
        };
        // 4 windows of dwell 1,1,1,2-3: p50 < 2 ticks, p99 < 4; a label
        // with no closed windows reports null percentiles.
        assert_eq!(
            body,
            format!(
                "{{\"run\":\"testrun\",\"done\":false,\"clusters\":{{\
                 \"cluster=Baseline\":{{\"ticks\":1,\"latest\":{},\
                 \"exposure\":{{\"windows\":0,\"p50_ticks\":null,\"p90_ticks\":null,\
                 \"p99_ticks\":null}},\"anomalies\":[]}},\
                 \"cluster=ShrinkS\":{{\"ticks\":3,\"latest\":{},\
                 \"exposure\":{{\"windows\":4,\"p50_ticks\":2,\"p90_ticks\":4,\
                 \"p99_ticks\":4}},\"anomalies\":[{{\"day\":1,\"kind\":\"recovery_storm\"}}]}}}}}}",
                latest(1, 1024, "0,0,0", 0),
                latest(3, 3072, "0,3,1", 4)
            )
        );
        // Series: every label unless ?fleet= narrows it.
        let (status, _, body) =
            http_get(server.addr(), "/cluster/series?metric=backlog_chunks").unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            body,
            "{\"metric\":\"backlog_chunks\",\"series\":{\"cluster=Baseline\":[[1,0]],\
             \"cluster=ShrinkS\":[[1,40],[2,40],[3,0]]}}"
        );
        // Default metric is backlog_chunks.
        let (_, _, dflt) = http_get(server.addr(), "/cluster/series").unwrap();
        assert_eq!(dflt, body);
        // Exposure percentiles serve as series too; ticks with no
        // closed window are gaps.
        let (_, _, body) = http_get(
            server.addr(),
            "/cluster/series?metric=exposure_p99&fleet=cluster=ShrinkS",
        )
        .unwrap();
        assert_eq!(
            body,
            "{\"metric\":\"exposure_p99\",\"series\":{\"cluster=ShrinkS\":[[3,4]]}}"
        );
        // Unknown metrics are a 400, not an empty 200.
        let (status, _, body) = http_get(server.addr(), "/cluster/series?metric=bogus").unwrap();
        assert_eq!(status, 400);
        assert_eq!(
            body,
            "unknown metric (try full, degraded, critical, lost, backlog_chunks, backlog_bytes, \
             repair_bytes, drain_bytes, data_at_risk, exposure_windows, exposure_p99, ...)\n"
        );
        server.shutdown();
    }

    #[test]
    fn quit_flag_reaches_the_host() {
        let (server, hub) = start();
        assert!(!hub.quit_requested());
        let (status, _, body) = http_get(server.addr(), "/quit").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("true"));
        assert!(hub.quit_requested());
        server.shutdown();
    }

    #[test]
    fn unknown_paths_and_methods_are_rejected() {
        let (server, _hub) = start();
        let (status, _, _) = http_get(server.addr(), "/nope").unwrap();
        assert_eq!(status, 404);
        // Raw POST gets a 405.
        let mut s = TcpStream::connect(server.addr()).unwrap();
        write!(s, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 405"), "{resp}");
        server.shutdown();
    }

    #[test]
    fn oversized_requests_are_refused() {
        let (server, _hub) = start();
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(1 << 20));
        let many_headers = format!(
            "GET /healthz HTTP/1.1\r\n{}\r\n",
            "X-Pad: 1\r\n".repeat(10_000)
        );
        for request in [long_line, many_headers] {
            let mut s = TcpStream::connect(server.addr()).unwrap();
            let mut w = s.try_clone().unwrap();
            let writer = std::thread::spawn(move || {
                let _ = w.write_all(request.as_bytes());
                let _ = w.shutdown(std::net::Shutdown::Write);
            });
            let mut resp = Vec::new();
            let _ = s.read_to_end(&mut resp);
            writer.join().unwrap();
            let resp = String::from_utf8_lossy(&resp);
            assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
            assert!(resp.ends_with("\r\n\r\nrequest too large\n"), "{resp}");
        }
        // The server keeps serving well-formed requests.
        let (status, _, body) = http_get(server.addr(), "/healthz").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        server.shutdown();
    }

    #[test]
    fn connections_past_the_limit_get_503_then_service_resumes() {
        let (server, _hub) = start();
        // Idle sockets each hold a handler (blocked on the request
        // line) until dropped; accept order is connect order, so every
        // slot is taken before the next connection is accepted.
        let idle: Vec<TcpStream> = (0..MAX_CONNECTIONS)
            .map(|_| TcpStream::connect(server.addr()).unwrap())
            .collect();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let _ = s.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        // The request goes unread, so the close may reset the socket
        // after the 503: keep what arrived before the error.
        let mut resp = Vec::new();
        let mut buf = [0u8; 512];
        while let Ok(n @ 1..) = s.read(&mut buf) {
            resp.extend_from_slice(&buf[..n]);
        }
        let resp = String::from_utf8_lossy(&resp);
        assert!(
            resp.starts_with("HTTP/1.1 503 Service Unavailable"),
            "{resp}"
        );
        assert!(resp.ends_with("\r\n\r\ntoo many connections\n"), "{resp}");
        // Closing the idle sockets frees their handlers.
        drop(idle);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let status = loop {
            // A handler not yet gone may still turn this one away.
            let status = http_get(server.addr(), "/healthz").map_or(0, |r| r.0);
            if status == 200 || std::time::Instant::now() > deadline {
                break status;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        assert_eq!(status, 200);
        server.shutdown();
    }
}
