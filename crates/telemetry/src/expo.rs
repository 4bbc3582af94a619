//! Prometheus text exposition and the embedded scrape endpoint.
//!
//! [`render_prometheus`] turns a [`Registry`] snapshot into the
//! Prometheus text format (version 0.0.4): counters and gauges as-is,
//! the `stage_ms` histograms as summaries with `quantile` labels.
//! [`MetricsServer`] serves it over plain HTTP/1.1 on a background
//! thread (`GET /metrics`), next to a `GET /healthz` JSON snapshot
//! published by the runner through a [`HealthBoard`].
//!
//! Everything here is **strictly read-only** over shared atomic
//! snapshots: scraping cannot perturb the simulation, so reports stay
//! bit-identical with the server on or off.

use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::json::Json;
use crate::registry::Registry;
use crate::STAGE_MS;

/// Quantiles exposed for each stage summary.
const QUANTILES: [(f64, &str); 3] = [(0.50, "0.5"), (0.90, "0.9"), (0.99, "0.99")];

/// Sanitises `name` into a legal Prometheus metric name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): illegal characters become `_`, and a
/// leading digit gains a `_` prefix.
pub fn metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let legal =
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if legal {
            out.push(c);
        } else if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline must be escaped inside the quotes.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// The label key a metric family's free-form label is exposed under:
/// stage histograms use `stage`, everything else the generic `label`.
fn label_key(family: &str) -> &'static str {
    if family == STAGE_MS {
        "stage"
    } else {
        "label"
    }
}

fn sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: f64) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
        }
        out.push('}');
    }
    let _ = writeln!(out, " {value}");
}

fn header(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Renders a registry snapshot in the Prometheus text exposition
/// format. Counters and gauges keep their family names; stage
/// histograms render as summaries with p50/p90/p99 `quantile` labels
/// plus `_count` and `_sum` series. Output is deterministic (families
/// and labels sorted).
pub fn render_prometheus(registry: &Registry) -> String {
    let mut out = String::new();
    let mut last_family = None;
    for (family, label, value) in registry.counter_values() {
        let name = metric_name(family);
        if last_family.as_ref() != Some(&name) {
            header(&mut out, &name, "counter", "msvs counter");
            last_family = Some(name.clone());
        }
        let labels: Vec<(&str, &str)> = if label.is_empty() {
            vec![]
        } else {
            vec![(label_key(family), label.as_str())]
        };
        sample(&mut out, &name, &labels, value as f64);
    }
    last_family = None;
    for (family, label, value) in registry.gauge_values() {
        let name = metric_name(family);
        if last_family.as_ref() != Some(&name) {
            header(&mut out, &name, "gauge", "msvs gauge");
            last_family = Some(name.clone());
        }
        let labels: Vec<(&str, &str)> = if label.is_empty() {
            vec![]
        } else {
            vec![(label_key(family), label.as_str())]
        };
        sample(&mut out, &name, &labels, value);
    }
    last_family = None;
    for (family, label, stats) in registry.histogram_stats() {
        let name = metric_name(family);
        if last_family.as_ref() != Some(&name) {
            header(&mut out, &name, "summary", "msvs stage wall time");
            last_family = Some(name.clone());
        }
        let key = label_key(family);
        let quantile_of = |q: f64| {
            if q == 0.50 {
                stats.p50
            } else if q == 0.90 {
                stats.p90
            } else {
                stats.p99
            }
        };
        for (q, tag) in QUANTILES {
            let mut labels: Vec<(&str, &str)> = Vec::new();
            if !label.is_empty() {
                labels.push((key, label.as_str()));
            }
            labels.push(("quantile", tag));
            sample(&mut out, &name, &labels, quantile_of(q));
        }
        let labels: Vec<(&str, &str)> = if label.is_empty() {
            vec![]
        } else {
            vec![(key, label.as_str())]
        };
        sample(
            &mut out,
            &format!("{name}_count"),
            &labels,
            stats.count as f64,
        );
        sample(
            &mut out,
            &format!("{name}_sum"),
            &labels,
            stats.mean * stats.count as f64,
        );
    }
    out
}

/// Per-shard row in a [`HealthSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardHealth {
    pub shard: u64,
    /// Cumulative availability in `[0, 1]`.
    pub availability: f64,
    /// Intervals this shard spent down so far.
    pub down_intervals: u64,
}

/// Point-in-time run health, published by the simulation at each
/// interval boundary and rendered as the `/healthz` JSON body.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HealthSnapshot {
    /// `"idle"`, `"running"`, or `"finished"`.
    pub state: String,
    /// Scored intervals completed so far.
    pub intervals_completed: u64,
    /// Scored intervals the run will execute.
    pub intervals_total: u64,
    /// Live twin population.
    pub users: u64,
    /// Fresh-twin coverage entering the latest prediction.
    pub twin_coverage: Option<f64>,
    /// Whether the latest interval used the degraded prediction path.
    pub degraded: bool,
    /// Cumulative degraded intervals.
    pub degraded_intervals: u64,
    /// Per-shard availability (one row per shard).
    pub shards: Vec<ShardHealth>,
    /// Cumulative SLO breach edges (0 without a policy).
    pub slo_breaches: u64,
    /// Whether any SLO rule is currently in violation.
    pub slo_breached: bool,
}

impl HealthSnapshot {
    /// Renders the snapshot as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(&'static str, Json)> = vec![
            ("state", Json::Str(self.state.clone())),
            (
                "intervals_completed",
                Json::Num(self.intervals_completed as f64),
            ),
            ("intervals_total", Json::Num(self.intervals_total as f64)),
            ("users", Json::Num(self.users as f64)),
            ("degraded", Json::Bool(self.degraded)),
            (
                "degraded_intervals",
                Json::Num(self.degraded_intervals as f64),
            ),
            ("slo_breaches", Json::Num(self.slo_breaches as f64)),
            ("slo_breached", Json::Bool(self.slo_breached)),
        ];
        pairs.push((
            "twin_coverage",
            self.twin_coverage.map_or(Json::Null, Json::Num),
        ));
        pairs.push((
            "shards",
            Json::Arr(
                self.shards
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("shard", Json::Num(s.shard as f64)),
                            ("availability", Json::Num(s.availability)),
                            ("down_intervals", Json::Num(s.down_intervals as f64)),
                        ])
                    })
                    .collect(),
            ),
        ));
        Json::obj(pairs)
    }
}

/// Shared, last-write-wins home of the current [`HealthSnapshot`].
/// Cloning shares the underlying slot; the runner publishes, the
/// metrics server reads.
#[derive(Debug, Clone, Default)]
pub struct HealthBoard {
    slot: Arc<Mutex<HealthSnapshot>>,
}

impl HealthBoard {
    /// Builds a board holding the default (idle) snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the current snapshot.
    pub fn publish(&self, snapshot: HealthSnapshot) {
        *self.slot.lock().expect("health board lock poisoned") = snapshot;
    }

    /// A copy of the current snapshot.
    pub fn snapshot(&self) -> HealthSnapshot {
        self.slot
            .lock()
            .expect("health board lock poisoned")
            .clone()
    }
}

/// A minimal HTTP/1.1 scrape endpoint on a background thread.
///
/// Serves `GET /metrics` (Prometheus text format) and `GET /healthz`
/// (JSON), both rendered on demand from shared read-only handles. The
/// listener thread is joined on [`stop`](MetricsServer::stop) or drop.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9100`; port 0 picks a free port)
    /// and starts serving `registry` and `health`.
    ///
    /// # Errors
    /// Returns a message when the address cannot be parsed or bound.
    pub fn bind(addr: &str, registry: Registry, health: HealthBoard) -> Result<Self, String> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| format!("cannot bind metrics server on {addr}: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("metrics server local_addr: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("msvs-metrics".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if thread_stop.load(Ordering::Acquire) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        // One request per connection; errors only drop
                        // the scrape, never the server.
                        let _ = serve_one(stream, &registry, &health);
                    }
                }
            })
            .map_err(|e| format!("cannot spawn metrics server thread: {e}"))?;
        Ok(MetricsServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener thread and joins it. Idempotent.
    pub fn stop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::Release);
            // Unblock the accept loop with a throwaway connection.
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn serve_one(
    mut stream: TcpStream,
    registry: &Registry,
    health: &HealthBoard,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    // Read up to the end of the request head; scrape requests have no
    // body, so a bounded single pass is enough.
    let mut buf = [0u8; 4096];
    let mut head = Vec::new();
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 64 * 1024 {
            break;
        }
    }
    let request = String::from_utf8_lossy(&head);
    let mut parts = request.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                render_prometheus(registry),
            ),
            "/healthz" => (
                "200 OK",
                "application/json; charset=utf-8",
                format!("{}\n", health.snapshot().to_json()),
            ),
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "not found; try /metrics or /healthz\n".to_string(),
            ),
        }
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

/// Issues one blocking `GET path` against `addr` and returns the raw
/// response body. Test/CLI helper — not a general HTTP client.
///
/// # Errors
/// Returns a message on connection or protocol failure.
pub fn http_get(addr: impl ToSocketAddrs, path: &str) -> Result<String, String> {
    let addr = addr
        .to_socket_addrs()
        .map_err(|e| format!("bad address: {e}"))?
        .next()
        .ok_or("address resolved to nothing")?;
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: msvs\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| format!("write: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read: {e}"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or("malformed HTTP response")?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains("200") {
        return Err(format!("non-200 response: {status}"));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_sanitised() {
        assert_eq!(metric_name("events_total"), "events_total");
        assert_eq!(metric_name("stage.ms"), "stage_ms");
        assert_eq!(metric_name("9lives"), "_9lives");
        assert_eq!(metric_name("a-b c"), "a_b_c");
        assert_eq!(metric_name(""), "_");
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
    }

    #[test]
    fn exposition_covers_counters_gauges_and_summaries() {
        let reg = Registry::new();
        reg.counter("events_total", "GroupsFormed").add(3);
        reg.counter("events_total", "IntervalStarted").add(5);
        reg.gauge("par_utilisation", "udt_ingest").set(0.75);
        reg.gauge("bare_gauge", "").set(1.5);
        let h = reg.histogram(STAGE_MS, "kmeans_fit");
        for v in 1..=100 {
            h.record(v as f64);
        }
        let text = render_prometheus(&reg);
        assert!(text.contains("# TYPE events_total counter"), "{text}");
        assert!(
            text.contains("events_total{label=\"GroupsFormed\"} 3"),
            "{text}"
        );
        assert!(text.contains("# TYPE par_utilisation gauge"), "{text}");
        assert!(
            text.contains("par_utilisation{label=\"udt_ingest\"} 0.75"),
            "{text}"
        );
        assert!(text.contains("bare_gauge 1.5"), "{text}");
        assert!(text.contains("# TYPE stage_ms summary"), "{text}");
        assert!(
            text.contains("stage_ms{stage=\"kmeans_fit\",quantile=\"0.5\"}"),
            "{text}"
        );
        assert!(
            text.contains("stage_ms_count{stage=\"kmeans_fit\"} 100"),
            "{text}"
        );
        assert!(
            text.contains("stage_ms_sum{stage=\"kmeans_fit\"}"),
            "{text}"
        );
        // One HELP/TYPE pair per family, ahead of its samples.
        assert_eq!(text.matches("# TYPE events_total counter").count(), 1);
    }

    #[test]
    fn every_exposed_line_is_format_conformant() {
        let reg = Registry::new();
        reg.counter("events_total", "with\"quote").inc();
        reg.gauge("shard_imbalance", "").set(0.2);
        reg.histogram(STAGE_MS, "cnn_forward").record(2.0);
        for line in render_prometheus(&reg).lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "bad comment line: {line}"
                );
                continue;
            }
            let name_end = line.find(['{', ' ']).unwrap_or(line.len());
            let name = &line[..name_end];
            assert!(!name.is_empty(), "unnamed sample: {line}");
            for (i, c) in name.chars().enumerate() {
                let ok = c.is_ascii_alphabetic()
                    || c == '_'
                    || c == ':'
                    || (i > 0 && c.is_ascii_digit());
                assert!(ok, "illegal metric name char {c:?} in: {line}");
            }
            let value = line.rsplit(' ').next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "unparsable value in: {line}");
        }
    }

    #[test]
    fn health_snapshot_renders_json() {
        let board = HealthBoard::new();
        board.publish(HealthSnapshot {
            state: "running".into(),
            intervals_completed: 2,
            intervals_total: 8,
            users: 100,
            twin_coverage: Some(0.97),
            degraded: false,
            degraded_intervals: 0,
            shards: vec![ShardHealth {
                shard: 1,
                availability: 0.5,
                down_intervals: 1,
            }],
            slo_breaches: 1,
            slo_breached: true,
        });
        let text = board.snapshot().to_json().to_string();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.get("state").and_then(Json::as_str), Some("running"));
        assert_eq!(
            parsed.get("intervals_completed").and_then(Json::as_u64),
            Some(2)
        );
        assert_eq!(
            parsed.get("twin_coverage").and_then(Json::as_f64),
            Some(0.97)
        );
        assert_eq!(parsed.get("slo_breached"), Some(&Json::Bool(true)));
        match parsed.get("shards") {
            Some(Json::Arr(rows)) => {
                assert_eq!(rows.len(), 1);
                assert_eq!(
                    rows[0].get("availability").and_then(Json::as_f64),
                    Some(0.5)
                );
            }
            other => panic!("shards not an array: {other:?}"),
        }
    }

    #[test]
    fn server_serves_metrics_and_healthz_then_stops() {
        let reg = Registry::new();
        reg.counter("events_total", "IntervalStarted").add(7);
        let board = HealthBoard::new();
        board.publish(HealthSnapshot {
            state: "running".into(),
            ..HealthSnapshot::default()
        });
        let mut server = MetricsServer::bind("127.0.0.1:0", reg, board).unwrap();
        let addr = server.addr();
        let metrics = http_get(addr, "/metrics").unwrap();
        assert!(metrics.contains("events_total{label=\"IntervalStarted\"} 7"));
        let health = http_get(addr, "/healthz").unwrap();
        let parsed = Json::parse(health.trim()).unwrap();
        assert_eq!(parsed.get("state").and_then(Json::as_str), Some("running"));
        assert!(http_get(addr, "/nope").is_err(), "404 path must error");
        server.stop();
        server.stop(); // idempotent
        assert!(http_get(addr, "/metrics").is_err(), "server must be down");
    }
}
