//! Measurement primitives: a fine log-bucket latency histogram, order
//! statistics, and the in-memory span recorder used by traced runs.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Natural log of the bucket ratio: every bucket is 0.5% wide, well
/// under the 1% resolution the latency percentiles need.
const LN_STEP: f64 = 0.004_987_541_511_038_968; // ln(1.005)
/// Buckets cover 1 ns .. ~22 s.
const BUCKETS: usize = 4_800;

/// A latency histogram in nanoseconds with 0.5%-wide geometric buckets.
/// Quantiles interpolate geometrically inside the bucket by rank, so a
/// percentile moves smoothly with the data instead of snapping to a
/// bucket edge.
#[derive(Clone)]
pub struct LogHist {
    counts: Vec<u32>,
    n: u64,
    sum_ns: f64,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            counts: vec![0; BUCKETS],
            n: 0,
            sum_ns: 0.0,
        }
    }
}

impl LogHist {
    fn bucket(ns: f64) -> usize {
        if ns < 1.0 {
            0
        } else {
            ((ns.ln() / LN_STEP) as usize + 1).min(BUCKETS - 1)
        }
    }

    /// Records one sample.
    pub fn record_ns(&mut self, ns: f64) {
        self.counts[Self::bucket(ns)] += 1;
        self.n += 1;
        self.sum_ns += ns;
    }

    /// Records one measured duration.
    pub fn record(&mut self, d: Duration) {
        self.record_ns(d.as_nanos() as f64);
    }

    /// Adds another histogram's samples.
    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self.n += other.n;
        self.sum_ns += other.sum_ns;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum_ns / self.n as f64
        }
    }

    /// The `q`-quantile in nanoseconds (0 when empty).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = (q * self.n as f64).clamp(1.0, self.n as f64);
        let mut below = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            let c = u64::from(c);
            if c > 0 && (below + c) as f64 >= rank {
                let within = (rank - below as f64 - 0.5) / c as f64;
                if b == 0 {
                    return within.clamp(0.0, 1.0);
                }
                return ((b as f64 - 1.0 + within.clamp(0.0, 1.0)) * LN_STEP).exp();
            }
            below += c;
        }
        unreachable!("rank never exceeds the sample count")
    }

    /// The highest percentile with at least ten samples beyond it, as
    /// `(percentile, value_ns)`; `None` under twenty samples.
    pub fn deepest_supported(&self) -> Option<(f64, f64)> {
        if self.n < 20 {
            return None;
        }
        let q = 1.0 - 10.0 / self.n as f64;
        Some((q * 100.0, self.quantile_ns(q)))
    }
}

/// Median of a sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// One line describing a latency histogram: sample count, p50, p99 and
/// the deepest percentile with ten samples beyond it.
pub fn describe_latency(what: &str, hist: &LogHist) -> String {
    let deep = hist
        .deepest_supported()
        .map(|(q, v)| format!(" p{q:.4}={:.3}us", v / 1e3))
        .unwrap_or_default();
    format!(
        "{what}: n={} p50={:.3}us p90={:.3}us p99={:.3}us{deep}",
        hist.count(),
        hist.quantile_ns(0.5) / 1e3,
        hist.quantile_ns(0.9) / 1e3,
        hist.quantile_ns(0.99) / 1e3
    )
}

/// One line listing raw samples (seconds).
pub fn describe_samples(what: &str, samples: &[f64]) -> String {
    let list: Vec<String> = samples.iter().map(|s| format!("{s:.5}")).collect();
    format!("{what} samples: {}", list.join(" "))
}

/// The benchmark process's high-water resident set, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The layers a span can belong to (crate or module names).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    TracefileNext,
    CoreAccess,
    SimStep,
    ClientEncode,
    ClientDecode,
    ClientVerify,
    ProtocolDecode,
    ShardIngest,
    DataWrite,
    DataRead,
}

impl Layer {
    const ALL: [Layer; 10] = [
        Layer::TracefileNext,
        Layer::CoreAccess,
        Layer::SimStep,
        Layer::ClientEncode,
        Layer::ClientDecode,
        Layer::ClientVerify,
        Layer::ProtocolDecode,
        Layer::ShardIngest,
        Layer::DataWrite,
        Layer::DataRead,
    ];

    fn name(self) -> &'static str {
        match self {
            Layer::TracefileNext => "tracefile.next",
            Layer::CoreAccess => "core.access",
            Layer::SimStep => "sim.step",
            Layer::ClientEncode => "client.encode",
            Layer::ClientDecode => "client.decode",
            Layer::ClientVerify => "client.verify",
            Layer::ProtocolDecode => "protocol.decode",
            Layer::ShardIngest => "shard.ingest",
            Layer::DataWrite => "data.write",
            Layer::DataRead => "data.read",
        }
    }
}

/// One recorded span: a public-layer call, keyed by the record index
/// of the request it served.
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    req: u64,
    start_ns: u64,
    dur_ns: u64,
}

/// Spans kept in memory for the trace file; aggregates keep counting
/// past this.
const SPAN_CAP: usize = 200_000;

/// The in-memory span recorder. Every span also feeds its layer's
/// histogram, net of the calibrated cost of taking the two timestamps;
/// spans themselves are written out once, when the run ends.
pub struct Tracer {
    origin: Instant,
    span_cost_ns: f64,
    spans: Vec<Span>,
    dropped: u64,
    hists: Vec<LogHist>,
    /// Work units per layer (bytes for the data layers, calls otherwise).
    units: Vec<f64>,
}

impl Tracer {
    /// A recorder whose span cost is calibrated now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            span_cost_ns: calibrate_span_cost(),
            spans: Vec::with_capacity(SPAN_CAP),
            dropped: 0,
            hists: vec![LogHist::default(); Layer::ALL.len()],
            units: vec![0.0; Layer::ALL.len()],
        }
    }

    /// The calibrated cost of one empty span, in nanoseconds.
    pub fn span_cost_ns(&self) -> f64 {
        self.span_cost_ns
    }

    /// Records a span covering `units` units of work.
    pub fn span(&mut self, layer: Layer, req: u64, start: Instant, end: Instant, units: f64) {
        let dur = end.saturating_duration_since(start).as_nanos() as f64;
        self.hists[layer as usize].record_ns((dur - self.span_cost_ns).max(0.0));
        self.units[layer as usize] += units;
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                layer,
                req,
                start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
                dur_ns: dur as u64,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Folds another recorder's aggregates and spans into this one.
    pub fn absorb(&mut self, other: Tracer) {
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            a.merge(b);
        }
        for (a, b) in self.units.iter_mut().zip(&other.units) {
            *a += b;
        }
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        for s in other.spans {
            if self.spans.len() < SPAN_CAP {
                self.spans.push(Span {
                    start_ns: s.start_ns + shift,
                    ..s
                });
            } else {
                self.dropped += 1;
            }
        }
        self.dropped += other.dropped;
    }

    /// A layer's net-of-overhead histogram.
    pub fn hist(&self, layer: Layer) -> &LogHist {
        &self.hists[layer as usize]
    }

    /// Mean net time per call, in nanoseconds.
    pub fn mean_ns(&self, layer: Layer) -> f64 {
        self.hist(layer).mean_ns()
    }

    /// Net time per KiB of work for a layer whose units are bytes.
    pub fn ns_per_kib(&self, layer: Layer) -> f64 {
        let h = self.hist(layer);
        let bytes = self.units[layer as usize];
        if bytes == 0.0 {
            0.0
        } else {
            h.mean_ns() * h.count() as f64 / (bytes / 1024.0)
        }
    }

    /// Writes every kept span as CSV (`layer,req,start_ns,dur_ns`) and
    /// returns `(written, dropped)`.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<(usize, u64)> {
        let mut out = String::with_capacity(self.spans.len() * 40);
        out.push_str("layer,req,start_ns,dur_ns\n");
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{},{},{},{}",
                s.layer.name(),
                s.req,
                s.start_ns,
                s.dur_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(out.as_bytes())?;
        f.flush()?;
        Ok((self.spans.len(), self.dropped))
    }
}

/// Median cost of taking two back-to-back `Instant`s.
fn calibrate_span_cost() -> f64 {
    let mut v: Vec<f64> = (0..10_001)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            b.saturating_duration_since(a).as_nanos() as f64
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_track_samples_within_a_bucket() {
        let mut h = LogHist::default();
        for ns in 1..=10_000u32 {
            h.record_ns(f64::from(ns));
        }
        let p50 = h.quantile_ns(0.5);
        assert!((p50 - 5_000.0).abs() / 5_000.0 < 0.01, "{p50}");
        let (q, v) = h.deepest_supported().unwrap();
        assert!((q - 99.9).abs() < 1e-9);
        assert!((v - 9_990.0).abs() / 9_990.0 < 0.01, "{v}");
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
