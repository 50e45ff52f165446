//! The metric ledger: every end-to-end and per-layer metric the
//! benchmark reports, with its unit, direction and — for layer metrics
//! — the end-to-end metric and workload it is expected to move.
//! `BENCHMARK.json` lists the same names; `--describe` prints this
//! table.

/// One end-to-end metric (reported by untraced runs).
pub struct E2e {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub meaning: &'static str,
}

/// One per-layer metric (reported by traced runs).
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// End-to-end metric(s) and workload(s) this layer metric moves.
    pub moves: &'static str,
}

pub const E2E: &[E2e] = &[
    E2e {
        name: "setup_s",
        unit: "s",
        better: "lower",
        meaning: "time until the first request can be served (median of several set-ups)",
    },
    E2e {
        name: "req_per_s",
        unit: "1/s",
        better: "higher",
        meaning: "requests per host second: fastest chunks across passes (sim), median \
                  1 s window (serve)",
    },
    E2e {
        name: "lat_p50_us",
        unit: "us",
        better: "lower",
        meaning: "per-request host latency p50: median over 1 s windows of the window's \
                  round-trip p50 (serve), each sampled step's fastest pass (sim)",
    },
    E2e {
        name: "lat_p99_us",
        unit: "us",
        better: "lower",
        meaning: "per-request host latency p99, same definition as lat_p50_us",
    },
    E2e {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        meaning: "the benchmark process's high-water RSS",
    },
    E2e {
        name: "energy_j",
        unit: "J",
        better: "lower",
        meaning: "modelled total disk energy (deterministic for a seed)",
    },
    E2e {
        name: "sim_resp_ms",
        unit: "ms",
        better: "lower",
        meaning: "modelled mean response time (deterministic for a seed)",
    },
    E2e {
        name: "hit_ratio",
        unit: "ratio",
        better: "higher",
        meaning: "modelled cache hit ratio (deterministic for a seed)",
    },
];

const fn lm(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
    }
}

pub const LAYERS: &[LayerMetric] = &[
    lm(
        "trace.gen_ms",
        "ms",
        "lower",
        "no gated metric: generation comes before set-up on every workload",
    ),
    lm(
        "tracefile.open_ms",
        "ms",
        "lower",
        "setup_s on oltp-palru-pct",
    ),
    lm(
        "tracefile.next_ns",
        "ns",
        "lower",
        "req_per_s on oltp-palru-pct",
    ),
    lm(
        "tracefile.crc_chunks",
        "count",
        "lower",
        "must equal tracefile.chunks (lazy CRC once per chunk)",
    ),
    lm(
        "tracefile.chunks",
        "count",
        "lower",
        "reference for tracefile.crc_chunks",
    ),
    lm(
        "core.build_ms",
        "ms",
        "lower",
        "setup_s on oltp-palru-pct (near 0: PA-LRU builds no tables)",
    ),
    lm(
        "core.access_ns",
        "ns",
        "lower",
        "req_per_s on oltp-palru-pct",
    ),
    lm(
        "core.miss_ratio",
        "ratio",
        "lower",
        "energy_j, sim_resp_ms, hit_ratio on oltp-palru-pct",
    ),
    lm(
        "core.evictions",
        "count",
        "lower",
        "energy_j, sim_resp_ms on oltp-palru-pct",
    ),
    lm(
        "core.dirty_evictions",
        "count",
        "lower",
        "energy_j on oltp-palru-pct",
    ),
    lm(
        "core.effects_per_access",
        "count",
        "lower",
        "energy_j, sim_resp_ms on oltp-palru-pct",
    ),
    lm(
        "sim.step_ns_p50",
        "ns",
        "lower",
        "req_per_s on oltp-palru-pct",
    ),
    lm(
        "sim.step_ns_p99",
        "ns",
        "lower",
        "req_per_s, lat_p99_us on oltp-palru-pct",
    ),
    lm(
        "disksim.service_ns",
        "ns",
        "lower",
        "req_per_s on oltp-palru-pct (derived: step mean minus access mean)",
    ),
    lm(
        "disksim.requests",
        "count",
        "lower",
        "energy_j on oltp-palru-pct",
    ),
    lm(
        "disksim.spin_ups",
        "count",
        "lower",
        "energy_j on oltp-palru-pct",
    ),
    lm(
        "disksim.spin_downs",
        "count",
        "lower",
        "energy_j on oltp-palru-pct",
    ),
    lm(
        "sim.finish_ms",
        "ms",
        "lower",
        "req_per_s on oltp-palru-pct",
    ),
    lm(
        "sim.to_json_us",
        "us",
        "lower",
        "report layer; no gated metric",
    ),
    lm(
        "client.encode_ns",
        "ns",
        "lower",
        "req_per_s on serve-meta-oltp and serve-payload-cello",
    ),
    lm(
        "client.decode_ns",
        "ns",
        "lower",
        "req_per_s on serve-meta-oltp and serve-payload-cello",
    ),
    lm(
        "client.verify_ns_per_kib",
        "ns/KiB",
        "lower",
        "req_per_s on serve-payload-cello",
    ),
    lm(
        "protocol.decode_ns",
        "ns",
        "lower",
        "req_per_s on serve-meta-oltp",
    ),
    lm(
        "shard.ingest_ns",
        "ns",
        "lower",
        "req_per_s and lat_p50_us on serve-meta-oltp",
    ),
    lm(
        "data.write_ns_per_kib",
        "ns/KiB",
        "lower",
        "req_per_s and lat_p50_us on serve-payload-cello (0 on serve-meta-oltp)",
    ),
    lm(
        "data.read_ns_per_kib",
        "ns/KiB",
        "lower",
        "req_per_s and lat_p50_us on serve-payload-cello (0 on serve-meta-oltp)",
    ),
    lm(
        "queue.busy_rejects",
        "count",
        "lower",
        "failed/attempted on server workloads",
    ),
    lm(
        "queue.high_water",
        "count",
        "lower",
        "failed/attempted on server workloads",
    ),
    lm(
        "server.frames_per_wakeup",
        "count",
        "higher",
        "req_per_s on serve-meta-oltp",
    ),
    lm(
        "server.rtt1_p50_us",
        "us",
        "lower",
        "lat_p50_us on server workloads (one request in flight)",
    ),
    lm(
        "server.residual_us",
        "us",
        "lower",
        "lat_p50_us on serve-meta-oltp (server.rtt1_p50_us minus side-pass layer costs)",
    ),
    lm(
        "bench.untraced_req_per_s",
        "1/s",
        "higher",
        "req_per_s measured inside the traced run, tracing off",
    ),
    lm(
        "bench.traced_req_per_s",
        "1/s",
        "higher",
        "req_per_s with spans on",
    ),
    lm(
        "bench.trace_overhead_pct",
        "%",
        "lower",
        "tracing cost: (untraced - traced) / untraced req_per_s",
    ),
    lm(
        "bench.closure_residual_pct",
        "%",
        "lower",
        "per-request time no layer metric covers, as a share of it",
    ),
    lm(
        "bench.closure_flagged",
        "count",
        "lower",
        "1 when |closure residual| exceeds 15%",
    ),
    lm(
        "bench.span_cost_ns",
        "ns",
        "lower",
        "calibrated cost of one span, subtracted from every span",
    ),
];

/// The workloads, with why each exists and which layers it exercises
/// or bypasses.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "oltp-palru-pct",
        "OLTP streamed from .pct via MappedTrace, PA-LRU write-back, Practical DPM: \
         disk-heavy; exercises trace, tracefile, core, sim, disksim; bypasses OPG and server",
    ),
    (
        "serve-meta-oltp",
        "pc-server on loopback, PA-LRU, v1 metadata frames of OLTP, closed loop of 2 \
         connections x 32 in flight: server, protocol, queue, shard dominate; bypasses data",
    ),
    (
        "serve-payload-cello",
        "same server and loop shape, v2 payload frames of Cello96 (verified reads, writes): \
         data (CRC32C, copy) dominates; bypasses tracefile",
    ),
];

/// Collected metric values of one run.
#[derive(Default)]
pub struct Values {
    values: Vec<(&'static str, f64)>,
}

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Renders the `metrics` object for the given ledger rows. Layer
    /// metrics a workload does not reach read 0.
    ///
    /// # Panics
    ///
    /// Panics if an end-to-end metric was never set or any value is
    /// not finite: both are bugs in the benchmark.
    pub fn render(&self, traced: bool) -> String {
        let rows: Vec<(&str, &str)> = if traced {
            LAYERS.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            E2E.iter().map(|m| (m.name, m.unit)).collect()
        };
        let mut out = String::from("{");
        for (i, (name, unit)) in rows.iter().enumerate() {
            let v = match self.get(name) {
                Some(v) => v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            assert!(v.is_finite(), "metric {name} is not finite: {v}");
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(v)
            ));
        }
        out.push('}');
        out
    }

    /// Human-readable lines, one per metric, in ledger order.
    pub fn table(&self, traced: bool) -> Vec<String> {
        let rows: Vec<(&str, &str, &str)> = if traced {
            LAYERS.iter().map(|m| (m.name, m.unit, m.moves)).collect()
        } else {
            E2E.iter().map(|m| (m.name, m.unit, m.meaning)).collect()
        };
        rows.iter()
            .map(|(name, unit, note)| {
                let v = self.get(name).unwrap_or(0.0);
                format!("  {name:<26} {v:>16.4} {unit:<7} {note}")
            })
            .collect()
    }
}

/// A finite f64 as a JSON number with all its digits.
fn json_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// The `--describe` text: workloads and the full ledger.
pub fn describe() -> String {
    let mut s = String::from("workloads:\n");
    for (name, why) in WORKLOADS {
        s.push_str(&format!("  {name:<20} {why}\n"));
    }
    s.push_str("end-to-end metrics (--trace 0):\n");
    for m in E2E {
        s.push_str(&format!(
            "  {:<14} {:<6} {:<7} {}\n",
            m.name, m.unit, m.better, m.meaning
        ));
    }
    s.push_str("per-layer metrics (--trace 1), with what each should move:\n");
    for m in LAYERS {
        s.push_str(&format!(
            "  {:<26} {:<7} {:<7} {}\n",
            m.name, m.unit, m.better, m.moves
        ));
    }
    s
}
