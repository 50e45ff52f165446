//! The batch-simulator workload `oltp-palru-pct`: the OLTP generator
//! exported to `.pct`, streamed through `MappedTrace` into
//! `OnlineStepper` with PA-LRU, write-back and Practical DPM.
//!
//! A *pass* is one complete simulation of the workload's records:
//! policy build and stepper construction (untimed), then every record
//! through `OnlineStepper::step` and the books closed by
//! `into_report` (timed). Passes repeat until the measured phase ends;
//! every pass's report must equal the first one's.

use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use pc_cache::BlockCache;
use pc_diskmodel::PowerModel;
use pc_sim::{OnlineStepper, PolicySpec, SimConfig, SimReport};
use pc_trace::{OltpConfig, Record, Trace};
use pc_tracefile::MappedTrace;
use pc_units::SimTime;

use crate::stats::{describe_latency, describe_samples, median, Layer, LogHist, Tracer};
use crate::{work_dir, Args, Closure, Outcome};

/// OLTP records per pass (21 disks, ~0.5 s of stepping per pass).
const OLTP_REQUESTS: usize = 200_000;
/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 41;
/// Untraced passes time one step in this many for the latency metrics.
const LATENCY_SAMPLE: u64 = 64;
/// Records per timed chunk of a pass.
const CHUNK: u64 = 16_384;
/// Traced runs put spans around one record in this many.
const TRACE_EVERY: u64 = 8;
/// The workload's policy.
const POLICY: PolicySpec = PolicySpec::PaLru;

/// One pass's results.
struct Pass {
    report: SimReport,
    requests: u64,
    /// Host time of each [`CHUNK`] of records (the last one also covers
    /// `into_report`).
    chunk_ns: Vec<u64>,
    /// Host time of every sampled step (untraced passes only).
    step_ns: Vec<u64>,
}

/// Per-position minima over passes. Every pass does the same work in
/// the same order, so the fastest observation of each chunk of records,
/// and of each sampled step, is its cost with the least interference
/// from other tenants of the host, which slow whole multi-second
/// stretches of a run by up to ~40% on a small VM.
#[derive(Default)]
struct Fastest {
    chunk_ns: Vec<u64>,
    step_ns: Vec<u64>,
    passes: usize,
}

impl Fastest {
    fn fold(&mut self, p: &Pass) {
        fold_min(&mut self.chunk_ns, &p.chunk_ns);
        fold_min(&mut self.step_ns, &p.step_ns);
        self.passes += 1;
    }

    /// Requests per second of a pass made of the fastest chunks.
    fn rate(&self, requests: u64) -> f64 {
        requests as f64 / (self.chunk_ns.iter().sum::<u64>() as f64 / 1e9)
    }

    /// The fastest time of each sampled step.
    fn latency(&self) -> LogHist {
        let mut h = LogHist::default();
        for &ns in &self.step_ns {
            h.record_ns(ns as f64);
        }
        h
    }
}

fn fold_min(best: &mut Vec<u64>, new: &[u64]) {
    if best.is_empty() {
        best.extend_from_slice(new);
    } else {
        for (b, n) in best.iter_mut().zip(new) {
            *b = (*b).min(*n);
        }
    }
}

struct Workload {
    config: SimConfig,
    power: PowerModel,
    trace: Trace,
    pct: PathBuf,
}

impl Workload {
    fn build(&self) -> Box<dyn pc_cache::ReplacementPolicy> {
        POLICY.build(
            &self.trace,
            &self.power,
            self.config.dpm,
            self.config.cache_blocks,
        )
    }

    /// One timed pass. Untraced passes sample step latencies; traced
    /// passes record spans into `tracer` instead.
    fn pass(&self, tracer: Option<&mut Tracer>) -> io::Result<Pass> {
        let stepper = OnlineStepper::new(self.trace.disk_count(), self.build(), &self.config);
        // A freshly opened map per pass, so every pass pays the lazy CRC.
        let map = MappedTrace::open(&self.pct)?;
        timed_pass(stepper, map.records(), tracer)
    }
}

/// Steps every record and closes the books, timing chunks and sampled
/// steps (untraced) or recording spans (traced).
fn timed_pass<I>(
    mut stepper: OnlineStepper,
    mut records: I,
    mut tracer: Option<&mut Tracer>,
) -> io::Result<Pass>
where
    I: Iterator<Item = io::Result<Record>>,
{
    let mut chunk_ns = Vec::new();
    let mut step_ns = Vec::new();
    let mut mark = Instant::now();
    let mut i = 0u64;
    loop {
        if i > 0 && i.is_multiple_of(CHUNK) {
            let now = Instant::now();
            chunk_ns.push(nanos(mark, now));
            mark = now;
        }
        match tracer.as_deref_mut() {
            Some(t) if i.is_multiple_of(TRACE_EVERY) => {
                let a = Instant::now();
                let Some(r) = records.next() else { break };
                let r = r?;
                t.span(Layer::TracefileNext, i, a, Instant::now(), 1.0);
                let c = Instant::now();
                stepper.step(&r);
                t.span(Layer::SimStep, i, c, Instant::now(), 1.0);
            }
            Some(_) => {
                let Some(r) = records.next() else { break };
                stepper.step(&r?);
            }
            None => {
                let Some(r) = records.next() else { break };
                let r = r?;
                if i.is_multiple_of(LATENCY_SAMPLE) {
                    let a = Instant::now();
                    stepper.step(&r);
                    step_ns.push(nanos(a, Instant::now()));
                } else {
                    stepper.step(&r);
                }
            }
        }
        i += 1;
    }
    let report = stepper.into_report();
    chunk_ns.push(nanos(mark, Instant::now()));
    Ok(Pass {
        requests: report.requests,
        report,
        chunk_ns,
        step_ns,
    })
}

fn nanos(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// Runs one simulator workload.
pub fn run(args: &Args, out: &mut Outcome) -> io::Result<()> {
    let config = SimConfig::default();
    let power = config.power_model();
    let g0 = Instant::now();
    let trace = OltpConfig::default()
        .with_requests(OLTP_REQUESTS)
        .generate(args.seed);
    let gen_ms = g0.elapsed().as_secs_f64() * 1e3;
    let pct = work_dir().join(format!("oltp-{}-{}.pct", args.seed, std::process::id()));
    std::fs::create_dir_all(work_dir())?;
    pc_tracefile::write_trace(&pct, &trace)?;
    let w = Workload {
        config,
        power,
        trace,
        pct,
    };
    let result = measure(&w, gen_ms, args, out);
    let _ = std::fs::remove_file(&w.pct);
    result
}

fn measure(w: &Workload, gen_ms: f64, args: &Args, out: &mut Outcome) -> io::Result<()> {
    out.note(format!(
        "config: policy={} write={} dpm={:?} cache_blocks={} records={} disks={}",
        POLICY.name(),
        w.config.write_policy.name(),
        w.config.dpm,
        w.config.cache_blocks,
        w.trace.len(),
        w.trace.disk_count()
    ));

    // Set-up: what stands between the user and the first step.
    let mut setup = Vec::new();
    let (mut open_ms, mut build_ms) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let map = MappedTrace::open(&w.pct)?;
        open_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if !map.is_time_sorted() || map.len() != w.trace.len() as u64 {
            out.fail(1, "exported .pct is unsorted or short".into());
        }
        let b0 = Instant::now();
        let policy = w.build();
        build_ms.push(b0.elapsed().as_secs_f64() * 1e3);
        let stepper = OnlineStepper::new(w.trace.disk_count(), policy, &w.config);
        setup.push(t0.elapsed().as_secs_f64());
        drop(stepper);
    }

    // Passes until the deadline. A traced run alternates untraced and
    // traced passes, so both see the same mix of host interference.
    let traced = args.trace;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut tracer = Tracer::new();
    let (mut fastest, mut traced_fastest) = (Fastest::default(), Fastest::default());
    let (mut untraced_ns, mut untraced_requests) = (0u64, 0u64);
    let mut first: Option<SimReport> = None;
    for k in 0u64.. {
        let with_spans = traced && k % 2 == 1;
        let p = w.pass(with_spans.then_some(&mut tracer))?;
        out.attempted += p.requests;
        match &first {
            None => first = Some(p.report.clone()),
            Some(f) if *f != p.report => {
                out.fail(
                    p.requests,
                    "a pass's SimReport differs from the first pass's".into(),
                );
            }
            Some(_) => {}
        }
        if with_spans {
            traced_fastest.fold(&p);
        } else {
            untraced_ns += p.chunk_ns.iter().sum::<u64>();
            untraced_requests += p.requests;
            fastest.fold(&p);
        }
        if Instant::now() >= deadline && (!traced || with_spans) {
            break;
        }
    }
    let report = first.expect("at least one pass ran");
    let untraced_rate = fastest.rate(report.requests);
    let hist = fastest.latency();
    out.note(format!(
        "passes: {} of {} records; host times are each {CHUNK}-record chunk's and each \
         sampled step's fastest across passes",
        fastest.passes + traced_fastest.passes,
        report.requests,
    ));

    // Output checks beyond pass-to-pass equality.
    check_books(&report, &w.power, out);
    let map = MappedTrace::open(&w.pct)?;
    let mut stream_err = None;
    let streamed = pc_sim::run_replacement_stream(
        map.disk_count(),
        map.records()
            .map_while(|r| r.map_err(|e| stream_err = Some(e)).ok()),
        &POLICY,
        &w.config,
    );
    let batch = pc_sim::run_replacement(&w.trace, &POLICY, &w.config);
    if stream_err.is_some() || streamed != batch || streamed != report {
        out.fail(
            report.requests,
            "streamed report differs from run_replacement over the same records".into(),
        );
    }

    if !traced {
        let v = &mut out.values;
        v.set("setup_s", median(&setup));
        v.set("req_per_s", untraced_rate);
        v.set("lat_p50_us", hist.quantile_ns(0.5) / 1e3);
        v.set("lat_p99_us", hist.quantile_ns(0.99) / 1e3);
        v.set("energy_j", report.total_energy().as_joules());
        v.set("sim_resp_ms", report.mean_response().as_millis_f64());
        v.set("hit_ratio", report.cache.hit_ratio());
        out.note(describe_latency("sampled steps", &hist));
        out.note(describe_samples("setup_s", &setup));
        return Ok(());
    }

    let traced_rate = traced_fastest.rate(report.requests);

    // Side passes, each over the same records.
    let v = &mut out.values;
    v.set("trace.gen_ms", gen_ms);
    v.set("core.build_ms", median(&build_ms));
    v.set("tracefile.open_ms", median(&open_ms));
    let n = report.requests as f64;
    let map = MappedTrace::open(&w.pct)?;
    let t0 = Instant::now();
    let mut seen = 0u64;
    for r in map.records() {
        std::hint::black_box(r?);
        seen += 1;
    }
    let next_ns = t0.elapsed().as_nanos() as f64 / seen.max(1) as f64;
    v.set("tracefile.next_ns", next_ns);
    let chunk = u64::from(map.header().chunk_records);
    v.set("tracefile.crc_chunks", map.crc_computations() as f64);
    v.set("tracefile.chunks", seen.div_ceil(chunk) as f64);
    if map.crc_computations() != seen.div_ceil(chunk) {
        out.fail(1, "lazy CRC did not verify each chunk exactly once".into());
    }

    // Cache-only replay: the same records through BlockCache::access.
    let mut cache = BlockCache::new(w.config.cache_blocks, w.build(), w.config.write_policy);
    let mut effects = Vec::new();
    let mut effect_count = 0u64;
    for (i, r) in w.trace.iter().enumerate() {
        if (i as u64).is_multiple_of(TRACE_EVERY) {
            let a = Instant::now();
            cache.access(r, |_| false, &mut effects);
            tracer.span(Layer::CoreAccess, i as u64, a, Instant::now(), 1.0);
        } else {
            cache.access(r, |_| false, &mut effects);
        }
        effect_count += effects.len() as u64;
    }
    let cs = cache.stats();
    if cs != report.cache {
        out.fail(
            report.requests,
            "cache-only replay disagrees with the simulated cache counters".into(),
        );
    }
    let v = &mut out.values;
    v.set("core.access_ns", tracer.mean_ns(Layer::CoreAccess));
    v.set(
        "core.miss_ratio",
        cs.misses() as f64 / cs.accesses.max(1) as f64,
    );
    v.set("core.evictions", cs.evictions as f64);
    v.set("core.dirty_evictions", cs.dirty_evictions as f64);
    v.set("core.effects_per_access", effect_count as f64 / n);

    let step = tracer.hist(Layer::SimStep);
    v.set("sim.step_ns_p50", step.quantile_ns(0.5));
    v.set("sim.step_ns_p99", step.quantile_ns(0.99));
    let step_mean = step.mean_ns();
    v.set(
        "disksim.service_ns",
        (step_mean - tracer.mean_ns(Layer::CoreAccess)).max(0.0),
    );
    v.set(
        "disksim.requests",
        report.disks.iter().map(|d| d.requests).sum::<u64>() as f64,
    );
    v.set(
        "disksim.spin_ups",
        report.disks.iter().map(|d| d.spin_ups).sum::<u64>() as f64,
    );
    v.set(
        "disksim.spin_downs",
        report.disks.iter().map(|d| d.spin_downs).sum::<u64>() as f64,
    );

    // The report layer: closing the books and rendering them.
    let mut stepper = OnlineStepper::new(w.trace.disk_count(), w.build(), &w.config);
    for r in &w.trace {
        stepper.step(r);
    }
    let f0 = Instant::now();
    let closed = stepper.into_report();
    let finish_ms = f0.elapsed().as_secs_f64() * 1e3;
    let j0 = Instant::now();
    let json = std::hint::black_box(closed.to_json());
    let json_us = j0.elapsed().as_secs_f64() * 1e6;
    if closed != report || json != report.to_json() {
        out.fail(report.requests, "report layer is not deterministic".into());
    }
    let v = &mut out.values;
    v.set("sim.finish_ms", finish_ms);
    v.set("sim.to_json_us", json_us);

    // Closure: the layers a request passes through against the
    // untraced per-request time.
    out.finish_traced(
        &tracer,
        &Closure {
            untraced_rate,
            traced_rate,
            e2e_ns: untraced_ns as f64 / untraced_requests as f64,
            layers_ns: next_ns + step_mean + finish_ms * 1e6 / n,
        },
        args,
    )
}

/// The energy and time books must close: every disk's per-mode energy
/// is its residency times the mode's power, per-disk parts sum to the
/// report total, and every disk is accounted through the horizon.
///
/// A spin-down is atomic in the disk model: one still under way when
/// the run ends completes past the horizon, so a disk may be accounted
/// beyond the horizon by less than one spin-down transition, never by
/// more and never short of it.
fn check_books(report: &SimReport, power: &PowerModel, out: &mut Outcome) {
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
    let horizon = report.horizon.saturating_since(SimTime::ZERO);
    let overrun = power
        .modes()
        .map(|(_, spec)| spec.spin_down.time)
        .max()
        .unwrap_or_default();
    let mut sum = 0.0;
    let mut bad = Vec::new();
    for (d, disk) in report.disks.iter().enumerate() {
        for (m, spec) in power.modes() {
            let i = m.index();
            let want = spec.power.as_watts() * disk.mode_time[i].as_secs_f64();
            if !close(disk.mode_energy[i].as_joules(), want) {
                bad.push(format!("disk {d} mode {i} energy != power x residency"));
            }
        }
        let accounted = disk.total_time();
        if accounted < horizon || accounted >= horizon + overrun {
            bad.push(format!(
                "disk {d} accounted for {} us against a {} us horizon",
                accounted.as_micros(),
                horizon.as_micros()
            ));
        }
        let parts = disk.service_energy.as_joules()
            + disk.mode_energy.iter().map(|e| e.as_joules()).sum::<f64>()
            + disk.spin_down_energy.as_joules()
            + disk.spin_up_energy.as_joules();
        sum += parts;
    }
    if let Some(log) = &report.log {
        sum += log.service_energy.as_joules();
    }
    if !close(sum, report.total_energy().as_joules()) {
        bad.push("per-disk energy parts do not sum to the total".into());
    }
    for b in bad.into_iter().take(5) {
        out.fail(1, format!("energy books: {b}"));
    }
}
