//! The server workloads: `serve-meta-oltp` and `serve-payload-cello`.
//!
//! An in-process `pc-server` on loopback is driven by the benchmark's
//! own closed-loop client: a fixed number of connections, one client
//! thread each, every connection keeping a fixed number of requests in
//! flight (well below the shard queue bound, so nothing is refused).
//! Every reply is matched to exactly one request, payload replies are
//! verified byte for byte and by CRC32C against the deterministic disk
//! image, and the client's reply count must equal the server's STATS.

use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pc_crc::crc32c;
use pc_server::protocol::{
    decode_request, encode_data_request, encode_request, FrameBuf, Request, Response,
};
use pc_server::{
    fill_block, loadgen, parse_stats_json, shard_of, EngineConfig, InProcCluster, RunSummary,
    Server, ShardEngine,
};
use pc_sim::PolicySpec;
use pc_trace::{CelloConfig, IoOp, OltpConfig, Trace};

use crate::stats::{describe_latency, describe_samples, median, Layer, LogHist, Tracer};
use crate::{Args, Closure, Outcome};

/// Records generated per run; connections cycle through their share.
const META_RECORDS: usize = 400_000;
/// Long enough that the modelled metrics settle from seed to seed
/// (see [`books`]).
const PAYLOAD_RECORDS: usize = 800_000;
/// Records replayed through the side passes of a traced run.
const SIDE_RECORDS: usize = 50_000;
const SETUP_REPS: usize = 31;
/// Traced runs put spans around one request in this many.
const TRACE_EVERY: u64 = 8;
/// Client connections (at most `nproc`), one client thread each.
const CONNECTIONS: usize = 2;
/// Requests each connection keeps in flight.
const DEPTH: usize = 32;
/// Server shards. With two client threads and an IO thread on a 2-vCPU
/// host, a second shard thread widened the run-to-run spread of both
/// server workloads and slowed the metadata one (see the README).
const SHARDS: usize = 1;
/// Sequence-number slots per connection (a power of two above any depth).
const SLOTS: usize = 4096;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    /// v1 metadata frames from the OLTP stream.
    MetaOltp,
    /// v2 payload frames from the Cello96 stream.
    PayloadCello,
}

impl ServeKind {
    fn payload(self) -> bool {
        self == ServeKind::PayloadCello
    }

    fn generate(self, seed: u64) -> Trace {
        match self {
            ServeKind::MetaOltp => OltpConfig::default()
                .with_requests(META_RECORDS)
                .generate(seed),
            ServeKind::PayloadCello => CelloConfig::default()
                .with_requests(PAYLOAD_RECORDS)
                .generate(seed),
        }
    }
}

/// One request as the client sends it; `idx` is the record index,
/// used as the request id of its spans.
#[derive(Debug, Clone, Copy)]
struct Op {
    idx: u64,
    disk: u32,
    block: u64,
    blocks: u16,
    write: bool,
}

impl Op {
    fn payload_len(&self, block_bytes: usize) -> usize {
        usize::from(self.blocks.max(1)) * block_bytes
    }
}

/// The deterministic disk image of an op's blocks.
fn image(op: &Op, block_bytes: usize, buf: &mut Vec<u8>) {
    buf.clear();
    buf.resize(op.payload_len(block_bytes), 0);
    for (i, chunk) in buf.chunks_exact_mut(block_bytes).enumerate() {
        fill_block(op.disk, op.block.wrapping_add(i as u64), chunk);
    }
}

/// Appends the op's request frame to `wire`.
fn encode(
    op: &Op,
    seq: u32,
    payload: bool,
    block_bytes: usize,
    scratch: &mut Vec<u8>,
    wire: &mut Vec<u8>,
) {
    if !payload {
        let req = Request::Io {
            seq,
            write: op.write,
            disk: op.disk,
            block: op.block,
            blocks: op.blocks,
        };
        encode_request(&req, wire);
    } else if op.write {
        image(op, block_bytes, scratch);
        encode_data_request(seq, true, op.disk, op.block, op.blocks, scratch, wire);
    } else {
        encode_data_request(seq, false, op.disk, op.block, op.blocks, &[], wire);
    }
}

/// Length of one window of live load. The gated server metrics are
/// medians over the windows of a run: other tenants of a shared host
/// slow stretches of a run, and a whole-run p99 follows any stretch
/// longer than a hundredth of the run, while the median window ignores
/// stretches shorter than half of it. A stall that recurs in most
/// windows still shows.
const WINDOW: Duration = Duration::from_secs(1);

/// How a client connection drives its share of the ops.
#[derive(Clone, Copy)]
struct Shape {
    payload: bool,
    depth: usize,
    block_bytes: usize,
    /// Self-test: damage the expected image of every Nth verified read,
    /// so the client's own comparison has something to catch.
    damage_every: u64,
}

/// What one client connection observed.
#[derive(Default)]
struct ConnResult {
    sent: u64,
    replies: u64,
    failed: u64,
    failures: Vec<String>,
    /// CORRUPT replies: the server caught a damaged slab frame.
    corrupt_replies: u64,
    /// Payloads that failed the client's exact-bytes and CRC32C check.
    mismatches: u64,
    /// Replies and round trips per [`WINDOW`] since the load started.
    windows: Vec<(u64, LogHist)>,
    tracer: Option<Tracer>,
}

impl ConnResult {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }
}

/// A closed-loop client connection: keeps `shape.depth` requests in
/// flight until `deadline`, then drains every outstanding reply.
fn drive(
    addr: SocketAddr,
    ops: &[Op],
    shape: Shape,
    (t0, deadline): (Instant, Instant),
    mut tracer: Option<Tracer>,
) -> io::Result<ConnResult> {
    let mut res = ConnResult::default();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let Shape {
        payload,
        depth,
        block_bytes,
        damage_every,
    } = shape;
    let mut fb = FrameBuf::new();
    let mut wire = Vec::with_capacity(64 * 1024);
    let mut scratch = Vec::new();
    let mut expect = Vec::new();
    // seq & (SLOTS-1) -> (seq, op index, send time) of an outstanding
    // request; the send time is stamped just before the batch is written.
    let mut slots: Vec<Option<(u32, usize, Instant)>> = vec![None; SLOTS];
    let mut batch: Vec<usize> = Vec::with_capacity(depth);
    let (mut next, mut seq, mut inflight) = (0usize, 0u32, 0usize);
    let (mut decoded, mut verified) = (0u64, 0u64);
    'conn: loop {
        if Instant::now() < deadline {
            while inflight < depth {
                let i = next % ops.len();
                let op = &ops[i];
                let slot = seq as usize & (SLOTS - 1);
                if slots[slot].is_some() {
                    break;
                }
                match tracer.as_mut() {
                    Some(t) if op.idx.is_multiple_of(TRACE_EVERY) => {
                        let a = Instant::now();
                        encode(op, seq, payload, block_bytes, &mut scratch, &mut wire);
                        t.span(Layer::ClientEncode, op.idx, a, Instant::now(), 1.0);
                    }
                    _ => encode(op, seq, payload, block_bytes, &mut scratch, &mut wire),
                }
                slots[slot] = Some((seq, i, t0));
                batch.push(slot);
                seq = seq.wrapping_add(1);
                next += 1;
                inflight += 1;
            }
            let now = Instant::now();
            for &s in &batch {
                if let Some(entry) = slots[s].as_mut() {
                    entry.2 = now;
                }
            }
            batch.clear();
            if !wire.is_empty() {
                stream.write_all(&wire)?;
                wire.clear();
            }
        }
        if inflight == 0 {
            break;
        }
        let lost = match fb.read_from(&mut stream) {
            Ok(0) => "server closed the connection".to_string(),
            Ok(_) => String::new(),
            Err(e) => format!("read failed: {e}"),
        };
        if !lost.is_empty() {
            res.fail(format!("{lost} with {inflight} requests unanswered"));
            res.failed += inflight as u64 - 1;
            break;
        }
        let now = Instant::now();
        let w = (now.saturating_duration_since(t0).as_nanos() / WINDOW.as_nanos()) as usize;
        if res.windows.len() <= w {
            res.windows.resize_with(w + 1, Default::default);
        }
        loop {
            let traced = tracer.is_some() && decoded.is_multiple_of(TRACE_EVERY);
            let a = Instant::now();
            let resp = match fb.next_response() {
                Ok(Some(r)) => r,
                Ok(None) => break,
                Err(e) => {
                    res.fail(format!("undecodable reply: {e}"));
                    res.failed += inflight as u64;
                    break 'conn;
                }
            };
            if traced {
                if let Some(t) = tracer.as_mut() {
                    t.span(Layer::ClientDecode, decoded, a, Instant::now(), 1.0);
                }
            }
            decoded += 1;
            // `refused`: a BUSY or CORRUPT reply, counted as a failure here.
            let (rseq, body, refused) = match resp {
                Response::Io { seq, .. } => (seq, None, false),
                Response::Data { seq, payload, .. } => (seq, Some(payload), false),
                Response::Busy { seq, depth } => {
                    res.fail(format!("BUSY at queue depth {depth}"));
                    (seq, None, true)
                }
                Response::Corrupt { seq } => {
                    res.corrupt_replies += 1;
                    res.fail("CORRUPT reply: the server caught a damaged slab frame".into());
                    (seq, None, true)
                }
                other => {
                    res.fail(format!("unexpected reply {other:?}"));
                    continue;
                }
            };
            let slot = rseq as usize & (SLOTS - 1);
            let Some((_, i, sent)) = slots[slot].take().filter(|s| s.0 == rseq) else {
                res.fail(format!("reply for seq {rseq}, which is not outstanding"));
                continue;
            };
            inflight -= 1;
            res.replies += 1;
            res.windows[w].0 += 1;
            res.windows[w].1.record(now.saturating_duration_since(sent));
            let op = &ops[i];
            let wants_data = payload && !op.write;
            match (wants_data, body) {
                (true, Some(bytes)) => {
                    let a = Instant::now();
                    image(op, block_bytes, &mut expect);
                    verified += 1;
                    if damage_every > 0 && verified.is_multiple_of(damage_every) {
                        expect[0] ^= 1;
                    }
                    let ok = bytes.len() == expect.len()
                        && crc32c(&bytes) == crc32c(&expect)
                        && bytes == expect;
                    if let Some(t) = tracer
                        .as_mut()
                        .filter(|_| op.idx.is_multiple_of(TRACE_EVERY))
                    {
                        t.span(
                            Layer::ClientVerify,
                            op.idx,
                            a,
                            Instant::now(),
                            bytes.len() as f64,
                        );
                    }
                    if !ok {
                        res.mismatches += 1;
                        res.fail(format!("payload mismatch for record {}", op.idx));
                    }
                }
                (false, None) => {}
                (true, None) if refused => {}
                (true, None) => res.fail(format!(
                    "plain IO ack to the READ_DATA request of record {}",
                    op.idx
                )),
                (false, Some(_)) => res.fail("DATA reply to a request without payload".into()),
            }
        }
    }
    res.sent = seq as u64;
    res.tracer = tracer;
    Ok(res)
}

/// One load phase against a fresh server.
struct Load {
    replies: u64,
    /// Host time from the start of the load until the last reply.
    secs: f64,
    /// Reply rate and round trips of each full window of the load.
    windows: Vec<(f64, LogHist)>,
    /// Every round trip of the phase.
    rtt: LogHist,
    tracer: Option<Tracer>,
    summary: RunSummary,
    stats_requests: u64,
    busy_rejects: u64,
    queue_high_water: u64,
}

impl Load {
    /// Replies per second over the whole phase.
    fn rate(&self) -> f64 {
        self.replies as f64 / self.secs
    }

    /// The median over full windows of each window's reply rate.
    fn median_rate(&self) -> f64 {
        let rates: Vec<f64> = self.windows.iter().map(|w| w.0).collect();
        median(&rates)
    }

    /// The median over full windows of each window's `q`-quantile
    /// round trip, in microseconds.
    fn median_quantile_us(&self, q: f64) -> f64 {
        let per_window: Vec<f64> = self.windows.iter().map(|w| w.1.quantile_ns(q)).collect();
        median(&per_window) / 1e3
    }
}

/// A server running on its own thread: address, stop flag, thread.
type Running = (
    SocketAddr,
    Arc<AtomicBool>,
    JoinHandle<io::Result<RunSummary>>,
);

fn start(cfg: &EngineConfig) -> io::Result<Running> {
    let server = Server::bind("127.0.0.1:0", cfg.clone())?;
    let addr = server.local_addr()?;
    let stop = server.stop_flag();
    let handle = std::thread::spawn(move || server.run());
    Ok((addr, stop, handle))
}

fn join(handle: JoinHandle<io::Result<RunSummary>>) -> io::Result<RunSummary> {
    handle
        .join()
        .map_err(|_| io::Error::other("server thread panicked"))?
}

fn load(
    cfg: &EngineConfig,
    shares: &[Vec<Op>],
    shape: Shape,
    secs: f64,
    traced: bool,
    out: &mut Outcome,
) -> io::Result<Load> {
    let (addr, stop, handle) = start(cfg)?;
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(secs);
    let results: Vec<io::Result<ConnResult>> = std::thread::scope(|s| {
        let joins: Vec<_> = shares
            .iter()
            .map(|ops| {
                let tracer = traced.then(Tracer::new);
                s.spawn(move || drive(addr, ops, shape, (t0, deadline), tracer))
            })
            .collect();
        joins
            .into_iter()
            .map(|j| {
                j.join()
                    .unwrap_or_else(|_| Err(io::Error::other("client thread panicked")))
            })
            .collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let stats = loadgen::fetch_stats(&addr.to_string(), Duration::from_secs(10));
    stop.store(true, Ordering::Relaxed);
    let summary = join(handle)?;
    let stats = parse_stats_json(&stats?)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed STATS"))?;

    let mut per_window = vec![(0u64, LogHist::default()); (secs / WINDOW.as_secs_f64()) as usize];
    let mut l = Load {
        replies: 0,
        secs: elapsed,
        windows: Vec::new(),
        rtt: LogHist::default(),
        tracer: traced.then(Tracer::new),
        summary,
        stats_requests: stats.requests,
        busy_rejects: stats.busy_rejects,
        queue_high_water: stats.queue_high_water,
    };
    for r in results {
        let r = r?;
        out.attempted += r.sent;
        out.corrupt_replies += r.corrupt_replies;
        out.payload_mismatches += r.mismatches;
        if r.failed > 0 {
            out.failed += r.failed;
            out.failures.extend(r.failures);
        }
        l.replies += r.replies;
        for (i, (n, h)) in r.windows.iter().enumerate() {
            l.rtt.merge(h);
            if let Some(slot) = per_window.get_mut(i) {
                slot.0 += n;
                slot.1.merge(h);
            }
        }
        if let (Some(mine), Some(theirs)) = (l.tracer.as_mut(), r.tracer) {
            mine.absorb(theirs);
        }
    }
    l.windows = per_window
        .into_iter()
        .map(|(n, h)| (n as f64 / WINDOW.as_secs_f64(), h))
        .collect();
    if l.stats_requests != l.replies {
        out.fail(
            l.stats_requests.abs_diff(l.replies).max(1),
            format!(
                "STATS served {} but the client received {} replies",
                l.stats_requests, l.replies
            ),
        );
    }
    Ok(l)
}

/// Set-up: bind, start, and the first reply on a fresh connection.
fn setup_once(cfg: &EngineConfig, op: &Op, kind: ServeKind, out: &mut Outcome) -> io::Result<f64> {
    let t0 = Instant::now();
    let (addr, stop, handle) = start(cfg)?;
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let (mut wire, mut scratch) = (Vec::new(), Vec::new());
    encode(
        op,
        7,
        kind.payload(),
        cfg.block_bytes,
        &mut scratch,
        &mut wire,
    );
    stream.write_all(&wire)?;
    let mut fb = FrameBuf::with_capacity(64 * 1024);
    let reply = loop {
        match fb.next_response() {
            Ok(Some(r)) => break Some(r),
            Ok(None) => {}
            Err(_) => break None,
        }
        if fb.read_from(&mut stream)? == 0 {
            break None;
        }
    };
    let secs = t0.elapsed().as_secs_f64();
    drop(stream);
    stop.store(true, Ordering::Relaxed);
    join(handle)?;
    out.attempted += 1;
    let ok = matches!(
        reply,
        Some(Response::Io { seq: 7, .. }) | Some(Response::Data { seq: 7, .. })
    );
    if !ok {
        out.fail(1, format!("set-up probe got {reply:?}"));
    }
    Ok(secs)
}

/// Runs one server workload.
pub fn run(kind: ServeKind, args: &Args, out: &mut Outcome) -> io::Result<()> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let shards = SHARDS;
    let conns = CONNECTIONS.min(nproc);
    let io_threads = 1;
    let depth = DEPTH;

    let g0 = Instant::now();
    let trace = kind.generate(args.seed);
    let gen_ms = g0.elapsed().as_secs_f64() * 1e3;
    let cfg = EngineConfig::new(shards, trace.disk_count())
        .with_policy(PolicySpec::PaLru)
        .with_io_threads(io_threads)
        .with_corrupt_every(args.corrupt_every);
    assert!(
        conns * depth < cfg.queue_bound,
        "load must stay below the shard queue bound"
    );
    let shape = Shape {
        payload: kind.payload(),
        depth,
        block_bytes: cfg.block_bytes,
        damage_every: args.corrupt_every,
    };
    let ops: Vec<Op> = trace
        .iter()
        .enumerate()
        .map(|(i, r)| Op {
            idx: i as u64,
            disk: r.block.disk().index(),
            block: r.block.block().number(),
            blocks: u16::try_from(r.blocks).expect("generated requests are short"),
            write: r.op == IoOp::Write,
        })
        .collect();
    let mut shares = vec![Vec::new(); conns];
    for op in &ops {
        shares[op.idx as usize % conns].push(*op);
    }
    out.note(format!(
        "config: policy=pa-lru write={} shards={shards} io_threads={io_threads} connections={conns} \
         client_threads={conns} in_flight_per_connection={depth} queue_bound={} block_bytes={} \
         payload={} records={} disks={} loop=closed",
        cfg.sim.write_policy.name(),
        cfg.queue_bound,
        cfg.block_bytes,
        kind.payload(),
        ops.len(),
        trace.disk_count()
    ));

    let mut setup = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        setup.push(setup_once(&cfg, &ops[0], kind, out)?);
    }

    if !args.trace {
        let l = load(&cfg, &shares, shape, args.seconds, false, out)?;
        let v = &mut out.values;
        v.set("setup_s", median(&setup));
        v.set("req_per_s", l.median_rate());
        v.set("lat_p50_us", l.median_quantile_us(0.5));
        v.set("lat_p99_us", l.median_quantile_us(0.99));
        out.note(format!(
            "load: {} replies in {:.3} s, {:.0} req/s over the whole load; {} windows of {} ms; \
             busy_rejects={} queue_high_water={}",
            l.replies,
            l.secs,
            l.rate(),
            l.windows.len(),
            WINDOW.as_millis(),
            l.busy_rejects,
            l.queue_high_water
        ));
        let mut rates: Vec<f64> = l.windows.iter().map(|w| w.0).collect();
        let mut p99s: Vec<f64> = l
            .windows
            .iter()
            .map(|w| w.1.quantile_ns(0.99) / 1e3)
            .collect();
        rates.sort_by(f64::total_cmp);
        p99s.sort_by(f64::total_cmp);
        let at = |v: &[f64], q: f64| v[((v.len() - 1) as f64 * q) as usize];
        if !rates.is_empty() {
            out.note(format!(
                "window rates (req/s): min {:.0} p10 {:.0} p50 {:.0} p90 {:.0} max {:.0}",
                at(&rates, 0.0),
                at(&rates, 0.1),
                at(&rates, 0.5),
                at(&rates, 0.9),
                at(&rates, 1.0)
            ));
            out.note(format!(
                "window p99 round trips (us): min {:.3} p10 {:.3} p50 {:.3} p90 {:.3} max {:.3}",
                at(&p99s, 0.0),
                at(&p99s, 0.1),
                at(&p99s, 0.5),
                at(&p99s, 0.9),
                at(&p99s, 1.0)
            ));
        }
        out.note(describe_latency("round trips, whole load", &l.rtt));
        out.note(describe_samples("setup_s", &setup));
        books(&cfg, &trace, out);
        return Ok(());
    }

    // Traced run: untraced load, traced load, a one-in-flight probe,
    // then side passes through each layer's public calls.
    let untraced = load(&cfg, &shares, shape, args.seconds * 0.4, false, out)?;
    let traced = load(&cfg, &shares, shape, args.seconds * 0.4, true, out)?;
    let traced_rate = traced.rate();
    let probe = load(
        &cfg,
        &shares[..1],
        Shape { depth: 1, ..shape },
        (args.seconds * 0.1).max(1.0),
        false,
        out,
    )?;
    let rtt1_us = probe.rtt.quantile_ns(0.5) / 1e3;
    let mut tracer = traced.tracer.expect("traced load keeps a tracer");

    let side = &ops[..SIDE_RECORDS.min(ops.len())];
    let mut frame = Vec::new();
    let mut scratch = Vec::new();
    for (seq, op) in side.iter().enumerate() {
        frame.clear();
        encode(
            op,
            seq as u32,
            kind.payload(),
            cfg.block_bytes,
            &mut scratch,
            &mut frame,
        );
        let a = Instant::now();
        let req = decode_request(&frame[4..]);
        tracer.span(Layer::ProtocolDecode, op.idx, a, Instant::now(), 1.0);
        if req.is_err() {
            out.fail(
                1,
                format!("decode_request rejected the frame of record {}", op.idx),
            );
        }
    }
    let mut engines: Vec<ShardEngine> =
        (0..cfg.shards).map(|i| ShardEngine::new(i, &cfg)).collect();
    let mut buf = Vec::new();
    for (op, r) in side.iter().zip(trace.iter()) {
        let e = &mut engines[shard_of(r.block.disk(), r.block.block(), cfg.shards)];
        let a = Instant::now();
        e.ingest(r.time, op.disk, op.block, u64::from(op.blocks), op.write);
        tracer.span(Layer::ShardIngest, op.idx, a, Instant::now(), 1.0);
        if !kind.payload() {
            continue;
        }
        let blocks = u64::from(op.blocks);
        if op.write {
            image(op, cfg.block_bytes, &mut scratch);
            let a = Instant::now();
            e.write_payload(op.disk, op.block, blocks, &scratch);
            tracer.span(
                Layer::DataWrite,
                op.idx,
                a,
                Instant::now(),
                scratch.len() as f64,
            );
        } else {
            buf.clear();
            let a = Instant::now();
            let ok = e.read_payload_into(op.disk, op.block, blocks, &mut buf);
            tracer.span(Layer::DataRead, op.idx, a, Instant::now(), buf.len() as f64);
            if !ok && args.corrupt_every == 0 {
                out.fail(
                    1,
                    format!("read_payload_into failed CRC for record {}", op.idx),
                );
            }
        }
    }

    let per_call_total = |l: Layer, t: &Tracer| t.mean_ns(l) * t.hist(l).count() as f64;
    let n_side = side.len() as f64;
    let data_ns = (per_call_total(Layer::DataWrite, &tracer)
        + per_call_total(Layer::DataRead, &tracer))
        / n_side;
    let reads = side.iter().filter(|o| !o.write).count() as f64;
    let verify_ns = if kind.payload() {
        tracer.mean_ns(Layer::ClientVerify) * reads / n_side
    } else {
        0.0
    };
    let layers_ns = tracer.mean_ns(Layer::ClientEncode)
        + tracer.mean_ns(Layer::ClientDecode)
        + tracer.mean_ns(Layer::ProtocolDecode)
        + tracer.mean_ns(Layer::ShardIngest)
        + data_ns
        + verify_ns;

    let io = &untraced.summary.snapshot.io;
    let wakeups: u64 = io.iter().map(|t| t.wakeups).sum();
    let frames: u64 = io.iter().map(|t| t.frames).sum();
    let v = &mut out.values;
    v.set("trace.gen_ms", gen_ms);
    v.set("client.encode_ns", tracer.mean_ns(Layer::ClientEncode));
    v.set("client.decode_ns", tracer.mean_ns(Layer::ClientDecode));
    v.set(
        "client.verify_ns_per_kib",
        tracer.ns_per_kib(Layer::ClientVerify),
    );
    v.set("protocol.decode_ns", tracer.mean_ns(Layer::ProtocolDecode));
    v.set("shard.ingest_ns", tracer.mean_ns(Layer::ShardIngest));
    v.set("data.write_ns_per_kib", tracer.ns_per_kib(Layer::DataWrite));
    v.set("data.read_ns_per_kib", tracer.ns_per_kib(Layer::DataRead));
    v.set("queue.busy_rejects", untraced.busy_rejects as f64);
    v.set("queue.high_water", untraced.queue_high_water as f64);
    v.set(
        "server.frames_per_wakeup",
        frames as f64 / wakeups.max(1) as f64,
    );
    v.set("server.rtt1_p50_us", rtt1_us);
    v.set("server.residual_us", rtt1_us - layers_ns / 1e3);
    out.note(format!(
        "probe (1 in flight): n={} p50={rtt1_us:.3}us; side-pass layers {:.3}us per request",
        probe.rtt.count(),
        layers_ns / 1e3
    ));
    out.finish_traced(
        &tracer,
        &Closure {
            untraced_rate: untraced.rate(),
            traced_rate,
            e2e_ns: 1e9 / untraced.rate(),
            layers_ns,
        },
        args,
    )
}

/// The modelled metrics: the server engine's books over the served
/// trace, replayed deterministically in-process (arrival times from the
/// records, not the wall clock), so they repeat exactly per seed. On
/// Cello96 a few requests that wait out a spin-up dominate the mean
/// response: over seeds 1-8, `sim_resp_ms` spread 15.7-18.0 ms on 400k
/// records and 13.6-14.7 ms on 800k, while 1.6M records split
/// `hit_ratio` between about 0.153 and 0.168 by seed.
fn books(cfg: &EngineConfig, trace: &Trace, out: &mut Outcome) {
    let replay = || {
        let mut cluster = InProcCluster::new(cfg);
        let busy = trace
            .iter()
            .filter(|r| cluster.submit(r).served().is_none())
            .count();
        (cluster.into_snapshot(), busy)
    };
    let (snap, busy) = replay();
    if busy > 0 || replay().0.to_json() != snap.to_json() {
        out.fail(
            trace.len() as u64,
            "in-process books refused requests or differ between replays".into(),
        );
    }
    let resp: f64 = snap
        .shards
        .iter()
        .map(|s| s.response_total.as_millis_f64())
        .sum();
    let v = &mut out.values;
    v.set("energy_j", snap.total_energy().as_joules());
    v.set("sim_resp_ms", resp / snap.total_requests().max(1) as f64);
    v.set("hit_ratio", snap.total_cache().hit_ratio());
}
