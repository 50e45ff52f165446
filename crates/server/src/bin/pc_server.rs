//! The `pc-server` daemon: serve block I/O over TCP until SIGTERM (or a
//! `SHUTDOWN` frame), then drain and print the closing report.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use pc_server::{
    online_policy, parse_slow_shard, parse_write_policy, EngineConfig, Server, DEFAULT_QUEUE_BOUND,
    ONLINE_POLICIES,
};

/// Set by the C signal handler; bridged to the server's stop flag by a
/// watcher thread (the handler itself must stay async-signal-safe).
static SIGNALLED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SIGNALLED.store(true, Ordering::SeqCst);
}

fn install_signal_handlers() {
    // libc is already linked by std; `signal` with a flag-setting
    // handler is the entire dependency surface.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
}

const USAGE: &str = "usage: pc-server [--addr HOST:PORT] [--shards N] [--disks N] \
[--policy NAME] [--write-policy NAME] [--cache-blocks N] [--prefetch N] \
[--shard-queue N] [--slow-shard IDX:MICROS] [--io-threads N] \
[--block-bytes N] [--corrupt-rate N] [--capture FILE.pct]\n\
  policies: lru fifo arc mq lirs 2q pa-lru pa-arc pa-mq pa-lirs pa-2q meta\n\
  (--policy meta adapts: it re-ranks the fixed policies each epoch and\n\
  switches the live one; STATS gains per-shard active_policy/switches)\n\
  write policies: write-back write-through wbeu[:limit] wtdu\n\
  --shard-queue bounds each shard's admission queue (requests); a full\n\
  queue answers BUSY. --slow-shard injects a per-request service delay\n\
  into one shard (fault injection for backpressure tests).\n\
  --io-threads sets the epoll event-loop thread count (0 = auto).\n\
  --block-bytes sets the data-plane block size (READ_DATA/WRITE_DATA\n\
  payload bytes per block, default 4096). --corrupt-rate N flips one\n\
  slab byte before every Nth verified read per shard (0 = off): CRC\n\
  fault injection — reads answer CORRUPT and STATS counts crc_failures.\n\
  --capture records every accepted request into a binary .pct trace\n\
  file for later replay (pc-loadgen --trace); capture never blocks a\n\
  shard — when the writer falls behind, records are dropped and the\n\
  drop count surfaces in STATS and the closing report.";

struct Args {
    addr: String,
    engine: EngineConfig,
    policy_name: String,
    write_name: String,
    capture: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut addr = "127.0.0.1:7070".to_owned();
    let mut shards = 8usize;
    let mut disks = 21u32;
    let mut policy_name = "pa-lru".to_owned();
    let mut write_name = "write-back".to_owned();
    let mut cache_blocks = 4_096usize;
    let mut prefetch = 0u64;
    let mut shard_queue = DEFAULT_QUEUE_BOUND;
    let mut slow_shard = None;
    let mut io_threads = 0usize;
    let mut block_bytes = pc_server::protocol::DEFAULT_BLOCK_BYTES;
    let mut corrupt_rate = 0u64;
    let mut capture = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => addr = value("--addr")?,
            "--shards" => {
                shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?
            }
            "--disks" => {
                disks = value("--disks")?
                    .parse()
                    .map_err(|e| format!("--disks: {e}"))?
            }
            "--policy" => policy_name = value("--policy")?,
            "--write-policy" => write_name = value("--write-policy")?,
            "--cache-blocks" => {
                cache_blocks = value("--cache-blocks")?
                    .parse()
                    .map_err(|e| format!("--cache-blocks: {e}"))?;
            }
            "--prefetch" => {
                prefetch = value("--prefetch")?
                    .parse()
                    .map_err(|e| format!("--prefetch: {e}"))?
            }
            "--shard-queue" => {
                shard_queue = value("--shard-queue")?
                    .parse()
                    .map_err(|e| format!("--shard-queue: {e}"))?;
                if shard_queue == 0 {
                    return Err("--shard-queue must be at least 1".to_owned());
                }
            }
            "--slow-shard" => {
                let spec = value("--slow-shard")?;
                slow_shard =
                    Some(parse_slow_shard(&spec).ok_or_else(|| {
                        format!("--slow-shard: expected IDX:MICROS, got {spec:?}")
                    })?);
            }
            "--io-threads" => {
                io_threads = value("--io-threads")?
                    .parse()
                    .map_err(|e| format!("--io-threads: {e}"))?
            }
            "--block-bytes" => {
                block_bytes = value("--block-bytes")?
                    .parse()
                    .map_err(|e| format!("--block-bytes: {e}"))?;
                if block_bytes == 0 {
                    return Err("--block-bytes must be at least 1".to_owned());
                }
            }
            "--corrupt-rate" => {
                corrupt_rate = value("--corrupt-rate")?
                    .parse()
                    .map_err(|e| format!("--corrupt-rate: {e}"))?
            }
            "--capture" => capture = Some(value("--capture")?.into()),
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    let policy = online_policy(&policy_name).ok_or_else(|| {
        format!(
            "unknown policy {policy_name:?}; online policies: {ONLINE_POLICIES:?} plus \"meta\""
        )
    })?;
    let write_policy = parse_write_policy(&write_name)
        .ok_or_else(|| format!("unknown write policy {write_name:?}"))?;
    let sim = pc_sim::SimConfig::default()
        .with_cache_blocks(cache_blocks)
        .with_write_policy(write_policy)
        .with_prefetch_depth(prefetch);
    let mut engine = EngineConfig::new(shards, disks)
        .with_policy(policy)
        .with_sim(sim)
        .with_queue_bound(shard_queue)
        .with_io_threads(io_threads)
        .with_block_bytes(block_bytes)
        .with_corrupt_every(corrupt_rate);
    if let Some(slow) = slow_shard {
        if slow.shard >= shards {
            return Err(format!(
                "--slow-shard index {} out of range (shards={shards})",
                slow.shard
            ));
        }
        engine = engine.with_slow_shard(slow);
    }
    Ok(Args {
        addr,
        engine,
        policy_name,
        write_name,
        capture,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    install_signal_handlers();
    let mut server = match Server::bind(&args.addr, args.engine.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pc-server: bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.capture {
        server = server.with_capture(path.clone());
    }
    let addr = server
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or(args.addr);
    println!(
        "pc-server listening on {addr} shards={} disks={} policy={} write_policy={} cache_blocks={} shard_queue={} front_end={}{}",
        args.engine.shards,
        args.engine.disks,
        args.policy_name,
        args.write_name,
        args.engine.sim.cache_blocks,
        args.engine.queue_bound,
        if args.engine.io_threads == 0 {
            "event-loop(auto)".to_owned()
        } else {
            format!("event-loop({})", args.engine.io_threads)
        },
        args.engine
            .slow_shard
            .map(|s| format!(" slow_shard={}:{}us", s.shard, s.micros))
            .unwrap_or_default(),
    );
    if let Some(path) = &args.capture {
        println!("pc-server capturing to {}", path.display());
    }

    let stop = server.stop_flag();
    std::thread::spawn(move || loop {
        if SIGNALLED.load(Ordering::SeqCst) {
            stop.store(true, Ordering::Relaxed);
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    });

    match server.run() {
        Ok(summary) => {
            println!(
                "pc-server drained: {} connections, {} requests",
                summary.connections,
                summary.snapshot.total_requests()
            );
            if let Some(report) = &summary.capture {
                println!(
                    "pc-server captured {} records to {} ({} dropped)",
                    report.written,
                    report.path.display(),
                    report.dropped,
                );
            }
            print!("{}", summary.snapshot.render_table());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pc-server: {e}");
            ExitCode::FAILURE
        }
    }
}
