//! `pc-perfbench`: the repository benchmark.
//!
//! Generates each workload from `--seed`, drives the simulator and the
//! server only through their public APIs, checks every output it
//! measures, and prints one JSON result as the last line of stdout:
//! the end-to-end metrics with `--trace 0`, the per-layer ledger with
//! `--trace 1`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload oltp-palru-pct --seed 1 --seconds 10 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --describe
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```

mod ledger;
mod serve;
mod sim;
mod stats;

use std::io;
use std::path::PathBuf;
use std::process::ExitCode;

use ledger::Values;
use stats::Tracer;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Fault injection for the self-test: the server corrupts every Nth
    /// payload read from its slab, and the client damages its expected
    /// image of every Nth verified read.
    pub corrupt_every: u64,
}

/// What one run produced: metric values, operation counts and the
/// failures any output check found.
#[derive(Default)]
pub struct Outcome {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub notes: Vec<String>,
    /// Self-test evidence: CORRUPT replies the server sent, and payloads
    /// the client's own comparison rejected.
    pub corrupt_replies: u64,
    pub payload_mismatches: u64,
}

/// What a traced run measured around its layers.
pub struct Closure {
    pub untraced_rate: f64,
    pub traced_rate: f64,
    /// Untraced host time per request, in nanoseconds.
    pub e2e_ns: f64,
    /// Summed per-request layer times, in nanoseconds.
    pub layers_ns: f64,
}

/// The closure residual beyond which a traced run flags its ledger.
const CLOSURE_BOUND_PCT: f64 = 15.0;

impl Outcome {
    /// Records a failed check covering `ops` operations.
    pub fn fail(&mut self, ops: u64, what: String) {
        self.failed += ops;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records tracing overhead and the closure residual, and writes
    /// the spans out: the tail of every traced run.
    pub fn finish_traced(&mut self, tracer: &Tracer, c: &Closure, args: &Args) -> io::Result<()> {
        let residual_pct = 100.0 * (c.e2e_ns - c.layers_ns) / c.e2e_ns;
        let flagged = residual_pct.abs() > CLOSURE_BOUND_PCT;
        let v = &mut self.values;
        v.set("bench.untraced_req_per_s", c.untraced_rate);
        v.set("bench.traced_req_per_s", c.traced_rate);
        v.set(
            "bench.trace_overhead_pct",
            100.0 * (c.untraced_rate - c.traced_rate) / c.untraced_rate,
        );
        v.set("bench.closure_residual_pct", residual_pct);
        v.set("bench.closure_flagged", f64::from(u8::from(flagged)));
        v.set("bench.span_cost_ns", tracer.span_cost_ns());
        self.note(format!(
            "closure: untraced {:.1} ns/request, layers {:.1} ns, residual {residual_pct:.1}% {}",
            c.e2e_ns,
            c.layers_ns,
            if flagged {
                "FLAGGED (outside +-15%)"
            } else {
                "(within +-15%)"
            }
        ));
        self.note(format!(
            "tracing overhead: untraced {:.0} req/s, traced {:.0} req/s",
            c.untraced_rate, c.traced_rate
        ));
        let path = work_dir().join(format!("spans-{}-seed{}.csv", args.workload, args.seed));
        let (written, dropped) = tracer.write_csv(&path)?;
        self.note(format!(
            "spans: {written} written to {} ({dropped} beyond the in-memory cap)",
            path.display()
        ));
        Ok(())
    }
}

/// Scratch directory for run artifacts (the exported `.pct` trace and
/// span files), inside the benchmark's own directory: relative to the
/// checkout root the benchmark runs from, else next to its manifest.
pub fn work_dir() -> PathBuf {
    let here = PathBuf::from("perfbench");
    if here.join("Cargo.toml").is_file() {
        here.join("work")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work")
    }
}

const USAGE: &str = "usage: pc-perfbench --workload NAME --seed N --seconds S --trace 0|1
       pc-perfbench --describe
       pc-perfbench --self-test [--seconds S]";

fn parse(argv: &[String]) -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        corrupt_every: 0,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                // Server metrics are medians over 1 s windows.
                if !(1.0..=600.0).contains(&args.seconds) {
                    return Err("--seconds must be in [1, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--describe" => {
                print!("{}", ledger::describe());
                return Ok(None);
            }
            "--self-test" => {
                args.workload = "serve-payload-cello".into();
                args.corrupt_every = 64;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !ledger::WORKLOADS.iter().any(|(w, _)| *w == args.workload) {
        return Err(format!("unknown or missing --workload {:?}", args.workload));
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(Some(a)) => a,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pc-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "workload={} seed={} seconds={} trace={} nproc={nproc}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut out = Outcome::default();
    let run = match args.workload.as_str() {
        "oltp-palru-pct" => sim::run(&args, &mut out),
        "serve-meta-oltp" => serve::run(serve::ServeKind::MetaOltp, &args, &mut out),
        "serve-payload-cello" => serve::run(serve::ServeKind::PayloadCello, &args, &mut out),
        _ => unreachable!("workload validated by parse"),
    };
    if let Err(e) = run {
        // An I/O failure of the harness itself: no result line.
        eprintln!("pc-perfbench: {} failed: {e}", args.workload);
        return ExitCode::from(1);
    }
    if !args.trace {
        out.values.set("peak_rss_mib", stats::peak_rss_mib());
    }
    for line in &out.notes {
        println!("{line}");
    }
    for line in out.values.table(args.trace) {
        println!("{line}");
    }
    let fail_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  {:<26} {:>16.6} {:<7} failed {} of {} attempted operations",
        "fail_frac", fail_frac, "ratio", out.failed, out.attempted
    );
    for f in &out.failures {
        println!("CHECK FAILED: {f}");
    }
    let correct = out.failed == 0 && out.failures.is_empty();
    if args.corrupt_every > 0 {
        // Self-test: both the server's and the client's checks must
        // catch the damage.
        let caught =
            fail_frac > 0.0 && !correct && out.corrupt_replies > 0 && out.payload_mismatches > 0;
        println!(
            "self-test: corrupt_every={} fail_frac={fail_frac} corrupt_replies={} \
             payload_mismatches={} -> {}",
            args.corrupt_every,
            out.corrupt_replies,
            out.payload_mismatches,
            if caught { "caught" } else { "NOT caught" }
        );
        return if caught {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        out.values.render(args.trace)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    }
}
