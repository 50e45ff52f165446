//! Live request capture: record every request a shard accepts into a
//! binary `.pct` trace file for later replay.
//!
//! The shard hot path must never block on file I/O, so capture is a
//! bounded ring: shards [`try_send`](std::sync::mpsc::SyncSender::try_send)
//! records into a fixed-capacity channel and a dedicated writer thread
//! drains it into a [`pc_tracefile::TraceFileWriter`]. When the ring is
//! full (the disk cannot keep up with the request rate) the record is
//! **dropped and counted** — the trace loses fidelity, visibly, instead
//! of the server losing throughput. Drop counts surface in `STATS` and
//! the closing report as the `capture` section.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;

use pc_trace::{IoOp, Record};
use pc_tracefile::TraceFileWriter;
use pc_units::{BlockId, BlockNo, DiskId, SimTime};

use crate::stats::CaptureSnapshot;

/// Default capacity of the capture ring, in records (32 B each ≈ 2 MiB
/// of buffered backlog before drops start).
pub const DEFAULT_CAPTURE_QUEUE: usize = 65_536;

/// The shard-side handle: a non-blocking record sink plus the live
/// recorded/dropped gauges.
#[derive(Debug)]
pub struct CaptureRing {
    tx: SyncSender<Record>,
    disk_count: u32,
    recorded: AtomicU64,
    dropped: AtomicU64,
}

impl CaptureRing {
    /// Records one accepted request, never blocking: a full ring (or a
    /// dead writer) drops the record and bumps the drop gauge.
    pub(crate) fn record(&self, at_us: u64, disk: u32, block: u64, blocks: u64, write: bool) {
        let record = Record {
            time: SimTime::from_micros(at_us),
            // The engine reduces out-of-range disks modulo the array;
            // capture what is actually served so the file replays
            // against the same geometry.
            block: BlockId::new(DiskId::new(disk % self.disk_count), BlockNo::new(block)),
            blocks: blocks.max(1),
            op: if write { IoOp::Write } else { IoOp::Read },
        };
        match self.tx.try_send(record) {
            Ok(()) => {
                self.recorded.fetch_add(1, Ordering::Relaxed);
            }
            Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The live recorded/dropped gauges, for `STATS`.
    #[must_use]
    pub fn snapshot(&self) -> CaptureSnapshot {
        CaptureSnapshot {
            recorded: self.recorded.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }
}

/// A running capture: the shared ring plus the writer thread draining it
/// to disk.
#[derive(Debug)]
pub struct Capture {
    ring: Arc<CaptureRing>,
    writer: std::thread::JoinHandle<io::Result<u64>>,
    path: PathBuf,
}

/// What a finished capture reports back.
#[derive(Debug)]
pub struct CaptureReport {
    /// The trace file written.
    pub path: PathBuf,
    /// Records persisted to the file.
    pub written: u64,
    /// Records dropped at the full ring (not in the file).
    pub dropped: u64,
}

impl Capture {
    /// Creates the trace file and starts the writer thread.
    ///
    /// # Errors
    ///
    /// Returns any file-system error from creating the file.
    pub fn start(path: &Path, disk_count: u32, capacity: usize) -> io::Result<Capture> {
        let file = TraceFileWriter::create(path, disk_count)?;
        let (tx, rx) = sync_channel(capacity.max(1));
        let writer = std::thread::spawn(move || drain_ring_to_file(file, &rx));
        Ok(Capture {
            ring: Arc::new(CaptureRing {
                tx,
                disk_count,
                recorded: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
            }),
            writer,
            path: path.to_path_buf(),
        })
    }

    /// A shard-side handle to the ring.
    #[must_use]
    pub fn ring(&self) -> Arc<CaptureRing> {
        Arc::clone(&self.ring)
    }

    /// Waits for the writer to drain the ring and finalize the file,
    /// returning the closing report. Every other [`CaptureRing`] clone
    /// must be dropped first (shard threads joined), or this blocks
    /// until they are.
    ///
    /// # Errors
    ///
    /// Returns the writer thread's I/O error, if any.
    pub fn finish(self) -> io::Result<CaptureReport> {
        let dropped = self.ring.dropped.load(Ordering::Relaxed);
        drop(self.ring);
        let written = self
            .writer
            .join()
            .map_err(|_| io::Error::other("capture writer thread panicked"))??;
        Ok(CaptureReport {
            path: self.path,
            written,
            dropped,
        })
    }
}

/// The writer thread: drain the ring into the file until every sender is
/// gone, then finalize the header.
fn drain_ring_to_file(mut file: TraceFileWriter, rx: &Receiver<Record>) -> io::Result<u64> {
    while let Ok(record) = rx.recv() {
        file.push(record)?;
    }
    file.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pc-capture-{tag}-{}.pct", std::process::id()))
    }

    #[test]
    fn capture_round_trips_and_reduces_disks() {
        let path = temp_path("roundtrip");
        let cap = Capture::start(&path, 4, 16).unwrap();
        let ring = cap.ring();
        ring.record(10, 1, 100, 2, true);
        ring.record(5, 6, 7, 1, false); // disk 6 % 4 == 2
        drop(ring);
        let report = cap.finish().unwrap();
        assert_eq!(report.written, 2);
        assert_eq!(report.dropped, 0);

        // File order is append order; read_trace re-sorts by time.
        let trace = pc_tracefile::read_trace(&path).unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.records()[0].time, SimTime::from_micros(5));
        assert_eq!(trace.records()[0].block.disk().index(), 2);
        assert_eq!(trace.records()[1].op, IoOp::Write);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn full_ring_drops_and_counts_instead_of_blocking() {
        let path = temp_path("drops");
        let cap = Capture::start(&path, 1, 4).unwrap();
        let ring = cap.ring();
        // Park the writer behind a deliberately tiny ring by flooding
        // faster than it can drain; with 10k sends at capacity 4 some
        // must drop, and none may block.
        for i in 0..10_000u64 {
            ring.record(i, 0, i, 1, false);
        }
        let snap = ring.snapshot();
        assert_eq!(snap.recorded + snap.dropped, 10_000);
        drop(ring);
        let report = cap.finish().unwrap();
        assert_eq!(report.written, snap.recorded);
        let trace = pc_tracefile::read_trace(&path).unwrap();
        assert_eq!(trace.len() as u64, report.written);
        std::fs::remove_file(&path).unwrap();
    }
}
