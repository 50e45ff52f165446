//! Trace records and containers.

use std::fmt;

use pc_units::{BlockId, DiskId, SimDuration, SimTime};

/// The direction of one I/O request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoOp {
    /// A read request.
    Read,
    /// A write request.
    Write,
}

impl IoOp {
    /// Returns `true` for writes.
    #[must_use]
    pub const fn is_write(self) -> bool {
        matches!(self, IoOp::Write)
    }
}

impl fmt::Display for IoOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IoOp::Read => "R",
            IoOp::Write => "W",
        })
    }
}

/// One I/O request of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// Arrival time of the request.
    pub time: SimTime,
    /// The block addressed.
    pub block: BlockId,
    /// Request length, in blocks.
    pub blocks: u64,
    /// Read or write.
    pub op: IoOp,
}

impl Record {
    /// Creates a single-block request.
    #[must_use]
    pub const fn new(time: SimTime, block: BlockId, op: IoOp) -> Self {
        Record {
            time,
            block,
            blocks: 1,
            op,
        }
    }
}

/// An I/O trace: a time-ordered sequence of [`Record`]s over a fixed-size
/// disk array.
///
/// The container maintains two invariants: records are sorted by arrival
/// time, and every record addresses a disk below [`Trace::disk_count`].
///
/// # Examples
///
/// ```
/// use pc_trace::{IoOp, Record, Trace};
/// use pc_units::{BlockId, BlockNo, DiskId, SimTime};
///
/// let mut trace = Trace::new(2);
/// trace.push(Record::new(
///     SimTime::from_millis(5),
///     BlockId::new(DiskId::new(1), BlockNo::new(42)),
///     IoOp::Read,
/// ));
/// assert_eq!(trace.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    disk_count: u32,
    records: Vec<Record>,
}

impl Trace {
    /// Creates an empty trace over `disk_count` disks.
    #[must_use]
    pub fn new(disk_count: u32) -> Self {
        Trace {
            disk_count,
            records: Vec::new(),
        }
    }

    /// Creates a trace from pre-built records.
    ///
    /// # Panics
    ///
    /// Panics if the records are not sorted by time or address a disk out
    /// of range.
    #[must_use]
    pub fn from_records(disk_count: u32, records: Vec<Record>) -> Self {
        let mut trace = Trace {
            disk_count,
            records,
        };
        trace.assert_invariants();
        trace
    }

    fn assert_invariants(&mut self) {
        let mut last = SimTime::ZERO;
        for r in &self.records {
            assert!(r.time >= last, "trace records must be sorted by time");
            assert!(
                r.block.disk().index() < self.disk_count,
                "record addresses {} but the trace has {} disks",
                r.block.disk(),
                self.disk_count
            );
            assert!(r.blocks >= 1, "requests must transfer at least one block");
            last = r.time;
        }
    }

    /// Appends a record.
    ///
    /// # Panics
    ///
    /// Panics if the record is earlier than the last one or addresses a
    /// disk out of range.
    pub fn push(&mut self, record: Record) {
        if let Some(last) = self.records.last() {
            assert!(record.time >= last.time, "records must arrive in order");
        }
        assert!(record.block.disk().index() < self.disk_count);
        assert!(record.blocks >= 1);
        self.records.push(record);
    }

    /// Number of disks in the array the trace addresses.
    #[must_use]
    pub fn disk_count(&self) -> u32 {
        self.disk_count
    }

    /// Number of requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if the trace has no requests.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records, in arrival order.
    #[must_use]
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Consumes the trace, returning its records (for adapters that
    /// stream an eagerly-generated trace, e.g. [`crate::RecordStream`]).
    #[must_use]
    pub fn into_records(self) -> Vec<Record> {
        self.records
    }

    /// Iterates over the records in arrival order.
    pub fn iter(&self) -> std::slice::Iter<'_, Record> {
        self.records.iter()
    }

    /// Time span from the first to the last request.
    #[must_use]
    pub fn duration(&self) -> SimDuration {
        match (self.records.first(), self.records.last()) {
            (Some(first), Some(last)) => last.time - first.time,
            _ => SimDuration::ZERO,
        }
    }

    /// The records with arrival times in `[from, to)`, re-based so the
    /// window starts at time zero.
    #[must_use]
    pub fn window(&self, from: SimTime, to: SimTime) -> Trace {
        let records = self
            .records
            .iter()
            .filter(|r| r.time >= from && r.time < to)
            .map(|r| Record {
                time: SimTime::ZERO + (r.time - from),
                ..*r
            })
            .collect();
        Trace {
            disk_count: self.disk_count,
            records,
        }
    }

    /// The sub-trace addressing a single disk (disk count preserved, so
    /// the records keep their addresses).
    #[must_use]
    pub fn filter_disk(&self, disk: DiskId) -> Trace {
        Trace {
            disk_count: self.disk_count,
            records: self
                .records
                .iter()
                .filter(|r| r.block.disk() == disk)
                .copied()
                .collect(),
        }
    }

    /// Merges two traces by arrival time (stable: ties keep `self`'s
    /// records first). The result spans the larger disk array.
    #[must_use]
    pub fn merge(&self, other: &Trace) -> Trace {
        let mut records = Vec::with_capacity(self.len() + other.len());
        let (mut a, mut b) = (
            self.records.iter().peekable(),
            other.records.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => {
                    if x.time <= y.time {
                        records.push(**x);
                        a.next();
                    } else {
                        records.push(**y);
                        b.next();
                    }
                }
                (Some(_), None) => {
                    records.extend(a.by_ref().copied());
                }
                (None, Some(_)) => {
                    records.extend(b.by_ref().copied());
                }
                (None, None) => break,
            }
        }
        Trace {
            disk_count: self.disk_count.max(other.disk_count),
            records,
        }
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Record;
    type IntoIter = std::slice::Iter<'a, Record>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_units::BlockNo;

    fn rec(ms: u64, disk: u32, block: u64, op: IoOp) -> Record {
        Record::new(
            SimTime::from_millis(ms),
            BlockId::new(DiskId::new(disk), BlockNo::new(block)),
            op,
        )
    }

    #[test]
    fn push_keeps_order() {
        let mut t = Trace::new(2);
        t.push(rec(1, 0, 1, IoOp::Read));
        t.push(rec(2, 1, 2, IoOp::Write));
        assert_eq!(t.len(), 2);
        assert_eq!(t.duration(), SimDuration::from_millis(1));
    }

    #[test]
    #[should_panic(expected = "in order")]
    fn push_rejects_out_of_order() {
        let mut t = Trace::new(1);
        t.push(rec(2, 0, 1, IoOp::Read));
        t.push(rec(1, 0, 2, IoOp::Read));
    }

    #[test]
    #[should_panic(expected = "disks")]
    fn from_records_rejects_bad_disk() {
        let _ = Trace::from_records(1, vec![rec(1, 3, 1, IoOp::Read)]);
    }

    #[test]
    fn empty_trace_duration_is_zero() {
        let t = Trace::new(1);
        assert!(t.is_empty());
        assert_eq!(t.duration(), SimDuration::ZERO);
    }

    #[test]
    fn window_rebases_and_filters() {
        let t = Trace::from_records(
            1,
            vec![
                rec(10, 0, 1, IoOp::Read),
                rec(20, 0, 2, IoOp::Read),
                rec(30, 0, 3, IoOp::Read),
            ],
        );
        let w = t.window(SimTime::from_millis(15), SimTime::from_millis(30));
        assert_eq!(w.len(), 1);
        assert_eq!(w.records()[0].time, SimTime::from_millis(5));
        assert_eq!(w.records()[0].block.block().number(), 2);
        assert_eq!(w.disk_count(), 1);
    }

    #[test]
    fn filter_disk_keeps_addressing() {
        let t = Trace::from_records(
            3,
            vec![
                rec(1, 0, 1, IoOp::Read),
                rec(2, 2, 2, IoOp::Write),
                rec(3, 0, 3, IoOp::Read),
            ],
        );
        let only2 = t.filter_disk(DiskId::new(2));
        assert_eq!(only2.len(), 1);
        assert_eq!(only2.disk_count(), 3, "addresses stay valid");
        assert_eq!(only2.records()[0].op, IoOp::Write);
    }

    #[test]
    fn merge_interleaves_by_time() {
        let a = Trace::from_records(1, vec![rec(1, 0, 1, IoOp::Read), rec(5, 0, 2, IoOp::Read)]);
        let b = Trace::from_records(2, vec![rec(3, 1, 9, IoOp::Write), rec(7, 1, 8, IoOp::Read)]);
        let m = a.merge(&b);
        assert_eq!(m.disk_count(), 2);
        let times: Vec<u64> = m.iter().map(|r| r.time.as_micros() / 1_000).collect();
        assert_eq!(times, vec![1, 3, 5, 7]);
        // Merging is symmetric up to tie order.
        assert_eq!(b.merge(&a).len(), 4);
    }

    #[test]
    fn merge_ties_are_stable() {
        let a = Trace::from_records(1, vec![rec(5, 0, 1, IoOp::Read)]);
        let b = Trace::from_records(1, vec![rec(5, 0, 2, IoOp::Read)]);
        let m = a.merge(&b);
        assert_eq!(m.records()[0].block.block().number(), 1);
        assert_eq!(m.records()[1].block.block().number(), 2);
    }

    #[test]
    fn iterates_in_order() {
        let mut t = Trace::new(1);
        t.push(rec(1, 0, 1, IoOp::Read));
        t.push(rec(2, 0, 2, IoOp::Read));
        let blocks: Vec<u64> = (&t).into_iter().map(|r| r.block.block().number()).collect();
        assert_eq!(blocks, vec![1, 2]);
    }
}
