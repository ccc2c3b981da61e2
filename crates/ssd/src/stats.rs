use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonic statistics counter: an `AtomicU64` whose operations are
/// intentionally `Relaxed`.
///
/// This is the one sanctioned home of relaxed atomics in the workspace
/// (the `no-relaxed-ordering-outside-obs` lint). The contract: counters
/// are *statistics*, read for reporting after a synchronization
/// point (a join, a lock release) that the engine provides anyway, so
/// per-operation ordering buys nothing — and anything that is not a pure
/// statistic must not use this type.
#[derive(Debug, Default)]
pub struct RelaxedCounter(AtomicU64);

impl RelaxedCounter {
    pub const fn new(value: u64) -> Self {
        RelaxedCounter(AtomicU64::new(value))
    }

    pub fn add(&self, delta: u64) {
        // mlvc-lint: allow(no-relaxed-ordering-outside-obs) -- statistics counter; readers synchronize via join/lock edges
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        // mlvc-lint: allow(no-relaxed-ordering-outside-obs) -- statistics counter; readers synchronize via join/lock edges
        self.0.load(Ordering::Relaxed)
    }

    pub fn set(&self, value: u64) {
        // mlvc-lint: allow(no-relaxed-ordering-outside-obs) -- statistics counter; readers synchronize via join/lock edges
        self.0.store(value, Ordering::Relaxed);
    }
}

/// Live counters of device activity. All counters are monotonically
/// increasing [`RelaxedCounter`]s so engines may account I/O from worker
/// threads.
///
/// `useful_bytes_read` is declared by callers: a reader that fetches a 16 KB
/// page to consume one 8-byte adjacency entry reports 8 useful bytes. The
/// ratio `bytes_read / useful_bytes_read` is the read amplification the
/// paper's Fig. 3 and the edge-log optimizer are about.
#[derive(Debug, Default)]
pub struct SsdStats {
    pub pages_read: RelaxedCounter,
    pub pages_written: RelaxedCounter,
    pub bytes_read: RelaxedCounter,
    pub bytes_written: RelaxedCounter,
    pub useful_bytes_read: RelaxedCounter,
    /// Simulated time spent servicing reads, nanoseconds.
    pub read_time_ns: RelaxedCounter,
    /// Simulated time spent servicing writes, nanoseconds.
    pub write_time_ns: RelaxedCounter,
    /// Number of read batches issued (each batch = one parallel dispatch).
    pub read_batches: RelaxedCounter,
    /// Number of write batches issued.
    pub write_batches: RelaxedCounter,
}

impl SsdStats {
    pub fn snapshot(&self) -> SsdStatsSnapshot {
        SsdStatsSnapshot {
            pages_read: self.pages_read.get(),
            pages_written: self.pages_written.get(),
            bytes_read: self.bytes_read.get(),
            bytes_written: self.bytes_written.get(),
            useful_bytes_read: self.useful_bytes_read.get(),
            read_time_ns: self.read_time_ns.get(),
            write_time_ns: self.write_time_ns.get(),
            read_batches: self.read_batches.get(),
            write_batches: self.write_batches.get(),
        }
    }

    pub fn reset(&self) {
        self.pages_read.set(0);
        self.pages_written.set(0);
        self.bytes_read.set(0);
        self.bytes_written.set(0);
        self.useful_bytes_read.set(0);
        self.read_time_ns.set(0);
        self.write_time_ns.set(0);
        self.read_batches.set(0);
        self.write_batches.set(0);
    }
}

/// Point-in-time copy of [`SsdStats`], with derived metrics. Subtract two
/// snapshots to get the activity of one phase or superstep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SsdStatsSnapshot {
    pub pages_read: u64,
    pub pages_written: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub useful_bytes_read: u64,
    pub read_time_ns: u64,
    pub write_time_ns: u64,
    pub read_batches: u64,
    pub write_batches: u64,
}

impl SsdStatsSnapshot {
    /// Total simulated I/O time, nanoseconds.
    pub fn io_time_ns(&self) -> u64 {
        self.read_time_ns + self.write_time_ns
    }

    /// Read amplification: fetched bytes per useful byte (≥ 1 whenever any
    /// useful byte was declared; `None` if nothing useful was read).
    pub fn read_amplification(&self) -> Option<f64> {
        if self.useful_bytes_read == 0 {
            None
        } else {
            Some(self.bytes_read as f64 / self.useful_bytes_read as f64)
        }
    }

    /// Activity between an earlier snapshot `start` and `self`.
    pub fn since(&self, start: &SsdStatsSnapshot) -> SsdStatsSnapshot {
        SsdStatsSnapshot {
            pages_read: self.pages_read - start.pages_read,
            pages_written: self.pages_written - start.pages_written,
            bytes_read: self.bytes_read - start.bytes_read,
            bytes_written: self.bytes_written - start.bytes_written,
            useful_bytes_read: self.useful_bytes_read - start.useful_bytes_read,
            read_time_ns: self.read_time_ns - start.read_time_ns,
            write_time_ns: self.write_time_ns - start.write_time_ns,
            read_batches: self.read_batches - start.read_batches,
            write_batches: self.write_batches - start.write_batches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_diff() {
        let s = SsdStats::default();
        s.pages_read.set(10);
        s.bytes_read.set(160);
        let a = s.snapshot();
        s.pages_read.set(25);
        s.bytes_read.set(400);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.pages_read, 15);
        assert_eq!(d.bytes_read, 240);
    }

    #[test]
    fn amplification() {
        let mut s = SsdStatsSnapshot::default();
        assert_eq!(s.read_amplification(), None);
        s.bytes_read = 16384;
        s.useful_bytes_read = 1024;
        assert_eq!(s.read_amplification(), Some(16.0));
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = SsdStats::default();
        s.pages_read.set(5);
        s.write_time_ns.set(7);
        s.reset();
        assert_eq!(s.snapshot(), SsdStatsSnapshot::default());
    }

    #[test]
    fn relaxed_counter_ops() {
        let c = RelaxedCounter::new(10);
        c.add(5);
        assert_eq!(c.get(), 15);
        c.set(0);
        assert_eq!(c.get(), 0);
    }
}
