//! Disk service-time models.
//!
//! Converts block-transfer counts into virtual time: one block I/O costs a
//! positioning overhead (`seek`) plus `bytes / bandwidth` of transfer. The
//! default model approximates the 8 GB SCSI drives of the paper's Alpha
//! cluster (c. 2000 hardware); a faster model is provided for "what would
//! this look like today" ablations, and [`DiskModel::host`] prices the
//! file-backed disks of a real-file sort, whose blocks move through the
//! host's page cache.
//!
//! [`ContentionModel`] extends the linear model with queueing: when several
//! request streams share one device, aggregate bandwidth is fair-shared
//! (total transfer time is unchanged) but *positioning* is not — a device
//! that can keep only `queue_depth` stream positions resident must re-seek
//! whenever an interleaved request evicts a stream's head position.
//! [`DiskModel::shared_service_time`] prices a snapshot delta under a
//! declared stream count; the excess over [`DiskModel::service_time`] is the
//! queue wait surfaced as `io.queue.*` metrics.

use sim::SimDuration;

/// Queueing behaviour of a device shared by concurrent request streams.
///
/// `queue_depth` is the NCQ-style knob: the number of concurrent streams the
/// device services without losing sequentiality. A single-spindle SCSI disk
/// has depth 1 — two interleaved sequential scans degrade to alternating
/// full seeks. An NVMe device with deep queues keeps many streams effectively
/// sequential. Requests beyond the depth also pay `settle` per block for
/// queue arbitration.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionModel {
    /// Concurrent streams serviced without positional interference.
    pub queue_depth: u32,
    /// Per-block settle charge on the queue-saturated share of requests.
    pub settle: SimDuration,
}

impl ContentionModel {
    /// A device with no queueing penalty at any concurrency.
    pub fn unbounded() -> Self {
        ContentionModel {
            queue_depth: u32::MAX,
            settle: SimDuration::ZERO,
        }
    }

    /// Fraction of requests that arrive with their stream's position evicted:
    /// with `queue_depth` resident positions round-robined over `streams`
    /// openers, a request continues its run with probability
    /// `min(1, queue_depth/streams)`.
    pub fn excess_fraction(&self, streams: usize) -> f64 {
        if streams <= 1 {
            return 0.0;
        }
        let depth = self.queue_depth.max(1) as f64;
        (1.0 - depth / streams as f64).max(0.0)
    }
}

/// A linear disk service-time model.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskModel {
    /// Human-readable name, shown in the Table 1 reproduction.
    pub name: &'static str,
    /// Positioning overhead charged per block access (seek + rotational
    /// latency, amortized; sequential access pays a reduced share).
    pub seek: SimDuration,
    /// Sustained transfer bandwidth in bytes per second.
    pub bytes_per_sec: f64,
    /// Fraction of the full seek charged on *sequential* block accesses
    /// (track-to-track movement + controller overhead). Random accesses pay
    /// the full seek.
    pub sequential_seek_fraction: f64,
    /// Queueing behaviour under concurrent request streams.
    pub contention: ContentionModel,
}

impl DiskModel {
    /// Late-90s SCSI drive, like the 8 GB drives in the paper's cluster:
    /// ~8 ms average positioning, ~18 MB/s sustained transfer.
    pub fn scsi_2000() -> Self {
        DiskModel {
            name: "SCSI-2000 (8ms seek, 18MB/s)",
            seek: SimDuration::from_millis(8.0),
            bytes_per_sec: 18.0e6,
            sequential_seek_fraction: 0.05,
            // One spindle, no command queueing to speak of: a second
            // concurrent stream already forces head movement per block.
            contention: ContentionModel {
                queue_depth: 1,
                settle: SimDuration::from_micros(500.0),
            },
        }
    }

    /// A modern NVMe-class device for ablations: negligible positioning,
    /// 2 GB/s transfer.
    pub fn nvme_modern() -> Self {
        DiskModel {
            name: "NVMe-modern (20us access, 2GB/s)",
            seek: SimDuration::from_micros(20.0),
            bytes_per_sec: 2.0e9,
            sequential_seek_fraction: 0.5,
            // Deep NCQ: tens of streams scale near-linearly.
            contention: ContentionModel {
                queue_depth: 32,
                settle: SimDuration::ZERO,
            },
        }
    }

    /// An idealized zero-cost disk, useful to isolate CPU/network effects.
    pub fn free() -> Self {
        DiskModel {
            name: "free (zero-cost)",
            seek: SimDuration::ZERO,
            bytes_per_sec: f64::INFINITY,
            sequential_seek_fraction: 0.0,
            contention: ContentionModel::unbounded(),
        }
    }

    /// The host's page cache, which every file-backed [`crate::Disk`] uses:
    /// a block transfer is a `pread`/`pwrite` memory copy, so a random block
    /// costs the same as a sequential one and nothing settles. The queue
    /// depth of 2 keeps pipelined readers and writers double-buffered; a
    /// deeper queue would hold one more block per stream for each slot.
    pub fn host() -> Self {
        DiskModel {
            name: "host page cache (5us access, 4GB/s)",
            seek: SimDuration::from_micros(5.0),
            bytes_per_sec: 4.0e9,
            sequential_seek_fraction: 1.0,
            contention: ContentionModel {
                queue_depth: 2,
                settle: SimDuration::ZERO,
            },
        }
    }

    /// Whether this is the [`DiskModel::host`] profile, whose transfers are
    /// memory copies on the cores a merge runs on.
    pub fn is_host(&self) -> bool {
        *self == DiskModel::host()
    }

    /// Service time for one sequential block transfer of `bytes`.
    pub fn sequential_block(&self, bytes: u64) -> SimDuration {
        self.seek.scale(self.sequential_seek_fraction) + self.transfer(bytes)
    }

    /// Service time for one random (seeking) block transfer of `bytes`.
    pub fn random_block(&self, bytes: u64) -> SimDuration {
        self.seek + self.transfer(bytes)
    }

    /// Pure transfer time for `bytes`.
    pub fn transfer(&self, bytes: u64) -> SimDuration {
        if self.bytes_per_sec.is_infinite() {
            SimDuration::ZERO
        } else {
            SimDuration::from_secs(bytes as f64 / self.bytes_per_sec)
        }
    }

    /// Total service time for an I/O snapshot delta as if the device were
    /// dedicated to one stream: sequential positioning for the plain
    /// transfers, full-seek cost for random reads, transfer priced by actual
    /// payload bytes (so a partial block pays one positioning charge but
    /// only its own bytes of transfer).
    pub fn service_time(&self, io: &crate::stats::IoSnapshot) -> SimDuration {
        let total_blocks = io.total_blocks();
        if total_blocks == 0 {
            return SimDuration::ZERO;
        }
        let seq_blocks = total_blocks.saturating_sub(io.random_reads);
        let seq_seek = self.seek.scale(self.sequential_seek_fraction) * seq_blocks as f64;
        let rand_seek = self.seek * io.random_reads as f64;
        seq_seek + rand_seek + self.transfer(io.total_bytes())
    }

    /// Extra queueing delay the delta suffers when `streams` concurrent
    /// request streams share this device. Fair bandwidth sharing leaves the
    /// aggregate transfer time unchanged; what degrades is positioning: the
    /// evicted share of sequential blocks pays the full seek it was spared,
    /// and every queue-saturated block pays the settle charge.
    ///
    /// Always non-negative, zero at `streams <= 1`, and monotone
    /// non-decreasing in `streams` — so `shared_service_time` can never
    /// undercut the dedicated price.
    pub fn queue_wait(&self, io: &crate::stats::IoSnapshot, streams: usize) -> SimDuration {
        let excess = self.contention.excess_fraction(streams);
        let total_blocks = io.total_blocks();
        if excess == 0.0 || total_blocks == 0 {
            return SimDuration::ZERO;
        }
        let seq_blocks = total_blocks.saturating_sub(io.random_reads);
        let lost_fraction = (1.0 - self.sequential_seek_fraction).max(0.0);
        let evicted_seeks = self.seek.scale(lost_fraction) * (seq_blocks as f64 * excess);
        let settle = self.contention.settle * (total_blocks as f64 * excess);
        evicted_seeks + settle
    }

    /// Service time for the delta when `streams` concurrent request streams
    /// share the device: the dedicated price plus [`Self::queue_wait`].
    pub fn shared_service_time(
        &self,
        io: &crate::stats::IoSnapshot,
        streams: usize,
    ) -> SimDuration {
        self.service_time(io) + self.queue_wait(io, streams)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::IoSnapshot;

    #[test]
    fn transfer_scales_with_bytes() {
        let m = DiskModel::scsi_2000();
        let t1 = m.transfer(18_000_000);
        assert!((t1.as_secs() - 1.0).abs() < 1e-9);
        assert_eq!(m.transfer(0), SimDuration::ZERO);
    }

    #[test]
    fn random_costs_more_than_sequential() {
        let m = DiskModel::scsi_2000();
        assert!(m.random_block(32 * 1024) > m.sequential_block(32 * 1024));
    }

    #[test]
    fn host_prices_random_like_sequential_and_never_queues() {
        let m = DiskModel::host();
        assert!(m.is_host() && !DiskModel::nvme_modern().is_host());
        assert_eq!(m.random_block(1 << 18), m.sequential_block(1 << 18));
        for io in sample_deltas() {
            assert_eq!(m.shared_service_time(&io, 8), m.service_time(&io));
        }
    }

    #[test]
    fn free_disk_is_free() {
        let m = DiskModel::free();
        assert_eq!(m.random_block(1 << 20), SimDuration::ZERO);
        assert_eq!(m.sequential_block(1 << 20), SimDuration::ZERO);
    }

    #[test]
    fn service_time_of_empty_delta_is_zero() {
        let m = DiskModel::scsi_2000();
        assert_eq!(m.service_time(&IoSnapshot::default()), SimDuration::ZERO);
    }

    fn test_model() -> DiskModel {
        DiskModel {
            name: "test",
            seek: SimDuration::from_millis(10.0),
            bytes_per_sec: 1e6,
            sequential_seek_fraction: 0.1,
            contention: ContentionModel {
                queue_depth: 1,
                settle: SimDuration::from_millis(1.0),
            },
        }
    }

    #[test]
    fn service_time_combines_components() {
        let m = test_model();
        let io = IoSnapshot {
            blocks_read: 3,
            blocks_written: 1,
            bytes_read: 3_000_000,
            bytes_written: 1_000_000,
            random_reads: 1,
            seek_bytes: 0,
            files_created: 0,
        };
        // 3 sequential blocks * 1ms + 1 random * 10ms + 4s transfer.
        let t = m.service_time(&io);
        assert!((t.as_secs() - (0.003 + 0.010 + 4.0)).abs() < 1e-9, "{t}");
    }

    #[test]
    fn nvme_much_faster_than_scsi() {
        let io = IoSnapshot {
            blocks_read: 100,
            blocks_written: 100,
            bytes_read: 100 << 15,
            bytes_written: 100 << 15,
            random_reads: 0,
            seek_bytes: 0,
            files_created: 0,
        };
        assert!(
            DiskModel::nvme_modern().service_time(&io)
                < DiskModel::scsi_2000().service_time(&io) / 10.0
        );
    }

    /// Regression for the partial-block charging rule: a short (partial)
    /// block pays exactly one positioning charge, and transfer is priced by
    /// the bytes actually moved — not by blocks times a nominal block size.
    #[test]
    fn partial_blocks_pay_one_seek_and_their_own_bytes() {
        let m = test_model();
        let full = IoSnapshot {
            blocks_read: 1,
            bytes_read: 1_000_000,
            ..Default::default()
        };
        let partial = IoSnapshot {
            blocks_read: 1,
            bytes_read: 100_000,
            ..Default::default()
        };
        // Same single sequential positioning charge (1ms)...
        assert!((m.service_time(&full).as_secs() - (0.001 + 1.0)).abs() < 1e-9);
        // ...but the partial block's transfer shrinks with its payload.
        assert!((m.service_time(&partial).as_secs() - (0.001 + 0.1)).abs() < 1e-9);
        let diff = m.service_time(&full) - m.service_time(&partial);
        assert!((diff.as_secs() - m.transfer(900_000).as_secs()).abs() < 1e-9);
    }

    fn sample_deltas() -> Vec<IoSnapshot> {
        vec![
            IoSnapshot::default(),
            IoSnapshot {
                blocks_read: 1,
                bytes_read: 4096,
                ..Default::default()
            },
            IoSnapshot {
                blocks_read: 64,
                blocks_written: 64,
                bytes_read: 64 << 12,
                bytes_written: 64 << 12,
                ..Default::default()
            },
            IoSnapshot {
                blocks_read: 100,
                bytes_read: 100 << 12,
                random_reads: 17,
                seek_bytes: 17 << 12,
                ..Default::default()
            },
            IoSnapshot {
                blocks_read: 3,
                blocks_written: 1,
                bytes_read: 3_000_000,
                bytes_written: 999,
                random_reads: 1,
                seek_bytes: 999,
                files_created: 2,
            },
        ]
    }

    /// The contention invariants: sharing never undercuts the dedicated
    /// price, is exact at one stream, and only worsens with more streams.
    #[test]
    fn shared_service_time_never_undercuts_dedicated() {
        for m in [
            DiskModel::scsi_2000(),
            DiskModel::nvme_modern(),
            DiskModel::free(),
            DiskModel::host(),
            test_model(),
        ] {
            for io in sample_deltas() {
                assert_eq!(m.shared_service_time(&io, 0), m.service_time(&io));
                assert_eq!(m.shared_service_time(&io, 1), m.service_time(&io));
                let mut prev = m.service_time(&io);
                for streams in 2..=64usize {
                    let shared = m.shared_service_time(&io, streams);
                    assert!(
                        shared >= m.service_time(&io),
                        "{}: shared < dedicated at {streams} streams",
                        m.name
                    );
                    assert!(
                        shared >= prev,
                        "{}: shared time not monotone at {streams} streams",
                        m.name
                    );
                    prev = shared;
                }
            }
        }
    }

    /// The SCSI cliff vs NVMe scaling: at 4 streams the SCSI model pays
    /// near-full seeks per block while NVMe (queue depth 32) pays nothing.
    #[test]
    fn queue_depth_separates_scsi_from_nvme() {
        let io = IoSnapshot {
            blocks_read: 512,
            blocks_written: 512,
            bytes_read: 512 << 12,
            bytes_written: 512 << 12,
            ..Default::default()
        };
        let scsi = DiskModel::scsi_2000();
        let nvme = DiskModel::nvme_modern();
        assert_eq!(nvme.queue_wait(&io, 4), SimDuration::ZERO);
        assert_eq!(
            nvme.shared_service_time(&io, 4),
            nvme.service_time(&io),
            "nvme must keep near-linear scaling below its queue depth"
        );
        // scsi at 4 streams: 3/4 of sequential blocks lose their position.
        let wait = scsi.queue_wait(&io, 4);
        assert!(
            wait > scsi.service_time(&io),
            "scsi queueing must dominate the dedicated time: wait={wait}"
        );
        // Beyond its queue depth even NVMe starts paying.
        assert!(nvme.queue_wait(&io, 64) > SimDuration::ZERO);
    }

    #[test]
    fn free_disk_never_queues() {
        let m = DiskModel::free();
        for io in sample_deltas() {
            assert_eq!(m.shared_service_time(&io, 16), SimDuration::ZERO);
        }
    }

    #[test]
    fn excess_fraction_shape() {
        let c = ContentionModel {
            queue_depth: 2,
            settle: SimDuration::ZERO,
        };
        assert_eq!(c.excess_fraction(0), 0.0);
        assert_eq!(c.excess_fraction(1), 0.0);
        assert_eq!(c.excess_fraction(2), 0.0);
        assert!((c.excess_fraction(4) - 0.5).abs() < 1e-12);
        assert!((c.excess_fraction(8) - 0.75).abs() < 1e-12);
        assert_eq!(ContentionModel::unbounded().excess_fraction(1 << 20), 0.0);
    }
}
