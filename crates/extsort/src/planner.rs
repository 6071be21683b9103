//! Device-driven merge planning.
//!
//! Replaces the old one-shot seek-dominance veto with a real plan selector:
//! given the disk's [`DiskModel`] (including its [`pdm::ContentionModel`]),
//! the record count, and the run layout, the planner *prices* every
//! candidate worker count and picks the cheapest. The sequential merge
//! (one worker) is always a candidate, so an adaptive plan can never be
//! worse than sequential under the model — the BENCH_parmerge SCSI cliff
//! is impossible by construction.
//!
//! The predicted service time of a candidate mirrors how the charger will
//! actually bill the merge:
//!
//! * **I/O** — every data block is read once and written once, for any
//!   worker count (the cuts come from the fence index, with no probe); the
//!   delta is priced by [`DiskModel::shared_service_time`] with the worker
//!   count as the declared stream count. One worker ⇒ one stream ⇒ the
//!   dedicated price.
//! * **CPU** — loser-tree selects (`records · ⌈log₂ fan_in⌉` of them) run
//!   on the workers concurrently. Each worker also writes its own slice of
//!   the output, but record moves are priced once, serially, because that
//!   is how the charger bills a parallel merge. Selects are priced at the
//!   comparison rate, or the (cheaper) key-op rate when the merge runs a
//!   key-based kernel — the rate the charger actually bills. On a device
//!   that is the host's page cache ([`DiskModel::host`]) at most the host's
//!   cores run concurrently, so extra workers divide nothing further.
//! * A parallel candidate is charged `max(cpu, io)` (the pipelined rule);
//!   the sequential candidate is charged `cpu + io` unless the caller says
//!   the merge runs under a pipelined section anyway.
//!
//! The same model drives the secondary knobs: prefetch depth follows the
//! device's queue depth, and the exchange planner picks streaming vs staged
//! delivery and a message size from the block geometry.

use pdm::{DiskModel, IoSnapshot};
use sim::SimDuration;

/// Reference CPU prices for planning (defaults match the alpha_533 cost
/// model used by the cluster charger). Only the *ratio* to disk service
/// time matters for plan selection, so per-node slowdowns cancel out.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuCost {
    /// Nanoseconds per key comparison.
    pub ns_per_comparison: f64,
    /// Nanoseconds per record move.
    pub ns_per_record_move: f64,
    /// Nanoseconds per key operation — what a key-based (radix/ips4o)
    /// merge's tree selects actually bill, 4.7x cheaper than a full
    /// comparison. Calibrated against the charger's alpha_533 rates: a
    /// `--calibration-report` run showed key-based merges charging
    /// `merge.key_ops` at this rate while the planner priced the same
    /// selects as comparisons.
    pub ns_per_key_op: f64,
}

impl Default for CpuCost {
    fn default() -> Self {
        CpuCost {
            ns_per_comparison: 280.0,
            ns_per_record_move: 120.0,
            ns_per_key_op: 60.0,
        }
    }
}

/// The shape of one k-way merge, as the planner sees it.
#[derive(Debug, Clone, Copy)]
pub struct MergeShape {
    /// Sorted input segments.
    pub fan_in: usize,
    /// Total records across all segments.
    pub records: u64,
    /// Bytes per record.
    pub record_size: usize,
    /// PDM block size of the disk.
    pub block_bytes: usize,
    /// Whether the merge runs a key-based kernel: its selects are billed
    /// as key operations, not full comparisons.
    pub key_based: bool,
}

impl MergeShape {
    /// Data blocks the merge reads (and writes): `⌈bytes / block⌉`.
    pub fn data_blocks(&self) -> u64 {
        (self.records * self.record_size as u64).div_ceil(self.block_bytes.max(1) as u64)
    }

    /// The I/O delta a merge of this shape is predicted to produce, for any
    /// worker count: every data block read and written once.
    pub fn predicted_io(&self) -> IoSnapshot {
        let blocks = self.data_blocks();
        let bytes = self.records * self.record_size as u64;
        IoSnapshot {
            blocks_read: blocks,
            blocks_written: blocks,
            bytes_read: bytes,
            bytes_written: bytes,
            files_created: 1,
            ..Default::default()
        }
    }
}

/// Predicted virtual time of merging `shape` with `workers` range-partition
/// workers on a device priced by `model`.
///
/// `overlapped` says whether the sequential (1-worker) candidate runs under
/// a pipelined section (charged `max(cpu, io)`) or a plain sequential one
/// (`cpu + io`); parallel candidates are always overlapped.
pub fn predict_merge_time(
    model: &DiskModel,
    cpu: &CpuCost,
    shape: &MergeShape,
    workers: usize,
    overlapped: bool,
) -> SimDuration {
    let (cpu_time, io_time) = predict_merge_parts(model, cpu, shape, workers);
    if workers.max(1) > 1 || overlapped {
        cpu_time.max(io_time)
    } else {
        cpu_time + io_time
    }
}

/// The (cpu, io) components of [`predict_merge_time`], for callers that
/// must rescale one side before combining them — a node's CPU slowdown
/// stretches its compare/move time but not its disk's service time.
pub fn predict_merge_parts(
    model: &DiskModel,
    cpu: &CpuCost,
    shape: &MergeShape,
    workers: usize,
) -> (SimDuration, SimDuration) {
    let workers = workers.max(1);
    let selects = shape.records * ceil_log2(shape.fan_in.max(2) as u64);
    let ns_per_select = if shape.key_based {
        cpu.ns_per_key_op
    } else {
        cpu.ns_per_comparison
    };
    let compare = SimDuration::from_secs(selects as f64 * ns_per_select * 1e-9);
    // Selects parallelize across the workers that can run at once; moves
    // are billed serially.
    let concurrent = if model.is_host() {
        workers.min(host_cores())
    } else {
        workers
    };
    let moves = SimDuration::from_secs(shape.records as f64 * cpu.ns_per_record_move * 1e-9);
    let cpu_time = compare / concurrent as f64 + moves;
    let io_time = model.shared_service_time(&shape.predicted_io(), workers);
    (cpu_time, io_time)
}

/// Cores this process may run on.
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn ceil_log2(x: u64) -> u64 {
    (u64::BITS - (x - 1).leading_zeros()) as u64
}

/// Picks the cheapest worker count in `1..=max_workers` under
/// [`predict_merge_time`], preferring fewer workers on ties. Because 1 is
/// always a candidate, the choice can never price worse than the
/// sequential merge.
pub fn choose_merge_workers(
    model: &DiskModel,
    cpu: &CpuCost,
    shape: &MergeShape,
    max_workers: usize,
    overlapped: bool,
) -> usize {
    let mut best = 1usize;
    let mut best_t = predict_merge_time(model, cpu, shape, 1, overlapped);
    for w in 2..=max_workers.max(1) {
        let t = predict_merge_time(model, cpu, shape, w, overlapped);
        if t < best_t {
            best = w;
            best_t = t;
        }
    }
    best
}

/// Prefetch/write-behind queue depth for a device shared by `streams`
/// request streams: deep queues absorb read-ahead, shallow ones only buy
/// double buffering. Clamped to `[2, 8]` (double buffering up to the batch
/// worker cap).
pub fn planned_depth(model: &DiskModel, streams: usize) -> usize {
    let share = (model.contention.queue_depth as usize) / streams.max(1);
    share.clamp(2, 8)
}

/// How partition exchange should deliver records into the final merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExchangePlan {
    /// Feed incoming partitions straight into the incremental merge
    /// (no staging files) instead of staging and merging afterwards.
    pub streaming: bool,
    /// Records per network message.
    pub msg_records: usize,
}

/// Plans the exchange for a device: streaming merge pays whenever messages
/// fill whole blocks (the staging files it removes are pure positioning
/// overhead), and message size grows with the device's positioning cost so
/// each arrival amortizes a block write. An explicit `requested_msg` is an
/// override — the planner only sizes the message when the caller passed
/// none.
pub fn plan_exchange(
    model: &DiskModel,
    records_per_block: usize,
    requested_msg: Option<usize>,
) -> ExchangePlan {
    let rpb = records_per_block.max(1);
    let msg_records = requested_msg.unwrap_or_else(|| {
        // Seek-dominated devices want several blocks per message so each
        // arrival amortizes positioning; fast ones are happy with one.
        let bytes = model_block_bytes(rpb);
        let blocks = if model.random_block(bytes) > model.sequential_block(bytes) * 2.0 {
            4
        } else {
            1
        };
        rpb * blocks
    });
    ExchangePlan {
        streaming: msg_records >= rpb,
        msg_records,
    }
}

/// Nominal byte size of one block for `records_per_block` 16-byte records —
/// only used to compare seek vs transfer magnitudes; the exact record size
/// washes out of the comparison.
fn model_block_bytes(records_per_block: usize) -> u64 {
    (records_per_block * 16) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> MergeShape {
        MergeShape {
            fan_in: 8,
            records: 1 << 20,
            record_size: 4,
            block_bytes: 32 * 1024,
            key_based: false,
        }
    }

    #[test]
    fn scsi_prefers_sequential_nvme_goes_wide() {
        let cpu = CpuCost::default();
        let scsi = DiskModel::scsi_2000();
        let nvme = DiskModel::nvme_modern();
        assert_eq!(choose_merge_workers(&scsi, &cpu, &shape(), 4, false), 1);
        assert_eq!(choose_merge_workers(&nvme, &cpu, &shape(), 4, false), 4);
    }

    #[test]
    fn adaptive_choice_never_prices_worse_than_sequential() {
        let cpu = CpuCost::default();
        for model in [
            DiskModel::scsi_2000(),
            DiskModel::nvme_modern(),
            DiskModel::free(),
            DiskModel::host(),
        ] {
            for fan_in in [2usize, 8, 15] {
                for records in [1u64 << 10, 1 << 16, 1 << 22] {
                    let s = MergeShape {
                        fan_in,
                        records,
                        record_size: 16,
                        block_bytes: 4096,
                        key_based: false,
                    };
                    for overlapped in [false, true] {
                        let w = choose_merge_workers(&model, &cpu, &s, 8, overlapped);
                        let chosen = predict_merge_time(&model, &cpu, &s, w, overlapped);
                        let seq = predict_merge_time(&model, &cpu, &s, 1, overlapped);
                        assert!(
                            chosen <= seq,
                            "{}: w={w} priced {chosen} > sequential {seq}",
                            model.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn key_based_selects_price_at_the_key_op_rate() {
        let cpu = CpuCost::default();
        let model = DiskModel::free();
        let cmp = shape();
        let key = MergeShape {
            key_based: true,
            ..cmp
        };
        // Free disk: the prediction is pure CPU. The select side must drop
        // by exactly the key-op/comparison ratio; moves stay unchanged.
        let (cmp_cpu, _) = predict_merge_parts(&model, &cpu, &cmp, 1);
        let (key_cpu, _) = predict_merge_parts(&model, &cpu, &key, 1);
        let moves = SimDuration::from_secs(cmp.records as f64 * cpu.ns_per_record_move * 1e-9);
        let cmp_selects = (cmp_cpu - moves).as_secs();
        let key_selects = (key_cpu - moves).as_secs();
        let ratio = cmp_selects / key_selects;
        let want = cpu.ns_per_comparison / cpu.ns_per_key_op;
        assert!(
            (ratio - want).abs() < 1e-9,
            "select pricing ratio {ratio} != rate ratio {want}"
        );
    }

    #[test]
    fn host_profile_goes_as_wide_as_the_cores() {
        let cpu = CpuCost::default();
        let cores = host_cores();
        let w = choose_merge_workers(&DiskModel::host(), &cpu, &shape(), 8, true);
        assert_eq!(w, cores.min(8));
        // Past the core count a worker prices the same, so ties keep fewer.
        let at_cores = predict_merge_time(&DiskModel::host(), &cpu, &shape(), cores, true);
        let past = predict_merge_time(&DiskModel::host(), &cpu, &shape(), cores + 1, true);
        assert_eq!(at_cores, past);
    }

    #[test]
    fn depth_follows_queue_depth() {
        let scsi = DiskModel::scsi_2000();
        let nvme = DiskModel::nvme_modern();
        let host = DiskModel::host();
        for streams in 1..=16 {
            assert_eq!(planned_depth(&host, streams), 2, "host: double buffer");
        }
        assert_eq!(planned_depth(&scsi, 1), 2, "shallow queue: double buffer");
        assert_eq!(planned_depth(&scsi, 4), 2);
        assert_eq!(planned_depth(&nvme, 1), 8, "deep queue: fill the batch");
        assert_eq!(planned_depth(&nvme, 4), 8);
        assert_eq!(planned_depth(&nvme, 16), 2);
    }

    #[test]
    fn exchange_plan_prefers_block_sized_messages() {
        let scsi = DiskModel::scsi_2000();
        let nvme = DiskModel::nvme_modern();
        let p = plan_exchange(&scsi, 256, None);
        assert!(p.streaming);
        assert_eq!(p.msg_records, 1024, "seek-heavy: several blocks/message");
        let p = plan_exchange(&nvme, 256, None);
        assert!(p.streaming);
        assert_eq!(p.msg_records, 256);
        // Explicit message sizes are overrides; sub-block ones stage.
        let p = plan_exchange(&scsi, 256, Some(16));
        assert!(!p.streaming);
        assert_eq!(p.msg_records, 16);
    }

    #[test]
    fn predicted_io_reads_and_writes_every_block_once() {
        let s = shape();
        let io = s.predicted_io();
        assert_eq!(io.random_reads, 0);
        assert_eq!(io.blocks_read, s.data_blocks());
        assert_eq!(io.blocks_written, s.data_blocks());
    }
}
