//! Range-partitioned parallel k-way merge, written in place.
//!
//! Splits one k-way merge of sorted on-disk segments into `W` disjoint
//! slices of the *output* and runs the existing loser tree over each slice
//! on its own thread. The slices are chosen by exact rank selection in the
//! total order `(sort_key, segment index, position)` — precisely the order
//! the sequential tree emits records in (equal cached keys fall back to the
//! full `(record, source)` comparison, and for `KEY_IS_TOTAL` records equal
//! keys mean equal records, so source order *is* position order). Each
//! worker therefore produces a contiguous range of the sequential output,
//! and writes it straight to its own place in the output file: the cut
//! table's prefix sums give every worker its offset (the design of
//! Rahn–Sanders–Singler's distributed external sort).
//!
//! **Cuts from fences, no probes.** Every typed writer records the
//! `sort_key` of the first record of each block ([`pdm::Disk::fences`]).
//! Without any I/O, those fences bracket each rank target `⌊total·w/W⌋` to
//! a window of a few blocks per segment that must contain the exact cut.
//! The window blocks are read once — metered as the sequential reads they
//! are, since the one-worker merge streams the same blocks — and the exact
//! selection finishes in memory. The worker before the cut takes the
//! window records below it from memory after streaming up to the window;
//! the worker after the cut starts with the records above it.
//!
//! **Every block once.** Records a merge must not read again arrive as an
//! input's `head` (polyphase carries the rest of a tape's partly consumed
//! block into the tape's next merge), and what a merge read past a
//! segment's end comes back as that input's tail. On the output side, a
//! block that straddles two workers is written by the coordinator once the
//! workers are done: each worker writes only the whole blocks of its
//! slice, handing back its leading records (the end of a block an earlier
//! worker owns) and its partial last block. A merge's own partial last
//! block stays pending in its [`MergeOutput`] for the next merge into the
//! same file. So every input block is read once and every output block is
//! written once, and the full [`pdm::IoSnapshot`] is the same for every
//! worker count — what the differential suites assert.

use std::time::Instant;

use pdm::{BlockReader, BufferPool, Disk, PdmError, PdmResult, Record};

use crate::config::PipelineConfig;
use crate::kernel::SortKernel;
use crate::loser_tree::LoserTree;
use crate::stream::{MergeWriter, RecordStream};

/// Hard cap on merge workers (also sizes the static span-name table).
pub const MAX_MERGE_WORKERS: usize = 8;

/// Static span names so worker spans need no allocation (`record_span`
/// takes `&'static str`); mirrors the run-formation `chunk-sort-N` table.
fn worker_span_name(w: usize) -> &'static str {
    const NAMES: [&str; MAX_MERGE_WORKERS] = [
        "merge.worker-0",
        "merge.worker-1",
        "merge.worker-2",
        "merge.worker-3",
        "merge.worker-4",
        "merge.worker-5",
        "merge.worker-6",
        "merge.worker-7",
    ];
    NAMES.get(w).copied().unwrap_or("merge.worker")
}

/// One sorted input to the merge: `len` records of `file` starting at
/// record index `offset`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeSegment {
    /// File name on the disk.
    pub file: String,
    /// First record of the segment (record index, not bytes).
    pub offset: u64,
    /// Records in the segment.
    pub len: u64,
}

impl MergeSegment {
    /// A segment of `len` records of `file` from record `offset` on.
    pub fn new(file: impl Into<String>, offset: u64, len: u64) -> Self {
        MergeSegment {
            file: file.into(),
            offset,
            len,
        }
    }

    /// A whole file as one segment.
    pub fn whole_file<R: Record>(disk: &Disk, name: &str) -> PdmResult<Self> {
        Ok(MergeSegment::new(name, 0, disk.len_records::<R>(name)?))
    }
}

/// The cut table produced by [`plan_cuts`]: `cuts[w][s]` is how many
/// records of segment `s` belong to workers `< w`, so worker `w` merges
/// `[cuts[w][s], cuts[w+1][s])` of every segment. Row `0` is all zeros and
/// row `W` is the segment lengths.
#[derive(Debug, Clone)]
pub struct MergePlan {
    /// Per-boundary, per-segment cut positions (`W + 1` rows).
    pub cuts: Vec<Vec<u64>>,
    /// Total records across all segments.
    pub total: u64,
}

impl MergePlan {
    /// Number of workers the plan was computed for.
    pub fn workers(&self) -> usize {
        self.cuts.len() - 1
    }

    /// Records assigned to worker `w`.
    pub fn worker_records(&self, w: usize) -> u64 {
        self.cuts[w + 1]
            .iter()
            .zip(&self.cuts[w])
            .map(|(b, a)| b - a)
            .sum()
    }
}

/// Resolves the worker count an upcoming merge will actually use.
///
/// Returns 1 (sequential loser tree) unless the configuration asks for more
/// *and* the record type's `sort_key` is a total order (range cuts reproduce
/// the sequential tie-break only when equal keys mean equal records) *and*
/// the merge is big enough to split. Capped at [`MAX_MERGE_WORKERS`]. The
/// merge itself also falls back to one worker when an input has no fence
/// index.
///
/// An *advisory* worker count (set via
/// [`PipelineConfig::with_advisory_merge_workers`] or
/// [`PipelineConfig::adaptive`]) is a *ceiling*, not an order: the planner
/// prices every candidate in `1..=w` with the device's model
/// ([`crate::planner::choose_merge_workers`]) — queue wait at the
/// candidate's stream count versus the CPU the extra workers save — and
/// picks the cheapest. Because the sequential merge is always a candidate,
/// an adaptive plan can never price worse than it; on hardware like the
/// paper's SCSI drives (queue depth 1) that means falling back to 1 worker
/// and bumping `merge.planner.seq_fallback`. On the host's page cache
/// ([`pdm::DiskModel::host`]) it means one worker per core. Explicit counts
/// ([`PipelineConfig::with_merge_workers`]) are always honoured.
pub fn planned_workers<R: Record>(
    disk: &Disk,
    pipeline: &PipelineConfig,
    fan_in: usize,
    records: u64,
    kernel: SortKernel,
) -> usize {
    let w = pipeline.effective_merge_workers().min(MAX_MERGE_WORKERS);
    if w <= 1 || !R::HAS_SORT_KEY || !R::KEY_IS_TOTAL || fan_in < 2 || records < 2 * w as u64 {
        return 1;
    }
    if pipeline.merge_workers_explicit {
        return w;
    }
    let shape = crate::planner::MergeShape {
        fan_in,
        records,
        record_size: R::SIZE,
        block_bytes: disk.block_bytes(),
        key_based: kernel.key_based::<R>(),
    };
    let chosen = crate::planner::choose_merge_workers(
        disk.model(),
        &crate::planner::CpuCost::default(),
        &shape,
        w,
        pipeline.enabled,
    );
    obs::counter_add("merge.planner.plans", 1);
    obs::gauge_set("merge.planner.chosen_workers", chosen as f64);
    if chosen == 1 {
        obs::counter_add("merge.planner.seq_fallback", 1);
    }
    chosen
}

/// Whether a random block access on `disk` is priced at more than twice a
/// sequential transfer of the same size: `scsi_2000` at 32 KiB blocks sits
/// near 4.5×, `nvme_modern` near 1.4×, the host's page cache at 1×.
pub fn seek_dominated(disk: &Disk) -> bool {
    let bytes = disk.block_bytes() as u64;
    let model = disk.model();
    model.random_block(bytes) > model.sequential_block(bytes) * 2.0
}

/// One input of a merge: a segment, plus its leading records that an
/// earlier merge already read.
#[derive(Debug)]
pub(crate) struct MergeInput<R> {
    pub seg: MergeSegment,
    /// Records of the file from `seg.offset` on that are in memory already
    /// — the rest of a block an earlier merge read. They end on a block
    /// boundary (or at the end of the file) and may run past the segment.
    pub head: Vec<R>,
}

impl<R> MergeInput<R> {
    /// An input with nothing read yet.
    pub fn fresh(seg: MergeSegment) -> Self {
        MergeInput {
            seg,
            head: Vec::new(),
        }
    }
}

/// The file a merge writes and where: records go to `file` from record
/// `pos` on. `pending` holds the records of the block `pos` falls in that an
/// earlier merge produced and nobody wrote yet (they start on a block
/// boundary), so consecutive merges into one file write each block once.
#[derive(Debug)]
pub(crate) struct MergeOutput<R> {
    file: String,
    pos: u64,
    pending: Vec<R>,
}

impl<R: Record> MergeOutput<R> {
    /// Creates `file`, empty, for a run of merges to fill.
    pub fn create(disk: &Disk, file: &str) -> PdmResult<Self> {
        disk.create_writer::<R>(file)?.finish()?;
        Ok(MergeOutput {
            file: file.to_string(),
            pos: 0,
            pending: Vec::new(),
        })
    }

    /// Writes the pending partial block, completing the file.
    pub fn finish(self, disk: &Disk, pool: &BufferPool) -> PdmResult<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let rpb = (disk.block_bytes() / R::SIZE) as u64;
        let first = self.pos - self.pending.len() as u64;
        write_block_at(disk, &self.file, first / rpb, &self.pending, pool)
    }
}

/// Writes `records` as block `block` of `file`: one metered block write.
fn write_block_at<R: Record>(
    disk: &Disk,
    file: &str,
    block: u64,
    records: &[R],
    pool: &BufferPool,
) -> PdmResult<()> {
    let mut w = disk.open_writer_at::<R>(file, block, Some(pool.clone()))?;
    w.push_all(records)?;
    w.finish()?;
    Ok(())
}

/// What a merge did, for billing and reporting.
#[derive(Debug)]
pub(crate) struct MergeOutcome<R> {
    /// Records merged.
    pub records: u64,
    /// Loser-tree selects, summed over workers (see
    /// [`ParallelMergeOutcome::comparisons`]).
    pub comparisons: u64,
    /// Workers actually used.
    pub workers: usize,
    /// Per input: the records past its segment in the last block the merge
    /// read (what the input's next merge takes as its `head`).
    pub tails: Vec<Vec<R>>,
}

/// Merges `inputs` into `out` with up to `workers` range-partitioned loser
/// trees, each writing its own slice of the output in place. Falls back to
/// one worker when the record type's key is not a total order or an input
/// has no fence index. The single merge entry point of polyphase and of
/// both k-way merge sites.
pub(crate) fn merge_into<R: Record>(
    disk: &Disk,
    inputs: Vec<MergeInput<R>>,
    out: &mut MergeOutput<R>,
    workers: usize,
    pipeline: &PipelineConfig,
    pool: &BufferPool,
) -> PdmResult<MergeOutcome<R>> {
    let layout = lay_out(disk, inputs, workers, pool)?;
    let w = layout.plan.workers();
    let rpb = (disk.block_bytes() / R::SIZE) as u64;
    let streams = w + 1;

    // Output offset of every worker: prefix sums of the cut table.
    let mut starts = vec![out.pos];
    for wi in 0..w {
        starts.push(starts[wi] + layout.plan.worker_records(wi));
    }
    let file = out.file.as_str();
    let results = run_workers(w, |wi| {
        let (start, end) = (starts[wi], starts[wi + 1]);
        // Leading records up to the next block boundary belong to a block
        // an earlier worker (or merge) owns: hand them back.
        let lead = if start % rpb == 0 {
            0
        } else {
            (rpb - start % rpb).min(end - start) as usize
        };
        let mut leading = Vec::with_capacity(lead);
        let mut writer = if end > start + lead as u64 {
            let block = (start + lead as u64) / rpb;
            Some(MergeWriter::<R>::open_at(
                disk, file, block, pipeline, streams, pool,
            )?)
        } else {
            None
        };
        let run = layout.run_worker(disk, wi, pool, |batch| {
            let take = (lead - leading.len()).min(batch.len());
            leading.extend_from_slice(&batch[..take]);
            match &mut writer {
                Some(wr) if take < batch.len() => wr.push_all(&batch[take..]),
                _ => Ok(()),
            }
        })?;
        let last = writer.map(MergeWriter::finish_partial).transpose()?;
        Ok((run, leading, last))
    })?;

    // Write the blocks that straddle workers, in output order.
    let mut runs = Vec::with_capacity(w);
    for (wi, (run, leading, last)) in results.into_iter().enumerate() {
        out.pending.extend_from_slice(&leading);
        if out.pending.len() as u64 == rpb {
            let block = (starts[wi] + leading.len() as u64) / rpb - 1;
            write_block_at(disk, &out.file, block, &out.pending, pool)?;
            out.pending.clear();
        }
        if let Some(last) = last {
            // The worker wrote whole blocks from a block boundary on; its
            // partial last block is the new pending one.
            debug_assert!(out.pending.is_empty());
            out.pending = last;
        }
        out.pos = starts[wi + 1];
        runs.push(run);
    }
    let mut tails = layout.loaded_tails();
    for run in &mut runs {
        for (s, tail) in run.tails.drain(..) {
            tails[s] = tail;
        }
    }
    layout.trace(rpb, &runs);
    Ok(MergeOutcome {
        records: layout.plan.total,
        comparisons: runs.iter().map(|r| r.comparisons).sum(),
        workers: w,
        tails,
    })
}

/// What [`parallel_merge_segments`] did.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelMergeOutcome {
    /// Records emitted (sum over workers).
    pub records: u64,
    /// Loser-tree selects, summed over workers. *Not* equal to the
    /// sequential tree's count (each worker's tree has its own fan-in and
    /// priming); callers must not difference this across worker counts.
    pub comparisons: u64,
    /// Workers actually used.
    pub workers: usize,
    /// Metered random reads spent planning the cuts: always zero, since
    /// the cuts come from the fence index.
    pub probe_random_reads: u64,
}

/// Merges `segments` with `workers` range-partitioned loser trees, feeding
/// the merged records to `emit` in output order.
///
/// A benchmark shim: the engine's merges write their output in place
/// through the crate-internal entry point, and `perfbench/` still calls
/// this signature (it goes with the next benchmark change, like the
/// runtime shims). With more than one worker, every worker's slice is
/// buffered in memory before the slices are emitted in order.
pub fn parallel_merge_segments<R, F>(
    disk: &Disk,
    segments: &[MergeSegment],
    workers: usize,
    pool: &BufferPool,
    mut emit: F,
) -> PdmResult<ParallelMergeOutcome>
where
    R: Record,
    F: FnMut(&[R]) -> PdmResult<()>,
{
    let inputs = segments.iter().cloned().map(MergeInput::fresh).collect();
    let layout = lay_out(disk, inputs, workers, pool)?;
    let w = layout.plan.workers();
    let runs = if w == 1 {
        vec![layout.run_worker(disk, 0, pool, &mut emit)?]
    } else {
        let slices = run_workers(w, |wi| {
            let mut slice = Vec::new();
            let run = layout.run_worker(disk, wi, pool, |batch| {
                slice.extend_from_slice(batch);
                Ok(())
            })?;
            Ok((run, slice))
        })?;
        let mut runs = Vec::with_capacity(w);
        for (run, slice) in slices {
            emit(&slice)?;
            runs.push(run);
        }
        runs
    };
    layout.trace((disk.block_bytes() / R::SIZE) as u64, &runs);
    Ok(ParallelMergeOutcome {
        records: layout.plan.total,
        comparisons: runs.iter().map(|r| r.comparisons).sum(),
        workers: w,
        probe_random_reads: 0,
    })
}

/// Computes the cut table for `workers` over `segments` by exact rank
/// selection: boundary `w` is the global rank `⌊total·w/W⌋` position in the
/// `(sort_key, segment, position)` order. The fences bracket each cut; the
/// bracket windows are read (sequentially metered) to finish the selection.
/// Plans one worker where [`parallel_merge_segments`] would merge with one.
/// Exposed for the balance tests.
pub fn plan_cuts<R: Record>(
    disk: &Disk,
    segments: &[MergeSegment],
    workers: usize,
    pool: &BufferPool,
) -> PdmResult<MergePlan> {
    let inputs = segments.iter().cloned().map(MergeInput::fresh).collect();
    Ok(lay_out::<R>(disk, inputs, workers, pool)?.plan)
}

/// Fails with [`PdmError::SizeMismatch`] if a segment runs past its file.
fn check_segments<R: Record>(disk: &Disk, inputs: &[MergeInput<R>]) -> PdmResult<()> {
    for MergeInput { seg, .. } in inputs {
        let have = disk.len_records::<R>(&seg.file)?;
        if seg.offset.checked_add(seg.len).is_none_or(|end| end > have) {
            return Err(PdmError::SizeMismatch {
                what: format!("merge segment {:?} at record {}", seg.file, seg.offset),
                expect: seg.len,
                got: have.saturating_sub(seg.offset),
            });
        }
    }
    Ok(())
}

/// Whether the fence index covers every block each input still has to
/// stream.
fn fenced<R: Record>(disk: &Disk, inputs: &[MergeInput<R>]) -> bool {
    let rpb = (disk.block_bytes() / R::SIZE) as u64;
    inputs.iter().all(|i| {
        let end = i.seg.offset + i.seg.len;
        i.head.len() as u64 >= i.seg.len
            || disk
                .fences(&i.seg.file)
                .is_some_and(|f| f.len() as u64 >= end.div_ceil(rpb))
    })
}

/// Runs `work(w)` for every worker — worker 0 on the calling thread, the
/// rest on scoped threads — and returns the results in worker order.
fn run_workers<T: Send>(
    workers: usize,
    work: impl Fn(usize) -> PdmResult<T> + Sync,
) -> PdmResult<Vec<T>> {
    if workers == 1 {
        return Ok(vec![work(0)?]);
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers)
            .map(|wi| {
                let work = &work;
                std::thread::Builder::new()
                    .name(format!("merge-worker-{wi}"))
                    .spawn_scoped(scope, move || work(wi))
                    .expect("spawn merge worker")
            })
            .collect();
        let first = work(0);
        let mut out = vec![first?];
        for h in handles {
            out.push(h.join().expect("merge worker panicked")?);
        }
        Ok(out)
    })
}

/// A sample of the fence index: `(sort_key, segment, position)`.
type Sample = (u64, usize, u64);

/// A planned merge: the cut table, and per segment the record ranges that
/// are in memory (heads and cut windows), as `(position, records)` sorted by
/// position and disjoint.
struct Layout<R> {
    plan: MergePlan,
    segments: Vec<MergeSegment>,
    loaded: Vec<Vec<(u64, Vec<R>)>>,
    /// When the merge started, the origin of the worker spans.
    epoch: Instant,
}

/// What one worker's merge did.
struct WorkerRun<R> {
    /// The worker tree's select count.
    comparisons: u64,
    /// For each segment whose end the worker streamed: the records past it
    /// in the last block read.
    tails: Vec<(usize, Vec<R>)>,
    /// Start and end, in seconds since [`Layout::epoch`].
    span: (f64, f64),
}

/// Plans a merge of `inputs` with up to `workers` workers: brackets every
/// cut with the fences, reads the bracket windows, and selects the exact
/// cuts in memory. Plans one worker when the record type's key is not a
/// total order or an input has no fence index. Fails before any I/O if a
/// segment runs past its file.
fn lay_out<R: Record>(
    disk: &Disk,
    inputs: Vec<MergeInput<R>>,
    workers: usize,
    pool: &BufferPool,
) -> PdmResult<Layout<R>> {
    check_segments(disk, &inputs)?;
    let mut workers = workers.clamp(1, MAX_MERGE_WORKERS);
    if workers > 1 && !(R::HAS_SORT_KEY && R::KEY_IS_TOTAL && fenced(disk, &inputs)) {
        workers = 1;
    }
    let rpb = (disk.block_bytes() / R::SIZE).max(1) as u64;
    let mut segments = Vec::with_capacity(inputs.len());
    let mut loaded: Vec<Vec<(u64, Vec<R>)>> = Vec::with_capacity(inputs.len());
    for input in inputs {
        loaded.push(if input.head.is_empty() {
            Vec::new()
        } else {
            vec![(0, input.head)]
        });
        segments.push(input.seg);
    }
    let lens: Vec<u64> = segments.iter().map(|s| s.len).collect();
    let total: u64 = lens.iter().sum();
    let mut plan = MergePlan {
        cuts: vec![vec![0; segments.len()], lens.clone()],
        total,
    };
    if workers > 1 {
        let samples = fence_samples(disk, &segments, &loaded, rpb);
        let targets: Vec<u64> = (1..workers)
            .map(|w| ((total as u128 * w as u128) / workers as u128) as u64)
            .collect();
        let brackets = bracket_cuts(&samples, &lens, &targets);
        for (s, seg) in segments.iter().enumerate() {
            let windows = brackets.iter().map(|(lo, hi)| (lo[s], hi[s]));
            load_windows(disk, seg, windows, rpb, pool, &mut loaded[s])?;
        }
        let key = |s: usize, i: u64| -> u64 {
            let (start, recs) = loaded[s]
                .iter()
                .find(|(start, recs)| *start <= i && i < start + recs.len() as u64)
                .expect("bracket windows are loaded");
            recs[(i - start) as usize].sort_key()
        };
        let mut cuts = vec![vec![0; segments.len()]];
        for (t, (lo, hi)) in targets.iter().zip(brackets) {
            let below: u64 = lo.iter().sum();
            cuts.push(select_cut(&key, lo, hi, t - below));
        }
        cuts.push(lens);
        plan.cuts = cuts;
    }
    Ok(Layout {
        plan,
        segments,
        loaded,
        epoch: Instant::now(),
    })
}

/// The fence samples of every segment, sorted by `(key, segment,
/// position)` (positions relative to the segment): the first record of
/// each block that starts inside it, and the first record of its head.
fn fence_samples<R: Record>(
    disk: &Disk,
    segments: &[MergeSegment],
    loaded: &[Vec<(u64, Vec<R>)>],
    rpb: u64,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    for (s, seg) in segments.iter().enumerate() {
        let head = loaded[s].first().map_or(&[][..], |(_, h)| h.as_slice());
        if let Some(first) = head.first().filter(|_| seg.len > 0) {
            samples.push((first.sort_key(), s, 0));
        }
        let Some(fences) = disk.fences(&seg.file) else {
            continue;
        };
        let end = seg.offset + seg.len;
        let from = (seg.offset + head.len() as u64).div_ceil(rpb);
        for b in from..end.div_ceil(rpb) {
            if let Some(&key) = fences.get(b as usize) {
                samples.push((key, s, b * rpb - seg.offset));
            }
        }
    }
    samples.sort_unstable();
    samples
}

/// Brackets every rank target with the samples alone (no I/O). Returns,
/// per target `t`, per-segment bounds `lo ≤ cut ≤ hi` of the exact cut.
///
/// A sample `e` has between `L(e)` and `U(e)` records ordering before it:
/// exactly its position in its own segment, and in every other segment at
/// least one past that segment's last sample before `e` and at most the
/// position of its first sample after `e`. A sample with `U < t` lies below
/// the cut and one with `L ≥ t` at or above it, so the bounds of the last
/// such sample below and the first above bracket the cut. Both sets are
/// prefixes of the sorted samples.
fn bracket_cuts(samples: &[Sample], lens: &[u64], targets: &[u64]) -> Vec<(Vec<u64>, Vec<u64>)> {
    // Per segment, the positions of its samples in order.
    let mut positions: Vec<Vec<u64>> = vec![Vec::new(); lens.len()];
    for &(_, s, p) in samples {
        positions[s].push(p);
    }
    let mut sweep = Sweep::new(&positions, lens);
    let bounds: Vec<(u64, u64)> = samples.iter().map(|&(_, s, p)| sweep.pass(s, p)).collect();
    // How many samples lie surely below (U < t) and possibly below (L < t)
    // each target.
    let surely: Vec<usize> = targets
        .iter()
        .map(|&t| bounds.iter().filter(|b| b.1 < t).count())
        .collect();
    let maybe: Vec<usize> = targets
        .iter()
        .map(|&t| bounds.iter().filter(|b| b.0 < t).count())
        .collect();
    // The lower bounds after the last sample below, the upper bounds before
    // the first sample above.
    let mut out = vec![(Vec::new(), Vec::new()); targets.len()];
    let mut sweep = Sweep::new(&positions, lens);
    for i in 0..=samples.len() {
        for j in 0..targets.len() {
            if surely[j] == i {
                out[j].0 = sweep.low.clone();
            }
            if maybe[j] == i {
                out[j].1 = sweep.high.clone();
            }
        }
        if let Some(&(_, s, p)) = samples.get(i) {
            sweep.pass(s, p);
        }
    }
    out
}

/// [`bracket_cuts`]' walk over the sorted samples: before the next sample,
/// segment `s` has at least `low[s]` and at most `high[s]` records ordering
/// before it.
struct Sweep<'a> {
    /// Per segment, its sample positions in order.
    positions: &'a [Vec<u64>],
    lens: &'a [u64],
    /// Per segment, the samples passed.
    seen: Vec<usize>,
    low: Vec<u64>,
    high: Vec<u64>,
    sum_low: u64,
    sum_high: u64,
}

impl<'a> Sweep<'a> {
    fn new(positions: &'a [Vec<u64>], lens: &'a [u64]) -> Self {
        let high: Vec<u64> = (0..lens.len())
            .map(|s| positions[s].first().copied().unwrap_or(lens[s]))
            .collect();
        Sweep {
            positions,
            lens,
            seen: vec![0; lens.len()],
            low: vec![0; lens.len()],
            sum_high: high.iter().sum(),
            high,
            sum_low: 0,
        }
    }

    /// Passes the next sample, at position `p` of segment `s`; returns the
    /// bounds `(L, U)` on the records ordering before it.
    fn pass(&mut self, s: usize, p: u64) -> (u64, u64) {
        let bounds = (
            self.sum_low - self.low[s] + p,
            self.sum_high - self.high[s] + p,
        );
        self.seen[s] += 1;
        let next = self.positions[s]
            .get(self.seen[s])
            .copied()
            .unwrap_or(self.lens[s]);
        self.sum_low = self.sum_low - self.low[s] + p + 1;
        self.sum_high = self.sum_high - self.high[s] + next;
        self.low[s] = p + 1;
        self.high[s] = next;
        bounds
    }
}

/// Reads the blocks of `seg` that the cut windows `[lo, hi]` touch and that
/// are not in memory yet, adding them to `loaded` (kept sorted). A window
/// needs no block when its cut is known to fall on a block boundary, and an
/// empty segment needs none at all.
fn load_windows<R: Record>(
    disk: &Disk,
    seg: &MergeSegment,
    windows: impl Iterator<Item = (u64, u64)>,
    rpb: u64,
    pool: &BufferPool,
    loaded: &mut Vec<(u64, Vec<R>)>,
) -> PdmResult<()> {
    if seg.len == 0 {
        return Ok(());
    }
    let file_len = disk.len_records::<R>(&seg.file)?;
    // Windows as file block ranges, merged where they touch.
    let mut blocks: Vec<(u64, u64)> = Vec::new();
    for (lo, hi) in windows {
        let (b0, b1) = ((seg.offset + lo) / rpb, (seg.offset + hi).div_ceil(rpb));
        match blocks.last_mut() {
            Some(last) if b0 <= last.1 => last.1 = last.1.max(b1),
            _ if b0 < b1 => blocks.push((b0, b1)),
            _ => {}
        }
    }
    let head_end = loaded.first().map_or(0, |(_, h)| h.len() as u64);
    for (b0, b1) in blocks {
        // Segment-relative record range, clipped to the file and past the
        // head.
        let from = (b0 * rpb).max(seg.offset) - seg.offset;
        let from = from.max(head_end);
        let to = (b1 * rpb).min(file_len) - seg.offset;
        if from >= to {
            continue;
        }
        let mut rd = disk.open_reader_pooled::<R>(&seg.file, Some(pool.clone()))?;
        rd.seek(seg.offset + from);
        let mut recs = Vec::with_capacity((to - from) as usize);
        rd.read_into(&mut recs, (to - from) as usize)?;
        loaded.push((from, recs));
    }
    loaded.sort_unstable_by_key(|(start, _)| *start);
    Ok(())
}

/// Per-segment positions of the rank boundary that has exactly `t` of the
/// records in `[lo, hi)` before it (everything before `lo` is below it
/// already), in the `(sort_key, segment, position)` order. Each round takes
/// the weighted median of the intervals' medians as a pivot and ranks it by
/// binary search, retiring at least a quarter of the candidates.
fn select_cut(
    key: &impl Fn(usize, u64) -> u64,
    mut lo: Vec<u64>,
    mut hi: Vec<u64>,
    mut t: u64,
) -> Vec<u64> {
    let k = lo.len();
    loop {
        let sizes: Vec<u64> = lo.iter().zip(&hi).map(|(a, b)| b - a).collect();
        let remaining: u64 = sizes.iter().sum();
        if t == 0 {
            return lo;
        }
        if t >= remaining {
            return hi;
        }
        let mut cands: Vec<Sample> = (0..k)
            .filter(|&s| sizes[s] > 0)
            .map(|s| {
                let m = lo[s] + (sizes[s] - 1) / 2;
                (key(s, m), s, m)
            })
            .collect();
        cands.sort_unstable();
        let half = remaining / 2;
        let mut acc = 0u64;
        let mut pivot = cands[cands.len() - 1];
        for &c in &cands {
            acc += sizes[c.1];
            if acc > half {
                pivot = c;
                break;
            }
        }
        // Rank the pivot in every interval (records ordering before it).
        let mut below = 0u64;
        let mut ranks = lo.clone();
        for s in 0..k {
            let (mut a, mut b) = (lo[s], hi[s]);
            while a < b {
                let mid = a + (b - a) / 2;
                if (key(s, mid), s, mid) < pivot {
                    a = mid + 1;
                } else {
                    b = mid;
                }
            }
            ranks[s] = a;
            below += a - lo[s];
        }
        if t <= below {
            // The cut lies entirely among records below the pivot.
            hi = ranks;
        } else {
            // Everything below the pivot — and the pivot itself — is below
            // the cut.
            t -= below + 1;
            lo = ranks;
            lo[pivot.1] = pivot.2 + 1;
        }
    }
}

impl<R: Record> Layout<R> {
    /// Merges worker `wi`'s slice into `sink` a batch at a time.
    fn run_worker(
        &self,
        disk: &Disk,
        wi: usize,
        pool: &BufferPool,
        sink: impl FnMut(&[R]) -> PdmResult<()>,
    ) -> PdmResult<WorkerRun<R>> {
        let t0 = self.epoch.elapsed().as_secs_f64();
        let single = self.plan.workers() == 1;
        let mut sources = Vec::with_capacity(self.segments.len());
        for (s, seg) in self.segments.iter().enumerate() {
            let (a, b) = (self.plan.cuts[wi][s], self.plan.cuts[wi + 1][s]);
            // One worker keeps empty inputs in its tree, so its select
            // count is the plain sequential merge's.
            if a < b || single {
                sources.push(self.source(disk, s, seg, a, b, pool));
            }
        }
        let mut tree = LoserTree::new(sources)?;
        tree.drain_into(sink)?;
        let comparisons = tree.comparisons();
        let tails = tree
            .into_sources()
            .into_iter()
            .filter_map(|src| src.tail.map(|t| (src.seg, t)))
            .collect();
        Ok(WorkerRun {
            comparisons,
            tails,
            span: (t0, self.epoch.elapsed().as_secs_f64()),
        })
    }

    /// Records `[a, b)` of segment `s` as a stream: in-memory ranges where
    /// loaded, block reads in between.
    fn source<'a>(
        &'a self,
        disk: &'a Disk,
        s: usize,
        seg: &'a MergeSegment,
        a: u64,
        b: u64,
        pool: &'a BufferPool,
    ) -> SliceSource<'a, R> {
        let mut pieces = Vec::new();
        let mut x = a;
        for (start, recs) in &self.loaded[s] {
            let end = start + recs.len() as u64;
            if end <= x {
                continue;
            }
            if *start >= b {
                break;
            }
            if *start > x {
                pieces.push(Piece::Disk(seg.offset + x, start - x));
                x = *start;
            }
            let to = end.min(b);
            pieces.push(Piece::Mem(
                &recs[(x - start) as usize..(to - start) as usize],
            ));
            x = to;
        }
        let streams_end = x < b;
        if streams_end {
            pieces.push(Piece::Disk(seg.offset + x, b - x));
        }
        pieces.reverse();
        SliceSource {
            disk,
            file: &seg.file,
            pool,
            pieces,
            current: Current::Idle,
            seg: s,
            // The worker streaming a segment's last records keeps what its
            // reader holds past them.
            tail: (streams_end && b == seg.len).then(Vec::new),
        }
    }

    /// Per segment, the records past its end that a loaded range holds (an
    /// input whose end a worker streams gets its tail from that worker).
    fn loaded_tails(&self) -> Vec<Vec<R>> {
        self.segments
            .iter()
            .zip(&self.loaded)
            .map(|(seg, ranges)| {
                ranges
                    .iter()
                    .find(|(start, recs)| *start <= seg.len && seg.len < start + recs.len() as u64)
                    .map_or_else(Vec::new, |(start, recs)| {
                        recs[(seg.len - start) as usize..].to_vec()
                    })
            })
            .collect()
    }

    /// Records the worker spans and the range counters when tracing.
    fn trace(&self, rpb: u64, runs: &[WorkerRun<R>]) {
        let node_obs = obs::current();
        if !node_obs.is_enabled() {
            return;
        }
        let base = node_obs.elapsed() - self.epoch.elapsed().as_secs_f64();
        for (wi, run) in runs.iter().enumerate() {
            let (t0, t1) = run.span;
            node_obs.record_span(
                worker_span_name(wi),
                obs::SpanKind::Task,
                base + t0,
                base + t1,
                None,
            );
            node_obs.hist_record("extsort.parmerge.worker_us", ((t1 - t0) * 1e6) as u64);
        }
        let mut blocks = 0u64;
        for w in 0..self.plan.workers() {
            for (s, seg) in self.segments.iter().enumerate() {
                let (a, b) = (self.plan.cuts[w][s], self.plan.cuts[w + 1][s]);
                if a < b {
                    blocks += (seg.offset + b - 1) / rpb - (seg.offset + a) / rpb + 1;
                }
            }
        }
        node_obs.counter_add("merge.range.records", self.plan.total);
        node_obs.counter_add("merge.range.blocks", blocks);
    }
}

/// A part of a worker's range of one segment.
enum Piece<'a, R> {
    /// Records already in memory.
    Mem(&'a [R]),
    /// `(first record, count)` to stream from the file.
    Disk(u64, u64),
}

/// What a [`SliceSource`] is reading from.
enum Current<'a, R: Record> {
    Idle,
    Mem(&'a [R]),
    Disk(BlockReader<R>, u64),
}

/// A worker's range of one segment as a record stream: its pieces in order.
struct SliceSource<'a, R: Record> {
    disk: &'a Disk,
    file: &'a str,
    pool: &'a BufferPool,
    /// Pieces still to read, last first.
    pieces: Vec<Piece<'a, R>>,
    current: Current<'a, R>,
    seg: usize,
    /// `Some` when this stream reads the segment's end: filled with the
    /// rest of the last block read.
    tail: Option<Vec<R>>,
}

impl<R: Record> SliceSource<'_, R> {
    fn short(&self, left: u64) -> PdmError {
        PdmError::SizeMismatch {
            what: format!("merge segment {:?}", self.file),
            expect: left,
            got: 0,
        }
    }
}

impl<R: Record> RecordStream<R> for SliceSource<'_, R> {
    fn next_record(&mut self) -> PdmResult<Option<R>> {
        let mut one = Vec::with_capacity(1);
        Ok(match self.next_block(&mut one, 1)? {
            0 => None,
            _ => Some(one[0]),
        })
    }

    fn next_block(&mut self, buf: &mut Vec<R>, max: usize) -> PdmResult<usize> {
        buf.clear();
        loop {
            match &mut self.current {
                Current::Mem(recs) if !recs.is_empty() => {
                    let take = recs.len().min(max);
                    buf.extend_from_slice(&recs[..take]);
                    *recs = &recs[take..];
                    return Ok(take);
                }
                Current::Disk(rd, left) if *left > 0 => {
                    let want = usize::try_from(*left).map_or(max, |l| l.min(max));
                    let got = rd.read_into(buf, want)?;
                    if got == 0 {
                        let left = *left;
                        return Err(self.short(left));
                    }
                    *left -= got as u64;
                    if *left == 0 && self.pieces.is_empty() {
                        if let Some(tail) = &mut self.tail {
                            let rest = rd.buffered();
                            rd.read_into(tail, rest)?;
                        }
                    }
                    return Ok(got);
                }
                _ => match self.pieces.pop() {
                    None => return Ok(0),
                    Some(Piece::Mem(recs)) => self.current = Current::Mem(recs),
                    Some(Piece::Disk(from, len)) => {
                        let mut rd = self
                            .disk
                            .open_reader_pooled::<R>(self.file, Some(self.pool.clone()))?;
                        rd.seek(from);
                        self.current = Current::Disk(rd, len);
                    }
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segments_for(disk: &Disk, runs: &[Vec<u32>]) -> Vec<MergeSegment> {
        runs.iter()
            .enumerate()
            .map(|(i, r)| {
                let name = format!("seg{i}");
                disk.write_file(&name, r).unwrap();
                MergeSegment::new(name, 0, r.len() as u64)
            })
            .collect()
    }

    fn merged(disk: &Disk, segs: &[MergeSegment], workers: usize) -> Vec<u32> {
        let pool = BufferPool::default();
        let mut out = Vec::new();
        parallel_merge_segments::<u32, _>(disk, segs, workers, &pool, |batch| {
            out.extend_from_slice(batch);
            Ok(())
        })
        .unwrap();
        out
    }

    /// Merges `segs` into a fresh file through the in-place entry point.
    fn merged_in_place(disk: &Disk, segs: &[MergeSegment], workers: usize, name: &str) -> u64 {
        let pool = BufferPool::default();
        let mut out = MergeOutput::<u32>::create(disk, name).unwrap();
        let inputs = segs.iter().cloned().map(MergeInput::fresh).collect();
        let done = merge_into(
            disk,
            inputs,
            &mut out,
            workers,
            &PipelineConfig::off(),
            &pool,
        )
        .unwrap();
        out.finish(disk, &pool).unwrap();
        done.records
    }

    #[test]
    fn matches_sequential_for_every_worker_count() {
        let disk = Disk::in_memory(64);
        let runs: Vec<Vec<u32>> = vec![
            (0..500).map(|i| i * 3).collect(),
            (0..300).map(|i| i * 5).collect(),
            vec![7; 200],
            (0..100).rev().map(|i| 1000 - i).collect(),
        ];
        let segs = segments_for(&disk, &runs);
        let mut expect: Vec<u32> = runs.concat();
        expect.sort_unstable();
        for w in [1, 2, 3, 4, 8] {
            assert_eq!(merged(&disk, &segs, w), expect, "workers={w}");
            let name = format!("out{w}");
            merged_in_place(&disk, &segs, w, &name);
            assert_eq!(disk.read_file::<u32>(&name).unwrap(), expect, "workers={w}");
        }
    }

    #[test]
    fn segment_past_the_file_end_is_a_typed_error() {
        let disk = Disk::in_memory(64); // 16 records per block
        let segs = segments_for(&disk, &[(0..100).collect(), (0..50).collect()]);
        let pool = BufferPool::default();
        // Runs that end past the file (mid-block and block-aligned) or start
        // past it.
        for (offset, len) in [(0, 51), (40, 11), (48, 16), (60, 1)] {
            let mut bad = segs.clone();
            bad[1] = MergeSegment::new("seg1", offset, len);
            for w in [1, 2] {
                let mut emitted = 0;
                let err = parallel_merge_segments::<u32, _>(&disk, &bad, w, &pool, |b| {
                    emitted += b.len();
                    Ok(())
                })
                .unwrap_err();
                assert!(
                    matches!(err, PdmError::SizeMismatch { expect, .. } if expect == len),
                    "offset {offset} len {len} workers {w}: {err}"
                );
                assert_eq!(emitted, 0, "no short output before the error");
            }
        }
    }

    #[test]
    fn short_run_in_a_tree_is_a_size_mismatch() {
        // A bounded tape view over a file shorter than its run table must
        // fail the merge.
        use crate::stream::Bounded;
        let disk = Disk::in_memory(64);
        disk.write_file::<u32>("a", &(0..40).collect::<Vec<_>>())
            .unwrap();
        disk.write_file::<u32>("b", &(0..30).collect::<Vec<_>>())
            .unwrap();
        let mut a = disk.open_reader::<u32>("a").unwrap();
        let mut b = disk.open_reader::<u32>("b").unwrap();
        let views = vec![Bounded::new(&mut a, 40), Bounded::new(&mut b, 31)];
        let mut tree = LoserTree::new(views).unwrap();
        let err = tree.drain_into(|_| Ok(())).unwrap_err();
        assert!(
            matches!(
                err,
                PdmError::SizeMismatch {
                    expect: 31,
                    got: 30,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn plan_balances_heavy_duplicates() {
        let disk = Disk::in_memory(64);
        // All-equal keys: positional selection must still split evenly.
        let runs: Vec<Vec<u32>> = vec![vec![42; 997], vec![42; 503], vec![42; 250]];
        let segs = segments_for(&disk, &runs);
        let pool = BufferPool::default();
        for w in [2usize, 3, 4, 8] {
            let plan = plan_cuts::<u32>(&disk, &segs, w, &pool).unwrap();
            let cap = plan.total.div_ceil(w as u64);
            for wi in 0..w {
                assert!(
                    plan.worker_records(wi) <= cap,
                    "worker {wi} of {w} got {} > {cap}",
                    plan.worker_records(wi)
                );
            }
            let sum: u64 = (0..w).map(|wi| plan.worker_records(wi)).sum();
            assert_eq!(sum, plan.total);
        }
    }

    #[test]
    fn cut_rows_are_monotone() {
        let disk = Disk::in_memory(64);
        let runs: Vec<Vec<u32>> = (0..5)
            .map(|s| (0..200u32).map(|i| i * 5 + s).collect())
            .collect();
        let segs = segments_for(&disk, &runs);
        let pool = BufferPool::default();
        let plan = plan_cuts::<u32>(&disk, &segs, 4, &pool).unwrap();
        for w in 0..4 {
            for s in 0..segs.len() {
                assert!(plan.cuts[w][s] <= plan.cuts[w + 1][s]);
            }
        }
    }

    #[test]
    fn planned_workers_gates() {
        // The default in-memory disk prices I/O like the paper's SCSI
        // drives — an explicit worker count must be honoured regardless.
        let disk = Disk::in_memory(64);
        let par = PipelineConfig::off().with_merge_workers(4);
        assert_eq!(
            planned_workers::<u32>(&disk, &par, 8, 1 << 20, SortKernel::Comparison),
            4
        );
        // Sequential by default.
        assert_eq!(
            planned_workers::<u32>(
                &disk,
                &PipelineConfig::off(),
                8,
                1 << 20,
                SortKernel::Comparison
            ),
            1
        );
        // Too few records to split.
        assert_eq!(
            planned_workers::<u32>(&disk, &par, 8, 7, SortKernel::Comparison),
            1
        );
        // Single input stream: a range split buys nothing over the tree.
        assert_eq!(
            planned_workers::<u32>(&disk, &par, 1, 1 << 20, SortKernel::Comparison),
            1
        );
        // Keys that are not a total order cannot reproduce the sequential
        // tie-break from positional cuts.
        assert_eq!(
            planned_workers::<pdm::record::KeyPayload>(
                &disk,
                &par,
                8,
                1 << 20,
                SortKernel::Comparison
            ),
            1
        );
        // Cap.
        let wide = PipelineConfig::off().with_merge_workers(64);
        assert_eq!(
            planned_workers::<u32>(&disk, &wide, 8, 1 << 20, SortKernel::Comparison),
            MAX_MERGE_WORKERS
        );
    }

    #[test]
    fn advisory_workers_respect_the_seek_cliff() {
        use pdm::DiskModel;
        let scsi = Disk::in_memory(32 * 1024).with_model(DiskModel::scsi_2000());
        let nvme = Disk::in_memory(32 * 1024).with_model(DiskModel::nvme_modern());
        assert!(seek_dominated(&scsi), "SCSI must read as seek-dominated");
        assert!(!seek_dominated(&nvme), "NVMe must not");

        let advisory = PipelineConfig::off().with_advisory_merge_workers(4);
        // On seek-dominated hardware the advisory request falls back to the
        // sequential tree; on NVMe it goes parallel.
        assert_eq!(
            planned_workers::<u32>(&scsi, &advisory, 8, 1 << 20, SortKernel::Comparison),
            1
        );
        assert_eq!(
            planned_workers::<u32>(&nvme, &advisory, 8, 1 << 20, SortKernel::Comparison),
            4
        );
        // An explicit order overrides the veto on the same hardware.
        let explicit = PipelineConfig::off().with_merge_workers(4);
        assert_eq!(
            planned_workers::<u32>(&scsi, &explicit, 8, 1 << 20, SortKernel::Comparison),
            4
        );
    }

    #[test]
    fn host_profile_counts_at_most_the_cores() {
        let scratch = pdm::ScratchDir::new("parmerge-host").unwrap();
        let disk = Disk::on_files(scratch.path(), 256 * 1024);
        assert_eq!(disk.model(), &pdm::DiskModel::host());
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let advisory = PipelineConfig::adaptive(2);
        assert_eq!(
            planned_workers::<u32>(&disk, &advisory, 7, 1 << 25, SortKernel::Radix),
            cores.min(MAX_MERGE_WORKERS)
        );
    }

    #[test]
    fn seq_fallback_counter_fires_on_scsi_and_stays_silent_on_nvme() {
        use pdm::DiskModel;
        let advisory = PipelineConfig::off().with_advisory_merge_workers(4);

        let scsi_obs = obs::Obs::enabled();
        {
            let _g = obs::install(scsi_obs.clone());
            let scsi = Disk::in_memory(32 * 1024).with_model(DiskModel::scsi_2000());
            assert_eq!(
                planned_workers::<u32>(&scsi, &advisory, 8, 1 << 20, SortKernel::Comparison),
                1
            );
        }
        let scsi_node = scsi_obs.finish(0, "scsi".to_string());
        assert_eq!(
            scsi_node.metrics.counters.get("merge.planner.seq_fallback"),
            Some(&1),
            "the planner must record its retreat to the sequential merge"
        );
        assert_eq!(
            scsi_node.metrics.counters.get("merge.planner.plans"),
            Some(&1)
        );
        assert_eq!(
            scsi_node.metrics.gauges.get("merge.planner.chosen_workers"),
            Some(&1.0)
        );

        let nvme_obs = obs::Obs::enabled();
        {
            let _g = obs::install(nvme_obs.clone());
            let nvme = Disk::in_memory(32 * 1024).with_model(DiskModel::nvme_modern());
            assert_eq!(
                planned_workers::<u32>(&nvme, &advisory, 8, 1 << 20, SortKernel::Comparison),
                4
            );
        }
        let nvme_node = nvme_obs.finish(0, "nvme".to_string());
        assert_eq!(
            nvme_node.metrics.counters.get("merge.planner.seq_fallback"),
            None,
            "no fallback on a deep-queue device"
        );
        assert_eq!(
            nvme_node.metrics.gauges.get("merge.planner.chosen_workers"),
            Some(&4.0)
        );
    }

    #[test]
    fn non_seek_io_is_worker_count_invariant() {
        // Every input block is read once and every output block written
        // once whatever the worker count: the full snapshot matches.
        for block_bytes in [64usize, 256, 1024] {
            let disk = Disk::in_memory(block_bytes);
            let runs: Vec<Vec<u32>> = (0..6)
                .map(|s| (0..777u32).map(|i| i * 6 + s).collect())
                .collect();
            let segs = segments_for(&disk, &runs);
            let mut baseline = None;
            for w in [1usize, 2, 4] {
                let before = disk.stats().snapshot();
                let out = merged(&disk, &segs, w);
                let d = disk.stats().snapshot().delta(&before);
                assert_eq!(out.len(), 6 * 777);
                let before = disk.stats().snapshot();
                merged_in_place(&disk, &segs, w, &format!("out{w}"));
                let d_out = disk.stats().snapshot().delta(&before);
                match &baseline {
                    None => baseline = Some((d, d_out)),
                    Some(b) => assert_eq!(
                        (d, d_out),
                        *b,
                        "I/O changed at workers={w}, block={block_bytes}"
                    ),
                }
            }
        }
    }

    #[test]
    fn probe_reads_stay_logarithmic() {
        // Cut planning brackets from the fence index: it meters no read the
        // one-worker merge does not make itself.
        let disk = Disk::in_memory(64); // 16 records per block
        let n = 4096u32;
        let runs: Vec<Vec<u32>> = vec![
            (0..n).map(|i| i * 2).collect(),
            (0..n).map(|i| i * 2 + 1).collect(),
        ];
        let segs = segments_for(&disk, &runs);
        let pool = BufferPool::default();
        let mut reads = Vec::new();
        for w in [1, 2] {
            let before = disk.stats().snapshot();
            let out =
                parallel_merge_segments::<u32, _>(&disk, &segs, w, &pool, |_| Ok(())).unwrap();
            assert_eq!(out.probe_random_reads, 0, "cut planning must not probe");
            reads.push(disk.stats().snapshot().delta(&before));
        }
        assert_eq!(reads[0].random_reads, 0);
        assert_eq!(reads[1], reads[0], "cut planning metered extra reads");
    }

    #[test]
    fn cut_windows_stay_a_few_blocks_per_segment() {
        // The fences alone bracket each cut to a window of a few blocks.
        let disk = Disk::in_memory(64); // 16 records per block
        let runs: Vec<Vec<u32>> = (0..7)
            .map(|s| {
                (0..4096u32)
                    .map(|i| i.wrapping_mul(2654435761) >> 8 | s)
                    .collect()
            })
            .map(|mut r: Vec<u32>| {
                r.sort_unstable();
                r
            })
            .collect();
        let segs = segments_for(&disk, &runs);
        let inputs = segs.iter().cloned().map(MergeInput::fresh).collect();
        let layout = lay_out::<u32>(&disk, inputs, 4, &BufferPool::default()).unwrap();
        let loaded: usize = layout.loaded.iter().flatten().map(|(_, r)| r.len()).sum();
        assert!(
            loaded <= 3 * 7 * 5 * 16,
            "{loaded} records loaded for 3 cuts over 7 segments"
        );
    }

    #[test]
    fn unfenced_inputs_merge_with_one_worker() {
        // A record type without a sort key writes no fences.
        let disk = Disk::in_memory(64);
        let segs = segments_for(&disk, &[(0..100).collect(), (50..150).collect()]);
        disk.truncate("seg0", 400).unwrap(); // same bytes, index dropped
        let pool = BufferPool::default();
        let out = parallel_merge_segments::<u32, _>(&disk, &segs, 4, &pool, |_| Ok(())).unwrap();
        assert_eq!(out.workers, 1);
        assert_eq!(out.records, 200);
    }
}
