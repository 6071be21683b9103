//! The traced run: times the calls into each workspace crate's public
//! functions on one workload's own inputs and prints one JSON line per
//! per-layer metric, per span and per output check.
//!
//! Two targets cover every layer on every workload:
//!
//! * the **engine target** is where the workload's timed call runs — one
//!   real-file disk for `ext_*`, the sixteen in-memory node disks (node
//!   memory, tapes and block size) for `cluster_p16`. The `workloads`,
//!   `pdm`, `kernel`, `run_formation`, `polyphase`, `merge`, `loser_tree`,
//!   `parmerge`, `planner` and `verify` rows are measured here;
//! * the **cluster target** is the p = 16 trial of the workload's key
//!   distribution. The `core`, `cluster` and `obs` rows are measured there:
//!   a replay of every node's Algorithm 1 stages with the public functions,
//!   summed over nodes, plus `run_trial` with tracing off and on. For
//!   `cluster_p16` both targets are the same nodes.

use std::path::Path;
use std::time::Instant;

use cluster::charge::Work;
use cluster::{run_cluster, ClusterSpec, Tag};
use extsort::run_formation::form_runs;
use extsort::{
    fingerprint_file, is_sorted_file, merge_sorted_files, parallel_merge_segments, planned_workers,
    polyphase_sort, sort_chunk, ExtSortConfig, Fingerprint, LoserTree, MergeSegment, SliceStream,
};
use hetsort::partition::partition_file_streaming;
use hetsort::pivots::select_pivots;
use hetsort::sampling::{regular_positions, regular_sample_count};
use hetsort::{run_trial, TrialConfig};
use pdm::record::{decode_all_into, encode_all_into};
use pdm::{BufferPool, Disk, IoSnapshot, PdmResult, ScratchDir};
use workloads::{generate_to_disk, Benchmark, Layout};

use crate::{cluster_config, file_disk, ExtWorkload, Json, CLUSTER_WORKLOAD};

/// Records in the merge and parallel-merge probes (the whole input when it
/// is smaller).
const MERGE_PROBE_RECORDS: u64 = 1 << 24;
/// Records in the in-memory loser-tree probe.
const LOSER_TREE_RECORDS: u64 = 1 << 22;
/// Records per message in the exchange-codec probe (the cluster default).
const MSG_RECORDS: usize = 8192;
/// Records the exchange-codec probe encodes per pass.
const CODEC_RECORDS: usize = 1 << 21;
/// Minimum time a repeated micro-probe runs before its median is taken.
const MIN_PROBE_S: f64 = 0.3;
/// Ring-plus-barrier rounds per `run_cluster` call.
const RING_ROUNDS: u32 = 2000;

const GB: f64 = 1e9;
const MREC: f64 = 1e6;

/// Where a set of layer calls runs: one disk per node, each holding that
/// node's generated `"input"`.
struct Target {
    bench: Benchmark,
    seed: u64,
    layouts: Vec<Layout>,
    disks: Vec<Disk>,
    cfg: ExtSortConfig,
}

impl Target {
    fn ext(w: &ExtWorkload, seed: u64, dir: &Path) -> Target {
        Target {
            bench: w.bench,
            seed,
            layouts: vec![Layout::single(w.n)],
            disks: vec![file_disk(dir)],
            cfg: w.config(),
        }
    }

    /// The trial's nodes, configured as `run_trial` configures them.
    fn cluster(trial: &TrialConfig) -> Target {
        let n = trial.declared.padded_size(trial.n);
        let layouts = Layout::cluster(&trial.declared.shares(n));
        let disks = layouts
            .iter()
            .map(|_| Disk::in_memory(trial.block_bytes).with_model(trial.disk_model.clone()))
            .collect();
        Target {
            bench: trial.bench,
            seed: trial.seed,
            layouts,
            disks,
            cfg: ExtSortConfig::new(trial.mem_records)
                .with_tapes(trial.tapes)
                .with_pipeline(trial.pipeline)
                .with_kernel(trial.kernel),
        }
    }

    /// Generates node `i`'s input.
    fn generate(&self, i: usize) -> PdmResult<u64> {
        generate_to_disk(
            &self.disks[i],
            "input",
            self.bench,
            self.seed,
            self.layouts[i],
        )
    }

    fn records(&self) -> u64 {
        self.layouts.iter().map(|l| l.len).sum()
    }

    /// The first `limit` input records, node after node.
    fn keys(&self, limit: u64) -> PdmResult<Vec<u32>> {
        let limit = limit.min(self.records()) as usize;
        let mut keys = Vec::with_capacity(limit);
        for disk in &self.disks {
            let left = limit - keys.len();
            if left == 0 {
                break;
            }
            disk.open_reader::<u32>("input")?
                .read_into(&mut keys, left)?;
        }
        Ok(keys)
    }
}

/// Collects the traced run's output lines: spans, metrics and checks.
struct Trace {
    start: Instant,
    lines: Vec<String>,
}

impl Trace {
    /// Times `f` as one span named `name`; returns its result and seconds.
    fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let t = Instant::now();
        let out = f();
        let dur = t.elapsed().as_secs_f64();
        let start = t.duration_since(self.start).as_secs_f64();
        self.lines.push(
            Json::default()
                .text("span", name)
                .num("start_s", start)
                .num("dur_s", dur)
                .render(),
        );
        (out, dur)
    }

    /// Records a metric. `timing` is `direct` for a stage timed on its own,
    /// `derived` for one computed by difference, and `count` or `model` for
    /// values that are not host wall times.
    fn metric(&mut self, name: &str, value: f64, unit: &str, timing: &str) {
        self.lines.push(
            Json::default()
                .text("metric", name)
                .num("value", value)
                .text("unit", unit)
                .text("timing", timing)
                .render(),
        );
    }

    fn count(&mut self, name: &str, value: u64) {
        self.metric(name, value as f64, "count", "count");
    }

    fn check(&mut self, name: &str, ok: bool) {
        self.lines
            .push(Json::default().text("check", name).flag("ok", ok).render());
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let m = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[m]
    } else {
        (xs[m - 1] + xs[m]) / 2.0
    }
}

/// Calls `f` (which returns the seconds it timed) until `MIN_PROBE_S` has
/// passed and at least three times; returns the median.
fn repeat_median(mut f: impl FnMut() -> PdmResult<f64>) -> PdmResult<f64> {
    let t = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || t.elapsed().as_secs_f64() < MIN_PROBE_S {
        samples.push(f()?);
    }
    Ok(median(samples))
}

/// Sorts `keys` into `k` nearly equal runs written as `"{prefix}{i}"`.
fn write_runs(disk: &Disk, keys: &[u32], k: usize, prefix: &str) -> PdmResult<Vec<String>> {
    keys.chunks(keys.len().div_ceil(k))
        .enumerate()
        .map(|(i, chunk)| {
            let mut run = chunk.to_vec();
            run.sort_unstable();
            let name = format!("{prefix}{i}");
            disk.write_file(&name, &run)?;
            Ok(name)
        })
        .collect()
}

fn remove_all(disk: &Disk, names: &[String]) -> PdmResult<()> {
    names.iter().try_for_each(|n| disk.remove(n))
}

/// `workloads`: generates every node's input; returns the summed seconds.
fn probe_gen(tr: &mut Trace, t: &Target) -> PdmResult<f64> {
    let mut total = 0.0;
    for i in 0..t.disks.len() {
        let (res, dur) = tr.span("workloads.generate_to_disk", || t.generate(i));
        res?;
        total += dur;
    }
    Ok(total)
}

/// The cluster workload's set-up, timed outside the trial because
/// `run_trial` does it inside the call: building the configuration,
/// provisioning the in-memory node disks and generating every node's
/// input on them.
pub fn cluster_setup(seed: u64) -> PdmResult<Json> {
    let t = Instant::now();
    let nodes = Target::cluster(&cluster_config(seed, Benchmark::Uniform));
    for i in 0..nodes.disks.len() {
        nodes.generate(i)?;
    }
    let mut j = Json::default();
    j.num("setup_s", t.elapsed().as_secs_f64());
    Ok(j)
}

/// `pdm`: sequential block reads of every input, then block writes of the
/// same records.
fn probe_pdm_io(tr: &mut Trace, t: &Target) -> PdmResult<()> {
    let (mut read_s, mut write_s, mut bytes) = (0.0, 0.0, 0u64);
    for disk in &t.disks {
        let mut keys = Vec::new();
        let (res, dur) = tr.span("pdm.BlockReader::read_into", || -> PdmResult<usize> {
            let mut reader = disk.open_reader::<u32>("input")?;
            let len = reader.len() as usize;
            reader.read_into(&mut keys, len)
        });
        res?;
        read_s += dur;
        let (res, dur) = tr.span("pdm.BlockWriter::push_all+finish", || -> PdmResult<u64> {
            let mut writer = disk.create_writer::<u32>("copy")?;
            writer.push_all(&keys)?;
            writer.finish()
        });
        res?;
        write_s += dur;
        disk.remove("copy")?;
        bytes += keys.len() as u64 * 4;
    }
    tr.metric("pdm.read_gbs", bytes as f64 / read_s / GB, "GB/s", "direct");
    tr.metric(
        "pdm.write_gbs",
        bytes as f64 / write_s / GB,
        "GB/s",
        "direct",
    );
    Ok(())
}

/// `pdm` exchange codec: encodes and decodes 8192-record messages.
fn probe_codec(tr: &mut Trace, keys: &[u32]) -> PdmResult<()> {
    let keys = &keys[..keys.len().min(CODEC_RECORDS)];
    let bytes = keys.len() as f64 * 4.0;
    let mut wire = Vec::new();
    let mut encoded: Vec<Vec<u8>> = Vec::new();
    let (enc, _) = tr.span("pdm.encode_all_into", || {
        repeat_median(|| {
            encoded.clear();
            let t = Instant::now();
            for msg in keys.chunks(MSG_RECORDS) {
                encode_all_into(msg, &mut wire);
                encoded.push(std::hint::black_box(&wire).clone());
            }
            Ok(t.elapsed().as_secs_f64())
        })
    });
    let mut out = Vec::new();
    let (dec, _) = tr.span("pdm.decode_all_into", || {
        repeat_median(|| {
            let t = Instant::now();
            for msg in &encoded {
                decode_all_into::<u32>(msg, &mut out);
                std::hint::black_box(&out);
            }
            Ok(t.elapsed().as_secs_f64())
        })
    });
    tr.metric("pdm.encode_gbs", bytes / enc? / GB, "GB/s", "direct");
    tr.metric("pdm.decode_gbs", bytes / dec? / GB, "GB/s", "direct");
    Ok(())
}

/// `extsort::kernel`: sorts one M-record chunk of the workload's keys.
fn probe_kernel(tr: &mut Trace, t: &Target, keys: &[u32]) -> PdmResult<()> {
    let chunk = &keys[..keys.len().min(t.cfg.mem_records)];
    let kernel = t.cfg.kernel;
    let mut key_ops = 0.0;
    let (secs, _) = tr.span("extsort.sort_chunk", || {
        repeat_median(|| {
            let mut data = chunk.to_vec();
            let start = Instant::now();
            let work = sort_chunk(&mut data, kernel);
            let secs = start.elapsed().as_secs_f64();
            key_ops = (work.key_ops + work.comparisons) as f64 / chunk.len() as f64;
            std::hint::black_box(&data);
            Ok(secs)
        })
    });
    let secs = secs?;
    tr.metric(
        "kernel.sort_mrec_s",
        chunk.len() as f64 / secs / MREC,
        "Mrec/s",
        "direct",
    );
    tr.metric("kernel.key_ops_per_rec", key_ops, "ops/rec", "count");
    Ok(())
}

/// What the local sorts of a target did, summed over its nodes.
#[derive(Default)]
struct LocalSorts {
    run_formation_s: f64,
    runs: u64,
    polyphase_s: f64,
    initial_runs: u64,
    merge_phases: u64,
    io: IoSnapshot,
}

/// `extsort::run_formation` then `extsort::polyphase`: forms the runs of
/// every node's input alone, then sorts the input into `"sorted"`.
fn local_sorts(tr: &mut Trace, t: &Target, with_run_formation: bool) -> PdmResult<LocalSorts> {
    let mut s = LocalSorts::default();
    let k = t.cfg.merge_order();
    for disk in &t.disks {
        if with_run_formation {
            let (formed, dur) = tr.span("extsort.form_runs", || {
                form_runs::<u32>(disk, "input", "rf", k, &t.cfg)
            });
            let formed = formed?;
            s.run_formation_s += dur;
            s.runs += formed.total_runs;
            for tape in &formed.tapes {
                disk.remove(&tape.name)?;
            }
        }
        let (report, dur) = tr.span("extsort.polyphase_sort", || {
            polyphase_sort::<u32>(disk, "input", "sorted", "pp", &t.cfg)
        });
        let report = report?;
        s.polyphase_s += dur;
        s.initial_runs += report.initial_runs;
        s.merge_phases += u64::from(report.merge_phases);
        s.io = s.io.plus(&report.io);
    }
    Ok(s)
}

/// `extsort::verify`: checks that every node's `name` is sorted and that
/// together they are a permutation of the inputs; with `global`, also that
/// each node's keys precede the next node's. Returns the summed seconds of
/// `is_sorted_file` and `fingerprint_file` on `name`.
fn probe_verify(tr: &mut Trace, t: &Target, name: &str, global: bool) -> PdmResult<f64> {
    let mut total = 0.0;
    let mut sorted = true;
    let (mut fp_in, mut fp_out) = (Fingerprint::default(), Fingerprint::default());
    let mut prev_last: Option<u32> = None;
    for disk in &t.disks {
        let (res, dur) = tr.span("extsort.is_sorted_file+fingerprint_file", || {
            Ok::<_, pdm::PdmError>((
                is_sorted_file::<u32>(disk, name)?,
                fingerprint_file::<u32>(disk, name)?,
            ))
        });
        let (node_sorted, fp) = res?;
        total += dur;
        sorted &= node_sorted;
        fp_out = fp_out.combine(&fp);
        fp_in = fp_in.combine(&fingerprint_file::<u32>(disk, "input")?);
        if global {
            let mut reader = disk.open_reader::<u32>(name)?;
            if !reader.is_empty() {
                let first = reader.read_at(0)?;
                sorted &= prev_last.is_none_or(|last| last <= first);
                prev_last = Some(reader.read_at(reader.len() - 1)?);
            }
        }
    }
    tr.check(
        &format!("{name} sorted and a permutation of the input"),
        sorted && fp_in == fp_out,
    );
    Ok(total)
}

/// `extsort::kway`, `extsort::loser_tree` and `extsort::parallel_merge`:
/// merges sorted runs cut from the workload's keys, on the workload's disk.
fn probe_merges(tr: &mut Trace, t: &Target, keys: &[u32]) -> PdmResult<()> {
    let disk = &t.disks[0];
    let keys = &keys[..keys.len().min(MERGE_PROBE_RECORDS as usize)];
    let n = keys.len() as f64;
    for k in [7usize, 32] {
        let runs = write_runs(disk, keys, k, &format!("m{k}.run"))?;
        let (report, dur) = tr.span(&format!("extsort.merge_sorted_files(k={k})"), || {
            merge_sorted_files::<u32>(disk, &runs, "merged")
        });
        report?;
        tr.metric(
            &format!("merge.k{k}_mrec_s"),
            n / dur / MREC,
            "Mrec/s",
            "direct",
        );
        disk.remove("merged")?;
        if k == 7 {
            let segments = runs
                .iter()
                .map(|r| MergeSegment::whole_file::<u32>(disk, r))
                .collect::<PdmResult<Vec<_>>>()?;
            for w in [1usize, 2] {
                let pool = BufferPool::default();
                let (outcome, dur) =
                    tr.span(&format!("extsort.parallel_merge_segments(w={w})"), || {
                        let mut writer = disk.create_writer::<u32>("merged")?;
                        let outcome = parallel_merge_segments::<u32, _>(
                            disk,
                            &segments,
                            w,
                            &pool,
                            |batch| writer.push_all(batch),
                        )?;
                        writer.finish()?;
                        Ok::<_, pdm::PdmError>(outcome)
                    });
                let outcome = outcome?;
                tr.metric(
                    &format!("parmerge.w{w}_mrec_s"),
                    n / dur / MREC,
                    "Mrec/s",
                    "direct",
                );
                if w == 2 {
                    tr.count("parmerge.probe_reads", outcome.probe_random_reads);
                }
                disk.remove("merged")?;
            }
        }
        remove_all(disk, &runs)?;
    }

    let keys = &keys[..keys.len().min(LOSER_TREE_RECORDS as usize)];
    let streams: Vec<SliceStream<u32>> = keys
        .chunks(keys.len().div_ceil(8))
        .map(|c| {
            let mut run = c.to_vec();
            run.sort_unstable();
            SliceStream::new(run)
        })
        .collect();
    let (drained, dur) = tr.span("extsort.LoserTree(k=8)", || -> PdmResult<u64> {
        let mut tree = LoserTree::new(streams)?;
        let mut sum = 0u64;
        while let Some(x) = tree.next_record()? {
            sum = sum.wrapping_add(u64::from(x));
        }
        Ok(std::hint::black_box(sum))
    });
    drained?;
    tr.metric(
        "loser_tree.k8_ns_per_rec",
        dur * 1e9 / keys.len() as f64,
        "ns/rec",
        "direct",
    );
    Ok(())
}

/// `hetsort`: replays the staged Algorithm 1 on every node of `t` after the
/// local sorts left each node's `"sorted"`: regular sampling, pivot
/// selection, partitioning, the exchange (copied between the node disks,
/// untimed) and the p-way final merge into `"output"`.
fn replay_psrs(tr: &mut Trace, t: &Target, trial: &TrialConfig) -> PdmResult<(f64, f64, f64)> {
    let perf = &trial.declared;
    let p = t.disks.len();
    let mut sample = Vec::new();
    for (rank, disk) in t.disks.iter().enumerate() {
        let mut reader = disk.open_reader::<u32>("sorted")?;
        for q in regular_positions(reader.len(), regular_sample_count(perf, rank)) {
            sample.push(reader.read_at(q)?);
        }
    }
    sample.sort_unstable();
    let (pivots, pivot_s) = tr.span("hetsort.select_pivots", || select_pivots(&sample, perf));

    let mut partition_s = 0.0;
    for disk in &t.disks {
        let (sizes, dur) = tr.span("hetsort.partition_file_streaming", || {
            partition_file_streaming::<u32>(disk, "sorted", "part", &pivots)
        });
        sizes?;
        partition_s += dur;
        disk.remove("sorted")?;
    }
    for (src, from) in t.disks.iter().enumerate() {
        for (dst, to) in t.disks.iter().enumerate() {
            let part = format!("part{dst}");
            to.write_file(&format!("recv{src}"), &from.read_file::<u32>(&part)?)?;
            from.remove(&part)?;
        }
    }
    let inputs: Vec<String> = (0..p).map(|i| format!("recv{i}")).collect();
    let mut final_merge_s = 0.0;
    for disk in &t.disks {
        let (report, dur) = tr.span("extsort.merge_sorted_files(p-way)", || {
            merge_sorted_files::<u32>(disk, &inputs, "output")
        });
        report?;
        final_merge_s += dur;
        remove_all(disk, &inputs)?;
    }
    Ok((pivot_s, partition_s, final_merge_s))
}

/// `hetsort` and `obs`: `run_trial` with tracing off and on. The first
/// call is not counted: later calls reuse the heap it grew, so they run
/// faster. The counted calls go off, on, on, off, which cancels a steady
/// drift between the two sides.
fn probe_trials(tr: &mut Trace, trial: &TrialConfig) -> PdmResult<()> {
    let mut secs = [0.0f64; 2];
    let mut last = None;
    for (i, trace) in [false, false, true, true, false].into_iter().enumerate() {
        let mut cfg = trial.clone();
        cfg.trace = trace;
        let (result, dur) = tr.span(&format!("hetsort.run_trial(trace={trace})"), || {
            run_trial(&cfg)
        });
        let result = result?;
        tr.check("run_trial verified", result.verified);
        if i > 0 {
            secs[usize::from(trace)] += dur;
        }
        last = Some(result);
    }
    tr.metric(
        "obs.trace_overhead_frac",
        secs[1] / secs[0] - 1.0,
        "ratio",
        "derived",
    );
    let result = last.expect("the loop ran five trials");
    tr.metric("core.s_max", result.balance.expansion(), "ratio", "model");
    tr.metric("cluster.virtual_makespan_s", result.time_secs, "s", "model");
    tr.metric(
        "cluster.sent_bytes",
        result.sent_bytes as f64,
        "bytes",
        "model",
    );
    Ok(())
}

/// `cluster`: a blocking ring exchange plus a barrier per round at p = 16
/// on the event runtime (the shape of the `scale` bench's ring cell).
fn probe_ring(tr: &mut Trace, trial: &TrialConfig) -> PdmResult<()> {
    let spec = ClusterSpec::new(trial.hardware.clone())
        .with_seed(trial.seed)
        .with_runtime(trial.runtime);
    let (secs, _) = tr.span("cluster.run_cluster(ring)", || {
        repeat_median(|| {
            let start = Instant::now();
            let report = run_cluster(&spec, async move |ctx| {
                let right = (ctx.rank + 1) % ctx.p;
                let left = (ctx.rank + ctx.p - 1) % ctx.p;
                let mut received = 0u32;
                for round in 0..RING_ROUNDS {
                    ctx.charger.charge_work(Work::comparisons(1_000));
                    ctx.send(right, Tag::user(7), round.to_le_bytes().to_vec());
                    let msg = ctx.recv_from(left, Tag::user(7)).await;
                    received += u32::from(msg.bytes == round.to_le_bytes());
                    ctx.barrier().await;
                }
                received
            });
            let secs = start.elapsed().as_secs_f64();
            if report.nodes.iter().any(|nd| nd.value != RING_ROUNDS) {
                return Err(pdm::PdmError::InvalidConfig("ring payload lost".into()));
            }
            Ok(secs)
        })
    });
    tr.metric(
        "cluster.ring_rounds_per_s",
        f64::from(RING_ROUNDS) / secs?,
        "1/s",
        "direct",
    );
    Ok(())
}

/// Host reference points on the workload's bytes: plain `std::fs` writes
/// and reads, and the in-core `read_file + sort_unstable + write_file`.
fn probe_reference(tr: &mut Trace, keys: &[u32], dir: &Path) -> PdmResult<()> {
    let bytes: Vec<u8> = keys.iter().flat_map(|k| k.to_le_bytes()).collect();
    let path = dir.join("ref.bytes");
    let (res, write_s) = tr.span("std::fs::write", || std::fs::write(&path, &bytes));
    res?;
    let (back, read_s) = tr.span("std::fs::read", || std::fs::read(&path));
    tr.check("std::fs round trip", back? == bytes);
    std::fs::remove_file(&path)?;
    let gb = bytes.len() as f64 / GB;
    tr.metric("ref.fs_write_gbs", gb / write_s, "GB/s", "direct");
    tr.metric("ref.fs_read_gbs", gb / read_s, "GB/s", "direct");

    let disk = file_disk(dir);
    disk.write_file("ref.input", keys)?;
    let (sorted, incore_s) = tr.span("ref.read_file+sort_unstable+write_file", || {
        let mut keys = disk.read_file::<u32>("ref.input")?;
        keys.sort_unstable();
        disk.write_file("ref.sorted", &keys)?;
        Ok::<_, pdm::PdmError>(keys)
    });
    tr.check("reference sorted", sorted?.is_sorted());
    disk.remove("ref.input")?;
    disk.remove("ref.sorted")?;
    tr.metric("ref.incore_s", incore_s, "s", "direct");
    Ok(())
}

/// Runs every probe for `workload` and returns the output lines.
pub fn run(workload: &str, seed: u64, dir: &Path) -> PdmResult<Vec<String>> {
    let mut tr = Trace {
        start: Instant::now(),
        lines: Vec::new(),
    };
    let scratch = ScratchDir::under(dir, "layers")?;
    let ext = ExtWorkload::by_name(workload);
    let bench = ext.map_or(Benchmark::Uniform, |w| w.bench);
    if ext.is_none() && workload != CLUSTER_WORKLOAD {
        return Err(pdm::PdmError::InvalidConfig(format!(
            "unknown workload {workload:?}"
        )));
    }
    let trial = cluster_config(seed, bench);
    let engine = match &ext {
        Some(w) => Target::ext(w, seed, scratch.path()),
        None => Target::cluster(&trial),
    };

    // Engine target: the workload's own disk(s), memory and tapes.
    let gen_s = probe_gen(&mut tr, &engine)?;
    tr.metric("workloads.gen_s", gen_s, "s", "direct");
    probe_pdm_io(&mut tr, &engine)?;
    let keys = engine.keys(u64::MAX)?;
    probe_codec(&mut tr, &keys)?;
    probe_kernel(&mut tr, &engine, &keys)?;
    let sorts = local_sorts(&mut tr, &engine, true)?;
    tr.metric("run_formation.s", sorts.run_formation_s, "s", "direct");
    tr.count("run_formation.runs", sorts.runs);
    tr.metric(
        "polyphase.merge_s",
        sorts.polyphase_s - sorts.run_formation_s,
        "s",
        "derived",
    );
    tr.count("polyphase.initial_runs", sorts.initial_runs);
    tr.count("polyphase.merge_phases", sorts.merge_phases);
    tr.count("pdm.blocks_read", sorts.io.blocks_read);
    tr.count("pdm.blocks_written", sorts.io.blocks_written);
    tr.count("pdm.random_reads", sorts.io.random_reads);
    tr.count("pdm.files_created", sorts.io.files_created);
    let check_s = probe_verify(&mut tr, &engine, "sorted", false)?;
    let fan_in = engine.cfg.merge_order();
    let workers = planned_workers::<u32>(
        &engine.disks[0],
        &engine.cfg.pipeline,
        fan_in,
        engine.records(),
        engine.cfg.kernel,
    );
    tr.count("planner.merge_workers", workers as u64);
    probe_merges(&mut tr, &engine, &keys)?;
    probe_reference(&mut tr, &keys, scratch.path())?;
    drop(keys);

    // Cluster target: the p = 16 trial of the workload's distribution.
    let nodes = match ext {
        Some(_) => {
            let nodes = Target::cluster(&trial);
            probe_gen(&mut tr, &nodes)?;
            nodes
        }
        None => engine,
    };
    let local_sort_s = match ext {
        Some(_) => local_sorts(&mut tr, &nodes, false)?.polyphase_s,
        None => sorts.polyphase_s,
    };
    let (pivot_s, partition_s, final_merge_s) = replay_psrs(&mut tr, &nodes, &trial)?;
    let replay_check_s = probe_verify(&mut tr, &nodes, "output", true)?;
    tr.metric("core.local_sort_s", local_sort_s, "s", "direct");
    tr.metric("core.pivot_s", pivot_s, "s", "direct");
    tr.metric("core.partition_s", partition_s, "s", "direct");
    tr.metric("core.final_merge_s", final_merge_s, "s", "direct");
    drop(nodes);
    probe_trials(&mut tr, &trial)?;
    probe_ring(&mut tr, &trial)?;

    // Stages of the workload's timed call that were timed directly; what
    // they leave of the call's wall time is reported as unaccounted.
    let (check_s, timed) = match ext {
        Some(_) => (check_s, sorts.run_formation_s),
        None => (
            replay_check_s,
            gen_s + local_sort_s + pivot_s + partition_s + final_merge_s + replay_check_s,
        ),
    };
    tr.metric("verify.check_s", check_s, "s", "direct");
    tr.lines
        .push(Json::default().num("stages_timed_s", timed).render());
    Ok(tr.lines)
}
