//! Differential tests: range-partitioned parallel merging must be
//! *observationally identical* to the sequential loser tree — byte-identical
//! output files for every worker count, and identical streaming I/O (the
//! parallel path may only add metered *seeking* reads: splitter probes and
//! boundary-block prefills, both broken out by `random_reads`/`seek_bytes`).
//!
//! Coverage: the full polyphase sort and the balanced k-way sort across all
//! nine workload distributions, and the single-pass multiway merge across
//! block sizes — every merge call site the `merge_workers` knob reaches.

use extsort::{
    balanced_kway_sort, merge_sorted_files, merge_sorted_files_kernel, polyphase_sort,
    ExtSortConfig, PipelineConfig, SortKernel,
};
use pdm::{Disk, IoSnapshot, Record, ScratchDir};
use workloads::{generate_block, Benchmark, Layout};

const MERGE_WORKERS: [usize; 3] = [1, 2, 4];

/// The I/O a merge performs net of seeking reads: parallel merging adds
/// probes and prefills (metered as `random_reads`/`seek_bytes`, included in
/// the read totals), but the streaming traffic and every write must match
/// the sequential oracle exactly.
fn non_seek(io: &IoSnapshot) -> (u64, u64, u64, u64, u64) {
    (
        io.blocks_read - io.random_reads,
        io.bytes_read - io.seek_bytes,
        io.blocks_written,
        io.bytes_written,
        io.files_created,
    )
}

/// Runs `f` on a fresh in-memory disk pre-loaded with `data` under `in`,
/// returning the I/O delta it produced.
fn metered<R: Record, T>(
    block_bytes: usize,
    data: &[R],
    f: impl FnOnce(&Disk) -> T,
) -> (Disk, T, IoSnapshot) {
    let disk = Disk::in_memory(block_bytes);
    disk.write_file("in", data).unwrap();
    let before = disk.stats().snapshot();
    let out = f(&disk);
    let delta = disk.stats().snapshot().delta(&before);
    (disk, out, delta)
}

#[test]
fn polyphase_parallel_identical_all_distributions() {
    for bench in Benchmark::ALL {
        let data = generate_block(bench, 31, Layout::single(2_000));
        let cfg_seq = ExtSortConfig::new(64).with_tapes(4);
        let (d_seq, r_seq, io_seq) = metered(64, &data, |d| {
            polyphase_sort::<u32>(d, "in", "out", "pp", &cfg_seq).unwrap()
        });
        for &w in &MERGE_WORKERS {
            let cfg_par = cfg_seq.clone().with_merge_workers(w);
            let (d_par, r_par, io_par) = metered(64, &data, |d| {
                polyphase_sort::<u32>(d, "in", "out", "pp", &cfg_par).unwrap()
            });
            assert_eq!(
                d_seq.read_file::<u32>("out").unwrap(),
                d_par.read_file::<u32>("out").unwrap(),
                "{bench}, workers {w}: outputs differ"
            );
            assert_eq!(r_par.records, r_seq.records);
            assert_eq!(r_par.initial_runs, r_seq.initial_runs);
            assert_eq!(r_par.merge_phases, r_seq.merge_phases);
            assert_eq!(
                non_seek(&io_par),
                non_seek(&io_seq),
                "{bench}, workers {w}: non-seek I/O differs"
            );
        }
    }
}

#[test]
fn balanced_kway_parallel_identical_all_distributions() {
    for bench in Benchmark::ALL {
        let data = generate_block(bench, 32, Layout::single(3_000));
        let cfg_seq = ExtSortConfig::new(160).with_tapes(8);
        let (d_seq, r_seq, io_seq) = metered(64, &data, |d| {
            balanced_kway_sort::<u32>(d, "in", "out", "kw", &cfg_seq).unwrap()
        });
        for &w in &MERGE_WORKERS {
            let cfg_par = cfg_seq.clone().with_merge_workers(w);
            let (d_par, r_par, io_par) = metered(64, &data, |d| {
                balanced_kway_sort::<u32>(d, "in", "out", "kw", &cfg_par).unwrap()
            });
            assert_eq!(
                d_seq.read_file::<u32>("out").unwrap(),
                d_par.read_file::<u32>("out").unwrap(),
                "{bench}, workers {w}: outputs differ"
            );
            assert_eq!(r_par.records, r_seq.records);
            assert_eq!(r_par.initial_runs, r_seq.initial_runs);
            assert_eq!(
                non_seek(&io_par),
                non_seek(&io_seq),
                "{bench}, workers {w}: non-seek I/O differs"
            );
        }
    }
}

#[test]
fn single_pass_merge_parallel_identical_across_blocks() {
    // Three interleaved sorted inputs, merged in one pass (the PSRS step-5
    // call site) across block sizes, kernels and worker counts.
    let inputs: Vec<Vec<u32>> = (0..3u32)
        .map(|k| (0..500).map(|i| i * 3 + k).collect())
        .collect();
    let names: Vec<String> = (0..3).map(|i| format!("in{i}")).collect();
    let setup = |d: &Disk| {
        for (i, v) in inputs.iter().enumerate() {
            d.write_file(&format!("in{i}"), v).unwrap();
        }
    };
    for &bb in &[64usize, 256, 1024] {
        let d_seq = Disk::in_memory(bb);
        setup(&d_seq);
        let before = d_seq.stats().snapshot();
        let r_seq = merge_sorted_files::<u32>(&d_seq, &names, "out").unwrap();
        let io_seq = d_seq.stats().snapshot().delta(&before);
        for &w in &MERGE_WORKERS {
            for kernel in [SortKernel::Radix, SortKernel::Comparison] {
                let pipe = PipelineConfig::off().with_merge_workers(w);
                let d_par = Disk::in_memory(bb);
                setup(&d_par);
                let before = d_par.stats().snapshot();
                let r_par =
                    merge_sorted_files_kernel::<u32>(&d_par, &names, "out", &pipe, kernel).unwrap();
                let io_par = d_par.stats().snapshot().delta(&before);
                assert_eq!(
                    d_seq.read_file::<u32>("out").unwrap(),
                    d_par.read_file::<u32>("out").unwrap(),
                    "block {bb}, workers {w}, {kernel:?}: outputs differ"
                );
                assert_eq!(r_par.records, r_seq.records);
                assert_eq!(
                    non_seek(&io_par),
                    non_seek(&io_seq),
                    "block {bb}, workers {w}, {kernel:?}: non-seek I/O differs"
                );
            }
        }
    }
}

#[test]
fn parallel_merge_composes_with_pipeline() {
    // Both knobs on at once: pipelined I/O + range-partitioned merge CPU.
    let data = generate_block(Benchmark::Gaussian, 33, Layout::single(2_500));
    let cfg_seq = ExtSortConfig::new(64).with_tapes(4);
    let (d_seq, _, io_seq) = metered(64, &data, |d| {
        polyphase_sort::<u32>(d, "in", "out", "pp", &cfg_seq).unwrap()
    });
    let cfg_both = cfg_seq
        .clone()
        .with_pipeline(PipelineConfig::with_workers(2).with_merge_workers(4));
    let (d_both, _, io_both) = metered(64, &data, |d| {
        polyphase_sort::<u32>(d, "in", "out", "pp", &cfg_both).unwrap()
    });
    assert_eq!(
        d_seq.read_file::<u32>("out").unwrap(),
        d_both.read_file::<u32>("out").unwrap()
    );
    assert_eq!(non_seek(&io_both), non_seek(&io_seq));
}

#[test]
fn parallel_merge_handles_empty_and_tiny_inputs() {
    for n in [0u64, 1, 5, 65] {
        let data = generate_block(Benchmark::Uniform, 34, Layout::single(n));
        let cfg_seq = ExtSortConfig::new(64).with_tapes(4);
        let (d_seq, _, _) = metered(64, &data, |d| {
            polyphase_sort::<u32>(d, "in", "out", "pp", &cfg_seq).unwrap()
        });
        let cfg_par = cfg_seq.clone().with_merge_workers(4);
        let (d_par, _, _) = metered(64, &data, |d| {
            polyphase_sort::<u32>(d, "in", "out", "pp", &cfg_par).unwrap()
        });
        assert_eq!(
            d_seq.read_file::<u32>("out").unwrap(),
            d_par.read_file::<u32>("out").unwrap(),
            "n = {n}"
        );
    }
}

/// The merge configurations every in-place differential below runs: the
/// sequential oracle, explicit worker counts, and the adaptive plan.
fn merge_configs() -> Vec<(String, PipelineConfig)> {
    let mut configs = vec![("off".to_string(), PipelineConfig::off())];
    for w in [1usize, 2, 4, 8] {
        configs.push((
            format!("workers {w}"),
            PipelineConfig::off().with_merge_workers(w),
        ));
    }
    configs.push(("adaptive(2)".to_string(), PipelineConfig::adaptive(2)));
    configs
}

/// An in-memory disk and a file disk with the same block size.
fn both_disks(block_bytes: usize) -> Vec<(Disk, Option<ScratchDir>)> {
    let scratch = ScratchDir::new("parmerge-diff").unwrap();
    let files = Disk::on_files(scratch.path(), block_bytes);
    vec![(Disk::in_memory(block_bytes), None), (files, Some(scratch))]
}

#[test]
fn polyphase_unaligned_runs_identical_for_every_plan() {
    // M = 100 records over 16-record blocks: every run boundary falls
    // mid-block, so tapes carry partly read input blocks and steps carry
    // partly written output blocks between merges. The 3-record last run
    // can lie wholly inside a carried block.
    let data = generate_block(Benchmark::Uniform, 35, Layout::single(5_003));
    for (label, mem) in [("unaligned", 100usize), ("aligned", 128)] {
        for (disk_no, (disk, _keep)) in both_disks(64).into_iter().enumerate() {
            let mut baseline: Option<(Vec<u32>, IoSnapshot, u64)> = None;
            for (name, pipeline) in merge_configs() {
                let cfg = ExtSortConfig::new(mem)
                    .with_tapes(5)
                    .with_pipeline(pipeline);
                let out = format!("out.{label}.{disk_no}.{}", name.replace(' ', "_"));
                disk.write_file("in", &data).unwrap();
                let before = disk.stats().snapshot();
                let report = polyphase_sort::<u32>(&disk, "in", &out, "pp", &cfg).unwrap();
                let io = disk.stats().snapshot().delta(&before);
                disk.remove("in").unwrap();
                let bytes = disk.read_file::<u32>(&out).unwrap();
                let selects = report.comparisons + report.key_ops;
                if name == "workers 4" {
                    assert!(
                        report.merge_workers.contains(&4),
                        "{name}: {:?}",
                        report.merge_workers
                    );
                }
                match &baseline {
                    None => baseline = Some((bytes, io, selects)),
                    Some((b_bytes, b_io, b_selects)) => {
                        let at = format!("{label} M, disk {disk_no}, {name}");
                        assert_eq!(&bytes, b_bytes, "{at}: outputs differ");
                        assert_eq!(&io, b_io, "{at}: I/O differs");
                        if !name.starts_with("workers") || name == "workers 1" {
                            assert_eq!(selects, *b_selects, "{at}: selects differ");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn single_pass_merge_identical_for_every_plan() {
    // Unaligned inputs: 333, 250 and 1 000 records over 16-record blocks.
    let inputs: Vec<Vec<u32>> = [333u32, 250, 1_000]
        .iter()
        .enumerate()
        .map(|(k, &n)| (0..n).map(|i| i * 7 + k as u32).collect())
        .collect();
    let names: Vec<String> = (0..inputs.len()).map(|i| format!("in{i}")).collect();
    for (disk_no, (disk, _keep)) in both_disks(64).into_iter().enumerate() {
        for (i, v) in inputs.iter().enumerate() {
            disk.write_file(&names[i], v).unwrap();
        }
        let mut baseline: Option<(Vec<u32>, IoSnapshot)> = None;
        for (name, pipeline) in merge_configs() {
            let out = format!("out.{disk_no}.{}", name.replace(' ', "_"));
            let report =
                merge_sorted_files_kernel::<u32>(&disk, &names, &out, &pipeline, SortKernel::Radix)
                    .unwrap();
            let bytes = disk.read_file::<u32>(&out).unwrap();
            match &baseline {
                None => baseline = Some((bytes, report.io)),
                Some((b_bytes, b_io)) => {
                    assert_eq!(&bytes, b_bytes, "disk {disk_no}, {name}: outputs differ");
                    assert_eq!(&report.io, b_io, "disk {disk_no}, {name}: I/O differs");
                }
            }
        }
    }
}

#[test]
fn seeded_layouts_balance_and_match_one_worker() {
    // A seeded sweep over what the fence brackets must get right: runs of
    // heavily duplicated keys, packed back to back into shared files so
    // most segments start and end mid-block, merged with every worker
    // count. Each plan stays within one share plus one record per run of
    // the ideal, and every worker count emits the one-worker merge's
    // records and meters its I/O.
    use extsort::{parallel_merge_segments, plan_cuts, MergeSegment};
    use pdm::BufferPool;
    use sim::rng::{Pcg64, Rng};
    let mut rng = Pcg64::new(36);
    let pool = BufferPool::default();
    for case in 0..120 {
        let disk = Disk::in_memory([16usize, 64, 256][case % 3]);
        let alphabet = 1 + rng.below(64) as u32;
        let mut segments = Vec::new();
        for f in 0..1 + rng.below_usize(3) {
            let name = format!("f{f}");
            let mut records = Vec::new();
            for _ in 0..1 + rng.below_usize(4) {
                let mut run: Vec<u32> = (0..rng.below(300))
                    .map(|_| rng.below(u64::from(alphabet)) as u32)
                    .collect();
                run.sort_unstable();
                segments.push(MergeSegment::new(
                    name.clone(),
                    records.len() as u64,
                    run.len() as u64,
                ));
                records.extend(run);
            }
            disk.write_file(&name, &records).unwrap();
        }
        let total: u64 = segments.iter().map(|s| s.len).sum();
        let mut baseline: Option<(Vec<u32>, IoSnapshot)> = None;
        for workers in 1..=8usize {
            let plan = plan_cuts::<u32>(&disk, &segments, workers, &pool).unwrap();
            let bound = total.div_ceil(workers as u64) + segments.len() as u64;
            for w in 0..plan.workers() {
                assert!(
                    plan.worker_records(w) <= bound,
                    "case {case}, {workers} workers: worker {w} got {} > {bound}",
                    plan.worker_records(w)
                );
            }
            let before = disk.stats().snapshot();
            let mut out = Vec::new();
            parallel_merge_segments::<u32, _>(&disk, &segments, workers, &pool, |b| {
                out.extend_from_slice(b);
                Ok(())
            })
            .unwrap();
            let io = disk.stats().snapshot().delta(&before);
            match &baseline {
                None => baseline = Some((out, io)),
                Some((b_out, b_io)) => {
                    assert_eq!(&out, b_out, "case {case}, {workers} workers: output");
                    assert_eq!(&io, b_io, "case {case}, {workers} workers: I/O");
                }
            }
        }
    }
}

#[test]
fn seeded_polyphase_shapes_match_sequential() {
    // Random sizes, memory budgets and tape counts, so carried input
    // blocks and pending output blocks land everywhere: every worker count
    // writes the sequential sort's bytes and meters its I/O.
    use sim::rng::{Pcg64, Rng};
    let mut rng = Pcg64::new(37);
    for case in 0..40 {
        let block = [16usize, 64][case % 2];
        let tapes = 3 + rng.below_usize(4);
        let mem = tapes * block / 4 + rng.below_usize(100);
        let n = rng.below(3_000);
        let data = generate_block(Benchmark::ZipfDuplicates, case as u64, Layout::single(n));
        let cfg = ExtSortConfig::new(mem).with_tapes(tapes);
        let (d_seq, _, io_seq) = metered(block, &data, |d| {
            polyphase_sort::<u32>(d, "in", "out", "pp", &cfg).unwrap()
        });
        let expect = d_seq.read_file::<u32>("out").unwrap();
        let workers = 2 + rng.below_usize(7);
        let cfg_par = cfg.clone().with_merge_workers(workers);
        let (d_par, _, io_par) = metered(block, &data, |d| {
            polyphase_sort::<u32>(d, "in", "out", "pp", &cfg_par).unwrap()
        });
        let at = format!("case {case}: n {n}, M {mem}, T {tapes}, block {block}, W {workers}");
        assert_eq!(
            d_par.read_file::<u32>("out").unwrap(),
            expect,
            "{at}: output"
        );
        assert_eq!(io_par, io_seq, "{at}: I/O");
    }
}
