//! Parallel-merge speedup bench: sequential loser tree vs range-partitioned
//! merge workers.
//!
//! Merges 16 pre-sorted uniform-u32 runs in one pass with `merge_workers`
//! at 1, 2 and 4, under both sort kernels, checks the runs are
//! observationally identical (byte-identical output, identical non-seek
//! block I/O; the `probe_random_reads` column shows the parallel rows add
//! no seeking reads either, since the cuts come from the fence index), and
//! prices each run with the suite's virtual cost model exactly like the
//! table reproductions.
//!
//! Pricing: the tree-select CPU (the sequential baseline's counted selects)
//! divides by the worker count; the output record moves are billed
//! serially, as the charger bills them; workers > 1 overlap the CPU with the transfers (`max(cpu, io)`,
//! the same rule `cluster::Charger` applies). The headline numbers use the
//! modern-NVMe disk model: on the paper's year-2000 SCSI model this merge
//! is I/O-bound, so parallel select CPU cannot show through — the SCSI
//! pricing is emitted alongside for that context, both dedicated
//! (`virtual_secs_scsi`) and contention-priced at `workers` shared request
//! streams (`virtual_secs_scsi_shared`, the queue-depth-1 cliff the
//! adaptive planner exists to avoid). Deterministic and
//! host-independent: the CI container has one core, so wall-clock parallel
//! speedup would measure the host, not the algorithm.
//!
//! Emits `BENCH_parmerge.json` in the working directory:
//!
//! ```sh
//! cargo run --release -p hetsort-bench --bin parmerge_speedup -- --selftest
//! ```

use std::time::Instant;

use cluster::CpuModel;
use extsort::{merge_sorted_files_kernel, MergeReport, PipelineConfig, SortKernel};
use pdm::{Disk, DiskModel, IoSnapshot, ScratchDir};
use workloads::{generate_block, Benchmark, Layout};

use hetsort_bench::{fmt_ratio, fmt_secs, print_table, Args};

const BLOCK_BYTES: usize = 4 * 1024;
const RUNS: usize = 16;
const WORKER_LADDER: [usize; 3] = [1, 2, 4];

struct Run {
    report: MergeReport,
    io: IoSnapshot,
    out_bytes: Vec<u32>,
    wall_secs: f64,
}

fn run_once(n: u64, kernel: SortKernel, workers: usize, seed: u64, use_files: bool) -> Run {
    let scratch;
    let disk = if use_files {
        scratch = Some(ScratchDir::new("parmerge-bench").expect("scratch dir"));
        Disk::on_files(scratch.as_ref().unwrap().path(), BLOCK_BYTES)
    } else {
        scratch = None;
        Disk::in_memory(BLOCK_BYTES)
    };
    let _keep = scratch;
    let run_len = n / RUNS as u64;
    let names: Vec<String> = (0..RUNS)
        .map(|i| {
            let mut data = generate_block(
                Benchmark::Uniform,
                seed.wrapping_add(i as u64),
                Layout::single(run_len),
            );
            data.sort_unstable();
            let name = format!("run{i}");
            disk.write_file(&name, &data).expect("write run");
            name
        })
        .collect();
    let pipeline = PipelineConfig::off().with_merge_workers(workers);
    let before = disk.stats().snapshot();
    let t0 = Instant::now();
    let report = merge_sorted_files_kernel::<u32>(&disk, &names, "output", &pipeline, kernel)
        .expect("merge");
    let wall_secs = t0.elapsed().as_secs_f64();
    let io = disk.stats().snapshot().delta(&before);
    let out_bytes = disk.read_file::<u32>("output").expect("read output");
    Run {
        report,
        io,
        out_bytes,
        wall_secs,
    }
}

/// The streaming I/O net of seeking reads, which must match exactly.
fn non_seek(io: &IoSnapshot) -> (u64, u64, u64, u64, u64) {
    (
        io.blocks_read - io.random_reads,
        io.bytes_read - io.seek_bytes,
        io.blocks_written,
        io.bytes_written,
        io.files_created,
    )
}

/// Virtual seconds for one run: tree selects (the *baseline's* counts — the
/// per-worker trees count differently, the model divides the sequential
/// work) spread over `workers`, serial output moves, and the run's own
/// metered I/O.
fn virtual_secs(baseline: &MergeReport, run: &Run, workers: usize, disk_model: &DiskModel) -> f64 {
    let cpu = CpuModel::alpha_533();
    let w = workers.max(1) as u64;
    let t_select = cpu.comparisons(baseline.comparisons.div_ceil(w)).as_secs()
        + cpu.key_ops(baseline.key_ops.div_ceil(w)).as_secs();
    let t_moves = cpu.record_moves(baseline.records).as_secs();
    let t_io = disk_model.service_time(&run.io).as_secs();
    if workers <= 1 {
        t_select + t_moves + t_io
    } else {
        (t_select + t_moves).max(t_io)
    }
}

/// Like [`virtual_secs`] but with the workers *sharing* the disk: the I/O
/// delta is priced by the contention model at `workers` request streams
/// ([`DiskModel::shared_service_time`]), which is how the cluster charger
/// now bills a parallel merge. On SCSI (queue depth 1) this is the honest
/// price of the cliff; on one stream it equals the dedicated price.
fn virtual_secs_shared(
    baseline: &MergeReport,
    run: &Run,
    workers: usize,
    disk_model: &DiskModel,
) -> f64 {
    let cpu = CpuModel::alpha_533();
    let w = workers.max(1) as u64;
    let t_select = cpu.comparisons(baseline.comparisons.div_ceil(w)).as_secs()
        + cpu.key_ops(baseline.key_ops.div_ceil(w)).as_secs();
    let t_moves = cpu.record_moves(baseline.records).as_secs();
    let t_io = disk_model
        .shared_service_time(&run.io, workers.max(1))
        .as_secs();
    if workers <= 1 {
        t_select + t_moves + t_io
    } else {
        (t_select + t_moves).max(t_io)
    }
}

fn main() {
    let args = Args::parse();
    let n: u64 = if args.paper {
        1 << 23
    } else if args.quick {
        1 << 16
    } else {
        1 << 20
    };
    let nvme = DiskModel::nvme_modern();
    let scsi = DiskModel::scsi_2000();

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut speedup_at_4 = 0.0;
    for kernel in [SortKernel::Comparison, SortKernel::Radix] {
        let base = run_once(n, kernel, 1, args.seed, args.files);
        let t_base = virtual_secs(&base.report, &base, 1, &nvme);
        for &w in &WORKER_LADDER {
            let run = if w == 1 {
                None
            } else {
                Some(run_once(n, kernel, w, args.seed, args.files))
            };
            let run = run.as_ref().unwrap_or(&base);
            // The contract: range partitioning changes nothing observable.
            assert_eq!(
                run.out_bytes, base.out_bytes,
                "{kernel:?}, workers {w}: output bytes diverged"
            );
            assert_eq!(
                non_seek(&run.io),
                non_seek(&base.io),
                "{kernel:?}, workers {w}: non-seek I/O diverged"
            );
            assert_eq!(run.report.records, base.report.records);
            let t = virtual_secs(&base.report, run, w, &nvme);
            let t_scsi = virtual_secs(&base.report, run, w, &scsi);
            let t_scsi_shared = virtual_secs_shared(&base.report, run, w, &scsi);
            let speedup = t_base / t;
            if w == 4 && kernel == SortKernel::Comparison {
                speedup_at_4 = speedup;
            }
            let probe_reads = run.io.random_reads - base.io.random_reads;
            rows.push(vec![
                kernel.name().to_string(),
                w.to_string(),
                fmt_secs(t),
                fmt_secs(t_scsi),
                fmt_secs(t_scsi_shared),
                fmt_ratio(speedup),
                probe_reads.to_string(),
                format!("{:.3}", run.wall_secs),
            ]);
            json_rows.push(format!(
                "    {{\"kernel\": \"{}\", \"workers\": {w}, \"virtual_secs\": {t:.6}, \
                 \"virtual_secs_scsi\": {t_scsi:.6}, \
                 \"virtual_secs_scsi_shared\": {t_scsi_shared:.6}, \"speedup\": {speedup:.4}, \
                 \"probe_random_reads\": {probe_reads}, \"wall_secs\": {:.4}}}",
                kernel.name(),
                run.wall_secs
            ));
        }
    }

    print_table(
        &format!("Parallel-merge speedup (n = {n}, {RUNS} runs, block = {BLOCK_BYTES})"),
        &[
            "kernel",
            "workers",
            "virtual s",
            "scsi s",
            "scsi shared s",
            "speedup",
            "probe rds",
            "wall s",
        ],
        &rows,
    );

    let json = format!(
        "{{\n  \"bench\": \"parmerge_speedup\",\n  \"n\": {n},\n  \"record_bytes\": 4,\n  \
         \"runs\": {RUNS},\n  \"block_bytes\": {BLOCK_BYTES},\n  \
         \"worker_ladder\": [1, 2, 4],\n  \
         \"cpu_model\": \"alpha_533\",\n  \"disk_model\": \"nvme_modern\",\n  \
         \"context_disk_model\": \"scsi_2000\",\n  \
         \"speedup_4_workers\": {speedup_at_4:.4},\n  \"rows\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    std::fs::write("BENCH_parmerge.json", &json).expect("write BENCH_parmerge.json");
    println!("wrote BENCH_parmerge.json (speedup at 4 workers: {speedup_at_4:.2}x)");

    if args.selftest {
        assert!(
            speedup_at_4 >= 2.0,
            "parallel merge at 4 workers must be >= 2x sequential, got {speedup_at_4:.2}x"
        );
        println!("selftest ok");
    }
}
