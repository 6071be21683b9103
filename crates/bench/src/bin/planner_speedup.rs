//! Adaptive-planner bench: fixed merge-worker counts vs the device-driven
//! plan, per disk model.
//!
//! Merges 16 pre-sorted uniform-u32 runs in one pass on each device
//! (`scsi_2000`, `nvme_modern`), once per fixed worker count (1, 2, 4) and
//! once with the adaptive planner choosing (advisory ceiling 4). Every run
//! is priced with the shared-disk contention model: the merge's I/O delta
//! costs [`DiskModel::shared_service_time`] at its worker count, so a wide
//! plan on a queue-depth-1 device pays the queueing it causes — the SCSI
//! cliff the old fixed `--merge-workers` flag walked straight off.
//!
//! The claims the selftest pins:
//!
//! * on `scsi_2000` the adaptive plan is within 5% of the best fixed
//!   configuration and never worse than the sequential merge;
//! * on `nvme_modern` the adaptive plan reaches >= 3x the sequential merge
//!   (it picks the wide plan the device can absorb).
//!
//! Deterministic and host-independent (virtual pricing of metered
//! counters). Emits `BENCH_planner.json` in the working directory:
//!
//! ```sh
//! cargo run --release -p hetsort-bench --bin planner_speedup -- --selftest
//! ```

use std::time::Instant;

use cluster::CpuModel;
use extsort::{
    merge_sorted_files_kernel, planned_workers, MergeReport, PipelineConfig, SortKernel,
};
use pdm::{Disk, DiskModel, IoSnapshot};
use workloads::{generate_block, Benchmark, Layout};

use hetsort_bench::{fmt_ratio, fmt_secs, print_table, Args};

const BLOCK_BYTES: usize = 4 * 1024;
const RUNS: usize = 16;
const FIXED_LADDER: [usize; 3] = [1, 2, 4];
const ADVISORY_CAP: usize = 4;

struct Run {
    report: MergeReport,
    io: IoSnapshot,
    out_bytes: Vec<u32>,
    wall_secs: f64,
}

fn run_once(n: u64, model: &DiskModel, workers: usize, seed: u64) -> Run {
    let disk = Disk::in_memory(BLOCK_BYTES).with_model(model.clone());
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
    // The comparison kernel is the one the cost model was calibrated on
    // (and the parmerge headline's convention): every select is a priced
    // comparison, so dividing the tree across workers shows through.
    let report = merge_sorted_files_kernel::<u32>(
        &disk,
        &names,
        "output",
        &pipeline,
        SortKernel::Comparison,
    )
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

/// The worker count the adaptive planner picks for this merge on `model`.
fn adaptive_choice(n: u64, model: &DiskModel) -> usize {
    let disk = Disk::in_memory(BLOCK_BYTES).with_model(model.clone());
    let advisory = PipelineConfig::off().with_advisory_merge_workers(ADVISORY_CAP);
    planned_workers::<u32>(&disk, &advisory, RUNS, n, SortKernel::Comparison)
}

/// Contention-priced virtual seconds: the baseline's tree-select CPU
/// divides across the workers, the output moves stay serial, and the run's
/// metered I/O is billed at `workers` shared request streams — exactly the
/// cluster charger's rule for a parallel merge.
fn virtual_secs(baseline: &MergeReport, run: &Run, workers: usize, model: &DiskModel) -> f64 {
    let cpu = CpuModel::alpha_533();
    let w = workers.max(1) as u64;
    let t_select = cpu.comparisons(baseline.comparisons.div_ceil(w)).as_secs()
        + cpu.key_ops(baseline.key_ops.div_ceil(w)).as_secs();
    let t_moves = cpu.record_moves(baseline.records).as_secs();
    let t_io = model.shared_service_time(&run.io, workers.max(1)).as_secs();
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

    let devices = [
        ("scsi_2000", DiskModel::scsi_2000()),
        ("nvme_modern", DiskModel::nvme_modern()),
    ];
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut scsi_adaptive_vs_best = 0.0;
    let mut scsi_adaptive_vs_seq = 0.0;
    let mut nvme_adaptive_speedup = 0.0;

    for (device, model) in &devices {
        let base = run_once(n, model, 1, args.seed);
        let t_seq = virtual_secs(&base.report, &base, 1, model);
        let mut fixed_times = Vec::new();
        let mut emit = |plan: &str, workers: usize, run: &Run, t: f64| {
            let speedup = t_seq / t;
            rows.push(vec![
                device.to_string(),
                plan.to_string(),
                workers.to_string(),
                fmt_secs(t),
                fmt_ratio(speedup),
                format!("{:.3}", run.wall_secs),
            ]);
            json_rows.push(format!(
                "    {{\"device\": \"{device}\", \"plan\": \"{plan}\", \"workers\": {workers}, \
                 \"virtual_secs\": {t:.6}, \"speedup\": {speedup:.4}, \"wall_secs\": {:.4}}}",
                run.wall_secs
            ));
            speedup
        };

        for &w in &FIXED_LADDER {
            let run = if w == 1 {
                None
            } else {
                Some(run_once(n, model, w, args.seed))
            };
            let run = run.as_ref().unwrap_or(&base);
            assert_eq!(
                run.out_bytes, base.out_bytes,
                "{device}, workers {w}: output bytes diverged"
            );
            let t = virtual_secs(&base.report, run, w, model);
            fixed_times.push(t);
            emit("fixed", w, run, t);
        }

        let chosen = adaptive_choice(n, model);
        let run = if chosen == 1 {
            None
        } else {
            Some(run_once(n, model, chosen, args.seed))
        };
        let run = run.as_ref().unwrap_or(&base);
        assert_eq!(
            run.out_bytes, base.out_bytes,
            "{device}, adaptive ({chosen} workers): output bytes diverged"
        );
        let t_ada = virtual_secs(&base.report, run, chosen, model);
        let speedup = emit("adaptive", chosen, run, t_ada);
        let best_fixed = fixed_times.iter().cloned().fold(f64::INFINITY, f64::min);
        if *device == "scsi_2000" {
            scsi_adaptive_vs_best = t_ada / best_fixed;
            scsi_adaptive_vs_seq = t_ada / t_seq;
        } else {
            nvme_adaptive_speedup = speedup;
        }
    }

    print_table(
        &format!("Adaptive merge planner (n = {n}, {RUNS} runs, block = {BLOCK_BYTES}, contention-priced)"),
        &["device", "plan", "workers", "virtual s", "speedup", "wall s"],
        &rows,
    );

    let json = format!(
        "{{\n  \"bench\": \"planner_speedup\",\n  \"n\": {n},\n  \"record_bytes\": 4,\n  \
         \"runs\": {RUNS},\n  \"block_bytes\": {BLOCK_BYTES},\n  \
         \"fixed_ladder\": [1, 2, 4],\n  \"advisory_cap\": {ADVISORY_CAP},\n  \
         \"cpu_model\": \"alpha_533\",\n  \"pricing\": \"shared_service_time\",\n  \
         \"devices\": [\"scsi_2000\", \"nvme_modern\"],\n  \
         \"scsi_adaptive_vs_best_fixed\": {scsi_adaptive_vs_best:.4},\n  \
         \"scsi_adaptive_vs_sequential\": {scsi_adaptive_vs_seq:.4},\n  \
         \"nvme_adaptive_speedup\": {nvme_adaptive_speedup:.4},\n  \"rows\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    std::fs::write("BENCH_planner.json", &json).expect("write BENCH_planner.json");
    println!(
        "wrote BENCH_planner.json (scsi adaptive/best {scsi_adaptive_vs_best:.3}, \
         nvme adaptive speedup {nvme_adaptive_speedup:.2}x)"
    );

    if args.selftest {
        assert!(
            scsi_adaptive_vs_best <= 1.05,
            "scsi adaptive plan must be within 5% of the best fixed config, \
             got {scsi_adaptive_vs_best:.3}x"
        );
        assert!(
            scsi_adaptive_vs_seq <= 1.0 + 1e-9,
            "scsi adaptive plan must never be worse than sequential, \
             got {scsi_adaptive_vs_seq:.3}x"
        );
        // At CI's --quick scale the merge is tiny, so the wide plan clears
        // a lower bar; the full-size run must clear the headline 3x.
        let nvme_floor = if args.quick { 2.0 } else { 3.0 };
        assert!(
            nvme_adaptive_speedup >= nvme_floor,
            "nvme adaptive plan must reach >= {nvme_floor}x sequential, \
             got {nvme_adaptive_speedup:.2}x"
        );
        println!("selftest ok");
    }
}
