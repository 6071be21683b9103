//! Wall-clock engine bench: one row per in-core kernel at GB scale.
//!
//! Unlike the table reproductions (which price counted work through the
//! paper's Alpha/SCSI cost model), this bench measures **host wall time**
//! on real files: it generates a multi-hundred-MB input for every trial,
//! sorts it with the full pipelined polyphase engine, and reports the
//! median wall time, records/sec and MB/s over the trials for each
//! in-core kernel — LSD radix and the ips4o-style in-place partitioner —
//! plus an external baseline ("read the whole file, `sort_unstable`,
//! write it back") for scale. Every trial runs the three rows in a rotated
//! order, so slow drift of the host spreads over all of them.
//!
//! Every trial must stay observationally correct: the output must be
//! sorted and its fingerprint must equal the baseline's; with a
//! total-order record type that makes all outputs byte-identical.
//!
//! Emits `BENCH_wallclock.json` in the working directory, with a `host`
//! block giving the core count, `rustc --version` and the git revision of
//! the working directory (`"unknown"` when either command fails):
//!
//! ```sh
//! cargo run --release -p hetsort-bench --bin wallclock_speedup -- --selftest
//! ```
//!
//! `--quick` shrinks n for CI and `--trials N` sets the trial count
//! (default 5).

use std::time::Instant;

use extsort::{
    fingerprint_file, is_sorted_file, polyphase_sort, ExtSortConfig, Fingerprint, PipelineConfig,
    SortKernel,
};
use hetsort_bench::{print_table, Args};
use pdm::{Disk, DiskModel, ScratchDir};
use workloads::{generate_to_disk, Benchmark, Layout};

const BLOCK_BYTES: usize = 256 * 1024;
const TAPES: usize = 8;
const SORT_WORKERS: usize = 4;
const PREFETCH_DEPTH: usize = 8;
const KERNELS: [SortKernel; 2] = [SortKernel::Radix, SortKernel::Ips4o];

fn fresh_disk(n: u64, seed: u64) -> (ScratchDir, Disk) {
    let scratch = ScratchDir::new("wallclock-bench").expect("scratch dir");
    let disk = Disk::on_files(scratch.path(), BLOCK_BYTES)
        // A modern-NVMe service model: irrelevant to wall time, but the
        // merge planner consults it before accepting advisory merge
        // workers (seek-dominated models veto them).
        .with_model(DiskModel::nvme_modern());
    generate_to_disk(&disk, "input", Benchmark::Uniform, seed, Layout::single(n))
        .expect("generate");
    (scratch, disk)
}

/// One timed external sort; returns its wall time and output fingerprint.
fn run_kernel(n: u64, mem_records: usize, seed: u64, kernel: SortKernel) -> (f64, Fingerprint) {
    let (_scratch, disk) = fresh_disk(n, seed);
    let cfg = ExtSortConfig::new(mem_records)
        .with_tapes(TAPES)
        .with_kernel(kernel)
        .with_pipeline(
            PipelineConfig::with_workers(SORT_WORKERS)
                .with_prefetch_blocks(PREFETCH_DEPTH)
                .with_advisory_merge_workers(SORT_WORKERS),
        );
    let t0 = Instant::now();
    let report = polyphase_sort::<u32>(&disk, "input", "output", "wc", &cfg).expect("sort");
    let wall_secs = t0.elapsed().as_secs_f64();
    assert_eq!(report.records, n, "{}: record count", kernel.name());
    assert!(
        is_sorted_file::<u32>(&disk, "output").expect("scan"),
        "{}: output not sorted",
        kernel.name()
    );
    let fingerprint = fingerprint_file::<u32>(&disk, "output").expect("fingerprint");
    (wall_secs, fingerprint)
}

/// External baseline: read everything, `sort_unstable`, write everything.
/// In-core (cheats the memory budget), single-threaded, no pipeline — the
/// "what a shell `sort` of a binary file could hope for" scale marker.
fn run_std_baseline(n: u64, seed: u64) -> (f64, Fingerprint) {
    let (_scratch, disk) = fresh_disk(n, seed);
    let t0 = Instant::now();
    let mut data = disk.read_file::<u32>("input").expect("read");
    data.sort_unstable();
    disk.write_file("output", &data).expect("write");
    let wall = t0.elapsed().as_secs_f64();
    drop(data);
    let fp = fingerprint_file::<u32>(&disk, "output").expect("fingerprint");
    (wall, fp)
}

fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The first line `cmd args` prints, or `"unknown"` when it cannot run.
fn command_output(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(|l| l.trim().to_string()))
        .filter(|l| !l.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let args = Args::parse();
    let n: u64 = if args.paper {
        1 << 27
    } else if args.quick {
        1 << 20
    } else {
        1 << 26
    };
    let trials = args.trials.max(1);
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let rustc = command_output("rustc", &["--version"]);
    let git_rev = command_output("git", &["describe", "--always", "--dirty", "--abbrev=12"]);
    // Out-of-core by 8× so polyphase genuinely merges, but enough for the
    // streaming minimum of two blocks per tape.
    let records_per_block = BLOCK_BYTES / 4;
    let mem_records = ((n / 8) as usize).max(2 * TAPES * records_per_block);
    let mb = n as f64 * 4.0 / 1e6;

    println!(
        "wallclock: n = {n} ({mb:.0} MB), M = {mem_records}, T = {TAPES}, \
         block = {BLOCK_BYTES}, workers = {SORT_WORKERS}, depth = {PREFETCH_DEPTH}, \
         trials = {trials}, nproc = {nproc}"
    );

    // Row 0 is the std baseline, then one row per kernel.
    let names: Vec<&str> = std::iter::once("std_slice_sort")
        .chain(KERNELS.iter().map(|k| k.name()))
        .collect();
    let mut secs: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    for trial in 0..trials {
        let mut fps = vec![None; names.len()];
        for step in 0..names.len() {
            let row = (step + trial) % names.len();
            let (wall, fp) = match row {
                0 => run_std_baseline(n, args.seed),
                _ => run_kernel(n, mem_records, args.seed, KERNELS[row - 1]),
            };
            println!("  trial {trial}: {:>14}  {wall:8.3}s", names[row]);
            secs[row].push(wall);
            fps[row] = Some(fp);
        }
        for (name, fp) in names.iter().zip(&fps).skip(1) {
            assert_eq!(*fp, fps[0], "{name}: output differs from std baseline");
        }
    }

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let std_median = median(&secs[0]);
    for (name, samples) in names.iter().zip(&secs) {
        let wall = median(samples);
        let rps = n as f64 / wall;
        rows.push(vec![
            name.to_string(),
            format!("{wall:.3}"),
            format!(
                "{:.3}",
                samples.iter().copied().fold(f64::INFINITY, f64::min)
            ),
            format!("{:.3}", samples.iter().copied().fold(0.0, f64::max)),
            format!("{rps:.0}"),
            format!("{:.1}", mb / wall),
            format!("{:.2}", std_median / wall),
        ]);
        let trial_list: Vec<String> = samples.iter().map(|s| format!("{s:.4}")).collect();
        json_rows.push(format!(
            "    {{\"kernel\": \"{name}\", \"wall_secs\": {wall:.4}, \
             \"trial_secs\": [{}], \"records_per_sec\": {rps:.1}, \"mb_per_sec\": {:.2}}}",
            trial_list.join(", "),
            mb / wall
        ));
    }

    print_table(
        &format!(
            "Wall-clock kernels (n = {n}, {mb:.0} MB, real files, median of {trials}, \
             {nproc} cores)"
        ),
        &[
            "row", "median s", "min s", "max s", "rec/s", "MB/s", "vs std",
        ],
        &rows,
    );

    let json = format!(
        "{{\n  \"bench\": \"wallclock_speedup\",\n  \"n\": {n},\n  \"record_bytes\": 4,\n  \
         \"mem_records\": {mem_records},\n  \"tapes\": {TAPES},\n  \
         \"block_bytes\": {BLOCK_BYTES},\n  \"sort_workers\": {SORT_WORKERS},\n  \
         \"prefetch_depth\": {PREFETCH_DEPTH},\n  \"trials\": {trials},\n  \
         \"host\": {{\"nproc\": {nproc}, \"rustc\": \"{}\", \"git_rev\": \"{}\"}},\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        json_escape(&rustc),
        json_escape(&git_rev),
        json_rows.join(",\n")
    );
    std::fs::write("BENCH_wallclock.json", &json).expect("write BENCH_wallclock.json");
    println!("wrote BENCH_wallclock.json");

    if args.selftest {
        // Sortedness and fingerprint identity are asserted per trial above.
        println!("selftest ok");
    }
}
