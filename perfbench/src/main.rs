//! Wall-clock benchmark of the hetsort workspace: the real-file external
//! sort (`extsort::polyphase_sort`, what `hetsort sort` runs) and the
//! simulated p = 16 cluster (`hetsort::run_trial`, what `hetsort cluster`
//! runs).
//!
//! Each subcommand does one unit of work in its own process, so the parent
//! (`perfbench/run.py`) can read the process's peak resident memory and CPU
//! time from `wait4`, and prints one JSON object per line:
//!
//! ```text
//! perfbench ext-sort --workload ext_merge_uniform --seed 1 --dir D
//! perfbench ext-ref  --workload ext_fit_zipf      --seed 1 --dir D
//! perfbench cluster  --workload cluster_p16       --seed 1
//! perfbench cluster-setup --workload cluster_p16  --seed 1
//! perfbench layers   --workload ext_merge_uniform --seed 1 --dir D
//! ```
//!
//! `ext-sort` generates the input (set-up), times one sort and checks its
//! output; `ext-ref` sorts the same input in core and prints the reference
//! digest; `cluster` times one trial, which verifies itself;
//! `cluster-setup` times the trial's set-up on its own; `layers` times the
//! calls into each crate's public functions (the traced run).

mod layers;

use std::path::{Path, PathBuf};
use std::time::Instant;

use extsort::{fingerprint_file, is_sorted_file, polyphase_sort, ExtSortConfig, PipelineConfig};
use hetsort::{run_trial, PerfVector, TrialConfig};
use pdm::{Disk, PdmResult, ScratchDir};
use workloads::{generate_to_disk, Benchmark, Layout};

/// Block size of the real-file workloads (what `hetsort sort --block`
/// would be given).
pub const BLOCK_BYTES: usize = 256 * 1024;

/// A single-process external sort of one generated file.
#[derive(Debug, Clone, Copy)]
pub struct ExtWorkload {
    pub name: &'static str,
    pub bench: Benchmark,
    /// Records in the input.
    pub n: u64,
    /// Memory budget M in records.
    pub mem: usize,
    /// Polyphase tapes T.
    pub tapes: usize,
}

pub const EXT_WORKLOADS: [ExtWorkload; 2] = [
    // 32 runs of M records, four polyphase phases: merge-heavy.
    ExtWorkload {
        name: "ext_merge_uniform",
        bench: Benchmark::Uniform,
        n: 1 << 25,
        mem: 1 << 20,
        tapes: 8,
    },
    // M = n: one run, no merge pass; duplicate-heavy keys.
    ExtWorkload {
        name: "ext_fit_zipf",
        bench: Benchmark::ZipfDuplicates,
        n: 1 << 25,
        mem: 1 << 25,
        tapes: 8,
    },
];

impl ExtWorkload {
    pub fn by_name(name: &str) -> Option<ExtWorkload> {
        EXT_WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The engine configuration `hetsort sort --mem M --tapes T
    /// --workers <nproc> --merge-workers auto` builds.
    pub fn config(&self) -> ExtSortConfig {
        ExtSortConfig::new(self.mem)
            .with_tapes(self.tapes)
            .with_pipeline(PipelineConfig::adaptive(workers()))
    }

    pub fn input_bytes(&self) -> u64 {
        self.n * std::mem::size_of::<u32>() as u64
    }
}

pub const CLUSTER_WORKLOAD: &str = "cluster_p16";

/// The simulated cluster trial: p = 16 with the paper's loaded-cluster
/// speeds `{1,1,4,4}` repeated four times, declared as they are.
pub fn cluster_config(seed: u64, bench: Benchmark) -> TrialConfig {
    let perf: Vec<u64> = [1, 1, 4, 4].repeat(4);
    let mut cfg = TrialConfig::new(perf.clone(), PerfVector::new(perf), 1 << 24);
    cfg.bench = bench;
    cfg.mem_records = 1 << 18;
    cfg.seed = seed;
    // The one runtime selection: every node is a task on a single thread.
    cfg.runtime = cluster::RuntimeKind::Events;
    cfg
}

/// Sort threads handed to the engine: one per available core.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Opens a real-file disk the way `hetsort sort` does (default model and
/// codec).
pub fn file_disk(dir: &Path) -> Disk {
    Disk::on_files(dir, BLOCK_BYTES)
}

/// Order-sensitive digest of a record sequence (FNV-1a over the words), so
/// two sorted outputs compare equal only if they hold the same sequence.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, xs: &[u32]) {
        for &x in xs {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

pub fn digest_file(disk: &Disk, name: &str) -> PdmResult<Digest> {
    let mut reader = disk.open_reader::<u32>(name)?;
    let mut buf = Vec::with_capacity(1 << 16);
    let mut d = Digest::default();
    loop {
        buf.clear();
        if reader.read_into(&mut buf, 1 << 16)? == 0 {
            return Ok(d);
        }
        d.add(&buf);
    }
}

/// One flat JSON object, written by hand (the workspace has no serde).
#[derive(Default)]
pub struct Json(Vec<String>);

impl Json {
    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        let v = if v.is_finite() {
            format!("{v}")
        } else {
            "null".into()
        };
        self.0.push(format!("\"{key}\":{v}"));
        self
    }

    pub fn int(&mut self, key: &str, v: u64) -> &mut Self {
        self.0.push(format!("\"{key}\":{v}"));
        self
    }

    pub fn text(&mut self, key: &str, v: &str) -> &mut Self {
        let escaped: String = v
            .chars()
            .map(|c| match c {
                '"' => "\\\"".into(),
                '\\' => "\\\\".into(),
                c if c.is_control() => format!("\\u{:04x}", c as u32),
                c => c.to_string(),
            })
            .collect();
        self.0.push(format!("\"{key}\":\"{escaped}\""));
        self
    }

    pub fn flag(&mut self, key: &str, v: bool) -> &mut Self {
        self.0.push(format!("\"{key}\":{v}"));
        self
    }

    pub fn render(&self) -> String {
        format!("{{{}}}", self.0.join(","))
    }
}

struct Args {
    command: String,
    workload: String,
    seed: u64,
    dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or("missing subcommand")?;
    let mut args = Args {
        command,
        workload: String::new(),
        seed: 1,
        dir: PathBuf::from("."),
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--dir" => args.dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn ext_workload(name: &str) -> Result<ExtWorkload, String> {
    ExtWorkload::by_name(name).ok_or_else(|| format!("unknown ext workload {name:?}"))
}

/// Set-up, one timed `polyphase_sort`, then the output checks.
fn ext_sort(w: &ExtWorkload, seed: u64, root: &Path) -> PdmResult<Json> {
    let t0 = Instant::now();
    let scratch = ScratchDir::under(root, w.name)?;
    let disk = file_disk(scratch.path());
    generate_to_disk(&disk, "input", w.bench, seed, Layout::single(w.n))?;
    let setup_s = t0.elapsed().as_secs_f64();

    let cfg = w.config();
    let t = Instant::now();
    let report = polyphase_sort::<u32>(&disk, "input", "output", "bench", &cfg)?;
    let sort_wall_s = t.elapsed().as_secs_f64();

    let sorted = is_sorted_file::<u32>(&disk, "output")?;
    let fp_in = fingerprint_file::<u32>(&disk, "input")?;
    let fp_out = fingerprint_file::<u32>(&disk, "output")?;
    let digest = digest_file(&disk, "output")?;
    let mut j = Json::default();
    j.num("setup_s", setup_s)
        .num("sort_wall_s", sort_wall_s)
        .int("io_bytes", report.io.total_bytes())
        .int("input_bytes", w.input_bytes())
        .int("records", report.records)
        .int("initial_runs", report.initial_runs)
        .int("merge_phases", u64::from(report.merge_phases))
        .flag("sorted", sorted)
        .flag("permutation", fp_in == fp_out)
        .text("digest", &format!("{:016x}", digest.0));
    Ok(j)
}

/// The in-core reference: `read_file + sort_unstable` on the same
/// generated input, and the digest of its sorted sequence.
fn ext_ref(w: &ExtWorkload, seed: u64, root: &Path) -> PdmResult<Json> {
    let scratch = ScratchDir::under(root, w.name)?;
    let disk = file_disk(scratch.path());
    generate_to_disk(&disk, "input", w.bench, seed, Layout::single(w.n))?;
    let mut keys = disk.read_file::<u32>("input")?;
    keys.sort_unstable();
    let mut digest = Digest::default();
    digest.add(&keys);
    let mut j = Json::default();
    j.int("records", keys.len() as u64)
        .text("digest", &format!("{:016x}", digest.0));
    Ok(j)
}

/// One timed `run_trial`; the trial generates its inputs and verifies its
/// output inside the call (a violation panics).
fn cluster_trial(seed: u64) -> PdmResult<Json> {
    let cfg = cluster_config(seed, Benchmark::Uniform);
    let t = Instant::now();
    let result = run_trial(&cfg)?;
    let sort_wall_s = t.elapsed().as_secs_f64();
    let mut j = Json::default();
    j.num("sort_wall_s", sort_wall_s)
        .int("io_bytes", result.total_io_blocks * cfg.block_bytes as u64)
        .int("input_bytes", result.n * std::mem::size_of::<u32>() as u64)
        .int("records", result.n)
        .flag("verified", result.verified)
        .num("s_max", result.balance.expansion())
        .num("virtual_makespan_s", result.time_secs)
        .int("sent_bytes", result.sent_bytes);
    Ok(j)
}

fn run(args: &Args) -> Result<Vec<String>, String> {
    let err = |e: pdm::PdmError| e.to_string();
    let one = |j: PdmResult<Json>| j.map(|j| vec![j.render()]).map_err(err);
    match args.command.as_str() {
        "ext-sort" => one(ext_sort(
            &ext_workload(&args.workload)?,
            args.seed,
            &args.dir,
        )),
        "ext-ref" => one(ext_ref(
            &ext_workload(&args.workload)?,
            args.seed,
            &args.dir,
        )),
        "cluster" if args.workload == CLUSTER_WORKLOAD => one(cluster_trial(args.seed)),
        "cluster-setup" if args.workload == CLUSTER_WORKLOAD => {
            one(layers::cluster_setup(args.seed))
        }
        "layers" => layers::run(&args.workload, args.seed, &args.dir).map_err(err),
        other => Err(format!(
            "unknown subcommand {other:?} for {:?}",
            args.workload
        )),
    }
}

fn main() {
    let outcome = parse_args().and_then(|args| {
        std::panic::catch_unwind(|| run(&args)).unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".into());
            Err(format!("panicked: {msg}"))
        })
    });
    match outcome {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
        }
        Err(e) => {
            println!("{}", Json::default().text("error", &e).render());
            std::process::exit(1);
        }
    }
}
