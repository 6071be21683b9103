//! Continuous perf-trend registry over the `BENCH_*.json` artifacts.
//!
//! Every bench binary emits one JSON file with one or more headline
//! metrics (speedups, higher is better). This tool ingests all of them,
//! appends the observations to a history log
//! (`target/trend_history.jsonl` — one JSON line per headline per run),
//! and gates against the committed baselines in `BENCH_trend.json`:
//!
//! * `--check` fails (exit 1) if any headline drops below `gate_ratio` x
//!   its baseline at the same problem size. Baselines are
//!   keyed by `(bench, n, key)`, so CI's `--quick` artifacts compare
//!   against quick-scale baselines and full runs against full-scale
//!   ones, and one bench file can gate several independent headlines; an
//!   observation with no same-size baseline is recorded but not gated.
//!   A headline key missing from an artifact (e.g. a `--splitter`-
//!   restricted `scale` run never computes the grouped comparison) is
//!   skipped, not failed.
//! * `--update` rewrites `BENCH_trend.json` with the current headline
//!   values (preserving baselines at other problem sizes).
//!
//! Host wall-time artifacts (`BENCH_wallclock.json`) carry no headline
//! and are skipped: their numbers depend on the machine, not the code.
//!
//! ```sh
//! cargo run --release -p hetsort-bench --bin trend -- --check
//! ```

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use obs::Json;

const BASELINE_FILE: &str = "BENCH_trend.json";
const HISTORY_FILE: &str = "target/trend_history.jsonl";
const DEFAULT_GATE: f64 = 0.85;

/// `bench` field value → headline key. A bench may carry several
/// headlines; each is keyed and gated independently.
const HEADLINES: &[(&str, &str)] = &[
    ("pipeline_speedup", "speedup_4_workers"),
    ("kernel_speedup", "speedup_uniform"),
    ("overlap_speedup", "speedup_1144_1ki"),
    ("parmerge_speedup", "speedup_4_workers"),
    ("planner_speedup", "nvme_adaptive_speedup"),
    ("critpath_report", "whatif_top_speedup"),
    ("scale", "grouped_speedup_p256"),
];

#[derive(Debug, Clone)]
struct Observation {
    bench: String,
    n: u64,
    key: &'static str,
    value: f64,
}

fn read_observations(path: &Path) -> Vec<Observation> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let doc = match obs::parse(&text) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("warning: {}: invalid JSON ({e}), skipping", path.display());
            return Vec::new();
        }
    };
    let Some(bench) = doc.get("bench").and_then(Json::as_str) else {
        return Vec::new();
    };
    let keys: Vec<&str> = HEADLINES
        .iter()
        .filter(|(b, _)| *b == bench)
        .map(|&(_, key)| key)
        .collect();
    if keys.is_empty() {
        eprintln!(
            "note: {}: bench {bench:?} has no trend headline, skipping",
            path.display()
        );
        return Vec::new();
    }
    let Some(n) = doc.get("n").and_then(Json::as_f64) else {
        return Vec::new();
    };
    keys.iter()
        // A missing key is fine: restricted runs omit some headlines.
        .filter_map(|&key| {
            Some(Observation {
                bench: bench.to_string(),
                n: n as u64,
                key,
                value: doc.get(key)?.as_f64()?,
            })
        })
        .collect()
}

/// Baselines from `BENCH_trend.json`, keyed by `(bench, n, key)`.
fn read_baselines(path: &Path) -> BTreeMap<(String, u64, String), f64> {
    let mut out = BTreeMap::new();
    let Ok(text) = std::fs::read_to_string(path) else {
        return out;
    };
    let doc = obs::parse(&text).expect("BENCH_trend.json is well-formed JSON");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("hetsort-trend-v1"),
        "BENCH_trend.json schema mismatch"
    );
    let Some(Json::Arr(entries)) = doc.get("baselines") else {
        return out;
    };
    for e in entries {
        let bench = e.get("bench").and_then(Json::as_str).expect("bench");
        let n = e.get("n").and_then(Json::as_f64).expect("n") as u64;
        let key = e.get("key").and_then(Json::as_str).expect("key");
        let value = e.get("value").and_then(Json::as_f64).expect("value");
        out.insert((bench.to_string(), n, key.to_string()), value);
    }
    out
}

fn write_baselines(path: &Path, baselines: &BTreeMap<(String, u64, String), f64>) {
    let entries: Vec<String> = baselines
        .iter()
        .map(|((bench, n, key), value)| {
            format!(
                "    {{\"bench\": \"{bench}\", \"n\": {n}, \"key\": \"{key}\", \
                 \"value\": {value:.4}}}"
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"hetsort-trend-v1\",\n  \"gate_ratio\": {DEFAULT_GATE},\n  \
         \"baselines\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    obs::validate(&json).expect("trend JSON is well-formed");
    std::fs::write(path, json).expect("write baseline file");
}

fn append_history(path: &Path, observations: &[Observation]) {
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    else {
        eprintln!("warning: cannot open history file {}", path.display());
        return;
    };
    for o in observations {
        let _ = writeln!(
            f,
            "{{\"ts\": {ts}, \"bench\": \"{}\", \"n\": {}, \"key\": \"{}\", \
             \"value\": {:.4}}}",
            o.bench, o.n, o.key, o.value
        );
    }
}

fn main() {
    let mut check = false;
    let mut update = false;
    let mut dir = PathBuf::from(".");
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => check = true,
            "--update" => update = true,
            "--dir" => dir = PathBuf::from(it.next().expect("--dir needs a path")),
            "--help" | "-h" => {
                eprintln!("flags: --check | --update | --dir PATH");
                std::process::exit(0);
            }
            other => panic!("unknown flag {other:?} (try --help)"),
        }
    }

    let mut observations: Vec<Observation> = Vec::new();
    let mut names: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("readable bench directory")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with("BENCH_") && name.ends_with(".json") && name != BASELINE_FILE
        })
        .collect();
    names.sort();
    for path in &names {
        observations.extend(read_observations(path));
    }
    if observations.is_empty() {
        eprintln!("no BENCH_*.json artifacts found in {}", dir.display());
        std::process::exit(if check { 1 } else { 0 });
    }
    append_history(&dir.join(HISTORY_FILE), &observations);

    let baseline_path = dir.join(BASELINE_FILE);
    let mut baselines = read_baselines(&baseline_path);
    let mut failures = Vec::new();
    println!(
        "{:<18} {:>10} {:<24} {:>10} {:>10} {:>8}  status",
        "bench", "n", "key", "headline", "baseline", "ratio"
    );
    for o in &observations {
        let base = baselines.get(&(o.bench.clone(), o.n, o.key.to_string()));
        let (status, ratio_str) = match base {
            Some(&b) if b > 0.0 => {
                let ratio = o.value / b;
                let status = if ratio >= DEFAULT_GATE {
                    "ok"
                } else {
                    failures.push(format!(
                        "{} (n = {}): {} = {:.4} is below {:.0}% of baseline {:.4}",
                        o.bench,
                        o.n,
                        o.key,
                        o.value,
                        DEFAULT_GATE * 100.0,
                        b
                    ));
                    "REGRESSION"
                };
                (status, format!("{ratio:.3}"))
            }
            _ => ("no-baseline", "-".to_string()),
        };
        println!(
            "{:<18} {:>10} {:<24} {:>10.4} {:>10} {:>8}  {status}",
            o.bench,
            o.n,
            o.key,
            o.value,
            base.map_or("-".to_string(), |b| format!("{b:.4}")),
            ratio_str
        );
    }

    if update {
        for o in &observations {
            baselines.insert((o.bench.clone(), o.n, o.key.to_string()), o.value);
        }
        write_baselines(&baseline_path, &baselines);
        println!(
            "updated {} ({} baselines)",
            baseline_path.display(),
            baselines.len()
        );
    }
    if check && !failures.is_empty() {
        for f in &failures {
            eprintln!("REGRESSION: {f}");
        }
        std::process::exit(1);
    }
    if check {
        println!("trend ok: no headline regressions");
    }
}
