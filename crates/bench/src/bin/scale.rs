//! Simulator-scalability sweep: p = 4 … 1024 nodes in one process.
//!
//! The cluster runtime multiplexes every node onto one thread and
//! schedules by virtual time, so a park/resume is two `BTreeSet`
//! operations (~100 ns) and messages are usually in the mailbox before
//! the receiver even asks. This bench puts numbers on three parts of
//! that story:
//!
//! * **Throughput** — a synchronization-dominated stress (rounds of
//!   blocking nearest-neighbor ring exchange plus a barrier, with a
//!   fixed compute charge per round). Each round parks every node at
//!   least once, so the wall time measures the scheduling machinery.
//!   `sim_per_wall` — simulated seconds advanced per wall second — is
//!   the figure of merit.
//! * **Phase shares** — the in-core PSRS sort (communication-dominated
//!   sizing, heterogeneous 1-1-4-4 speed pattern) swept over the same
//!   ladder, reporting the simulated makespan share of the splitter sort
//!   (`pivots` phase, the paper's O(p²) sequential bottleneck) and of
//!   the exchange (`redistribute` phase) as p grows.
//! * **Splitter strategies** — every PSRS width runs under both the flat
//!   root-gather (the paper's step 2) and the two-level √p-grouped
//!   selection; grouped rows also report the per-level split timings
//!   (sample gather, leader sort, boundary exchange — the max across
//!   nodes). Flat is swept only to p = 256: past that the root's
//!   `(Σperf)²` sample sort dominates everything, which is exactly the
//!   curve this sweep exists to show. The `grouped_speedup_p256`
//!   headline is the flat/grouped makespan ratio at p = 256.
//!
//! Both workloads cover the full ladder including p = 1024 (PSRS with
//! the grouped splitter only — the one-process scale target).
//!
//! Emits `BENCH_scale.json`.
//!
//! ```sh
//! cargo run --release -p hetsort-bench --bin scale -- --selftest
//! ```

use std::time::Instant;

use cluster::charge::Work;
use cluster::{run_cluster, ClusterSpec, Tag};
use extsort::SortKernel;
use hetsort::incore::PivotStrategy;
use hetsort::{psrs_incore_split, PerfVector, SplitTiming, SplitterStrategy};
use hetsort_bench::{print_table, Args};
use sim::rng::Rng;

/// Cluster widths to sweep.
const P_LADDER: [usize; 5] = [4, 16, 64, 256, 1024];
/// Widest cluster the flat splitter is swept to: the p = 1024 row is the
/// grouped one-process scale target, not a flat O(p²) endurance test.
const FLAT_MAX_P: usize = 256;
/// The width whose PSRS input size is the artifact's `n`, which keys the
/// trend baselines.
const N_KEY_P: usize = 64;
/// The p at which flat and grouped splitter selection are compared.
const GROUPED_P: usize = 256;
/// Selftest gates on the splitter-sort share of the makespan at
/// p = `GROUPED_P`: flat must exhibit the O(p²) wall, grouped must not.
const FLAT_SHARE_FLOOR: f64 = 0.60;
const GROUPED_SHARE_CEIL: f64 = 0.25;

/// The paper's heterogeneity pattern tiled across the cluster: speeds
/// 1,1,4,4,1,1,4,4,…
fn perf_pattern(p: usize) -> Vec<u64> {
    (0..p).map(|i| if i % 4 < 2 { 1 } else { 4 }).collect()
}

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    Ring,
    Psrs,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Ring => "ring",
            Workload::Psrs => "psrs",
        }
    }
}

fn splitter_name(s: SplitterStrategy) -> &'static str {
    if s.is_grouped() {
        "grouped"
    } else {
        "flat"
    }
}

struct Cell {
    workload: Workload,
    p: usize,
    splitter: SplitterStrategy,
    /// Records sorted (PSRS) or rounds executed (ring).
    size: u64,
    makespan_sim: f64,
    wall_secs: f64,
    splitter_share: f64,
    alltoall_share: f64,
    /// Per-level split timings (grouped PSRS rows only): the max across
    /// nodes of each stage's virtual seconds.
    split: Option<SplitTiming>,
}

impl Cell {
    fn sim_per_wall(&self) -> f64 {
        self.makespan_sim / self.wall_secs
    }
}

/// Throughput stress: `rounds` iterations of compute charge + blocking
/// nearest-neighbor ring exchange + barrier. Every round forces a park
/// on every node (the barrier alone guarantees it), so wall time is
/// dominated by the scheduler's park/wake path.
fn run_ring_cell(p: usize, rounds: u32, trials: usize, seed: u64) -> Cell {
    let spec = ClusterSpec::new(perf_pattern(p)).with_seed(seed);
    let mut wall_secs = f64::INFINITY;
    let mut report = None;
    for _ in 0..trials.max(1) {
        let t0 = Instant::now();
        let r = run_cluster(&spec, async move |ctx| {
            let right = (ctx.rank + 1) % ctx.p;
            let left = (ctx.rank + ctx.p - 1) % ctx.p;
            let mut sum = 0u64;
            for round in 0..rounds {
                ctx.charger.charge_work(Work::comparisons(1_000));
                ctx.send(right, Tag::user(7), round.to_le_bytes().to_vec());
                let msg = ctx.recv_from(left, Tag::user(7)).await;
                sum += msg.bytes.iter().map(|&b| b as u64).sum::<u64>();
                ctx.barrier().await;
            }
            sum
        });
        wall_secs = wall_secs.min(t0.elapsed().as_secs_f64());
        report = Some(r);
    }
    let report = report.expect("at least one trial");
    // Every node saw every round's payload from its left neighbor.
    let want: u64 = (0..rounds)
        .map(|r| r.to_le_bytes().iter().map(|&b| b as u64).sum::<u64>())
        .sum();
    for nd in &report.nodes {
        assert_eq!(nd.value, want, "p={p}: ring payload lost");
    }
    Cell {
        workload: Workload::Ring,
        p,
        splitter: SplitterStrategy::Flat,
        size: rounds as u64,
        makespan_sim: report.makespan.as_secs(),
        wall_secs,
        splitter_share: 0.0,
        alltoall_share: 0.0,
        split: None,
    }
}

/// Phase-share cell: in-core PSRS on `p` nodes with the given splitter
/// strategy. Returns the simulated makespan, the
/// best-of-`trials` wall time, the makespan shares of the splitter-sort
/// and exchange phases, and — for grouped rows — the per-level split
/// timings. Output correctness is asserted inline.
fn run_psrs_cell(
    p: usize,
    splitter: SplitterStrategy,
    n_per_node: u64,
    trials: usize,
    seed: u64,
) -> Cell {
    let perf = PerfVector::new(perf_pattern(p));
    let n = perf.padded_size(n_per_node * p as u64);
    let shares = perf.shares(n);
    let spec = ClusterSpec::new(perf_pattern(p)).with_seed(seed);
    let mut wall_secs = f64::INFINITY;
    let mut report = None;
    for _ in 0..trials.max(1) {
        let pv = perf.clone();
        let shares = shares.clone();
        let t0 = Instant::now();
        let r = run_cluster(&spec, async move |ctx| {
            let local: Vec<u32> = (0..shares[ctx.rank]).map(|_| ctx.rng.next_u32()).collect();
            let outcome = psrs_incore_split(
                ctx,
                &pv,
                local,
                PivotStrategy::RegularSampling,
                splitter,
                SortKernel::default(),
            )
            .await;
            (outcome.sorted, outcome.split)
        });
        wall_secs = wall_secs.min(t0.elapsed().as_secs_f64());
        report = Some(r);
    }
    let report = report.expect("at least one trial");

    // Correctness: the concatenated node outputs are the globally sorted
    // sequence of all n generated records.
    let total: usize = report.nodes.iter().map(|nd| nd.value.0.len()).sum();
    assert_eq!(total as u64, n, "p={p}: lost records");
    let mut prev = 0u32;
    for nd in &report.nodes {
        for &x in &nd.value.0 {
            assert!(x >= prev, "p={p}: output not sorted");
            prev = x;
        }
    }

    // Grouped rows report the slowest node's time in each split stage.
    let split = splitter.is_grouped().then(|| {
        let mut agg = SplitTiming::default();
        for nd in &report.nodes {
            let t = nd.value.1.as_ref().expect("grouped run records timings");
            agg.sample_gather_secs = agg.sample_gather_secs.max(t.sample_gather_secs);
            agg.leader_sort_secs = agg.leader_sort_secs.max(t.leader_sort_secs);
            agg.boundary_exchange_secs = agg.boundary_exchange_secs.max(t.boundary_exchange_secs);
        }
        agg
    });

    // Phase shares of the simulated makespan, taken from the slowest
    // node's span of each phase (what the makespan actually sees).
    let makespan_sim = report.makespan.as_secs();
    let share = |name: &str| {
        report
            .phase_breakdown()
            .iter()
            .find(|ph| ph.name == name)
            .map(|ph| ph.max().as_secs() / makespan_sim)
            .unwrap_or_else(|| panic!("p={p}: phase {name:?} missing"))
    };
    Cell {
        workload: Workload::Psrs,
        p,
        splitter,
        size: n,
        makespan_sim,
        wall_secs,
        splitter_share: share("pivots"),
        alltoall_share: share("redistribute"),
        split,
    }
}

fn main() {
    let args = Args::parse();
    // Communication-dominated sizing with un-clamped regular sampling:
    // `perf[i]·Σperf` samples per node exist only when every share holds
    // at least that many records, i.e. n >= (Σperf)² — per node, 6.25·p
    // under the 1,1,4,4 pattern. Below that the sample clamps to the
    // whole block and the flat-vs-grouped comparison degenerates.
    let n_per_node = |p: usize| -> u64 {
        let unclamped = (25 * p as u64).div_ceil(4);
        if args.paper {
            unclamped.max(16_384)
        } else if args.quick {
            unclamped.max(256)
        } else {
            unclamped.max(2_048)
        }
    };
    // Enough ring rounds that one-time cluster setup stops dominating the
    // throughput cells and the per-round park/wake cost shows.
    let rounds: u32 = if args.paper {
        64
    } else if args.quick {
        16
    } else {
        32
    };
    let trials = args.trials.clamp(1, 5);
    let splitters: Vec<SplitterStrategy> = match args.splitter.as_deref() {
        Some("flat") => vec![SplitterStrategy::Flat],
        Some("grouped") => vec![SplitterStrategy::grouped()],
        _ => vec![SplitterStrategy::Flat, SplitterStrategy::grouped()],
    };

    println!(
        "scale sweep: p in {P_LADDER:?}, flat splitter to p <= {FLAT_MAX_P}, perf pattern 1,1,4,4,..., {rounds} ring rounds, best of {trials} trials"
    );

    let mut cells: Vec<Cell> = Vec::new();
    for workload in [Workload::Ring, Workload::Psrs] {
        for &p in &P_LADDER {
            let cell_splitters: &[SplitterStrategy] = match workload {
                Workload::Ring => &[SplitterStrategy::Flat],
                Workload::Psrs => &splitters,
            };
            for &splitter in cell_splitters {
                if workload == Workload::Psrs && !splitter.is_grouped() && p > FLAT_MAX_P {
                    continue;
                }
                let cell = match workload {
                    Workload::Ring => run_ring_cell(p, rounds, trials, args.seed),
                    Workload::Psrs => run_psrs_cell(p, splitter, n_per_node(p), trials, args.seed),
                };
                println!(
                    "  {:>4} p={p:>4} {:>7}  size={:>8}  sim {:>9.3}s  wall {:>8.4}s  \
                     {:>12.0} sim-s/wall-s  pivots {:>5.1}%  exchange {:>5.1}%",
                    workload.name(),
                    splitter_name(cell.splitter),
                    cell.size,
                    cell.makespan_sim,
                    cell.wall_secs,
                    cell.sim_per_wall(),
                    100.0 * cell.splitter_share,
                    100.0 * cell.alltoall_share,
                );
                cells.push(cell);
            }
        }
    }

    let psrs_cell = |p: usize, grouped: bool| {
        cells.iter().find(|c| {
            c.workload == Workload::Psrs && c.p == p && c.splitter.is_grouped() == grouped
        })
    };
    // Flat/grouped makespan ratio at p = 256: > 1 means the
    // two-level selection beats the O(p²) root sort. Only defined when
    // both strategies ran (no --splitter restriction).
    let grouped_speedup = match (psrs_cell(GROUPED_P, false), psrs_cell(GROUPED_P, true)) {
        (Some(flat), Some(grouped)) => Some(flat.makespan_sim / grouped.makespan_sim),
        _ => None,
    };

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.workload.name().into(),
                c.p.to_string(),
                match c.workload {
                    Workload::Psrs => splitter_name(c.splitter).into(),
                    Workload::Ring => "-".to_string(),
                },
                c.size.to_string(),
                format!("{:.3}", c.makespan_sim),
                format!("{:.4}", c.wall_secs),
                format!("{:.0}", c.sim_per_wall()),
                format!("{:.3}", c.splitter_share),
                format!("{:.3}", c.alltoall_share),
            ]
        })
        .collect();
    print_table(
        "Simulator scalability (ring stress + in-core PSRS, perf 1,1,4,4,...)",
        &[
            "workload",
            "p",
            "splitter",
            "size",
            "sim s",
            "wall s",
            "sim-s/wall-s",
            "pivots share",
            "exchange share",
        ],
        &rows,
    );
    if let Some(s) = grouped_speedup {
        println!(
            "grouped vs flat splitter at p = {GROUPED_P} (PSRS): \
             {s:.2}x simulated makespan"
        );
    }

    let n_key = cells
        .iter()
        .find(|c| c.workload == Workload::Psrs && c.p == N_KEY_P)
        .expect("trend-key cell")
        .size;
    let row_json = |c: &Cell| {
        let mut s = format!(
            "    {{\"workload\": \"{}\", \"p\": {}, \"size\": {}, \
             \"makespan_sim_secs\": {:.6}, \"wall_secs\": {:.6}, \"sim_per_wall\": {:.2}",
            c.workload.name(),
            c.p,
            c.size,
            c.makespan_sim,
            c.wall_secs,
            c.sim_per_wall(),
        );
        if c.workload == Workload::Psrs {
            s.push_str(&format!(
                ", \"splitter\": \"{}\", \"splitter_share\": {:.4}, \"alltoall_share\": {:.4}",
                splitter_name(c.splitter),
                c.splitter_share,
                c.alltoall_share
            ));
        }
        if let Some(t) = &c.split {
            s.push_str(&format!(
                ", \"split_sample_gather_secs\": {:.6}, \"split_leader_sort_secs\": {:.6}, \
                 \"split_boundary_exchange_secs\": {:.6}",
                t.sample_gather_secs, t.leader_sort_secs, t.boundary_exchange_secs
            ));
        }
        s.push('}');
        s
    };
    let json_rows: Vec<String> = cells.iter().map(row_json).collect();
    let grouped_headline = grouped_speedup
        .map(|s| format!("  \"grouped_speedup_p256\": {s:.4},\n"))
        .unwrap_or_default();
    let json = format!(
        "{{\n  \"bench\": \"scale\",\n  \"n\": {n_key},\n  \
         \"p_ladder\": [4, 16, 64, 256, 1024],\n  \"flat_max_p\": {FLAT_MAX_P},\n  \
         \"ring_rounds\": {rounds},\n  \"trials\": {trials},\n\
         {grouped_headline}  \"rows\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    std::fs::write("BENCH_scale.json", &json).expect("write BENCH_scale.json");
    println!("wrote BENCH_scale.json");

    if args.selftest {
        for workload in [Workload::Ring, Workload::Psrs] {
            let ps: Vec<usize> = cells
                .iter()
                .filter(|c| {
                    c.workload == workload
                        && (workload == Workload::Ring || c.splitter.is_grouped())
                })
                .map(|c| c.p)
                .collect();
            assert_eq!(
                ps,
                P_LADDER.to_vec(),
                "{}: the sweep must cover the full ladder including p = 1024",
                workload.name()
            );
        }
        for c in &cells {
            assert!(c.sim_per_wall() > 0.0);
            assert!(
                (0.0..=1.0).contains(&c.splitter_share) && (0.0..=1.0).contains(&c.alltoall_share),
                "p={}: phase shares out of range",
                c.p
            );
            if let Some(t) = &c.split {
                assert!(
                    t.sample_gather_secs >= 0.0
                        && t.leader_sort_secs >= 0.0
                        && t.boundary_exchange_secs >= 0.0,
                    "p={}: negative split timings",
                    c.p
                );
            }
        }
        // The whole point of the grouped splitter: at p = 256 the flat
        // root sort eats the makespan, the two-level selection does not.
        if let (Some(flat), Some(grouped)) =
            (psrs_cell(GROUPED_P, false), psrs_cell(GROUPED_P, true))
        {
            assert!(
                flat.splitter_share >= FLAT_SHARE_FLOOR,
                "flat splitter share at p = {GROUPED_P} should exhibit the O(p²) wall \
                 (>= {FLAT_SHARE_FLOOR}), got {:.3}",
                flat.splitter_share
            );
            assert!(
                grouped.splitter_share < GROUPED_SHARE_CEIL,
                "grouped splitter share at p = {GROUPED_P} must stay < {GROUPED_SHARE_CEIL}, \
                 got {:.3}",
                grouped.splitter_share
            );
            assert!(
                grouped.makespan_sim < flat.makespan_sim,
                "grouped selection must beat flat at p = {GROUPED_P}: {} vs {}",
                grouped.makespan_sim,
                flat.makespan_sim
            );
        }
        println!("selftest ok");
    }
}
