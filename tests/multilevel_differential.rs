//! Grouped-vs-flat splitter differential.
//!
//! The two-level √p-group splitter selection (`hetsort::multilevel`)
//! must be *observationally equivalent* to the paper's flat root-gather
//! on every workload distribution and perf vector: the concatenated
//! sorted output is byte-identical (a sorted multiset is unique), and
//! every node's final share stays within the PSRS theorem's
//! `2·expected + duplicates` bound.
//!
//! Hand-rolled rather than `proptest`-driven because the offline
//! workspace carries no dev-dependencies (see `shape_determinism.rs`
//! for the idiom): the layout property sweep draws node counts from the
//! simulator's own [`sim::Pcg64`] under a fixed master seed, so a
//! failure reproduces exactly.

use cluster::{ClusterSpec, StorageKind};
use hetsort::{
    psrs_external, ExternalPsrsConfig, GroupLayout, LoadBalance, PerfVector, SplitterStrategy,
};
use sim::rng::Rng;
use sim::Pcg64;
use workloads::{generate_to_disk, max_duplicate_count, Benchmark, Layout};

/// Runs the external PSRS pipeline and returns each node's sorted output.
fn run(
    perf: &PerfVector,
    bench: Benchmark,
    n: u64,
    splitter: SplitterStrategy,
    streaming: bool,
) -> cluster::ClusterReport<Vec<u32>> {
    let layouts = Layout::cluster(&perf.shares(n));
    let spec = ClusterSpec::new(perf.as_slice().to_vec())
        .with_storage(StorageKind::Memory)
        .with_block_bytes(1024)
        .with_seed(0xD1FF);
    let cfg = ExternalPsrsConfig::new(perf.clone(), 1 << 12)
        .with_tapes(4)
        .with_msg_records(128)
        .with_streaming_merge(streaming)
        .with_splitter(splitter);
    let bench_seed = 0xD1FF ^ n;
    cluster::run_cluster(&spec, async move |ctx| {
        generate_to_disk(&ctx.disk, "input", bench, bench_seed, layouts[ctx.rank]).unwrap();
        psrs_external::<u32>(ctx, &cfg).await.unwrap();
        ctx.disk.read_file::<u32>("output").unwrap()
    })
}

fn concat(report: &cluster::ClusterReport<Vec<u32>>) -> Vec<u32> {
    report
        .nodes
        .iter()
        .flat_map(|nd| nd.value.iter().copied())
        .collect()
}

/// The perf vectors under test: the paper's loaded cluster (p=4, two
/// groups of two) and a 9-node mixed-speed cluster (p=9, three groups
/// of three — the first non-trivial √p grid).
fn perf_vectors() -> [PerfVector; 2] {
    [
        PerfVector::paper_1144(),
        PerfVector::new(vec![1, 2, 1, 4, 1, 2, 4, 1, 2]),
    ]
}

#[test]
fn grouped_matches_flat_on_every_distribution() {
    for perf in &perf_vectors() {
        let n = perf.padded_size(1_000 * perf.p() as u64);
        for bench in Benchmark::ALL {
            let flat = run(perf, bench, n, SplitterStrategy::Flat, false);
            let grouped = run(perf, bench, n, SplitterStrategy::grouped(), false);
            let f = concat(&flat);
            let g = concat(&grouped);
            assert_eq!(f.len() as u64, n, "{bench:?} p={}: lost records", perf.p());
            assert!(
                g.windows(2).all(|w| w[0] <= w[1]),
                "{bench:?} p={}: grouped output not globally sorted",
                perf.p()
            );
            // A sorted multiset is unique, so the concatenations must be
            // byte-identical even though the per-node cuts may differ.
            assert_eq!(
                f,
                g,
                "{bench:?} p={}: grouped concatenation diverged from flat",
                perf.p()
            );

            // PSRS theorem: within 2x the proportional share plus the
            // duplicate multiplicity (+ the sampling-stride slack).
            let sizes: Vec<u64> = grouped
                .nodes
                .iter()
                .map(|nd| nd.value.len() as u64)
                .collect();
            let lb = LoadBalance::new(sizes, perf);
            let dups = max_duplicate_count(&g);
            let slack = 64 * perf.p() as u64;
            assert!(
                lb.within_psrs_bound(dups + slack),
                "{bench:?} p={}: grouped sizes {:?} exceed 2x+d bound (d={dups})",
                perf.p(),
                lb.sizes
            );

            // On the all-equal distribution the origin tie-break is what
            // spreads the run across nodes: flat sends every record to
            // partition 0, grouped must never do worse.
            if bench == Benchmark::Zero {
                let flat_sizes: Vec<u64> =
                    flat.nodes.iter().map(|nd| nd.value.len() as u64).collect();
                let flat_lb = LoadBalance::new(flat_sizes, perf);
                assert!(
                    lb.expansion() <= flat_lb.expansion() + 1e-9,
                    "Zero p={}: grouped expansion {} worse than flat {}",
                    perf.p(),
                    lb.expansion(),
                    flat_lb.expansion()
                );
            }
        }
    }
}

#[test]
fn grouped_streamed_exchange_stays_correct() {
    // The streamed exchange-merge path composes with grouped selection:
    // tie-broken pivots drive the pump scan, credits stagger the fan-in.
    for perf in &perf_vectors() {
        let n = perf.padded_size(1_000 * perf.p() as u64);
        for bench in [Benchmark::Uniform, Benchmark::Zero] {
            let flat = run(perf, bench, n, SplitterStrategy::Flat, true);
            let grouped = run(perf, bench, n, SplitterStrategy::grouped(), true);
            assert_eq!(
                concat(&flat),
                concat(&grouped),
                "{bench:?} p={}: streamed grouped diverged",
                perf.p()
            );
        }
    }
}

#[test]
fn group_layout_never_exceeds_ceil_balanced_sizes() {
    // Property sweep: for every p the layout forms g = ceil(sqrt(p))
    // groups whose sizes are ceil-balanced — each group holds floor(p/g)
    // or ceil(p/g) members, contiguously, covering every rank once.
    let mut rng = Pcg64::new(0x6e0_0702);
    let check = |p: usize| {
        let layout = GroupLayout::new(p);
        let g = layout.groups();
        assert!(g * g >= p, "p={p}: g={g} too small");
        if g > 1 {
            assert!((g - 1) * (g - 1) < p, "p={p}: g={g} not minimal");
        }
        let floor = p / g;
        let ceil = p.div_ceil(g);
        let mut covered = 0usize;
        for gi in 0..g {
            let members = layout.members(gi);
            assert!(
                members.len() == floor || members.len() == ceil,
                "p={p} group {gi}: size {} outside [{floor}, {ceil}]",
                members.len()
            );
            assert_eq!(members.len(), layout.group_size(gi));
            assert_eq!(members[0], layout.leader(gi));
            for (offset, &rank) in members.iter().enumerate() {
                assert_eq!(rank, covered + offset, "p={p} group {gi}: not contiguous");
                assert_eq!(layout.group_of(rank), gi);
            }
            covered += members.len();
        }
        assert_eq!(covered, p, "p={p}: ranks not covered exactly once");
        assert_eq!(layout.max_group_size(), ceil);
    };
    for p in 1..=128 {
        check(p);
    }
    for _ in 0..500 {
        check(1 + (rng.next_u64() % 4096) as usize);
    }
}
