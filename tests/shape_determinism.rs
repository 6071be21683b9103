//! Randomized cluster-shape determinism: every run is reproducible
//! bit-for-bit and actually sorts.
//!
//! The fixed-shape suites (`obs_differential`, the runtime unit tests)
//! pin determinism on the paper's 1-1-4-4 cluster. This suite hand-rolls
//! a shape fuzzer over the knobs that change the communication pattern —
//! node count, speed vector, message size, workload distribution, jitter
//! amplitude, staged or streamed exchange — and, for every drawn shape,
//! runs the external PSRS pipeline twice and asserts:
//!
//! * the two runs are bit-identical: sorted outputs, per-node
//!   [`pdm::IoSnapshot`]s, traffic, CPU and wait time, finish times and
//!   the makespan — streamed shapes included, with no tolerance;
//! * the concatenated node outputs equal `sort_unstable` of the generated
//!   input.
//!
//! Hand-rolled rather than `proptest`-driven because the offline
//! workspace carries no dev-dependencies: shapes are drawn from the
//! simulator's own [`sim::Pcg64`] under a fixed master seed, so a failure
//! reproduces exactly and prints the offending shape.

use cluster::{ClusterSpec, StorageKind};
use hetsort::{psrs_external, ExternalPsrsConfig, PerfVector};
use sim::rng::Rng;
use sim::Pcg64;
use workloads::{generate_to_disk, Benchmark, Layout};

/// One drawn cluster shape.
#[derive(Debug, Clone)]
struct Shape {
    perf: Vec<u64>,
    n_per_node: u64,
    msg_records: usize,
    tapes: usize,
    bench: Benchmark,
    seed: u64,
    jitter: f64,
    streaming: bool,
}

fn draw(rng: &mut Pcg64) -> Shape {
    let below = |rng: &mut Pcg64, n: u64| rng.next_u64() % n;
    let p = 2 + below(rng, 4) as usize; // 2..=5 nodes
    let perf: Vec<u64> = (0..p).map(|_| 1 + below(rng, 4)).collect(); // speeds 1..=4
    Shape {
        perf,
        n_per_node: 1_000 + below(rng, 3_000),
        msg_records: (32 << below(rng, 4)) as usize, // 32, 64, 128 or 256
        tapes: 4 + below(rng, 3) as usize,
        bench: Benchmark::from_id(below(rng, Benchmark::ALL.len() as u64) as usize),
        seed: rng.next_u64(),
        jitter: below(rng, 6) as f64 / 100.0, // 0.00..=0.05
        streaming: below(rng, 4) == 0,        // streamed exchange 1 time in 4
    }
}

/// Runs the external PSRS pipeline for `shape`; each node returns its
/// generated input block and its sorted output.
fn run(shape: &Shape) -> cluster::ClusterReport<(Vec<u32>, Vec<u32>)> {
    let declared = PerfVector::new(shape.perf.clone());
    let n = declared.padded_size(shape.n_per_node * shape.perf.len() as u64);
    let layouts = Layout::cluster(&declared.shares(n));
    let spec = ClusterSpec::new(shape.perf.clone())
        .with_storage(StorageKind::Memory)
        .with_block_bytes(1024)
        .with_seed(shape.seed)
        .with_jitter(shape.jitter);
    let cfg = ExternalPsrsConfig::new(declared, 1 << 12)
        .with_tapes(shape.tapes)
        .with_msg_records(shape.msg_records)
        .with_streaming_merge(shape.streaming);
    let bench = shape.bench;
    let seed = shape.seed;
    cluster::run_cluster(&spec, async move |ctx| {
        generate_to_disk(&ctx.disk, "input", bench, seed, layouts[ctx.rank]).unwrap();
        let input = ctx.disk.read_file::<u32>("input").unwrap();
        psrs_external::<u32>(ctx, &cfg).await.unwrap();
        (input, ctx.disk.read_file::<u32>("output").unwrap())
    })
}

#[test]
fn random_shapes_are_deterministic_and_sorted() {
    let mut rng = Pcg64::new(0x5ee1_0702_2002);
    for case in 0..10 {
        let shape = draw(&mut rng);
        let first = run(&shape);
        let second = run(&shape);
        assert_eq!(first.nodes.len(), second.nodes.len());
        assert_eq!(
            first.makespan, second.makespan,
            "case {case}: makespan differs between runs\n{shape:?}"
        );
        let mut input: Vec<u32> = Vec::new();
        let mut merged: Vec<u32> = Vec::new();
        for (rank, (a, b)) in first.nodes.iter().zip(&second.nodes).enumerate() {
            assert_eq!(
                a.value, b.value,
                "case {case} node {rank}: sorted output differs between runs\n{shape:?}"
            );
            assert_eq!(
                a.io, b.io,
                "case {case} node {rank}: IoSnapshot differs between runs\n{shape:?}"
            );
            assert_eq!(
                a.sent_bytes, b.sent_bytes,
                "case {case} node {rank}: traffic differs between runs\n{shape:?}"
            );
            assert_eq!(
                a.finish, b.finish,
                "case {case} node {rank}: finish time differs between runs\n{shape:?}"
            );
            assert_eq!(a.cpu_time, b.cpu_time, "case {case} node {rank}\n{shape:?}");
            assert_eq!(
                a.wait_time, b.wait_time,
                "case {case} node {rank}\n{shape:?}"
            );
            input.extend_from_slice(&a.value.0);
            merged.extend_from_slice(&a.value.1);
        }
        // And the run actually sorted: the concatenated node outputs are
        // exactly the generated input, sorted.
        input.sort_unstable();
        assert_eq!(
            merged, input,
            "case {case}: output is not the sorted input\n{shape:?}"
        );
    }
}
