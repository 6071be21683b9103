//! Differential test: the phase-span tracer must be a pure observer.
//!
//! Runs the full external PSRS pipeline on the paper's loaded 4-node
//! cluster twice — tracing off and tracing on — and asserts the two runs
//! are observationally identical: byte-identical sorted outputs, identical
//! per-node I/O counters, identical virtual finish times and network
//! traffic. The tracer only *reads* the virtual clock; if it ever charged
//! time or drew jitter, the clocks (and therefore the deterministic
//! per-node RNG streams) would diverge and this test would catch it.
//!
//! The same pairing covers the critical-path recorder: every exchange
//! variant (staged, fused, streamed, parallel merge) must keep tracing
//! invisible AND produce a blame attribution that tiles the run — blame
//! categories sum to the end-to-end virtual time within 1%, and a what-if
//! replay that zeroes no category reproduces it exactly.
//!
//! The cluster schedule is a pure function of virtual time, so every
//! variant — the streamed exchange-merge included — must match bit-exactly,
//! with no tolerance.

use std::sync::OnceLock;

use cluster::{ClusterReport, ClusterSpec, StorageKind};
use hetsort::{psrs_external, ExternalPsrsConfig, PerfVector};
use workloads::{generate_to_disk, Benchmark, Layout};

const PHASES: [&str; 5] = ["local-sort", "pivots", "partition", "redistribute", "merge"];

#[derive(Clone, Copy, Debug)]
struct Variant {
    name: &'static str,
    fused: bool,
    streaming: bool,
    merge_workers: usize,
}

const VARIANTS: [Variant; 4] = [
    Variant {
        name: "staged",
        fused: false,
        streaming: false,
        merge_workers: 1,
    },
    Variant {
        name: "fused",
        fused: true,
        streaming: false,
        merge_workers: 1,
    },
    Variant {
        name: "streamed",
        fused: false,
        streaming: true,
        merge_workers: 1,
    },
    Variant {
        name: "parmerge",
        fused: false,
        streaming: false,
        merge_workers: 4,
    },
];

/// Per-node result: the virtual clock at the end of the sort (before the
/// verification read of the output file) and the full sorted output.
type SortOutcome = (f64, Vec<u32>);

fn run(tracing: bool, v: Variant) -> ClusterReport<SortOutcome> {
    let declared = PerfVector::paper_1144();
    let hardware = vec![1u64, 1, 4, 4];
    let n = declared.padded_size(20_000);
    let shares = declared.shares(n);
    let layouts = Layout::cluster(&shares);
    let spec = ClusterSpec::new(hardware)
        .with_storage(StorageKind::Memory)
        .with_block_bytes(1024)
        .with_seed(42)
        .with_jitter(0.03) // non-zero so an extra RNG draw would be visible
        .with_tracing(tracing);
    let pipeline = if v.merge_workers > 1 {
        extsort::PipelineConfig::off().with_merge_workers(v.merge_workers)
    } else {
        extsort::PipelineConfig::off()
    };
    let cfg = ExternalPsrsConfig {
        perf: declared,
        mem_records: 1 << 12,
        tapes: 6,
        msg_records: 512,
        input: "input".into(),
        output: "output".into(),
        fused_redistribution: v.fused,
        streaming_merge: v.streaming,
        pipeline,
        kernel: extsort::SortKernel::default(),
        splitter: hetsort::SplitterStrategy::Flat,
    };
    cluster::run_cluster(&spec, async move |ctx| {
        generate_to_disk(
            &ctx.disk,
            "input",
            Benchmark::Uniform,
            42,
            layouts[ctx.rank],
        )
        .unwrap();
        ctx.reset_timing().await;
        psrs_external::<u32>(ctx, &cfg).await.unwrap();
        // The sort's end-to-end virtual time, before the output read below
        // (which is test verification, not part of the algorithm's window).
        let sort_end = ctx.charger.now().as_secs();
        // Return the node's full sorted output so the byte-level
        // comparison happens outside the cluster.
        (sort_end, ctx.disk.read_file::<u32>("output").unwrap())
    })
}

/// The critical-path invariants every traced configuration must satisfy:
/// the path spans the full run, blame tiles it within 1%, and the
/// no-category what-if replay is exact.
fn assert_critpath_invariants(report: &ClusterReport<SortOutcome>, variant: &str) {
    let obs = report.cluster_obs();
    for node in &obs.nodes {
        assert!(
            !node.phase_costs.is_empty(),
            "{variant}: node {} recorded no phase costs under tracing",
            node.node
        );
    }
    let path = obs::critical_path(&obs)
        .unwrap_or_else(|| panic!("{variant}: no critical path from a traced run"));
    // End-to-end virtual time of the sort itself: the report makespan also
    // covers the harness's post-sort output read, so use the clock each
    // node snapshot right after `psrs_external` returned.
    let total = report
        .nodes
        .iter()
        .map(|n| n.value.0)
        .fold(0.0f64, f64::max);
    assert!(
        (path.makespan - total).abs() <= 0.01 * total,
        "{variant}: path makespan {:.6} vs end-to-end virtual time {total:.6}",
        path.makespan
    );
    let err = path.blame_sum_rel_err();
    assert!(
        err <= 0.01,
        "{variant}: blame must sum to the makespan within 1%, rel err {err:.3e}"
    );
    let replay = obs::estimate_without(&path, None);
    assert!(
        replay == path.makespan,
        "{variant}: no-category what-if replay must be exact: {replay} vs {}",
        path.makespan
    );
    // Segments tile [0, makespan] contiguously.
    let first = path.segments.first().unwrap();
    let last = path.segments.last().unwrap();
    assert!(first.start.abs() < 1e-9, "{variant}: path must start at 0");
    assert!(
        (last.end - path.makespan).abs() < 1e-9,
        "{variant}: path must end at the makespan"
    );
    for pair in path.segments.windows(2) {
        assert!(
            (pair[0].end - pair[1].start).abs() < 1e-9,
            "{variant}: segments must tile contiguously"
        );
    }
    let json = obs::critpath_json(&path);
    obs::validate(&json).unwrap_or_else(|e| panic!("{variant}: critpath JSON must be valid: {e}"));
}

/// The staged run's traced report must show all five Algorithm 1 phases
/// per node, and both exporters must produce valid JSON containing them.
fn assert_exports_every_phase(report: &ClusterReport<SortOutcome>) {
    let obs = report.cluster_obs();
    for node in &obs.nodes {
        let names: Vec<&str> = node.phases().map(|s| s.name).collect();
        for phase in PHASES {
            assert!(
                names.contains(&phase),
                "node {}: phase span {phase:?} missing (has {names:?})",
                node.node
            );
        }
        // Phase spans carry virtual time matching the recorded marks.
        assert!(node.virt_end() > 0.0);
    }
    let trace = obs::chrome_trace(&obs);
    obs::validate(&trace).expect("chrome trace must be valid JSON");
    let metrics = obs::metrics_json(&obs);
    obs::validate(&metrics).expect("metrics must be valid JSON");
    for phase in PHASES {
        assert!(trace.contains(phase), "trace missing {phase}");
        assert!(metrics.contains(phase), "metrics missing {phase}");
    }
}

/// One untraced/traced pair per exchange variant, run once and shared by
/// the tests below; each test checks one facet of every pair.
type Pair = (
    Variant,
    ClusterReport<SortOutcome>,
    ClusterReport<SortOutcome>,
);

fn pairs() -> &'static [Pair] {
    static PAIRS: OnceLock<Vec<Pair>> = OnceLock::new();
    PAIRS.get_or_init(|| {
        VARIANTS
            .iter()
            .map(|&v| (v, run(false, v), run(true, v)))
            .collect()
    })
}

#[test]
fn tracing_is_observationally_invisible() {
    for (v, off, on) in pairs() {
        assert_eq!(off.nodes.len(), on.nodes.len());
        for (a, b) in off.nodes.iter().zip(&on.nodes) {
            assert_eq!(a.value, b.value, "{}: outcome differs", v.name);
            assert_eq!(a.io, b.io, "{}: I/O counters differ", v.name);
            assert_eq!(a.sent_bytes, b.sent_bytes, "{}: traffic differs", v.name);
        }

        // The untraced run must carry no observability data at all —
        // spans, metrics AND the critical-path cost records.
        for node in &off.nodes {
            assert!(node.obs.spans.is_empty(), "{}: untraced spans", v.name);
            assert!(node.obs.metrics.is_empty(), "{}: untraced metrics", v.name);
            assert!(
                node.obs.phase_costs.is_empty(),
                "{}: untraced costs",
                v.name
            );
        }

        if v.name == "staged" {
            assert_exports_every_phase(on);
        }
    }
}

#[test]
fn event_runtime_is_timing_exact_on_every_variant() {
    // The event runtime is the cluster's only scheduler and a pure
    // function of virtual time: every variant — the streamed
    // exchange-merge included — must have bit-identical clocks between
    // its traced and untraced runs.
    for (v, off, on) in pairs() {
        assert_eq!(
            off.makespan, on.makespan,
            "{}: makespan changed under tracing",
            v.name
        );
        for (a, b) in off.nodes.iter().zip(&on.nodes) {
            assert_eq!(a.finish, b.finish, "{}: finish time differs", v.name);
            assert_eq!(a.cpu_time, b.cpu_time, "{}: cpu time differs", v.name);
            assert_eq!(a.io_time, b.io_time, "{}: io time differs", v.name);
            assert_eq!(a.wait_time, b.wait_time, "{}: wait time differs", v.name);
            assert_eq!(a.phases.len(), b.phases.len());
            for (pa, pb) in a.phases.iter().zip(&b.phases) {
                assert_eq!(pa.name, pb.name);
                assert_eq!(pa.at, pb.at, "{}: phase stamp {} moved", v.name, pa.name);
            }
        }
    }
}

#[test]
fn critpath_recorder_is_invisible_on_every_variant() {
    // Every exchange variant's traced run must record a blame attribution
    // that tiles the run; the untraced run records no cost at all.
    for (v, off, on) in pairs() {
        for node in &off.nodes {
            assert!(
                node.obs.phase_costs.is_empty(),
                "{}: untraced costs",
                v.name
            );
        }
        assert_critpath_invariants(on, v.name);
    }
}
