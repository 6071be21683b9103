//! Differential tests for the block layer's two decode paths: the in-place
//! `&[R]` block views that POD records take, and the per-record fallback
//! that records without a POD layout, big-endian hosts and misaligned
//! buffers take. `Staged<R>` forwards `R`'s encoding, order and sort key but
//! keeps the `None` view defaults, so sorting `Staged<u32>` runs the same
//! engine on the fallback path. The two must be *observationally
//! identical* — byte-identical output files, identical metered
//! [`pdm::IoStats`] and, for kernels that do not partition through byte
//! views, identical select counts — across every benchmark
//! distribution, both record shapes (plain `u32` and the non-total-key
//! `KeyPayload`), pipelined and sequential formation, file-backed disks and
//! deliberately unaligned memory/block geometries that force partial final
//! blocks and mid-block staging.
//!
//! Like `kernel_differential`, the "proptest" is a fixed-seed PCG sweep so
//! failures replay deterministically (the `proptest` crate is not vendored).

use extsort::{
    balanced_kway_sort, fingerprint_file, is_sorted_file, polyphase_sort, ExtSortConfig,
    PipelineConfig, SortKernel,
};
use pdm::record::KeyPayload;
use pdm::{Disk, IoSnapshot, Record, ScratchDir};
use sim::rng::{Pcg64, Rng};
use workloads::{generate_whole, Benchmark};

/// `R` with encoding, order and sort key forwarded but the `None`
/// `view_slice`/`view_bytes` defaults kept: every block it touches goes
/// through the per-record fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Staged<R>(R);

impl<R: Record> Record for Staged<R> {
    const SIZE: usize = R::SIZE;
    const HAS_SORT_KEY: bool = R::HAS_SORT_KEY;
    const KEY_IS_TOTAL: bool = R::KEY_IS_TOTAL;

    fn sort_key(&self) -> u64 {
        self.0.sort_key()
    }

    fn write_to(&self, buf: &mut [u8]) {
        self.0.write_to(buf);
    }

    fn read_from(buf: &[u8]) -> Self {
        Staged(R::read_from(buf))
    }
}

fn staged<R: Record>(data: &[R]) -> Vec<Staged<R>> {
    data.iter().copied().map(Staged).collect()
}

/// Runs `f` on a fresh in-memory disk pre-loaded with `data` under `in`,
/// returning the disk, result, and I/O delta.
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
fn polyphase_view_matches_fallback_all_distributions() {
    for bench in Benchmark::ALL {
        let data = generate_whole(bench, 0x10CC, &[2000]);
        let cfg = ExtSortConfig::new(128).with_tapes(4);
        let (d_view, r_view, io_view) = metered(64, &data, |d| {
            polyphase_sort::<u32>(d, "in", "out", "pp", &cfg).unwrap()
        });
        let (d, r, io) = metered(64, &staged(&data), |d| {
            polyphase_sort::<Staged<u32>>(d, "in", "out", "pp", &cfg).unwrap()
        });
        assert_eq!(io, io_view, "{bench}: I/O counters differ");
        assert_eq!(r.io, r_view.io, "{bench}: reported I/O differs");
        assert_eq!(r.comparisons, r_view.comparisons, "{bench}");
        assert_eq!(r.key_ops, r_view.key_ops, "{bench}");
        assert_eq!(
            d.read_file::<u32>("out").unwrap(),
            d_view.read_file::<u32>("out").unwrap(),
            "{bench}: output bytes differ"
        );
    }
}

#[test]
fn keyed_payloads_view_matches_fallback_with_pipeline() {
    // 16-byte records with duplicate-heavy non-total keys, pipelined
    // formation: the view path and the fallback must not perturb record
    // order or metering.
    let mut rng = Pcg64::new(0x0DEC);
    let data: Vec<KeyPayload> = (0..1500)
        .map(|_| KeyPayload::new(rng.next_u64() % 24, rng.next_u64()))
        .collect();
    for workers in [1usize, 3] {
        let mut cfg = ExtSortConfig::new(200).with_tapes(5);
        if workers > 1 {
            cfg = cfg.with_pipeline(PipelineConfig::with_workers(workers));
        }
        let (d_view, r_view, io_view) = metered(256, &data, |d| {
            polyphase_sort::<KeyPayload>(d, "in", "out", "pp", &cfg).unwrap()
        });
        let (d, r, io) = metered(256, &staged(&data), |d| {
            polyphase_sort::<Staged<KeyPayload>>(d, "in", "out", "pp", &cfg).unwrap()
        });
        assert_eq!(io, io_view, "workers {workers}: I/O differs");
        assert_eq!(r.records, r_view.records, "workers {workers}");
        assert_eq!(r.comparisons, r_view.comparisons, "workers {workers}");
        assert_eq!(
            d.read_file::<KeyPayload>("out").unwrap(),
            d_view.read_file::<KeyPayload>("out").unwrap(),
            "workers {workers}: output bytes differ"
        );
    }
}

#[test]
fn unaligned_boundaries_view_matches_fallback() {
    // Geometries chosen so the final block of every file is partial and
    // memory loads straddle block boundaries: n is coprime to the
    // records-per-block, and the memory budget is not a multiple of it.
    for (block, n, mem) in [
        (64usize, 997u64, 101usize),
        (96, 1531, 149),
        (256, 2039, 333),
    ] {
        let data = generate_whole(Benchmark::Uniform, 0xA11A, &[n]);
        let cfg = ExtSortConfig::new(mem).with_tapes(3);
        let (d_view, _, io_view) = metered(block, &data, |d| {
            polyphase_sort::<u32>(d, "in", "out", "pp", &cfg).unwrap()
        });
        let (d, _, io) = metered(block, &staged(&data), |d| {
            polyphase_sort::<Staged<u32>>(d, "in", "out", "pp", &cfg).unwrap()
        });
        assert_eq!(io, io_view, "block={block}, n={n}: I/O differs");
        assert_eq!(
            d.read_file::<u32>("out").unwrap(),
            d_view.read_file::<u32>("out").unwrap(),
            "block={block}, n={n}: output bytes differ"
        );
        // Verification helpers scan through block views or, for `Staged`,
        // one decoded record at a time; their answers must agree.
        assert!(is_sorted_file::<u32>(&d_view, "out").unwrap());
        assert!(is_sorted_file::<Staged<u32>>(&d, "out").unwrap());
        assert_eq!(
            fingerprint_file::<Staged<u32>>(&d, "out").unwrap(),
            fingerprint_file::<u32>(&d_view, "out").unwrap(),
            "block={block}, n={n}: fingerprint differs"
        );
    }
}

#[test]
fn file_backed_disks_view_matches_fallback() {
    // Same contract on real files, with prefetch and write-behind workers.
    let data = generate_whole(Benchmark::ZipfDuplicates, 0xF11E, &[1800]);
    let cfg = ExtSortConfig::new(160)
        .with_tapes(4)
        .with_pipeline(PipelineConfig::with_workers(2));
    fn run<R: Record>(data: &[R], cfg: &ExtSortConfig) -> (Vec<u32>, u64, IoSnapshot) {
        let scratch = ScratchDir::new("block-view-diff").unwrap();
        let disk = Disk::on_files(scratch.path(), 64);
        disk.write_file("in", data).unwrap();
        let before = disk.stats().snapshot();
        let r = balanced_kway_sort::<R>(&disk, "in", "out", "j", cfg).unwrap();
        let io = disk.stats().snapshot().delta(&before);
        (disk.read_file::<u32>("out").unwrap(), r.records, io)
    }
    let (out_view, records_view, io_view) = run(&data, &cfg);
    let (out, records, io) = run(&staged(&data), &cfg);
    assert_eq!(io, io_view, "I/O differs on files");
    assert_eq!(records, records_view);
    assert_eq!(out, out_view, "output bytes differ on files");
}

#[test]
fn seeded_random_geometries_view_matches_fallback() {
    // Proptest-style sweep: random distribution, size, tapes, block size,
    // memory budget, workers, and kernel; the fallback must match the view
    // path exactly.
    let mut rng = Pcg64::new(0xC0DE);
    for case in 0..16 {
        let bench = Benchmark::from_id((rng.next_u64() % 9) as usize);
        let n = 200 + (rng.next_u64() % 2000) as usize;
        let tapes = 3 + (rng.next_u64() % 4) as usize;
        let block = 64usize << (rng.next_u64() % 3);
        let rpb = block / 4;
        let mem = (tapes * rpb).max(32 + (rng.next_u64() % 200) as usize);
        let workers = 1 + (rng.next_u64() % 3) as usize;
        let kernel = [SortKernel::Radix, SortKernel::Ips4o, SortKernel::Comparison]
            [(rng.next_u64() % 3) as usize];
        let data = generate_whole(bench, rng.next_u64(), &[n as u64]);
        let cfg = ExtSortConfig::new(mem)
            .with_tapes(tapes)
            .with_kernel(kernel)
            .with_pipeline(PipelineConfig::with_workers(workers));
        let (d_view, r_view, io_view) = metered(block, &data, |d| {
            polyphase_sort::<u32>(d, "in", "out", "pp", &cfg).unwrap()
        });
        let (d, r, io) = metered(block, &staged(&data), |d| {
            polyphase_sort::<Staged<u32>>(d, "in", "out", "pp", &cfg).unwrap()
        });
        let ctx = format!(
            "case {case}: {bench}, {}, n={n}, mem={mem}, tapes={tapes}, block={block}, \
             workers={workers}",
            kernel.name()
        );
        assert_eq!(io, io_view, "{ctx}: I/O differs");
        // ips4o partitions through byte views; a record without one sorts
        // its chunks with the comparison kernel instead, which counts
        // different work for the same output.
        if kernel != SortKernel::Ips4o {
            assert_eq!(r.comparisons, r_view.comparisons, "{ctx}");
            assert_eq!(r.key_ops, r_view.key_ops, "{ctx}");
        }
        assert_eq!(
            d.read_file::<u32>("out").unwrap(),
            d_view.read_file::<u32>("out").unwrap(),
            "{ctx}: output bytes differ"
        );
    }
}
