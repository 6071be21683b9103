//! Differential test of the loser tree against a stable sort.
//!
//! For every fan-in 1..=33 (powers of two and not, with empty sources
//! mixed in) the merge must emit exactly the stable `(record, source,
//! position)` order, and `comparisons()` must equal the classic tree's
//! select count: `k − 1` to build, plus the depth of the producing leaf
//! for every record. Three record types cover the three select paths: `u32`
//! with heavy duplicates (packed-tag compare, equal keys), `u64` runs holding
//! `u64::MAX` (a live key equal to the exhausted sentinel's), and
//! `KeyPayload`, whose keys are not a total order (full-record fallback).

use extsort::{LoserTree, SliceStream};
use pdm::record::KeyPayload;
use pdm::Record;
use sim::rng::{Pcg64, Rng};

/// Sorted sources for fan-in `k`: every third source is empty, source 1
/// spans several leaf blocks, the rest are short.
fn sources<R: Record>(k: usize, rng: &mut Pcg64, gen: impl Fn(&mut Pcg64) -> R) -> Vec<Vec<R>> {
    (0..k)
        .map(|s| {
            let len = match s {
                _ if s % 3 == 2 => 0,
                1 => 9_000,
                _ => rng.below(700) as usize,
            };
            let mut run: Vec<R> = (0..len).map(|_| gen(rng)).collect();
            run.sort();
            run
        })
        .collect()
}

/// The stable `(record, source, position)` order of `runs`.
fn stable_order<R: Record>(runs: &[Vec<R>]) -> Vec<R> {
    let mut all: Vec<(R, usize, usize)> = runs
        .iter()
        .enumerate()
        .flat_map(|(s, run)| run.iter().enumerate().map(move |(i, &r)| (r, s, i)))
        .collect();
    all.sort();
    all.into_iter().map(|(r, _, _)| r).collect()
}

/// The classic tree's select count: `k − 1` to build, then each record
/// replays the path from its leaf (implicit node `leaf + k`) to the root.
fn classic_selects<R>(runs: &[Vec<R>]) -> u64 {
    let k = runs.len().max(1);
    let depth = |leaf: usize| u64::from((leaf + k).ilog2());
    (k as u64 - 1)
        + runs
            .iter()
            .enumerate()
            .map(|(leaf, run)| run.len() as u64 * depth(leaf))
            .sum::<u64>()
}

fn check<R: Record>(seed: u64, gen: impl Fn(&mut Pcg64) -> R) {
    let mut rng = Pcg64::new(seed);
    for k in 1..=33usize {
        let runs = sources(k, &mut rng, &gen);
        let expect = stable_order(&runs);

        let streams = || runs.iter().cloned().map(SliceStream::new).collect();
        let mut pulled = Vec::new();
        let mut tree = LoserTree::new(streams()).unwrap();
        while let Some(r) = tree.next_record().unwrap() {
            pulled.push(r);
        }
        assert!(pulled == expect, "next_record order, fan-in {k}");
        assert_eq!(tree.comparisons(), classic_selects(&runs), "fan-in {k}");

        let mut drained = Vec::new();
        let mut tree = LoserTree::new(streams()).unwrap();
        let n = tree
            .drain_into(|batch| {
                drained.extend_from_slice(batch);
                Ok(())
            })
            .unwrap();
        assert_eq!(n, expect.len() as u64, "fan-in {k}");
        assert!(drained == expect, "drain_into order, fan-in {k}");
        assert_eq!(tree.comparisons(), classic_selects(&runs), "fan-in {k}");
    }
}

#[test]
fn u32_heavy_duplicates() {
    check::<u32>(1, |rng| rng.below(4) as u32);
}

#[test]
fn u64_runs_with_max_keys() {
    const VALUES: [u64; 5] = [0, 1, u64::MAX - 1, u64::MAX, u64::MAX];
    check::<u64>(2, |rng| VALUES[rng.below(VALUES.len() as u64) as usize]);
}

#[test]
fn key_payload_with_non_total_keys() {
    check::<KeyPayload>(3, |rng| KeyPayload::new(rng.below(3), rng.below(5)));
}

#[test]
fn no_sources() {
    let mut tree = LoserTree::new(Vec::<SliceStream<u32>>::new()).unwrap();
    assert_eq!(tree.next_record().unwrap(), None);
    assert_eq!(tree.comparisons(), 0);
}
