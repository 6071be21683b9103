//! Tournament (loser) tree for k-way merging.
//!
//! The classic selection structure for external merging (Knuth §5.4.1):
//! with `k` sorted input streams, producing each output record costs exactly
//! `⌈log₂ k⌉` comparisons — replay the winner's path, recording losers.
//! Exhausted streams are treated as carrying a `+∞` sentinel; ties are
//! broken by stream index, which makes the merge **stable** with respect to
//! input order and therefore deterministic.
//!
//! Three implementation choices keep the inner loop fast without changing any
//! observable behavior:
//!
//! * **Block leaves.** Each leaf buffers a block of its source, filled by
//!   one [`RecordStream::next_block`] call, so the hot loop reads heads out
//!   of a slice instead of calling into the source once per record.
//! * **Packed tags.** Every node stores a `u128` tag `(sort_key, exhausted,
//!   leaf)`: the order-preserving [`Record::sort_key`] in the high 64 bits,
//!   then an exhausted bit, then the leaf index. For `KEY_IS_TOTAL` records
//!   one integer compare decides a select. Only equal keys of live records
//!   whose key is not a total order (e.g. `KeyPayload`, or records without a
//!   usable key, whose tags all carry key 0) fall back to the full
//!   `(record, leaf)` comparison. An exhausted leaf's tag carries key
//!   `u64::MAX` with the exhausted bit set, so it loses to every live record
//!   — including one whose key is also `u64::MAX` — and two exhausted leaves
//!   order by index, as in the classic tree.
//! * **Branch-free replay.** The tree is built iteratively bottom-up (a
//!   `winners` scratch array, no recursion — fan-ins of tens of thousands
//!   of streams cannot overflow the stack), which fills *every* internal
//!   node. Replay therefore needs no "empty node" guard and updates each
//!   node with two cmov-friendly selects instead of a data-dependent
//!   branch.
//!
//! The tree counts its selects in `comparisons`: `k − 1` to build, plus the
//! depth of the producing leaf for every record — the classic
//! implementation's count. The cost models charge CPU time from it (as key
//! ops when a key-based kernel drives the merge), so it must not change.

use std::hint::select_unpredictable;

use pdm::{PdmResult, Record};

use crate::stream::RecordStream;

/// Bytes of records a leaf buffers, and a [`LoserTree::drain_into`] batch
/// holds, at a time.
const BLOCK_BYTES: usize = 16 << 10;

/// [`BLOCK_BYTES`] in records of type `R` (at least one).
fn block_records<R: Record>() -> usize {
    (BLOCK_BYTES / R::SIZE).max(1)
}

/// Tag bit marking an exhausted leaf (bits 64.. hold the key, bits ..63 the
/// leaf index).
const EXHAUSTED: u128 = 1 << 63;

/// A leaf's buffered block: `block[pos..]` are its source's next records.
#[derive(Debug)]
struct Leaf<R> {
    block: Vec<R>,
    pos: usize,
}

/// A k-way merge over sorted [`RecordStream`]s.
#[derive(Debug)]
pub struct LoserTree<R: Record, S: RecordStream<R>> {
    sources: Vec<S>,
    /// One leaf per tree slot (`k` of them; slots past `sources.len()` are
    /// exhausted from the start).
    leaves: Vec<Leaf<R>>,
    /// Internal nodes: `tree[j]` holds the tag of the *loser* at node `j`;
    /// `tree[0]` holds the overall winner's tag.
    tree: Vec<u128>,
    k: usize,
    comparisons: u64,
    produced: u64,
}

/// Packs a live head's tag.
#[inline(always)]
fn live_tag<R: Record>(r: &R, leaf: usize) -> u128 {
    let key = if R::HAS_SORT_KEY { r.sort_key() } else { 0 };
    (u128::from(key) << 64) | leaf as u128
}

/// An exhausted leaf's tag: above every live tag, ordered by leaf index.
fn exhausted_tag(leaf: usize) -> u128 {
    (u128::from(u64::MAX) << 64) | EXHAUSTED | leaf as u128
}

#[inline(always)]
fn leaf_of(tag: u128) -> usize {
    (tag & (EXHAUSTED - 1)) as usize
}

/// Does tag `a` beat (sort before) tag `b`? The packed compare decides
/// unless both are live with equal keys and the key is not a total order;
/// then the heads compare in full, ties broken by leaf index.
#[inline(always)]
fn beats<R: Record>(leaves: &[Leaf<R>], a: u128, b: u128) -> bool {
    let total = R::HAS_SORT_KEY && R::KEY_IS_TOTAL;
    if !total && a >> 63 == b >> 63 && a & EXHAUSTED == 0 {
        let (la, lb) = (&leaves[leaf_of(a)], &leaves[leaf_of(b)]);
        return match la.block[la.pos].cmp(&lb.block[lb.pos]) {
            std::cmp::Ordering::Equal => a < b,
            ord => ord.is_lt(),
        };
    }
    a < b
}

/// `if cond { a } else { b }` without a branch. LLVM lowers a `u128`
/// select to a jump on x86-64, which mispredicts half the time on random
/// keys, so the halves are selected separately.
#[inline(always)]
fn select_tag(cond: bool, a: u128, b: u128) -> u128 {
    let hi = select_unpredictable(cond, (a >> 64) as u64, (b >> 64) as u64);
    let lo = select_unpredictable(cond, a as u64, b as u64);
    (u128::from(hi) << 64) | u128::from(lo)
}

impl<R: Record, S: RecordStream<R>> LoserTree<R, S> {
    /// Builds the tree and primes it with the first block of every source.
    ///
    /// An empty source list is allowed (the merge is immediately exhausted).
    pub fn new(sources: Vec<S>) -> PdmResult<Self> {
        let k = sources.len().max(1);
        let leaves = (0..k)
            .map(|_| Leaf {
                block: Vec::new(),
                pos: 0,
            })
            .collect();
        let mut lt = LoserTree {
            sources,
            leaves,
            tree: vec![0; k],
            k,
            comparisons: 0,
            produced: 0,
        };
        let mut tags = Vec::with_capacity(k);
        for leaf in 0..k {
            tags.push(lt.refill(leaf)?);
        }
        lt.build(&tags);
        Ok(lt)
    }

    /// Initial tournament, bottom-up and iterative: `winners[j]` holds the
    /// winner of the subtree rooted at implicit node `j` (leaves `k..2k`
    /// hold the sources' tags); each internal node stores its loser. `k − 1`
    /// comparisons, O(1) stack regardless of fan-in.
    fn build(&mut self, tags: &[u128]) {
        let k = self.k;
        let mut winners = vec![0u128; 2 * k];
        winners[k..].copy_from_slice(tags);
        for node in (1..k).rev() {
            let (left, right) = (winners[2 * node], winners[2 * node + 1]);
            let (winner, loser) = if beats(&self.leaves, left, right) {
                (left, right)
            } else {
                (right, left)
            };
            self.tree[node] = loser;
            winners[node] = winner;
        }
        self.tree[0] = winners[1];
        self.comparisons += k as u64 - 1;
    }

    /// Loads the next block of `leaf`'s source and returns the leaf's new
    /// tag (exhausted when the source has no records left).
    #[inline(never)]
    fn refill(&mut self, leaf: usize) -> PdmResult<u128> {
        let l = &mut self.leaves[leaf];
        l.pos = 0;
        if let Some(s) = self.sources.get_mut(leaf) {
            s.next_block(&mut l.block, block_records::<R>())?;
        }
        Ok(match l.block.first() {
            Some(r) => live_tag(r, leaf),
            None => exhausted_tag(leaf),
        })
    }

    /// Pops the smallest head record, advancing its leaf and replaying the
    /// leaf's path to the root.
    #[inline(always)]
    fn pop(&mut self) -> PdmResult<Option<R>> {
        let tag = self.tree[0];
        if tag & EXHAUSTED != 0 {
            // The winner is exhausted only when every leaf is.
            return Ok(None);
        }
        let leaf = leaf_of(tag);
        let l = &mut self.leaves[leaf];
        let out = l.block[l.pos];
        l.pos += 1;
        let mut cand = match l.block.get(l.pos) {
            Some(r) => live_tag(r, leaf),
            None => self.refill(leaf)?,
        };
        let mut node = (leaf + self.k) / 2;
        let mut depth = 0;
        while node >= 1 {
            // Every internal node is filled after build(), so no empty-node
            // guard: two selects, kept branch-free because the outcome is a
            // coin flip on random keys.
            let stored = self.tree[node];
            let stored_wins = beats(&self.leaves, stored, cand);
            self.tree[node] = select_tag(stored_wins, cand, stored);
            cand = select_tag(stored_wins, stored, cand);
            node /= 2;
            depth += 1;
        }
        self.tree[0] = cand;
        self.comparisons += depth;
        self.produced += 1;
        Ok(Some(out))
    }

    /// Pops the smallest head record.
    pub fn next_record(&mut self) -> PdmResult<Option<R>> {
        self.pop()
    }

    /// Drains the whole merge, handing the output to `sink` in order as
    /// slices of one reused buffer. Returns the records drained; a sink
    /// error stops the merge and is returned.
    pub fn drain_into<F>(&mut self, mut sink: F) -> PdmResult<u64>
    where
        F: FnMut(&[R]) -> PdmResult<()>,
    {
        let cap = block_records::<R>();
        let mut out = Vec::with_capacity(cap);
        let mut drained = 0u64;
        loop {
            while out.len() < cap {
                match self.pop()? {
                    Some(r) => out.push(r),
                    None => break,
                }
            }
            if !out.is_empty() {
                drained += out.len() as u64;
                sink(&out)?;
            }
            if out.len() < cap {
                return Ok(drained);
            }
            out.clear();
        }
    }

    /// Ends the merge and hands back its sources.
    pub fn into_sources(self) -> Vec<S> {
        self.sources
    }

    /// Comparisons performed so far (tournament selects; each is one packed
    /// tag compare plus, on equal keys of non-total records only, one full
    /// record comparison).
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// Records produced so far.
    pub fn produced(&self) -> u64 {
        self.produced
    }

    /// Number of input streams.
    pub fn fan_in(&self) -> usize {
        self.sources.len()
    }
}

impl<R: Record, S: RecordStream<R>> RecordStream<R> for LoserTree<R, S> {
    fn next_record(&mut self) -> PdmResult<Option<R>> {
        self.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::SliceStream;

    fn merge_all(inputs: Vec<Vec<u32>>) -> Vec<u32> {
        let sources: Vec<_> = inputs.into_iter().map(SliceStream::new).collect();
        let mut lt = LoserTree::new(sources).unwrap();
        let mut out = Vec::new();
        while let Some(x) = lt.next_record().unwrap() {
            out.push(x);
        }
        out
    }

    #[test]
    fn merges_two_sorted_runs() {
        assert_eq!(
            merge_all(vec![vec![1, 3, 5], vec![2, 4, 6]]),
            vec![1, 2, 3, 4, 5, 6]
        );
    }

    #[test]
    fn merges_many_runs_with_duplicates() {
        let out = merge_all(vec![
            vec![1, 1, 8],
            vec![1, 5, 5],
            vec![0, 9],
            vec![],
            vec![5],
        ]);
        assert_eq!(out, vec![0, 1, 1, 1, 5, 5, 5, 8, 9]);
    }

    #[test]
    fn single_source_passthrough() {
        assert_eq!(merge_all(vec![vec![2, 4, 9]]), vec![2, 4, 9]);
    }

    #[test]
    fn no_sources() {
        assert_eq!(merge_all(vec![]), Vec::<u32>::new());
    }

    #[test]
    fn all_empty_sources() {
        assert_eq!(merge_all(vec![vec![], vec![], vec![]]), Vec::<u32>::new());
    }

    #[test]
    fn skewed_lengths() {
        let long: Vec<u32> = (0..1000).map(|i| i * 2).collect();
        let short = vec![1u32, 999, 1999];
        let mut expect = [long.clone(), short.clone()].concat();
        expect.sort_unstable();
        assert_eq!(merge_all(vec![long, short]), expect);
    }

    #[test]
    fn comparison_count_is_logarithmic() {
        // k=16 runs of 64 each: ~ n * log2(k) = 1024 * 4 comparisons.
        let inputs: Vec<Vec<u32>> = (0..16)
            .map(|s| (0..64).map(|i| (i * 16 + s) as u32).collect())
            .collect();
        let sources: Vec<_> = inputs.into_iter().map(SliceStream::new).collect();
        let mut lt = LoserTree::new(sources).unwrap();
        while lt.next_record().unwrap().is_some() {}
        assert_eq!(lt.produced(), 1024);
        let per_record = lt.comparisons() as f64 / 1024.0;
        assert!(
            per_record <= 5.0,
            "expected ~log2(16)=4 comparisons per record, got {per_record}"
        );
    }

    #[test]
    fn deterministic_with_equal_keys() {
        // Two identical merges must produce identical sequences.
        let a = merge_all(vec![vec![7; 10], vec![7; 10], vec![7; 3]]);
        let b = merge_all(vec![vec![7; 10], vec![7; 10], vec![7; 3]]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 23);
    }

    #[test]
    fn non_power_of_two_fanin() {
        for k in [3usize, 5, 6, 7, 9, 11, 13] {
            let inputs: Vec<Vec<u32>> = (0..k)
                .map(|s| (0..50).map(|i| (i * k + s) as u32).collect())
                .collect();
            let merged = merge_all(inputs);
            let expect: Vec<u32> = (0..(50 * k) as u32).collect();
            assert_eq!(merged, expect, "fan-in {k}");
        }
    }

    #[test]
    fn max_key_records_not_confused_with_exhaustion() {
        // u64::MAX is a *valid* live key and collides with the exhausted
        // sentinel's key; the exhausted bit must disambiguate.
        let inputs = vec![
            vec![1u64, u64::MAX, u64::MAX],
            vec![u64::MAX],
            vec![0, 2, u64::MAX - 1],
        ];
        let sources: Vec<_> = inputs.clone().into_iter().map(SliceStream::new).collect();
        let mut lt = LoserTree::new(sources).unwrap();
        let mut out = Vec::new();
        while let Some(x) = lt.next_record().unwrap() {
            out.push(x);
        }
        let mut expect: Vec<u64> = inputs.concat();
        expect.sort_unstable();
        assert_eq!(out, expect);
    }

    #[test]
    fn drain_into_matches_next_record_across_batches() {
        // Enough records to span several leaf blocks and output batches.
        let inputs: Vec<Vec<u32>> = (0..5u32)
            .map(|s| (0..20_000).map(|i| i * 5 + s).collect())
            .collect();
        let expect = merge_all(inputs.clone());
        let sources: Vec<_> = inputs.into_iter().map(SliceStream::new).collect();
        let mut lt = LoserTree::new(sources).unwrap();
        let mut out = Vec::new();
        let n = lt
            .drain_into(|b| {
                out.extend_from_slice(b);
                Ok(())
            })
            .unwrap();
        assert_eq!(n, expect.len() as u64);
        assert_eq!(out, expect);
        assert_eq!(lt.next_record().unwrap(), None);
    }

    #[test]
    fn drain_into_stops_on_sink_error() {
        let inputs: Vec<Vec<u32>> = vec![(0..50_000).collect(), (0..50_000).collect()];
        let sources: Vec<_> = inputs.into_iter().map(SliceStream::new).collect();
        let mut lt = LoserTree::new(sources).unwrap();
        let mut calls = 0;
        let err = lt
            .drain_into(|_| {
                calls += 1;
                Err(pdm::PdmError::InvalidConfig("sink closed".into()))
            })
            .unwrap_err();
        assert!(matches!(err, pdm::PdmError::InvalidConfig(_)), "{err}");
        assert_eq!(calls, 1, "the merge must stop at the first sink error");
    }

    #[test]
    fn huge_fanin_64ki_streams() {
        // Regression for the recursive tournament build: 64 Ki streams must
        // build and merge without blowing the stack.
        let k = 1usize << 16;
        let sources: Vec<_> = (0..k).map(|s| SliceStream::new(vec![s as u32])).collect();
        let mut lt = LoserTree::new(sources).unwrap();
        let mut prev = None;
        let mut n = 0u64;
        while let Some(x) = lt.next_record().unwrap() {
            assert!(prev <= Some(x), "out of order at record {n}");
            prev = Some(x);
            n += 1;
        }
        assert_eq!(n, k as u64);
        assert_eq!(lt.produced(), k as u64);
    }
}
