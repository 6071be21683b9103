//! Fallible record streams, and the writer file-backed merges feed.
//!
//! The merge machinery is generic over where records come from: a block
//! file, an in-memory slice (tests), a *bounded view* of the next `L`
//! records of a stream, or a merge worker's slice of one input (see
//! [`crate::parallel_merge`]).

use pdm::{
    BlockReader, BlockWriter, BufferPool, Disk, PdmError, PdmResult, Record, WriteBehindWriter,
};

use crate::config::PipelineConfig;

/// A fallible source of records, like `Iterator` but with I/O errors.
pub trait RecordStream<R: Record> {
    /// Returns the next record, or `None` when exhausted.
    fn next_record(&mut self) -> PdmResult<Option<R>>;

    /// Replaces the contents of `buf` with the stream's next records — at
    /// most `max` of them, and none only when the stream is exhausted — and
    /// returns how many it read. Block-buffered sources override this with
    /// a bulk copy; the default pulls [`RecordStream::next_record`].
    fn next_block(&mut self, buf: &mut Vec<R>, max: usize) -> PdmResult<usize> {
        buf.clear();
        while buf.len() < max {
            match self.next_record()? {
                Some(r) => buf.push(r),
                None => break,
            }
        }
        Ok(buf.len())
    }
}

impl<R: Record, S: RecordStream<R>> RecordStream<R> for &mut S {
    fn next_record(&mut self) -> PdmResult<Option<R>> {
        (**self).next_record()
    }

    fn next_block(&mut self, buf: &mut Vec<R>, max: usize) -> PdmResult<usize> {
        (**self).next_block(buf, max)
    }
}

impl<R: Record> RecordStream<R> for BlockReader<R> {
    fn next_record(&mut self) -> PdmResult<Option<R>> {
        BlockReader::next_record(self)
    }

    fn next_block(&mut self, buf: &mut Vec<R>, max: usize) -> PdmResult<usize> {
        buf.clear();
        self.read_into(buf, max)
    }
}

/// An in-memory stream over a vector of records (mainly for tests and for
/// merging in-core chunks).
#[derive(Debug)]
pub struct SliceStream<R> {
    data: Vec<R>,
    pos: usize,
}

impl<R: Record> SliceStream<R> {
    /// Wraps a vector as a stream.
    pub fn new(data: Vec<R>) -> Self {
        SliceStream { data, pos: 0 }
    }
}

impl<R: Record> RecordStream<R> for SliceStream<R> {
    fn next_record(&mut self) -> PdmResult<Option<R>> {
        if self.pos < self.data.len() {
            let r = self.data[self.pos];
            self.pos += 1;
            Ok(Some(r))
        } else {
            Ok(None)
        }
    }

    fn next_block(&mut self, buf: &mut Vec<R>, max: usize) -> PdmResult<usize> {
        let take = (self.data.len() - self.pos).min(max);
        buf.clear();
        buf.extend_from_slice(&self.data[self.pos..self.pos + take]);
        self.pos += take;
        Ok(take)
    }
}

/// A stream that yields exactly `limit` records of an underlying stream —
/// a *view of one run* on a tape whose cursor then stays positioned at the
/// start of the next run. A source that ends before `limit` records is a
/// [`PdmError::SizeMismatch`], never a short run.
#[derive(Debug)]
pub struct Bounded<S> {
    inner: S,
    limit: u64,
    left: u64,
}

impl<S> Bounded<S> {
    /// Takes the next `limit` records of `inner` as a sub-stream (pass
    /// `&mut stream` to keep the stream's cursor for the next view).
    pub fn new(inner: S, limit: u64) -> Self {
        Bounded {
            inner,
            limit,
            left: limit,
        }
    }

    fn short_run(&self) -> PdmError {
        PdmError::SizeMismatch {
            what: "merge run".to_string(),
            expect: self.limit,
            got: self.limit - self.left,
        }
    }
}

impl<R: Record, S: RecordStream<R>> RecordStream<R> for Bounded<S> {
    fn next_record(&mut self) -> PdmResult<Option<R>> {
        if self.left == 0 {
            return Ok(None);
        }
        match self.inner.next_record()? {
            Some(r) => {
                self.left -= 1;
                Ok(Some(r))
            }
            None => Err(self.short_run()),
        }
    }

    fn next_block(&mut self, buf: &mut Vec<R>, max: usize) -> PdmResult<usize> {
        if self.left == 0 {
            buf.clear();
            return Ok(0);
        }
        let want = usize::try_from(self.left).map_or(max, |left| left.min(max));
        let got = self.inner.next_block(buf, want)?;
        if got == 0 {
            return Err(self.short_run());
        }
        self.left -= got as u64;
        Ok(got)
    }
}

/// A merge worker's output: a pooled block writer, or a write-behind writer
/// when the pipeline is on (the merge then overlaps its output transfers),
/// either writing its own block range of the output file. Both meter
/// identically.
pub(crate) enum MergeWriter<R: Record> {
    Sync(BlockWriter<R>),
    Pipelined(WriteBehindWriter<R>),
}

impl<R: Record> MergeWriter<R> {
    /// Opens the existing file `name` for writing from block `block` on; a
    /// write-behind queue is sized for `streams` concurrent request streams
    /// on the device.
    pub(crate) fn open_at(
        disk: &Disk,
        name: &str,
        block: u64,
        pipeline: &PipelineConfig,
        streams: usize,
        pool: &BufferPool,
    ) -> PdmResult<Self> {
        Ok(if pipeline.enabled {
            MergeWriter::Pipelined(disk.open_write_behind_at::<R>(
                name,
                block,
                pipeline.depth_for(disk.model(), streams),
                pool.clone(),
            )?)
        } else {
            MergeWriter::Sync(disk.open_writer_at::<R>(name, block, Some(pool.clone()))?)
        })
    }

    pub(crate) fn push_all(&mut self, rs: &[R]) -> PdmResult<()> {
        match self {
            MergeWriter::Sync(w) => w.push_all(rs),
            MergeWriter::Pipelined(w) => w.push_all(rs),
        }
    }

    /// Closes the writer, returning its partial last block unwritten.
    pub(crate) fn finish_partial(self) -> PdmResult<Vec<R>> {
        match self {
            MergeWriter::Sync(w) => w.finish_partial(),
            MergeWriter::Pipelined(w) => w.finish_partial(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<R: Record>(s: &mut impl RecordStream<R>) -> Vec<R> {
        let mut out = Vec::new();
        while let Some(x) = s.next_record().unwrap() {
            out.push(x);
        }
        out
    }

    #[test]
    fn slice_stream_yields_all() {
        let mut s = SliceStream::new(vec![3u32, 1, 4, 1, 5]);
        assert_eq!(drain(&mut s), vec![3, 1, 4, 1, 5]);
        assert_eq!(s.next_record().unwrap(), None); // stays exhausted
    }

    #[test]
    fn block_reader_is_a_stream() {
        let disk = Disk::in_memory(16);
        disk.write_file::<u32>("f", &[9, 8, 7]).unwrap();
        let mut r = disk.open_reader::<u32>("f").unwrap();
        assert_eq!(drain(&mut r), vec![9, 8, 7]);
    }

    #[test]
    fn bounded_takes_prefix_and_leaves_cursor() {
        let mut s = SliceStream::new((0u32..10).collect());
        {
            let mut b = Bounded::new(&mut s, 4);
            assert_eq!(drain(&mut b), vec![0, 1, 2, 3]);
            assert_eq!(b.next_record().unwrap(), None);
        }
        // The underlying stream continues where the bound left off.
        assert_eq!(drain(&mut s), vec![4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn bounded_zero_is_empty() {
        let mut s = SliceStream::new(vec![1u32]);
        let mut b = Bounded::new(&mut s, 0);
        assert_eq!(b.next_record().unwrap(), None);
        let mut buf = vec![9];
        assert_eq!(b.next_block(&mut buf, 8).unwrap(), 0);
        assert!(buf.is_empty());
    }

    #[test]
    fn bounded_blocks_stop_at_the_limit() {
        let mut s = SliceStream::new((0u32..10).collect());
        let mut buf = Vec::new();
        {
            let mut b = Bounded::new(&mut s, 7);
            assert_eq!(b.next_block(&mut buf, 4).unwrap(), 4);
            assert_eq!(buf, vec![0, 1, 2, 3]);
            assert_eq!(b.next_block(&mut buf, 4).unwrap(), 3);
            assert_eq!(buf, vec![4, 5, 6]);
            assert_eq!(b.next_block(&mut buf, 4).unwrap(), 0);
        }
        assert_eq!(drain(&mut s), vec![7, 8, 9]);
    }

    #[test]
    fn short_run_is_a_size_mismatch() {
        // A run declared longer than its source must fail, record by record
        // and block by block, instead of ending early.
        let mut s = SliceStream::new(vec![1u32, 2, 3]);
        let mut b = Bounded::new(&mut s, 5);
        assert_eq!(drain_until_err(&mut b), vec![1, 2, 3]);
        let mut s = SliceStream::new(vec![1u32, 2, 3]);
        let mut b = Bounded::new(&mut s, 5);
        let mut buf = Vec::new();
        assert_eq!(b.next_block(&mut buf, 8).unwrap(), 3);
        let err = b.next_block(&mut buf, 8).unwrap_err();
        assert!(
            matches!(
                err,
                PdmError::SizeMismatch {
                    expect: 5,
                    got: 3,
                    ..
                }
            ),
            "{err}"
        );
    }

    fn drain_until_err(s: &mut impl RecordStream<u32>) -> Vec<u32> {
        let mut out = Vec::new();
        loop {
            match s.next_record() {
                Ok(Some(x)) => out.push(x),
                Ok(None) => panic!("short run ended without an error"),
                Err(e) => {
                    assert!(
                        matches!(
                            e,
                            PdmError::SizeMismatch {
                                expect: 5,
                                got: 3,
                                ..
                            }
                        ),
                        "{e}"
                    );
                    return out;
                }
            }
        }
    }

    #[test]
    fn block_fills_match_record_pulls() {
        let disk = Disk::in_memory(16); // 4 u32 per block
        let data: Vec<u32> = (0..23).collect();
        disk.write_file::<u32>("f", &data).unwrap();
        let mut r = disk.open_reader::<u32>("f").unwrap();
        let mut s = SliceStream::new(data.clone());
        for max in [3usize, 5, 1, 9, 100] {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            let n = RecordStream::next_block(&mut r, &mut a, max).unwrap();
            assert_eq!(s.next_block(&mut b, max).unwrap(), n);
            assert_eq!(a, b, "max={max}");
        }
        assert_eq!(
            disk.stats().snapshot().blocks_read,
            6,
            "each block read once"
        );
    }
}
