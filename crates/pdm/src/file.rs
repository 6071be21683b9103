//! Typed, block-buffered file access.
//!
//! [`BlockWriter`] and [`BlockReader`] move records through a one-block
//! buffer: every buffer fill/flush is exactly one metered block I/O, so the
//! counters in [`crate::stats::IoStats`] reproduce the PDM cost measure. The
//! reader also supports metered *random* access ([`BlockReader::read_at`]),
//! which is what the pivot-sampling step of the paper's algorithm uses.
//!
//! # Block views
//!
//! For POD records whose in-memory layout equals the file encoding
//! (little-endian integers, [`crate::record::KeyPayload`]), blocks are
//! consumed and produced **in place**: reads decode through a borrowed
//! `&[R]` view of the I/O buffer ([`BlockReader::next_block_view`]), and
//! whole-block writes append straight from the caller's record slice
//! without staging. [`Record::view_slice`] and [`Record::view_bytes`]
//! decide per block; where they decline — records without a POD layout,
//! big-endian hosts, misaligned buffers — the same calls fall back to
//! per-record encode/decode through the block buffer. Both paths touch
//! identical byte ranges, flush at identical block boundaries and meter
//! identical [`crate::stats::IoStats`] — the differential suites hold them
//! to that.
//!
//! # Positional writes
//!
//! A writer writes block `b` at byte `b · block_bytes`. [`Disk::open_writer_at`]
//! opens one on an existing file at any block, so several writers can fill
//! disjoint block ranges of one file concurrently (the parallel merge gives
//! each worker its own); [`BlockWriter::finish_partial`] hands back a
//! partial last block instead of writing it. Every block write records the
//! block's fence ([`Disk::fences`]).

use crate::disk::{Disk, RawFile};
use crate::error::{PdmError, PdmResult};
use crate::pool::BufferPool;
use crate::record::Record;

/// Writes records to a disk file, one block at a time.
#[derive(Debug)]
pub struct BlockWriter<R: Record> {
    raw: RawFile,
    disk: Disk,
    name: String,
    buf: Vec<u8>,
    pool: Option<BufferPool>,
    records_per_block: usize,
    /// Index of the block the buffer fills.
    block: u64,
    written: u64,
    finished: bool,
    /// Marks this writer as an open request stream for queue diagnostics.
    _stream: crate::stats::StreamGuard,
    _marker: std::marker::PhantomData<R>,
}

/// Streams records from a disk file, one block at a time, with random access.
#[derive(Debug)]
pub struct BlockReader<R: Record> {
    raw: RawFile,
    disk: Disk,
    name: String,
    len: u64,
    pos: u64,
    /// Currently buffered block: record index range [buf_start, buf_end).
    buf: Vec<u8>,
    pool: Option<BufferPool>,
    buf_start: u64,
    buf_end: u64,
    records_per_block: usize,
    /// Marks this reader as an open request stream for queue diagnostics.
    _stream: crate::stats::StreamGuard,
    _marker: std::marker::PhantomData<R>,
}

/// Records per PDM block for record type `R` on this disk.
///
/// Fails with [`PdmError::InvalidConfig`] if a block cannot hold even one
/// record — no block-granular I/O plan is possible then.
pub(crate) fn records_per_block<R: Record>(disk: &Disk) -> PdmResult<usize> {
    let rpb = disk.block_bytes() / R::SIZE;
    if rpb == 0 {
        return Err(PdmError::InvalidConfig(format!(
            "block size {} smaller than record size {}",
            disk.block_bytes(),
            R::SIZE
        )));
    }
    Ok(rpb)
}

impl Disk {
    /// Creates a file and returns a typed block writer for it.
    pub fn create_writer<R: Record>(&self, name: &str) -> PdmResult<BlockWriter<R>> {
        self.create_writer_pooled(name, None)
    }

    /// Like [`Disk::create_writer`], but the block buffer is taken from (and
    /// on drop returned to) `pool`.
    pub fn create_writer_pooled<R: Record>(
        &self,
        name: &str,
        pool: Option<BufferPool>,
    ) -> PdmResult<BlockWriter<R>> {
        let records_per_block = records_per_block::<R>(self)?;
        let raw = self.create_raw(name)?;
        Ok(self.block_writer(raw, name, 0, records_per_block, pool))
    }

    /// Opens the existing file `name` for writing from block `block` on
    /// (records `block · records-per-block` onwards), leaving the blocks
    /// before it alone. Writers opened at disjoint block ranges of one file
    /// may run concurrently.
    pub fn open_writer_at<R: Record>(
        &self,
        name: &str,
        block: u64,
        pool: Option<BufferPool>,
    ) -> PdmResult<BlockWriter<R>> {
        let records_per_block = records_per_block::<R>(self)?;
        let raw = self.open_raw_write(name)?;
        Ok(self.block_writer(raw, name, block, records_per_block, pool))
    }

    fn block_writer<R: Record>(
        &self,
        raw: RawFile,
        name: &str,
        block: u64,
        records_per_block: usize,
        pool: Option<BufferPool>,
    ) -> BlockWriter<R> {
        let buf = match &pool {
            Some(p) => p.take(self.block_bytes()),
            None => Vec::with_capacity(self.block_bytes()),
        };
        BlockWriter {
            raw,
            disk: self.clone(),
            name: name.to_string(),
            buf,
            pool,
            records_per_block,
            block,
            written: 0,
            finished: false,
            _stream: self.stats().stream_opened(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Opens a file and returns a typed block reader positioned at record 0.
    ///
    /// Fails with [`PdmError::Corrupt`] if the byte length is not a whole
    /// number of records.
    pub fn open_reader<R: Record>(&self, name: &str) -> PdmResult<BlockReader<R>> {
        self.open_reader_pooled(name, None)
    }

    /// Like [`Disk::open_reader`], but the block buffer is taken from (and
    /// on drop returned to) `pool`.
    pub fn open_reader_pooled<R: Record>(
        &self,
        name: &str,
        pool: Option<BufferPool>,
    ) -> PdmResult<BlockReader<R>> {
        let records_per_block = records_per_block::<R>(self)?;
        let (raw, bytes) = self.open_raw(name)?;
        if bytes % R::SIZE as u64 != 0 {
            return Err(PdmError::Corrupt {
                name: name.to_string(),
                bytes,
                record_size: R::SIZE,
            });
        }
        let buf = match &pool {
            Some(p) => p.take(self.block_bytes()),
            None => Vec::new(),
        };
        Ok(BlockReader {
            raw,
            disk: self.clone(),
            name: name.to_string(),
            len: bytes / R::SIZE as u64,
            pos: 0,
            buf,
            pool,
            buf_start: 0,
            buf_end: 0,
            records_per_block,
            _stream: self.stats().stream_opened(),
            _marker: std::marker::PhantomData,
        })
    }

    /// Number of records in a file (type-directed).
    pub fn len_records<R: Record>(&self, name: &str) -> PdmResult<u64> {
        let bytes = self.len_bytes(name)?;
        if bytes % R::SIZE as u64 != 0 {
            return Err(PdmError::Corrupt {
                name: name.to_string(),
                bytes,
                record_size: R::SIZE,
            });
        }
        Ok(bytes / R::SIZE as u64)
    }

    /// Convenience: writes an entire slice as a new file.
    pub fn write_file<R: Record>(&self, name: &str, records: &[R]) -> PdmResult<()> {
        let mut w = self.create_writer::<R>(name)?;
        w.push_all(records)?;
        w.finish()?;
        Ok(())
    }

    /// Convenience: reads an entire file into memory (metered, bulk-decoded).
    pub fn read_file<R: Record>(&self, name: &str) -> PdmResult<Vec<R>> {
        let mut r = self.open_reader::<R>(name)?;
        let n = r.len() as usize;
        let mut out = Vec::with_capacity(n);
        r.read_into(&mut out, n)?;
        Ok(out)
    }
}

impl<R: Record> BlockWriter<R> {
    /// Appends one record.
    pub fn push(&mut self, r: R) -> PdmResult<()> {
        debug_assert!(!self.finished, "push after finish");
        let old = self.buf.len();
        self.buf.resize(old + R::SIZE, 0);
        r.write_to(&mut self.buf[old..]);
        self.written += 1;
        if self.buf.len() >= self.records_per_block * R::SIZE {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Appends every record in the slice, bulk-encoding one block segment
    /// at a time ([`Record::write_slice_to`]) instead of `rs.len()` virtual
    /// calls. Flush boundaries — and therefore metering — are identical to
    /// a [`BlockWriter::push`] loop.
    ///
    /// Whole blocks that start at a block boundary skip the staging buffer
    /// when [`Record::view_bytes`] can borrow them: the block is appended
    /// straight from the caller's slice — same bytes, same flush
    /// boundaries, same metering, one memcpy less.
    pub fn push_all(&mut self, rs: &[R]) -> PdmResult<()> {
        debug_assert!(!self.finished, "push after finish");
        let cap = self.records_per_block * R::SIZE;
        let rpb = self.records_per_block;
        let mut rest = rs;
        while !rest.is_empty() {
            if self.buf.is_empty() && rest.len() >= rpb {
                if let Some(bytes) = R::view_bytes(&rest[..rpb]) {
                    self.write_block(bytes)?;
                    self.written += rpb as u64;
                    rest = &rest[rpb..];
                    continue;
                }
            }
            let room = (cap - self.buf.len()) / R::SIZE;
            let take = rest.len().min(room);
            let old = self.buf.len();
            self.buf.resize(old + take * R::SIZE, 0);
            R::write_slice_to(&rest[..take], &mut self.buf[old..]);
            self.written += take as u64;
            rest = &rest[take..];
            if self.buf.len() >= cap {
                self.flush_block()?;
            }
        }
        Ok(())
    }

    /// Records pushed so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flushes the partial last block and closes the file; returns the total
    /// record count. Must be called — dropping an unfinished writer loses
    /// the buffered tail (mirrors real buffered I/O) and debug-asserts.
    pub fn finish(mut self) -> PdmResult<u64> {
        if !self.buf.is_empty() {
            self.flush_block()?;
        }
        self.raw.sync()?;
        self.finished = true;
        Ok(self.written)
    }

    /// Closes the file *without* writing the partial last block and
    /// returns its records (empty when the writer stopped on a block
    /// boundary): whoever writes the rest of that block writes it once.
    pub fn finish_partial(mut self) -> PdmResult<Vec<R>> {
        let mut rest = Vec::with_capacity(self.buf.len() / R::SIZE);
        R::read_slice_from(&self.buf, &mut rest);
        self.buf.clear();
        self.raw.sync()?;
        self.finished = true;
        Ok(rest)
    }

    /// File name this writer targets.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn flush_block(&mut self) -> PdmResult<()> {
        let buf = std::mem::take(&mut self.buf);
        let result = self.write_block(&buf);
        self.buf = buf;
        self.buf.clear();
        result
    }

    /// Writes `bytes` as the next block: one metered block write, plus the
    /// block's fence.
    fn write_block(&mut self, bytes: &[u8]) -> PdmResult<()> {
        let offset = self.block * (self.records_per_block * R::SIZE) as u64;
        self.raw.write_at(offset, bytes)?;
        self.disk.stats().on_write(bytes.len() as u64);
        record_fence::<R>(&self.disk, &self.name, self.block, bytes);
        self.block += 1;
        Ok(())
    }
}

/// Records the fence of block `block` of `name` — the `sort_key` of the
/// first record of its encoded bytes — for record types that have one.
pub(crate) fn record_fence<R: Record>(disk: &Disk, name: &str, block: u64, bytes: &[u8]) {
    if R::HAS_SORT_KEY && bytes.len() >= R::SIZE {
        disk.set_fence(name, block, R::read_from(&bytes[..R::SIZE]).sort_key());
    }
}

impl<R: Record> Drop for BlockWriter<R> {
    fn drop(&mut self) {
        // Dropping mid-stream during error unwinding is legitimate (the
        // file is garbage anyway); dropping with buffered records on the
        // happy path is a forgotten finish() — catch it in debug builds.
        debug_assert!(
            self.finished || self.buf.is_empty() || std::thread::panicking(),
            "BlockWriter for {:?} dropped with {} unflushed bytes — call finish()",
            self.name,
            self.buf.len()
        );
        if let Some(pool) = &self.pool {
            pool.put(std::mem::take(&mut self.buf));
        }
    }
}

impl<R: Record> Drop for BlockReader<R> {
    fn drop(&mut self) {
        if let Some(pool) = &self.pool {
            pool.put(std::mem::take(&mut self.buf));
        }
    }
}

impl<R: Record> BlockReader<R> {
    /// Total number of records in the file.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the file has no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current streaming position (record index).
    pub fn pos(&self) -> u64 {
        self.pos
    }

    /// Records left to stream.
    pub fn remaining(&self) -> u64 {
        self.len - self.pos
    }

    /// File name this reader reads.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the next record, or `None` at end of file. Buffer refills are
    /// metered as sequential block reads.
    pub fn next_record(&mut self) -> PdmResult<Option<R>> {
        if self.pos >= self.len {
            return Ok(None);
        }
        if self.pos < self.buf_start || self.pos >= self.buf_end {
            self.fill_block(self.pos, false)?;
        }
        let off = ((self.pos - self.buf_start) as usize) * R::SIZE;
        let rec = self.decode_at(off)?;
        self.pos += 1;
        Ok(Some(rec))
    }

    /// Streams up to `max` records into `out`, bulk-decoding whole buffered
    /// block segments ([`Record::read_slice_from`]) instead of one virtual
    /// call per record. Metering is identical to a
    /// [`BlockReader::next_record`] loop. Returns the record count appended.
    pub fn read_into(&mut self, out: &mut Vec<R>, max: usize) -> PdmResult<usize> {
        let mut got = 0usize;
        while got < max && self.pos < self.len {
            if self.pos < self.buf_start || self.pos >= self.buf_end {
                self.fill_block(self.pos, false)?;
            }
            let take = ((self.buf_end - self.pos) as usize).min(max - got);
            let off = ((self.pos - self.buf_start) as usize) * R::SIZE;
            let slice = self
                .buf
                .get(off..off + take * R::SIZE)
                .ok_or_else(|| self.short_buffer())?;
            R::read_slice_from(slice, out);
            self.pos += take as u64;
            got += take;
        }
        Ok(got)
    }

    /// Decodes the record at byte offset `off` of the buffered block,
    /// surfacing a short buffer (truncated tail) as a typed error instead
    /// of an index/`read_from` panic. Where [`Record::view_slice`] allows,
    /// the record is copied out of a borrowed `&[R]` view of the buffer (no
    /// decode).
    fn decode_at(&self, off: usize) -> PdmResult<R> {
        if let Some(rec) = R::view_slice(&self.buf).and_then(|v| v.get(off / R::SIZE)) {
            return Ok(*rec);
        }
        self.buf
            .get(off..off + R::SIZE)
            .and_then(R::try_read_from)
            .ok_or_else(|| self.short_buffer())
    }

    /// Borrows the unconsumed remainder of the current block as a record
    /// slice, refilling (metered, sequential) first when the block is
    /// exhausted — the zero-copy scan path. `Ok(None)` means end of file.
    /// An **empty** view means the buffer cannot be viewed in place (no
    /// POD layout, or misaligned); stream that block through
    /// [`BlockReader::next_record`] instead. Use [`BlockReader::consume`]
    /// to advance past records taken from the view; the borrow ends there,
    /// so the view never outlives its block.
    pub fn next_block_view(&mut self) -> PdmResult<Option<&[R]>> {
        if self.pos >= self.len {
            return Ok(None);
        }
        if self.pos < self.buf_start || self.pos >= self.buf_end {
            self.fill_block(self.pos, false)?;
        }
        let off = ((self.pos - self.buf_start) as usize) * R::SIZE;
        match R::view_slice(&self.buf[off..]) {
            Some(view) => Ok(Some(view)),
            None => Ok(Some(&[])),
        }
    }

    /// Records of the buffered block at or after the cursor — what
    /// [`BlockReader::read_into`] can still return without another read.
    pub fn buffered(&self) -> usize {
        if self.pos >= self.buf_start && self.pos < self.buf_end {
            (self.buf_end - self.pos) as usize
        } else {
            0
        }
    }

    /// Advances the streaming cursor past `n` records previously obtained
    /// from [`BlockReader::next_block_view`].
    pub fn consume(&mut self, n: usize) {
        debug_assert!(self.pos + n as u64 <= self.buf_end);
        self.pos += n as u64;
    }

    fn short_buffer(&self) -> PdmError {
        PdmError::Corrupt {
            name: self.name.clone(),
            bytes: self.buf_start * R::SIZE as u64 + self.buf.len() as u64,
            record_size: R::SIZE,
        }
    }

    /// Repositions the streaming cursor (no I/O until the next read).
    ///
    /// # Panics
    /// Panics if `idx > len` (positioning exactly at EOF is allowed).
    pub fn seek(&mut self, idx: u64) {
        assert!(idx <= self.len, "seek {idx} past end {}", self.len);
        self.pos = idx;
    }

    /// Random access to the record at `idx`. Metered as a *random* block
    /// read unless `idx` falls inside the currently buffered block.
    pub fn read_at(&mut self, idx: u64) -> PdmResult<R> {
        if idx >= self.len {
            return Err(PdmError::OutOfRange {
                name: self.name.clone(),
                index: idx,
                len: self.len,
            });
        }
        if idx < self.buf_start || idx >= self.buf_end {
            self.fill_block(idx, true)?;
        }
        let off = ((idx - self.buf_start) as usize) * R::SIZE;
        self.decode_at(off)
    }

    /// Loads the block containing record `idx` into the buffer.
    fn fill_block(&mut self, idx: u64, random: bool) -> PdmResult<()> {
        let rpb = self.records_per_block as u64;
        let block_no = idx / rpb;
        let start = block_no * rpb;
        let end = (start + rpb).min(self.len);
        let byte_off = start * R::SIZE as u64;
        let want = ((end - start) as usize) * R::SIZE;
        self.buf.resize(want, 0);
        let got = self.raw.read_at(byte_off, &mut self.buf)?;
        // Meter whatever actually transferred *before* bailing on a short
        // read: the seek and the partial transfer happened either way, and
        // callers audit `random_reads` even on the error path.
        if random {
            self.disk.stats().on_random_read(got as u64);
        } else {
            self.disk.stats().on_read(got as u64);
        }
        if got != want {
            // The file shrank under us (torn write / concurrent truncate).
            return Err(PdmError::Corrupt {
                name: self.name.clone(),
                bytes: byte_off + got as u64,
                record_size: R::SIZE,
            });
        }
        self.buf_start = start;
        self.buf_end = end;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::Disk;
    use crate::record::KeyPayload;
    use crate::tempdir::ScratchDir;

    fn disks() -> Vec<(Disk, Option<ScratchDir>)> {
        let scratch = ScratchDir::new("pdm-file-test").unwrap();
        let fd = Disk::on_files(scratch.path(), 16); // 4 u32 records per block
        vec![(Disk::in_memory(16), None), (fd, Some(scratch))]
    }

    #[test]
    fn write_then_stream_roundtrip() {
        for (disk, _g) in disks() {
            let data: Vec<u32> = (0..23).map(|i| i * 3).collect();
            disk.write_file("f", &data).unwrap();
            assert_eq!(disk.len_records::<u32>("f").unwrap(), 23);
            assert_eq!(disk.read_file::<u32>("f").unwrap(), data);
        }
    }

    #[test]
    fn empty_file() {
        for (disk, _g) in disks() {
            disk.write_file::<u32>("e", &[]).unwrap();
            let mut r = disk.open_reader::<u32>("e").unwrap();
            assert!(r.is_empty());
            assert_eq!(r.next_record().unwrap(), None);
        }
    }

    #[test]
    fn io_is_metered_in_blocks() {
        let disk = Disk::in_memory(16); // 4 u32 per block
        let data: Vec<u32> = (0..10).collect(); // 2 full + 1 partial block
        disk.write_file("m", &data).unwrap();
        let snap = disk.stats().snapshot();
        assert_eq!(snap.blocks_written, 3);
        assert_eq!(snap.bytes_written, 40);
        disk.read_file::<u32>("m").unwrap();
        let snap = disk.stats().snapshot();
        assert_eq!(snap.blocks_read, 3);
        assert_eq!(snap.bytes_read, 40);
    }

    #[test]
    fn read_at_random_access() {
        for (disk, _g) in disks() {
            let data: Vec<u32> = (0..100).map(|i| i * 7).collect();
            disk.write_file("r", &data).unwrap();
            let mut r = disk.open_reader::<u32>("r").unwrap();
            assert_eq!(r.read_at(0).unwrap(), 0);
            assert_eq!(r.read_at(99).unwrap(), 99 * 7);
            assert_eq!(r.read_at(50).unwrap(), 350);
            assert!(matches!(r.read_at(100), Err(PdmError::OutOfRange { .. })));
        }
    }

    #[test]
    fn read_at_within_buffered_block_is_free() {
        let disk = Disk::in_memory(16);
        let data: Vec<u32> = (0..8).collect();
        disk.write_file("c", &data).unwrap();
        let mut r = disk.open_reader::<u32>("c").unwrap();
        r.read_at(0).unwrap();
        let before = disk.stats().snapshot();
        r.read_at(1).unwrap();
        r.read_at(3).unwrap();
        assert_eq!(disk.stats().snapshot().random_reads, before.random_reads);
        r.read_at(4).unwrap(); // next block: one more random read
        assert_eq!(
            disk.stats().snapshot().random_reads,
            before.random_reads + 1
        );
    }

    #[test]
    fn seek_then_stream() {
        for (disk, _g) in disks() {
            let data: Vec<u32> = (0..50).collect();
            disk.write_file("s", &data).unwrap();
            let mut r = disk.open_reader::<u32>("s").unwrap();
            r.seek(45);
            let mut tail = Vec::new();
            while let Some(x) = r.next_record().unwrap() {
                tail.push(x);
            }
            assert_eq!(tail, vec![45, 46, 47, 48, 49]);
            r.seek(50); // exactly EOF is allowed
            assert_eq!(r.next_record().unwrap(), None);
        }
    }

    #[test]
    fn corrupt_length_detected_on_open() {
        for (disk, _g) in disks() {
            disk.write_file::<u32>("x", &[1, 2, 3]).unwrap();
            disk.truncate("x", 10).unwrap(); // 10 bytes: not a multiple of 4
            assert!(matches!(
                disk.open_reader::<u32>("x"),
                Err(PdmError::Corrupt { .. })
            ));
            assert!(matches!(
                disk.len_records::<u32>("x"),
                Err(PdmError::Corrupt { .. })
            ));
        }
    }

    #[test]
    fn truncation_under_reader_detected() {
        for (disk, _g) in disks() {
            let data: Vec<u32> = (0..16).collect();
            disk.write_file("t", &data).unwrap();
            let mut r = disk.open_reader::<u32>("t").unwrap();
            assert_eq!(r.next_record().unwrap(), Some(0));
            disk.truncate("t", 16).unwrap(); // drop the tail blocks
            r.seek(8);
            assert!(matches!(r.next_record(), Err(PdmError::Corrupt { .. })));
        }
    }

    #[test]
    fn short_read_is_metered_before_erroring() {
        // Regression: a read that surfaces `Corrupt` still did a seek and a
        // (partial) transfer — the counters must reflect it.
        for (disk, _g) in disks() {
            let data: Vec<u32> = (0..16).collect();
            disk.write_file("sr", &data).unwrap();
            let mut r = disk.open_reader::<u32>("sr").unwrap();
            // Leave 1 of block 1's 4 records: read_at(4) gets 4 of 16 bytes.
            disk.truncate("sr", 20).unwrap();
            let before = disk.stats().snapshot();
            assert!(matches!(r.read_at(4), Err(PdmError::Corrupt { .. })));
            let after = disk.stats().snapshot();
            assert_eq!(
                after.random_reads,
                before.random_reads + 1,
                "random read must count even on the Corrupt path"
            );
            assert_eq!(after.blocks_read, before.blocks_read + 1);
            assert_eq!(after.bytes_read, before.bytes_read + 4);
            assert_eq!(
                after.seek_bytes,
                before.seek_bytes + 4,
                "partial transfer must show up in seek_bytes too"
            );

            // Same on the streaming (sequential) path.
            let before = after;
            r.seek(4);
            assert!(matches!(r.next_record(), Err(PdmError::Corrupt { .. })));
            let after = disk.stats().snapshot();
            assert_eq!(after.blocks_read, before.blocks_read + 1);
            assert_eq!(after.random_reads, before.random_reads);
            assert_eq!(after.bytes_read, before.bytes_read + 4);
        }
    }

    #[test]
    fn probe_read_of_eof_partial_block_meters_actual_bytes() {
        // A splitter probe landing in the legitimate partial block at EOF
        // meters the bytes that actually transferred — same rule the short
        // read above documents for streams — and books them as seek bytes.
        for (disk, _g) in disks() {
            let data: Vec<u32> = (0..10).collect(); // last block holds 2 records
            disk.write_file("pp", &data).unwrap();
            let mut r = disk.open_reader::<u32>("pp").unwrap();
            let before = disk.stats().snapshot();
            assert_eq!(r.read_at(9).unwrap(), 9);
            let after = disk.stats().snapshot();
            assert_eq!(after.random_reads, before.random_reads + 1);
            assert_eq!(after.bytes_read, before.bytes_read + 8);
            assert_eq!(after.seek_bytes, before.seek_bytes + 8);
            // A sequential refill elsewhere leaves seek_bytes alone.
            r.seek(0);
            assert_eq!(r.next_record().unwrap(), Some(0));
            assert_eq!(disk.stats().snapshot().seek_bytes, after.seek_bytes);
        }
    }

    #[test]
    fn read_into_bulk_matches_streaming() {
        for (disk, _g) in disks() {
            let data: Vec<u32> = (0..23).map(|i| i * 3).collect();
            disk.write_file("b", &data).unwrap();
            let before = disk.stats().snapshot();
            let mut r = disk.open_reader::<u32>("b").unwrap();
            let mut out = Vec::new();
            // Odd chunk sizes cross block boundaries mid-chunk.
            assert_eq!(r.read_into(&mut out, 5).unwrap(), 5);
            assert_eq!(r.read_into(&mut out, 7).unwrap(), 7);
            assert_eq!(r.read_into(&mut out, 100).unwrap(), 11);
            assert_eq!(r.read_into(&mut out, 100).unwrap(), 0);
            assert_eq!(out, data);
            let delta = disk.stats().snapshot().delta(&before);
            assert_eq!(delta.blocks_read, 6, "one metered read per block");
        }
    }

    #[test]
    fn short_buffer_is_typed_error_not_panic() {
        // A file whose byte length is a whole number of records but whose
        // tail block is torn mid-record: the decode must surface
        // `PdmError::Corrupt`, never an index or `read_from` panic.
        for (disk, _g) in disks() {
            let data: Vec<u32> = (0..8).collect();
            disk.write_file("torn", &data).unwrap();
            let mut r = disk.open_reader::<u32>("torn").unwrap();
            assert_eq!(r.next_record().unwrap(), Some(0));
            disk.truncate("torn", 18).unwrap(); // mid-record within block 2
            r.seek(4);
            assert!(matches!(r.next_record(), Err(PdmError::Corrupt { .. })));
            let mut out = Vec::new();
            r.seek(4);
            assert!(matches!(
                r.read_into(&mut out, 4),
                Err(PdmError::Corrupt { .. })
            ));
        }
    }

    #[test]
    fn keypayload_files() {
        for (disk, _g) in disks() {
            let data: Vec<KeyPayload> = (0..9)
                .map(|i| KeyPayload::new(i as u64, i as u64 * 10))
                .collect();
            disk.write_file("kp", &data).unwrap();
            assert_eq!(disk.read_file::<KeyPayload>("kp").unwrap(), data);
        }
    }

    #[test]
    fn writer_counts_records() {
        let disk = Disk::in_memory(64);
        let mut w = disk.create_writer::<u32>("w").unwrap();
        w.push(1).unwrap();
        w.push_all(&[2, 3, 4]).unwrap();
        assert_eq!(w.written(), 4);
        assert_eq!(w.finish().unwrap(), 4);
    }

    #[test]
    fn tiny_blocks_rejected() {
        let disk = Disk::in_memory(8);
        match disk.create_writer::<KeyPayload>("oops") {
            Err(PdmError::InvalidConfig(msg)) => {
                assert!(msg.contains("smaller than record size"), "{msg}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        match disk.open_reader::<KeyPayload>("oops") {
            Err(PdmError::InvalidConfig(_)) => {}
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        // The failed create must not leave a half-made writer behind: the
        // config is checked before the file is created.
        assert!(!disk.exists("oops"));
    }

    /// Forwards encode/decode to `R` but keeps the `None` view defaults, so
    /// every block takes the per-record fallback path.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Staged<R>(R);

    impl<R: Record> Record for Staged<R> {
        const SIZE: usize = R::SIZE;

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

    #[test]
    fn view_and_fallback_are_observationally_identical() {
        // Same data, same operations, once through the in-place views and
        // once through the per-record fallback: identical bytes on disk,
        // identical IoStats, identical decoded records.
        let data: Vec<u32> = (0..103u32).map(|i| i.wrapping_mul(2654435761)).collect();
        let kp: Vec<KeyPayload> = data
            .iter()
            .map(|&x| KeyPayload::new(x as u64 % 7, x as u64))
            .collect();
        let view = Disk::in_memory(16);
        view.write_file("u", &data).unwrap();
        view.write_file("k", &kp).unwrap();
        assert_eq!(view.read_file::<u32>("u").unwrap(), data);
        assert_eq!(view.read_file::<KeyPayload>("k").unwrap(), kp);
        let mut r = view.open_reader::<u32>("u").unwrap();
        assert_eq!(r.read_at(97).unwrap(), data[97]);
        r.seek(50);
        assert_eq!(r.next_record().unwrap(), Some(data[50]));

        let fallback = Disk::in_memory(16);
        fallback.write_file("u", &staged(&data)).unwrap();
        fallback.write_file("k", &staged(&kp)).unwrap();
        assert_eq!(
            fallback.read_file::<Staged<u32>>("u").unwrap(),
            staged(&data)
        );
        assert_eq!(
            fallback.read_file::<Staged<KeyPayload>>("k").unwrap(),
            staged(&kp)
        );
        let mut r = fallback.open_reader::<Staged<u32>>("u").unwrap();
        assert_eq!(r.read_at(97).unwrap(), Staged(data[97]));
        r.seek(50);
        assert_eq!(r.next_record().unwrap(), Some(Staged(data[50])));

        assert_eq!(view.stats().snapshot(), fallback.stats().snapshot());
        assert_eq!(
            view.read_file::<u32>("u").unwrap(),
            fallback.read_file::<u32>("u").unwrap()
        );
        assert_eq!(
            view.read_file::<KeyPayload>("k").unwrap(),
            fallback.read_file::<KeyPayload>("k").unwrap()
        );
    }

    #[test]
    fn direct_writes_meter_like_staged() {
        // A bulk push_all appends full blocks straight from the caller's
        // slice; the flush boundaries and counters must match the staged
        // per-record path.
        let data: Vec<u32> = (0..23).collect();
        let view = Disk::in_memory(16);
        let mut w = view.create_writer::<u32>("d").unwrap();
        w.push(100).unwrap(); // unaligned start: staging must engage
        w.push_all(&data).unwrap();
        w.finish().unwrap();
        let fallback = Disk::in_memory(16);
        let mut w = fallback.create_writer::<Staged<u32>>("d").unwrap();
        w.push(Staged(100)).unwrap();
        w.push_all(&staged(&data)).unwrap();
        w.finish().unwrap();
        assert_eq!(view.stats().snapshot(), fallback.stats().snapshot());
        assert_eq!(
            view.read_file::<u32>("d").unwrap(),
            fallback.read_file::<u32>("d").unwrap()
        );
    }

    #[test]
    fn block_view_scan_matches_streaming() {
        for (disk, _g) in disks() {
            let data: Vec<u32> = (0..103).map(|i| i * 3).collect();
            disk.write_file("view", &data).unwrap();
            let before = disk.stats().snapshot();
            let mut r = disk.open_reader::<u32>("view").unwrap();
            let mut out = Vec::new();
            while let Some(view) = r.next_block_view().unwrap() {
                let n = view.len();
                if n == 0 {
                    out.push(r.next_record().unwrap().unwrap());
                    continue;
                }
                out.extend_from_slice(view);
                r.consume(n);
            }
            assert_eq!(out, data);
            let delta = disk.stats().snapshot().delta(&before);
            assert_eq!(delta.blocks_read, 26, "one metered read per block");
            assert_eq!(delta.random_reads, 0);
        }
    }

    #[test]
    fn block_view_after_seek_starts_mid_block() {
        let disk = Disk::in_memory(16);
        let data: Vec<u32> = (0..12).collect();
        disk.write_file("mid", &data).unwrap();
        let mut r = disk.open_reader::<u32>("mid").unwrap();
        r.seek(6); // mid-block: view exposes only the remainder
        let view: Vec<u32> = r.next_block_view().unwrap().unwrap().to_vec();
        if !view.is_empty() {
            assert_eq!(view, &[6, 7]);
            r.consume(view.len());
            let next = r.next_block_view().unwrap().unwrap();
            assert_eq!(next, &[8, 9, 10, 11]);
        }
    }

    #[test]
    fn fence_index_follows_the_file() {
        for (disk, _g) in disks() {
            // 4 u32 records per block: fences are records 0, 4 and 8.
            let data: Vec<u32> = (0..10).map(|i| i * 3).collect();
            disk.write_file("f", &data).unwrap();
            assert_eq!(disk.fences("f"), Some(vec![0, 12, 24]));
            disk.rename("f", "g").unwrap();
            assert_eq!(disk.fences("f"), None, "rename moves the index");
            assert_eq!(disk.fences("g"), Some(vec![0, 12, 24]));
            disk.truncate("g", 16).unwrap();
            assert_eq!(disk.fences("g"), None, "truncate drops the index");
            disk.write_file("h", &data).unwrap();
            disk.remove("h").unwrap();
            assert_eq!(disk.fences("h"), None, "remove drops the index");
            disk.write_file("h", &[7u32, 8]).unwrap();
            assert_eq!(disk.fences("h"), Some(vec![7]), "re-creating starts afresh");
            // A record type without a sort key leaves no index.
            disk.write_file("s", &staged(&data)).unwrap();
            assert_eq!(disk.fences("s"), None);
            // The write-behind writer records fences too.
            let mut w = disk
                .create_write_behind::<u32>("wb", 2, BufferPool::default())
                .unwrap();
            w.push_all(&data).unwrap();
            w.finish().unwrap();
            assert_eq!(disk.fences("wb"), Some(vec![0, 12, 24]));
        }
    }

    #[test]
    fn positional_writers_fill_disjoint_blocks() {
        for (disk, _g) in disks() {
            let data: Vec<u32> = (0..14).collect();
            disk.create_writer::<u32>("p").unwrap().finish().unwrap();
            let before = disk.stats().snapshot();
            // Blocks 2.. first, from a write-behind writer; its partial
            // last block comes back unwritten.
            let mut late = disk
                .open_write_behind_at::<u32>("p", 2, 2, BufferPool::default())
                .unwrap();
            late.push_all(&data[8..]).unwrap();
            assert_eq!(late.finish_partial().unwrap(), vec![12, 13]);
            // Blocks 0 and 1 from a plain writer.
            let mut early = disk.open_writer_at::<u32>("p", 0, None).unwrap();
            early.push_all(&data[..8]).unwrap();
            assert!(early.finish_partial().unwrap().is_empty());
            // The tail block, written once.
            let mut tail = disk.open_writer_at::<u32>("p", 3, None).unwrap();
            tail.push_all(&data[12..]).unwrap();
            tail.finish().unwrap();
            assert_eq!(disk.read_file::<u32>("p").unwrap(), data);
            assert_eq!(disk.fences("p"), Some(vec![0, 4, 8, 12]));
            let io = disk.stats().snapshot().delta(&before);
            assert_eq!((io.blocks_written, io.bytes_written), (4, 56));
            assert_eq!(io.files_created, 0, "opening a file creates nothing");
        }
    }

    #[test]
    fn pooled_reader_writer_recycle_buffers() {
        let pool = crate::pool::BufferPool::new(8);
        let disk = Disk::in_memory(16);
        let data: Vec<u32> = (0..23).collect();
        {
            let mut w = disk
                .create_writer_pooled::<u32>("p", Some(pool.clone()))
                .unwrap();
            w.push_all(&data).unwrap();
            w.finish().unwrap();
        }
        assert_eq!(pool.idle(), 1);
        {
            let mut r = disk
                .open_reader_pooled::<u32>("p", Some(pool.clone()))
                .unwrap();
            let mut out = Vec::new();
            while let Some(x) = r.next_record().unwrap() {
                out.push(x);
            }
            assert_eq!(out, data);
        }
        assert_eq!(pool.idle(), 1, "reader reused the writer's buffer");
        assert!(pool.hits() >= 1);
    }
}
