//! Flat storage arena for merge sort trees.
//!
//! A merge sort tree is read by tight probe loops that descend one level per
//! step. Storing every level (and every level's cascading-pointer slab) in
//! its own heap allocation makes each descent hop between unrelated
//! allocations; storing the whole tree in **one** contiguous buffer with a
//! small per-level offset table keeps the descent inside a single, predictably
//! laid out region — the "sequential, array-based levels" the paper credits
//! for the structure's practical speed (§5.1).
//!
//! The layout (see DESIGN.md "Memory layout") is struct-of-arrays:
//!
//! ```text
//! arena: [ level-0 keys | level-1 keys | … | level-h keys ‖ level-1 ptrs | … ]
//!          └────────────── keys region ─────────────────┘ └─ pointer slabs ─┘
//! ```
//!
//! Every level holds exactly `n` keys, so the keys region needs no offset
//! table at all (`level * n`); pointer slabs carry explicit [`Span`]s. Run
//! boundaries inside a level are `(offset, len)` arithmetic on `run_len`
//! rather than owned vectors.

use crate::index::TreeIndex;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// A contiguous `(offset, len)` window into an arena buffer.
///
/// Spans replace owned `Vec`s for run and slab boundaries: they are `Copy`,
/// 16 bytes, and resolve against the arena with a single slice operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Start offset into the arena buffer.
    pub off: usize,
    /// Number of elements.
    pub len: usize,
}

impl Span {
    /// A span covering `[off, off + len)`.
    #[inline]
    pub fn new(off: usize, len: usize) -> Self {
        Span { off, len }
    }

    /// Resolves this span against its arena buffer.
    #[inline]
    pub fn slice<'a, T>(&self, buf: &'a [T]) -> &'a [T] {
        &buf[self.off..self.off + self.len]
    }

    /// Resolves this span mutably.
    #[inline]
    pub fn slice_mut<'a, T>(&self, buf: &'a mut [T]) -> &'a mut [T] {
        &mut buf[self.off..self.off + self.len]
    }

    /// Offset one past the last element.
    #[inline]
    pub fn end(&self) -> usize {
        self.off + self.len
    }
}

/// Elements moved per I/O call when serializing a slab (64 Ki elements:
/// 256 KiB–512 KiB buffers, far above the syscall-overhead knee, far below
/// any budget worth spilling for).
const SPILL_CHUNK: usize = 1 << 16;

/// Process-wide sequence number making concurrent spill-file names unique.
static SPILL_FILE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Creates an anonymous spill file in the system temp directory: the path is
/// unlinked immediately after creation, so the file lives exactly as long as
/// the returned descriptor and can never be leaked by a crash.
fn anon_spill_file() -> io::Result<File> {
    let dir = std::env::temp_dir();
    for _ in 0..16 {
        let name = format!(
            "holistic-spill-{}-{}",
            std::process::id(),
            SPILL_FILE_SEQ.fetch_add(1, Relaxed)
        );
        let path = dir.join(name);
        match std::fs::OpenOptions::new().read(true).write(true).create_new(true).open(&path) {
            Ok(f) => {
                // Unlink the name; the open descriptor keeps the data alive.
                // A failed removal only leaves a stale temp-dir entry behind.
                let _ = std::fs::remove_file(&path);
                return Ok(f);
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e),
        }
    }
    Err(io::Error::new(io::ErrorKind::AlreadyExists, "could not create a unique spill file"))
}

/// A file-backed parking spot for one arena slab.
///
/// An arena (a merge sort tree's `[keys ‖ pointer slabs]` buffer, see the
/// module docs) can be *parked* — serialized into an anonymous temp-dir file
/// and dropped from memory — and later *re-faulted* segment by segment. The
/// segment table is the slab's level structure (each key level and each
/// pointer slab is one segment), so a re-fault streams the file in
/// level-sized sequential reads and an out-of-core build can write each
/// level as soon as it is merged, without ever materializing the whole slab.
///
/// Slab contents are immutable once fully written, so re-parking an already
/// spilled slab is free: the file still holds the bytes and only the
/// in-memory copy is dropped.
///
/// Elements are serialized as little-endian fixed-width integers of
/// `size_of::<I>()` bytes through the safe [`TreeIndex`] conversions — no
/// `unsafe`, no platform-dependent layout.
#[derive(Debug)]
pub struct SpillableArena<I: TreeIndex> {
    /// Cumulative element boundaries: segment `s` spans
    /// `segments[s]..segments[s + 1]` of the slab.
    segments: Vec<usize>,
    file: Option<File>,
    /// True once every segment is on disk (parking is then free).
    written: bool,
    parks: u64,
    faults: u64,
    bytes_written: u64,
    bytes_read: u64,
    _elem: PhantomData<I>,
}

impl<I: TreeIndex> SpillableArena<I> {
    /// A parking spot for a slab with the given cumulative segment
    /// boundaries (`segments[0]` must be 0; boundaries must be
    /// non-decreasing). No file is created until something is written.
    pub fn new(segments: Vec<usize>) -> Self {
        assert!(segments.first() == Some(&0), "segment table must start at 0");
        assert!(segments.windows(2).all(|w| w[0] <= w[1]), "segment boundaries must ascend");
        SpillableArena {
            segments,
            file: None,
            written: false,
            parks: 0,
            faults: 0,
            bytes_written: 0,
            bytes_read: 0,
            _elem: PhantomData,
        }
    }

    /// Total slab elements covered by the segment table.
    pub fn total_elements(&self) -> usize {
        *self.segments.last().expect("segment table is non-empty")
    }

    /// Number of segments.
    pub fn num_segments(&self) -> usize {
        self.segments.len() - 1
    }

    /// On-disk size of the fully written slab, in bytes.
    pub fn spill_bytes(&self) -> usize {
        self.total_elements() * std::mem::size_of::<I>()
    }

    /// Times the slab was parked (re-parks of an already written slab
    /// included — those are free).
    pub fn parks(&self) -> u64 {
        self.parks
    }

    /// Times the whole slab was re-faulted from disk.
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// Total bytes serialized to the spill file.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Total bytes deserialized from the spill file.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    fn file(&mut self) -> io::Result<&mut File> {
        if self.file.is_none() {
            self.file = Some(anon_spill_file()?);
        }
        Ok(self.file.as_mut().expect("spill file just created"))
    }

    /// Serializes `data` as segment `seg` of the slab (out-of-core builds
    /// write each level the moment it is merged). `data.len()` must equal
    /// the segment's length. Call [`SpillableArena::mark_written`] once
    /// every segment has been written.
    pub fn write_segment(&mut self, seg: usize, data: &[I]) -> io::Result<()> {
        let (start, end) = (self.segments[seg], self.segments[seg + 1]);
        assert_eq!(data.len(), end - start, "segment {seg} length mismatch");
        if data.is_empty() {
            return Ok(());
        }
        let w = std::mem::size_of::<I>();
        let file = self.file()?;
        file.seek(SeekFrom::Start((start * w) as u64))?;
        let mut buf: Vec<u8> = Vec::with_capacity(SPILL_CHUNK.min(data.len()) * w);
        for chunk in data.chunks(SPILL_CHUNK) {
            buf.clear();
            for &e in chunk {
                let le = (e.to_usize() as u64).to_le_bytes();
                buf.extend_from_slice(&le[..w]);
            }
            file.write_all(&buf)?;
        }
        self.bytes_written += std::mem::size_of_val(data) as u64;
        Ok(())
    }

    /// Declares the on-disk image complete (every segment written). Parking
    /// is free from here on: the in-memory copy can simply be dropped.
    pub fn mark_written(&mut self) {
        self.written = true;
    }

    /// Parks the slab: ensures its bytes are on disk (a no-op when already
    /// fully written) so the caller can drop the in-memory copy. Returns the
    /// spilled byte count.
    pub fn park(&mut self, data: &[I]) -> io::Result<usize> {
        assert_eq!(data.len(), self.total_elements(), "parked slab has the wrong length");
        if !self.written {
            for seg in 0..self.num_segments() {
                let (start, end) = (self.segments[seg], self.segments[seg + 1]);
                self.write_segment(seg, &data[start..end])?;
            }
            self.written = true;
        }
        self.parks += 1;
        Ok(self.spill_bytes())
    }

    /// Re-faults one segment from disk into a fresh vector.
    pub fn fault_segment(&mut self, seg: usize) -> io::Result<Vec<I>> {
        assert!(self.written, "fault of a slab that was never parked");
        let (start, end) = (self.segments[seg], self.segments[seg + 1]);
        let mut out: Vec<I> = Vec::with_capacity(end - start);
        if start == end {
            return Ok(out);
        }
        let w = std::mem::size_of::<I>();
        let file = self.file()?;
        file.seek(SeekFrom::Start((start * w) as u64))?;
        let mut buf = vec![0u8; SPILL_CHUNK.min(end - start) * w];
        let mut remaining = end - start;
        while remaining > 0 {
            let take = SPILL_CHUNK.min(remaining);
            let bytes = &mut buf[..take * w];
            file.read_exact(bytes)?;
            for le in bytes.chunks_exact(w) {
                let mut full = [0u8; 8];
                full[..w].copy_from_slice(le);
                out.push(I::from_usize(u64::from_le_bytes(full) as usize));
            }
            remaining -= take;
        }
        self.bytes_read += ((end - start) * w) as u64;
        Ok(out)
    }

    /// Re-faults the whole slab, segment by segment in layout order.
    pub fn fault(&mut self) -> io::Result<Vec<I>> {
        let mut out: Vec<I> = Vec::with_capacity(self.total_elements());
        for seg in 0..self.num_segments() {
            out.extend_from_slice(&self.fault_segment(seg)?);
        }
        self.faults += 1;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_resolves_windows() {
        let buf: Vec<u32> = (0..10).collect();
        let s = Span::new(3, 4);
        assert_eq!(s.slice(&buf), &[3, 4, 5, 6]);
        assert_eq!(s.end(), 7);
        let mut buf = buf;
        s.slice_mut(&mut buf)[0] = 99;
        assert_eq!(buf[3], 99);
    }

    #[test]
    fn empty_span_is_fine() {
        let buf: Vec<u32> = vec![1, 2];
        let s = Span::new(2, 0);
        assert_eq!(s.slice(&buf), &[] as &[u32]);
    }

    #[test]
    fn park_fault_roundtrip_is_bit_identical() {
        let data: Vec<u32> = (0..100_000u32).map(|i| i.wrapping_mul(2654435761)).collect();
        let mut arena = SpillableArena::<u32>::new(vec![0, 10, 50_000, 100_000]);
        let spilled = arena.park(&data).unwrap();
        assert_eq!(spilled, data.len() * 4);
        assert_eq!(arena.fault().unwrap(), data);
        assert_eq!(arena.faults(), 1);
        // Re-park is free: the on-disk image is already complete.
        let bw = arena.bytes_written();
        arena.park(&data).unwrap();
        assert_eq!(arena.bytes_written(), bw);
        assert_eq!(arena.parks(), 2);
        assert_eq!(arena.fault().unwrap(), data);
    }

    #[test]
    fn u64_elements_survive_the_roundtrip() {
        let data: Vec<u64> = (0..3000u64).map(|i| i << 20 | i).collect();
        let mut arena = SpillableArena::<u64>::new(vec![0, 3000]);
        arena.park(&data).unwrap();
        assert_eq!(arena.fault().unwrap(), data);
    }

    #[test]
    fn segment_writes_compose_into_a_full_slab() {
        let data: Vec<u32> = (0..1000).rev().collect();
        let mut arena = SpillableArena::<u32>::new(vec![0, 400, 400, 1000]);
        arena.write_segment(0, &data[..400]).unwrap();
        arena.write_segment(1, &[]).unwrap();
        arena.write_segment(2, &data[400..]).unwrap();
        arena.mark_written();
        assert_eq!(arena.fault_segment(1).unwrap(), Vec::<u32>::new());
        assert_eq!(arena.fault().unwrap(), data);
    }

    #[test]
    fn empty_slab_never_touches_disk() {
        let mut arena = SpillableArena::<u32>::new(vec![0]);
        assert_eq!(arena.park(&[]).unwrap(), 0);
        assert_eq!(arena.fault().unwrap(), Vec::<u32>::new());
        assert_eq!(arena.bytes_written(), 0);
    }
}
