//! Global-memory buffers with synthetic device addresses.
//!
//! Buffers are allocated from a bump allocator with 256-byte alignment
//! (mirroring `cudaMalloc`), so the *byte address* of every element is
//! known and coalescing can be computed exactly — including the partially
//! filled 128-byte segments at the edges of a misaligned compressed block,
//! which is precisely the inefficiency Optimization 2 of the paper
//! attacks.
//!
//! A warp instruction costs one transaction per distinct 128-byte
//! segment its lanes touch. Contiguous ranges count them by arithmetic
//! ([`segments_for_range`]); scattered lanes are counted by marking a
//! per-worker byte map indexed by segment offset within the buffer
//! being accessed (mark, count the bytes that were clear, unmark), with
//! the sorted [`gather_segments`] list as its test oracle and as the
//! list the optional per-block L1 model needs.

use std::marker::PhantomData;

/// Size of a global-memory transaction segment, in bytes.
///
/// The paper (Section 4.2, Optimization 2): "The granularity of reads from
/// global memory is 128 bytes".
pub const SEGMENT_BYTES: u64 = 128;

/// Threads per warp. Accesses are coalesced at warp granularity.
pub const WARP_SIZE: usize = 32;

/// Alignment of device allocations, matching `cudaMalloc` behaviour.
pub const ALLOC_ALIGN: u64 = 256;

/// Scalar element types that can live in simulated global memory.
///
/// Sealed to the primitive integer/float types the workspace uses; the
/// byte width drives address computation for coalescing.
pub trait Scalar: Copy + Default + 'static {
    /// Size of the scalar in bytes on the device.
    const BYTES: u64;

    /// Whether the fault injector may bit-flip buffers of this type.
    /// Only `u32` — the word streams that carry encoded columns, the
    /// persisted state a deployment actually ships around — is
    /// corruptible; plain working buffers stay clean so fault campaigns
    /// exercise *detection* rather than trivially corrupting outputs.
    const CORRUPTIBLE: bool = false;

    /// View a buffer of this type as raw 32-bit words for fault
    /// injection; `None` for non-corruptible types.
    fn as_words_mut(_data: &mut [Self]) -> Option<&mut [u32]> {
        None
    }
}

macro_rules! impl_scalar {
    ($($t:ty),*) => {
        $(impl Scalar for $t { const BYTES: u64 = std::mem::size_of::<$t>() as u64; })*
    };
}
impl_scalar!(u8, i8, u16, i16, i32, u64, i64, f32, f64);

impl Scalar for u32 {
    const BYTES: u64 = 4;
    const CORRUPTIBLE: bool = true;

    fn as_words_mut(data: &mut [Self]) -> Option<&mut [u32]> {
        Some(data)
    }
}

/// A typed allocation in simulated global memory.
///
/// The payload is an ordinary `Vec<T>`; the `base` field is the synthetic
/// device byte address used for segment accounting. All *accounted*
/// accesses go through [`crate::BlockCtx`]; tests and host-side code can
/// inspect contents freely via [`GlobalBuffer::as_slice_unaccounted`].
#[derive(Debug)]
pub struct GlobalBuffer<T: Scalar> {
    base: u64,
    data: Vec<T>,
    _marker: PhantomData<T>,
}

impl<T: Scalar> GlobalBuffer<T> {
    pub(crate) fn new(base: u64, data: Vec<T>) -> Self {
        debug_assert_eq!(base % ALLOC_ALIGN, 0, "device allocations are 256B-aligned");
        Self {
            base,
            data,
            _marker: PhantomData,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size of the allocation in bytes (what a PCIe transfer would move).
    pub fn size_bytes(&self) -> u64 {
        self.data.len() as u64 * T::BYTES
    }

    /// Device byte address of element `idx`.
    #[inline]
    pub fn addr_of(&self, idx: usize) -> u64 {
        debug_assert!(idx <= self.data.len());
        self.base + idx as u64 * T::BYTES
    }

    /// Host-side view of the contents. Does **not** count as device
    /// traffic — use only for verification, setup, and host code.
    pub fn as_slice_unaccounted(&self) -> &[T] {
        &self.data
    }

    /// Host-side mutable view. Does **not** count as device traffic.
    pub fn as_mut_slice_unaccounted(&mut self) -> &mut [T] {
        &mut self.data
    }

    pub(crate) fn get(&self, idx: usize) -> T {
        self.data[idx]
    }

    pub(crate) fn put(&mut self, idx: usize, v: T) {
        self.data[idx] = v;
    }

    pub(crate) fn range(&self, start: usize, len: usize) -> &[T] {
        &self.data[start..start + len]
    }

    pub(crate) fn range_mut(&mut self, start: usize, len: usize) -> &mut [T] {
        &mut self.data[start..start + len]
    }
}

/// Number of distinct 128-byte segments covered by the contiguous byte
/// range `[addr, addr + bytes)`. Zero-length ranges touch no segments.
#[inline]
pub fn segments_for_range(addr: u64, bytes: u64) -> u64 {
    if bytes == 0 {
        return 0;
    }
    (addr + bytes - 1) / SEGMENT_BYTES - addr / SEGMENT_BYTES + 1
}

/// The distinct 128-byte segments touched by a warp-sized gather of
/// `width`-byte elements at the given byte addresses, sorted and
/// deduplicated.
///
/// An element may straddle one segment boundary, not more: `width` must
/// not exceed [`SEGMENT_BYTES`]. This allocating form is for callers
/// that need the *list* (the per-block L1 model inserts each segment
/// into its set) and is the oracle the worker's mark map (module docs)
/// is tested against; plain counting goes through the map.
pub fn gather_segments(addrs: &[u64], width: u64) -> Vec<u64> {
    debug_assert!(addrs.len() <= WARP_SIZE, "gather must be per-warp");
    debug_assert!(
        width <= SEGMENT_BYTES,
        "an element spans at most two segments"
    );
    let mut segs: Vec<u64> = Vec::with_capacity(addrs.len() * 2);
    for &a in addrs {
        segs.push(a / SEGMENT_BYTES);
        if width > 0 {
            segs.push((a + width - 1) / SEGMENT_BYTES);
        }
    }
    segs.sort_unstable();
    segs.dedup();
    segs
}

/// A worker's segment mark map: how one warp instruction's transaction
/// count — the distinct 128-byte segments its lanes touch — is taken.
///
/// This is the coalescing rule: accesses from one warp that fall into
/// the same segment are combined into a single transaction; an element
/// that straddles a segment boundary touches both.
///
/// Every warp collective holds the [`GlobalBuffer`] it addresses, so a
/// segment is named by its offset from the buffer's first segment and
/// the map is one byte per segment of the largest buffer seen so far
/// (1/128 of its size, grown on demand, never shrunk). A count marks
/// each lane's segment(s), adds one for every byte that was clear, and
/// clears the same bytes again, so the map is all zeros between warps.
/// An access no wider than the buffer's element (every gather and
/// scatter of elements) cannot straddle, so its lane marks one segment
/// and never re-reads the byte it just wrote: half the map traffic, and
/// no store-to-load forwarding stall inside a lane.
/// It is O(lanes) with no hashing, probing or sorting — and a *byte*
/// per segment rather than a bit: the lanes of a warp often fall into
/// a handful of adjacent segments, and 32 read-modify-writes of one
/// word serialise on store forwarding where 32 byte stores do not.
#[derive(Debug, Default)]
pub(crate) struct SegmentMarks {
    marks: Vec<u8>,
}

impl SegmentMarks {
    /// Distinct segments touched by one warp's lanes reading or writing
    /// `width` bytes (`width <= SEGMENT_BYTES`) at byte addresses
    /// `addrs`, every one of which lies inside `buf` (a wide read may
    /// run up to `width` bytes past its end).
    pub(crate) fn count<T: Scalar>(
        &mut self,
        buf: &GlobalBuffer<T>,
        addrs: &[u64],
        width: u64,
    ) -> u64 {
        debug_assert!(addrs.len() <= WARP_SIZE, "gather must be per-warp");
        debug_assert!(
            width <= SEGMENT_BYTES,
            "an element spans at most two segments"
        );
        let first_seg = buf.base / SEGMENT_BYTES;
        let end = buf.base + buf.size_bytes() + width;
        let span = (end / SEGMENT_BYTES - first_seg + 1) as usize;
        if self.marks.len() < span {
            self.marks.resize(span, 0);
        }
        if width <= T::BYTES {
            // Element accesses (a gather, a scatter). An element sits at
            // a multiple of its size, a power of two that divides a
            // segment, so it never straddles one: a lane marks one
            // segment, and no lane reads back the byte it just wrote.
            debug_assert!(addrs.iter().all(|a| a % T::BYTES == 0));
            let seg = |a: u64| (a / SEGMENT_BYTES - first_seg) as usize;
            let marks = &mut self.marks[..span];
            let mut distinct = 0u64;
            for &a in addrs {
                distinct += u64::from(marks[seg(a)] == 0);
                marks[seg(a)] = 1;
            }
            for &a in addrs {
                marks[seg(a)] = 0;
            }
            return distinct;
        }
        // A lane's first and last segment (the same one unless the
        // element straddles a boundary; a zero-width access has only a
        // first).
        let reach = width.saturating_sub(1);
        let lane = |a: u64| {
            (
                (a / SEGMENT_BYTES - first_seg) as usize,
                ((a + reach) / SEGMENT_BYTES - first_seg) as usize,
            )
        };
        let marks = &mut self.marks[..span];
        let mut distinct = 0u64;
        for &a in addrs {
            let (first, last) = lane(a);
            distinct += u64::from(marks[first] == 0);
            marks[first] = 1;
            distinct += u64::from(marks[last] == 0);
            marks[last] = 1;
        }
        for &a in addrs {
            let (first, last) = lane(a);
            marks[first] = 0;
            marks[last] = 0;
        }
        distinct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_segments_aligned() {
        assert_eq!(segments_for_range(0, 128), 1);
        assert_eq!(segments_for_range(0, 129), 2);
        assert_eq!(segments_for_range(0, 256), 2);
        assert_eq!(segments_for_range(128, 128), 1);
    }

    #[test]
    fn range_segments_misaligned() {
        // A 258-byte block starting mid-segment spans 3-4 segments, the
        // inefficiency the paper's Optimization 2 amortizes away.
        assert_eq!(segments_for_range(64, 258), 3);
        assert_eq!(segments_for_range(120, 258), 3);
        assert_eq!(segments_for_range(0, 258), 3);
        assert_eq!(segments_for_range(126, 260), 4);
    }

    #[test]
    fn range_segments_zero() {
        assert_eq!(segments_for_range(512, 0), 0);
    }

    /// A byte buffer at `base`: every byte address in it is an element
    /// address, so the tests can aim a lane anywhere.
    fn bytes_at(base: u64, len: usize) -> GlobalBuffer<u8> {
        GlobalBuffer::new(base, vec![0; len])
    }

    /// Count through a fresh map.
    fn count(buf: &GlobalBuffer<u8>, addrs: &[u64], width: u64) -> u64 {
        SegmentMarks::default().count(buf, addrs, width)
    }

    #[test]
    fn gather_broadcast_is_one_segment() {
        let buf = bytes_at(4096, 1024);
        assert_eq!(count(&buf, &[4096 + 40; 32], 4), 1);
    }

    #[test]
    fn gather_contiguous_u32_warp_is_one_segment() {
        let buf = bytes_at(4096, 1024);
        let addrs: Vec<u64> = (0..32).map(|i| 4096 + i * 4).collect();
        assert_eq!(count(&buf, &addrs, 4), 1);
    }

    #[test]
    fn gather_strided_is_fully_diverged() {
        // 128-byte stride: every lane in its own segment.
        let buf = bytes_at(4096, 32 * 128);
        let addrs: Vec<u64> = (0..32).map(|i| 4096 + i * 128).collect();
        assert_eq!(count(&buf, &addrs, 4), 32);
    }

    #[test]
    fn gather_straddling_counts_both_segments() {
        // One 8-byte element crossing a segment boundary.
        let buf = bytes_at(4096, 1024);
        assert_eq!(count(&buf, &[4096 + 124], 8), 2);
    }

    #[test]
    fn gather_full_width_element_counts_both_segments() {
        // A 128-byte element at offset 64 covers the second half of one
        // segment and the first half of the next; wider elements would
        // have middle segments neither counter looks at, hence the
        // `width <= SEGMENT_BYTES` contract.
        assert_eq!(gather_segments(&[64], SEGMENT_BYTES), vec![0, 1]);
        let buf = bytes_at(4096, 1024);
        assert_eq!(count(&buf, &[4096 + 64], SEGMENT_BYTES), 2);
        assert_eq!(count(&buf, &[4096 + 128], SEGMENT_BYTES), 1);
    }

    #[test]
    fn a_wide_read_of_the_last_element_may_straddle_past_the_buffer() {
        // The buffer ends four bytes short of a segment boundary and
        // the last lane reads an 8-byte window from its final element:
        // the second segment lies wholly outside the allocation.
        let mut marks = SegmentMarks::default();
        for base in [4096u64, 4096 + 256, u64::MAX / 2 + 1] {
            for segments in [1u64, 2, 33] {
                let buf = bytes_at(base, (segments * SEGMENT_BYTES - 3) as usize);
                let last = base + buf.size_bytes() - 1;
                let addrs = [base, last, last];
                assert_eq!(
                    marks.count(&buf, &addrs, 8),
                    gather_segments(&addrs, 8).len() as u64,
                    "base {base}, {segments} segment(s)"
                );
            }
        }
    }

    /// The mark map against the sorted list, over seeded random warps
    /// of every shape the kernels issue, aimed at buffers small and
    /// large, near and far. One map serves every warp, and every warp
    /// is counted twice back to back: a mark left behind would lower
    /// the second count.
    #[test]
    fn mark_map_count_matches_sorted_list_on_random_warps() {
        use tlc_rng::Rng;
        let mut rng = Rng::seed_from_u64(0x5E6_0001);
        let table = 1usize << 24;
        let buffers = [
            bytes_at(4096, table),
            bytes_at(u64::MAX / 2 + 1 - 256, table),
            // Ends mid-segment: the last elements straddle out of it.
            bytes_at(4096 + 256, 128 * SEGMENT_BYTES as usize - 3),
        ];
        let mut marks = SegmentMarks::default();
        let mut worst = 0;
        for round in 0..4_000 {
            let buf = &buffers[rng.gen_range(0usize..buffers.len())];
            let lanes = rng.gen_range(0usize..=WARP_SIZE);
            let width = [0u64, 1, 4, 8][rng.gen_range(0usize..4)];
            let room = buf.size_bytes() - 2 * WARP_SIZE as u64 * SEGMENT_BYTES;
            let base = buf.addr_of(0) + rng.gen_range(0u64..256);
            let addrs: Vec<u64> = match round % 7 {
                // Broadcast.
                0 => vec![base; lanes],
                // Contiguous elements.
                1 => (0..lanes as u64).map(|i| base + i * width.max(1)).collect(),
                // 128-byte stride: every lane in its own segment.
                2 => (0..lanes as u64)
                    .map(|i| base + i * SEGMENT_BYTES)
                    .collect(),
                // Every element straddles a boundary of its own: two
                // fresh segments per lane, 64 for a full 8-byte warp.
                3 => (0..lanes as u64)
                    .map(|i| (base / SEGMENT_BYTES + 2 * i + 1) * SEGMENT_BYTES - 1)
                    .collect(),
                // Random within a few segments (heavy sharing).
                4 => (0..lanes)
                    .map(|_| base + rng.gen_range(0u64..1024))
                    .collect(),
                // The buffer's last bytes, wide reads running off its end.
                5 => (0..lanes)
                    .map(|_| buf.addr_of(buf.len() - 1) - rng.gen_range(0u64..16))
                    .collect(),
                // Random over the whole table (a hash probe).
                _ => (0..lanes).map(|_| base + rng.gen_range(0..room)).collect(),
            };
            let want = gather_segments(&addrs, width).len() as u64;
            for pass in ["first", "repeated"] {
                assert_eq!(
                    marks.count(buf, &addrs, width),
                    want,
                    "round {round} ({pass}): width {width}, addrs {addrs:?}"
                );
            }
            worst = worst.max(want);
        }
        assert_eq!(
            worst,
            2 * WARP_SIZE as u64,
            "the 64-segment case was generated"
        );
        assert!(
            marks.marks.len() >= table / SEGMENT_BYTES as usize,
            "the map grew to the largest buffer"
        );
        assert!(marks.marks.iter().all(|&m| m == 0), "left clean");
    }

    /// Element accesses mark one segment a lane: against the sorted list
    /// for every element size, over warps confined to a few segments
    /// (a small table) and spread over many.
    #[test]
    fn element_accesses_count_as_the_sorted_list() {
        fn check<T: Scalar>(rng: &mut tlc_rng::Rng, marks: &mut SegmentMarks) {
            let buf = GlobalBuffer::<T>::new(4096 + 256, vec![T::default(); 3_000]);
            for round in 0..500 {
                let lanes = rng.gen_range(0usize..=WARP_SIZE);
                let reach = [8usize, 200, 3_000][round % 3];
                let addrs: Vec<u64> = (0..lanes)
                    .map(|_| buf.addr_of(rng.gen_range(0..reach)))
                    .collect();
                let want = gather_segments(&addrs, T::BYTES).len() as u64;
                assert_eq!(marks.count(&buf, &addrs, T::BYTES), want, "{addrs:?}");
            }
        }
        let mut rng = tlc_rng::Rng::seed_from_u64(0x5E6_0002);
        let mut marks = SegmentMarks::default();
        check::<u8>(&mut rng, &mut marks);
        check::<u16>(&mut rng, &mut marks);
        check::<i32>(&mut rng, &mut marks);
        check::<u64>(&mut rng, &mut marks);
        assert!(marks.marks.iter().all(|&m| m == 0), "left clean");
    }

    #[test]
    fn buffer_addressing() {
        let buf = GlobalBuffer::<u32>::new(512, vec![0; 16]);
        assert_eq!(buf.addr_of(0), 512);
        assert_eq!(buf.addr_of(4), 528);
        assert_eq!(buf.size_bytes(), 64);
        assert_eq!(buf.len(), 16);
        assert!(!buf.is_empty());
    }
}
