//! Dimension-table hash joins.
//!
//! SSB dimension keys are dense (1..n), so Crystal-style engines build
//! *perfect* hash tables: slot `key - base` holds the join payload (or
//! a sentinel when the dimension row fails its filter). Build is one
//! streaming pass over the dimension, a **part** of a launch
//! ([`DenseTable::build_part`]) so that every table a wave needs is
//! built by one launch; probe is a warp gather from inside the fused
//! fact-table kernel — the random-access pattern whose coalescing the
//! simulator accounts faithfully.
//!
//! A probe's cost is the segments its gathers touch, so a slot is as
//! narrow as the built payloads allow ([`DenseTable::slot_bits`]): one
//! **bit** per key when every payload is 0 (a semi-join: the probe only
//! asks whether the key's row qualifies), a `u8` for payloads in
//! `0..=254`, a `u16` for `0..=65534` (the type's maximum is the miss
//! sentinel), an `i32` otherwise (`i32::MIN` is the miss). The width is
//! a function of the built rows alone, and the probe answers what the
//! `i32` table answers at every width. A year, a nation or a city fits
//! a byte, a brand two; 32 lanes that gather from a quarter or an
//! eighth of the bytes touch fewer 128-byte segments.

use tlc_gpu_sim::{
    ballot, BlockCtx, Device, GlobalBuffer, KernelConfig, LaunchPart, Phase, Scalar, WARP_SIZE,
};

/// Dimension rows one build block streams.
const BUILD_CHUNK: usize = 2048;

/// A slot type of a table one byte or more wide: a payload converts
/// in and out, and `MISS` means "no qualifying row".
trait Slot: Scalar + PartialEq + TryFrom<i32> + Into<i32> + Send + Sync {
    /// The miss sentinel, which no stored payload equals.
    const MISS: Self;
}

impl Slot for u8 {
    const MISS: u8 = u8::MAX;
}

impl Slot for u16 {
    const MISS: u16 = u16::MAX;
}

impl Slot for i32 {
    const MISS: i32 = i32::MIN;
}

/// The slots at the width the build chose. None is `u32`, the one
/// element type the fault injector flips: a table takes no bit flips
/// and draws nothing from an armed plan.
#[derive(Debug)]
enum Slots {
    /// Bit `i % 8` of byte `i / 8` is set when key `base + i` has a
    /// qualifying row; its payload is 0.
    Bits(GlobalBuffer<u8>),
    U8(GlobalBuffer<u8>),
    U16(GlobalBuffer<u16>),
    I32(GlobalBuffer<i32>),
}

/// The slot width, in bits, for a build of `rows`: the narrowest that
/// holds every payload with the width's miss sentinel to spare.
fn width_of(rows: &[(i32, Option<i32>)]) -> u32 {
    let payloads = rows.iter().filter_map(|&(_, p)| p);
    match payloads.fold((0, 0), |(lo, hi), p| (p.min(lo), p.max(hi))) {
        (0, 0) => 1,
        (0, 1..=254) => 8,
        (0, 255..=65_534) => 16,
        _ => 32,
    }
}

/// A dense (perfect) join table from dimension key → payload.
#[derive(Debug)]
pub struct DenseTable {
    /// Smallest key.
    pub base: i32,
    /// Keys covered, `base..base + keys`.
    keys: usize,
    slots: Slots,
}

impl DenseTable {
    /// A table over the keys `base..=max_key` in which every probe
    /// misses, until a launch runs its [`DenseTable::build_part`].
    pub fn empty(dev: &Device, base: i32, max_key: i32) -> DenseTable {
        let keys = (max_key - base + 1) as usize;
        let bits = dev.alloc_zeroed(keys.div_ceil(8));
        DenseTable {
            base,
            keys,
            slots: Slots::Bits(bits),
        }
    }

    /// The build of this table from host-side dimension data, as one
    /// part (`build_{name}`) of a launch: `rows` yields `(key,
    /// Option<payload>)`; `None` payloads mark filtered-out rows. The
    /// part's traffic covers reading `dim_bytes_read` bytes of
    /// dimension columns (key + filter + payload columns; sized by the
    /// caller so the read traffic is exact) and writing the table.
    ///
    /// The table's slots are replaced by fresh ones at the width
    /// `rows` allows (module docs); the part writes the rows into them.
    pub fn build_part<'a>(
        &'a mut self,
        dev: &Device,
        name: &str,
        rows: &'a [(i32, Option<i32>)],
        dim_bytes_read: u64,
    ) -> LaunchPart<'a> {
        self.build_part_at(dev, name, rows, dim_bytes_read, width_of(rows))
    }

    /// [`DenseTable::build_part`] at a given slot width (1, 8, 16 or
    /// 32 bits) that holds every payload of `rows`.
    fn build_part_at<'a>(
        &'a mut self,
        dev: &Device,
        name: &str,
        rows: &'a [(i32, Option<i32>)],
        dim_bytes_read: u64,
        bits: u32,
    ) -> LaunchPart<'a> {
        // Stand-in allocation for the dimension columns the build scans.
        let scan = BuildScan {
            rows,
            dim_bytes: dev.alloc_zeroed::<u8>(dim_bytes_read as usize),
            base: self.base,
        };
        let grid = rows.len().div_ceil(BUILD_CHUNK).max(1);
        let cfg = KernelConfig::new(format!("build_{name}"), grid, 128).regs_per_thread(24);
        let keys = self.keys;
        self.slots = match bits {
            1 => Slots::Bits(dev.alloc_zeroed(keys.div_ceil(8))),
            8 => Slots::U8(dev.alloc_from_vec(vec![u8::MISS; keys])),
            16 => Slots::U16(dev.alloc_from_vec(vec![u16::MISS; keys])),
            _ => Slots::I32(dev.alloc_from_vec(vec![i32::MISS; keys])),
        };
        match &mut self.slots {
            Slots::Bits(bits) => scan.bits_part(cfg, bits),
            Slots::U8(slots) => scan.slot_part(cfg, slots),
            Slots::U16(slots) => scan.slot_part(cfg, slots),
            Slots::I32(slots) => scan.slot_part(cfg, slots),
        }
    }

    /// Build a table with a launch of its own (the one-part case of
    /// [`DenseTable::build_part`]). Panics on a device fault.
    pub fn build(
        dev: &Device,
        name: &str,
        base: i32,
        max_key: i32,
        rows: &[(i32, Option<i32>)],
        dim_bytes_read: u64,
    ) -> DenseTable {
        let mut table = DenseTable::empty(dev, base, max_key);
        let part = table.build_part(dev, name, rows, dim_bytes_read);
        dev.try_launch_parts("", vec![part])
            .unwrap_or_else(|e| panic!("build_{name} failed: {e}"));
        table
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.keys
    }

    /// True when the table has no slots.
    pub fn is_empty(&self) -> bool {
        self.keys == 0
    }

    /// Bits a slot takes: 1 (a presence bitmap, every payload 0), 8, 16
    /// or 32. An unbuilt table is a bitmap with no bit set.
    pub fn slot_bits(&self) -> u32 {
        match self.slots {
            Slots::Bits(_) => 1,
            Slots::U8(_) => 8,
            Slots::U16(_) => 16,
            Slots::I32(_) => 32,
        }
    }

    /// Probe a tile of foreign keys from inside a kernel.
    ///
    /// `sel` is the tile's selection as ballot words (one `u32` per
    /// warp of 32 keys, see [`tlc_gpu_sim::live_lanes`]), updated in
    /// place: a selected lane whose key hits keeps its bit and gets
    /// its payload written to `pays[lane]`; a miss — a filtered-out
    /// dimension row, or a key outside the table's range, which issues
    /// no load at all — clears its bit. `pays` of a lane left dead is
    /// unspecified. Words missing from a short `sel` are dead warps.
    ///
    /// Unselected lanes don't issue loads — but they also don't save
    /// transactions unless a whole warp is inactive, exactly as on
    /// hardware: a dead warp costs nothing, a live one is charged the
    /// distinct segments its live lanes touch at the table's width. A
    /// key costs two integer operations at every width: the slot index,
    /// and the hit test, which on a bitmap is the bit extract.
    pub fn probe(&self, ctx: &mut BlockCtx<'_>, keys: &[i32], sel: &mut [u32], pays: &mut [i32]) {
        debug_assert_eq!(keys.len(), pays.len());
        ctx.set_phase(Phase::Predicate);
        let bit = |slot: usize, byte: u8| ((byte >> (slot % 8)) & 1 != 0, 0);
        match &self.slots {
            Slots::Bits(bits) => self.gather(ctx, bits, |slot| slot / 8, bit, keys, sel, pays),
            Slots::U8(slots) => self.gather(ctx, slots, |slot| slot, payload, keys, sel, pays),
            Slots::U16(slots) => self.gather(ctx, slots, |slot| slot, payload, keys, sel, pays),
            Slots::I32(slots) => self.gather(ctx, slots, |slot| slot, payload, keys, sel, pays),
        }
        ctx.add_int_ops(keys.len() as u64 * 2);
    }

    /// The probe's warp loop over a buffer of `T`: a lane's slot is
    /// `key - base`, it reads element `element(slot)`, and `hit(slot,
    /// value)` is whether the slot holds a row, and its payload. Stack
    /// arrays per warp, one gather, one loop over the lanes.
    #[allow(clippy::too_many_arguments)]
    fn gather<T: Scalar>(
        &self,
        ctx: &mut BlockCtx<'_>,
        buf: &GlobalBuffer<T>,
        element: impl Fn(usize) -> usize,
        hit: impl Fn(usize, T) -> (bool, i32),
        keys: &[i32],
        sel: &mut [u32],
        pays: &mut [i32],
    ) {
        for ((kw, pw), word) in keys
            .chunks(WARP_SIZE)
            .zip(pays.chunks_mut(WARP_SIZE))
            .zip(sel.iter_mut())
        {
            if *word == 0 {
                continue;
            }
            // Slot and element per lane, and the ballot of the lanes
            // whose key the table covers. (An unselected lane's key is
            // filler: its slot is computed, wrapping, and never used.)
            let (mut slot, mut at) = ([0usize; WARP_SIZE], [0usize; WARP_SIZE]);
            for ((s, a), &k) in slot.iter_mut().zip(&mut at).zip(kw) {
                *s = k.wrapping_sub(self.base) as u32 as usize;
                *a = element(*s);
            }
            let lanes = kw.len();
            let live = *word & ballot(slot[..lanes].iter().map(|&s| s < self.keys));
            let mut got = [T::default(); WARP_SIZE];
            ctx.warp_gather_masked(buf, live, &at[..lanes], &mut got[..lanes]);
            // Every lane, without a branch: a dead lane's payload is
            // filler and its bit is masked off.
            let mut hits = 0;
            for (lane, ((&s, &v), p)) in slot.iter().zip(&got).zip(pw).enumerate() {
                let (found, payload) = hit(s, v);
                *p = payload;
                hits |= u32::from(found) << lane;
            }
            *word = live & hits;
        }
    }
}

/// Whether a byte-or-wider slot holds a row, and its payload.
fn payload<T: Slot>(_slot: usize, value: T) -> (bool, i32) {
    (value != T::MISS, value.into())
}

/// What a build part's blocks share at every width: the rows, the
/// stand-in for the dimension columns they read, the table's base.
struct BuildScan<'a> {
    rows: &'a [(i32, Option<i32>)],
    dim_bytes: GlobalBuffer<u8>,
    base: i32,
}

impl<'a> BuildScan<'a> {
    /// Block `ctx`'s rows, charged as its slice of the dimension read
    /// and four operations a row, as `(slot, payload)` for each row that
    /// qualifies.
    fn block(&self, ctx: &mut BlockCtx<'_>) -> impl Iterator<Item = (usize, i32)> + 'a {
        let n = self.rows.len();
        let lo = (ctx.block_id() * BUILD_CHUNK).min(n);
        let hi = (lo + BUILD_CHUNK).min(n);
        if hi > lo {
            // Read this slice's share of the dimension columns.
            let blo = lo * self.dim_bytes.len() / n;
            let bhi = hi * self.dim_bytes.len() / n;
            if bhi > blo {
                ctx.read_coalesced_with(&self.dim_bytes, blo, bhi - blo, |_| ());
            }
            ctx.add_int_ops((hi - lo) as u64 * 4);
        }
        let (base, rows): (i32, &'a [_]) = (self.base, self.rows);
        rows[lo..hi]
            .iter()
            .filter_map(move |&(k, p)| p.map(|payload| ((k - base) as usize, payload)))
    }

    /// The part at a byte-or-wider width: each block returns its slot
    /// writes and the serial merge scatters them in block order.
    fn slot_part<T: Slot>(
        self,
        cfg: KernelConfig,
        slots: &'a mut GlobalBuffer<T>,
    ) -> LaunchPart<'a> {
        LaunchPart::new(
            cfg,
            || (),
            move |(), ctx| {
                let store = |p| T::try_from(p).unwrap_or_else(|_| unreachable!("{p} fits"));
                let writes = self.block(ctx).map(|(slot, p)| (slot, store(p)));
                writes.collect::<Vec<(usize, T)>>()
            },
            move |ctx, _block, writes| ctx.warp_scatter(slots, &writes),
        )
    }

    /// The part at one bit a key: each block returns the bytes its rows
    /// set, each byte once with its bits ORed. A byte whose keys fall in
    /// two blocks is ORed with what the earlier block wrote in the
    /// serial merge, and charged as the later block's scatter.
    fn bits_part(self, cfg: KernelConfig, bits: &'a mut GlobalBuffer<u8>) -> LaunchPart<'a> {
        LaunchPart::new(
            cfg,
            || (),
            move |(), ctx| {
                let set = self
                    .block(ctx)
                    .map(|(slot, _)| (slot / 8, 1u8 << (slot % 8)));
                let mut bytes: Vec<(usize, u8)> = set.collect();
                bytes.sort_unstable_by_key(|&(byte, _)| byte);
                bytes.dedup_by(|later, kept| {
                    let same = later.0 == kept.0;
                    if same {
                        kept.1 |= later.1;
                    }
                    same
                });
                bytes
            },
            move |ctx, _block, mut bytes| {
                let held = bits.as_slice_unaccounted();
                for (byte, set) in &mut bytes {
                    *set |= held[*byte];
                }
                ctx.warp_scatter(bits, &bytes);
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlc_gpu_sim::memory::gather_segments;
    use tlc_gpu_sim::{all_lanes, live_lanes, KernelConfig};

    fn table(dev: &Device) -> DenseTable {
        let rows: Vec<(i32, Option<i32>)> = (1..=100)
            .map(|k| (k, (k % 2 == 0).then_some(k * 10)))
            .collect();
        DenseTable::build(dev, "t", 1, 100, &rows, 400)
    }

    /// The byte address a probe of `slot` reads, and the bytes it reads
    /// there: the table's own width.
    fn element(t: &DenseTable, slot: usize) -> (u64, u64) {
        match &t.slots {
            Slots::Bits(bits) => (bits.addr_of(slot / 8), 1),
            Slots::U8(slots) => (slots.addr_of(slot), 1),
            Slots::U16(slots) => (slots.addr_of(slot), 2),
            Slots::I32(slots) => (slots.addr_of(slot), 4),
        }
    }

    #[test]
    fn probe_hits_and_misses() {
        let dev = Device::v100();
        let t = table(&dev);
        assert_eq!(t.slot_bits(), 16, "payloads up to 1000");
        let (mut sel, mut pays) = (vec![0b1111], vec![0; 4]);
        dev.launch(KernelConfig::new("probe", 1, 128), |ctx| {
            t.probe(ctx, &[2, 3, 4, 100], &mut sel, &mut pays);
        });
        assert_eq!(sel, [0b1101]);
        assert_eq!((pays[0], pays[2], pays[3]), (20, 40, 1000));
    }

    #[test]
    fn unselected_lanes_probe_nothing() {
        let dev = Device::v100();
        let t = table(&dev);
        let (mut sel, mut pays) = (vec![0; 2], vec![7; 64]);
        let report = dev.launch(KernelConfig::new("probe", 1, 128), |ctx| {
            t.probe(ctx, &[2; 64], &mut sel, &mut pays);
        });
        assert_eq!(sel, [0, 0]);
        assert_eq!(pays, [7; 64], "dead warps write nothing");
        assert_eq!(report.traffic.global_read_segments, 0);
    }

    /// The ballot-word probe against a per-lane scalar reference, for
    /// tile lengths around every word boundary: random selections, a
    /// selection one word short, all-dead and all-live warps, and keys
    /// on both sides of the table's range. Segments are those of the
    /// live in-range lanes' elements at the table's width.
    #[test]
    fn probe_matches_a_per_lane_reference() {
        let mut rng = tlc_rng::Rng::seed_from_u64(0xBA_1107);
        let dev = Device::v100();
        let t = table(&dev);
        let width = element(&t, 0).1;
        for n in [0usize, 1, 31, 32, 33, 511, 512] {
            for shape in ["random", "short", "dead", "live", "one live warp"] {
                let keys: Vec<i32> = (0..n).map(|_| rng.gen_range(-3..=104)).collect();
                let mut sel = Vec::new();
                all_lanes(n, &mut sel);
                match shape {
                    "random" => sel.iter_mut().for_each(|w| *w &= rng.next_u64() as u32),
                    "short" => {
                        sel.iter_mut().for_each(|w| *w &= rng.next_u64() as u32);
                        sel.pop();
                    }
                    "dead" => sel.fill(0),
                    "one live warp" => {
                        let keep = sel.len() / 2;
                        for (w, word) in sel.iter_mut().enumerate() {
                            *word &= if w == keep { u32::MAX } else { 0 };
                        }
                    }
                    _ => {}
                }
                // Per lane: selected, in range, slot not empty.
                let selected: Vec<usize> = live_lanes(&sel).collect();
                let slot_of = |k: i32| (1..=100).contains(&k).then(|| (k - 1) as usize);
                let want: Vec<(usize, i32)> = selected
                    .iter()
                    .filter(|&&i| slot_of(keys[i]).is_some() && keys[i] % 2 == 0)
                    .map(|&i| (i, keys[i] * 10))
                    .collect();
                let want_segments: usize = (0..n.div_ceil(WARP_SIZE))
                    .map(|w| {
                        let lanes = selected.iter().filter(|&&i| i / WARP_SIZE == w);
                        let addrs: Vec<u64> = lanes
                            .filter_map(|&i| Some(element(&t, slot_of(keys[i])?).0))
                            .collect();
                        gather_segments(&addrs, width).len()
                    })
                    .sum();

                let mut pays = vec![-1; n];
                let report = dev.launch(KernelConfig::new("probe", 1, 128), |ctx| {
                    t.probe(ctx, &keys, &mut sel, &mut pays);
                    assert_eq!(ctx.current_phase(), Phase::Predicate);
                });
                let got: Vec<(usize, i32)> = live_lanes(&sel).map(|i| (i, pays[i])).collect();
                assert_eq!(got, want, "n = {n}, {shape}");
                assert_eq!(
                    report.traffic.global_read_segments, want_segments as u64,
                    "n = {n}, {shape}"
                );
                assert_eq!(report.traffic.int_ops, n as u64 * 2, "n = {n}, {shape}");
            }
        }
    }

    #[test]
    fn selective_probe_issues_fewer_transactions() {
        let dev = Device::v100();
        let t = table(&dev);
        let run = |sel_every: usize| {
            dev.reset_timeline();
            dev.launch(KernelConfig::new("probe", 1, 128), |ctx| {
                let keys: Vec<i32> = (0..1024).map(|i| (i % 100) + 1).collect();
                let mut sel = vec![0u32; 32];
                for i in (0..1024).step_by(sel_every) {
                    sel[i / 32] |= 1 << (i % 32);
                }
                t.probe(ctx, &keys, &mut sel, &mut vec![0; 1024]);
            });
            dev.with_timeline(|tl| tl.total_traffic().global_read_segments)
        };
        assert!(run(64) < run(1));
    }

    #[test]
    fn the_width_is_the_narrowest_the_payloads_allow() {
        let rows = |payloads: &[Option<i32>]| -> Vec<(i32, Option<i32>)> {
            payloads.iter().zip(1..).map(|(&p, k)| (k, p)).collect()
        };
        for (payloads, bits) in [
            (vec![], 1),
            (vec![None, None], 1),
            (vec![Some(0), None, Some(0)], 1),
            (vec![Some(0), Some(1)], 8),
            (vec![Some(254), None], 8),
            (vec![Some(255)], 16),
            (vec![Some(65_534), Some(0)], 16),
            (vec![Some(65_535)], 32),
            (vec![Some(-1), Some(0)], 32),
            (vec![Some(i32::MIN)], 32),
            (vec![Some(i32::MAX)], 32),
        ] {
            assert_eq!(width_of(&rows(&payloads)), bits, "{payloads:?}");
            let dev = Device::v100();
            let max_key = payloads.len().max(1) as i32;
            let t = DenseTable::build(&dev, "t", 1, max_key, &rows(&payloads), 64);
            assert_eq!(t.slot_bits(), bits, "{payloads:?}");
        }
        let dev = Device::v100();
        assert_eq!(DenseTable::empty(&dev, 1, 9).slot_bits(), 1);
    }

    /// `yyyymmdd` keys of every day from 1992 through 1998: sparse
    /// within the key range, as the date dimension's are, and more rows
    /// than one build block streams.
    fn date_keys() -> Vec<i32> {
        let mut keys = Vec::new();
        for year in 1992..=1998 {
            for month in 1..=12 {
                let days = match month {
                    2 if year % 4 == 0 => 29,
                    2 => 28,
                    4 | 6 | 9 | 11 => 30,
                    _ => 31,
                };
                keys.extend((1..=days).map(|day| year * 10_000 + month * 100 + day));
            }
        }
        keys
    }

    /// The narrow table against an `i32` table of the same rows, over
    /// random key sets and payload domains on both sides of every width
    /// boundary, probed with keys inside the range, below `base`, above
    /// the last key and at the ends of `i32`: equal ballot words, equal
    /// payloads on every live lane, and no warp touching more segments
    /// than the `i32` table's does.
    #[test]
    fn a_narrow_table_answers_as_the_i32_table_in_no_more_segments() {
        let mut rng = tlc_rng::Rng::seed_from_u64(0x0DE_5E17);
        let dev = Device::v100();
        let dates = date_keys();
        // The build's blocks split a bitmap byte: the last key of a
        // block and the first of the next share one.
        let base = dates[0];
        let straddles = (BUILD_CHUNK..dates.len())
            .step_by(BUILD_CHUNK)
            .any(|r| (dates[r - 1] - base) / 8 == (dates[r] - base) / 8);
        assert!(straddles, "a bitmap byte spans two build blocks");
        let dense: Vec<i32> = (1..=3_000).collect();
        let domains: [(&str, i32, i32, u32); 6] = [
            ("all zero", 0, 0, 1),
            ("max 254", 0, 254, 8),
            ("max 255", 0, 255, 16),
            ("max 65534", 0, 65_534, 16),
            ("max 65535", 0, 65_535, 32),
            ("one negative", -1, 40, 32),
        ];
        let mut saved = 0;
        for keys in [&dates, &dense] {
            let (first, last) = (keys[0], keys[keys.len() - 1]);
            for &(label, lo, hi, bits) in &domains {
                // Roughly half the rows qualify; the domain's ends are
                // always among the payloads.
                let mut rows: Vec<(i32, Option<i32>)> = keys
                    .iter()
                    .map(|&k| (k, rng.gen_bool(0.5).then(|| rng.gen_range(lo..=hi))))
                    .collect();
                rows[1].1 = Some(lo);
                rows[keys.len() - 2].1 = Some(hi);
                let narrow = DenseTable::build(&dev, "narrow", first, last, &rows, 1_024);
                assert_eq!(narrow.slot_bits(), bits, "{label}");
                let mut wide = DenseTable::empty(&dev, first, last);
                let part = wide.build_part_at(&dev, "wide", &rows, 1_024, 32);
                dev.try_launch_parts("", vec![part]).expect("no fault plan");
                assert_eq!(wide.slot_bits(), 32);

                for warp in 0..64 {
                    let lanes = rng.gen_range(1..=WARP_SIZE);
                    let probe_keys: Vec<i32> = (0..lanes)
                        .map(|_| match rng.gen_range(0..10) {
                            0 => first - rng.gen_range(1..=100),
                            1 => last + rng.gen_range(1..=100),
                            2 => [i32::MIN, i32::MAX][rng.gen_range(0usize..2)],
                            3 => rng.gen_range(first..=last),
                            _ => keys[rng.gen_range(0..keys.len())],
                        })
                        .collect();
                    let sel = rng.next_u64() as u32 & (u32::MAX >> (WARP_SIZE - lanes));
                    let probe = |t: &DenseTable| {
                        let (mut words, mut pays) = ([sel], vec![i32::MIN + 1; lanes]);
                        let report = dev.launch(KernelConfig::new("probe", 1, 128), |ctx| {
                            t.probe(ctx, &probe_keys, &mut words, &mut pays);
                        });
                        let live: Vec<(usize, i32)> =
                            live_lanes(&words).map(|l| (l, pays[l])).collect();
                        (words[0], live, report.traffic)
                    };
                    let (want_word, want_pays, want) = probe(&wide);
                    let (word, pays, got) = probe(&narrow);
                    let label = format!("{label}, warp {warp}");
                    assert_eq!(word, want_word, "{label}");
                    assert_eq!(pays, want_pays, "{label}");
                    assert!(
                        got.global_read_segments <= want.global_read_segments,
                        "{label}: {} segments where the i32 table takes {}",
                        got.global_read_segments,
                        want.global_read_segments
                    );
                    assert_eq!(got.int_ops, want.int_ops, "{label}");
                    saved += want.global_read_segments - got.global_read_segments;
                }
            }
        }
        assert!(saved > 0, "some warp touched fewer segments");
    }

    #[test]
    fn a_bitmap_byte_split_between_build_blocks_keeps_both_blocks_bits() {
        let dev = Device::v100();
        // Keys 1..=4096 all qualify; with a base of -3 the boundary
        // between the two blocks (keys 2048 | 2049) falls inside one
        // byte (slots 2051 | 2052 of byte 256).
        let rows: Vec<(i32, Option<i32>)> = (1..=4096).map(|k| (k, Some(0))).collect();
        let t = DenseTable::build(&dev, "t", -3, 4096, &rows, 64);
        assert_eq!(t.slot_bits(), 1);
        let Slots::Bits(bits) = &t.slots else {
            unreachable!("a bitmap")
        };
        let bytes = bits.as_slice_unaccounted();
        assert_eq!(bytes[0], 0xF0, "keys -3..=0 have no row");
        assert!(bytes[1..512].iter().all(|&b| b == 0xFF));
        assert_eq!(bytes[512], 0x0F);
        let keys: Vec<i32> = (-3..=28).collect();
        let mut sel = [u32::MAX];
        let mut pays = [9; 32];
        dev.launch(KernelConfig::new("probe", 1, 128), |ctx| {
            t.probe(ctx, &keys, &mut sel, &mut pays);
        });
        assert_eq!(sel, [u32::MAX << 4]);
        assert!(pays[4..].iter().all(|&p| p == 0));
    }
}
