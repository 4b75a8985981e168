//! Fact-table columns as seen by query kernels.

use tlc_core::column::{DeviceColumn, TILE};
use tlc_core::DecodeError;
use tlc_gpu_sim::{BlockCtx, Device, GlobalBuffer, Phase};

/// A column a query kernel can consume tile by tile: plain (Crystal's
/// `BlockLoad`) or compressed (the paper's `Load*BitPack` device
/// functions). "The only required changes are to replace the load
/// routines (BlockLoad) in Crystal with LoadBitPack" — Section 7.
#[derive(Debug)]
pub enum QueryColumn {
    /// Uncompressed 4-byte integers.
    Plain(GlobalBuffer<i32>),
    /// Tile-decodable compressed column.
    Encoded(DeviceColumn),
}

impl QueryColumn {
    /// Upload a plain column.
    pub fn plain(dev: &Device, values: &[i32]) -> Self {
        QueryColumn::Plain(dev.alloc_from_slice(values))
    }

    /// Logical value count.
    pub fn total_count(&self) -> usize {
        match self {
            QueryColumn::Plain(b) => b.len(),
            QueryColumn::Encoded(c) => c.total_count(),
        }
    }

    /// Number of 512-value tiles.
    pub fn tiles(&self) -> usize {
        self.total_count().div_ceil(TILE)
    }

    /// Bytes a PCIe transfer of this column would move.
    pub fn size_bytes(&self) -> u64 {
        match self {
            QueryColumn::Plain(b) => b.size_bytes(),
            QueryColumn::Encoded(c) => c.size_bytes(),
        }
    }

    /// Load tile `tile_id` into `out`; returns the logical tile length.
    /// For plain columns this is a coalesced `BlockLoad`; for encoded
    /// columns it decompresses the tile inline, failing with a
    /// [`DecodeError`] when the tile does not verify.
    pub fn load_tile(
        &self,
        ctx: &mut BlockCtx<'_>,
        tile_id: usize,
        out: &mut Vec<i32>,
    ) -> Result<usize, DecodeError> {
        match self {
            QueryColumn::Plain(b) => {
                out.clear();
                ctx.set_phase(Phase::GlobalLoad);
                let lo = tile_id * TILE;
                let len = TILE.min(b.len().saturating_sub(lo));
                ctx.read_coalesced_with(b, lo, len, |vals| out.extend_from_slice(vals));
                Ok(len)
            }
            QueryColumn::Encoded(c) => c.load_tile(ctx, tile_id, out),
        }
    }

    /// **Device function**: fused decode→predicate over tile `tile_id`
    /// (the compressed-scan counterpart of Crystal's
    /// `BlockLoad` + `BlockPred`). Values stay in registers (`out`) and
    /// `sel` receives the fused selection (`sel_in ∧ pred`); the
    /// decompressed tile is never written back to global memory.
    ///
    /// A selection is a slice of ballot words — one `u32` per warp of
    /// 32 tile values, bit `l` of word `w` for value `32·w + l`, bits
    /// past the tile's logical length zero, words missing from a short
    /// `sel_in` dead ([`tlc_gpu_sim::live_lanes`] walks one). The same
    /// words go on through [`crate::DenseTable::probe`] to the
    /// aggregate.
    ///
    /// For encoded columns this dispatches to
    /// [`DeviceColumn::load_tile_select`], which for GPU-FOR skips
    /// miniblocks whose word is zero in `sel_in` (those lanes
    /// carry filler values — consume only selected lanes). Plain
    /// columns do a coalesced `BlockLoad` then evaluate the predicate
    /// in registers.
    pub fn load_tile_select(
        &self,
        ctx: &mut BlockCtx<'_>,
        tile_id: usize,
        pred: impl Fn(i32) -> bool,
        sel_in: Option<&[u32]>,
        sel: &mut Vec<u32>,
        out: &mut Vec<i32>,
    ) -> Result<usize, DecodeError> {
        match self {
            QueryColumn::Plain(_) => {
                let len = self.load_tile(ctx, tile_id, out)?;
                tlc_core::column::fused_predicate(ctx, &out[..len], pred, sel_in, sel);
                Ok(len)
            }
            QueryColumn::Encoded(c) => c.load_tile_select(ctx, tile_id, pred, sel_in, sel, out),
        }
    }

    /// Shared memory one tile-load of this column needs.
    pub fn tile_smem(&self) -> usize {
        match self {
            QueryColumn::Plain(_) => TILE * 4,
            QueryColumn::Encoded(c) => c.tile_smem(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlc_core::EncodedColumn;
    use tlc_gpu_sim::KernelConfig;

    #[test]
    fn plain_and_encoded_tiles_agree() {
        let values: Vec<i32> = (0..3000).map(|i| i % 91).collect();
        let dev = Device::v100();
        let plain = QueryColumn::plain(&dev, &values);
        let encoded = QueryColumn::Encoded(EncodedColumn::encode_best(&values).to_device(&dev));
        assert_eq!(plain.tiles(), encoded.tiles());

        let mut a = Vec::new();
        let mut b = Vec::new();
        let mut all_a = Vec::new();
        let mut all_b = Vec::new();
        dev.launch(
            KernelConfig::new("t", plain.tiles(), 128).smem_per_block(8192),
            |ctx| {
                let na = plain.load_tile(ctx, ctx.block_id(), &mut a).expect("plain");
                let nb = encoded
                    .load_tile(ctx, ctx.block_id(), &mut b)
                    .expect("decode");
                assert_eq!(na, nb);
                all_a.extend_from_slice(&a[..na]);
                all_b.extend_from_slice(&b[..nb]);
            },
        );
        assert_eq!(all_a, values);
        assert_eq!(all_b, values);
    }

    #[test]
    fn encoded_column_is_smaller_on_the_wire() {
        let values: Vec<i32> = (0..100_000).map(|i| i / 10).collect();
        let dev = Device::v100();
        let plain = QueryColumn::plain(&dev, &values);
        let enc = QueryColumn::Encoded(EncodedColumn::encode_best(&values).to_device(&dev));
        assert!(enc.size_bytes() * 4 < plain.size_bytes());
    }
}
