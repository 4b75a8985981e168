//! Per-system encoding of the lineorder columns.
//!
//! The six systems of Figures 9–11:
//!
//! | System    | Storage                      | Query path                      |
//! |-----------|------------------------------|---------------------------------|
//! | `None`    | plain 4-byte integers        | fused Crystal kernel            |
//! | `GpuStar` | GPU-\* (best of FOR/DFOR/RFOR)| fused kernel, **inline** decode |
//! | `NvComp`  | nvCOMP cascade               | decompress per column, then query |
//! | `GpuBp`   | single bit-packed layer      | decompress per column, then query |
//! | `Planner` | Fang et al. cascade          | decompress per column, then query |
//! | `OmniSci` | plain (dict-encoded only)    | operator-at-a-time, materializing |

use std::collections::HashMap;

use tlc_baselines::gpu_bp::{self, GpuBp, GpuBpDevice};
use tlc_baselines::nvcomp::{NvComp, NvCompDevice};
use tlc_core::{DecodeError, EncodedColumn};
use tlc_crystal::QueryColumn;
use tlc_gpu_sim::Device;
use tlc_planner::plan::PlannedDevice;
use tlc_planner::PlannedColumn;

use crate::gen::{LoColumn, SsbData};

/// The systems compared in the paper's SSB evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum System {
    /// Uncompressed (Crystal).
    None,
    /// The paper's hybrid (GPU-FOR / GPU-DFOR / GPU-RFOR per column).
    GpuStar,
    /// nvCOMP cascades.
    NvComp,
    /// Mallia et al. single-layer bit packing.
    GpuBp,
    /// Fang et al. planner cascades.
    Planner,
    /// OmniSci (dictionary encoding only, no tile execution).
    OmniSci,
}

impl System {
    /// All systems, in Figure 11's legend order.
    pub const ALL: [System; 6] = [
        System::OmniSci,
        System::Planner,
        System::GpuBp,
        System::NvComp,
        System::GpuStar,
        System::None,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            System::None => "None",
            System::GpuStar => "GPU-*",
            System::NvComp => "nvCOMP",
            System::GpuBp => "GPU-BP",
            System::Planner => "Planner",
            System::OmniSci => "OmniSci",
        }
    }

    /// Compressed size of one column under this system, in bytes
    /// (host-side; Figure 9).
    pub fn column_bytes(&self, values: &[i32]) -> u64 {
        match self {
            System::None | System::OmniSci => values.len() as u64 * 4,
            System::GpuStar => EncodedColumn::encode_best(values).compressed_bytes(),
            System::NvComp => NvComp::encode(values).compressed_bytes(),
            System::GpuBp => GpuBp::encode(values).compressed_bytes(),
            System::Planner => PlannedColumn::encode(values).compressed_bytes(),
        }
    }
}

/// One stored lineorder column under some system.
#[derive(Debug)]
pub enum StoredColumn {
    /// Plain device buffer.
    Plain(QueryColumn),
    /// GPU-* (tile-decodable inline).
    Star(QueryColumn),
    /// nvCOMP payload.
    NvComp(NvCompDevice),
    /// GPU-BP payload.
    GpuBp(GpuBpDevice),
    /// Planner payload.
    Planner(PlannedDevice),
}

impl StoredColumn {
    /// Bytes a PCIe transfer would move.
    pub fn size_bytes(&self) -> u64 {
        match self {
            StoredColumn::Plain(c) | StoredColumn::Star(c) => c.size_bytes(),
            StoredColumn::NvComp(c) => c.size_bytes(),
            StoredColumn::GpuBp(c) => c.size_bytes(),
            StoredColumn::Planner(c) => c.size_bytes(),
        }
    }
}

/// The device-resident lineorder columns a query needs, under one
/// system.
#[derive(Debug)]
pub struct LoColumns {
    /// Which system encoded these columns.
    pub system: System,
    cols: HashMap<LoColumn, StoredColumn>,
}

impl LoColumns {
    /// Encode and upload `columns` of `data.lineorder` under `system`.
    pub fn build(dev: &Device, data: &SsbData, system: System, columns: &[LoColumn]) -> Self {
        let mut cols = HashMap::new();
        for &c in columns {
            let values = data.lineorder.column(c);
            let stored = match system {
                System::None | System::OmniSci => {
                    StoredColumn::Plain(QueryColumn::plain(dev, values))
                }
                System::GpuStar => StoredColumn::Star(QueryColumn::Encoded(
                    EncodedColumn::encode_best(values).to_device(dev),
                )),
                System::NvComp => StoredColumn::NvComp(NvComp::encode(values).to_device(dev)),
                System::GpuBp => StoredColumn::GpuBp(GpuBp::encode(values).to_device(dev)),
                System::Planner => {
                    StoredColumn::Planner(PlannedColumn::encode(values).to_device(dev))
                }
            };
            cols.insert(c, stored);
        }
        LoColumns { system, cols }
    }

    /// Upload already-encoded GPU-* columns (e.g. loaded from a
    /// `tlc-store` partition) without touching any host row data. The
    /// out-of-core partition executor uploads a partition this way
    /// once per run, so its columns go disk → device and are decoded
    /// only inline, inside the fused kernels of the run's members.
    pub fn from_encoded<'a>(
        dev: &Device,
        cols: impl IntoIterator<Item = (LoColumn, &'a EncodedColumn)>,
    ) -> Self {
        let cols = cols
            .into_iter()
            .map(|(c, e)| {
                (
                    c,
                    StoredColumn::Star(QueryColumn::Encoded(e.to_device(dev))),
                )
            })
            .collect();
        LoColumns {
            system: System::GpuStar,
            cols,
        }
    }

    /// Total device footprint of the stored columns.
    pub fn size_bytes(&self) -> u64 {
        self.cols.values().map(StoredColumn::size_bytes).sum()
    }

    /// Access a stored column.
    pub fn stored(&self, c: LoColumn) -> &StoredColumn {
        &self.cols[&c]
    }

    /// Prepare the columns for a fused query: systems that can
    /// decompress inline hand back their stored columns by reference,
    /// with no copy, as the paper's queries read columns already in
    /// GPU memory (Section 9.1); systems that can't launch their
    /// decompression kernels here (inside the measured region) and hand
    /// back the plain columns those write. A launch an armed fault plan
    /// fails is a typed error.
    pub fn try_prepare(
        &self,
        dev: &Device,
        needed: &[LoColumn],
    ) -> Result<Vec<Prepared<'_>>, DecodeError> {
        needed
            .iter()
            .map(|c| {
                Ok(match &self.cols[c] {
                    StoredColumn::Plain(col) | StoredColumn::Star(col) => Prepared::Stored(col),
                    StoredColumn::NvComp(payload) => {
                        Prepared::Decoded(QueryColumn::Plain(payload.decompress(dev)?))
                    }
                    StoredColumn::GpuBp(payload) => {
                        Prepared::Decoded(QueryColumn::Plain(gpu_bp::decompress(dev, payload)?))
                    }
                    StoredColumn::Planner(payload) => {
                        Prepared::Decoded(QueryColumn::Plain(payload.decompress(dev)?))
                    }
                })
            })
            .collect()
    }
}

/// A column [`LoColumns::try_prepare`] readied for a fused query.
#[derive(Debug)]
pub enum Prepared<'a> {
    /// A stored column, read in place.
    Stored(&'a QueryColumn),
    /// A plain column a decompression kernel wrote.
    Decoded(QueryColumn),
}

impl std::ops::Deref for Prepared<'_> {
    type Target = QueryColumn;

    fn deref(&self) -> &QueryColumn {
        match self {
            Prepared::Stored(col) => col,
            Prepared::Decoded(col) => col,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_star_shrinks_lineorder() {
        let data = SsbData::generate(0.01);
        let mut none = 0u64;
        let mut star = 0u64;
        for c in LoColumn::ALL {
            let values = data.lineorder.column(c);
            none += System::None.column_bytes(values);
            star += System::GpuStar.column_bytes(values);
        }
        let ratio = none as f64 / star as f64;
        // Paper: GPU-* reduces the footprint ~2.8x.
        assert!(ratio > 2.0, "ratio = {ratio}");
    }

    #[test]
    fn nvcomp_tracks_star_gpu_bp_and_planner_are_larger() {
        let data = SsbData::generate(0.01);
        let values = data.lineorder.column(LoColumn::OrderDate);
        let star = System::GpuStar.column_bytes(values);
        let nv = System::NvComp.column_bytes(values);
        let bp = System::GpuBp.column_bytes(values);
        assert!(nv as f64 / star as f64 <= 1.03);
        assert!(bp > star, "GPU-BP should lose on dates: {bp} vs {star}");
    }

    #[test]
    fn prepare_decompresses_for_non_inline_systems() {
        let data = SsbData::generate(0.005);
        let dev = Device::v100();
        let needed = [LoColumn::Quantity];
        for system in [System::NvComp, System::GpuBp, System::Planner] {
            let cols = LoColumns::build(&dev, &data, system, &needed);
            dev.reset_timeline();
            let prepared = cols.try_prepare(&dev, &needed).expect("no fault plan");
            assert!(
                dev.with_timeline(|t| t.kernel_launches()) >= 1,
                "{system:?} must launch decompression kernels"
            );
            match &*prepared[0] {
                QueryColumn::Plain(b) => {
                    assert_eq!(
                        b.as_slice_unaccounted(),
                        data.lineorder.column(LoColumn::Quantity)
                    );
                }
                QueryColumn::Encoded(_) => panic!("{system:?} should be plain after prepare"),
            }
        }
    }

    #[test]
    fn prepare_is_free_for_inline_systems() {
        let data = SsbData::generate(0.005);
        let dev = Device::v100();
        let needed = [LoColumn::Discount];
        for system in [System::None, System::GpuStar] {
            let cols = LoColumns::build(&dev, &data, system, &needed);
            dev.reset_timeline();
            let prepared = cols.try_prepare(&dev, &needed).expect("no fault plan");
            assert!(matches!(prepared[0], Prepared::Stored(_)), "{system:?}");
            assert_eq!(dev.with_timeline(|t| t.kernel_launches()), 0, "{system:?}");
        }
    }
}
