//! NSF — null suppression with fixed length (Fang et al. \[18\]).
//!
//! The entire column is encoded as 1-, 2- or 4-byte entries depending
//! on the *maximum* value; decompression widens entries back to 32
//! bits. This is the byte-aligned staircase of Figure 7: runtime and
//! size jump at bitwidths 8 and 16.

use tlc_gpu_sim::{Device, GlobalBuffer, KernelConfig};

/// Fixed entry width chosen for a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryWidth {
    /// One byte per value.
    B1,
    /// Two bytes per value.
    B2,
    /// Four bytes per value.
    B4,
}

impl EntryWidth {
    /// Width in bytes.
    pub fn bytes(&self) -> usize {
        match self {
            EntryWidth::B1 => 1,
            EntryWidth::B2 => 2,
            EntryWidth::B4 => 4,
        }
    }
}

/// An NSF-encoded column (host side). Values must be non-negative (the
/// scheme suppresses leading zero *bytes*); negative values force B4.
#[derive(Debug, Clone)]
pub struct Nsf {
    /// Logical value count.
    pub total_count: usize,
    /// Chosen fixed width.
    pub width: EntryWidth,
    /// Packed little-endian bytes, `total_count * width.bytes()` long.
    pub bytes: Vec<u8>,
}

impl Nsf {
    /// Encode a column at the narrowest fixed byte width that fits
    /// every value.
    pub fn encode(values: &[i32]) -> Self {
        let width = match values.iter().copied().max().unwrap_or(0) {
            _ if values.iter().any(|&v| v < 0) => EntryWidth::B4,
            m if m < 1 << 8 => EntryWidth::B1,
            m if m < 1 << 16 => EntryWidth::B2,
            _ => EntryWidth::B4,
        };
        let mut bytes = Vec::with_capacity(values.len() * width.bytes());
        for &v in values {
            bytes.extend_from_slice(&v.to_le_bytes()[..width.bytes()]);
        }
        Nsf {
            total_count: values.len(),
            width,
            bytes,
        }
    }

    /// Compressed footprint in bytes (payload + 2-word header).
    pub fn compressed_bytes(&self) -> u64 {
        self.bytes.len() as u64 + 8
    }

    /// Compression rate in bits per integer.
    pub fn bits_per_int(&self) -> f64 {
        self.compressed_bytes() as f64 * 8.0 / self.total_count.max(1) as f64
    }

    /// Sequential reference decoder.
    pub fn decode_cpu(&self) -> Vec<i32> {
        let w = self.width.bytes();
        self.bytes
            .chunks_exact(w)
            .map(|c| {
                let mut b = [0u8; 4];
                b[..w].copy_from_slice(c);
                i32::from_le_bytes(b)
            })
            .collect()
    }

    /// Upload to the device.
    pub fn to_device(&self, dev: &Device) -> NsfDevice {
        NsfDevice {
            total_count: self.total_count,
            width: self.width,
            bytes: dev.alloc_from_slice(&self.bytes),
        }
    }
}

/// Device-resident NSF column.
#[derive(Debug)]
pub struct NsfDevice {
    /// Logical value count.
    pub total_count: usize,
    /// Fixed width.
    pub width: EntryWidth,
    /// Packed bytes.
    pub bytes: GlobalBuffer<u8>,
}

impl NsfDevice {
    /// Bytes a PCIe transfer would move.
    pub fn size_bytes(&self) -> u64 {
        self.bytes.size_bytes() + 8
    }
}

/// Decompress: one streaming kernel pass widening entries to i32.
pub fn decompress(dev: &Device, col: &NsfDevice) -> GlobalBuffer<i32> {
    let mut out = dev.alloc_zeroed::<i32>(col.total_count);
    run(dev, col, Some(&mut out), "nsf_decompress");
    out
}

/// Decode-only (no write-back).
pub fn decode_only(dev: &Device, col: &NsfDevice) {
    run(dev, col, None, "nsf_decode");
}

fn run(dev: &Device, col: &NsfDevice, mut out: Option<&mut GlobalBuffer<i32>>, name: &str) {
    let n = col.total_count;
    if n == 0 {
        return;
    }
    let grid = 160.min(n.div_ceil(128));
    let per_block = n.div_ceil(grid);
    let w = col.width.bytes();
    let cfg = KernelConfig::new(name, grid, 128).regs_per_thread(24);
    dev.launch(cfg, |ctx| {
        let start = ctx.block_id() * per_block;
        let len = per_block.min(n.saturating_sub(start));
        if len == 0 {
            return;
        }
        let raw = ctx.read_coalesced(&col.bytes, start * w, len * w);
        ctx.add_int_ops(len as u64 * 2);
        let vals: Vec<i32> = raw
            .chunks_exact(w)
            .map(|c| {
                let mut b = [0u8; 4];
                b[..w].copy_from_slice(c);
                i32::from_le_bytes(b)
            })
            .collect();
        if let Some(out) = out.as_deref_mut() {
            ctx.write_coalesced(out, start, &vals);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_staircase_widths() {
        assert_eq!(Nsf::encode(&[0, 255]).width, EntryWidth::B1);
        assert_eq!(Nsf::encode(&[0, 256]).width, EntryWidth::B2);
        assert_eq!(Nsf::encode(&[0, 65536]).width, EntryWidth::B4);
        assert_eq!(Nsf::encode(&[-1, 3]).width, EntryWidth::B4);
    }

    #[test]
    fn roundtrip_all_widths() {
        let dev = Device::v100();
        for values in [
            (0..1000).map(|i| i % 200).collect::<Vec<i32>>(),
            (0..1000).map(|i| i % 60_000).collect(),
            (0..1000).map(|i| i * 70_000 - 5).collect(),
        ] {
            let enc = Nsf::encode(&values);
            assert_eq!(enc.decode_cpu(), values);
            let out = decompress(&dev, &enc.to_device(&dev));
            assert_eq!(out.as_slice_unaccounted(), values);
        }
    }

    #[test]
    fn bits_per_int_staircase() {
        let b1 = Nsf::encode(&vec![7i32; 100_000]);
        let b2 = Nsf::encode(&vec![300i32; 100_000]);
        let b4 = Nsf::encode(&vec![70_000i32; 100_000]);
        assert!((b1.bits_per_int() - 8.0).abs() < 0.1);
        assert!((b2.bits_per_int() - 16.0).abs() < 0.1);
        assert!((b4.bits_per_int() - 32.0).abs() < 0.1);
    }
}
