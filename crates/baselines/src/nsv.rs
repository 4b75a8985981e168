//! NSV — null suppression with variable length (Fang et al. \[18\]).
//!
//! Each value is stored with 1–4 bytes; a separate stream keeps a 2-bit
//! length code per value. Random access requires the byte offset of
//! every value, i.e. a prefix sum over the lengths, so decompression is
//! a three-kernel pipeline (local sums → scan → expand) with multiple
//! global-memory round trips — the reason NSV lands far behind the
//! bit-aligned schemes in Figure 8(f).

use tlc_gpu_sim::{Device, GlobalBuffer, KernelConfig};

/// Values handled per thread block during decode.
const CHUNK: usize = 2048;

/// An NSV-encoded column (host side).
#[derive(Debug, Clone)]
pub struct Nsv {
    /// Logical value count.
    pub total_count: usize,
    /// Variable-length little-endian payloads, concatenated.
    pub bytes: Vec<u8>,
    /// 2-bit length codes (byte count − 1), 16 codes per u32 word.
    pub len_codes: Vec<u32>,
}

/// Byte length of one encoded value.
fn byte_len(v: i32) -> usize {
    if v < 0 {
        4
    } else if v < 1 << 8 {
        1
    } else if v < 1 << 16 {
        2
    } else if v < 1 << 24 {
        3
    } else {
        4
    }
}

impl Nsv {
    /// Encode a column with per-value byte lengths.
    pub fn encode(values: &[i32]) -> Self {
        let mut bytes = Vec::with_capacity(values.len() * 2);
        let mut len_codes = vec![0u32; values.len().div_ceil(16)];
        for (i, &v) in values.iter().enumerate() {
            let l = byte_len(v);
            bytes.extend_from_slice(&v.to_le_bytes()[..l]);
            len_codes[i / 16] |= ((l - 1) as u32) << (2 * (i % 16));
        }
        Nsv {
            total_count: values.len(),
            bytes,
            len_codes,
        }
    }

    /// Compressed footprint in bytes (payload + length stream + header).
    pub fn compressed_bytes(&self) -> u64 {
        self.bytes.len() as u64 + self.len_codes.len() as u64 * 4 + 8
    }

    /// Compression rate in bits per integer.
    pub fn bits_per_int(&self) -> f64 {
        self.compressed_bytes() as f64 * 8.0 / self.total_count.max(1) as f64
    }

    /// Length (in bytes) of value `i`, from the code stream.
    fn len_of(&self, i: usize) -> usize {
        ((self.len_codes[i / 16] >> (2 * (i % 16))) & 0b11) as usize + 1
    }

    /// Sequential reference decoder.
    pub fn decode_cpu(&self) -> Vec<i32> {
        let mut out = Vec::with_capacity(self.total_count);
        let mut off = 0usize;
        for i in 0..self.total_count {
            let l = self.len_of(i);
            let mut b = [0u8; 4];
            b[..l].copy_from_slice(&self.bytes[off..off + l]);
            // Values shorter than 4 bytes are non-negative by
            // construction; 4-byte values carry their sign bits.
            out.push(i32::from_le_bytes(b));
            off += l;
        }
        out
    }

    /// Upload to the device.
    pub fn to_device(&self, dev: &Device) -> NsvDevice {
        // Precompute per-chunk byte offsets host-side for functional
        // correctness; the kernels charge the traffic the device-side
        // scan pipeline would generate.
        let chunks = self.total_count.div_ceil(CHUNK);
        let mut chunk_offsets = Vec::with_capacity(chunks + 1);
        let mut off = 0u32;
        for i in 0..self.total_count {
            if i % CHUNK == 0 {
                chunk_offsets.push(off);
            }
            off += self.len_of(i) as u32;
        }
        chunk_offsets.push(off);
        NsvDevice {
            total_count: self.total_count,
            bytes: dev.alloc_from_slice(&self.bytes),
            len_codes: dev.alloc_from_slice(&self.len_codes),
            chunk_offsets: dev.alloc_from_slice(&chunk_offsets),
        }
    }
}

/// Device-resident NSV column.
#[derive(Debug)]
pub struct NsvDevice {
    /// Logical value count.
    pub total_count: usize,
    /// Variable-length payloads.
    pub bytes: GlobalBuffer<u8>,
    /// 2-bit length codes.
    pub len_codes: GlobalBuffer<u32>,
    /// Byte offset of each CHUNK-sized group (host-precomputed stand-in
    /// for the device scan's output).
    pub chunk_offsets: GlobalBuffer<u32>,
}

impl NsvDevice {
    /// Bytes a PCIe transfer would move.
    pub fn size_bytes(&self) -> u64 {
        self.bytes.size_bytes() + self.len_codes.size_bytes() + 8
    }
}

/// Decompress with the three-kernel pipeline: (1) per-chunk length
/// sums, (2) scan over chunk sums, (3) expand values.
pub fn decompress(dev: &Device, col: &NsvDevice) -> GlobalBuffer<i32> {
    let n = col.total_count;
    let mut out = dev.alloc_zeroed::<i32>(n);
    if n == 0 {
        return out;
    }
    let chunks = n.div_ceil(CHUNK);
    let mut chunk_sums = dev.alloc_zeroed::<u32>(chunks);

    // Kernel 1: read the length codes, reduce per chunk.
    dev.launch(
        KernelConfig::new("nsv_len_sums", chunks, 128).regs_per_thread(24),
        |ctx| {
            let c = ctx.block_id();
            let first = c * CHUNK / 16;
            let last = (((c + 1) * CHUNK).min(n)).div_ceil(16);
            let words = ctx.read_coalesced(&col.len_codes, first, last - first);
            ctx.add_int_ops(words.len() as u64 * 16);
            let sum: u32 = (c * CHUNK..((c + 1) * CHUNK).min(n))
                .map(|i| ((words[i / 16 - first] >> (2 * (i % 16))) & 0b11) + 1)
                .sum();
            ctx.write_coalesced(&mut chunk_sums, c, &[sum]);
        },
    );

    // Kernel 2: scan the chunk sums, then expand to *per-value* byte
    // offsets in global memory — random access into variable-length
    // data needs every value's offset, a full 4-byte-per-value
    // intermediate (this pass is what makes NSV slow in Figure 8f).
    let mut offsets = dev.alloc_zeroed::<u32>(n);
    dev.launch(
        KernelConfig::new("nsv_scan", chunks, 128).regs_per_thread(24),
        |ctx| {
            let c = ctx.block_id();
            if c == 0 {
                let sums = ctx.read_coalesced(&chunk_sums, 0, chunks);
                ctx.add_int_ops(2 * chunks as u64);
                let mut acc = 0u32;
                for (i, &s) in sums.iter().enumerate() {
                    debug_assert_eq!(acc, col.chunk_offsets.as_slice_unaccounted()[i]);
                    acc += s;
                }
            }
            let lo = c * CHUNK;
            let hi = ((c + 1) * CHUNK).min(n);
            let first = lo / 16;
            let words = ctx.read_coalesced(&col.len_codes, first, hi.div_ceil(16) - first);
            let mut off = col.chunk_offsets.as_slice_unaccounted()[c];
            let offs: Vec<u32> = (lo..hi)
                .map(|i| {
                    let o = off;
                    off += ((words[i / 16 - first] >> (2 * (i % 16))) & 0b11) + 1;
                    o
                })
                .collect();
            ctx.add_int_ops((hi - lo) as u64 * 2);
            ctx.write_coalesced(&mut offsets, lo, &offs);
        },
    );

    // Kernel 3: read the per-value offsets, the codes, and the payload
    // bytes; widen to i32.
    dev.launch(
        KernelConfig::new("nsv_expand", chunks, 128).regs_per_thread(28),
        |ctx| {
            let c = ctx.block_id();
            let lo = c * CHUNK;
            let hi = ((c + 1) * CHUNK).min(n);
            let offs = ctx.read_coalesced(&offsets, lo, hi - lo);
            let byte_lo = offs[0] as usize;
            let byte_hi = col.chunk_offsets.as_slice_unaccounted()[c + 1] as usize;
            let first = lo / 16;
            let words = ctx.read_coalesced(&col.len_codes, first, hi.div_ceil(16) - first);
            let payload = ctx.read_coalesced(&col.bytes, byte_lo, byte_hi - byte_lo);
            ctx.add_int_ops((hi - lo) as u64 * 6);
            let mut vals = Vec::with_capacity(hi - lo);
            for i in lo..hi {
                let l = (((words[i / 16 - first] >> (2 * (i % 16))) & 0b11) + 1) as usize;
                let off = (offs[i - lo] - offs[0]) as usize;
                let mut b = [0u8; 4];
                b[..l].copy_from_slice(&payload[off..off + l]);
                vals.push(i32::from_le_bytes(b));
            }
            ctx.write_coalesced(&mut out, lo, &vals);
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_lengths() {
        let values: Vec<i32> = (0..5000)
            .map(|i| match i % 4 {
                0 => i % 200,
                1 => 300 + i,
                2 => (1 << 20) + i,
                _ => -i,
            })
            .collect();
        let enc = Nsv::encode(&values);
        assert_eq!(enc.decode_cpu(), values);
        let dev = Device::v100();
        let out = decompress(&dev, &enc.to_device(&dev));
        assert_eq!(out.as_slice_unaccounted(), values);
    }

    #[test]
    fn adapts_to_skew_better_than_nsf() {
        // Zipf-ish: mostly tiny values with a few large ones. NSF pays
        // 4 bytes everywhere; NSV pays ~1 byte mostly.
        let values: Vec<i32> = (0..50_000)
            .map(|i| if i % 1000 == 0 { 1 << 25 } else { i % 100 })
            .collect();
        let nsv = Nsv::encode(&values);
        let nsf = crate::nsf::Nsf::encode(&values);
        assert!(nsv.compressed_bytes() * 2 < nsf.compressed_bytes());
    }

    #[test]
    fn decompression_is_multi_kernel() {
        let dev = Device::v100();
        let enc = Nsv::encode(&(0..10_000).collect::<Vec<i32>>());
        let dcol = enc.to_device(&dev);
        dev.reset_timeline();
        let _ = decompress(&dev, &dcol);
        assert_eq!(dev.with_timeline(|t| t.kernel_launches()), 3);
    }

    #[test]
    fn roundtrip_empty_and_single() {
        let dev = Device::v100();
        for values in [vec![], vec![123456789i32]] {
            let enc = Nsv::encode(&values);
            assert_eq!(enc.decode_cpu(), values);
            let out = decompress(&dev, &enc.to_device(&dev));
            assert_eq!(out.as_slice_unaccounted(), values);
        }
    }
}
