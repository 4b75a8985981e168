//! The differential decode oracle.
//!
//! For any byte stream — honest, damaged, or adversarial — decoding
//! must uphold three guarantees:
//!
//! 1. **No panic.** Parse and decode run under `catch_unwind`; any
//!    panic is a finding.
//! 2. **No over-cap output.** A stream parsed under [`Limits`] must
//!    never decode to more than `max_values` values.
//! 3. **No divergence.** When a stream parses, the CPU reference
//!    decoder and the GPU-sim tile decoder must produce identical
//!    values — and the device decode must succeed, since deep
//!    validation already proved the column safe.
//!
//! A typed error ([`tlc_core::FormatError`] / [`tlc_core::DecodeError`])
//! is always an acceptable outcome; silent success on garbage is fine
//! too as long as both decoders agree (minor-0 streams carry no
//! integrity words, so mutations there can legally "succeed").
//!
//! Both decoders run on the monomorphized per-width unpack fast path
//! (`tlc_bitpack::unpack`), so every corpus replay exercises it
//! against hostile streams. Under `cargo test` the dispatch wrappers
//! (`unpack_miniblock_ref` and its scan and block siblings)
//! additionally cross-check each miniblock against the generic
//! `extract` window reads (the test profile keeps debug assertions
//! on), making each oracle run a differential test of the fast path
//! itself; the release-mode fuzz CI job runs the fast path with the
//! cross-check compiled out.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tlc_core::{EncodedColumn, Limits};
use tlc_gpu_sim::Device;

/// What the oracle concluded about one stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Parsed and both decoders agreed.
    Decoded {
        /// Number of values produced.
        values: usize,
    },
    /// Rejected with a typed error (the expected hostile outcome).
    TypedError {
        /// Display form of the error.
        error: String,
    },
    /// A panic escaped a decode entry point.
    Panic {
        /// Which stage panicked ("parse", "cpu decode", "device decode").
        stage: &'static str,
        /// Panic payload, when it was a string.
        message: String,
    },
    /// Decode produced more values than the configured cap.
    OverCap {
        /// Values produced.
        values: usize,
        /// The configured cap.
        cap: usize,
    },
    /// CPU and GPU-sim decode disagreed (or the device refused a
    /// deep-validated column).
    Divergence {
        /// Human-readable description of the disagreement.
        detail: String,
    },
}

impl Verdict {
    /// True for the outcomes the guarantees allow.
    pub fn is_clean(&self) -> bool {
        matches!(self, Verdict::Decoded { .. } | Verdict::TypedError { .. })
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run the full oracle on one byte stream under `limits`.
pub fn check_stream(bytes: &[u8], limits: &Limits) -> Verdict {
    // Parse (header + digest + deep structural validation + caps).
    let parsed = catch_unwind(AssertUnwindSafe(|| {
        EncodedColumn::from_bytes_with_limits(bytes, limits)
    }));
    let col = match parsed {
        Err(p) => {
            return Verdict::Panic {
                stage: "parse",
                message: panic_message(p),
            }
        }
        Ok(Err(e)) => {
            return Verdict::TypedError {
                error: e.to_string(),
            }
        }
        Ok(Ok(col)) => col,
    };

    // CPU reference decode.
    let cpu = match catch_unwind(AssertUnwindSafe(|| col.decode_cpu())) {
        Err(p) => {
            return Verdict::Panic {
                stage: "cpu decode",
                message: panic_message(p),
            }
        }
        Ok(v) => v,
    };
    if cpu.len() > limits.max_values {
        return Verdict::OverCap {
            values: cpu.len(),
            cap: limits.max_values,
        };
    }

    // GPU-sim decode: must succeed (the column deep-validated) and
    // agree with the CPU reference.
    let dev = Device::v100();
    let device = catch_unwind(AssertUnwindSafe(|| {
        col.to_device(&dev)
            .decompress(&dev)
            .map(|out| out.as_slice_unaccounted().to_vec())
    }));
    match device {
        Err(p) => Verdict::Panic {
            stage: "device decode",
            message: panic_message(p),
        },
        Ok(Err(e)) => Verdict::Divergence {
            detail: format!("device refused a deep-validated column: {e}"),
        },
        Ok(Ok(gpu)) if gpu != cpu => Verdict::Divergence {
            detail: format!(
                "CPU decoded {} values, GPU-sim {} values, first mismatch at {:?}",
                cpu.len(),
                gpu.len(),
                cpu.iter().zip(&gpu).position(|(a, b)| a != b)
            ),
        },
        Ok(Ok(_)) => Verdict::Decoded { values: cpu.len() },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlc_core::Scheme;

    #[test]
    fn honest_streams_decode_clean() {
        let values: Vec<i32> = (0..700).map(|i| i / 3).collect();
        for scheme in Scheme::ALL {
            let bytes = EncodedColumn::encode_as(&values, scheme).to_bytes();
            let v = check_stream(&bytes, &Limits::strict());
            assert_eq!(
                v,
                Verdict::Decoded {
                    values: values.len()
                },
                "{scheme:?}"
            );
        }
    }

    #[test]
    fn damaged_streams_get_typed_errors() {
        let mut bytes =
            EncodedColumn::encode_as(&(0..500).collect::<Vec<_>>(), Scheme::GpuFor).to_bytes();
        bytes[20] ^= 0xFF;
        assert!(matches!(
            check_stream(&bytes, &Limits::strict()),
            Verdict::TypedError { .. }
        ));
        assert!(check_stream(&bytes, &Limits::strict()).is_clean());
    }

    #[test]
    fn garbage_is_clean_too() {
        for garbage in [&b""[..], &b"abc"[..], &[0u8; 64][..]] {
            assert!(check_stream(garbage, &Limits::strict()).is_clean());
        }
    }
}
