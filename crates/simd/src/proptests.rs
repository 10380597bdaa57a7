//! Differential property tests: every backend this host can run must be
//! byte-for-byte identical to the scalar reference on every kernel (the
//! CRC-32C digest against a bit-at-a-time reference), across
//! arbitrary lengths (covering the sub-vector tail paths), unaligned
//! buffer offsets, and arbitrary coefficients. This is the contract that
//! lets `PM_SIMD` change throughput without ever changing a transcript.

use proptest::prelude::*;

use pm_gf::field::GfField;
use pm_gf::gf256::Gf256;
use pm_gf::slice::reference;

use crate::{kernels_for, Backend, CoeffTables, Kernels, WideCoeff};

fn backends() -> Vec<&'static Kernels> {
    [Backend::Scalar, Backend::Avx2, Backend::Neon]
        .into_iter()
        .filter_map(kernels_for)
        .collect()
}

fn wide_field() -> &'static GfField {
    static FIELD: std::sync::OnceLock<GfField> = std::sync::OnceLock::new();
    FIELD.get_or_init(|| GfField::new(16).expect("GF(2^16)"))
}

/// Deterministic pseudo-random bytes (xorshift) for buffer contents.
fn bytes_from_seed(len: usize, seed: u64) -> Vec<u8> {
    let mut s = seed | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 24) as u8
        })
        .collect()
}

proptest! {
    /// `mul_add_slice` / `mul_slice` / `scale_slice` / `xor_slice` agree
    /// with the definitional per-byte reference on every backend. `off`
    /// slides the working window through a larger allocation so the vector
    /// loops see misaligned heads; `len` down to 0 exercises the pure-tail
    /// path.
    #[test]
    fn unary_kernels_match_reference(
        c in any::<u8>(),
        len in 0usize..300,
        off in 0usize..33,
        sseed in any::<u64>(),
        dseed in any::<u64>(),
    ) {
        let c = Gf256(c);
        let src_buf = bytes_from_seed(off + len, sseed);
        let src = &src_buf[off..];

        let mut mul_add_want = bytes_from_seed(off + len, dseed)[off..].to_vec();
        reference::mul_add_slice(c, src, &mut mul_add_want);
        let mut mul_want = vec![0u8; len];
        reference::mul_slice(c, src, &mut mul_want);
        let mut scale_want = src.to_vec();
        reference::scale_slice(c, &mut scale_want);
        let mut xor_want = bytes_from_seed(off + len, dseed)[off..].to_vec();
        for (d, s) in xor_want.iter_mut().zip(src) {
            *d ^= s;
        }

        for k in backends() {
            let name = k.backend().name();

            let mut buf = bytes_from_seed(off + len, dseed);
            k.mul_add_slice(c, src, &mut buf[off..]);
            prop_assert_eq!(&buf[off..], mul_add_want.as_slice(), "mul_add on {}", name);

            // Prebuilt-tables variant hits the same kernel minus fast paths.
            let mut buf = bytes_from_seed(off + len, dseed);
            k.mul_add_tables(&CoeffTables::new(c), src, &mut buf[off..]);
            prop_assert_eq!(&buf[off..], mul_add_want.as_slice(), "mul_add_tables on {}", name);

            let mut buf = vec![0xa5u8; off + len];
            k.mul_slice(c, src, &mut buf[off..]);
            prop_assert_eq!(&buf[off..], mul_want.as_slice(), "mul on {}", name);

            let mut buf = src_buf.clone();
            k.scale_slice(c, &mut buf[off..]);
            prop_assert_eq!(&buf[off..], scale_want.as_slice(), "scale on {}", name);

            let mut buf = bytes_from_seed(off + len, dseed);
            k.xor_slice(&mut buf[off..], src);
            prop_assert_eq!(&buf[off..], xor_want.as_slice(), "xor on {}", name);
        }
    }

    /// The batched multi-source kernel equals sequential scalar-reference
    /// accumulation for any batch size — covering the 1..=4 group arms,
    /// multi-group batches, and zero coefficients in the mix.
    #[test]
    fn mul_add_multi_matches_reference(
        coeffs in proptest::collection::vec(any::<u8>(), 0..10),
        len in 0usize..200,
        off in 0usize..33,
        seed in any::<u64>(),
    ) {
        let sources: Vec<Vec<u8>> = (0..coeffs.len())
            .map(|i| bytes_from_seed(off + len, seed ^ (i as u64 + 1)))
            .collect();
        let pairs: Vec<(Gf256, &[u8])> = coeffs
            .iter()
            .zip(&sources)
            .map(|(&c, s)| (Gf256(c), &s[off..]))
            .collect();

        let mut want = bytes_from_seed(off + len, seed ^ 0xD57)[off..].to_vec();
        reference::mul_add_multi(&pairs, &mut want);

        for k in backends() {
            let name = k.backend().name();

            let mut buf = bytes_from_seed(off + len, seed ^ 0xD57);
            k.mul_add_multi(&pairs, &mut buf[off..]);
            prop_assert_eq!(&buf[off..], want.as_slice(), "mul_add_multi on {}", name);

            // Tables variant: zero coefficients stay in the batch (their
            // tables are all-zero) and must contribute nothing.
            let with_tables: Vec<(CoeffTables, &[u8])> = pairs
                .iter()
                .map(|(c, s)| (CoeffTables::new(*c), *s))
                .collect();
            let mut buf = bytes_from_seed(off + len, seed ^ 0xD57);
            k.mul_add_multi_rows(&with_tables, &mut buf[off..]);
            prop_assert_eq!(&buf[off..], want.as_slice(), "mul_add_multi_rows on {}", name);
        }
    }

    /// GF(2^16) wide kernel: every backend matches an independent
    /// symbol-at-a-time `field.mul` loop over big-endian symbols, across
    /// the 16-symbol vector boundary and on misaligned buffers.
    #[test]
    fn wide_mul_add_matches_field_mul(
        c in any::<u16>(),
        symbols in 0usize..200,
        off in 0usize..33,
        seed in any::<u64>(),
    ) {
        let field = wide_field();
        let t = WideCoeff::new(field, c);
        let src_buf = bytes_from_seed(off + 2 * symbols, seed);
        let src = &src_buf[off..];
        let dst0: Vec<u16> = bytes_from_seed(2 * symbols, seed ^ 0x9E37)
            .chunks_exact(2)
            .map(|p| u16::from_le_bytes([p[0], p[1]]))
            .collect();

        let mut want = dst0.clone();
        for (d, pair) in want.iter_mut().zip(src.chunks_exact(2)) {
            *d ^= field.mul(c, u16::from_be_bytes([pair[0], pair[1]]));
        }

        for k in backends() {
            let mut dst = dst0.clone();
            k.wide_mul_add(&t, src, &mut dst);
            prop_assert_eq!(&dst, &want, "wide_mul_add on {}", k.backend().name());
        }
    }

    /// CRC-32C: every backend (the SSE4.2 instruction where this host has
    /// it, the slicing-by-8 tables always) equals the bit-at-a-time
    /// reference, for lengths 0..=4096 starting at unaligned offsets.
    #[test]
    fn crc32c_matches_bitwise_reference(
        len in 0usize..=4096,
        off in 0usize..16,
        init in any::<u32>(),
        seed in any::<u64>(),
    ) {
        let buf = bytes_from_seed(off + len, seed);
        let data = &buf[off..];
        let want = crc32c_bitwise(init, data);
        for k in backends() {
            prop_assert_eq!(k.crc32c(init, data), want, "crc32c on {}", k.backend().name());
        }
        prop_assert_eq!(crate::crc32c(init, data), want, "dispatched crc32c");
    }

    /// Feeding a buffer in pieces, split at arbitrary points, gives the
    /// one-shot CRC on every backend.
    #[test]
    fn crc32c_streaming_equals_one_shot(
        len in 0usize..2048,
        cuts in proptest::collection::vec(any::<usize>(), 0..6),
        seed in any::<u64>(),
    ) {
        let data = bytes_from_seed(len, seed);
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (len + 1)).collect();
        cuts.sort_unstable();
        for k in backends() {
            let mut crc = 0;
            let mut from = 0;
            for &to in cuts.iter().chain(std::iter::once(&len)) {
                crc = k.crc32c(crc, &data[from..to]);
                from = to;
            }
            prop_assert_eq!(crc, k.crc32c(0, &data), "streaming on {}", k.backend().name());
        }
    }
}

/// Definitional CRC-32C, one bit per step: the oracle for both kernels.
fn crc32c_bitwise(crc: u32, data: &[u8]) -> u32 {
    let mut c = !crc;
    for &b in data {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                (c >> 1) ^ 0x82F6_3B78
            } else {
                c >> 1
            };
        }
    }
    !c
}

/// Known answers: the CRC catalogue's check value and the RFC 3720
/// (iSCSI) appendix B.4 vectors, on every backend and through dispatch.
#[test]
fn crc32c_known_answers() {
    let incrementing: Vec<u8> = (0..32).collect();
    let decrementing: Vec<u8> = (0..32).rev().collect();
    let cases: [(&[u8], u32); 6] = [
        (b"", 0),
        (b"123456789", 0xE306_9283),
        (&[0u8; 32], 0x8A91_36AA),
        (&[0xFFu8; 32], 0x62A8_AB43),
        (&incrementing, 0x46DD_794E),
        (&decrementing, 0x113F_DB5C),
    ];
    for (data, want) in cases {
        assert_eq!(crc32c_bitwise(0, data), want, "reference on {data:02x?}");
        assert_eq!(crate::crc32c(0, data), want, "dispatched on {data:02x?}");
        for k in backends() {
            assert_eq!(
                k.crc32c(0, data),
                want,
                "{} on {data:02x?}",
                k.backend().name()
            );
        }
    }
    // All-zero buffers of every length through a few vector widths: the
    // CRC register still moves (the initial value is non-zero), and every
    // backend agrees with the reference.
    for len in 0..=64 {
        let zeros = vec![0u8; len];
        let want = crc32c_bitwise(0, &zeros);
        assert_eq!(want == 0, len == 0, "len {len}");
        for k in backends() {
            assert_eq!(
                k.crc32c(0, &zeros),
                want,
                "{} on {len} zeros",
                k.backend().name()
            );
        }
    }
}

/// Exhaustive over all 256 coefficients at a fixed awkward length (covers
/// both the vector body and the tail in one buffer) — cheap insurance the
/// proptest sampling can't skip a coefficient.
#[test]
fn all_coefficients_match_reference() {
    let src = bytes_from_seed(77, 0x1234_5678);
    for c in 0..=255u8 {
        let c = Gf256(c);
        let mut want = bytes_from_seed(77, 0xABCD);
        reference::mul_add_slice(c, &src, &mut want);
        for k in backends() {
            let mut dst = bytes_from_seed(77, 0xABCD);
            k.mul_add_slice(c, &src, &mut dst);
            assert_eq!(dst, want, "c={:?} backend={}", c, k.backend().name());
        }
    }
}

#[test]
fn length_mismatch_panics_on_every_backend() {
    for k in backends() {
        let name = k.backend().name();
        let r = std::panic::catch_unwind(|| {
            let mut dst = vec![0u8; 4];
            k.mul_add_slice(Gf256(3), &[1, 2, 3], &mut dst);
        });
        assert!(r.is_err(), "mul_add length mismatch must panic on {name}");
        let r = std::panic::catch_unwind(|| {
            let mut dst = vec![0u16; 4];
            let t = WideCoeff::new(wide_field(), 9);
            k.wide_mul_add(&t, &[1, 2, 3], &mut dst);
        });
        assert!(r.is_err(), "wide length mismatch must panic on {name}");
    }
}
