//! CRC-32C on the SSE4.2 `crc32` instruction, 8 bytes per step.
//!
//! The instruction computes exactly the reflected Castagnoli CRC the table
//! path in `crc32c.rs` does, minus the initial/final inversion, so both
//! paths give the same digest for every input.
//!
//! # Safety
//!
//! [`crc32c`] calls a `#[target_feature(enable = "sse4.2")]` function,
//! which is sound only on SSE4.2 hosts. It is reachable solely through the
//! `AVX2_KERNELS` vtable, and `kernels_for` hands that out only when
//! `is_x86_feature_detected!("sse4.2")` holds (alongside `avx2`). The
//! kernel itself reads through safe slices; no raw pointer is formed.

use core::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};

pub(crate) fn crc32c(crc: u32, data: &[u8]) -> u32 {
    // SAFETY: only reachable via the AVX2 vtable, selected after runtime
    // detection of SSE4.2.
    unsafe { crc32c_sse42(crc, data) }
}

#[target_feature(enable = "sse4.2")]
fn crc32c_sse42(crc: u32, data: &[u8]) -> u32 {
    let mut words = data.chunks_exact(8);
    let mut c = u64::from(!crc);
    let mut word = [0u8; 8];
    for w in &mut words {
        word.copy_from_slice(w);
        c = _mm_crc32_u64(c, u64::from_le_bytes(word));
    }
    // The instruction leaves the 32-bit register zero-extended in `c`.
    let mut c = c as u32;
    for &b in words.remainder() {
        c = _mm_crc32_u8(c, b);
    }
    !c
}
