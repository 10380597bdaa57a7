//! CRC-32C (Castagnoli), the wire format's integrity digest — portable
//! table path.
//!
//! Parameters: reflected polynomial `0x82F6_3B78` (normal form
//! `0x1EDC_6F41`), initial value and final XOR `0xFFFF_FFFF`, so
//! `crc32c(0, b"123456789") == 0xE306_9283`. The running value handed in
//! and out is the *finished* CRC of everything seen so far: feeding a
//! buffer in any number of pieces gives the one-shot result, and the CRC
//! of nothing is 0.
//!
//! Slicing-by-8 resolves eight input bytes per step through eight
//! 256-entry tables (8 KB, built at compile time). It is the kernel of the
//! scalar backend and the oracle the SSE4.2 path is proptested against,
//! alongside a bit-at-a-time reference in the tests.

/// Reflected CRC-32C generator polynomial.
const POLY: u32 = 0x82F6_3B78;

/// `TABLES[0][b]` is the CRC register after shifting byte `b` through an
/// empty register; `TABLES[s][b]` is the same byte followed by `s` zero
/// bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut s = 1;
    while s < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[s - 1][i];
            t[s][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        s += 1;
    }
    t
}

pub(crate) fn crc32c(crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = !crc;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}
