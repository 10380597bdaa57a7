//! Runtime-dispatched SIMD kernels for the GF(2^8)/GF(2^16) codec hot loops.
//!
//! The paper's Section 5 throughput argument hinges on end-host coding rate:
//! a packet-level RSE coder spends essentially all of its time in
//! `parity ^= coeff * data` over whole packets. The table-driven scalar
//! kernels in `pm-gf` resolve one byte per step through a 256-entry row;
//! the SIMD backends here resolve 32 (AVX2) or 16 (NEON) bytes per step
//! with the classic nibble-split trick: each coefficient `c` expands to two
//! 16-entry tables — `lo[x] = c·x` and `hi[x] = c·(x<<4)` — and a full
//! product is `lo[s & 0xf] ^ hi[s >> 4]`, computed lane-parallel with
//! `_mm256_shuffle_epi8` / `vqtbl1q_u8`.
//!
//! The same vtable carries the wire format's per-datagram integrity digest,
//! CRC-32C ([`crc32c`]): the SSE4.2 `crc32` instruction on x86-64 (part of
//! the AVX2 backend) and a slicing-by-8 table walk everywhere else.
//!
//! ## Dispatch
//!
//! Backend selection happens **once per process**: [`try_kernels`] consults
//! the `PM_SIMD` environment variable (`scalar`, `avx2`, `neon`, or `auto`;
//! unset means `auto`), performs runtime CPU-feature detection
//! (`is_x86_feature_detected!("avx2")`; NEON is baseline on aarch64), and
//! memoizes a `&'static` [`Kernels`] vtable. Every backend computes
//! byte-identical results — GF arithmetic and CRCs are exact — so the
//! choice affects throughput only, never transcripts; the differential
//! proptests in this crate pin each backend against the scalar reference
//! across arbitrary lengths, unaligned offsets, and sub-vector tails.
//!
//! ## The unsafe boundary
//!
//! This crate is the one sanctioned home for `unsafe` in the workspace
//! (`#![forbid(unsafe_code)]` everywhere else): raw SIMD loads/stores and
//! cross-feature calls into `#[target_feature]` functions, the SSE4.2
//! CRC-32C kernel included. The pm-audit
//! `unsafe-code` rule ratchets the count in `audit-baseline.json` and its
//! baseline waiver names pm-simd alone, so a new `unsafe` token anywhere —
//! including here — still trips the gate.

#![deny(unsafe_op_in_unsafe_fn)]

use std::fmt;
use std::sync::OnceLock;

use pm_gf::field::GfField;
use pm_gf::gf256::Gf256;
use pm_gf::mul_table::mul_row;

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod avx2;
mod crc32c;
#[cfg(target_arch = "aarch64")]
mod neon;
mod scalar;
#[cfg(target_arch = "x86_64")]
mod sse42;
mod tables;

#[cfg(test)]
mod proptests;

/// Environment variable overriding backend selection: `scalar`, `avx2`,
/// `neon`, or `auto` (the default when unset).
pub const ENV_VAR: &str = "PM_SIMD";

/// A codec kernel backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Portable scalar kernels delegating to the table-driven `pm_gf::slice`
    /// routines. Always available.
    Scalar,
    /// AVX2 nibble-split kernels, 32 bytes per step, and the SSE4.2
    /// CRC-32C instruction on x86_64 (x86/x86_64 with runtime `avx2` and
    /// `sse4.2` detection; every AVX2 CPU has SSE4.2). An SSE4.2 host
    /// without AVX2 runs the scalar backend, table CRC included.
    Avx2,
    /// NEON nibble-split kernels, 16 bytes per step (aarch64, where NEON is
    /// part of the baseline ISA).
    Neon,
}

impl Backend {
    /// Stable lowercase name, as accepted by `PM_SIMD` and emitted in the
    /// `session_config` trace event's `backend` field.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
        }
    }

    /// Whether the current host can run this backend.
    pub fn is_available(self) -> bool {
        match self {
            Backend::Scalar => true,
            Backend::Avx2 => {
                #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
                {
                    std::arch::is_x86_feature_detected!("avx2")
                        && std::arch::is_x86_feature_detected!("sse4.2")
                }
                #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
                {
                    false
                }
            }
            Backend::Neon => cfg!(target_arch = "aarch64"),
        }
    }

    /// The fastest backend the current host supports (`auto` resolution).
    pub fn detect() -> Backend {
        if Backend::Avx2.is_available() {
            Backend::Avx2
        } else if Backend::Neon.is_available() {
            Backend::Neon
        } else {
            Backend::Scalar
        }
    }

    /// Parse a `PM_SIMD` value. `auto` yields `None` (resolve via
    /// [`Backend::detect`]); anything else must name a backend exactly.
    pub fn parse(value: &str) -> Result<Option<Backend>, DispatchError> {
        match value {
            "auto" => Ok(None),
            "scalar" => Ok(Some(Backend::Scalar)),
            "avx2" => Ok(Some(Backend::Avx2)),
            "neon" => Ok(Some(Backend::Neon)),
            other => Err(DispatchError::UnknownBackend {
                value: other.to_string(),
            }),
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why `PM_SIMD`-driven dispatch failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DispatchError {
    /// `PM_SIMD` was set to something other than `scalar|avx2|neon|auto`.
    UnknownBackend {
        /// The offending value.
        value: String,
    },
    /// `PM_SIMD` forced a backend the current host cannot run.
    Unavailable {
        /// The backend that was requested.
        backend: Backend,
    },
}

impl fmt::Display for DispatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DispatchError::UnknownBackend { value } => write!(
                f,
                "unknown {ENV_VAR} value {value:?} (expected scalar, avx2, neon, or auto)"
            ),
            DispatchError::Unavailable { backend } => write!(
                f,
                "{ENV_VAR} forces backend {backend:?}, which this host does not support"
            ),
        }
    }
}

impl std::error::Error for DispatchError {}

/// Precomputed lookup tables for one GF(2^8) coefficient, shared by every
/// backend: the 256-entry multiplication row (scalar path and vector tails)
/// plus the 32-byte nibble-split pair (SIMD path; `lo` table at bytes 0..16,
/// `hi` at 16..32). Both live in process-wide caches, so the handle is a
/// couple of `&'static` references — cheap to build per call and cheaper to
/// cache per matrix coefficient, as the RSE encoder does.
#[derive(Clone, Copy)]
pub struct CoeffTables {
    c: Gf256,
    row: &'static [u8; 256],
    nib: &'static [u8; 32],
}

impl CoeffTables {
    /// Resolve (or lazily build) the tables for coefficient `c`.
    pub fn new(c: Gf256) -> CoeffTables {
        CoeffTables {
            c,
            row: mul_row(c),
            nib: tables::nib_tables(c),
        }
    }

    /// The coefficient these tables multiply by.
    pub fn coeff(&self) -> Gf256 {
        self.c
    }

    pub(crate) fn row(&self) -> &'static [u8; 256] {
        self.row
    }

    pub(crate) fn nib(&self) -> &'static [u8; 32] {
        self.nib
    }
}

impl fmt::Debug for CoeffTables {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CoeffTables").field("c", &self.c).finish()
    }
}

/// Precomputed tables for one GF(2^16) coefficient (the wide codec's
/// per-coefficient state): byte-split product tables for the scalar path
/// (`lo[b] = c·b`, `hi[b] = c·(b<<8)`) plus four 16-entry nibble tables per
/// result byte for the SIMD path (`nib_lo[i][n]` / `nib_hi[i][n]` are the
/// low/high result bytes of `c·(n << 4i)`).
///
/// At 1.2 KB per coefficient this is meant to be cached by the caller —
/// `pm-rse`'s wide codec keeps one per matrix coefficient, exactly as it
/// did for its previous scalar-only tables.
#[derive(Clone)]
pub struct WideCoeff {
    pub(crate) lo: [u16; 256],
    pub(crate) hi: [u16; 256],
    pub(crate) nib_lo: [[u8; 16]; 4],
    pub(crate) nib_hi: [[u8; 16]; 4],
}

impl WideCoeff {
    /// Build the tables for coefficient `c` in `field` (a width-16 field).
    pub fn new(field: &GfField, c: u16) -> WideCoeff {
        let mut lo = [0u16; 256];
        let mut hi = [0u16; 256];
        for (b, (l, h)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
            *l = field.mul(c, b as u16);
            *h = field.mul(c, (b as u16) << 8);
        }
        let mut nib_lo = [[0u8; 16]; 4];
        let mut nib_hi = [[0u8; 16]; 4];
        for i in 0..4 {
            for n in 0..16 {
                let p = field.mul(c, (n as u16) << (4 * i));
                nib_lo[i][n] = (p & 0xff) as u8;
                nib_hi[i][n] = (p >> 8) as u8;
            }
        }
        WideCoeff {
            lo,
            hi,
            nib_lo,
            nib_hi,
        }
    }
}

impl fmt::Debug for WideCoeff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WideCoeff").finish_non_exhaustive()
    }
}

type XorFn = fn(&mut [u8], &[u8]);
type MulFn = fn(&CoeffTables, &[u8], &mut [u8]);
type ScaleFn = fn(&CoeffTables, &mut [u8]);
type MultiRowsFn = fn(&[(CoeffTables, &[u8])], &mut [u8]);
type WideFn = fn(&WideCoeff, &[u8], &mut [u16]);
type CrcFn = fn(u32, &[u8]) -> u32;

/// A backend's kernel vtable. Obtain one via [`kernels`] / [`try_kernels`]
/// (dispatched) or [`kernels_for`] (explicit, for benches and differential
/// tests); all handles are `&'static`, so they are free to copy around.
///
/// Length preconditions are asserted here, once, at the safe surface — the
/// backend functions behind the pointers rely on them.
pub struct Kernels {
    backend: Backend,
    xor: XorFn,
    mul_add: MulFn,
    mul: MulFn,
    scale: ScaleFn,
    multi_rows: MultiRowsFn,
    wide: WideFn,
    crc32c: CrcFn,
}

impl Kernels {
    /// Which backend this vtable runs on.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// `dst ^= src`, element-wise.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn xor_slice(&self, dst: &mut [u8], src: &[u8]) {
        assert_eq!(dst.len(), src.len(), "xor_slice length mismatch");
        (self.xor)(dst, src);
    }

    /// `dst ^= c * src` — multiply-accumulate with a scalar coefficient.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn mul_add_slice(&self, c: Gf256, src: &[u8], dst: &mut [u8]) {
        assert_eq!(dst.len(), src.len(), "mul_add_slice length mismatch");
        if c.is_zero() {
            return;
        }
        if c == Gf256::ONE {
            (self.xor)(dst, src);
            return;
        }
        (self.mul_add)(&CoeffTables::new(c), src, dst);
    }

    /// `dst ^= c * src` with the coefficient's tables prebuilt — the
    /// zero-setup variant for callers that cache [`CoeffTables`] across many
    /// packets, mirroring `pm_gf::slice::mul_add_row`.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn mul_add_tables(&self, t: &CoeffTables, src: &[u8], dst: &mut [u8]) {
        assert_eq!(dst.len(), src.len(), "mul_add_slice length mismatch");
        if t.c.is_zero() {
            return;
        }
        (self.mul_add)(t, src, dst);
    }

    /// `dst = c * src` (overwrites `dst`).
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn mul_slice(&self, c: Gf256, src: &[u8], dst: &mut [u8]) {
        assert_eq!(dst.len(), src.len(), "mul_slice length mismatch");
        if c.is_zero() {
            dst.fill(0);
            return;
        }
        if c == Gf256::ONE {
            dst.copy_from_slice(src);
            return;
        }
        (self.mul)(&CoeffTables::new(c), src, dst);
    }

    /// Scale a slice in place: `data *= c`.
    pub fn scale_slice(&self, c: Gf256, data: &mut [u8]) {
        if c == Gf256::ONE {
            return;
        }
        if c.is_zero() {
            data.fill(0);
            return;
        }
        (self.scale)(&CoeffTables::new(c), data);
    }

    /// `dst ^= c1*src1 ^ c2*src2 ^ ...` — batched multiply-accumulate over
    /// up to four sources per destination pass. Zero coefficients are
    /// skipped.
    ///
    /// # Panics
    /// Panics if any source length differs from `dst.len()`.
    pub fn mul_add_multi(&self, sources: &[(Gf256, &[u8])], dst: &mut [u8]) {
        for (_, src) in sources {
            assert_eq!(dst.len(), src.len(), "mul_add_multi length mismatch");
        }
        let live: Vec<(CoeffTables, &[u8])> = sources
            .iter()
            .filter(|(c, _)| !c.is_zero())
            .map(|(c, src)| (CoeffTables::new(*c), *src))
            .collect();
        (self.multi_rows)(&live, dst);
    }

    /// Prebuilt-tables variant of [`Kernels::mul_add_multi`], for callers
    /// that hold [`CoeffTables`] per matrix coefficient. A zero coefficient
    /// contributes nothing (its tables are all-zero) but still costs a pass
    /// — callers that want the skip should filter first, as
    /// [`Kernels::mul_add_multi`] does.
    ///
    /// # Panics
    /// Panics if any source length differs from `dst.len()`.
    pub fn mul_add_multi_rows(&self, sources: &[(CoeffTables, &[u8])], dst: &mut [u8]) {
        for (_, src) in sources {
            assert_eq!(dst.len(), src.len(), "mul_add_multi length mismatch");
        }
        (self.multi_rows)(sources, dst);
    }

    /// GF(2^16) multiply-accumulate: `dst[i] ^= c * sym_i`, where `sym_i`
    /// is the big-endian 16-bit symbol at `src[2i..2i+2]` and `dst` holds
    /// native-endian accumulator words.
    ///
    /// # Panics
    /// Panics if `src.len() != 2 * dst.len()`.
    pub fn wide_mul_add(&self, t: &WideCoeff, src: &[u8], dst: &mut [u16]) {
        assert_eq!(src.len(), dst.len() * 2, "wide_mul_add length mismatch");
        (self.wide)(t, src, dst);
    }

    /// CRC-32C (Castagnoli) of `data` appended to a buffer whose CRC is
    /// `crc` (0 for an empty one): `crc32c(crc32c(0, a), b)` equals the
    /// CRC of `a` followed by `b`. Standard parameters — reflected, initial
    /// value and final XOR `0xFFFF_FFFF` — so `b"123456789"` gives
    /// `0xE306_9283` on every backend.
    pub fn crc32c(&self, crc: u32, data: &[u8]) -> u32 {
        (self.crc32c)(crc, data)
    }
}

impl fmt::Debug for Kernels {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kernels")
            .field("backend", &self.backend)
            .finish_non_exhaustive()
    }
}

static SCALAR_KERNELS: Kernels = Kernels {
    backend: Backend::Scalar,
    xor: scalar::xor,
    mul_add: scalar::mul_add,
    mul: scalar::mul,
    scale: scalar::scale,
    multi_rows: scalar::mul_add_multi_rows,
    wide: scalar::wide_mul_add,
    crc32c: crc32c::crc32c,
};

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
static AVX2_KERNELS: Kernels = Kernels {
    backend: Backend::Avx2,
    xor: avx2::xor,
    mul_add: avx2::mul_add,
    mul: avx2::mul,
    scale: avx2::scale,
    multi_rows: avx2::mul_add_multi_rows,
    wide: avx2::wide_mul_add,
    #[cfg(target_arch = "x86_64")]
    crc32c: sse42::crc32c,
    #[cfg(target_arch = "x86")]
    crc32c: crc32c::crc32c,
};

#[cfg(target_arch = "aarch64")]
static NEON_KERNELS: Kernels = Kernels {
    backend: Backend::Neon,
    xor: neon::xor,
    mul_add: neon::mul_add,
    mul: neon::mul,
    scale: neon::scale,
    multi_rows: neon::mul_add_multi_rows,
    // The wide codec only builds per-coefficient tables for long packets,
    // where the scalar byte-split walk is already table-bound; a NEON wide
    // kernel has not been written, so the vtable falls back to scalar.
    wide: scalar::wide_mul_add,
    // ARMv8 has a CRC-32C instruction too, but no host here can test it.
    crc32c: crc32c::crc32c,
};

/// The kernel vtable for a specific backend, or `None` if the current host
/// cannot run it. Intended for benches and differential tests; production
/// callers should go through [`kernels`] / [`try_kernels`].
pub fn kernels_for(backend: Backend) -> Option<&'static Kernels> {
    if !backend.is_available() {
        return None;
    }
    match backend {
        Backend::Scalar => Some(&SCALAR_KERNELS),
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Backend::Avx2 => Some(&AVX2_KERNELS),
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => Some(&NEON_KERNELS),
        #[allow(unreachable_patterns)]
        _ => None,
    }
}

fn auto_kernels() -> &'static Kernels {
    kernels_for(Backend::detect()).expect("detected backend is always available")
}

/// The process-wide dispatched kernels: resolved once from `PM_SIMD` plus
/// runtime CPU detection, then memoized for the lifetime of the process.
/// Changing the variable after the first call has no effect.
pub fn try_kernels() -> Result<&'static Kernels, DispatchError> {
    static SELECTED: OnceLock<Result<&'static Kernels, DispatchError>> = OnceLock::new();
    SELECTED
        .get_or_init(|| {
            let value = match std::env::var(ENV_VAR) {
                Ok(v) => v,
                Err(std::env::VarError::NotPresent) => return Ok(auto_kernels()),
                Err(std::env::VarError::NotUnicode(_)) => {
                    return Err(DispatchError::UnknownBackend {
                        value: "<non-unicode>".to_string(),
                    })
                }
            };
            match Backend::parse(&value)? {
                None => Ok(auto_kernels()),
                Some(forced) => {
                    kernels_for(forced).ok_or(DispatchError::Unavailable { backend: forced })
                }
            }
        })
        .clone()
}

/// Panicking variant of [`try_kernels`], for callers with no error channel.
///
/// # Panics
/// Panics if `PM_SIMD` is set to an unknown value or forces a backend this
/// host cannot run.
pub fn kernels() -> &'static Kernels {
    match try_kernels() {
        Ok(k) => k,
        Err(e) => panic!("pm-simd dispatch failed: {e}"),
    }
}

/// CRC-32C on the dispatched backend — see [`Kernels::crc32c`].
///
/// Never fails: the digest is the same on every backend, so when `PM_SIMD`
/// is invalid this runs the scalar table path and leaves the typed
/// [`DispatchError`] to the codec constructors that report it.
pub fn crc32c(crc: u32, data: &[u8]) -> u32 {
    try_kernels().unwrap_or(&SCALAR_KERNELS).crc32c(crc, data)
}

/// The dispatched backend's name, or `"invalid"` when `PM_SIMD` is bad —
/// for telemetry emitters that must not fail.
pub fn backend_name() -> &'static str {
    try_kernels()
        .map(|k| k.backend().name())
        .unwrap_or("invalid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_known_values() {
        assert_eq!(Backend::parse("auto").unwrap(), None);
        assert_eq!(Backend::parse("scalar").unwrap(), Some(Backend::Scalar));
        assert_eq!(Backend::parse("avx2").unwrap(), Some(Backend::Avx2));
        assert_eq!(Backend::parse("neon").unwrap(), Some(Backend::Neon));
    }

    #[test]
    fn parse_rejects_unknown_values() {
        for bad in ["", "AVX2", "sse2", "scalar ", "auto,avx2"] {
            match Backend::parse(bad) {
                Err(DispatchError::UnknownBackend { value }) => assert_eq!(value, bad),
                other => panic!("expected UnknownBackend for {bad:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn scalar_is_always_available() {
        assert!(Backend::Scalar.is_available());
        assert_eq!(
            kernels_for(Backend::Scalar).unwrap().backend(),
            Backend::Scalar
        );
    }

    #[test]
    fn detect_names_an_available_backend() {
        let b = Backend::detect();
        assert!(b.is_available(), "detect() returned unavailable {b:?}");
        assert_eq!(kernels_for(b).unwrap().backend(), b);
    }

    #[test]
    fn unavailable_backends_have_no_kernels() {
        for b in [Backend::Scalar, Backend::Avx2, Backend::Neon] {
            assert_eq!(kernels_for(b).is_some(), b.is_available(), "{b:?}");
        }
    }

    #[test]
    fn dispatch_errors_render() {
        let e = DispatchError::UnknownBackend {
            value: "sse9".to_string(),
        };
        assert!(e.to_string().contains("sse9"));
        assert!(e.to_string().contains(ENV_VAR));
        let e = DispatchError::Unavailable {
            backend: Backend::Neon,
        };
        assert!(e.to_string().contains("Neon"));
    }

    #[test]
    fn coeff_tables_expose_coefficient() {
        let t = CoeffTables::new(Gf256(7));
        assert_eq!(t.coeff(), Gf256(7));
        assert_eq!(format!("{t:?}"), "CoeffTables { c: Gf256(7) }");
    }
}
