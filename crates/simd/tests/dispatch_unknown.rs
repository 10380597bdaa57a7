//! An unknown `PM_SIMD` value must surface as a clean typed error from
//! `try_kernels()` — not a panic, and not a silent fall-through to some
//! backend. Own binary: the bad value must be in place before the
//! process-wide selection is memoized.

use pm_simd::{try_kernels, DispatchError, ENV_VAR};

#[test]
fn unknown_value_errors_cleanly() {
    std::env::set_var(ENV_VAR, "avx512-dreams");

    match try_kernels() {
        Err(DispatchError::UnknownBackend { value }) => assert_eq!(value, "avx512-dreams"),
        other => panic!("expected UnknownBackend, got {other:?}"),
    }

    // The error is memoized too: later callers see the same failure rather
    // than a half-configured codec, and the infallible telemetry accessor
    // degrades to a marker value.
    assert!(try_kernels().is_err());
    assert_eq!(pm_simd::backend_name(), "invalid");

    // The wire checksum cannot fail over it either: the digest is the same
    // on every backend, so it runs the table path.
    assert_eq!(pm_simd::crc32c(0, b"123456789"), 0xE306_9283);
}
