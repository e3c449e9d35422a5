//! Closed-form overhead oracles for the bucketed compression↔communication
//! pipeline, shared by the integration suites that check the collective
//! scheduler against them (`mod oracle;` in each suite).
//!
//! The trainer charges every iteration through `CollectiveScheduler`; these
//! recurrences are the independent reference its single-stream FIFO schedule
//! must reproduce (up to float rounding) and the source of the modeled
//! goldens in `overlap_golden.rs`.

// Each suite that includes this module uses only some of the oracles.
#![allow(dead_code)]

/// Total compression + communication overhead when the two phases are fully
/// serialised (compress every bucket, then communicate every bucket).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn serial_overhead(compression: &[f64], communication: &[f64]) -> f64 {
    assert_eq!(
        compression.len(),
        communication.len(),
        "per-bucket cost slices must align"
    );
    compression.iter().sum::<f64>() + communication.iter().sum::<f64>()
}

/// Total overhead when compression of bucket `i + 1` overlaps communication of
/// bucket `i` (single compression stream, single communication stream).
///
/// Classic two-stage pipeline recurrence: with `C_i` the compression finish
/// time (`C_i = C_{i-1} + comp_i`) the wire finishes bucket `i` at
/// `W_i = max(W_{i-1}, C_i) + comm_i`; the overhead is `W_last`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn pipelined_overhead(compression: &[f64], communication: &[f64]) -> f64 {
    assert_eq!(
        compression.len(),
        communication.len(),
        "per-bucket cost slices must align"
    );
    let mut compress_done = 0.0f64;
    let mut wire_done = 0.0f64;
    for (&comp, &comm) in compression.iter().zip(communication) {
        compress_done += comp;
        wire_done = wire_done.max(compress_done) + comm;
    }
    wire_done
}
