//! Synchronisation facade of the runtime crate.
//!
//! Everything in `pool.rs` and `stats.rs` that synchronises threads — mutexes,
//! condvars, atomics, thread spawns — imports from here instead of
//! `std::sync` directly. A normal build re-exports `std`; building with
//! `RUSTFLAGS="--cfg sidco_loom"` swaps in the vendored `loom` model-checker
//! shims, whose primitives behave exactly like `std` outside a model run and
//! become schedule points of the deterministic checker inside one (see
//! `crates/runtime/tests/loom_pool.rs`).
//!
//! Deliberately **not** routed through the facade:
//!
//! * `std::sync::OnceLock` — the pool's lazy-spawn cell. Loom model tests
//!   construct the pool and trigger the spawn on the root simulated thread
//!   before any concurrency starts, so the once-cell race is out of scope
//!   (and `OnceLock` has no loom analogue).
//! * The [`handle`](crate::handle) registry in `lib.rs` — a process-wide map
//!   from worker budget to a leaked pool, locked once per lookup and never
//!   touched by the pool's schedules.

#[cfg(not(sidco_loom))]
pub(crate) use std::sync::atomic;
#[cfg(not(sidco_loom))]
pub(crate) use std::sync::{Arc, Condvar, Mutex};
#[cfg(not(sidco_loom))]
pub(crate) use std::thread;

#[cfg(sidco_loom)]
pub(crate) use loom::sync::atomic;
#[cfg(sidco_loom)]
pub(crate) use loom::sync::{Arc, Condvar, Mutex};
#[cfg(sidco_loom)]
pub(crate) use loom::thread;
