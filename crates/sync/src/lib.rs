//! Concurrency facade for the workspace's lock-free paths, plus a
//! deterministic model checker.
//!
//! This crate is the **only** place in the workspace allowed to import
//! `std::sync::atomic` (enforced by `bns-lint`'s `atomic-import` rule).
//! Instead of raw atomics, concurrent code uses small project types that
//! expose exactly the operations — and exactly the memory orderings — each
//! protocol is allowed to rely on:
//!
//! | Type | Protocol | Orderings |
//! |------|----------|-----------|
//! | [`AtomicF32Cell`] | hogwild embedding tables: racy-by-design reads and writes of f32 bit patterns | `Relaxed` load/store |
//! | [`ClaimCursor`] | shared claim loops: exclusivity comes from RMW atomicity alone | `Relaxed` `fetch_add` |
//! | [`Generation`] | cache-invalidation epochs: the bump publishes "a new artifact is live" | `Release` bump / `Acquire` read |
//! | [`Counter`] | statistics (hit/lookup counts) that no control flow depends on | `Relaxed` |
//! | [`PoisonFlag`] | sticky cross-thread failure latch | `Release` set / `Acquire` read |
//! | [`Mutex`] | plain mutual exclusion, modeled under the checker | n/a |
//! | [`RwLock`] | read-mostly shared state with rare exclusive swaps (the serve hot-swap protocol) | n/a |
//! | [`LatencyHistogram`] | fixed log-bucket latency statistics: one relaxed RMW per sample, no clock inside | `Relaxed` |
//!
//! Narrowing the API is the point: a call site cannot pick a wrong ordering
//! because the ordering is baked into the type, and a new protocol needs a
//! new type (with its own justification) rather than an ad-hoc atomic.
//!
//! # Model checking
//!
//! When built with `RUSTFLAGS="--cfg bns_model_check"`, every operation on
//! these types becomes a schedule point of the deterministic interleaving
//! scheduler in [`model`]. Scenario tests (see `crates/check`) then explore
//! thread interleavings exhaustively (small state spaces) or with seeded
//! randomized search, and any failure is replayable from its recorded
//! schedule. In normal builds the types compile straight to the underlying
//! atomics with zero overhead.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod cell;
mod counter;
mod cursor;
mod flag;
mod generation;
mod histogram;
pub mod model;
mod mutex;
mod rwlock;

pub use cell::AtomicF32Cell;
pub use counter::Counter;
pub use cursor::ClaimCursor;
pub use flag::PoisonFlag;
pub use generation::Generation;
pub use histogram::{HistogramSnapshot, LatencyHistogram, HISTOGRAM_BUCKETS};
pub use mutex::{Mutex, MutexGuard};
pub use rwlock::{ReadGuard, RwLock, WriteGuard};
