//! Discrete-event simulation core for the Howsim Active Disk simulator.
//!
//! This crate provides the timebase, event queue, resource servers, random
//! number generation, and statistics used by every model in the simulator.
//! It corresponds to the simulation substrate of *Howsim*, the simulator
//! built for "Evaluation of Active Disks for Decision Support Databases"
//! (Uysal, Acharya, Saltz — HPCA 2000).
//!
//! Design principles:
//!
//! * **Determinism.** Simulations must be bit-for-bit reproducible. The
//!   event queue breaks ties by insertion order, and [`rng::SplitMix64`] is
//!   a deterministic, seedable generator.
//! * **Passive models.** Device models (disks, links) are passive state
//!   machines that compute service times; the event loop lives in the
//!   orchestration layer (`howsim`). This keeps every model independently
//!   unit-testable.
//!
//! # Example
//!
//! ```
//! use simcore::{EventQueue, SimTime, Duration};
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.push(SimTime::ZERO + Duration::from_micros(5), "second");
//! q.push(SimTime::ZERO + Duration::from_micros(2), "first");
//! let (t, ev) = q.pop().expect("queue is non-empty");
//! assert_eq!(ev, "first");
//! assert_eq!(t.as_micros(), 2);
//! ```

#![warn(missing_docs)]

pub mod faults;
pub mod histogram;
pub mod metrics;
pub mod queue;
pub mod rng;
pub mod server;
pub mod span;
pub mod state;
pub mod stats;
pub mod time;

pub use faults::DowntimeTracker;
pub use histogram::Histogram;
pub use metrics::{Counter, GaugeSeries, UtilizationSampler};
pub use queue::{EventQueue, QueueBackend, QueueSnapshot};
pub use rng::SplitMix64;
pub use server::{FifoServer, MultiServer};
pub use span::{Span, SpanArena, SpanId, SpanKind, SpanResource};
pub use state::{StateError, StateReader, StateWriter};
pub use stats::{Accumulator, BusyTracker};
pub use time::{Bandwidth, Duration, SimTime};
