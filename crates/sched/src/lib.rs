//! `timepiece-sched`: the verification-scheduling subsystem.
//!
//! The paper's headline observation is that modular checking turns control
//! plane verification into an embarrassingly parallel pile of per-node
//! verification conditions. This crate is the machinery that drains that
//! pile well, at three scales:
//!
//! * **Within a process** — [`StealQueue`] + [`run`]: per-worker deques with
//!   batched steal-half instead of a contended global counter. Each worker
//!   owns private state built once per run (the modular checker puts its
//!   long-lived solver sessions there), so consecutive tasks on a worker
//!   share encoder caches and solver contexts.
//! * **Across a failure** — [`CancelToken`]: cooperative fail-fast
//!   cancellation whose hooks also *interrupt* in-flight solver calls, so a
//!   discovered violation stops the fleet in interrupt latency, not in
//!   time-to-finish-the-longest-solve.
//! * **Across processes** — [`ShardPlan`]: a deterministic partition of the
//!   node set that stripes every symmetry class across shards, so each
//!   shard carries the same cost mix, plus the [`Json`] value type shard
//!   reports travel in. Imbalance left over at run time is the TCP
//!   coordinator's job: it steals whole shards from busy workers.
//!
//! The scheduler is deliberately independent of SMT types: tasks are any
//! `Send` values, per-worker state is any type, and cancellation hooks are
//! plain closures. `timepiece-core`'s `ModularChecker` plugs its sessions
//! and conditions into these hooks.
//!
//! # Example
//!
//! Drain a skewed workload on four workers with per-worker state:
//!
//! ```
//! use timepiece_sched::{run, CancelToken};
//!
//! let token = CancelToken::new();
//! let outcome = run(
//!     (0u32..64).collect(),
//!     4,
//!     &token,
//!     |worker| (worker, 0u32),
//!     |(_, processed), task| {
//!         *processed += 1;
//!         Ok::<_, std::convert::Infallible>(Some(task))
//!     },
//! )?;
//! assert_eq!(outcome.results.len(), 64);
//! # Ok::<(), std::convert::Infallible>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cancel;
pub mod pool;
pub mod queue;
pub mod shard;

/// The hand-rolled JSON codec the shard reports travel in. It moved to the
/// bottom of the crate stack (`timepiece-trace`, which exports traces
/// through it); re-exported here so shard-protocol call sites keep their
/// `timepiece_sched::json` paths.
pub use timepiece_trace::json;

pub use cancel::CancelToken;
pub use json::{Json, JsonError};
pub use pool::{run, SchedOutcome, SchedStats};
pub use queue::StealQueue;
pub use shard::ShardPlan;
