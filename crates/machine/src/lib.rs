//! # commopt-machine — simulated machine models
//!
//! The paper's measurements ran on a 1993 Intel Paragon and a Cray T3D —
//! hardware that no longer exists. This crate substitutes deterministic
//! *models* of those machines (see DESIGN.md, "Hardware substitution"):
//!
//! * [`topology::ProcGrid`] — the virtual processor mesh ZPL distributes
//!   arrays over (2D for the benchmark programs; 3D arrays keep their third
//!   dimension processor-local, as on the real compiler);
//! * [`dist`] — block distribution of array index spaces over the grid:
//!   each processor's block, each block's range along a dimension, and
//!   the block and processor owning an index, all in O(1);
//! * [`linkstats::MeshTraffic`] — per-link traffic accounting over the
//!   mesh's X-then-Y dimension-ordered routes ([`topology::ProcGrid::route`]):
//!   bytes, messages and busy time per directed link, with utilization and
//!   max-contention hotspot queries;
//! * [`cost::CommCosts`] — per-library communication cost parameters
//!   (fixed software overheads, per-byte CPU costs, network latency and
//!   bandwidth, synchronization costs);
//! * [`spec::MachineSpec`] — a machine: computation speed plus the cost
//!   tables of its communication libraries, with calibrated
//!   [`spec::MachineSpec::paragon`] and [`spec::MachineSpec::t3d`]
//!   instances reproducing the *orderings* of the paper's Figure 6
//!   (knee at 512 doubles; NX async no better than `csend`/`crecv`;
//!   callbacks worse; SHMEM ~10% below PVM).
//!
//! All times are in **microseconds** (`f64`), the natural scale of 1990s
//! message-passing overheads; the simulator reports seconds.

pub mod cost;
pub mod dist;
pub mod linkstats;
pub mod spec;
pub mod topology;

pub use cost::CommCosts;
pub use dist::BlockDist;
pub use linkstats::{LinkStats, MeshTraffic};
pub use spec::MachineSpec;
pub use topology::{Link, ProcGrid, ProcId, Route};
