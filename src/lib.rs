//! # plane-rendezvous
//!
//! Umbrella crate for the reproduction of *Almost Universal Anonymous
//! Rendezvous in the Plane* (Bouchard, Dieudonné, Pelc, Petit — SPAA 2020).
//! Re-exports the workspace crates under stable module names so downstream
//! users need a single dependency.
//!
//! ```
//! use plane_rendezvous::prelude::*;
//!
//! // A synchronous instance with opposite chirality and a generous delay
//! // (type 1 in the paper's taxonomy): AlmostUniversalRV must solve it.
//! let instance = Instance::builder()
//!     .r(ratio(1, 1))
//!     .position(ratio(3, 1), ratio(1, 1))
//!     .chirality(Chirality::Minus)
//!     .delay(ratio(8, 1))
//!     .build()
//!     .unwrap();
//! let outcome = solve(&instance, &Budget::default());
//! assert!(outcome.met());
//! ```

#![forbid(unsafe_code)]

pub use rv_baselines as baselines;
pub use rv_core as core;
pub use rv_geometry as geometry;
pub use rv_model as model;
pub use rv_numeric as numeric;
pub use rv_sim as sim;
pub use rv_trajectory as trajectory;

/// Most-used items in one import.
pub mod prelude {
    pub use rv_core::{
        classify, feasible, recommend, solve, solve_dedicated, solve_pair, Aur, Budget, Campaign,
        CampaignSpec, Dedicated, Executor, FixedPair, LocalExecutor, PoolExecutor, RecordSink,
        Solver, SolverSpec, StatsAccumulator, Visibility, WorkerCommand,
    };
    pub use rv_geometry::{Angle, Vec2};
    pub use rv_model::{Chirality, Classification, Instance};
    pub use rv_numeric::{int, ratio, Int, Ratio};
    pub use rv_sim::Outcome;
}
