//! Placement algorithms for the fixed-bit-rate setting (paper, Sec. 4.2).
//!
//! Given a replication scheme and per-replica communication weights, a
//! placement maps every replica to a server subject to:
//!
//! * storage: at most `C` replicas per server (constraint 4, in the
//!   paper's replica-slot re-definition);
//! * distinctness: all replicas of one video on different servers
//!   (constraint 6);
//!
//! minimizing the load-imbalance degree `L`. "This placement problem is
//! more related to load balancing problems than to bin packing problems"
//! — the number of servers is fixed; what varies is how evenly the
//! weights spread.
//!
//! Implemented policies:
//!
//! * [`round_robin::RoundRobinPlacement`] — groups replicas by video and
//!   deals them out cyclically; optimal when all replica weights are equal;
//! * [`slf::SmallestLoadFirstPlacement`] — the paper's Algorithm 1, whose
//!   Eq. (2) imbalance is bounded by `max_i w_i − min_i w_i`
//!   (Theorem 4.2), a bound that is non-increasing in the replication
//!   degree (Theorem 4.3); see [`bounds`].
//!
//! ```
//! use vod_model::{load, Popularity, ReplicationScheme};
//! use vod_placement::{PlacementPolicy, SmallestLoadFirstPlacement};
//! use vod_placement::traits::PlacementInput;
//!
//! let pop = Popularity::zipf(12, 1.0).unwrap();
//! let scheme = ReplicationScheme::new(vec![3, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1]).unwrap();
//! let weights = scheme.weights(&pop, 1_000.0).unwrap();
//! let capacities = vec![4u64; 4]; // 4 servers × 4 replica slots = 16 = Σ r_i
//!
//! let layout = SmallestLoadFirstPlacement.place(&PlacementInput {
//!     scheme: &scheme,
//!     weights: &weights,
//!     n_servers: 4,
//!     capacities: &capacities,
//! }).unwrap();
//!
//! // Theorem 4.2: measured Eq. (2) imbalance within max w − min w.
//! let loads = layout.loads(&weights).unwrap();
//! let spread = scheme.weight_spread(&pop, 1_000.0).unwrap();
//! assert!(load::max_deviation(&loads) <= spread + 1e-9);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bounds;
pub mod coded;
pub mod incremental;
pub mod round_robin;
pub mod slf;
pub mod traits;

pub use coded::place_coded;
pub use incremental::{IncrementalPlacement, IncrementalScratch};
pub use round_robin::RoundRobinPlacement;
pub use slf::SmallestLoadFirstPlacement;
pub use traits::PlacementPolicy;
