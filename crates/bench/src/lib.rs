//! Benchmark harness for the MaxBRSTkNN reproduction.
//!
//! The `figures` binary regenerates every experiment of §8: each
//! subcommand sweeps one parameter (Table 5) and prints the same series
//! the corresponding figure plots. Scales are reduced relative to the
//! paper's testbed (see DESIGN.md §3) — the claims under test are the
//! *shapes*: joint ≪ baseline, approx ≈ 2–3 orders faster than exact,
//! approximation ratio ≥ 0.632, flat joint cost in α/UL/Area/|U|, etc.
//!
//! Metrics, matching §8.1:
//! * **MRPU** — mean runtime per user of the top-k stage (ms),
//! * **MIOCPU** — mean simulated I/O per user of the top-k stage,
//! * candidate-selection **runtime** (ms, total),
//! * **approximation ratio** — approx cardinality / exact cardinality.

pub mod figs;
pub mod harness;
pub mod loadgen;
mod measure;
mod params;
mod report;
mod scenario;

pub use measure::{
    measure_query_batch, measure_select, measure_topk_baseline, measure_topk_joint,
    measure_user_index, BatchMeasure, SelectMeasure, SelectMethod, TopkMeasure, UserIndexMeasure,
};
pub use params::{DatasetKind, Params};
pub use report::Table;
pub use scenario::Scenario;
