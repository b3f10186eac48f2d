//! # louvain-bench — experiment harness
//!
//! Regenerates every table and figure of the IPDPS 2018 distributed
//! Louvain paper (see DESIGN.md §5 for the experiment index and
//! EXPERIMENTS.md for paper-vs-measured results). One binary per
//! table/figure:
//!
//! ```text
//! cargo run --release -p louvain-bench --bin table1   # ET α sweep (shared memory)
//! cargo run --release -p louvain-bench --bin table2   # test graph inventory
//! cargo run --release -p louvain-bench --bin table3   # dist vs shared, single node
//! cargo run --release -p louvain-bench --bin fig3     # strong scaling, all variants
//! cargo run --release -p louvain-bench --bin table4   # best speedups (from fig3 sweep)
//! cargo run --release -p louvain-bench --bin table5   # SSCA#2 weak-scaling inventory
//! cargo run --release -p louvain-bench --bin fig4     # weak scaling runtime
//! cargo run --release -p louvain-bench --bin fig5     # nlpkkt convergence
//! cargo run --release -p louvain-bench --bin fig6     # web-cc12 convergence
//! cargo run --release -p louvain-bench --bin table6   # ET + threshold cycling
//! cargo run --release -p louvain-bench --bin table7   # LFR ground-truth quality
//! cargo run --release -p louvain-bench --bin fig2     # threshold cycling schedule
//! cargo run --release -p louvain-bench --bin breakdown # HPCToolkit-style time split
//! ```
//!
//! Every binary prints the paper's rows and writes a TSV under
//! `target/experiments/`. Modeled seconds come from [`model`], the α-β
//! time model, evaluated over a finished run's counters. Set
//! `LOUVAIN_SCALE=quick|default|full` to trade runtime for fidelity.

pub mod datasets;
pub mod harness;
pub mod model;
pub mod table;

pub use datasets::{dataset_by_name, registry, Dataset, GraphClass, Scale};
pub use harness::{run_dist_once, run_shared_once, RunRecord};
pub use table::{write_tsv, Table};
