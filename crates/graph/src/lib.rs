//! # louvain-graph — graph substrate for distributed Louvain
//!
//! Everything the IPDPS 2018 distributed Louvain paper assumes about its
//! input lives here:
//!
//! * [`EdgeList`] / [`Csr`] — weighted undirected graphs in edge-list and
//!   compressed-sparse-row form (the paper's storage format),
//! * [`community`] — community assignments and the Eq. 2 modularity the
//!   paper optimizes, plus shared-memory coarsening,
//! * [`partition`] — the 1D edge-balanced vertex distribution of
//!   Section IV ("each process receives roughly the same number of edges;
//!   no clever graph partitioning"),
//! * [`DenseMap`] — the collision-free per-thread table both move
//!   kernels (distributed and Grappolo) gather into,
//! * [`dist`] — per-rank local graph pieces with global edge endpoints,
//! * [`textio`] — the text edge lists graphs arrive in, streamed into any
//!   [`EdgeSink`] (the on-disk format every input is converted to, with
//!   per-rank range reads standing in for MPI I/O, is `louvain-store`'s
//!   slab),
//! * [`gen`] — synthetic workload generators: LFR (ground-truth quality,
//!   Table VII), SSCA#2 (weak scaling, Table V/Fig 4), RMAT social
//!   networks, banded meshes (`channel`/`nlpkkt`-like), web-like
//!   power-law clique graphs, and Erdős–Rényi noise graphs.
//!
//! Weight convention (used consistently everywhere, see DESIGN.md §6):
//! every undirected edge `{u,v}` is stored as both directed arcs `(u,v)`
//! and `(v,u)`; a self-loop is stored once. The weighted degree of a
//! vertex is the sum of its outgoing arc weights, `2m` is the sum of all
//! weighted degrees, and modularity is exactly invariant under coarsening.

pub mod community;
pub mod csr;
pub mod dense;
pub mod dist;
pub mod edgelist;
pub mod gen;
pub mod hash;
pub mod ingest;
pub mod metrics;
pub mod partition;
pub mod sink;
pub mod textio;

pub use community::{modularity, CommunityAssignment};
pub use csr::Csr;
pub use dense::DenseMap;
pub use dist::LocalGraph;
pub use edgelist::EdgeList;
pub use ingest::{IngestError, IngestPolicy, RepairStats, WeightFault};
pub use partition::VertexPartition;
pub use sink::EdgeSink;

/// Global vertex identifier. The paper targets graphs with more than 4
/// billion edges and 100M+ vertices, so identifiers are 64-bit.
pub type VertexId = u64;

/// A graph has fewer vertices than this, so [`Csr`], [`LocalGraph`], the
/// slab and checkpoints store arc destinations as `u32`. Readers refuse
/// more ([`IngestError::TooManyVertices`]); in-memory constructors assert.
pub const VERTEX_LIMIT: u64 = 1 << 32;

pub(crate) fn assert_vertex_count(n: u64) {
    ingest::check_vertex_count(n).unwrap_or_else(|e| panic!("{e}"));
}

/// Edge weight. Input graphs are unweighted (weight 1) but coarsened
/// graphs accumulate real-valued weights.
pub type Weight = f64;
