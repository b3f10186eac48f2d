//! `louvain-serve`: the long-running job-server layer over the
//! resilient distributed runner.
//!
//! The one-shot CLI protects a single invocation with checkpoints, a
//! watchdog, and recovery budgets; this crate turns those primitives
//! into a serving story:
//!
//! * **Admission control** — jobs flow through a bounded queue plus an
//!   in-flight cap ([`ServeConfig::queue_depth`] /
//!   [`ServeConfig::workers`]). Submissions beyond capacity are shed
//!   with a typed `queue_full` rejection instead of buffered without
//!   bound, and the listener never blocks on a full pool.
//! * **Kill-and-resume** — every job runs under a per-job checkpoint
//!   directory derived from its cache key, with `resume` always on: a
//!   job killed mid-phase (daemon restart, drain, injected crash past
//!   its budget) is *resumed from the newest manifest* on resubmission
//!   and produces a bit-identical result to an uninterrupted run.
//! * **Per-job recovery budgets** — crash and hang budgets are split
//!   ([`louvain_dist::ResilOptions::crash_budget`]), so the quarantine
//!   ladder can tell a poisoned job from a flaky network.
//! * **Poisoned-job quarantine** — a job whose runs keep failing is
//!   quarantined after [`ServeConfig::quarantine_after`] attempts with
//!   a structured error result; it never takes the daemon down.
//! * **Result cache** — finished jobs land in a fingerprint-keyed LRU
//!   ([`cache::ArtifactCache`], key = graph key × config fingerprint ×
//!   ranks); an identical resubmission returns the cached
//!   [`louvain_obs::RunArtifact`] without re-running, and `query`
//!   exposes the dendrogram (per-level assignments) from the cache. A
//!   slab's graph key is the hash of its checksummed header, so a hit
//!   costs one 192-byte read; a miss verifies every section checksum
//!   before it runs ([`cache::graph_key`]). Every job runs on a slab;
//!   any other file is refused by its magic before anything is hashed.
//!
//! The [`proto`] module speaks the JSON-lines wire protocol used by the
//! `louvaind` binary over stdin pipes and TCP connections.

pub mod cache;
pub mod job;
pub mod proto;
pub mod server;

pub use cache::{graph_fingerprint, ArtifactCache, CachedResult, JobKey};
pub use job::JobSpec;
pub use proto::serve_lines;
pub use server::{JobStatus, ServeConfig, Server, SubmitError};
