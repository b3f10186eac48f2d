//! The performance heuristics of Section IV-B. Early termination's
//! state machine is [`grappolo::EtState`], shared with the
//! shared-memory baseline.

pub mod coloring;
pub mod threshold;

pub use coloring::distributed_coloring;
pub use threshold::ThresholdSchedule;
