//! The counter table: every always-on per-rank counter, named once.
//!
//! `louvain-comm` records into a [`StatsSnapshot`] on every `Comm`
//! call, and [`crate::RunReport`] carries the snapshots as they are.
//! The experiment harness's α-β model prices the counted traffic after
//! the run (the HPCToolkit-style breakdown of Section V-A of the paper
//! is derived from exactly these numbers).
//!
//! The counters are named in the [`counter_table!`] invocation below
//! and nowhere else. A snapshot can be walked word by word in that
//! order, with the names alongside, and everything that treats the
//! counters alike — summing across ranks, re-absorbing a checkpoint,
//! phase deltas, equality, the checkpoint stats block, the report's
//! JSON — is written against the walk. A new counter is one table line.

use crate::json::Json;

/// The algorithmic step traffic is attributed to. The distributed
/// Louvain iteration has four communication steps per sweep (ghost
/// community refresh, remote-community a_c pull, delta push to owners,
/// and the modularity reduction); checkpoint manifest gathers land in
/// `Checkpoint`; everything else (setup, graph rebuild, result
/// gathering) lands in `Other`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CommStep {
    GhostRefresh,
    CommunityPull,
    DeltaPush,
    Reduction,
    Checkpoint,
    #[default]
    Other,
}

/// Number of [`CommStep`] variants (array-indexed counters).
pub const NUM_COMM_STEPS: usize = 6;

impl CommStep {
    pub const ALL: [CommStep; NUM_COMM_STEPS] = [
        CommStep::GhostRefresh,
        CommStep::CommunityPull,
        CommStep::DeltaPush,
        CommStep::Reduction,
        CommStep::Checkpoint,
        CommStep::Other,
    ];

    /// Position in [`CommStep::ALL`] and in every per-step array.
    pub fn index(self) -> usize {
        self as usize
    }

    pub fn label(self) -> &'static str {
        match self {
            CommStep::GhostRefresh => "ghost_refresh",
            CommStep::CommunityPull => "community_pull",
            CommStep::DeltaPush => "delta_push",
            CommStep::Reduction => "reduction",
            CommStep::Checkpoint => "checkpoint",
            CommStep::Other => "other",
        }
    }

    /// Inverse of [`CommStep::label`] (used by the fault-plan DSL).
    pub fn from_label(label: &str) -> Option<CommStep> {
        CommStep::ALL.into_iter().find(|s| s.label() == label)
    }
}

/// Declares [`StatsSnapshot`] from the one list of counters: scalars,
/// then per-[`CommStep`] arrays. Every field is a `u64` that sums.
macro_rules! counter_table {
    (
        scalars { $($(#[$sdoc:meta])* $s:ident,)* }
        per_step { $($(#[$adoc:meta])* $a:ident,)* }
    ) => {
        /// One rank's counters as plain data, summable across ranks.
        #[derive(Debug, Default, Clone, Copy)]
        pub struct StatsSnapshot {
            $($(#[$sdoc])* pub $s: u64,)*
            $($(#[$adoc])* pub $a: [u64; NUM_COMM_STEPS],)*
        }

        impl StatsSnapshot {
            /// Every counter in table order (arrays in step order).
            pub fn words(&self) -> impl Iterator<Item = u64> + '_ {
                std::iter::empty()$(.chain([self.$s]))*$(.chain(self.$a))*
            }

            /// The same walk, writable.
            pub fn words_mut(&mut self) -> impl Iterator<Item = &mut u64> {
                std::iter::empty()$(.chain([&mut self.$s]))*$(.chain(&mut self.$a))*
            }

            /// The same walk, naming each word: the field, and for an
            /// array word the step of its slot.
            pub fn names() -> impl Iterator<Item = (&'static str, Option<CommStep>)> {
                std::iter::empty()
                    $(.chain([(stringify!($s), None)]))*
                    $(.chain(CommStep::ALL.map(|step| (stringify!($a), Some(step)))))*
            }
        }
    };
}

counter_table! {
    scalars {
        p2p_messages,
        p2p_bytes,
        collective_calls,
        collective_bytes,
        /// Injected stalls (straggler simulation) served by this rank
        /// (zero in clean runs).
        fault_stalls,
        /// Watchdog ladder events on this rank's blocked waits: expired
        /// deadline windows, extensions granted to a silent rank, and
        /// extensions granted to a heartbeating straggler.
        wd_timeouts,
        wd_retries,
        wd_stragglers,
    }
    per_step {
        /// Messages/calls per step, indexed by `CommStep::index()`.
        step_messages,
        /// Bytes per step.
        step_bytes,
        /// Watchdog extensions granted to a silent rank, per step,
        /// charged when the extension happens so a panic mid-step cannot
        /// lose them (the contract of `Comm::with_step`).
        step_retries,
        /// Idle wall nanoseconds blocked in mailbox receives per step.
        /// Excluded from equality.
        step_wait_nanos,
    }
}

/// Equality over the *deterministic* counters only. `step_wait_nanos`
/// is wall-clock derived — two bit-identical runs block for different
/// real durations — and the determinism/parity tests compare snapshots
/// wholesale.
impl PartialEq for StatsSnapshot {
    fn eq(&self, other: &Self) -> bool {
        let timeless = |s: &Self| Self {
            step_wait_nanos: [0; NUM_COMM_STEPS],
            ..*s
        };
        timeless(self).words().eq(timeless(other).words())
    }
}

impl StatsSnapshot {
    /// Add every counter of `other` (another rank, or an earlier leg of
    /// the same run).
    pub fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.words_mut().zip(other.words()) {
            *mine += theirs;
        }
    }

    /// What was counted after `earlier`, a previous snapshot of the
    /// same rank.
    pub fn since(&self, earlier: &Self) -> Self {
        let mut delta = *self;
        for (mine, theirs) in delta.words_mut().zip(earlier.words()) {
            *mine -= theirs;
        }
        delta
    }

    /// Bytes attributed to one algorithmic step.
    pub fn step_bytes_for(&self, step: CommStep) -> u64 {
        self.step_bytes[step.index()]
    }

    /// Messages/calls attributed to one algorithmic step.
    pub fn step_messages_for(&self, step: CommStep) -> u64 {
        self.step_messages[step.index()]
    }

    /// Idle blocked nanoseconds attributed to one algorithmic step.
    pub fn step_wait_nanos_for(&self, step: CommStep) -> u64 {
        self.step_wait_nanos[step.index()]
    }

    /// Total idle blocked nanoseconds across all steps.
    pub fn wait_nanos_total(&self) -> u64 {
        self.step_wait_nanos.iter().sum()
    }

    /// Point-to-point plus collective bytes: everything this rank sent.
    pub fn total_bytes(&self) -> u64 {
        self.p2p_bytes + self.collective_bytes
    }

    /// Scalars by name; each per-step array as an object keyed by
    /// [`CommStep::label`]. Exact below 2^53 per counter.
    pub fn to_json(&self) -> Json {
        let mut members: Vec<(String, Json)> = Vec::new();
        for ((name, step), word) in Self::names().zip(self.words()) {
            let Some(step) = step else {
                members.push((name.into(), Json::uint(word)));
                continue;
            };
            if step.index() == 0 {
                members.push((name.into(), Json::Obj(Vec::new())));
            }
            if let Some((_, Json::Obj(slots))) = members.last_mut() {
                slots.push((step.label().into(), Json::uint(word)));
            }
        }
        Json::Obj(members)
    }

    /// Inverse of [`StatsSnapshot::to_json`]; every counter is required.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let mut snap = Self::default();
        for ((name, step), word) in Self::names().zip(snap.words_mut()) {
            *word = match step {
                None => doc.field_u64(name)?,
                Some(step) => doc
                    .field(name)?
                    .field_u64(step.label())
                    .map_err(|e| format!("`{name}`: {e}"))?,
            };
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot whose every word differs: a walker that skips or
    /// repeats a field cannot preserve it.
    fn distinct() -> StatsSnapshot {
        let mut s = StatsSnapshot::default();
        for (i, w) in s.words_mut().enumerate() {
            *w = 1_000 + i as u64;
        }
        s
    }

    #[test]
    fn every_field_survives_the_walk_merge_and_since() {
        let full = distinct();
        let words: Vec<u64> = full.words().collect();
        assert_eq!(
            words,
            (1_000..1_000 + words.len() as u64).collect::<Vec<_>>()
        );
        // The walk starts at the table's first field and covers the
        // whole struct, so a field added to the table is walked too.
        assert_eq!(full.p2p_messages, 1_000);
        assert_eq!(
            words.len() * std::mem::size_of::<u64>(),
            std::mem::size_of::<StatsSnapshot>()
        );

        let mut twice = full;
        twice.merge(&full);
        assert!(twice.words().eq(words.iter().map(|w| 2 * w)));
        assert!(twice.since(&full).words().eq(full.words()));
    }

    #[test]
    fn equality_ignores_only_the_wall_clock_wait_field() {
        let full = distinct();
        let mut other = full;
        other.step_wait_nanos = [0; NUM_COMM_STEPS];
        assert_eq!(full, other);
        for i in 0..full.words().count() {
            let mut bumped = full;
            *bumped.words_mut().nth(i).unwrap() += 1;
            let only_wait_differs = bumped.step_wait_nanos != full.step_wait_nanos;
            assert_eq!(full == bumped, only_wait_differs, "word {i}");
        }
    }

    #[test]
    fn names_walk_beside_words_in_table_order() {
        let names: Vec<_> = StatsSnapshot::names().collect();
        assert_eq!(names.len(), StatsSnapshot::default().words().count());
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is walked twice");
        // Table order: the first scalar, then each array over
        // `CommStep::ALL`, the wait column last.
        assert_eq!(names[0], ("p2p_messages", None));
        let arrays = &names[names.len() - 4 * NUM_COMM_STEPS..];
        for (slot, &(name, step)) in arrays.iter().enumerate() {
            assert_eq!(step, Some(CommStep::ALL[slot % NUM_COMM_STEPS]), "{name}");
        }
        assert_eq!(arrays[0].0, "step_messages");
        assert_eq!(arrays[4 * NUM_COMM_STEPS - 1].0, "step_wait_nanos");
        // A name addresses the word beside it.
        let full = distinct();
        let at = |name, step| names.iter().position(|n| *n == (name, step)).unwrap() as u64;
        assert_eq!(full.wd_timeouts, 1_000 + at("wd_timeouts", None));
        assert_eq!(
            full.step_bytes_for(CommStep::Reduction),
            1_000 + at("step_bytes", Some(CommStep::Reduction))
        );
    }

    #[test]
    fn json_carries_every_word_under_its_name() {
        let full = distinct();
        let doc = full.to_json();
        let back = StatsSnapshot::from_json(&doc).unwrap();
        // `==` skips the wait column; the walk does not.
        assert!(back.words().eq(full.words()));
        for (name, step) in StatsSnapshot::names() {
            let member = doc.get(name).unwrap_or_else(|| panic!("no `{name}`"));
            if let Some(step) = step {
                assert!(member.get(step.label()).is_some(), "{name}.{step:?}");
            }
        }
        let text = doc
            .to_string_compact()
            .replace("\"wd_retries\"", "\"wd_retrys\"");
        let err = StatsSnapshot::from_json(&Json::parse(&text).unwrap()).unwrap_err();
        assert!(err.contains("wd_retries"), "{err}");
    }
}
