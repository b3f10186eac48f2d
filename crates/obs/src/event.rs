//! Trace event model.
//!
//! Events are recorded complete (begin + duration in one record, Chrome's
//! `"ph": "X"`) rather than as begin/end pairs: pairing is guaranteed by
//! the RAII span guard, and one record per span halves ring traffic.

/// A typed span/event argument value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArgValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(&'static str),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::I64(v)
    }
}

impl From<i32> for ArgValue {
    fn from(v: i32) -> Self {
        ArgValue::I64(v as i64)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}

impl From<&'static str> for ArgValue {
    fn from(v: &'static str) -> Self {
        ArgValue::Str(v)
    }
}

/// What kind of record this is (mapped to Chrome's `ph` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A completed span: `ts` is the start, `dur_ns` the length (`"X"`).
    Complete { dur_ns: u64 },
    /// A point-in-time marker (`"i"`).
    Instant,
}

/// One recorded event. Timestamps are nanoseconds since the collector's
/// epoch (one shared `Instant` per job, so ranks share a timeline).
#[derive(Debug, Clone)]
pub struct TraceEvent {
    pub name: &'static str,
    /// Category ("dist", "comm", "grappolo", …) — Chrome's `cat` field.
    pub cat: &'static str,
    pub kind: EventKind,
    pub ts_ns: u64,
    /// Thread that recorded the event (process-wide small integer).
    pub tid: u32,
    /// Which execution attempt of the rank recorded this event: 0 for
    /// the first, incremented on each crash/hang recovery so pre-crash
    /// events stay distinguishable from the resumed attempt's.
    pub attempt: u32,
    pub args: Vec<(&'static str, ArgValue)>,
}

impl TraceEvent {
    /// Wall-clock duration in nanoseconds (0 for instant events).
    pub fn dur_ns(&self) -> u64 {
        match self.kind {
            EventKind::Complete { dur_ns } => dur_ns,
            EventKind::Instant => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_value_conversions() {
        assert_eq!(ArgValue::from(3u64), ArgValue::U64(3));
        assert_eq!(ArgValue::from(3usize), ArgValue::U64(3));
        assert_eq!(ArgValue::from(-3i64), ArgValue::I64(-3));
        assert_eq!(ArgValue::from(0.5f64), ArgValue::F64(0.5));
        assert_eq!(ArgValue::from(true), ArgValue::Bool(true));
        assert_eq!(ArgValue::from("x"), ArgValue::Str("x"));
    }

    #[test]
    fn dur_is_zero_for_instants() {
        let e = TraceEvent {
            name: "x",
            cat: "t",
            kind: EventKind::Instant,
            ts_ns: 5,
            tid: 0,
            attempt: 0,
            args: vec![],
        };
        assert_eq!(e.dur_ns(), 0);
        let e = TraceEvent {
            kind: EventKind::Complete { dur_ns: 7 },
            ..e
        };
        assert_eq!(e.dur_ns(), 7);
    }
}
