//! Bench-side spans: recorded in memory around the calls the benchmark
//! makes into each layer, merged with the program's own spans of a
//! traced run, written out once at exit in Chrome trace format.

use std::time::Instant;

use louvain_obs::{EventKind, Json, TraceData};

/// Track of the benchmark's own (driver-thread) spans; rank `r` of a
/// traced run lands on track `r + 1`.
const DRIVER_TRACK: u32 = 0;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub track: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Which rep of the workload the span belongs to.
    pub rep: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. When off, `enter`/`exit` only read the clock, so the
/// same workload code serves the untraced end-to-end run.
pub struct Spans {
    on: bool,
    epoch: Instant,
    pub list: Vec<Span>,
    stack: Vec<usize>,
    pub rep: u32,
}

/// An open span: where it sits in the list (when recording) and when
/// it began.
#[derive(Clone, Copy)]
pub struct Open {
    id: Option<usize>,
    start: Instant,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            list: Vec::new(),
            stack: Vec::new(),
            rep: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let id = self.on.then(|| {
            let at = self.ns(start);
            self.list.push(Span {
                name,
                track: DRIVER_TRACK,
                start_ns: at,
                end_ns: at,
                parent: self.stack.last().copied(),
                rep: self.rep,
            });
            self.stack.push(self.list.len() - 1);
            self.list.len() - 1
        });
        Open { id, start }
    }

    /// Close `open`; returns its duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(id) = open.id {
            assert_eq!(self.stack.pop(), Some(id), "spans closed out of order");
            self.list[id].end_ns = self.ns(end);
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// Record a span that ran elsewhere (on a rank thread) under the
    /// span now open.
    pub fn child(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.on {
            self.list.push(Span {
                name,
                track: DRIVER_TRACK,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent: self.stack.last().copied(),
                rep: self.rep,
            });
        }
    }

    /// Run `f` inside a span; returns its duration in seconds and result.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (f64, T) {
        let open = self.enter(name);
        let out = f();
        (self.exit(open), out)
    }

    /// Hang the program's spans of one traced run under the bench span
    /// `run` that wrapped the call. The program stamps events relative
    /// to a collector it creates on entry, so its epoch is the start of
    /// `run`; events are clamped into `run` to absorb that skew. Only
    /// each rank's own thread is taken (worker-pool threads overlap it).
    pub fn adopt(&mut self, run: Open, trace: &TraceData) {
        let Some(run_id) = run.id else { return };
        let (lo, hi) = (self.list[run_id].start_ns, self.list[run_id].end_ns);
        for rank in &trace.ranks {
            let Some(main_tid) = rank.events.first().map(|e| e.tid) else {
                continue;
            };
            let track = rank.rank as u32 + 1;
            // Containment on one thread: events arrive sorted by start.
            let mut open: Vec<usize> = Vec::new();
            let mut events: Vec<_> = rank
                .events
                .iter()
                .filter(|e| e.tid == main_tid && matches!(e.kind, EventKind::Complete { .. }))
                .collect();
            events.sort_by_key(|e| (e.ts_ns, std::cmp::Reverse(e.dur_ns())));
            for e in events {
                let start_ns = (lo + e.ts_ns).min(hi);
                let end_ns = (start_ns + e.dur_ns()).min(hi);
                while open
                    .last()
                    .is_some_and(|&o| self.list[o].end_ns <= start_ns)
                {
                    open.pop();
                }
                let parent = open.last().copied().unwrap_or(run_id);
                self.list.push(Span {
                    name: e.name,
                    track,
                    start_ns,
                    end_ns: end_ns.min(self.list[parent].end_ns),
                    parent: Some(parent),
                    rep: self.rep,
                });
                open.push(self.list.len() - 1);
            }
        }
    }

    /// Chrome trace-event document of everything recorded.
    pub fn chrome_json(&self, workload: &str) -> String {
        let events = self
            .list
            .iter()
            .map(|s| {
                let num = |v: u64| Json::Num(v as f64);
                let parent = s
                    .parent
                    .map_or(Json::Null, |p| Json::str(self.list[p].name));
                Json::Obj(vec![
                    ("name".into(), Json::str(s.name)),
                    ("ph".into(), Json::str("X")),
                    ("ts".into(), Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur".into(), Json::Num(s.dur_ns() as f64 / 1e3)),
                    ("pid".into(), num(1)),
                    ("tid".into(), num(s.track as u64)),
                    (
                        "args".into(),
                        Json::Obj(vec![
                            ("workload".into(), Json::str(workload)),
                            ("rep".into(), num(s.rep as u64)),
                            ("parent".into(), parent),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("traceEvents".into(), Json::Arr(events)),
            ("displayTimeUnit".into(), Json::str("ms")),
        ])
        .to_string_compact()
    }
}

/// Self time of every span: its duration minus the part its child spans
/// cover. Children of one parent never overlap (they ran on one thread),
/// so that part is the sum of their durations. Only spans on the
/// critical chain count as children: the driver track and rank 0.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans.iter().filter(|s| on_chain(s)) {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// The chain whose self times add up to the wall of a rep: the driver
/// thread, and inside a run the first rank (ranks run in lockstep
/// between collectives, so any one of them spans the run).
pub fn on_chain(s: &Span) -> bool {
    s.track <= 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            track: 0,
            start_ns,
            end_ns,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("rep", 0, 100, None),
            span("load", 5, 25, Some(0)),
            span("run", 30, 90, Some(0)),
            span("sweep", 40, 70, Some(2)),
            span("score", 45, 55, Some(3)),
        ];
        assert_eq!(self_ns(&spans), vec![20, 20, 30, 20, 10]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn spans_off_the_chain_do_not_reduce_their_parent() {
        let mut spans = vec![span("run", 0, 50, None), span("sweep", 0, 40, Some(0))];
        spans.push(Span {
            track: 2,
            ..span("sweep", 0, 45, Some(0))
        });
        assert_eq!(self_ns(&spans), vec![10, 40, 45]);
    }

    #[test]
    fn recorder_nests_by_call_order() {
        let mut s = Spans::new(true);
        let rep = s.enter("rep");
        let (_, v) = s.timed("load", || 7);
        assert_eq!(v, 7);
        let run = s.enter("run");
        s.exit(run);
        s.exit(rep);
        let names: Vec<_> = s.list.iter().map(|x| (x.name, x.parent)).collect();
        assert_eq!(
            names,
            vec![("rep", None), ("load", Some(0)), ("run", Some(0))]
        );
        assert!(s.list.iter().all(|x| x.end_ns >= x.start_ns));
    }

    #[test]
    fn recorder_off_records_nothing_but_still_times() {
        let mut s = Spans::new(false);
        let (secs, ()) = s.timed("x", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(secs >= 0.002);
        assert!(s.list.is_empty());
    }
}
