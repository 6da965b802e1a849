//! Hierarchical span tracing into fixed-capacity per-thread rings.
//!
//! Every thread that records a span owns a ring of begin/end events,
//! kept with its label behind the thread's own `Mutex`: only the owner
//! pushes, so the lock is uncontended except while
//! [`snapshot_all`] copies the rings out, once, at the end of a run.
//! Recording never allocates after the thread's first span: the ring
//! reserves its capacity up front. When the ring wraps, the *oldest*
//! events are overwritten — a long run keeps the most recent window,
//! and the drop count stays exact.
//!
//! Spans nest naturally through RAII: [`enter`] records a `Begin` event
//! and returns a [`SpanGuard`] whose `Drop` records the matching `End`.
//! Because guards are dropped in LIFO order, each thread's event stream
//! is a well-formed bracket sequence (modulo a possibly-truncated
//! prefix lost to overflow), which [`pair_spans`] and the Chrome
//! trace-event exporter ([`chrome_trace_json`]) exploit to reconstruct
//! the hierarchy: search → round → SPR round → branch-opt on the
//! searching thread. A kernel call opens no span:
//! `KernelStats::record_op_timed` is its one record, and a span per
//! call would evict the structure above it from the ring; a fork-join
//! region opens none either, on the master, whose `RegionStats` already
//! time both of its barrier waits, or on a worker, whose `op` events
//! hold its kernel time.
//!
//! ## Zero cost when off
//!
//! The whole recording path is gated behind the `span-trace` cargo
//! feature (on by default). With the feature disabled, [`enter`]
//! returns an inert guard and the compiler removes the call entirely —
//! no thread-local access, no lock, no clock read.
//!
//! Timestamps are [`crate::clock::now_ns`] readings, so events from
//! different threads share one timeline.

/// Per-thread ring capacity (events). At 32 bytes per event this is
/// 1 MiB per recording thread; the window comfortably holds the most
/// recent SPR round of a large search.
#[cfg(any(feature = "span-trace", test))]
const RING_CAPACITY: usize = 1 << 15;

/// Whether an event opens or closes a span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanPhase {
    /// The span was entered.
    Begin,
    /// The span was exited.
    End,
}

/// One recorded begin/end event.
///
/// `name` is `&'static str` by design: recording copies a pointer and
/// a length, so the hot path never allocates or copies the name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Static span name (e.g. `"spr_round"`, `"branch_opt"`).
    pub name: &'static str,
    /// Begin or end.
    pub phase: SpanPhase,
    /// Nanoseconds since the process epoch.
    pub t_ns: u64,
}

/// Fixed-capacity ring of [`SpanEvent`]s. Once full, each push
/// overwrites the oldest event; `recorded` counts every push ever
/// made, so `recorded - capacity` (when positive) were dropped.
#[cfg(any(feature = "span-trace", test))]
struct SpanRing {
    events: Vec<SpanEvent>,
    capacity: usize,
    /// Where the next push lands once the ring is full: the oldest
    /// event. Stays 0 until then.
    next: usize,
    recorded: u64,
}

#[cfg(any(feature = "span-trace", test))]
impl SpanRing {
    /// A ring holding at most `capacity` (≥ 1) events, all reserved
    /// now so that no push allocates.
    fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        SpanRing {
            events: Vec::with_capacity(capacity),
            capacity,
            next: 0,
            recorded: 0,
        }
    }

    /// Events overwritten by ring wrap-around so far.
    fn dropped(&self) -> u64 {
        self.recorded.saturating_sub(self.capacity as u64)
    }

    /// Appends an event, overwriting the oldest once the ring is full.
    fn push(&mut self, ev: SpanEvent) {
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.events[self.next] = ev;
            self.next = (self.next + 1) % self.capacity;
        }
        self.recorded += 1;
    }

    /// The surviving events, oldest first.
    fn snapshot(&self) -> Vec<SpanEvent> {
        let (newer, older) = self.events.split_at(self.next);
        older.iter().chain(newer).copied().collect()
    }
}

/// A read-only copy of one thread's span timeline.
#[derive(Clone, Debug)]
pub struct TrackSnapshot {
    /// Thread label (e.g. `"master"`, `"serial"`).
    pub label: String,
    /// Surviving events in record order.
    pub events: Vec<SpanEvent>,
    /// Total events the thread ever recorded.
    pub recorded: u64,
    /// Events lost to ring overflow.
    pub dropped: u64,
}

/// A closed (or auto-closed) span reconstructed by [`pair_spans`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompletedSpan {
    /// Span name.
    pub name: &'static str,
    /// Begin timestamp, ns since epoch.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Nesting depth (0 = outermost surviving span).
    pub depth: usize,
}

#[cfg(feature = "span-trace")]
mod recorder {
    use super::*;
    use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

    /// One thread's ring plus its human-readable label.
    pub(super) struct Track {
        label: String,
        ring: SpanRing,
    }

    /// Every track ever registered, in registration order.
    fn tracks() -> &'static Mutex<Vec<Arc<Mutex<Track>>>> {
        static TRACKS: OnceLock<Mutex<Vec<Arc<Mutex<Track>>>>> = OnceLock::new();
        TRACKS.get_or_init(|| Mutex::new(Vec::new()))
    }

    /// A panic elsewhere cannot leave a track or the track list torn
    /// (neither lock is held across anything that panics), so a
    /// poisoned lock is taken as is: tracing never adds a panic.
    fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().unwrap_or_else(PoisonError::into_inner)
    }

    thread_local! {
        static CURRENT: Arc<Mutex<Track>> = register_current();
    }

    fn register_current() -> Arc<Mutex<Track>> {
        let mut all = lock(tracks());
        let label = std::thread::current()
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("thread{}", all.len()));
        let track = Arc::new(Mutex::new(Track {
            label,
            ring: SpanRing::with_capacity(RING_CAPACITY),
        }));
        all.push(Arc::clone(&track));
        track
    }

    pub(super) fn set_thread_label(label: &str) {
        CURRENT.with(|t| lock(t).label = label.to_string());
    }

    pub(super) fn record(name: &'static str, phase: SpanPhase) {
        let t_ns = crate::clock::now_ns();
        CURRENT.with(|t| lock(t).ring.push(SpanEvent { name, phase, t_ns }));
    }

    pub(super) fn snapshot_all() -> Vec<TrackSnapshot> {
        lock(tracks())
            .iter()
            .map(|t| {
                let t = lock(t);
                TrackSnapshot {
                    label: t.label.clone(),
                    events: t.ring.snapshot(),
                    recorded: t.ring.recorded,
                    dropped: t.ring.dropped(),
                }
            })
            .collect()
    }
}

/// RAII guard returned by [`enter`]; records the span's `End` event on
/// drop. With the `span-trace` feature off the guard is inert and
/// compiles away.
#[must_use = "a span guard measures until it is dropped"]
pub struct SpanGuard {
    #[cfg(feature = "span-trace")]
    name: &'static str,
}

#[cfg(feature = "span-trace")]
impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        recorder::record(self.name, SpanPhase::End);
    }
}

/// Opens a hierarchical span; the returned guard closes it on drop.
///
/// Hot-path cost with the feature compiled in: one thread-local
/// access, one clock read, and a push into the calling thread's own
/// ring under its uncontended lock. No allocation after the thread's
/// first span.
#[inline]
pub fn enter(name: &'static str) -> SpanGuard {
    #[cfg(feature = "span-trace")]
    {
        recorder::record(name, SpanPhase::Begin);
        SpanGuard { name }
    }
    #[cfg(not(feature = "span-trace"))]
    {
        let _ = name;
        SpanGuard {}
    }
}

/// Labels the calling thread's track (e.g. `"master"`, `"serial"`).
/// The label appears in exported traces and `trace-report` timelines.
/// A thread without a track registers one here, ring and all, so a
/// thread that records no span has nothing to label.
pub fn set_thread_label(label: &str) {
    #[cfg(feature = "span-trace")]
    recorder::set_thread_label(label);
    #[cfg(not(feature = "span-trace"))]
    let _ = label;
}

/// Snapshots every registered thread's ring. Returns one
/// [`TrackSnapshot`] per thread that has recorded (or merely touched)
/// a span since process start; empty when the feature is off.
pub fn snapshot_all() -> Vec<TrackSnapshot> {
    #[cfg(feature = "span-trace")]
    {
        recorder::snapshot_all()
    }
    #[cfg(not(feature = "span-trace"))]
    {
        Vec::new()
    }
}

/// Reconstructs closed spans from one thread's event stream.
///
/// `End` events whose `Begin` was lost to ring overflow are skipped;
/// spans still open at the end of the stream are closed at the last
/// observed timestamp. Output is sorted by start time, outermost
/// first.
pub fn pair_spans(events: &[SpanEvent]) -> Vec<CompletedSpan> {
    let mut stack: Vec<(&'static str, u64)> = Vec::new();
    let mut out = Vec::new();
    let mut last_t = events.first().map_or(0, |e| e.t_ns);
    for ev in events {
        last_t = last_t.max(ev.t_ns);
        match ev.phase {
            SpanPhase::Begin => stack.push((ev.name, ev.t_ns)),
            SpanPhase::End => {
                // Guards drop LIFO, so a well-formed stream always ends
                // the top of the stack; a mismatch means the Begin was
                // overwritten by overflow — drop the orphan End.
                if stack.last().map(|(n, _)| *n) == Some(ev.name) {
                    let (name, start) = stack.pop().unwrap();
                    out.push(CompletedSpan {
                        name,
                        start_ns: start,
                        dur_ns: ev.t_ns.saturating_sub(start),
                        depth: stack.len(),
                    });
                }
            }
        }
    }
    // Auto-close spans still open when the snapshot was taken.
    while let Some((name, start)) = stack.pop() {
        out.push(CompletedSpan {
            name,
            start_ns: start,
            dur_ns: last_t.saturating_sub(start),
            depth: stack.len(),
        });
    }
    out.sort_by_key(|s| (s.start_ns, s.depth));
    out
}

/// Serializes track snapshots as Chrome trace-event JSON (the
/// `{"traceEvents":[...]}` document Perfetto and `chrome://tracing`
/// open directly). Each thread becomes one track: a `thread_name`
/// metadata record plus one complete (`"ph":"X"`) event per span
/// [`pair_spans`] reconstructs, timestamps and durations in
/// microseconds — so the export is balanced by construction.
pub fn chrome_trace_json(tracks: &[TrackSnapshot]) -> String {
    let mut parts: Vec<String> = Vec::new();
    for (tid, track) in tracks.iter().enumerate() {
        parts.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            crate::trace::escape(&track.label)
        ));
        for s in pair_spans(&track.events) {
            parts.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"plf\",\"ph\":\"X\",\"pid\":1,\
                 \"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3}}}",
                crate::trace::escape(s.name),
                s.start_ns as f64 / 1000.0,
                s.dur_ns as f64 / 1000.0
            ));
        }
    }
    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}",
        parts.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, phase: SpanPhase, t_ns: u64) -> SpanEvent {
        SpanEvent { name, phase, t_ns }
    }

    #[test]
    fn ring_keeps_events_in_order() {
        let mut ring = SpanRing::with_capacity(8);
        ring.push(ev("a", SpanPhase::Begin, 1));
        ring.push(ev("b", SpanPhase::Begin, 2));
        ring.push(ev("b", SpanPhase::End, 3));
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0], ev("a", SpanPhase::Begin, 1));
        assert_eq!(snap[2], ev("b", SpanPhase::End, 3));
        assert_eq!(ring.recorded, 3);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts_stay_consistent() {
        let mut ring = SpanRing::with_capacity(4);
        for i in 0..10u64 {
            ring.push(ev("x", SpanPhase::Begin, i));
        }
        let snap = ring.snapshot();
        // Only the newest `capacity` events survive, in order.
        assert_eq!(
            snap.iter().map(|e| e.t_ns).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert_eq!(ring.recorded, 10);
        assert_eq!(ring.dropped(), 6);
        assert_eq!(
            ring.recorded,
            ring.dropped() + snap.len() as u64,
            "recorded = dropped + surviving"
        );
    }

    #[test]
    fn snapshot_while_writing_from_another_thread_is_consistent() {
        if !cfg!(feature = "span-trace") {
            return; // nothing to observe
        }
        const SPANS: u64 = 50_000;
        const LABEL: &str = "span-writer-test";
        let writer = std::thread::Builder::new()
            .name(LABEL.into())
            .spawn(|| {
                for _ in 0..SPANS {
                    let _w = enter("unit_w");
                }
            })
            .unwrap();
        let writer_track = || snapshot_all().into_iter().find(|t| t.label == LABEL);
        // Whatever the writer is doing, a snapshot is a bracket
        // sequence: its events alternate Begin / End.
        for _ in 0..200 {
            if let Some(t) = writer_track() {
                assert!(t.events.iter().all(|e| e.name == "unit_w"));
                assert!(
                    t.events.windows(2).all(|w| w[0].phase != w[1].phase),
                    "torn stream"
                );
                assert_eq!(t.recorded, t.dropped + t.events.len() as u64);
            }
        }
        writer.join().unwrap();
        let t = writer_track().expect("writer track registered");
        assert_eq!(t.recorded, 2 * SPANS);
        assert_eq!(t.events.len(), RING_CAPACITY);
        assert_eq!(t.dropped, 2 * SPANS - RING_CAPACITY as u64);
        assert_eq!(t.events.last().map(|e| e.phase), Some(SpanPhase::End));
    }

    #[test]
    fn pair_spans_reconstructs_nesting() {
        let events = [
            ev("outer", SpanPhase::Begin, 10),
            ev("inner", SpanPhase::Begin, 20),
            ev("inner", SpanPhase::End, 30),
            ev("outer", SpanPhase::End, 50),
        ];
        let spans = pair_spans(&events);
        assert_eq!(
            spans,
            vec![
                CompletedSpan {
                    name: "outer",
                    start_ns: 10,
                    dur_ns: 40,
                    depth: 0
                },
                CompletedSpan {
                    name: "inner",
                    start_ns: 20,
                    dur_ns: 10,
                    depth: 1
                },
            ]
        );
    }

    #[test]
    fn pair_spans_skips_orphan_ends_and_closes_open_spans() {
        // An overflow-truncated stream: the Begin of "lost" is gone,
        // and "open" never ended before the snapshot.
        let events = [
            ev("lost", SpanPhase::End, 5),
            ev("open", SpanPhase::Begin, 10),
            ev("kid", SpanPhase::Begin, 12),
            ev("kid", SpanPhase::End, 14),
        ];
        let spans = pair_spans(&events);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "open");
        assert_eq!(spans[0].dur_ns, 4); // auto-closed at t=14
        assert_eq!(spans[1].name, "kid");
    }

    #[test]
    fn guard_records_begin_end_through_thread_local() {
        if !cfg!(feature = "span-trace") {
            return; // nothing to observe
        }
        set_thread_label("span-unit-test");
        {
            let _outer = enter("unit_outer");
            let _inner = enter("unit_inner");
        }
        let tracks = snapshot_all();
        let mine = tracks
            .iter()
            .find(|t| t.label == "span-unit-test")
            .expect("own track registered");
        let names: Vec<_> = mine
            .events
            .iter()
            .filter(|e| e.name.starts_with("unit_"))
            .map(|e| (e.name, e.phase))
            .collect();
        assert_eq!(
            names,
            vec![
                ("unit_outer", SpanPhase::Begin),
                ("unit_inner", SpanPhase::Begin),
                ("unit_inner", SpanPhase::End),
                ("unit_outer", SpanPhase::End),
            ]
        );
    }

    #[test]
    fn chrome_export_is_balanced_and_labels_tracks() {
        let track = TrackSnapshot {
            label: "worker0".into(),
            events: vec![
                ev("lost", SpanPhase::End, 1),
                ev("a", SpanPhase::Begin, 2000),
                ev("b", SpanPhase::Begin, 3000),
                ev("b", SpanPhase::End, 4500),
                // "a" left open → auto-closed
            ],
            recorded: 5,
            dropped: 1,
        };
        let json = chrome_trace_json(&[track]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"worker0\""));
        // One complete event per paired span, the orphan End dropped.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(!json.contains("\"lost\""));
        let span = |name: &str, ts: &str, dur: &str| {
            format!(
                "{{\"name\":\"{name}\",\"cat\":\"plf\",\"ph\":\"X\",\"pid\":1,\
                 \"tid\":0,\"ts\":{ts},\"dur\":{dur}}}"
            )
        };
        assert!(json.contains(&span("a", "2.000", "2.500")), "{json}");
        assert!(json.contains(&span("b", "3.000", "1.500")), "{json}");
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        const NAMES: [&str; 3] = ["alpha", "beta", "gamma"];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            // ANY sequence of open/close events — including orphan
            // closes, unclosed opens, and streams truncated by ring
            // overflow — pairs into properly nested spans, one Chrome
            // complete event each.
            #[test]
            fn chrome_export_balances_arbitrary_streams(
                ops in proptest::collection::vec((0u8..2, 0usize..3), 0..120),
                cap in 2usize..33,
            ) {
                let mut ring = SpanRing::with_capacity(cap);
                for (t, (kind, name_idx)) in ops.iter().enumerate() {
                    ring.push(SpanEvent {
                        name: NAMES[*name_idx],
                        phase: if *kind == 0 {
                            SpanPhase::Begin
                        } else {
                            SpanPhase::End
                        },
                        t_ns: t as u64,
                    });
                }
                // Overflow bookkeeping stays consistent.
                prop_assert_eq!(ring.recorded, ops.len() as u64);
                let events = ring.snapshot();
                prop_assert_eq!(
                    ring.dropped(),
                    (ops.len() as u64).saturating_sub(cap as u64)
                );
                prop_assert_eq!(events.len() as u64, ring.recorded - ring.dropped());
                // Oldest events were the ones dropped: the survivors
                // are exactly the stream's suffix.
                for (i, e) in events.iter().enumerate() {
                    prop_assert_eq!(e.t_ns, ring.dropped() + i as u64);
                }

                // pair_spans never invents spans, and each span lies
                // inside the enclosing one it was opened under.
                let spans = pair_spans(&events);
                let begins = events
                    .iter()
                    .filter(|e| e.phase == SpanPhase::Begin)
                    .count();
                prop_assert!(spans.len() <= begins);
                let mut open: Vec<(u64, u64)> = Vec::new();
                for s in &spans {
                    open.truncate(s.depth);
                    prop_assert_eq!(open.len(), s.depth, "span without a parent");
                    if let Some(&(start, end)) = open.last() {
                        prop_assert!(start <= s.start_ns && s.start_ns + s.dur_ns <= end);
                    }
                    open.push((s.start_ns, s.start_ns + s.dur_ns));
                }

                let track = TrackSnapshot {
                    label: "prop".into(),
                    events,
                    recorded: ring.recorded,
                    dropped: ring.dropped(),
                };
                let json = chrome_trace_json(std::slice::from_ref(&track));
                prop_assert_eq!(json.matches("\"ph\":\"X\"").count(), spans.len());
            }
        }
    }
}
