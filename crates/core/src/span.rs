//! Hierarchical span tracing into lock-free per-worker ring buffers.
//!
//! Every thread that records a span owns a fixed-capacity [`SpanRing`]:
//! a single-producer ring of begin/end events protected by per-slot
//! sequence counters (a seqlock). The owning thread pushes with a
//! handful of release-ordered stores and **zero allocation**; any other
//! thread may take a consistent [`snapshot`](SpanRing::snapshot) at any
//! time without stopping the writer. When the ring wraps, the *oldest*
//! events are overwritten — a long run keeps the most recent window,
//! and the drop count stays exact.
//!
//! Spans nest naturally through RAII: [`enter`] records a `Begin` event
//! and returns a [`SpanGuard`] whose `Drop` records the matching `End`.
//! Because guards are dropped in LIFO order, each thread's event stream
//! is a well-formed bracket sequence (modulo a possibly-truncated
//! prefix lost to overflow), which [`pair_spans`] and the Chrome
//! trace-event exporter ([`chrome_trace_json`]) exploit to reconstruct
//! the hierarchy: search → round → SPR round → branch-opt, and under
//! fork-join each region's waits and jobs. A kernel call opens no span:
//! `KernelStats::record_op_timed` is its one record, and a span per
//! call would evict the structure above it from the ring.
//!
//! ## Zero cost when off
//!
//! The whole recording path is gated behind the `span-trace` cargo
//! feature (on by default). With the feature disabled, [`enter`]
//! returns an inert guard and the compiler removes the call entirely —
//! no thread-local access, no atomics, no clock read.
//!
//! Timestamps are nanoseconds since a process-wide epoch
//! ([`epoch_ns`]), so events from different threads share one timeline.

use crate::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Default per-thread ring capacity (events). At ~40 bytes per slot
/// this is ≈1.3 MiB per recording thread; the window comfortably holds
/// the most recent SPR round of a large search.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 15;

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
/// `name` is `&'static str` by design: recording stores only the
/// pointer and length, so the hot path never allocates or copies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Static span name (e.g. `"spr_round"`, `"fork.wait"`).
    pub name: &'static str,
    /// Begin or end.
    pub phase: SpanPhase,
    /// Nanoseconds since the process epoch.
    pub t_ns: u64,
}

/// A slot stores the event as four plain atomic words guarded by a
/// sequence counter, so readers never observe a torn event: `seq` is
/// odd while the writer is mid-update and encodes the event index when
/// even, letting a reader detect both in-progress writes and laps.
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; 4], // name ptr, name len, t_ns, phase
}

/// Fixed-capacity single-producer ring buffer of [`SpanEvent`]s.
///
/// The *owning thread* is the only writer ([`push`](Self::push));
/// any thread may read ([`snapshot`](Self::snapshot)). Overflow
/// silently overwrites the oldest events; [`recorded`](Self::recorded)
/// counts every push ever made so `recorded - len(snapshot)` is the
/// number dropped.
pub struct SpanRing {
    slots: Box<[Slot]>,
    mask: u64,
    head: AtomicU64,
}

// SAFETY: all shared state is atomics; the single-writer discipline is
// upheld by construction (each ring is written only via its owning
// thread's thread-local handle) and torn reads are rejected via `seq`.
unsafe impl Sync for SpanRing {}

impl SpanRing {
    /// Creates a ring holding `capacity` events (rounded up to a power
    /// of two, minimum 2).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        let slots: Vec<Slot> = (0..cap)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                words: [
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                ],
            })
            .collect();
        SpanRing {
            slots: slots.into_boxed_slice(),
            mask: (cap - 1) as u64,
            head: AtomicU64::new(0),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever pushed (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Events overwritten by ring wrap-around so far.
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.slots.len() as u64)
    }

    /// Appends an event. Must only be called from the owning thread;
    /// lock-free and allocation-free.
    pub fn push(&self, ev: SpanEvent) {
        let i = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(i & self.mask) as usize];
        // Mark the slot as mid-write (odd), publish the words, then
        // stamp it with the even sequence that names event `i`.
        //
        // The word stores are Release (and the snapshot loads Acquire)
        // rather than Relaxed: with relaxed words, a reader lapped
        // mid-read can pair a later-lap word with an earlier-lap seq
        // validation — under C11 nothing orders a relaxed word store
        // against the *preceding* odd seq store, so the reader's
        // re-check can still see the stale even value and accept a
        // torn event. The interleave model test pins this down
        // (tests/interleave_span.rs: the relaxed variant is caught,
        // this one explores clean). On x86 both compile to plain MOVs.
        slot.seq.store(2 * i + 1, Ordering::Release);
        slot.words[0].store(ev.name.as_ptr() as u64, Ordering::Release);
        slot.words[1].store(ev.name.len() as u64, Ordering::Release);
        slot.words[2].store(ev.t_ns, Ordering::Release);
        slot.words[3].store(matches!(ev.phase, SpanPhase::End) as u64, Ordering::Release);
        slot.seq.store(2 * i + 2, Ordering::Release);
        self.head.store(i + 1, Ordering::Release);
    }

    /// Takes a consistent snapshot of the surviving events in record
    /// order, without blocking the writer. Events the writer is
    /// concurrently overwriting are skipped (they are being dropped
    /// anyway).
    pub fn snapshot(&self) -> Vec<SpanEvent> {
        let head = self.head.load(Ordering::Acquire);
        let start = head.saturating_sub(self.slots.len() as u64);
        let mut out = Vec::with_capacity((head - start) as usize);
        for i in start..head {
            let slot = &self.slots[(i & self.mask) as usize];
            if slot.seq.load(Ordering::Acquire) != 2 * i + 2 {
                continue; // mid-write or already lapped
            }
            // Acquire pairs with the Release word stores in `push`:
            // reading any fresh word drags the writer's seq advance
            // into view, so the re-check below rejects the tear.
            let w0 = slot.words[0].load(Ordering::Acquire);
            let w1 = slot.words[1].load(Ordering::Acquire);
            let w2 = slot.words[2].load(Ordering::Acquire);
            let w3 = slot.words[3].load(Ordering::Acquire);
            if slot.seq.load(Ordering::Acquire) != 2 * i + 2 {
                continue; // lapped while reading
            }
            // SAFETY: the seq check proved these words were published
            // as a unit by `push`, and every name pushed comes from a
            // live `&'static str`.
            let name: &'static str = unsafe {
                std::str::from_utf8_unchecked(std::slice::from_raw_parts(
                    w0 as *const u8,
                    w1 as usize,
                ))
            };
            out.push(SpanEvent {
                name,
                phase: if w3 == 0 {
                    SpanPhase::Begin
                } else {
                    SpanPhase::End
                },
                t_ns: w2,
            });
        }
        out
    }

    /// Runs the seqlock reader protocol on the slot for event index
    /// `i` and returns the raw words if validation succeeds.
    ///
    /// Model-test access point: the interleave tests assert
    /// cross-word consistency on the raw values, because a *torn*
    /// reconstruction through [`Self::snapshot`] would build an
    /// invalid `&str` from mismatched pointer/length words — the
    /// exact UB the seqlock exists to prevent.
    #[cfg(feature = "interleave")]
    pub fn probe_slot(&self, i: u64) -> Option<[u64; 4]> {
        let slot = &self.slots[(i & self.mask) as usize];
        if slot.seq.load(Ordering::Acquire) != 2 * i + 2 {
            return None;
        }
        let words = [
            slot.words[0].load(Ordering::Acquire),
            slot.words[1].load(Ordering::Acquire),
            slot.words[2].load(Ordering::Acquire),
            slot.words[3].load(Ordering::Acquire),
        ];
        if slot.seq.load(Ordering::Acquire) != 2 * i + 2 {
            return None;
        }
        Some(words)
    }
}

/// A read-only copy of one thread's span timeline.
#[derive(Clone, Debug)]
pub struct TrackSnapshot {
    /// Thread label (e.g. `"master"`, `"worker0"`).
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

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds elapsed since the process-wide trace epoch. The first
/// caller anchors the epoch; all threads share it.
pub fn epoch_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

#[cfg(feature = "span-trace")]
mod recorder {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// One thread's registered ring plus its human-readable label.
    pub(super) struct Track {
        label: Mutex<String>,
        ring: SpanRing,
    }

    fn registry() -> &'static Mutex<Vec<Arc<Track>>> {
        static REGISTRY: OnceLock<Mutex<Vec<Arc<Track>>>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
    }

    thread_local! {
        static CURRENT: Arc<Track> = register_current();
    }

    fn register_current() -> Arc<Track> {
        let mut reg = registry().lock().unwrap();
        let label = std::thread::current()
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("thread{}", reg.len()));
        let track = Arc::new(Track {
            label: Mutex::new(label),
            ring: SpanRing::with_capacity(DEFAULT_RING_CAPACITY),
        });
        reg.push(Arc::clone(&track));
        track
    }

    pub(super) fn set_thread_label(label: &str) {
        CURRENT.with(|t| *t.label.lock().unwrap() = label.to_string());
    }

    pub(super) fn record(name: &'static str, phase: SpanPhase) {
        let t_ns = super::epoch_ns();
        CURRENT.with(|t| t.ring.push(SpanEvent { name, phase, t_ns }));
    }

    pub(super) fn snapshot_all() -> Vec<TrackSnapshot> {
        let reg = registry().lock().unwrap();
        reg.iter()
            .map(|t| TrackSnapshot {
                label: t.label.lock().unwrap().clone(),
                events: t.ring.snapshot(),
                recorded: t.ring.recorded(),
                dropped: t.ring.dropped(),
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
/// access, one clock read, and six release-ordered atomic stores into
/// the calling thread's own ring. No locks, no allocation.
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

/// Labels the calling thread's track (e.g. `"master"`, `"worker3"`).
/// The label appears in exported traces and `trace-report` timelines.
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

/// One event of the Chrome trace-event JSON export.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChromeEvent {
    /// Span name.
    pub name: &'static str,
    /// `'B'` (begin) or `'E'` (end).
    pub ph: char,
    /// Timestamp, ns since epoch (serialized as µs).
    pub ts_ns: u64,
    /// Track index (one per recording thread).
    pub tid: usize,
}

/// Flattens track snapshots into balanced Chrome begin/end events.
///
/// Per track, orphan `End`s (Begin lost to overflow) are dropped and
/// spans still open at the end are auto-closed, so every `'B'` has a
/// matching `'E'` on the same `tid` — a guarantee the proptests pin
/// down.
pub fn chrome_events(tracks: &[TrackSnapshot]) -> Vec<ChromeEvent> {
    let mut out = Vec::new();
    for (tid, track) in tracks.iter().enumerate() {
        let mut stack: Vec<&'static str> = Vec::new();
        let mut last_t = track.events.first().map_or(0, |e| e.t_ns);
        for ev in &track.events {
            last_t = last_t.max(ev.t_ns);
            match ev.phase {
                SpanPhase::Begin => {
                    stack.push(ev.name);
                    out.push(ChromeEvent {
                        name: ev.name,
                        ph: 'B',
                        ts_ns: ev.t_ns,
                        tid,
                    });
                }
                SpanPhase::End => {
                    if stack.last() == Some(&ev.name) {
                        stack.pop();
                        out.push(ChromeEvent {
                            name: ev.name,
                            ph: 'E',
                            ts_ns: ev.t_ns,
                            tid,
                        });
                    }
                }
            }
        }
        while let Some(name) = stack.pop() {
            out.push(ChromeEvent {
                name,
                ph: 'E',
                ts_ns: last_t,
                tid,
            });
        }
    }
    out
}

/// Serializes track snapshots as Chrome trace-event JSON (the
/// `{"traceEvents":[...]}` document Perfetto and `chrome://tracing`
/// open directly). Each thread becomes one track: a `thread_name`
/// metadata record plus its balanced begin/end events, timestamps in
/// microseconds.
pub fn chrome_trace_json(tracks: &[TrackSnapshot]) -> String {
    let mut parts: Vec<String> = Vec::new();
    for (tid, track) in tracks.iter().enumerate() {
        parts.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            crate::trace::escape(&track.label)
        ));
    }
    for ev in chrome_events(tracks) {
        parts.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"plf\",\"ph\":\"{}\",\"pid\":1,\
             \"tid\":{},\"ts\":{:.3}}}",
            crate::trace::escape(ev.name),
            ev.ph,
            ev.tid,
            ev.ts_ns as f64 / 1000.0
        ));
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
        let ring = SpanRing::with_capacity(8);
        ring.push(ev("a", SpanPhase::Begin, 1));
        ring.push(ev("b", SpanPhase::Begin, 2));
        ring.push(ev("b", SpanPhase::End, 3));
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0], ev("a", SpanPhase::Begin, 1));
        assert_eq!(snap[2], ev("b", SpanPhase::End, 3));
        assert_eq!(ring.recorded(), 3);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts_stay_consistent() {
        let ring = SpanRing::with_capacity(4);
        assert_eq!(ring.capacity(), 4);
        for i in 0..10u64 {
            ring.push(ev("x", SpanPhase::Begin, i));
        }
        let snap = ring.snapshot();
        // Only the newest `capacity` events survive, in order.
        assert_eq!(
            snap.iter().map(|e| e.t_ns).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert_eq!(ring.recorded(), 10);
        assert_eq!(ring.dropped(), 6);
        assert_eq!(
            ring.recorded(),
            ring.dropped() + snap.len() as u64,
            "recorded = dropped + surviving"
        );
    }

    #[test]
    fn snapshot_while_writing_from_another_thread_is_consistent() {
        let ring = std::sync::Arc::new(SpanRing::with_capacity(64));
        let writer = {
            let ring = std::sync::Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..50_000u64 {
                    let phase = if i % 2 == 0 {
                        SpanPhase::Begin
                    } else {
                        SpanPhase::End
                    };
                    ring.push(ev("w", phase, i));
                }
            })
        };
        for _ in 0..200 {
            for e in ring.snapshot() {
                assert_eq!(e.name, "w");
                assert_eq!(
                    matches!(e.phase, SpanPhase::End),
                    e.t_ns % 2 == 1,
                    "torn event: {e:?}"
                );
            }
        }
        writer.join().unwrap();
        assert_eq!(ring.recorded(), 50_000);
        let final_snap = ring.snapshot();
        assert_eq!(final_snap.len(), 64);
        assert_eq!(final_snap.last().unwrap().t_ns, 49_999);
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
                ev("a", SpanPhase::Begin, 2),
                ev("b", SpanPhase::Begin, 3),
                ev("b", SpanPhase::End, 4),
                // "a" left open → auto-closed
            ],
            recorded: 5,
            dropped: 1,
        };
        let evs = chrome_events(std::slice::from_ref(&track));
        let b = evs.iter().filter(|e| e.ph == 'B').count();
        let e = evs.iter().filter(|e| e.ph == 'E').count();
        assert_eq!(b, e, "begin/end balanced");
        let json = chrome_trace_json(&[track]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"worker0\""));
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        const NAMES: [&str; 3] = ["alpha", "beta", "gamma"];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            // Satellite guarantee: ANY sequence of open/close events —
            // including orphan closes, unclosed opens, and streams
            // truncated by ring overflow — exports to Chrome events
            // that are strictly stack-balanced per track.
            #[test]
            fn chrome_export_balances_arbitrary_streams(
                ops in proptest::collection::vec((0u8..2, 0usize..3), 0..120),
                cap in 2usize..33,
            ) {
                let ring = SpanRing::with_capacity(cap);
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
                prop_assert_eq!(ring.recorded(), ops.len() as u64);
                let events = ring.snapshot();
                prop_assert_eq!(
                    ring.dropped(),
                    (ops.len() as u64).saturating_sub(ring.capacity() as u64)
                );
                prop_assert_eq!(
                    events.len() as u64,
                    ring.recorded() - ring.dropped()
                );
                // Oldest events were the ones dropped: the survivors
                // are exactly the stream's suffix.
                for (i, e) in events.iter().enumerate() {
                    prop_assert_eq!(e.t_ns, ring.dropped() + i as u64);
                }

                let track = TrackSnapshot {
                    label: "prop".into(),
                    events: events.clone(),
                    recorded: ring.recorded(),
                    dropped: ring.dropped(),
                };
                let chrome = chrome_events(std::slice::from_ref(&track));
                let mut stack: Vec<&str> = Vec::new();
                let mut last_ts = 0u64;
                for ev in &chrome {
                    prop_assert!(ev.ts_ns >= last_ts, "timestamps regress");
                    last_ts = ev.ts_ns;
                    match ev.ph {
                        'B' => stack.push(ev.name),
                        'E' => prop_assert_eq!(stack.pop(), Some(ev.name)),
                        other => prop_assert!(false, "bad phase {}", other),
                    }
                }
                prop_assert!(stack.is_empty(), "unbalanced export");

                // pair_spans agrees: it never invents spans.
                let spans = pair_spans(&events);
                let begins = events
                    .iter()
                    .filter(|e| e.phase == SpanPhase::Begin)
                    .count();
                prop_assert!(spans.len() <= begins);
            }
        }
    }
}
