//! # ccs-trace
//!
//! Zero-overhead structured tracing for the cyclo-compaction pipeline.
//!
//! The scheduler layers in `ccs-core` are instrumented against the
//! [`Probe`] trait.  Two implementations exist:
//!
//! * [`Off`] — `ACTIVE = false`; every `if P::ACTIVE { probe.emit(..) }`
//!   site is dead code after monomorphization, so the uninstrumented
//!   schedule path compiles to exactly the code it was before tracing
//!   existed (same discipline as the `ccs-core` invariant oracle:
//!   free when off, observable when on);
//! * [`Tls`] — `ACTIVE = true`; events are forwarded to the sink
//!   installed in the current thread via [`install`] / [`with_sink`] /
//!   [`record`].
//!
//! Public entry points in `ccs-core` dispatch once per call on
//! [`installed`], so the disabled hot path pays a single thread-local
//! read per pass — nothing per node, per PE, or per edge.
//!
//! Consumers of the event stream:
//!
//! * [`chrome`] — Chrome-trace/Perfetto JSON exporter
//!   (`cyclosched schedule --trace out.json`);
//! * [`explain`] — human-readable decision narrative
//!   (`cyclosched schedule --explain`);
//! * [`metrics`] — counters + histograms registry serialized into the
//!   `bench_hotpath` report;
//! * the `ccs-profile` crate — the one structured fold: the per-edge
//!   traffic attribution events (`traffic.edge` / `traffic.pe`), the
//!   start-up placement and each pass's story go into a `CommProfile`
//!   (`cyclosched schedule --profile out.json [--heatmap]`), which the
//!   `ccs-report` crate renders as the HTML flight-recorder report
//!   (`cyclosched schedule --report out.html`).
//!
//! Sinks are **thread-local or explicitly threaded**: install one in
//! the thread that runs the scheduler, or pass a sink through
//! [`with_sink`].  Parallel sweep drivers stay untraced unless each
//! worker installs its own sink.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chrome;
pub mod event;
pub mod explain;
pub mod metrics;

pub use event::{
    Candidate, EdgeTraffic, Event, PassStats, PeLoad, Placed, RunnerUp, ScanBuffer, StartupPlace,
    TrafficLedger, Verdict,
};

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Receives structured events.  Implementations decide what (if
/// anything) to keep: record, aggregate, stream, or drop.
pub trait Sink {
    /// Called once per emitted event, in emission order.
    fn event(&mut self, ev: Event);
}

thread_local! {
    static SINK: RefCell<Option<Box<dyn Sink>>> = const { RefCell::new(None) };
}

/// `true` when a sink is installed in the current thread.
///
/// Instrumented entry points call this once to choose between the
/// [`Off`] and [`Tls`] probes; when it returns `false` the scheduler
/// runs the exact uninstrumented code path.
#[inline]
pub fn installed() -> bool {
    SINK.with(|s| s.borrow().is_some())
}

/// Forwards one event to the installed sink, if any.
pub fn emit(ev: Event) {
    SINK.with(|s| {
        if let Some(sink) = s.borrow_mut().as_mut() {
            sink.event(ev);
        }
    });
}

/// Uninstalls the sink installed by [`install`] when dropped,
/// restoring whatever was installed before (sinks nest).
pub struct Guard {
    prev: Option<Box<dyn Sink>>,
    done: bool,
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.done {
            self.done = true;
            let prev = self.prev.take();
            SINK.with(|s| *s.borrow_mut() = prev);
        }
    }
}

/// Installs `sink` as the current thread's event sink until the
/// returned [`Guard`] drops.  Nested installs restore the outer sink.
#[must_use = "dropping the guard immediately uninstalls the sink"]
pub fn install(sink: Box<dyn Sink>) -> Guard {
    let prev = SINK.with(|s| s.borrow_mut().replace(sink));
    Guard { prev, done: false }
}

/// Shared handle making a concrete sink recoverable after
/// [`with_sink`] (the thread-local slot needs `'static` ownership).
struct Shared<S>(Rc<RefCell<S>>);

impl<S: Sink> Sink for Shared<S> {
    fn event(&mut self, ev: Event) {
        self.0.borrow_mut().event(ev);
    }
}

/// Runs `f` with `sink` installed in the current thread, then returns
/// `f`'s output together with the sink (carrying whatever it
/// collected).
///
/// This is the explicitly-threaded entry point: no global state
/// outlives the call.
pub fn with_sink<S: Sink + 'static, T>(sink: S, f: impl FnOnce() -> T) -> (T, S) {
    let cell = Rc::new(RefCell::new(sink));
    let guard = install(Box::new(Shared(Rc::clone(&cell))));
    let out = f();
    drop(guard);
    let sink = match Rc::try_unwrap(cell) {
        Ok(cell) => cell.into_inner(),
        // INVARIANT: the only clone went into the guard, which was
        // dropped (uninstalling the shared sink) just above.
        Err(_) => unreachable!("sink handle still shared after uninstall"),
    };
    (out, sink)
}

/// One recorded event with the nanoseconds elapsed since the
/// recorder's creation.  The timestamp lives in the *recording*, not
/// the event: events themselves stay deterministic.
#[derive(Clone, Debug)]
pub struct TimedEvent {
    /// Nanoseconds since the recorder was created.
    pub ns: u64,
    /// The event.
    pub event: Event,
}

/// A sink that records every event with a monotonic timestamp.
pub struct Recorder {
    t0: Instant,
    /// The recorded stream, in emission order.
    pub events: Vec<TimedEvent>,
}

impl Recorder {
    /// An empty recorder; timestamps count from now.
    pub fn new() -> Self {
        Recorder {
            // CLOCK: the Recorder is a sanctioned sink — timestamps
            // order events for replay and never reach fingerprints.
            t0: Instant::now(),
            events: Vec::new(),
        }
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Sink for Recorder {
    fn event(&mut self, ev: Event) {
        let ns = u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.events.push(TimedEvent { ns, event: ev });
    }
}

/// Installed as a sink, a ledger folds the run's traffic as it happens.
impl Sink for TrafficLedger {
    fn event(&mut self, ev: Event) {
        self.observe(&ev);
    }
}

/// Records every event emitted while `f` runs, returning `f`'s output
/// and the timed event stream.
pub fn record<T>(f: impl FnOnce() -> T) -> (T, Vec<TimedEvent>) {
    let (out, rec) = with_sink(Recorder::new(), f);
    (out, rec.events)
}

/// Records two runs back to back, each under its own fresh [`Recorder`]
/// — the dual-capture entry point of the multi-run diff report.
///
/// The first closure runs to completion (its recorder uninstalled)
/// before the second starts, so the two streams can never interleave
/// and each stays exactly what a standalone [`record`] would have
/// captured.  Timestamps restart from zero for each run; the events
/// themselves are deterministic either way.
pub fn record_pair<A, B>(
    f: impl FnOnce() -> A,
    g: impl FnOnce() -> B,
) -> ((A, Vec<TimedEvent>), (B, Vec<TimedEvent>)) {
    (record(f), record(g))
}

/// Compile-time-selectable emission point.  Instrumented code writes
///
/// ```ignore
/// if P::ACTIVE {
///     probe.emit(Event::Placed { .. });
/// }
/// ```
///
/// and the branch (including the event construction) vanishes entirely
/// for [`Off`].
pub trait Probe {
    /// `false` for the no-op probe; gate all instrumentation (event
    /// construction *and* any bookkeeping feeding it) on this constant.
    const ACTIVE: bool;
    /// Delivers one event.
    fn emit(&mut self, ev: Event);
}

/// The no-op probe: instrumentation compiles away.
pub struct Off;

impl Probe for Off {
    const ACTIVE: bool = false;
    #[inline(always)]
    fn emit(&mut self, _ev: Event) {}
}

/// The forwarding probe: events go to the thread-local sink.
pub struct Tls;

impl Probe for Tls {
    const ACTIVE: bool = true;
    fn emit(&mut self, ev: Event) {
        emit(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_sink_means_not_installed_and_emit_is_dropped() {
        assert!(!installed());
        emit(Event::StartupEnd { length: 1 }); // must not panic
        assert!(!installed());
    }

    #[test]
    fn record_collects_in_order() {
        let (val, events) = record(|| {
            emit(Event::StartupBegin { tasks: 2, pes: 1 });
            emit(Event::StartupEnd { length: 3 });
            42
        });
        assert_eq!(val, 42);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].event, Event::StartupBegin { tasks: 2, pes: 1 });
        assert_eq!(events[1].event, Event::StartupEnd { length: 3 });
        assert!(events[0].ns <= events[1].ns);
        assert!(!installed(), "sink must be uninstalled after record");
    }

    #[test]
    fn installs_nest_and_restore() {
        let (_, outer) = with_sink(Recorder::new(), || {
            emit(Event::StartupEnd { length: 1 });
            let (_, inner) = with_sink(Recorder::new(), || {
                emit(Event::StartupEnd { length: 2 });
            });
            assert_eq!(inner.events.len(), 1);
            // Outer sink is re-installed after the inner guard drops.
            emit(Event::StartupEnd { length: 3 });
        });
        let lengths: Vec<u32> = outer
            .events
            .iter()
            .map(|t| match t.event {
                Event::StartupEnd { length } => length,
                _ => panic!("unexpected event"),
            })
            .collect();
        assert_eq!(lengths, vec![1, 3]);
    }

    #[test]
    fn record_pair_keeps_the_streams_separate() {
        let ((a, ev_a), (b, ev_b)) = record_pair(
            || {
                emit(Event::StartupEnd { length: 1 });
                "a"
            },
            || {
                emit(Event::StartupEnd { length: 2 });
                emit(Event::CompactEnd {
                    initial: 2,
                    best: 2,
                    passes: 0,
                    floor: 2,
                });
                "b"
            },
        );
        assert_eq!((a, b), ("a", "b"));
        assert_eq!(ev_a.len(), 1);
        assert_eq!(ev_a[0].event, Event::StartupEnd { length: 1 });
        assert_eq!(ev_b.len(), 2);
        assert_eq!(ev_b[0].event, Event::StartupEnd { length: 2 });
        assert!(!installed(), "both recorders uninstalled afterwards");
    }

    #[test]
    fn off_probe_is_inert() {
        let mut p = Off;
        const { assert!(!Off::ACTIVE) };
        p.emit(Event::StartupEnd { length: 9 }); // no-op
    }

    #[test]
    fn tls_probe_forwards() {
        let ((), rec) = with_sink(Recorder::new(), || {
            let mut p = Tls;
            const { assert!(Tls::ACTIVE) };
            p.emit(Event::StartupEnd { length: 7 });
        });
        assert_eq!(rec.events.len(), 1);
    }
}
