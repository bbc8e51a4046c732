//! Boundary-condition coverage for nested [`Recorder`] installation —
//! behavior previously exercised only incidentally by the sweep
//! drivers.

use ccs_trace::{emit, install, installed, record, Event, Recorder};

fn ev(n: u32) -> Event {
    Event::StartupEnd { length: n }
}

#[test]
fn nested_recorders_partition_the_stream() {
    let (_, outer) = record(|| {
        emit(ev(1));
        let (_, inner) = record(|| {
            assert!(installed());
            emit(ev(2));
            emit(ev(3));
        });
        assert_eq!(
            inner.len(),
            2,
            "inner recorder owns the events emitted under it"
        );
        // The outer recorder is restored once the inner one unwinds.
        emit(ev(4));
    });
    let seen: Vec<u32> = outer
        .iter()
        .map(|t| match t.event {
            Event::StartupEnd { length } => length,
            ref other => panic!("unexpected event {other:?}"),
        })
        .collect();
    assert_eq!(seen, vec![1, 4], "outer stream never sees inner events");
    assert!(!installed(), "everything uninstalled at the end");
}

#[test]
fn explicit_guard_installs_nest_and_restore_in_order() {
    assert!(!installed());
    let outer_guard = install(Box::new(Recorder::new()));
    assert!(installed());
    {
        let inner_guard = install(Box::new(Recorder::new()));
        assert!(installed(), "inner install shadows the outer sink");
        drop(inner_guard);
        assert!(installed(), "outer sink restored after inner guard drops");
    }
    drop(outer_guard);
    assert!(!installed(), "no sink left after the outermost guard drops");
}
