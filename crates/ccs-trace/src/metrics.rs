//! Counter + histogram registry fed by the event stream.
//!
//! [`MetricsSink`] is a [`Sink`](crate::Sink) that aggregates the
//! per-pass hot-path counters ([`Event::PassStats`]) and times the
//! startup / pass / compact spans with its own clock, accumulating
//! everything into a [`Metrics`] registry.  `bench_hotpath` installs
//! one around an instrumented run and serializes the registry into the
//! BENCH json, giving the perf trajectory a per-phase breakdown
//! (`BENCH_pr3.json` onward).
//!
//! Keeping the clock in the *sink* (not the events) preserves the
//! determinism contract: the same schedule always emits the same event
//! stream, while wall time stays an artifact of the observation.

use crate::event::{Event, TrafficLedger};
use crate::Sink;
use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Min/max/sum/count summary of a series of `f64` samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Histogram {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest sample (`0.0` when empty).
    pub min: f64,
    /// Largest sample (`0.0` when empty).
    pub max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, sample: f64) {
        if self.count == 0 {
            self.min = sample;
            self.max = sample;
        } else {
            self.min = self.min.min(sample);
            self.max = self.max.max(sample);
        }
        self.count += 1;
        self.sum += sample;
    }

    /// Mean of the recorded samples (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Ordered registry of named counters and histograms.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics {
    /// Monotonic counters, keyed by stable snake_case names.
    pub counters: BTreeMap<String, u64>,
    /// Sample summaries, keyed by stable snake_case names.
    pub histograms: BTreeMap<String, Histogram>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds `by` to the counter `name` (creating it at zero).
    pub fn add(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Records `sample` into the histogram `name` (creating it empty).
    pub fn observe(&mut self, name: &str, sample: f64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(sample);
    }

    /// Serializes only the counters as an ordered JSON object.
    ///
    /// Counters are pure event-stream folds, so this value is
    /// deterministic (byte-identical across runs and thread counts) —
    /// unlike [`Metrics::to_value`], whose wall-clock histograms vary
    /// per run.  Per-cell sweep summaries serialize this.
    pub fn counters_value(&self) -> Value {
        Value::Object(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Value::UInt(*v)))
                .collect(),
        )
    }

    /// Serializes the registry as `{"counters": {..}, "histograms":
    /// {name: {count, sum, min, max, mean}, ..}}`.
    pub fn to_value(&self) -> Value {
        let counters = self.counters_value();
        let histograms = Value::Object(
            self.histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        Value::Object(vec![
                            ("count".to_string(), Value::UInt(h.count)),
                            ("sum".to_string(), Value::Float(h.sum)),
                            ("min".to_string(), Value::Float(h.min)),
                            ("max".to_string(), Value::Float(h.max)),
                            ("mean".to_string(), Value::Float(h.mean())),
                        ]),
                    )
                })
                .collect(),
        );
        Value::Object(vec![
            ("counters".to_string(), counters),
            ("histograms".to_string(), histograms),
        ])
    }
}

/// A [`Sink`] that folds the event stream into a [`Metrics`] registry.
///
/// * [`Event::PassStats`] counters accumulate into `edges_swept`,
///   `slots_probed`, `scratch_reuses`, `oracle_calls`;
/// * [`Event::BestSnapshot`] increments `clones` (the one
///   snapshot-clone per improving pass);
/// * placements, candidates, no-slots, rotations, and PSL pads feed
///   `placements`, `candidates`, `no_slots`, `rotated_nodes`,
///   `psl_pads`;
/// * startup / pass / compact begin-end pairs are timed with the
///   sink's own [`Instant`] clock into the `startup_wall_ms`,
///   `pass_wall_ms`, and `compact_wall_ms` histograms, and accepted vs.
///   reverted passes count into `passes_accepted` / `passes_reverted`;
/// * `traffic.edge` rows count into `traffic_events` and upsert into a
///   [`TrafficLedger`]; at each `compact.end` the final ledger's
///   crossing and local edges, volume and hop-weighted cost add into
///   `traffic_crossing`, `traffic_local`, `traffic_volume` and
///   `traffic_cost` (once per run, not once per snapshot).
pub struct MetricsSink {
    /// The accumulated registry.
    pub metrics: Metrics,
    ledger: TrafficLedger,
    startup_t0: Option<Instant>,
    pass_t0: Option<Instant>,
    compact_t0: Option<Instant>,
}

impl MetricsSink {
    /// An empty sink.
    pub fn new() -> Self {
        MetricsSink {
            metrics: Metrics::new(),
            ledger: TrafficLedger::default(),
            startup_t0: None,
            pass_t0: None,
            compact_t0: None,
        }
    }

    /// Consumes the sink, returning the registry.
    pub fn into_metrics(self) -> Metrics {
        self.metrics
    }
}

impl Default for MetricsSink {
    fn default() -> Self {
        MetricsSink::new()
    }
}

fn ms_since(t0: Option<Instant>) -> Option<f64> {
    t0.map(|t| t.elapsed().as_secs_f64() * 1e3)
}

impl Sink for MetricsSink {
    fn event(&mut self, ev: Event) {
        self.ledger.observe(&ev);
        let m = &mut self.metrics;
        match ev {
            // CLOCK: the MetricsSink is a sanctioned sink — the three
            // *_wall_ms observations below are timing diagnostics,
            // excluded from fingerprinted and golden-pinned output.
            Event::StartupBegin { .. } => self.startup_t0 = Some(Instant::now()),
            Event::StartupEnd { .. } => {
                if let Some(ms) = ms_since(self.startup_t0.take()) {
                    m.observe("startup_wall_ms", ms);
                }
            }
            // CLOCK: sanctioned sink (see above).
            Event::CompactBegin { .. } => self.compact_t0 = Some(Instant::now()),
            Event::CompactEnd { .. } => {
                if let Some(ms) = ms_since(self.compact_t0.take()) {
                    m.observe("compact_wall_ms", ms);
                }
                let l = &self.ledger;
                m.add("traffic_crossing", u64::from(l.crossing()));
                m.add("traffic_local", u64::from(l.local()));
                m.add("traffic_volume", l.volume());
                m.add("traffic_cost", l.cost());
            }
            // CLOCK: sanctioned sink (see above).
            Event::PassBegin { .. } => self.pass_t0 = Some(Instant::now()),
            Event::PassEnd { accepted, .. } => {
                if let Some(ms) = ms_since(self.pass_t0.take()) {
                    m.observe("pass_wall_ms", ms);
                }
                m.add(
                    if accepted {
                        "passes_accepted"
                    } else {
                        "passes_reverted"
                    },
                    1,
                );
            }
            Event::PassStats(s) => {
                m.add("edges_swept", s.edges_swept);
                m.add("slots_probed", s.slots_probed);
                m.add("scratch_reuses", s.scratch_reuses);
                m.add("oracle_calls", s.oracle_calls);
            }
            Event::BestSnapshot { .. } => m.add("clones", 1),
            Event::Rotate { nodes } => m.add("rotated_nodes", nodes.len() as u64),
            Event::Candidate(_) => m.add("candidates", 1),
            Event::Placed(_) => m.add("placements", 1),
            Event::NoSlot { .. } => m.add("no_slots", 1),
            Event::SlackRepair { .. } => m.add("psl_pads", 1),
            Event::ReadyPick { .. } => m.add("ready_picks", 1),
            Event::StartupPlace(_) => m.add("startup_placements", 1),
            Event::StartupDefer { .. } => m.add("startup_defers", 1),
            Event::OccupancySnapshot { .. } => {}
            Event::EdgeTraffic(_) => m.add("traffic_events", 1),
            Event::PeLoad(l) => m.add("pe_busy_cells", u64::from(l.busy)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EdgeTraffic, PassStats, PeLoad};

    #[test]
    fn histogram_tracks_bounds_and_mean() {
        let mut h = Histogram::default();
        assert_eq!(h.mean(), 0.0);
        h.record(2.0);
        h.record(6.0);
        h.record(4.0);
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 2.0);
        assert_eq!(h.max, 6.0);
        assert_eq!(h.mean(), 4.0);
    }

    #[test]
    fn sink_aggregates_counters_and_times_passes() {
        let mut sink = MetricsSink::new();
        sink.event(Event::CompactBegin {
            tasks: 2,
            pes: 2,
            max_passes: 3,
        });
        sink.event(Event::PassBegin {
            pass: 1,
            prev_len: 5,
            rows: 1,
        });
        sink.event(Event::Rotate { nodes: vec![0, 1] });
        sink.event(Event::PassStats(PassStats {
            edges_swept: 7,
            slots_probed: 3,
            scratch_reuses: 1,
            oracle_calls: 2,
        }));
        sink.event(Event::BestSnapshot { pass: 1, length: 4 });
        sink.event(Event::PassEnd {
            pass: 1,
            accepted: true,
            length: 4,
        });
        sink.event(Event::CompactEnd {
            initial: 5,
            best: 4,
            passes: 1,
            floor: 1,
        });
        let m = sink.into_metrics();
        assert_eq!(m.counters["edges_swept"], 7);
        assert_eq!(m.counters["rotated_nodes"], 2);
        assert_eq!(m.counters["clones"], 1);
        assert_eq!(m.counters["passes_accepted"], 1);
        assert_eq!(m.histograms["pass_wall_ms"].count, 1);
        assert_eq!(m.histograms["compact_wall_ms"].count, 1);
    }

    #[test]
    fn sink_counts_rows_and_describes_the_final_ledger() {
        let row = |edge, dst_pe, hops, volume| {
            Event::EdgeTraffic(EdgeTraffic {
                edge,
                src: edge,
                dst: edge + 1,
                src_pe: 0,
                dst_pe,
                hops,
                volume,
            })
        };
        let mut sink = MetricsSink::new();
        sink.event(Event::StartupBegin { tasks: 3, pes: 3 });
        sink.event(row(0, 2, 2, 3));
        sink.event(row(1, 0, 0, 5));
        sink.event(Event::StartupEnd { length: 4 });
        // One pass moved edge 0 next door; the final snapshot repeats
        // both rows.
        sink.event(row(0, 1, 1, 3));
        sink.event(row(0, 1, 1, 3));
        sink.event(row(1, 0, 0, 5));
        sink.event(Event::PeLoad(PeLoad {
            pe: 0,
            tasks: 2,
            busy: 4,
        }));
        sink.event(Event::CompactEnd {
            initial: 4,
            best: 3,
            passes: 1,
            floor: 1,
        });
        let m = sink.into_metrics();
        assert_eq!(m.counters["traffic_events"], 5);
        assert_eq!(m.counters["traffic_crossing"], 1);
        assert_eq!(m.counters["traffic_local"], 1);
        assert_eq!(m.counters["traffic_volume"], 8);
        assert_eq!(m.counters["traffic_cost"], 3);
        assert_eq!(m.counters["pe_busy_cells"], 4);
    }

    #[test]
    fn counters_value_is_counters_only() {
        let mut m = Metrics::new();
        m.add("a", 1);
        m.observe("h", 2.0);
        let v = m.counters_value();
        assert_eq!(v["a"].as_u64(), Some(1));
        assert!(v.get("h").is_none(), "histograms must not leak");
    }

    #[test]
    fn to_value_round_trips_shape() {
        let mut m = Metrics::new();
        m.add("x", 3);
        m.observe("h", 1.5);
        let v = m.to_value();
        assert_eq!(v["counters"]["x"].as_u64(), Some(3));
        assert_eq!(v["histograms"]["h"]["count"].as_u64(), Some(1));
        assert_eq!(v["histograms"]["h"]["mean"].as_f64(), Some(1.5));
    }
}
