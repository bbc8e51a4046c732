//! The traced in-process run: each job's pipeline is replayed by
//! calling every layer's public function in the order `cyclosched`'s
//! `main` calls them, with a span recorded around each call by this
//! benchmark's own code.

use crate::stats::{median, self_time};
use crate::workload::{Flags, Plan};
use ccs_model::NodeId;
use ccs_trace::TimedEvent;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// The job (index into the plan) the span belongs to.
    pub job: usize,
}

/// Keeps spans in memory.  With `layers` off it records only the root
/// spans (`job`, `probe`): the untraced baseline the layer spans'
/// overhead is measured against.
pub struct Tracer {
    layers: bool,
    t0: Instant,
    /// Open spans; `None` for a span this tracer does not record.
    stack: Vec<Option<usize>>,
    job: usize,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(layers: bool) -> Self {
        Tracer {
            layers,
            t0: Instant::now(),
            stack: Vec::new(),
            job: 0,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) {
        if !self.layers && !self.stack.is_empty() {
            self.stack.push(None);
            return;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied().flatten(),
            job: self.job,
        });
        self.stack.push(Some(self.spans.len() - 1));
    }

    pub fn end(&mut self) {
        let open = self.stack.pop().expect("end matches a begin");
        if let Some(i) = open {
            self.spans[i].end = self.now();
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Writes the spans as a JSON array.
    pub fn to_json(&self, plan: &Plan) -> String {
        use serde_json::Value;
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("name".into(), Value::String(s.name.into())),
                    ("start_ns".into(), Value::UInt(s.start)),
                    ("end_ns".into(), Value::UInt(s.end)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                    ),
                    ("job".into(), Value::UInt(s.job as u64)),
                    ("key".into(), Value::String(plan.key(s.job))),
                ])
            })
            .collect();
        serde_json::to_string(&Value::Array(spans)).expect("serialize spans")
    }
}

/// Sizes of what one in-process job produced, in bytes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Produced {
    pub chrome: Option<usize>,
    pub profile_json: Option<usize>,
    pub html: Option<usize>,
    pub lines: usize,
    /// The report page(s), kept for the `report.check` probe.
    pub pages: Vec<String>,
}

/// Replays job `i` of `plan` in-process under the span `job`.
pub fn run_job(tr: &mut Tracer, plan: &Plan, i: usize, input_path: &std::path::Path) -> Produced {
    let job = &plan.jobs[i];
    let flags = job.flags;
    let mut out = Produced::default();
    tr.job = i;
    tr.begin("job");
    let text = std::fs::read_to_string(input_path).expect("read generated input");
    out.lines = text.lines().count();
    let g = tr
        .span("model.parse", || ccs_model::parser::parse(&text))
        .expect("parse");
    tr.span("analyze.graph", || {
        let report = ccs_analyze::analyze_graph(&g);
        assert!(!report.has_errors(), "generated inputs pass Pass A");
        g.check_legal().expect("legal");
    });
    let m = tr
        .span("topology.build", || ccs_topology::parse_spec(job.machine))
        .expect("spec");
    let mut report = tr.span("analyze.machine", || ccs_analyze::analyze_machine(&m));
    report.merge(tr.span("analyze.cross", || ccs_analyze::analyze_cross(&g, &m)));
    assert!(!report.has_errors(), "machine checks pass");

    let compact = |cfg| ccs_core::cyclo_compact(&g, &m, cfg).expect("legal");
    let mut side_b = None;
    let (result, events): (_, Vec<TimedEvent>) = if flags == Flags::ReportDiff {
        let (a, b) = tr.span("core.compact", || {
            ccs_trace::record_pair(|| compact(flags.config()), || compact(flags.diff_config()))
        });
        side_b = Some(b);
        a
    } else if flags.recorded() {
        tr.span("core.compact", || {
            ccs_trace::record(|| compact(flags.config()))
        })
    } else {
        assert!(!ccs_trace::installed(), "untraced jobs run the Off path");
        (
            tr.span("core.compact", || compact(flags.config())),
            Vec::new(),
        )
    };
    tr.span("schedule.validate", || {
        ccs_schedule::validate(&result.graph, &m, &result.schedule)
    })
    .expect("valid schedule");
    let csv = tr.span("schedule.render", || {
        ccs_schedule::to_csv(&result.graph, &result.schedule)
    });
    std::hint::black_box(&csv);

    let name = |n: u32| {
        result
            .graph
            .name(NodeId::from_index(n as usize))
            .to_string()
    };
    let needs_profile = flags.recorded() && flags != Flags::Trace;
    let profile =
        needs_profile.then(|| tr.span("profile.build", || ccs_profile::build(&events, &m)));
    if flags == Flags::Explain {
        let p = profile.as_ref().expect("explain builds the profile");
        let text = tr.span("trace.explain", || {
            let notes = ccs_profile::pass_diff_notes(p, &m, 5, name);
            ccs_trace::explain::explain_with(&events, name, |pass| {
                notes
                    .iter()
                    .find(|(p, _)| *p == pass)
                    .map(|(_, note)| note.clone())
            })
        });
        std::hint::black_box(&text);
    }
    if flags == Flags::Trace {
        let json = tr.span("trace.chrome", || {
            ccs_trace::chrome::to_chrome(&events, ccs_trace::chrome::Clock::Logical)
        });
        out.chrome = Some(json.len());
    }
    if flags == Flags::ProfileHeatmap {
        let p = profile.as_ref().expect("profile built");
        let json = tr.span("profile.json", || p.to_json_pretty());
        out.profile_json = Some(json.len() + 1);
        let map = tr.span("profile.heatmap", || ccs_profile::render::heatmap(p));
        std::hint::black_box(&map);
    }
    let certificate = flags.certifies().then(|| {
        tr.span("bounds.certify", || {
            ccs_bounds::certify_period(&g, &m, result.best_length)
        })
    });
    if flags == Flags::Certify {
        let c = certificate.as_ref().expect("certified");
        let text = tr.span("bounds.render", || {
            let human = c.render_human();
            let diags = ccs_analyze::certify_report(c);
            (human, diags)
        });
        std::hint::black_box(&text);
    }
    let title = format!("{} on {}", input_path.display(), m.name());
    if flags == Flags::Report {
        let p = profile.as_ref().expect("profile built");
        let html = tr.span("report.render", || {
            ccs_report::render_report(
                &ccs_report::ReportInput {
                    title: &title,
                    events: &events,
                    machine: &m,
                    profile: p,
                    certificate: certificate.as_ref(),
                },
                name,
            )
        });
        out.html = Some(html.len());
        out.pages.push(html);
    }
    if let Some((outcome_b, events_b)) = side_b {
        tr.span("schedule.validate", || {
            ccs_schedule::validate(&outcome_b.graph, &m, &outcome_b.schedule)
        })
        .expect("valid side-B schedule");
        let profile_b = tr.span("profile.build", || ccs_profile::build(&events_b, &m));
        let certificate_b = tr.span("bounds.certify", || {
            ccs_bounds::certify_period(&g, &m, outcome_b.best_length)
        });
        let label_a = m.name().to_string();
        let label_b = format!("{} (reference policy)", m.name());
        let html = tr.span("report.diff", || {
            ccs_report::diff::render_diff_report(
                &ccs_report::diff::DiffInput {
                    title: &title,
                    a: ccs_report::diff::DiffSide {
                        label: &label_a,
                        events: &events,
                        machine: &m,
                        profile: profile.as_ref().expect("diffing builds the profile"),
                        certificate: certificate.as_ref(),
                    },
                    b: ccs_report::diff::DiffSide {
                        label: &label_b,
                        events: &events_b,
                        machine: &m,
                        profile: &profile_b,
                        certificate: Some(&certificate_b),
                    },
                },
                name,
            )
        });
        out.html = Some(html.len());
        out.pages.push(html);
    }
    tr.end();
    out
}

/// Layer calls the job pipeline makes only inside another call, timed
/// on their own under the span `probe` once per (input, machine) pair,
/// plus the untraced compaction that `trace.record_overhead_ms` needs
/// and the parallel-scan compaction that `core.parallel_scan_x` needs.
pub fn run_probes(tr: &mut Tracer, plan: &Plan, i: usize, produced: &Produced, fresh_pair: bool) {
    let job = &plan.jobs[i];
    let g = ccs_model::parser::parse(&plan.inputs[job.input].text).expect("parse");
    let m = ccs_topology::parse_spec(job.machine).expect("spec");
    tr.job = i;
    tr.begin("probe");
    if fresh_pair {
        let s = tr.span("core.startup", || {
            ccs_core::startup_schedule(&g, &m, job.flags.config().startup)
        });
        std::hint::black_box(&s);
        std::hint::black_box(tr.span("retiming.iteration_bound", || {
            ccs_retiming::iteration_bound(&g)
        }));
        std::hint::black_box(tr.span("bounds.compute", || ccs_bounds::compute_bounds(&g, &m)));
        std::hint::black_box(tr.span("bounds.cycle_ratio", || {
            ccs_retiming::iteration_bound::critical_cycle(&g)
        }));
        std::hint::black_box(tr.span("bounds.feas", || {
            ccs_retiming::clock_period::min_clock_period(&g)
        }));
        if !job.flags.recorded() && m.num_pes() >= job.flags.config().remap.parallel_pes as usize {
            // The chunked parallel scan, which the jobs themselves never
            // take at one thread.  Nothing else runs while the variable
            // is changed: the vendored rayon joins its threads per call.
            std::env::set_var(
                "RAYON_NUM_THREADS",
                crate::jobs::probe_threads().to_string(),
            );
            let r = tr.span("core.compact_parallel", || {
                ccs_core::cyclo_compact(&g, &m, job.flags.config())
            });
            std::env::set_var("RAYON_NUM_THREADS", crate::jobs::RAYON_THREADS.to_string());
            std::hint::black_box(&r);
        }
    }
    if job.flags.recorded() {
        assert!(
            !ccs_trace::installed(),
            "the untraced twin runs the Off path"
        );
        let r = tr.span("core.compact_off", || {
            ccs_core::cyclo_compact(&g, &m, job.flags.config())
        });
        std::hint::black_box(&r);
    }
    for page in &produced.pages {
        let facts = tr.span("report.check", || ccs_report::check::check_html(page));
        assert!(facts.is_ok(), "in-process report page validates");
    }
    tr.end();
}

/// Per-job counts from the MetricsSink run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    pub startup_defers: u64,
    pub slots_probed: u64,
    pub edges_swept: u64,
    pub passes_run: u64,
    pub passes_reverted: u64,
    pub passes_at_floor: u64,
    pub passes_useful: u64,
    /// Recorded events, for jobs the binary records.
    pub events: Option<u64>,
}

/// Compaction counters from a pass history: passes that set a new
/// best, and passes run while the best already sat on `floor`.
pub fn pass_counters(
    initial: u32,
    history: &[ccs_core::compact::PassRecord],
    floor: u64,
) -> (u64, u64) {
    let mut best = initial;
    let (mut useful, mut at_floor) = (0, 0);
    for rec in history {
        if u64::from(best) == floor {
            at_floor += 1;
        }
        if !rec.reverted && rec.length < best {
            best = rec.length;
            useful += 1;
        }
    }
    (useful, at_floor)
}

/// Counts for job `i`, from one compaction with a
/// `ccs_trace::metrics::MetricsSink` installed.  Never timed: the sink
/// switches the scheduler onto its probed path.
pub fn count_job(plan: &Plan, i: usize) -> Counts {
    let job = &plan.jobs[i];
    let g = ccs_model::parser::parse(&plan.inputs[job.input].text).expect("parse");
    let m = ccs_topology::parse_spec(job.machine).expect("spec");
    let (r, sink) = ccs_trace::with_sink(ccs_trace::metrics::MetricsSink::new(), || {
        ccs_core::cyclo_compact(&g, &m, job.flags.config()).expect("legal")
    });
    let c = sink.into_metrics().counters;
    let get = |k: &str| c.get(k).copied().unwrap_or(0);
    let floor = ccs_bounds::compute_bounds(&g, &m).best_value();
    let (passes_useful, passes_at_floor) = pass_counters(r.initial_length, &r.history, floor);
    let events = job.flags.recorded().then(|| {
        let (_, ev) = ccs_trace::record(|| ccs_core::cyclo_compact(&g, &m, job.flags.config()));
        ev.len() as u64
    });
    Counts {
        startup_defers: get("startup_defers"),
        slots_probed: get("slots_probed"),
        edges_swept: get("edges_swept"),
        passes_run: r.history.len() as u64,
        passes_reverted: r.history.iter().filter(|p| p.reverted).count() as u64,
        passes_at_floor,
        passes_useful,
        events,
    }
}

/// Per-job span durations in ms: `name -> job -> summed duration`.
pub fn durations(spans: &[Span]) -> BTreeMap<&'static str, BTreeMap<usize, f64>> {
    let mut out: BTreeMap<&'static str, BTreeMap<usize, f64>> = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_default().entry(s.job).or_insert(0.0) +=
            (s.end - s.start) as f64 / 1e6;
    }
    out
}

/// Self time per layer (the span name's prefix before the first `.`)
/// in ms, summed over the `job` spans and their children; `job` itself
/// counts as a layer.  Probe spans are left out: they repeat work a job
/// already did.
pub fn layer_self_ms(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&children) {
        let root = s.parent.map_or(s.name, |p| spans[p].name);
        if root == "probe" {
            continue;
        }
        let layer = s.name.split('.').next().unwrap_or(s.name).to_string();
        *out.entry(layer).or_insert(0.0) += self_time(s.start, s.end, kids) as f64 / 1e6;
    }
    out
}

/// Per-job median over passes of each span's duration.
pub fn median_durations(
    passes: &[BTreeMap<&'static str, BTreeMap<usize, f64>>],
) -> BTreeMap<&'static str, BTreeMap<usize, f64>> {
    let mut pooled: BTreeMap<&'static str, BTreeMap<usize, Vec<f64>>> = BTreeMap::new();
    for pass in passes {
        for (name, jobs) in pass {
            for (&j, &ms) in jobs {
                pooled
                    .entry(name)
                    .or_default()
                    .entry(j)
                    .or_default()
                    .push(ms);
            }
        }
    }
    pooled
        .into_iter()
        .map(|(name, jobs)| {
            (
                name,
                jobs.into_iter().map(|(j, v)| (j, median(&v))).collect(),
            )
        })
        .collect()
}

/// Distinct (input, machine) pairs, first job of each, for the probes.
pub fn first_of_pair(plan: &Plan) -> BTreeSet<usize> {
    let mut seen = BTreeSet::new();
    let mut firsts = BTreeSet::new();
    for (i, j) in plan.jobs.iter().enumerate() {
        if seen.insert((j.input, j.machine)) {
            firsts.insert(i);
        }
    }
    firsts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(length: u32, reverted: bool) -> ccs_core::compact::PassRecord {
        ccs_core::compact::PassRecord {
            pass: 0,
            rotated: Vec::new(),
            length,
            reverted,
            wall_ms: 0.0,
        }
    }

    #[test]
    fn pass_counters_count_new_bests_and_passes_on_the_floor() {
        // 10 -> 8 (new best) -> 9 (worse, relaxed) -> 6 (new best, on
        // the floor) -> 6 -> reverted: two passes run on the floor.
        let h = [
            rec(8, false),
            rec(9, false),
            rec(6, false),
            rec(6, false),
            rec(6, true),
        ];
        assert_eq!(pass_counters(10, &h, 6), (2, 2));
        assert_eq!(pass_counters(10, &h, 5), (2, 0));
    }

    #[test]
    fn layer_self_time_does_not_double_count_overlapping_children() {
        let span = |name, start, end, parent| Span {
            name,
            start,
            end,
            parent,
            job: 0,
        };
        let spans = [
            span("job", 0, 100_000_000, None),
            span("core.a", 10_000_000, 40_000_000, Some(0)),
            span("core.b", 30_000_000, 60_000_000, Some(0)),
            span("probe", 100_000_000, 200_000_000, None),
            span("bounds.compute", 100_000_000, 200_000_000, Some(3)),
        ];
        let self_ms = layer_self_ms(&spans);
        assert_eq!(self_ms["job"], 50.0);
        assert_eq!(self_ms["core"], 60.0);
        assert!(!self_ms.contains_key("probe") && !self_ms.contains_key("bounds"));
    }

    #[test]
    fn tracer_nests_and_root_only_tracer_skips_layer_spans() {
        let mut t = Tracer::new(true);
        t.begin("job");
        let x = t.span("model.parse", || 2 + 2);
        t.end();
        assert_eq!(x, 4);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans[0].start <= t.spans[1].start && t.spans[1].end <= t.spans[0].end);
        let mut roots = Tracer::new(false);
        roots.begin("job");
        roots.span("model.parse", || ());
        roots.end();
        assert_eq!(roots.spans.len(), 1);
        assert_eq!(roots.spans[0].name, "job");
    }
}
