//! Job-level benchmark of the `cyclosched` binary.
//!
//! ```text
//! perfbench --bin PATH --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --bin PATH --write-expected
//! ```
//!
//! A job is one `cyclosched schedule` process, spawned and waited for;
//! jobs run in a closed loop from one client, as whole cycles of the
//! workload's job list, until `--seconds` have passed.  `--trace 0`
//! reports the end-to-end metrics; `--trace 1` replays every job
//! in-process with a span around each layer call and reports the
//! per-layer metrics.  Either way the last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//! `--write-expected` regenerates `expected.txt` at its fixed seed.
//! See README.md.

mod check;
mod jobs;
mod layers;
mod stats;
mod workload;

use check::{Expected, Reference};
use jobs::JobRun;
use layers::{Counts, Tracer};
use serde_json::Value;
use stats::{geomean, median};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workload::{Plan, WORKLOADS};

/// Set-ups measured per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// `cyclosched machines` spawns behind `cli.noop_ms`.
const NOOP_REPS: usize = 20;

struct Args {
    bin: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_expected: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        bin: PathBuf::new(),
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        write_expected: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--bin" => args.bin = PathBuf::from(value()?),
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--write-expected" => args.write_expected = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !args.bin.is_file() {
        return Err(format!("--bin {:?} is not a file", args.bin));
    }
    if !args.write_expected && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    // The in-process layers get the children's thread count.  Unset,
    // the vendored rayon calls `available_parallelism` (cgroup file
    // reads) on every parallel scan, which makes jobs on machines with
    // at least 128 PEs up to twice as slow.  Set while single-threaded.
    std::env::set_var("RAYON_NUM_THREADS", jobs::RAYON_THREADS.to_string());
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.write_expected {
        write_expected(&args.bin)
    } else {
        run(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn work_dir(name: &str) -> PathBuf {
    Path::new(".perfbench-work").join(name)
}

/// Generates and writes the inputs, then runs one untimed warm-up job
/// that loads the binary, `SETUP_REPS` times.  Returns the plan and the
/// median set-up seconds.
fn set_up(args: &Args, work: &Path) -> Result<(Plan, f64), String> {
    let mut times = Vec::new();
    let mut plan = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let p = workload::plan(&args.workload, args.seed).expect("workload name was checked");
        jobs::write_inputs(work, &p).map_err(|e| format!("writing inputs: {e}"))?;
        noop_job(&args.bin, work).map_err(|e| format!("warm-up job: {e}"))?;
        times.push(t0.elapsed().as_secs_f64());
        plan = Some(p);
    }
    Ok((plan.expect("at least one set-up"), median(&times)))
}

/// Runs `cyclosched machines`, a job that does little but start up;
/// returns its wall time in ms.
fn noop_job(bin: &Path, work: &Path) -> Result<f64, String> {
    let r = jobs::spawn_and_reap(
        bin,
        &["machines".to_string()],
        &work.join("out/noop.stdout"),
        &work.join("out/noop.stderr"),
    )
    .map_err(|e| format!("`cyclosched machines`: {e}"))?;
    if !r.exited_ok() {
        return Err(format!("`cyclosched machines` exited with {:?}", r.code));
    }
    Ok(r.ms)
}

/// The output check of a run: checks the files each job left behind
/// and marks as failed every sample of a job whose check failed, whose
/// exit code was not 0, or whose output differs from the checked one.
struct Checked {
    printed: Vec<Option<check::Printed>>,
    failed: usize,
}

fn check_outputs(
    work: &Path,
    plan: &Plan,
    seed: u64,
    refs: &[Reference],
    last: &[Option<JobRun>],
    samples: &[(usize, JobRun)],
) -> Checked {
    let expected = expected_results();
    let mut printed = Vec::new();
    let mut bad = vec![false; plan.jobs.len()];
    for i in 0..plan.jobs.len() {
        let key = plan.key(i);
        let entry = expected.get(&key);
        let mut result = check::check_job(work, plan, i, &refs[i], entry);
        if entry.is_none() && seed == check::EXPECTED_SEED {
            result = Err(vec!["missing from the expected-results file".into()]);
        }
        match result {
            Ok(p) => printed.push(Some(p)),
            Err(errors) => {
                for e in errors {
                    eprintln!("CHECK FAILED {key}: {e}");
                }
                bad[i] = true;
                printed.push(None);
            }
        }
    }
    let failed = samples
        .iter()
        .filter(|(i, r)| {
            let checked = last[*i].as_ref().map(|l| l.output_hash);
            bad[*i] || !r.exited_ok() || checked != Some(r.output_hash)
        })
        .count();
    Checked { printed, failed }
}

/// Runs every job of `plan` once, in order, keeping each job's latest
/// run in `last` and appending every run to `samples`.
fn run_cycle(
    bin: &Path,
    work: &Path,
    plan: &Plan,
    last: &mut [Option<JobRun>],
    samples: &mut Vec<(usize, JobRun)>,
) -> Result<(), String> {
    for (i, slot) in last.iter_mut().enumerate() {
        let r =
            jobs::run_job(bin, work, plan, i).map_err(|e| format!("job {}: {e}", plan.key(i)))?;
        *slot = Some(r.clone());
        samples.push((i, r));
    }
    Ok(())
}

fn expected_results() -> BTreeMap<String, Expected> {
    check::parse_expected(include_str!("../expected.txt")).expect("expected.txt parses")
}

fn run(args: &Args) -> Result<(), String> {
    let work = work_dir(&args.workload);
    let (plan, setup_s) = set_up(args, &work)?;
    if args.trace {
        return run_traced(args, &work, &plan);
    }

    // The timed window, untraced: one whole cycle of the job list, then
    // further jobs in list order until the time is up.
    let mut samples: Vec<(usize, JobRun)> = Vec::new();
    let mut last: Vec<Option<JobRun>> = vec![None; plan.jobs.len()];
    let t0 = Instant::now();
    run_cycle(&args.bin, &work, &plan, &mut last, &mut samples)?;
    for i in (0..plan.jobs.len()).cycle() {
        if t0.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        let r = jobs::run_job(&args.bin, &work, &plan, i)
            .map_err(|e| format!("job {}: {e}", plan.key(i)))?;
        last[i] = Some(r.clone());
        samples.push((i, r));
    }
    let window_s = t0.elapsed().as_secs_f64();

    let refs = check::references(&plan);
    let checked = check_outputs(&work, &plan, args.seed, &refs, &last, &samples);
    let ms: Vec<f64> = samples.iter().map(|(_, r)| r.ms).collect();
    let tail = stats::tail(&ms, plan.jobs.len());
    let mut floor_ratio = Vec::new();
    let mut compaction = Vec::new();
    for (p, r) in checked.printed.iter().zip(&refs) {
        let (initial, best) = p
            .as_ref()
            .map_or((r.initial, r.best), |p| (p.initial, p.best));
        floor_ratio.push(f64::from(best) / r.floor.max(1) as f64);
        compaction.push(f64::from(initial) / f64::from(best));
    }
    let attempted = samples.len();
    let metrics = [
        ("job_ms_p50", median(&ms), "ms"),
        ("job_ms_tail", tail.value, "ms"),
        ("jobs_per_s", attempted as f64 / window_s, "1/s"),
        ("setup_s", setup_s, "s"),
        (
            "peak_rss_mb",
            samples.iter().map(|(_, r)| r.max_rss_kb).max().unwrap_or(0) as f64 / 1024.0,
            "MB",
        ),
        (
            "output_kb_mean",
            mean(last.iter().flatten().map(|r| r.output_bytes as f64)) / 1024.0,
            "KB",
        ),
        ("period_over_floor", geomean(&floor_ratio), "ratio"),
        ("compaction_x", geomean(&compaction), "ratio"),
        (
            "ok_frac",
            (attempted - checked.failed) as f64 / attempted as f64,
            "ratio",
        ),
    ];
    println!(
        "workload {} seed {}: {} jobs ({:.2} cycles of {}) over {:.2} s, RAYON_NUM_THREADS={}",
        args.workload,
        args.seed,
        attempted,
        attempted as f64 / plan.jobs.len() as f64,
        plan.jobs.len(),
        window_s,
        jobs::RAYON_THREADS
    );
    println!(
        "job_ms_tail is p{} of {} jobs ({} beyond it), the percentile for a list of {}",
        tail.pct,
        tail.samples,
        tail.beyond,
        plan.jobs.len()
    );
    report(&metrics, attempted, checked.failed);
    Ok(())
}

/// Prints the metric table and the result line.
fn report(metrics: &[(&str, f64, &str)], attempted: usize, failed: usize) {
    for (name, value, unit) in metrics {
        println!("  {name:<30} {value:>14.4} {unit}");
    }
    println!(
        "output check: {} of {attempted} jobs failed{}",
        failed,
        if failed == 0 {
            ""
        } else {
            " (see CHECK FAILED on stderr)"
        }
    );
    let fields = metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                name.to_string(),
                Value::Object(vec![
                    ("value".into(), Value::Float(*value)),
                    ("unit".into(), Value::String(unit.to_string())),
                ]),
            )
        })
        .collect();
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(failed == 0)),
        ("attempted".into(), Value::UInt(attempted as u64)),
        ("failed".into(), Value::UInt(failed as u64)),
        ("metrics".into(), Value::Object(fields)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).expect("serialize result")
    );
}

/// Mean of the per-job values of span `name`, from the workload's own
/// jobs or, when they never call it, the observe probe's.
fn span_mean(
    own: &BTreeMap<&'static str, BTreeMap<usize, f64>>,
    probe: &BTreeMap<&'static str, BTreeMap<usize, f64>>,
    name: &str,
) -> f64 {
    let per_job = own.get(name).or_else(|| probe.get(name));
    per_job.map_or(0.0, |m| m.values().sum::<f64>() / m.len().max(1) as f64)
}

/// Mean of the workload's own values or, when it has none, the observe
/// probe's.
fn own_or_probe(own: impl Iterator<Item = f64>, probe: impl Iterator<Item = f64>) -> f64 {
    let own: Vec<f64> = own.collect();
    if own.is_empty() {
        mean(probe)
    } else {
        mean(own)
    }
}

fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (n, s) = xs
        .into_iter()
        .fold((0usize, 0.0), |(n, s), x| (n + 1, s + x));
    if n == 0 {
        0.0
    } else {
        s / n as f64
    }
}

/// The `--trace 1` run: per-layer metrics.
fn run_traced(args: &Args, work: &Path, plan: &Plan) -> Result<(), String> {
    // Job times the layer spans are compared with, and the output check.
    let mut last: Vec<Option<JobRun>> = vec![None; plan.jobs.len()];
    let mut samples = Vec::new();
    run_cycle(&args.bin, work, plan, &mut last, &mut samples)?;
    let refs = check::references(plan);
    let checked = check_outputs(work, plan, args.seed, &refs, &last, &samples);
    let noop: Vec<f64> = (0..NOOP_REPS)
        .map(|_| noop_job(&args.bin, work))
        .collect::<Result<_, _>>()?;

    // In-process passes: untraced and traced, alternating, until the
    // time is up.  The observe probe runs traced in every pair.
    let probe = workload::observe_probe();
    let probe_work = work.join("probe");
    jobs::write_inputs(&probe_work, &probe).map_err(|e| format!("writing probe input: {e}"))?;
    let firsts = layers::first_of_pair(plan);
    let probe_firsts = layers::first_of_pair(&probe);
    let mut untraced: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut traced_passes = Vec::new();
    let mut probe_passes = Vec::new();
    let mut sizes = Vec::new();
    let mut last_tracer = Tracer::new(true);
    let mut self_ms: BTreeMap<String, f64> = BTreeMap::new();
    let t0 = Instant::now();
    let mut pairs = 0;
    while pairs == 0 || t0.elapsed().as_secs_f64() < args.seconds {
        let mut roots = Tracer::new(false);
        for i in 0..plan.jobs.len() {
            let path = jobs::input_path(work, plan, plan.jobs[i].input);
            std::hint::black_box(layers::run_job(&mut roots, plan, i, &path));
        }
        for s in &roots.spans {
            untraced
                .entry(s.job)
                .or_default()
                .push((s.end - s.start) as f64 / 1e6);
        }
        let mut tr = Tracer::new(true);
        sizes.clear();
        for i in 0..plan.jobs.len() {
            let path = jobs::input_path(work, plan, plan.jobs[i].input);
            let produced = layers::run_job(&mut tr, plan, i, &path);
            layers::run_probes(&mut tr, plan, i, &produced, firsts.contains(&i));
            sizes.push((i, produced));
        }
        let mut ptr = Tracer::new(true);
        let mut probe_sizes = Vec::new();
        for i in 0..probe.jobs.len() {
            let path = jobs::input_path(&probe_work, &probe, probe.jobs[i].input);
            let produced = layers::run_job(&mut ptr, &probe, i, &path);
            layers::run_probes(&mut ptr, &probe, i, &produced, probe_firsts.contains(&i));
            probe_sizes.push(produced);
        }
        for (layer, ms) in layers::layer_self_ms(&tr.spans) {
            *self_ms.entry(layer).or_insert(0.0) += ms;
        }
        traced_passes.push(layers::durations(&tr.spans));
        probe_passes.push((layers::durations(&ptr.spans), probe_sizes));
        last_tracer = tr;
        pairs += 1;
    }
    std::fs::write(work.join("spans.json"), last_tracer.to_json(plan))
        .map_err(|e| format!("writing spans: {e}"))?;

    // Counts: one more untimed run with a MetricsSink installed.
    let counts: Vec<Counts> = (0..plan.jobs.len())
        .map(|i| layers::count_job(plan, i))
        .collect();
    let probe_counts: Vec<Counts> = (0..probe.jobs.len())
        .map(|i| layers::count_job(&probe, i))
        .collect();

    let own = layers::median_durations(&traced_passes);
    let probe_d = layers::median_durations(
        &probe_passes
            .iter()
            .map(|(d, _)| d.clone())
            .collect::<Vec<_>>(),
    );
    let probe_sizes = &probe_passes.last().expect("at least one pair").1;
    let span = |name: &str| span_mean(&own, &probe_d, name);
    let job_ms = |i: usize| {
        own.get("job")
            .and_then(|m| m.get(&i))
            .copied()
            .unwrap_or(0.0)
    };

    // Pair each job with the `core.startup` probe of its (input, machine).
    let startup_of = |d: &BTreeMap<&'static str, BTreeMap<usize, f64>>, p: &Plan, i: usize| {
        let j = &p.jobs[i];
        let first = (0..p.jobs.len())
            .find(|&k| p.jobs[k].input == j.input && p.jobs[k].machine == j.machine)
            .expect("the job itself matches");
        d.get("core.startup")
            .and_then(|m| m.get(&first))
            .copied()
            .unwrap_or(0.0)
    };
    let passes_ms = |d: &BTreeMap<&'static str, BTreeMap<usize, f64>>, p: &Plan| {
        mean(
            d.get("core.compact")
                .into_iter()
                .flatten()
                .map(|(&i, &c)| c - startup_of(d, p, i)),
        )
    };
    let record_overhead = |d: &BTreeMap<&'static str, BTreeMap<usize, f64>>| {
        let off = d.get("core.compact_off");
        mean(
            d.get("core.compact")
                .into_iter()
                .flatten()
                .filter_map(|(i, c)| Some(c - off?.get(i)?)),
        )
    };
    let size_kb = |pick: fn(&layers::Produced) -> Option<usize>| {
        own_or_probe(
            sizes.iter().filter_map(|(_, p)| pick(p)).map(|b| b as f64),
            probe_sizes.iter().filter_map(pick).map(|b| b as f64),
        ) / 1024.0
    };
    let lines: f64 = sizes.iter().map(|(_, p)| p.lines as f64).sum();
    let parse_s: f64 = own
        .get("model.parse")
        .map_or(0.0, |m| m.values().sum::<f64>() / 1e3);
    let sum_counts = |cs: &[Counts], f: fn(&Counts) -> u64| cs.iter().map(f).sum::<u64>() as f64;
    let per_job = |f: fn(&Counts) -> u64| sum_counts(&counts, f) / counts.len() as f64;
    let passes_run = sum_counts(&counts, |c| c.passes_run).max(1.0);
    let events = own_or_probe(
        counts.iter().filter_map(|c| c.events).map(|e| e as f64),
        probe_counts
            .iter()
            .filter_map(|c| c.events)
            .map(|e| e as f64),
    );
    let untraced_total: f64 = untraced.values().map(|v| median(v)).sum();
    let traced_total: f64 = (0..plan.jobs.len()).map(job_ms).sum();
    let other_ms = mean(samples.iter().map(|(i, r)| r.ms - job_ms(*i)));
    let core_passes = passes_ms(&own, plan);
    // The parallel scan's compaction over the job's own, on jobs whose
    // machine takes that path; 1 when none does.
    let parallel: Vec<f64> = own
        .get("core.compact_parallel")
        .into_iter()
        .flatten()
        .filter_map(|(i, par)| Some(par / own.get("core.compact")?.get(i)?))
        .collect();
    let parallel_x = if parallel.is_empty() {
        1.0
    } else {
        geomean(&parallel)
    };
    let record_ms = record_overhead(if own.contains_key("core.compact_off") {
        &own
    } else {
        &probe_d
    });

    let metrics = [
        ("cli.noop_ms", median(&noop), "ms"),
        ("cli.other_ms", other_ms, "ms"),
        ("model.parse_ms", span("model.parse"), "ms"),
        ("model.parse_lines_per_s", lines / parse_s.max(1e-9), "1/s"),
        ("topology.build_ms", span("topology.build"), "ms"),
        ("analyze.graph_ms", span("analyze.graph"), "ms"),
        ("analyze.machine_ms", span("analyze.machine"), "ms"),
        ("analyze.cross_ms", span("analyze.cross"), "ms"),
        (
            "retiming.iteration_bound_ms",
            span("retiming.iteration_bound"),
            "ms",
        ),
        ("core.startup_ms", span("core.startup"), "ms"),
        (
            "core.startup_defers",
            per_job(|c| c.startup_defers),
            "count",
        ),
        ("core.passes_ms", core_passes, "ms"),
        ("core.passes_run", per_job(|c| c.passes_run), "count"),
        (
            "core.passes_reverted",
            per_job(|c| c.passes_reverted),
            "count",
        ),
        (
            "core.passes_at_floor",
            per_job(|c| c.passes_at_floor),
            "count",
        ),
        (
            "core.useful_pass_frac",
            sum_counts(&counts, |c| c.passes_useful) / passes_run,
            "ratio",
        ),
        (
            "core.slots_probed_per_pass",
            sum_counts(&counts, |c| c.slots_probed) / passes_run,
            "count",
        ),
        (
            "core.edges_swept_per_pass",
            sum_counts(&counts, |c| c.edges_swept) / passes_run,
            "count",
        ),
        ("core.parallel_scan_x", parallel_x, "ratio"),
        ("schedule.validate_ms", span("schedule.validate"), "ms"),
        ("schedule.render_ms", span("schedule.render"), "ms"),
        ("bounds.compute_ms", span("bounds.compute"), "ms"),
        ("bounds.cycle_ratio_ms", span("bounds.cycle_ratio"), "ms"),
        ("bounds.feas_ms", span("bounds.feas"), "ms"),
        ("bounds.certify_ms", span("bounds.certify"), "ms"),
        ("trace.events", events, "count"),
        ("trace.record_overhead_ms", record_ms, "ms"),
        ("trace.chrome_ms", span("trace.chrome"), "ms"),
        ("trace.chrome_kb", size_kb(|p| p.chrome), "KB"),
        ("trace.explain_ms", span("trace.explain"), "ms"),
        ("profile.build_ms", span("profile.build"), "ms"),
        ("profile.json_kb", size_kb(|p| p.profile_json), "KB"),
        ("report.render_ms", span("report.render"), "ms"),
        ("report.diff_ms", span("report.diff"), "ms"),
        ("report.html_kb", size_kb(|p| p.html), "KB"),
        ("report.check_ms", span("report.check"), "ms"),
        (
            "bench.span_overhead_pct",
            (traced_total - untraced_total) / untraced_total.max(1e-9) * 100.0,
            "%",
        ),
    ];

    println!(
        "workload {} seed {}: traced run, {} jobs x {} pass pair(s), RAYON_NUM_THREADS={}",
        args.workload,
        args.seed,
        plan.jobs.len(),
        pairs,
        jobs::RAYON_THREADS
    );
    let jobs_total: f64 = self_ms.values().sum();
    println!("layer self time per job (traced; probes left out):");
    let n = (plan.jobs.len() * pairs) as f64;
    let mut by_share: Vec<(&String, &f64)> = self_ms.iter().collect();
    by_share.sort_by(|a, b| b.1.total_cmp(a.1));
    for (layer, ms) in by_share {
        println!(
            "  {layer:<10} {:>12.4} ms {:>6.1}%",
            ms / n,
            ms / jobs_total * 100.0
        );
    }
    println!(
        "tracing overhead: traced {traced_total:.2} ms vs untraced {untraced_total:.2} ms per job-list pass; spans in {}",
        work.join("spans.json").display()
    );
    report(&metrics, samples.len(), checked.failed);
    Ok(())
}

/// Regenerates `expected.txt`: every job of every workload at
/// [`check::EXPECTED_SEED`], run once and checked against the
/// in-process reference and the validators first.
fn write_expected(bin: &Path) -> Result<(), String> {
    let recorded = expected_results();
    let mut entries = BTreeMap::new();
    for w in WORKLOADS {
        let plan = workload::plan(w, check::EXPECTED_SEED).expect("known workload");
        let work = work_dir(w);
        jobs::write_inputs(&work, &plan).map_err(|e| format!("writing inputs: {e}"))?;
        let mut last = vec![None; plan.jobs.len()];
        let mut samples = Vec::new();
        run_cycle(bin, &work, &plan, &mut last, &mut samples)?;
        let refs = check::references(&plan);
        for ((i, r), reference) in samples.iter().zip(&refs) {
            if !r.exited_ok() {
                return Err(format!("job {} exited with {:?}", plan.key(*i), r.code));
            }
            let i = *i;
            // An artifact identical to an already recorded one keeps
            // its validation; everything else is compared afresh.
            let p = check::check_job(&work, &plan, i, reference, recorded.get(&plan.key(i)))
                .map_err(|e| format!("job {}: {}", plan.key(i), e.join("; ")))?;
            let input = check::fnv(plan.inputs[plan.jobs[i].input].text.as_bytes());
            entries.insert(
                plan.key(i),
                Expected {
                    input,
                    initial: p.initial,
                    best: p.best,
                    csv: p.csv,
                    verdict: p.verdict.map(str::to_string),
                    artifact: p.artifact,
                },
            );
        }
        eprintln!("{w}: {} jobs recorded", plan.jobs.len());
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.txt");
    std::fs::write(path, check::render_expected(check::EXPECTED_SEED, &entries))
        .map_err(|e| format!("{path}: {e}"))?;
    eprintln!("wrote {path} ({} jobs)", entries.len());
    Ok(())
}
