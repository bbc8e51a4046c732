//! The `cyclosched` command-line tool: schedule, compile, analyze and
//! simulate cyclic loop kernels on parallel machines.
//!
//! See `cyclosched help` (or [`cyclosched::cli::USAGE`]) for usage.

use cyclosched::cli::{
    parse_args, Command, CompileArgs, ScheduleArgs, SimulateArgs, TraceClock, USAGE,
};
use cyclosched::lang::{compile as lang_compile, LowerConfig};
use cyclosched::model::parser as graph_parser;
use cyclosched::prelude::*;
use cyclosched::report::{gantt_svg, Bar};
use cyclosched::topology::parse_spec;
use std::io::{Read, Write};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let cmd = match parse_args(std::env::args().skip(1)) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(cmd) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn read_input(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut s = String::new();
        std::io::stdin()
            .read_to_string(&mut s)
            .map_err(|e| format!("reading stdin: {e}"))?;
        Ok(s)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
    }
}

fn load_graph(path: &str) -> Result<Csdfg, String> {
    let text = read_input(path)?;
    let g = graph_parser::parse(&text).map_err(|e| format!("parse error: {e}"))?;
    // Pass A: full input diagnostics. Errors abort (with the same
    // stable CCS0xx codes `ccsc-check` prints); warnings go to stderr
    // but do not stop the run.
    let report = cyclosched::analyze::analyze_graph(&g);
    report_or_abort(path, &report)?;
    g.check_legal().map_err(|e| format!("illegal graph: {e}"))?;
    Ok(g)
}

/// Loads a machine spec and runs the analyzer's machine + cross checks
/// against `g`, reporting like [`load_graph`] does for graph checks.
fn load_machine(spec: &str, g: &Csdfg) -> Result<Machine, String> {
    let machine = parse_spec(spec).map_err(|e| e.to_string())?;
    let mut report = cyclosched::analyze::analyze_machine(&machine);
    report.merge(cyclosched::analyze::analyze_cross(g, &machine));
    report_or_abort(machine.name(), &report)?;
    Ok(machine)
}

/// Prints warnings of `report` to stderr; turns errors into `Err`.
fn report_or_abort(subject: &str, report: &cyclosched::analyze::Report) -> Result<(), String> {
    if report.has_errors() {
        return Err(format!(
            "{subject}: analysis found {} error(s):\n{}",
            report.errors().count(),
            report.render_human()
        ));
    }
    for d in report.diagnostics() {
        eprintln!("{subject}: {d}");
    }
    Ok(())
}

fn run(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::Help => {
            print!("{USAGE}");
            Ok(())
        }
        Command::Bound { input } => {
            let g = load_graph(&input)?;
            let stats = cyclosched::model::analysis::stats(&g);
            println!(
                "{} tasks, {} deps ({} zero-delay), total work {}, {} recurrences",
                stats.tasks, stats.deps, stats.zero_delay_deps, stats.total_time, stats.recurrences
            );
            match iteration_bound(&g) {
                Some(b) => println!(
                    "iteration bound: {b} ({:.3} control steps/iteration, floor {})",
                    b.as_f64(),
                    b.ceil()
                ),
                None => println!("iteration bound: none (acyclic graph)"),
            }
            let (phi, _) = cyclosched::retiming::clock_period::min_clock_period(&g);
            println!("minimum clock period under retiming (no resources): {phi}");
            Ok(())
        }
        Command::Machines { spec } => {
            match spec {
                Some(s) => {
                    let m = parse_spec(&s).map_err(|e| e.to_string())?;
                    println!("{m}");
                    print!("{}", m.to_dot());
                }
                None => {
                    println!("built-in machine specs:");
                    for s in [
                        "linear:N",
                        "ring:N",
                        "complete:N",
                        "mesh:RxC",
                        "torus:RxC",
                        "hypercube:D",
                        "star:N",
                        "tree:N",
                        "ideal:N",
                        "random:N:SEED",
                    ] {
                        println!("  {s}");
                    }
                    println!("\nthe paper's 8-PE suite:");
                    for m in Machine::paper_suite() {
                        println!("  {m}");
                    }
                }
            }
            Ok(())
        }
        Command::Workloads { name } => {
            match name {
                None => {
                    println!("built-in workloads:");
                    for w in cyclosched::workloads::all_workloads() {
                        println!("  {:<12} {}", w.name, w.description);
                    }
                }
                Some(n) => {
                    let w = cyclosched::workloads::workload_by_name(&n)
                        .ok_or_else(|| format!("unknown workload {n:?}"))?;
                    print!("{}", graph_parser::write(&w.build()));
                }
            }
            Ok(())
        }
        Command::Compile(args) => run_compile(args),
        Command::Schedule(args) => run_schedule(*args),
        Command::Simulate(args) => run_simulate(args),
    }
}

fn run_compile(args: CompileArgs) -> Result<(), String> {
    let source = read_input(&args.input)?;
    let config = LowerConfig {
        add_time: args.add,
        mul_time: args.mul,
        input_time: 1,
        volume: args.volume,
    };
    let lowered = lang_compile(&source, config).map_err(|e| format!("compile error: {e}"))?;
    print!("{}", graph_parser::write(&lowered.graph));
    Ok(())
}

fn run_schedule(args: ScheduleArgs) -> Result<(), String> {
    let g = load_graph(&args.input)?;
    let machine = load_machine(&args.machine, &g)?;
    // Record the decision stream only when a consumer asked for it;
    // otherwise the scheduler runs the exact uninstrumented path.
    let diffing = args.report_diff.is_some();
    let traced = args.trace.is_some()
        || args.explain
        || args.profile.is_some()
        || args.heatmap
        || args.heatmap_svg.is_some()
        || args.report.is_some()
        || diffing;
    // The `--report-diff` comparison run (side B): same graph on the
    // `--diff-machine` spec (or side A's machine) under the
    // `--diff-policy` configuration.  Recorded back-to-back with side
    // A via `record_pair`, so the two streams never interleave.
    let mut side_b = None;
    // The scheduling call times itself for the `passes:` summary line.
    let schedule_a = || {
        let t0 = Instant::now();
        let outcome = cyclo_compact(&g, &machine, args.compact_config());
        (outcome, t0.elapsed().as_secs_f64() * 1e3)
    };
    let ((outcome, schedule_ms), events) = if diffing {
        let machine_b = match &args.diff_machine {
            Some(spec) => load_machine(spec, &g)?,
            None => machine.clone(),
        };
        let (run_a, (outcome_b, events_b)) = cyclosched::trace::record_pair(schedule_a, || {
            cyclo_compact(&g, &machine_b, args.diff_config())
        });
        side_b = Some((outcome_b, events_b, machine_b));
        run_a
    } else if traced {
        cyclosched::trace::record(schedule_a)
    } else {
        (schedule_a(), Vec::new())
    };
    let mut result = outcome.map_err(|e| format!("scheduling failed: {e}"))?;
    // Whether compaction stopped at its proven floor; read before
    // `--refine` rebinds the schedule.
    let at_floor = result.best_length <= result.floor;
    if args.refine {
        let refined =
            cyclosched::core::refine::refine_binding(&result.graph, &machine, &result.schedule, 16);
        if refined.moves > 0 {
            eprintln!(
                "refinement: {} moves, (length, traffic) {:?} -> {:?}",
                refined.moves, refined.before, refined.after
            );
        }
        result.schedule = refined.schedule;
        result.best_length = result.schedule.length();
    }
    validate(&result.graph, &machine, &result.schedule)
        .map_err(|v| format!("internal error: invalid schedule: {v:?}"))?;

    eprintln!(
        "{}: start-up {} -> compacted {} control steps ({:.2}x)",
        machine.name(),
        result.initial_length,
        result.best_length,
        result.speedup()
    );
    if !result.history.is_empty() {
        let accepted = result.history.iter().filter(|r| !r.reverted).count();
        let stop = if at_floor {
            format!(", stopped at the proven floor {}", result.floor)
        } else {
            String::new()
        };
        // The time covers start-up as well, so it is not split per pass.
        eprintln!(
            "passes: {} run ({} accepted, {} reverted) in {:.2} ms{stop}",
            result.history.len(),
            accepted,
            result.history.len() - accepted,
            schedule_ms
        );
    } else if at_floor {
        eprintln!(
            "passes: 0 run (start-up meets the proven floor {})",
            result.floor
        );
    }
    if args.csv {
        print!(
            "{}",
            cyclosched::schedule::to_csv(&result.graph, &result.schedule)
        );
    } else {
        // Row by row into a buffered stdout: the table is never held
        // in memory, which matters for long schedules on many PEs.
        let mut out = std::io::BufWriter::new(std::io::stdout().lock());
        result
            .schedule
            .write_table(&mut out, |v| result.graph.name(v).to_string())
            .and_then(|()| out.flush())
            .map_err(|e| format!("writing the schedule table: {e}"))?;
    }
    if let Some(path) = &args.svg {
        let sched = &result.schedule;
        let bars: Vec<Bar> = sched
            .placements()
            .map(|(v, slot)| {
                let label = result.graph.name(v).to_string();
                Bar {
                    pe: slot.pe.0,
                    cs: slot.start,
                    duration: slot.duration,
                    rotated: false,
                    title: format!(
                        "{label} -> PE{}, cs {}..{}",
                        slot.pe.0 + 1,
                        slot.start,
                        slot.start + slot.duration
                    ),
                    label,
                }
            })
            .collect();
        let caption = format!(
            "{}: length {}, {} padded step(s)",
            machine.name(),
            sched.length(),
            sched.padding()
        );
        let pes = u32::try_from(sched.num_pes()).unwrap_or(u32::MAX);
        let mut svg = String::new();
        gantt_svg(&mut svg, &caption, pes, sched.length(), &bars, true);
        std::fs::write(path, svg).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if args.gantt > 0 {
        let gantt_events =
            cyclosched::sim::trace_static(&result.graph, &result.schedule, args.gantt);
        eprintln!();
        eprint!(
            "{}",
            cyclosched::sim::render_gantt(&result.graph, &gantt_events, |v| result
                .graph
                .name(v)
                .to_string())
        );
    }
    // Build the profile once for every consumer that reads it: the
    // JSON export, the heatmaps, the explainer's ledger diffs, and the
    // HTML report.  It describes the scheduler's own placement, so it
    // is built from the recorded stream (pre-refinement): the trace,
    // the profile, and the report always agree with each other.
    let needs_profile = args.profile.is_some()
        || args.heatmap
        || args.heatmap_svg.is_some()
        || args.report.is_some()
        || args.explain
        || diffing;
    let profile = needs_profile.then(|| cyclosched::profile::build(&events, &machine));
    let name = |n: u32| {
        result
            .graph
            .name(NodeId::from_index(n as usize))
            .to_string()
    };
    if args.explain {
        let p = profile.as_ref().expect("explain builds the profile");
        print!(
            "{}",
            cyclosched::profile::explain_run(&events, p, &machine, name)
        );
    }
    if let Some(path) = &args.trace {
        let clock = match args.trace_clock {
            TraceClock::Logical => cyclosched::trace::chrome::Clock::Logical,
            TraceClock::Wall => cyclosched::trace::chrome::Clock::Wall,
        };
        let json = cyclosched::trace::chrome::to_chrome(&events, clock);
        std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote {path} ({} trace events)", events.len());
    }
    if let Some(profile) = &profile {
        if let Some(path) = &args.profile {
            let mut json = profile.to_json_pretty();
            json.push('\n');
            std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
            eprintln!(
                "wrote {path} (comm profile, {} ledger rows)",
                profile.edges.len()
            );
        }
        if args.heatmap {
            print!("{}", cyclosched::profile::render::heatmap(profile));
        }
        if let Some(path) = &args.heatmap_svg {
            let can_route = cyclosched::profile::routable(&machine);
            let svg = cyclosched::profile::render::heatmap_svg(profile, can_route);
            std::fs::write(path, svg).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("wrote {path} (link-load heatmap SVG)");
        }
    }
    // Bounds are proven over the *input* graph and all its legal
    // retimings, so the certificate is stated against `g`, not the
    // rotated `result.graph` the schedule was validated with.  The
    // report always grades the schedule, even without `--certify`.
    let certificate = (args.certify || args.report.is_some() || diffing)
        .then(|| cyclosched::bounds::certify_period(&g, &machine, result.best_length));
    if args.certify {
        let report = certificate.as_ref().expect("certify builds the report");
        print!("{}", report.render_human());
        for d in cyclosched::analyze::certify_report(report).diagnostics() {
            eprintln!("{}: {d}", machine.name());
        }
        if let Some(path) = &args.certify_json {
            let mut json = report.to_json_pretty();
            json.push('\n');
            std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("wrote {path} (optimality certificate)");
        }
    }
    if let Some(path) = &args.report {
        let p = profile.as_ref().expect("the report builds the profile");
        let html = cyclosched::report::render_report(
            &cyclosched::report::ReportInput {
                title: &format!("{} on {}", args.input, machine.name()),
                events: &events,
                machine: &machine,
                profile: p,
                certificate: certificate.as_ref(),
            },
            name,
        );
        std::fs::write(path, html).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote {path} (HTML report; validate with report-check)");
    }
    if let Some(path) = &args.report_diff {
        let (outcome_b, events_b, machine_b) = side_b.expect("diffing recorded side B");
        let result_b = outcome_b.map_err(|e| format!("scheduling (diff side B) failed: {e}"))?;
        validate(&result_b.graph, &machine_b, &result_b.schedule)
            .map_err(|v| format!("internal error: invalid side-B schedule: {v:?}"))?;
        let profile_b = cyclosched::profile::build(&events_b, &machine_b);
        // Without `--diff-machine` side B ran on side A's machine, so it
        // is graded against side A's bounds.
        let certificate_b = match (&args.diff_machine, &certificate) {
            (None, Some(a)) => cyclosched::bounds::grade(a.bounds.clone(), result_b.best_length),
            _ => cyclosched::bounds::certify_period(&g, &machine_b, result_b.best_length),
        };
        let label_a = machine.name().to_string();
        let label_b = match args.diff_policy {
            Some(p) => format!("{} ({} policy)", machine_b.name(), p.name()),
            None => machine_b.name().to_string(),
        };
        let html = cyclosched::report::diff::render_diff_report(
            &cyclosched::report::diff::DiffInput {
                title: &format!("{}: {} vs {}", args.input, label_a, label_b),
                a: cyclosched::report::diff::DiffSide {
                    label: &label_a,
                    events: &events,
                    machine: &machine,
                    profile: profile.as_ref().expect("diffing builds the profile"),
                    certificate: certificate.as_ref(),
                },
                b: cyclosched::report::diff::DiffSide {
                    label: &label_b,
                    events: &events_b,
                    machine: &machine_b,
                    profile: &profile_b,
                    certificate: Some(&certificate_b),
                },
            },
            name,
        );
        std::fs::write(path, html).map_err(|e| format!("{path}: {e}"))?;
        eprintln!(
            "wrote {path} (HTML diff report, A best {} vs B best {}; validate with report-check)",
            result.best_length, result_b.best_length
        );
    }
    Ok(())
}

fn run_simulate(args: SimulateArgs) -> Result<(), String> {
    let g = load_graph(&args.input)?;
    let machine = load_machine(&args.machine, &g)?;
    let result = cyclo_compact(&g, &machine, Default::default())
        .map_err(|e| format!("scheduling failed: {e}"))?;
    println!(
        "schedule: {} control steps on {}",
        result.best_length,
        machine.name()
    );
    let replay = replay_static(&result.graph, &machine, &result.schedule, args.iterations);
    println!(
        "static replay: makespan {} cycles, {} messages, traffic {}, utilization {:.1}%, valid: {}",
        replay.makespan,
        replay.messages,
        replay.traffic,
        replay.utilization() * 100.0,
        replay.is_valid()
    );
    let st = run_self_timed(&result.graph, &machine, &result.schedule, args.iterations);
    println!(
        "self-timed: II {:.2} cycles/iteration",
        st.initiation_interval
    );
    if args.contended {
        let c = cyclosched::sim::run_contended(
            &result.graph,
            &machine,
            &result.schedule,
            args.iterations,
        );
        println!(
            "contended:  II {:.2} cycles/iteration ({} messages), mean link utilization {:.1}%",
            c.base.initiation_interval,
            c.base.messages,
            c.links
                .mean_utilization(c.base.makespan, machine.links().len())
                * 100.0
        );
        if let Some(((a, b), cycles)) = c.links.hottest() {
            println!(
                "hottest link: pe{}-pe{} with {} busy cycles",
                a + 1,
                b + 1,
                cycles
            );
        }
    }
    Ok(())
}
