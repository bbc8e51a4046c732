//! End-to-end tests of the `cyclosched` binary: real process spawns
//! with piped stdin/stdout, covering the full user journey
//! (compile -> schedule -> simulate) and the error paths.

use std::io::Write as _;
use std::process::{Command, Output, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cyclosched"))
}

fn run_with_stdin(args: &[&str], stdin: &str) -> Output {
    let mut child = bin()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cyclosched");
    // Ignore write errors: a process that rejects its arguments exits
    // before reading stdin, which surfaces here as a broken pipe.
    let _ = child
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(stdin.as_bytes());
    child.wait_with_output().expect("wait for cyclosched")
}

fn stdout_of(out: &Output) -> String {
    assert!(
        out.status.success(),
        "exit {:?}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

const GRAPH: &str = "node A t=1\nnode B t=2\nedge A -> B d=0 c=1\nedge B -> A d=1 c=1\n";

#[test]
fn help_prints_usage() {
    let out = bin().arg("help").output().unwrap();
    let text = stdout_of(&out);
    assert!(text.contains("USAGE"));
    assert!(text.contains("schedule"));
}

#[test]
fn no_args_is_help() {
    let out = bin().output().unwrap();
    assert!(stdout_of(&out).contains("USAGE"));
}

#[test]
fn unknown_command_fails_with_message() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn bound_reports_iteration_bound() {
    let out = run_with_stdin(&["bound", "-"], GRAPH);
    let text = stdout_of(&out);
    assert!(text.contains("2 tasks"));
    assert!(text.contains("iteration bound: 3"));
}

#[test]
fn schedule_from_stdin_renders_a_table() {
    let out = run_with_stdin(&["schedule", "-", "--machine", "mesh:2x2"], GRAPH);
    let text = stdout_of(&out);
    assert!(text.contains("pe1"));
    assert!(String::from_utf8_lossy(&out.stderr).contains("compacted"));
}

#[test]
fn schedule_csv_output() {
    let out = run_with_stdin(
        &["schedule", "-", "--machine", "complete:2", "--csv"],
        GRAPH,
    );
    let text = stdout_of(&out);
    assert!(text.starts_with("task,pe,start,end"));
    assert!(text.contains("A,"));
    assert!(text.contains("B,"));
}

#[test]
fn schedule_requires_machine_flag() {
    let out = run_with_stdin(&["schedule", "-"], GRAPH);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--machine"));
}

#[test]
fn illegal_graph_rejected_cleanly() {
    // The analyzer's Pass A reports the zero-delay cycle with its
    // stable diagnostic code and stops the run.
    let bad = "edge A -> B d=0 c=1\nedge B -> A d=0 c=1\n";
    let out = run_with_stdin(&["bound", "-"], bad);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(err.contains("CCS001"), "stderr: {err}");
    assert!(err.contains("zero total delay"), "stderr: {err}");
}

#[test]
fn task_times_that_overflow_control_steps_are_rejected() {
    // Each time fits a u32, their 6·10⁹ sum does not: schedule steps,
    // chain lengths and the clock period would wrap.
    let huge = "node A t=3000000000\nnode B t=3000000000\n\
                edge A -> B d=0 c=1\nedge B -> A d=2 c=1\n";
    for args in [
        &["bound", "-"][..],
        &["schedule", "-", "--machine", "ring:4"][..],
    ] {
        let out = run_with_stdin(args, huge);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(err.contains("CCS007"), "{args:?} stderr: {err}");
    }
}

#[test]
fn schedule_tables_past_the_cell_budget_are_rejected_before_allocating() {
    // Below the CCS007 limit, but the dense table would take 32 GB on
    // `ring:4` (the run aborted) and ~2 GB on `mesh:8x8`.
    for (graph, machine) in [
        (
            "node A t=4000000000\nnode B t=1\nedge A -> B d=0 c=1\nedge B -> A d=2 c=1\n",
            "ring:4",
        ),
        (
            "node A t=1000000\nnode B t=1000000\nedge A -> B d=0 c=1\nedge B -> A d=2 c=1\n",
            "mesh:8x8",
        ),
    ] {
        let out = run_with_stdin(&["schedule", "-", "--machine", machine], graph);
        assert_eq!(out.status.code(), Some(1), "{machine}");
        let err = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(err.contains("CCS008"), "{machine} stderr: {err}");
    }
}

#[test]
fn communication_costs_past_u32_are_rejected() {
    // Two hops × 2^31 wrapped to 0 in a release build: A landed on PE 3
    // with B, D and E two hops away at length 5, and the validator
    // passed it with the same wrapped product.  A debug build panicked.
    let mut fan =
        String::from("node A t=1\nnode B t=1\nnode C t=1\nnode D t=1\nnode E t=1\nnode F t=1\n");
    for mid in ["B", "C", "D", "E"] {
        fan.push_str(&format!(
            "edge A -> {mid} d=0 c=2147483648\nedge {mid} -> F d=0 c=1\n"
        ));
    }
    fan.push_str("edge F -> A d=1 c=1\n");
    for args in [
        &["schedule", "-", "--machine", "mesh:4x4"][..],
        &["schedule", "-", "--machine", "mesh:4x4", "--certify"][..],
    ] {
        let out = run_with_stdin(args, &fan);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(err.contains("CCS012"), "{args:?} stderr: {err}");
    }
    let out = run_with_stdin(&["schedule", "-", "--machine", "complete:1"], &fan);
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn graphs_with_no_tasks_are_rejected() {
    // Before CCS009 these scheduled at period 0, ran 64 passes over an
    // empty rotation set and certified period 0 as optimal.
    for text in ["", "\n\n", "# no tasks here\n   # nor here\n"] {
        for args in [
            &["schedule", "-", "--machine", "ring:4"][..],
            &["schedule", "-", "--machine", "ring:4", "--certify"][..],
            &["bound", "-"][..],
            &["simulate", "-", "--machine", "ring:4"][..],
        ] {
            let out = run_with_stdin(args, text);
            assert_eq!(out.status.code(), Some(1), "{args:?} on {text:?}");
            let err = String::from_utf8_lossy(&out.stderr).to_string();
            assert!(err.contains("CCS009"), "{args:?} on {text:?}: {err}");
            assert!(out.stdout.is_empty(), "{args:?} on {text:?}");
        }
    }
}

#[test]
fn compaction_stops_at_the_proven_floor() {
    let workload = |name: &str| stdout_of(&bin().args(["workloads", name]).output().unwrap());
    // `fir` starts at its floor: no pass runs, and the line says why.
    let out = run_with_stdin(&["schedule", "-", "--machine", "ring:8"], &workload("fir"));
    let err = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(err.contains("start-up 11 -> compacted 11"), "{err}");
    assert!(
        err.contains("passes: 0 run (start-up meets the proven floor 11)"),
        "{err}"
    );
    // `fig1` reaches period 3, its cycle-ratio floor, on pass 13 and
    // stops there instead of running all 64.
    let fig1 = workload("fig1");
    let out = run_with_stdin(
        &["schedule", "-", "--machine", "ring:8", "--explain"],
        &fig1,
    );
    let err = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(err.contains("start-up 7 -> compacted 3"), "{err}");
    assert!(err.contains("passes: 13 run ("), "{err}");
    assert!(err.contains(", stopped at the proven floor 3"), "{err}");
    let text = stdout_of(&out);
    assert!(
        text.contains(
            "compaction done: 7 -> 3 after 13 pass(es); length 3 meets the proven floor 3\n"
        ),
        "{text}"
    );
    // A run that never meets its floor keeps the old line.
    let out = run_with_stdin(
        &["schedule", "-", "--machine", "mesh:2x2", "--passes", "2"],
        &fig1,
    );
    let err = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(err.contains("passes: 2 run ("), "{err}");
    assert!(!err.contains("floor"), "{err}");
}

/// `--certify` on the 8,000-node one-SCC chain under a 64 MB address
/// space.  `--certify`, `--report` and `--report-diff` all run the bound
/// family, so its memory has to stay linear in the graph: an n×n delay
/// matrix needs 512 MB here, and its allocation aborts the run.
#[cfg(target_os = "linux")]
#[test]
fn certify_on_an_8k_node_scc_fits_in_64_mb() {
    let dir = std::env::temp_dir().join(format!("ccs_certify_8k_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("chain8000.csdfg");
    let g = cyclosched::workloads::scc_chain(8000, 1);
    std::fs::write(&path, cyclosched::model::parser::write(&g)).unwrap();
    let out = Command::new("sh")
        .arg("-c")
        .arg(r#"ulimit -v 65536; exec "$0" schedule "$1" --machine mesh:4x4 --csv --certify --passes 1"#)
        .arg(env!("CARGO_BIN_EXE_cyclosched"))
        .arg(&path)
        .output()
        .expect("spawn sh");
    std::fs::remove_dir_all(&dir).ok();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {err}");
    assert!(err.contains("note[CCS04"), "stderr: {err}");
}

/// A run on the largest machine a spec may name, `mesh:64x64` (4,096
/// PEs), under a 32 MB address space.  A job pays for the hop rows of
/// the PEs it places tasks on: the full table alone would take 64 MB,
/// and its allocation aborts the run.
#[cfg(target_os = "linux")]
#[test]
fn a_small_graph_on_4096_pes_fits_in_32_mb() {
    let dir = std::env::temp_dir().join(format!("ccs_mesh64_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("loop.csdfg");
    std::fs::write(&path, GRAPH).unwrap();
    let out = Command::new("sh")
        .arg("-c")
        .arg(r#"ulimit -v 32768; exec "$0" schedule "$1" --machine mesh:64x64 --csv"#)
        .arg(env!("CARGO_BIN_EXE_cyclosched"))
        .arg(&path)
        .output()
        .expect("spawn sh");
    std::fs::remove_dir_all(&dir).ok();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {err}");
    assert!(err.contains("2-D Mesh 64x64"), "stderr: {err}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("B,"));
}

/// Recorded runs of the same loop on `mesh:64x64` under a 32 MB
/// address space: the profile, the `--explain` notes, the report and
/// the diff page route only toward the PEs their traffic reaches.  An
/// all-pairs route table alone would take 64 MB, and its allocation
/// aborts the run.
#[cfg(target_os = "linux")]
#[test]
fn recorded_runs_on_4096_pes_fit_in_32_mb() {
    let dir = std::env::temp_dir().join(format!("ccs_mesh64_observe_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("loop.csdfg");
    std::fs::write(&path, GRAPH).unwrap();
    let out_file = dir.join("out").display().to_string();
    let runs: Vec<_> = [
        vec!["--profile", &out_file],
        vec!["--explain"],
        vec!["--report", &out_file],
        vec!["--report-diff", &out_file, "--diff-policy", "strict"],
    ]
    .into_iter()
    .map(|flags| {
        let out = Command::new("sh")
            .arg("-c")
            .arg(r#"ulimit -v 32768; exec "$0" schedule "$@" --machine mesh:64x64"#)
            .arg(env!("CARGO_BIN_EXE_cyclosched"))
            .arg(&path)
            .args(&flags)
            .output()
            .expect("spawn sh");
        (flags, out)
    })
    .collect();
    std::fs::remove_dir_all(&dir).ok();
    for (flags, out) in runs {
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{flags:?} stderr: {err}");
    }
}

#[test]
fn compile_then_schedule_pipeline() {
    let kernel = "y = y[i-1]*k + x;\n";
    let compiled = stdout_of(&run_with_stdin(&["compile", "-"], kernel));
    assert!(compiled.contains("node y"));
    assert!(compiled.contains("edge y -> y.1 d=1")); // delayed self ref feeds the mul
    let out = run_with_stdin(&["schedule", "-", "--machine", "ring:4"], &compiled);
    assert!(out.status.success());
}

#[test]
fn compile_error_carries_position() {
    let out = run_with_stdin(&["compile", "-"], "y = x[j-1];\n");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("1:"), "{err}");
}

#[test]
fn simulate_reports_replay_and_self_timed() {
    let out = run_with_stdin(
        &[
            "simulate",
            "-",
            "--machine",
            "linear:2",
            "--iterations",
            "10",
        ],
        GRAPH,
    );
    let text = stdout_of(&out);
    assert!(text.contains("static replay"));
    assert!(text.contains("valid: true"));
    assert!(text.contains("self-timed"));
}

#[test]
fn simulate_contended_adds_link_stats() {
    let out = run_with_stdin(
        &[
            "simulate",
            "-",
            "--machine",
            "star:4",
            "--iterations",
            "10",
            "--contended",
        ],
        GRAPH,
    );
    let text = stdout_of(&out);
    assert!(text.contains("contended:"));
}

#[test]
fn machines_lists_specs_and_details() {
    let out = bin().arg("machines").output().unwrap();
    let text = stdout_of(&out);
    assert!(text.contains("mesh:RxC"));
    assert!(text.contains("3-cube"));
    let out = bin().args(["machines", "hypercube:2"]).output().unwrap();
    let text = stdout_of(&out);
    assert!(text.contains("2-cube"));
    assert!(text.contains("graph machine"));
}

#[test]
fn oversized_machine_specs_are_rejected_before_allocating() {
    // Each of these would need a hop table of gigabytes (or overflow
    // computing its size); the spec parser refuses them up front.
    for spec in [
        "mesh:300x300",
        "hypercube:16",
        "complete:100000",
        "ring:18446744073709551615",
        "mesh:5000000000x5000000000",
    ] {
        let machines = bin().args(["machines", spec]).output().unwrap();
        let schedule = run_with_stdin(&["schedule", "-", "--machine", spec], GRAPH);
        for (what, out) in [("machines", machines), ("schedule", schedule)] {
            assert_eq!(out.status.code(), Some(1), "{what} {spec}");
            let err = String::from_utf8_lossy(&out.stderr).to_string();
            assert!(err.contains("bad machine spec"), "{what} {spec}: {err}");
        }
    }
}

#[test]
fn workloads_roundtrip_through_schedule() {
    let out = bin().args(["workloads", "fig1"]).output().unwrap();
    let graph = stdout_of(&out);
    assert!(graph.contains("node A t=1"));
    let out = run_with_stdin(&["schedule", "-", "--machine", "mesh:2x2"], &graph);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("start-up 7"), "{err}");
}

#[test]
fn svg_export_writes_a_file() {
    let dir = std::env::temp_dir().join(format!("ccs_svg_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sched.svg");
    let out = run_with_stdin(
        &[
            "schedule",
            "-",
            "--machine",
            "complete:2",
            "--svg",
            path.to_str().unwrap(),
        ],
        GRAPH,
    );
    assert!(out.status.success());
    let svg = std::fs::read_to_string(&path).unwrap();
    assert!(svg.starts_with("<svg"));
    let facts = cyclosched::report::check::check_svg(&svg)
        .unwrap_or_else(|e| panic!("--svg output fails report-check: {e:?}"));
    assert_eq!(facts.svgs, 1);
    // Control steps are labelled 1-based, like the schedule table.
    let first_label = svg
        .split("<text class=\"g-ax\"")
        .nth(1)
        .and_then(|t| t.split_once('>'))
        .and_then(|(_, rest)| rest.split_once('<'))
        .map(|(label, _)| label);
    assert_eq!(first_label, Some("1"), "{svg}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn refine_flag_accepted() {
    let out = run_with_stdin(
        &["schedule", "-", "--machine", "linear:4", "--refine"],
        GRAPH,
    );
    assert!(out.status.success());
}

/// Spawns `schedule fig1 --machine mesh:2x2 --trace <path>` with a
/// pinned `RAYON_NUM_THREADS`, returning the written trace text.
fn trace_with_threads(threads: &str, path: &std::path::Path) -> String {
    let graph = stdout_of(&bin().args(["workloads", "fig1"]).output().unwrap());
    let mut child = bin()
        .args([
            "schedule",
            "-",
            "--machine",
            "mesh:2x2",
            "--trace",
            path.to_str().unwrap(),
        ])
        .env("RAYON_NUM_THREADS", threads)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cyclosched");
    let _ = child
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(graph.as_bytes());
    let out = child.wait_with_output().expect("wait for cyclosched");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read_to_string(path).expect("read trace")
}

#[test]
fn trace_export_is_valid_chrome_json_and_thread_count_invariant() {
    let dir = std::env::temp_dir().join(format!("ccs_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let t1 = trace_with_threads("1", &dir.join("t1.json"));
    let t8 = trace_with_threads("8", &dir.join("t8.json"));
    // Determinism contract: the logical-clock trace is byte-identical
    // regardless of how many worker threads the process uses.
    assert_eq!(t1, t8, "trace must not depend on RAYON_NUM_THREADS");
    let stats = cyclosched::trace::chrome::validate_chrome(&t1).expect("valid Chrome trace");
    assert!(stats.total > 0);
    assert!(stats.spans >= 2, "startup + compact spans at minimum");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn explain_names_choice_and_runner_up() {
    let graph = stdout_of(&bin().args(["workloads", "fig1"]).output().unwrap());
    let out = run_with_stdin(
        &["schedule", "-", "--machine", "mesh:2x2", "--explain"],
        &graph,
    );
    let text = stdout_of(&out);
    // Every remapped node gets a placement line with its chosen
    // (PE, step) and a runner-up line right after it.
    assert!(text.contains("-> PE"), "{text}");
    assert!(text.contains("runner-up:"), "{text}");
    assert!(text.contains("rotated J = {"), "{text}");
    assert!(text.contains("compaction done:"), "{text}");
}

#[test]
fn explain_narrates_ledger_diffs_under_accepted_passes() {
    let graph = stdout_of(&bin().args(["workloads", "fig1"]).output().unwrap());
    let out = run_with_stdin(
        &["schedule", "-", "--machine", "mesh:2x2", "--explain"],
        &graph,
    );
    let text = stdout_of(&out);
    // Satellite of the report PR: accepted passes are annotated with
    // the edges whose hop-weighted comm cost moved, and where to.
    assert!(text.contains("ledger diff vs pass"), "{text}");
    assert!(text.contains("edge(s) moved"), "{text}");
    assert!(text.contains("cost "), "{text}");
}

/// Spawns `schedule fig1 --machine mesh:2x2 --report <path>` with a
/// pinned `RAYON_NUM_THREADS`, returning the written report text.
fn report_with_threads(threads: &str, path: &std::path::Path) -> String {
    let graph = stdout_of(&bin().args(["workloads", "fig1"]).output().unwrap());
    let mut child = bin()
        .args([
            "schedule",
            "-",
            "--machine",
            "mesh:2x2",
            "--report",
            path.to_str().unwrap(),
        ])
        .env("RAYON_NUM_THREADS", threads)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cyclosched");
    let _ = child
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(graph.as_bytes());
    let out = child.wait_with_output().expect("wait for cyclosched");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read_to_string(path).expect("read report")
}

#[test]
fn report_export_is_valid_and_thread_count_invariant() {
    let dir = std::env::temp_dir().join(format!("ccs_report_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let r1 = report_with_threads("1", &dir.join("r1.html"));
    let r8 = report_with_threads("8", &dir.join("r8.html"));
    // Determinism contract: the report is byte-identical regardless of
    // how many worker threads the process uses.
    assert_eq!(r1, r8, "report must not depend on RAYON_NUM_THREADS");
    let facts = cyclosched::report::check::check_html(&r1).expect("report passes report-check");
    assert_eq!(facts.sections, 4, "all four panels present");
    assert!(facts.conserved >= 1, "heatmaps carry conservation totals");
    for id in ["schedule", "heatmaps", "trajectory", "certificate"] {
        assert!(r1.contains(&format!("<section id=\"{id}\">")), "{id}");
    }
    assert!(r1.contains("optimality certificate"), "{r1:.300}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn heatmap_svg_export_writes_a_standalone_svg() {
    let dir = std::env::temp_dir().join(format!("ccs_hmsvg_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("heat.svg");
    let graph = stdout_of(&bin().args(["workloads", "fig1"]).output().unwrap());
    let out = run_with_stdin(
        &[
            "schedule",
            "-",
            "--machine",
            "mesh:2x2",
            "--heatmap-svg",
            path.to_str().unwrap(),
        ],
        &graph,
    );
    assert!(out.status.success());
    let svg = std::fs::read_to_string(&path).unwrap();
    assert!(svg.starts_with("<svg"), "{svg:.80}");
    assert!(
        svg.contains("xmlns=\"http://www.w3.org/2000/svg\""),
        "standalone SVG needs the namespace"
    );
    assert!(svg.contains("data-routable=\"true\""));
    std::fs::remove_dir_all(&dir).ok();
}

/// Spawns `schedule fig1 --machine mesh:2x2 --report-diff <path>
/// --diff-machine complete:4` with a pinned `RAYON_NUM_THREADS`,
/// returning the written diff-report text.
fn diff_report_with_threads(threads: &str, path: &std::path::Path) -> String {
    let graph = stdout_of(&bin().args(["workloads", "fig1"]).output().unwrap());
    let mut child = bin()
        .args([
            "schedule",
            "-",
            "--machine",
            "mesh:2x2",
            "--report-diff",
            path.to_str().unwrap(),
            "--diff-machine",
            "complete:4",
        ])
        .env("RAYON_NUM_THREADS", threads)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cyclosched");
    let _ = child
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(graph.as_bytes());
    let out = child.wait_with_output().expect("wait for cyclosched");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read_to_string(path).expect("read diff report")
}

#[test]
fn report_diff_export_is_valid_and_thread_count_invariant() {
    let dir = std::env::temp_dir().join(format!("ccs_diffreport_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let r1 = diff_report_with_threads("1", &dir.join("d1.html"));
    let r8 = diff_report_with_threads("8", &dir.join("d8.html"));
    assert_eq!(r1, r8, "diff report must not depend on RAYON_NUM_THREADS");
    let facts =
        cyclosched::report::check::check_html(&r1).expect("diff report passes report-check");
    assert_eq!(facts.sections, 4, "all four diff panels present");
    assert!(
        facts.conserved >= 2,
        "both sides carry conservation totals ({} conserved)",
        facts.conserved
    );
    for id in ["schedule", "heatmaps", "ledger", "certificate"] {
        assert!(r1.contains(&format!("<section id=\"{id}\">")), "{id}");
    }
    for tag in ["data-side=\"a\"", "data-side=\"b\"", "data-side=\"delta\""] {
        assert!(r1.contains(tag), "{tag}");
    }
    assert!(r1.contains("2-D Mesh 2x2"), "side A label present");
    assert!(
        r1.contains("Completely Connected 4"),
        "side B label present"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_diff_policy_side_b_reuses_the_machine() {
    let dir = std::env::temp_dir().join(format!("ccs_diffpolicy_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("policy.html");
    let graph = stdout_of(&bin().args(["workloads", "fig1"]).output().unwrap());
    let out = run_with_stdin(
        &[
            "schedule",
            "-",
            "--machine",
            "mesh:2x2",
            "--report-diff",
            path.to_str().unwrap(),
            "--diff-policy",
            "reference",
        ],
        &graph,
    );
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let html = std::fs::read_to_string(&path).unwrap();
    cyclosched::report::check::check_html(&html).expect("policy diff passes report-check");
    assert!(
        html.contains("2-D Mesh 2x2 (reference policy)"),
        "side B label names the policy"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_diff_flags_are_validated() {
    let out = run_with_stdin(
        &[
            "schedule",
            "-",
            "--machine",
            "complete:2",
            "--report-diff",
            "x.html",
        ],
        GRAPH,
    );
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--diff-machine"), "{err}");
}

#[test]
fn trace_clock_flag_is_validated() {
    let out = run_with_stdin(
        &[
            "schedule",
            "-",
            "--machine",
            "complete:2",
            "--trace-clock",
            "sundial",
        ],
        GRAPH,
    );
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--trace-clock"), "{err}");
}
