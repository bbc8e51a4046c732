//! Command-line interface of the `cyclosched` binary.
//!
//! Hand-rolled argument handling (no CLI dependency): every subcommand
//! parses its flags into a typed request struct here, where the logic
//! is unit-testable; `src/main.rs` only does I/O.

use crate::core::{CompactConfig, RemapConfig, RemapMode, ScanPolicy};
use std::collections::VecDeque;
use std::fmt;

/// A parsed invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `cyclosched schedule <graph> --machine SPEC [...]`
    /// (boxed: the schedule request is by far the largest variant).
    Schedule(Box<ScheduleArgs>),
    /// `cyclosched compile <kernel> [...]`
    Compile(CompileArgs),
    /// `cyclosched bound <graph>`
    Bound {
        /// Graph path or `-` for stdin.
        input: String,
    },
    /// `cyclosched simulate <graph> --machine SPEC [...]`
    Simulate(SimulateArgs),
    /// `cyclosched machines [SPEC]`
    Machines {
        /// Optional spec to describe in detail (DOT output).
        spec: Option<String>,
    },
    /// `cyclosched workloads [NAME]`
    Workloads {
        /// Optional workload to dump in the textual graph format.
        name: Option<String>,
    },
    /// `cyclosched help` or `--help`.
    Help,
}

/// Arguments of the `schedule` subcommand.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduleArgs {
    /// Graph path or `-`.
    pub input: String,
    /// Machine spec (see `ccs-topology::parse_spec`).
    pub machine: String,
    /// Compaction configuration.
    pub passes: usize,
    /// Relaxation mode.
    pub strict: bool,
    /// Rows rotated per pass.
    pub rows: u32,
    /// Emit the schedule as CSV instead of a table.
    pub csv: bool,
    /// Render a Gantt chart over this many iterations (0 = none).
    pub gantt: u32,
    /// Write an SVG rendering of the schedule to this path.
    pub svg: Option<String>,
    /// Run the processor-binding refinement post-pass.
    pub refine: bool,
    /// Write a Chrome-trace JSON of the scheduler's decision stream to
    /// this path.
    pub trace: Option<String>,
    /// Trace timestamp domain (`logical` is deterministic; `wall` uses
    /// real time).
    pub trace_clock: TraceClock,
    /// Print the per-node decision narrative.
    pub explain: bool,
    /// Write the communication profile (`CommProfile` JSON) to this
    /// path.
    pub profile: Option<String>,
    /// Print the ASCII link-load heatmap of the profile.
    pub heatmap: bool,
    /// Certify the final period against the static lower bounds and
    /// print the optimality report.
    pub certify: bool,
    /// Write the optimality report as JSON to this path (implies the
    /// certification run).
    pub certify_json: Option<String>,
    /// Write the self-contained HTML flight-recorder report to this
    /// path.
    pub report: Option<String>,
    /// Write the standalone SVG link-load heatmap to this path.
    pub heatmap_svg: Option<String>,
    /// Write the two-run HTML diff report to this path (requires
    /// `--diff-machine` and/or `--diff-policy` to define side B).
    pub report_diff: Option<String>,
    /// Machine spec of the comparison run (side B of the diff report).
    pub diff_machine: Option<String>,
    /// Scheduler policy of the comparison run (side B).
    pub diff_policy: Option<DiffPolicy>,
}

/// Scheduler policy for the `--report-diff` comparison run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiffPolicy {
    /// Remap without relaxation (`RemapMode::WithoutRelaxation`).
    Strict,
    /// Remap with relaxation (the default scheduler behavior).
    Relaxed,
    /// The reference candidate scan (`ScanPolicy::Reference`).  Both
    /// sides of a diff are recorded, and a recorded run never prunes
    /// its sweep, so this side B repeats side A: a self-diff.
    Reference,
}

impl DiffPolicy {
    /// The CLI spelling, used in report labels.
    pub fn name(self) -> &'static str {
        match self {
            DiffPolicy::Strict => "strict",
            DiffPolicy::Relaxed => "relaxed",
            DiffPolicy::Reference => "reference",
        }
    }
}

/// Timestamp domain for `--trace` output.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TraceClock {
    /// Event-index timestamps: byte-identical output across runs and
    /// thread counts.
    #[default]
    Logical,
    /// Recorded wall-clock timestamps.
    Wall,
}

impl ScheduleArgs {
    /// Converts to the library configuration.
    pub fn compact_config(&self) -> CompactConfig {
        CompactConfig {
            passes: self.passes,
            remap: RemapConfig {
                mode: if self.strict {
                    RemapMode::WithoutRelaxation
                } else {
                    RemapMode::WithRelaxation
                },
                rows_per_pass: self.rows,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// The configuration of the `--report-diff` comparison run: the
    /// same passes/rows as side A, with `--diff-policy` applied on
    /// top.  Without a policy override, side B reuses side A's config
    /// (a pure machine comparison).
    pub fn diff_config(&self) -> CompactConfig {
        let mut cfg = self.compact_config();
        match self.diff_policy {
            None => {}
            Some(DiffPolicy::Strict) => cfg.remap.mode = RemapMode::WithoutRelaxation,
            Some(DiffPolicy::Relaxed) => cfg.remap.mode = RemapMode::WithRelaxation,
            Some(DiffPolicy::Reference) => cfg.remap.scan = ScanPolicy::Reference,
        }
        cfg
    }
}

/// Arguments of the `compile` subcommand.
#[derive(Clone, Debug, PartialEq)]
pub struct CompileArgs {
    /// Kernel path or `-`.
    pub input: String,
    /// Additive latency.
    pub add: u32,
    /// Multiplicative latency.
    pub mul: u32,
    /// Edge volume.
    pub volume: u32,
}

/// Arguments of the `simulate` subcommand.
#[derive(Clone, Debug, PartialEq)]
pub struct SimulateArgs {
    /// Graph path or `-`.
    pub input: String,
    /// Machine spec.
    pub machine: String,
    /// Iterations to execute.
    pub iterations: u32,
    /// Use the link-contended network model.
    pub contended: bool,
}

/// CLI parse error.
#[derive(Clone, Debug, PartialEq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn fail(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// The usage text shown by `help`.
pub const USAGE: &str = "\
cyclosched — architecture-dependent loop scheduling (ICPP'95 cyclo-compaction)

USAGE:
  cyclosched schedule <graph.csdfg|-> --machine SPEC [--passes N]
                      [--strict] [--rows N] [--refine] [--csv]
                      [--gantt N] [--svg FILE]
                      [--trace FILE [--trace-clock logical|wall]] [--explain]
                      [--profile FILE] [--heatmap] [--heatmap-svg FILE]
                      [--certify] [--certify-json FILE] [--report FILE]
                      [--report-diff FILE (--diff-machine SPEC | --diff-policy P)]
  cyclosched compile  <kernel.loop|-> [--add N] [--mul N] [--volume N]
  cyclosched bound    <graph.csdfg|->
  cyclosched simulate <graph.csdfg|-> --machine SPEC [--iterations N] [--contended]
  cyclosched machines [SPEC]
  cyclosched workloads [NAME]

MACHINE SPECS:
  linear:N ring:N complete:N mesh:RxC torus:RxC hypercube:D
  star:N tree:N ideal:N random:N:SEED

Graphs use the textual format: `node A t=1` / `edge A -> B d=0 c=1`.
Kernels use the loop language: `y = y[i-1]*k + x;` (see `compile`).

SCHEDULING:
  --passes N     run up to N rotate-remap passes (default 64), stopping
                 once the best schedule meets the proven floor (the
                 larger of the cycle-ratio and resource bounds): no
                 later pass can shorten it

OBSERVABILITY:
  --trace FILE   export the scheduler's decision stream as Chrome-trace
                 JSON (open in chrome://tracing or ui.perfetto.dev);
                 deterministic with the default `--trace-clock logical`
  --explain      narrate, per node, the chosen (PE, step), the
                 runner-up slot, and every rejected candidate
  --profile FILE write the communication profile (per-edge traffic
                 ledger, link loads, per-PE and per-pass balance) as
                 deterministic JSON; validate with `profile-check`
  --heatmap      print the ASCII PE-to-PE traffic matrix and per-link
                 load bars of the communication profile
  --heatmap-svg FILE
                 write the same heatmap as a standalone SVG file
  --certify      compute the static lower bounds (cycle ratio, resource,
                 critical path, communication) and print an optimality
                 certificate for the achieved period, with witnesses
  --certify-json FILE
                 write the optimality certificate as deterministic JSON
  --report FILE  write a self-contained deterministic HTML report: the
                 start-up Gantt and per-pass placement strips with
                 AN-window hover verdicts, per-pass link-load heatmaps,
                 the pass trajectory with ledger diffs, and the
                 optimality certificate; validate with `report-check`
  --report-diff FILE
                 schedule the same graph twice — side A as configured
                 above, side B on `--diff-machine SPEC` and/or with
                 `--diff-policy strict|relaxed|reference` — and write a
                 comparison page: side-by-side start-up Gantts with the
                 first diverging rotation pass highlighted, the
                 edge-ledger delta table, paired link-load heatmaps
                 with a signed delta heatmap, and both optimality
                 certificates; validate with `report-check`
";

/// Parses raw arguments (without the program name).
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Command, CliError> {
    let mut args: VecDeque<String> = args.into_iter().collect();
    let Some(cmd) = args.pop_front() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "schedule" => parse_schedule(args),
        "compile" => parse_compile(args),
        "bound" => {
            let input = positional(&mut args, "graph")?;
            no_more(args)?;
            Ok(Command::Bound { input })
        }
        "simulate" => parse_simulate(args),
        "machines" => {
            let spec = args.pop_front();
            no_more(args)?;
            Ok(Command::Machines { spec })
        }
        "workloads" => {
            let name = args.pop_front();
            no_more(args)?;
            Ok(Command::Workloads { name })
        }
        other => Err(fail(format!(
            "unknown command {other:?}; try `cyclosched help`"
        ))),
    }
}

fn positional(args: &mut VecDeque<String>, what: &str) -> Result<String, CliError> {
    args.pop_front()
        .ok_or_else(|| fail(format!("missing <{what}> argument")))
}

fn no_more(args: VecDeque<String>) -> Result<(), CliError> {
    if let Some(extra) = args.front() {
        Err(fail(format!("unexpected argument {extra:?}")))
    } else {
        Ok(())
    }
}

fn take_value(args: &mut VecDeque<String>, flag: &str) -> Result<String, CliError> {
    args.pop_front()
        .ok_or_else(|| fail(format!("{flag} needs a value")))
}

fn parse_num<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, CliError> {
    v.parse()
        .map_err(|_| fail(format!("{flag}: bad number {v:?}")))
}

fn parse_schedule(mut args: VecDeque<String>) -> Result<Command, CliError> {
    let input = positional(&mut args, "graph")?;
    let mut out = ScheduleArgs {
        input,
        machine: String::new(),
        passes: 64,
        strict: false,
        rows: 1,
        csv: false,
        gantt: 0,
        svg: None,
        refine: false,
        trace: None,
        trace_clock: TraceClock::default(),
        explain: false,
        profile: None,
        heatmap: false,
        certify: false,
        certify_json: None,
        report: None,
        heatmap_svg: None,
        report_diff: None,
        diff_machine: None,
        diff_policy: None,
    };
    while let Some(flag) = args.pop_front() {
        match flag.as_str() {
            "--machine" => out.machine = take_value(&mut args, "--machine")?,
            "--passes" => out.passes = parse_num(&take_value(&mut args, "--passes")?, "--passes")?,
            "--rows" => out.rows = parse_num(&take_value(&mut args, "--rows")?, "--rows")?,
            "--gantt" => out.gantt = parse_num(&take_value(&mut args, "--gantt")?, "--gantt")?,
            "--svg" => out.svg = Some(take_value(&mut args, "--svg")?),
            "--trace" => out.trace = Some(take_value(&mut args, "--trace")?),
            "--profile" => out.profile = Some(take_value(&mut args, "--profile")?),
            "--heatmap" => out.heatmap = true,
            "--heatmap-svg" => out.heatmap_svg = Some(take_value(&mut args, "--heatmap-svg")?),
            "--report" => out.report = Some(take_value(&mut args, "--report")?),
            "--report-diff" => out.report_diff = Some(take_value(&mut args, "--report-diff")?),
            "--diff-machine" => out.diff_machine = Some(take_value(&mut args, "--diff-machine")?),
            "--diff-policy" => {
                out.diff_policy = Some(match take_value(&mut args, "--diff-policy")?.as_str() {
                    "strict" => DiffPolicy::Strict,
                    "relaxed" => DiffPolicy::Relaxed,
                    "reference" => DiffPolicy::Reference,
                    other => {
                        return Err(fail(format!(
                            "--diff-policy: expected `strict`, `relaxed` or `reference`, \
                             got {other:?}"
                        )))
                    }
                })
            }
            "--certify" => out.certify = true,
            "--certify-json" => {
                out.certify_json = Some(take_value(&mut args, "--certify-json")?);
                out.certify = true;
            }
            "--trace-clock" => {
                out.trace_clock = match take_value(&mut args, "--trace-clock")?.as_str() {
                    "logical" => TraceClock::Logical,
                    "wall" => TraceClock::Wall,
                    other => {
                        return Err(fail(format!(
                            "--trace-clock: expected `logical` or `wall`, got {other:?}"
                        )))
                    }
                }
            }
            "--strict" => out.strict = true,
            "--refine" => out.refine = true,
            "--explain" => out.explain = true,
            "--csv" => out.csv = true,
            other => return Err(fail(format!("schedule: unknown flag {other:?}"))),
        }
    }
    if out.machine.is_empty() {
        return Err(fail("schedule: --machine SPEC is required"));
    }
    let defines_side_b = out.diff_machine.is_some() || out.diff_policy.is_some();
    if out.report_diff.is_some() && !defines_side_b {
        return Err(fail(
            "schedule: --report-diff needs --diff-machine SPEC and/or --diff-policy POLICY \
             to define the comparison run",
        ));
    }
    if out.report_diff.is_none() && defines_side_b {
        return Err(fail(
            "schedule: --diff-machine/--diff-policy only make sense with --report-diff FILE",
        ));
    }
    Ok(Command::Schedule(Box::new(out)))
}

fn parse_compile(mut args: VecDeque<String>) -> Result<Command, CliError> {
    let input = positional(&mut args, "kernel")?;
    let mut out = CompileArgs {
        input,
        add: 1,
        mul: 2,
        volume: 1,
    };
    while let Some(flag) = args.pop_front() {
        match flag.as_str() {
            "--add" => out.add = parse_num(&take_value(&mut args, "--add")?, "--add")?,
            "--mul" => out.mul = parse_num(&take_value(&mut args, "--mul")?, "--mul")?,
            "--volume" => out.volume = parse_num(&take_value(&mut args, "--volume")?, "--volume")?,
            other => return Err(fail(format!("compile: unknown flag {other:?}"))),
        }
    }
    if out.add == 0 || out.mul == 0 || out.volume == 0 {
        return Err(fail("compile: latencies and volume must be >= 1"));
    }
    Ok(Command::Compile(out))
}

fn parse_simulate(mut args: VecDeque<String>) -> Result<Command, CliError> {
    let input = positional(&mut args, "graph")?;
    let mut out = SimulateArgs {
        input,
        machine: String::new(),
        iterations: 100,
        contended: false,
    };
    while let Some(flag) = args.pop_front() {
        match flag.as_str() {
            "--machine" => out.machine = take_value(&mut args, "--machine")?,
            "--iterations" => {
                out.iterations = parse_num(&take_value(&mut args, "--iterations")?, "--iterations")?
            }
            "--contended" => out.contended = true,
            other => return Err(fail(format!("simulate: unknown flag {other:?}"))),
        }
    }
    if out.machine.is_empty() {
        return Err(fail("simulate: --machine SPEC is required"));
    }
    if out.iterations == 0 {
        return Err(fail("simulate: --iterations must be >= 1"));
    }
    Ok(Command::Simulate(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Command, CliError> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse("").unwrap(), Command::Help);
        assert_eq!(parse("help").unwrap(), Command::Help);
        assert_eq!(parse("--help").unwrap(), Command::Help);
    }

    #[test]
    fn schedule_defaults_and_flags() {
        let Command::Schedule(a) = parse(
            "schedule g.csdfg --machine mesh:4x2 --strict --rows 2 --gantt 3 --refine --svg out.svg",
        )
        .unwrap() else {
            panic!()
        };
        assert!(a.refine);
        assert_eq!(a.svg.as_deref(), Some("out.svg"));
        assert_eq!(a.input, "g.csdfg");
        assert_eq!(a.machine, "mesh:4x2");
        assert!(a.strict);
        assert_eq!(a.rows, 2);
        assert_eq!(a.gantt, 3);
        assert_eq!(a.passes, 64);
        let cfg = a.compact_config();
        assert_eq!(cfg.remap.mode, RemapMode::WithoutRelaxation);
        assert_eq!(cfg.remap.rows_per_pass, 2);
    }

    #[test]
    fn schedule_trace_flags() {
        let Command::Schedule(a) =
            parse("schedule g.csdfg --machine mesh:2x2 --trace out.json --explain").unwrap()
        else {
            panic!()
        };
        assert_eq!(a.trace.as_deref(), Some("out.json"));
        assert_eq!(a.trace_clock, TraceClock::Logical);
        assert!(a.explain);

        let Command::Schedule(a) =
            parse("schedule g --machine mesh:2x2 --trace t.json --trace-clock wall").unwrap()
        else {
            panic!()
        };
        assert_eq!(a.trace_clock, TraceClock::Wall);
        assert!(parse("schedule g --machine m --trace-clock sundial").is_err());
        assert!(parse("schedule g --machine m --trace").is_err());
    }

    #[test]
    fn schedule_profile_flags() {
        let Command::Schedule(a) =
            parse("schedule g --machine mesh:2x2 --profile p.json --heatmap").unwrap()
        else {
            panic!()
        };
        assert_eq!(a.profile.as_deref(), Some("p.json"));
        assert!(a.heatmap);

        let Command::Schedule(a) = parse("schedule g --machine ring:4 --heatmap").unwrap() else {
            panic!()
        };
        assert_eq!(a.profile, None);
        assert!(a.heatmap);
        assert!(parse("schedule g --machine m --profile").is_err());
    }

    #[test]
    fn schedule_certify_flags() {
        let Command::Schedule(a) = parse("schedule g --machine ring:4 --certify").unwrap() else {
            panic!()
        };
        assert!(a.certify);
        assert_eq!(a.certify_json, None);

        let Command::Schedule(a) =
            parse("schedule g --machine ring:4 --certify-json cert.json").unwrap()
        else {
            panic!()
        };
        assert!(a.certify, "--certify-json implies the certification run");
        assert_eq!(a.certify_json.as_deref(), Some("cert.json"));
        assert!(parse("schedule g --machine m --certify-json").is_err());
    }

    #[test]
    fn schedule_report_flags() {
        let Command::Schedule(a) =
            parse("schedule g --machine mesh:2x2 --report out.html --heatmap-svg hm.svg").unwrap()
        else {
            panic!()
        };
        assert_eq!(a.report.as_deref(), Some("out.html"));
        assert_eq!(a.heatmap_svg.as_deref(), Some("hm.svg"));
        assert!(!a.heatmap, "--heatmap-svg does not imply the ASCII heatmap");
        assert!(parse("schedule g --machine m --report").is_err());
        assert!(parse("schedule g --machine m --heatmap-svg").is_err());
    }

    #[test]
    fn schedule_diff_flags() {
        let Command::Schedule(a) =
            parse("schedule g --machine mesh:2x2 --report-diff d.html --diff-machine complete:4")
                .unwrap()
        else {
            panic!()
        };
        assert_eq!(a.report_diff.as_deref(), Some("d.html"));
        assert_eq!(a.diff_machine.as_deref(), Some("complete:4"));
        assert_eq!(a.diff_policy, None);
        let (da, db) = (a.compact_config(), a.diff_config());
        assert_eq!(
            db.remap.mode, da.remap.mode,
            "machine-only diff keeps the config"
        );
        assert_eq!(db.remap.scan, da.remap.scan);
        assert_eq!(db.passes, da.passes);

        let Command::Schedule(a) =
            parse("schedule g --machine ring:4 --report-diff d.html --diff-policy reference")
                .unwrap()
        else {
            panic!()
        };
        assert_eq!(a.diff_policy, Some(DiffPolicy::Reference));
        assert_eq!(a.diff_config().remap.scan, ScanPolicy::Reference);

        let Command::Schedule(a) = parse(
            "schedule g --machine ring:4 --strict --report-diff d.html --diff-policy relaxed",
        )
        .unwrap() else {
            panic!()
        };
        assert_eq!(a.compact_config().remap.mode, RemapMode::WithoutRelaxation);
        assert_eq!(a.diff_config().remap.mode, RemapMode::WithRelaxation);

        let Command::Schedule(a) =
            parse("schedule g --machine ring:4 --report-diff d.html --diff-policy strict").unwrap()
        else {
            panic!()
        };
        assert_eq!(a.diff_config().remap.mode, RemapMode::WithoutRelaxation);
    }

    #[test]
    fn schedule_diff_flag_validation() {
        // --report-diff without a side-B definition.
        assert!(parse("schedule g --machine m --report-diff d.html").is_err());
        // side-B definitions without --report-diff.
        assert!(parse("schedule g --machine m --diff-machine ring:4").is_err());
        assert!(parse("schedule g --machine m --diff-policy strict").is_err());
        // bad policy spelling and missing values.
        assert!(parse("schedule g --machine m --report-diff d --diff-policy greedy").is_err());
        assert!(parse("schedule g --machine m --report-diff").is_err());
        assert!(parse("schedule g --machine m --report-diff d --diff-machine").is_err());
    }

    #[test]
    fn schedule_requires_machine() {
        let err = parse("schedule g.csdfg").unwrap_err();
        assert!(err.to_string().contains("--machine"));
    }

    #[test]
    fn compile_flags() {
        let Command::Compile(a) = parse("compile k.loop --add 3 --mul 7").unwrap() else {
            panic!()
        };
        assert_eq!((a.add, a.mul, a.volume), (3, 7, 1));
        assert!(parse("compile k.loop --mul 0").is_err());
    }

    #[test]
    fn simulate_flags() {
        let Command::Simulate(a) =
            parse("simulate - --machine ring:8 --iterations 50 --contended").unwrap()
        else {
            panic!()
        };
        assert_eq!(a.input, "-");
        assert!(a.contended);
        assert_eq!(a.iterations, 50);
        assert!(parse("simulate - --machine ring:8 --iterations 0").is_err());
    }

    #[test]
    fn bound_and_listing_commands() {
        assert_eq!(
            parse("bound g.csdfg").unwrap(),
            Command::Bound {
                input: "g.csdfg".into()
            }
        );
        assert_eq!(parse("machines").unwrap(), Command::Machines { spec: None });
        assert_eq!(
            parse("machines mesh:3x3").unwrap(),
            Command::Machines {
                spec: Some("mesh:3x3".into())
            }
        );
        assert_eq!(
            parse("workloads elliptic").unwrap(),
            Command::Workloads {
                name: Some("elliptic".into())
            }
        );
    }

    #[test]
    fn unknown_bits_rejected() {
        assert!(parse("frobnicate").is_err());
        assert!(parse("schedule g --machine m --wat").is_err());
        assert!(parse("bound a b").is_err());
        assert!(parse("schedule").is_err());
        assert!(parse("schedule g --machine").is_err());
        assert!(parse("schedule g --machine m --passes many").is_err());
    }
}
