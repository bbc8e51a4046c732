//! The output check: every job's printed schedule, certificate and
//! artifacts are compared against an in-process reference run and, for
//! jobs the expected-results file lists, against the seed commit.

use crate::jobs::{input_path, job_paths};
use crate::workload::{Flags, Plan};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// FNV-1a, 64 bit.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.finish()
}

/// What one job printed, parsed.
#[derive(Clone, Debug, PartialEq)]
pub struct Printed {
    /// Start-up length, from the stderr summary line.
    pub initial: u32,
    /// Compacted length, from the same line.
    pub best: u32,
    /// FNV-1a of the `--csv` block (header plus one row per task).
    pub csv: u64,
    /// `--certify` verdict name, when the job certified.
    pub verdict: Option<&'static str>,
    /// The binding bound of the printed certificate.
    pub binding: Option<u64>,
    /// FNV-1a of the job's artifact, filled in by [`check_job`].
    pub artifact: Option<u64>,
}

/// Parses a job's stdout and stderr; `tasks` is the input's task count.
pub fn parse_printed(stdout: &str, stderr: &str, tasks: usize) -> Result<Printed, String> {
    let (initial, best) = stderr
        .lines()
        .find_map(|l| {
            let rest = &l[l.find(": start-up ")? + ": start-up ".len()..];
            let (a, rest) = rest.split_once(" -> compacted ")?;
            let b = rest.split_whitespace().next()?;
            Some((a.parse().ok()?, b.parse().ok()?))
        })
        .ok_or("no `start-up A -> compacted B` line on stderr")?;
    if !stdout.starts_with("task,pe,start,end\n") {
        return Err("stdout does not start with the CSV header".into());
    }
    let csv_end = stdout
        .match_indices('\n')
        .nth(tasks)
        .map(|(i, _)| i + 1)
        .ok_or("CSV block shorter than the task count")?;
    let csv = &stdout[..csv_end];
    if csv.lines().skip(1).any(|row| row.split(',').count() != 4) {
        return Err("malformed CSV row".into());
    }
    let verdict = stdout.lines().find_map(|l| {
        let v = l.trim_start().strip_prefix("verdict: ")?;
        Some(if v.starts_with("PROVABLY OPTIMAL") {
            "optimal"
        } else if v.starts_with("within") {
            "gap"
        } else {
            "bound_exceeded"
        })
    });
    let binding = stdout.lines().find_map(|l| {
        let v = l.strip_suffix("  <- binding")?;
        v.rsplit(">= ").next()?.trim().parse().ok()
    });
    Ok(Printed {
        initial,
        best,
        csv: fnv(csv.as_bytes()),
        verdict,
        binding,
        artifact: None,
    })
}

/// The in-process result a job must reproduce.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reference {
    pub initial: u32,
    pub best: u32,
    pub csv: u64,
    /// Strongest `ccs_bounds::compute_bounds` floor of the input.
    pub floor: u64,
}

/// Schedules `text` on `machine` in-process with the configuration
/// `flags` implies, on the untraced path.
pub fn reference(text: &str, machine: &str, flags: Flags) -> Reference {
    assert!(!ccs_trace::installed(), "reference run must be untraced");
    let g = ccs_model::parser::parse(text).expect("generated inputs parse");
    let m = ccs_topology::parse_spec(machine).expect("built-in machine spec");
    let r = ccs_core::cyclo_compact(&g, &m, flags.config()).expect("generated inputs are legal");
    Reference {
        initial: r.initial_length,
        best: r.best_length,
        csv: fnv(ccs_schedule::to_csv(&r.graph, &r.schedule).as_bytes()),
        floor: ccs_bounds::compute_bounds(&g, &m).best_value(),
    }
}

/// References for every job of `plan`, computed once per (input,
/// machine, relaxation mode).
pub fn references(plan: &Plan) -> Vec<Reference> {
    let mut cache: BTreeMap<(usize, &str, bool), Reference> = BTreeMap::new();
    plan.jobs
        .iter()
        .map(|j| {
            let strict = j.flags == Flags::Strict;
            *cache
                .entry((j.input, j.machine, strict))
                .or_insert_with(|| reference(&plan.inputs[j.input].text, j.machine, j.flags))
        })
        .collect()
}

/// One entry of the expected-results file.
#[derive(Clone, Debug, PartialEq)]
pub struct Expected {
    /// FNV-1a of the input text the entry was recorded on.
    pub input: u64,
    pub initial: u32,
    pub best: u32,
    pub csv: u64,
    pub verdict: Option<String>,
    /// FNV-1a of the artifact, which passed its validator when recorded.
    pub artifact: Option<u64>,
}

/// The seed the expected-results file was recorded at.
pub const EXPECTED_SEED: u64 = 1;

const EXPECTED_HEADER: &str = "# key input initial best csv verdict artifact";

/// Parses the expected-results file: `#` comment lines, then one line
/// per job with the fields of [`EXPECTED_HEADER`], hashes in hex and
/// `-` for an absent verdict or artifact.
pub fn parse_expected(text: &str) -> Result<BTreeMap<String, Expected>, String> {
    let mut out = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        let hex = |s: &str| u64::from_str_radix(s, 16).ok();
        fn opt(s: &str) -> Option<&str> {
            (s != "-").then_some(s)
        }
        let entry = (|| {
            let [key, input, initial, best, csv, verdict, artifact] = f.as_slice() else {
                return None;
            };
            let e = Expected {
                input: hex(input)?,
                initial: initial.parse().ok()?,
                best: best.parse().ok()?,
                csv: hex(csv)?,
                verdict: opt(verdict).map(str::to_string),
                artifact: match opt(artifact) {
                    Some(a) => Some(hex(a)?),
                    None => None,
                },
            };
            Some((key.to_string(), e))
        })()
        .ok_or_else(|| format!("expected-results line {}: malformed", n + 1))?;
        out.insert(entry.0, entry.1);
    }
    Ok(out)
}

/// Renders the expected-results file.
pub fn render_expected(seed: u64, entries: &BTreeMap<String, Expected>) -> String {
    let mut text = format!(
        "# Expected results of every benchmark job at seed {seed}, recorded by\n\
         # `perfbench --write-expected`.  Hashes are FNV-1a 64.\n{EXPECTED_HEADER}\n"
    );
    for (k, e) in entries {
        text.push_str(&format!(
            "{k} {:016x} {} {} {:016x} {} {}\n",
            e.input,
            e.initial,
            e.best,
            e.csv,
            e.verdict.as_deref().unwrap_or("-"),
            e.artifact.map_or("-".to_string(), |a| format!("{a:016x}")),
        ));
    }
    text
}

/// Checks the files job `i` left in `work` against `reference` and,
/// when given, the expected entry.  Returns what it printed, or every
/// mismatch found.
pub fn check_job(
    work: &Path,
    plan: &Plan,
    i: usize,
    reference: &Reference,
    expected: Option<&Expected>,
) -> Result<Printed, Vec<String>> {
    let job = &plan.jobs[i];
    let paths = job_paths(work, plan, i);
    let read =
        |p: &Path| std::fs::read_to_string(p).map_err(|e| vec![format!("{}: {e}", p.display())]);
    let stdout = read(&paths.stdout)?;
    let stderr = read(&paths.stderr)?;
    let text = read(&input_path(work, plan, job.input))?;
    let tasks = ccs_model::parser::parse(&text)
        .map_err(|e| vec![format!("input does not parse: {e}")])?
        .task_count();
    let mut printed = parse_printed(&stdout, &stderr, tasks).map_err(|e| vec![e])?;
    let mut errors = Vec::new();
    if (printed.initial, printed.best, printed.csv)
        != (reference.initial, reference.best, reference.csv)
    {
        errors.push(format!(
            "schedule differs from the in-process run: lengths {}->{} csv {:016x}, expected {}->{} csv {:016x}",
            printed.initial, printed.best, printed.csv, reference.initial, reference.best, reference.csv
        ));
    }
    if u64::from(printed.best) < reference.floor {
        errors.push(format!(
            "length {} beats the proven floor {}",
            printed.best, reference.floor
        ));
    }
    if job.flags == Flags::Certify {
        match printed.verdict {
            None => errors.push("no certificate verdict printed".into()),
            Some("bound_exceeded") => errors.push("certificate verdict is BoundExceeded".into()),
            Some(_) => {}
        }
        if printed.binding != Some(reference.floor) {
            errors.push(format!(
                "certificate binds at {:?}, in-process floor is {}",
                printed.binding, reference.floor
            ));
        }
    }
    // Only an entry recorded on this very input applies.
    let expected = expected.filter(|e| e.input == fnv(text.as_bytes()));
    if let Some(e) = expected {
        let verdict = printed.verdict.map(str::to_string);
        if (e.initial, e.best, e.csv, &e.verdict)
            != (printed.initial, printed.best, printed.csv, &verdict)
        {
            errors.push(format!(
                "differs from the expected-results file: got {}->{} csv {:016x} verdict {:?}, expected {}->{} csv {:016x} verdict {:?}",
                printed.initial, printed.best, printed.csv, verdict, e.initial, e.best, e.csv, e.verdict
            ));
        }
    }
    if let Some(p) = &paths.artifact {
        match std::fs::read_to_string(p) {
            Err(e) => errors.push(format!("{}: {e}", p.display())),
            Ok(art) => {
                let hash = fnv(art.as_bytes());
                printed.artifact = Some(hash);
                // Bytes identical to an artifact that passed its
                // validator when recorded pass without a rerun: the
                // vendored JSON parser behind `validate_chrome` is
                // quadratic (about 20 s for a 1 MB trace).
                let validated = expected.is_some_and(|e| e.artifact == Some(hash));
                if !validated {
                    if let Err(e) = check_artifact(job.flags, &art) {
                        errors.push(format!("{}: {e}", p.display()));
                    }
                }
            }
        }
    }
    if errors.is_empty() {
        Ok(printed)
    } else {
        Err(errors)
    }
}

/// Validates one artifact with the repository's own validators.
pub fn check_artifact(flags: Flags, text: &str) -> Result<(), String> {
    match flags {
        Flags::Trace => ccs_trace::chrome::validate_chrome(text).map(|_| ()),
        Flags::Report | Flags::ReportDiff => ccs_report::check::check_html(text)
            .map(|_| ())
            .map_err(|e| e.join("; ")),
        Flags::ProfileHeatmap => check_profile(text),
        _ => Ok(()),
    }
}

/// A `--profile` document conserves traffic: its per-edge ledger sums
/// to `total_comm`, and so do the link loads when the machine routes.
pub fn check_profile(text: &str) -> Result<(), String> {
    let v: Value = serde_json::from_str(text).map_err(|e| format!("profile: {e}"))?;
    let sum = |key: &str, field: &str| -> Result<u64, String> {
        v.get(key)
            .and_then(Value::as_array)
            .ok_or(format!("profile: no `{key}` array"))?
            .iter()
            .map(|x| x.get(field).and_then(Value::as_u64))
            .sum::<Option<u64>>()
            .ok_or(format!("profile: `{key}` row without `{field}`"))
    };
    let total = v
        .get("total_comm")
        .and_then(Value::as_u64)
        .ok_or("profile: no `total_comm`")?;
    let ledger = sum("edges", "cost")?;
    if ledger != total {
        return Err(format!("ledger total {ledger} != total_comm {total}"));
    }
    let links = v.get("links").and_then(Value::as_array).map_or(0, Vec::len);
    let link_total = sum("links", "volume")?;
    if links > 0 && link_total != ledger {
        return Err(format!("ledger total {ledger} != link total {link_total}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const STDERR: &str = "Ring 4: start-up 7 -> compacted 3 control steps (2.33x)\n";
    const STDOUT: &str = "task,pe,start,end\nF,1,1,1\nB,2,1,2\nA,3,1,1\n\
        optimality certificate (period 3):\n      cycle_ratio: >= 3  <- binding\n\
        \x20 verdict: PROVABLY OPTIMAL (gap 0)\n";

    #[test]
    fn parses_lengths_csv_and_certificate() {
        let p = parse_printed(STDOUT, STDERR, 3).unwrap();
        assert_eq!((p.initial, p.best), (7, 3));
        assert_eq!(
            p.csv,
            fnv(b"task,pe,start,end\nF,1,1,1\nB,2,1,2\nA,3,1,1\n")
        );
        assert_eq!((p.verdict, p.binding), (Some("optimal"), Some(3)));
    }

    #[test]
    fn a_corrupted_csv_is_flagged() {
        let good = parse_printed(STDOUT, STDERR, 3).unwrap();
        // One placement moved to another PE: same shape, new fingerprint.
        let moved = STDOUT.replace("B,2,1,2", "B,4,1,2");
        let bad = parse_printed(&moved, STDERR, 3).unwrap();
        assert_ne!(good.csv, bad.csv);
        // A truncated or reshaped block does not parse at all.
        assert!(parse_printed("task,pe,start,end\nF,1,1,1\n", STDERR, 3).is_err());
        assert!(parse_printed(&STDOUT.replace("A,3,1,1", "A;3;1;1"), STDERR, 3).is_err());
    }

    #[test]
    fn check_job_flags_a_corrupted_csv_on_disk() {
        let work = std::env::temp_dir().join(format!("perfbench-check-{}", std::process::id()));
        let plan = crate::workload::observe_probe();
        crate::jobs::write_inputs(&work, &plan).unwrap();
        let r = reference(&plan.inputs[0].text, "mesh:4x4", Flags::Plain);
        let g = ccs_model::parser::parse(&plan.inputs[0].text).unwrap();
        let m = ccs_topology::parse_spec("mesh:4x4").unwrap();
        let c = ccs_core::cyclo_compact(&g, &m, Flags::Plain.config()).unwrap();
        let csv = ccs_schedule::to_csv(&c.graph, &c.schedule);
        let paths = job_paths(&work, &plan, 0);
        let stderr = format!(
            "Mesh: start-up {} -> compacted {} control steps\n",
            r.initial, r.best
        );
        std::fs::write(&paths.stderr, &stderr).unwrap();
        std::fs::write(&paths.stdout, &csv).unwrap();
        assert!(check_job(&work, &plan, 0, &r, None).is_ok());
        // Swap the start steps of two rows: still well-formed CSV.
        let mut rows: Vec<&str> = csv.lines().collect();
        let (a, b) = (rows[1].to_string(), rows[rows.len() - 1].to_string());
        let n = rows.len();
        rows[1] = &b;
        rows[n - 1] = &a;
        std::fs::write(&paths.stdout, rows.join("\n") + "\n").unwrap();
        let errs = check_job(&work, &plan, 0, &r, None).unwrap_err();
        assert!(
            errs[0].contains("differs from the in-process run"),
            "{errs:?}"
        );
        std::fs::remove_dir_all(&work).unwrap();
    }

    #[test]
    fn profile_conservation() {
        let ok =
            r#"{"total_comm": 5, "edges": [{"cost": 2}, {"cost": 3}], "links": [{"volume": 5}]}"#;
        assert!(check_profile(ok).is_ok());
        let no_links = r#"{"total_comm": 5, "edges": [{"cost": 5}], "links": []}"#;
        assert!(check_profile(no_links).is_ok());
        let leak = r#"{"total_comm": 5, "edges": [{"cost": 5}], "links": [{"volume": 4}]}"#;
        assert!(check_profile(leak).is_err());
    }

    #[test]
    fn expected_file_round_trips() {
        let mut m = BTreeMap::new();
        m.insert(
            "a@mesh:8x8#plain".to_string(),
            Expected {
                input: 0xdead_beef,
                initial: 9,
                best: 4,
                csv: u64::MAX,
                verdict: Some("gap".into()),
                artifact: None,
            },
        );
        m.insert(
            "b@ring:8#trace".to_string(),
            Expected {
                input: 1,
                initial: 3,
                best: 3,
                csv: 2,
                verdict: None,
                artifact: Some(0xabc),
            },
        );
        assert_eq!(parse_expected(&render_expected(1, &m)).unwrap(), m);
    }
}
