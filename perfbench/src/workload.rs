//! The three workloads: which `.csdfg` inputs a seed generates, and
//! which `cyclosched schedule` jobs run on them.

use ccs_core::{CompactConfig, RemapConfig, RemapMode, ScanPolicy};
use ccs_workloads::random::{random_csdfg, RandomGraphConfig};
use std::path::Path;

/// Every workload name, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["manype-compact", "large-certify", "catalog-observe"];

/// Machines of `manype-compact`: the 64-PE mesh takes the serial
/// candidate scan, the rest (>= 128 PEs) the parallel chunked scan.
const MANYPE_MACHINES: [&str; 5] = [
    "mesh:8x8",
    "complete:128",
    "mesh:16x16",
    "hypercube:8",
    "mesh:32x32",
];
const MANYPE_SIZES: [usize; 5] = [48, 60, 72, 84, 96];
const MANYPE_JOBS: usize = 150;
const MANYPE_DENSITY: f64 = 0.03;

const LARGE_MACHINES: [&str; 3] = ["mesh:8x8", "complete:64", "hypercube:6"];
/// `large-certify` graph `i` has `LARGE_MIN_NODES + LARGE_NODE_STEP * i`
/// nodes.
const LARGE_GRAPHS: usize = 60;
const LARGE_MIN_NODES: usize = 100;
const LARGE_NODE_STEP: usize = 2;

/// The paper's 8-PE suite plus a 16-PE mesh.
const CATALOG_MACHINES: [&str; 6] = [
    "linear:8",
    "ring:8",
    "complete:8",
    "mesh:4x2",
    "hypercube:3",
    "mesh:4x4",
];

/// The flag set one job passes after `schedule <graph> --machine M --csv`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flags {
    Plain,
    Strict,
    Certify,
    Trace,
    ProfileHeatmap,
    Explain,
    Report,
    ReportDiff,
}

impl Flags {
    /// The fixed cycle of `catalog-observe`.
    pub const OBSERVE_CYCLE: [Flags; 7] = [
        Flags::Plain,
        Flags::Certify,
        Flags::Trace,
        Flags::ProfileHeatmap,
        Flags::Explain,
        Flags::Report,
        Flags::ReportDiff,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Flags::Plain => "plain",
            Flags::Strict => "strict",
            Flags::Certify => "certify",
            Flags::Trace => "trace",
            Flags::ProfileHeatmap => "profile-heatmap",
            Flags::Explain => "explain",
            Flags::Report => "report",
            Flags::ReportDiff => "report-diff",
        }
    }

    /// File extension of the artifact the job writes, if any.
    pub fn artifact(self) -> Option<&'static str> {
        match self {
            Flags::Trace => Some("trace.json"),
            Flags::ProfileHeatmap => Some("profile.json"),
            Flags::Report => Some("report.html"),
            Flags::ReportDiff => Some("diff.html"),
            _ => None,
        }
    }

    /// Command-line flags after `--csv`; `artifact` is the path the
    /// artifact goes to.
    pub fn args(self, artifact: &Path) -> Vec<String> {
        let path = artifact.display().to_string();
        let flags: &[&str] = match self {
            Flags::Plain => &[],
            Flags::Strict => &["--strict"],
            Flags::Certify => &["--certify"],
            Flags::Trace => &["--trace", &path],
            Flags::ProfileHeatmap => &["--profile", &path, "--heatmap"],
            Flags::Explain => &["--explain"],
            Flags::Report => &["--report", &path],
            Flags::ReportDiff => &["--report-diff", &path, "--diff-policy", "reference"],
        };
        flags.iter().map(|s| s.to_string()).collect()
    }

    /// Whether the binary records the decision stream for this job
    /// (the scheduler then takes its probed `Tls` path).
    pub fn recorded(self) -> bool {
        matches!(
            self,
            Flags::Trace
                | Flags::ProfileHeatmap
                | Flags::Explain
                | Flags::Report
                | Flags::ReportDiff
        )
    }

    /// Whether the binary builds the optimality certificate.
    pub fn certifies(self) -> bool {
        matches!(self, Flags::Certify | Flags::Report | Flags::ReportDiff)
    }

    /// The scheduler configuration `cyclosched` derives from these
    /// flags (its defaults: 64 passes, one row per pass).
    pub fn config(self) -> CompactConfig {
        CompactConfig {
            passes: 64,
            remap: RemapConfig {
                mode: if self == Flags::Strict {
                    RemapMode::WithoutRelaxation
                } else {
                    RemapMode::WithRelaxation
                },
                rows_per_pass: 1,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// The configuration of the `--report-diff` comparison run.
    pub fn diff_config(self) -> CompactConfig {
        let mut cfg = self.config();
        cfg.remap.scan = ScanPolicy::Reference;
        cfg
    }
}

/// One generated input file.
#[derive(Clone, Debug, PartialEq)]
pub struct Input {
    /// File stem, unique in the plan.
    pub name: String,
    /// The `.csdfg` text the binary reads.
    pub text: String,
}

/// One `cyclosched schedule` job.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    /// Index into [`Plan::inputs`].
    pub input: usize,
    pub machine: &'static str,
    pub flags: Flags,
}

/// Everything one workload runs for one seed.  A run goes through the
/// job list in order, repeating it until the time is up.
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    pub inputs: Vec<Input>,
    pub jobs: Vec<Job>,
}

impl Plan {
    /// Stable name of job `i`: input, machine and flag set.
    pub fn key(&self, i: usize) -> String {
        let j = &self.jobs[i];
        format!(
            "{}@{}#{}",
            self.inputs[j.input].name,
            j.machine,
            j.flags.name()
        )
    }
}

/// SplitMix64 step: derives independent graph seeds from the workload
/// seed.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seeded Fisher-Yates shuffle, so that the jobs a run reaches after
/// its first whole cycle are an unbiased sample of the job list.
fn shuffle<T>(xs: &mut [T], seed: u64) {
    for i in (1..xs.len()).rev() {
        let j = (mix(seed, u64::MAX - i as u64) % (i as u64 + 1)) as usize;
        xs.swap(i, j);
    }
}

fn random_input(name: String, config: RandomGraphConfig, seed: u64) -> Input {
    Input {
        name,
        text: ccs_model::parser::write(&random_csdfg(config, seed)),
    }
}

/// The plan of `workload` for `seed`, or `None` for an unknown name.
pub fn plan(workload: &str, seed: u64) -> Option<Plan> {
    let mut inputs = Vec::new();
    let mut jobs = Vec::new();
    match workload {
        // Sparse 48-96 node graphs, every size on every machine six
        // times; every fourth job strict.
        "manype-compact" => {
            for i in 0..MANYPE_JOBS {
                let nodes = MANYPE_SIZES[i % MANYPE_SIZES.len()];
                let config = RandomGraphConfig {
                    nodes,
                    back_edges: nodes / 3,
                    forward_density: MANYPE_DENSITY,
                    ..Default::default()
                };
                inputs.push(random_input(
                    format!("s{seed}-m{i:03}-n{nodes}"),
                    config,
                    mix(seed, i as u64),
                ));
                jobs.push(Job {
                    input: i,
                    machine: MANYPE_MACHINES[(i / MANYPE_SIZES.len()) % MANYPE_MACHINES.len()],
                    flags: if i % 4 == 3 {
                        Flags::Strict
                    } else {
                        Flags::Plain
                    },
                });
            }
        }
        // Sparse graphs (about five edges per node); each runs plain
        // and with `--certify` on one machine.
        "large-certify" => {
            for i in 0..LARGE_GRAPHS {
                let nodes = LARGE_MIN_NODES + LARGE_NODE_STEP * i;
                let config = RandomGraphConfig {
                    nodes,
                    back_edges: nodes / 3,
                    forward_density: 8.0 / nodes as f64,
                    ..Default::default()
                };
                inputs.push(random_input(
                    format!("s{seed}-l{i:02}-n{nodes}"),
                    config,
                    mix(seed, i as u64),
                ));
                let machine = LARGE_MACHINES[i % LARGE_MACHINES.len()];
                for flags in [Flags::Plain, Flags::Certify] {
                    jobs.push(Job {
                        input: i,
                        machine,
                        flags,
                    });
                }
            }
        }
        // Every catalogue kernel on every machine, each pair through
        // the whole flag cycle; the seed rotates the pair order.
        "catalog-observe" => {
            for w in ccs_workloads::all_workloads() {
                inputs.push(Input {
                    name: w.name.to_string(),
                    text: ccs_model::parser::write(&w.build()),
                });
            }
            let pairs: Vec<(usize, &'static str)> = (0..inputs.len())
                .flat_map(|i| CATALOG_MACHINES.iter().map(move |&m| (i, m)))
                .collect();
            let offset = (seed % pairs.len() as u64) as usize;
            for k in 0..pairs.len() {
                let (input, machine) = pairs[(k + offset) % pairs.len()];
                for flags in Flags::OBSERVE_CYCLE {
                    jobs.push(Job {
                        input,
                        machine,
                        flags,
                    });
                }
            }
        }
        _ => return None,
    }
    if workload != "catalog-observe" {
        shuffle(&mut jobs, seed);
    }
    Some(Plan { inputs, jobs })
}

/// The traced run's observe probe: `elliptic` on `mesh:4x4` through the
/// whole flag cycle.  Layers a workload's own jobs never call are read
/// from these jobs.
pub fn observe_probe() -> Plan {
    let w = ccs_workloads::workload_by_name("elliptic").expect("elliptic is in the catalogue");
    Plan {
        inputs: vec![Input {
            name: "probe-elliptic".to_string(),
            text: ccs_model::parser::write(&w.build()),
        }],
        jobs: Flags::OBSERVE_CYCLE
            .iter()
            .map(|&flags| Job {
                input: 0,
                machine: "mesh:4x4",
                flags,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_in_the_seed() {
        for w in WORKLOADS {
            assert_eq!(plan(w, 7), plan(w, 7), "{w}");
        }
    }

    #[test]
    fn random_inputs_differ_across_seeds() {
        for w in ["manype-compact", "large-certify"] {
            let (a, b) = (plan(w, 1).unwrap(), plan(w, 2).unwrap());
            assert_eq!(a.jobs.len(), b.jobs.len());
            for (x, y) in a.inputs.iter().zip(&b.inputs) {
                assert_ne!(x.text, y.text, "{w}: {} vs {}", x.name, y.name);
            }
        }
        let (a, b) = (
            plan("catalog-observe", 1).unwrap(),
            plan("catalog-observe", 2).unwrap(),
        );
        assert_ne!(a.jobs, b.jobs, "the seed rotates the catalogue job order");
    }

    #[test]
    fn keys_are_unique_within_a_plan() {
        for w in WORKLOADS {
            let p = plan(w, 3).unwrap();
            let mut keys: Vec<String> = (0..p.jobs.len()).map(|i| p.key(i)).collect();
            keys.sort();
            keys.dedup();
            assert_eq!(keys.len(), p.jobs.len(), "{w}");
        }
    }

    #[test]
    fn job_mix_matches_the_workload_descriptions() {
        let p = plan("manype-compact", 1).unwrap();
        let strict = p.jobs.iter().filter(|j| j.flags == Flags::Strict).count();
        assert!(strict > 0 && strict < p.jobs.len());
        for m in MANYPE_MACHINES {
            assert!(p.jobs.iter().any(|j| j.machine == m), "{m} unused");
        }
        let p = plan("large-certify", 1).unwrap();
        let certify = p.jobs.iter().filter(|j| j.flags == Flags::Certify).count();
        assert_eq!(2 * certify, p.jobs.len(), "half the jobs certify");
        let p = plan("catalog-observe", 1).unwrap();
        assert_eq!(p.jobs.len(), 10 * CATALOG_MACHINES.len() * 7);
        for (i, j) in p.jobs.iter().enumerate() {
            assert_eq!(
                j.flags,
                Flags::OBSERVE_CYCLE[i % 7],
                "flags follow the cycle"
            );
        }
    }
}
