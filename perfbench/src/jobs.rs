//! Running `cyclosched` jobs as child processes, one at a time, and
//! reading back what each wrote.

use crate::check::Fnv;
use crate::workload::Plan;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// `RAYON_NUM_THREADS` every child gets, and the in-process runs too.
/// One thread: the vendored rayon spawns scoped threads on every
/// parallel call, so on a shared 2-core host two threads made
/// `manype-compact` jobs about 2.4 times slower than the serial scan,
/// and their timings spread 20-25% from run to run.  The traced run
/// times the parallel scan on its own (`core.parallel_scan_x`).
pub const RAYON_THREADS: usize = 1;

/// Threads of the traced run's parallel-scan probe: the machine's
/// parallelism, capped at 2.
pub fn probe_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// One finished job.
#[derive(Clone, Debug)]
pub struct JobRun {
    /// Spawn to reap, in milliseconds.
    pub ms: f64,
    /// The child's max resident set size, in KiB.
    pub max_rss_kb: u64,
    /// Exit code; `None` when a signal ended it.
    pub code: Option<i32>,
    /// FNV-1a of stdout plus every artifact, in that order.
    pub output_hash: u64,
    /// Stdout plus artifact bytes.
    pub output_bytes: u64,
}

impl JobRun {
    pub fn exited_ok(&self) -> bool {
        self.code == Some(0)
    }
}

/// Where a job's files go inside the work directory.
pub struct JobPaths {
    pub stdout: PathBuf,
    pub stderr: PathBuf,
    pub artifact: Option<PathBuf>,
}

pub fn job_paths(work: &Path, plan: &Plan, i: usize) -> JobPaths {
    let dir = work.join("out");
    JobPaths {
        stdout: dir.join(format!("{i}.stdout")),
        stderr: dir.join(format!("{i}.stderr")),
        artifact: plan.jobs[i]
            .flags
            .artifact()
            .map(|ext| dir.join(format!("{i}.{ext}"))),
    }
}

pub fn input_path(work: &Path, plan: &Plan, input: usize) -> PathBuf {
    work.join("in")
        .join(format!("{}.csdfg", plan.inputs[input].name))
}

/// Writes every input of `plan` under `work/in`, replacing what was
/// there, and makes `work/out`.
pub fn write_inputs(work: &Path, plan: &Plan) -> std::io::Result<()> {
    let dir = work.join("in");
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    std::fs::create_dir_all(work.join("out"))?;
    for i in 0..plan.inputs.len() {
        std::fs::write(input_path(work, plan, i), &plan.inputs[i].text)?;
    }
    Ok(())
}

/// The full argument list of job `i`.
pub fn job_args(work: &Path, plan: &Plan, i: usize) -> Vec<String> {
    let job = &plan.jobs[i];
    let paths = job_paths(work, plan, i);
    let mut args = vec![
        "schedule".to_string(),
        input_path(work, plan, job.input).display().to_string(),
        "--machine".to_string(),
        job.machine.to_string(),
        "--csv".to_string(),
    ];
    if let Some(a) = &paths.artifact {
        args.extend(job.flags.args(a));
    } else {
        args.extend(job.flags.args(Path::new("")));
    }
    args
}

/// Runs job `i` of `plan` to completion.
pub fn run_job(bin: &Path, work: &Path, plan: &Plan, i: usize) -> std::io::Result<JobRun> {
    let paths = job_paths(work, plan, i);
    let args = job_args(work, plan, i);
    let run = spawn_and_reap(bin, &args, &paths.stdout, &paths.stderr)?;
    let mut h = Fnv::new();
    let mut bytes = 0u64;
    for p in std::iter::once(&paths.stdout).chain(paths.artifact.as_ref()) {
        // A missing artifact shows up as a hash mismatch, not an error.
        if let Ok(data) = std::fs::read(p) {
            h.write(&data);
            bytes += data.len() as u64;
        }
    }
    Ok(JobRun {
        output_hash: h.finish(),
        output_bytes: bytes,
        ..run
    })
}

/// Spawns `bin args` with stdout and stderr sent to files, waits for
/// it and returns its wall time, max RSS and exit code.
pub fn spawn_and_reap(
    bin: &Path,
    args: &[String],
    stdout: &Path,
    stderr: &Path,
) -> std::io::Result<JobRun> {
    let out = File::create(stdout)?;
    let err = File::create(stderr)?;
    let t0 = Instant::now();
    let child = Command::new(bin)
        .args(args)
        .env("RAYON_NUM_THREADS", RAYON_THREADS.to_string())
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err)
        .spawn()?;
    let (code, max_rss_kb) = reap(child)?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    Ok(JobRun {
        ms,
        max_rss_kb,
        code,
        output_hash: 0,
        output_bytes: 0,
    })
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
    /// `long` counters of which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    pub struct Rusage {
        pub utime: [i64; 2],
        pub stime: [i64; 2],
        pub maxrss: i64,
        pub rest: [i64; 13],
    }

    extern "C" {
        pub fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    }
}

/// Waits for `child` with `wait4`, which also returns its resource
/// usage; std's `wait` does not.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn reap(child: std::process::Child) -> std::io::Result<(Option<i32>, u64)> {
    let pid = i32::try_from(child.id()).expect("Linux pids fit in i32");
    let mut status = 0i32;
    let mut usage = sys::Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` is our own unreaped child (std reaps only in
        // `wait`, which is never called on it), and both pointers are
        // to live, writable locals of the exact C layout `wait4`
        // expects on 64-bit Linux.
        let r = unsafe { sys::wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    // WIFEXITED / WEXITSTATUS.
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok((code, u64::try_from(usage.maxrss).unwrap_or(0)))
}

/// Portable fallback: no RSS reading.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn reap(mut child: std::process::Child) -> std::io::Result<(Option<i32>, u64)> {
    let status = child.wait()?;
    Ok((status.code(), 0))
}
