//! The ruf95 benchmark: three workloads, end-to-end metrics with tracing
//! off, and a traced run that breaks the time down by layer.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload cold-spectrum|edit-session|campaign-slice \
//!     --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --write-reference
//! ```
//!
//! Run it from the repository root. Scratch state (disk stores, campaign
//! state directories, Chrome traces) goes under
//! `.bench_work/`. The last line of standard output is the JSON result;
//! see `benchmark/METRICS.md` for the metrics and what each layer metric
//! should move.

mod campaign;
mod cold;
mod corpus;
mod metrics;
mod reference;
mod session;
mod speed;
mod stats;
mod trace;

use metrics::{Layers, Metric};
use speed::{Probe, Timing};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Recorder;

/// Scratch directory, relative to the repository root.
const WORK_DIR: &str = ".bench_work";
/// How many times each workload times its set-up before the timed loop,
/// and again after it; `setup_s` is the median of all of them.
pub const SETUPS_EACH_END: usize = 4;

/// What a workload run needs to know.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    /// This run's private scratch directory.
    pub work: PathBuf,
}

/// Result of an untraced run.
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Result of a traced run.
pub struct Traced {
    pub attempted: u64,
    pub failed: u64,
    pub layers: Layers,
    /// The count metrics of a second, recorder-off pass over the same
    /// operations, for the determinism check.
    pub repeat: Layers,
    pub recorder: Recorder,
}

/// Whole passes over a workload's inputs that make a run of about
/// `seconds`, given the nominal duration of one pass on the reference
/// box (two shared cores). The count depends only on `seconds`, so
/// every run of a workload does the same amount of each kind of work,
/// whatever the seed or the machine's speed, and its sample count (and
/// so its tail percentile) stays fixed.
pub fn passes(seconds: f64, nominal_pass_s: f64) -> usize {
    ((seconds / nominal_pass_s).round() as usize).max(1)
}

/// The set-up times of one run. Set-ups are timed at both ends of the
/// run, so that their median averages over drifts in the machine's
/// speed during the run instead of catching one moment of it, and each
/// is probed before and after so it is reported at the reference speed
/// like every other time (see [`speed`]).
pub struct SetupTimes(Vec<Timing>);

impl SetupTimes {
    /// Runs `setup` [`SETUPS_EACH_END`] times before the timed loop and
    /// returns the last product; `discard` releases the others.
    pub fn before<T>(
        probe: &mut Probe,
        mut setup: impl FnMut() -> T,
        mut discard: impl FnMut(T),
    ) -> (T, SetupTimes) {
        let mut times = SetupTimes(Vec::new());
        let mut last = times.time(probe, &mut setup);
        for _ in 1..SETUPS_EACH_END {
            discard(last);
            last = times.time(probe, &mut setup);
        }
        (last, times)
    }

    /// Runs `setup` [`SETUPS_EACH_END`] more times after the timed loop,
    /// releasing each product with `discard`, and returns the median of
    /// all the run's set-up times in seconds at the reference speed.
    pub fn after<T>(
        mut self,
        probe: &mut Probe,
        mut setup: impl FnMut() -> T,
        mut discard: impl FnMut(T),
    ) -> f64 {
        for _ in 0..SETUPS_EACH_END {
            let product = self.time(probe, &mut setup);
            discard(product);
        }
        stats::median(&probe.scaled_all(&self.0)).expect("at least one set-up") / 1e3
    }

    fn time<T>(&mut self, probe: &mut Probe, setup: &mut impl FnMut() -> T) -> T {
        probe.sample();
        let t = Instant::now();
        let product = setup();
        self.0.push(probe.stop(t));
        probe.sample();
        product
    }
}

const USAGE: &str = "usage: benchmark --workload cold-spectrum|edit-session|campaign-slice \
                     --seed N --seconds S --trace 0|1\n       benchmark --write-reference";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("want an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("want a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("want 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Makes every thread allocate from glibc's one main malloc arena.
///
/// edit-session runs the client and the daemon in one process, and the
/// daemon serves each connection on a thread of its own that outlives
/// the daemon's shutdown by a moment. With an arena per thread, whether
/// a respawned daemon's thread gets a fresh arena or reuses the old one
/// depends on that moment, and the process's peak RSS moved by a third
/// from run to run. One arena makes the peak depend on the work alone.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn single_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    /// `M_ARENA_MAX` in glibc's `malloc.h`.
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only changes allocator settings; it is called
    // before this process starts any thread.
    if unsafe { mallopt(M_ARENA_MAX, 1) } == 0 {
        eprintln!("benchmark: mallopt(M_ARENA_MAX, 1) failed");
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn single_malloc_arena() {}

fn main() -> ExitCode {
    single_malloc_arena();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--write-reference"] {
        return match reference::write_all() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("benchmark: reference not written: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !["cold-spectrum", "edit-session", "campaign-slice"].contains(&args.workload.as_str()) {
        eprintln!("benchmark: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    }
    let work = PathBuf::from(WORK_DIR).join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("benchmark: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        work: work.clone(),
    };
    let (attempted, failed, metrics) = if args.trace {
        let t = match args.workload.as_str() {
            "cold-spectrum" => cold::trace(&run),
            "edit-session" => session::trace(&run),
            _ => campaign::trace(&run),
        };
        (t.attempted, t.failed, finish_trace(&args, t))
    } else {
        let m = match args.workload.as_str() {
            "cold-spectrum" => cold::measure(&run),
            "edit-session" => session::measure(&run),
            _ => campaign::measure(&run),
        };
        (m.attempted, m.failed, m.metrics)
    };
    let _ = std::fs::remove_dir_all(&work);
    if failed > 0 {
        eprintln!("benchmark: {failed} of {attempted} operations failed");
    }
    println!("{}", metrics::result_line(attempted, failed, &metrics));
    ExitCode::SUCCESS
}

/// Writes the Chrome trace, checks that the counts repeat across the
/// run's two passes, and returns the per-layer metrics.
fn finish_trace(args: &Args, mut t: Traced) -> Vec<Metric> {
    let dir = PathBuf::from(WORK_DIR).join("traces");
    let trace_file = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&trace_file, t.recorder.chrome_json()));
    match written {
        Ok(()) => eprintln!("benchmark: Chrome trace in {}", trace_file.display()),
        Err(e) => eprintln!(
            "benchmark: trace not written to {}: {e}",
            trace_file.display()
        ),
    }
    t.layers
        .set("error_frac", t.failed as f64 / t.attempted.max(1) as f64);
    for m in t.layers.check_determinism(&t.repeat) {
        eprintln!("benchmark: count not repeated across the two passes: {m}");
    }
    t.layers.into_metrics()
}
