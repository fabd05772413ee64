//! Shared plumbing: the command line, the measurement time box, input
//! generation, statistics and process memory.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::time::Instant;
use traj_data::ground_truth::generate_ground_truth;
use traj_data::{Dataset, GroundTruthConfig, LabeledDataset, SynthSpec};

/// Directory, under the working directory, that receives checkpoints,
/// query files and traces.
pub const WORK_ROOT: &str = ".e2ebench_work";

/// Command-line synopsis.
pub const USAGE: &str = "usage: e2ebench --workload <train|serve|baselines> --seed <n> \
                         --seconds <s> [--trace 0|1] [--scale full|tiny]";

/// The benchmark's workloads (`ledger.json` says why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Train,
    Serve,
    Baselines,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Train => "train",
            Workload::Serve => "serve",
            Workload::Baselines => "baselines",
        }
    }
}

/// Input sizes: `Full` is what the benchmark measures, `Tiny` what the
/// self-test runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Scale {
    pub fn pick<T>(self, full: T, tiny: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Tiny => tiny,
        }
    }
}

/// The parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Workload,
    /// Makes every input; the program under test sees only the inputs.
    pub seed: u64,
    /// Length of the measurement time box.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

impl Args {
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds) = (None, None, None);
        let (mut trace, mut scale) = (false, Scale::Full);
        let mut argv = argv.into_iter();
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(match value.as_str() {
                        "train" => Workload::Train,
                        "serve" => Workload::Serve,
                        "baselines" => Workload::Baselines,
                        other => return Err(format!("unknown workload `{other}`")),
                    })
                }
                "--seed" => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|e| format!("--seed {value}: {e}"))?,
                    )
                }
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .ok()
                            .filter(|s| s.is_finite() && *s > 0.0)
                            .ok_or_else(|| format!("--seconds {value}: not a positive number"))?,
                    )
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace {other}: expected 0 or 1")),
                    }
                }
                "--scale" => {
                    scale = match value.as_str() {
                        "full" => Scale::Full,
                        "tiny" => Scale::Tiny,
                        other => return Err(format!("--scale {other}: expected full or tiny")),
                    }
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace,
            scale,
        })
    }
}

/// The measurement time box: whole units of work run until at least
/// `min_units` are done and `seconds` have passed. In a traced run every
/// second unit is traced, so each traced unit has an untraced neighbour
/// to measure the tracing overhead against.
pub struct TimeBox {
    start: Instant,
    seconds: f64,
    min_units: usize,
    trace: bool,
    started: usize,
}

impl TimeBox {
    pub fn new(args: &Args, min_units: usize) -> Self {
        Self {
            start: Instant::now(),
            seconds: args.seconds,
            min_units: if args.trace {
                min_units.max(2)
            } else {
                min_units
            },
            trace: args.trace,
            started: 0,
        }
    }

    /// Starts the next unit if the box has room, saying whether it is
    /// traced.
    pub fn next_unit(&mut self) -> Option<bool> {
        if self.started >= self.min_units && secs(self.start) >= self.seconds {
            return None;
        }
        self.started += 1;
        Some(self.trace && self.started.is_multiple_of(2))
    }
}

/// Seed of the one hangzhou-like city layout (POIs and corridors) that
/// every run draws from. A new layout per workload seed moves the
/// vocabulary size, the cluster geometry and when training converges so
/// much that the spread across seeds would swamp any change to the code.
const CITY_SEED: u64 = 7;

/// `n` labelled trajectories drawn by `seed` from a hangzhou-like city
/// of `n × 5/4` trips, labelled by the paper's Algorithm 2 (σ = 0.6,
/// λ = 0.7), which drops a few percent as outliers. The seed picks the
/// subset; the layout stays fixed (see [`CITY_SEED`]).
pub fn labelled_city(n: usize, seed: u64) -> LabeledDataset {
    let city = SynthSpec::hangzhou_like(n + n / 4, CITY_SEED).generate();
    let (all, _) = generate_ground_truth(&city.dataset, &city.pois, GroundTruthConfig::default());
    let mut picked: Vec<usize> = (0..all.len()).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let keep = n.min(picked.len());
    for i in 0..keep {
        let j = rng.gen_range(i..picked.len());
        picked.swap(i, j);
    }
    picked.truncate(keep);
    picked.sort_unstable();
    LabeledDataset {
        dataset: Dataset::new(
            all.dataset.name.clone(),
            picked
                .iter()
                .map(|&i| all.dataset.trajectories[i].clone())
                .collect(),
        ),
        labels: picked.iter().map(|&i| all.labels[i]).collect(),
        num_clusters: all.num_clusters,
    }
}

/// Runs `setup` `reps` times; returns the last result and the median
/// CPU time in seconds (see [`Stopwatch`]).
pub fn timed_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Stopwatch::start();
        last = Some(setup()?);
        times.push(t.cpu_s());
    }
    Ok((last.expect("setup ran at least once"), median(&times)))
}

pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Reads two clocks from one start: wall time, and the CPU time of all
/// the process's threads.
///
/// The end-to-end metrics are CPU times. On a shared host the time the
/// hypervisor gives other tenants (steal) lands in wall time but not in
/// CPU time: one training job, same seed, read 10.5–20.3 s wall but
/// 10.0–11.6 s CPU as the host's load changed. Wall times stay in the
/// per-layer table (`wall.*`), where a gain from parallelism shows.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Self {
            wall: Instant::now(),
            cpu: process_cpu_s(),
        }
    }

    pub fn wall_s(&self) -> f64 {
        secs(self.wall)
    }

    pub fn cpu_s(&self) -> f64 {
        process_cpu_s() - self.cpu
    }

    pub fn cpu_ms(&self) -> f64 {
        self.cpu_s() * 1e3
    }
}

/// CPU time consumed so far by every thread of this process, in seconds
/// (`CLOCK_PROCESS_CPUTIME_ID`, nanosecond resolution).
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Quantile `q` of `values`, interpolating linearly between order
/// statistics; NaN when empty.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// This process's scratch directory under [`WORK_ROOT`], removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(args: &Args) -> Result<Self, String> {
        let dir = Path::new(WORK_ROOT).join(format!(
            "{}-{}-{}",
            args.workload.name(),
            args.seed,
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    pub fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn file_bytes(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// FNV-1a over 64-bit words: a cheap fingerprint for determinism checks.
pub fn fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}
