//! `vab-perfbench` — one run of one benchmark workload, in its own process.
//!
//! ```text
//! vab-perfbench <library|service> --seed N --tmp DIR
//!               [--seconds S] [--workers N] [--svcd PATH] [--traced]
//! ```
//!
//! The process builds the workload's inputs from the seed and warms up
//! (set-up, repeated [`SETUP_REPS`] times and timed), then runs rounds of
//! the workload's units until `--seconds` have passed, at least one whole
//! round (`--seconds 0`: exactly one). Every unit is timed on its own and
//! checks its own output. The process prints one JSON report line with
//! every sample: each unit's wall and CPU times, the set-up times and the
//! peak resident set. `perfbench/run.py` drives it, pools the samples of
//! its processes and prints the benchmark result. With `--traced` the run
//! also records the benchmark's own spans around each public call, plus
//! the `vab-obs` stage and allocation deltas over the timed section (the
//! caller sets `VAB_OBS` and `VAB_PROFILE`).

mod obs;
mod service;
mod workloads;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use vab_util::hash::fnv1a64;
use vab_util::json::Json;

/// Parsed command line.
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Scratch directory for caches, banks, traces and daemon state.
    pub tmp: PathBuf,
    /// Length of the measuring window; 0 runs exactly one round.
    pub seconds: f64,
    /// Daemon workers and client threads (`service`).
    pub workers: usize,
    /// The `vab-svcd` binary (`service`).
    pub svcd: PathBuf,
    /// Record spans and `vab-obs` deltas.
    pub traced: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: vab-perfbench <library|service> --seed N --tmp DIR \
         [--seconds S] [--workers N] [--svcd PATH] [--traced]"
    );
    std::process::exit(2);
}

fn parse_opts() -> Opts {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(workload) = argv.first().cloned() else { usage() };
    let mut opts = Opts {
        workload,
        seed: 2023,
        tmp: PathBuf::new(),
        seconds: 0.0,
        workers: 1,
        svcd: PathBuf::new(),
        traced: false,
    };
    let mut i = 1;
    while i < argv.len() {
        let value = || argv.get(i + 1).map(String::as_str).unwrap_or_else(|| usage());
        match argv[i].as_str() {
            "--seed" => opts.seed = value().parse().unwrap_or_else(|_| usage()),
            "--tmp" => opts.tmp = PathBuf::from(value()),
            "--seconds" => opts.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--workers" => opts.workers = value().parse().unwrap_or_else(|_| usage()),
            "--svcd" => opts.svcd = PathBuf::from(value()),
            "--traced" => {
                opts.traced = true;
                i += 1;
                continue;
            }
            _ => usage(),
        }
        i += 2;
    }
    if opts.tmp.as_os_str().is_empty() || opts.workers == 0 || !(opts.seconds >= 0.0) {
        usage();
    }
    opts
}

/// Correctness checks of one pass: how many ran and which failed.
#[derive(Default)]
pub struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Counts one check; records `what` when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// The benchmark's own spans around public calls: seconds per span name,
/// kept in memory until the pass ends. Inert unless traced.
pub struct Spans {
    on: bool,
    totals: Vec<(String, f64)>,
}

impl Spans {
    /// Runs `f` under span `name`.
    pub fn run<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed().as_secs_f64();
        // The bookkeeping allocates; keep it out of the allocation profile.
        let _pause = vab_obs::alloc::pause();
        obs::add(&mut self.totals, format!("span.{name}.time_s"), dur);
        out
    }
}

/// Set-ups per process of an in-process workload.
pub const SETUP_REPS: usize = 5;

/// What one process measured.
#[derive(Default)]
pub struct Pass {
    /// Every unit's timed runs, in unit order (`service`: one unit,
    /// `cycle`, timed over its cold + warm closed loops).
    pub laps: Vec<(String, Vec<Lap>)>,
    /// Set-up times: building the seeded inputs and warming up;
    /// `service`: both daemon starts of a cycle up to their `health` reply.
    pub setup_s: Vec<f64>,
    /// Peak resident set of the process doing the work, MiB (`service`:
    /// the larger of each cycle's two daemons).
    pub peak_rss_mb: Vec<f64>,
    /// Correctness checks.
    pub checks: Checks,
    /// FNV-1a digest of the first round's deterministic output bytes.
    pub digest: u64,
    /// Per-layer figures (traced runs, plus outcome ratios).
    pub layers: Vec<(String, f64)>,
    /// Workload-specific raw data (`service` latency samples).
    pub extra: Vec<(&'static str, Json)>,
    /// `vab-obs` snapshot at the start of the timed section (traced).
    before: Option<vab_obs::metrics::Snapshot>,
}

/// User+system CPU seconds of process `pid` (`self` for this process),
/// from `/proc/<pid>/stat`, all threads included.
pub fn cpu_seconds(pid: &str) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks of 1/100 s.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// User+system CPU seconds of this process, all threads included, living
/// and exited: the quantity `/proc/self/stat` reports in 1/100 s ticks,
/// at nanosecond resolution (`CLOCK_PROCESS_CPUTIME_ID`), fine enough for
/// units of a few milliseconds.
pub fn process_cpu_s() -> f64 {
    use std::ffi::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (64-bit Linux
    // layout), and the clock id is valid, so the call only fills `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set (`VmHWM`) of process `pid`, MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs the set-up `f` [`SETUP_REPS`] times, records each time and
/// returns the last set-up's inputs.
pub fn set_up<T>(pass: &mut Pass, mut f: impl FnMut() -> T) -> T {
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        drop(inputs.take());
        let t0 = Instant::now();
        inputs = Some(f());
        pass.setup_s.push(t0.elapsed().as_secs_f64());
    }
    inputs.expect("SETUP_REPS is not 0")
}

/// Ends set-up: a traced run's `vab-obs` deltas start here.
pub fn ready(opts: &Opts, pass: &mut Pass) {
    if opts.traced {
        pass.before = Some(vab_obs::metrics::Snapshot::capture());
    }
}

/// The measuring window of a run.
pub struct Window {
    start: Instant,
    length: Duration,
}

impl Window {
    /// Opens the window now.
    pub fn open(opts: &Opts) -> Window {
        Window { start: Instant::now(), length: Duration::from_secs_f64(opts.seconds) }
    }

    /// Whether work that last took `last_s` seconds still ends inside the
    /// window.
    pub fn fits(&self, last_s: f64) -> bool {
        self.start.elapsed() + Duration::from_secs_f64(last_s) <= self.length
    }
}

/// The timed part of one unit run: wall and process CPU.
#[derive(Default)]
pub struct Lap {
    /// Wall seconds.
    pub wall_s: f64,
    /// User+system CPU seconds.
    pub cpu_s: f64,
}

impl Lap {
    /// Runs `f` as the unit's timed work.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let cpu0 = process_cpu_s();
        let t0 = Instant::now();
        let out = f();
        self.wall_s += t0.elapsed().as_secs_f64();
        self.cpu_s += process_cpu_s() - cpu0;
        out
    }
}

/// One unit of an in-process workload. `run` times its work with the
/// [`Lap`], checks the output and returns the output bytes, which must be
/// the same in every round.
pub struct Unit<'a> {
    /// Unit name, for the report and check messages.
    pub name: String,
    /// The unit's work.
    pub run: Box<dyn FnMut(&mut Spans, &mut Lap, &mut Checks) -> Vec<u8> + 'a>,
}

/// The timed section of an in-process workload: rounds of `units` until
/// the window closes. A unit starts only if its last time still fits.
pub fn run_rounds(opts: &Opts, pass: &mut Pass, spans: &mut Spans, units: &mut [Unit<'_>]) {
    ready(opts, pass);
    let window = Window::open(opts);
    let mut laps: Vec<Vec<Lap>> = units.iter().map(|_| Vec::new()).collect();
    let mut digests = vec![0u64; units.len()];
    'rounds: for round in 0.. {
        for (i, unit) in units.iter_mut().enumerate() {
            if let Some(last) = laps[i].last() {
                if !window.fits(last.wall_s) {
                    break 'rounds;
                }
            }
            let mut lap = Lap::default();
            let digest = fnv1a64(&(unit.run)(spans, &mut lap, &mut pass.checks));
            laps[i].push(lap);
            if round == 0 {
                digests[i] = digest;
            } else {
                pass.checks.check(digest == digests[i], || {
                    format!("{} output differs in round {}", unit.name, round + 1)
                });
            }
        }
    }
    pass.laps = units.iter().map(|u| u.name.clone()).zip(laps).collect();
    let bytes: Vec<u8> = digests.iter().flat_map(|d| d.to_le_bytes()).collect();
    pass.digest = fnv1a64(&bytes);
}

fn numbers(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

fn laps_json(laps: &[Lap]) -> Json {
    Json::obj([
        ("wall_s", numbers(&laps.iter().map(|l| l.wall_s).collect::<Vec<_>>())),
        ("cpu_s", numbers(&laps.iter().map(|l| l.cpu_s).collect::<Vec<_>>())),
    ])
}

fn main() {
    let opts = parse_opts();
    if opts.traced {
        // run.py points VAB_OBS_PATH into the scratch directory.
        if let Err(e) = vab_obs::init_from_env() {
            eprintln!("vab-perfbench: cannot open the trace sink: {e}");
            std::process::exit(1);
        }
        vab_obs::alloc::init_from_env();
    }
    let mut spans = Spans { on: opts.traced, totals: Vec::new() };
    let mut pass = match opts.workload.as_str() {
        "library" => workloads::library(&opts, &mut spans),
        "service" => service::run(&opts, &mut spans),
        _ => usage(),
    };
    if pass.peak_rss_mb.is_empty() {
        pass.peak_rss_mb.push(peak_rss_mb("self"));
    }
    if let Some(before) = pass.before.take() {
        let after = vab_obs::metrics::Snapshot::capture();
        // A workload's own figures (the daemons' counts for `service`)
        // take precedence over this process's.
        for (key, value) in obs::delta(&before, &after) {
            if !pass.layers.iter().any(|(k, _)| *k == key) {
                pass.layers.push((key, value));
            }
        }
        pass.layers.extend(spans.totals);
        vab_obs::flush();
    }
    let report = Json::obj([
        (
            "units",
            Json::Obj(
                pass.laps.iter().map(|(name, laps)| (name.clone(), laps_json(laps))).collect(),
            ),
        ),
        ("setup_s", numbers(&pass.setup_s)),
        ("peak_rss_mb", numbers(&pass.peak_rss_mb)),
        ("attempted", Json::Num(pass.checks.attempted as f64)),
        ("failures", Json::Arr(pass.checks.failures.into_iter().map(Json::Str).collect())),
        ("digest", Json::Str(format!("{:016x}", pass.digest))),
        ("layers", Json::Obj(pass.layers.into_iter().map(|(k, v)| (k, Json::Num(v))).collect())),
        ("extra", Json::Obj(pass.extra.into_iter().map(|(k, v)| (k.to_string(), v)).collect())),
    ]);
    println!("{}", report.render());
}
