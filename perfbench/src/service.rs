//! `service`: a closed loop against `vab-svcd` processes, cold then warm.
//!
//! The cold phase submits a seeded job set to a daemon on an empty cache
//! directory; the warm phase resubmits the same set to a restarted daemon
//! on the same directory, so every answer must come from `ResultCache`.
//! (A resubmit to the same daemon would be answered from the pool's job
//! table and never reach the cache.) Each of `workers` client threads
//! holds one `vab_svc::Client` connection and waits for each reply before
//! sending its next job, as `vab-svc submit --wait` does for one job.
//!
//! The job mix and the number of concurrent clients are a chosen
//! synthetic load, not measured traffic. The repository's own batch user,
//! `run_all --serve` (`vab_bench::serve::serve_all`), is different: one
//! client submits every registry figure job, then fetches the results.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::RngExt;
use vab_net::RoutePolicy;
use vab_svc::client::{Client, ClientError};
use vab_svc::job::{EngineSpec, EnvSpec, JobSpec, SystemSpec};
use vab_util::hash::fnv1a64;
use vab_util::json::Json;
use vab_util::rng::seeded;

use crate::{cpu_seconds, peak_rss_mb, ready, Lap, Opts, Pass, Spans, Window};

/// Jobs per phase: more than the daemon's default 256-entry memory cache.
const MC_POINTS: usize = 300;
const SWEEPS: usize = 12;
const TOPOLOGIES: usize = 4;
const SCALE_JOBS: usize = 4;

/// The seeded job set: mostly link-budget Monte Carlo points, plus
/// closed-form sweeps, small topologies and a few 4,096-node ocean
/// deployments for a tail. Every job is distinct. The mix is chosen, not
/// taken from traffic: the point jobs are short enough that a pass holds
/// hundreds of round trips. Point ranges are stratified (one draw per
/// equal slice of 50-450 m) so that every seed asks for about the same
/// amount of work.
fn job_mix(seed: u64) -> Vec<JobSpec> {
    let mut rng = seeded(seed);
    let mut jobs = Vec::new();
    let stratum = |i: usize, u: f64| (i as f64 + u) / MC_POINTS as f64;
    for i in 0..MC_POINTS {
        jobs.push(JobSpec::McPoint {
            system: SystemSpec::Vab { n_pairs: 4 },
            env: EnvSpec::River,
            range_m: 50.0 + 400.0 * stratum(i, rng.random_range(0.0..1.0)),
            rotation_deg: rng.random_range(0.0..60.0),
            trials: 25,
            bits: 256,
            seed: seed.wrapping_add(i as u64),
            engine: EngineSpec::LinkBudget,
        });
    }
    for _ in 0..SWEEPS {
        let start: f64 = rng.random_range(10.0..100.0);
        jobs.push(JobSpec::LinkBudgetSweep {
            system: SystemSpec::Vab { n_pairs: 4 },
            env: EnvSpec::Ocean { sea_state: rng.random_range(0..5u8) },
            ranges_m: (0..16).map(|k| start + 25.0 * k as f64).collect(),
        });
    }
    for i in 0..TOPOLOGIES {
        jobs.push(JobSpec::NetTopology {
            n_nodes: 16,
            x_m: 200.0,
            y_m: 100.0,
            standoff_m: 20.0,
            env: EnvSpec::River,
            n_pairs: 4,
            seed: seed.wrapping_add(i as u64),
        });
    }
    for i in 0..SCALE_JOBS {
        let policy = if i % 2 == 0 { RoutePolicy::Vbf } else { RoutePolicy::ClusterHead };
        jobs.push(JobSpec::NetScale { n_nodes: 4096, policy, seed: seed.wrapping_add(i as u64) });
    }
    // Interleave the kinds so the tail jobs are spread over the phase.
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.random_range(0..i + 1));
    }
    order.into_iter().map(|i| jobs[i].clone()).collect()
}

/// A running daemon; killed and reaped if dropped without a shutdown.
struct Daemon {
    child: Child,
    addr: String,
    pid: String,
}

impl Daemon {
    /// Starts `vab-svcd` on `dir` and waits for its first `health` reply.
    fn start(opts: &Opts, dir: &Path, tag: &str) -> Result<Daemon, String> {
        let mut cmd = Command::new(&opts.svcd);
        cmd.args(["--addr", "127.0.0.1:0", "--workers", &opts.workers.to_string()])
            .arg("--cache-dir")
            .arg(dir.join("cache"))
            .arg("--bank-dir")
            .arg(dir.join("banks"))
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if opts.traced {
            cmd.env("VAB_OBS_PATH", dir.join(format!("daemon-{tag}.jsonl")));
        } else {
            cmd.env_remove("VAB_OBS").env_remove("VAB_PROFILE");
        }
        let mut child = cmd.spawn().map_err(|e| format!("spawn {}: {e}", opts.svcd.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let pid = child.id().to_string();
        let mut daemon = Daemon { child, addr: String::new(), pid };
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).map_err(|e| e.to_string())?;
        daemon.addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("unexpected daemon banner {line:?}"))?
            .to_string();
        daemon.client()?.health().map_err(|e| e.to_string())?;
        Ok(daemon)
    }

    fn client(&self) -> Result<Client, String> {
        Client::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// Asks the daemon to stop and waits for it.
    fn stop(mut self) -> Result<(), String> {
        self.client()?.shutdown().map_err(|e| e.to_string())?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        status.success().then_some(()).ok_or_else(|| format!("daemon exited with {status}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// What one job's round trip produced.
#[derive(Default, Clone)]
struct Outcome {
    /// Submit up to the terminal fetch, ms.
    latency_ms: f64,
    /// The submit round trip alone, ms.
    submit_ms: f64,
    /// Terminal status.
    status: String,
    /// The rendered result payload.
    payload: String,
    /// The submit response said `cached` or `deduped`.
    served_without_compute: bool,
    /// `queue_full` answers before the submit was accepted.
    queue_full_retries: u64,
}

fn run_job(client: &mut Client, job: &JobSpec) -> Result<Outcome, ClientError> {
    let mut out = Outcome::default();
    let t0 = Instant::now();
    let resp = loop {
        match client.submit(job, None) {
            Err(ClientError::QueueFull { retry_after_ms }) => {
                out.queue_full_retries += 1;
                std::thread::sleep(Duration::from_millis(retry_after_ms));
            }
            other => break other?,
        }
    };
    out.submit_ms = t0.elapsed().as_secs_f64() * 1e3;
    out.served_without_compute =
        resp.bool_field("cached") == Some(true) || resp.bool_field("deduped") == Some(true);
    let id = resp.str_field("id").unwrap_or_default().to_string();
    let fetched = loop {
        let r = client.fetch_wait(&id, 30_000)?;
        match r.str_field("status") {
            Some("queued") | Some("running") => continue,
            _ => break r,
        }
    };
    out.latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    out.status = fetched.str_field("status").unwrap_or("missing").to_string();
    out.payload = fetched.get("result").map(Json::render).unwrap_or_default();
    Ok(out)
}

/// Runs `jobs` through `clients` closed-loop connections; outcomes in job
/// order, plus the loop's wall seconds.
fn closed_loop(daemon: &Daemon, jobs: &[JobSpec], clients: usize) -> (Vec<Outcome>, f64) {
    let next = AtomicUsize::new(0);
    let unrun = Outcome { status: "not run".into(), ..Outcome::default() };
    let results = Mutex::new(vec![unrun; jobs.len()]);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let Ok(mut client) = daemon.client() else { return };
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    let outcome = run_job(&mut client, job).unwrap_or_else(|e| Outcome {
                        status: format!("client error: {e}"),
                        ..Outcome::default()
                    });
                    results.lock().expect("no client thread panics holding the lock")[i] = outcome;
                }
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    (results.into_inner().expect("client threads joined"), wall)
}

/// What one phase measured: daemon start, closed loop, daemon stop.
struct Phase {
    setup_s: f64,
    outcomes: Vec<Outcome>,
    wall_s: f64,
    /// Daemon CPU over the closed loop.
    cpu_s: f64,
    rss_mb: f64,
    /// The daemon's own `cache_hits` counter (`stats` op).
    cache_hits: f64,
    /// Traced only: `<stage>.{p50_ms,p99_ms,calls,time_s}` from the
    /// daemon's `metrics` op, plus its allocation count.
    layers: Vec<(String, f64)>,
    allocs: f64,
}

/// Starts a daemon on `dir`, runs the job set through it and stops it.
fn run_phase(
    opts: &Opts,
    dir: &Path,
    tag: &str,
    jobs: &[JobSpec],
    stages: &[&str],
    spans: &mut Spans,
) -> Result<Phase, String> {
    let t0 = Instant::now();
    let daemon = Daemon::start(opts, dir, tag)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let cpu0 = cpu_seconds(&daemon.pid);
    let (outcomes, wall_s) =
        spans.run(&format!("svc_{tag}_phase"), || closed_loop(&daemon, jobs, opts.workers));
    let cpu_s = cpu_seconds(&daemon.pid) - cpu0;
    let rss_mb = peak_rss_mb(&daemon.pid);
    let mut client = daemon.client()?;
    let stats = client.stats().map_err(|e| e.to_string())?;
    let mut phase = Phase {
        setup_s,
        outcomes,
        wall_s,
        cpu_s,
        rss_mb,
        cache_hits: stats.f64_field("cache_hits").unwrap_or(0.0),
        layers: Vec::new(),
        allocs: 0.0,
    };
    if opts.traced {
        let metrics = client.metrics().map_err(|e| e.to_string())?;
        let sample = metrics.get("sample").ok_or("metrics reply without a sample")?;
        if let Some(Json::Obj(all)) = sample.get("stages") {
            for (name, h) in all.iter().filter(|(n, _)| stages.contains(&n.as_str())) {
                let field = |key: &str| h.f64_field(key).unwrap_or(0.0);
                phase.layers.push((format!("{name}.p50_ms"), field("p50_ms")));
                phase.layers.push((format!("{name}.p99_ms"), field("p99_ms")));
                phase.layers.push((format!("{name}.calls"), field("count")));
                phase
                    .layers
                    .push((format!("{name}.time_s"), field("mean_ms") * field("count") / 1e3));
            }
        }
        phase.allocs = sample.get("alloc").and_then(|a| a.f64_field("allocs")).unwrap_or(0.0);
    }
    drop(client);
    daemon.stop()?;
    Ok(phase)
}

fn samples(outcomes: &[Outcome], f: impl Fn(&Outcome) -> f64) -> Json {
    Json::Arr(outcomes.iter().map(|o| Json::Num(f(o))).collect())
}

/// One cold + warm cycle on a fresh cache directory.
struct Cycle {
    cold: Phase,
    warm: Phase,
    /// Client CPU over the cycle.
    client_cpu_s: f64,
}

impl Cycle {
    fn run(opts: &Opts, dir: &Path, jobs: &[JobSpec], spans: &mut Spans) -> Result<Cycle, String> {
        let cold_stages = ["svc.job_execute", "svc.queue_wait", "svc.cache_persist"];
        let warm_stages = ["svc.handle", "svc.cache_lookup"];
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let cpu0 = cpu_seconds("self");
        let cold = run_phase(opts, dir, "cold", jobs, &cold_stages, spans)?;
        let warm = run_phase(opts, dir, "warm", jobs, &warm_stages, spans)?;
        let client_cpu_s = cpu_seconds("self") - cpu0;
        let _ = std::fs::remove_dir_all(dir);
        Ok(Cycle { cold, warm, client_cpu_s })
    }

    fn wall_s(&self) -> f64 {
        self.cold.wall_s + self.warm.wall_s
    }

    /// Checks every job and returns the digest of the cold payloads.
    fn check(&self, pass: &mut Pass) -> u64 {
        let mut payloads = String::new();
        for (i, (c, w)) in self.cold.outcomes.iter().zip(&self.warm.outcomes).enumerate() {
            for (label, o) in [("cold", c), ("warm", w)] {
                pass.checks.check(o.status == "done", || format!("{label} job {i}: {}", o.status));
            }
            pass.checks.check(c.payload == w.payload, || format!("job {i}: warm payload differs"));
            payloads.push_str(&c.payload);
            payloads.push('\n');
        }
        fnv1a64(payloads.as_bytes())
    }
}

/// Cycles of cold + warm phases until the window closes, at least one.
pub fn run(opts: &Opts, spans: &mut Spans) -> Pass {
    let jobs = job_mix(opts.seed);
    let mut pass = Pass::default();
    ready(opts, &mut pass);
    let window = Window::open(opts);
    let mut cycles: Vec<Cycle> = Vec::new();
    while cycles.last().is_none_or(|c| window.fits(c.wall_s() + c.cold.setup_s + c.warm.setup_s)) {
        let dir = opts.tmp.join(format!("svc-{}", cycles.len() + 1));
        let cycle = Cycle::run(opts, &dir, &jobs, spans).unwrap_or_else(|e| {
            eprintln!("vab-perfbench service: {e}");
            std::process::exit(1);
        });
        let digest = cycle.check(&mut pass);
        if cycles.is_empty() {
            pass.digest = digest;
        } else {
            let round = cycles.len() + 1;
            pass.checks
                .check(digest == pass.digest, || format!("payloads differ in cycle {round}"));
        }
        cycles.push(cycle);
    }
    let laps = cycles
        .iter()
        .map(|c| Lap { wall_s: c.wall_s(), cpu_s: c.cold.cpu_s + c.warm.cpu_s + c.client_cpu_s });
    pass.laps = vec![("cycle".into(), laps.collect())];
    pass.setup_s = cycles.iter().map(|c| c.cold.setup_s + c.warm.setup_s).collect();
    pass.peak_rss_mb = cycles.iter().map(|c| c.cold.rss_mb.max(c.warm.rss_mb)).collect();

    // Per-layer figures and latency samples come from the first cycle.
    let Cycle { cold, warm, .. } = cycles.swap_remove(0);
    let n = jobs.len() as f64;
    let served = warm.outcomes.iter().filter(|o| o.served_without_compute).count() as f64;
    let retries: u64 =
        cold.outcomes.iter().chain(&warm.outcomes).map(|o| o.queue_full_retries).sum();
    pass.layers.extend(cold.layers);
    pass.layers.extend(warm.layers);
    pass.layers.push(("svc.served_without_compute_ratio".into(), served / n));
    pass.layers.push(("svc.queue_full_retries".into(), retries as f64));
    pass.layers.push(("svc.daemon_cache_hits_warm".into(), warm.cache_hits));
    if opts.traced {
        pass.layers.push(("alloc.total".into(), cold.allocs + warm.allocs));
        if let Some((_, exec_s)) = pass.layers.iter().find(|(k, _)| k == "svc.job_execute.time_s") {
            let busy = exec_s / (cold.wall_s * opts.workers as f64);
            pass.layers.push(("svc.worker_busy_ratio".into(), busy));
        }
    }
    pass.extra = vec![
        ("cold_ms", samples(&cold.outcomes, |o| o.latency_ms)),
        ("warm_ms", samples(&warm.outcomes, |o| o.latency_ms)),
        ("submit_ms", samples(&warm.outcomes, |o| o.submit_ms)),
        ("fetch_wait_ms", samples(&warm.outcomes, |o| o.latency_ms - o.submit_ms)),
        ("cold_wall_s", Json::Num(cold.wall_s)),
        ("warm_wall_s", Json::Num(warm.wall_s)),
        ("jobs", Json::Num(n)),
    ];
    pass
}
