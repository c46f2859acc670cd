//! `vab-svcd` — the simulation daemon.
//!
//! Serves the NDJSON job protocol over localhost TCP, backed by the full
//! figure registry, the persistent result cache, and a bounded worker
//! pool. Prints `listening on <addr>` once ready (scripts parse this to
//! learn the port when started with `:0`), then serves until a client
//! sends `{"op":"shutdown"}` (a clean stop: the pool drains and the final
//! counters are printed) or a signal ends the process. Stdin is not read.
//!
//! ```text
//! vab-svcd [--addr 127.0.0.1:7411] [--workers N] [--queue N]
//!          [--cache-dir results/cache] [--cache-cap N]
//!          [--bank-dir results/banks]
//!          [--fault-seed S --fault-panic-prob P]
//!          [--chaos-seed S --chaos-intensity X]
//!          [--request-budget N]
//! ```
//!
//! `--fault-*` arms deterministic worker-panic injection
//! (`vab_fault::WorkerFaultPlan`) for chaos drills: affected jobs fail
//! typed while the daemon keeps serving. `--chaos-*` arms the full
//! service fault plan (`vab_fault::SvcFaultPlan`): wire drops,
//! truncated/corrupted frames, transient worker panics, and simulated
//! disk-write failures, all seed-pure — the daemon-side half of the F20
//! resilience drill.

use std::path::PathBuf;
use std::time::Duration;

use vab_bench::serve::{bench_executor, open_cache, DEFAULT_CACHE_DIR};
use vab_svc::pool::PoolConfig;
use vab_svc::server::{Server, ServerConfig};

struct Opts {
    addr: String,
    workers: usize,
    queue_cap: usize,
    cache_dir: PathBuf,
    cache_cap: usize,
    bank_dir: PathBuf,
    fault_seed: Option<u64>,
    fault_panic_prob: f64,
    chaos_seed: Option<u64>,
    chaos_intensity: f64,
    request_budget: u64,
}

fn usage(prog: &str) -> ! {
    eprintln!(
        "usage: {prog} [--addr 127.0.0.1:7411] [--workers N] [--queue N] \
         [--cache-dir DIR] [--cache-cap N] [--bank-dir DIR] \
         [--fault-seed S] [--fault-panic-prob P] \
         [--chaos-seed S] [--chaos-intensity X] [--request-budget N]"
    );
    std::process::exit(2);
}

fn parse_opts() -> Opts {
    let argv: Vec<String> = std::env::args().collect();
    let prog = argv.first().cloned().unwrap_or_else(|| "vab-svcd".into());
    let mut opts = Opts {
        addr: "127.0.0.1:7411".into(),
        workers: 0,
        queue_cap: 64,
        cache_dir: PathBuf::from(DEFAULT_CACHE_DIR),
        cache_cap: 256,
        bank_dir: PathBuf::from(vab_replay::DEFAULT_BANK_DIR),
        fault_seed: None,
        fault_panic_prob: 1.0,
        chaos_seed: None,
        chaos_intensity: 0.5,
        request_budget: 0,
    };
    let mut i = 1;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value =
            || -> &str { argv.get(i + 1).map(String::as_str).unwrap_or_else(|| usage(&prog)) };
        match flag {
            "--addr" => opts.addr = value().to_string(),
            "--workers" => opts.workers = value().parse().unwrap_or_else(|_| usage(&prog)),
            "--queue" => opts.queue_cap = value().parse().unwrap_or_else(|_| usage(&prog)),
            "--cache-dir" => opts.cache_dir = PathBuf::from(value()),
            "--cache-cap" => opts.cache_cap = value().parse().unwrap_or_else(|_| usage(&prog)),
            "--bank-dir" => opts.bank_dir = PathBuf::from(value()),
            "--fault-seed" => {
                opts.fault_seed = Some(value().parse().unwrap_or_else(|_| usage(&prog)));
            }
            "--fault-panic-prob" => {
                opts.fault_panic_prob = value().parse().unwrap_or_else(|_| usage(&prog));
            }
            "--chaos-seed" => {
                opts.chaos_seed = Some(value().parse().unwrap_or_else(|_| usage(&prog)));
            }
            "--chaos-intensity" => {
                opts.chaos_intensity = value().parse().unwrap_or_else(|_| usage(&prog));
            }
            "--request-budget" => {
                opts.request_budget = value().parse().unwrap_or_else(|_| usage(&prog));
            }
            "--help" | "-h" => usage(&prog),
            _ => usage(&prog),
        }
        i += 2;
    }
    opts
}

fn main() {
    let opts = parse_opts();
    if let Err(e) = vab_obs::init_from_env() {
        eprintln!("warning: VAB_OBS sink unavailable ({e}); observability disabled");
        vab_obs::disable();
    }
    if vab_obs::alloc::init_from_env() {
        eprintln!("vab-svcd: allocation profiling on (VAB_PROFILE=1)");
    }
    let mut executor = bench_executor().with_bank_dir(&opts.bank_dir);
    if let Some(seed) = opts.fault_seed {
        eprintln!(
            "vab-svcd: fault injection armed (seed={seed}, panic_prob={})",
            opts.fault_panic_prob
        );
        executor =
            executor.with_faults(vab_fault::WorkerFaultPlan::new(seed, opts.fault_panic_prob));
    }
    let chaos = opts.chaos_seed.map(|seed| {
        eprintln!("vab-svcd: chaos plan armed (seed={seed}, intensity={})", opts.chaos_intensity);
        vab_fault::SvcFaultPlan::new(
            seed,
            vab_fault::SvcFaultConfig::with_intensity(opts.chaos_intensity),
        )
    });
    if let Some(plan) = &chaos {
        executor = executor.with_svc_faults(*plan);
    }
    let cache = open_cache(&opts.cache_dir, opts.cache_cap);
    let cfg = ServerConfig {
        addr: opts.addr.clone(),
        pool: PoolConfig {
            workers: opts.workers,
            queue_cap: opts.queue_cap,
            ..PoolConfig::default()
        },
        request_budget: opts.request_budget,
        faults: chaos,
        ..ServerConfig::default()
    };
    let mut server = match Server::start(cfg, executor, cache) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("vab-svcd: cannot bind {}: {e}", opts.addr);
            std::process::exit(1);
        }
    };
    println!("listening on {}", server.addr());
    eprintln!(
        "vab-svcd: {} workers, queue {}, cache {}",
        server.pool().workers(),
        opts.queue_cap,
        opts.cache_dir.display()
    );
    while !server.is_shutting_down() {
        std::thread::sleep(Duration::from_millis(100));
    }
    server.shutdown();
    let (done, failed) = server.pool().totals();
    let cache = server.pool().cache().stats();
    eprintln!(
        "vab-svcd: stopped ({done} done, {failed} failed, cache hit rate {:.0}%)",
        cache.hit_rate() * 100.0
    );
    if vab_obs::enabled() {
        // Freeze the daemon's final counters/stage histograms where the
        // offline tooling (`vab-obsctl report` / `slo --metrics`) looks.
        let path = std::path::Path::new("results/svcd-metrics.json");
        match vab_obs::metrics::Snapshot::capture().write_json(path) {
            Ok(()) => eprintln!("vab-svcd: metrics snapshot written to {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
    vab_obs::flush();
}
