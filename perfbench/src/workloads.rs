//! The in-process workload, `library`: three parts that call the layers'
//! public functions directly.
//!
//! - link budget: the registry figures of the link-budget Monte Carlo
//!   engine, where `sim.linkbudget_trial` and `fec.viterbi` do the work;
//! - waveform: the sample-level points of F16 and FR1 on synthetic and
//!   replayed channels, where channel application does the work;
//! - ocean: 65,536-node deployments, where only `vab-net` works.
//!
//! Each part contributes its set-up and its units; one round runs every
//! unit of the three parts.

use std::cell::RefCell;

use vab_bench::experiments::{self, cell_f64, ExpConfig, ExperimentFn};
use vab_link::frame::LinkConfig;
use vab_net::{RoutePolicy, ScaleNetwork, ScaleReport, ScaleSpec};
use vab_replay::{BankSpec, WaterSpec};
use vab_sim::metrics::CsvTable;
use vab_sim::montecarlo::{run_point_with_source, MonteCarloConfig, PointResult, TrialEngine};
use vab_sim::{BankSource, Scenario, SyntheticSource, SystemKind};
use vab_util::units::Meters;

use crate::{run_rounds, set_up, Checks, Opts, Pass, Spans, Unit};

/// Registry figures driven by the link-budget Monte Carlo engine.
const LINKBUDGET_FIGURES: [&str; 15] = [
    "t1_sota_comparison",
    "f6_snr_vs_range",
    "f7_ber_vs_range",
    "f8_orientation",
    "f9_scalability",
    "f10_ocean",
    "f13_throughput",
    "f15_rate_adaptation",
    "f17_campaign",
    "f18_modulation_comparison",
    "f19_fault_sweep",
    "a2_ablation_fec",
    "a3_ablation_cancellation",
    "a4_ablation_failures",
    "a6_ablation_interleaver",
];

/// Closed-form tables that ride along (milliseconds each).
const CLOSED_FORM_TABLES: [&str; 7] = [
    "t2_power_budget",
    "t3_link_budget",
    "f11_modulation_depth",
    "f12_harvesting",
    "f14_multinode",
    "a1_ablation_delay",
    "a5_tolerance_yield",
];

fn registry(names: &[&str]) -> Vec<(&'static str, ExperimentFn)> {
    let all = experiments::all_experiments_lazy();
    names
        .iter()
        .map(|want| *all.iter().find(|(n, _)| n == want).expect("figure is in the registry"))
        .collect()
}

/// The CSV bytes of one table, prefixed with its name.
fn csv_bytes(name: &str, table: &CsvTable) -> Vec<u8> {
    let mut bytes = name.as_bytes().to_vec();
    bytes.extend_from_slice(table.to_csv().as_bytes());
    bytes
}

/// The link-budget part's inputs: the quick configuration with the
/// workload seed and the registry entries. Warms up on the closed-form
/// tables.
struct LinkBudget {
    cfg: ExpConfig,
    figures: Vec<(&'static str, ExperimentFn)>,
    tables: Vec<(&'static str, ExperimentFn)>,
}

impl LinkBudget {
    fn set_up(opts: &Opts) -> LinkBudget {
        let cfg = ExpConfig { seed: opts.seed, ..ExpConfig::quick() };
        let tables = registry(&CLOSED_FORM_TABLES);
        for (_, run) in &tables {
            run(&cfg);
        }
        LinkBudget { cfg, figures: registry(&LINKBUDGET_FIGURES), tables }
    }

    /// One unit per figure, called through `vab_bench::experiments` with
    /// the CSVs kept in memory, plus one for the closed-form tables.
    fn units(&self) -> Vec<Unit<'_>> {
        let cfg = &self.cfg;
        let mut units: Vec<Unit> = self
            .figures
            .iter()
            .map(|&(name, run)| Unit {
                name: name.to_string(),
                run: Box::new(move |spans, lap, checks| {
                    let table = lap.time(|| spans.run(&format!("bench.{name}"), || run(cfg)));
                    check_figure(checks, name, &table);
                    csv_bytes(name, &table)
                }),
            })
            .collect();
        let tables = &self.tables;
        units.push(Unit {
            name: "closed_form_tables".into(),
            run: Box::new(move |spans, lap, checks| {
                let out: Vec<(&str, CsvTable)> = lap.time(|| {
                    spans.run("bench.closed_form_tables", || {
                        tables.iter().map(|(name, run)| (*name, run(cfg))).collect()
                    })
                });
                let mut bytes = Vec::new();
                for (name, table) in &out {
                    check_figure(checks, name, table);
                    bytes.extend(csv_bytes(name, table));
                }
                bytes
            }),
        });
        units
    }
}

/// Every table has rows, and the bounds the repository's figure tests
/// assert hold.
fn check_figure(c: &mut Checks, name: &str, t: &CsvTable) {
    c.check(!t.is_empty(), || format!("{name} produced no rows"));
    if t.is_empty() {
        return;
    }
    match name {
        // `t1_shows_order_of_magnitude_gain` asserts these three cells; its
        // "ratio" reads column 4, the VAB battery-free range. The true range
        // ratio (column 5) is not checked: at 25 trials the PAB range
        // estimate spans 15-47 m across seeds and the ratio reads 7.5 at
        // seed 21.
        "t1_sota_comparison" => {
            let (pab, vab, free) = (cell_f64(t, 0, 2), cell_f64(t, 2, 2), cell_f64(t, 2, 4));
            c.check(pab > 5.0 && pab < 80.0, || format!("T1 PAB range {pab} m outside (5, 80)"));
            c.check(vab > 250.0, || format!("T1 VAB range {vab} m not above 250"));
            c.check(free > 8.0, || format!("T1 VAB battery-free range {free} m not above 8"));
        }
        // `f7_ber_crosses_1e3_beyond_300m_at_100bps`: row 5 is 300 m.
        "f7_ber_vs_range" => {
            let (ber_100, ber_1k) = (cell_f64(t, 5, 1), cell_f64(t, 5, 3));
            c.check(ber_100 <= 2e-3, || format!("F7 BER {ber_100} at 300 m, 100 bps"));
            c.check(ber_1k >= ber_100, || {
                format!("F7 BER at 1 kbps {ber_1k} below 100 bps {ber_100}")
            });
        }
        "t2_power_budget" => {
            let total = cell_f64(t, t.len() - 2, 3);
            c.check(total > 1.0 && total < 20.0, || format!("T2 backscatter total {total} uW"));
        }
        "t3_link_budget" => c.check(t.len() == 10, || "T3 lacks budget terms".into()),
        "f8_orientation" => {
            let vab_drop = cell_f64(t, 5, 1) - cell_f64(t, 8, 1);
            let conv_drop = cell_f64(t, 5, 3) - cell_f64(t, 8, 3);
            c.check(vab_drop < 5.0, || format!("F8 VAB dropped {vab_drop} dB at 45 deg"));
            c.check(conv_drop > 10.0, || format!("F8 conventional dropped only {conv_drop} dB"));
        }
        "f9_scalability" => {
            let gain = cell_f64(t, 3, 2) - cell_f64(t, 0, 2);
            c.check((gain - 12.0).abs() < 1.5, || format!("F9 1->4 pair gain {gain} dB"));
        }
        "f11_modulation_depth" => {
            let (naive, codesign, max) =
                (cell_f64(t, 10, 1), cell_f64(t, 10, 3), cell_f64(t, 10, 4));
            c.check(codesign > naive && max >= codesign, || "F11 co-design ordering".into());
        }
        "f12_harvesting" => {
            let (near, budget, far) = (cell_f64(t, 0, 1), cell_f64(t, 0, 3), cell_f64(t, 9, 1));
            c.check(near > budget && far < budget, || "F12 harvest crossing".into());
        }
        "f14_multinode" => {
            let (s2, s16) = (cell_f64(t, 0, 1), cell_f64(t, 5, 1));
            c.check(s16 > s2 && s16 / 16.0 < 8.0, || format!("F14 slots {s2} -> {s16}"));
        }
        "a1_ablation_delay" => {
            let (loss0, loss_half) = (cell_f64(t, 0, 2), cell_f64(t, 7, 2));
            c.check(loss0.abs() < 0.2 && loss_half > 2.0, || "A1 mismatch loss".into());
        }
        // Severe faults cost packets. Step-by-step monotonicity is not
        // checked: at 25 trials Monte Carlo noise breaks it for some seeds
        // (seed 13: PER 0.12 at intensity 0.2, 0.08 at 0.4).
        "f19_fault_sweep" => {
            let (per0, per1) = (cell_f64(t, 0, 2), cell_f64(t, 5, 2));
            c.check(per1 > per0, || format!("F19 PER {per0} nominal vs {per1} severe"));
        }
        _ => {}
    }
}

/// River ranges of the sample-level points (F16 and FR1's BER panel).
const WAVEFORM_RANGES_M: [f64; 4] = [260.0, 320.0, 380.0, 440.0];

/// The waveform part's inputs: the sample-level points of F16 and of
/// FR1's BER panel, each range once on a synthetic channel and once
/// replaying a generated TVIR bank, through `run_point_with_source`.
/// Warms up on the synthetic point at the first range.
///
/// The workload seed picks the bank's channel realization; the Monte Carlo
/// seed stays at the quick default. Each replayed trial starts at an
/// offset into the bank drawn from the Monte Carlo seed, and
/// `ReplayChannel::apply` convolves every sample past the bank's end as a
/// one-sample segment, so at five trials the offsets alone move the part
/// between 2.3 and 8.3 s (two threads) across seeds.
struct Waveform {
    mc: MonteCarloConfig,
    points: Vec<(Scenario, BankSpec)>,
}

impl Waveform {
    fn set_up(opts: &Opts) -> Waveform {
        let cfg = ExpConfig::quick();
        let mc = MonteCarloConfig {
            trials: (cfg.trials / 5).max(4),
            bits_per_trial: cfg.bits,
            seed: cfg.seed,
            engine: TrialEngine::SampleLevel,
            threads: 0,
        };
        let points: Vec<(Scenario, BankSpec)> = WAVEFORM_RANGES_M
            .iter()
            .map(|&d| {
                let s = Scenario::river(SystemKind::Vab { n_pairs: 4 }, Meters(d))
                    .with_link(LinkConfig::uncoded());
                let spec = BankSpec {
                    water: WaterSpec::River,
                    range_m: s.range().value(),
                    carrier_hz: s.carrier().value(),
                    fs: s.mod_params.baseband_fs(),
                    n_snapshots: 8,
                    span_s: 4.0,
                    seed: opts.seed,
                };
                (s, spec)
            })
            .collect();
        run_point_with_source(&points[0].0, &mc, &SyntheticSource);
        Waveform { mc, points }
    }

    /// One unit per range.
    fn units(&self) -> Vec<Unit<'_>> {
        let mc = &self.mc;
        self.points
            .iter()
            .map(|(s, spec)| {
                let d = s.range().value();
                Unit {
                    name: format!("waveform at {d} m"),
                    run: Box::new(move |spans, lap, checks| {
                        let (synthetic, replayed) = lap.time(|| {
                            let synthetic = spans.run("run_point_synthetic", || {
                                run_point_with_source(s, mc, &SyntheticSource)
                            });
                            let bank = spans.run("replay_generate", || vab_replay::generate(spec));
                            let source = BankSource::new(bank.expect("the bank spec is valid"));
                            let replayed = spans
                                .run("run_point_replay", || run_point_with_source(s, mc, &source));
                            (synthetic, replayed)
                        });
                        check_waveform_point(checks, d, &synthetic, &replayed);
                        let (bs, br) = (synthetic.ber.ber(), replayed.ber.ber());
                        format!("{d},{bs:e},{br:e}\n").into_bytes()
                    }),
                }
            })
            .collect()
    }
}

/// BERs are probabilities, and the synthetic and replayed median BERs at
/// range `d` agree.
fn check_waveform_point(c: &mut Checks, d: f64, synthetic: &PointResult, replayed: &PointResult) {
    for (label, ber) in [("synthetic", synthetic.ber.ber()), ("replayed", replayed.ber.ber())] {
        c.check((0.0..=1.0).contains(&ber), || format!("{label} BER {ber} at {d} m"));
    }
    let (ms, mr) = (synthetic.median_ber(), replayed.median_ber());
    c.check((ms - mr).abs() <= MEDIAN_BER_AGREEMENT, || {
        format!("median BER synthetic {ms:e} vs replayed {mr:e} at {d} m")
    });
}

/// Largest gap between the synthetic and replayed *median* per-trial BER
/// at one range: about 6 of 256 bits. The mean BER is not compared: with
/// five trials one lost frame moves it by about 0.1.
const MEDIAN_BER_AGREEMENT: f64 = 0.025;

/// Node count of the ocean deployments: FN3's largest population.
const OCEAN_NODES: usize = 65_536;

/// Node count of the warm-up deployment in `ocean`'s set-up.
const WARMUP_NODES: usize = 4_096;

const POLICIES: [(RoutePolicy, &str); 2] =
    [(RoutePolicy::Vbf, "vbf"), (RoutePolicy::ClusterHead, "cluster")];

/// The ocean part's inputs: `ScaleSpec::ocean(65_536, seed)` once per
/// relay policy. Warms up on the build and inventory of a small
/// deployment.
struct Ocean {
    specs: [ScaleSpec; 2],
    /// Coverage and relayed share per policy, from the last round.
    outcomes: RefCell<Vec<(String, f64)>>,
}

impl Ocean {
    fn set_up(opts: &Opts) -> Ocean {
        let warmup = ScaleNetwork::build(&ScaleSpec::ocean(WARMUP_NODES, opts.seed));
        warmup.run_inventory();
        let specs = POLICIES
            .map(|(policy, _)| ScaleSpec { policy, ..ScaleSpec::ocean(OCEAN_NODES, opts.seed) });
        Ocean { specs, outcomes: RefCell::new(Vec::new()) }
    }

    /// One unit per policy: `ScaleNetwork::build` → `run_inventory` →
    /// `run_steady_state`.
    fn units(&self) -> Vec<Unit<'_>> {
        let outcomes = &self.outcomes;
        self.specs
            .iter()
            .zip(POLICIES)
            .map(|(spec, (_, label))| Unit {
                name: format!("ocean {label}"),
                run: Box::new(move |spans, lap, checks| {
                    let report = lap.time(|| {
                        let net =
                            spans.run(&format!("net_build.{label}"), || ScaleNetwork::build(spec));
                        let inventory =
                            spans.run(&format!("net_inventory.{label}"), || net.run_inventory());
                        let steady = spans.run(&format!("net_steady.{label}"), || {
                            net.run_steady_state(&inventory)
                        });
                        ScaleReport {
                            spec: spec.clone(),
                            horizon_m: net.horizon_m,
                            inventory,
                            steady,
                        }
                    });
                    let inv = &report.inventory;
                    let coverage = inv.coverage();
                    // FN3's claim: VBF reaches every node. Cluster heads trade
                    // rim delivery for cheaper planning (SCALING.md section
                    // 4), so they may cover less.
                    if label == "vbf" {
                        checks.check(coverage == 1.0, || format!("vbf coverage {coverage}"));
                    } else {
                        checks.check(coverage > 0.0 && coverage <= 1.0, || {
                            format!("{label} coverage {coverage}")
                        });
                    }
                    let relayed = inv.n_relayed() as f64 / inv.n_nodes as f64;
                    let mut out = outcomes.borrow_mut();
                    out.retain(|(k, _)| !k.starts_with(&format!("net.{label}.")));
                    out.push((format!("net.{label}.coverage"), coverage));
                    out.push((format!("net.{label}.relayed_ratio"), relayed));
                    report.to_json().render().into_bytes()
                }),
            })
            .collect()
    }
}

/// `library`: every unit of the link-budget, waveform and ocean parts.
pub fn library(opts: &Opts, spans: &mut Spans) -> Pass {
    let mut pass = Pass::default();
    let (link_budget, waveform, ocean) = set_up(&mut pass, || {
        (LinkBudget::set_up(opts), Waveform::set_up(opts), Ocean::set_up(opts))
    });
    let mut units = link_budget.units();
    units.extend(waveform.units());
    units.extend(ocean.units());
    run_rounds(opts, &mut pass, spans, &mut units);
    drop(units);
    pass.layers.extend(ocean.outcomes.into_inner());
    pass
}
