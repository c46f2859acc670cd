//! Per-layer figures from `vab-obs` snapshot deltas.
//!
//! Stage histograms (recorded while `VAB_OBS` is on) give calls and
//! seconds per stage; the allocation plane (`VAB_PROFILE=1`) gives each
//! stage's *self* and *cumulative* allocation counts. Both roll up into the
//! crate that owns the stage.

use vab_obs::metrics::Snapshot;

/// The crate (layer) that owns a stage, by stage name.
/// `sim.channel_realization` wraps `vab-acoustics` channel synthesis, so
/// it is billed to `acoustics`; `fec.*` lives in `vab-link`.
fn layer_of(stage: &str) -> &str {
    if stage == "sim.channel_realization" {
        return "acoustics";
    }
    match stage.split('.').next().unwrap_or(stage) {
        "fec" => "link",
        other => other,
    }
}

/// Stages that the code runs inside another stage of the same crate, as
/// `(stage, enclosing stage)`. Stage times are inclusive, so a crate's
/// time roll-up leaves these out wherever they ran inside their enclosure.
const ENCLOSED: [(&str, &str); 10] = [
    // `ScaleNetwork::build` (crates/net/src/scale.rs).
    ("net.scale_channels", "net.scale_build"),
    ("net.scale_interference", "net.scale_build"),
    ("net.scale_routing", "net.scale_build"),
    // `run_scale_deployment` (crates/net/src/scale.rs).
    ("net.scale_build", "net.scale_deployment"),
    ("net.scale_inventory", "net.scale_deployment"),
    ("net.scale_steady", "net.scale_deployment"),
    // `run_deployment` (crates/net/src/network.rs).
    ("net.channel_derivation", "net.deployment"),
    ("net.inventory", "net.deployment"),
    ("net.steady_state", "net.deployment"),
    // Hard-decision `Fec::Conv` decoding (crates/link/src/fec.rs); the
    // Monte Carlo engines call the soft decoder directly.
    ("fec.viterbi", "fec.decode"),
];

/// One stage's change between two snapshots.
#[derive(Default, Clone, Copy)]
struct StageDelta {
    calls: u64,
    time_s: f64,
    self_allocs: u64,
    cum_allocs: u64,
}

/// Adds `v` to the figure named `key`, appending it when new.
pub fn add(out: &mut Vec<(String, f64)>, key: String, v: f64) {
    match out.iter_mut().find(|(k, _)| *k == key) {
        Some((_, total)) => *total += v,
        None => out.push((key, v)),
    }
}

/// The share of `inner`'s time that ran inside `outer`, from the
/// allocation plane: `outer`'s child allocations over `inner`'s
/// cumulative ones, capped at 1. It is 1 for a stage that only ever runs
/// inside its enclosure and 0 when the enclosure did not run; in between
/// (a stage that ran both inside and outside its enclosure in one pass)
/// it is an allocation-weighted estimate.
fn nested_share(inner: &StageDelta, outer: &StageDelta) -> f64 {
    if outer.calls == 0 {
        return 0.0;
    }
    if inner.cum_allocs == 0 {
        return 1.0;
    }
    let child_allocs = outer.cum_allocs - outer.self_allocs;
    (child_allocs as f64 / inner.cum_allocs as f64).min(1.0)
}

/// Stage and allocation deltas between two snapshots:
/// `<stage>.{calls,time_s,allocs}`, `layer.<crate>.{time_s,allocs}` and
/// `alloc.total`. A stage's time includes the stages nested in it; a
/// crate's time sums its outermost stages only (see [`ENCLOSED`]), so it
/// still includes other crates' stages nested in them. Allocation counts
/// are self counts, so the layer allocation figures partition the
/// allocations made inside stages.
pub fn delta(before: &Snapshot, after: &Snapshot) -> Vec<(String, f64)> {
    let mut stages: Vec<(String, StageDelta)> = Vec::new();
    fn entry<'a>(stages: &'a mut Vec<(String, StageDelta)>, name: &str) -> &'a mut StageDelta {
        let i = stages.iter().position(|(n, _)| n == name).unwrap_or_else(|| {
            stages.push((name.to_string(), StageDelta::default()));
            stages.len() - 1
        });
        &mut stages[i].1
    }
    for h in &after.stages {
        let (count0, sum0) =
            before.stages.iter().find(|b| b.name == h.name).map_or((0, 0.0), |b| (b.count, b.sum));
        if h.count > count0 {
            let d = entry(&mut stages, &h.name);
            d.calls = h.count - count0;
            d.time_s = h.sum - sum0;
        }
    }
    for s in &after.alloc_stages {
        let (self0, cum0) = before
            .alloc_stages
            .iter()
            .find(|b| b.name == s.name)
            .map_or((0, 0), |b| (b.self_allocs, b.cum_allocs));
        let d = entry(&mut stages, &s.name);
        d.self_allocs = s.self_allocs - self0;
        d.cum_allocs = s.cum_allocs - cum0;
    }
    let find = |name: &str| stages.iter().find(|(n, _)| n == name).map(|(_, d)| *d);

    let mut out = Vec::new();
    for (name, d) in &stages {
        let layer = layer_of(name);
        if d.calls > 0 {
            add(&mut out, format!("{name}.calls"), d.calls as f64);
            add(&mut out, format!("{name}.time_s"), d.time_s);
            let nested = ENCLOSED
                .iter()
                .filter(|(inner, _)| inner == name)
                .filter_map(|(_, outer)| find(outer))
                .map(|outer| nested_share(d, &outer))
                .fold(0.0, f64::max);
            add(&mut out, format!("layer.{layer}.time_s"), d.time_s * (1.0 - nested));
        }
        add(&mut out, format!("{name}.allocs"), d.self_allocs as f64);
        add(&mut out, format!("layer.{layer}.allocs"), d.self_allocs as f64);
    }
    if let Some(totals) = &after.alloc_totals {
        let allocs0 = before.alloc_totals.as_ref().map_or(0, |t| t.allocs);
        out.push(("alloc.total".into(), (totals.allocs - allocs0) as f64));
    }
    out
}
