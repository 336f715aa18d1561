//! The three campaign workloads — `suite_vm`, `archive_churn` and
//! `suite_adaptive` — driven through `Campaign::run` into a fresh
//! `SharedStore`, and their traced layer probes.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use minipy::{CompiledProgram, EngineKind, JitConfig, Session};
use rigor::{
    compute_plan, precision_of, Campaign, CampaignReport, CampaignSpec, Cell, CellEstimate,
    CellSink, ExperimentConfig, PlannerConfig, Runner, SteadyStateDetector,
};
use rigor_store::{RunRecord, SharedStore, Store, ARCHIVE_FILE};
use rigor_workloads::verify::{size_label, Manifest};
use rigor_workloads::Size;

use crate::common::{
    push_failed_frac, push_rates, push_trace_shares, repeat, secs, timed, Outcome, Reps,
    RunSettings, Scale, SinkCall, SplitMix, Stamp, StampObserver, Tally, ThreadSampler, TimingSink,
};
use crate::measure::{geomean, median, push_latency, tail, LayerTable, Metrics};
use crate::{host, serve};

/// The committed golden checksums every measured program must reproduce.
pub const MANIFEST_PATH: &str = "tests/fixtures/suite_checksums.json";

/// Campaign workers: the load comes from at most two threads.
pub const WORKERS: usize = 2;

/// Which campaign workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignKind {
    /// Whole registry × {interp, jit} × one seed at `Size::Default`.
    SuiteVm,
    /// About a thousand tiny cells: registry × engines × 16 seeds, 1×3.
    ArchiveChurn,
    /// Registry × engines under a precision target and invocation budget.
    SuiteAdaptive,
}

impl CampaignKind {
    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            CampaignKind::SuiteVm => "suite_vm",
            CampaignKind::ArchiveChurn => "archive_churn",
            CampaignKind::SuiteAdaptive => "suite_adaptive",
        }
    }
}

/// A campaign workload's generated inputs.
#[derive(Clone)]
pub struct CampaignPlan {
    /// Which workload.
    pub kind: CampaignKind,
    /// The grid.
    pub spec: CampaignSpec,
    /// Workload size preset of every cell.
    pub size: Size,
}

/// Distinct campaign seeds derived from the benchmark seed.
pub fn derived_seeds(seed: u64, stream: &str, n: usize) -> Vec<u64> {
    let mut rng = SplitMix::new(seed, stream);
    let mut seeds: Vec<u64> = Vec::with_capacity(n);
    while seeds.len() < n {
        let s = rng.next_u64() % 1_000_000_007;
        if !seeds.contains(&s) {
            seeds.push(s);
        }
    }
    seeds
}

/// Builds the workload's grid from the benchmark seed.
pub fn plan(kind: CampaignKind, seed: u64, scale: Scale) -> CampaignPlan {
    let tiny = scale == Scale::Tiny;
    let (size, invocations, iterations) = match (kind, tiny) {
        (CampaignKind::SuiteVm, false) => (Size::Default, 1, 20),
        (CampaignKind::ArchiveChurn, false) => (Size::Small, 1, 3),
        (CampaignKind::SuiteAdaptive, false) => (Size::Small, 2, 20),
        (_, true) => (Size::Small, 1, 2),
    };
    let base = ExperimentConfig::interp()
        .with_size(size)
        .with_invocations(invocations)
        .with_iterations(iterations)
        .with_seed(seed);
    let seeds = match kind {
        CampaignKind::ArchiveChurn => {
            derived_seeds(seed, "archive_churn", if tiny { 2 } else { 16 })
        }
        _ => vec![seed],
    };
    let mut spec = CampaignSpec::new(base)
        .with_benchmarks(rigor_workloads::names())
        .with_engines(vec![
            EngineKind::Interp,
            EngineKind::Jit(JitConfig::default()),
        ])
        .with_seeds(seeds);
    if kind == CampaignKind::SuiteAdaptive {
        let iterations = if tiny { 6 } else { 20 };
        spec.base = spec.base.with_iterations(iterations);
        spec.variants = vec![rigor::ConfigVariant::of(&spec.base)];
        // The target is out of reach and the budget one invocation short
        // of every cell's ceiling, so the planner runs its whole path —
        // pilot, barrier, estimates, budget-bound allocation, refinement,
        // final sweep — while the work it hands out is the same whatever
        // the seed: only which cell misses its last invocation varies.
        let cells = spec.cell_count() as u64;
        spec = spec.with_planner(
            PlannerConfig::default()
                .with_target(0.005)
                .with_min_invocations(2)
                .with_max_invocations(4)
                .with_budget(4 * cells - 1),
        );
    }
    CampaignPlan { kind, spec, size }
}

impl CampaignPlan {
    /// One line describing the run settings.
    pub fn describe(&self) -> String {
        let b = &self.spec.base;
        let mut s = format!(
            "{} programs x {} engines x {} seeds = {} cells, size {}, {}x{} (invocations x iterations), {} workers",
            self.spec.benchmarks.len(),
            self.spec.engines.len(),
            self.spec.seeds.len(),
            self.spec.cell_count(),
            size_label(self.size),
            b.invocations,
            b.iterations,
            WORKERS
        );
        if let Some(p) = self.spec.planner {
            s.push_str(&format!(
                ", planner target ±{:.1}% ceiling {} budget {} pilot {}",
                p.target_rel_half_width * 100.0,
                p.max_invocations,
                p.budget.unwrap_or(0),
                p.pilot()
            ));
        }
        s
    }
}

/// Reads the golden checksum manifest.
pub fn load_manifest() -> Result<Manifest, String> {
    let text = std::fs::read_to_string(MANIFEST_PATH)
        .map_err(|e| format!("cannot read {MANIFEST_PATH}: {e}"))?;
    Manifest::from_json(&text)
}

/// One repetition of a campaign workload.
struct Rep {
    setup_s: f64,
    wall: f64,
    check_s: f64,
    calls: Vec<SinkCall>,
    stamps: Vec<(f64, Stamp)>,
    /// VM iterations the repetition ran.
    iterations: f64,
    report: CampaignReport,
    wchar: Option<u64>,
    threads_peak: u64,
    /// Traced repetitions: the finished archive and the grid, for the
    /// probes. Untraced ones drop them, so the process's peak RSS does not
    /// grow with the number of repetitions a run completes.
    kept: Option<(SharedStore, Vec<Cell>)>,
    tally: Tally,
    /// Traced repetitions: `Store::open` of the finished archive, seconds,
    /// and the archive directory and journal sizes, KiB.
    reopen: Option<(f64, f64, f64)>,
}

/// A repetition's set-up: a new archive in `dir` (which must not exist
/// yet), the checksum manifest and the expanded grid.
fn prepare(plan: &CampaignPlan, dir: &Path) -> Result<(Manifest, Vec<Cell>, SharedStore), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let manifest = load_manifest()?;
    let cells = plan.spec.cells().map_err(|e| e.to_string())?;
    let store = SharedStore::open(dir).map_err(|e| e.to_string())?;
    Ok((manifest, cells, store))
}

fn run_rep(plan: &CampaignPlan, dir: &Path, traced: bool) -> Result<Rep, String> {
    let (prepared, setup_s) = timed(|| prepare(plan, dir));
    let (manifest, cells, store) = prepared?;

    // suite_adaptive archives from the orchestrator's own thread, so its
    // per-cell service time is only visible in the event stream; the
    // other workloads attach the observer in traced runs only.
    let needs_observer = traced || plan.kind == CampaignKind::SuiteAdaptive;
    let sampler = traced.then(ThreadSampler::start);
    let wchar0 = host::wchar();
    let t0 = Instant::now();
    let observer = needs_observer.then(|| Arc::new(StampObserver::new(t0)));
    let sink = TimingSink::new(store, t0);
    let mut campaign = Campaign::new(plan.spec.clone()).workers(WORKERS);
    if let Some(obs) = &observer {
        campaign = campaign.observer(obs.clone());
    }
    let report = campaign.run(&sink).map_err(|e| e.to_string())?;
    let wall = secs(t0);
    let wchar = match (wchar0, host::wchar()) {
        (Some(a), Some(b)) => Some(b.saturating_sub(a)),
        _ => None,
    };
    let threads_peak = sampler.map_or(0, ThreadSampler::finish);

    let (mut tally, check_s) =
        timed(|| check_campaign(plan, &cells, &sink.store, &report, &manifest));
    let reopen = traced.then(|| {
        let (open, open_s) = timed(|| Store::open(dir));
        tally.check(open.is_ok(), || "reopening the archive failed".into());
        let journal_kb =
            std::fs::metadata(dir.join(ARCHIVE_FILE)).map_or(0.0, |m| m.len() as f64 / 1024.0);
        (open_s, host::dir_kb(dir), journal_kb)
    });
    Ok(Rep {
        reopen,
        setup_s,
        wall,
        check_s,
        calls: sink.calls(),
        stamps: observer.as_ref().map(|o| o.stamps()).unwrap_or_default(),
        iterations: match plan.kind {
            CampaignKind::SuiteAdaptive => observer.as_ref().map_or(0, |o| o.iterations()) as f64,
            _ => cells
                .iter()
                .map(|c| f64::from(c.config.invocations) * f64::from(c.config.iterations))
                .sum(),
        },
        report,
        wchar,
        threads_peak,
        kept: traced.then_some((sink.store, cells)),
        tally,
    })
}

/// Checks one finished campaign: no failures, a clean archive holding
/// exactly the grid, every cell found by `completed_cell`, none censored or
/// quarantined, and every invocation's checksum equal to the manifest's.
fn check_campaign(
    plan: &CampaignPlan,
    cells: &[Cell],
    store: &SharedStore,
    report: &CampaignReport,
    manifest: &Manifest,
) -> Tally {
    let mut t = Tally::default();
    for (cell, error) in &report.failures {
        t.fail(format!("cell {cell} failed: {error}"));
    }
    t.check(report.executed == cells.len(), || {
        format!("executed {} of {} cells", report.executed, cells.len())
    });
    match store.with(|s| s.verify()) {
        Ok(v) => t.check(v.is_clean(), || "Store::verify reports corruption".into()),
        Err(e) => t.fail(format!("Store::verify failed: {e}")),
    }
    let records: HashMap<String, RunRecord> = store.with(|s| {
        s.runs()
            .filter_map(|r| r.label.clone().map(|l| (l, r.clone())))
            .collect()
    });
    t.check(records.len() == cells.len(), || {
        format!(
            "archive holds {} cells, grid has {}",
            records.len(),
            cells.len()
        )
    });
    let key = |name: &str| format!("{name}/{}", size_label(plan.size));
    for cell in cells {
        let id = cell.id.canonical();
        let found = matches!(store.completed_cell(cell), Ok(Some(_)));
        let verdict = records
            .get(&id)
            .and_then(|r| r.measurements.first())
            .map(|m| {
                let want = manifest.get(&key(&m.benchmark));
                let sums_ok = !m.invocations.is_empty()
                    && m.invocations
                        .iter()
                        .all(|inv| Some(inv.checksum.as_str()) == want);
                let shape_ok = match plan.kind {
                    CampaignKind::SuiteAdaptive => records[&id].precision.is_some(),
                    _ => m.invocations.len() == cell.config.invocations as usize,
                };
                (sums_ok, shape_ok, m.censored.is_empty() && !m.quarantined)
            });
        match (found, verdict) {
            (true, Some((true, true, true))) => t.check(true, String::new),
            (false, _) => t.fail(format!("{id}: not found by completed_cell")),
            (_, None) => t.fail(format!("{id}: no archived measurement")),
            (_, Some((sums, shape, clean))) => t.fail(format!(
                "{id}: checksums ok={sums}, shape ok={shape}, uncensored={clean}"
            )),
        }
    }
    t
}

/// Per-worker cell service times: for each thread that archived, the time
/// from the campaign start (first cell) or its previous archive call's end
/// to this call's end.
fn cell_intervals(calls: &[SinkCall]) -> Vec<(f64, f64, f64)> {
    let mut by_thread: BTreeMap<String, Vec<SinkCall>> = BTreeMap::new();
    for c in calls {
        by_thread
            .entry(format!("{:?}", c.thread))
            .or_default()
            .push(*c);
    }
    let mut out = Vec::new();
    for (_, mut cs) in by_thread {
        cs.sort_by(|a, b| a.end.total_cmp(&b.end));
        let mut prev = 0.0;
        for c in cs {
            out.push((prev, c.end, c.end - c.start));
            prev = c.end;
        }
    }
    out
}

/// Cell measurement spans from `Started`/`Finished` stamps, matched FIFO
/// per `benchmark/engine` key.
fn measure_spans(stamps: &[(f64, Stamp)]) -> Vec<(f64, f64)> {
    let mut open: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut spans = Vec::new();
    for (at, stamp) in stamps {
        match stamp {
            Stamp::Started(k) => open.entry(k.as_str()).or_default().push(*at),
            Stamp::Finished(k) => {
                if let Some(starts) = open.get_mut(k.as_str()) {
                    if !starts.is_empty() {
                        spans.push((starts.remove(0), *at));
                    }
                }
            }
            _ => {}
        }
    }
    spans
}

/// Lane occupancy of `intervals` over `[first start, wall]` with `lanes`
/// lanes: (busy lane-seconds, idle lane-seconds while some lane works,
/// wall-seconds with nothing in flight).
fn occupancy(intervals: &[(f64, f64)], lanes: usize, wall: f64) -> (f64, f64, f64) {
    let mut edges: Vec<(f64, i32)> = Vec::new();
    for &(s, e) in intervals {
        edges.push((s, 1));
        edges.push((e.max(s), -1));
    }
    if edges.is_empty() {
        return (0.0, 0.0, wall);
    }
    edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let k = lanes as f64;
    let (mut busy, mut partial, mut none) = (0.0, 0.0, 0.0);
    let mut inflight = 0i32;
    let mut t = edges[0].0;
    for (at, delta) in edges.into_iter().chain(std::iter::once((wall, 0))) {
        let dt = (at - t).max(0.0);
        let n = f64::from(inflight.max(0)).min(k);
        busy += n * dt;
        if inflight > 0 {
            partial += (k - n) * dt;
        } else {
            none += dt;
        }
        inflight += delta;
        t = t.max(at);
    }
    (busy, partial, none)
}

/// Runs a campaign workload for the window and reports it.
pub fn run(kind: CampaignKind, settings: &RunSettings) -> Result<Outcome, String> {
    let plan = plan(kind, settings.seed, settings.scale);
    let dir = settings.work_dir.join(kind.name());
    let mut out = Outcome {
        settings: format!("{}: {}", kind.name(), plan.describe()),
        ..Outcome::default()
    };
    let reps = repeat(
        settings,
        &dir,
        0.6,
        |d| prepare(&plan, d).map(drop),
        |d, traced| run_rep(&plan, d, traced),
    );
    let _ = std::fs::remove_dir_all(&dir);
    let Reps {
        mut setups,
        warmup,
        plain,
        plain_ref_s,
        traced,
    } = reps?;
    let mut tally = Tally::default();
    for rep in std::iter::once(&warmup).chain(&plain).chain(&traced) {
        tally.merge(rep.tally.clone());
    }
    if settings.trace {
        traced_metrics(&plan, &plain, &traced, settings, &mut out, &mut tally)?;
    } else {
        setups.extend(plain.iter().map(|r| r.setup_s));
        end_to_end_metrics(
            &plan,
            &plain,
            &plain_ref_s,
            &setups,
            &mut out.metrics,
            &tally,
        );
    }
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    out.failures = tally.failures;
    Ok(out)
}

fn op_latencies_ms(plan: &CampaignPlan, rep: &Rep) -> Vec<f64> {
    match plan.kind {
        CampaignKind::SuiteAdaptive => measure_spans(&rep.stamps)
            .iter()
            .map(|(s, e)| (e - s) * 1e3)
            .collect(),
        _ => cell_intervals(&rep.calls)
            .iter()
            .map(|(s, e, _)| (e - s) * 1e3)
            .collect(),
    }
}

fn end_to_end_metrics(
    plan: &CampaignPlan,
    reps: &[Rep],
    ref_s: &[f64],
    setups: &[f64],
    m: &mut Metrics,
    tally: &Tally,
) {
    let n = reps.len();
    let setup = median(setups).unwrap_or(f64::NAN);
    m.push(
        "setup_s",
        "s",
        setup,
        format!("median of {} set-ups", setups.len()),
    );
    let walls: Vec<f64> = reps.iter().map(|r| r.wall).collect();
    let cells: Vec<f64> = reps.iter().map(|r| r.report.executed as f64).collect();
    let cps = push_rates(m, &cells, &walls, ref_s, "cells archived");
    let iterations: f64 = reps.iter().map(|r| r.iterations).sum();
    let note = format!("whole window, {n} repetitions");
    let ops: Vec<Vec<f64>> = reps.iter().map(|r| op_latencies_ms(plan, r)).collect();
    let what = match plan.kind {
        CampaignKind::SuiteAdaptive => {
            "cell measurement span (ExperimentStarted to ExperimentFinished)"
        }
        _ => "cell service time (gap between a worker's archive calls)",
    };
    push_latency(m, "op", &ops, what);
    let writes: Vec<Vec<f64>> = reps
        .iter()
        .map(|r| r.calls.iter().map(|c| (c.end - c.start) * 1e3).collect())
        .collect();
    push_latency(m, "write", &writes, "archive call into SharedStore");
    m.push(
        "peak_rss_mb",
        "MiB",
        host::peak_rss_mb(),
        "VmHWM of this process",
    );
    // Per-workload names, printed for readers; the JSON line carries
    // the generic names above.
    m.push("cells_per_s", "1/s", cps, note.clone());
    m.push(
        "iters_per_s",
        "1/s",
        iterations / walls.iter().sum::<f64>(),
        format!("VM iterations per second of wall, {note}"),
    );
    if plan.kind != CampaignKind::SuiteAdaptive {
        push_latency(m, "cell", &ops, what);
    }
    push_failed_frac(m, tally);
}

/// The traced-run VM probe: for each distinct (program, engine) of the
/// grid, its first cell measured once through `Runner::measure` at one
/// invocation and replayed through `CompiledProgram::compile`,
/// `Session::start_from` and `run_iteration` with host timers.
#[derive(Debug, Default)]
struct VmProbe {
    compile_s: Vec<f64>,
    source_bytes: usize,
    session_s: Vec<f64>,
    iteration_s: f64,
    measure_s: Vec<f64>,
    /// Host ns per iteration, per (category, engine): each program's median.
    iter_ns: BTreeMap<(String, String), Vec<f64>>,
    /// (host ns, ops) summed per engine.
    dispatch: BTreeMap<String, (f64, u64)>,
    counts: [u64; 6],
    virtual_ns: f64,
}

fn vm_probe(cells: &[Cell], tally: &mut Tally) -> VmProbe {
    let mut p = VmProbe::default();
    let mut seen: Vec<(String, String)> = Vec::new();
    for cell in cells {
        let key = (cell.id.benchmark.clone(), cell.id.engine.clone());
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        let cfg = cell.config.clone().with_invocations(1);
        let (measured, measure_s) = timed(|| {
            Runner::new(cfg.clone())
                .map_err(|e| e.to_string())
                .and_then(|r| r.measure(&cell.workload).map_err(|e| e.to_string()))
        });
        p.measure_s.push(measure_s);

        let source = cell.workload.source(cfg.size);
        p.source_bytes += source.len();
        let (program, compile_s) = timed(|| CompiledProgram::compile(&source));
        p.compile_s.push(compile_s);
        let seed = minipy::invocation_seed(cfg.experiment_seed, cell.workload.name, 0);
        let Ok(program) = program else {
            tally.fail(format!("{}: replay compile failed", cell.id));
            continue;
        };
        let (session, start_s) = timed(|| Session::start_from(&program, seed, cfg.vm_config()));
        p.session_s.push(start_s);
        let Ok(mut session) = session else {
            tally.fail(format!("{}: replay session failed", cell.id));
            continue;
        };
        let mut virtual_ns = Vec::new();
        let mut host_ns = Vec::new();
        let mut checksum = String::new();
        for i in 0..cfg.iterations {
            let (r, s) = timed(|| session.run_iteration());
            let Ok(r) = r else {
                tally.fail(format!("{}: replay iteration failed", cell.id));
                break;
            };
            p.iteration_s += s;
            host_ns.push(s * 1e9);
            virtual_ns.push(r.virtual_ns);
            let c = &r.counters;
            let d = p.dispatch.entry(cell.id.engine.clone()).or_default();
            d.0 += s * 1e9;
            d.1 += c.total_ops;
            for (slot, v) in p.counts.iter_mut().zip([
                c.total_ops,
                c.dict_probes,
                c.allocations,
                c.gc_cycles,
                c.jit_compiles,
                c.deopts,
            ]) {
                *slot += v;
            }
            p.virtual_ns += r.virtual_ns;
            if i == 0 {
                checksum = session.render(r.value);
            }
        }
        p.iter_ns
            .entry((
                cell.workload.category.label().to_string(),
                cell.id.engine.clone(),
            ))
            .or_default()
            .push(median(&host_ns).unwrap_or(f64::NAN));
        // The replay must be the runner's invocation, bit for bit.
        let faithful = measured.as_ref().is_ok_and(|m| {
            m.invocations
                .first()
                .is_some_and(|inv| inv.iteration_ns == virtual_ns && inv.checksum == checksum)
        });
        tally.check(faithful, || {
            format!("{}: replay differs from Runner::measure", cell.id)
        });
    }
    p
}

/// Every engine name the campaigns use.
pub const ENGINES: [&str; 2] = ["interp", "jit"];

/// Registry category labels.
pub const CATEGORIES: [&str; 7] = [
    "numeric",
    "data",
    "string",
    "control",
    "structured",
    "adversarial",
    "nonsteady",
];

fn traced_metrics(
    plan: &CampaignPlan,
    plain: &[Rep],
    traced: &[Rep],
    settings: &RunSettings,
    out: &mut Outcome,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut table = LayerTable::default();
    let mut traced_wall = 0.0;
    let fixed = plan.kind != CampaignKind::SuiteAdaptive;

    // Stage 1: the traced repetitions, attributed across the worker lanes.
    let (mut busy, mut lane_total, mut partial, mut none) = (0.0, 0.0, 0.0, 0.0);
    let mut estimate_s = 0.0;
    let mut appends_us: Vec<f64> = Vec::new();
    let mut store_busy = 0.0;
    let mut wchar = 0u64;
    let mut appends = 0usize;
    let mut threads_peak = 0;
    let mut reopen_s: Vec<f64> = Vec::new();
    for rep in traced {
        let store_s: f64 = rep.calls.iter().map(|c| c.end - c.start).sum();
        let mut rows: Vec<(&str, f64)> = Vec::new();
        let intervals: Vec<(f64, f64)> = if fixed {
            let cells = cell_intervals(&rep.calls);
            let work: f64 = cells.iter().map(|(s, e, d)| e - s - d).sum();
            rows.push(("rigor::runner+minipy (cell work)", work));
            cells.iter().map(|&(s, e, _)| (s, e)).collect()
        } else {
            let spans = measure_spans(&rep.stamps);
            rows.push((
                "rigor::runner+minipy (cell work)",
                spans.iter().map(|(s, e)| e - s).sum(),
            ));
            // Estimates run on the orchestrator thread at each barrier:
            // the stretch from a round's first to last `cell_refined`.
            let mut by_round: BTreeMap<u32, (f64, f64)> = BTreeMap::new();
            for (at, st) in &rep.stamps {
                if let Stamp::Refined(r) = st {
                    let e = by_round.entry(*r).or_insert((*at, *at));
                    e.0 = e.0.min(*at);
                    e.1 = e.1.max(*at);
                }
            }
            let est: f64 = by_round.values().map(|(a, b)| b - a).sum();
            estimate_s += est;
            rows.push(("rigor::planner (estimates at barriers)", est));
            spans
        };
        rows.push(("rigor_store (archive calls)", store_s));
        table.add_lanes(rep.wall, WORKERS, &rows, "rigor::orchestrator (idle lanes)");
        table.add("selfbench (set-up)", rep.setup_s);
        table.add("selfbench (correctness checks)", rep.check_s);
        let (open_s, _, _) = rep.reopen.expect("traced repetitions reopen their archive");
        table.add("rigor_store.open (probe)", open_s);
        reopen_s.push(open_s);
        traced_wall += rep.wall + rep.setup_s + rep.check_s + open_s;

        let mut occ_intervals = intervals;
        if !fixed {
            occ_intervals.extend(rep.calls.iter().map(|c| (c.start, c.end)));
        }
        let (b, p, n) = occupancy(&occ_intervals, WORKERS, rep.wall);
        busy += b;
        partial += p;
        none += n;
        lane_total += WORKERS as f64 * rep.wall;
        appends_us.extend(rep.calls.iter().map(|c| (c.end - c.start) * 1e6));
        let calls: Vec<(f64, f64)> = rep.calls.iter().map(|c| (c.start, c.end)).collect();
        store_busy += occupancy(&calls, 1, rep.wall).0 / rep.wall;
        wchar += rep.wchar.unwrap_or(0);
        appends += rep.calls.len();
        threads_peak = threads_peak.max(rep.threads_peak);
    }
    let nt = traced.len().max(1) as f64;
    let last = traced
        .last()
        .expect("traced runs make at least one traced rep");

    // Stage 2: layer probes on the last traced repetition's inputs.
    let probe_t0 = Instant::now();
    let (last_store, last_cells) = last
        .kept
        .as_ref()
        .expect("traced repetitions keep their archive");
    let vm = vm_probe(last_cells, tally);
    let (_, archive_kb, journal_kb) = last
        .reopen
        .expect("traced repetitions reopen their archive");
    let planner = (!fixed).then(|| planner_probe(plan, last_store));
    let probe_wall = secs(probe_t0);
    // The archive server is the archive's other face: archive_churn's
    // traced run also times the server's layers (serve_mixed's request mix
    // and probes), so every layer is measured by a workload whose
    // end-to-end figures hold steady on a shared host.
    if plan.kind == CampaignKind::ArchiveChurn {
        let (stage_wall, peak) = serve::traced_stage(
            settings.seed,
            settings.scale,
            &settings.work_dir.join("serve_stage"),
            out,
            &mut table,
            tally,
        )?;
        traced_wall += stage_wall;
        threads_peak = threads_peak.max(peak);
    }
    let measure_total: f64 = vm.measure_s.iter().sum();
    let compile_total: f64 = vm.compile_s.iter().sum();
    let session_total: f64 = vm.session_s.iter().sum();
    table.add("rigor::runner.measure (probe, inclusive)", measure_total);
    table.add("minipy.compile (probe)", compile_total);
    table.add("minipy.session_start (probe)", session_total);
    table.add("minipy.run_iteration (probe)", vm.iteration_s);
    if let Some(pp) = &planner {
        table.add("rigor::planner.estimate (probe)", pp.estimate_s);
        table.add("rigor::planner.compute_plan (probe)", pp.plan_s);
        table.add(
            "rigor_stats.precision_of (probe)",
            pp.precision_us.iter().sum::<f64>() / 1e6,
        );
    }
    traced_wall += probe_wall;

    let m = &mut out.metrics;
    // minipy
    let us = |xs: &[f64]| median(xs).map_or(f64::NAN, |s| s * 1e6);
    m.push(
        "minipy.compile.us_p50",
        "us",
        us(&vm.compile_s),
        format!("{} programs x engines", vm.compile_s.len()),
    );
    m.push(
        "minipy.compile.kb_per_s",
        "KiB/s",
        vm.source_bytes as f64 / 1024.0 / compile_total,
        "source KiB compiled per second",
    );
    m.push(
        "minipy.session_start.us_p50",
        "us",
        us(&vm.session_s),
        "Session::start_from",
    );
    for cat in CATEGORIES {
        for engine in ENGINES {
            let g = vm
                .iter_ns
                .get(&(cat.to_string(), engine.to_string()))
                .and_then(|v| geomean(v))
                .unwrap_or(f64::NAN);
            m.push(
                &format!("minipy.iter.ns.{cat}.{engine}"),
                "ns",
                g,
                "geomean over the category of each program's median host ns per run_iteration",
            );
        }
    }
    for engine in ENGINES {
        let (ns, ops) = vm.dispatch.get(engine).copied().unwrap_or((0.0, 0));
        m.push(
            &format!("minipy.dispatch.ns_per_op.{engine}"),
            "ns",
            if ops == 0 { f64::NAN } else { ns / ops as f64 },
            "host ns per run_iteration / counters.total_ops",
        );
    }
    let names = [
        "ops",
        "dict_probes",
        "allocations",
        "gc_cycles",
        "jit_compiles",
        "deopts",
    ];
    for (name, v) in names.iter().zip(vm.counts) {
        m.push(
            &format!("minipy.{name}"),
            "count",
            v as f64,
            "exact, over the replay probe",
        );
    }
    m.push(
        "minipy.virtual_ns",
        "ns",
        vm.virtual_ns,
        "exact virtual time of the replay probe",
    );

    // runner
    m.push(
        "runner.measure.ms_p50",
        "ms",
        median(&vm.measure_s).map_or(f64::NAN, |s| s * 1e3),
        "Runner::measure, one invocation per probe cell",
    );
    m.push(
        "runner.overhead_frac",
        "ratio",
        1.0 - (session_total + vm.iteration_s) / measure_total,
        "1 - (session + iteration time) / Runner::measure time",
    );

    // orchestrator
    m.push(
        "orchestrator.busy_frac",
        "ratio",
        busy / lane_total,
        "lane-seconds running cells or archive calls / lane-seconds",
    );
    m.push(
        "orchestrator.tail_idle_ms",
        "ms",
        partial / nt * 1e3,
        "lane-ms idle while another lane still works, per rep",
    );
    m.push(
        "orchestrator.barrier_wait_ms",
        "ms",
        if fixed { 0.0 } else { none / nt * 1e3 },
        "ms with no cell in flight, per rep (adaptive round barriers)",
    );
    m.push(
        "orchestrator.cells_stolen",
        "count",
        last.report.stolen as f64,
        "last traced rep",
    );
    m.push(
        "orchestrator.rounds",
        "count",
        f64::from(last.report.rounds),
        "last traced rep",
    );

    // planner + stats
    let pp = planner.unwrap_or_default();
    m.push(
        "planner.estimate.ms_total",
        "ms",
        pp.estimate_s * 1e3,
        "CellEstimate::from_measurement over the archived cells",
    );
    m.push(
        "planner.compute_plan.ms",
        "ms",
        pp.plan_s * 1e3,
        "compute_plan over those estimates",
    );
    m.push(
        "stats.precision_of.us_p50",
        "us",
        if pp.precision_us.is_empty() {
            0.0
        } else {
            median(&pp.precision_us).unwrap_or(0.0)
        },
        "precision_of per archived cell",
    );
    m.push(
        "planner.invocations_spent",
        "count",
        last.report.invocations as f64,
        "last traced rep",
    );

    // store
    let t = tail(&appends_us);
    m.push(
        "store.append.us_p50",
        "us",
        median(&appends_us).unwrap_or(f64::NAN),
        format!("{} archive calls", appends_us.len()),
    );
    m.push(
        "store.append.us_tail",
        "us",
        t.map_or(f64::NAN, |t| t.value),
        t.map_or(String::new(), |t| {
            format!("p{:.2} of {}", t.percentile, t.n)
        }),
    );
    m.push(
        "store.append.busy_frac",
        "ratio",
        store_busy / nt,
        "share of campaign wall with an archive call in flight",
    );
    m.push(
        "store.wchar_per_append_kb",
        "KiB",
        wchar as f64 / 1024.0 / appends.max(1) as f64,
        "/proc/self/io wchar delta over the campaign / appends",
    );
    m.push(
        "store.open.ms",
        "ms",
        median(&reopen_s).map_or(f64::NAN, |s| s * 1e3),
        format!("Store::open of each traced rep's finished archive ({journal_kb:.0} KiB journal)"),
    );
    m.push(
        "store.archive_kb",
        "KiB",
        archive_kb,
        "archive directory size after one repetition",
    );
    m.push(
        "serve.threads_peak",
        "count",
        threads_peak as f64,
        "peak OS threads in the process",
    );

    let walls = |reps: &[Rep]| reps.iter().map(|r| r.wall).collect::<Vec<_>>();
    push_trace_shares(m, &walls(plain), &walls(traced), &table, traced_wall);

    // Findings: where the cell time and the store time go.
    let cell_work: f64 = table
        .rows()
        .iter()
        .find(|(l, _)| l.starts_with("rigor::runner+minipy"))
        .map_or(0.0, |(_, s)| *s);
    let share = |x: f64| 100.0 * x / measure_total;
    out.notes.push(format!(
        "cell work ({cell_work:.3} s of wall) splits, by the probe's Runner::measure ratios, into run_iteration {:.1}%, session start {:.1}%, compile {:.1}%, other runner {:.1}%",
        share(vm.iteration_s),
        share(session_total),
        share(compile_total),
        100.0 - share(vm.iteration_s + session_total + compile_total)
    ));
    if fixed {
        if let Some(rep) = traced.last() {
            let d: Vec<f64> = rep.calls.iter().map(|c| (c.end - c.start) * 1e6).collect();
            let k = (d.len() / 10).max(1);
            let first = median(&d[..k.min(d.len())]).unwrap_or(f64::NAN);
            let lastd = median(&d[d.len().saturating_sub(k)..]).unwrap_or(f64::NAN);
            out.notes.push(format!(
                "store append grows with the archive: median {first:.0} us over the first {k} appends, {lastd:.0} us over the last {k} ({:.1}x); rigor_store is {:.1}% of lane time",
                lastd / first,
                100.0 * rep.calls.iter().map(|c| c.end - c.start).sum::<f64>() / (WORKERS as f64 * rep.wall)
            ));
        }
    } else {
        let rounds = round_walls(&last.stamps, last.wall);
        out.notes.push(format!(
            "rounds (wall s, measurement start to barrier end): {}; barrier wait {:.0} ms/rep, of which estimates {:.0} ms",
            rounds.iter().map(|r| format!("{r:.3}")).collect::<Vec<_>>().join(", "),
            none / nt * 1e3,
            estimate_s / nt * 1e3
        ));
    }
    out.layers = Some((table, traced_wall));
    Ok(())
}

/// Wall time of each adaptive round: from its first measurement start to
/// the next round's first start (or the campaign end).
fn round_walls(stamps: &[(f64, Stamp)], wall: f64) -> Vec<f64> {
    let mut plan_at: Vec<f64> = stamps
        .iter()
        .filter_map(|(at, s)| matches!(s, Stamp::Plan(_)).then_some(*at))
        .collect();
    plan_at.push(f64::INFINITY);
    let starts: Vec<f64> = stamps
        .iter()
        .filter_map(|(at, s)| matches!(s, Stamp::Started(_)).then_some(*at))
        .collect();
    let mut bounds: Vec<f64> = Vec::new();
    let mut lo = f64::NEG_INFINITY;
    for &hi in &plan_at {
        if let Some(first) = starts
            .iter()
            .copied()
            .filter(|&s| s > lo && s < hi)
            .reduce(f64::min)
        {
            bounds.push(first);
        }
        lo = hi;
    }
    bounds.push(wall);
    bounds.windows(2).map(|w| w[1] - w[0]).collect()
}

#[derive(Debug, Default)]
struct PlannerProbe {
    estimate_s: f64,
    plan_s: f64,
    precision_us: Vec<f64>,
}

fn planner_probe(plan: &CampaignPlan, store: &SharedStore) -> PlannerProbe {
    let det = SteadyStateDetector::default();
    let confidence = plan.spec.base.confidence;
    let cfg = plan.spec.planner.unwrap_or_default();
    let records: Vec<RunRecord> = store.with(|s| s.runs().cloned().collect());
    let mut p = PlannerProbe::default();
    let mut estimates = Vec::new();
    for (i, r) in records.iter().enumerate() {
        let Some(m) = r.measurements.first() else {
            continue;
        };
        let (e, s) = timed(|| CellEstimate::from_measurement(i, m, &det, confidence));
        p.estimate_s += s;
        estimates.push(e);
        let (_, s) = timed(|| precision_of(m, &det, confidence));
        p.precision_us.push(s * 1e6);
    }
    let spent: u64 = estimates.iter().map(|e| u64::from(e.invocations)).sum();
    let (_, s) = timed(|| compute_plan(&estimates, spent, &cfg, 1));
    p.plan_s = s;
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_splits_busy_partial_and_empty_time() {
        // Two lanes: [0,2] and [0,1] busy, nothing in [2,3].
        let (busy, partial, none) = occupancy(&[(0.0, 2.0), (0.0, 1.0)], 2, 3.0);
        assert!((busy - 3.0).abs() < 1e-12);
        assert!((partial - 1.0).abs() < 1e-12);
        assert!((none - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spans_match_fifo_per_key() {
        let stamps = vec![
            (0.0, Stamp::Started("a/interp".into())),
            (0.5, Stamp::Started("b/jit".into())),
            (1.0, Stamp::Finished("a/interp".into())),
            (2.0, Stamp::Finished("b/jit".into())),
        ];
        assert_eq!(measure_spans(&stamps), vec![(0.0, 1.0), (0.5, 2.0)]);
    }
}
