//! Pieces every workload shares: run settings, the seeded generator,
//! the repetition clock, the correctness tally and the timing hooks that
//! wrap the public layer interfaces from outside.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{JoinHandle, ThreadId};
use std::time::{Duration, Instant};

use rigor::{
    BenchmarkMeasurement, Cell, CellPrecision, CellReceipt, CellSink, ExperimentEvent,
    ExperimentObserver,
};
use rigor_store::SharedStore;

use crate::host;
use crate::measure::{median, window_rates, LayerTable, Metrics};

/// Input scale: `Full` is the benchmark; `Tiny` is the self-test smoke size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured configuration.
    Full,
    /// A seconds-long configuration for self-tests.
    Tiny,
}

/// What one invocation of the benchmark was asked to do.
#[derive(Debug, Clone)]
pub struct RunSettings {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
    /// Per-layer (traced) mode instead of end-to-end.
    pub trace: bool,
    /// Input scale.
    pub scale: Scale,
    /// Scratch directory (inside the checkout) for archives.
    pub work_dir: PathBuf,
}

/// Everything a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Reported metrics (end-to-end, or per-layer when traced).
    pub metrics: Metrics,
    /// Checked operations.
    pub attempted: u64,
    /// Checked operations that failed.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Per-workload run settings, for the context block.
    pub settings: String,
    /// Traced runs: the layer-sum table and the traced wall time it closes
    /// against.
    pub layers: Option<(LayerTable, f64)>,
    /// Findings the traced run derives from its table, one per line.
    pub notes: Vec<String>,
}

/// Pass/fail tally of correctness checks.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl Tally {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records one failed check.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
    }
}

/// SplitMix64: the benchmark's only source of generated inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed` and a named input stream.
    pub fn new(seed: u64, stream: &str) -> SplitMix {
        let salt = stream.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        SplitMix(seed ^ salt)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Set-ups timed before the first repetition, on top of each repetition's
/// own, so `setup_s` is a median of many set-ups in every run.
const EXTRA_SETUPS: usize = 10;

/// Runs repetitions until the measurement window is spent: always at least
/// `min_reps`, never starting one once the window is over.
#[derive(Debug)]
struct RepClock {
    started: Instant,
    window: Duration,
    min_reps: usize,
    done: usize,
}

impl RepClock {
    /// A clock for a `seconds`-long window.
    fn new(seconds: f64, min_reps: usize) -> RepClock {
        RepClock {
            started: Instant::now(),
            window: Duration::from_secs_f64(seconds.max(0.0)),
            min_reps,
            done: 0,
        }
    }

    /// True when another repetition should start (and counts it).
    fn another(&mut self) -> bool {
        if self.done < self.min_reps || self.started.elapsed() < self.window {
            self.done += 1;
            true
        } else {
            false
        }
    }
}

/// The repetitions of one run.
#[derive(Debug)]
pub struct Reps<R> {
    /// Seconds of each extra set-up (each repetition times its own).
    pub setups: Vec<f64>,
    /// The untraced warm-up repetition run before the window: its checks
    /// count, its timings are not reported.
    pub warmup: R,
    /// Untraced repetitions.
    pub plain: Vec<R>,
    /// Seconds of [`host::reference_kernel_s`] taken just before each
    /// untraced repetition, aligned with `plain`.
    pub plain_ref_s: Vec<f64>,
    /// Traced repetitions (traced runs only).
    pub traced: Vec<R>,
}

/// Runs a workload's repetitions under `dir`: `EXTRA_SETUPS` timed
/// set-ups, one untimed warm-up repetition, then repetitions until the
/// window is spent — in traced runs `traced_share` of it, the rest being
/// left for the probes, alternating untraced and traced repetitions since
/// the overhead ratio needs both. Each untraced repetition is preceded by
/// the host-speed reference kernel. Every set-up and repetition gets a
/// directory of its own, removed after it, so removing an old archive is
/// never timed as set-up.
///
/// # Errors
///
/// The first error of a set-up or repetition.
pub fn repeat<R>(
    settings: &RunSettings,
    dir: &Path,
    traced_share: f64,
    mut setup: impl FnMut(&Path) -> Result<(), String>,
    mut rep: impl FnMut(&Path, bool) -> Result<R, String>,
) -> Result<Reps<R>, String> {
    fresh_dir(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut setups = Vec::with_capacity(EXTRA_SETUPS);
    for k in 0..EXTRA_SETUPS {
        let setup_dir = dir.join(format!("setup-{k}"));
        let (done, s) = timed(|| setup(&setup_dir));
        done?;
        setups.push(s);
        let _ = std::fs::remove_dir_all(&setup_dir);
    }
    let warmup_dir = dir.join("warmup");
    let warmup = rep(&warmup_dir, false)?;
    let _ = std::fs::remove_dir_all(&warmup_dir);
    let (window, min_reps) = if settings.trace {
        (settings.seconds * traced_share, 2)
    } else {
        (settings.seconds, 1)
    };
    let mut clock = RepClock::new(window, min_reps);
    let (mut plain, mut plain_ref_s, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut i = 0;
    while clock.another() {
        let rep_dir = dir.join(format!("rep-{i}"));
        let is_traced = settings.trace && i % 2 == 1;
        if !is_traced {
            plain_ref_s.push(host::reference_kernel_s());
        }
        let r = rep(&rep_dir, is_traced)?;
        let _ = std::fs::remove_dir_all(&rep_dir);
        if is_traced {
            traced.push(r);
        } else {
            plain.push(r);
        }
        i += 1;
    }
    Ok(Reps {
        setups,
        warmup,
        plain,
        plain_ref_s,
        traced,
    })
}

/// Adds `ops_per_s`, operations per second over the whole window, and
/// `norm_ops_per_s`, the same at the reference host speed (see
/// [`window_rates`]), from each untraced repetition's operation count,
/// wall time and reference-kernel time; `what` names the operation.
/// Returns `ops_per_s`.
pub fn push_rates(m: &mut Metrics, ops: &[f64], walls: &[f64], ref_s: &[f64], what: &str) -> f64 {
    let per_rep = ops
        .iter()
        .zip(walls)
        .map(|(o, w)| format!("{:.1}", o / w))
        .collect::<Vec<_>>()
        .join(" ");
    let base = format!(
        "{} {what} in {:.2} s over {} repetitions [{per_rep}]",
        ops.iter().sum::<f64>(),
        walls.iter().sum::<f64>(),
        ops.len()
    );
    let (raw, normalized) =
        window_rates(ops, walls, ref_s, host::REFERENCE_NOMINAL_S).unwrap_or((f64::NAN, f64::NAN));
    m.push(
        "ops_per_s",
        "1/s",
        raw,
        format!("{what} per second: {base}"),
    );
    m.push(
        "norm_ops_per_s",
        "1/s",
        normalized,
        format!(
            "{what} per second on a host that runs the reference kernel in {} s (here median {:.4} s)",
            host::REFERENCE_NOMINAL_S,
            median(ref_s).unwrap_or(f64::NAN)
        ),
    );
    raw
}

/// Adds `failed_frac`: failed ÷ attempted checks.
pub fn push_failed_frac(m: &mut Metrics, tally: &Tally) {
    let frac = if tally.attempted == 0 {
        0.0
    } else {
        tally.failed as f64 / tally.attempted as f64
    };
    m.push(
        "failed_frac",
        "ratio",
        frac,
        format!("{} failed of {} checks", tally.failed, tally.attempted),
    );
}

/// Adds the tracing figures: `trace.overhead_frac` from the untraced and
/// traced repetition walls, and `trace.unattributed_frac` from the layer
/// table and the traced wall time it must close against.
pub fn push_trace_shares(
    m: &mut Metrics,
    plain_walls: &[f64],
    traced_walls: &[f64],
    table: &LayerTable,
    traced_wall: f64,
) {
    let med = |w: &[f64]| median(w).unwrap_or(f64::NAN);
    m.push(
        "trace.overhead_frac",
        "ratio",
        med(traced_walls) / med(plain_walls) - 1.0,
        format!(
            "median traced rep wall / median untraced rep wall - 1 ({} vs {} reps)",
            traced_walls.len(),
            plain_walls.len()
        ),
    );
    m.push(
        "trace.unattributed_frac",
        "ratio",
        table.unattributed_frac(traced_wall),
        "share of traced wall time no layer timer covers",
    );
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Times `f`, returning its value and the seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, secs(t))
}

/// Removes and recreates `dir`.
pub fn fresh_dir(dir: &Path) -> std::io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    std::fs::create_dir_all(dir)
}

/// One archive call observed by [`TimingSink`]: the calling thread and its
/// start/end on the repetition clock.
#[derive(Debug, Clone, Copy)]
pub struct SinkCall {
    /// Calling thread.
    pub thread: ThreadId,
    /// Call start, seconds since the repetition began.
    pub start: f64,
    /// Call end, seconds since the repetition began.
    pub end: f64,
}

/// A [`CellSink`] that times every archive call into the wrapped
/// [`SharedStore`] — the store layer's timer and the per-worker cell clock.
pub struct TimingSink {
    /// The archive behind the timer.
    pub store: SharedStore,
    t0: Instant,
    calls: Mutex<Vec<SinkCall>>,
}

impl TimingSink {
    /// Wraps `store`; call times are measured from `t0`.
    pub fn new(store: SharedStore, t0: Instant) -> TimingSink {
        TimingSink {
            store,
            t0,
            calls: Mutex::new(Vec::new()),
        }
    }

    /// The archive calls so far, in completion order.
    pub fn calls(&self) -> Vec<SinkCall> {
        self.calls.lock().expect("sink timer lock").clone()
    }

    fn timed<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = secs(self.t0);
        let r = f();
        let end = secs(self.t0);
        self.calls.lock().expect("sink timer lock").push(SinkCall {
            thread: std::thread::current().id(),
            start,
            end,
        });
        r
    }
}

impl CellSink for TimingSink {
    fn archive_cell(
        &self,
        cell: &Cell,
        measurement: &BenchmarkMeasurement,
    ) -> Result<CellReceipt, String> {
        self.timed(|| self.store.archive_cell(cell, measurement))
    }

    fn completed_cell(&self, cell: &Cell) -> Result<Option<CellReceipt>, String> {
        self.store.completed_cell(cell)
    }

    fn archive_cell_precise(
        &self,
        cell: &Cell,
        measurement: &BenchmarkMeasurement,
        precision: &CellPrecision,
    ) -> Result<CellReceipt, String> {
        self.timed(|| {
            self.store
                .archive_cell_precise(cell, measurement, precision)
        })
    }

    fn completed_precision(&self, cell: &Cell) -> Result<Option<CellPrecision>, String> {
        self.store.completed_precision(cell)
    }
}

/// An event observed by [`StampObserver`], stamped with the host clock on
/// arrival at the telemetry drain.
#[derive(Debug, Clone, PartialEq)]
pub enum Stamp {
    /// A cell measurement began (`benchmark/engine`).
    Started(String),
    /// A cell measurement ended (`benchmark/engine`).
    Finished(String),
    /// The orchestrator estimated a cell after a round.
    Refined(u32),
    /// The planner computed round `n`.
    Plan(u32),
    /// A client request is being retried.
    Retried,
    /// A client's circuit breaker opened.
    CircuitOpened,
}

/// Host-clock stamps of the telemetry events the benchmark needs, plus a
/// count of timed VM iterations. Stamps are taken on the observer drain, so
/// they trail the event by the drain's wake-up latency.
pub struct StampObserver {
    t0: Instant,
    stamps: Mutex<Vec<(f64, Stamp)>>,
    iterations: AtomicU64,
}

impl StampObserver {
    /// An observer stamping relative to `t0`.
    pub fn new(t0: Instant) -> StampObserver {
        StampObserver {
            t0,
            stamps: Mutex::new(Vec::new()),
            iterations: AtomicU64::new(0),
        }
    }

    /// The stamps so far, in arrival order.
    pub fn stamps(&self) -> Vec<(f64, Stamp)> {
        self.stamps.lock().expect("stamp lock").clone()
    }

    /// Timed VM iterations seen.
    pub fn iterations(&self) -> u64 {
        self.iterations.load(Ordering::Relaxed)
    }
}

impl ExperimentObserver for StampObserver {
    fn on_event(&self, event: &ExperimentEvent) {
        let stamp = match event {
            ExperimentEvent::IterationFinished { .. } => {
                self.iterations.fetch_add(1, Ordering::Relaxed);
                return;
            }
            ExperimentEvent::ExperimentStarted {
                benchmark, engine, ..
            } => Stamp::Started(format!("{benchmark}/{engine}")),
            ExperimentEvent::ExperimentFinished {
                benchmark, engine, ..
            } => Stamp::Finished(format!("{benchmark}/{engine}")),
            ExperimentEvent::CellRefined { round, .. } => Stamp::Refined(*round),
            ExperimentEvent::PlanComputed { round, .. } => Stamp::Plan(*round),
            ExperimentEvent::UploadRetried { .. } => Stamp::Retried,
            ExperimentEvent::CircuitOpened { .. } => Stamp::CircuitOpened,
            _ => return,
        };
        let at = secs(self.t0);
        self.stamps.lock().expect("stamp lock").push((at, stamp));
    }
}

/// Samples this process's OS thread count every 2 ms on a thread of its
/// own until stopped; reports the peak, the sampler itself excluded.
pub struct ThreadSampler {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<u64>>,
}

impl ThreadSampler {
    /// Starts sampling.
    pub fn start() -> ThreadSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut peak = 0;
            while !flag.load(Ordering::Relaxed) {
                peak = peak.max(host::threads().unwrap_or(0));
                std::thread::sleep(Duration::from_millis(2));
            }
            peak.saturating_sub(1)
        });
        ThreadSampler {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the sampler, waits for it, and returns the peak.
    pub fn finish(mut self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.take().and_then(|h| h.join().ok()).unwrap_or(0)
    }
}

impl Drop for ThreadSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}
