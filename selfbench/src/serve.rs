//! `serve_mixed`: a closed loop of two `RemoteStore` clients against an
//! in-process `ArchiveServer` on 127.0.0.1, mixing `PUT /runs` uploads of
//! distinct pre-generated records with `GET /history`, `POST /check` and
//! `POST /trend` reads over a seeded multi-run history.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use rigor::{
    analyze_trends, check_regressions, BenchmarkMeasurement, ExperimentConfig, GatePolicy,
    InvocationRecord, SteadyStateDetector, TrendConfig,
};
use rigor_serve::{ArchiveServer, RemoteStore, ServerHandle};
use rigor_store::{benchmark_history, BaselineRef, RunRecord, Store};
use serde::json::JsonValue;
use serde::Serialize;

use crate::common::{
    fresh_dir, push_failed_frac, push_rates, push_trace_shares, repeat, secs, timed, Outcome, Reps,
    RunSettings, Scale, SplitMix, Stamp, StampObserver, Tally, ThreadSampler,
};
use crate::host;
use crate::measure::{median, push_latency, summarize_reps, tail, LayerTable};

/// Client threads in the closed loop.
pub const CLIENTS: usize = 2;

/// The request kinds, in report order.
pub const ROUTES: [&str; 4] = ["put_runs", "history", "check", "trend"];

/// Baseline the check requests gate against.
const BASELINE: &str = "last-5";

/// Runs kept in each `GET /history?last=` read.
const HISTORY_LAST: usize = 20;

/// Sizes of the generated inputs.
#[derive(Debug, Clone, Copy)]
pub struct ServeShape {
    /// Runs in the seeded history.
    pub history_runs: usize,
    /// Benchmarks per run.
    pub benchmarks: usize,
    /// Requests per client per repetition.
    pub ops_per_client: usize,
}

impl ServeShape {
    /// The shape at `scale`.
    pub fn at(scale: Scale) -> ServeShape {
        match scale {
            Scale::Full => ServeShape {
                history_runs: 40,
                benchmarks: 6,
                ops_per_client: 150,
            },
            Scale::Tiny => ServeShape {
                history_runs: 8,
                benchmarks: 3,
                ops_per_client: 30,
            },
        }
    }
}

/// One client request of the seeded mix.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Upload pool record `n`.
    Put(usize),
    /// Read the last runs.
    History,
    /// Gate the current measurements against the baseline.
    Check,
    /// Trend analysis of one benchmark.
    Trend(usize),
}

impl Op {
    fn route(&self) -> usize {
        match self {
            Op::Put(_) => 0,
            Op::History => 1,
            Op::Check => 2,
            Op::Trend(_) => 3,
        }
    }
}

/// Everything `serve_mixed` sends, generated from the seed.
#[derive(Debug, Clone)]
pub struct ServeInputs {
    /// The seeded archive history, seq `0..history_runs`.
    pub history: Vec<RunRecord>,
    /// Distinct records for uploads, seq `history_runs..`.
    pub uploads: Vec<RunRecord>,
    /// The measurements every check request carries.
    pub current: Vec<BenchmarkMeasurement>,
    /// Each client's request sequence.
    pub ops: Vec<Vec<Op>>,
    /// Benchmark names.
    pub names: Vec<String>,
}

fn config() -> ExperimentConfig {
    ExperimentConfig::interp()
        .with_invocations(3)
        .with_iterations(10)
}

/// A synthetic measurement: steady iterations around `level` ns with 2%
/// noise.
fn measurement(rng: &mut SplitMix, name: &str, level: f64) -> BenchmarkMeasurement {
    let cfg = config();
    let invocations = (0..cfg.invocations)
        .map(|i| InvocationRecord {
            invocation: i,
            seed: rng.next_u64(),
            startup_ns: level * 2.0,
            iteration_ns: (0..cfg.iterations)
                .map(|_| level * (1.0 + 0.02 * (rng.next_f64() - 0.5)))
                .collect(),
            gc_cycles: 0,
            jit_compiles: 0,
            deopts: 0,
            checksum: "0".into(),
            iteration_counters: None,
            attempts: 1,
        })
        .collect();
    BenchmarkMeasurement {
        benchmark: name.to_string(),
        engine: "interp".into(),
        invocations,
        censored: Vec::new(),
        quarantined: false,
    }
}

/// Generates the workload's inputs from `seed`.
pub fn inputs(seed: u64, shape: ServeShape) -> ServeInputs {
    let mut rng = SplitMix::new(seed, "serve_mixed");
    let names: Vec<String> = rigor_workloads::names()
        .into_iter()
        .take(shape.benchmarks)
        .map(str::to_string)
        .collect();
    let levels: Vec<f64> = names
        .iter()
        .map(|_| 1.0e5 * (1.0 + 9.0 * rng.next_f64()))
        .collect();
    // The first benchmark steps up 15% two thirds of the way through the
    // history, so trend requests have a changepoint to find.
    let shift_at = shape.history_runs * 2 / 3;
    let run = |rng: &mut SplitMix, seq: usize, label: String| {
        let ms = names
            .iter()
            .zip(&levels)
            .enumerate()
            .map(|(b, (name, level))| {
                let step = if b == 0 && seq >= shift_at { 1.15 } else { 1.0 };
                measurement(rng, name, level * step)
            })
            .collect();
        RunRecord::new(seq as u64, Some(label), &config(), ms)
    };
    let history: Vec<RunRecord> = (0..shape.history_runs)
        .map(|seq| run(&mut rng, seq, format!("history-{seq}")))
        .collect();
    // Every client gets the same mix — 30% uploads, 30% history, 20%
    // check, 20% trend — in a seeded order, so the seed changes which
    // requests come when but not how many of each.
    let n = shape.ops_per_client;
    let (n_put, n_history, n_check) = (n * 3 / 10, n * 3 / 10, n / 5);
    let mut ops: Vec<Vec<Op>> = Vec::new();
    let mut puts = 0;
    for _ in 0..CLIENTS {
        let mut client_ops: Vec<Op> = Vec::with_capacity(n);
        for k in 0..n {
            client_ops.push(if k < n_put {
                puts += 1;
                Op::Put(puts - 1)
            } else if k < n_put + n_history {
                Op::History
            } else if k < n_put + n_history + n_check {
                Op::Check
            } else {
                Op::Trend(rng.below(shape.benchmarks as u64) as usize)
            });
        }
        for k in (1..n).rev() {
            client_ops.swap(k, rng.below(k as u64 + 1) as usize);
        }
        ops.push(client_ops);
    }
    let uploads = (0..puts)
        .map(|k| {
            let seq = shape.history_runs + k;
            run(&mut rng, seq, format!("upload-{k}"))
        })
        .collect();
    let current = names
        .iter()
        .zip(&levels)
        .map(|(name, level)| measurement(&mut rng, name, *level))
        .collect();
    ServeInputs {
        history,
        uploads,
        current,
        ops,
        names,
    }
}

/// A running, answering server over a freshly seeded archive.
struct Server {
    handle: ServerHandle,
    thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Seeds a new archive in `dir` (which must not exist yet) and serves it.
    fn start(dir: &Path, history: &[RunRecord]) -> Result<Server, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let mut store = Store::open(dir).map_err(|e| e.to_string())?;
        for r in history {
            store.append_record(r.clone()).map_err(|e| e.to_string())?;
        }
        drop(store);
        let server = ArchiveServer::bind("127.0.0.1:0", dir).map_err(|e| e.to_string())?;
        let handle = server.handle();
        let thread = std::thread::spawn(move || {
            if let Err(e) = server.serve() {
                eprintln!("selfbench: archive server stopped: {e}");
            }
        });
        let server = Server {
            handle,
            thread: Some(thread),
        };
        RemoteStore::connect(&server.url())
            .ping()
            .map_err(|e| e.to_string())?;
        Ok(server)
    }

    fn url(&self) -> String {
        format!("http://{}", self.handle.addr())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.handle.stop();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// One timed request: route index, start and end (seconds since the
/// repetition began), success.
type Request = (usize, f64, f64, bool);

/// What one client saw: its requests, the acknowledged uploads (pool
/// index, run id), its checks and its non-2xx answers.
type ClientLog = (Vec<Request>, Vec<(usize, String)>, Tally, u64);

struct Rep {
    setup_s: f64,
    wall: f64,
    check_s: f64,
    requests: Vec<Request>,
    retries: u64,
    non2xx: u64,
    acked: usize,
    threads_peak: u64,
    tally: Tally,
}

fn request_body(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn run_rep(inp: &ServeInputs, dir: &Path, seed: u64, traced: bool) -> Result<Rep, String> {
    let (server, setup_s) = timed(|| Server::start(dir, &inp.history));
    let server = server?;
    let url = server.url();
    let sampler = traced.then(ThreadSampler::start);
    let t0 = Instant::now();
    let observer = Arc::new(StampObserver::new(t0));
    let check_body = request_body(vec![
        ("measurements", inp.current.to_value()),
        ("baseline", BASELINE.to_value()),
    ]);

    let results: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = inp
            .ops
            .iter()
            .enumerate()
            .map(|(c, ops)| {
                let client = RemoteStore::connect(&url)
                    .with_seed(seed ^ c as u64)
                    .with_observer(observer.clone());
                let check_body = &check_body;
                scope.spawn(move || {
                    let mut reqs = Vec::with_capacity(ops.len());
                    let mut acks = Vec::new();
                    let mut t = Tally::default();
                    let mut non2xx = 0;
                    for op in ops {
                        let start = secs(t0);
                        let outcome: Result<(), rigor_serve::RemoteError> = match op {
                            Op::Put(k) => client.upload(&inp.uploads[*k]).map(|r| {
                                acks.push((*k, r.run_id));
                            }),
                            Op::History => client.history(Some(HISTORY_LAST)).map(drop),
                            Op::Check => client.check(check_body).map(drop),
                            Op::Trend(b) => client
                                .trend(&request_body(vec![("benchmark", inp.names[*b].to_value())]))
                                .map(drop),
                        };
                        let end = secs(t0);
                        if let Err(rigor_serve::RemoteError::Status { .. }) = &outcome {
                            non2xx += 1;
                        }
                        let ok = outcome.is_ok();
                        t.check(ok, || format!("{op:?} failed: {}", outcome.unwrap_err()));
                        reqs.push((op.route(), start, end, ok));
                    }
                    (reqs, acks, t, non2xx)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = secs(t0);
    let threads_peak = sampler.map_or(0, ThreadSampler::finish);

    let mut tally = Tally::default();
    let mut requests = Vec::new();
    let mut acks = Vec::new();
    let mut non2xx = 0;
    for (r, a, t, n) in results {
        requests.extend(r);
        acks.extend(a);
        tally.merge(t);
        non2xx += n;
    }
    // A retried attempt is a failed request, even when a retry succeeded.
    let retries = observer
        .stamps()
        .iter()
        .filter(|(_, s)| matches!(s, Stamp::Retried | Stamp::CircuitOpened))
        .count() as u64;
    for _ in 0..retries {
        tally.fail("a request was retried after a failed attempt".into());
    }

    // Every acknowledged upload appears exactly once in the final history.
    let (_, check_s) = timed(|| match RemoteStore::connect(&url).history(None) {
        Ok(runs) => {
            let mut seen: HashMap<&str, usize> = HashMap::new();
            for r in &runs {
                *seen.entry(r.id.as_str()).or_default() += 1;
            }
            for (k, id) in &acks {
                let n = seen.get(id.as_str()).copied().unwrap_or(0);
                tally.check(n == 1, || {
                    format!("upload-{k} appears {n} times in history")
                });
            }
            tally.check(runs.len() == inp.history.len() + acks.len(), || {
                format!(
                    "history holds {} runs, expected {}",
                    runs.len(),
                    inp.history.len() + acks.len()
                )
            });
        }
        Err(e) => tally.fail(format!("final history read failed: {e}")),
    });
    drop(server);
    Ok(Rep {
        setup_s,
        wall,
        check_s,
        acked: acks.len(),
        requests,
        retries,
        non2xx,
        threads_peak,
        tally,
    })
}

/// Runs `serve_mixed` for the window and reports it.
pub fn run(settings: &RunSettings) -> Result<Outcome, String> {
    let shape = ServeShape::at(settings.scale);
    let inp = inputs(settings.seed, shape);
    let dir = settings.work_dir.join("serve_mixed");
    let puts: usize = inp.uploads.len();
    let mut out = Outcome {
        settings: format!(
            "serve_mixed: {CLIENTS} clients x {} requests ({} uploads, rest history/check/trend) per repetition over a {}-run x {}-benchmark seeded history",
            shape.ops_per_client,
            puts,
            shape.history_runs,
            shape.benchmarks
        ),
        ..Outcome::default()
    };
    let reps = repeat(
        settings,
        &dir,
        0.7,
        |d| Server::start(d, &inp.history).map(drop),
        |d, traced| run_rep(&inp, d, settings.seed, traced),
    );
    let Reps {
        mut setups,
        warmup,
        plain,
        plain_ref_s,
        traced,
    } = match reps {
        Ok(r) => r,
        Err(e) => {
            let _ = std::fs::remove_dir_all(&dir);
            return Err(e);
        }
    };
    let mut tally = Tally::default();
    for rep in std::iter::once(&warmup).chain(&plain).chain(&traced) {
        tally.merge(rep.tally.clone());
    }
    let traced_result = if settings.trace {
        traced_metrics(&inp, &plain, &traced, &dir, &mut out, &mut tally)
    } else {
        setups.extend(plain.iter().map(|r| r.setup_s));
        end_to_end(&plain, &plain_ref_s, &setups, &mut out, &tally);
        Ok(())
    };
    let _ = std::fs::remove_dir_all(&dir);
    traced_result?;
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    out.failures = tally.failures;
    Ok(out)
}

fn latencies(reps: &[Rep], keep: impl Fn(usize) -> bool) -> Vec<Vec<f64>> {
    reps.iter()
        .map(|r| {
            r.requests
                .iter()
                .filter(|q| keep(q.0))
                .map(|q| (q.2 - q.1) * 1e3)
                .collect()
        })
        .collect()
}

fn end_to_end(reps: &[Rep], ref_s: &[f64], setups: &[f64], out: &mut Outcome, tally: &Tally) {
    let m = &mut out.metrics;
    let n = reps.len();
    let setup = median(setups).unwrap_or(f64::NAN);
    m.push(
        "setup_s",
        "s",
        setup,
        format!(
            "median of {} set-ups (seed archive, start server)",
            setups.len()
        ),
    );
    let walls: Vec<f64> = reps.iter().map(|r| r.wall).collect();
    let done: Vec<f64> = reps
        .iter()
        .map(|r| r.requests.iter().filter(|q| q.3).count() as f64)
        .collect();
    let rps = push_rates(m, &done, &walls, ref_s, "completed requests");
    push_latency(
        m,
        "op",
        &latencies(reps, |_| true),
        "request round trip, all routes",
    );
    push_latency(
        m,
        "write",
        &latencies(reps, |r| r == 0),
        "PUT /runs round trip",
    );
    m.push(
        "peak_rss_mb",
        "MiB",
        host::peak_rss_mb(),
        "VmHWM of this process",
    );
    m.push(
        "req_per_s",
        "1/s",
        rps,
        format!("whole window, {n} repetitions"),
    );
    push_latency(
        m,
        "read",
        &latencies(reps, |r| r != 0),
        "history, check or trend round trip",
    );
    push_failed_frac(m, tally);
}

/// Server-side work replayed outside the server with host timers: the
/// archive reopen, `check_regressions`, `analyze_trends` and archive
/// appends over the archive state one repetition leaves behind.
#[derive(Debug, Default)]
struct ServeProbe {
    archive_kb: f64,
    seed_s: f64,
    open_s: f64,
    check_s: Vec<f64>,
    trend_s: Vec<f64>,
    append_s: Vec<f64>,
    append_wchar: u64,
}

fn probe(inp: &ServeInputs, dir: &Path, tally: &mut Tally) -> Result<ServeProbe, String> {
    let mut p = ServeProbe::default();
    // The archive as one repetition leaves it: history plus every upload.
    let (store, seed_s) = timed(|| -> Result<Store, String> {
        fresh_dir(dir).map_err(|e| e.to_string())?;
        let mut store = Store::open(dir).map_err(|e| e.to_string())?;
        for r in &inp.history {
            store.append_record(r.clone()).map_err(|e| e.to_string())?;
        }
        Ok(store)
    });
    let mut store = store?;
    p.seed_s = seed_s;
    let w0 = host::wchar();
    for r in &inp.uploads {
        let (res, s) = timed(|| store.append_record(r.clone()).map(drop));
        tally.check(res.is_ok(), || "probe append failed".into());
        p.append_s.push(s);
    }
    p.append_wchar = match (w0, host::wchar()) {
        (Some(a), Some(b)) => b.saturating_sub(a),
        _ => 0,
    };
    drop(store);
    p.archive_kb = host::dir_kb(dir);
    let (store, open_s) = timed(|| Store::open(dir));
    p.open_s = open_s;
    let store = store.map_err(|e| e.to_string())?;

    let det = SteadyStateDetector::default();
    let trend_cfg = TrendConfig::default();
    let pooled = BaselineRef::parse(BASELINE)
        .pooled_measurements(&store, &det, &trend_cfg)
        .map_err(|e| e.to_string())?;
    let policy = GatePolicy::default();
    for _ in 0..5 {
        let (report, s) = timed(|| check_regressions(&pooled, &inp.current, &det, &policy));
        tally.check(report.benchmarks.len() == inp.current.len(), || {
            "check_regressions skipped a benchmark".into()
        });
        p.check_s.push(s);
    }
    for name in &inp.names {
        let histories = vec![(name.clone(), benchmark_history(&store, name, &det))];
        let (report, s) = timed(|| analyze_trends(&histories, &trend_cfg));
        tally.check(report.benchmarks.len() == 1, || {
            "analyze_trends lost a benchmark".into()
        });
        p.trend_s.push(s);
    }
    Ok(p)
}

/// Traced repetitions of the serve stage another workload's traced run
/// embeds.
const STAGE_REPS: usize = 2;

/// The archive server's layers for another workload's traced run: two
/// traced closed-loop repetitions of this workload's request mix and the
/// server-side probes, adding `serve.*`, `regress.*` and `trend.*` metrics
/// and their rows to `table`. Returns the wall time the stage adds and the
/// peak OS thread count it saw.
///
/// # Errors
///
/// A server that cannot start or a probe archive that cannot be written.
pub fn traced_stage(
    seed: u64,
    scale: Scale,
    dir: &Path,
    out: &mut Outcome,
    table: &mut LayerTable,
    tally: &mut Tally,
) -> Result<(f64, u64), String> {
    let inp = inputs(seed, ServeShape::at(scale));
    fresh_dir(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut reps = Vec::with_capacity(STAGE_REPS);
    let mut result = Ok(());
    for i in 0..STAGE_REPS {
        let rep_dir = dir.join(format!("rep-{i}"));
        match run_rep(&inp, &rep_dir, seed, true) {
            Ok(rep) => reps.push(rep),
            Err(e) => result = Err(e),
        }
        let _ = std::fs::remove_dir_all(&rep_dir);
    }
    let layers = result.and_then(|()| {
        for rep in &reps {
            tally.merge(rep.tally.clone());
        }
        server_layers(&inp, &reps, dir, out, table, tally)
    });
    let _ = std::fs::remove_dir_all(dir);
    let (_, wall) = layers?;
    let peak = reps.iter().map(|r| r.threads_peak).max().unwrap_or(0);
    Ok((wall, peak))
}

/// Attributes the traced repetitions' client time to routes, runs the
/// server-side probes, and adds the server's layer metrics. Returns the
/// probe and the traced wall time covered (repetitions plus probes).
fn server_layers(
    inp: &ServeInputs,
    traced: &[Rep],
    dir: &Path,
    out: &mut Outcome,
    table: &mut LayerTable,
    tally: &mut Tally,
) -> Result<(ServeProbe, f64), String> {
    let mut traced_wall = 0.0;
    for rep in traced {
        let mut lanes = [0.0f64; 4];
        for q in &rep.requests {
            lanes[q.0] += q.2 - q.1;
        }
        let rows: Vec<(&str, f64)> = vec![
            ("rigor_serve PUT /runs (client round trip)", lanes[0]),
            ("rigor_serve GET /history (client round trip)", lanes[1]),
            ("rigor_serve POST /check (client round trip)", lanes[2]),
            ("rigor_serve POST /trend (client round trip)", lanes[3]),
        ];
        table.add_lanes(
            rep.wall,
            CLIENTS,
            &rows,
            "selfbench (client loop between requests)",
        );
        table.add(
            "selfbench (set-up: seed archive, start server)",
            rep.setup_s,
        );
        table.add("selfbench (correctness checks)", rep.check_s);
        traced_wall += rep.wall + rep.setup_s + rep.check_s;
    }
    let probe_t0 = Instant::now();
    let p = probe(inp, &dir.join("probe"), tally)?;
    traced_wall += secs(probe_t0);
    let sum = |xs: &[f64]| xs.iter().sum::<f64>();
    table.add("selfbench (probe set-up: seed archive)", p.seed_s);
    table.add("rigor_store.append_record (server probe)", sum(&p.append_s));
    table.add("rigor_store.open (server probe)", p.open_s);
    table.add("rigor::regress.check_regressions (probe)", sum(&p.check_s));
    table.add("rigor::trend.analyze_trends (probe)", sum(&p.trend_s));
    let m = &mut out.metrics;
    let ms = |xs: &[f64]| median(xs).map_or(f64::NAN, |s| s * 1e3);
    m.push(
        "regress.check.ms_p50",
        "ms",
        ms(&p.check_s),
        format!("check_regressions vs {BASELINE}, {} calls", p.check_s.len()),
    );
    m.push(
        "trend.analyze.ms_p50",
        "ms",
        ms(&p.trend_s),
        format!("analyze_trends per benchmark, {} calls", p.trend_s.len()),
    );
    for (r, route) in ROUTES.iter().enumerate() {
        let lat = latencies(traced, |q| q == r);
        let s = summarize_reps(&lat);
        m.push(
            &format!("serve.{route}.ms_p50"),
            "ms",
            s.map_or(f64::NAN, |s| s.p50),
            "client round trip",
        );
        m.push(
            &format!("serve.{route}.ms_tail"),
            "ms",
            s.map_or(f64::NAN, |s| s.tail),
            s.map_or(String::new(), |s| {
                format!(
                    "p{:.2}, {} samples/rep x {} reps",
                    s.tail_percentile, s.per_rep, s.reps
                )
            }),
        );
    }
    m.push(
        "serve.client.retries",
        "count",
        traced.iter().map(|r| r.retries).sum::<u64>() as f64,
        "retried attempts, traced reps",
    );
    m.push(
        "serve.non2xx",
        "count",
        traced.iter().map(|r| r.non2xx).sum::<u64>() as f64,
        "non-2xx answers, traced reps",
    );
    let route_p50 =
        |r: usize| summarize_reps(&latencies(traced, |q| q == r)).map_or(f64::NAN, |s| s.p50);
    out.notes.push(format!(
        "POST /check p50 {:.2} ms, of which check_regressions {:.2} ms; POST /trend p50 {:.2} ms, of which analyze_trends {:.2} ms; PUT /runs p50 {:.2} ms, of which Store::append_record {:.2} ms — all under the one store lock",
        route_p50(2),
        ms(&p.check_s),
        route_p50(3),
        ms(&p.trend_s),
        route_p50(0),
        median(&p.append_s).map_or(f64::NAN, |s| s * 1e3)
    ));
    Ok((p, traced_wall))
}

fn traced_metrics(
    inp: &ServeInputs,
    plain: &[Rep],
    traced: &[Rep],
    dir: &Path,
    out: &mut Outcome,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut table = LayerTable::default();
    let (p, traced_wall) = server_layers(inp, traced, dir, out, &mut table, tally)?;
    let m = &mut out.metrics;
    let sum = |xs: &[f64]| xs.iter().sum::<f64>();
    let us: Vec<f64> = p.append_s.iter().map(|s| s * 1e6).collect();
    let t = tail(&us);
    m.push(
        "store.append.us_p50",
        "us",
        median(&us).unwrap_or(f64::NAN),
        format!(
            "Store::append_record of {} upload records (probe)",
            us.len()
        ),
    );
    m.push(
        "store.append.us_tail",
        "us",
        t.map_or(f64::NAN, |t| t.value),
        t.map_or("fewer than 11 appends".into(), |t| {
            format!("p{:.2} of {}", t.percentile, t.n)
        }),
    );
    let mean_append = sum(&p.append_s) / p.append_s.len().max(1) as f64;
    let busy: Vec<f64> = traced
        .iter()
        .map(|r| r.acked as f64 * mean_append / r.wall)
        .collect();
    m.push(
        "store.append.busy_frac",
        "ratio",
        median(&busy).unwrap_or(f64::NAN),
        "uploads x probe append time / rep wall",
    );
    m.push(
        "store.wchar_per_append_kb",
        "KiB",
        p.append_wchar as f64 / 1024.0 / p.append_s.len().max(1) as f64,
        "/proc/self/io wchar over the probe appends / appends",
    );
    m.push(
        "store.open.ms",
        "ms",
        p.open_s * 1e3,
        "Store::open of history + uploads",
    );
    m.push(
        "store.archive_kb",
        "KiB",
        p.archive_kb,
        "archive after history + uploads",
    );
    let peak = traced.iter().map(|r| r.threads_peak).max().unwrap_or(0);
    m.push(
        "serve.threads_peak",
        "count",
        peak as f64,
        "peak OS threads in the process",
    );
    let walls = |reps: &[Rep]| reps.iter().map(|r| r.wall).collect::<Vec<_>>();
    push_trace_shares(m, &walls(plain), &walls(traced), &table, traced_wall);
    out.layers = Some((table, traced_wall));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uploads_are_distinct_and_follow_the_history() {
        let inp = inputs(3, ServeShape::at(Scale::Tiny));
        let n = inp.history.len() as u64;
        for (k, r) in inp.uploads.iter().enumerate() {
            assert_eq!(r.seq, n + k as u64);
        }
        let mut ids: Vec<&str> = inp.uploads.iter().map(|r| r.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), inp.uploads.len());
    }
}
