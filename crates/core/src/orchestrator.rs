//! The campaign orchestrator: executes a cell grid on the crate's counter
//! pool of std worker threads, streaming each cell into a [`CellSink`] and a
//! campaign journal the moment its measurement is final.
//!
//! Scheduling model: a run is a sequence of rounds, each a list of jobs —
//! (cell, sample size) pairs — that the pool drains with one shared
//! counter: a worker claims an execution ticket, then the next job index.
//! Jobs are independent and their results are addressed by job index, so
//! the worker count decides only which thread runs a job, never what it
//! measures; and a [`Campaign::max_cells`] budget of *k* tickets executes
//! exactly the first *k* jobs, whatever the worker count.
//!
//! Each cell runs through [`crate::Runner::measure`] — the cell-execution
//! primitive — under the cell's own validated config, with the campaign's
//! observers attached, so per-cell experiment streams arrive alongside the
//! campaign-level events (`campaign_started`, `campaign_resumed`,
//! `cell_completed`).
//!
//! A fixed campaign is a single round: every pending cell at its configured
//! size, each final as soon as it is measured. When the spec carries a
//! [`crate::planner::PlannerConfig`] the run is adaptive and adds
//! refinement rounds. The first round pilots every cell at the planner's
//! floor. A cell is final
//! once it meets its target relative half-width or reaches the ceiling —
//! a test on its own measurement only. Between rounds [`compute_plan`]
//! grants more invocations to the cells still short of target, and the
//! next round claims those [`crate::planner::RefineTask`]s in plan order
//! (widest CI first). Rounds are barriers, so the estimate set each plan
//! sees — and therefore the whole refinement trajectory — is independent
//! of the worker count. When nothing more can be granted, the cells still
//! short of target are archived at their current size.
//!
//! Either way the worker that measured a final cell archives it at once
//! (with a [`CellPrecision`] record in adaptive runs), so a kill loses at
//! most the cells in flight.
//!
//! Resume: the **archive is authoritative** — on [`Campaign::resume`] every
//! cell the sink already holds is skipped; the campaign journal only
//! verifies the grid identity (fingerprint + cell count), so a torn run
//! picks up exactly at its first incomplete cell, and a killed adaptive run
//! re-pilots its unarchived cells and converges to the same archive. The
//! journal is rewritten from scratch on every run (replayed cells
//! re-journaled first), so it always ends up complete.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::campaign::{
    CampaignError, CampaignJournal, CampaignJournalMeta, CampaignJournalWriter, CampaignSpec, Cell,
    CellDone, CellPrecision, CellSink,
};
use crate::measurement::BenchmarkMeasurement;
use crate::planner::{compute_plan, CellEstimate};
use crate::pool::run_indexed;
use crate::runner::Runner;
use crate::steady::SteadyStateDetector;
use crate::telemetry::{with_event_sink, EventSink, ExperimentEvent, ExperimentObserver};

/// What a finished campaign run did, cell by cell. The cell lists are in
/// grid order, so a report does not depend on the worker count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignReport {
    /// The campaign's identity fingerprint.
    pub fingerprint: String,
    /// Cells in the grid.
    pub total: usize,
    /// Cells skipped because a previous (interrupted) run had already
    /// archived them.
    pub skipped: usize,
    /// Cells executed and archived by this run.
    pub executed: usize,
    /// Always 0: the counter pool moves no cell between workers. Kept only
    /// because the host-clock benchmark still reads it.
    pub stolen: usize,
    /// Canonical ids of executed cells whose measurement was quarantined.
    pub quarantined: Vec<String>,
    /// Cells that failed (canonical id, error) — compile-class measurement
    /// errors or sink failures; not journaled, so a rerun retries them.
    pub failures: Vec<(String, String)>,
    /// Cells left unscheduled (a [`Campaign::max_cells`] budget ran out).
    pub remaining: usize,
    /// Planning rounds computed (adaptive runs only; the pilot is round 0,
    /// so this is the number of [`compute_plan`] calls).
    pub rounds: u32,
    /// Invocations committed across all archived cells, resumed cells
    /// included (adaptive runs only).
    pub invocations: u64,
    /// Canonical ids of archived cells that ended short of the precision
    /// target — ceiling-capped or budget-starved (adaptive runs only).
    pub unmet: Vec<String>,
}

impl CampaignReport {
    /// Cells present in the archive after this run.
    pub fn completed(&self) -> usize {
        self.skipped + self.executed
    }

    /// True when every cell of the grid is archived.
    pub fn is_complete(&self) -> bool {
        self.completed() == self.total
    }
}

/// Executes a [`CampaignSpec`] on a pool of worker threads. Builder style:
/// configure, then [`Campaign::run`].
pub struct Campaign {
    spec: CampaignSpec,
    workers: usize,
    observers: Vec<Arc<dyn ExperimentObserver>>,
    journal_path: Option<PathBuf>,
    resume: bool,
    max_cells: Option<usize>,
}

impl Campaign {
    /// A campaign over `spec` with 4 workers, no observers, no journal.
    pub fn new(spec: CampaignSpec) -> Campaign {
        Campaign {
            spec,
            workers: 4,
            observers: Vec::new(),
            journal_path: None,
            resume: false,
            max_cells: None,
        }
    }

    /// Sets the worker-thread count (builder style). Zero is rejected by
    /// [`Campaign::run`] with [`CampaignError::ZeroWorkers`].
    pub fn workers(mut self, workers: usize) -> Campaign {
        self.workers = workers;
        self
    }

    /// Attaches an observer (builder style); it receives the campaign-level
    /// events *and* every cell's experiment stream. Call repeatedly to fan
    /// out.
    pub fn observer(mut self, observer: Arc<dyn ExperimentObserver>) -> Campaign {
        self.observers.push(observer);
        self
    }

    /// Journals completed cells to `path` (builder style). The file is
    /// rewritten on every run; combined with [`Campaign::resume`], replayed
    /// cells are re-journaled first so the file always ends up complete.
    pub fn journal(mut self, path: impl Into<PathBuf>) -> Campaign {
        self.journal_path = Some(path.into());
        self
    }

    /// Resumes a torn campaign (builder style): cells the sink already
    /// holds are skipped, and a journal at the configured path (if one
    /// exists) must identify this same grid.
    pub fn resume(mut self, resume: bool) -> Campaign {
        self.resume = resume;
        self
    }

    /// Caps how many measurements this run may execute (builder style) —
    /// the rest stay pending for a later `--resume`. Used to interrupt
    /// deterministically in tests and CI smoke runs.
    pub fn max_cells(mut self, max_cells: usize) -> Campaign {
        self.max_cells = Some(max_cells);
        self
    }

    /// The campaign's spec.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// Expands the grid and executes it, streaming completed cells into
    /// `sink`.
    ///
    /// # Errors
    ///
    /// Grid-expansion errors ([`CampaignError::EmptyAxis`] /
    /// [`CampaignError::UnknownBenchmark`] / [`CampaignError::Config`]), a
    /// resume journal for a different grid
    /// ([`CampaignError::JournalMismatch`]), journal I/O errors, and sink
    /// failures while probing for already-completed cells. A zero worker
    /// count is [`CampaignError::ZeroWorkers`]; an unusable planner config
    /// is [`CampaignError::Planner`]. Per-cell measurement and archival
    /// failures do **not** abort the run — they are collected in
    /// [`CampaignReport::failures`].
    pub fn run(&self, sink: &dyn CellSink) -> Result<CampaignReport, CampaignError> {
        if self.workers == 0 {
            return Err(CampaignError::ZeroWorkers);
        }
        let planner = self.spec.planner;
        if let Some(cfg) = &planner {
            cfg.validate().map_err(CampaignError::Planner)?;
        }
        let cells = self.spec.cells()?;
        let fingerprint = self.spec.fingerprint();
        let total = cells.len();
        let tally = Tally::default();

        // Resume: the archive is authoritative for *what* is done; the
        // journal only proves the path belongs to this grid.
        let mut skipped: Vec<(Cell, String)> = Vec::new();
        let mut pending: Vec<Cell> = Vec::new();
        if self.resume {
            if let Some(path) = &self.journal_path {
                if let Some(journal) = CampaignJournal::load_tolerant(path)
                    .map_err(|e| CampaignError::Journal(e.to_string()))?
                {
                    journal
                        .check_matches(&fingerprint, total as u32)
                        .map_err(CampaignError::JournalMismatch)?;
                }
            }
            for cell in cells {
                let Some(receipt) = sink.completed_cell(&cell).map_err(CampaignError::Sink)? else {
                    pending.push(cell);
                    continue;
                };
                if planner.is_some() {
                    // Archived cells are final at their archived size; their
                    // precision records reconstruct the invocations spent.
                    // A record-less cell (a sink without the side-channel)
                    // counts its configured size.
                    match sink
                        .completed_precision(&cell)
                        .map_err(CampaignError::Sink)?
                    {
                        Some(p) => tally.spend(&cell, p.invocations_used, p.target_met),
                        None => tally.spend(&cell, cell.config.invocations, true),
                    }
                }
                skipped.push((cell, receipt.run_id));
            }
        } else {
            pending = cells;
        }
        tally
            .completed
            .store(skipped.len() as u32, Ordering::Relaxed);

        let meta = CampaignJournalMeta {
            fingerprint: fingerprint.clone(),
            cells: total as u32,
        };
        let writer = match &self.journal_path {
            Some(path) => {
                let mut w = CampaignJournalWriter::create(path, &meta)
                    .map_err(|e| CampaignError::Journal(e.to_string()))?;
                // Re-journal replayed cells first: the journal must end up
                // complete whether or not this run was a resume.
                for (cell, run_id) in &skipped {
                    w.append_cell(&CellDone {
                        index: cell.index as u32,
                        id: cell.id.canonical(),
                        run_id: run_id.clone(),
                    })
                    .map_err(|e| CampaignError::Journal(e.to_string()))?;
                }
                Some(Mutex::new(w))
            }
            None => None,
        };

        // Measurement-ticket budget shared across all rounds, so
        // `max_cells` interrupts an adaptive run mid-refinement too.
        let tickets = AtomicUsize::new(self.max_cells.unwrap_or(usize::MAX));
        let (rounds, remaining) = with_event_sink(&self.observers, "campaign", |events| {
            events.send(ExperimentEvent::CampaignStarted {
                campaign: fingerprint.clone(),
                cells: total as u32,
                workers: self.workers as u32,
                arrival: self.spec.arrival.to_string(),
            });
            if self.resume {
                events.send(ExperimentEvent::CampaignResumed {
                    campaign: fingerprint.clone(),
                    completed: skipped.len() as u32,
                    cells: total as u32,
                });
            }
            let run = CellRun {
                campaign: self,
                sink,
                writer: &writer,
                events,
                tally: &tally,
                total,
            };

            // Cells measured but still short of target, by grid index.
            let mut live: BTreeMap<usize, Live> = BTreeMap::new();
            let mut jobs: Vec<(Cell, u32)> = pending
                .into_iter()
                .map(|c| {
                    let n = planner.map_or(c.config.invocations, |cfg| cfg.pilot());
                    (c, n)
                })
                .collect();
            let mut round: u32 = 0;
            loop {
                let outcomes: Vec<OnceLock<Live>> = jobs.iter().map(|_| OnceLock::new()).collect();
                let unclaimed = run_indexed(jobs.len(), self.workers, &tickets, |worker, i| {
                    let (cell, invocations) = &jobs[i];
                    if let Some(l) = run.measure(cell, *invocations, worker, round) {
                        let _ = outcomes[i].set(l);
                    }
                });
                let claimed = jobs.len() - unclaimed;
                for ((cell, _), outcome) in jobs.iter().zip(outcomes).take(claimed) {
                    // A final or failed cell leaves the live set; a failed
                    // one is in `failures`, and a rerun retries it.
                    match outcome.into_inner() {
                        Some(l) => live.insert(cell.index, l),
                        None => live.remove(&cell.index),
                    };
                }
                if unclaimed > 0 {
                    // The ticket budget ran out: stop. Cells not yet final
                    // stay unarchived for a resume. An unclaimed refinement
                    // job's cell is usually live already — count each
                    // unfinished cell once.
                    let unstarted = jobs[claimed..]
                        .iter()
                        .filter(|(c, _)| !live.contains_key(&c.index))
                        .count();
                    break (round, live.len() + unstarted);
                }
                let Some(cfg) = &planner else {
                    break (round, 0);
                };

                round += 1;
                let ests: Vec<CellEstimate> = live.values().map(|l| l.estimate).collect();
                let plan = compute_plan(&ests, tally.spent.load(Ordering::Relaxed), cfg, round);
                events.send(ExperimentEvent::PlanComputed {
                    campaign: fingerprint.clone(),
                    round,
                    unmet: plan.unmet as u32,
                    tasks: plan.tasks.len() as u32,
                    planned: plan.planned,
                    spent: plan.spent,
                    budget_remaining: plan.budget_remaining,
                });
                if plan.tasks.is_empty() {
                    if plan.exhausted {
                        events.send(ExperimentEvent::BudgetExhausted {
                            campaign: fingerprint.clone(),
                            round,
                            spent: plan.spent,
                            budget: cfg.budget.unwrap_or(0),
                            unmet: plan.unmet as u32,
                        });
                    }
                    // Final sweep: cells nothing more can be granted to are
                    // archived at their current size, short of target.
                    for l in std::mem::take(&mut live).into_values() {
                        run.finalize(&l.cell, &l.measurement, Some(&l.estimate), l.worker);
                    }
                    break (round, 0);
                }
                jobs = plan
                    .tasks
                    .iter()
                    .filter_map(|t| live.get(&t.index).map(|l| (l.cell.clone(), t.invocations)))
                    .collect();
            }
        });

        Ok(CampaignReport {
            fingerprint,
            total,
            skipped: skipped.len(),
            executed: tally.executed.into_inner(),
            stolen: 0,
            quarantined: in_grid_order(tally.quarantined),
            failures: in_grid_order(tally.failures),
            remaining,
            rounds,
            invocations: tally.spent.into_inner(),
            unmet: in_grid_order(tally.unmet),
        })
    }
}

/// A measured cell still short of its target: its latest measurement and
/// estimate, and the worker that took them.
struct Live {
    cell: Cell,
    measurement: BenchmarkMeasurement,
    estimate: CellEstimate,
    worker: usize,
}

/// Campaign state the workers update, keyed by grid index where a report
/// lists cells.
#[derive(Default)]
struct Tally {
    completed: AtomicU32,
    executed: AtomicUsize,
    /// Invocations committed across final cells (adaptive runs only).
    spent: AtomicU64,
    quarantined: Mutex<Vec<(usize, String)>>,
    failures: Mutex<Vec<(usize, (String, String))>>,
    unmet: Mutex<Vec<(usize, String)>>,
}

impl Tally {
    /// Accounts a cell that is final at `invocations` (adaptive runs).
    fn spend(&self, cell: &Cell, invocations: u32, target_met: bool) {
        self.spent
            .fetch_add(u64::from(invocations), Ordering::Relaxed);
        if !target_met {
            push(&self.unmet, cell.index, cell.id.canonical());
        }
    }

    fn fail(&self, cell: &Cell, error: String) {
        push(&self.failures, cell.index, (cell.id.canonical(), error));
    }
}

fn push<T>(list: &Mutex<Vec<(usize, T)>>, index: usize, item: T) {
    list.lock()
        .expect("campaign tally poisoned")
        .push((index, item));
}

/// The list's items sorted by grid index.
fn in_grid_order<T>(list: Mutex<Vec<(usize, T)>>) -> Vec<T> {
    let mut list = list.into_inner().expect("campaign tally poisoned");
    list.sort_by_key(|&(index, _)| index);
    list.into_iter().map(|(_, item)| item).collect()
}

/// Everything a worker needs to measure and finalize cells.
struct CellRun<'a> {
    campaign: &'a Campaign,
    sink: &'a dyn CellSink,
    writer: &'a Option<Mutex<CampaignJournalWriter>>,
    events: &'a EventSink,
    tally: &'a Tally,
    total: usize,
}

impl CellRun<'_> {
    /// Measures `cell` at `invocations` and finalizes it at once when the
    /// measurement is final. Returns the cell's live state when it still
    /// needs refinement; `None` when it was finalized or failed. Never
    /// panics the worker: every failure becomes a `failures` entry.
    fn measure(&self, cell: &Cell, invocations: u32, worker: usize, round: u32) -> Option<Live> {
        // Seeded arrival pacing: a pure function of (campaign seed, cell
        // index), so the pattern replays under the same seed whatever the
        // worker count.
        let spec = &self.campaign.spec;
        let delay = spec
            .arrival
            .delay(spec.base.experiment_seed, cell.index as u64);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }

        // The config was validated at grid expansion; a rejection here would
        // be a logic error, but record it rather than panicking a worker.
        let mut runner = match Runner::new(cell.config.clone().with_invocations(invocations)) {
            Ok(r) => r,
            Err(e) => {
                self.tally.fail(cell, format!("invalid config: {e}"));
                return None;
            }
        };
        for obs in &self.campaign.observers {
            runner = runner.observer(obs.clone());
        }
        let measurement = match runner.measure(&cell.workload) {
            Ok(m) => m,
            Err(e) => {
                self.tally.fail(cell, e.to_string());
                return None;
            }
        };
        let Some(cfg) = &spec.planner else {
            self.finalize(cell, &measurement, None, worker);
            return None;
        };
        let target = cfg.target_rel_half_width;
        let estimate = CellEstimate::from_measurement(
            cell.index,
            &measurement,
            &SteadyStateDetector::default(),
            spec.base.confidence,
        );
        self.events.send(ExperimentEvent::CellRefined {
            cell: cell.id.canonical(),
            index: cell.index as u32,
            round,
            invocations: estimate.invocations,
            rel_half_width: estimate.rel_half_width,
            target_met: estimate.target_met(target),
        });
        if estimate.target_met(target) || estimate.invocations >= cfg.max_invocations {
            self.finalize(cell, &measurement, Some(&estimate), worker);
            return None;
        }
        Some(Live {
            cell: cell.clone(),
            measurement,
            estimate,
            worker,
        })
    }

    /// Archives a final cell, journals it and emits `cell_completed`. An
    /// adaptive cell (`estimate` set) is archived with its precision record
    /// under the config it actually ran at (its final sample size), so the
    /// archive describes the measurement bytes exactly.
    fn finalize(
        &self,
        cell: &Cell,
        measurement: &BenchmarkMeasurement,
        estimate: Option<&CellEstimate>,
        worker: usize,
    ) {
        let id = cell.id.canonical();
        if measurement.quarantined {
            push(&self.tally.quarantined, cell.index, id.clone());
        }
        let archived = match (estimate, &self.campaign.spec.planner) {
            (Some(est), Some(cfg)) => {
                let target = cfg.target_rel_half_width;
                self.tally
                    .spend(cell, est.invocations, est.target_met(target));
                let precision = CellPrecision {
                    invocations_used: est.invocations,
                    rel_half_width: est.rel_half_width,
                    target_rel_half_width: target,
                    target_met: est.target_met(target),
                };
                let mut sized = cell.clone();
                sized.config = cell.config.clone().with_invocations(est.invocations);
                self.sink
                    .archive_cell_precise(&sized, measurement, &precision)
            }
            _ => self.sink.archive_cell(cell, measurement),
        };
        let receipt = match archived {
            Ok(r) => r,
            Err(e) => {
                self.tally.fail(cell, format!("sink: {e}"));
                return;
            }
        };
        if let Some(writer) = self.writer {
            let done = CellDone {
                index: cell.index as u32,
                id: id.clone(),
                run_id: receipt.run_id.clone(),
            };
            // Journal failures are reported, not fatal: losing the journal
            // must not lose the archived cell.
            if let Err(e) = writer
                .lock()
                .expect("journal writer poisoned")
                .append_cell(&done)
            {
                eprintln!("rigor: campaign journal write failed (cell {id}): {e}");
            }
        }
        self.tally.executed.fetch_add(1, Ordering::Relaxed);
        let done_so_far = self.tally.completed.fetch_add(1, Ordering::Relaxed) + 1;
        self.events.send(ExperimentEvent::CellCompleted {
            cell: id,
            index: cell.index as u32,
            worker: worker as u32,
            run_id: receipt.run_id,
            completed: done_so_far,
            cells: self.total as u32,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{ArrivalProcess, ConfigVariant, MemorySink};
    use crate::config::ExperimentConfig;
    use crate::planner::PlannerConfig;
    use crate::telemetry::CollectingObserver;
    use minipy::EngineKind;
    use rigor_workloads::Size;

    fn small_spec() -> CampaignSpec {
        let base = ExperimentConfig::interp()
            .with_invocations(2)
            .with_iterations(3)
            .with_size(Size::Small)
            .with_seed(11);
        CampaignSpec::new(base)
            .with_benchmarks(["sieve", "leibniz"])
            .with_engines(vec![EngineKind::Interp])
            .with_variants(vec![ConfigVariant::parse("2x3").unwrap()])
            .with_seeds(vec![11, 12])
    }

    fn journal_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "rigor-orchestrator-{tag}-{}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn campaign_executes_every_cell_exactly_once() {
        let sink = MemorySink::new();
        let report = Campaign::new(small_spec()).workers(3).run(&sink).unwrap();
        assert_eq!(report.total, 4);
        assert_eq!(report.executed, 4);
        assert_eq!(report.skipped, 0);
        assert_eq!(report.remaining, 0);
        assert!(report.failures.is_empty());
        assert!(report.is_complete());
        let ids: Vec<String> = sink.cells().into_iter().map(|(_, id, _)| id).collect();
        assert_eq!(
            ids,
            vec![
                "sieve/interp/2x3/11",
                "sieve/interp/2x3/12",
                "leibniz/interp/2x3/11",
                "leibniz/interp/2x3/12",
            ]
        );
    }

    #[test]
    fn worker_count_does_not_change_the_measurements() {
        let one = MemorySink::new();
        Campaign::new(small_spec()).workers(1).run(&one).unwrap();
        let four = MemorySink::new();
        Campaign::new(small_spec()).workers(4).run(&four).unwrap();
        let a = one.cells();
        let b = four.cells();
        assert_eq!(a.len(), b.len());
        for ((ia, ida, ma), (ib, idb, mb)) in a.iter().zip(&b) {
            assert_eq!(ia, ib);
            assert_eq!(ida, idb);
            assert_eq!(
                crate::export::to_json(std::slice::from_ref(ma)).unwrap(),
                crate::export::to_json(std::slice::from_ref(mb)).unwrap(),
                "cell {ida} must measure identically under any worker count"
            );
        }
    }

    #[test]
    fn max_cells_interrupts_and_resume_completes() {
        let path = journal_path("budget");
        let sink = MemorySink::new();
        let first = Campaign::new(small_spec())
            .workers(1)
            .journal(&path)
            .max_cells(2)
            .run(&sink)
            .unwrap();
        assert_eq!(first.executed, 2);
        assert_eq!(first.remaining, 2);
        assert!(!first.is_complete());
        assert_eq!(sink.len(), 2);

        let second = Campaign::new(small_spec())
            .workers(1)
            .journal(&path)
            .resume(true)
            .run(&sink)
            .unwrap();
        assert_eq!(second.skipped, 2);
        assert_eq!(second.executed, 2);
        assert!(second.is_complete());
        assert_eq!(sink.len(), 4);

        // The resumed archive matches an uninterrupted run cell for cell.
        let clean = MemorySink::new();
        Campaign::new(small_spec()).workers(1).run(&clean).unwrap();
        for ((ia, ida, ma), (ib, idb, mb)) in sink.cells().iter().zip(&clean.cells()) {
            assert_eq!((ia, ida), (ib, idb));
            assert_eq!(
                crate::export::to_json(std::slice::from_ref(ma)).unwrap(),
                crate::export::to_json(std::slice::from_ref(mb)).unwrap()
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_a_journal_from_another_grid() {
        let path = journal_path("mismatch");
        let sink = MemorySink::new();
        Campaign::new(small_spec())
            .journal(&path)
            .run(&sink)
            .unwrap();
        let other = small_spec().with_seeds(vec![99]);
        let err = Campaign::new(other)
            .journal(&path)
            .resume(true)
            .run(&MemorySink::new())
            .unwrap_err();
        assert!(matches!(err, CampaignError::JournalMismatch(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn campaign_events_flow_to_observers() {
        let obs = Arc::new(CollectingObserver::new());
        let sink = MemorySink::new();
        Campaign::new(small_spec())
            .workers(2)
            .observer(obs.clone())
            .run(&sink)
            .unwrap();
        let events = obs.events();
        let starts = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    ExperimentEvent::CampaignStarted {
                        cells: 4,
                        workers: 2,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(starts, 1);
        let cells_done: Vec<u32> = events
            .iter()
            .filter_map(|e| match e {
                ExperimentEvent::CellCompleted { completed, .. } => Some(*completed),
                _ => None,
            })
            .collect();
        assert_eq!(cells_done.len(), 4);
        assert_eq!(*cells_done.iter().max().unwrap(), 4);
        // Per-cell experiment streams ride along with campaign events.
        let experiments = events
            .iter()
            .filter(|e| matches!(e, ExperimentEvent::ExperimentFinished { .. }))
            .count();
        assert_eq!(experiments, 4);
        // No resume ⇒ no campaign_resumed.
        assert!(!events
            .iter()
            .any(|e| matches!(e, ExperimentEvent::CampaignResumed { .. })));
    }

    #[test]
    fn resumed_complete_campaign_executes_nothing() {
        let path = journal_path("noop");
        let sink = MemorySink::new();
        Campaign::new(small_spec())
            .journal(&path)
            .run(&sink)
            .unwrap();
        let obs = Arc::new(CollectingObserver::new());
        let report = Campaign::new(small_spec())
            .journal(&path)
            .resume(true)
            .observer(obs.clone())
            .run(&sink)
            .unwrap();
        assert_eq!(report.skipped, 4);
        assert_eq!(report.executed, 0);
        assert!(report.is_complete());
        assert!(obs
            .events()
            .iter()
            .any(|e| matches!(e, ExperimentEvent::CampaignResumed { completed: 4, .. })));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn arrival_pacing_still_completes_the_grid() {
        let sink = MemorySink::new();
        let spec = small_spec().with_arrival(ArrivalProcess::Uniform { mean_ms: 1.0 });
        let report = Campaign::new(spec).workers(4).run(&sink).unwrap();
        assert_eq!(report.executed, 4);
        assert_eq!(sink.len(), 4);
    }

    fn adaptive_spec(cfg: PlannerConfig) -> CampaignSpec {
        small_spec().with_planner(cfg)
    }

    fn planner() -> PlannerConfig {
        PlannerConfig::default()
            .with_target(0.05)
            .with_min_invocations(2)
            .with_max_invocations(8)
    }

    #[test]
    fn zero_workers_is_rejected() {
        let err = Campaign::new(small_spec())
            .workers(0)
            .run(&MemorySink::new())
            .unwrap_err();
        assert!(matches!(err, CampaignError::ZeroWorkers), "{err}");
    }

    #[test]
    fn invalid_planner_config_is_rejected() {
        let spec = adaptive_spec(PlannerConfig::default().with_target(0.0));
        let err = Campaign::new(spec).run(&MemorySink::new()).unwrap_err();
        assert!(matches!(err, CampaignError::Planner(_)), "{err}");
    }

    #[test]
    fn adaptive_campaign_archives_every_cell_with_precision() {
        let sink = MemorySink::new();
        let report = Campaign::new(adaptive_spec(planner()))
            .workers(2)
            .run(&sink)
            .unwrap();
        assert_eq!(report.total, 4);
        assert_eq!(report.executed, 4);
        assert!(report.is_complete());
        assert!(report.rounds >= 1);
        let precisions = sink.precisions();
        assert_eq!(precisions.len(), 4);
        let mut spent = 0u64;
        for (_, p) in &precisions {
            assert!(p.invocations_used >= 2 && p.invocations_used <= 8, "{p:?}");
            assert_eq!(p.target_rel_half_width, 0.05);
            assert_eq!(
                p.target_met,
                p.rel_half_width.is_some_and(|r| r <= 0.05),
                "{p:?}"
            );
            spent += u64::from(p.invocations_used);
        }
        assert_eq!(report.invocations, spent);
        // Unmet ids are exactly the archived cells short of target.
        let short = precisions.iter().filter(|(_, p)| !p.target_met).count();
        assert_eq!(report.unmet.len(), short);
    }

    #[test]
    fn adaptive_results_do_not_depend_on_worker_count() {
        let one = MemorySink::new();
        Campaign::new(adaptive_spec(planner()))
            .workers(1)
            .run(&one)
            .unwrap();
        let four = MemorySink::new();
        Campaign::new(adaptive_spec(planner()))
            .workers(4)
            .run(&four)
            .unwrap();
        assert_eq!(one.precisions(), four.precisions());
        for ((ia, ida, ma), (ib, idb, mb)) in one.cells().iter().zip(&four.cells()) {
            assert_eq!((ia, ida), (ib, idb));
            assert_eq!(
                crate::export::to_json(std::slice::from_ref(ma)).unwrap(),
                crate::export::to_json(std::slice::from_ref(mb)).unwrap(),
                "cell {ida} must refine identically under any worker count"
            );
        }
    }

    #[test]
    fn adaptive_interrupt_and_resume_matches_a_clean_run() {
        let path = journal_path("adaptive-resume");
        let sink = MemorySink::new();
        // Two measurement tickets interrupt the run inside the pilot round.
        let first = Campaign::new(adaptive_spec(planner()))
            .workers(1)
            .journal(&path)
            .max_cells(2)
            .run(&sink)
            .unwrap();
        assert!(!first.is_complete());
        assert!(first.remaining > 0);

        let second = Campaign::new(adaptive_spec(planner()))
            .workers(1)
            .journal(&path)
            .resume(true)
            .run(&sink)
            .unwrap();
        assert!(second.is_complete());
        assert_eq!(sink.len(), 4);

        // The converged archive — measurements and precision records —
        // matches an uninterrupted adaptive run cell for cell.
        let clean = MemorySink::new();
        Campaign::new(adaptive_spec(planner()))
            .workers(1)
            .run(&clean)
            .unwrap();
        assert_eq!(sink.precisions(), clean.precisions());
        for ((ia, ida, ma), (ib, idb, mb)) in sink.cells().iter().zip(&clean.cells()) {
            assert_eq!((ia, ida), (ib, idb));
            assert_eq!(
                crate::export::to_json(std::slice::from_ref(ma)).unwrap(),
                crate::export::to_json(std::slice::from_ref(mb)).unwrap()
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn adaptive_budget_exhaustion_archives_cells_short_of_target() {
        // An unreachable target under a tiny budget: the planner squeezes
        // what it can, then the final sweep archives everything unmet.
        let cfg = PlannerConfig::default()
            .with_target(0.0001)
            .with_min_invocations(2)
            .with_max_invocations(30)
            .with_budget(12);
        let obs = Arc::new(CollectingObserver::new());
        let sink = MemorySink::new();
        let report = Campaign::new(adaptive_spec(cfg))
            .workers(2)
            .observer(obs.clone())
            .run(&sink)
            .unwrap();
        assert!(report.is_complete(), "{report:?}");
        assert!(!report.unmet.is_empty(), "{report:?}");
        assert!(report.invocations <= 12, "{report:?}");
        let events = obs.events();
        assert!(events
            .iter()
            .any(|e| matches!(e, ExperimentEvent::PlanComputed { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, ExperimentEvent::BudgetExhausted { budget: 12, .. })));
        let refined = events
            .iter()
            .filter(|e| matches!(e, ExperimentEvent::CellRefined { .. }))
            .count();
        assert!(refined >= 4, "every cell refines at least once (pilot)");
    }

    #[test]
    fn worker_fields_use_the_configured_count_in_both_modes() {
        for (spec, adaptive) in [(small_spec(), false), (adaptive_spec(planner()), true)] {
            let obs = Arc::new(CollectingObserver::new());
            Campaign::new(spec)
                .workers(8)
                .observer(obs.clone())
                .run(&MemorySink::new())
                .unwrap();
            let events = obs.events();
            assert!(events
                .iter()
                .any(|e| matches!(e, ExperimentEvent::CampaignStarted { workers: 8, .. })));
            let workers: Vec<u32> = events
                .iter()
                .filter_map(|e| match e {
                    ExperimentEvent::CellCompleted { worker, .. } => Some(*worker),
                    _ => None,
                })
                .collect();
            assert_eq!(workers.len(), 4);
            assert!(workers.iter().all(|&w| w < 8), "{workers:?}");
            // A fixed campaign is the adaptive loop with no planning.
            let planned = events.iter().any(|e| {
                matches!(
                    e,
                    ExperimentEvent::PlanComputed { .. } | ExperimentEvent::CellRefined { .. }
                )
            });
            assert_eq!(planned, adaptive);
        }
    }

    #[test]
    fn reports_do_not_depend_on_worker_count() {
        // The cell lists a report carries (here `unmet`, which the
        // budget-starved spec fills) come back in grid order under any
        // schedule, so the whole report is worker-count independent.
        let starved = PlannerConfig::default()
            .with_target(0.0001)
            .with_min_invocations(2)
            .with_max_invocations(30)
            .with_budget(12);
        for (spec, min_unmet) in [
            (small_spec().with_seeds(vec![1, 2, 3]), 0),
            (adaptive_spec(planner()), 0),
            (adaptive_spec(starved), 2),
        ] {
            let one = Campaign::new(spec.clone())
                .workers(1)
                .run(&MemorySink::new())
                .unwrap();
            let four = Campaign::new(spec)
                .workers(4)
                .run(&MemorySink::new())
                .unwrap();
            assert_eq!(one, four);
            assert!(one.unmet.len() >= min_unmet, "{one:?}");
        }
    }

    #[test]
    fn max_cells_runs_exactly_the_leading_cells_under_any_worker_count() {
        let spec = small_spec().with_seeds(vec![1, 2, 3, 4, 5, 6]);
        let sink = MemorySink::new();
        let report = Campaign::new(spec)
            .workers(3)
            .max_cells(5)
            .run(&sink)
            .unwrap();
        assert_eq!(report.total, 12);
        assert_eq!(report.executed, 5);
        assert_eq!(report.remaining, 7);
        let archived: Vec<usize> = sink.cells().into_iter().map(|(i, _, _)| i).collect();
        assert_eq!(archived, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn adaptive_interrupt_on_many_workers_resumes_to_a_clean_run() {
        let path = journal_path("adaptive-resume-3w");
        let sink = MemorySink::new();
        let first = Campaign::new(adaptive_spec(planner()))
            .workers(3)
            .journal(&path)
            .max_cells(3)
            .run(&sink)
            .unwrap();
        assert!(!first.is_complete());
        assert!(first.remaining > 0);
        let second = Campaign::new(adaptive_spec(planner()))
            .workers(3)
            .journal(&path)
            .resume(true)
            .run(&sink)
            .unwrap();
        assert!(second.is_complete());

        let clean = MemorySink::new();
        Campaign::new(adaptive_spec(planner()))
            .workers(3)
            .run(&clean)
            .unwrap();
        assert_eq!(sink.precisions(), clean.precisions());
        for ((ia, ida, ma), (ib, idb, mb)) in sink.cells().iter().zip(&clean.cells()) {
            assert_eq!((ia, ida), (ib, idb));
            assert_eq!(
                crate::export::to_json(std::slice::from_ref(ma)).unwrap(),
                crate::export::to_json(std::slice::from_ref(mb)).unwrap()
            );
        }
        std::fs::remove_file(&path).ok();
    }
}
