//! The one scheduling primitive: a counter pool over index-addressed jobs.
//!
//! Every parallel loop in the crate — a campaign round, the verification
//! grid, an experiment's invocations — is a set of independent jobs whose
//! results are addressed by index, so the scheduler needs no queues: each
//! worker claims an execution ticket, then the next index from one shared
//! counter. Indices are claimed in increasing order, so a ticket budget of
//! `k` runs exactly the first `k` jobs whatever the worker count.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `f(worker, index)` once for every index in `0..n` on
/// `min(workers, n)` lanes, and returns how many indices were never
/// claimed.
///
/// `tickets` bounds the total: a lane takes one ticket before claiming an
/// index and stops when none is left. A lane that finds every index claimed
/// hands its ticket back, so a budget shared across back-to-back calls is
/// spent only on jobs that actually ran. Indices left unclaimed are always
/// the tail of `0..n`.
///
/// Lane 0 is the calling thread, the others are scoped threads. Working on
/// the caller instead of idling in the join saves a thread per call. It
/// also matters for memory: with a spawned thread per lane, the adaptive
/// campaign of the `suite_adaptive` benchmark peaked at 23 MiB resident
/// instead of 16 MiB under glibc malloc (2-vCPU Xeon VM; the gap vanishes
/// with a single malloc arena), as the records workers archive ended up in
/// arenas that later rounds' short-lived threads reuse.
pub(crate) fn run_indexed<F>(n: usize, workers: usize, tickets: &AtomicUsize, f: F) -> usize
where
    F: Fn(usize, usize) + Sync,
{
    let next = AtomicUsize::new(0);
    let lane = |worker: usize| loop {
        if tickets
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |t| t.checked_sub(1))
            .is_err()
        {
            break;
        }
        let index = next.fetch_add(1, Ordering::Relaxed);
        if index >= n {
            tickets.fetch_add(1, Ordering::Relaxed);
            break;
        }
        f(worker, index);
    };
    let lanes = workers.min(n);
    std::thread::scope(|scope| {
        for worker in 1..lanes {
            let lane = &lane;
            scope.spawn(move || lane(worker));
        }
        if lanes > 0 {
            lane(0);
        }
    });
    n - next.into_inner().min(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Runs the pool and returns, per index, how many times it ran, plus
    /// the unclaimed count.
    fn run_counts(n: usize, workers: usize, tickets: &AtomicUsize) -> (Vec<usize>, usize) {
        let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let unclaimed = run_indexed(n, workers, tickets, |worker, i| {
            assert!(worker < workers.min(n), "worker {worker} out of range");
            runs[i].fetch_add(1, Ordering::Relaxed);
        });
        (
            runs.into_iter().map(AtomicUsize::into_inner).collect(),
            unclaimed,
        )
    }

    #[test]
    fn every_index_runs_exactly_once() {
        for n in [0, 1, 7, 100] {
            for workers in [1, 2, 8] {
                let tickets = AtomicUsize::new(usize::MAX);
                let (runs, unclaimed) = run_counts(n, workers, &tickets);
                assert!(runs.iter().all(|&r| r == 1), "n={n} workers={workers}");
                assert_eq!(unclaimed, 0);
                assert_eq!(
                    tickets.into_inner(),
                    usize::MAX - n,
                    "unused tickets return"
                );
            }
        }
    }

    #[test]
    fn a_budget_runs_exactly_the_leading_indices() {
        for workers in [1, 2, 8] {
            for k in [0, 1, 6] {
                let tickets = AtomicUsize::new(k);
                let (runs, unclaimed) = run_counts(7, workers, &tickets);
                let expect: Vec<usize> = (0..7).map(|i| usize::from(i < k)).collect();
                assert_eq!(runs, expect, "k={k} workers={workers}");
                assert_eq!(unclaimed, 7 - k);
                assert_eq!(tickets.into_inner(), 0);
            }
        }
    }

    #[test]
    fn returned_tickets_keep_a_shared_budget_exact_across_calls() {
        // The adaptive-round case: one budget spans back-to-back rounds, and
        // workers that drain a round early must not burn tickets.
        for workers in [1, 2, 8] {
            let tickets = AtomicUsize::new(10);
            let (first, unclaimed) = run_counts(4, workers, &tickets);
            assert_eq!(first, vec![1; 4]);
            assert_eq!(unclaimed, 0);
            assert_eq!(tickets.load(Ordering::Relaxed), 6);
            let (second, unclaimed) = run_counts(9, workers, &tickets);
            assert_eq!(second, [vec![1; 6], vec![0; 3]].concat());
            assert_eq!(unclaimed, 3);
            assert_eq!(tickets.into_inner(), 0);
        }
    }

    #[test]
    fn one_worker_claims_indices_in_order() {
        let order = Mutex::new(Vec::new());
        let tickets = AtomicUsize::new(usize::MAX);
        run_indexed(5, 1, &tickets, |_, i| order.lock().unwrap().push(i));
        assert_eq!(order.into_inner().unwrap(), vec![0, 1, 2, 3, 4]);
    }
}
