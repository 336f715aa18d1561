//! Self-tests of the benchmark's own code: metric names, the tail rule,
//! the layer-sum and host-speed arithmetic, seeded inputs, exact VM counts
//! and a tiny smoke run of every workload.

use std::path::PathBuf;

use selfbench::campaign::{plan, CampaignKind};
use selfbench::common::{Outcome, RunSettings, Scale};
use selfbench::measure::{
    summarize_reps, tail, valid_metric_name, window_rates, LayerTable, TAIL_BEYOND,
};
use selfbench::serve::{inputs, ServeShape};
use selfbench::{per_layer, run_workload, BENCHMARK_WORKLOADS, END_TO_END, WORKLOADS};

/// The repository root: the benchmark reads the committed checksum
/// manifest relative to it.
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("package lives in the repo")
        .to_path_buf()
}

/// Runs `workload` at the tiny scale in a work directory of its own, which
/// is removed afterwards.
fn run_tiny(workload: &str, seed: u64, trace: bool) -> Outcome {
    std::env::set_current_dir(repo_root()).expect("repo root");
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("selfbench-{workload}-{seed}-{trace}"));
    let settings = RunSettings {
        seed,
        seconds: 0.01,
        trace,
        scale: Scale::Tiny,
        work_dir: work_dir.clone(),
    };
    let out = run_workload(workload, &settings);
    let _ = std::fs::remove_dir_all(&work_dir);
    out.expect("runs")
}

#[test]
fn metric_names_match_the_allowed_alphabet_and_are_unique() {
    let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    names.extend(per_layer().into_iter().map(|(n, _)| n));
    for n in &names {
        assert!(valid_metric_name(n), "bad metric name {n}");
        assert!(n.len() <= 64, "metric name too long: {n}");
    }
    let mut sorted = names.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "duplicate metric names");
    assert!(!valid_metric_name("a b"));
    assert!(!valid_metric_name(""));
    assert!(!valid_metric_name("ops/s"));
}

#[test]
fn benchmark_json_lists_the_same_workloads_and_metrics() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    for w in BENCHMARK_WORKLOADS {
        assert!(text.contains(&format!("\"name\": \"{w}\"")), "{w} missing");
    }
    assert!(!text.contains("\"name\": \"serve_mixed\""));
    for (n, u) in END_TO_END {
        assert!(
            text.contains(&format!("\"name\": \"{n}\", \"unit\": \"{u}\"")),
            "{n} missing"
        );
    }
    for (n, u) in per_layer() {
        assert!(
            text.contains(&format!("\"name\": \"{n}\", \"unit\": \"{u}\"")),
            "{n} missing"
        );
    }
}

#[test]
fn tail_rule_leaves_exactly_ten_samples_beyond() {
    assert!(
        tail(&[1.0; 10]).is_none(),
        "10 samples cannot have 10 beyond a percentile"
    );
    for n in [11usize, 12, 58, 91, 300, 928] {
        // A shuffled 0..n so sorting matters.
        let xs: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64).collect();
        let t = tail(&xs).expect("enough samples");
        let beyond = xs.iter().filter(|&&x| x > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND, "n = {n}");
        assert_eq!(t.n, n);
        let expected = 100.0 * (n - 1 - TAIL_BEYOND) as f64 / (n - 1) as f64;
        assert!((t.percentile - expected).abs() < 1e-9);
    }
    let t = tail(&(1..=20).map(f64::from).collect::<Vec<_>>()).unwrap();
    assert_eq!(t.value, 10.0);
}

#[test]
fn repetition_summary_takes_medians_across_reps() {
    let rep = |offset: f64| (0..21).map(|i| f64::from(i) + offset).collect::<Vec<_>>();
    let s = summarize_reps(&[rep(0.0), rep(100.0), rep(1.0)]).unwrap();
    assert_eq!(s.p50, 11.0, "median of rep medians 10, 110, 11");
    assert_eq!(s.tail, 11.0, "median of rep tails 10, 110, 11");
    assert_eq!(s.per_rep, 21);
    assert_eq!(s.reps, 3);
}

#[test]
fn window_rates_divide_out_host_speed() {
    // Three repetitions of 10 ops; the host runs the reference kernel in
    // 1 s, then twice as slowly for the last two, and the walls follow.
    let ops = [10.0, 10.0, 10.0];
    let walls = [1.0, 2.0, 2.0];
    let (raw, normalized) = window_rates(&ops, &walls, &[1.0, 2.0, 2.0], 1.0).unwrap();
    assert_eq!(raw, 30.0 / 5.0, "total ops over total wall");
    assert_eq!(normalized, 10.0, "every repetition rescales to 1 s");
    // At the nominal speed both figures agree; a faster nominal host
    // scales the normalized figure up.
    let (raw, normalized) = window_rates(&ops, &walls, &[0.5; 3], 0.5).unwrap();
    assert_eq!(raw, normalized);
    let (_, doubled) = window_rates(&ops, &walls, &[1.0, 2.0, 2.0], 0.5).unwrap();
    assert_eq!(doubled, 20.0);
    assert!(window_rates(&[], &[], &[], 1.0).is_none());
    assert!(window_rates(&ops, &walls, &[1.0, 0.0, 1.0], 1.0).is_none());
    assert!(window_rates(&ops, &walls[..2], &[1.0; 3], 1.0).is_none());
}

#[test]
fn layer_table_self_time_closes_to_the_wall() {
    let mut t = LayerTable::default();
    // A 10 s run: 6 s of sequential timers …
    t.add("runner", 3.0);
    t.add("session", 2.0);
    t.add("iterations", 1.0);
    // … and a 4 s two-lane stage where the lanes worked 3 s and 2 s.
    t.add_lanes(4.0, 2, &[("store", 3.0), ("cells", 2.0)], "idle");
    let row = |t: &LayerTable, name: &str| t.rows().iter().find(|(l, _)| l == name).unwrap().1;
    assert_eq!(row(&t, "runner"), 3.0);
    assert_eq!(row(&t, "session"), 2.0);
    assert_eq!(row(&t, "iterations"), 1.0);
    assert_eq!(row(&t, "store"), 1.5);
    assert_eq!(row(&t, "cells"), 1.0);
    assert_eq!(row(&t, "idle"), 1.5);
    assert_eq!(t.attributed(), 10.0);
    assert_eq!(t.unattributed_frac(10.0), 0.0);
    assert!((t.unattributed_frac(12.5) - 0.2).abs() < 1e-12);
    // Repeated rows accumulate.
    t.add("store", 0.5);
    assert_eq!(row(&t, "store"), 2.0);
}

#[test]
fn same_seed_same_inputs_different_seed_different_inputs() {
    for kind in [
        CampaignKind::SuiteVm,
        CampaignKind::ArchiveChurn,
        CampaignKind::SuiteAdaptive,
    ] {
        let a = plan(kind, 7, Scale::Full).spec.fingerprint();
        let b = plan(kind, 7, Scale::Full).spec.fingerprint();
        let c = plan(kind, 8, Scale::Full).spec.fingerprint();
        assert_eq!(a, b, "{kind:?}");
        assert_ne!(a, c, "{kind:?}");
    }
    let churn = plan(CampaignKind::ArchiveChurn, 7, Scale::Full);
    assert_eq!(churn.spec.cell_count(), 29 * 2 * 16);

    let ids = |seed| {
        let inp = inputs(seed, ServeShape::at(Scale::Full));
        let mut ids: Vec<String> = inp.history.iter().map(|r| r.id.clone()).collect();
        ids.extend(inp.uploads.iter().map(|r| r.id.clone()));
        (ids, inp.ops)
    };
    let (a, ops_a) = ids(7);
    let (b, ops_b) = ids(7);
    let (c, _) = ids(8);
    assert_eq!(ops_a, ops_b);
    // Record ids hash the host metadata too, so compare within one host.
    assert_eq!(a, b);
    assert_ne!(a, c);
}

#[test]
fn exact_vm_counts_repeat_under_the_same_seed() {
    let counts = |seed| {
        let out = run_tiny("suite_vm", seed, true);
        assert_eq!(out.failed, 0, "{:?}", out.failures);
        [
            "minipy.ops",
            "minipy.dict_probes",
            "minipy.allocations",
            "minipy.virtual_ns",
        ]
        .iter()
        .map(|n| out.metrics.get(n).expect(n).value)
        .collect::<Vec<_>>()
    };
    let a = counts(5);
    assert!(a[0] > 0.0);
    assert_eq!(a, counts(5));
}

#[test]
fn tiny_smoke_run_of_every_workload_is_correct() {
    for w in WORKLOADS {
        let out = run_tiny(w, 1, false);
        assert!(out.attempted > 0, "{w}");
        assert_eq!(out.failed, 0, "{w}: {:?}", out.failures);
        for (name, unit) in END_TO_END {
            let m = out
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("{w}: {name} missing"));
            assert_eq!(m.unit, unit);
            assert!(m.value > 0.0, "{w}: {name} = {}", m.value);
        }
        let frac = out.metrics.get("failed_frac").expect("failed_frac").value;
        assert_eq!(frac, 0.0, "{w}");
    }
}

#[test]
fn tiny_traced_run_closes_its_layer_table() {
    for w in WORKLOADS {
        let out = run_tiny(w, 2, true);
        assert_eq!(out.failed, 0, "{w}: {:?}", out.failures);
        let (table, wall) = out.layers.expect("traced runs build a table");
        let residual = table.unattributed_frac(wall);
        assert!(residual.abs() < 0.05, "{w}: unattributed {residual}");
        for name in [
            "trace.overhead_frac",
            "trace.unattributed_frac",
            "store.append.us_p50",
        ] {
            assert!(out.metrics.get(name).is_some(), "{w}: {name} missing");
        }
        if w == "archive_churn" {
            // The embedded server stage times the server's layers.
            for name in [
                "serve.check.ms_p50",
                "regress.check.ms_p50",
                "trend.analyze.ms_p50",
            ] {
                assert!(out.metrics.get(name).is_some(), "{w}: {name} missing");
            }
        }
    }
}
