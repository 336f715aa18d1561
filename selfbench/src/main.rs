//! `selfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints the host context and every metric with its
//! unit and sample counts, and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Exits 1 when any correctness check failed, 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use selfbench::common::{RunSettings, Scale};
use selfbench::host::{self, HostContext};
use selfbench::measure::json_number;
use selfbench::{per_layer, run_workload, END_TO_END};

/// Scratch directory for archives, relative to the working directory.
const WORK_DIR: &str = ".selfbench_work";

fn usage(msg: &str) -> ExitCode {
    eprintln!("selfbench: {msg}");
    eprintln!(
        "usage: selfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        selfbench::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1);
        match (args[i].as_str(), value) {
            ("--workload", Some(v)) => workload = Some(v.clone()),
            ("--seed", Some(v)) => seed = v.parse::<u64>().ok(),
            ("--seconds", Some(v)) => seconds = v.parse::<f64>().ok().filter(|s| *s > 0.0),
            ("--trace", Some(v)) => {
                trace = match v.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            (flag, _) => return usage(&format!("unexpected argument `{flag}`")),
        }
        i += 2;
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds (> 0) and --trace (0|1) are all required");
    };
    if !selfbench::WORKLOADS.contains(&workload.as_str()) {
        return usage(&format!("unknown workload `{workload}`"));
    }

    let settings = RunSettings {
        seed,
        seconds,
        trace,
        scale: Scale::Full,
        work_dir: PathBuf::from(WORK_DIR),
    };
    let host = HostContext::collect();
    let ticks0 = host::cpu_ticks();
    let outcome = run_workload(&workload, &settings);
    let steal = match (ticks0, host::cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            format!("{:.1}%", 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => "unknown".into(),
    };
    let _ = std::fs::remove_dir_all(WORK_DIR);
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("selfbench: {workload} could not run: {e}");
            return ExitCode::from(1);
        }
    };

    println!(
        "# selfbench {workload} (seed {seed}, {seconds} s, trace {})",
        u8::from(trace)
    );
    println!(
        "# host: {} | nproc {} | {} | profile {} | commit {}",
        host.cpu, host.nproc, host.rustc, host.profile, host.commit
    );
    println!("# settings: {}", outcome.settings);
    println!("# host CPU time stolen by the hypervisor during the run: {steal}");

    let names: Vec<(String, &str)> = if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    // A per-layer metric the workload does not exercise reads 0.
    for (name, unit) in &names {
        if outcome.metrics.get(name).is_none() {
            outcome
                .metrics
                .push(name, unit, 0.0, "layer not exercised by this workload");
        }
    }
    for m in &outcome.metrics.0 {
        println!(
            "{:<34} {:>16} {:<6} {}",
            m.name,
            json_number(m.value),
            m.unit,
            m.note
        );
    }
    if let Some((table, wall)) = &outcome.layers {
        println!("# layer-sum table (self time; rows + unattributed = traced wall time)");
        print!("{}", table.render(*wall));
    }
    for note in &outcome.notes {
        println!("# finding: {note}");
    }
    for f in &outcome.failures {
        println!("# FAILED: {f}");
    }

    let correct = outcome.failed == 0;
    let keys: Vec<&str> = names.iter().map(|(n, _)| n.as_str()).collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        outcome.metrics.to_json(&keys)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
