//! The benchmark's own checks, at tiny sizes: every workload prints every
//! metric `BENCHMARK.json` names with its unit, passes its output checks,
//! and repeats its exact counts for a fixed seed.

use std::path::PathBuf;

use bss_json::Value;
use perfbench::{run, Config, Report, Scale, Workload};

fn tiny(workload: Workload, seed: u64, trace: bool) -> Config {
    Config {
        workload,
        seed,
        seconds: 1.0,
        trace,
        scale: Scale::Tiny,
        max_cycles: Some(2),
        spans_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("spans"),
    }
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn contract(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let doc = bss_json::parse(&text).expect("BENCHMARK.json parses");
    doc.field(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.field(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// The report's metrics as printed: parsed back from its result line.
fn printed(report: &Report) -> Vec<(String, String, f64)> {
    let line = report.json_line();
    let doc = bss_json::parse(&line).expect("result line is JSON");
    let Some(Value::Object(metrics)) = doc.field("metrics") else {
        panic!("no metrics object in {line}");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let unit = m.field("unit").and_then(Value::as_str).expect("unit");
            let value = match m.field("value") {
                Some(Value::Float(v)) => *v,
                Some(Value::Int(v)) => *v as f64,
                other => panic!("{name}: value {other:?}"),
            };
            (name.clone(), unit.to_string(), value)
        })
        .collect()
}

fn assert_names(report: &Report, want: &[(String, String)]) {
    let got: Vec<(String, String)> = printed(report)
        .into_iter()
        .map(|(n, u, _)| (n, u))
        .collect();
    assert_eq!(got, want, "printed metrics differ from BENCHMARK.json");
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    let want = contract("end_to_end");
    for workload in Workload::ALL {
        let report = run(&tiny(workload, 7, false));
        assert!(report.correct, "{}: {:?}", workload.name(), report.notes);
        assert_names(&report, &want);
        for (name, _, value) in printed(&report) {
            assert!(value > 0.0, "{}: {name} = {value}", workload.name());
            if name == "ok_frac" {
                assert_eq!(value, 1.0, "{}", workload.name());
            }
        }
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric_and_replay_every_op() {
    let want = contract("per_layer");
    for workload in Workload::ALL {
        let report = run(&tiny(workload, 7, true));
        // `correct` includes the served-versus-replayed equality of every op.
        assert!(report.correct, "{}: {:?}", workload.name(), report.notes);
        assert_eq!(report.failed, 0);
        assert_names(&report, &want);
    }
}

#[test]
fn counts_and_quality_repeat_exactly_for_a_fixed_seed() {
    for workload in Workload::ALL {
        let a = run(&tiny(workload, 11, false));
        let b = run(&tiny(workload, 11, false));
        assert_eq!(a.counts, b.counts, "{}", workload.name());
        assert_eq!(
            a.makespan_ratio_mean.to_bits(),
            b.makespan_ratio_mean.to_bits(),
            "{}",
            workload.name()
        );
        assert!(a.counts.iter().any(|(_, v)| *v > 0));
    }
}
