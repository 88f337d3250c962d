//! Smoke-size runs of every workload through the benchmark binary.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml` from the
//! repository root.

use std::path::Path;
use std::process::Command;

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`
/// (`"end_to_end"` or `"per_layer"`), which keeps one metric per line.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("no {section} list"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.lines()
        .filter(|l| l.contains("\"name\""))
        .map(|l| (field(l, "name"), field(l, "unit")))
        .collect()
}

/// The string value of `"key": "<value>"` in `text`.
fn field(text: &str, key: &str) -> String {
    let pat = format!("\"{key}\": \"");
    let at = text
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {text}"))
        + pat.len();
    text[at..]
        .split('"')
        .next()
        .expect("closing quote")
        .to_string()
}

/// The number after `"value": ` following `"<name>": {` in the result line.
fn value(result: &str, name: &str) -> Option<f64> {
    let at = result.find(&format!("\"{name}\": {{"))?;
    let rest = &result[at..];
    let v = rest.split("\"value\": ").nth(1)?;
    v.split([',', '}']).next()?.trim().parse().ok()
}

struct Run {
    code: i32,
    stdout: String,
}

fn run(workload: &str, seed: u64, trace: u8) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "0.1",
            "--trace",
            &trace.to_string(),
            "--size",
            "smoke",
        ])
        .output()
        .expect("benchmark binary runs");
    let run = Run {
        code: out.status.code().unwrap_or(-1),
        stdout: String::from_utf8(out.stdout).expect("utf-8 stdout"),
    };
    assert_eq!(
        run.code,
        0,
        "{workload} seed {seed} trace {trace} failed:\n{}\n{}",
        run.stdout,
        String::from_utf8_lossy(&out.stderr)
    );
    run
}

fn result_line(run: &Run) -> &str {
    run.stdout.lines().last().expect("a result line")
}

#[test]
fn every_listed_metric_is_printed_finite_with_its_unit() {
    for workload in ["steady", "outbreak", "epidemic_1m"] {
        for (trace, section) in [(0u8, "end_to_end"), (1, "per_layer")] {
            let r = run(workload, 7, trace);
            let line = result_line(&r);
            assert!(line.starts_with("{\"correct\": true, "), "{line}");
            let wanted = listed(section);
            assert!(!wanted.is_empty());
            for (name, unit) in &wanted {
                let v = value(line, name)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing from {line}"));
                assert!(v.is_finite(), "{workload}: {name} = {v}");
                let at = line.find(&format!("\"{name}\": {{")).expect("present");
                assert_eq!(
                    field(&line[at..], "unit"),
                    *unit,
                    "{workload}: unit of {name}"
                );
            }
            assert_eq!(
                line.matches("\"unit\"").count(),
                wanted.len(),
                "{workload}: only the {section} metrics are reported"
            );
        }
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    for workload in ["steady", "outbreak", "epidemic_1m"] {
        let r = run(workload, 7, 0);
        for (name, _) in listed("end_to_end") {
            let v = value(result_line(&r), &name).expect("present");
            assert!(v > 0.0, "{workload}: {name} = {v}");
        }
    }
}

#[test]
fn replay_digest_equals_fleet_run_for_two_seeds() {
    for workload in ["steady", "outbreak"] {
        for seed in [1u64, 2] {
            let r = run(workload, seed, 0);
            let checks: Vec<&str> = r
                .stdout
                .lines()
                .filter(|l| l.starts_with("check digest"))
                .collect();
            assert!(
                !checks.is_empty(),
                "{workload} seed {seed}: no digest check"
            );
            for line in checks {
                let words: Vec<&str> = line.split_whitespace().collect();
                // check digest replay <d> fleet::run <r> ...
                assert_eq!(words[3], words[5], "{workload} seed {seed}: {line}");
            }
        }
    }
}

#[test]
fn traced_run_layers_sum_to_the_traced_run() {
    for workload in ["steady", "outbreak", "epidemic_1m"] {
        let r = run(workload, 3, 1);
        let line = result_line(&r);
        let get = |n: &str| value(line, n).unwrap_or_else(|| panic!("{n} missing"));
        let layers: f64 = ["apps", "sweeper", "fleet", "epidemic", "analysis"]
            .iter()
            .map(|l| get(&format!("{l}.run_self_s")))
            .sum();
        let total = layers + get("trace.residual_s");
        let run_s = get("trace.run_s");
        assert!(
            (total - run_s).abs() <= 1e-9 * run_s.max(1.0),
            "{workload}: layers {layers} + residual = {total} != traced run_s {run_s}"
        );
        assert!(
            get("trace.residual_s") >= 0.0,
            "{workload}: negative residual"
        );
    }
}
