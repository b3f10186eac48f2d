//! A-A comparison: two alternating sets of runs of this same binary.
//! For every `workload/metric` it prints both medians, their gap, each
//! set's spread over seeds and the bound, and fails if a gap or a
//! spread exceeds the bound — the acceptance rule, run locally.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

use louvain_obs::Json;

use crate::stats::{spread, summarize};
use crate::workloads::{Opts, WORKLOADS};

/// This binary, told to run one workload.
pub fn ladder_command(workload: &str, opts: &Opts) -> Command {
    let mut cmd = Command::new(std::env::current_exe().expect("own path"));
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }]);
    if opts.quick {
        cmd.arg("--quick");
    }
    cmd
}

/// `(name, better, bound)` of every end-to-end metric in BENCHMARK.json.
fn bounds() -> Vec<(String, bool, f64)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let doc = Json::parse(&text).expect("BENCHMARK.json is JSON");
    let metrics = doc.get("end_to_end").and_then(Json::as_arr);
    metrics
        .expect("end_to_end is a list")
        .iter()
        .map(|m| {
            let field = |key| m.get(key).and_then(Json::as_str).expect("string field");
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            (field("name").to_string(), field("better") == "lower", bound)
        })
        .collect()
}

/// The metrics of the closing JSON line of one run.
fn run_once(workload: &str, opts: &Opts) -> Option<BTreeMap<String, f64>> {
    let out = ladder_command(workload, opts)
        .stderr(Stdio::inherit())
        .output()
        .expect("start child process");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = Json::parse(stdout.lines().last()?).ok()?;
    if !out.status.success() || doc.get("correct") != Some(&Json::Bool(true)) {
        return None;
    }
    let metrics = doc.get("metrics")?.as_obj()?;
    metrics
        .iter()
        .map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect()
}

pub fn run(runs: usize, opts: &Opts) -> bool {
    assert!(runs >= 2, "--aa needs at least 2 runs a set");
    let mut ok = true;
    // samples[workload][set][metric] → one value per run.
    let mut samples: BTreeMap<&str, [BTreeMap<String, Vec<f64>>; 2]> = BTreeMap::new();
    for i in 0..runs {
        // Alternate which set goes first; both sets see the same seeds.
        for set in if i % 2 == 0 { [0, 1] } else { [1, 0] } {
            for wl in &WORKLOADS {
                let seeded = Opts {
                    seed: opts.seed.wrapping_add(i as u64),
                    ..*opts
                };
                eprintln!("aa: run {i} set {} {}", ["A", "B"][set], wl.name);
                match run_once(wl.name, &seeded) {
                    Some(metrics) => {
                        let sets = samples.entry(wl.name).or_default();
                        for (name, value) in metrics {
                            sets[set].entry(name).or_default().push(value);
                        }
                    }
                    None => {
                        eprintln!("aa: {} failed at seed {}", wl.name, seeded.seed);
                        ok = false;
                    }
                }
            }
        }
    }
    println!("workload/metric median_A median_B gap spread_A spread_B bound verdict");
    let bounds = bounds();
    for (workload, sets) in &samples {
        for (metric, lower_is_better, bound) in bounds.iter().cloned() {
            let (Some(a), Some(b)) = (sets[0].get(&metric), sets[1].get(&metric)) else {
                continue;
            };
            let (med_a, med_b) = (summarize(a).med, summarize(b).med);
            // How much worse the second set's median is than the first's.
            let worse = if lower_is_better {
                med_b - med_a
            } else {
                med_a - med_b
            };
            let gap = worse / med_a.abs();
            let (spread_a, spread_b) = (spread(a), spread(b));
            // Set-up time is bounded on its median only.
            let steady = metric == "setup_s" || spread_a.max(spread_b) <= bound;
            let pass = gap <= bound && steady;
            ok &= pass;
            println!(
                "{workload}/{metric} {med_a} {med_b} {gap:+.4} {spread_a:.4} {spread_b:.4} {bound} {}",
                if pass { "ok" } else { "EXCEEDED" }
            );
        }
    }
    ok
}
