//! Tests that tie the runner to `BENCHMARK.json` and to the root
//! manifest; the helpers have their own tests next to them.

use std::collections::BTreeMap;
use std::path::Path;

use louvain_obs::Json;

use super::*;

fn repo_file(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `key = value` lines of one `[section]` of a manifest.
fn manifest_section(text: &str, section: &str) -> BTreeMap<String, String> {
    text.lines()
        .map(str::trim)
        .skip_while(|line| *line != format!("[{section}]"))
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter_map(|line| line.split_once('='))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect()
}

#[test]
fn release_profile_repeats_the_root_manifest() {
    let root = manifest_section(&repo_file("Cargo.toml"), "profile.release");
    let own = manifest_section(&repo_file("bench/Cargo.toml"), "profile.release");
    assert!(!root.is_empty(), "root manifest lost its [profile.release]");
    assert_eq!(own, root, "bench/Cargo.toml drifted from the root profile");
}

fn args(line: &str) -> Result<Args, String> {
    parse_args(line.split_whitespace().map(String::from))
}

#[test]
fn driver_and_hand_typed_forms_of_trace_both_parse() {
    let a = args("--workload rmat_et_p2 --seed 9 --seconds 10 --trace 0").unwrap();
    assert_eq!(a.workload.as_deref(), Some("rmat_et_p2"));
    assert_eq!(
        (a.opts.seed, a.opts.seconds, a.opts.trace),
        (9, 10.0, false)
    );
    assert_eq!(args("--seed -1").unwrap().opts.seed, u64::MAX);
    assert!(args("--trace 1").unwrap().opts.trace);
    let bare = args("--trace --quick").unwrap();
    assert!(bare.opts.trace && bare.opts.quick);
    assert!(args("--trace").unwrap().opts.trace);
    assert!(!args("").unwrap().opts.trace);
}

#[test]
fn bad_arguments_are_refused() {
    assert!(args("--workload nope").is_err());
    assert!(args("--seconds 0").is_err());
    assert!(args("--seed").is_err());
    assert!(args("--frobnicate").is_err());
}

#[test]
fn seconds_scale_the_fixed_rep_counts() {
    let wl = Workload::by_name("rmat_seq_p1").unwrap();
    let at = |seconds| {
        let opts = Opts {
            seconds,
            ..args("").unwrap().opts
        };
        wl.rep_counts(&opts).1
    };
    assert_eq!(at(2.0 * RUN_SECONDS), 2 * at(RUN_SECONDS));
    assert_eq!(at(0.001), 3, "never fewer than three timed reps");
}

/// Metric names → unit of one list of BENCHMARK.json.
fn declared(doc: &Json, list: &str) -> BTreeMap<String, String> {
    let metrics = doc.get(list).and_then(Json::as_arr).expect(list);
    metrics
        .iter()
        .map(|m| {
            let field = |key| m.get(key).and_then(Json::as_str).expect(key).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Metric names → unit of a closing JSON line; panics on a repeat.
fn emitted(line: &str) -> BTreeMap<String, String> {
    let doc = Json::parse(line).expect("closing line is JSON");
    let mut seen = BTreeMap::new();
    for (name, metric) in doc.get("metrics").and_then(Json::as_obj).expect("metrics") {
        let unit = metric.get("unit").and_then(Json::as_str).expect("unit");
        assert!(
            metric.get("value").and_then(Json::as_f64).is_some(),
            "{name}"
        );
        assert!(
            seen.insert(name.clone(), unit.to_string()).is_none(),
            "{name} emitted twice"
        );
    }
    seen
}

/// The `--quick` smoke: tiny graphs, numbers discarded. Every workload
/// must pass its checks and emit exactly the metrics BENCHMARK.json
/// declares, once each — end-to-end from the normal run, per-layer from
/// the traced one. One test, because tracing is a process-wide switch.
#[test]
fn quick_smoke_emits_every_declared_metric_once() {
    let doc = Json::parse(&repo_file("BENCHMARK.json")).expect("BENCHMARK.json is JSON");
    let end_to_end = declared(&doc, "end_to_end");
    let per_layer = declared(&doc, "per_layer");
    assert_eq!(
        end_to_end,
        E2E.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    );
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_f64),
        Some(RUN_SECONDS)
    );
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(names, WORKLOADS.map(|w| w.name));

    for wl in &WORKLOADS {
        for trace in [false, true] {
            let opts = Opts {
                trace,
                quick: true,
                ..args("").unwrap().opts
            };
            let report = run_workload(wl, &opts);
            assert_eq!(report.failed, 0, "{} trace={trace}", wl.name);
            assert!(report.attempted >= 1);
            let want = if trace { &per_layer } else { &end_to_end };
            let got = emitted(&result_line(&report, trace));
            assert_eq!(&got, want, "{} trace={trace}", wl.name);
            // The printed rows carry no name twice either.
            let mut rows: Vec<&str> = report.rows.iter().map(|r| r.name.as_str()).collect();
            rows.sort_unstable();
            let before = rows.len();
            rows.dedup();
            assert_eq!(rows.len(), before, "{} prints a metric twice", wl.name);
        }
        let trace_file = out_dir().join(format!("trace_{}.json", wl.name));
        let trace = Json::parse(&std::fs::read_to_string(trace_file).expect("trace written"));
        assert!(trace.expect("trace is JSON").get("traceEvents").is_some());
    }
}
