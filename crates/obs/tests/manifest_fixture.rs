//! Byte lock on a run manifest's deterministic section.
//!
//! `fixtures/manifest_deterministic.json` was written by hand from the
//! format's rules, not by the writer it checks: members in declaration
//! order (`schema`, `label`, `config`, `metrics`), `config` keys sorted,
//! two-space indentation with `": "`, integers exact, and floats in
//! their shortest digits, switching to exponent form below 1e-5 and from
//! 1e16 (`1e-7`, `-2.5e16`) with a `.0` on integral values otherwise.

use ats_obs::json::Json;
use ats_obs::manifest::{RunManifest, RuntimeSection, MANIFEST_SCHEMA};
use std::collections::BTreeMap;

const FIXTURE: &str = include_str!("fixtures/manifest_deterministic.json");

fn manifest() -> RunManifest {
    let config = Json::obj()
        .with("backend", "event")
        .with("big", 1e16)
        .with("edge", 1e-5)
        .with("empty", Json::obj())
        .with("exact", 123456789.0)
        .with("huge", -2.5e16)
        .with(
            "list",
            Json::Arr(vec![1u64.into(), (-2i64).into(), 0.5.into(), Json::arr()]),
        )
        .with("none", Json::Null)
        .with("nprocs", 8u64)
        .with("report_setup_overhead", false)
        .with("seed", u64::MAX)
        .with("threshold", 0.05)
        .with("tiny", 1e-7);
    RunManifest {
        schema: MANIFEST_SCHEMA,
        label: "fixture \"run\"\ttab".to_owned(),
        git_describe: "unknown".to_owned(),
        config,
        metrics: BTreeMap::from([("ats_b_total", 0), ("ats_a_total", 3)]),
        runtime: RuntimeSection {
            wall_seconds: 1.5,
            cpu_seconds: None,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        },
    }
}

#[test]
fn deterministic_json_reproduces_the_fixture_bytes() {
    assert_eq!(manifest().deterministic_json(), FIXTURE);
}

#[test]
fn full_manifest_parses_back_to_the_fixture_values_plus_runtime() {
    let full = Json::parse(&manifest().to_json_pretty()).unwrap();
    let det = Json::parse(FIXTURE).unwrap();
    assert_eq!(det.get("config"), Some(&manifest().config));
    for key in ["schema", "label", "config", "metrics"] {
        assert_eq!(full.get(key), det.get(key), "{key}");
    }
    let runtime = full.get("runtime").unwrap();
    assert_eq!(
        runtime.get("wall_seconds").and_then(Json::as_f64),
        Some(1.5)
    );
    assert_eq!(runtime.get("cpu_seconds"), Some(&Json::Null));
}
