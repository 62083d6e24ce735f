//! Byte lock on the metric schema: every export name, help string,
//! type, class and their order.
//!
//! Both fixtures were rendered by the registry as it stood before the
//! `registry!` table replaced its hand-written descriptor lists:
//! `prometheus_default.txt` is `prometheus(&Registry::default())`, and
//! `manifest_fresh_handle.json` is the deterministic section of
//! `build_manifest("schema-fixture", Json::obj(), &Handle::new(), 0.0)`.
//! A change that moves these bytes changes the schema, and must update
//! the fixtures on purpose.

use ats_obs::json::Json;
use ats_obs::{build_manifest, prometheus, Handle, Registry};

#[test]
fn prometheus_schema_matches_the_fixture_bytes() {
    assert_eq!(
        prometheus(&Registry::default()),
        include_str!("fixtures/prometheus_default.txt")
    );
}

#[test]
fn deterministic_manifest_schema_matches_the_fixture_bytes() {
    let manifest = build_manifest("schema-fixture", Json::obj(), &Handle::new(), 0.0);
    assert_eq!(
        manifest.deterministic_json(),
        include_str!("fixtures/manifest_fresh_handle.json")
    );
}
