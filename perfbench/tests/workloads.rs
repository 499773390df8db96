//! Each workload in tiny form must reproduce its recorded digest, and
//! spans must attribute time to the layer that spent it.

use salamander_difs::cluster::Cluster;
use salamander_difs::store::ChunkStore;
use salamander_difs::types::DifsConfig;
use salamander_perfbench::span::{Tracer, ROOT};
use salamander_perfbench::{
    cluster_churn, expected_digest, fleet_aging, trace_query, Size, DEFAULT_SEED, PER_LAYER,
};
use std::time::{Duration, Instant};

#[test]
fn tiny_fleet_aging_matches_its_digest() {
    assert_eq!(
        fleet_aging::digest(Size::Tiny, DEFAULT_SEED),
        expected_digest("fleet_aging", Size::Tiny)
    );
}

#[test]
fn tiny_cluster_churn_matches_its_digest() {
    assert_eq!(
        cluster_churn::digest(Size::Tiny, DEFAULT_SEED),
        expected_digest("cluster_churn", Size::Tiny)
    );
}

#[test]
fn tiny_trace_query_matches_its_digest() {
    let dir = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
    let got = trace_query::digest(Size::Tiny, DEFAULT_SEED, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(got, expected_digest("trace_query", Size::Tiny));
}

fn spin(d: Duration) {
    let t = Instant::now();
    while t.elapsed() < d {
        std::hint::spin_loop();
    }
}

#[test]
fn a_busy_wait_inside_one_layer_call_lands_in_that_layer_only() {
    let mut cluster = Cluster::new();
    let node = cluster.add_node();
    let device = cluster.add_device(node);
    for _ in 0..6 {
        cluster.add_unit(device, 4);
    }
    let mut store = ChunkStore::new(DifsConfig {
        replication: 1,
        chunk_bytes: 256 * 1024,
        recovery_chunks_per_tick: Some(4),
    });
    store.create_chunk(&mut cluster).unwrap();
    let mut tr = Tracer::on();
    tr.enter(ROOT);
    for _ in 0..5 {
        tr.span("difs.tick", || {
            store.tick(&mut cluster);
            spin(Duration::from_millis(10));
        });
        tr.span("obs.cluster_rollup", || store.cluster_rollup(&cluster));
    }
    tr.exit();
    let layers = tr.self_by_layer();
    assert!(layers["difs"] >= 0.050, "{layers:?}");
    assert!(layers["obs"] < 0.010, "{layers:?}");
    assert!(layers["bench"] < 0.010, "{layers:?}");
}

fn field<'a>(v: &'a serde::Value, key: &str) -> &'a serde::Value {
    let fields = v.as_object().expect("a JSON object");
    &fields.iter().find(|(k, _)| k == key).expect(key).1
}

/// The figures the benchmark prints are the ones `BENCHMARK.json`
/// declares, in the same order.
#[test]
fn benchmark_json_declares_every_reported_figure() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = serde_json::from_str_value(&std::fs::read_to_string(path).unwrap()).unwrap();
    let list = |key: &str, a: &str, b: &str| -> Vec<(String, String)> {
        field(&json, key)
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k: &str| field(m, k).as_str().unwrap_or("").to_string();
                (s(a), s(b))
            })
            .collect()
    };
    let reported: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(list("per_layer", "name", "unit"), reported);
    let reported: Vec<(String, String)> =
        salamander_perfbench::end_to_end(&[1.0], 1.0, 1.0, &[1.0])
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect();
    assert_eq!(list("end_to_end", "name", "unit"), reported);
    let workloads: Vec<String> = list("workloads", "name", "name")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, salamander_perfbench::WORKLOADS);
}
