//! Validates every committed `BENCH_*.json` at the repo root against
//! the bench-report schema, with `emu-telemetry`'s own parser: the
//! envelope, the keys each kind of row must carry, and what each record
//! was committed to show. A corrupt or hand-edited record fails here,
//! before any bench compares against it.

use emu::telemetry::{BenchReport, Json};
use std::collections::BTreeSet;

/// Keys of a `sustained` row; `flow_scale:` and `topo:` rows carry them
/// too, which is what lets the baseline gate key on (service, backend,
/// shards) without cross-matching.
const SUSTAINED_KEYS: [&str; 9] = [
    "service", "backend", "shards", "mode", "frames", "mpps", "p50_ns", "p99_ns", "p999_ns",
];

fn require(file: &str, row: &Json, keys: &[&str]) {
    for key in keys {
        assert!(
            row.get(key).is_some(),
            "{file}: row missing `{key}`: {row:?}"
        );
    }
}

#[test]
fn committed_bench_records_are_valid() {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(env!("CARGO_MANIFEST_DIR")).unwrap() {
        let path = entry.unwrap().path();
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        if !(file.starts_with("BENCH_") && file.ends_with(".json")) {
            continue;
        }
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap())
            .unwrap_or_else(|e| panic!("{file}: {e}"));
        BenchReport::validate(&doc).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(
            doc.get("bench").and_then(Json::as_str),
            Some("sustained"),
            "{file}"
        );

        // Rows are told apart by kind: backend_compare rows have no
        // `shards`; the sweeps riding on a sustained record prefix
        // their service name.
        let (mut flow_scale, mut topo, mut topo_requests) = (0, 0, 0);
        let (mut compare, mut batched) = (0, 0);
        let mut twice = BTreeSet::new();
        for row in doc.get("rows").and_then(Json::as_arr).expect("validated") {
            require(&file, row, &["service"]);
            let service = row.get("service").and_then(Json::as_str).unwrap_or("");
            if row.get("shards").is_none() {
                compare += 1;
                require(&file, row, &["backend", "us_per_frame", "speedup"]);
                // BENCH_10's extra column: batched over compiled-scalar.
                if let Some(x) = row.get("batched_speedup").and_then(Json::as_f64) {
                    batched += 1;
                    if x >= 2.0 {
                        twice.insert(service);
                    }
                }
                continue;
            }
            require(&file, row, &SUSTAINED_KEYS);
            if service.starts_with("flow_scale:") {
                flow_scale += 1;
                require(&file, row, &["live_flows", "table_entries"]);
            } else if service.starts_with("topo:") {
                topo += 1;
                require(&file, row, &["engines", "clients", "completed"]);
                let engines = row.get("engines").and_then(Json::as_u64);
                assert!(engines >= Some(8), "{file}: {row:?}");
                topo_requests += row.get("frames").and_then(Json::as_u64).unwrap_or(0);
            }
        }

        // What each record was committed to show.
        match file.as_str() {
            "BENCH_7.json" => assert!(flow_scale > 0, "{file}: no flow_scale rows"),
            "BENCH_8.json" => {
                assert!(topo > 0, "{file}: no topo rows");
                assert!(
                    topo_requests >= 100_000,
                    "{file}: topo rows cover only {topo_requests} closed-loop requests"
                );
            }
            "BENCH_10.json" => {
                assert_eq!((compare, batched), (15, 15), "{file}: backend_compare rows");
                assert!(twice.len() >= 3, "{file}: only {twice:?} reach 2x batched");
            }
            _ => {}
        }
        files.push(file);
    }
    for want in [
        "BENCH_6.json",
        "BENCH_7.json",
        "BENCH_8.json",
        "BENCH_10.json",
    ] {
        assert!(files.iter().any(|f| f == want), "{want} is missing");
    }
}
