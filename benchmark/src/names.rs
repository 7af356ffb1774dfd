//! Every metric the benchmark can print: name, unit and direction.
//! `BENCHMARK.json` lists the same names; a unit test holds the two
//! together, and [`Metrics::set`] refuses any name that is not
//! declared here.

use emu_telemetry::Json;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "op/s",
        better: "higher",
        bound: 0.2,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.05,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Simulated time and counts repeat exactly from run to run; host
    /// time does not.
    pub exact: bool,
}

const fn host(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

/// Grouped by layer; the name's prefix is the crate. `README.md` says
/// which end-to-end metric on which workload each one should move.
pub const PER_LAYER: [PerLayer; 58] = [
    exact("model.p50_ns", "ns", "lower"),
    exact("model.p99_ns", "ns", "lower"),
    exact("model.cycles_per_op", "cycles", "lower"),
    host("traffic.gen_ns_per_frame", "ns", "lower"),
    exact("traffic.mean_frame_bytes", "bytes", "lower"),
    host("core.null_drop_ns_per_frame", "ns", "lower"),
    host("core.null_tx_ns_per_frame", "ns", "lower"),
    exact("core.allocs_per_frame", "count", "lower"),
    exact("core.alloc_bytes_per_frame", "bytes", "lower"),
    host("core.per_call_overhead_ns", "ns", "lower"),
    host("core.scalar_ns_per_frame", "ns", "lower"),
    host("core.dispatch_ns_per_frame", "ns", "lower"),
    host("core.par_batch_overhead_us", "us", "lower"),
    host("core.par2_speedup", "ratio", "higher"),
    host("core.build_s", "s", "lower"),
    host("core.telemetry_snapshot_us", "us", "lower"),
    host("netfpga.load_ns_per_byte", "ns/byte", "lower"),
    host("netfpga.harvest_ns_per_byte", "ns/byte", "lower"),
    host("netfpga.harvest_ns_per_frame", "ns", "lower"),
    host("kiwi-ir.exec_ns_per_frame", "ns", "lower"),
    host("kiwi-ir.exec_ns_per_model_cycle", "ns", "lower"),
    host("kiwi-ir.flatten_compile_ms", "ms", "lower"),
    exact("kiwi-ir.mops_total", "count", "lower"),
    host("kiwi-ir.treewalk_ns_per_frame", "ns", "lower"),
    host("rtl.cam_hit_ns", "ns", "lower"),
    host("rtl.cam_miss_ns", "ns", "lower"),
    host("rtl.cam_refresh_ns", "ns", "lower"),
    host("rtl.cam_insert_ns", "ns", "lower"),
    host("rtl.cam_evict_ns", "ns", "lower"),
    exact("rtl.cam_lookups_per_frame", "count", "lower"),
    exact("rtl.cam_hit_ratio", "ratio", "higher"),
    exact("rtl.cam_writes_per_frame", "count", "lower"),
    exact("rtl.cam_evictions_per_kframe", "count", "lower"),
    exact("rtl.cam_expiries_per_kframe", "count", "lower"),
    exact("rtl.cam_occupancy", "count", "lower"),
    host("rtl.env_ns_per_frame", "ns", "lower"),
    host("rtl.fpga_ns_per_frame", "ns", "lower"),
    host("netsim.events_per_s", "1/s", "higher"),
    exact("netsim.events_per_request", "count", "lower"),
    host("netsim.forward_ns_per_event", "ns", "lower"),
    host("hosts.build_s", "s", "lower"),
    exact("hosts.retx_per_request", "ratio", "lower"),
    exact("hosts.timeouts", "count", "lower"),
    host("hosts.engine_share", "ratio", "lower"),
    host("telemetry.overhead_share", "ratio", "lower"),
    host("telemetry.hist_record_ns", "ns", "lower"),
    host("harness.batch_wall_p50_us", "us", "lower"),
    host("harness.batch_wall_p99_us", "us", "lower"),
    host("harness.batch_wall_samples", "count", "higher"),
    host("harness.pass_spread_share", "ratio", "lower"),
    host("harness.trace_overhead_share", "ratio", "lower"),
    host("harness.attributed_share", "ratio", "higher"),
    host("harness.passes", "count", "higher"),
    host("harness.stretches", "count", "higher"),
    host("harness.host_speed", "ratio", "higher"),
    host("harness.wall_ops_per_s", "op/s", "higher"),
    host("harness.ns_per_op", "ns", "lower"),
    host("harness.failed_share", "ratio", "lower"),
];

/// The values one run measured, keyed by declared names only.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Records `name = value`.
    ///
    /// # Panics
    ///
    /// Panics on a name this file does not declare, on a second value
    /// for one name, and on a value that is not a finite number: each
    /// is a bug in the benchmark, not a measurement.
    pub fn set(&mut self, name: &str, value: f64) {
        let declared = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .find(|n| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared in names.rs"));
        assert!(self.get(name).is_none(), "metric `{name}` set twice");
        assert!(value.is_finite(), "metric `{name}` is {value}");
        self.0.push((declared, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The `metrics` object of the result line: every end-to-end
    /// metric (untraced run) or every per-layer metric (traced run). A
    /// per-layer metric that does not apply to the workload reads 0.
    pub fn result(&self, traced: bool) -> Json {
        let entry = |name: &str, unit: &str, value: f64| {
            let v = Json::obj(vec![
                ("value", Json::from(value)),
                ("unit", Json::from(unit)),
            ]);
            (name.to_string(), v)
        };
        Json::Obj(if traced {
            PER_LAYER
                .iter()
                .map(|m| entry(m.name, m.unit, self.get(m.name).unwrap_or(0.0)))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    let v = self
                        .get(m.name)
                        .unwrap_or_else(|| panic!("`{}` not measured", m.name));
                    entry(m.name, m.unit, v)
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::NAMES;

    fn unit_of(name: &str) -> Option<&'static str> {
        END_TO_END
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.unit)
            .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names(doc: &Json, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("`{key}` is a list"))
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_declared_names() {
        let doc = benchmark_json();
        assert_eq!(names(&doc, "workloads"), NAMES);
        let e2e: Vec<_> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names(&doc, "end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names(&doc, "per_layer"), layers);
        for (m, j) in END_TO_END
            .iter()
            .zip(doc.get("end_to_end").and_then(Json::as_arr).unwrap())
        {
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(j.get("better").and_then(Json::as_str), Some(m.better));
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        for (m, j) in PER_LAYER
            .iter()
            .zip(doc.get("per_layer").and_then(Json::as_arr).unwrap())
        {
            assert_eq!(
                j.get("unit").and_then(Json::as_str),
                Some(m.unit),
                "{}",
                m.name
            );
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(m.better),
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn result_line_carries_every_name_and_no_other() {
        let mut m = Metrics::default();
        m.set("ops_per_s", 1.5e6);
        m.set("setup_s", 0.25);
        m.set("peak_rss_mb", 40.0);
        m.set("model.p50_ns", 20.0);
        for traced in [false, true] {
            let doc = Json::parse(&m.result(traced).to_string()).expect("parses");
            let got: Vec<&str> = doc
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            let want: Vec<&str> = if traced {
                PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                END_TO_END.iter().map(|m| m.name).collect()
            };
            assert_eq!(got, want);
            for (name, v) in doc.as_obj().unwrap() {
                assert_eq!(v.get("unit").and_then(Json::as_str), unit_of(name));
                assert!(v.get("value").and_then(Json::as_f64).is_some());
            }
        }
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn an_unknown_metric_name_is_an_error() {
        Metrics::default().set("core.made_up", 1.0);
    }
}
