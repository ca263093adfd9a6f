//! The metrics the benchmark reports. `BENCHMARK.json` lists the same
//! names and units (a test keeps them in step) and holds the end-to-end
//! bounds that `check` applies.

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Measured from `run`, with tracing off: the median over the reps.
pub const END_TO_END: [Metric; 5] = [
    m("wall_s", "s"),
    m("cpu_s", "s"),
    m("peak_rss_mb", "MiB"),
    m("samples_per_s", "1/s"),
    m("setup_s", "s"),
];

/// Failed invocations ÷ attempted. Not in `BENCHMARK.json`, whose metrics
/// must never read 0; `check` applies its own rule: any increase is a
/// regression.
pub const FAIL_FRAC: &str = "fail_frac";

/// Measured from `trace`: the median over the replays. Every metric here
/// is defined on every workload; span self times of single experiments
/// and serve stages are in `<workload>.layers.json` only.
pub const PER_LAYER: [Metric; 24] = [
    m("topology.generate_s", "s"),
    m("cdn.build_provider_s", "s"),
    m("workload.generate_s", "s"),
    m("bgp.routes_s", "s"),
    m("bgp.tables_computed", "count"),
    m("bgp.cache_hit_rate", "ratio"),
    m("bgp.candidates_considered", "count"),
    m("bgp.install_ratio", "ratio"),
    m("bgp.interned_bytes", "bytes"),
    m("measure.compile_s", "s"),
    m("measure.sample_s", "s"),
    m("measure.samples", "count"),
    m("measure.sample_calls", "count"),
    m("measure.ns_per_sample", "ns"),
    m("measure.session_yield", "ratio"),
    m("measure.window_yield", "ratio"),
    m("core.self_s", "s"),
    m("core.snapshot_bytes", "bytes"),
    m("stats.sketch_resident_bytes", "bytes"),
    m("exec.sample_parallelism", "ratio"),
    m("exec.replay_parallelism", "ratio"),
    m("trace.wall_s", "s"),
    m("trace.coverage", "ratio"),
    m("trace.e2e_ratio", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn spec() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
    }

    fn listed(spec: &Json, key: &str) -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Json::arr)
            .expect("metric list")
            .iter()
            .map(|e| {
                let field = |k: &str| e.get(k).and_then(Json::str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn ours(list: &[Metric]) -> Vec<(String, String)> {
        list.iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let spec = spec();
        assert_eq!(listed(&spec, "end_to_end"), ours(&END_TO_END));
        assert_eq!(listed(&spec, "per_layer"), ours(&PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::arr)
            .expect("workload list")
            .iter()
            .map(|w| w.get("name").and_then(Json::str).expect("name"))
            .collect();
        let names: Vec<&str> = crate::workloads::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, names);
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let spec = spec();
        let bounds: Vec<(String, f64)> = spec
            .get("end_to_end")
            .and_then(Json::arr)
            .expect("metric list")
            .iter()
            .map(|e| {
                let name = e.get("name").and_then(Json::str).expect("name").to_string();
                (name, e.get("bound").and_then(Json::num).expect("bound"))
            })
            .collect();
        let setup = bounds
            .iter()
            .find(|(n, _)| n == "setup_s")
            .expect("setup_s")
            .1;
        assert!(bounds.iter().all(|&(_, b)| b <= setup && b <= 0.25));
    }
}
