//! The metric registry and the result line.
//!
//! Every workload prints every metric of the set it was asked for: the
//! end-to-end set untraced, the per-layer set traced. The end-to-end
//! metrics are defined on every workload and never 0. A per-layer metric
//! of a layer a workload does not exercise reads 0 there (the layer did
//! no work).

/// One metric: its name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// Metrics a user of the simulator sees, printed by untraced runs.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s"),
    def("sim_minstr_per_s", "Minstr/s"),
    def("peak_rss_mb", "MiB"),
    def("sim_cycles", "cycles"),
];

/// Metrics of single layers, printed by traced runs.
pub const PER_LAYER: &[Def] = &[
    def("sim.windows", "count"),
    def("sim.envelopes", "count"),
    def("sim.stepped_shard_cycles", "count"),
    def("sim.skipped_shard_cycles", "count"),
    def("sim.step_s", "s"),
    def("sim.skip_s", "s"),
    def("sim.route_s", "s"),
    def("sim.other_s", "s"),
    def("sim.hub_busy_s", "s"),
    def("sim.subring_busy_s", "s"),
    def("sim.step_ns_per_shard_cycle", "ns"),
    def("workloads.ops", "count"),
    def("workloads.gen_s", "s"),
    def("tcg.instructions", "count"),
    def("tcg.ipc", "instr/cycle"),
    def("tcg.idle_ratio", "frac"),
    def("tcg.ifetch_miss_ratio", "frac"),
    def("mem.requests", "count"),
    def("mem.dram_requests", "count"),
    def("mem.request_reduction", "ratio"),
    def("mem.latency_mean_cycles", "cycles"),
    def("mem.dram_utilization", "frac"),
    def("mem.l1d_miss_ratio", "frac"),
    def("mact.collected", "count"),
    def("mact.bypassed", "count"),
    def("mact.batches", "count"),
    def("mact.requests_per_batch", "ratio"),
    def("mact.wait_cycles_mean", "cycles"),
    def("mact.flush_full", "count"),
    def("mact.flush_deadline", "count"),
    def("mact.flush_capacity", "count"),
    def("mact.flush_drain", "count"),
    def("noc.main_ring_util", "frac"),
    def("noc.subring_util", "frac"),
    def("runtime.map_cycles", "cycles"),
    def("runtime.reduce_cycles", "cycles"),
    def("runtime.map_tasks", "count"),
    def("runtime.reduce_tasks", "count"),
    def("runtime.map_s", "s"),
    def("runtime.reduce_s", "s"),
    def("rack.offered_u80", "count"),
    def("rack.offered_u100", "count"),
    def("rack.samples_u80", "count"),
    def("rack.samples_u100", "count"),
    def("rack.p50_cycles_u80", "cycles"),
    def("rack.p999_cycles_u80", "cycles"),
    def("rack.p50_cycles_u100", "cycles"),
    def("rack.p999_cycles_u100", "cycles"),
    def("rack.slo_miss_u80", "frac"),
    def("rack.slo_miss_u100", "frac"),
    def("rack.max_load_at_slo", "load"),
    def("rack.host_requests_per_s", "1/s"),
    def("rack.drain_cycles_u100", "cycles"),
    def("rack.chip_instr_imbalance_u100", "ratio"),
    def("cluster.build_s", "s"),
    def("cluster.run_s_u80", "s"),
    def("cluster.run_s_u100", "s"),
    def("traffic.gen_s", "s"),
    def("trace.overhead_frac", "frac"),
];

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A complete set of metric values, in registry order.
#[derive(Debug, Clone, PartialEq)]
pub struct Values {
    set: &'static [Def],
    values: Vec<Option<f64>>,
}

impl Values {
    /// An empty set of values for `set`.
    pub fn new(set: &'static [Def]) -> Self {
        Self {
            set,
            values: vec![None; set.len()],
        }
    }

    /// Records `name`.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in the set or is recorded twice: a
    /// benchmark bug, not an input error.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .set
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in this set"));
        assert!(self.values[i].is_none(), "metric {name} recorded twice");
        self.values[i] = Some(value);
    }

    /// Records 0 for every metric whose name starts with one of
    /// `prefixes`: layers the workload does not exercise.
    pub fn zero_layers(&mut self, prefixes: &[&str]) {
        let idle: Vec<&'static str> = self
            .set
            .iter()
            .map(|d| d.name)
            .filter(|n| prefixes.iter().any(|p| n.starts_with(p)))
            .collect();
        for name in idle {
            self.set(name, 0.0);
        }
    }

    /// Names the set still lacks.
    pub fn missing(&self) -> Vec<&'static str> {
        self.set
            .iter()
            .zip(&self.values)
            .filter(|(_, v)| v.is_none())
            .map(|(d, _)| d.name)
            .collect()
    }

    /// `(name, unit, value)` of every recorded metric, in registry order.
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.set
            .iter()
            .zip(&self.values)
            .filter_map(|(d, v)| v.map(|v| (d.name, d.unit, v)))
    }

    /// The result line: `correct`, `attempted`, `failed`, then every
    /// metric with its unit.
    pub fn result_line(&self, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .entries()
            .map(|(name, unit, v)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives (non-finite values, which JSON cannot hold, are a
/// benchmark bug caught by the checks before printing).
pub fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_legal_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        assert!(!valid_name("bad name") && !valid_name(".lead") && !valid_name(""));
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {}",
                d.unit
            );
        }
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("array closes")];
            body.split('{')
                .skip(1)
                .map(|obj| {
                    let field = |f: &str| {
                        let at = obj.find(&format!("\"{f}\"")).expect("field present");
                        let rest = &obj[at + f.len() + 2..];
                        let open = rest.find('"').expect("value opens") + 1;
                        let close = open + rest[open..].find('"').expect("value closes");
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |set: &[Def]| -> Vec<(String, String)> {
            set.iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), own(END_TO_END));
        assert_eq!(section("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_lists_every_metric_once() {
        let mut v = Values::new(END_TO_END);
        assert_eq!(v.missing().len(), END_TO_END.len());
        for (i, d) in END_TO_END.iter().enumerate() {
            v.set(d.name, 0.5 + i as f64);
        }
        assert!(v.missing().is_empty());
        let line = v.result_line(7, 0);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {")
        );
        for d in END_TO_END {
            assert_eq!(
                line.matches(&format!("\"{}\":", d.name)).count(),
                1,
                "{line}"
            );
        }
        assert!(
            line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"),
            "{line}"
        );
    }

    #[test]
    #[should_panic(expected = "not in this set")]
    fn a_metric_outside_the_set_is_refused() {
        Values::new(END_TO_END).set("sim.windows", 1.0);
    }
}
