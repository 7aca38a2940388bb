//! The rack workload: a 4-chip tiny-chip cluster under the laxity-aware
//! policy, serving the `rack` bench's open-loop Poisson stream at fixed
//! offered loads, plus the search for the highest load that meets the
//! latency limit.
//!
//! Everything goes through `Cluster::builder`/`run` and
//! `TrafficProfile::stream`. Requests are `compute_only`: this workload
//! never touches the NoC, MACT or DDR.

use std::time::Instant;

use smarco_bench::rack::{rate_for, SLO};
use smarco_core::cluster::{BalancePolicy, Cluster, ClusterReport, FabricConfig, TrafficProfile};
use smarco_core::config::SmarcoConfig;
use smarco_sim::Cycle;

use crate::driver::Job;
use crate::probe::Tracer;

/// Chips in the rack.
const CHIPS: usize = 4;
/// Requests offered per load point: enough that p99.9 has at least ten
/// samples beyond it.
const REQUESTS: u64 = 25_000;
/// The fixed offered loads, as fractions of aggregate capacity.
pub const LOADS: [f64; 2] = [0.8, 1.0];
/// Latency limit of the max-load search: p99.9 at most twice the SLO.
const P999_LIMIT: f64 = 2.0 * SLO as f64;
/// Simulated-cycle ceiling of one load point; every point drains far
/// earlier.
const MAX_CYCLES: Cycle = 50_000_000;
/// Cluster cycles per lap: a multiple of the cluster's 2048-cycle
/// completion grid, so `run` pauses where it would check completion
/// anyway.
const LAP_CYCLES: Cycle = 2 * 2048;

fn profile(seed: u64, load: f64) -> TrafficProfile {
    TrafficProfile::poisson(seed, rate_for(load, CHIPS, &SmarcoConfig::tiny()))
        .slo(SLO)
        .requests(REQUESTS)
}

/// One load point served by fresh chips.
#[derive(Debug, Clone)]
pub struct LoadPoint {
    pub load: f64,
    pub report: ClusterReport,
    /// Whether the cluster drained before its cycle ceiling.
    pub done: bool,
    pub build_s: f64,
    /// Host seconds of the run, lap by lap.
    pub laps: Vec<f64>,
}

impl LoadPoint {
    /// Whether every offered request completed.
    pub fn complete(&self) -> bool {
        self.done && self.report.completed == self.report.offered
    }

    /// Whether the point meets the latency limit with every request
    /// served.
    pub fn meets_limit(&self) -> bool {
        self.complete() && self.report.latency.p999() <= P999_LIMIT
    }
}

/// Serves `seed`'s stream at `load` on a fresh cluster.
pub fn serve(tracer: &mut Tracer, seed: u64, load: f64) -> LoadPoint {
    let start = Instant::now();
    let mut cluster = tracer.span("core::cluster.build", |_| {
        Cluster::builder()
            .chips(CHIPS)
            .chip(SmarcoConfig::tiny())
            .fabric(FabricConfig::datacenter())
            .traffic(profile(seed, load))
            .policy(BalancePolicy::LaxityAware)
            .workers(crate::WORKERS)
            .build()
            .expect("the rack config is valid")
    });
    let built = Instant::now();
    let mut marks = vec![built];
    let report = tracer.span("core::cluster.run", |_| loop {
        let report = cluster.run((cluster.now() + LAP_CYCLES).min(MAX_CYCLES));
        marks.push(Instant::now());
        if cluster.is_done() || cluster.now() >= MAX_CYCLES {
            break report;
        }
    });
    LoadPoint {
        load,
        done: cluster.is_done(),
        report,
        build_s: built.duration_since(start).as_secs_f64(),
        laps: crate::chip::laps(&marks),
    }
}

/// One rack job: fresh chips per fixed load point.
#[derive(Debug, Clone)]
pub struct RackJob {
    pub points: Vec<LoadPoint>,
}

impl RackJob {
    /// Serves `seed`'s stream at every fixed load, on fresh chips each.
    pub fn run(tracer: &mut Tracer, seed: u64) -> Self {
        Self {
            points: LOADS
                .iter()
                .map(|&load| serve(tracer, seed, load))
                .collect(),
        }
    }
}

impl Job for RackJob {
    /// Every load point's whole cluster report.
    type Outcome = Vec<ClusterReport>;

    fn outcome(&self) -> Self::Outcome {
        self.points.iter().map(|p| p.report.clone()).collect()
    }

    fn check(&self) -> Result<(), String> {
        for p in &self.points {
            if !p.complete() {
                return Err(format!(
                    "load {}: {} of {} requests completed",
                    p.load, p.report.completed, p.report.offered
                ));
            }
            if !p.report.is_clean() {
                return Err(format!("load {}: a chip degraded", p.load));
            }
        }
        Ok(())
    }

    fn attempted(&self) -> u64 {
        self.points.iter().map(|p| p.report.offered).sum()
    }

    /// Both load points' cluster builds.
    fn setup_s(&self) -> f64 {
        self.points.iter().map(|p| p.build_s).sum()
    }

    fn laps(&self) -> Vec<f64> {
        self.points.iter().flat_map(|p| p.laps.clone()).collect()
    }

    fn instructions(&self) -> u64 {
        self.points.iter().map(|p| p.report.instructions()).sum()
    }

    /// Both load points' cluster cycles, summed.
    fn sim_cycles(&self) -> u64 {
        self.points.iter().map(|p| p.report.cycles).sum()
    }
}

/// Generates `seed`'s stream at `load` standalone; returns the host
/// seconds it took and the last arrival cycle.
pub fn generate(tracer: &mut Tracer, seed: u64, load: f64) -> (f64, Cycle) {
    let start = Instant::now();
    let last = tracer.span("core::cluster.traffic", |_| {
        profile(seed, load)
            .stream()
            .map(|r| r.arrival)
            .last()
            .unwrap_or(0)
    });
    (start.elapsed().as_secs_f64(), last)
}

/// The outcome of the max-load search.
#[derive(Debug, Clone, PartialEq)]
pub struct Search {
    /// Highest load found to meet the limit.
    pub max_load: f64,
    /// Every load evaluated, in order, with whether it met the limit.
    pub probes: Vec<(f64, bool)>,
}

/// Lowest load of the search bracket; must meet the limit.
const SEARCH_LOW: f64 = 0.5;
/// Highest load of the initial bracket, above capacity; must fail.
const SEARCH_HIGH: f64 = 1.25;
/// Bisection steps inside the bracket.
const SEARCH_STEPS: usize = 5;

/// Finds the highest load that meets the limit, deterministically: it
/// brackets the knee with a passing load below and a failing load above
/// (widening the bracket downward or upward until both hold), then
/// bisects. `None` when no bracket exists inside `(0, 4]`.
pub fn max_load(mut meets: impl FnMut(f64) -> bool) -> Option<Search> {
    let mut probes = Vec::new();
    let mut probe = |load: f64, probes: &mut Vec<(f64, bool)>| {
        let ok = meets(load);
        probes.push((load, ok));
        ok
    };
    let (mut lo, mut hi) = (SEARCH_LOW, SEARCH_HIGH);
    let mut hi_fails = false;
    while !probe(lo, &mut probes) {
        (hi, hi_fails) = (lo, true);
        lo /= 2.0;
        if lo < 0.05 {
            return None;
        }
    }
    while !hi_fails && probe(hi, &mut probes) {
        lo = hi;
        hi += 0.5;
        if hi > 4.0 {
            return None;
        }
    }
    for _ in 0..SEARCH_STEPS {
        let mid = (lo + hi) / 2.0;
        if probe(mid, &mut probes) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(Search {
        max_load: lo,
        probes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knee_at(knee: f64) -> Search {
        max_load(|load| load <= knee).expect("a bracket exists")
    }

    #[test]
    fn brackets_the_knee_from_both_sides() {
        for knee in [0.63, 0.97, 1.0, 1.1, 1.6] {
            let s = knee_at(knee);
            let lowest = s.probes.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
            let highest = s.probes.iter().map(|p| p.0).fold(0.0, f64::max);
            assert!(s.probes.iter().any(|p| !p.1), "a failing load was tried");
            assert!(highest > 1.0, "the search looks above capacity");
            assert!(s.max_load <= knee, "{s:?}");
            assert!(knee - s.max_load < 0.05, "resolution: {s:?}");
            assert!(lowest < s.max_load && s.max_load < highest, "{s:?}");
        }
    }

    #[test]
    fn widens_downward_when_the_low_end_fails() {
        let s = knee_at(0.3);
        assert_eq!(s.probes[0], (SEARCH_LOW, false));
        assert!(s.max_load <= 0.3 && 0.3 - s.max_load < 0.05, "{s:?}");
    }

    #[test]
    fn is_deterministic_and_gives_up_without_a_bracket() {
        assert_eq!(knee_at(0.9), knee_at(0.9));
        assert!(max_load(|_| true).is_none());
        assert!(max_load(|_| false).is_none());
    }

    #[test]
    #[ignore = "runs the cluster: cargo test -- --ignored"]
    fn knee_sits_between_the_fixed_loads_and_above_capacity() {
        let mut t = Tracer::new(false);
        let s = max_load(|load| serve(&mut t, 1, load).meets_limit()).expect("bracket");
        assert!(s.max_load > SEARCH_LOW && s.max_load < SEARCH_HIGH, "{s:?}");
    }
}
