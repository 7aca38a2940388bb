//! Per-layer metrics of a traced run, from its traced jobs. Each workload
//! sets the layers it exercises; the driver zeroes the rest and adds
//! `trace.overhead_frac`.

use smarco_core::SmarcoReport;
use smarco_sim::prof::{HostPhase, ProfileReport};

use crate::chip::ChipJob;
use crate::driver::{fastest, fastest_laps, median, Job, MIN_REPS};
use crate::metrics::{Values, PER_LAYER};
use crate::probe::Tracer;
use crate::rack::{self, RackJob};

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The layers of the WordCount chip: `sim`, `workloads`, `tcg`, `mem`,
/// `mact`, `noc` and `runtime`.
pub fn chip(traced: &[ChipJob]) -> Values {
    let first = &traced[0];
    let prof = |f: &dyn Fn(&ProfileReport) -> f64| {
        fastest(traced, |j| {
            f(j.profile.as_ref().expect("traced jobs are profiled"))
        })
    };
    let phase = |p: HostPhase| prof(&|pr| pr.phases().get(p) as f64 * 1e-9);
    let shard_busy = |hub: bool| {
        prof(&|pr| {
            pr.shards
                .iter()
                .zip(&pr.shard_names)
                .filter(|(_, name)| (name.as_str() == "hub") == hub)
                .map(|(s, _)| s.busy_ns() as f64 * 1e-9)
                .sum()
        })
    };
    let telemetry = &first
        .profile
        .as_ref()
        .expect("traced jobs are profiled")
        .telemetry;
    let mut v = Values::new(PER_LAYER);
    v.set("sim.windows", telemetry.windows as f64);
    v.set("sim.envelopes", telemetry.envelopes_total as f64);
    v.set("sim.stepped_shard_cycles", first.stepped as f64);
    v.set("sim.skipped_shard_cycles", first.skipped as f64);
    v.set("sim.step_s", phase(HostPhase::Step));
    v.set("sim.skip_s", phase(HostPhase::Skip));
    v.set("sim.route_s", phase(HostPhase::Route));
    v.set("sim.other_s", phase(HostPhase::Other));
    v.set("sim.hub_busy_s", shard_busy(true));
    v.set("sim.subring_busy_s", shard_busy(false));
    v.set(
        "sim.step_ns_per_shard_cycle",
        ratio(phase(HostPhase::Step) * 1e9, first.stepped as f64),
    );
    v.set("workloads.ops", first.ops as f64);
    v.set("workloads.gen_s", fastest(traced, |j| j.gen_s));
    let r = &first.report;
    set_tcg(&mut v, std::slice::from_ref(r));
    v.set("mem.requests", r.requests as f64);
    v.set("mem.dram_requests", r.dram_requests as f64);
    v.set(
        "mem.request_reduction",
        ratio(r.requests as f64, r.dram_requests as f64),
    );
    v.set(
        "mem.latency_mean_cycles",
        ratio(r.mem_latency.sum(), r.mem_latency.count() as f64),
    );
    v.set("mem.dram_utilization", r.dram_utilization);
    v.set("mem.l1d_miss_ratio", r.l1d_miss_ratio);
    v.set("noc.main_ring_util", r.main_ring_utilization);
    v.set("noc.subring_util", r.subring_utilization);
    let m = &first.mact;
    v.set("mact.collected", m.collected as f64);
    v.set("mact.bypassed", m.bypassed as f64);
    v.set("mact.batches", m.batches as f64);
    v.set(
        "mact.requests_per_batch",
        ratio(m.batched_requests, m.batches as f64),
    );
    v.set(
        "mact.wait_cycles_mean",
        ratio(m.wait_sum, m.wait_count as f64),
    );
    for (name, n) in [
        "mact.flush_full",
        "mact.flush_deadline",
        "mact.flush_capacity",
        "mact.flush_drain",
    ]
    .into_iter()
    .zip(m.flush)
    {
        v.set(name, n as f64);
    }
    let p = first.phases;
    v.set("runtime.map_cycles", p.map_cycles as f64);
    v.set("runtime.reduce_cycles", p.reduce_cycles as f64);
    v.set("runtime.map_tasks", p.map_tasks as f64);
    v.set("runtime.reduce_tasks", p.reduce_tasks as f64);
    v.set("runtime.map_s", fastest(traced, |j| j.phases.map_s));
    v.set("runtime.reduce_s", fastest(traced, |j| j.phases.reduce_s));
    v
}

/// `tcg.*` over one or more chip reports: instructions summed, IPC over
/// summed chip cycles, ratios averaged over chips.
fn set_tcg(v: &mut Values, reports: &[SmarcoReport]) {
    let n = reports.len() as f64;
    let sum = |f: &dyn Fn(&SmarcoReport) -> f64| reports.iter().map(f).sum::<f64>();
    let instructions = sum(&|r| r.instructions as f64);
    v.set("tcg.instructions", instructions);
    v.set("tcg.ipc", ratio(instructions, sum(&|r| r.cycles as f64)));
    v.set("tcg.idle_ratio", sum(&|r| r.idle_ratio) / n);
    v.set("tcg.ifetch_miss_ratio", sum(&|r| r.ifetch_miss_ratio) / n);
}

/// The layers of the rack: `rack`, `cluster`, `traffic`, and `tcg` of the
/// load-1.0 run's chips. Also generates the traffic
/// standalone and runs the max-load search, whose load points count as
/// attempted operations and stay outside every host timing.
pub fn rack(
    traced: &[RackJob],
    tracer: &mut Tracer,
    seed: u64,
    attempted: &mut u64,
) -> Result<Values, String> {
    let mut gen_s = Vec::new();
    let mut last_arrival = 0;
    for _ in 0..MIN_REPS {
        let (s, last) = rack::generate(tracer, seed, rack::LOADS[1]);
        gen_s.push(s);
        last_arrival = last;
    }
    tracer.next_run();
    let search = tracer.span("repobench.max_load_search", |t| {
        rack::max_load(|load| {
            let point = rack::serve(t, seed, load);
            *attempted += point.report.offered;
            point.meets_limit()
        })
    });
    let search = search.ok_or("the max-load search found no passing and failing load")?;

    let points = &traced[0].points;
    let (u80, u100) = (&points[0].report, &points[1].report);
    let mut v = Values::new(PER_LAYER);
    set_tcg(&mut v, &u100.chips);
    for (suffix, r) in [("u80", u80), ("u100", u100)] {
        v.set(&format!("rack.offered_{suffix}"), r.offered as f64);
        v.set(&format!("rack.samples_{suffix}"), r.latency.count() as f64);
        v.set(&format!("rack.p50_cycles_{suffix}"), r.latency.p50());
        v.set(&format!("rack.p999_cycles_{suffix}"), r.latency.p999());
        v.set(&format!("rack.slo_miss_{suffix}"), r.slo_miss_rate());
    }
    v.set("rack.max_load_at_slo", search.max_load);
    let completed: u64 = points.iter().map(|p| p.report.completed).sum();
    v.set(
        "rack.host_requests_per_s",
        completed as f64 / fastest_laps(traced, Job::laps)?,
    );
    v.set(
        "rack.drain_cycles_u100",
        u100.cycles.saturating_sub(last_arrival) as f64,
    );
    let per_chip: Vec<f64> = u100.chips.iter().map(|c| c.instructions as f64).collect();
    let mean = per_chip.iter().sum::<f64>() / per_chip.len() as f64;
    v.set(
        "rack.chip_instr_imbalance_u100",
        ratio(per_chip.iter().copied().fold(0.0, f64::max), mean),
    );
    v.set(
        "cluster.build_s",
        median(traced, |j| j.setup_s() / j.points.len() as f64),
    );
    v.set(
        "cluster.run_s_u80",
        fastest_laps(traced, |j| j.points[0].laps.clone())?,
    );
    v.set(
        "cluster.run_s_u100",
        fastest_laps(traced, |j| j.points[1].laps.clone())?,
    );
    v.set(
        "traffic.gen_s",
        gen_s.into_iter().fold(f64::INFINITY, f64::min),
    );
    Ok(v)
}
