//! The cycle-skipping contract: event-horizon fast-forwarding is a pure
//! wall-clock optimisation. For every HTC benchmark and every tested
//! worker count, a run with skipping enabled produces a bit-identical
//! [`SmarcoReport`] to one with skipping disabled — and on these
//! memory-bound workloads the skipper must actually engage (a skip ratio
//! of zero would mean the horizons never clear, i.e. the feature is dead).
//!
//! Skipping also gates the uncore inside a stepped cycle: a shard ticks
//! only the rings, MACT and spokes that have work. The optional-part and
//! idle-uncore cases below compare windowed metrics as well as reports,
//! so every link's offered-bytes counter is checked, not only the
//! utilization ratio.

use smarco::core::chip::SmarcoSystem;
use smarco::core::config::SmarcoConfig;
use smarco::core::dispatch::TaskExit;
use smarco::core::report::SmarcoReport;
use smarco::isa::mix::compute_only;
use smarco::isa::stream::FnStream;
use smarco::isa::{MemRef, Op};
use smarco::sched::TaskPriority;
use smarco::sim::obs::MetricsWindow;
use smarco::sim::rng::SimRng;
use smarco::workloads::{Benchmark, HtcStream};

const THREADS_PER_CORE: usize = 2;
const INSTRS: u64 = 300;
const MAX_CYCLES: u64 = 10_000_000;

/// Sampling window for the metrics-compared cases.
const WINDOW: u64 = 500;

/// A small chip loaded with one benchmark's team-interleaved threads.
fn loaded(bench: Benchmark, workers: usize, cycle_skip: bool) -> SmarcoSystem {
    let mut cfg = SmarcoConfig::tiny();
    cfg.workers = workers;
    cfg.cycle_skip = cycle_skip;
    let mut sys = SmarcoSystem::builder().config(cfg).build().unwrap();
    attach_bench(&mut sys, bench);
    sys
}

/// Attaches one benchmark's team-interleaved threads to every core.
fn attach_bench(sys: &mut SmarcoSystem, bench: Benchmark) {
    let teams = sys.cores_len() * THREADS_PER_CORE;
    let mut seed = 11u64;
    for core in 0..sys.cores_len() {
        for t in 0..THREADS_PER_CORE {
            let lane = (core * THREADS_PER_CORE + t) as u64;
            let p =
                bench.thread_params(0x100_0000, 1 << 22, 0x8000_0000, lane, teams as u64, INSTRS);
            sys.attach(core, Box::new(HtcStream::new(p, SimRng::new(seed))))
                .expect("vacant slot");
            seed += 1;
        }
    }
}

/// Everything a run exposes: the report, every metrics window (with the
/// links' cumulative offered bytes), the task exits and the shard-cycles
/// skipped.
type Observed = (SmarcoReport, Vec<MetricsWindow>, Vec<TaskExit>, u64);

/// Runs `cfg` loaded by `load` at `workers` with skipping on or off.
fn observe(
    cfg: &SmarcoConfig,
    workers: usize,
    cycle_skip: bool,
    load: &dyn Fn(&mut SmarcoSystem),
) -> Observed {
    let mut cfg = cfg.clone();
    cfg.workers = workers;
    cfg.cycle_skip = cycle_skip;
    let mut sys = SmarcoSystem::builder().config(cfg).build().unwrap();
    sys.sample_every(WINDOW);
    load(&mut sys);
    let report = sys.run(MAX_CYCLES);
    assert!(sys.is_done(), "run drained");
    let windows = sys.metrics().expect("sampling on").windows().to_vec();
    (
        report,
        windows,
        sys.task_exits().to_vec(),
        sys.skipped_cycles(),
    )
}

/// Asserts skip-on runs at 1 and 4 workers reproduce the skip-off
/// reference bit for bit, and that the skipper engaged; returns the
/// reference report.
fn assert_skip_exact(
    case: &str,
    cfg: &SmarcoConfig,
    load: &dyn Fn(&mut SmarcoSystem),
) -> SmarcoReport {
    let (report, windows, exits, skipped) = observe(cfg, 1, false, load);
    assert_eq!(skipped, 0, "{case}: skip-off run still skipped");
    assert!(!windows.is_empty(), "{case}: no metrics windows");
    for workers in [1, 4] {
        let (on, on_windows, on_exits, on_skipped) = observe(cfg, workers, true, load);
        assert_eq!(on, report, "{case}: report diverged at {workers} workers");
        assert_eq!(
            on_windows, windows,
            "{case}: metrics diverged at {workers} workers"
        );
        assert_eq!(
            on_exits, exits,
            "{case}: task exits diverged at {workers} workers"
        );
        assert!(on_skipped > 0, "{case}: never skipped at {workers} workers");
    }
    report
}

#[test]
fn skip_on_and_off_are_bit_identical_on_all_benchmarks() {
    for bench in Benchmark::ALL {
        let mut off_sys = loaded(bench, 1, false);
        let off = off_sys.run(MAX_CYCLES);
        assert!(off_sys.is_done(), "{} drained", bench.name());
        assert_eq!(off_sys.skipped_cycles(), 0, "skip-off run still skipped");
        for workers in [1, 4] {
            let mut on_sys = loaded(bench, workers, true);
            let on = on_sys.run(MAX_CYCLES);
            assert_eq!(
                on,
                off,
                "{} diverged with skip on at {workers} workers",
                bench.name()
            );
            assert!(
                on_sys.skipped_cycles() > 0,
                "{} at {workers} workers never skipped a cycle",
                bench.name()
            );
            // Counters partition the shard-cycles: nothing lost or
            // double-counted relative to the simulated span.
            let shards = (on_sys.config().noc.subrings + 1) as u64;
            assert_eq!(
                on_sys.stepped_cycles() + on_sys.skipped_cycles(),
                shards * on.cycles,
                "{} skip counters do not partition the run",
                bench.name()
            );
        }
    }
}

#[test]
fn skip_is_exact_without_a_mact() {
    let mut cfg = SmarcoConfig::tiny();
    cfg.mact = None;
    for bench in [Benchmark::WordCount, Benchmark::TeraSort] {
        let report = assert_skip_exact(bench.name(), &cfg, &|sys| attach_bench(sys, bench));
        assert_eq!(
            report.mact_collected,
            0,
            "{} collected without a MACT",
            bench.name()
        );
        assert!(
            report.requests > 0,
            "{} never reached the uncore",
            bench.name()
        );
    }
}

#[test]
fn skip_is_exact_without_the_direct_datapath() {
    let mut cfg = SmarcoConfig::tiny();
    cfg.direct = None;
    for bench in [Benchmark::WordCount, Benchmark::TeraSort] {
        let report = assert_skip_exact(bench.name(), &cfg, &|sys| attach_bench(sys, bench));
        assert!(
            report.requests > 0,
            "{} never reached the uncore",
            bench.name()
        );
    }
}

#[test]
fn skip_is_exact_on_a_compute_only_load() {
    // The rack's shape: compute-only tasks arriving over time through the
    // hardware dispatcher, so the NoC, MACT and DDR never wake.
    let report = assert_skip_exact("compute-only", &SmarcoConfig::tiny(), &|sys| {
        for i in 0..40u64 {
            sys.advance_until(i * 150);
            let work = 200 + (i * 37) % 400;
            sys.submit_task(
                Box::new(compute_only(work)),
                i * 150 + 3 * work,
                work,
                TaskPriority::Normal,
            );
        }
    });
    assert!(report.instructions > 0);
    assert_eq!(report.requests, 0, "compute-only load touched the uncore");
    assert_eq!(report.dram_requests, 0, "compute-only load reached DDR");
}

#[test]
fn skip_is_exact_on_bursty_direct_path_reads() {
    // Real-time reads ride the direct datapath. Every thread computes,
    // then reads, in step, so requests and full-line replies reach the
    // spokes in bursts that run them out of credit: the idle charge a
    // spoke gets between bursts shows in completion times.
    let report = assert_skip_exact("direct-path", &SmarcoConfig::tiny(), &|sys| {
        for core in 0..sys.cores_len() {
            for t in 0..4u64 {
                let base = ((core as u64) << 24) | (t << 20);
                let mut i = 0u64;
                let stream = FnStream::new(move || {
                    i += 1;
                    (i <= 600).then(|| {
                        if i % 60 >= 54 {
                            Op::Load(MemRef::realtime(base + i * 64, 64))
                        } else {
                            Op::Compute { latency: 1 }
                        }
                    })
                });
                sys.attach(core, Box::new(stream)).expect("vacant slot");
            }
        }
    });
    assert!(report.dram_requests > 0, "no read reached DDR");
}
