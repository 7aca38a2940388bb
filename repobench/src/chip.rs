//! The chip workload: a paper-scale WordCount MapReduce job.
//!
//! It drives `SmarcoSystem` from outside, through its builder, `report`,
//! `is_done` and `mact_stats`, and through `smarco_runtime::run_mapreduce`
//! with the benchmark's own [`MapReduceApp`]. Every stream handed to the
//! chip is wrapped in [`Probed`].

use std::cell::Cell;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use smarco_core::config::SmarcoConfig;
use smarco_core::report::SmarcoReport;
use smarco_core::SmarcoSystem;
use smarco_isa::InstructionStream;
use smarco_runtime::mapreduce::run_mapreduce;
use smarco_runtime::{MapReduceApp, MapReduceConfig, MapTask, ReduceTask};
use smarco_sim::prof::{ProfConfig, ProfileReport};
use smarco_sim::rng::SimRng;
use smarco_sim::Cycle;
use smarco_workloads::{Benchmark, HtcStream, ThreadGenParams};

use crate::driver::Job;
use crate::probe::{self, Probed, StreamTotals, Tracer};

/// Instructions per WordCount map task: half the `profile` bench's paper
/// scale, so that a run repeats the job often enough for its per-lap
/// minima to hold steady on a shared host.
const MAP_OPS: u64 = 2_000;
/// Instructions per WordCount reduce task.
const REDUCE_OPS: u64 = 750;
/// Simulated-cycle budget per MapReduce phase; every job drains far
/// earlier.
const BUDGET: Cycle = 500_000_000;

/// Seconds between consecutive instants.
pub fn laps(instants: &[Instant]) -> Vec<f64> {
    instants
        .windows(2)
        .map(|w| w[1].saturating_duration_since(w[0]).as_secs_f64())
        .collect()
}

/// Mixes the workload seed into a stream's own seed. Seed 0 leaves the
/// stream seeds as the repository's figure harness chooses them.
pub fn mix(seed: u64, stream_seed: u64) -> u64 {
    stream_seed ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Host-side account of one MapReduce job's two phases, split at the
/// first `reduce_stream` call on the benchmark's app.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Phases {
    pub map_cycles: Cycle,
    pub reduce_cycles: Cycle,
    pub map_tasks: usize,
    pub reduce_tasks: usize,
    pub map_s: f64,
    pub reduce_s: f64,
}

/// MACT counters summed over every sub-ring's table.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MactSums {
    pub collected: u64,
    pub bypassed: u64,
    pub batches: u64,
    /// Requests summed over batches (for the per-batch mean).
    pub batched_requests: f64,
    /// Wait cycles summed over waiting requests, and their count.
    pub wait_sum: f64,
    pub wait_count: u64,
    /// Flushes by cause: bitmap-full, deadline, capacity, drain.
    pub flush: [u64; 4],
}

impl MactSums {
    fn of(sys: &SmarcoSystem) -> Self {
        let mut m = Self::default();
        for s in sys.mact_stats() {
            m.collected += s.collected.get();
            m.bypassed += s.bypassed.get();
            m.batches += s.batches.get();
            m.batched_requests += s.requests_per_batch.sum();
            m.wait_sum += s.wait_cycles.sum();
            m.wait_count += s.wait_cycles.count();
            for (sum, n) in m.flush.iter_mut().zip(s.flush_causes) {
                *sum += n;
            }
        }
        m
    }
}

/// Everything one chip job yields.
#[derive(Debug, Clone)]
pub struct ChipJob {
    /// The chip's final report.
    pub report: SmarcoReport,
    /// Job makespan in simulated cycles.
    pub sim_cycles: Cycle,
    /// Map/reduce split.
    pub phases: Phases,
    /// Host seconds of configuration, chip build and stream attach,
    /// before the first simulated cycle.
    pub setup_s: f64,
    /// Host seconds of the run phase, lap by lap: laps close the same
    /// simulated work in every repetition of the job.
    pub laps: Vec<f64>,
    /// Streams handed to the chip.
    pub attached: u64,
    /// Streams that ran to their `Exit`.
    pub finished: u64,
    /// Ops the wrapped streams generated.
    pub ops: u64,
    /// Ops the runtime prepended to staged tasks (DMA + Sync prologue).
    pub prologue_ops: u64,
    /// Whether the chip drained.
    pub done: bool,
    /// Shard-cycles the engine stepped one by one, and skipped.
    pub stepped: u64,
    pub skipped: u64,
    pub mact: MactSums,
    /// The engine's self-profile (traced jobs only).
    pub profile: Option<ProfileReport>,
    /// Host seconds inside the wrapped generators (traced jobs only).
    pub gen_s: f64,
}

impl Job for ChipJob {
    type Outcome = (SmarcoReport, Cycle, (Cycle, Cycle), MactSums, u64);

    /// The report, makespan, phase split, MACT sums and op count.
    fn outcome(&self) -> Self::Outcome {
        (
            self.report.clone(),
            self.sim_cycles,
            (self.phases.map_cycles, self.phases.reduce_cycles),
            self.mact,
            self.ops,
        )
    }

    fn check(&self) -> Result<(), String> {
        if !self.done {
            return Err("the chip did not drain within its cycle budget".into());
        }
        if !self.report.degradation.is_clean() {
            return Err(format!("degraded run: {:?}", self.report.degradation));
        }
        if self.finished != self.attached {
            return Err(format!(
                "{} of {} threads ran to their exit",
                self.finished, self.attached
            ));
        }
        if self.report.instructions != self.ops + self.prologue_ops {
            return Err(format!(
                "{} instructions retired, but the streams generated {} (+{} staging ops)",
                self.report.instructions, self.ops, self.prologue_ops
            ));
        }
        Ok(())
    }

    fn attempted(&self) -> u64 {
        self.attached
    }

    fn setup_s(&self) -> f64 {
        self.setup_s
    }

    fn laps(&self) -> Vec<f64> {
        self.laps.clone()
    }

    fn instructions(&self) -> u64 {
        self.report.instructions
    }

    fn sim_cycles(&self) -> u64 {
        self.sim_cycles
    }
}

fn chip_config(traced: bool) -> SmarcoConfig {
    let mut cfg = SmarcoConfig::smarco();
    cfg.workers = crate::WORKERS;
    cfg.cycle_skip = true;
    if traced {
        cfg.prof = ProfConfig::on();
    }
    cfg
}

fn build(tracer: &mut Tracer, cfg: SmarcoConfig) -> SmarcoSystem {
    tracer.span("core::chip.build", |_| {
        SmarcoSystem::builder()
            .config(cfg)
            .build()
            .expect("the paper-scale chip config is valid")
    })
}

/// The benchmark's WordCount application: the paper's §3.6 SPM layout,
/// with the workload seed mixed into every task's stream seed.
struct WordCount {
    seed: u64,
    totals: Arc<StreamTotals>,
    traced: bool,
    /// When the runtime last asked for a map stream: it attaches that
    /// stream and starts simulating, so this closes the job's set-up.
    last_map: Cell<Option<Instant>>,
    first_reduce: OnceLock<Instant>,
    prologue_ops: Cell<u64>,
}

impl WordCount {
    /// Generator parameters for a task at `(base, len)`: when the slice
    /// is staged in SPM, its output buffer and hot table window live in
    /// the staged share too.
    fn params(&self, core: usize, base: u64, len: u64, in_spm: bool, ops: u64) -> ThreadGenParams {
        let table = 0x3000_0000 + (core as u64 / 16) * (1 << 20);
        let mut p = Benchmark::WordCount.thread_params(base, len, table, 0, 1, ops);
        if in_spm {
            let hot = p.table_hot_bytes.min(4 << 10).min(len / 2);
            p.out_len = 4 << 10;
            p.out_base = base + len;
            p.table_hot_bytes = hot.max(64);
            p.table_hot_base = Some(base);
        }
        p
    }

    fn stream(
        &self,
        p: ThreadGenParams,
        seed: u64,
        staged: Option<u64>,
    ) -> Box<dyn InstructionStream + Send> {
        if let Some(len) = staged {
            // The runtime stages a slice with one DMA per ≤4 MiB chunk
            // and a Sync; the check accounts for those retired ops.
            self.prologue_ops
                .set(self.prologue_ops.get() + len.div_ceil(4 << 20) + 1);
        }
        let inner = Box::new(HtcStream::new(p, SimRng::new(mix(self.seed, seed))));
        Probed::wrap(inner, &self.totals, self.traced)
    }
}

impl MapReduceApp for WordCount {
    fn map_stream(&self, t: &MapTask) -> Box<dyn InstructionStream + Send> {
        self.last_map.set(Some(Instant::now()));
        let p = self.params(t.core, t.slice_base, t.slice_len, t.in_spm, MAP_OPS);
        self.stream(p, t.seed, t.in_spm.then_some(t.slice_len))
    }

    fn reduce_stream(&self, t: &ReduceTask) -> Box<dyn InstructionStream + Send> {
        self.first_reduce.get_or_init(Instant::now);
        let p = self.params(
            t.core,
            t.partition_base,
            t.partition_len,
            t.in_spm,
            REDUCE_OPS,
        );
        self.stream(p, t.seed, t.in_spm.then_some(t.partition_len))
    }
}

/// One WordCount job on a fresh paper-scale chip.
pub fn wordcount(tracer: &mut Tracer, seed: u64, traced: bool) -> ChipJob {
    let start = Instant::now();
    let cfg = chip_config(traced);
    let tpc = cfg.tcg.resident_threads;
    let subrings = cfg.noc.subrings;
    let cps = cfg.noc.cores_per_subring;
    let mut sys = build(tracer, cfg);
    let app = WordCount {
        seed,
        totals: Arc::new(StreamTotals::default()),
        traced,
        last_map: Cell::new(None),
        first_reduce: OnceLock::new(),
        prologue_ops: Cell::new(0),
    };
    // Sized as the figure harness sizes it: each map slice plus its 4 KB
    // output buffer and 4 KB hot window fits the task's SPM share.
    let reducers = (subrings / 4).max(1);
    let map_tasks = ((subrings - reducers) * cps * tpc) as u64;
    let reduce_tasks = (reducers * cps * tpc) as u64;
    let share = smarco_mem::spm::Spm::data_bytes() / tpc as u64;
    let slice = share.saturating_sub(8 << 10).clamp(2 << 10, 8 << 10);
    let job = MapReduceConfig {
        threads_per_core: tpc,
        phase_budget: BUDGET,
        shuffle_len: reduce_tasks * slice,
        ..MapReduceConfig::split(subrings, 0x100_0000, map_tasks * slice)
    };
    probe::take_marks();
    let run = tracer.span("runtime::run_mapreduce", |_| {
        run_mapreduce(&mut sys, &app, &job).expect("the WordCount job fits the chip")
    });
    let end = Instant::now();
    let marks = probe::take_marks();
    let first = app.last_map.get().unwrap_or(start);
    let first_reduce = app.first_reduce.get().copied().unwrap_or(end);
    let report = tracer.span("core::chip.report", |_| sys.report());
    let done = sys.is_done();
    let mact = MactSums::of(&sys);
    drop(sys);
    ChipJob {
        sim_cycles: run.total_cycles(),
        phases: Phases {
            map_cycles: run.map_cycles,
            reduce_cycles: run.reduce_cycles,
            map_tasks: run.map_tasks,
            reduce_tasks: run.reduce_tasks,
            map_s: first_reduce.saturating_duration_since(first).as_secs_f64(),
            reduce_s: end.saturating_duration_since(first_reduce).as_secs_f64(),
        },
        setup_s: first.saturating_duration_since(start).as_secs_f64(),
        laps: laps(&[&[first][..], &marks, &[end]].concat()),
        attached: (run.map_tasks + run.reduce_tasks) as u64,
        finished: app.totals.finished(),
        ops: app.totals.ops(),
        prologue_ops: app.prologue_ops.get(),
        done,
        stepped: run.stepped_cycles,
        skipped: run.skipped_cycles,
        mact,
        profile: run.profile,
        gen_s: app.totals.gen_s(),
        report,
    }
}
