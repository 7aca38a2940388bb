//! `repobench`: the repository's benchmark. See `README.md` beside this
//! package for the workloads, the metrics and what each should move.
//!
//! ```text
//! repobench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run makes one warm-up job of its workload, then a fixed number of
//! measured repetitions, and reports host times as medians (set-up) and
//! per-lap minima (run phase) over them (see `driver`). Untraced, it
//! prints the end-to-end metrics; traced, the per-layer metrics. Outputs
//! are checked before anything is printed: a failed check names the
//! workload on stderr and exits 1.

mod chip;
mod driver;
mod host;
mod layers;
mod metrics;
mod probe;
mod rack;

use driver::Job;
use metrics::{Values, END_TO_END};
use probe::Tracer;
use rack::RackJob;

/// The seed a run uses when none is given. Seed 2 is held out: no
/// tuning of the benchmark or of a claimed gain may look at it.
pub const DEFAULT_SEED: u64 = 1;

/// PDES workers of every chip the benchmark simulates.
pub const WORKERS: usize = 1;

/// Directory, inside the working directory, that traced runs write their
/// spans to.
const OUT_DIR: &str = ".repobench_out";

/// Per-layer metrics that may read 0 on a layer a workload exercises: a
/// MACT flush cause or bypass the workload never triggers, an SLO never
/// missed, and the trace overhead, which has either sign.
const MAY_READ_ZERO: &[&str] = &[
    "mact.bypassed",
    "mact.flush_full",
    "mact.flush_capacity",
    "mact.flush_drain",
    "rack.slo_miss_u80",
    "rack.slo_miss_u100",
    "trace.overhead_frac",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    MapreduceWordcount,
    RackServing,
}

impl Workload {
    const ALL: [Workload; 2] = [Workload::MapreduceWordcount, Workload::RackServing];

    fn name(self) -> &'static str {
        match self {
            Workload::MapreduceWordcount => "mapreduce-wordcount",
            Workload::RackServing => "rack-serving",
        }
    }

    /// Host seconds one untraced job takes on the reference host (a
    /// 2-vCPU Intel Xeon guest): sizes the fixed repetition count.
    fn job_s(self) -> f64 {
        match self {
            Workload::MapreduceWordcount => 1.8,
            Workload::RackServing => 1.9,
        }
    }

    /// Per-layer prefixes of layers the workload does not exercise: they
    /// read 0 there.
    fn idle_layers(self) -> &'static [&'static str] {
        match self {
            Workload::MapreduceWordcount => &["rack.", "cluster.", "traffic."],
            // The cluster's chips are reached only through
            // `ClusterReport`: their engines and MACT tables have no
            // public surface, and requests are not benchmark streams.
            // Requests are compute-only, so memory and rings stay idle.
            Workload::RackServing => &["sim.", "workloads.", "mact.", "runtime.", "mem.", "noc."],
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: repobench --workload <mapreduce-wordcount|rack-serving> \
     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// What a run prints: its metrics and how many operations it attempted.
struct Outcome {
    values: Values,
    attempted: u64,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse(&argv).unwrap_or_else(|e| {
        eprintln!("repobench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let host = host::Host::capture(args.workload.name(), WORKERS);
    println!("{{\"host\": {}}}", host.to_json());
    let mut tracer = Tracer::new(true);
    let seed = args.seed;
    let result = match args.workload {
        Workload::MapreduceWordcount => run(
            &args,
            &mut tracer,
            |t, traced| chip::wordcount(t, seed, traced),
            |jobs, _, _| Ok(layers::chip(jobs)),
        ),
        Workload::RackServing => run(
            &args,
            &mut tracer,
            |t, _| RackJob::run(t, seed),
            |jobs, t, attempted| layers::rack(jobs, t, seed, attempted),
        ),
    };
    let outcome = result.and_then(|mut o| {
        if args.trace {
            o.values.zero_layers(args.workload.idle_layers());
        } else {
            let rss = host::peak_rss_mib().ok_or("no peak RSS in /proc/self/status")?;
            o.values.set("peak_rss_mb", rss);
        }
        check_values(&o.values, args.trace.then(|| args.workload.idle_layers()))?;
        if args.trace {
            write_spans(&args, &host, &tracer, &o.values)
                .map_err(|e| format!("cannot write spans: {e}"))?;
        }
        Ok(o)
    });
    match outcome {
        Ok(o) => println!("{}", o.values.result_line(o.attempted, 0)),
        Err(e) => {
            eprintln!("repobench: {}: check failed: {e}", args.workload.name());
            std::process::exit(1);
        }
    }
}

/// Every metric of the set is present and finite. Untraced, every
/// end-to-end metric is positive; traced (`idle` holds the workload's
/// idle layers), every per-layer metric outside them is positive unless
/// it is one of [`MAY_READ_ZERO`].
fn check_values(values: &Values, idle: Option<&[&str]>) -> Result<(), String> {
    let missing = values.missing();
    if !missing.is_empty() {
        return Err(format!("metrics not measured: {}", missing.join(", ")));
    }
    for (name, _, v) in values.entries() {
        if !metrics::valid_name(name) {
            return Err(format!("metric name {name} is not [A-Za-z0-9_.-]+"));
        }
        let must_be_positive = match idle {
            None => true,
            Some(idle) => {
                !idle.iter().any(|p| name.starts_with(p)) && !MAY_READ_ZERO.contains(&name)
            }
        };
        if !v.is_finite() || (must_be_positive && v <= 0.0) {
            return Err(format!("metric {name} reads {v}"));
        }
    }
    Ok(())
}

fn write_spans(
    args: &Args,
    host: &host::Host,
    tracer: &Tracer,
    values: &Values,
) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    let metrics: Vec<String> = values
        .entries()
        .map(|(name, _, v)| format!("\"{name}\": {}", metrics::json_number(v)))
        .collect();
    let path = format!("{OUT_DIR}/{}-seed{}.json", args.workload.name(), args.seed);
    std::fs::write(
        path,
        format!(
            "{{\"host\": {},\n\"seed\": {},\n\"metrics\": {{{}}},\n\"spans\": {}}}\n",
            host.to_json(),
            args.seed,
            metrics.join(", "),
            tracer.to_json()
        ),
    )
}

/// Runs a workload. Untraced: a fixed number of jobs, checked, and the
/// end-to-end metrics. Traced: a quarter of that count untraced, as many
/// traced (`job` with `true`), both checked against the first untraced
/// job, then the per-layer metrics from `layers` and
/// `trace.overhead_frac`.
fn run<J: Job>(
    args: &Args,
    tracer: &mut Tracer,
    mut job: impl FnMut(&mut Tracer, bool) -> J,
    layers: impl FnOnce(&[J], &mut Tracer, &mut u64) -> Result<Values, String>,
) -> Result<Outcome, String> {
    let seconds = if args.trace {
        args.seconds / 4.0
    } else {
        args.seconds
    };
    let reps = driver::reps(seconds, args.workload.job_s());
    let mut quiet = Tracer::new(false);
    let untraced = driver::repeat(reps, seconds, || job(&mut quiet, false));
    let reference = untraced[0].outcome();
    driver::check_all(
        &untraced,
        &reference,
        "a repetition's simulated outcome differs from the first",
    )?;
    let mut attempted: u64 = untraced.iter().map(J::attempted).sum();
    if !args.trace {
        let mut v = Values::new(END_TO_END);
        v.set("setup_s", driver::median(&untraced, J::setup_s));
        v.set(
            "sim_minstr_per_s",
            untraced[0].instructions() as f64 / driver::fastest_laps(&untraced, J::laps)? / 1e6,
        );
        v.set("sim_cycles", untraced[0].sim_cycles() as f64);
        return Ok(Outcome {
            values: v,
            attempted,
        });
    }

    let traced = driver::repeat(reps, seconds, || {
        tracer.next_run();
        job(tracer, true)
    });
    driver::check_all(
        &traced,
        &reference,
        "the traced run's simulated outcome differs from the untraced run's",
    )?;
    attempted += traced.iter().map(J::attempted).sum::<u64>();
    let mut v = layers(&traced, tracer, &mut attempted)?;
    v.set(
        "trace.overhead_frac",
        driver::job_s(&traced)? / driver::job_s(&untraced)? - 1.0,
    );
    Ok(Outcome {
        values: v,
        attempted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&argv(
            "--workload rack-serving --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::RackServing,
                seed: 7,
                seconds: 12.0,
                trace: true
            }
        );
        let d = parse(&argv("--workload mapreduce-wordcount")).unwrap();
        assert_eq!((d.seed, d.trace), (DEFAULT_SEED, false));
        for bad in [
            "",
            "--workload nope",
            "--workload rack-serving --trace 2",
            "--workload rack-serving --seconds 0",
            "--workload rack-serving --seed",
            "--workload rack-serving --bogus 1",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad}");
        }
    }

    /// Each workload prints exactly the metrics of its set, and a layer
    /// it does not exercise is one the registry knows.
    #[test]
    fn idle_layers_name_real_metrics() {
        for w in Workload::ALL {
            for prefix in w.idle_layers() {
                assert!(
                    PER_LAYER.iter().any(|d| d.name.starts_with(prefix)),
                    "{}: {prefix}",
                    w.name()
                );
            }
        }
        // Each workload keeps measuring the layers it was chosen for.
        let chip = Workload::MapreduceWordcount.idle_layers();
        for layer in [
            "sim.",
            "workloads.",
            "tcg.",
            "mem.",
            "mact.",
            "noc.",
            "runtime.",
        ] {
            assert!(!chip.contains(&layer), "{layer}");
        }
        let rack = Workload::RackServing.idle_layers();
        for layer in ["rack.", "cluster.", "traffic.", "tcg."] {
            assert!(!rack.contains(&layer), "{layer}");
        }
        // Every per-layer metric is measured on some workload.
        for d in PER_LAYER {
            assert!(
                Workload::ALL
                    .iter()
                    .any(|w| !w.idle_layers().iter().any(|p| d.name.starts_with(p))),
                "{} is idle everywhere",
                d.name
            );
        }
    }

    #[test]
    fn values_reject_an_incomplete_or_zero_end_to_end_set() {
        let mut v = Values::new(END_TO_END);
        assert!(check_values(&v, None).is_err());
        for d in END_TO_END {
            v.set(d.name, 1.0);
        }
        assert!(check_values(&v, None).is_ok());
        let mut z = Values::new(END_TO_END);
        for d in END_TO_END {
            z.set(d.name, 0.0);
        }
        assert!(check_values(&z, None).is_err());
    }

    /// A traced run fails when a layer its workload exercises reads 0,
    /// and passes when only idle layers and [`MAY_READ_ZERO`] do.
    #[test]
    fn traced_values_reject_a_zero_on_an_exercised_layer() {
        let w = Workload::MapreduceWordcount;
        let traced = |zero: &[&str]| {
            let mut v = Values::new(PER_LAYER);
            v.zero_layers(w.idle_layers());
            for d in PER_LAYER {
                if !w.idle_layers().iter().any(|p| d.name.starts_with(p)) {
                    v.set(d.name, if zero.contains(&d.name) { 0.0 } else { 1.0 });
                }
            }
            check_values(&v, Some(w.idle_layers()))
        };
        assert!(traced(&[]).is_ok());
        assert!(traced(MAY_READ_ZERO).is_ok());
        for name in [
            "sim.windows",
            "mact.collected",
            "mem.requests",
            "runtime.map_s",
        ] {
            assert!(traced(&[name]).is_err(), "{name}");
        }
    }
}
