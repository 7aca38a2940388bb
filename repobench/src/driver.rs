//! The measuring loop every workload shares: a fixed number of
//! repetitions of the workload's job, the output checks on each, and the
//! host-time statistics.

use std::time::Instant;

/// What the driver needs of one repetition of a workload's job.
pub trait Job {
    /// The simulated outcome: every repetition, traced or not, must
    /// reproduce the first one's bit for bit.
    type Outcome: PartialEq;

    fn outcome(&self) -> Self::Outcome;

    /// The job's own output checks.
    fn check(&self) -> Result<(), String>;

    /// Operations the job attempted: attached threads or offered requests.
    fn attempted(&self) -> u64;

    /// Host seconds before the first simulated cycle.
    fn setup_s(&self) -> f64;

    /// Host seconds of the run phase, lap by lap. The k-th lap closes the
    /// same simulated work in every repetition, so laps compare across
    /// repetitions.
    fn laps(&self) -> Vec<f64>;

    /// Simulated instructions retired.
    fn instructions(&self) -> u64;

    /// Simulated makespan in cycles.
    fn sim_cycles(&self) -> u64;
}

/// Measured repetitions a phase makes at least.
pub const MIN_REPS: usize = 3;

/// A phase stops early, with at least [`MIN_REPS`] measured, once it has
/// taken this many times its nominal length: a guard for heavily loaded
/// hosts, not part of the statistic.
const LIMIT_FACTOR: f64 = 1.15;

/// How many repetitions a phase of `seconds` measures, for a job that
/// takes `job_s` on the reference host. The count depends on the command
/// line only, not on how fast the code runs, so every build of the
/// program takes its minima over the same number of repetitions.
pub fn reps(seconds: f64, job_s: f64) -> usize {
    ((seconds / job_s).round() as usize).max(MIN_REPS)
}

/// Runs one warm-up job, then `reps` measured ones, and returns all of
/// them, the warm-up first. Past [`LIMIT_FACTOR`] × `seconds` it stops
/// as soon as [`MIN_REPS`] are measured.
pub fn repeat<J>(reps: usize, seconds: f64, mut job: impl FnMut() -> J) -> Vec<J> {
    let mut jobs = vec![job()];
    let start = Instant::now();
    while jobs.len() <= reps {
        if jobs.len() > MIN_REPS && start.elapsed().as_secs_f64() > LIMIT_FACTOR * seconds {
            break;
        }
        jobs.push(job());
    }
    jobs
}

/// Checks every job, and that each reproduces `reference`; `differs`
/// names the failure when one does not.
pub fn check_all<J: Job>(jobs: &[J], reference: &J::Outcome, differs: &str) -> Result<(), String> {
    for j in jobs {
        j.check()?;
        if j.outcome() != *reference {
            return Err(differs.into());
        }
    }
    Ok(())
}

/// The smallest value of a host time over the measured jobs (all but the
/// warm-up).
pub fn fastest<J>(jobs: &[J], f: impl Fn(&J) -> f64) -> f64 {
    jobs[1..].iter().map(f).fold(f64::INFINITY, f64::min)
}

/// The median of a host time over the measured jobs.
pub fn median<J>(jobs: &[J], f: impl Fn(&J) -> f64) -> f64 {
    let mut xs: Vec<f64> = jobs[1..].iter().map(f).collect();
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Host seconds of a run phase timed lap by lap: each lap's fastest
/// measured repetition, summed. Co-tenants on a shared host slow a job
/// for seconds at a time; this needs a quiet moment per lap rather than
/// for a whole job.
pub fn fastest_laps<J>(jobs: &[J], laps: impl Fn(&J) -> Vec<f64>) -> Result<f64, String> {
    let measured: Vec<Vec<f64>> = jobs[1..].iter().map(laps).collect();
    let n = measured[0].len();
    if measured.iter().any(|l| l.len() != n) {
        return Err("repetitions ran different numbers of laps".into());
    }
    Ok((0..n)
        .map(|k| measured.iter().map(|l| l[k]).fold(f64::INFINITY, f64::min))
        .sum())
}

/// Host seconds of a whole job: median set-up plus the run phase lap by
/// lap.
pub fn job_s<J: Job>(jobs: &[J]) -> Result<f64, String> {
    Ok(median(jobs, J::setup_s) + fastest_laps(jobs, J::laps)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reps_depend_on_the_command_line_only() {
        assert_eq!(reps(40.0, 2.5), 16);
        assert_eq!(reps(1.0, 2.5), MIN_REPS);
    }

    #[test]
    fn repeat_warms_up_then_measures_a_fixed_count() {
        let mut n = 0;
        let jobs = repeat(5, 60.0, || {
            n += 1;
            n
        });
        assert_eq!(jobs, (1..=6).collect::<Vec<_>>());
        assert_eq!(
            fastest(&jobs, |&j| f64::from(j)),
            2.0,
            "the warm-up is not measured"
        );
        assert_eq!(median(&jobs, |&j| f64::from(j)), 4.0);
    }

    #[test]
    fn repeat_stops_past_its_limit_with_min_reps_measured() {
        let jobs = repeat(1000, 0.0, || ());
        assert_eq!(jobs.len(), MIN_REPS + 1);
    }

    #[test]
    fn laps_take_each_lap_at_its_fastest() {
        let jobs = vec![
            vec![0.0, 0.0],
            vec![3.0, 1.0],
            vec![1.0, 4.0],
            vec![2.0, 2.0],
        ];
        assert_eq!(fastest_laps(&jobs, Clone::clone), Ok(2.0));
        let ragged = vec![vec![0.0], vec![1.0], vec![1.0, 1.0]];
        assert!(fastest_laps(&ragged, Clone::clone).is_err());
    }
}
