//! The host block printed with every result, and the process's peak
//! resident memory. Numbers from different hosts are not comparable; the
//! block says which host a result came from.

use std::process::Command;

/// What the result ran on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    pub cpu_model: String,
    pub cpus: usize,
    pub rustc: String,
    pub workload: &'static str,
    pub workers: usize,
}

impl Host {
    /// Captures the current host for a run of `workload` at `workers`
    /// PDES workers.
    pub fn capture(workload: &'static str, workers: usize) -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Self {
            cpu_model,
            cpus: std::thread::available_parallelism().map_or(1, usize::from),
            rustc,
            workload,
            workers,
        }
    }

    /// The block as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cpu_model\": \"{}\", \"cpus\": {}, \"rustc\": \"{}\", \"workload\": \"{}\", \"workers\": {}}}",
            escape(&self.cpu_model),
            self.cpus,
            escape(&self.rustc),
            self.workload,
            self.workers
        )
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            _ => vec![c],
        })
        .collect()
}

/// Peak resident memory of this process in MiB (`VmHWM`), or `None`
/// where `/proc` does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_is_json_and_names_the_workers() {
        let h = Host {
            cpu_model: "Some \"CPU\"".into(),
            cpus: 2,
            rustc: "rustc 1.0".into(),
            workload: "rack-serving",
            workers: 2,
        };
        assert_eq!(
            h.to_json(),
            "{\"cpu_model\": \"Some \\\"CPU\\\"\", \"cpus\": 2, \"rustc\": \"rustc 1.0\", \
             \"workload\": \"rack-serving\", \"workers\": 2}"
        );
        assert!(Host::capture("x", 1).cpus >= 1);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }
}
