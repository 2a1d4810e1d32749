//! Host stamp, environment guard and process measurements.

use std::process::Command;

/// Names and values of every `QUKIT_*` environment variable.
pub fn qukit_env() -> Vec<(String, String)> {
    let mut vars: Vec<(String, String)> =
        std::env::vars().filter(|(k, _)| k.starts_with("QUKIT_")).collect();
    vars.sort();
    vars
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Executor workers for the service workload: one CPU is left to the
/// load generator, so generator plus workers never exceed `nproc`.
pub fn service_workers() -> usize {
    nproc().saturating_sub(1).max(1)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let mut command = Command::new(program);
    // Keep git from searching above the working directory.
    if let Ok(dir) = std::env::current_dir() {
        if let Some(parent) = dir.parent() {
            command.env("GIT_CEILING_DIRECTORIES", parent);
        }
    }
    let out = command.args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// A field of `lscpu` output, e.g. `"L2 cache"`.
fn lscpu_field(lscpu: &str, field: &str) -> String {
    lscpu
        .lines()
        .find_map(|l| l.strip_prefix(field).and_then(|r| r.strip_prefix(':')))
        .map_or_else(|| "unknown".to_owned(), |v| v.trim().to_owned())
}

/// Size in MiB of an `lscpu` cache field such as `"300 MiB (1 instance)"`.
pub fn cache_mib(field: &str) -> Option<f64> {
    let mut words = field.split_whitespace();
    let value: f64 = words.next()?.parse().ok()?;
    match words.next()? {
        "KiB" => Some(value / 1024.0),
        "MiB" => Some(value),
        "GiB" => Some(value * 1024.0),
        _ => None,
    }
}

/// What the numbers were measured on.
#[derive(Debug, Clone)]
pub struct HostStamp {
    /// CPU model name.
    pub cpu: String,
    /// Logical CPUs available.
    pub nproc: usize,
    /// L2 size as `lscpu` reports it.
    pub l2: String,
    /// Last-level (L3) cache size as `lscpu` reports it.
    pub llc: String,
    /// `rustc -V`.
    pub rustc: String,
    /// Git commit of the checkout, or a digest of the library sources when
    /// the checkout is not a git repository.
    pub commit: String,
}

impl HostStamp {
    /// Collects the stamp (spawns `lscpu`, `rustc` and `git`; each is
    /// optional).
    pub fn collect() -> Self {
        let lscpu = command_output("lscpu", &[]).unwrap_or_default();
        let commit = command_output("git", &["rev-parse", "HEAD"])
            .unwrap_or_else(|| format!("source-digest:{:016x}", source_digest("crates")));
        Self {
            cpu: lscpu_field(&lscpu, "Model name"),
            nproc: nproc(),
            l2: lscpu_field(&lscpu, "L2 cache"),
            llc: lscpu_field(&lscpu, "L3 cache"),
            rustc: command_output("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_owned()),
            commit,
        }
    }

    /// The stamp as one JSON object, with the run's own parameters.
    pub fn json(&self, workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
        let esc = qukit_obs::json::escape;
        format!(
            "{{\"cpu\":\"{}\",\"nproc\":{},\"l2\":\"{}\",\"llc\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\",\"workload\":\"{}\",\"seed\":{seed},\"seconds\":{seconds},\"trace\":{},\"qukit_env\":{{}}}}",
            esc(&self.cpu),
            self.nproc,
            esc(&self.l2),
            esc(&self.llc),
            esc(&self.rustc),
            esc(&self.commit),
            esc(workload),
            u8::from(trace),
        )
    }
}

/// FNV-1a digest over every file below `dir`, in sorted path order.
fn source_digest(dir: &str) -> u64 {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new(dir), &mut files);
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for path in files {
        let bytes = std::fs::read(&path).unwrap_or_default();
        for b in path.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lscpu_fields_and_cache_sizes_parse() {
        let text = "Model name:   Some CPU\nL2 cache:   4 MiB (2 instances)\nL3 cache: 300 MiB (1 instance)\n";
        assert_eq!(lscpu_field(text, "Model name"), "Some CPU");
        assert_eq!(cache_mib(&lscpu_field(text, "L3 cache")), Some(300.0));
        assert_eq!(cache_mib("512 KiB"), Some(0.5));
        assert_eq!(lscpu_field(text, "L1d cache"), "unknown");
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
