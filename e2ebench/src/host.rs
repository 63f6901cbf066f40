//! The host record printed with every result, and the process's peak
//! resident set.

use std::path::Path;
use std::process::Command;

/// Peak resident set of this process in MiB (`VmHWM`) since the last
/// [`reset_peak_rss`], if the platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Restart `VmHWM` from the current resident set (Linux `clear_refs` 5),
/// so the next [`peak_rss_mb`] covers one repetition only.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset peak RSS: {e}"))
}

fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    match Command::new(rustc).arg("-V").output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).trim().to_owned(),
        _ => "unknown".to_owned(),
    }
}

/// The commit of the checkout in the working directory, read from `.git`
/// directly so a non-git checkout reports `unknown`.
fn git_rev() -> String {
    let git = Path::new(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&git.join(reference)) {
        return rev;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn cpu_features() -> Vec<&'static str> {
    #[allow(unused_mut)]
    let mut found = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        macro_rules! probe {
            ($($f:tt),*) => {$(if std::is_x86_feature_detected!($f) { found.push($f); })*};
        }
        probe!("sse2", "sse4.2", "popcnt", "bmi2", "avx2", "avx512f");
    }
    found
}

fn json_strings(items: &[&str]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    format!("[{}]", quoted.join(","))
}

/// The host record as one JSON object.
pub fn record() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The benchmark builds the library with its default features only.
    format!(
        "{{\"nproc\":{nproc},\"rustc\":\"{}\",\"cargo_features\":[],\"git_rev\":\"{}\",\"arch\":\"{}\",\"cpu_features\":{}}}",
        rustc_version(),
        git_rev(),
        std::env::consts::ARCH,
        json_strings(&cpu_features()),
    )
}
