//! Process resources and run identity, read without spawning anything.

use std::fs;

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// `(minor, major)` page faults of this process so far.
pub fn page_faults() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; fields restart after its `)`.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Field 3 of proc(5) is `fields[0]`: minflt is field 10, majflt 12.
    Some((fields.get(7)?.parse().ok()?, fields.get(9)?.parse().ok()?))
}

/// Online CPUs as the scheduler reports them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out in the working directory, or `unknown` when it
/// is not a git checkout (an exported tree has no `.git`).
pub fn git_rev() -> String {
    resolve_head().unwrap_or_else(|| "unknown".to_string())
}

fn resolve_head() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_string());
    }
    let packed = fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, name)| *name == reference)
        .map(|(rev, _)| rev.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_resources() {
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
        let (minor, _) = page_faults().expect("procfs stat");
        assert!(minor > 0);
        assert!(nproc() >= 1);
    }
}
