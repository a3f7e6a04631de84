//! Process memory from `/proc/self/status`.

/// `(VmRSS, VmHWM)` in kB: current resident set and its high-water mark.
/// `None` where the file or the fields are missing.
pub fn rss_kb() -> Option<(u64, u64)> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let field = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))?
            .split_whitespace()
            .next()?
            .parse::<u64>()
            .ok()
    };
    Some((field("VmRSS:")?, field("VmHWM:")?))
}

#[cfg(test)]
mod tests {
    #[test]
    fn high_water_mark_covers_current_rss() {
        let (rss, hwm) = super::rss_kb().expect("Linux exposes /proc/self/status");
        assert!(rss > 0 && hwm >= rss);
    }
}
