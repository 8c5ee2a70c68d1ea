//! What a result was measured on and with: build, machine, and process
//! memory; plus the guard against library-level environment overrides.

/// Variables the library reads deep inside (executor, shard count, id
/// space, artifact tier, corpus location, progress output). Any of them
/// silently changes what a workload measures, so the benchmark refuses to
/// run while one is set.
pub const REFUSED_ENV: [&str; 8] = [
    "WAKEUP_THREADS",
    "WAKEUP_SHARDS",
    "WAKEUP_SHARDS_FORCE",
    "WAKEUP_RELABEL",
    "WAKEUP_STORE",
    "WAKEUP_STORE_NO_MMAP",
    "WAKEUP_SCENARIOS",
    "WAKEUP_PROGRESS",
];

/// The refused variables that are set, given a lookup.
pub fn refused_env(get: impl Fn(&str) -> Option<String>) -> Vec<&'static str> {
    REFUSED_ENV
        .into_iter()
        .filter(|v| get(v).is_some())
        .collect()
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// A field of `/proc/self/status` in KiB (`VmHWM`, `VmRSS`).
fn status_kib(field: &str) -> Option<u64> {
    read("/proc/self/status")?
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Current resident set size, in MiB.
pub fn rss_mb() -> f64 {
    status_kib("VmRSS").unwrap_or(0) as f64 / 1024.0
}

fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn cache_size(level: u32) -> String {
    (0..8)
        .map(|i| format!("/sys/devices/system/cpu/cpu0/cache/index{i}"))
        .find(|dir| {
            read(&format!("{dir}/level")).is_some_and(|l| l.trim() == level.to_string())
                && read(&format!("{dir}/type")).is_some_and(|t| t.trim() != "Instruction")
        })
        .and_then(|dir| read(&format!("{dir}/size")))
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// Library features the measured engines are built with, pinned in this
/// package's manifest (and proven at compile time: the checkers read the
/// audit-only `RunReport::audit_log` field).
const FEATURES: &str = "wakeup-sim/audit wakeup-scenario/audit";

/// One JSON object describing the build and the machine.
pub fn meta_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let fields = [
        ("features", json_str(FEATURES)),
        ("profile", json_str(env!("PERFBENCH_PROFILE"))),
        ("rustflags", json_str(env!("PERFBENCH_RUSTFLAGS"))),
        ("rustc", json_str(env!("PERFBENCH_RUSTC"))),
        ("commit", json_str(env!("PERFBENCH_COMMIT"))),
        ("source_digest", json_str(env!("PERFBENCH_SOURCE_DIGEST"))),
        ("cpu", json_str(&cpu_model())),
        ("nproc", nproc.to_string()),
        ("l2", json_str(&cache_size(2))),
        ("l3", json_str(&cache_size(3))),
    ];
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refuses_each_library_override() {
        assert!(refused_env(|_| None).is_empty());
        for var in REFUSED_ENV {
            let set = refused_env(|v| (v == var).then(|| "1".to_string()));
            assert_eq!(set, vec![var]);
        }
        assert!(refused_env(|v| (v == "WAKEUP_OTHER").then(String::new)).is_empty());
    }

    #[test]
    fn meta_is_one_json_object() {
        let m = meta_json();
        assert!(m.starts_with('{') && m.ends_with('}'));
        assert!(m.contains("\"nproc\":") && m.contains("\"rustc\":"));
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c \"");
    }
}
