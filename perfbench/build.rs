//! Records what the benchmark binary was built from: the rustc version,
//! profile and flags, the git commit when there is one, and a digest of the
//! repository sources it links, so every result names its build.

use std::path::{Path, PathBuf};
use std::process::Command;

fn files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            files(&path, out);
        } else {
            out.push(path);
        }
    }
}

fn main() {
    let root = Path::new("..");
    let tracked = ["crates", "Cargo.toml", "Cargo.lock", ".cargo/config.toml"];
    let mut sources = Vec::new();
    for t in tracked {
        let path = root.join(t);
        if path.exists() {
            println!("cargo:rerun-if-changed={}", path.display());
            files(&path, &mut sources);
            if path.is_file() {
                sources.push(path);
            }
        }
    }
    sources.sort();
    sources.dedup();
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for path in &sources {
        let bytes = std::fs::read(path).unwrap_or_default();
        for &b in path.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
    }

    let run = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .current_dir(root)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let commit = if root.join(".git").exists() {
        run("git", &["rev-parse", "HEAD"])
    } else {
        None
    };
    let profile = format!(
        "{} (opt-level {})",
        std::env::var("PROFILE").unwrap_or_default(),
        std::env::var("OPT_LEVEL").unwrap_or_default()
    );
    let rustflags = std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .unwrap_or_default()
        .replace('\x1f', " ");
    let vars = [
        (
            "PERFBENCH_RUSTC",
            run(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into()),
        ),
        (
            "PERFBENCH_COMMIT",
            commit.unwrap_or_else(|| "unknown (not a git checkout)".into()),
        ),
        ("PERFBENCH_SOURCE_DIGEST", format!("{h:016x}")),
        ("PERFBENCH_PROFILE", profile),
        ("PERFBENCH_RUSTFLAGS", rustflags),
    ];
    for (k, v) in vars {
        println!("cargo:rustc-env={k}={v}");
    }
}
