//! Host provenance: who produced a benchmark number.
//!
//! Every artifact this workspace writes (`HOST_ROOFLINE.json`, a
//! `plf_e2e` run, a `plf-microbench --out` file) carries enough
//! provenance to judge later whether two numbers are comparable: CPU
//! model, core count, the git revision of the tree that produced them,
//! and the SIMD target features the binary was compiled for.

/// The CPU model string from `/proc/cpuinfo`, or `"unknown"` where
/// that file is absent (non-Linux hosts).
pub fn cpu_model() -> String {
    let Ok(text) = std::fs::read_to_string("/proc/cpuinfo") else {
        return "unknown".into();
    };
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("model name") {
            if let Some((_, v)) = rest.split_once(':') {
                return v.trim().to_string();
            }
        }
    }
    "unknown".into()
}

/// Logical cores available to this process.
pub fn cores() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}

/// Short git revision of the working tree, `"unknown"` outside a repo
/// (or where git is not installed); `-dirty` is appended when the
/// tree has uncommitted changes, so a committed artifact can be traced
/// to an exact source state.
pub fn git_rev() -> String {
    let run = |args: &[&str]| -> Option<String> {
        let out = std::process::Command::new("git").args(args).output().ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let Some(rev) = run(&["rev-parse", "--short", "HEAD"]) else {
        return "unknown".into();
    };
    match run(&["status", "--porcelain"]) {
        Some(s) if !s.is_empty() => format!("{rev}-dirty"),
        _ => rev,
    }
}

/// The x86 SIMD target features the *running binary* was compiled
/// with or can detect at runtime, as a compact flag string
/// (e.g. `"avx2+fma"`); `"none"` when neither is available.
pub fn simd_flags() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut flags = Vec::new();
        if std::arch::is_x86_feature_detected!("avx2") {
            flags.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            flags.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            flags.push("avx512f");
        }
        if flags.is_empty() {
            "none".into()
        } else {
            flags.join("+")
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "none".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provenance_is_always_nonempty() {
        assert!(!cpu_model().is_empty());
        assert!(cores() >= 1);
        assert!(!git_rev().is_empty());
        assert!(!simd_flags().is_empty());
    }
}
