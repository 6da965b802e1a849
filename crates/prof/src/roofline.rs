//! Host roofline calibration: one memory probe, one compute probe.
//!
//! The roofline model bounds a kernel's attainable GFLOP/s by
//! `min(peak_flops, arithmetic_intensity × peak_bandwidth)`. Both
//! peaks are measured **single-core**, because the microbench times
//! kernels single-threaded — a kernel at 80% of the single-core roof
//! is genuinely well optimized even if the socket could stream more.
//!
//! * Bandwidth: a STREAM-style triad `a[i] = b[i] + s·c[i]` over
//!   arrays far larger than the last-level cache, counted at 24
//!   bytes/element (two reads + one write — the same no-write-allocate
//!   convention as the kernel cost model, so "% of roof" compares like
//!   with like).
//! * Compute: a bundle of independent fused multiply-add chains, 2
//!   flops per `mul_add`, wide enough for the compiler to vectorize.
//!
//! Each probe runs one untimed warmup round then `rounds` timed ones
//! and keeps the **best** round (peaks are maxima by definition; the
//! trimmed-mean machinery the microbench uses answers "typical", not
//! "attainable"). Results are cached to [`CACHE_FILE`] with host
//! provenance so repeated reports skip the multi-second measurement.

use crate::host;
use crate::json::{escape, Json};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Default cache location, relative to the working directory.
pub const CACHE_FILE: &str = "HOST_ROOFLINE.json";

/// Schema marker inside the cache file.
pub const SCHEMA: &str = "host-roofline/1";

/// Triad array length for the full measurement: 4 Mi doubles = 32 MB
/// per array, 96 MB of traffic per pass — beyond any current LLC.
const TRIAD_LEN: usize = 4 << 20;
/// FMA chain iterations for the full measurement (×[`FMA_ACCS`]×2
/// flops each).
const FMA_ITERS: usize = 8_000_000;
/// Independent FMA accumulators; enough ILP to saturate the FMA ports
/// and let the autovectorizer use full-width registers.
const FMA_ACCS: usize = 16;
/// Timed rounds per probe (after one warmup); best kept.
const ROUNDS: usize = 5;

/// Calibrated single-core peaks plus the provenance of the host that
/// produced them.
#[derive(Clone, Debug, PartialEq)]
pub struct HostRoofline {
    /// Peak compute, MFLOP/s (integer so it embeds in the flat trace
    /// grammar; 1 MFLOP/s resolution is far below probe noise).
    pub peak_mflops: u64,
    /// Peak bandwidth, MB/s.
    pub peak_mbps: u64,
    /// CPU model string.
    pub cpu_model: String,
    /// Logical cores on the measuring host.
    pub cores: u64,
    /// Git revision of the measuring tree.
    pub git_rev: String,
    /// SIMD features available to the measuring binary.
    pub simd: String,
    /// Streamed copy bandwidth (`a[i] = b[i]`), MB/s. Reported next
    /// to the triad; steers nothing. 0 when read from a cache written
    /// before this field existed.
    pub copy_mbps: u64,
    /// Per-core data-cache capacity in bytes (largest core-private
    /// level reported by sysfs, normally L2), sizing the traversal
    /// cache blocks. 0 when undetectable or read from an older cache.
    pub cache_bytes: u64,
}

impl HostRoofline {
    /// The ridge point in flop/byte; ops below it are memory-bound.
    pub fn ridge(&self) -> f64 {
        if self.peak_mbps == 0 {
            0.0
        } else {
            self.peak_mflops as f64 / self.peak_mbps as f64
        }
    }

    /// Serializes to the cache-file JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": \"{SCHEMA}\",");
        let _ = writeln!(s, "  \"peak_mflops\": {},", self.peak_mflops);
        let _ = writeln!(s, "  \"peak_mbps\": {},", self.peak_mbps);
        let _ = writeln!(s, "  \"cpu_model\": \"{}\",", escape(&self.cpu_model));
        let _ = writeln!(s, "  \"cores\": {},", self.cores);
        let _ = writeln!(s, "  \"git_rev\": \"{}\",", escape(&self.git_rev));
        let _ = writeln!(s, "  \"simd\": \"{}\",", escape(&self.simd));
        let _ = writeln!(s, "  \"copy_mbps\": {},", self.copy_mbps);
        let _ = writeln!(s, "  \"cache_bytes\": {}", self.cache_bytes);
        s.push_str("}\n");
        s
    }

    /// Writes the cache file.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Loads a cached calibration; `None` when the file is missing,
/// unparseable, or from a different schema.
pub fn load_cached(path: &Path) -> Option<HostRoofline> {
    let text = std::fs::read_to_string(path).ok()?;
    let v = Json::parse(&text).ok()?;
    if v.get("schema")?.as_str()? != SCHEMA {
        return None;
    }
    Some(HostRoofline {
        peak_mflops: v.get("peak_mflops")?.as_u64()?,
        peak_mbps: v.get("peak_mbps")?.as_u64()?,
        cpu_model: v.get("cpu_model")?.as_str()?.to_string(),
        cores: v.get("cores")?.as_u64()?,
        git_rev: v.get("git_rev")?.as_str()?.to_string(),
        simd: v.get("simd")?.as_str()?.to_string(),
        // Caches written before these fields existed parse as 0
        // (unmeasured) rather than being rejected.
        copy_mbps: v.get("copy_mbps").and_then(Json::as_u64).unwrap_or(0),
        cache_bytes: v.get("cache_bytes").and_then(Json::as_u64).unwrap_or(0),
    })
}

/// Full calibration with the default probe sizes (a few seconds).
pub fn measure() -> HostRoofline {
    measure_with(TRIAD_LEN, FMA_ITERS, ROUNDS)
}

/// Calibration with explicit probe sizes — tests and the CI smoke
/// test shrink them to keep runtime bounded; peaks from shrunken
/// probes are noisy but still positive.
pub fn measure_with(triad_len: usize, fma_iters: usize, rounds: usize) -> HostRoofline {
    HostRoofline {
        peak_mflops: (fma_peak_flops(fma_iters, rounds) / 1e6) as u64,
        peak_mbps: (triad_bandwidth(triad_len, rounds) / 1e6) as u64,
        cpu_model: host::cpu_model(),
        cores: host::cores(),
        git_rev: host::git_rev(),
        simd: host::simd_flags(),
        copy_mbps: (copy_bandwidth(triad_len, rounds) / 1e6) as u64,
        cache_bytes: detect_cache_bytes(),
    }
}

/// Best-round STREAM triad bandwidth, bytes/second.
fn triad_bandwidth(len: usize, rounds: usize) -> f64 {
    let b = vec![1.000_1f64; len];
    let c = vec![0.999_9f64; len];
    let mut a = vec![0.0f64; len];
    let scalar = black_box(3.000_4f64);
    let bytes_per_pass = (3 * len * std::mem::size_of::<f64>()) as f64;
    let mut best = 0.0f64;
    for round in 0..=rounds {
        let start = Instant::now();
        for i in 0..len {
            a[i] = b[i] + scalar * c[i];
        }
        let dt = start.elapsed().as_secs_f64();
        black_box(&a);
        // Round 0 is warmup: first touch faults the pages in.
        if round > 0 && dt > 0.0 {
            best = best.max(bytes_per_pass / dt);
        }
    }
    best
}

/// Best-round streamed copy bandwidth (`a[i] = b[i]`), bytes/second,
/// counted at 16 bytes/element (one read + one write, the same
/// no-write-allocate convention as the triad).
fn copy_bandwidth(len: usize, rounds: usize) -> f64 {
    let b = vec![1.000_1f64; len];
    let mut a = vec![0.0f64; len];
    let bytes_per_pass = (2 * len * std::mem::size_of::<f64>()) as f64;
    let mut best = 0.0f64;
    for round in 0..=rounds {
        let start = Instant::now();
        a.copy_from_slice(&b);
        let dt = start.elapsed().as_secs_f64();
        black_box(&a);
        // Round 0 is warmup: first touch faults the pages in.
        if round > 0 && dt > 0.0 {
            best = best.max(bytes_per_pass / dt);
        }
    }
    best
}

/// Largest core-private data-cache capacity in bytes, from sysfs
/// (`/sys/devices/system/cpu/cpu0/cache/index*`). "Core-private" means
/// the cache is shared by at most 2 logical CPUs (SMT siblings) — on
/// mainstream x86 that selects L2, the level the traversal blocks aim
/// to stay resident in. Returns 0 when sysfs is absent (non-Linux,
/// containers without /sys) or nothing parses.
pub fn detect_cache_bytes() -> u64 {
    let mut best = 0u64;
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}"));
        let Ok(ctype) = read("type") else { break };
        if !matches!(ctype.trim(), "Data" | "Unified") {
            continue;
        }
        let shared = read("shared_cpu_list").map(|s| cpu_list_len(s.trim()));
        if !matches!(shared, Ok(n) if n <= 2) {
            continue;
        }
        if let Some(bytes) = read("size").ok().and_then(|s| parse_cache_size(s.trim())) {
            best = best.max(bytes);
        }
    }
    best
}

/// Number of CPUs in a sysfs cpu list like `"0,4"` or `"0-3,8-11"`.
fn cpu_list_len(list: &str) -> usize {
    list.split(',')
        .filter(|part| !part.is_empty())
        .map(|part| match part.split_once('-') {
            Some((a, b)) => {
                let (a, b) = (
                    a.trim().parse::<usize>().unwrap_or(0),
                    b.trim().parse::<usize>().unwrap_or(0),
                );
                b.saturating_sub(a) + 1
            }
            None => 1,
        })
        .sum()
}

/// Parses a sysfs cache size string (`"48K"`, `"1024K"`, `"2M"`).
fn parse_cache_size(s: &str) -> Option<u64> {
    let (num, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1u64 << 10),
        b'M' => (&s[..s.len() - 1], 1u64 << 20),
        b'G' => (&s[..s.len() - 1], 1u64 << 30),
        _ => (s, 1),
    };
    num.trim().parse::<u64>().ok().map(|n| n * mult)
}

/// Best-round FMA throughput, flops/second.
///
/// The baseline x86-64 target lacks FMA, so a plain `f64::mul_add`
/// here would compile to a correctly-rounded libm *call* and measure
/// call overhead, not the machine. Like the SIMD kernels, the probe
/// dispatches at runtime to a `#[target_feature(enable = "fma")]`
/// body where `mul_add` lowers to `vfmadd`; hosts without FMA fall
/// back to separate multiply+add (still 2 flops per step — that *is*
/// their peak).
fn fma_peak_flops(iters: usize, rounds: usize) -> f64 {
    // Multiplier near 1 and tiny addend keep every accumulator finite
    // and non-degenerate for any iteration count.
    let m = black_box(0.999_999_9f64);
    let addend = black_box(1e-9f64);
    #[cfg(target_arch = "x86_64")]
    let use_fma = std::arch::is_x86_feature_detected!("fma");
    #[cfg(not(target_arch = "x86_64"))]
    let use_fma = false;
    let mut best = 0.0f64;
    for round in 0..=rounds {
        let start = Instant::now();
        let acc = if use_fma {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: guarded by the is_x86_feature_detected!("fma")
            // check above.
            unsafe {
                fma_chains_fma(iters, m, addend)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!()
        } else {
            fma_chains_portable(iters, m, addend)
        };
        let dt = start.elapsed().as_secs_f64();
        black_box(acc);
        let flops = (iters * FMA_ACCS * 2) as f64;
        if round > 0 && dt > 0.0 {
            best = best.max(flops / dt);
        }
    }
    best
}

/// The FMA-chain body with fused multiply-adds available to codegen.
// SAFETY: `target_feature` makes this fn unsafe to *call*; the single
// call site guards it with is_x86_feature_detected!("fma"). The body
// itself is ordinary safe arithmetic.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_chains_fma(iters: usize, m: f64, addend: f64) -> [f64; FMA_ACCS] {
    let mut acc = [1.0f64; FMA_ACCS];
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = a.mul_add(m, addend);
        }
    }
    acc
}

/// Fallback body: separate multiply and add, which every target
/// vectorizes without libm calls.
fn fma_chains_portable(iters: usize, m: f64, addend: f64) -> [f64; FMA_ACCS] {
    let mut acc = [1.0f64; FMA_ACCS];
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = *a * m + addend;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("plf-prof-{}-{name}", std::process::id()))
    }

    #[test]
    fn shrunken_probes_yield_positive_peaks() {
        let r = measure_with(1 << 14, 20_000, 2);
        assert!(r.peak_mflops > 0, "{r:?}");
        assert!(r.peak_mbps > 0, "{r:?}");
        assert!(r.copy_mbps > 0, "{r:?}");
        assert!(!r.cpu_model.is_empty());
        // Even a noisy host computes faster than a 1980s workstation.
        assert!(r.peak_mflops >= 10, "{r:?}");
    }

    #[test]
    fn cache_roundtrips_and_rejects_foreign_schema() {
        let r = HostRoofline {
            peak_mflops: 12_345,
            peak_mbps: 23_456,
            cpu_model: "Test \"CPU\" x1".into(),
            cores: 8,
            git_rev: "abc1234".into(),
            simd: "avx2+fma".into(),
            copy_mbps: 11_111,
            cache_bytes: 512 << 10,
        };
        let path = tmp_path("cache.json");
        r.save(&path).unwrap();
        assert_eq!(load_cached(&path), Some(r));
        std::fs::write(&path, "{\"schema\": \"something-else/9\"}").unwrap();
        assert_eq!(load_cached(&path), None);
        std::fs::write(&path, "not json").unwrap();
        assert_eq!(load_cached(&path), None);
        let _ = std::fs::remove_file(&path);
        assert_eq!(load_cached(&path), None);
    }

    #[test]
    fn control_characters_in_provenance_roundtrip_as_json() {
        // A tab and a U+0001 in the CPU model string: written raw, each
        // is a control byte inside a JSON string, which a strict reader
        // (CI's `json.load`) refuses.
        let r = HostRoofline {
            peak_mflops: 1,
            peak_mbps: 2,
            cpu_model: "Odd\tCPU\u{1} \"x\" \\".into(),
            cores: 2,
            git_rev: "r\n".into(),
            simd: "avx\r".into(),
            copy_mbps: 3,
            cache_bytes: 4,
        };
        let path = tmp_path("ctrl-cache.json");
        r.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        for line in text.lines() {
            assert!(
                !line.bytes().any(|b| b < 0x20),
                "raw control byte in {line:?}"
            );
        }
        assert_eq!(load_cached(&path), Some(r));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn ridge_is_flops_over_bandwidth() {
        let r = HostRoofline {
            peak_mflops: 10_000,
            peak_mbps: 20_000,
            cpu_model: String::new(),
            cores: 1,
            git_rev: String::new(),
            simd: String::new(),
            copy_mbps: 0,
            cache_bytes: 0,
        };
        assert!((r.ridge() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pre_copy_field_caches_parse_with_zero_defaults() {
        // Exactly what an older calibrator wrote: no copy_mbps, no
        // cache_bytes.
        let path = tmp_path("old-cache.json");
        std::fs::write(
            &path,
            format!(
                "{{\"schema\": \"{SCHEMA}\", \"peak_mflops\": 5, \"peak_mbps\": 6,\n \
                 \"cpu_model\": \"x\", \"cores\": 1, \"git_rev\": \"r\", \"simd\": \"s\"}}"
            ),
        )
        .unwrap();
        let r = load_cached(&path).unwrap();
        assert_eq!((r.copy_mbps, r.cache_bytes), (0, 0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cache_size_strings_and_cpu_lists_parse() {
        assert_eq!(parse_cache_size("48K"), Some(48 << 10));
        assert_eq!(parse_cache_size("2M"), Some(2 << 20));
        assert_eq!(parse_cache_size("1024"), Some(1024));
        assert_eq!(parse_cache_size("junk"), None);
        assert_eq!(cpu_list_len("0"), 1);
        assert_eq!(cpu_list_len("0,4"), 2);
        assert_eq!(cpu_list_len("0-3,8-11"), 8);
    }
}
