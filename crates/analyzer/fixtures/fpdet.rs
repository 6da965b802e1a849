// FP-determinism fixture. Seeds:
//   * a raw `f64::mul_add` outside any FMA gate — the exact shape of
//     the BENCH_5 libm-collapse regression (an earlier PR replaced
//     the gated `fma` helper with bare mul_add calls; on targets
//     without hardware FMA those lower to libm `fma()` at ~10× the
//     cost, and results diverge from the mul+add path);
//   * a float `==` against a computed value;
//   * a HashMap iteration feeding an accumulation;
//   * a kernel timed on its own `Instant` instead of the one clock,
//     and an epoch anchored by passing `Instant::now` as a fn.
// Nor must a `now` of any other type be reported.
// The two *gated* mul_add shapes must NOT be reported.

pub fn raw_fma_regression(a: f64, b: f64, c: f64) -> f64 {
    a.mul_add(b, c) // seeded: ungated mul_add
}

// Statement-level gate: contraction only where hardware FMA exists.
pub fn gated_by_cfg(a: f64, b: f64, c: f64) -> f64 {
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, c)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        a * b + c
    }
}

// Fn-level gate: the whole body is FMA-only by construction.
#[target_feature(enable = "fma")]
pub unsafe fn gated_by_target_feature(a: f64, b: f64, c: f64) -> f64 {
    // SAFETY: caller checked the fma target feature.
    a.mul_add(b, c)
}

pub fn float_eq_bug(x: f64) -> bool {
    x == 0.1 // seeded: 0.1 is not exactly representable
}

pub fn hash_order_bug(keys: &[String]) -> f64 {
    let mut weights: std::collections::HashMap<String, f64> =
        std::collections::HashMap::new();
    for k in keys {
        weights.insert(k.clone(), 1.0);
    }
    let mut total = 0.0;
    for (_k, w) in weights.iter() {
        total += w; // seeded: accumulation order follows hash order
    }
    total
}

pub fn timed_off_the_one_clock(xs: &[f64]) -> (f64, u64) {
    let t0 = std::time::Instant::now(); // seeded: not plf_core::clock::now_ns
    let s = xs.iter().sum();
    (s, t0.elapsed().as_nanos() as u64)
}

pub fn epoch_off_the_one_clock() -> std::time::Instant {
    static EPOCH: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    *EPOCH.get_or_init(std::time::Instant::now) // seeded: passed, not called
}

pub fn other_now() -> u64 {
    Tick::now()
}
