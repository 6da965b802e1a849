//! Clean-kernel fixture: a kernel entry point written in the style
//! the purity rule demands — iterator traversal (no bounds-checked
//! indexing), no allocation, no panicking calls, FMA behind the
//! gated helper. Must produce ZERO findings under every rule family.

pub fn newview_tt(left: &[f64], right: &[f64], out: &mut [f64]) -> f64 {
    let mut acc = 0.0;
    for ((l, r), o) in left.iter().zip(right).zip(out.iter_mut()) {
        *o = fma(*l, *r, acc);
        acc = *o;
    }
    acc
}

fn fma(a: f64, b: f64, c: f64) -> f64 {
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, c)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        a * b + c
    }
}
