//! Correctness checks on finished searches. Each returns the reason a
//! check failed; a failed check makes its search a failed operation.

use crate::schemes::{Counts, Outcome, Prepared};
use phylo_tree::newick;
use plf_core::{Blocking, EngineConfig, KernelKind, LikelihoodEngine, SiteRepeats};

/// Relative logL tolerance between schemes.
const AGREE_REL: f64 = 1e-9;
/// Relative logL tolerance against the scalar oracle.
const ORACLE_REL: f64 = 1e-6;

/// (a) A scheme agrees with serial: same logL, same topology, same
/// search trajectory counts.
pub fn agrees_with_serial(serial: &Outcome, other: &Outcome) -> Result<(), String> {
    let tol = AGREE_REL * serial.logl.abs();
    if (serial.logl - other.logl).abs() > tol {
        return Err(format!(
            "logL {} differs from serial {}",
            other.logl, serial.logl
        ));
    }
    let a = newick::parse(serial.newick.trim()).map_err(|e| format!("serial tree: {e}"))?;
    let b = newick::parse(other.newick.trim()).map_err(|e| format!("tree: {e}"))?;
    let rf = a.rf_distance(&b);
    if rf != 0 {
        return Err(format!("RF distance {rf} to serial's tree"));
    }
    for key in ["search.spr_evaluated", "search.spr_accepted"] {
        if serial.counts.get(key) != other.counts.get(key) {
            return Err(format!(
                "{key} {:?} differs from serial {:?}",
                other.counts.get(key),
                serial.counts.get(key)
            ));
        }
    }
    Ok(())
}

/// (b) Oracle: the serial result's tree and model, re-evaluated by a
/// fresh scalar, repeats-off, blocking-off engine, reproduce the
/// reported logL.
pub fn oracle(p: &Prepared, serial: &Outcome) -> Result<(), String> {
    let detail = serial.serial().ok_or("oracle needs a serial outcome")?;
    let tree = newick::parse(serial.newick.trim()).map_err(|e| format!("serial tree: {e}"))?;
    let mut engine = LikelihoodEngine::new(
        &tree,
        &p.aln,
        EngineConfig {
            kernel: KernelKind::Scalar,
            alpha: detail.alpha,
            site_repeats: SiteRepeats::Off,
            blocking: Blocking::Off,
        },
    );
    engine.set_model(detail.model);
    let ll = engine.log_likelihood(&tree, 0);
    if (ll - serial.logl).abs() > ORACLE_REL * serial.logl.abs() {
        return Err(format!(
            "oracle logL {ll} does not reproduce reported {}",
            serial.logl
        ));
    }
    Ok(())
}

/// Count exactness: every key present in both maps must hold the same
/// value (a traced run reports a few counts an untraced one cannot).
pub fn counts_match(reference: &Counts, other: &Counts) -> Result<(), String> {
    let diffs: Vec<String> = reference
        .iter()
        .filter_map(|(k, a)| {
            let b = other.get(k)?;
            (a != b).then(|| format!("{k}: {a} vs {b}"))
        })
        .collect();
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(format!("counts do not repeat: {}", diffs.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_mismatch_names_both_values() {
        let a: Counts = [("x".to_string(), 1), ("y".to_string(), 2)].into();
        let b: Counts = [
            ("x".to_string(), 1),
            ("y".to_string(), 3),
            ("z".to_string(), 9),
        ]
        .into();
        assert_eq!(counts_match(&a, &a), Ok(()));
        let err = counts_match(&a, &b).unwrap_err();
        assert!(err.contains("y: 2 vs 3") && !err.contains('z'), "{err}");
    }
}
