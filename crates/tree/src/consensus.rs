//! Split frequencies over a tree sample.
//!
//! A bootstrap analysis summarizes its replicate trees by how often
//! each split appears among them; `phylo_search::bootstrap` reads the
//! supports of the best tree's splits off this table.

use std::collections::BTreeMap;

/// Counts split frequencies across a sample of trees (all over the
/// same taxa).
pub fn split_frequencies(trees: &[crate::Tree]) -> BTreeMap<Vec<String>, f64> {
    let mut counts: BTreeMap<Vec<String>, usize> = BTreeMap::new();
    for t in trees {
        for s in t.splits() {
            *counts.entry(s).or_insert(0) += 1;
        }
    }
    let n = trees.len().max(1) as f64;
    counts.into_iter().map(|(k, v)| (k, v as f64 / n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::newick;

    fn t(s: &str) -> crate::Tree {
        newick::parse(s).unwrap()
    }

    #[test]
    fn split_frequencies_are_fractions_of_the_sample() {
        // ab|cde twice, ac|bde once.
        let trees = vec![
            t("((a:1,b:1):1,c:1,(d:1,e:1):1);"),
            t("((a:1,b:1):1,d:1,(c:1,e:1):1);"),
            t("((a:1,c:1):1,b:1,(d:1,e:1):1);"),
        ];
        let freqs = split_frequencies(&trees);
        let freq = |names: &[&str]| {
            let split: Vec<String> = names.iter().map(|x| x.to_string()).collect();
            freqs.get(&split).copied().unwrap_or(0.0)
        };
        let third = 1.0 / 3.0;
        // The de|abc split canonicalizes to its lexicographically
        // smaller side, ["a","b","c"]; ce|abd to ["a","b","d"].
        for (split, expected) in [
            (&["a", "b"][..], 2.0 * third),
            (&["a", "b", "c"], 2.0 * third),
            (&["a", "c"], third),
            (&["a", "b", "d"], third),
        ] {
            let f = freq(split);
            assert!((f - expected).abs() < 1e-12, "{split:?}: {f} in {freqs:?}");
        }
        assert_eq!(freqs.len(), 4, "{freqs:?}");
    }
}
