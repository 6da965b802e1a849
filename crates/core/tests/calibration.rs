//! Host-calibration integration test.
//!
//! `cost::set_calibration` installs a process-global `OnceLock`
//! (first caller wins), so these assertions live in their own test
//! binary: the plf-core unit tests all run *uncalibrated* and pin the
//! fallback block size, while this binary pins the calibrated path —
//! the derived block size and the end-to-end engine behavior.

use phylo_bio::{CompressedAlignment, DnaCode};
use phylo_tree::newick;
use plf_core::blocking::block_sites;
use plf_core::cost::{self, ProfitCalibration};
use plf_core::{Blocking, EngineConfig, KernelKind, LikelihoodEngine};

/// A five-taxon alignment of `protos` prototype columns cycled over
/// `width` sites, built through `from_parts` (no pattern dedup) so the
/// engine really covers `width` patterns.
fn cycled_columns(protos: usize, width: usize) -> CompressedAlignment {
    let names: Vec<String> = ["a", "b", "c", "d", "e"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let rows: Vec<Vec<DnaCode>> = (0..5)
        .map(|taxon| {
            (0..width)
                .map(|site| DnaCode::from_state((site % protos + taxon * (site % protos)) % 4))
                .collect()
        })
        .collect();
    CompressedAlignment::from_parts(names, rows, vec![1; width]).unwrap()
}

#[test]
fn calibration_drives_block_size() {
    // --- Uncalibrated fallbacks -------------------------------------
    assert!(cost::calibration().is_none());
    // 1 MiB assumed cache / (128 B * 4 working columns) = 2048 sites.
    assert_eq!(block_sites(), 2048);

    // --- Install a synthetic host probe -----------------------------
    // 512 KiB per-core cache; kernel streaming twice the copy speed.
    let cal = ProfitCalibration {
        kernel_mbps: 20_000,
        copy_mbps: 10_000,
        cache_bytes: 512 << 10,
    };
    assert!(cost::set_calibration(cal), "first installation succeeds");
    assert!(
        !cost::set_calibration(ProfitCalibration {
            kernel_mbps: 1,
            copy_mbps: 1,
            cache_bytes: 1,
        }),
        "calibration is first-caller-wins"
    );
    assert_eq!(cost::calibration(), Some(&cal));

    // --- Derived block size -----------------------------------------
    // 512 KiB / (128 B * 4 columns) = 1024 sites, already a SITE_BLOCK
    // multiple.
    assert_eq!(block_sites(), 1024);
    assert_eq!(Blocking::On.resolve(10), Some(1024));
    assert_eq!(Blocking::Auto.resolve(1024), None, "fits in one block");
    assert_eq!(Blocking::Auto.resolve(1025), Some(1024));
    assert_eq!(Blocking::Off.resolve(usize::MAX), None);

    // --- End-to-end -------------------------------------------------
    // An Auto engine must bit-match Off on the blocked traversal.
    let tree = newick::parse("((a:0.1,b:0.12):0.1,c:0.15,(d:0.1,e:0.11):0.13);").unwrap();
    let aln = cycled_columns(4, 1100); // > one 1024-site block
    let mk = |blocking| {
        LikelihoodEngine::new(
            &tree,
            &aln,
            EngineConfig {
                kernel: KernelKind::Scalar,
                blocking,
                ..EngineConfig::default()
            },
        )
    };
    let mut base = mk(Blocking::Off);
    let mut auto = mk(Blocking::Auto);
    for edge in [0usize, 3] {
        let a = base.log_likelihood(&tree, edge);
        let b = auto.log_likelihood(&tree, edge);
        assert_eq!(a.to_bits(), b.to_bits(), "auto edge {edge}: {a} vs {b}");
    }
    assert_eq!(
        auto.blocking(),
        Blocking::On,
        "1100 sites > one 1024-site block"
    );
}
