//! The paper's §VII extensions in action: protein (20-state) data and
//! the CAT model of rate heterogeneity.
//!
//! Run: `cargo run --release --example protein_and_cat`

use phylomic::bio::aa::{parse_aa_sequence, NUM_AA_STATES};
use phylomic::models::{protein_poisson, CatRates, DiscreteGamma, Gtr, GtrParams};
use phylomic::plf::cat::CatEngine;
use phylomic::plf::nstate::NStateEngine;
use phylomic::tree::newick;

fn main() {
    protein_demo();
    println!();
    cat_demo();
}

fn protein_demo() {
    println!("=== Protein likelihood (Poisson+F, 20 states, Gamma rates) ===");
    let tree =
        newick::parse("((human:0.06,mouse:0.11):0.03,chicken:0.18,(frog:0.22,fish:0.31):0.05);")
            .unwrap();

    let seqs = [
        ("human", "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ"),
        ("mouse", "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ"),
        ("chicken", "MKTAYLAKQRQISFVKAHFSRQLEERLGMIEVQ"),
        ("frog", "MRTAYLAKQKQISFVKAHFSRQIEDRLGMIEVX"),
        ("fish", "MRSAYLSKQKQVSFVKAHFARQIEDRLNMIEVX"),
    ];

    // Encode tip masks in tree tip-id order.
    let tips: Vec<Vec<u32>> = (0..tree.num_taxa())
        .map(|t| {
            let name = tree.tip_name(t);
            let (_, s) = seqs.iter().find(|(n, _)| *n == name).unwrap();
            parse_aa_sequence(s)
                .unwrap()
                .iter()
                .map(|c| c.bits())
                .collect()
        })
        .collect();
    let patterns = tips[0].len();

    // Empirical residue frequencies with pseudocounts.
    let mut counts = [1.0f64; NUM_AA_STATES];
    for row in &tips {
        for &mask in row {
            if mask.count_ones() == 1 {
                counts[mask.trailing_zeros() as usize] += 1.0;
            }
        }
    }
    let total: f64 = counts.iter().sum();
    let freqs = counts.map(|c| c / total);

    let eigen = protein_poisson(&freqs).expect("valid protein model");
    let mut engine = NStateEngine::new(
        &tree,
        eigen,
        DiscreteGamma::new(0.6),
        tips,
        vec![1; patterns],
    );
    let ll = engine.log_likelihood(&tree, 0);
    println!("{} residues, log-likelihood: {ll:.4}", patterns);

    // Newton-Raphson on one branch via the N-state derivative kernels.
    let edge = 0;
    let mut tree = tree;
    engine.prepare_branch(&tree, edge);
    let mut t = tree.length(edge);
    for _ in 0..20 {
        let (d1, d2) = engine.branch_derivatives(t);
        if d1.abs() < 1e-9 || d2 >= 0.0 {
            break;
        }
        t = (t - d1 / d2).clamp(1e-8, 10.0);
    }
    tree.set_length(edge, t).unwrap();
    println!(
        "optimized human pendant branch: {t:.5}, log-likelihood {:.4}",
        engine.log_likelihood(&tree, 0)
    );
}

fn cat_demo() {
    println!("=== CAT rate heterogeneity (per-site rates, 4-double stride) ===");
    let tree = newick::parse("((a:0.15,b:0.25):0.1,c:0.2,(d:0.1,e:0.3):0.15);").unwrap();
    let gtr = Gtr::new(GtrParams {
        rates: [1.2, 2.8, 0.7, 1.1, 3.3, 1.0],
        freqs: [0.28, 0.22, 0.23, 0.27],
    });

    // Tip data: 12 patterns; first half conserved, second half noisy.
    let enc = |s: &str| -> Vec<u8> {
        s.chars()
            .map(|c| phylomic::bio::DnaCode::from_char(c).unwrap().bits())
            .collect()
    };
    let tips = vec![
        enc("AAAAAACGTGCA"),
        enc("AAAAAATGAGCC"),
        enc("AAAAAACCTACA"),
        enc("AAAAAAAGAGTC"),
        enc("AAAAAACGGACA"),
    ];
    let weights = vec![1u32; 12];

    // Two CAT categories: slow for the conserved half, fast after.
    let mut cats = CatRates::new(
        vec![0.15, 2.4],
        (0..12).map(|i| if i < 6 { 0 } else { 1 }).collect(),
    );
    cats.normalize(&weights);
    println!("normalized category rates: {:?}", cats.rates());

    let mut engine = CatEngine::new(
        &tree,
        gtr.eigen().clone(),
        cats,
        tips.clone(),
        weights.clone(),
    );
    let ll_cat = engine.log_likelihood(&tree, 0);
    println!("CAT log-likelihood:          {ll_cat:.4}");

    // Compare against the Gamma engine on the same data.
    let ca = phylomic::bio::CompressedAlignment::from_parts(
        vec!["a".into(), "b".into(), "c".into(), "d".into(), "e".into()],
        tips.iter()
            .map(|row| {
                row.iter()
                    .map(|&b| phylomic::bio::DnaCode::from_bits(b).unwrap())
                    .collect()
            })
            .collect(),
        weights,
    )
    .unwrap();
    let mut gamma_engine = phylomic::plf::LikelihoodEngine::new(
        &tree,
        &ca,
        phylomic::plf::EngineConfig {
            alpha: 0.5,
            ..phylomic::plf::EngineConfig::default()
        },
    );
    gamma_engine.set_model(*gtr.params());
    let ll_gamma = gamma_engine.log_likelihood(&tree, 0);
    println!("Gamma(0.5) log-likelihood:   {ll_gamma:.4}");
    println!(
        "(CAT fits this conserved/noisy split better: {} by {:.2} log units)",
        if ll_cat > ll_gamma { "yes" } else { "no" },
        (ll_cat - ll_gamma).abs()
    );
}
