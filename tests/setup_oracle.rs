//! The four `plf_e2e` workloads' inputs through both set-up paths: the
//! byte-level PHYLIP reader and the packed-key compression against
//! `phylo_bio::naive`, at the benchmark's two seeds.
//!
//! `plf_e2e` lives outside the workspace, so its input recipe is
//! restated here: [`benchmark_phylip`] mirrors `inputs::generate` with
//! its helpers `name_hash`, `set_lengths` and `shuffle_columns`
//! (`plf_e2e/src/inputs.rs`), and [`WORKLOADS`] and the GTR+Γ
//! parameters mirror `WORKLOADS`, `SIM_RATES`, `SIM_FREQS` and
//! `SIM_ALPHA` (`plf_e2e/src/spec.rs`). An edit there must be made here
//! too. What ties the copy to its source is [`TEXT_FNV`], the FNV-1a
//! hash of every generated text, taken from `inputs::generate` itself,
//! and the pinned pattern counts, the `bio.patterns` the benchmark
//! reports.

use phylomic::bio::{naive, phylip, Alignment, CompressedAlignment, Sequence};
use phylomic::models::{DiscreteGamma, Gtr, GtrParams};
use phylomic::seqgen::simulate_alignment;
use phylomic::tree::build::{default_names, random_tree};
use phylomic::tree::Tree;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// `(name, taxa, sites, mean branch, starts from a random topology)`.
const WORKLOADS: [(&str, usize, usize, f64, bool); 4] = [
    ("wide15", 15, 6000, 0.15, false),
    ("narrow64", 64, 400, 0.15, true),
    ("modelopt15", 15, 12000, 0.15, false),
    ("lowdiv32", 32, 40000, 0.002, true),
];

/// `bio.patterns` of each workload at seeds 7 and 20140314.
const PATTERNS: [(&str, [usize; 2]); 4] = [
    ("wide15", [3727, 3716]),
    ("narrow64", [390, 390]),
    ("modelopt15", [7294, 7307]),
    ("lowdiv32", [1120, 1120]),
];

/// FNV-1a of each workload's PHYLIP text at seeds 7 and 20140314, as
/// `plf_e2e`'s `inputs::generate` writes it.
const TEXT_FNV: [(&str, [u64; 2]); 4] = [
    ("wide15", [0xa431_8efa_37d3_5f16, 0x65a8_6072_0416_5a3c]),
    ("narrow64", [0x83b8_3b78_4d37_69b3, 0xf3c1_0322_9303_b961]),
    ("modelopt15", [0x900d_10eb_64bc_37ec, 0x2099_9bc1_43fa_90bb]),
    ("lowdiv32", [0xc31e_3f17_be02_a017, 0x4f46_4eef_60f6_187d]),
];

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn name_hash(name: &str) -> u64 {
    fnv(name.as_bytes())
}

fn set_lengths(tree: &mut Tree, mean: f64, rng: &mut SmallRng) {
    for e in 0..tree.num_edges() {
        let u: f64 = rng.random();
        tree.set_length(e, mean * (0.5 + u)).unwrap();
    }
}

/// The PHYLIP text `plf_e2e` generates for a workload and seed.
fn benchmark_phylip(
    (name, taxa, sites, mean_branch, random_start): (&str, usize, usize, f64, bool),
    seed: u64,
) -> String {
    let names = default_names(taxa);
    let h = name_hash(name);
    let mut shape_rng = SmallRng::seed_from_u64(h);
    let mut truth = random_tree(&names, mean_branch, &mut shape_rng).unwrap();
    set_lengths(&mut truth, mean_branch, &mut shape_rng);
    // The start tree draws from the same stream before the alignment.
    let mut start = if random_start {
        random_tree(&names, 0.1, &mut shape_rng).unwrap()
    } else {
        truth.clone()
    };
    set_lengths(&mut start, 0.1, &mut shape_rng);
    let gtr = Gtr::new(GtrParams {
        rates: [1.1, 2.6, 0.8, 1.2, 3.4, 1.0],
        freqs: [0.29, 0.21, 0.22, 0.28],
    });
    let gamma = DiscreteGamma::new(0.85);
    let mut seed_rng = SmallRng::seed_from_u64(seed ^ h.rotate_left(32));
    let aln = if random_start {
        let fixed = simulate_alignment(&truth, gtr.eigen(), &gamma, sites, &mut shape_rng);
        let mut order: Vec<usize> = (0..sites).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, seed_rng.random_range(0..=i));
        }
        let rows = fixed
            .sequences()
            .iter()
            .map(|s| Sequence::new(s.name(), order.iter().map(|&c| s.get(c)).collect()))
            .collect();
        Alignment::new(rows).unwrap()
    } else {
        simulate_alignment(&truth, gtr.eigen(), &gamma, sites, &mut seed_rng)
    };
    phylip::to_string(&aln)
}

#[test]
fn benchmark_inputs_set_up_as_naive_sets_them_up() {
    for ((workload, (name, want)), (text_name, text_fnv)) in
        WORKLOADS.into_iter().zip(PATTERNS).zip(TEXT_FNV)
    {
        assert_eq!((workload.0, workload.0), (name, text_name));
        for ((seed, want), text_fnv) in [7, 20140314].into_iter().zip(want).zip(text_fnv) {
            let text = benchmark_phylip(workload, seed);
            assert_eq!(
                fnv(text.as_bytes()),
                text_fnv,
                "{name} {seed}: the text differs from plf_e2e's"
            );
            let aln = phylip::parse_str(&text).unwrap();
            assert_eq!(
                aln,
                naive::phylip::parse_str(&text).unwrap(),
                "{name} {seed}"
            );
            let compressed = CompressedAlignment::from_alignment(&aln);
            assert_eq!(compressed, naive::compress(&aln), "{name} {seed}");
            assert_eq!(
                compressed.num_patterns(),
                want,
                "{name} {seed}: bio.patterns"
            );
        }
    }
}
