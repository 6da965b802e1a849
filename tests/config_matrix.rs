//! The configuration matrix: every engine cell answers to one oracle.
//! A cell is a backend {scalar, simd} × blocking {off, on, auto} × a
//! scheme: serial, fork-join with W ∈ {0, 1, 2} workers, or replicated
//! over the threads transport with R ∈ {1, 2, 3} ranks — 42 cells. On
//! trees within `naive`'s 10 inner nodes every cell answers to
//! `naive::log_likelihood`, larger rows to their backend's serial `off`
//! cell. (The vector width is no axis: an engine runs the host's widest
//! body, and the kernel tests hold the widths to each other.)

use phylomic::bio::{Alignment, CompressedAlignment, Sequence};
use phylomic::models::DiscreteGamma;
use phylomic::parallel::forkjoin::split_ranges;
use phylomic::parallel::{run_replicated, ForkJoinEvaluator};
use phylomic::plf::blocking::block_sites;
use phylomic::plf::{naive, Blocking, EngineConfig, KernelId, KernelKind, LikelihoodEngine};
use phylomic::search::{Evaluator, MlSearch, SearchConfig};
use phylomic::tree::build::{caterpillar, default_names, random_tree};
use phylomic::tree::moves::{spr, spr_undo};
use phylomic::tree::traverse::edges_within;
use phylomic::tree::tree::{BL_MAX, BL_MIN};
use phylomic::tree::{newick, EdgeId, Tree};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const BACKENDS: [KernelKind; 2] = [KernelKind::Scalar, KernelKind::Simd];
/// `None` is the serial engine, `Some(w)` fork-join with `w` workers.
const SCHEMES: [Option<usize>; 4] = [None, Some(0), Some(1), Some(2)];

/// Agreement of (logL, d1, d2) across schemes and backends: slices and
/// FMA contraction move the last bits; at `BL_MIN` the derivatives are
/// differences of ≈ 1e8-sized terms and agree to ≈ 1e-8 relative.
fn close(x: [f64; 3], y: [f64; 3]) -> bool {
    let near = |a: f64, b: f64, rel: f64| (a - b).abs() <= rel * a.abs().max(b.abs()).max(1e-4);
    near(x[0], y[0], 1e-12) && near(x[1], y[1], 1e-6) && near(x[2], y[2], 1e-6)
}

fn config(kernel: KernelKind, blocking: Blocking, alpha: f64) -> EngineConfig {
    EngineConfig {
        kernel,
        alpha,
        blocking,
        ..EngineConfig::default()
    }
}

struct Row {
    name: String,
    tree: Tree,
    aln: CompressedAlignment,
    alpha: f64,
    roots: Vec<EdgeId>,
    /// Relative tolerance against `naive`; `None`: too large for it.
    naive_rel: Option<f64>,
}

/// A row evaluated at every root edge.
fn row(name: String, tree: Tree, aln: CompressedAlignment, alpha: f64, rel: Option<f64>) -> Row {
    let roots = tree.edge_ids().collect();
    Row {
        name,
        tree,
        aln,
        alpha,
        roots,
        naive_rel: rel,
    }
}

#[derive(Clone, Copy)]
struct Cell(KernelKind, Blocking, Option<usize>);

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.2 {
            None => write!(f, "{}/{}/serial", self.0, self.1),
            Some(w) => write!(f, "{}/{}/forkjoin W={w}", self.0, self.1),
        }
    }
}

/// A cell's evaluator and the engines whose scale arrays it holds: the
/// serial engine itself, or, beside a fork-join evaluator, engines over
/// its slices (`forkjoin_is_its_slices` holds it to them bit for bit).
struct Team(Option<ForkJoinEvaluator>, Vec<LikelihoodEngine>);

impl Team {
    fn new(Cell(kernel, blocking, workers): Cell, row: &Row, tree: &Tree) -> Team {
        let cfg = config(kernel, blocking, row.alpha);
        let slices = split_ranges(row.aln.num_patterns(), workers.map_or(1, |w| w + 1));
        let slices = slices
            .into_iter()
            .map(|r| LikelihoodEngine::with_range(tree, &row.aln, cfg, r));
        let fj = workers.map(|w| ForkJoinEvaluator::new(tree, &row.aln, cfg, w));
        Team(fj, slices.collect())
    }

    fn evaluator(&mut self) -> &mut dyn Evaluator {
        match &mut self.0 {
            Some(fj) => fj,
            None => &mut self.1[0],
        }
    }

    fn log_likelihood(&mut self, tree: &Tree, root: EdgeId) -> f64 {
        for e in &mut self.1 {
            e.log_likelihood(tree, root);
        }
        self.evaluator().log_likelihood(tree, root)
    }

    fn scales(&self) -> Vec<u32> {
        let inner = self
            .1
            .iter()
            .flat_map(|e| (0..e.num_inner()).map(move |i| e.cla_scale(i)));
        inner.flat_map(Option::unwrap).copied().collect()
    }
}

/// One cell's answers: per root the bits of (logL, d1, d2) and the scale
/// arrays; the `newview` calls of the whole run.
struct Run(Vec<([u64; 3], Vec<u32>)>, u64);

impl Run {
    fn values(&self, i: usize) -> [f64; 3] {
        self.0[i].0.map(f64::from_bits)
    }
}

/// Drives one cell through the row's roots, then through an SPR apply
/// and its undo, which re-wire nodes and renumber edges: after each the
/// cell must answer what a fresh one does.
fn run(cell: Cell, row: &Row) -> Run {
    let what = format!("{} {cell}", row.name);
    let mut team = Team::new(cell, row, &row.tree);
    let mut per_root = vec![];
    for &root in &row.roots {
        let ll = team.log_likelihood(&row.tree, root);
        team.evaluator().prepare_branch(&row.tree, root);
        let (d1, d2) = team.evaluator().branch_derivatives(row.tree.length(root));
        let finite = d1.is_finite() && d2.is_finite();
        assert!(finite, "{what} root {root}: {d1}, {d2}");
        per_root.push(([ll, d1, d2].map(f64::to_bits), team.scales()));
    }
    let mut moved = row.tree.clone();
    let (prune, undo) = (moved.edge_ids())
        .find_map(|prune| {
            let (a, b) = moved.endpoints(prune);
            let targets = edges_within(&moved, prune, 3);
            let mut moves = [a, b]
                .into_iter()
                .flat_map(|s| targets.iter().map(move |&t| (s, t)));
            moves
                .find_map(|(s, t)| spr(&mut moved, prune, s, t).ok())
                .map(|u| (prune, u))
        })
        .expect("an applicable SPR move");
    let got = team.log_likelihood(&moved, prune);
    let fresh = Team::new(cell, row, &moved).log_likelihood(&moved, prune);
    let same = got.to_bits() == fresh.to_bits();
    assert!(same, "{what}: after an SPR, {got} vs {fresh}");
    spr_undo(&mut moved, undo).unwrap();
    let got = team.log_likelihood(&moved, row.roots[0]);
    let same = got.to_bits() == per_root[0].0[0];
    assert!(same, "{what}: after the SPR's undo, {got}");
    let newviews = match &mut team.0 {
        Some(fj) => fj.take_stats().get(KernelId::Newview).calls,
        None => team.1[0].stats().get(KernelId::Newview).calls,
    };
    Run(per_root, newviews)
}

/// `naive::log_likelihood` under the model an engine derives from `aln`.
fn brute_force(tree: &Tree, aln: &CompressedAlignment, alpha: f64) -> f64 {
    let e = LikelihoodEngine::new(tree, aln, config(KernelKind::Simd, Blocking::Auto, alpha));
    let tip = |t| {
        aln.row(aln.taxon_index(tree.tip_name(t)).unwrap())
            .iter()
            .map(|c| c.bits())
    };
    let tips: Vec<Vec<u8>> = (0..tree.num_taxa()).map(|t| tip(t).collect()).collect();
    naive::log_likelihood(tree, e.eigen(), e.gamma_rates(), &tips, aln.weights())
}

/// Runs every evaluator cell of `row` and checks each against `naive`,
/// against its backend's serial `off` cell (a serial cell against the
/// first backend's too) and — bit for bit, `newview` counts and scale
/// arrays included — against the `off` cell of its backend × scheme.
fn matrix(row: &Row) -> Vec<(Cell, Run)> {
    let oracle = row
        .naive_rel
        .map(|rel| (brute_force(&row.tree, &row.aln, row.alpha), rel));
    let mut out: Vec<(Cell, Run)> = vec![];
    for (kernel, workers) in BACKENDS.into_iter().flat_map(|k| SCHEMES.map(|w| (k, w))) {
        let runs =
            Blocking::ALL.map(|b| (Cell(kernel, b, workers), run(Cell(kernel, b, workers), row)));
        let off = &runs[0].1;
        let is_base = |c: &Cell| {
            c.1 == Blocking::Off && c.2.is_none() && (c.0 == kernel || workers.is_none())
        };
        for (cell, run) in &runs {
            let name = &row.name;
            assert_eq!(run.1, off.1, "{name} {cell}: newview calls vs blocking off");
            for (i, root) in row.roots.iter().enumerate() {
                let at = format!("{name} {cell} root {root}");
                let (x, y) = (off.values(i), run.values(i));
                assert_eq!(off.0[i].0, run.0[i].0, "{at}: {y:?} vs blocking off {x:?}");
                assert!(off.0[i].1 == run.0[i].1, "{at}: scales vs blocking off");
                for (base, r) in out.iter().filter(|(c, _)| is_base(c)) {
                    let x = r.values(i);
                    assert!(close(x, y), "{at}: (logL, d1, d2) {y:?} vs {base} {x:?}");
                }
                if let Some((naive, rel)) = oracle {
                    let ok = (y[0] - naive).abs() <= rel * naive.abs();
                    assert!(ok, "{at}: logL {} vs naive {naive}", y[0]);
                }
            }
        }
        out.extend(runs);
    }
    out
}

/// `patterns` distinct random columns (some ambiguous, some gaps), each
/// repeated 1–3 times, shuffled `shuffles` times.
fn columns(names: &[String], patterns: usize, rng: &mut SmallRng, shuffles: usize) -> Alignment {
    const CODES: &[u8] = b"ACGTACGTRY-";
    let (mut seen, mut columns) = (std::collections::HashSet::new(), vec![]);
    while seen.len() < patterns {
        let mut code = || CODES[rng.random_range(0..CODES.len())];
        let col = Vec::from_iter(names.iter().map(|_| code()));
        if seen.insert(col.clone()) {
            columns.extend(std::iter::repeat_n(col, rng.random_range(1..=3)));
        }
    }
    let n = columns.len();
    for i in (0..shuffles).flat_map(|_| (1..n).rev()) {
        columns.swap(i, rng.random_range(0..=i));
    }
    let row = |t: usize| String::from_iter(columns.iter().map(|c| c[t] as char));
    let seq = |t: usize| Sequence::from_str_named(&names[t], &row(t)).unwrap();
    Alignment::new((0..names.len()).map(seq).collect()).unwrap()
}

/// A random row and its metamorphic relatives: `Renamed` renames every
/// taxon in tree and alignment alike, `RowsPermuted` reverses the
/// alignment's rows (names kept), `ColumnsPermuted` reorders raw columns.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Variant {
    Plain,
    RowsPermuted,
    Renamed,
    ColumnsPermuted,
}

use Variant::{ColumnsPermuted, Plain, Renamed, RowsPermuted};

fn random_row(taxa: usize, patterns: usize, seed: u64, variant: Variant) -> Row {
    let mut rng = SmallRng::seed_from_u64(seed);
    let names: Vec<String> = match variant {
        Renamed => (0..taxa).map(|i| format!("s{}", taxa - 1 - i)).collect(),
        _ => default_names(taxa),
    };
    let tree = random_tree(&names, 0.2, &mut rng).unwrap();
    let shuffles = 1 + (variant == ColumnsPermuted) as usize;
    let aln = columns(&names, patterns, &mut rng, shuffles);
    let mut seqs = aln.sequences().to_vec();
    if variant == RowsPermuted {
        seqs.reverse();
    }
    let aln = CompressedAlignment::from_alignment(&Alignment::new(seqs).unwrap());
    assert_eq!(aln.num_patterns(), patterns);
    let name = format!("{taxa} taxa x {patterns} patterns {variant:?}");
    row(name, tree, aln, 0.7, Some(1e-12))
}

#[test]
fn random_rows_and_their_metamorphs_in_every_cell() {
    // Pattern counts: one site, either side of the kernels' 8-site step,
    // and one block + 9, so that `auto` blocks.
    let rows = [
        (5, 1, 6),
        (6, 7, 1),
        (7, 9, 2),
        (8, 16, 3),
        (5, block_sites() + 9, 4),
    ];
    for (taxa, patterns, seed) in rows {
        let plain = random_row(taxa, patterns, seed, Plain);
        let auto = LikelihoodEngine::new(&plain.tree, &plain.aln, EngineConfig::default());
        let blocks = auto.blocking() == Blocking::On;
        assert_eq!(blocks, patterns > block_sites(), "{}", plain.name);
        let base = matrix(&plain);
        for variant in [RowsPermuted, Renamed, ColumnsPermuted] {
            let row = random_row(taxa, patterns, seed, variant);
            for ((cell, a), (_, b)) in base.iter().zip(&matrix(&row)) {
                for (i, root) in row.roots.iter().enumerate() {
                    let (x, y) = (a.values(i), b.values(i));
                    let what = format!("{} {cell} root {root}: {y:?} vs {x:?}", row.name);
                    // Compression keeps first-seen order, so the weighted
                    // sums run in another order and fork-join slices hold
                    // other patterns.
                    match variant {
                        ColumnsPermuted => assert!(close(x, y), "{what}"),
                        _ => assert_eq!(a.0[i].0, b.0[i].0, "{what}"),
                    }
                }
            }
        }
    }
}

#[test]
fn backends_agree_at_every_root_edge() {
    // The same rows as above, unpermuted: one of them blocks under `auto`.
    let rows = [
        (5, 1, 6),
        (6, 7, 1),
        (7, 9, 2),
        (8, 16, 3),
        (5, block_sites() + 9, 4),
    ];
    for (taxa, patterns, seed) in rows {
        let row = random_row(taxa, patterns, seed, Plain);
        for (blocking, workers) in Blocking::ALL
            .into_iter()
            .flat_map(|b| SCHEMES.map(|w| (b, w)))
        {
            let scalar = run(Cell(KernelKind::Scalar, blocking, workers), &row);
            let simd = Cell(KernelKind::Simd, blocking, workers);
            let got = run(simd, &row);
            for (i, root) in row.roots.iter().enumerate() {
                let (x, y) = (scalar.values(i)[0], got.values(i)[0]);
                let what = format!("{} {simd} root {root}", row.name);
                assert!((x - y).abs() <= 1e-10, "{what}: logL {y} vs scalar {x}");
            }
        }
    }
}

#[test]
fn forkjoin_matches_serial_blocked_or_not() {
    // 97 patterns: no team of 2, 3 or 4 divides them, so the slices
    // have uneven widths. A team of 4 (W = 3) is past `SCHEMES`.
    let row = random_row(9, 97, 19, Plain);
    for kernel in BACKENDS {
        let serial = run(Cell(kernel, Blocking::Off, None), &row);
        for workers in 1..=3 {
            let [off, on] =
                [Blocking::Off, Blocking::On].map(|b| run(Cell(kernel, b, Some(workers)), &row));
            for (i, root) in row.roots.iter().enumerate() {
                let at = format!("{} {kernel} team of {} root {root}", row.name, workers + 1);
                // Blocking splits each slice's walk into site-blocks;
                // (logL, d1, d2) must not move a bit.
                let (x, y) = (off.values(i), on.values(i));
                assert_eq!(
                    off.0[i].0, on.0[i].0,
                    "{at}: blocked {y:?} vs unblocked {x:?}"
                );
                let s = serial.values(i);
                assert!(close(s, x), "{at}: (logL, d1, d2) {x:?} vs serial {s:?}");
            }
        }
    }
}

#[test]
fn forced_scaling_caterpillar_in_every_cell() {
    // Conditional likelihoods decay roughly 4× per caterpillar level;
    // 2⁻²⁵⁶ needs ~130 levels.
    let names = default_names(170);
    let tree = caterpillar(&names, 2.0).unwrap();
    let aln = columns(&names, 40, &mut SmallRng::seed_from_u64(13), 1);
    let aln = CompressedAlignment::from_alignment(&aln);
    let mut row = row("caterpillar of 170".into(), tree, aln, 0.5, None);
    let last = row.tree.num_edges() - 1;
    row.roots = vec![0, last / 2, last];
    let runs = matrix(&row);
    let scaled = runs[0].1 .0[0].1.iter().any(|&s| s > 0);
    assert!(scaled, "no site was rescaled");
}

#[test]
fn extreme_lengths_and_alpha_in_every_cell() {
    // Column 6 is all gaps and taxon `f` carries no information at all.
    let rows = [
        ("a", "ACGTA-CGTRYAC"),
        ("b", "ACGTT-CGAAYAC"),
        ("c", "ACGAA-CGTCMAA"),
        ("d", "TCGTA-CGTGKTC"),
        ("e", "ACGTA-CTTTSAC"),
        ("f", "NNNN?-NNN-NNN"),
    ];
    let seqs = rows.map(|(n, s)| Sequence::from_str_named(n, s).unwrap());
    let aln = CompressedAlignment::from_alignment(&Alignment::new(seqs.to_vec()).unwrap());
    // (every branch length, α, tolerance against `naive`). At `BL_MIN`
    // an off-diagonal of P is ≈ 1e-8, left over from O(1) eigen terms
    // cancelling, so π_i P_ij = π_j P_ji holds only to ≈ 1e-8 of it:
    // logL moves with the root edge, and the oracle roots at a node.
    let corners = [
        (BL_MIN, DiscreteGamma::MIN_ALPHA, 4e-10),
        (BL_MIN, DiscreteGamma::MAX_ALPHA, 4e-10),
        (BL_MAX, DiscreteGamma::MIN_ALPHA, 1e-12),
        (BL_MAX, DiscreteGamma::MAX_ALPHA, 1e-12),
    ];
    for (t, alpha, rel) in corners {
        let mut tree = newick::parse("((a:1,b:1):1,(c:1,d:1):1,(e:1,f:1):1);").unwrap();
        for e in 0..tree.num_edges() {
            tree.set_length(e, t).unwrap();
        }
        let name = format!("t={t} alpha={alpha}");
        matrix(&row(name, tree, aln.clone(), alpha, Some(rel)));
    }
}

#[test]
fn replicated_cells_find_the_serial_tree() {
    let row = random_row(6, 150, 5, Plain);
    let start = random_tree(row.tree.tip_names(), 0.1, &mut SmallRng::seed_from_u64(8)).unwrap();
    let search = SearchConfig {
        max_rounds: 1,
        optimize_model: false,
        ..SearchConfig::default()
    };
    let (search, mut first) = (MlSearch::new(search), None);
    for kernel in BACKENDS {
        let mut off = None;
        for blocking in Blocking::ALL {
            let (cfg, mut serial) = (config(kernel, blocking, row.alpha), start.clone());
            let mut engine = LikelihoodEngine::new(&start, &row.aln, cfg);
            let ll = search.run(&mut engine, &mut serial).log_likelihood;
            // Blocking never moves a bit: one backend's serial cells end
            // on one tree, lengths and all; the backends on one topology.
            let name = format!("{kernel}/{blocking}/serial");
            let now = (ll.to_bits(), newick::to_newick(&serial));
            let off = off.get_or_insert_with(|| now.clone());
            assert!(*off == now, "{name}: {now:?} vs blocking off {off:?}");
            let (base, base_ll, base_tree) =
                first.get_or_insert_with(|| (name.clone(), ll, serial.clone()));
            let same = serial.rf_distance(base_tree) == 0 && (ll - *base_ll).abs() <= 1e-6;
            assert!(same, "{name}: {ll} vs {base} {base_ll} or topology");
            for ranks in 1..=3 {
                let cell = format!("{kernel}/{blocking}/replicated R={ranks}");
                let result = run_replicated(&start, &row.aln, cfg, search, ranks).result;
                let tree = newick::parse(&result.newick).unwrap();
                let rf = tree.rf_distance(&serial);
                assert_eq!(rf, 0, "{cell}: not the serial cell's tree");
                let (got, naive) = (
                    result.log_likelihood,
                    brute_force(&tree, &row.aln, row.alpha),
                );
                let ok = (got - ll).abs() <= 1e-6;
                assert!(ok, "{cell}: logL {got} vs serial {ll}");
                let ok = (got - naive).abs() <= 1e-12 * naive.abs();
                assert!(ok, "{cell}: logL {got} vs naive {naive} on its tree");
            }
        }
    }
}
