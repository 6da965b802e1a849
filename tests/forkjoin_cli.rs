//! `phylomic search --scheme forkjoin --threads N` on the four
//! benchmark workloads (`BENCHMARK.json`, inputs of seed 7).
//!
//! `--threads N` is N threads that compute: the master owns pattern
//! slice 0 and N − 1 workers the rest. The slices and the order their
//! partial sums are folded in are those of N workers under a master
//! that only waited — the commit before the master computed — so every
//! `N ≥ 2` must print what that commit printed, byte for byte
//! (`tests/data/forkjoin_parent_seed7.txt`, recorded from its binary),
//! and `N = 1` is the serial engine behind the region protocol: what
//! `--scheme serial` prints. One tree of the record, `modelopt15 3`,
//! was re-recorded when `evaluate` took its `ln` from `plf-core`
//! instead of libm: model optimisation reads logL bits, and its 27
//! branch lengths moved by at most 9e-13 relative (same topology, same
//! logL line; every other run kept its bytes).

mod common;

use common::TestDir;
use phylomic::bio::{phylip, Alignment, Sequence};
use phylomic::models::{DiscreteGamma, Gtr, GtrParams};
use phylomic::tree::build::{default_names, random_tree};
use phylomic::tree::{newick, Tree};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::process::Command;

/// What the parent commit's `phylomic search --scheme forkjoin
/// --threads {2,3,4}` printed on these inputs with the default (`simd`)
/// backend: per run a `== <workload> <threads>` line, the result line
/// up to its wall time, and the tree.
const PARENT_OUTPUT: &str = include_str!("data/forkjoin_parent_seed7.txt");

const SEED: u64 = 7;

/// One row of `plf_e2e/src/spec.rs`'s workload table.
struct Workload {
    name: &'static str,
    taxa: usize,
    sites: usize,
    mean_branch: f64,
    /// Start from a random topology (else from the generating one).
    random_start: bool,
    model_opt: bool,
    rounds: usize,
}

const WIDE15: Workload = Workload {
    name: "wide15",
    taxa: 15,
    sites: 6000,
    mean_branch: 0.15,
    random_start: false,
    model_opt: false,
    rounds: 1,
};
const NARROW64: Workload = Workload {
    name: "narrow64",
    taxa: 64,
    sites: 400,
    mean_branch: 0.15,
    random_start: true,
    model_opt: false,
    rounds: 1,
};
const MODELOPT15: Workload = Workload {
    name: "modelopt15",
    taxa: 15,
    sites: 12000,
    mean_branch: 0.15,
    random_start: false,
    model_opt: true,
    rounds: 0,
};
const LOWDIV32: Workload = Workload {
    name: "lowdiv32",
    taxa: 32,
    sites: 40000,
    mean_branch: 0.002,
    random_start: true,
    model_opt: false,
    rounds: 1,
};

fn set_lengths(tree: &mut Tree, mean: f64, rng: &mut SmallRng) {
    for e in 0..tree.num_edges() {
        let u: f64 = rng.random();
        tree.set_length(e, mean * (0.5 + u)).unwrap();
    }
}

/// The benchmark's input generator (`plf_e2e/src/inputs.rs`, which is
/// outside this workspace), step for step: writes `aln.phy` and
/// `start.nwk` into `dir`.
fn write_inputs(w: &Workload, dir: &Path) {
    const START_MEAN_BRANCH: f64 = 0.1;
    let names = default_names(w.taxa);
    let h = w.name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let mut shape_rng = SmallRng::seed_from_u64(h);
    let mut truth = random_tree(&names, w.mean_branch, &mut shape_rng).unwrap();
    set_lengths(&mut truth, w.mean_branch, &mut shape_rng);
    let mut start = if w.random_start {
        random_tree(&names, START_MEAN_BRANCH, &mut shape_rng).unwrap()
    } else {
        truth.clone()
    };
    set_lengths(&mut start, START_MEAN_BRANCH, &mut shape_rng);

    let gtr = Gtr::new(GtrParams {
        rates: [1.1, 2.6, 0.8, 1.2, 3.4, 1.0],
        freqs: [0.29, 0.21, 0.22, 0.28],
    });
    let gamma = DiscreteGamma::new(0.85);
    let mut seed_rng = SmallRng::seed_from_u64(SEED ^ h.rotate_left(32));
    let simulate = |rng: &mut SmallRng| {
        phylomic::seqgen::simulate_alignment(&truth, gtr.eigen(), &gamma, w.sites, rng)
    };
    let aln = if w.random_start {
        // Columns from the workload alone, their order from the seed.
        let fixed = simulate(&mut shape_rng);
        let mut order: Vec<usize> = (0..fixed.num_sites()).collect();
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
        simulate(&mut seed_rng)
    };
    std::fs::write(dir.join("aln.phy"), phylip::to_string(&aln)).unwrap();
    std::fs::write(
        dir.join("start.nwk"),
        format!("{}\n", newick::to_newick(&start)),
    )
    .unwrap();
}

/// Runs the workload's search under `scheme` with `threads` and
/// returns what it printed that a rerun repeats: the result line up to
/// its wall time, and the tree.
fn search(w: &Workload, dir: &Path, scheme: &str, threads: usize) -> String {
    let out_file = dir.join(format!("{scheme}{threads}.nwk"));
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_phylomic"));
    let alpha = if w.model_opt { "1" } else { "0.85" };
    cmd.arg("search")
        .args(["--alignment", dir.join("aln.phy").to_str().unwrap()])
        .args(["--tree", dir.join("start.nwk").to_str().unwrap()])
        .args(["--rounds", &w.rounds.to_string(), "--alpha", alpha])
        .args(["--scheme", scheme, "--threads", &threads.to_string()])
        .args(["--out", out_file.to_str().unwrap()]);
    if !w.model_opt {
        cmd.arg("--no-model-opt");
    }
    let out = cmd.output().unwrap();
    assert!(
        out.status.success(),
        "{} {scheme} {threads}: {}",
        w.name,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let result = stdout.lines().next().unwrap();
    let (result, _time) = result
        .rsplit_once("  time ")
        .unwrap_or_else(|| panic!("no result line in {stdout:?}"));
    format!("{result}\n{}", std::fs::read_to_string(out_file).unwrap())
}

/// The recorded output of the parent commit for one run.
fn recorded(w: &Workload, threads: usize) -> &'static str {
    let header = format!("== {} {threads}\n", w.name);
    let at = PARENT_OUTPUT
        .find(&header)
        .unwrap_or_else(|| panic!("no record for {header:?}"));
    let body = &PARENT_OUTPUT[at + header.len()..];
    &body[..body.find("== ").unwrap_or(body.len())]
}

fn check(w: &Workload) {
    let dir = TestDir::new(&format!("forkjoin-cli-{}", w.name));
    write_inputs(w, &dir);
    assert_eq!(
        search(w, &dir, "forkjoin", 1),
        search(w, &dir, "serial", 1),
        "{}: one computing thread is the serial search",
        w.name
    );
    if !phylomic::plf::KernelKind::simd_available() {
        eprintln!("no AVX2+FMA: the record was made with the simd backend, not compared");
        return;
    }
    for threads in 2..=4 {
        assert_eq!(
            search(w, &dir, "forkjoin", threads),
            recorded(w, threads),
            "{}: --threads {threads} against the parent commit's record",
            w.name
        );
    }
}

#[test]
fn wide15_matches_serial_and_the_parent_record() {
    check(&WIDE15);
}

#[test]
fn narrow64_matches_serial_and_the_parent_record() {
    check(&NARROW64);
}

#[test]
fn modelopt15_matches_serial_and_the_parent_record() {
    check(&MODELOPT15);
}

#[test]
fn lowdiv32_matches_serial_and_the_parent_record() {
    check(&LOWDIV32);
}
