//! The benchmark's fixed tables: workloads, metrics, and the constants
//! every run shares. `BENCHMARK.json` at the repo root repeats the
//! names, units and bounds; a unit test keeps the two in step.

/// Seed used when `--seed` is not given, and the only seed at which
/// the per-workload quality floor ([`Workload::min_logl`]) applies.
pub const DEFAULT_SEED: u64 = 20140314;

/// Fork-join workers (plus the spinning master), replicated ranks and
/// UDS ranks: never more busy threads than the 2 cores this benchmark
/// requires.
pub const FORKJOIN_WORKERS: usize = 1;
/// See [`FORKJOIN_WORKERS`].
pub const RANKS: usize = 2;

/// Timed laps of an untraced run: at least this many whatever
/// `--seconds` says ...
pub const K_MIN: usize = 3;
/// ... and at most this many, so a fast host does not run for ever.
pub const K_MAX: usize = 45;
/// Set-ups timed before the first lap. A fixed count, so that the
/// allocations before the first search are the same in every run,
/// which `proc.peak_rss_mb` needs.
pub const SETUPS_FIRST: usize = 10;
/// Set-ups timed after every lap: a set-up takes 1–25 ms, and spread
/// over the whole run they sample as many quiet moments as the laps do.
pub const SETUPS_PER_LAP: usize = 4;

/// Γ shape and GTR parameters the alignments are simulated under.
pub const SIM_ALPHA: f64 = 0.85;
/// See [`SIM_ALPHA`].
pub const SIM_RATES: [f64; 6] = [1.1, 2.6, 0.8, 1.2, 3.4, 1.0];
/// See [`SIM_ALPHA`].
pub const SIM_FREQS: [f64; 4] = [0.29, 0.21, 0.22, 0.28];

/// Where a workload's search starts, which decides what its one SPR
/// round does (README.md gives the measured share of each kind of round
/// in searches run to convergence).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Start {
    /// The generating topology with other branch lengths: the round
    /// every search ends with, which scores every candidate and accepts
    /// none.
    Truth,
    /// A random topology: the first round of a search from
    /// `--start random`, which accepts 5–9 % of the candidates it
    /// scores, edits the tree and re-smooths after each.
    Random,
}

/// One workload: a search expressible as `phylomic search` flags, so
/// the four schemes run the identical search.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it exists, as in `BENCHMARK.json`.
    pub why: &'static str,
    /// Taxa.
    pub taxa: usize,
    /// Raw alignment columns simulated.
    pub sites: usize,
    /// Mean branch length of the generating tree.
    pub mean_branch: f64,
    /// Start topology.
    pub start: Start,
    /// Whether `BENCHMARK.json` lists it, which makes the driver hold
    /// every later PR to its end-to-end metrics. A workload left out
    /// runs by name and in the all-workloads run, and is for claims made
    /// with alternating pairs.
    pub gate: bool,
    /// Whether α and the GTR rates are optimised (`--no-model-opt` off).
    pub model_opt: bool,
    /// `--rounds`.
    pub rounds: usize,
    /// Quality floor: at [`DEFAULT_SEED`] the final logL must not fall
    /// below this (the value measured when the benchmark was written,
    /// minus 0.1 %), so a later change may alter the search trajectory
    /// but not ship a worse solution faster.
    pub min_logl: f64,
}

impl Workload {
    /// The Γ shape the search starts from: the simulated one when the
    /// model is fixed, the CLI's default when it is optimised.
    pub fn start_alpha(&self) -> f64 {
        if self.model_opt {
            1.0
        } else {
            SIM_ALPHA
        }
    }

    /// The same workload at `1/shrink` of its sites (the unit-test
    /// smoke runs); the quality floor does not apply to it.
    #[cfg(test)]
    pub fn shrunk(&self, shrink: usize) -> Workload {
        Workload {
            sites: (self.sites / shrink).max(64),
            min_logl: f64::NEG_INFINITY,
            ..*self
        }
    }
}

/// The workloads. The four the driver gates on are sized so that one
/// serial search takes 0.3–0.6 s on the 2-core reference host: a run
/// then fits 20–30 laps, and a lap fits into the quiet moments of a
/// shared host, which is what holds the fastest lap steady.
///
/// `dram15` is ISSUE 11's `wide15` at full size and is not gated. Its
/// 2 s searches leave 5 laps to a run, and over forty minutes the same
/// commit read 2.16 s and 2.54 s as medians of ten runs (single runs
/// 2.10–2.83 s): the host's slow phases last minutes, and only
/// alternating pairs cancel them.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "wide15",
        why: "15 taxa x 6000 sites, fixed GTR+G, 1 SPR round from the generating topology (0 accepted): few large \
              kernel calls on 6 MB of CLAs; core does the work, sync and search logic almost nothing",
        taxa: 15,
        sites: 6000,
        mean_branch: 0.15,
        start: Start::Truth,
        gate: true,
        model_opt: false,
        rounds: 1,
        min_logl: -69534.66, // measured -69465.19
    },
    Workload {
        name: "narrow64",
        why: "64 taxa x 400 sites, fixed model, 1 SPR round from a random topology (moves accepted, tree edited): \
              CLAs stay in L2; per-call overhead, search logic, fork-join regions and AllReduces dominate",
        taxa: 64,
        sites: 400,
        mean_branch: 0.15,
        start: Start::Random,
        gate: true,
        model_opt: false,
        rounds: 1,
        min_logl: -23572.53, // measured -23548.98
    },
    Workload {
        name: "modelopt15",
        why: "15 taxa x 12000 sites, model optimisation on, 0 SPR rounds: every set_alpha/set_model \
              invalidates all CLAs, so core runs full traversals; the only workload where models works",
        taxa: 15,
        sites: 12000,
        mean_branch: 0.15,
        start: Start::Truth,
        gate: true,
        model_opt: true,
        rounds: 0,
        min_logl: -140560.41, // measured -140419.99
    },
    Workload {
        name: "lowdiv32",
        why: "32 taxa x 40000 raw sites at mean branch 0.002, fixed model, 1 SPR round from a random topology: \
              97 % of columns collapse, so bio (parse + pattern compression) dominates setup_s",
        taxa: 32,
        sites: 40000,
        mean_branch: 0.002,
        start: Start::Random,
        gate: true,
        model_opt: false,
        rounds: 1,
        min_logl: -108012.37, // measured -107904.47
    },
    Workload {
        name: "dram15",
        why: "15 taxa x 30000 sites, otherwise wide15: the paper's shape, 28 MiB of CLAs against a 4 MiB L2, \
              streamed from memory by every partial traversal",
        taxa: 15,
        sites: 30000,
        mean_branch: 0.15,
        start: Start::Truth,
        gate: false,
        model_opt: false,
        rounds: 1,
        min_logl: -358269.94, // measured -357912.03
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: what it is called, how it is printed, which layer owns
/// it and what it is expected to move.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics.
    pub bound: Option<f64>,
    /// Owning layer (`e2e` for the end-to-end metrics).
    pub layer: &'static str,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64, moves: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
        layer: "e2e",
        moves,
    }
}

const fn layer(
    layer: &'static str,
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        layer,
        moves,
    }
}

/// The three end-to-end metrics (same set on every workload). A timing
/// is the fastest of its repeats: interference on a shared host only
/// ever adds time, and across ten runs the fastest repeat spread 2–7 %
/// where the median spread 3–12 %.
///
/// The bounds are the largest a metric may have, not the 10 % ISSUE 11
/// asked for. Sets of ten seeded runs spread 0.4–4.5 % while the host
/// is quiet, which would carry a 12 % bound; but the host has slow
/// states that last from minutes to hours, and in one of them the same
/// commit's `narrow64` set read `wall_serial_s` 13.8 % and
/// `wall_forkjoin_s` 19.5 % above its quiet median, with spreads of
/// 23 % and 12.7 %. The driver compares unpaired sets taken at
/// different times, so a tighter bound would refuse this very commit
/// against itself. README.md has every set; its claim protocol holds a
/// PR's own statements to paired runs, which the states cancel out of.
///
/// Three metrics ISSUE 11 listed are per-layer instead, as it prescribes
/// for one that will not repeat within its bound. The wall times of the
/// two replicated schemes: threads or processes that meet at thousands
/// of spin barriers on two shared vCPUs lose a time slice whenever
/// anything else runs, and even on a quiet host `replicated.wall_s`
/// spread up to 23 % and `uds.wall_s` up to 18 % over ten runs. Peak
/// RSS: the same allocation sequence read 19.2 and 22.1 MB in two runs
/// of one commit (spread up to 7.5 %), against the 5 % asked for.
pub const END_TO_END: [Metric; 3] = [
    e2e(
        "setup_s",
        "s",
        0.25,
        "read + parse PHYLIP, pattern compression, start-tree parse, LikelihoodEngine::new",
    ),
    e2e(
        "wall_serial_s",
        "s",
        0.25,
        "MlSearch::run on LikelihoodEngine",
    ),
    e2e(
        "wall_forkjoin_s",
        "s",
        0.25,
        "same search on ForkJoinEvaluator (1 worker), pool start/stop included",
    ),
];

use Better::{Higher, Lower};

/// The per-layer metrics, measured in the traced run.
pub const PER_LAYER: [Metric; 62] = [
    layer("bio", "bio.parse_s", "s", Lower, "setup_s on lowdiv32; flat elsewhere"),
    layer("bio", "bio.compress_s", "s", Lower, "setup_s on lowdiv32; flat elsewhere"),
    layer("bio", "bio.patterns", "count", Lower, "setup_s, all wall_* (work per kernel call)"),
    layer("bio", "bio.compress_ratio", "ratio", Lower, "patterns / raw sites; low only on lowdiv32"),
    layer("core", "core.engine_new_s", "s", Lower, "setup_s on wide15, modelopt15"),
    layer("core", "core.cla_bytes", "bytes", Lower, "proc.peak_rss_mb on wide15, modelopt15 (computed, so it repeats exactly)"),
    layer("core", "core.eval_s", "s", Lower, "wall_serial_s on wide15, modelopt15"),
    layer("core", "core.eval_calls", "count", Lower, "wall_serial_s on wide15, modelopt15"),
    layer("core", "core.prepare_s", "s", Lower, "wall_serial_s on narrow64, modelopt15 (all-branch-gradient target)"),
    layer("core", "core.prepare_calls", "count", Lower, "wall_serial_s on narrow64, modelopt15"),
    layer("core", "core.deriv_s", "s", Lower, "wall_serial_s on narrow64, modelopt15 (all-branch-gradient target)"),
    layer("core", "core.deriv_calls", "count", Lower, "wall_serial_s on narrow64, modelopt15"),
    layer("core", "core.kernel_s", "s", Lower, "all wall_* on wide15; about no move on narrow64"),
    layer("core", "core.newview_sites", "count", Lower, "core.kernel_s"),
    layer("core", "core.evaluate_sites", "count", Lower, "core.kernel_s"),
    layer("core", "core.derivsum_sites", "count", Lower, "core.kernel_s"),
    layer("core", "core.derivcore_sites", "count", Lower, "core.kernel_s"),
    layer("core", "core.kernel_calls", "count", Lower, "core.traversal_overhead_s on narrow64"),
    layer("core", "core.flops", "count", Lower, "wall_serial_s on wide15 (computed)"),
    layer("core", "core.bytes", "bytes", Lower, "wall_serial_s on wide15 while gbps is near the triad roof (computed)"),
    layer("core", "core.gflops", "GFLOP/s", Higher, "wall_serial_s on wide15"),
    layer("core", "core.gbps", "GB/s", Higher, "wall_serial_s on wide15"),
    layer("core", "core.pct_roof", "ratio", Higher, "achieved rate over the same-run roofline bound"),
    layer("core", "core.traversal_overhead_s", "s", Lower, "wall_serial_s on narrow64, lowdiv32 (residual: planning, repeat tables, gather/expand, P matrices)"),
    layer("core", "core.repeats.newview_calls", "count", Lower, "core.kernel_s"),
    layer("core", "core.repeats.compressed_calls", "count", Higher, "core.kernel_s; auto accepts most often on lowdiv32, least often on narrow64"),
    layer("core", "core.repeats.class_ratio", "ratio", Lower, "core.kernel_s"),
    layer("core", "core.repeats.saved_frac", "ratio", Higher, "core.kernel_s; measured highest on wide15, lowest on narrow64"),
    layer("models", "models.set_s", "s", Lower, "wall_serial_s on modelopt15 only"),
    layer("models", "models.set_calls", "count", Lower, "wall_serial_s on modelopt15 only (0 elsewhere)"),
    layer("search", "search.self_s", "s", Lower, "all wall_* equally, most on narrow64 (residual: SPR enumeration, tree edits, Newton/Brent control, Newick)"),
    layer("search", "search.rounds", "count", Lower, "all wall_*"),
    layer("search", "search.spr_evaluated", "count", Lower, "all wall_* on narrow64"),
    layer("search", "search.spr_accepted", "count", Lower, "all wall_*"),
    layer("search", "search.newton_iters_per_branch", "ratio", Lower, "core.deriv_s"),
    layer("search", "search.checkpoint_save_us", "us", Lower, "none of the six (checkpointing is off in timed runs); baseline for a later workload"),
    layer("search", "search.checkpoint_bytes", "bytes", Lower, "search.checkpoint_save_us"),
    layer("forkjoin", "forkjoin.regions", "count", Lower, "wall_forkjoin_s on narrow64"),
    layer("forkjoin", "forkjoin.fork_wait_s", "s", Lower, "wall_forkjoin_s on narrow64"),
    layer("forkjoin", "forkjoin.join_wait_s", "s", Lower, "wall_forkjoin_s (holds the worker's kernel time)"),
    layer("forkjoin", "forkjoin.worker_kernel_s", "s", Lower, "wall_forkjoin_s on wide15"),
    layer("forkjoin", "forkjoin.overhead_per_region_us", "us", Lower, "wall_forkjoin_s only; about 0 on wide15"),
    layer("replicated", "replicated.wall_s", "s", Lower, "run_replicated_ft, 2 ranks, threads transport (too noisy to bound)"),
    layer("replicated", "replicated.allreduces", "count", Lower, "replicated.wall_s on narrow64"),
    layer("replicated", "replicated.allreduce_bytes", "bytes", Lower, "replicated.wall_s on narrow64"),
    layer("replicated", "replicated.barriers", "count", Lower, "replicated.wall_s"),
    layer("replicated", "replicated.wire_s", "s", Lower, "replicated.wall_s on narrow64 (per rank)"),
    layer("replicated", "replicated.wire_max_us", "us", Lower, "replicated.wall_s tail"),
    layer("replicated", "replicated.speedup", "ratio", Higher, "wall_serial_s / replicated.wall_s; towards 2 on wide15"),
    layer("uds", "uds.wall_s", "s", Lower, "phylomic search --scheme replicated --threads 2 --transport uds, whole process (too noisy to bound)"),
    layer("uds", "uds.wire_ops", "count", Lower, "uds.wall_s on narrow64"),
    layer("uds", "uds.wire_s", "s", Lower, "uds.wall_s on narrow64 (per rank)"),
    layer("uds", "uds.wire_mean_us", "us", Lower, "uds.wall_s on narrow64"),
    layer("uds", "uds.search_s", "s", Lower, "uds.wall_s (CLI-reported search time)"),
    layer("uds", "uds.spawn_overhead_s", "s", Lower, "uds.wall_s on lowdiv32 (spawn, re-parse per rank, hub start)"),
    layer("proc", "proc.peak_rss_mb", "MB", Lower, "none: VmHWM after the set-ups and the first serial search (does not repeat within 5 %)"),
    layer("prof", "prof.triad_mbps", "MB/s", Higher, "none: same-run normaliser for core.pct_roof"),
    layer("prof", "prof.fma_mflops", "MFLOP/s", Higher, "none: same-run normaliser for core.pct_roof"),
    layer("prof", "prof.triad_drift", "ratio", Lower, "none: last probe / first; beyond 10 % marks the run host_noisy"),
    layer("trace", "trace.overhead_frac", "ratio", Lower, "none: (traced - untraced serial wall) / untraced"),
    layer("trace", "trace.spans", "count", Lower, "none"),
    layer("trace", "trace.spans_dropped", "count", Lower, "none: must be 0"),
];

/// Seconds of timed laps per run: `run_seconds` in `BENCHMARK.json`
/// and the default of `--seconds`.
pub const RUN_SECONDS: u32 = 30;

/// The contents of `BENCHMARK.json`, generated from the tables above
/// (`--print-benchmark-json`); a unit test holds the committed file to
/// it.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .filter(|w| w.gate)
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound.expect("end-to-end metrics have a bound")
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"plf_e2e/run.sh\"],\n  \"paths\": [\"plf_e2e\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// Prints every metric and workload (`--list`).
pub fn print_list() {
    println!("# metric unit better bound layer | should move");
    for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let bound = m.bound.map_or("-".to_string(), |b| format!("{b}"));
        println!(
            "{} {} {} {} {} | {}",
            m.name,
            m.unit,
            m.better.as_str(),
            bound,
            m.layer,
            m.moves
        );
    }
    println!("# workload taxa sites mean_branch start model_opt rounds min_logl | why");
    for w in &WORKLOADS {
        println!(
            "{} {} {} {} {:?} {} {} {} | {}",
            w.name,
            w.taxa,
            w.sites,
            w.mean_branch,
            w.start,
            w.model_opt,
            w.rounds,
            w.min_logl,
            w.why
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plf_prof::json::Json;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        let first_ok = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!((2..=8).contains(&WORKLOADS.iter().filter(|w| w.gate).count()));
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} is used twice", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {:?}",
                m.name,
                m.unit
            );
        }
        for m in &END_TO_END {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s gets the largest bound");
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
            assert!(w.taxa >= 4 && w.sites > 0);
        }
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with: plf_e2e --print-benchmark-json > BENCHMARK.json"
        );
        let doc = Json::parse(&committed).expect("valid JSON");
        let Json::Obj(members) = &doc else {
            panic!("BENCHMARK.json is not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(committed.len() <= 64 * 1024);
    }

    /// The lines of one manifest table, without comments and blanks.
    fn table(manifest: &str, header: &str) -> Vec<String> {
        manifest
            .lines()
            .map(str::trim)
            .skip_while(|l| *l != header)
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(str::to_string)
            .collect()
    }

    /// Profiles are read from a workspace's root manifest only and this
    /// package is its own workspace, so it repeats the repo's release
    /// profile and the CLI's default features by hand. This holds the
    /// copies to the originals: the in-process schemes must run code
    /// compiled like the CLI that the UDS scheme runs.
    #[test]
    fn manifest_repeats_the_repos_release_profile_and_default_features() {
        let read =
            |path: &str| std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let repo = read(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"));
        let own = read(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));
        let profile = table(&repo, "[profile.release]");
        assert!(!profile.is_empty(), "the repo sets a release profile");
        assert_eq!(table(&own, "[profile.release]"), profile);

        // The CLI's defaults switch on `span-trace` in these crates ...
        let features = table(&repo, "[features]").join(" ");
        assert!(
            features.contains("default = [\"span-trace\"]"),
            "{features}"
        );
        let mut forwarded: Vec<&str> = features
            .split('"')
            .filter_map(|word| word.strip_suffix("/span-trace"))
            .collect();
        forwarded.sort_unstable();
        // ... and so does this package, in the same crates and no other.
        let dependencies = table(&own, "[dependencies]");
        let mut enabled: Vec<&str> = dependencies
            .iter()
            .filter(|l| l.contains("features = [\"span-trace\"]"))
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        enabled.sort_unstable();
        assert_eq!(enabled, forwarded);
    }
}
