//! One workload, measured in one process: set-up, the timed laps of
//! the schemes, the checks, and the metrics.

use crate::checks;
use crate::inputs;
use crate::layers::{self, Probe, SetupTimes, Traced, Walls};
use crate::schemes::{self, Outcome, Prepared, Scheme};
use crate::spec::{Workload, DEFAULT_SEED, K_MAX, K_MIN, SETUPS_FIRST, SETUPS_PER_LAP};
use crate::stats::{fastest, median};
use phylo_bio::{phylip, CompressedAlignment};
use phylo_tree::{newick, Tree};
use plf_core::{EngineConfig, LikelihoodEngine};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Environment variables that would change what the engine resolves
/// `Auto` to; the benchmark refuses to run with any of them set.
const FORBIDDEN_ENV: [&str; 3] = [
    "PHYLOMIC_KERNELS",
    "PHYLOMIC_SITE_REPEATS",
    "PHYLOMIC_BLOCKING",
];

/// Triad drift, between the probes after the first search and after
/// the last, beyond which the run is marked `host_noisy` ...
const NOISY_DRIFT: f64 = 0.10;
/// ... and so is a run whose median serial lap is this far above its
/// fastest (2–7 % on a quiet host, 7–26 % when interference comes in
/// bursts). Neither sign shows a host that is evenly slow throughout.
const NOISY_SCATTER: f64 = 0.10;

/// Probe sizes for the same-run roofline normaliser: the repo's own
/// triad length (96 MB of traffic per pass) with fewer FMA iterations
/// and rounds, so both probes of a run take well under a second.
const PROBE_TRIAD_LEN: usize = 4 << 20;
const PROBE_FMA_ITERS: usize = 2_000_000;
const PROBE_ROUNDS: usize = 3;

/// What to measure.
pub struct RunArgs {
    /// The workload (possibly shrunk, in tests).
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds the timed laps may take.
    pub seconds: f64,
    /// Whether to add traced laps and report per-layer metrics.
    pub traced: bool,
    /// Where to write the harness spans (traced runs).
    pub trace_out: Option<PathBuf>,
    /// The `phylomic` binary.
    pub cli: PathBuf,
    /// The committed `HOST_ROOFLINE.json`.
    pub roofline: PathBuf,
    /// Directory under which this run makes (and removes) its scratch
    /// directory.
    pub scratch_root: PathBuf,
    /// Laps to run regardless of `seconds` (tests); `None` lets the
    /// clock decide between the minimum and [`K_MAX`].
    pub laps: Option<usize>,
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Value {
    /// Metric name.
    pub name: &'static str,
    /// The number.
    pub value: f64,
    /// The repeats it summarises, for timings.
    pub samples: Vec<f64>,
}

/// The result of one workload process.
#[derive(Debug, Default)]
pub struct Report {
    /// Timed searches attempted.
    pub attempted: u64,
    /// Timed searches that errored or broke a check.
    pub failed: u64,
    /// Why, one line per failed check.
    pub failures: Vec<String>,
    /// The metrics of this mode (end-to-end, or per-layer when traced).
    pub values: Vec<Value>,
    /// `key value` facts about this run.
    pub provenance: Vec<(String, String)>,
    /// The traced table, ready to print.
    pub table: String,
}

/// One timed search and what became of it.
struct Op {
    scheme: Scheme,
    lap: usize,
    traced: bool,
    outcome: Result<Outcome, String>,
    /// Checks this operation broke after it finished.
    broke: Vec<String>,
}

/// What a user's run pays before the search starts: read and parse the
/// alignment, compress it to patterns, parse the start tree, build the
/// engine.
fn setup_once(
    scratch: &Path,
    config: EngineConfig,
) -> Result<(CompressedAlignment, Tree, usize, SetupTimes), String> {
    let t0 = Instant::now();
    let path = scratch.join(schemes::ALIGNMENT_FILE);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let aln = phylip::parse_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let parse = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let compressed = CompressedAlignment::from_alignment(&aln);
    let compress = t1.elapsed().as_secs_f64();
    let path = scratch.join(schemes::START_TREE_FILE);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let tree = newick::parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))?;
    let t2 = Instant::now();
    let engine = LikelihoodEngine::new(&tree, &compressed, config);
    let engine_new = t2.elapsed().as_secs_f64();
    let total = t0.elapsed().as_secs_f64();
    drop(engine);
    let times = SetupTimes {
        total,
        parse,
        compress,
        engine_new,
    };
    Ok((compressed, tree, aln.num_sites(), times))
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Same-run roofline probe.
fn probe() -> Probe {
    let r = plf_prof::roofline::measure_with(PROBE_TRIAD_LEN, PROBE_FMA_ITERS, PROBE_ROUNDS);
    Probe {
        triad_mbps: r.peak_mbps as f64,
        fma_mflops: r.peak_mflops as f64,
    }
}

/// Refuses hosts and environments on which two runs would not measure
/// the same program.
pub fn check_conditions() -> Result<(), String> {
    let cores = plf_prof::host::cores();
    if cores < 2 {
        return Err(format!(
            "needs at least 2 cores (found {cores}): fork-join and the replicated schemes run 2 busy threads"
        ));
    }
    for var in FORBIDDEN_ENV {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set; the benchmark measures the default `auto` configuration only"
            ));
        }
    }
    Ok(())
}

/// Applies the committed host calibration exactly as the CLI's
/// `seed_calibration` does, from the copy in `scratch`.
fn apply_calibration(scratch: &Path) {
    let cached = plf_prof::roofline::load_cached(&scratch.join(plf_prof::roofline::CACHE_FILE));
    if let Some(r) = cached.filter(|r| r.peak_mbps > 0) {
        plf_core::cost::set_calibration(plf_core::ProfitCalibration {
            kernel_mbps: r.peak_mbps,
            copy_mbps: r.copy_mbps,
            cache_bytes: r.cache_bytes,
        });
    }
}

/// Removes the scratch directory when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Makes the scratch directory with the roofline copy and the two
/// generated input files in it.
fn make_scratch(args: &RunArgs) -> Result<Scratch, String> {
    // Unique per call, not only per process: the unit tests run several
    // workloads on parallel threads of one process.
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let scratch = Scratch(args.scratch_root.join(format!(
        "{}-{}-{}",
        args.workload.name,
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    )));
    let dir = &scratch.0;
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    std::fs::copy(&args.roofline, dir.join(plf_prof::roofline::CACHE_FILE))
        .map_err(|e| format!("{}: {e}", args.roofline.display()))?;
    // The load generator: write the two files, keep nothing.
    let inputs = inputs::generate(&args.workload, args.seed);
    for (name, text) in [
        (schemes::ALIGNMENT_FILE, &inputs.phylip),
        (schemes::START_TREE_FILE, &inputs.start_newick),
    ] {
        std::fs::write(dir.join(name), text).map_err(|e| format!("{name}: {e}"))?;
    }
    Ok(scratch)
}

/// Runs the timed laps: (operations, laps, `VmHWM` after the first
/// search, which is serial, and the host probe taken right after it).
///
/// A lap runs the schemes back to back, untraced, and in a traced run
/// once more under the harness clock; the starting scheme rotates per
/// lap so drift hits all alike. The replicated schemes have only
/// per-layer metrics, so only traced runs pay for them. Every lap ends
/// with a few more set-ups, pushed onto `setups`.
fn run_laps(
    args: &RunArgs,
    prepared: &Prepared,
    setups: &mut Vec<SetupTimes>,
) -> Result<(Vec<Op>, usize, f64, Probe), String> {
    let schemes: &[Scheme] = if args.traced {
        &Scheme::ALL
    } else {
        &Scheme::GATED
    };
    let modes: &[bool] = if args.traced {
        &[false, true]
    } else {
        &[false]
    };
    let min_laps = if args.traced { 1 } else { K_MIN };
    let mut ops: Vec<Op> = Vec::new();
    let mut watchdog = Duration::from_secs(60);
    // Read after the first search, not at exit: every fork-join worker
    // and rank thread registers a 1.3 MB span ring that the library
    // keeps for the life of the process, so the figure at exit grows
    // with the number of laps the clock allowed. The first host probe
    // waits until then, so that its 96 MB of arrays are not what the
    // high-water mark shows.
    let mut first_search = None;
    let measure = Instant::now();
    let mut lap = 0;
    loop {
        let lap_start = Instant::now();
        for &traced in modes {
            for i in 0..schemes.len() {
                let scheme = schemes[(lap + i) % schemes.len()];
                let outcome = schemes::run(scheme, prepared, traced, watchdog);
                if let (Scheme::Serial, Ok(o)) = (scheme, &outcome) {
                    watchdog = Duration::from_secs_f64((10.0 * o.wall_s).clamp(5.0, 60.0));
                }
                if first_search.is_none() {
                    first_search = Some((peak_rss_mb()?, probe()));
                }
                ops.push(Op {
                    scheme,
                    lap,
                    traced,
                    outcome,
                    broke: Vec::new(),
                });
            }
        }
        lap += 1;
        for _ in 0..SETUPS_PER_LAP {
            setups.push(setup_once(&prepared.scratch, prepared.config)?.3);
        }
        let more = match args.laps {
            Some(n) => lap < n,
            None => {
                let next_end = measure.elapsed() + lap_start.elapsed();
                lap < min_laps || (lap < K_MAX && next_end.as_secs_f64() <= args.seconds)
            }
        };
        if !more {
            let (rss, probe_first) = first_search.expect("a lap runs at least one search");
            return Ok((ops, lap, rss, probe_first));
        }
    }
}

/// Runs checks (a), (b), (c) and the count-exactness self-check,
/// recording what each operation broke.
fn run_checks(ops: &mut [Op], p: &Prepared, w: &Workload, seed: u64) {
    let Some(ref_idx) = ops
        .iter()
        .position(|o| o.scheme == Scheme::Serial && o.outcome.is_ok())
    else {
        return;
    };
    let mut broke: Vec<(usize, String)> = Vec::new();
    let reference = ops[ref_idx].outcome.as_ref().expect("picked an Ok outcome");
    if let Err(e) = checks::oracle(p, reference) {
        broke.push((ref_idx, e));
    }
    if seed == DEFAULT_SEED && reference.logl < w.min_logl {
        broke.push((
            ref_idx,
            format!(
                "logL {} is below the quality floor {}",
                reference.logl, w.min_logl
            ),
        ));
    }
    for (i, op) in ops.iter().enumerate() {
        let Ok(o) = &op.outcome else { continue };
        if let Err(e) = checks::agrees_with_serial(reference, o) {
            broke.push((i, e));
        }
        // Counts repeat exactly across the k repeats (against the first
        // run of the same mode) and between the traced and untraced
        // runs of a scheme (against the first run of all).
        for same_mode in [true, false] {
            let first = ops
                .iter()
                .filter(|f| f.scheme == op.scheme && (!same_mode || f.traced == op.traced))
                .find_map(|f| f.outcome.as_ref().ok())
                .expect("this operation itself is Ok");
            if let Err(e) = checks::counts_match(&first.counts, &o.counts) {
                broke.push((i, e));
                break;
            }
        }
    }
    for (i, e) in broke {
        ops[i].broke.push(e);
    }
}

/// Measures one workload.
pub fn run_workload(args: &RunArgs) -> Result<Report, String> {
    let started = Instant::now();
    check_conditions()?;
    let w = &args.workload;
    let scratch = make_scratch(args)?;
    let dir = &scratch.0;
    apply_calibration(dir);

    let (config, search, cli_flags) = schemes::configure(w);
    let mut setups = Vec::new();
    let (aln, start, raw_sites) = loop {
        let (aln, start, raw_sites, times) = setup_once(dir, config)?;
        setups.push(times);
        if setups.len() == SETUPS_FIRST {
            break (aln, start, raw_sites);
        }
    };
    let prepared = Prepared {
        aln,
        start,
        config,
        search,
        scratch: dir.clone(),
        cli: args.cli.clone(),
        cli_flags,
    };

    // Both modes probe the host, after the first search and after the
    // last: a reading taken while the host drifted is marked, so that
    // whoever compares two runs can call the pair unresolved instead of
    // a regression.
    let (mut ops, laps, first_search_rss, probe_first) = run_laps(args, &prepared, &mut setups)?;
    let probe_last = probe();
    run_checks(&mut ops, &prepared, w, args.seed);

    let mut report = Report {
        attempted: ops.len() as u64,
        ..Report::default()
    };
    for op in &ops {
        let reasons: Vec<&String> = op.broke.iter().chain(op.outcome.as_ref().err()).collect();
        if !reasons.is_empty() {
            report.failed += 1;
            let mode = if op.traced { " (traced)" } else { "" };
            report.failures.extend(
                reasons
                    .iter()
                    .map(|r| format!("{}/{}{mode} lap {}: {r}", w.name, op.scheme.name(), op.lap)),
            );
        }
    }

    // Successful searches of one scheme in one mode; the metrics need
    // at least one of each.
    let of = |scheme: Scheme, traced: bool| -> Result<Vec<&Outcome>, String> {
        let found: Vec<&Outcome> = ops
            .iter()
            .filter(|o| o.scheme == scheme && o.traced == traced)
            .filter_map(|o| o.outcome.as_ref().ok())
            .collect();
        if found.is_empty() {
            let mode = if traced { "traced " } else { "" };
            return Err(format!(
                "no {mode}{} search succeeded: {}",
                scheme.name(),
                report.failures.join("; ")
            ));
        }
        Ok(found)
    };
    let walls = |scheme: Scheme| -> Result<Vec<f64>, String> {
        Ok(of(scheme, false)?.iter().map(|o| o.wall_s).collect())
    };
    let serial_ref = of(Scheme::Serial, false)?[0];

    let mut provenance = Vec::new();
    if let Some(detail) = serial_ref.serial() {
        let [backend, repeats, blocking] = &detail.verdicts;
        provenance.extend([
            ("resolved_backend", backend.clone()),
            ("resolved_site_repeats", repeats.clone()),
            ("resolved_blocking", blocking.clone()),
            ("block_sites", plf_core::blocking::block_sites().to_string()),
        ]);
    }

    let drift = probe_last.triad_mbps / probe_first.triad_mbps;
    let serial_laps = walls(Scheme::Serial)?;
    let scatter = median(&serial_laps) / fastest(&serial_laps) - 1.0;
    provenance.extend([
        (
            "triad_mbps",
            format!(
                "{:.0}",
                (probe_first.triad_mbps + probe_last.triad_mbps) / 2.0
            ),
        ),
        ("triad_drift", format!("{drift:.4}")),
        ("lap_scatter", format!("{scatter:.4}")),
        (
            "host_noisy",
            ((drift - 1.0).abs() > NOISY_DRIFT || scatter > NOISY_SCATTER).to_string(),
        ),
    ]);

    if args.traced {
        let traced = Traced {
            workload: w.name,
            prepared: &prepared,
            raw_sites,
            setups: &setups,
            walls: Walls {
                serial: fastest(&walls(Scheme::Serial)?),
                forkjoin: fastest(&walls(Scheme::ForkJoin)?),
                replicated: fastest(&walls(Scheme::Replicated)?),
                uds: fastest(&walls(Scheme::Uds)?),
            },
            serial: of(Scheme::Serial, true)?,
            forkjoin: of(Scheme::ForkJoin, true)?,
            replicated: of(Scheme::Replicated, false)?,
            uds_untraced: of(Scheme::Uds, false)?,
            uds_traced: of(Scheme::Uds, true)?,
            peak_rss_mb: first_search_rss,
            probes: (probe_first, probe_last),
        };
        let layers = layers::per_layer(&traced)?;
        let values = layers.values.into_iter().map(|(name, value)| Value {
            name,
            value,
            samples: Vec::new(),
        });
        if let Some(path) = &args.trace_out {
            let mut text = String::new();
            let logs = ops.iter().filter_map(|o| {
                let log = o.outcome.as_ref().ok()?.spans.as_ref()?;
                Some((o.scheme, log))
            });
            for (run_id, (scheme, log)) in logs.enumerate() {
                log.to_jsonl(run_id, scheme.name(), &mut text);
            }
            std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        report.values = values.collect();
        report.table = layers.table;
    } else {
        let totals: Vec<f64> = setups.iter().map(|s| s.total).collect();
        report.values.push(Value {
            name: "setup_s",
            value: fastest(&totals),
            samples: totals,
        });
        for scheme in Scheme::GATED {
            let v = walls(scheme)?;
            report.values.push(Value {
                name: scheme.wall_metric(),
                value: fastest(&v),
                samples: v,
            });
        }
    }

    provenance.extend([
        ("workload", w.name.to_string()),
        ("taxa", w.taxa.to_string()),
        ("raw_sites", raw_sites.to_string()),
        ("patterns", prepared.aln.num_patterns().to_string()),
        ("rounds", w.rounds.to_string()),
        ("model_opt", w.model_opt.to_string()),
        ("seed", args.seed.to_string()),
        ("k", laps.to_string()),
        ("min_logl", w.min_logl.to_string()),
        ("final_logl", format!("{:.6}", serial_ref.logl)),
        (
            "run_wall_s",
            format!("{:.3}", started.elapsed().as_secs_f64()),
        ),
    ]);
    report.provenance = provenance
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Start, END_TO_END, PER_LAYER, WORKLOADS};

    /// Smoke runs use files next to the test binary: the CLI cargo
    /// built into the target directory, the repo's roofline file.
    fn smoke_args(workload: Workload, traced: bool) -> RunArgs {
        let exe = std::env::current_exe().unwrap();
        let deps = exe.parent().unwrap();
        let cli = deps.parent().unwrap().join("phylomic");
        assert!(
            cli.is_file(),
            "{} is missing: build the CLI into the same target directory first \
             (cargo build --release --bin phylomic, with CARGO_TARGET_DIR as for this test run)",
            cli.display()
        );
        RunArgs {
            workload,
            seed: 11,
            seconds: 0.0,
            traced,
            trace_out: None,
            cli,
            roofline: PathBuf::from(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../HOST_ROOFLINE.json"
            )),
            scratch_root: deps.join("plf_e2e_scratch"),
            laps: Some(1),
        }
    }

    #[test]
    fn smoke_all_workloads_at_a_twentieth_pass_the_checks() {
        let started = Instant::now();
        for w in &WORKLOADS {
            let report = run_workload(&smoke_args(w.shrunk(20), true)).unwrap();
            // One untraced and one traced search under each of the four
            // schemes; checks (a) and (b) and count exactness all hold.
            assert_eq!(report.attempted, 8, "{}", w.name);
            assert_eq!(report.failures, Vec::<String>::new(), "{}", w.name);
            let names: Vec<&str> = report.values.iter().map(|v| v.name).collect();
            let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
            assert_eq!(names, expected, "{}", w.name);
            let value = |name: &str| report.values.iter().find(|v| v.name == name).unwrap().value;
            assert!(
                report.values.iter().all(|v| v.value.is_finite()),
                "{}",
                w.name
            );
            assert_eq!(value("trace.spans_dropped"), 0.0);
            assert_eq!(value("models.set_calls") > 0.0, w.model_opt, "{}", w.name);
            assert_eq!(
                value("search.spr_evaluated") > 0.0,
                w.rounds > 0,
                "{}",
                w.name
            );
            // From a random start the round must take moves, or checks
            // (a) and (c) would have no tree edit to look at.
            if w.start == Start::Random {
                assert!(value("search.spr_accepted") > 0.0, "{}", w.name);
            }
            assert!(report.table.contains("/ uds (traced run)"));
        }
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "{:?}",
            started.elapsed()
        );
    }

    #[test]
    fn untraced_run_reports_exactly_the_end_to_end_metrics() {
        let report = run_workload(&smoke_args(WORKLOADS[0].shrunk(20), false)).unwrap();
        assert_eq!((report.attempted, report.failed), (2, 0));
        let names: Vec<&str> = report.values.iter().map(|v| v.name).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, expected);
        assert!(
            report.values.iter().all(|v| v.value > 0.0),
            "metrics are never 0"
        );
    }

    #[test]
    fn a_failed_check_is_a_failed_operation_with_both_values_printed() {
        let w = WORKLOADS[0].shrunk(20);
        let mut args = smoke_args(w, false);
        args.laps = Some(2);
        // The quality floor applies at the default seed only.
        args.seed = DEFAULT_SEED;
        args.workload.min_logl = 0.0;
        let report = run_workload(&args).unwrap();
        assert_eq!((report.attempted, report.failed), (4, 1));
        assert!(
            report.failures[0].contains("below the quality floor 0"),
            "{:?}",
            report.failures
        );
    }

    #[test]
    fn forbidden_environment_and_missing_cli_are_refused() {
        // (Not set here: setting a variable would race the other tests'
        // engines, which read it once per process.)
        assert!(check_conditions().is_ok());
        let mut args = smoke_args(WORKLOADS[0].shrunk(20), true);
        args.cli = PathBuf::from("/nonexistent/phylomic");
        let report = run_workload(&args);
        let err = report.unwrap_err();
        assert!(
            err.contains("no uds search succeeded") && err.contains("/nonexistent/phylomic"),
            "{err}"
        );
    }
}
