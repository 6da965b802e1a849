//! The four ways the same search is run, each as one timed operation.
//!
//! Only public surfaces are driven: `LikelihoodEngine`, `MlSearch::run`
//! through the `Evaluator` trait, `ForkJoinEvaluator`,
//! `run_replicated_ft`, and the built `phylomic` CLI.

use crate::child::{run_group, ChildRun};
use crate::spec::{Workload, FORKJOIN_WORKERS, RANKS};
use crate::timed::{SpanLog, TimedEvaluator};
use phylo_bio::CompressedAlignment;
use phylo_models::GtrParams;
use phylo_parallel::{run_replicated_ft, CommStats, ForkJoinEvaluator, FtConfig, WireStats};
use phylo_search::{Evaluator, MlSearch, SearchConfig, SearchResult};
use phylo_tree::Tree;
use plf_core::trace::{parse_jsonl, TraceEvent};
use plf_core::{EngineConfig, KernelOp, KernelStats, LikelihoodEngine, RepeatStats};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// File names inside the scratch directory; the CLI is given exactly
/// these.
pub const ALIGNMENT_FILE: &str = "aln.phy";
/// See [`ALIGNMENT_FILE`].
pub const START_TREE_FILE: &str = "start.nwk";
const UDS_TRACE_FILE: &str = "uds-trace.jsonl";

/// A parallel scheme.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scheme {
    /// `MlSearch::run` on a `LikelihoodEngine`.
    Serial,
    /// The same on a `ForkJoinEvaluator`.
    ForkJoin,
    /// `run_replicated_ft`, threads transport.
    Replicated,
    /// `phylomic search --scheme replicated --transport uds`.
    Uds,
}

impl Scheme {
    /// All four, in the order a lap runs them (before rotation).
    pub const ALL: [Scheme; 4] = [
        Scheme::Serial,
        Scheme::ForkJoin,
        Scheme::Replicated,
        Scheme::Uds,
    ];

    /// The schemes with an end-to-end metric; the only ones an untraced
    /// run pays for.
    pub const GATED: [Scheme; 2] = [Scheme::Serial, Scheme::ForkJoin];

    /// Short name.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Serial => "serial",
            Scheme::ForkJoin => "forkjoin",
            Scheme::Replicated => "replicated",
            Scheme::Uds => "uds",
        }
    }

    /// The metric holding this scheme's wall time.
    pub fn wall_metric(self) -> &'static str {
        match self {
            Scheme::Serial => "wall_serial_s",
            Scheme::ForkJoin => "wall_forkjoin_s",
            Scheme::Replicated => "replicated.wall_s",
            Scheme::Uds => "uds.wall_s",
        }
    }
}

/// Everything a search needs, parsed once from the generated files.
pub struct Prepared {
    /// Pattern-compressed alignment.
    pub aln: CompressedAlignment,
    /// Start tree, as parsed from [`START_TREE_FILE`] (every scheme
    /// must start from this exact arena: edge enumeration order steers
    /// the hill-climb).
    pub start: Tree,
    /// Engine configuration: `auto` everywhere, the workload's α.
    pub config: EngineConfig,
    /// The search.
    pub search: MlSearch,
    /// Where the files are, and where the CLI runs.
    pub scratch: PathBuf,
    /// The `phylomic` binary.
    pub cli: PathBuf,
    /// The CLI flags of this workload's search.
    pub cli_flags: Vec<String>,
}

/// Engine and search configuration of `workload`, and the CLI flags
/// that spell the same thing.
pub fn configure(workload: &Workload) -> (EngineConfig, MlSearch, Vec<String>) {
    let config = EngineConfig {
        alpha: workload.start_alpha(),
        ..EngineConfig::default()
    };
    let search = MlSearch::new(SearchConfig {
        max_rounds: workload.rounds,
        optimize_model: workload.model_opt,
        ..SearchConfig::default()
    });
    let mut flags: Vec<String> = [
        "--alignment",
        ALIGNMENT_FILE,
        "--tree",
        START_TREE_FILE,
        "--rounds",
    ]
    .map(String::from)
    .to_vec();
    flags.push(workload.rounds.to_string());
    flags.push("--alpha".into());
    flags.push(workload.start_alpha().to_string());
    if !workload.model_opt {
        flags.push("--no-model-opt".into());
    }
    (config, search, flags)
}

/// Counts that must repeat exactly from run to run.
pub type Counts = BTreeMap<String, u64>;

/// What only the serial scheme can report.
#[derive(Debug)]
pub struct SerialDetail {
    /// The engine's kernel counters and timings.
    pub stats: Box<KernelStats>,
    /// Site-repeat effectiveness.
    pub repeats: RepeatStats,
    /// Final Γ shape.
    pub alpha: f64,
    /// Final GTR parameters.
    pub model: GtrParams,
    /// Resolved `Auto` verdicts: backend, repeat mode, blocking.
    pub verdicts: [String; 3],
}

/// What only fork-join can report.
#[derive(Debug)]
pub struct ForkJoinDetail {
    /// Parallel regions of the search.
    pub regions: u64,
    /// Master time at the fork barrier.
    pub fork_ns: u64,
    /// Master time at the join barrier.
    pub join_ns: u64,
    /// Kernel time summed over workers.
    pub worker_kernel_ns: u64,
    /// Pool start + stop.
    pub startstop_s: f64,
}

/// What only the threads-backed replicated scheme can report.
#[derive(Debug)]
pub struct ReplicatedDetail {
    /// Rank 0's collectives.
    pub comm: CommStats,
    /// Collective wall time, summed over ranks.
    pub wire: WireStats,
    /// Kernel time summed over ranks.
    pub kernel_ns: u64,
}

/// Figures from the CLI's own `--trace-out` file.
#[derive(Clone, Copy, Debug)]
pub struct CliTrace {
    /// Collectives, summed over ranks.
    pub wire_ops: u64,
    /// Their wall time, summed over ranks.
    pub wire_ns: u64,
    /// Rank 0's kernel time.
    pub kernel_ns: u64,
}

/// What only the process-per-rank scheme can report.
#[derive(Debug)]
pub struct UdsDetail {
    /// The CLI's own `time` figure (10 ms resolution).
    pub search_s: f64,
    /// The CLI's trace (traced runs only).
    pub trace: Option<CliTrace>,
}

/// Scheme-specific figures of one search.
#[derive(Debug)]
pub enum Detail {
    /// Serial.
    Serial(SerialDetail),
    /// Fork-join.
    ForkJoin(ForkJoinDetail),
    /// Replicated, threads.
    Replicated(ReplicatedDetail),
    /// Replicated, one process per rank.
    Uds(UdsDetail),
}

/// One finished search.
#[derive(Debug)]
pub struct Outcome {
    /// Wall time of the operation, as the scheme's metric defines it.
    pub wall_s: f64,
    /// Final log-likelihood.
    pub logl: f64,
    /// Final tree.
    pub newick: String,
    /// Exactly repeatable counts.
    pub counts: Counts,
    /// Harness spans (traced serial and fork-join runs).
    pub spans: Option<SpanLog>,
    /// Scheme-specific figures.
    pub detail: Detail,
}

impl Outcome {
    /// The serial figures, if this was a serial search.
    pub fn serial(&self) -> Option<&SerialDetail> {
        match &self.detail {
            Detail::Serial(d) => Some(d),
            _ => None,
        }
    }

    /// The fork-join figures, if this was a fork-join search.
    pub fn forkjoin(&self) -> Option<&ForkJoinDetail> {
        match &self.detail {
            Detail::ForkJoin(d) => Some(d),
            _ => None,
        }
    }

    /// The replicated figures, if this was a threads-backed search.
    pub fn replicated(&self) -> Option<&ReplicatedDetail> {
        match &self.detail {
            Detail::Replicated(d) => Some(d),
            _ => None,
        }
    }

    /// The UDS figures, if this was a CLI search.
    pub fn uds(&self) -> Option<&UdsDetail> {
        match &self.detail {
            Detail::Uds(d) => Some(d),
            _ => None,
        }
    }
}

fn search_counts(counts: &mut Counts, rounds: usize, evaluated: usize, accepted: usize) {
    counts.insert("search.rounds".into(), rounds as u64);
    counts.insert("search.spr_evaluated".into(), evaluated as u64);
    counts.insert("search.spr_accepted".into(), accepted as u64);
}

fn kernel_counts(counts: &mut Counts, stats: &KernelStats) {
    for op in KernelOp::ALL {
        let c = stats.op(op);
        counts.insert(format!("kernel.{}.calls", op.name()), c.calls);
        counts.insert(format!("kernel.{}.sites", op.name()), c.sites);
    }
}

/// Summed kernel wall time of `stats`.
pub fn kernel_ns(stats: &KernelStats) -> u64 {
    KernelOp::ALL.iter().map(|&op| stats.op(op).total_ns).sum()
}

/// Turns a panic inside a timed operation into a failed operation.
fn guarded<T>(body: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(body)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic payload");
        Err(format!("panicked: {msg}"))
    })
}

/// Runs the search on `eval`, under the harness clock when `traced`.
fn drive<E: Evaluator>(
    eval: E,
    search: &MlSearch,
    tree: &mut Tree,
    traced: bool,
) -> (E, SearchResult, Option<SpanLog>) {
    if traced {
        let mut timed = TimedEvaluator::new(eval);
        let result = timed.run(search, tree);
        let (eval, log) = timed.into_parts();
        (eval, result, Some(log))
    } else {
        let mut eval = eval;
        let result = search.run(&mut eval, tree);
        (eval, result, None)
    }
}

fn run_serial(p: &Prepared, traced: bool) -> Result<Outcome, String> {
    let mut tree = p.start.clone();
    let engine = LikelihoodEngine::new(&tree, &p.aln, p.config);
    let t0 = Instant::now();
    let (engine, result, spans) = drive(engine, &p.search, &mut tree, traced);
    let wall_s = t0.elapsed().as_secs_f64();

    let mut counts = Counts::new();
    search_counts(
        &mut counts,
        result.rounds,
        result.spr_evaluated,
        result.spr_accepted,
    );
    kernel_counts(&mut counts, engine.stats());
    let r = engine.repeat_stats();
    counts.insert("repeats.newview_calls".into(), r.newview_calls);
    counts.insert("repeats.compressed_calls".into(), r.compressed_calls);
    counts.insert("repeats.sites".into(), r.sites);
    counts.insert("repeats.classes".into(), r.classes);
    Ok(Outcome {
        wall_s,
        logl: result.log_likelihood,
        newick: result.newick,
        counts,
        spans,
        detail: Detail::Serial(SerialDetail {
            stats: Box::new(engine.stats().clone()),
            repeats: r,
            alpha: engine.alpha(),
            model: *engine.model(),
            verdicts: [
                engine.kernel_kind().to_string(),
                engine.site_repeats().to_string(),
                engine.blocking().to_string(),
            ],
        }),
    })
}

fn run_forkjoin(p: &Prepared, traced: bool) -> Result<Outcome, String> {
    let mut tree = p.start.clone();
    let t0 = Instant::now();
    let fj = ForkJoinEvaluator::new(&tree, &p.aln, p.config, FORKJOIN_WORKERS);
    let start_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let (mut fj, result, spans) = drive(fj, &p.search, &mut tree, traced);
    let run_s = t1.elapsed().as_secs_f64();

    // Reading the counters is not part of the operation (collecting
    // the workers' stats is itself a region, so the count comes first).
    let regions = fj.regions();
    let master = *fj.master_stats().regions();
    let mut workers = KernelStats::new();
    for s in fj.take_stats_per_worker() {
        workers.merge(&s);
    }
    let t2 = Instant::now();
    drop(fj);
    let stop_s = t2.elapsed().as_secs_f64();

    let mut counts = Counts::new();
    search_counts(
        &mut counts,
        result.rounds,
        result.spr_evaluated,
        result.spr_accepted,
    );
    kernel_counts(&mut counts, &workers);
    counts.insert("forkjoin.regions".into(), regions);
    Ok(Outcome {
        wall_s: start_s + run_s + stop_s,
        logl: result.log_likelihood,
        newick: result.newick,
        counts,
        spans,
        detail: Detail::ForkJoin(ForkJoinDetail {
            regions,
            fork_ns: master.fork.total_ns(),
            join_ns: master.join.total_ns(),
            worker_kernel_ns: kernel_ns(&workers),
            startstop_s: start_s + stop_s,
        }),
    })
}

fn run_replicated(p: &Prepared) -> Result<Outcome, String> {
    let t0 = Instant::now();
    let out = run_replicated_ft(&p.start, &p.aln, p.config, p.search, &FtConfig::new(RANKS))
        .map_err(|e| e.to_string())?;
    let wall_s = t0.elapsed().as_secs_f64();
    if out
        .rank_likelihoods
        .iter()
        .any(|l| l.to_bits() != out.result.log_likelihood.to_bits())
    {
        return Err(format!("ranks left lockstep: {:?}", out.rank_likelihoods));
    }

    let mut counts = Counts::new();
    let r = &out.result;
    search_counts(&mut counts, r.rounds, r.spr_evaluated, r.spr_accepted);
    kernel_counts(&mut counts, &out.kernel_stats);
    counts.insert("replicated.allreduces".into(), out.comm_stats.allreduces);
    counts.insert("replicated.allreduce_bytes".into(), out.comm_stats.bytes);
    counts.insert("replicated.barriers".into(), out.comm_stats.barriers);
    counts.insert("replicated.wire_ops".into(), out.wire.ops);
    Ok(Outcome {
        wall_s,
        logl: r.log_likelihood,
        newick: out.result.newick.clone(),
        counts,
        spans: None,
        detail: Detail::Replicated(ReplicatedDetail {
            comm: out.comm_stats,
            wire: out.wire,
            kernel_ns: kernel_ns(&out.kernel_stats),
        }),
    })
}

/// The CLI's summary line: `logL X  rounds R  moves A/E  time Ts`.
fn parse_cli_summary(stdout: &str) -> Option<(f64, usize, usize, usize, f64)> {
    let line = stdout.lines().find(|l| l.starts_with("logL "))?;
    let f: Vec<&str> = line.split_whitespace().collect();
    let at = |key: &str| f.iter().position(|&w| w == key).and_then(|i| f.get(i + 1));
    let (accepted, evaluated) = at("moves")?.split_once('/')?;
    Some((
        at("logL")?.parse().ok()?,
        at("rounds")?.parse().ok()?,
        accepted.parse().ok()?,
        evaluated.parse().ok()?,
        at("time")?.strip_suffix('s')?.parse().ok()?,
    ))
}

/// Reads the CLI's JSONL trace.
fn read_cli_trace(path: &Path) -> Result<CliTrace, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let events = parse_jsonl(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    let kernel_ns = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Op { total_ns, .. } => Some(total_ns),
            _ => None,
        })
        .sum();
    events
        .iter()
        .find_map(|e| match *e {
            TraceEvent::Meta {
                wire_ops, wire_ns, ..
            } => Some(CliTrace {
                wire_ops,
                wire_ns,
                kernel_ns,
            }),
            _ => None,
        })
        .ok_or_else(|| format!("{}: no meta event", path.display()))
}

fn run_uds(p: &Prepared, traced: bool, watchdog: Duration) -> Result<Outcome, String> {
    let out_file = "uds-best.nwk";
    let mut cmd = Command::new(&p.cli);
    cmd.current_dir(&p.scratch)
        // Sockets go where the CLI's temp dir points; a relative path
        // keeps them inside the scratch directory and far below the
        // 108-byte limit on socket paths.
        .env("TMPDIR", ".")
        .arg("search")
        .args(&p.cli_flags)
        .args([
            "--scheme",
            "replicated",
            "--transport",
            "uds",
            "--out",
            out_file,
        ])
        .args(["--threads", &RANKS.to_string()]);
    if traced {
        cmd.args(["--trace-out", UDS_TRACE_FILE]);
    }
    let ChildRun {
        wall,
        status,
        stdout,
        stderr,
        timed_out,
        leftover,
    } = run_group(cmd, watchdog).map_err(|e| format!("{}: {e}", p.cli.display()))?;
    if timed_out {
        return Err(format!(
            "watchdog: no exit within {watchdog:?}; process group killed"
        ));
    }
    if !status.success() {
        return Err(format!("CLI exited with {status}: {}", stderr.trim()));
    }
    if leftover > 0 {
        return Err(format!(
            "{leftover} rank process(es) outlived the supervisor"
        ));
    }
    let (logl, rounds, accepted, evaluated, search_s) = parse_cli_summary(&stdout)
        .ok_or_else(|| format!("no summary line in CLI output: {stdout:?}"))?;
    let newick = std::fs::read_to_string(p.scratch.join(out_file))
        .map_err(|e| format!("{out_file}: {e}"))?;
    let trace = if traced {
        Some(read_cli_trace(&p.scratch.join(UDS_TRACE_FILE))?)
    } else {
        None
    };

    let mut counts = Counts::new();
    search_counts(&mut counts, rounds, evaluated, accepted);
    if let Some(t) = trace {
        counts.insert("uds.wire_ops".into(), t.wire_ops);
    }
    Ok(Outcome {
        wall_s: wall.as_secs_f64(),
        logl,
        newick: newick.trim().to_string(),
        counts,
        spans: None,
        detail: Detail::Uds(UdsDetail { search_s, trace }),
    })
}

/// Runs one search under `scheme`. An error is a failed operation.
pub fn run(
    scheme: Scheme,
    p: &Prepared,
    traced: bool,
    watchdog: Duration,
) -> Result<Outcome, String> {
    let t0 = Instant::now();
    let outcome = guarded(|| match scheme {
        Scheme::Serial => run_serial(p, traced),
        Scheme::ForkJoin => run_forkjoin(p, traced),
        Scheme::Replicated => run_replicated(p),
        Scheme::Uds => run_uds(p, traced, watchdog),
    })?;
    // In-process searches cannot be interrupted; one that overran the
    // watchdog is still a failed operation.
    if t0.elapsed() > watchdog {
        return Err(format!(
            "took {:?}, over the {watchdog:?} watchdog",
            t0.elapsed()
        ));
    }
    if !outcome.logl.is_finite() {
        return Err(format!("non-finite logL {}", outcome.logl));
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_summary_line_parses() {
        let out =
            "logL -348678.588026  rounds 1  moves 23/311  time 3.29s\nbest tree written to x\n";
        assert_eq!(
            parse_cli_summary(out),
            Some((-348678.588026, 1, 23, 311, 3.29))
        );
        assert_eq!(parse_cli_summary("error: nope\n"), None);
    }

    #[test]
    fn workload_flags_spell_the_in_process_configuration() {
        let (config, search, flags) = configure(&crate::spec::WORKLOADS[0]);
        assert_eq!(config.alpha, 0.85);
        assert!(!search.config.optimize_model && search.config.max_rounds == 1);
        assert_eq!(
            flags.join(" "),
            "--alignment aln.phy --tree start.nwk --rounds 1 --alpha 0.85 --no-model-opt"
        );
        let (config, search, flags) = configure(&crate::spec::WORKLOADS[2]);
        assert_eq!(config.alpha, 1.0);
        assert!(search.config.optimize_model && search.config.max_rounds == 0);
        assert!(!flags.contains(&"--no-model-opt".to_string()));
    }
}
