//! `phylomic` — command-line interface to the library.
//!
//! Subcommands:
//!
//! ```text
//! phylomic simulate --taxa 15 --sites 10000 --out data.phy [--alpha 0.85] [--seed 42]
//! phylomic evaluate --alignment data.phy --tree tree.nwk [--alpha 0.85]
//! phylomic search   --alignment data.phy [--tree start.nwk] [--scheme serial|forkjoin|replicated]
//!                   [--threads 4] [--rounds 20] [--checkpoint run.ckp] [--out best.nwk]
//! ```
//!
//! Alignments are PHYLIP (`.phy`) or FASTA (anything else); trees are
//! Newick. Argument parsing is deliberately dependency-free.

use phylomic::bio::{fasta, phylip, Alignment, CompressedAlignment};
use phylomic::models::{DiscreteGamma, Gtr, GtrParams};
use phylomic::parallel::forkjoin::split_ranges;
use phylomic::parallel::{
    run_replicated_ft, FaultPlan, ForkJoinEvaluator, FtConfig, TransportKind,
};
use phylomic::plf::trace::{
    events_from_metrics, events_from_spans, events_from_stats, write_jsonl, TraceEvent,
    TRACE_VERSION,
};
use phylomic::plf::{clock, metrics, span, Blocking, EngineConfig, LikelihoodEngine};
use phylomic::search::{Evaluator, MlSearch, SearchConfig, SearchResult};
use phylomic::tree::build::{default_names, random_tree};
use phylomic::tree::{newick, Tree};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    seed_calibration();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let Some(&(_, accepted, run)) = COMMANDS.iter().find(|(name, ..)| name == cmd) else {
        eprintln!("error: unknown subcommand {cmd:?}");
        return ExitCode::FAILURE;
    };
    let opts = match parse_opts(rest, accepted) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type Command = fn(&Opts) -> Result<(), String>;

/// What `search` and a `_rank` child it spawns both read — the valued
/// options of `search_inputs`, which `run_sharded` passes through, and
/// the three it handles one by one.
const SEARCH_INPUT_OPTS: &[&str] = &["alignment", "tree", "start", "seed", "alpha", "rounds"];
const RANK_OPTS: &[&str] = &["no-model-opt", "checkpoint", "inject-fault"];

/// Every subcommand: its name, the options it reads, in groups (every
/// `opts.get` / `get(opts, …)` / `require` / `contains_key` key on its
/// path, and nothing else — `parse_opts` refuses the rest), its body.
/// `tests/cli.rs::options_listed_are_exactly_the_options_read` holds
/// the union of the groups to the keys this file reads.
const COMMANDS: &[(&str, &[&[&str]], Command)] = &[
    (
        "simulate",
        &[&["taxa", "sites", "alpha", "seed", "out"]],
        cmd_simulate,
    ),
    (
        "evaluate",
        &[&["alignment", "tree", "alpha", "trace-out", "chrome-out"]],
        cmd_evaluate,
    ),
    (
        "search",
        &[
            SEARCH_INPUT_OPTS,
            RANK_OPTS,
            &[
                "scheme",
                "threads",
                "transport",
                "degrade",
                "out",
                "trace-out",
                "chrome-out",
            ],
        ],
        cmd_search,
    ),
    (
        "bootstrap",
        &[&["alignment", "seed", "replicates", "rounds", "alpha", "out"]],
        cmd_bootstrap,
    ),
    ("trace-report", &[&["trace", "format"]], cmd_trace_report),
    ("calibrate", &[&["out", "force"]], cmd_calibrate),
    // Hidden: the socket transport's child-rank entry. The supervisor
    // (`search --transport uds`) spawns these; not part of the
    // user-facing surface.
    #[cfg(unix)]
    (
        "_rank",
        &[
            SEARCH_INPUT_OPTS,
            RANK_OPTS,
            &["rank-id", "ranks", "endpoint"],
        ],
        cmd_rank,
    ),
];

const USAGE: &str = "phylomic — phylogenetic likelihood toolkit (PLF-on-MIC reproduction)

USAGE:
  phylomic simulate --taxa N --sites M --out FILE [--alpha A] [--seed S]
  phylomic evaluate --alignment FILE --tree FILE [--alpha A]
                    [--trace-out FILE] [--chrome-out FILE]
  phylomic search   --alignment FILE [--tree FILE | --start random|parsimony]
                    [--scheme serial|forkjoin|replicated] [--threads N] [--rounds R]
                    [--alpha A] [--checkpoint FILE] [--out FILE]
                    [--seed S] [--no-model-opt] [--trace-out FILE] [--chrome-out FILE]
                    [--inject-fault SPEC] [--degrade] [--transport threads|uds]
  phylomic bootstrap --alignment FILE [--replicates N] [--rounds R] [--seed S]
                    [--out FILE]
  phylomic trace-report --trace FILE [--format text|json]
  phylomic calibrate [--out FILE] [--force]

Alignments: PHYLIP when the path ends in .phy, FASTA otherwise.
The PLF kernel backend is chosen from the host: explicit SIMD when the
CPU supports it (512-bit vectors with AVX-512F, 256-bit with AVX2+FMA
alone, same results bit for bit), the scalar reference loops otherwise.
evaluate and search print it and its vector width (`kernel backend:
simd  simd_width_bits 512`; 0 = scalar loops), and both are recorded in
the JSONL trace meta event. The traversal is walked in cache-sized site
blocks when an engine's pattern slice exceeds one block (bit-identical
results; the mode is recorded in the trace meta event). Block size
comes from the calibrated per-core cache (phylomic calibrate), falling
back to a 1 MiB budget.
--trace-out dumps kernel timings, fork-join region latencies, spans and
metrics as JSONL, in the format micsim's measured-cost calibration
(`MeasuredHostCosts::from_jsonl`) and `trace-report` consume.
--chrome-out (evaluate/search) writes the span timeline as Chrome
trace-event JSON, loadable in Perfetto / chrome://tracing, one track
per thread that records spans: the searching thread (a fork-join
worker records none; its kernel time is in the --trace-out op events).
trace-report prints per-kernel time shares, fork/join overhead, worker
load imbalance, the calibration cost table, and the modeled per-op
roofline placement (GFLOP/s, GB/s, arithmetic intensity, % of the
calibrated roof). --format json emits the same report as one JSON
object for tooling. It reads the trace schema this build writes (v9)
and refuses any other.
calibrate measures single-core peak bandwidth (STREAM triad), peak
FLOP/s (FMA chains), streamed copy throughput and the per-core cache
size, and caches them with host provenance in HOST_ROOFLINE.json
(--out overrides, --force re-measures); once the cache exists,
evaluate/search stamp the peaks into the trace meta so trace-report
can compute % of roofline, and the cache size sets the traversal block
size.
--checkpoint works with every scheme; under replicated, rank 0 writes
and all ranks resume from the same snapshot.
--threads is the number of threads that compute, under both parallel
schemes: replicated runs N ranks; forkjoin splits the patterns into N
slices, the master computes slice 0 inside every region and N - 1
spawned workers the rest (--threads 1 is the serial engine behind the
region protocol). An option the chosen scheme would not read is
refused: --threads 2+ under serial, --transport or --degrade outside
replicated, --inject-fault under serial.
--inject-fault scripts deterministic failures into a replicated or
fork-join run, e.g. 'rank=2,allreduce=40' (rank 2 dies at its 40th
AllReduce), 'rank=1,region=3' (the fork-join job panics on pattern
slice 1 in its 3rd region; slices are numbered like threads, 0 = the
master's own, R >= 1 = worker R - 1's) or 'ckpt-write=1,count=2' (first
two checkpoint write attempts fail); faults are ';'-separated and each
fires exactly once.
--degrade makes a replicated run survive rank failures: the pattern
ranges are re-split over the survivors, the last checkpoint is
reloaded, and the search resumes with fewer ranks.
--transport (replicated only) picks what backs the ranks: 'threads'
(default) runs them as in-process threads; 'uds' spawns one OS process
per rank joined over Unix domain sockets (rank 0 runs in the
supervisor), with identical results — and real process isolation, so
--degrade recovery works against actual kill -9 process death
('rank=R,kill9=N' in --inject-fault SIGKILLs rank R's process at its
N-th AllReduce). The resolved transport and measured per-collective
wire time are recorded in the trace meta and shown by trace-report next
to micsim's modeled AllReduce latency.";

/// Seeds the in-process host calibration from a cached
/// HOST_ROOFLINE.json, if one exists in the working directory: the
/// per-core cache size drives traversal block sizing. First-wins; a
/// missing or pre-cache-probe file leaves the built-in default (1 MiB
/// block budget) active.
fn seed_calibration() {
    if let Some(r) =
        plf_prof::roofline::load_cached(std::path::Path::new(plf_prof::roofline::CACHE_FILE))
    {
        if r.peak_mbps > 0 {
            phylomic::plf::cost::set_calibration(phylomic::plf::ProfitCalibration {
                kernel_mbps: r.peak_mbps,
                copy_mbps: r.copy_mbps,
                cache_bytes: r.cache_bytes,
            });
        }
    }
}

/// Writes `content` to `path` atomically and durably (same-directory
/// temp file + fsync + rename + parent-dir fsync), so a crash
/// mid-write never leaves a truncated trace. Shares the checkpoint
/// layer's implementation so trace and checkpoint writes have
/// identical crash semantics.
fn write_atomic(path: &str, content: &str) -> Result<(), String> {
    phylomic::search::checkpoint::write_atomic(std::path::Path::new(path), content)
        .map_err(|e| format!("{path}: {e}"))
}

/// Writes trace events as JSONL to `path` (atomically).
fn write_trace(path: &str, events: &[TraceEvent]) -> Result<(), String> {
    write_atomic(path, &write_jsonl(events))?;
    println!(
        "kernel timing trace written to {path} ({} events)",
        events.len()
    );
    Ok(())
}

/// Wraps per-source kernel/region events into a full trace document:
/// schema marker (with the resolved kernel backend, blocking mode and
/// — for replicated runs — the transport and its measured wire time,
/// so `trace-report` attributes timings to a configuration)
/// first, then the kernel aggregates, then every closed span from
/// every thread track, then a process-wide metrics snapshot.
fn full_trace(
    config: EngineConfig,
    slice_patterns: usize,
    transport: &str,
    wire: phylomic::parallel::WireStats,
    kernel_events: Vec<TraceEvent>,
) -> Vec<TraceEvent> {
    let tracks = span::snapshot_all();
    // If a cached calibration exists next to the working directory, stamp
    // its peaks into the meta so trace-report can place kernels on the
    // host roofline without re-calibrating.
    let (roofline_mflops, roofline_mbps) =
        plf_prof::roofline::load_cached(std::path::Path::new(plf_prof::roofline::CACHE_FILE))
            .map(|r| (r.peak_mflops, r.peak_mbps))
            .unwrap_or((0, 0));
    // `auto` blocking resolves against each engine's own pattern slice;
    // the meta records the mode the run's largest slice actually used.
    let blocking = if config.blocking.resolve(slice_patterns).is_some() {
        Blocking::On
    } else {
        Blocking::Off
    };
    let backend = config.kernel.resolve();
    let mut out = vec![TraceEvent::Meta {
        version: TRACE_VERSION,
        backend: backend.to_string(),
        simd_width_bits: backend.simd_width_bits().into(),
        blocking: blocking.to_string(),
        spans_dropped: tracks.iter().map(|t| t.dropped).sum(),
        roofline_mflops,
        roofline_mbps,
        transport: transport.to_string(),
        wire_ops: wire.ops,
        wire_ns: wire.total_ns,
    }];
    out.extend(kernel_events);
    out.extend(events_from_spans(&tracks));
    out.extend(events_from_metrics("process", &metrics::snapshot()));
    out
}

/// Says which kernel bodies a run measures: the resolved backend and
/// the vector width it runs on this host (0 = the scalar loops).
fn print_backend(config: EngineConfig) {
    let backend = config.kernel.resolve();
    println!(
        "kernel backend: {backend}  simd_width_bits {}",
        backend.simd_width_bits()
    );
}

/// Writes the span timeline as Chrome trace-event JSON (atomically).
fn write_chrome(path: &str) -> Result<(), String> {
    let tracks = span::snapshot_all();
    write_atomic(path, &span::chrome_trace_json(&tracks))?;
    println!(
        "chrome trace written to {path} ({} tracks); open in Perfetto or chrome://tracing",
        tracks.len()
    );
    Ok(())
}

fn cmd_trace_report(opts: &Opts) -> Result<(), String> {
    let path = require(opts, "trace")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let report = phylomic::micsim::TraceReport::from_jsonl(&text).map_err(|e| e.to_string())?;
    match opts.get("format").map(String::as_str) {
        None | Some("text") => print!("{}", report.render()),
        Some("json") => print!("{}", report.render_json()),
        Some(other) => return Err(format!("--format must be text or json, got {other:?}")),
    }
    Ok(())
}

fn cmd_calibrate(opts: &Opts) -> Result<(), String> {
    let out = opts
        .get("out")
        .map(String::as_str)
        .unwrap_or(plf_prof::roofline::CACHE_FILE);
    let path = std::path::Path::new(out);
    let force = opts.contains_key("force");
    let (r, source) = match plf_prof::roofline::load_cached(path) {
        Some(cached) if !force => (cached, "cached"),
        _ => {
            println!("calibrating single-core roofline (a few seconds)...");
            let fresh = plf_prof::roofline::measure();
            fresh.save(path).map_err(|e| format!("{out}: {e}"))?;
            (fresh, "measured")
        }
    };
    println!(
        "roofline ({source}, {out}): {:.2} GFLOP/s peak compute, {:.2} GB/s peak bandwidth, \
         ridge {:.3} flop/byte",
        r.peak_mflops as f64 / 1e3,
        r.peak_mbps as f64 / 1e3,
        r.ridge()
    );
    println!(
        "host: {} ({} cores, simd {}), git {}",
        r.cpu_model, r.cores, r.simd, r.git_rev
    );
    println!(
        "copy/blocking probes: copy {:.2} GB/s, per-core cache {} KiB{}",
        r.copy_mbps as f64 / 1e3,
        r.cache_bytes >> 10,
        if r.copy_mbps == 0 || r.cache_bytes == 0 {
            " (unmeasured — re-run with --force to probe)"
        } else {
            ""
        }
    );
    Ok(())
}

type Opts = HashMap<String, String>;

/// Parses `--name value` pairs (and the bare flags), refusing any
/// name the subcommand does not read: a mistyped option must not run
/// the default silently.
fn parse_opts(args: &[String], accepted: &[&[&str]]) -> Result<Opts, String> {
    let mut opts = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected --option, found {key:?}"));
        };
        if !accepted.iter().any(|group| group.contains(&name)) {
            return Err(match retired_hint(name) {
                Some(hint) => format!("unknown option --{name} ({hint})"),
                None => format!("unknown option --{name}"),
            });
        }
        if matches!(name, "no-model-opt" | "degrade" | "force") {
            opts.insert(name.to_string(), "true".to_string());
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("--{name} requires a value"))?;
        opts.insert(name.to_string(), value.clone());
    }
    Ok(opts)
}

fn get<T: std::str::FromStr>(opts: &Opts, key: &str, default: T) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|e| format!("--{key}: {e}")),
    }
}

fn require<'a>(opts: &'a Opts, key: &str) -> Result<&'a str, String> {
    opts.get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("--{key} is required"))
}

/// What to type instead of an option that used to exist.
fn retired_hint(name: &str) -> Option<String> {
    match name {
        "kernels" | "blocking" | "kernel" => Some(
            "removed: the kernel backend and blocking are chosen from the host, \
             and printed on the `kernel backend:` line and in the trace meta"
                .to_string(),
        ),
        "site-repeats" => {
            Some("removed: the search is bit-identical without it, see DESIGN.md §13".to_string())
        }
        _ => None,
    }
}

fn load_alignment(path: &str) -> Result<Alignment, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let aln = if path.ends_with(".phy") {
        phylip::parse_str(&text)
    } else {
        fasta::parse_str(&text)
    };
    aln.map_err(|e| format!("{path}: {e}"))
}

fn load_tree(path: &str) -> Result<Tree, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    newick::parse(text.trim()).map_err(|e| format!("{path}: {e}"))
}

fn cmd_simulate(opts: &Opts) -> Result<(), String> {
    let taxa: usize = get(opts, "taxa", 15)?;
    let sites: usize = get(opts, "sites", 10_000)?;
    let alpha: f64 = get(opts, "alpha", 0.85)?;
    let seed: u64 = get(opts, "seed", 42)?;
    let out = require(opts, "out")?;
    if taxa < 3 {
        return Err("--taxa must be at least 3".into());
    }

    let mut rng = SmallRng::seed_from_u64(seed);
    let names = default_names(taxa);
    let tree = random_tree(&names, 0.12, &mut rng).map_err(|e| e.to_string())?;
    let gtr = Gtr::new(GtrParams {
        rates: [1.1, 2.6, 0.8, 1.2, 3.4, 1.0],
        freqs: [0.29, 0.21, 0.22, 0.28],
    });
    let gamma = DiscreteGamma::new(alpha);
    let aln = phylomic::seqgen::simulate_alignment(&tree, gtr.eigen(), &gamma, sites, &mut rng);

    let rendered = if out.ends_with(".phy") {
        phylip::to_string(&aln)
    } else {
        fasta::to_string(&aln)
    };
    std::fs::write(out, rendered).map_err(|e| e.to_string())?;
    std::fs::write(
        format!("{out}.tree"),
        format!("{}\n", newick::to_newick(&tree)),
    )
    .map_err(|e| e.to_string())?;
    println!("wrote {out} ({taxa} taxa x {sites} sites) and {out}.tree (true tree)");
    Ok(())
}

fn cmd_evaluate(opts: &Opts) -> Result<(), String> {
    span::set_thread_label("serial");
    let aln = load_alignment(require(opts, "alignment")?)?;
    let tree = load_tree(require(opts, "tree")?)?;
    let alpha: f64 = get(opts, "alpha", 1.0)?;
    let compressed = CompressedAlignment::from_alignment(&aln);
    let config = EngineConfig {
        alpha,
        ..EngineConfig::default()
    };
    let mut engine = LikelihoodEngine::new(&tree, &compressed, config);
    let ll = engine.log_likelihood(&tree, 0);
    println!(
        "patterns {} (from {} sites)  alpha {alpha}  logL {ll:.6}",
        compressed.num_patterns(),
        aln.num_sites()
    );
    print_backend(config);
    if let Some(path) = opts.get("trace-out") {
        write_trace(
            path,
            &full_trace(
                config,
                compressed.num_patterns(),
                "",
                Default::default(),
                events_from_stats("serial", engine.stats()),
            ),
        )?;
    }
    if let Some(path) = opts.get("chrome-out") {
        write_chrome(path)?;
    }
    Ok(())
}

/// Deterministic search inputs shared by the `search` supervisor and
/// the hidden `_rank` child entry: both rebuild byte-identical inputs
/// from the same flags (seeded tree construction included), which is
/// what keeps the OS-process ranks in lockstep with rank 0.
struct SearchInputs {
    aln: Alignment,
    compressed: CompressedAlignment,
    tree: Tree,
    config: EngineConfig,
    search: MlSearch,
}

fn search_inputs(opts: &Opts) -> Result<SearchInputs, String> {
    let aln = load_alignment(require(opts, "alignment")?)?;
    let compressed = CompressedAlignment::from_alignment(&aln);
    let seed: u64 = get(opts, "seed", 1)?;
    let alpha: f64 = get(opts, "alpha", 1.0)?;
    let rounds: usize = get(opts, "rounds", 20)?;
    let tree = match opts.get("tree") {
        Some(path) => load_tree(path)?,
        None => match opts.get("start").map(String::as_str).unwrap_or("random") {
            "parsimony" => phylomic::search::parsimony::stepwise_addition_tree(
                &compressed,
                0.05,
                &mut SmallRng::seed_from_u64(seed),
            )
            .map_err(|e| e.to_string())?,
            "random" => {
                let names: Vec<String> = aln.names().map(str::to_string).collect();
                random_tree(&names, 0.1, &mut SmallRng::seed_from_u64(seed))
                    .map_err(|e| e.to_string())?
            }
            other => {
                return Err(format!(
                    "--start must be random or parsimony, got {other:?}"
                ))
            }
        },
    };
    let config = EngineConfig {
        alpha,
        ..EngineConfig::default()
    };
    let search = MlSearch::new(SearchConfig {
        max_rounds: rounds,
        optimize_model: !opts.contains_key("no-model-opt"),
        ..Default::default()
    });
    Ok(SearchInputs {
        aln,
        compressed,
        tree,
        config,
        search,
    })
}

fn fault_plan_of(opts: &Opts) -> Result<Option<std::sync::Arc<FaultPlan>>, String> {
    match opts.get("inject-fault") {
        Some(spec) => Ok(Some(std::sync::Arc::new(
            FaultPlan::parse(spec).map_err(|e| format!("--inject-fault: {e}"))?,
        ))),
        None => Ok(None),
    }
}

/// A rank failure unwinds via a `CommError` panic payload that the
/// rank body catches and reports structurally (to the supervisor's
/// caller, or through the hub); keeps the default hook's per-thread
/// backtrace spam off stderr for that expected path. Genuine panics
/// still print.
fn silence_comm_error_panics() {
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info
            .payload()
            .downcast_ref::<phylomic::parallel::CommError>()
            .is_none()
        {
            prev_hook(info);
        }
    }));
}

/// Child-rank process body (hidden `_rank` subcommand): rebuild the
/// supervisor's inputs from the pass-through flags, connect to the
/// hub, run the lockstep search over this rank's slice, report, exit.
#[cfg(unix)]
fn cmd_rank(opts: &Opts) -> Result<(), String> {
    use phylomic::parallel::{ChildRankArgs, TransportConfig};
    span::set_thread_label("rank");
    silence_comm_error_panics();
    let inputs = search_inputs(opts)?;
    let rank: usize = require(opts, "rank-id")?
        .parse()
        .map_err(|e| format!("--rank-id: {e}"))?;
    let ranks: usize = require(opts, "ranks")?
        .parse()
        .map_err(|e| format!("--ranks: {e}"))?;
    let endpoint = std::path::PathBuf::from(require(opts, "endpoint")?);
    let ft = FtConfig {
        checkpoint: opts.get("checkpoint").map(std::path::PathBuf::from),
        fault_plan: fault_plan_of(opts)?,
        ..FtConfig::new(ranks)
    };
    phylomic::parallel::run_rank(ChildRankArgs {
        rank,
        endpoint,
        tree: &inputs.tree,
        aln: &inputs.compressed,
        config: inputs.config,
        search: inputs.search,
        ft: &ft,
        tcfg: TransportConfig::from_env(),
    })
    .map_err(|e| format!("rank {rank}: {e}"))
}

/// Refuses an option the chosen scheme never reads (and a scheme that
/// does not exist): a run that ignores `--threads 4` or `--degrade`
/// must not look like one that honoured it.
fn check_scheme_options(opts: &Opts, scheme: &str, threads: usize) -> Result<(), String> {
    let (parallel, replicated) = match scheme {
        "serial" => (false, false),
        "forkjoin" => (true, false),
        "replicated" => (true, true),
        other => return Err(format!("unknown --scheme {other:?}")),
    };
    for (option, read, needs) in [
        ("transport", replicated, "replicated"),
        ("degrade", replicated, "replicated"),
        ("inject-fault", parallel, "replicated or forkjoin"),
    ] {
        if opts.contains_key(option) && !read {
            return Err(format!("--{option} needs --scheme {needs}"));
        }
    }
    if threads >= 2 && !parallel {
        return Err(format!(
            "--threads {threads} needs --scheme forkjoin or replicated"
        ));
    }
    Ok(())
}

fn cmd_search(opts: &Opts) -> Result<(), String> {
    span::set_thread_label("serial");
    let threads: usize = get(opts, "threads", 1)?;
    let scheme = opts.get("scheme").map(String::as_str).unwrap_or("serial");
    check_scheme_options(opts, scheme, threads)?;
    let SearchInputs {
        aln: _aln,
        compressed,
        mut tree,
        config,
        search,
    } = search_inputs(opts)?;
    let fault_plan = fault_plan_of(opts)?;
    let start = clock::now_ns();
    let trace_events: Vec<TraceEvent>;
    let mut trace_transport = String::new();
    let mut trace_wire = phylomic::parallel::WireStats::default();
    // The serial and fork-join arms share one checkpoint branch.
    let run = |evaluator: &mut dyn Evaluator, tree: &mut Tree| -> Result<SearchResult, String> {
        match opts.get("checkpoint") {
            Some(path) => search.run_checkpointed(evaluator, tree, std::path::Path::new(path)),
            None => Ok(search.run(evaluator, tree)),
        }
    };
    let result = match scheme {
        "serial" => {
            let mut engine = LikelihoodEngine::new(&tree, &compressed, config);
            let result = run(&mut engine, &mut tree)?;
            trace_events = events_from_stats("serial", engine.stats());
            result
        }
        "forkjoin" => {
            // --threads counts the threads that compute: the master
            // owns pattern slice 0, so it spawns one worker fewer.
            let mut fj = ForkJoinEvaluator::with_fault_plan(
                &tree,
                &compressed,
                config,
                threads.max(1) - 1,
                fault_plan,
            );
            // A job panic on any slice (injected via rank=R,region=N
            // or real) is re-raised by the master; turn it into a
            // structured exit instead of an abort trace.
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&mut fj, &mut tree)));
            let result = match outcome {
                Ok(r) => r?,
                Err(payload) => {
                    let msg = phylomic::parallel::panic_message(&*payload);
                    return Err(format!("fork-join region failed: {msg}"));
                }
            };
            trace_events = fj.take_trace_events();
            result
        }
        "replicated" => {
            let transport = get(opts, "transport", TransportKind::Threads)?;
            let ft = FtConfig {
                degrade: opts.contains_key("degrade"),
                checkpoint: opts.get("checkpoint").map(std::path::PathBuf::from),
                fault_plan,
                ..FtConfig::new(threads.max(1))
            };
            silence_comm_error_panics();
            let out = if transport == TransportKind::Uds {
                #[cfg(unix)]
                {
                    run_sharded(opts, &tree, &compressed, config, search, &ft)?
                }
                #[cfg(not(unix))]
                {
                    return Err("socket transports require a unix host".into());
                }
            } else {
                run_replicated_ft(&tree, &compressed, config, search, &ft)
                    .map_err(|e| e.to_string())?
            };
            trace_events = events_from_stats("replicated", &out.kernel_stats);
            trace_transport = out.transport.clone();
            trace_wire = out.wire;
            out.result
        }
        _ => unreachable!("check_scheme_options refused it"),
    };
    let elapsed = (clock::now_ns() - start) as f64 * 1e-9;
    println!(
        "logL {:.6}  rounds {}  moves {}/{}  time {elapsed:.2}s",
        result.log_likelihood, result.rounds, result.spr_accepted, result.spr_evaluated
    );
    print_backend(config);
    // The tree is the expensive artifact: persist it before the trace so
    // a bad --trace-out path cannot discard a long search's result.
    match opts.get("out") {
        Some(path) => {
            std::fs::write(path, format!("{}\n", result.newick)).map_err(|e| e.to_string())?;
            println!("best tree written to {path}");
        }
        None => println!("{}", result.newick),
    }
    if let Some(path) = opts.get("trace-out") {
        // Each of the run's `threads` engines holds one `split_ranges` slice.
        let slices = split_ranges(compressed.num_patterns(), threads.max(1));
        let largest_slice = slices.iter().map(|r| r.len()).max().unwrap_or(0);
        write_trace(
            path,
            &full_trace(
                config,
                largest_slice,
                &trace_transport,
                trace_wire,
                trace_events,
            ),
        )?;
    }
    if let Some(path) = opts.get("chrome-out") {
        write_chrome(path)?;
    }
    Ok(())
}

/// Supervisor side of `search --scheme replicated --transport uds`:
/// re-execs this binary's hidden `_rank` entry for ranks `1..n`,
/// passing through every flag the ranks need to rebuild identical
/// inputs, and runs rank 0 (plus the frame hub) in this process.
#[cfg(unix)]
fn run_sharded(
    opts: &Opts,
    tree: &Tree,
    compressed: &CompressedAlignment,
    config: EngineConfig,
    search: MlSearch,
    ft: &FtConfig,
) -> Result<phylomic::parallel::ReplicatedOutcome, String> {
    use phylomic::parallel::{run_sharded_ft, RankSpec, TransportConfig};
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut spawn = |spec: &RankSpec| {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("_rank")
            .arg("--rank-id")
            .arg(spec.rank.to_string())
            .arg("--ranks")
            .arg(spec.ranks.to_string())
            .arg("--endpoint")
            .arg(&spec.endpoint)
            // The supervisor owns the console; children stay quiet.
            .stdout(std::process::Stdio::null());
        // What a child needs to rebuild the supervisor's exact inputs.
        for key in SEARCH_INPUT_OPTS.iter().chain(&["checkpoint"]) {
            if let Some(v) = opts.get(*key) {
                cmd.arg(format!("--{key}")).arg(v);
            }
        }
        if opts.contains_key("no-model-opt") {
            cmd.arg("--no-model-opt");
        }
        // One-shot fault semantics across processes: a respawned
        // (degraded) child starts with fresh latches, so the scripted
        // faults ride along only on the first attempt.
        if spec.attempt == 1 {
            if let Some(v) = opts.get("inject-fault") {
                cmd.arg("--inject-fault").arg(v);
            }
        }
        cmd.spawn()
    };
    run_sharded_ft(
        tree,
        compressed,
        config,
        search,
        ft,
        &TransportConfig::from_env(),
        &mut spawn,
    )
    .map_err(|e| e.to_string())
}

fn cmd_bootstrap(opts: &Opts) -> Result<(), String> {
    use phylomic::search::bootstrap::{annotate_newick, run_bootstrap, BootstrapConfig};
    let aln = load_alignment(require(opts, "alignment")?)?;
    let compressed = CompressedAlignment::from_alignment(&aln);
    let seed: u64 = get(opts, "seed", 1)?;
    let replicates: usize = get(opts, "replicates", 20)?;
    let rounds: usize = get(opts, "rounds", 3)?;

    // Primary search from a parsimony start.
    let mut tree = phylomic::search::parsimony::stepwise_addition_tree(
        &compressed,
        0.05,
        &mut SmallRng::seed_from_u64(seed),
    )
    .map_err(|e| e.to_string())?;
    let config = EngineConfig {
        alpha: get(opts, "alpha", 1.0)?,
        ..EngineConfig::default()
    };
    let search = MlSearch::new(SearchConfig {
        max_rounds: rounds.max(3),
        ..Default::default()
    });
    let mut engine = LikelihoodEngine::new(&tree, &compressed, config);
    let best = search.run(&mut engine, &mut tree);
    println!("best tree logL {:.6}", best.log_likelihood);

    // Replicates.
    println!("running {replicates} bootstrap replicates...");
    let bs_cfg = BootstrapConfig {
        replicates,
        search: SearchConfig {
            max_rounds: rounds,
            optimize_model: false,
            smoothing_passes: 4,
            ..Default::default()
        },
        engine: config,
    };
    let result = run_bootstrap(
        &compressed,
        &tree,
        bs_cfg,
        &mut SmallRng::seed_from_u64(seed ^ 0xb007),
    );
    let annotated = annotate_newick(&tree, &result);
    match opts.get("out") {
        Some(path) => {
            std::fs::write(path, format!("{annotated}\n")).map_err(|e| e.to_string())?;
            println!("support-annotated tree written to {path}");
        }
        None => println!("{annotated}"),
    }
    Ok(())
}
