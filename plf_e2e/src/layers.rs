//! The per-layer metrics and the traced table, from the traced laps of
//! one workload.
//!
//! Counts are taken from the first run of a scheme (the count-exactness
//! check has already held every other run to it); a time is the median
//! over the traced runs; the table shows each scheme's fastest run.

use crate::schemes::{kernel_ns, Outcome, Prepared, ReplicatedDetail, SerialDetail, UdsDetail};
use crate::spec::RANKS;
use crate::stats::{fastest, median};
use crate::timed::Breakdown;
use phylo_search::checkpoint::Checkpoint;
use plf_core::{KernelId, KernelOp, NUM_RATES, NUM_STATES};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

const CHECKPOINT_SAVES: usize = 20;

/// Where one set-up's time went.
pub struct SetupTimes {
    /// Read to engine, everything.
    pub total: f64,
    /// Read + parse the alignment.
    pub parse: f64,
    /// `CompressedAlignment::from_alignment`.
    pub compress: f64,
    /// `LikelihoodEngine::new`.
    pub engine_new: f64,
}

/// Fastest untraced wall time of each scheme.
pub struct Walls {
    /// Serial.
    pub serial: f64,
    /// Fork-join.
    pub forkjoin: f64,
    /// Replicated, threads.
    pub replicated: f64,
    /// Replicated, UDS.
    pub uds: f64,
}

/// One same-run roofline probe.
#[derive(Clone, Copy)]
pub struct Probe {
    /// STREAM triad, MB/s.
    pub triad_mbps: f64,
    /// FMA chains, MFLOP/s.
    pub fma_mflops: f64,
}

/// Everything the per-layer metrics are computed from. The outcome
/// lists hold successful searches only and are never empty.
pub struct Traced<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// The parsed inputs.
    pub prepared: &'a Prepared,
    /// Raw alignment columns.
    pub raw_sites: usize,
    /// The timed set-ups.
    pub setups: &'a [SetupTimes],
    /// Untraced wall times.
    pub walls: Walls,
    /// Traced serial searches.
    pub serial: Vec<&'a Outcome>,
    /// Traced fork-join searches.
    pub forkjoin: Vec<&'a Outcome>,
    /// Replicated searches (the library reports the same figures traced
    /// or not, so these are the untraced ones).
    pub replicated: Vec<&'a Outcome>,
    /// Untraced UDS searches.
    pub uds_untraced: Vec<&'a Outcome>,
    /// Traced UDS searches (the CLI wrote a trace).
    pub uds_traced: Vec<&'a Outcome>,
    /// `VmHWM` after the set-ups and the first (serial) search, MB.
    pub peak_rss_mb: f64,
    /// Probes after the first search and after the last.
    pub probes: (Probe, Probe),
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Median over runs of one figure per run.
fn med<T>(runs: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&runs.iter().map(f).collect::<Vec<_>>())
}

/// The run with the smallest wall time; `runs` is never empty.
fn fastest_run<T>(runs: &[T], wall: impl Fn(&T) -> f64) -> &T {
    runs.iter()
        .min_by(|a, b| wall(a).total_cmp(&wall(b)))
        .expect("every scheme has at least one successful run")
}

/// Pairs each outcome with its scheme's figures.
fn with_detail<'a, D>(
    outcomes: &[&'a Outcome],
    get: impl Fn(&'a Outcome) -> Option<&'a D>,
) -> Vec<(&'a Outcome, &'a D)> {
    outcomes
        .iter()
        .filter_map(|&o| Some((o, get(o)?)))
        .collect()
}

/// A traced in-process search: its figures and where its spans went.
struct Spanned<'a, D> {
    outcome: &'a Outcome,
    detail: &'a D,
    spans: Breakdown,
}

fn spanned<'a, D>(
    outcomes: &[&'a Outcome],
    get: impl Fn(&'a Outcome) -> Option<&'a D>,
) -> Vec<Spanned<'a, D>> {
    with_detail(outcomes, get)
        .into_iter()
        .filter_map(|(outcome, detail)| {
            Some(Spanned {
                outcome,
                detail,
                spans: outcome.spans.as_ref()?.breakdown(),
            })
        })
        .collect()
}

impl Spanned<'_, SerialDetail> {
    fn kernel_ns(&self) -> u64 {
        kernel_ns(&self.detail.stats)
    }

    /// Evaluator time that is not kernel time (a residual).
    fn traversal_ns(&self) -> u64 {
        let b = &self.spans;
        (b.eval.ns + b.prepare.ns + b.deriv.ns).saturating_sub(self.kernel_ns())
    }
}

/// Times `Checkpoint::save` to the scratch directory: (median µs, bytes).
fn checkpoint_cost(
    dir: &Path,
    outcome: &Outcome,
    serial: &SerialDetail,
) -> Result<(f64, f64), String> {
    let count = |key: &str| outcome.counts.get(key).copied().unwrap_or(0) as usize;
    let cp = Checkpoint {
        newick: outcome.newick.clone(),
        alpha: serial.alpha,
        params: serial.model,
        rounds_done: count("search.rounds"),
        log_likelihood: outcome.logl,
        moves_evaluated: count("search.spr_evaluated"),
        moves_accepted: count("search.spr_accepted"),
    };
    let path = dir.join("bench.ckp");
    let mut us = Vec::with_capacity(CHECKPOINT_SAVES);
    for _ in 0..CHECKPOINT_SAVES {
        let t = Instant::now();
        cp.save(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok((median(&us), cp.to_text().len() as f64))
}

/// What the traced laps of one workload say.
pub struct Layers {
    /// The per-layer metrics, in `spec::PER_LAYER` order.
    pub values: Vec<(&'static str, f64)>,
    /// The traced table, ready to print.
    pub table: String,
}

/// Computes the per-layer metrics and the traced table.
pub fn per_layer(t: &Traced<'_>) -> Result<Layers, String> {
    let serial = spanned(&t.serial, Outcome::serial);
    let forkjoin = spanned(&t.forkjoin, Outcome::forkjoin);
    let replicated: Vec<(&Outcome, &ReplicatedDetail)> =
        with_detail(&t.replicated, Outcome::replicated);
    let uds: Vec<(&Outcome, &UdsDetail)> = with_detail(&t.uds_untraced, Outcome::uds);
    let uds_traced: Vec<_> = with_detail(&t.uds_traced, Outcome::uds)
        .into_iter()
        .filter_map(|(o, d)| Some((o, d.trace?)))
        .collect();
    let (s0, f0, r0, u0) = (&serial[0], &forkjoin[0], replicated[0], uds_traced[0]);
    let ranks = RANKS as f64;
    let mut out: Vec<(&'static str, f64)> = Vec::new();

    // bio, and core's share of set-up.
    let patterns = t.prepared.aln.num_patterns();
    out.push(("bio.parse_s", med(t.setups, |s| s.parse)));
    out.push(("bio.compress_s", med(t.setups, |s| s.compress)));
    out.push(("bio.patterns", patterns as f64));
    out.push(("bio.compress_ratio", patterns as f64 / t.raw_sites as f64));
    out.push(("core.engine_new_s", med(t.setups, |s| s.engine_new)));
    // Computed: one value vector (states x rates doubles) and one u32
    // scale counter per pattern per inner node.
    let per_pattern = NUM_STATES * NUM_RATES * 8 + 4;
    let inner = t.prepared.start.num_inner();
    out.push(("core.cla_bytes", (inner * patterns * per_pattern) as f64));

    // Serial: harness spans around every evaluator call, kernel time
    // from the engine's own per-op timers.
    let stats = &s0.detail.stats;
    out.push(("core.eval_s", med(&serial, |r| secs(r.spans.eval.ns))));
    out.push(("core.eval_calls", s0.spans.eval.calls as f64));
    out.push(("core.prepare_s", med(&serial, |r| secs(r.spans.prepare.ns))));
    out.push(("core.prepare_calls", s0.spans.prepare.calls as f64));
    out.push(("core.deriv_s", med(&serial, |r| secs(r.spans.deriv.ns))));
    out.push(("core.deriv_calls", s0.spans.deriv.calls as f64));
    let kernel_s = med(&serial, |r| secs(r.kernel_ns()));
    out.push(("core.kernel_s", kernel_s));
    let sites = |k: KernelId| stats.get(k).sites as f64;
    out.push(("core.newview_sites", sites(KernelId::Newview)));
    out.push(("core.evaluate_sites", sites(KernelId::Evaluate)));
    out.push(("core.derivsum_sites", sites(KernelId::DerivativeSum)));
    out.push(("core.derivcore_sites", sites(KernelId::DerivativeCore)));
    out.push(("core.kernel_calls", stats.total_calls() as f64));
    let (flops, bytes) = KernelOp::ALL.iter().fold((0u64, 0u64), |(f, b), &op| {
        let c = stats.op(op);
        (f + c.flops, b + c.bytes_read + c.bytes_written)
    });
    let gflops = flops as f64 / 1e9 / kernel_s;
    out.push(("core.flops", flops as f64));
    out.push(("core.bytes", bytes as f64));
    out.push(("core.gflops", gflops));
    out.push(("core.gbps", bytes as f64 / 1e9 / kernel_s));
    // Roofline bound from the probes of this very run: the lower of
    // peak compute and bandwidth x arithmetic intensity.
    let (before, after) = t.probes;
    let triad = (before.triad_mbps + after.triad_mbps) / 2.0;
    let fma = (before.fma_mflops + after.fma_mflops) / 2.0;
    let roof_gflops = (fma / 1e3).min(triad / 1e3 * flops as f64 / bytes as f64);
    out.push(("core.pct_roof", gflops / roof_gflops));
    out.push((
        "core.traversal_overhead_s",
        med(&serial, |r| secs(r.traversal_ns())),
    ));
    let repeats = s0.detail.repeats;
    out.push(("core.repeats.newview_calls", repeats.newview_calls as f64));
    out.push((
        "core.repeats.compressed_calls",
        repeats.compressed_calls as f64,
    ));
    out.push(("core.repeats.class_ratio", repeats.ratio().unwrap_or(1.0)));
    out.push((
        "core.repeats.saved_frac",
        (repeats.sites - repeats.classes) as f64 / sites(KernelId::Newview).max(1.0),
    ));
    out.push(("models.set_s", med(&serial, |r| secs(r.spans.set_model.ns))));
    out.push(("models.set_calls", s0.spans.set_model.calls as f64));
    out.push((
        "search.self_s",
        med(&serial, |r| secs(r.spans.search_self_ns())),
    ));
    let count = |key: &str| s0.outcome.counts.get(key).copied().unwrap_or(0) as f64;
    out.push(("search.rounds", count("search.rounds")));
    out.push(("search.spr_evaluated", count("search.spr_evaluated")));
    out.push(("search.spr_accepted", count("search.spr_accepted")));
    out.push((
        "search.newton_iters_per_branch",
        s0.spans.deriv.calls as f64 / s0.spans.prepare.calls.max(1) as f64,
    ));
    let (save_us, ckpt_bytes) = checkpoint_cost(&t.prepared.scratch, s0.outcome, s0.detail)?;
    out.push(("search.checkpoint_save_us", save_us));
    out.push(("search.checkpoint_bytes", ckpt_bytes));

    // Fork-join: the master's own region timers.
    let regions = f0.detail.regions;
    out.push(("forkjoin.regions", regions as f64));
    out.push((
        "forkjoin.fork_wait_s",
        med(&forkjoin, |r| secs(r.detail.fork_ns)),
    ));
    out.push((
        "forkjoin.join_wait_s",
        med(&forkjoin, |r| secs(r.detail.join_ns)),
    ));
    out.push((
        "forkjoin.worker_kernel_s",
        med(&forkjoin, |r| secs(r.detail.worker_kernel_ns)),
    ));
    out.push((
        "forkjoin.overhead_per_region_us",
        (t.walls.forkjoin - t.walls.serial) / regions.max(1) as f64 * 1e6,
    ));

    // Replicated, threads.
    out.push(("replicated.wall_s", t.walls.replicated));
    out.push(("replicated.allreduces", r0.1.comm.allreduces as f64));
    out.push(("replicated.allreduce_bytes", r0.1.comm.bytes as f64));
    out.push(("replicated.barriers", r0.1.comm.barriers as f64));
    out.push((
        "replicated.wire_s",
        med(&replicated, |r| secs(r.1.wire.total_ns) / ranks),
    ));
    out.push((
        "replicated.wire_max_us",
        med(&replicated, |r| r.1.wire.max_ns as f64 / 1e3),
    ));
    out.push(("replicated.speedup", t.walls.serial / t.walls.replicated));

    // UDS: the CLI's summary line and its own trace.
    out.push(("uds.wall_s", t.walls.uds));
    out.push(("uds.wire_ops", u0.1.wire_ops as f64));
    out.push((
        "uds.wire_s",
        med(&uds_traced, |r| secs(r.1.wire_ns) / ranks),
    ));
    out.push((
        "uds.wire_mean_us",
        med(&uds_traced, |r| {
            r.1.wire_ns as f64 / r.1.wire_ops.max(1) as f64 / 1e3
        }),
    ));
    out.push(("uds.search_s", med(&uds, |r| r.1.search_s)));
    out.push((
        "uds.spawn_overhead_s",
        med(&uds, |r| r.0.wall_s - r.1.search_s),
    ));

    // Memory, the same-run normaliser and the cost of tracing.
    out.push(("proc.peak_rss_mb", t.peak_rss_mb));
    out.push(("prof.triad_mbps", triad));
    out.push(("prof.fma_mflops", fma));
    out.push(("prof.triad_drift", after.triad_mbps / before.triad_mbps));
    let traced_wall = fastest(&t.serial.iter().map(|o| o.wall_s).collect::<Vec<_>>());
    out.push((
        "trace.overhead_frac",
        (traced_wall - t.walls.serial) / t.walls.serial,
    ));
    let logs = t
        .serial
        .iter()
        .chain(&t.forkjoin)
        .filter_map(|o| o.spans.as_ref());
    out.push((
        "trace.spans",
        s0.outcome.spans.as_ref().map_or(0, |l| l.spans.len()) as f64,
    ));
    out.push((
        "trace.spans_dropped",
        logs.map(|l| l.dropped).sum::<u64>() as f64,
    ));

    // The traced table: each scheme's fastest run (the least disturbed
    // one, as for the wall times), split so that
    // the rows sum to the wall time in the block's title exactly
    // (residuals are named). For the two in-process schemes that wall
    // is the run span, read from the same clock as the rows; the
    // operation's own wall also holds the span buffer's allocation.
    let mut tb = String::new();
    let mut block = |title: &str, wall: f64, rows: &[(&str, f64)]| {
        let _ = writeln!(tb, "# {} / {title}: wall {wall:.6} s", t.workload);
        for (label, s) in rows {
            let _ = writeln!(
                tb,
                "#   {label:<44} {s:>10.6} s  {:>5.1} %",
                100.0 * s / wall
            );
        }
    };
    let s0 = fastest_run(&serial, |r| r.outcome.wall_s);
    let f0 = fastest_run(&forkjoin, |r| r.outcome.wall_s);
    let r0 = *fastest_run(&replicated, |r| r.0.wall_s);
    let u0 = *fastest_run(&uds_traced, |r| r.0.wall_s);
    let b = &s0.spans;
    block(
        "serial (traced run)",
        secs(b.run_ns),
        &[
            ("core kernels", secs(s0.kernel_ns())),
            ("core traversal (residual)", secs(s0.traversal_ns())),
            ("models set_alpha/set_model", secs(b.set_model.ns)),
            ("search own work (residual)", secs(b.search_self_ns())),
        ],
    );
    let (b, d) = (&f0.spans, f0.detail);
    let calls_s = secs(b.eval.ns + b.prepare.ns + b.deriv.ns);
    block(
        "forkjoin (traced run)",
        secs(b.run_ns) + d.startstop_s,
        &[
            ("master fork wait", secs(d.fork_ns)),
            ("master join wait (worker kernels inside)", secs(d.join_ns)),
            ("  of which worker kernels", secs(d.worker_kernel_ns)),
            (
                "master evaluator other (residual)",
                calls_s - secs(d.fork_ns + d.join_ns),
            ),
            ("models set_alpha/set_model", secs(b.set_model.ns)),
            ("search own work (residual)", secs(b.search_self_ns())),
            ("pool start + stop", d.startstop_s),
        ],
    );
    let wall = r0.0.wall_s;
    let (kernel, wire) = (
        secs(r0.1.kernel_ns) / ranks,
        secs(r0.1.wire.total_ns) / ranks,
    );
    block(
        "replicated",
        wall,
        &[
            ("core kernels (mean per rank)", kernel),
            ("collectives (mean per rank)", wire),
            (
                "traversal, search, spawn/join (residual)",
                wall - kernel - wire,
            ),
        ],
    );
    let wall = u0.0.wall_s;
    let search_s = u0.0.uds().map_or(0.0, |d| d.search_s);
    let (kernel, wire) = (secs(u0.1.kernel_ns), secs(u0.1.wire_ns) / ranks);
    block(
        "uds (traced run)",
        wall,
        &[
            ("core kernels (rank 0)", kernel),
            ("collectives (mean per rank)", wire),
            ("traversal, search (residual)", search_s - kernel - wire),
            (
                "spawn, parse, exit (outside the CLI's timer)",
                wall - search_s,
            ),
        ],
    );
    Ok(Layers {
        values: out,
        table: tb,
    })
}
