//! `cargo xtask pair <base-rev> [<workload> [<metric>]]` — the one way
//! this repository compares two of its states: alternating
//! parent/change pairs of the end-to-end benchmark, judged by the
//! standing rules of ROADMAP.md and `plf_e2e/README.md` ("Claim
//! protocol"). With no workload it runs every workload and claims
//! nothing; with a workload alone it reruns that one, with as many
//! pairs as a claim gets, and still claims nothing; with a metric too
//! it claims a gain on it. What to run and how to judge it — `command`,
//! `run_seconds`, the workloads, the end-to-end metrics with `better`
//! and `bound` — is read from `BENCHMARK.json`; the seed and the pair
//! counts are the constants below. Every run is kept, in the order run,
//! in `target/pair/runs.jsonl`; stdout is the EXPERIMENTS.md table.

use plf_prof::json::Json;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

pub const USAGE: &str = "cargo xtask pair <base-rev> [<workload> [<metric>]]";

/// A seed no change is developed on (development runs on 20140314).
const SEED: &str = "7";
/// Pairs on the workload of a claim or a rerun, and on every workload
/// of a comparison that names none.
const CLAIM_PAIRS: usize = 10;
const OTHER_PAIRS: usize = 6;

/// What a comparison runs and claims.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Mode<'a> {
    /// Every workload, no claim.
    All,
    /// One workload only, no claim: a second look at a cell.
    Rerun(&'a str),
    /// Every workload, a gain claimed on one metric of one of them.
    Claim(&'a str, &'a str),
}

impl<'a> Mode<'a> {
    fn parse(args: &'a [String]) -> Option<(&'a str, Mode<'a>)> {
        match args {
            [rev] => Some((rev, Mode::All)),
            [rev, w] => Some((rev, Mode::Rerun(w))),
            [rev, w, m] => Some((rev, Mode::Claim(w, m))),
            _ => None,
        }
    }

    fn claim(self) -> Option<(&'a str, &'a str)> {
        match self {
            Mode::Claim(w, m) => Some((w, m)),
            _ => None,
        }
    }

    /// How many pairs workload `w` runs: none outside a rerun's one.
    fn pairs(self, w: &str) -> usize {
        match self {
            Mode::All => OTHER_PAIRS,
            Mode::Rerun(only) if only == w => CLAIM_PAIRS,
            Mode::Rerun(_) => 0,
            Mode::Claim(claimed, _) if claimed == w => CLAIM_PAIRS,
            Mode::Claim(..) => OTHER_PAIRS,
        }
    }

    /// The first line of the report, after the parent and the seed.
    fn describe(self) -> String {
        match self {
            Mode::All => format!("{OTHER_PAIRS} pairs per workload, no gain claimed"),
            Mode::Rerun(w) => format!("{CLAIM_PAIRS} pairs on `{w}` only, no gain claimed"),
            Mode::Claim(w, m) => format!(
                "{OTHER_PAIRS} pairs per workload ({CLAIM_PAIRS} on `{w}`, whose `{m}` is the claim)"
            ),
        }
    }
}

/// `$1` = commit, `$2` = `target/pair`, cwd = the repository. Freezes
/// both sides, so that an edit made while the series runs changes
/// nothing: the commit's files in `parent/`, the working tree — tracked
/// or not, unless ignored — in `change/`, every file stamped now (`tar
/// -m`, `cp`): cargo rebuilds what is newer than its last build, and a
/// commit's own dates are older than what the previous comparison left
/// in the side's target directory. Then refuses a ruler that is
/// not byte for byte the same on both sides: across two versions of the
/// benchmark, its contract or the calibration every `auto` reads, a
/// comparison measures nothing.
const FREEZE: &str = r#"set -euo pipefail
rm -rf "$2/parent" "$2/change"
mkdir -p "$2/parent" "$2/change"
git archive "$1" | tar -x -m -C "$2/parent"
git ls-files -z --cached --others --exclude-standard | while IFS= read -r -d '' f; do
    # A file deleted in the working tree is still in the index.
    if [ -f "$f" ]; then mkdir -p "$2/change/$(dirname "$f")"; cp "$f" "$2/change/$f"; fi
done
for ruler in plf_e2e BENCHMARK.json HOST_ROOFLINE.json; do
    diff -rq "$2/parent/$ruler" "$2/change/$ruler" >&2
done"#;

const SIDES: [&str; 2] = ["parent", "change"];

struct Metric {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

/// What `BENCHMARK.json` says to run and how to judge it.
struct Spec {
    command: Vec<String>,
    run_seconds: String,
    workloads: Vec<String>,
    metrics: Vec<Metric>,
}

impl Spec {
    fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let read = || {
            let list = |key: &str| doc.get(key)?.as_arr();
            let name = |v: &Json| Some(v.get("name")?.as_str()?.to_string());
            let mut metrics = Vec::new();
            for m in list("end_to_end")? {
                let lower_is_better = match m.get("better")?.as_str()? {
                    "lower" => true,
                    "higher" => false,
                    _ => return None,
                };
                let bound = m.get("bound")?.as_f64()?;
                metrics.push(Metric {
                    name: name(m)?,
                    lower_is_better,
                    bound,
                });
            }
            let words = list("command")?
                .iter()
                .map(|v| Some(v.as_str()?.to_string()));
            Some(Spec {
                command: words
                    .collect::<Option<Vec<_>>>()
                    .filter(|c| !c.is_empty())?,
                run_seconds: doc.get("run_seconds")?.as_u64()?.to_string(),
                workloads: list("workloads")?.iter().map(name).collect::<Option<_>>()?,
                metrics,
            })
        };
        read().ok_or_else(|| "command, run_seconds, workloads or end_to_end mistyped".into())
    }
}

/// What the report needs of one run.
struct Run {
    workload: String,
    /// Index into `SIDES`.
    side: usize,
    host_noisy: bool,
    attempted: u64,
    failed: u64,
    /// One value per `Spec::metrics`.
    values: Vec<f64>,
}

/// Operations attempted and failed and the end-to-end values of the
/// result object a run prints as its last line. A run that failed a
/// check (`"correct": false`) reads like any other: its values stay in
/// the series and its failed operations count against its side.
fn read_result(spec: &Spec, last_line: &str) -> Option<(u64, u64, Vec<f64>)> {
    let doc = Json::parse(last_line).ok()?;
    let value = |m: &Metric| doc.get("metrics")?.get(&m.name)?.get("value")?.as_f64();
    let values = spec.metrics.iter().map(value).collect::<Option<_>>()?;
    Some((
        doc.get("attempted")?.as_u64()?,
        doc.get("failed")?.as_u64()?,
        values,
    ))
}

/// q1, median, q3 by linear interpolation between order statistics.
fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|q| {
        let at = q * (sorted.len() - 1) as f64;
        let (lo, hi) = (sorted[at.floor() as usize], sorted[at.ceil() as usize]);
        lo + (hi - lo) * at.fract()
    })
}

const REGRESSED: &str = "**regressed**";
const OUTSIDE_BETTER: &str = "outside, better";
const OUTSIDE_WORSE: &str = "outside, worse";

/// Judges one metric on one workload from its two series in pair
/// order: the cell's columns of the table, its verdict, and whether a
/// gain claimed on it stands — at least nine tenths of the pairs won,
/// a tie won by neither side, and the medians further apart than the
/// parent's own quartiles.
fn judge(metric: &Metric, parent: &[f64], change: &[f64]) -> (String, &'static str, bool) {
    let ([p1, p, p3], [c1, c, c3]) = (quartiles(parent), quartiles(change));
    let better = |a: &f64, b: &f64| if metric.lower_is_better { a < b } else { a > b };
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better(c, p))
        .count();
    let ratios: Vec<f64> = parent.iter().zip(change).map(|(p, c)| c / p).collect();
    let (delta, iqr) = (c - p, p3 - p1);
    let gain = if metric.lower_is_better {
        -delta
    } else {
        delta
    };
    let verdict = if -gain / p > metric.bound {
        REGRESSED
    } else if iqr / p > metric.bound && !change.iter().all(|c| parent.iter().all(|p| better(c, p)))
    {
        "unresolved"
    } else if (p1..=p3).contains(&c) {
        "inside parent IQR"
    } else if gain > 0.0 {
        OUTSIDE_BETTER
    } else {
        OUTSIDE_WORSE
    };
    // Four significant digits of the parent's median; differences
    // signed the way EXPERIMENTS.md writes them.
    let d = (3 - p.log10().floor() as i32).clamp(0, 12) as usize;
    let signed = |x: f64, d: usize| format!("{x:+.d$}").replace('-', "−");
    let columns = format!(
        "{p:.d$} [{p1:.d$}, {p3:.d$}] | {c:.d$} [{c1:.d$}, {c3:.d$}] | {wins}/{} | {:.3} \
         | {} vs {iqr:.d$} ({} %)",
        parent.len(),
        quartiles(&ratios)[1],
        signed(delta, d),
        signed(100.0 * delta / p, 1)
    );
    (
        columns,
        verdict,
        verdict != REGRESSED && wins * 10 >= parent.len() * 9 && gain > iqr,
    )
}

/// The table, the counts, the verdict and every run, as markdown; and
/// whether the comparison passed: nothing regressed, no larger share of
/// operations failed on the change, and the claim — if any — is met. A
/// claim gets no verdict at all when a cell regressed.
fn report(spec: &Spec, claim: Option<(&str, &str)>, runs: &[Run]) -> (String, bool) {
    let mut table = String::new();
    let mut series = String::new();
    let (mut outside, mut regressed, mut claim_met) = (Vec::new(), Vec::new(), false);
    for w in &spec.workloads {
        for (i, metric) in spec.metrics.iter().enumerate() {
            let of = |side| {
                runs.iter()
                    .filter(move |r| r.side == side && r.workload == *w)
            };
            let sides = [0, 1].map(|side| of(side).map(|r| r.values[i]).collect::<Vec<f64>>());
            if sides[0].is_empty() {
                continue;
            }
            let (columns, verdict, met) = judge(metric, &sides[0], &sides[1]);
            let name = format!("`{w}` `{}`", metric.name);
            match verdict {
                REGRESSED => regressed.push(name.clone()),
                OUTSIDE_BETTER | OUTSIDE_WORSE => {
                    outside.push(format!("{name} ({})", &verdict[9..]))
                }
                _ => {}
            }
            claim_met |= met && claim == Some((w, &metric.name));
            let _ = writeln!(
                table,
                "| `{w}` | `{}` | {columns} | {verdict} |",
                metric.name
            );
            for (side, runs) in SIDES.iter().zip(&sides) {
                let runs: Vec<String> = runs.iter().map(f64::to_string).collect();
                let _ = writeln!(series, "{w} {} {side}: {}", metric.name, runs.join(" "));
            }
        }
    }
    let sum = |side, f: fn(&Run) -> u64| runs.iter().filter(|r| r.side == side).map(f).sum::<u64>();
    let noisy = [0, 1].map(|side| sum(side, |r| r.host_noisy as u64));
    let [(pf, pa), (cf, ca)] =
        [0, 1].map(|side| (sum(side, |r| r.failed), sum(side, |r| r.attempted)));
    let more_failed = cf * pa > pf * ca;
    let failed_note = if more_failed {
        " — a LARGER SHARE on the change, which fails the comparison"
    } else {
        ""
    };
    let list = |names: &[String]| match names {
        [] => "none".to_string(),
        _ => names.join(", "),
    };
    let verdict = match claim {
        _ if !regressed.is_empty() => format!("REGRESSED past the bound: {}", list(&regressed)),
        None => "nothing regressed; no gain claimed".to_string(),
        Some((w, m)) if claim_met => format!("nothing regressed; claim on `{w}` `{m}` met"),
        Some((w, m)) => format!("nothing regressed; claim on `{w}` `{m}` NOT met"),
    };
    let text = format!(
        "| workload | metric | parent | change | change wins | median of ratios \
         | Δ median vs parent IQR | verdict |\n|---|---|---|---|---|---|---|---|\n{table}\n\
         `host_noisy` on {} of {} runs ({} parent, {} change). Operations failed: parent {pf} \
         of {pa}, change {cf} of {ca}{}.\nOutside the parent's IQR, inside the bound: {}.\n\
         Verdict: {verdict}.\n\nEvery run, in pair order (the parent ran first in the odd \
         pairs):\n\n```\n{series}```\n",
        noisy[0] + noisy[1],
        runs.len(),
        noisy[0],
        noisy[1],
        failed_note,
        list(&outside)
    );
    (
        text,
        regressed.is_empty() && !more_failed && (claim.is_none() || claim_met),
    )
}

/// The command's stdout, or an `Err` that ends with what it wrote to
/// stderr (unless the caller left stderr inherited: then it is above).
fn stdout_of(cmd: &mut Command) -> Result<String, String> {
    let name = cmd.get_program().to_string_lossy().into_owned();
    let out = cmd.output().map_err(|e| format!("{name}: {e}"))?;
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!("{name}: {}\n{}", out.status, stderr.trim_end()));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Freezes, refuses or builds, measures, prints the report. `Ok` is
/// whether the comparison passed, `Err` why there is none.
fn compare(root: &Path, rev: &str, mode: Mode) -> Result<bool, String> {
    let claim = mode.claim();
    if let Some((name, _)) = std::env::vars().find(|(name, _)| name.starts_with("PHYLOMIC_")) {
        return Err(format!("{name} is set: both sides run their defaults"));
    }
    let pair_dir = root.join("target/pair");
    let commit = format!("{rev}^{{commit}}");
    let mut git = Command::new("git");
    let sha = stdout_of(
        git.current_dir(root)
            .args(["rev-parse", "--verify", &commit]),
    )?;
    let sha = sha.trim();
    let mut freeze = Command::new("bash");
    freeze
        .current_dir(root)
        .args(["-c", FREEZE, "freeze", sha])
        .arg(&pair_dir);
    stdout_of(&mut freeze).map_err(|e| format!("the sides' ruler differs, or {e}"))?;
    let contract = std::fs::read_to_string(pair_dir.join("change/BENCHMARK.json"));
    let spec = Spec::parse(&contract.map_err(|e| e.to_string())?)
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    if let Mode::Rerun(w) | Mode::Claim(w, _) = mode {
        if !spec.workloads.iter().any(|x| x == w) {
            return Err(format!("BENCHMARK.json has no workload {w:?}"));
        }
    }
    if let Some((_, m)) = claim {
        if !spec.metrics.iter().any(|x| x.name == m) {
            return Err(format!("BENCHMARK.json has no end-to-end {m:?}"));
        }
    }
    let benchmark = |side: usize, args: &[&str]| {
        let mut cmd = Command::new(&spec.command[0]);
        cmd.args(&spec.command[1..])
            .args(args)
            .stderr(Stdio::inherit());
        cmd.current_dir(pair_dir.join(SIDES[side]));
        cmd.env(
            "CARGO_TARGET_DIR",
            pair_dir.join(format!("{}-target", SIDES[side])),
        );
        cmd
    };
    // Each side is built once, by a run that measures nothing.
    for side in [0, 1] {
        eprintln!("pair: building the {} ...", SIDES[side]);
        stdout_of(&mut benchmark(side, &["--list"]))?;
    }
    let mut log = std::fs::File::create(pair_dir.join("runs.jsonl")).map_err(|e| e.to_string())?;
    let mut runs: Vec<Run> = Vec::new();
    for w in &spec.workloads {
        let pairs = mode.pairs(w);
        for pair in 1..=pairs {
            // The parent runs first in the odd pairs, second in the even.
            for side in [(pair + 1) % 2, pair % 2] {
                let args = [
                    "--workload",
                    w,
                    "--seed",
                    SEED,
                    "--seconds",
                    &spec.run_seconds,
                    "--trace",
                    "0",
                ];
                // Exit 1 is a run that failed a check and still printed
                // its result: kept like any other.
                let out = benchmark(side, &args).output().map_err(|e| e.to_string())?;
                let stdout = String::from_utf8_lossy(&out.stdout);
                let last_line = stdout.lines().last().unwrap_or("");
                let host_noisy = stdout.lines().any(|l| l == "# host_noisy true");
                let result = read_result(&spec, last_line);
                writeln!(
                    log,
                    "{{\"parent\": \"{sha}\", \"seed\": {SEED}, \"workload\": \"{w}\", \
                     \"pair\": {pair}, \"side\": \"{}\", \"host_noisy\": {host_noisy}, \
                     \"result\": {}}}",
                    SIDES[side],
                    if result.is_some() { last_line } else { "null" }
                )
                .map_err(|e| format!("target/pair/runs.jsonl: {e}"))?;
                let (attempted, failed, values) = result.ok_or_else(|| {
                    let side = SIDES[side];
                    format!("{w} pair {pair}: the {side} printed no result (kept in runs.jsonl)")
                })?;
                eprintln!("pair: {w} {pair}/{pairs} {} {values:?}", SIDES[side]);
                runs.push(Run {
                    workload: w.clone(),
                    side,
                    host_noisy,
                    attempted,
                    failed,
                    values,
                });
            }
        }
    }
    let (text, passed) = report(&spec, claim, &runs);
    println!(
        "`cargo xtask pair {rev}`: parent {}, change = the working tree, seed {SEED}, {} s \
         per run, {}.\n\n{text}",
        &sha[..12.min(sha.len())],
        spec.run_seconds,
        mode.describe()
    );
    Ok(passed)
}

pub fn run(root: &Path, args: &[String]) -> ExitCode {
    let outcome = match Mode::parse(args) {
        Some((rev, mode)) => compare(root, rev, mode),
        None => Err(format!("usage: {USAGE}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("pair: {e}; nothing compared");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Spec {
        Spec::parse(include_str!("../../../BENCHMARK.json")).expect("the committed contract")
    }

    /// EXPERIMENTS.md, "The fork-join master computes (PR 19)", "Every
    /// run, in pair order": `wide15`, A = parent, B = change.
    const FORKJOIN_A: [f64; 10] = [
        0.1006, 0.1011, 0.1031, 0.1002, 0.1009, 0.0997, 0.0996, 0.1011, 0.0991, 0.1010,
    ];
    const FORKJOIN_B: [f64; 10] = [
        0.0508, 0.0506, 0.0511, 0.0506, 0.0501, 0.0506, 0.0505, 0.0500, 0.0501, 0.0493,
    ];
    const SERIAL_A: [f64; 10] = [
        0.0941, 0.0966, 0.0970, 0.0954, 0.0951, 0.0958, 0.0950, 0.0969, 0.0959, 0.0960,
    ];
    const SERIAL_B: [f64; 10] = [
        0.0954, 0.0946, 0.0959, 0.0968, 0.0956, 0.0955, 0.0959, 0.0957, 0.0967, 0.0956,
    ];

    #[test]
    fn the_recorded_series_of_pr_19_read_as_its_hand_written_table_does() {
        let spec = spec();
        assert_eq!(spec.command, ["bash", "plf_e2e/run.sh"]);
        assert_eq!((spec.run_seconds.as_str(), spec.workloads.len()), ("30", 4));
        let [_, serial, forkjoin] = &spec.metrics[..] else {
            panic!("three end-to-end metrics");
        };
        assert!(forkjoin.name == "wall_forkjoin_s" && forkjoin.lower_is_better);
        // The table's median of ratios, 0.502, came from unrounded runs;
        // the four printed decimals give 0.5027.
        let (columns, verdict, met) = judge(forkjoin, &FORKJOIN_A, &FORKJOIN_B);
        assert_eq!(
            columns,
            "0.1008 [0.0998, 0.1011] | 0.0505 [0.0501, 0.0506] | 10/10 | 0.503 \
             | −0.0502 vs 0.0013 (−49.8 %)"
        );
        assert_eq!((verdict, met), (OUTSIDE_BETTER, true));
        let (columns, verdict, met) = judge(serial, &SERIAL_A, &SERIAL_B);
        assert!(columns.contains("| 5/10 | 1.001 |"), "{columns}");
        assert_eq!((verdict, met), ("inside parent IQR", false));
    }

    #[test]
    fn ties_count_for_neither_side_and_eight_of_ten_is_not_met() {
        let forkjoin = &spec().metrics[2];
        // Nine wins and a tie are nine tenths of the pairs run ...
        let mut change = FORKJOIN_B;
        change[0] = FORKJOIN_A[0];
        let (columns, _, met) = judge(forkjoin, &FORKJOIN_A, &change);
        assert!(columns.contains("| 9/10 |") && met, "{columns}");
        // ... eight and two ties are not, however far apart the medians.
        change[1] = FORKJOIN_A[1];
        let (columns, verdict, met) = judge(forkjoin, &FORKJOIN_A, &change);
        assert!(columns.contains("| 8/10 |") && !met, "{columns}");
        assert_eq!(verdict, OUTSIDE_BETTER);
    }

    #[test]
    fn a_rerun_runs_one_workload_judges_every_metric_and_claims_nothing() {
        let spec = spec();
        let args: Vec<String> = ["HEAD~1", "narrow64"].map(String::from).into();
        let (rev, mode) = Mode::parse(&args).expect("a rev and a workload");
        assert_eq!(
            (rev, mode, mode.claim()),
            ("HEAD~1", Mode::Rerun("narrow64"), None)
        );
        let pairs: Vec<usize> = spec.workloads.iter().map(|w| mode.pairs(w)).collect();
        assert_eq!(pairs, [0, CLAIM_PAIRS, 0, 0]);
        assert_eq!(
            Mode::Claim("wide15", "setup_s").pairs("narrow64"),
            OTHER_PAIRS
        );
        assert_eq!(Mode::parse(&args[..0]), None);
        // Every metric of the one workload gets a row and a verdict; a
        // clear gain passes without being claimed, a regression fails.
        let run = |side, serial| Run {
            workload: "narrow64".to_string(),
            side,
            host_noisy: false,
            attempted: 40,
            failed: 0,
            values: vec![0.0014, serial, 0.0505],
        };
        let runs = |change: f64| -> Vec<Run> {
            (0..CLAIM_PAIRS)
                .flat_map(|_| [run(0, 0.0959), run(1, change)])
                .collect()
        };
        let (text, passed) = report(&spec, mode.claim(), &runs(0.0859));
        assert!(passed, "{text}");
        assert_eq!(text.matches("\n| `narrow64` |").count(), 3, "{text}");
        assert!(!text.contains("`wide15`"), "{text}");
        assert!(text.contains("Verdict: nothing regressed; no gain claimed."));
        let (text, passed) = report(&spec, mode.claim(), &runs(0.1259));
        assert!(!passed && text.contains("REGRESSED"), "{text}");
    }

    #[test]
    fn a_parent_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better() {
        let serial = &spec().metrics[1];
        let parent = [0.10, 0.10, 0.14, 0.14, 0.10, 0.14];
        assert_eq!(judge(serial, &parent, &[0.12; 6]).1, "unresolved");
        assert_eq!(judge(serial, &parent, &[0.09; 6]).1, OUTSIDE_BETTER);
        assert_eq!(judge(serial, &[0.10; 6], &[0.13; 6]).1, REGRESSED);
    }

    #[test]
    fn a_run_that_failed_a_check_is_reported_and_fails_the_comparison() {
        let spec = spec();
        let line = "{\"correct\": false, \"attempted\": 40, \"failed\": 1, \"metrics\": {\
            \"setup_s\": {\"value\": 0.0014, \"unit\": \"s\"}, \
            \"wall_serial_s\": {\"value\": 0.0959, \"unit\": \"s\"}, \
            \"wall_forkjoin_s\": {\"value\": 0.0505, \"unit\": \"s\"}}}";
        let values = vec![0.0014, 0.0959, 0.0505];
        assert_eq!(read_result(&spec, line), Some((40, 1, values.clone())));
        assert_eq!(read_result(&spec, "# FAILED over the 5s watchdog"), None);
        let run = |side, failed, forkjoin| Run {
            workload: "wide15".to_string(),
            side,
            host_noisy: side == 1,
            attempted: 40,
            failed,
            values: vec![0.0014, 0.0959, forkjoin],
        };
        let (text, passed) = report(&spec, None, &[run(0, 0, 0.0505), run(1, 0, 0.0505)]);
        assert!(passed, "{text}");
        assert!(text.contains("`host_noisy` on 1 of 2 runs (0 parent, 1 change)"));
        assert!(text.contains("Verdict: nothing regressed; no gain claimed."));
        assert!(text.contains("\n| `wide15` | `wall_serial_s` | 0.09590 [0.09590, 0.09590] | "));
        assert!(text.contains("\nwide15 wall_serial_s change: 0.0959\n"));
        let (text, passed) = report(&spec, None, &[run(0, 0, 0.0505), run(1, 1, 0.0505)]);
        assert!(!passed, "{text}");
        assert!(text.contains("parent 0 of 40, change 1 of 40 — a LARGER SHARE"));
        // A claim gets no verdict next to a regressed cell.
        let claim = Some(("wide15", "setup_s"));
        let (text, passed) = report(&spec, claim, &[run(0, 0, 0.0505), run(1, 0, 0.0905)]);
        assert!(!passed && !text.contains("claim"), "{text}");
        assert!(text.contains("REGRESSED past the bound: `wide15` `wall_forkjoin_s`."));
    }

    #[test]
    fn the_sides_freeze_stamped_now_and_a_differing_ruler_is_refused() {
        let repo = std::env::temp_dir().join(format!("xtask-pair-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&repo);
        std::fs::create_dir_all(repo.join("plf_e2e/src")).unwrap();
        let files = [
            "plf_e2e/src/spec.rs",
            "BENCHMARK.json",
            "HOST_ROOFLINE.json",
            "gone.rs",
        ];
        for file in files {
            std::fs::write(repo.join(file), file).unwrap();
        }
        let script = "git init -q && git add -A && GIT_COMMITTER_DATE=2001-01-01T00:00:00 \
                      git -c user.name=t -c user.email=t@t commit -qm p";
        let bash = |script: &str| {
            let mut bash = Command::new("bash");
            bash.current_dir(&repo)
                .args(["-c", script, "freeze", "HEAD"]);
            stdout_of(bash.arg(repo.join("target/pair")))
        };
        bash(script).unwrap();
        // The working tree: one file untracked, one deleted.
        std::fs::write(repo.join("new.rs"), "new").unwrap();
        std::fs::remove_file(repo.join("gone.rs")).unwrap();
        bash(FREEZE).expect("the same ruler on both sides");
        // Stamped now, not with the commit's date: cargo must see it as new.
        let frozen = std::fs::metadata(repo.join("target/pair/parent/gone.rs")).unwrap();
        assert!(frozen.modified().unwrap().elapsed().unwrap().as_secs() < 3600);
        assert!(!repo.join("target/pair/change/gone.rs").exists());
        assert!(repo.join("target/pair/change/new.rs").exists());
        std::fs::write(repo.join("plf_e2e/src/spec.rs"), "touched").unwrap();
        let refusal = bash(FREEZE).expect_err("a differing ruler");
        assert!(refusal.contains("plf_e2e/src/spec.rs"), "{refusal}");
        std::fs::remove_dir_all(&repo).unwrap();
    }
}
