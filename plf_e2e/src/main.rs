//! `plf_e2e` — the repo's end-to-end benchmark: whole-search wall time
//! of `phylomic` under four parallel schemes on five workloads, with a
//! per-layer table from a separate traced run. See `README.md`.
//!
//! ```text
//! plf_e2e --workload NAME --seed S --seconds T --trace 0|1   one workload, one mode
//! plf_e2e [--seed S] [--seconds T] [--out FILE]              every workload, both modes
//! plf_e2e --list                                              metrics and workloads
//! plf_e2e --print-benchmark-json                              BENCHMARK.json, from the same tables
//! ```
//!
//! Run it from the repo root (it reads `HOST_ROOFLINE.json` there)
//! through `plf_e2e/run.sh`, which builds the CLI and this binary.

mod bench;
mod checks;
mod child;
mod inputs;
mod layers;
mod schemes;
mod spec;
mod stats;
mod timed;

use bench::{Report, RunArgs};
use plf_prof::json::Json;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const USAGE: &str = "usage: plf_e2e [--workload NAME|all] [--seed S] [--seconds T] [--trace 0|1] \
                     [--out FILE] [--trace-out FILE] [--list] [--print-benchmark-json]";

struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    list: bool,
    print_benchmark_json: bool,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: "all".into(),
        seed: spec::DEFAULT_SEED,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: None,
        out: None,
        trace_out: None,
        list: false,
        print_benchmark_json: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--list" => {
                cli.list = true;
                continue;
            }
            "--print-benchmark-json" => {
                cli.print_benchmark_json = true;
                continue;
            }
            _ => {}
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => cli.workload = value.clone(),
            "--seed" => cli.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                cli.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 3600.0) {
                    return Err(bad(&"must be in (0, 3600]"));
                }
            }
            "--trace" => {
                cli.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            "--out" => cli.out = Some(PathBuf::from(value)),
            "--trace-out" => cli.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(cli)
}

/// The directory cargo built this binary into (`…/release`).
fn build_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    exe.parent()
        .map(PathBuf::from)
        .ok_or_else(|| format!("{} has no parent directory", exe.display()))
}

/// The `phylomic` CLI: `run.sh` builds it into the same directory.
fn find_cli() -> Result<PathBuf, String> {
    let cli = build_dir()?.join("phylomic");
    if cli.is_file() {
        Ok(cli)
    } else {
        Err(format!(
            "{} not found: run the benchmark through plf_e2e/run.sh, which builds it",
            cli.display()
        ))
    }
}

fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn cache_size(index: usize) -> String {
    std::fs::read_to_string(format!(
        "/sys/devices/system/cpu/cpu0/cache/index{index}/size"
    ))
    .map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

/// Facts about the host and the build, the same for every workload.
fn host_provenance() -> Vec<(String, String)> {
    [
        ("git_rev", plf_prof::host::git_rev()),
        ("rustc", first_line("rustc", &["--version"])),
        ("cpu_model", plf_prof::host::cpu_model()),
        ("nproc", plf_prof::host::cores().to_string()),
        ("simd", plf_prof::host::simd_flags()),
        ("l2", cache_size(2)),
        ("l3", cache_size(3)),
        ("features", "span-trace (the CLI's defaults)".to_string()),
        ("forkjoin_workers", spec::FORKJOIN_WORKERS.to_string()),
        ("ranks", spec::RANKS.to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn unit_of(name: &str) -> &'static str {
    spec::END_TO_END
        .iter()
        .chain(spec::PER_LAYER.iter())
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

/// The contract's result object, on one line.
fn result_json(report: &Report) -> Result<String, String> {
    let mut metrics = Vec::new();
    for v in &report.values {
        if !v.value.is_finite() {
            return Err(format!("{} measured as {}", v.name, v.value));
        }
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(v.name),
            v.value,
            json_str(unit_of(v.name))
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    ))
}

fn print_report(report: &Report, host: &[(String, String)]) {
    for (k, v) in host.iter().chain(&report.provenance) {
        println!("# {k} {v}");
    }
    for v in &report.values {
        println!("{} {} {}", v.name, v.value, unit_of(v.name));
        if !v.samples.is_empty() {
            let s = stats::Summary::of(&v.samples);
            println!(
                "#   {} min {:.6} max {:.6} mad {:.6} k {}",
                v.name, s.min, s.max, s.mad, s.k
            );
            if v.name != "setup_s" {
                let all: Vec<String> = v.samples.iter().map(|x| format!("{x:.4}")).collect();
                println!("#   {} samples {}", v.name, all.join(" "));
            }
        }
    }
    print!("{}", report.table);
    let share = report.failed as f64 / report.attempted.max(1) as f64;
    println!("ops_attempted {} count", report.attempted);
    println!("ops_failed {} count", report.failed);
    println!("failed_share {share} ratio");
    for f in &report.failures {
        println!("# FAILED {f}");
    }
}

/// One workload in one mode: the entry point the driver calls.
fn run_one(cli: &Cli, workload: &spec::Workload, traced: bool) -> Result<bool, String> {
    let args = RunArgs {
        workload: *workload,
        seed: cli.seed,
        seconds: cli.seconds,
        traced,
        trace_out: cli.trace_out.clone(),
        cli: find_cli()?,
        roofline: PathBuf::from(plf_prof::roofline::CACHE_FILE),
        scratch_root: build_dir()?.join("plf_e2e_scratch"),
        laps: None,
    };
    let report = bench::run_workload(&args)?;
    let line = result_json(&report)?;
    print_report(&report, &host_provenance());
    if let Some(path) = &cli.out {
        std::fs::write(path, format!("{line}\n"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{line}");
    Ok(report.failed == 0)
}

/// Every workload, each in its own child process of this binary (so
/// `proc.peak_rss_mb` is per workload), untraced then traced.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let started = Instant::now();
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut ok = true;
    let mut docs = Vec::new();
    for w in &spec::WORKLOADS {
        for trace in ["0", "1"] {
            println!("## {} --trace {trace}", w.name);
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name, "--trace", trace])
                .args(["--seed", &cli.seed.to_string()])
                .args(["--seconds", &cli.seconds.to_string()]);
            if let (Some(path), "1") = (&cli.trace_out, trace) {
                let mut name = path.clone().into_os_string();
                name.push(format!(".{}", w.name));
                cmd.arg("--trace-out").arg(name);
            }
            let out = cmd
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            let text = String::from_utf8_lossy(&out.stdout);
            print!("{text}");
            ok &= out.status.success();
            let last = text.lines().last().unwrap_or("");
            if Json::parse(last).is_err() {
                return Err(format!("{} --trace {trace} printed no result", w.name));
            }
            docs.push(format!(
                "{{\"workload\": {}, \"trace\": {trace}, \"result\": {last}}}",
                json_str(w.name)
            ));
        }
    }
    let total = started.elapsed().as_secs_f64();
    println!("# total_wall_s {total:.3}");
    if let Some(path) = &cli.out {
        let host: Vec<String> = host_provenance()
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        let doc = format!(
            "{{\"provenance\": {{{}, \"seed\": {}, \"total_wall_s\": {total}}},\n \"runs\": [\n  {}\n ]}}\n",
            host.join(", "),
            cli.seed,
            docs.join(",\n  ")
        );
        std::fs::write(path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.list {
        spec::print_list();
        return ExitCode::SUCCESS;
    }
    if cli.print_benchmark_json {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let outcome = if cli.workload == "all" {
        run_all(&cli)
    } else {
        match spec::workload(&cli.workload) {
            Some(w) => run_one(&cli, w, cli.trace.unwrap_or(false)),
            None => Err(format!("unknown workload {:?}", cli.workload)),
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
