#![forbid(unsafe_code)]
//! `cargo xtask` — workspace automation entry point.

mod pair;

use std::path::PathBuf;
use std::process::ExitCode;

fn workspace_root() -> PathBuf {
    // crates/xtask -> workspace root, independent of the caller's cwd.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("xtask lives two levels below the workspace root")
        .to_path_buf()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("pair") => pair::run(&workspace_root(), &args[1..]),
        _ => {
            eprintln!(
                "usage: cargo xtask lint [--root <workspace>] [--json <path>] \
                 [--update-inventory] [--cfg-feature <name>]...\n       \
                 {}",
                pair::USAGE
            );
            ExitCode::from(2)
        }
    }
}

/// `cargo xtask lint`: run the plf-analyzer rule families over the
/// workspace. `--json <path>` additionally writes the findings as a
/// JSON artifact; `--update-inventory` regenerates
/// `crates/xtask/unsafe_inventory.json` from the current census
/// (after review!); `--cfg-feature <name>` analyzes items gated
/// behind `#[cfg(feature = "<name>")]` — CI uses this to prove the
/// analyzer catches seeded violations.
fn lint(args: &[String]) -> ExitCode {
    let mut root = workspace_root();
    let mut json_path: Option<PathBuf> = None;
    let mut update_inventory = false;
    let mut features: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => match it.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("--root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--json" => match it.next() {
                Some(p) => json_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--json requires a path");
                    return ExitCode::from(2);
                }
            },
            "--update-inventory" => update_inventory = true,
            "--cfg-feature" => match it.next() {
                Some(f) => features.push(f.clone()),
                None => {
                    eprintln!("--cfg-feature requires a feature name");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown lint option: {other}");
                return ExitCode::from(2);
            }
        }
    }
    let cfg = plf_analyzer::Config {
        root: root.clone(),
        features,
    };
    let started = std::time::Instant::now();
    let mut analysis = match plf_analyzer::analyze_workspace(&cfg) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    if update_inventory {
        let path = root.join("crates/xtask/unsafe_inventory.json");
        if let Err(e) = std::fs::write(&path, &analysis.inventory) {
            eprintln!("xtask lint: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
        // Drift findings against the stale file no longer apply.
        analysis.findings.retain(|f| f.rule != "inventory");
    }
    for f in &analysis.findings {
        eprintln!("{f}");
    }
    if let Some(path) = json_path {
        let json = plf_analyzer::report::render_json(&analysis.findings);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("xtask lint: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    println!(
        "xtask lint: {} file(s), {} fn(s), {} cfg-skipped item(s) analyzed in {:.0?}",
        analysis.files,
        analysis.fns,
        analysis.skipped_cfg_items,
        started.elapsed()
    );
    if analysis.findings.is_empty() {
        println!("xtask lint: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask lint: {} finding(s)", analysis.findings.len());
        ExitCode::FAILURE
    }
}
