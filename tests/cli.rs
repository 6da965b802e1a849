//! End-to-end tests of the `phylomic` command-line binary.

mod common;

use common::TestDir;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_phylomic"))
}

#[test]
fn simulate_evaluate_search_roundtrip() {
    let dir = TestDir::new("cli-roundtrip");
    let phy = dir.join("sim.phy");

    // simulate
    let out = bin()
        .args([
            "simulate",
            "--taxa",
            "8",
            "--sites",
            "400",
            "--seed",
            "5",
            "--out",
            phy.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(phy.exists());
    let true_tree = format!("{}.tree", phy.display());
    assert!(std::path::Path::new(&true_tree).exists());

    // evaluate against the true tree
    let out = bin()
        .args([
            "evaluate",
            "--alignment",
            phy.to_str().unwrap(),
            "--tree",
            &true_tree,
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("logL -"), "unexpected output: {text}");

    // search with a parsimony start and checkpoint
    let ckp = dir.join("run.ckp");
    let best = dir.join("best.nwk");
    let out = bin()
        .args([
            "search",
            "--alignment",
            phy.to_str().unwrap(),
            "--start",
            "parsimony",
            "--rounds",
            "2",
            "--no-model-opt",
            "--checkpoint",
            ckp.to_str().unwrap(),
            "--out",
            best.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(ckp.exists(), "checkpoint written");
    assert!(best.exists(), "best tree written");
    // The written tree parses and covers the right taxa.
    let newick = std::fs::read_to_string(&best).unwrap();
    let tree = phylomic::tree::newick::parse(newick.trim()).unwrap();
    assert_eq!(tree.num_taxa(), 8);

    // Resume from the checkpoint must succeed and not regress.
    let first: f64 = String::from_utf8_lossy(&out.stdout)
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    let out = bin()
        .args([
            "search",
            "--alignment",
            phy.to_str().unwrap(),
            "--rounds",
            "4",
            "--no-model-opt",
            "--checkpoint",
            ckp.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let resumed: f64 = String::from_utf8_lossy(&out.stdout)
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    assert!(
        resumed >= first - 1e-6,
        "resume regressed: {resumed} < {first}"
    );
}

/// A traced search must keep the spans that say what the `op` events
/// do not — the search's own structure. A span per kernel call re-times
/// what those events already total and, at 64 taxa, laps the ring over
/// `search`, `round` and `spr_round`; so did the fork-join master's
/// three spans per region, which its `region` event already times, and
/// a worker's two, which lapped the worker's own ring.
#[test]
fn traced_search_keeps_its_structure_spans() {
    use phylomic::plf::trace::TraceEvent;
    let dir = TestDir::new("cli-trace-structure");
    let phy = dir.join("n64.phy");
    let out = bin()
        .args(["simulate", "--taxa", "64", "--sites", "400", "--seed", "7"])
        .args(["--out", phy.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    for (scheme, threads) in [("serial", "1"), ("forkjoin", "2")] {
        let trace = dir.join(format!("{scheme}.jsonl"));
        let out = bin()
            .args(["search", "--alignment", phy.to_str().unwrap()])
            .args(["--scheme", scheme, "--threads", threads])
            .args(["--rounds", "1", "--no-model-opt"])
            .args(["--trace-out", trace.to_str().unwrap()])
            .args(["--out", dir.join("best.nwk").to_str().unwrap()])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{scheme}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let doc = std::fs::read_to_string(&trace).unwrap();
        let events = phylomic::plf::trace::parse_jsonl(&doc).unwrap();
        let dropped = events.iter().find_map(|e| match e {
            TraceEvent::Meta { spans_dropped, .. } => Some(*spans_dropped),
            _ => None,
        });
        assert_eq!(dropped, Some(0), "{scheme}: a ring lapped");
        let spans: std::collections::BTreeSet<&str> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Span { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        for expected in ["search", "round", "spr_round"] {
            assert!(
                spans.contains(expected),
                "{scheme}: {expected:?} not in {spans:?}"
            );
        }
        for kernel in [
            "newview",
            "evaluate",
            "derivativeSum",
            "derivativeCore",
            "newton_iter",
        ] {
            assert!(
                !spans.contains(kernel),
                "{scheme}: a span per {kernel} call"
            );
        }
    }
}

/// Each engine resolves `auto` blocking against its own slice: 2 784
/// patterns exceed one uncalibrated 2 048-site block (the test directory
/// holds no `HOST_ROOFLINE.json`), but each half of a two-way split does
/// not, and the trace meta must say what the engines did.
#[test]
fn trace_meta_reports_the_blocking_the_engines_used() {
    use phylomic::plf::trace::TraceEvent;
    let dir = TestDir::new("cli-trace-blocking");
    let out = bin()
        .current_dir(&dir)
        .args(["simulate", "--taxa", "24", "--sites", "4000", "--seed", "3"])
        .args(["--out", "d.phy"])
        .output()
        .unwrap();
    assert!(out.status.success());
    for (scheme, threads, want) in [
        ("serial", "1", "on"),
        ("forkjoin", "2", "off"),
        ("replicated", "2", "off"),
    ] {
        let out = bin()
            .current_dir(&dir)
            .args(["search", "--alignment", "d.phy", "--scheme", scheme])
            .args(["--threads", threads, "--rounds", "0", "--no-model-opt"])
            .args(["--trace-out", "t.jsonl", "--out", "best.nwk"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{scheme}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let doc = std::fs::read_to_string(dir.join("t.jsonl")).unwrap();
        let events = phylomic::plf::trace::parse_jsonl(&doc).unwrap();
        let blocking = events.iter().find_map(|e| match e {
            TraceEvent::Meta { blocking, .. } => Some(blocking.as_str()),
            _ => None,
        });
        assert_eq!(blocking, Some(want), "{scheme} --threads {threads}");
    }
}

#[test]
fn traced_search_trace_report_and_chrome_export() {
    let dir = TestDir::new("cli-trace");
    let phy = dir.join("t.phy");
    let out = bin()
        .args([
            "simulate",
            "--taxa",
            "7",
            "--sites",
            "300",
            "--seed",
            "11",
            "--out",
            phy.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());

    // Traced fork-join search writing JSONL + Chrome exports, in the
    // default configuration.
    let trace = dir.join("run.jsonl");
    let chrome = dir.join("run.chrome.json");
    let out = bin()
        .args([
            "search",
            "--alignment",
            phy.to_str().unwrap(),
            "--scheme",
            "forkjoin",
            "--threads",
            "3",
            "--rounds",
            "1",
            "--no-model-opt",
            "--trace-out",
            trace.to_str().unwrap(),
            "--chrome-out",
            chrome.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Atomic write: no temp files left behind.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");

    // The JSONL trace leads with the schema marker and parses.
    let doc = std::fs::read_to_string(&trace).unwrap();
    assert!(doc.starts_with(r#"{"type":"meta","#), "{}", &doc[..60]);
    let events = phylomic::plf::trace::parse_jsonl(&doc).unwrap();
    assert!(events
        .iter()
        .any(|e| matches!(e, phylomic::plf::trace::TraceEvent::Span { .. })));
    assert!(events.iter().any(
        |e| matches!(e, phylomic::plf::trace::TraceEvent::Metric { name, .. }
            if name == "forkjoin.regions")
    ));

    // The Chrome export has one track per thread that records spans:
    // under --threads 3 that is the master alone. Its two workers
    // record none, so they register no track.
    let chrome_doc = std::fs::read_to_string(&chrome).unwrap();
    assert!(chrome_doc.starts_with(r#"{"traceEvents":["#));
    assert!(chrome_doc.contains(r#""name":"master""#));
    assert_eq!(chrome_doc.matches(r#""ph":"M""#).count(), 1, "one track");
    for label in ["worker0", "worker1"] {
        assert!(
            !chrome_doc.contains(&format!(r#""name":"{label}""#)),
            "{label} has an empty track"
        );
    }

    // trace-report digests the file.
    let out = bin()
        .args(["trace-report", "--trace", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "kernel time shares",
        "fork/join regions",
        "imbalance (slowest/mean)",
        "calibration cost table",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    // Garbage input fails cleanly.
    let bad = dir.join("bad.jsonl");
    std::fs::write(&bad, "not json\n").unwrap();
    let out = bin()
        .args(["trace-report", "--trace", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());

    // The pruned walk reports itself: its counters, and the section
    // derived from them.
    for needle in [
        "== traversal ==",
        "visits per newview",
        "core.traversal.nodes_visited",
        "core.traversal.nodes_in_schedule",
        "core.traversal.edges_changed",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    let metric = |name: &str| -> u64 {
        let line = text.lines().find(|l| l.starts_with(name)).expect(name);
        line.split_whitespace().last().unwrap().parse().unwrap()
    };
    let visited = metric("core.traversal.nodes_visited");
    assert!(visited > 0 && visited < metric("core.traversal.nodes_in_schedule") / 2);
    // A stale CLA is found in at most two looks, not in a walk over
    // the tree.
    let per_newview: f64 = {
        let line = text
            .lines()
            .find(|l| l.starts_with("visits per newview"))
            .unwrap();
        line.split_whitespace().nth(3).unwrap().parse().unwrap()
    };
    assert!(per_newview <= 2.0, "{per_newview} visits per newview");
}

/// `trace-report` reads the schema this build writes and no other: an
/// older trace and an event type it does not know each end in a
/// structured `error:` naming what was refused, not a panic and not a
/// report that silently leaves events out. (The second document's meta
/// line is read: the error names the line after it.)
#[test]
fn trace_report_refuses_other_versions_and_unknown_events() {
    use phylomic::plf::trace::TRACE_VERSION;
    let dir = TestDir::new("cli-trace-refused");
    let meta = format!(
        r#"{{"type":"meta","version":{TRACE_VERSION},"backend":"simd","simd_width_bits":512,"blocking":"off","spans_dropped":0,"roofline_mflops":0,"roofline_mbps":0,"transport":"","wire_ops":0,"wire_ns":0}}"#
    );
    for (name, doc, names) in [
        (
            "v8.jsonl",
            r#"{"type":"meta","version":8}"#.to_string(),
            "v8",
        ),
        (
            "kernel.jsonl",
            format!(
                "{meta}\n{}",
                r#"{"type":"kernel","source":"serial","kernel":"newview","calls":1,"sites":1,"total_ns":1,"min_ns":1,"max_ns":1}"#
            ),
            "unknown event type \"kernel\"",
        ),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, format!("{doc}\n")).unwrap();
        let out = bin()
            .args(["trace-report", "--trace", path.to_str().unwrap()])
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {err}");
        assert!(err.starts_with("error: "), "{name}: {err}");
        assert!(err.contains(names), "{name}: {err}");
        assert!(!err.contains("panicked"), "{name}: {err}");
        assert!(out.stdout.is_empty(), "{name}");
    }
}

#[test]
fn replicated_search_checkpoints_and_resumes() {
    let dir = TestDir::new("cli-repl");
    let phy = dir.join("r.phy");
    let out = bin()
        .args([
            "simulate",
            "--taxa",
            "8",
            "--sites",
            "400",
            "--seed",
            "21",
            "--out",
            phy.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());

    // Replicated search with a checkpoint — the restriction that
    // checkpointing only worked with the serial scheme is gone.
    let ckp = dir.join("repl.ckp");
    let out = bin()
        .args([
            "search",
            "--alignment",
            phy.to_str().unwrap(),
            "--scheme",
            "replicated",
            "--threads",
            "3",
            "--rounds",
            "1",
            "--no-model-opt",
            "--checkpoint",
            ckp.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(ckp.exists(), "rank 0 must write the checkpoint");
    let first: f64 = String::from_utf8_lossy(&out.stdout)
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();

    // Resume at a different rank count: snapshots are rank-agnostic.
    let out = bin()
        .args([
            "search",
            "--alignment",
            phy.to_str().unwrap(),
            "--scheme",
            "replicated",
            "--threads",
            "2",
            "--rounds",
            "3",
            "--no-model-opt",
            "--checkpoint",
            ckp.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let resumed: f64 = String::from_utf8_lossy(&out.stdout)
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    assert!(
        resumed >= first - 1e-6,
        "resume regressed: {resumed} < {first}"
    );
}

#[test]
fn injected_rank_death_fails_structured_and_degrade_survives() {
    let dir = TestDir::new("cli-inject");
    let phy = dir.join("i.phy");
    let out = bin()
        .args([
            "simulate",
            "--taxa",
            "8",
            "--sites",
            "300",
            "--seed",
            "33",
            "--out",
            phy.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let search_args = |extra: &[&str]| {
        let mut v = vec![
            "search".to_string(),
            "--alignment".into(),
            phy.to_str().unwrap().into(),
            "--scheme".into(),
            "replicated".into(),
            "--threads".into(),
            "3".into(),
            "--rounds".into(),
            "2".into(),
            "--no-model-opt".into(),
        ];
        v.extend(extra.iter().map(|s| s.to_string()));
        v
    };

    // Scripted death without --degrade: a clean, structured failure —
    // nonzero exit, the dead rank named on stderr, no hang (the test
    // harness itself would time out on a deadlock).
    let out = bin()
        .args(search_args(&["--inject-fault", "rank=1,allreduce=5"]))
        .output()
        .unwrap();
    assert!(!out.status.success(), "rank death must fail the run");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("rank 1"), "stderr must name the rank: {err}");

    // Same fault with --degrade: the run re-splits over the survivors
    // and completes successfully.
    let out = bin()
        .args(search_args(&[
            "--inject-fault",
            "rank=1,allreduce=5",
            "--degrade",
        ]))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "--degrade must survive a single rank death: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let ll: f64 = text.split_whitespace().nth(1).unwrap().parse().unwrap();
    assert!(ll.is_finite() && ll < 0.0, "bad logL in: {text}");

    // A malformed injection spec is a usage error.
    let out = bin()
        .args(search_args(&["--inject-fault", "rank=two,allreduce=x"]))
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--inject-fault"));

    // Injection is wired into fork-join too: a scripted job panic on
    // any slice — rank 0 is the master's own, ranks 1 and 2 the two
    // workers' — exits structurally instead of aborting or hanging
    // the pool.
    for slice in 0..3 {
        let out = bin()
            .args([
                "search",
                "--alignment",
                phy.to_str().unwrap(),
                "--scheme",
                "forkjoin",
                "--threads",
                "3",
                "--rounds",
                "1",
                "--no-model-opt",
                "--inject-fault",
                &format!("rank={slice},region=2"),
            ])
            .output()
            .unwrap();
        assert!(!out.status.success());
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("fork-join region failed")
                && err.contains(&format!("slice {slice} panics in region 2")),
            "{err}"
        );
    }

    // Under the serial scheme the flag is meaningless — reject it
    // rather than silently ignoring the requested fault.
    let out = bin()
        .args([
            "search",
            "--alignment",
            phy.to_str().unwrap(),
            "--inject-fault",
            "rank=1,allreduce=1",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--scheme"));
}

#[test]
fn bad_usage_fails_cleanly() {
    // Unknown subcommand.
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    // Missing required option.
    let out = bin()
        .args(["evaluate", "--tree", "x.nwk"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--alignment"), "{err}");
    // Nonexistent file.
    let out = bin()
        .args([
            "evaluate",
            "--alignment",
            "/nonexistent.phy",
            "--tree",
            "/nonexistent.nwk",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    // No args at all prints usage.
    let out = bin().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

/// A PHYLIP header may declare more taxa or sites than the file holds
/// by any amount: `evaluate` still exits 1 with a parse error (no
/// allocation is sized from the header), never aborts.
#[test]
fn huge_phylip_header_counts_are_parse_errors() {
    let dir = TestDir::new("cli-huge-header");
    let tree = dir.join("t.nwk");
    std::fs::write(&tree, "(a:0.1,b:0.1,c:0.1,d:0.1);\n").unwrap();
    for (tag, text) in [
        ("taxa", "99999999999999 4\na ACGT\n"),
        ("sites", "4 99999999999999\na ACGT\n"),
    ] {
        let phy = dir.join(format!("{tag}.phy"));
        std::fs::write(&phy, text).unwrap();
        let out = bin()
            .args(["evaluate", "--alignment", phy.to_str().unwrap()])
            .args(["--tree", tree.to_str().unwrap()])
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "huge {tag}: {err}");
        assert!(err.contains("parse error"), "huge {tag}: {err}");
    }
}

#[test]
fn bootstrap_produces_annotated_tree() {
    let dir = TestDir::new("cli-bootstrap");
    let phy = dir.join("bs.phy");
    bin()
        .args([
            "simulate",
            "--taxa",
            "6",
            "--sites",
            "300",
            "--seed",
            "9",
            "--out",
            phy.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let out_file = dir.join("annotated.nwk");
    let out = bin()
        .args([
            "bootstrap",
            "--alignment",
            phy.to_str().unwrap(),
            "--replicates",
            "3",
            "--rounds",
            "1",
            "--out",
            out_file.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let annotated = std::fs::read_to_string(&out_file).unwrap();
    let tree = phylomic::tree::newick::parse(annotated.trim()).unwrap();
    assert_eq!(tree.num_taxa(), 6);
}

#[test]
fn unknown_options_are_refused_per_subcommand() {
    let dir = TestDir::new("cli-unknown-option");
    let phy = dir.join("u.phy");
    let out = bin()
        .args(["simulate", "--taxa", "6", "--sites", "200", "--seed", "9"])
        .args(["--out", phy.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let tree = format!("{}.tree", phy.display());
    let run = |cmd: &str, extra: &[&str]| -> (Option<i32>, String) {
        let out = bin()
            .args([cmd, "--alignment", phy.to_str().unwrap(), "--tree", &tree])
            .args(extra)
            .output()
            .unwrap();
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    // A mistyped option does not run the default search.
    let (code, err) = run("search", &["--round", "0"]);
    assert_eq!(code, Some(1), "{err}");
    assert!(err.starts_with("error: unknown option --round\n"), "{err}");
    // An option of another subcommand is as unknown as a typo.
    let (code, err) = run("evaluate", &["--threads", "2"]);
    assert_eq!(code, Some(1), "{err}");
    assert!(
        err.starts_with("error: unknown option --threads\n"),
        "{err}"
    );
    // A retired option says where it went.
    for cmd in ["evaluate", "search"] {
        let (code, err) = run(cmd, &["--site-repeats", "on"]);
        assert_eq!(code, Some(1), "{cmd}: {err}");
        assert!(
            err.starts_with("error: unknown option --site-repeats (removed: "),
            "{cmd}: {err}"
        );
        assert!(err.contains("DESIGN.md §13"), "{cmd}: {err}");
        // The engine picks its own backend and blocking.
        for (flag, value) in [
            ("kernels", "simd"),
            ("blocking", "on"),
            ("kernel", "scalar"),
        ] {
            let (code, err) = run(cmd, &[&format!("--{flag}"), value]);
            assert_eq!(code, Some(1), "{cmd} --{flag}: {err}");
            let hint = format!("error: unknown option --{flag} (removed: the kernel backend");
            assert!(err.starts_with(&hint), "{cmd} --{flag}: {err}");
            assert!(err.contains("`kernel backend:` line"), "{cmd}: {err}");
        }
    }
    // Every option a subcommand does read still gets through.
    let (code, err) = run(
        "search",
        &["--rounds", "0", "--no-model-opt", "--alpha", "0.5"],
    );
    assert_eq!(code, Some(0), "{err}");
}

/// `search --rounds 0` on a 6-taxon alignment with `extra` appended:
/// exit code and stderr.
fn search_with(extra: &[&str]) -> (Option<i32>, String) {
    let dir = TestDir::new("cli-scheme-options");
    let phy = dir.join("s.phy");
    let out = bin()
        .args(["simulate", "--taxa", "6", "--sites", "200", "--seed", "9"])
        .args(["--out", phy.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = bin()
        .args(["search", "--alignment", phy.to_str().unwrap()])
        .args(["--rounds", "0", "--no-model-opt"])
        .args(extra)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code(), stderr)
}

#[test]
fn transport_is_refused_outside_the_replicated_scheme() {
    let refusal = (Some(1), "error: --transport needs --scheme replicated\n");
    for scheme in ["serial", "forkjoin"] {
        let (code, err) = search_with(&["--scheme", scheme, "--transport", "uds"]);
        assert_eq!((code, err.as_str()), refusal, "{scheme}");
    }
    let (code, err) = search_with(&["--scheme", "replicated", "--transport", "threads"]);
    assert_eq!(code, Some(0), "{err}");
}

#[test]
fn degrade_is_refused_outside_the_replicated_scheme() {
    let refusal = (Some(1), "error: --degrade needs --scheme replicated\n");
    for args in [&["--degrade", "--scheme", "forkjoin"][..], &["--degrade"]] {
        let (code, err) = search_with(args);
        assert_eq!((code, err.as_str()), refusal, "{args:?}");
    }
    let (code, err) = search_with(&["--scheme", "replicated", "--degrade"]);
    assert_eq!(code, Some(0), "{err}");
}

#[test]
fn threads_are_refused_under_the_serial_scheme() {
    let (code, err) = search_with(&["--scheme", "serial", "--threads", "4"]);
    let refusal = "error: --threads 4 needs --scheme forkjoin or replicated\n";
    assert_eq!((code, err.as_str()), (Some(1), refusal));
    // One thread is what the serial scheme runs; a scheme that does
    // not exist is still the first thing wrong with a command line.
    let (code, err) = search_with(&["--threads", "1"]);
    assert_eq!(code, Some(0), "{err}");
    let (code, err) = search_with(&["--scheme", "mpi", "--threads", "4"]);
    assert_eq!(
        (code, err.as_str()),
        (Some(1), "error: unknown --scheme \"mpi\"\n")
    );
}

/// Every run says which kernel bodies it measured: the backend the host
/// resolved and its vector width, on stdout, in the trace meta and in
/// the report.
#[test]
fn evaluate_reports_the_resolved_backend() {
    let dir = TestDir::new("cli-kernels");
    let phy = dir.join("k.phy");
    let out = bin()
        .args(["simulate", "--taxa", "8", "--sites", "600", "--seed", "11"])
        .args(["--out", phy.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let tree = format!("{}.tree", phy.display());
    let trace = dir.join("k.jsonl");
    let out = bin()
        .args(["evaluate", "--alignment", phy.to_str().unwrap()])
        .args(["--tree", &tree, "--trace-out", trace.to_str().unwrap()])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let resolved = phylomic::plf::KernelKind::Simd.resolve();
    let width = resolved.simd_width_bits();
    let line = format!("kernel backend: {resolved}  simd_width_bits {width}\n");
    assert!(stdout.contains(&line), "{stdout}");
    let meta = std::fs::read_to_string(&trace).unwrap();
    let meta = meta.lines().next().unwrap();
    let field = format!(r#""backend":"{resolved}","simd_width_bits":{width},"#);
    assert!(meta.contains(&field), "{meta}");
    let out = bin()
        .args(["trace-report", "--trace", trace.to_str().unwrap()])
        .output()
        .unwrap();
    let report = String::from_utf8_lossy(&out.stdout);
    let lines = format!("kernel backend: {resolved}\nsimd_width_bits: {width}\n");
    assert!(report.contains(&lines), "{report}");
}

/// Every scheme's engines — the uds children's too, rebuilt from the
/// flags the supervisor passes on — find the serial run's tree.
#[test]
fn every_scheme_finds_the_serial_tree() {
    let dir = TestDir::new("cli-every-scheme");
    let phy = dir.join("s.phy");
    let out = bin()
        .args(["simulate", "--taxa", "8", "--sites", "400", "--seed", "5"])
        .args(["--out", phy.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let search = |name: &str, extra: &[&str]| -> (String, String) {
        let tree = dir.join(format!("{name}.nwk"));
        let out = bin()
            .args(["search", "--alignment", phy.to_str().unwrap()])
            .args(["--rounds", "1", "--seed", "3", "--no-model-opt"])
            .args(["--out", tree.to_str().unwrap()])
            .args(extra)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{name}: {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        (stdout, std::fs::read_to_string(tree).unwrap())
    };
    let logl = |stdout: &str| -> f64 {
        let mut words = stdout.split_whitespace().skip_while(|w| *w != "logL");
        words.nth(1).expect("logL value").parse().expect("a number")
    };
    let (serial_out, serial_tree) = search("serial", &["--scheme", "serial"]);
    let schemes: [&[&str]; 3] = [
        &["--scheme", "forkjoin", "--threads", "2"],
        &[
            "--scheme",
            "replicated",
            "--threads",
            "2",
            "--transport",
            "threads",
        ],
        &[
            "--scheme",
            "replicated",
            "--threads",
            "2",
            "--transport",
            "uds",
        ],
    ];
    for (i, scheme) in schemes.into_iter().enumerate() {
        let (stdout, tree) = search(&format!("run{i}"), scheme);
        // Pattern slices move the last digits of the branch lengths,
        // never the topology.
        let parse = |t: &str| phylomic::tree::newick::parse(t).unwrap();
        let rf = parse(&tree).rf_distance(&parse(&serial_tree));
        assert_eq!(
            rf, 0,
            "{scheme:?}: {tree} is not the serial run's {serial_tree}"
        );
        let (got, expect) = (logl(&stdout), logl(&serial_out));
        assert!(
            (got - expect).abs() <= 1e-6,
            "{scheme:?}: logL {got} vs {expect}"
        );
    }
}

#[test]
fn retired_tcp_transport_is_a_usage_error() {
    let dir = TestDir::new("cli-tcp");
    let phy = dir.join("t.phy");
    let out = bin()
        .args(["simulate", "--taxa", "5", "--sites", "60", "--seed", "3"])
        .args(["--out", phy.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = bin()
        .args(["search", "--alignment", phy.to_str().unwrap()])
        .args([
            "--scheme",
            "replicated",
            "--threads",
            "2",
            "--transport",
            "tcp",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("error: --transport:"), "{err}");
    assert!(err.contains("threads") && err.contains("uds"), "{err}");
}

/// Every `"…"` literal of `text` that follows one of `openers`.
fn literals_after(text: &str, openers: &[&str]) -> std::collections::BTreeSet<String> {
    let mut found = std::collections::BTreeSet::new();
    for opener in openers {
        for (at, _) in text.match_indices(opener) {
            let rest = &text[at + opener.len()..];
            found.insert(rest[..rest.find('"').expect("closing quote")].to_string());
        }
    }
    found
}

#[test]
fn options_listed_are_exactly_the_options_read() {
    // `parse_opts` refuses what `COMMANDS` does not list, so a key that
    // is read but not listed can never be set, and one that is listed
    // but not read is accepted and ignored: both are silent.
    let source: String = include_str!("../src/bin/phylomic.rs")
        .lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .flat_map(|l| l.chars().filter(|c| !c.is_whitespace()))
        .collect();
    let read = literals_after(
        &source,
        &[
            "opts.get(\"",
            "opts.contains_key(\"",
            "get(opts,\"",
            "require(opts,\"",
        ],
    );
    // The option tables: everything from the first group constant up
    // to the usage text. A literal after `(` is a subcommand's name,
    // one after `[` or `,` an option.
    let start = source
        .find("constSEARCH_INPUT_OPTS")
        .expect("option groups");
    let end = source.find("constUSAGE").expect("usage text");
    let listed = literals_after(&source[start..end], &["[\"", ",\""]);
    assert!(
        read.contains("alignment") && read.contains("force"),
        "{read:?}"
    );
    assert_eq!(
        read, listed,
        "left: keys the CLI reads; right: keys COMMANDS lists"
    );
}
