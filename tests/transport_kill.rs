//! Process-kill matrix for the socket transport: SIGKILL one rank at
//! each of the collective sites the in-thread fault matrix exercises,
//! and require the supervisor to (a) fail structured / degrade within a
//! watchdog deadline, (b) reproduce the clean lower-rank run exactly,
//! and (c) leave no orphan child processes behind.
//!
//! Everything here drives the real `phylomic` binary over real Unix
//! sockets — the kill is a genuine `SIGKILL`, delivered by the dying
//! rank to itself at the scripted AllReduce, so the hub sees the same
//! raw EOF a scheduler OOM-kill would produce. The last test is the
//! fault matrix over *both* transports: what holds the thread
//! supervisor and the socket supervisor to one verdict per fault.
#![cfg(unix)]

mod common;

use common::TestDir;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::mpsc;
use std::time::Duration;

/// `(ranks, killed_rank, allreduce_ordinal)` — the same four sites the
/// in-thread `FaultPlan` matrix kills at, now as real processes.
const KILL_MATRIX: [(usize, usize, u64); 4] = [(2, 1, 1), (3, 2, 2), (3, 1, 7), (4, 3, 25)];

fn bin() -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_phylomic"));
    // Wire timeouts of 30 s, 3x the 10 s default: a killed peer is seen
    // at once (its socket closes), so the timeout only decides when a
    // slow live peer counts as dead. On a loaded test host that must
    // not happen early, and a hung collective must still end in a
    // structured timeout well inside the 240 s `within_deadline`.
    c.env("PHYLOMIC_WIRE_TIMEOUT_MS", "30000");
    c.env("PHYLOMIC_TRANSPORT_VERBOSE", "1");
    c
}

/// Runs `f` on a helper thread and panics if it exceeds `secs`: a
/// transport bug that deadlocks a collective must fail loudly here.
fn within_deadline<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .unwrap_or_else(|_| panic!("deadline of {secs}s exceeded — transport hang"))
}

fn simulate(dir: &Path) -> PathBuf {
    let phy = dir.join("sim.phy");
    let out = bin()
        .args([
            "simulate",
            "--taxa",
            "7",
            "--sites",
            "240",
            "--seed",
            "11",
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
    phy
}

struct RunResult {
    log_likelihood: f64,
    tree: String,
    /// Child pids announced by the supervisor ("spawned rank R pid P").
    child_pids: Vec<u32>,
}

/// One `phylomic search --transport uds` invocation; `fault` is the
/// `--inject-fault` spec, if any.
fn search_uds(dir: &Path, phy: &Path, ranks: usize, fault: Option<&str>, tag: &str) -> RunResult {
    let tree_out = dir.join(format!("{tag}.nwk"));
    let mut cmd = bin();
    cmd.args([
        "search",
        "--alignment",
        phy.to_str().unwrap(),
        "--rounds",
        "2",
        "--seed",
        "5",
        "--no-model-opt",
        "--scheme",
        "replicated",
        "--threads",
        &ranks.to_string(),
        "--transport",
        "uds",
        "--out",
        tree_out.to_str().unwrap(),
    ]);
    if let Some(spec) = fault {
        cmd.args(["--degrade", "--inject-fault", spec]);
    }
    let out = cmd.output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{tag}: search failed\nstdout: {stdout}\nstderr: {stderr}"
    );
    let log_likelihood: f64 = stdout
        .lines()
        .find_map(|l| l.strip_prefix("logL "))
        .unwrap_or_else(|| panic!("{tag}: no logL line in {stdout:?}"))
        .split_whitespace()
        .next()
        .unwrap()
        .parse()
        .unwrap();
    let child_pids = stdout
        .lines()
        .filter_map(|l| {
            l.rsplit_once(" pid ")
                .map(|(_, p)| p.trim().parse().unwrap())
        })
        .collect();
    RunResult {
        log_likelihood,
        tree: std::fs::read_to_string(&tree_out).unwrap(),
        child_pids,
    }
}

/// True while `pid` still names a live `phylomic _rank` process (pid
/// reuse by an unrelated process must not fail the orphan check).
fn rank_process_alive(pid: u32) -> bool {
    match std::fs::read(format!("/proc/{pid}/cmdline")) {
        Ok(bytes) => {
            let cmdline = String::from_utf8_lossy(&bytes);
            cmdline.contains("phylomic") && cmdline.contains("_rank")
        }
        Err(_) => false,
    }
}

#[test]
fn sigkill_matrix_degrades_to_the_clean_lower_rank_result() {
    let dir = TestDir::new("kill-matrix");
    let phy = simulate(&dir);

    // Clean baselines at every degraded rank count the matrix lands on.
    let mut baselines = std::collections::HashMap::new();
    for survivors in [1usize, 2, 3] {
        let phy = phy.clone();
        let dir = dir.to_path_buf();
        let r = within_deadline(240, move || {
            search_uds(&dir, &phy, survivors, None, &format!("clean{survivors}"))
        });
        baselines.insert(survivors, r);
    }

    let mut all_pids = Vec::new();
    for (ranks, victim, allreduce) in KILL_MATRIX {
        let spec = format!("rank={victim},kill9={allreduce}");
        let tag = format!("kill-r{ranks}-v{victim}-a{allreduce}");
        let killed = {
            let (phy, dir, spec, tag) = (phy.clone(), dir.to_path_buf(), spec.clone(), tag.clone());
            within_deadline(240, move || {
                search_uds(&dir, &phy, ranks, Some(&spec), &tag)
            })
        };
        let clean = &baselines[&(ranks - 1)];
        assert!(
            (killed.log_likelihood - clean.log_likelihood).abs() <= 1e-9,
            "{tag}: degraded logL {} != clean {}-rank logL {}",
            killed.log_likelihood,
            ranks - 1,
            clean.log_likelihood
        );
        assert_eq!(
            killed.tree,
            clean.tree,
            "{tag}: degraded tree differs from the clean {}-rank tree",
            ranks - 1
        );
        all_pids.extend(killed.child_pids);
    }

    // No orphans: every child the supervisors announced — killed,
    // respawned, or cleanly exited — must be gone now that the
    // supervisor processes have returned.
    std::thread::sleep(Duration::from_millis(100));
    for pid in all_pids {
        assert!(
            !rank_process_alive(pid),
            "rank process {pid} survived its supervisor"
        );
    }
}

#[test]
fn sigkill_without_degrade_fails_structured_not_hanging() {
    let dir = TestDir::new("kill-nodegrade");
    let phy = simulate(&dir);
    let tree_out = dir.join("t.nwk");

    let out = within_deadline(240, move || {
        bin()
            .args([
                "search",
                "--alignment",
                phy.to_str().unwrap(),
                "--rounds",
                "2",
                "--seed",
                "5",
                "--no-model-opt",
                "--scheme",
                "replicated",
                "--threads",
                "3",
                "--transport",
                "uds",
                "--inject-fault",
                "rank=1,kill9=2",
                "--out",
                tree_out.to_str().unwrap(),
            ])
            .output()
            .unwrap()
    });
    assert!(
        !out.status.success(),
        "a SIGKILL'd rank without --degrade must fail the run"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("rank 1"),
        "error must name the dead rank: {stderr}"
    );
}

/// What one `search --scheme replicated --threads RANKS` run came to:
/// for a success the `logL` line without its wall-clock field and the
/// tree, for a failure the exit code and the last `error:` line of
/// stderr (a `_rank` child's own lines come before the supervisor's,
/// which reaps the children first; a degraded run that succeeds still
/// carries the dead attempt's).
fn verdict(dir: &Path, phy: &Path, transport: &str, ranks: usize, extra: &[&str]) -> String {
    let (tree_out, ckpt) = (dir.join("matrix.nwk"), dir.join("matrix.ckp"));
    let mut cmd = bin();
    cmd.args(["search", "--alignment", phy.to_str().unwrap()])
        .args(["--rounds", "2", "--seed", "5", "--no-model-opt"])
        .args(["--scheme", "replicated", "--threads", &ranks.to_string()])
        .args([
            "--transport",
            transport,
            "--out",
            tree_out.to_str().unwrap(),
        ])
        .args(extra);
    if extra.iter().any(|arg| arg.starts_with("ckpt-write")) {
        cmd.args(["--checkpoint", ckpt.to_str().unwrap()]);
    }
    let out = cmd.output().unwrap();
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    if out.status.success() {
        let logl = stdout.lines().find(|l| l.starts_with("logL ")).unwrap();
        let logl = logl.split("  time ").next().unwrap();
        format!("{logl}\n{}", std::fs::read_to_string(&tree_out).unwrap())
    } else {
        let error = stderr.lines().rfind(|l| l.starts_with("error: "));
        let error = error.unwrap_or("no error line");
        format!(
            "exit {:?}: {}",
            out.status.code(),
            error.replace(ckpt.to_str().unwrap(), "CKPT")
        )
    }
}

/// One fault matrix over both transports: the thread supervisor and the
/// socket supervisor must give the same verdict for the same scripted
/// fault — the same exit code and final `error:` line without
/// `--degrade`, and with it the tree and `logL` line of a clean run on
/// one rank fewer (a checkpoint failure is not a rank failure: it stays
/// an error either way).
#[test]
fn fault_matrix_gives_the_same_verdict_on_both_transports() {
    const PEER_1: &str = "error: collective failed: peer rank 1 failed mid-collective";
    const PEER_0: &str = "error: collective failed: peer rank 0 failed mid-collective";
    const CKPT: &str = "error: checkpoint error: checkpoint write to CKPT failed: \
                        injected checkpoint write failure (attempt 5)";
    // (--inject-fault, final error line, --degrade recovers)
    const MATRIX: [(&str, &str, bool); 4] = [
        ("rank=1,allreduce=5", PEER_1, true),
        ("rank=1,kill9=5", PEER_1, true),
        ("rank=0,allreduce=5", PEER_0, true),
        ("ckpt-write=1,count=99", CKPT, false),
    ];
    let dir = TestDir::new("fault-matrix");
    let phy = simulate(&dir);
    let run = |transport: &'static str, ranks: usize, extra: Vec<&'static str>| {
        let (dir, phy) = (dir.to_path_buf(), phy.clone());
        within_deadline(240, move || verdict(&dir, &phy, transport, ranks, &extra))
    };
    let clean = run("threads", 2, vec![]);
    assert!(clean.starts_with("logL "), "{clean}");
    assert_eq!(run("uds", 2, vec![]), clean, "clean 2-rank runs differ");
    for (fault, error_line, recovers) in MATRIX {
        for transport in ["threads", "uds"] {
            for degrade in [false, true] {
                let mut extra = vec!["--inject-fault", fault];
                extra.extend(degrade.then_some("--degrade"));
                let want = match degrade && recovers {
                    true => clean.clone(),
                    false => format!("exit Some(1): {error_line}"),
                };
                let got = run(transport, 3, extra);
                assert_eq!(got, want, "{fault} on {transport}, degrade {degrade}");
            }
        }
    }
}
