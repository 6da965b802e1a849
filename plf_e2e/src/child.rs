//! Running the `phylomic` CLI as a child process, robustly.
//!
//! The CLI's socket transport spawns one `_rank` process per extra
//! rank. The child is therefore started as the leader of a fresh
//! process group, so that a watchdog expiry can kill the supervisor
//! and every rank in one signal, and so that a leftover rank can be
//! found afterwards by its group id.

use std::io::Read;
use std::os::unix::process::CommandExt;
use std::process::{Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

extern "C" {
    /// `kill(2)` from the C library std already links.
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGKILL: i32 = 9;

/// What a finished (or killed) child left behind.
#[derive(Debug)]
pub struct ChildRun {
    /// Spawn to reaped exit of the group leader.
    pub wall: Duration,
    /// Exit status of the group leader.
    pub status: ExitStatus,
    /// Everything it wrote to stdout.
    pub stdout: String,
    /// Everything it (and its ranks) wrote to stderr.
    pub stderr: String,
    /// Whether the watchdog had to kill the group.
    pub timed_out: bool,
    /// Processes of the child's group still alive after it was reaped
    /// (they are killed before this returns; any count above 0 is a
    /// failed operation).
    pub leftover: usize,
}

/// Sends SIGKILL to every process of group `pgid`.
fn kill_group(pgid: u32) {
    let Ok(pgid) = i32::try_from(pgid) else {
        return;
    };
    // SAFETY: kill(2) takes two integers and touches none of this
    // process's memory. A negative pid addresses the process group;
    // `pgid` is the id of a child this process spawned as a group
    // leader, never 0 or 1, so the signal cannot reach this process.
    unsafe {
        kill(-pgid, SIGKILL);
    }
}

/// Live processes whose process group is `pgid`, from `/proc`.
fn group_members(pgid: u32) -> usize {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| {
            e.file_name()
                .to_string_lossy()
                .bytes()
                .all(|b| b.is_ascii_digit())
        })
        .filter_map(|e| std::fs::read_to_string(e.path().join("stat")).ok())
        .filter(|stat| {
            // "pid (comm) state ppid pgrp ...": comm may hold spaces and
            // parentheses, so split after the last ')'. Zombies ('Z')
            // are dead processes awaiting their parent's wait.
            let Some((_, rest)) = stat.rsplit_once(')') else {
                return false;
            };
            let mut fields = rest.split_whitespace();
            let state = fields.next();
            let pgrp = fields.nth(1).and_then(|p| p.parse::<u32>().ok());
            state != Some("Z") && pgrp == Some(pgid)
        })
        .count()
}

/// Reads `pipe` to EOF on a thread of its own.
fn drain<R: Read + Send + 'static>(pipe: Option<R>) -> JoinHandle<String> {
    std::thread::spawn(move || {
        let mut text = Vec::new();
        if let Some(mut pipe) = pipe {
            // A read error only truncates the captured text; the exit
            // status still decides success.
            let _ = pipe.read_to_end(&mut text);
        }
        String::from_utf8_lossy(&text).into_owned()
    })
}

/// Runs `cmd` to completion as the leader of its own process group.
///
/// Both output pipes are drained to EOF on their own threads (the CLI
/// panics with "failed printing to stdout: Broken pipe" if a reader
/// goes away early). After `watchdog` the whole group is killed.
pub fn run_group(mut cmd: Command, watchdog: Duration) -> std::io::Result<ChildRun> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .process_group(0);
    let start = Instant::now();
    let mut child = cmd.spawn()?;
    let pgid = child.id();
    let out = drain(child.stdout.take());
    let err = drain(child.stderr.take());

    let (done_tx, done_rx) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let status = child.wait();
        // The receiver is alive until this thread is joined.
        let _ = done_tx.send(());
        status
    });
    let timed_out = done_rx.recv_timeout(watchdog).is_err();
    if timed_out {
        kill_group(pgid);
    }
    let status = waiter.join().expect("wait thread does not panic")?;
    let wall = start.elapsed();

    // The leader is reaped; anything still in its group outlived it.
    // After a watchdog kill the signal may still be in flight to the
    // ranks, so give them a moment to die before counting.
    let mut leftover = group_members(pgid);
    let deadline = Instant::now() + Duration::from_secs(2);
    while timed_out && leftover > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        leftover = group_members(pgid);
    }
    if leftover > 0 {
        kill_group(pgid);
    }
    // The pipes reach EOF once every holder of their write ends is
    // gone, which the kill above guarantees.
    let stdout = out.join().expect("drain thread does not panic");
    let stderr = err.join().expect("drain thread does not panic");
    Ok(ChildRun {
        wall,
        status,
        stdout,
        stderr,
        timed_out,
        leftover,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str) -> Command {
        let mut c = Command::new("sh");
        c.arg("-c").arg(script);
        c
    }

    #[test]
    fn drains_both_pipes_and_reports_exit_status() {
        // More than a pipe buffer (64 KiB) on each stream: an undrained
        // pipe would block the child for ever.
        let run = run_group(
            sh("head -c 200000 /dev/zero | tr '\\0' a; head -c 200000 /dev/zero | tr '\\0' b >&2; exit 3"),
            Duration::from_secs(20),
        )
        .unwrap();
        assert_eq!(run.status.code(), Some(3));
        assert_eq!((run.stdout.len(), run.stderr.len()), (200_000, 200_000));
        assert!(!run.timed_out);
        assert_eq!(run.leftover, 0);
    }

    #[test]
    fn watchdog_kills_the_whole_group() {
        // The shell starts a grandchild that would outlive it by far.
        let run = run_group(sh("sleep 30 & sleep 30"), Duration::from_millis(200)).unwrap();
        assert!(run.timed_out);
        assert!(!run.status.success());
        assert!(run.wall < Duration::from_secs(10));
        assert_eq!(run.leftover, 0, "the group kill reaches the grandchild");
    }

    #[test]
    fn a_rank_that_outlives_its_supervisor_is_found_and_killed() {
        let run = run_group(
            sh("sleep 30 >/dev/null 2>&1 & exit 0"),
            Duration::from_secs(20),
        )
        .unwrap();
        assert!(run.status.success());
        assert_eq!(run.leftover, 1);
    }
}
