//! Search checkpointing and restart.
//!
//! RAxML-Light bills itself as "a tool for computing terabyte
//! phylogenies": week-long searches on supercomputers survive job time
//! limits by checkpointing. This module provides the same capability
//! for our search driver — the complete optimizer state (topology,
//! branch lengths, model parameters, progress counters) round-trips
//! through a small, versioned, human-readable text format.
//!
//! Restarting is deterministic: resuming the same checkpoint twice
//! yields identical results. It is *trajectory-equivalent* rather than
//! bit-identical to the uninterrupted run — the Newick round-trip
//! re-anchors the tree arena, which renumbers nodes and edges. The
//! numbering is arbitrary but trajectory-relevant: SPR prune
//! candidates and NNI edges are tried in edge-id order, and every
//! smoothing tour and regraft enumeration is a depth-first walk that
//! starts at a numbered edge and takes siblings in `incident` order.
//! So the hill-climb may take a different path to an equally good
//! optimum.

use phylo_models::GtrParams;
use phylo_tree::{newick, Tree, TreeError};
use std::path::Path;
use std::time::Duration;

/// Writes `content` to `path` atomically *and durably*: same-directory
/// temp file (suffixed `.tmp.<pid>` so sibling files and concurrent
/// processes never collide), `fsync` of the temp file before the
/// rename (otherwise a crash can publish an empty or truncated file
/// under the final name), rename, then `fsync` of the parent
/// directory so the rename itself survives a power cut. This is the
/// one write path for every artifact a crash must not corrupt —
/// checkpoints here, traces in the CLI.
pub fn write_atomic(path: &Path, content: &str) -> std::io::Result<()> {
    use std::io::Write;
    let file_name = path.file_name().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("{} has no file name", path.display()),
        )
    })?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    let written = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(content.as_bytes())?;
        // Data must be on disk *before* the rename publishes the
        // name, or a crash surfaces a truncated file that parses as
        // garbage.
        f.sync_all()
    })();
    if let Err(e) = written {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    // Durable rename: fsync the directory entry. Directories can't be
    // opened for syncing on every platform; skip silently where the
    // open fails (the data fsync above already happened).
    let parent = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    if let Ok(dir) = std::fs::File::open(parent) {
        dir.sync_all()?;
    }
    Ok(())
}

/// Bounded retry-with-backoff for checkpoint I/O: attempt `attempts`
/// times, sleeping `base_backoff * 2^k` between tries. A transient
/// `ENOSPC`/`EIO` during a week-long search should cost a few retries,
/// not the whole run.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total write attempts (≥ 1) before giving up.
    pub attempts: u32,
    /// Backoff before the second attempt; doubles per retry.
    pub base_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 5,
            base_backoff: Duration::from_millis(100),
        }
    }
}

impl RetryPolicy {
    /// Doubling stops at `base_backoff * 2^MAX_SHIFT`: a shift clamp,
    /// not just a duration cap, so the `1 << k` can never overflow no
    /// matter how large `attempts` is configured.
    const MAX_SHIFT: u32 = 6;

    /// Hard ceiling on any single sleep, whatever `base_backoff` says.
    const MAX_SLEEP: Duration = Duration::from_secs(30);

    /// Ceiling on the *sum* of sleeps across one `save_with_retry`
    /// call. Once spent, remaining retries fire back-to-back: a
    /// checkpoint writer configured with `attempts: 80` must not
    /// stall a search for minutes.
    const MAX_TOTAL_SLEEP: Duration = Duration::from_secs(120);

    /// A policy that never retries (single attempt).
    pub fn none() -> Self {
        RetryPolicy {
            attempts: 1,
            base_backoff: Duration::ZERO,
        }
    }

    /// The sleep after failed attempt number `attempt` (1-based):
    /// `base_backoff * 2^(attempt-1)` with the exponent clamped to
    /// [`Self::MAX_SHIFT`] and the product capped at
    /// [`Self::MAX_SLEEP`]. Total fuzz across a call is further
    /// bounded by [`Self::MAX_TOTAL_SLEEP`] in the retry loop.
    pub fn backoff_after(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1).min(Self::MAX_SHIFT);
        self.base_backoff
            .saturating_mul(1u32 << shift)
            .min(Self::MAX_SLEEP)
    }
}

/// A complete, restartable snapshot of an ML search.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Current tree with branch lengths, as Newick.
    pub newick: String,
    /// Γ shape parameter.
    pub alpha: f64,
    /// GTR parameters.
    pub params: GtrParams,
    /// Completed improvement rounds.
    pub rounds_done: usize,
    /// Best log-likelihood so far.
    pub log_likelihood: f64,
    /// Cumulative SPR/NNI candidates scored.
    pub moves_evaluated: usize,
    /// Cumulative accepted rearrangements.
    pub moves_accepted: usize,
}

/// Format tag; bump on breaking changes.
const MAGIC: &str = "phylomic-checkpoint v1";

impl Checkpoint {
    /// Serializes to the versioned text format.
    pub fn to_text(&self) -> String {
        let r = &self.params.rates;
        let f = &self.params.freqs;
        format!(
            "{MAGIC}\n\
             tree {}\n\
             alpha {:.17e}\n\
             rates {:.17e} {:.17e} {:.17e} {:.17e} {:.17e} {:.17e}\n\
             freqs {:.17e} {:.17e} {:.17e} {:.17e}\n\
             rounds_done {}\n\
             log_likelihood {:.17e}\n\
             moves_evaluated {}\n\
             moves_accepted {}\n",
            self.newick,
            self.alpha,
            r[0],
            r[1],
            r[2],
            r[3],
            r[4],
            r[5],
            f[0],
            f[1],
            f[2],
            f[3],
            self.rounds_done,
            self.log_likelihood,
            self.moves_evaluated,
            self.moves_accepted,
        )
    }

    /// Parses the text format, validating the tree and model.
    pub fn from_text(text: &str) -> Result<Checkpoint, String> {
        let mut lines = text.lines();
        let magic = lines.next().ok_or("empty checkpoint")?;
        if magic.trim() != MAGIC {
            return Err(format!("unrecognized checkpoint header {magic:?}"));
        }
        let mut newick_s = None;
        let mut alpha = None;
        let mut rates: Option<[f64; 6]> = None;
        let mut freqs: Option<[f64; 4]> = None;
        let mut rounds_done = None;
        let mut log_likelihood = None;
        let mut moves_evaluated = None;
        let mut moves_accepted = None;

        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, rest) = line
                .split_once(' ')
                .ok_or_else(|| format!("malformed checkpoint line {line:?}"))?;
            let floats = |s: &str, n: usize| -> Result<Vec<f64>, String> {
                let v: Result<Vec<f64>, _> = s.split_whitespace().map(str::parse::<f64>).collect();
                let v = v.map_err(|e| format!("bad number in {key}: {e}"))?;
                if v.len() != n {
                    return Err(format!("{key}: expected {n} values, got {}", v.len()));
                }
                Ok(v)
            };
            // Duplicate keys mean a concatenated or otherwise
            // corrupted file; silently letting the last value win
            // would mask it, so reject.
            let dup = |key: &str| format!("duplicate checkpoint key {key:?}");
            match key {
                "tree" if newick_s.is_some() => return Err(dup(key)),
                "tree" => newick_s = Some(rest.to_string()),
                "alpha" if alpha.is_some() => return Err(dup(key)),
                "alpha" => alpha = Some(floats(rest, 1)?[0]),
                "rates" if rates.is_some() => return Err(dup(key)),
                "rates" => {
                    let v = floats(rest, 6)?;
                    rates = Some([v[0], v[1], v[2], v[3], v[4], v[5]]);
                }
                "freqs" if freqs.is_some() => return Err(dup(key)),
                "freqs" => {
                    let v = floats(rest, 4)?;
                    freqs = Some([v[0], v[1], v[2], v[3]]);
                }
                "rounds_done" if rounds_done.is_some() => return Err(dup(key)),
                "rounds_done" => {
                    rounds_done = Some(rest.parse().map_err(|e| format!("rounds_done: {e}"))?)
                }
                "log_likelihood" if log_likelihood.is_some() => return Err(dup(key)),
                "log_likelihood" => log_likelihood = Some(floats(rest, 1)?[0]),
                "moves_evaluated" if moves_evaluated.is_some() => return Err(dup(key)),
                "moves_evaluated" => {
                    moves_evaluated =
                        Some(rest.parse().map_err(|e| format!("moves_evaluated: {e}"))?)
                }
                "moves_accepted" if moves_accepted.is_some() => return Err(dup(key)),
                "moves_accepted" => {
                    moves_accepted = Some(rest.parse().map_err(|e| format!("moves_accepted: {e}"))?)
                }
                other => return Err(format!("unknown checkpoint key {other:?}")),
            }
        }

        let cp = Checkpoint {
            newick: newick_s.ok_or("missing tree")?,
            alpha: alpha.ok_or("missing alpha")?,
            params: GtrParams {
                rates: rates.ok_or("missing rates")?,
                freqs: freqs.ok_or("missing freqs")?,
            },
            rounds_done: rounds_done.ok_or("missing rounds_done")?,
            log_likelihood: log_likelihood.ok_or("missing log_likelihood")?,
            moves_evaluated: moves_evaluated.ok_or("missing moves_evaluated")?,
            moves_accepted: moves_accepted.ok_or("missing moves_accepted")?,
        };
        cp.validate()?;
        Ok(cp)
    }

    /// Sanity-checks the restored state.
    pub fn validate(&self) -> Result<(), String> {
        self.tree().map_err(|e| format!("invalid tree: {e}"))?;
        self.params.validate()?;
        if !(self.alpha.is_finite() && self.alpha > 0.0) {
            return Err(format!("invalid alpha {}", self.alpha));
        }
        if !self.log_likelihood.is_finite() {
            return Err("non-finite log-likelihood".into());
        }
        Ok(())
    }

    /// The checkpointed tree.
    pub fn tree(&self) -> Result<Tree, TreeError> {
        newick::parse(&self.newick)
    }

    /// Writes the checkpoint atomically and durably (see
    /// [`write_atomic`]), the only safe pattern when the scheduler may
    /// kill the job mid-write.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        write_atomic(path, &self.to_text())
    }

    /// [`Self::save`] under a bounded [`RetryPolicy`].
    pub fn save_with_retry(
        &self,
        path: &std::path::Path,
        policy: &RetryPolicy,
    ) -> std::io::Result<()> {
        self.save_with_retry_injected(path, policy, &mut || None)
    }

    /// [`Self::save_with_retry`] with a deterministic fault hook:
    /// `inject` is called once per attempt and may return the I/O
    /// error that attempt "fails" with before touching the
    /// filesystem. Production callers pass a hook that always returns
    /// `None`; the failure-injection tests and `--inject-fault
    /// ckpt-write=N` script it.
    pub fn save_with_retry_injected(
        &self,
        path: &std::path::Path,
        policy: &RetryPolicy,
        inject: &mut dyn FnMut() -> Option<std::io::Error>,
    ) -> std::io::Result<()> {
        assert!(policy.attempts >= 1, "retry policy needs >= 1 attempt");
        let text = self.to_text();
        let mut attempt = 0u32;
        let mut slept = Duration::ZERO;
        loop {
            attempt += 1;
            let result = match inject() {
                Some(e) => Err(e),
                None => write_atomic(path, &text),
            };
            match result {
                Ok(()) => return Ok(()),
                Err(e) if attempt >= policy.attempts => return Err(e),
                Err(_) => {
                    let nap = policy
                        .backoff_after(attempt)
                        .min(RetryPolicy::MAX_TOTAL_SLEEP.saturating_sub(slept));
                    slept += nap;
                    std::thread::sleep(nap);
                }
            }
        }
    }

    /// Loads and validates a checkpoint file.
    pub fn load(path: &std::path::Path) -> Result<Checkpoint, String> {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        Checkpoint::from_text(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            newick: "((a:0.1,b:0.2):0.3,c:0.05,(d:0.21,e:0.07):0.4);".into(),
            alpha: 0.734,
            params: GtrParams {
                rates: [1.2, 2.8123456789, 0.9, 1.1, 3.3, 1.0],
                freqs: [0.3, 0.2, 0.2, 0.3],
            },
            rounds_done: 3,
            log_likelihood: -12345.678901234567,
            moves_evaluated: 420,
            moves_accepted: 7,
        }
    }

    #[test]
    fn text_roundtrip_is_exact() {
        let cp = sample();
        let back = Checkpoint::from_text(&cp.to_text()).unwrap();
        assert_eq!(cp, back);
        // Float precision survives (17 significant digits).
        assert_eq!(cp.log_likelihood.to_bits(), back.log_likelihood.to_bits());
        assert_eq!(cp.params.rates[1].to_bits(), back.params.rates[1].to_bits());
    }

    #[test]
    fn file_roundtrip_atomic() {
        let dir = std::env::temp_dir().join(format!("phylomic-cp-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run1.ckp");
        let cp = sample();
        cp.save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(cp, back);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression: `path.with_extension("tmp")` collided with sibling
    /// files (`run1.ckp` → `run1.tmp`) and with concurrent processes
    /// writing the same checkpoint. The pid-suffixed temp name must
    /// leave unrelated siblings untouched.
    #[test]
    fn temp_file_never_collides_with_siblings() {
        let dir = std::env::temp_dir().join(format!("phylomic-cp-collide-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sibling = dir.join("run1.tmp");
        std::fs::write(&sibling, "precious sibling data").unwrap();
        let stale = dir.join("run1.ckp.tmp.999999");
        std::fs::write(&stale, "stale tmp from a dead process").unwrap();
        let path = dir.join("run1.ckp");
        let cp = sample();
        cp.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), cp);
        assert_eq!(
            std::fs::read_to_string(&sibling).unwrap(),
            "precious sibling data",
            "sibling .tmp file clobbered"
        );
        assert_eq!(
            std::fs::read_to_string(&stale).unwrap(),
            "stale tmp from a dead process",
            "another process's temp file clobbered"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_with_retry_survives_transient_errors_and_bounds_attempts() {
        let dir = std::env::temp_dir().join(format!("phylomic-cp-retry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("retry.ckp");
        let cp = sample();
        let policy = RetryPolicy {
            attempts: 4,
            base_backoff: Duration::from_millis(1),
        };

        // Two transient failures, then success.
        let mut calls = 0u32;
        cp.save_with_retry_injected(&path, &policy, &mut || {
            calls += 1;
            (calls <= 2).then(|| std::io::Error::other("injected ENOSPC"))
        })
        .unwrap();
        assert_eq!(calls, 3);
        assert_eq!(Checkpoint::load(&path).unwrap(), cp);

        // Persistent failure: gives up after exactly `attempts` tries
        // with the last error.
        let mut calls = 0u32;
        let err = cp
            .save_with_retry_injected(&path, &policy, &mut || {
                calls += 1;
                Some(std::io::Error::other("injected EIO"))
            })
            .unwrap_err();
        assert_eq!(calls, 4);
        assert!(err.to_string().contains("injected EIO"));
        // The previously saved checkpoint is untouched (failed
        // attempts never went through the rename).
        assert_eq!(Checkpoint::load(&path).unwrap(), cp);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retry_backoff_is_clamped_at_large_attempt_counts() {
        // Regression: the retry loop used to compute `1 << (attempt-1)`
        // from the raw attempt number; a policy with dozens of attempts
        // would overflow the shift (panic in debug, garbage sleeps in
        // release). The shift is now clamped, every sleep is capped,
        // and an `attempts: 80` policy with a tiny base must run all
        // 80 attempts promptly instead of stalling or panicking.
        let policy = RetryPolicy {
            attempts: 80,
            base_backoff: Duration::from_nanos(1),
        };
        for attempt in 1..=80 {
            let nap = policy.backoff_after(attempt);
            assert!(
                nap <= Duration::from_nanos(64),
                "attempt {attempt}: shift not clamped, slept {nap:?}"
            );
        }
        // Doubling a large base saturates at the per-sleep ceiling
        // rather than multiplying into minutes.
        let slow = RetryPolicy {
            attempts: 80,
            base_backoff: Duration::from_secs(3600),
        };
        assert_eq!(slow.backoff_after(80), RetryPolicy::MAX_SLEEP);

        let dir = std::env::temp_dir().join(format!("phylomic-cp-r80-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r80.ckp");
        let cp = sample();
        let mut calls = 0u32;
        let t0 = std::time::Instant::now();
        let err = cp
            .save_with_retry_injected(&path, &policy, &mut || {
                calls += 1;
                Some(std::io::Error::other("injected EIO"))
            })
            .unwrap_err();
        assert_eq!(calls, 80);
        assert!(err.to_string().contains("injected EIO"));
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "80 nanosecond-scale retries took {:?}",
            t0.elapsed()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let cp = sample();
        let text = cp.to_text();
        // A concatenated/duplicated file must not silently let the
        // last value win.
        for key in ["tree", "alpha", "rates", "freqs", "rounds_done"] {
            let line = text
                .lines()
                .find(|l| l.starts_with(key))
                .unwrap_or_else(|| panic!("no {key} line"));
            let doubled = format!("{text}{line}\n");
            let err = Checkpoint::from_text(&doubled).unwrap_err();
            assert!(
                err.contains("duplicate") && err.contains(key),
                "key {key}: unexpected error {err:?}"
            );
        }
        // Self-concatenation (two whole checkpoints) is also rejected.
        let cat = format!("{text}{text}");
        assert!(Checkpoint::from_text(&cat).is_err());
    }

    #[test]
    fn corrupted_inputs_rejected() {
        assert!(Checkpoint::from_text("").is_err());
        assert!(Checkpoint::from_text("wrong header\n").is_err());
        let cp = sample();
        // Truncated: drop the last line.
        let text = cp.to_text();
        let truncated: String = text
            .lines()
            .take(text.lines().count() - 1)
            .collect::<Vec<_>>()
            .join("\n");
        assert!(Checkpoint::from_text(&truncated).is_err());
        // Corrupted tree.
        let bad = text.replace("tree (", "tree [");
        assert!(Checkpoint::from_text(&bad).is_err());
        // Unknown key.
        let evil = format!("{text}surprise 1\n");
        assert!(Checkpoint::from_text(&evil).is_err());
        // Invalid model.
        let bad_alpha = text.replace("alpha 7", "alpha -7");
        assert!(Checkpoint::from_text(&bad_alpha).is_err());
    }

    #[test]
    fn polytomy_in_a_checkpoint_is_an_error_not_a_panic() {
        let polytomy = "((a:0.1,b:0.2,c:0.05):0.3,d:0.21,e:0.07);";
        let text = sample().to_text().replace(&sample().newick, polytomy);
        assert!(text.contains(polytomy));
        let err = Checkpoint::from_text(&text).unwrap_err();
        assert!(err.contains("not binary"), "{err}");
        let cp = Checkpoint {
            newick: polytomy.into(),
            ..sample()
        };
        assert_eq!(cp.tree().unwrap_err(), TreeError::NotBinary);
    }

    #[test]
    fn tree_restores_topology_and_lengths() {
        let cp = sample();
        let t = cp.tree().unwrap();
        assert_eq!(t.num_taxa(), 5);
        assert!((t.total_length() - 1.33).abs() < 1e-9);
    }
}
