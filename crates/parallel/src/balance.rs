//! Load balancing for partitioned alignments (§VII future work).
//!
//! With a partitioned alignment, sites of different partitions evolve
//! under different models, so a worker's chunk must track which
//! partition each site belongs to. Two classic distribution
//! strategies:
//!
//! * **block-per-partition** — assign each partition to as few workers
//!   as possible (contiguous blocks). Minimizes per-worker partition
//!   count (fewer P-matrix sets per worker) but can leave workers idle
//!   when partition sizes are skewed or fewer than the worker count.
//! * **scatter** — split every partition across all workers
//!   (RAxML-style cyclic distribution). Perfectly balances sites at
//!   the cost of every worker touching every partition — "performance
//!   will degrade due to decreasing parallel block size" (§V-A) once
//!   partitions multiply.
//!
//! [`imbalance`] quantifies the resulting wall-clock penalty as
//! `max_load / mean_load`; `results/ablation_partitions.txt` (written
//! by `phylo-bench`'s `reproduce`) sweeps the strategies through the
//! `micsim` model.

/// Per-worker share of one partition: `(partition index, sites)`.
pub type WorkerShare = Vec<(usize, usize)>;

/// An assignment of partitioned sites to workers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Assignment {
    /// `shares[w]` lists the partitions (and site counts) worker `w`
    /// processes.
    pub shares: Vec<WorkerShare>,
}

impl Assignment {
    /// Total sites assigned to worker `w`.
    pub fn load(&self, w: usize) -> usize {
        self.shares[w].iter().map(|&(_, s)| s).sum()
    }

    /// All per-worker loads.
    pub fn loads(&self) -> Vec<usize> {
        (0..self.shares.len()).map(|w| self.load(w)).collect()
    }

    /// Number of distinct partitions worker `w` touches.
    pub fn partitions_touched(&self, w: usize) -> usize {
        self.shares[w].iter().filter(|&&(_, s)| s > 0).count()
    }

    /// Verifies every partition's sites are fully assigned.
    pub fn validate(&self, partition_sizes: &[usize]) -> Result<(), String> {
        let mut got = vec![0usize; partition_sizes.len()];
        for share in &self.shares {
            for &(p, s) in share {
                if p >= partition_sizes.len() {
                    return Err(format!("unknown partition {p}"));
                }
                got[p] += s;
            }
        }
        for (p, (&want, &have)) in partition_sizes.iter().zip(&got).enumerate() {
            if want != have {
                return Err(format!("partition {p}: assigned {have} of {want} sites"));
            }
        }
        Ok(())
    }
}

/// Wall-clock imbalance factor of an assignment: `max load / mean
/// load`. 1.0 is perfect; the parallel compute phase stretches by this
/// factor.
pub fn imbalance(a: &Assignment) -> f64 {
    let loads = a.loads();
    let max = *loads.iter().max().unwrap_or(&0) as f64;
    let total: usize = loads.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let mean = total as f64 / loads.len() as f64;
    max / mean
}

/// Block-per-partition distribution: walk the partitions in order and
/// cut them greedily into per-worker blocks of roughly
/// `total / workers` sites. Workers may end up owning zero sites when
/// partitions are coarse.
pub fn block_per_partition(partition_sizes: &[usize], workers: usize) -> Assignment {
    assert!(workers >= 1);
    let total: usize = partition_sizes.iter().sum();
    let target = (total as f64 / workers as f64).ceil() as usize;
    let mut shares: Vec<WorkerShare> = vec![Vec::new(); workers];
    let mut w = 0usize;
    let mut w_load = 0usize;
    for (p, &size) in partition_sizes.iter().enumerate() {
        let mut left = size;
        while left > 0 {
            let room = target.saturating_sub(w_load);
            if room == 0 && w + 1 < workers {
                w += 1;
                w_load = 0;
                continue;
            }
            let take = if w + 1 == workers {
                left
            } else {
                left.min(room.max(1))
            };
            shares[w].push((p, take));
            w_load += take;
            left -= take;
        }
    }
    Assignment { shares }
}

/// Whole-partition distribution: partitions are never split; each goes
/// entirely to the currently least-loaded worker. Minimizes model-set
/// duplication (every partition lives on exactly one worker) but is at
/// the mercy of partition-size skew — the naive strategy whose
/// degradation §V-A anticipates.
pub fn whole_partitions(partition_sizes: &[usize], workers: usize) -> Assignment {
    assert!(workers >= 1);
    let mut shares: Vec<WorkerShare> = vec![Vec::new(); workers];
    let mut loads = vec![0usize; workers];
    // Largest-first improves packing, as in classic LPT scheduling.
    let mut order: Vec<usize> = (0..partition_sizes.len()).collect();
    order.sort_by_key(|&p| std::cmp::Reverse(partition_sizes[p]));
    for p in order {
        let w = (0..workers)
            .min_by_key(|&w| loads[w])
            .expect("workers >= 1");
        shares[w].push((p, partition_sizes[p]));
        loads[w] += partition_sizes[p];
    }
    Assignment { shares }
}

/// Scatter distribution: every partition is split across all workers
/// as evenly as possible (worker `w` takes the `w`-th slice).
pub fn scatter_partitions(partition_sizes: &[usize], workers: usize) -> Assignment {
    assert!(workers >= 1);
    let mut shares: Vec<WorkerShare> = vec![Vec::new(); workers];
    for (p, &size) in partition_sizes.iter().enumerate() {
        for (w, share) in shares.iter_mut().enumerate() {
            let lo = w * size / workers;
            let hi = (w + 1) * size / workers;
            if hi > lo {
                share.push((p, hi - lo));
            }
        }
    }
    Assignment { shares }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_strategies_assign_everything() {
        let sizes = [1000usize, 50, 3, 777, 120];
        for workers in [1usize, 2, 7, 16] {
            for a in [
                block_per_partition(&sizes, workers),
                scatter_partitions(&sizes, workers),
            ] {
                a.validate(&sizes).unwrap();
                assert_eq!(a.shares.len(), workers);
            }
        }
    }

    #[test]
    fn scatter_is_nearly_perfectly_balanced() {
        let sizes = [10_000usize, 5, 3_333, 42];
        let a = scatter_partitions(&sizes, 8);
        assert!(imbalance(&a) < 1.05, "imbalance {}", imbalance(&a));
    }

    #[test]
    fn block_beats_scatter_on_partitions_touched() {
        // 16 partitions, 4 workers: block keeps ~4 partitions per
        // worker; scatter touches all 16 on every worker.
        let sizes = vec![500usize; 16];
        let block = block_per_partition(&sizes, 4);
        let scatter = scatter_partitions(&sizes, 4);
        for w in 0..4 {
            assert!(block.partitions_touched(w) <= 6);
            assert_eq!(scatter.partitions_touched(w), 16);
        }
    }

    #[test]
    fn whole_partition_strategy_suffers_on_skewed_partitions() {
        // One dominant partition that cannot be split: the worker
        // owning it carries nearly everything while the rest idle.
        let sizes = [10_000usize, 1, 1, 1];
        let whole = whole_partitions(&sizes, 4);
        whole.validate(&sizes).unwrap();
        let scatter = scatter_partitions(&sizes, 4);
        assert!(imbalance(&whole) > 3.5, "imbalance {}", imbalance(&whole));
        assert!(imbalance(&scatter) < 1.01);
        // Splitting block distribution also stays balanced here.
        let block = block_per_partition(&sizes, 4);
        assert!(imbalance(&block) < 1.01, "imbalance {}", imbalance(&block));
    }

    #[test]
    fn whole_partitions_balances_when_sizes_allow() {
        let sizes = [100usize, 100, 100, 100, 100, 100, 100, 100];
        let a = whole_partitions(&sizes, 4);
        a.validate(&sizes).unwrap();
        assert!((imbalance(&a) - 1.0).abs() < 1e-12);
        for w in 0..4 {
            assert_eq!(a.partitions_touched(w), 2);
        }
    }

    #[test]
    fn single_worker_trivial() {
        let sizes = [3usize, 9];
        for a in [
            block_per_partition(&sizes, 1),
            scatter_partitions(&sizes, 1),
        ] {
            assert_eq!(a.load(0), 12);
            assert!((imbalance(&a) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn validate_catches_mismatches() {
        let a = Assignment {
            shares: vec![vec![(0, 5)]],
        };
        assert!(a.validate(&[6]).is_err());
        assert!(a.validate(&[5]).is_ok());
        let bad = Assignment {
            shares: vec![vec![(7, 5)]],
        };
        assert!(bad.validate(&[5]).is_err());
    }
}
