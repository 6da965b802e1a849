//! Stress test for the thread communicator's allreduce: many ranks,
//! many rounds, randomized payloads — and *bit-exact* determinism.
//!
//! The replicated-search scheme relies on every rank computing an
//! identical reduction result (rank-ordered summation), so the
//! assertion here is `to_bits` equality against an independently
//! computed expectation, not approximate equality. CI runs this in
//! `--release` so the barrier/slot fast paths are exercised with real
//! optimization (and without the model checker's serialization).

use phylo_parallel::comm::MAX_LEN;
use phylo_parallel::{Comm, ThreadCommGroup};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const RANKS: usize = 8;
const ROUNDS: usize = 400;

/// Rank `rank`'s contribution in `round`: derived from the seed only,
/// so every rank can reconstruct everyone's payload independently.
fn payload(rank: usize, round: usize, len: usize) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(0x5eed ^ ((rank as u64) << 32) ^ round as u64);
    (0..len)
        .map(|_| (rng.random::<f64>() - 0.5) * 1.0e3)
        .collect()
}

/// Shared per-round payload length in `1..=MAX_LEN`.
fn round_len(round: usize) -> usize {
    let mut rng = SmallRng::seed_from_u64(0x1e4 ^ round as u64);
    rng.random_range(1..=MAX_LEN)
}

#[test]
fn allreduce_is_bit_exact_under_stress() {
    let mut group = ThreadCommGroup::new(RANKS);
    let handles: Vec<_> = (0..RANKS)
        .map(|_| group.take())
        .map(|mut comm| {
            std::thread::spawn(move || {
                let rank = comm.rank();
                for round in 0..ROUNDS {
                    let len = round_len(round);
                    let mut buf = payload(rank, round, len);
                    comm.allreduce_sum(&mut buf);
                    // Reference: rank-ordered left-to-right summation,
                    // exactly the order allreduce_sum guarantees.
                    let mut expected = vec![0.0f64; len];
                    for r in 0..RANKS {
                        for (e, v) in expected.iter_mut().zip(payload(r, round, len)) {
                            *e += v;
                        }
                    }
                    for (i, (got, want)) in buf.iter().zip(&expected).enumerate() {
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "rank {rank} round {round} element {i}: {got:e} != {want:e}"
                        );
                    }
                }
                comm.stats()
            })
        })
        .collect();
    for h in handles {
        let stats = h.join().unwrap();
        assert_eq!(stats.allreduces, ROUNDS as u64);
    }
}
