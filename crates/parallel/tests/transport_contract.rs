//! Cross-transport payload-contract parity.
//!
//! Both communicators — the in-process [`ThreadCommGroup`] (which at
//! one rank is the trivial communicator) and the socket-backed
//! [`SocketComm`] — must enforce the *same* AllReduce payload bound and
//! fail the same way:
//! `PayloadTooLarge` naming the offending rank at `DEFAULT_MAX_LEN + 1`
//! doubles, success at exactly `DEFAULT_MAX_LEN`, and a latched
//! (`PeerFailed`) group afterwards. If the transports ever drift, the
//! choice of `--transport` would change error behavior, which the
//! replicated search treats as impossible.

use phylo_parallel::comm::{Comm, CommError, ThreadCommGroup, DEFAULT_MAX_LEN};

/// Drives one communicator through the shared contract script:
/// a full-width AllReduce succeeds, one double more fails with
/// `PayloadTooLarge{len, max_len}`, and the communicator is dead
/// (latched or poisoned) afterwards.
fn assert_contract<C: Comm>(comm: &mut C, transport: &str) {
    let mut ok = vec![1.0; DEFAULT_MAX_LEN];
    comm.try_allreduce_sum(&mut ok)
        .unwrap_or_else(|e| panic!("{transport}: full-width payload rejected: {e}"));
    assert_eq!(
        ok,
        vec![comm.size() as f64; DEFAULT_MAX_LEN],
        "{transport}: wrong sum"
    );

    let mut big = vec![1.0; DEFAULT_MAX_LEN + 1];
    match comm.try_allreduce_sum(&mut big) {
        Err(CommError::PayloadTooLarge { rank, len, max_len }) => {
            assert_eq!(rank, comm.rank(), "{transport}: wrong culprit rank");
            assert_eq!(len, DEFAULT_MAX_LEN + 1, "{transport}: wrong len");
            assert_eq!(max_len, DEFAULT_MAX_LEN, "{transport}: wrong bound");
        }
        other => panic!("{transport}: expected PayloadTooLarge, got {other:?}"),
    }

    // Misuse latches the group dead: the next collective must fail
    // too, not silently resume lockstep.
    let mut after = vec![0.0; 1];
    assert!(
        comm.try_allreduce_sum(&mut after).is_err(),
        "{transport}: collective succeeded after a contract violation"
    );
}

#[test]
fn thread_comm_honors_the_shared_contract() {
    // Single-rank group: the oversize check fires before any barrier,
    // so the script runs without peers...
    let mut group = ThreadCommGroup::new(1, DEFAULT_MAX_LEN);
    assert_contract(&mut group.take(), "threads(1)");

    // ...and with a peer present the errors are identical, while the
    // innocent rank sees the culprit named in its own failure.
    let mut group = ThreadCommGroup::new(2, DEFAULT_MAX_LEN);
    let mut offender = group.take();
    let mut innocent = group.take();
    let peer = std::thread::spawn(move || {
        let mut buf = vec![1.0; DEFAULT_MAX_LEN];
        // First collective matches the offender's successful one.
        innocent.try_allreduce_sum(&mut buf).unwrap();
        // The second blocks until the offender poisons the group.
        let err = innocent.try_allreduce_sum(&mut buf).unwrap_err();
        assert_eq!(err, CommError::PeerFailed { rank: 0 });
    });
    assert_contract(&mut offender, "threads(2)");
    peer.join().unwrap();
}

#[cfg(unix)]
mod socket {
    use super::*;
    use phylo_parallel::transport::frame::{self, Frame, Kind};
    use phylo_parallel::transport::{Endpoint, SocketComm, TransportConfig};
    use std::os::unix::net::UnixListener;

    /// A minimal single-client hub speaking just enough protocol for
    /// the contract script: ack the handshake with the group size and
    /// payload bound, echo AllReduce payloads back as `Sum` (a 1-rank
    /// sum is the identity), and go quiet after a `Misuse` frame the
    /// way the real hub poisons the group.
    fn one_rank_echo_hub(listener: UnixListener) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            let hello = frame::read_frame(&mut s).expect("hello");
            assert_eq!(hello.kind, Kind::Hello);
            let mut ack = Frame::control(Kind::HelloAck, 0, 0);
            ack.payload.extend_from_slice(&1u32.to_le_bytes());
            ack.payload
                .extend_from_slice(&(DEFAULT_MAX_LEN as u32).to_le_bytes());
            frame::write_frame(&mut s, &ack).expect("ack");
            loop {
                let f = match frame::read_frame(&mut s) {
                    Ok(f) => f,
                    Err(_) => return, // client hung up
                };
                match f.kind {
                    Kind::AllReduce => {
                        let reply = Frame {
                            kind: Kind::Sum,
                            rank: 0,
                            seq: f.seq,
                            payload: f.payload,
                        };
                        frame::write_frame(&mut s, &reply).expect("sum");
                    }
                    Kind::Misuse => return, // real hub poisons; we just stop
                    other => panic!("unexpected frame {other:?}"),
                }
            }
        })
    }

    #[test]
    fn socket_comm_honors_the_shared_contract() {
        let dir = std::env::temp_dir().join(format!("phylomic-contract-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hub.sock");
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).unwrap();
        let hub = one_rank_echo_hub(listener);

        let tcfg = TransportConfig {
            read_timeout: std::time::Duration::from_secs(2),
            write_timeout: std::time::Duration::from_secs(2),
            ..TransportConfig::default()
        };
        let mut comm =
            SocketComm::connect(&Endpoint::Uds(path.clone()), 0, 1, &tcfg, None).unwrap();
        assert_contract(&mut comm, "uds");

        hub.join().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
