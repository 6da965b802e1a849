//! Real-transport communicators: the [`Comm`] collectives over OS
//! processes and sockets.
//!
//! [`crate::comm::ThreadComm`] shares memory between threads of one
//! process; this module adds [`SocketComm`], the same deterministic
//! collectives over a length-prefixed frame protocol on Unix domain
//! sockets. Rank 0
//! lives in the supervisor process and hosts a reduction *hub*; every
//! rank (including rank 0) connects to the hub, deposits its
//! contribution, and receives the rank-order sum — bit-identical to
//! the in-thread reduction, so replicated searches stay in lockstep
//! across transports.
//!
//! # Failure model
//!
//! A dead peer must surface as a structured error, never a hang:
//!
//! * every stream carries read/write timeouts
//!   ([`TransportConfig`]); a silent peer bounds the caller's wait and
//!   returns [`CommError::Timeout`] as a local backstop;
//! * the hub poisons the group on the first EOF, protocol violation,
//!   misuse, or abort frame, and broadcasts a `Poison` frame so every
//!   blocked rank fails promptly with [`CommError::PeerFailed`] —
//!   the socket equivalent of the poisoned
//!   [`crate::barrier::SenseBarrier`];
//! * a rank that abandons the run for any reason sends an `Abort`
//!   frame before dying ([`CommTransport::poison`]); a panic or a
//!   checkpoint failure travels in it, so the supervisor can classify
//!   the cause (checkpoint beats panic beats collective — the one
//!   order of [`crate::replicated`], shared with the thread ranks);
//! * child processes are owned by a kill-on-drop [`ChildSet`]: no
//!   orphan can outlive the supervisor.
//!
//! Per-collective sequence numbers detect de-synchronized ranks (a
//! lockstep violation poisons the group instead of silently summing
//! mismatched collectives).

use crate::comm::Comm;
use crate::replicated::ReplicatedError;
use std::time::Duration;

/// Measured time spent inside collectives ("on the wire"), per rank.
///
/// For [`SocketComm`] this is the frame round-trip through the hub;
/// for [`ThreadComm`] the deposit/barrier/sum window. `micsim`'s
/// modeled AllReduce latency can be validated against
/// [`WireStats::mean_ns`] of a real run (see `trace-report`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Completed collectives measured.
    pub ops: u64,
    /// Total nanoseconds across all measured collectives.
    pub total_ns: u64,
    /// Slowest single collective, nanoseconds.
    pub max_ns: u64,
}

impl WireStats {
    /// Records one collective of `ns` nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.ops += 1;
        self.total_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Mean nanoseconds per collective (0 when nothing was measured).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.ops).unwrap_or(0)
    }

    /// Accumulates another rank's measurements.
    pub fn merge(&mut self, other: &WireStats) {
        self.ops += other.ops;
        self.total_ns += other.total_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// A [`Comm`] that can carry one rank of the replicated search
/// ([`crate::replicated`]'s rank body): it knows what transport backs
/// it and how long its collectives took, and it supplies the two steps
/// in which the transports differ — how a failing rank marks the group
/// dead, and how a finished one hands over its result.
pub trait CommTransport: Comm {
    /// Short transport name recorded in the trace meta event
    /// (`"threads"`, `"uds"`).
    fn transport_name(&self) -> &'static str;
    /// Measured wire time of this participant's collectives.
    fn wire_stats(&self) -> WireStats;
    /// Marks the group dead on behalf of this rank, which is
    /// abandoning the lockstep search because of `cause`: every peer's
    /// blocked or future collective fails with
    /// [`crate::comm::CommError::PeerFailed`] instead of waiting.
    /// Best-effort and idempotent — the first poisoner group-wide wins.
    fn poison(&mut self, cause: &ReplicatedError);
    /// Hands this rank's final reduced log-likelihood to whoever joins
    /// the ranks; the last thing a rank does with its communicator.
    fn report(&mut self, final_ll: f64) -> std::io::Result<()>;
}

/// Which transport backs a replicated run (`--transport`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process threads over shared memory (the PR 4 scheme).
    Threads,
    /// One OS process per rank over Unix domain sockets.
    Uds,
}

impl TransportKind {
    /// The flag spelling / trace meta name.
    pub fn name(&self) -> &'static str {
        match self {
            TransportKind::Threads => "threads",
            TransportKind::Uds => "uds",
        }
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for TransportKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "threads" => Ok(TransportKind::Threads),
            "uds" => Ok(TransportKind::Uds),
            other => Err(format!(
                "unknown transport {other:?} (expected threads or uds)"
            )),
        }
    }
}

/// Socket-transport tuning: the timeouts that turn silent peers into
/// structured errors. The payload cap is [`crate::comm::MAX_LEN`],
/// which both the client and the hub check.
#[derive(Clone, Debug)]
pub struct TransportConfig {
    /// How long a rank waits for a collective reply before giving up
    /// with [`CommError::Timeout`].
    pub read_timeout: Duration,
    /// How long a frame write may block.
    pub write_timeout: Duration,
    /// How long the hub waits for all ranks to connect, and a rank
    /// retries connecting to a not-yet-listening hub.
    pub accept_deadline: Duration,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            accept_deadline: Duration::from_secs(10),
        }
    }
}

impl TransportConfig {
    /// The default configuration with the `PHYLOMIC_WIRE_TIMEOUT_MS`
    /// environment override applied to the read/write timeouts (the
    /// kill-matrix tests raise them, so that a slow live peer on a
    /// loaded host is not taken for a dead one).
    pub fn from_env() -> Self {
        Self::with_wire_timeout(std::env::var("PHYLOMIC_WIRE_TIMEOUT_MS").ok().as_deref())
    }

    /// The default configuration with a `PHYLOMIC_WIRE_TIMEOUT_MS`
    /// value (milliseconds, at least 1) applied to the read/write
    /// timeouts; an absent or unparsable value changes nothing.
    fn with_wire_timeout(value: Option<&str>) -> Self {
        let mut cfg = TransportConfig::default();
        if let Some(ms) = value.and_then(|v| v.trim().parse::<u64>().ok()) {
            cfg.read_timeout = Duration::from_millis(ms.max(1));
            cfg.write_timeout = cfg.read_timeout;
        }
        cfg
    }
}

/// The length-prefixed wire protocol shared by clients and the hub.
///
/// Every frame is a fixed 21-byte little-endian header —
/// `magic:u32 | kind:u8 | rank:u32 | seq:u64 | len:u32` — followed by
/// `len` payload bytes. `seq` is the sender's per-rank AllReduce
/// ordinal (1-based); the hub rejects any gap or replay as a lockstep
/// violation.
#[cfg(unix)]
pub mod frame {
    use std::io::{self, Read, Write};

    /// Frame magic, `"PLFR"`.
    pub const MAGIC: u32 = 0x504C_4652;
    /// Header size in bytes.
    pub const HEADER_LEN: usize = 21;
    /// Upper bound on a frame payload; anything larger is a protocol
    /// violation (collective payloads are ≤ `comm::MAX_LEN * 8`
    /// bytes, abort messages are truncated).
    pub const MAX_PAYLOAD: u32 = 1 << 20;

    /// Frame discriminator.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    #[repr(u8)]
    pub enum Kind {
        /// Client → hub: claim a rank (header `rank`), no payload.
        Hello = 1,
        /// Hub → client: handshake ack, payload `size:u32`.
        HelloAck = 2,
        /// Client → hub: AllReduce contribution, payload f64-LE array.
        AllReduce = 3,
        /// Hub → client: the rank-order sum for `seq`.
        Sum = 4,
        /// Hub → client: the group is dead; payload encodes the
        /// [`super::PoisonCause`].
        Poison = 7,
        /// Client → hub: the client rejected its own oversized
        /// payload; payload `len:u64` (the oversize length).
        Misuse = 8,
        /// Client → hub: the rank abandons the run; payload is the
        /// encoded [`super::PoisonCause`] (an `Abort` variant carrying
        /// the class and message of a panic or checkpoint failure,
        /// `Peer` when a failed collective made it give up).
        Abort = 9,
        /// Client → hub: final per-rank report; payload is the encoded
        /// [`super::RankReport`].
        Result = 10,
    }

    impl Kind {
        fn from_u8(b: u8) -> Option<Kind> {
            Some(match b {
                1 => Kind::Hello,
                2 => Kind::HelloAck,
                3 => Kind::AllReduce,
                4 => Kind::Sum,
                // 5 and 6 were the barrier's frames, retired with it.
                7 => Kind::Poison,
                8 => Kind::Misuse,
                9 => Kind::Abort,
                10 => Kind::Result,
                _ => return None,
            })
        }
    }

    /// One decoded frame.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Frame {
        /// Frame discriminator.
        pub kind: Kind,
        /// Sending rank (0 for hub-originated frames).
        pub rank: u32,
        /// Per-rank AllReduce ordinal (0 for non-collective frames).
        pub seq: u64,
        /// Payload bytes, already length-validated.
        pub payload: Vec<u8>,
    }

    impl Frame {
        /// A payload-free frame.
        pub fn control(kind: Kind, rank: u32, seq: u64) -> Frame {
            Frame {
                kind,
                rank,
                seq,
                payload: Vec::new(),
            }
        }
    }

    /// Writes one frame (header + payload) and flushes.
    pub fn write_frame(w: &mut impl Write, f: &Frame) -> io::Result<()> {
        debug_assert!(f.payload.len() <= MAX_PAYLOAD as usize);
        let mut head = [0u8; HEADER_LEN];
        head[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        head[4] = f.kind as u8;
        head[5..9].copy_from_slice(&f.rank.to_le_bytes());
        head[9..17].copy_from_slice(&f.seq.to_le_bytes());
        head[17..21].copy_from_slice(&(f.payload.len() as u32).to_le_bytes());
        w.write_all(&head)?;
        w.write_all(&f.payload)?;
        w.flush()
    }

    /// Reads one frame, validating magic, kind, and payload bound.
    pub fn read_frame(r: &mut impl Read) -> io::Result<Frame> {
        let mut head = [0u8; HEADER_LEN];
        r.read_exact(&mut head)?;
        let magic = u32::from_le_bytes(head[0..4].try_into().unwrap());
        if magic != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad frame magic {magic:#x}"),
            ));
        }
        let kind = Kind::from_u8(head[4]).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad frame kind {}", head[4]),
            )
        })?;
        let rank = u32::from_le_bytes(head[5..9].try_into().unwrap());
        let seq = u64::from_le_bytes(head[9..17].try_into().unwrap());
        let len = u32::from_le_bytes(head[17..21].try_into().unwrap());
        if len > MAX_PAYLOAD {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame payload {len} exceeds cap {MAX_PAYLOAD}"),
            ));
        }
        let mut payload = vec![0u8; len as usize];
        r.read_exact(&mut payload)?;
        Ok(Frame {
            kind,
            rank,
            seq,
            payload,
        })
    }

    /// Encodes an f64 slice as little-endian bytes.
    pub fn doubles_to_bytes(buf: &[f64]) -> Vec<u8> {
        let mut out = Vec::with_capacity(buf.len() * 8);
        for v in buf {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Decodes a little-endian f64 array; errors on a ragged length.
    pub fn bytes_to_doubles(b: &[u8]) -> io::Result<Vec<f64>> {
        if !b.len().is_multiple_of(8) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("f64 payload of {} bytes is not a multiple of 8", b.len()),
            ));
        }
        Ok(b.chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }
}

#[cfg(unix)]
pub use unix_impl::*;

#[cfg(unix)]
mod unix_impl {
    use super::frame::{self, Frame, Kind};
    use super::{CommTransport, TransportConfig, WireStats};
    use crate::comm::{Comm, CommError, CommStats, MAX_LEN};
    use crate::fault::FaultPlan;
    use crate::replicated::{
        load_resume, most_causal, run_degrading, run_rank_body, FtConfig, RankDone, RankInputs,
        ReplicatedError, ReplicatedOutcome,
    };
    use phylo_bio::CompressedAlignment;
    use phylo_search::MlSearch;
    use phylo_tree::Tree;
    use plf_core::EngineConfig;
    use std::io;
    use std::net::Shutdown;
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::path::{Path, PathBuf};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// Why a socket group died. Carried in `Poison` and `Abort` frames
    /// and mapped to the supervisor's error for cause classification.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum PoisonCause {
        /// A rank's connection died (EOF, protocol violation, real
        /// `kill -9`).
        Peer {
            /// The dead rank.
            rank: usize,
        },
        /// A rank passed an oversized payload.
        Misuse {
            /// The misusing rank.
            rank: usize,
            /// Payload length it passed (doubles), more than
            /// [`MAX_LEN`].
            len: usize,
        },
        /// A rank abandoned the run deliberately and said why.
        Abort {
            /// The aborting rank.
            rank: usize,
            /// Panic or checkpoint failure.
            class: AbortClass,
            /// Human-readable cause.
            message: String,
        },
    }

    /// Why a rank sent an `Abort` frame.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum AbortClass {
        /// The rank body panicked outside the collectives.
        Panic,
        /// Loading or durably writing the checkpoint failed.
        Checkpoint,
    }

    impl PoisonCause {
        /// The rank whose failure killed the group.
        pub fn failed_rank(&self) -> usize {
            match *self {
                PoisonCause::Peer { rank }
                | PoisonCause::Misuse { rank, .. }
                | PoisonCause::Abort { rank, .. } => rank,
            }
        }

        /// What a *peer* of the failed rank observes: always
        /// [`CommError::PeerFailed`] (misuse surfaces as
        /// `PayloadTooLarge` only on the misusing rank itself, exactly
        /// like the in-thread transport).
        pub fn as_peer_error(&self) -> CommError {
            CommError::PeerFailed {
                rank: self.failed_rank(),
            }
        }

        /// What the supervisor reports when this cause killed the
        /// group.
        pub(crate) fn as_error(&self) -> ReplicatedError {
            match self.clone() {
                PoisonCause::Peer { rank } => ReplicatedError::Comm(CommError::PeerFailed { rank }),
                PoisonCause::Misuse { rank, len } => {
                    ReplicatedError::Comm(CommError::PayloadTooLarge { rank, len })
                }
                PoisonCause::Abort {
                    rank,
                    class: AbortClass::Panic,
                    message,
                } => ReplicatedError::RankPanicked { rank, message },
                PoisonCause::Abort {
                    class: AbortClass::Checkpoint,
                    message,
                    ..
                } => ReplicatedError::Checkpoint(message),
            }
        }

        /// What `rank` tells the hub when it abandons the run because
        /// of `error`: a checkpoint failure or a panic is a cause only
        /// this rank knows; with anything else (a failed collective,
        /// broken plumbing) the rank is simply gone, as for the
        /// in-thread barrier.
        pub(crate) fn of_abandoning(rank: usize, error: &ReplicatedError) -> PoisonCause {
            let (class, message) = match error {
                ReplicatedError::Checkpoint(message) => (AbortClass::Checkpoint, message),
                ReplicatedError::RankPanicked { message, .. } => (AbortClass::Panic, message),
                _ => return PoisonCause::Peer { rank },
            };
            PoisonCause::Abort {
                rank,
                class,
                message: message.clone(),
            }
        }

        /// Wire encoding: `tag:u8 rank:u64 len:u64 msg...`.
        pub fn encode(&self) -> Vec<u8> {
            let (tag, rank, len, msg): (u8, usize, usize, &str) = match self {
                PoisonCause::Peer { rank } => (1, *rank, 0, ""),
                PoisonCause::Misuse { rank, len } => (2, *rank, *len, ""),
                PoisonCause::Abort {
                    rank,
                    class: AbortClass::Panic,
                    message,
                } => (3, *rank, 0, message.as_str()),
                PoisonCause::Abort {
                    rank,
                    class: AbortClass::Checkpoint,
                    message,
                } => (4, *rank, 0, message.as_str()),
            };
            let mut out = Vec::with_capacity(17 + msg.len());
            out.push(tag);
            out.extend_from_slice(&(rank as u64).to_le_bytes());
            out.extend_from_slice(&(len as u64).to_le_bytes());
            // Bound the message so the frame respects MAX_PAYLOAD.
            let msg = &msg.as_bytes()[..msg.len().min(4096)];
            out.extend_from_slice(msg);
            out
        }

        /// Decodes [`Self::encode`]'s format.
        pub fn decode(b: &[u8]) -> Option<PoisonCause> {
            if b.len() < 17 {
                return None;
            }
            let tag = b[0];
            let rank = u64::from_le_bytes(b[1..9].try_into().ok()?) as usize;
            let len = u64::from_le_bytes(b[9..17].try_into().ok()?) as usize;
            let message = String::from_utf8_lossy(&b[17..]).into_owned();
            Some(match tag {
                1 => PoisonCause::Peer { rank },
                2 => PoisonCause::Misuse { rank, len },
                3 => PoisonCause::Abort {
                    rank,
                    class: AbortClass::Panic,
                    message,
                },
                4 => PoisonCause::Abort {
                    rank,
                    class: AbortClass::Checkpoint,
                    message,
                },
                _ => return None,
            })
        }
    }

    /// A rank's final report, sent in the `Result` frame so the
    /// supervisor can assert lockstep and aggregate wire metrics
    /// without re-running anything.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct RankReport {
        /// The rank's final reduced log-likelihood (must agree across
        /// ranks — the lockstep invariant).
        pub final_ll: f64,
        /// Collective counts of this rank.
        pub comm: CommStats,
        /// Measured wire time of this rank.
        pub wire: WireStats,
    }

    impl RankReport {
        /// Wire encoding: 6 little-endian u64-sized fields. The
        /// always-0 [`CommStats::barriers`] does not travel.
        pub fn encode(&self) -> Vec<u8> {
            let mut out = Vec::with_capacity(48);
            out.extend_from_slice(&self.final_ll.to_le_bytes());
            for v in [
                self.comm.allreduces,
                self.comm.bytes,
                self.wire.ops,
                self.wire.total_ns,
                self.wire.max_ns,
            ] {
                out.extend_from_slice(&v.to_le_bytes());
            }
            out
        }

        /// Decodes [`Self::encode`]'s format.
        pub fn decode(b: &[u8]) -> Option<RankReport> {
            if b.len() != 48 {
                return None;
            }
            let u = |i: usize| u64::from_le_bytes(b[i..i + 8].try_into().unwrap());
            Some(RankReport {
                final_ll: f64::from_le_bytes(b[0..8].try_into().unwrap()),
                comm: CommStats {
                    allreduces: u(8),
                    bytes: u(16),
                    barriers: 0,
                },
                wire: WireStats {
                    ops: u(24),
                    total_ns: u(32),
                    max_ns: u(40),
                },
            })
        }
    }

    /// Connects to the hub's socket at `path`, retrying while the hub
    /// is not yet listening, until `deadline` elapses.
    fn connect_stream(path: &Path, deadline: Duration) -> io::Result<UnixStream> {
        let until = Instant::now() + deadline;
        loop {
            match UnixStream::connect(path) {
                Ok(s) => return Ok(s),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::NotFound | io::ErrorKind::ConnectionRefused
                    ) && Instant::now() < until =>
                {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn set_timeouts(s: &UnixStream, read: Duration, write: Duration) -> io::Result<()> {
        s.set_read_timeout(Some(read))?;
        s.set_write_timeout(Some(write))
    }

    /// Binds a fresh hub endpoint for one attempt: a pid- and
    /// tag-unique socket path under `dir`, so degraded reruns never
    /// race a stale socket file.
    pub(crate) fn bind_endpoint(dir: &Path, tag: &str) -> io::Result<(UnixListener, PathBuf)> {
        let path = dir.join(format!("phylomic-{}-{tag}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let l = UnixListener::bind(&path)?;
        Ok((l, path))
    }

    /// Kills the calling process with `SIGKILL`: no unwinding, no
    /// destructors, no atexit — the real job-scheduler kill the
    /// fault-tolerance stack must survive. Used by the scripted
    /// `kill9=` fault so the process-kill tests exercise genuine
    /// process death rather than a simulated one.
    pub fn sigkill_self() -> ! {
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        {
            let pid = std::process::id() as u64;
            // SAFETY: raw `kill(getpid(), SIGKILL)` via the x86_64
            // Linux syscall ABI (rax=62 SYS_kill, rdi=pid, rsi=sig;
            // rcx/r11 are kernel-clobbered). No memory is passed to
            // the kernel and the call does not return on success, so
            // no Rust invariants can be observed violated afterwards.
            unsafe {
                core::arch::asm!(
                    "syscall",
                    in("rax") 62u64,
                    in("rdi") pid,
                    in("rsi") 9u64,
                    out("rcx") _,
                    out("r11") _,
                    options(nostack),
                );
            }
        }
        // Non-x86_64/Linux targets (and the unreachable fallthrough):
        // abort() is the closest portable approximation — immediate
        // death without unwinding.
        std::process::abort()
    }

    /// One rank's socket communicator: the [`Comm`] collectives as
    /// frame round-trips through the supervisor's hub.
    pub struct SocketComm {
        stream: UnixStream,
        rank: usize,
        size: usize,
        seq: u64,
        stats: CommStats,
        wire: WireStats,
        /// First failure; replayed on every later collective so the
        /// group stays dead exactly like a poisoned barrier.
        dead: Option<CommError>,
        fault_plan: Option<Arc<FaultPlan>>,
        read_timeout: Duration,
    }

    impl SocketComm {
        /// Connects to the hub's socket at `endpoint`, claims `rank`,
        /// and completes the handshake (validating the hub's group size
        /// against this rank's expectation).
        pub fn connect(
            endpoint: &Path,
            rank: usize,
            ranks: usize,
            tcfg: &TransportConfig,
            fault_plan: Option<Arc<FaultPlan>>,
        ) -> io::Result<SocketComm> {
            let mut stream = connect_stream(endpoint, tcfg.accept_deadline)?;
            set_timeouts(&stream, tcfg.read_timeout, tcfg.write_timeout)?;
            frame::write_frame(&mut stream, &Frame::control(Kind::Hello, rank as u32, 0))?;
            let ack = frame::read_frame(&mut stream)?;
            if ack.kind != Kind::HelloAck || ack.payload.len() != 4 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("handshake rejected (got {:?})", ack.kind),
                ));
            }
            let size = u32::from_le_bytes(ack.payload[0..4].try_into().unwrap()) as usize;
            if size != ranks {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("hub group size {size} != expected {ranks}"),
                ));
            }
            Ok(SocketComm {
                stream,
                rank,
                size,
                seq: 0,
                stats: CommStats::default(),
                wire: WireStats::default(),
                dead: None,
                fault_plan,
                read_timeout: tcfg.read_timeout,
            })
        }

        fn fail(&mut self, e: CommError) -> CommError {
            self.dead.get_or_insert(e.clone());
            e
        }

        fn io_to_comm(&self, e: &io::Error) -> CommError {
            match e.kind() {
                io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => CommError::Timeout {
                    rank: self.rank,
                    millis: self.read_timeout.as_millis() as u64,
                },
                // EOF or a hard error on the hub connection: the
                // supervisor (rank 0's process) is gone.
                _ => CommError::PeerFailed { rank: 0 },
            }
        }

        /// Sends a collective frame and waits for the matching reply;
        /// a `Poison` frame or any stream failure becomes the
        /// appropriate [`CommError`].
        fn roundtrip(&mut self, send: Frame, want: Kind) -> Result<Frame, CommError> {
            let sent = frame::write_frame(&mut self.stream, &send);
            // Read even after a failed write: a hub that poisons the
            // group queues a `Poison` frame and closes the connection,
            // so a rank that was still computing learns of it as a
            // broken pipe on its next send — and the frame already in
            // its receive buffer names the true cause.
            let ce = match (sent, frame::read_frame(&mut self.stream)) {
                (Ok(()), Ok(f)) if f.kind == want && f.seq == send.seq => return Ok(f),
                (_, Ok(f)) if f.kind == Kind::Poison => PoisonCause::decode(&f.payload)
                    .map(|c| c.as_peer_error())
                    .unwrap_or(CommError::PeerFailed { rank: 0 }),
                (_, Ok(_)) => CommError::PeerFailed { rank: 0 },
                (Err(e), Err(_)) | (Ok(()), Err(e)) => self.io_to_comm(&e),
            };
            Err(self.fail(ce))
        }
    }

    impl Comm for SocketComm {
        fn rank(&self) -> usize {
            self.rank
        }

        fn size(&self) -> usize {
            self.size
        }

        fn try_allreduce_sum(&mut self, buf: &mut [f64]) -> Result<(), CommError> {
            if let Some(e) = &self.dead {
                return Err(e.clone());
            }
            let n = self.stats.allreduces + 1;
            if let Some(plan) = &self.fault_plan {
                if plan.kills_at_allreduce(self.rank, n) {
                    // Real process death: the hub sees a raw EOF, the
                    // exact signature of a scheduler kill.
                    sigkill_self();
                }
                if plan.dies_at_allreduce(self.rank, n) {
                    // Simulated death (plan portability with the
                    // threads transport): close the connection so the
                    // hub poisons the group, then unwind locally.
                    let _ = self.stream.shutdown(Shutdown::Both);
                    let rank = self.rank;
                    return Err(self.fail(CommError::PeerFailed { rank }));
                }
            }
            let len = buf.len();
            if len > MAX_LEN {
                // Tell the hub (so peers fail promptly with a named
                // culprit), then report the contract violation
                // locally — identical split to ThreadComm.
                let mut f = Frame::control(Kind::Misuse, self.rank as u32, self.seq + 1);
                f.payload = (len as u64).to_le_bytes().to_vec();
                let _ = frame::write_frame(&mut self.stream, &f);
                let rank = self.rank;
                return Err(self.fail(CommError::PayloadTooLarge { rank, len }));
            }
            self.seq += 1;
            let t0 = Instant::now();
            let reply = self.roundtrip(
                Frame {
                    kind: Kind::AllReduce,
                    rank: self.rank as u32,
                    seq: self.seq,
                    payload: frame::doubles_to_bytes(buf),
                },
                Kind::Sum,
            )?;
            let sum = match frame::bytes_to_doubles(&reply.payload) {
                Ok(v) if v.len() == len => v,
                _ => return Err(self.fail(CommError::PeerFailed { rank: 0 })),
            };
            buf.copy_from_slice(&sum);
            self.wire.record(t0.elapsed().as_nanos() as u64);
            self.stats.allreduces += 1;
            self.stats.bytes += (len * 8) as u64;
            Ok(())
        }

        fn stats(&self) -> CommStats {
            self.stats
        }
    }

    impl CommTransport for SocketComm {
        fn transport_name(&self) -> &'static str {
            "uds"
        }
        fn wire_stats(&self) -> WireStats {
            self.wire
        }
        /// Sends an `Abort` frame naming the cause, so the hub poisons
        /// the group before it sees this rank's EOF and the supervisor
        /// can classify. If the hub is already gone there is nobody
        /// left to inform.
        fn poison(&mut self, cause: &ReplicatedError) {
            let mut f = Frame::control(Kind::Abort, self.rank as u32, 0);
            f.payload = PoisonCause::of_abandoning(self.rank, cause).encode();
            let _ = frame::write_frame(&mut self.stream, &f);
        }
        /// Sends this rank's final [`RankReport`]. The hub treats an
        /// EOF *after* a report as a clean exit.
        fn report(&mut self, final_ll: f64) -> io::Result<()> {
            let report = RankReport {
                final_ll,
                comm: self.stats,
                wire: self.wire,
            };
            let mut f = Frame::control(Kind::Result, self.rank as u32, 0);
            f.payload = report.encode();
            frame::write_frame(&mut self.stream, &f)
        }
    }

    /// What the hub observed by the time the group finished or died.
    #[derive(Clone, Debug)]
    pub struct HubOutcome {
        /// Per-rank final reports, rank order; `None` for ranks that
        /// never reported (died, or the group was poisoned first).
        pub results: Vec<Option<RankReport>>,
        /// Why the group died, if it did.
        pub poison: Option<PoisonCause>,
    }

    /// Runs the hub to completion on the calling thread: accepts
    /// `ranks` handshakes, then serves the lockstep collectives one
    /// `seq` at a time, reading every rank in rank order ([`serve`]).
    /// Exits after every rank reported and hung up, or by sending
    /// `Poison` to every connection on the first failure.
    pub(crate) fn run_hub(
        listener: UnixListener,
        ranks: usize,
        tcfg: &TransportConfig,
    ) -> HubOutcome {
        let mut results = vec![None; ranks];
        let poison = match accept_ranks(&listener, ranks, tcfg) {
            Ok(mut conns) => {
                let served = serve(&mut conns, &mut results);
                close_all(&mut conns, served.as_ref().err());
                served.err()
            }
            Err((mut conns, cause)) => {
                close_all(&mut conns, Some(&cause));
                Some(cause)
            }
        };
        HubOutcome { results, poison }
    }

    /// Accept phase: nonblocking accept polled against the deadline so
    /// a rank that dies before connecting cannot park the hub. Returns
    /// the connections in rank order, or the ones made so far and the
    /// first rank that never said `Hello`. Every connection reads with
    /// the hub's idle watchdog, `read_timeout` + 5 s: a live rank's
    /// own collective times out first and sends `Abort`.
    fn accept_ranks(
        listener: &UnixListener,
        ranks: usize,
        tcfg: &TransportConfig,
    ) -> Result<Vec<UnixStream>, (Vec<UnixStream>, PoisonCause)> {
        let idle_limit = tcfg.read_timeout + Duration::from_secs(5);
        let mut conns: Vec<Option<UnixStream>> = (0..ranks).map(|_| None).collect();
        let mut connected = 0usize;
        if listener.set_nonblocking(true).is_ok() {
            let deadline = Instant::now() + tcfg.accept_deadline;
            while connected < ranks && Instant::now() < deadline {
                match listener.accept() {
                    Ok((mut s, _)) => {
                        if set_timeouts(&s, idle_limit, tcfg.write_timeout).is_err() {
                            continue;
                        }
                        match frame::read_frame(&mut s) {
                            Ok(f)
                                if f.kind == Kind::Hello
                                    && (f.rank as usize) < ranks
                                    && conns[f.rank as usize].is_none() =>
                            {
                                let mut ack = Frame::control(Kind::HelloAck, 0, 0);
                                ack.payload.extend_from_slice(&(ranks as u32).to_le_bytes());
                                if frame::write_frame(&mut s, &ack).is_ok() {
                                    conns[f.rank as usize] = Some(s);
                                    connected += 1;
                                }
                            }
                            _ => {} // bad handshake: drop the connection
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
        }
        match conns.iter().position(Option::is_none) {
            None => Ok(conns.into_iter().flatten().collect()),
            Some(rank) => Err((
                conns.into_iter().flatten().collect(),
                PoisonCause::Peer { rank },
            )),
        }
    }

    /// The serving loop. Every rank has at most one frame in flight —
    /// it sends one collective and blocks on the reply, and its other
    /// frames (`Misuse`, `Abort`, `Result`) are its last — so for each
    /// `seq` the hub reads the next frame of rank 0, 1, …, R−1, sums
    /// the AllReduce payloads in that order from `+0.0` (the bits of
    /// [`crate::comm::ThreadComm`]'s reduction) and writes the reply
    /// to every rank. Waiting on a straggler in rank order delays no
    /// live rank: all of them wait for the straggler anyway. Returns
    /// after every rank sent `Result` and hung up, or with the first
    /// failure.
    fn serve(
        conns: &mut [UnixStream],
        results: &mut [Option<RankReport>],
    ) -> Result<(), PoisonCause> {
        let mut seq = 0u64;
        loop {
            seq += 1;
            // Kind and payload length of rank 0's frame: every other
            // rank must send the same collective.
            let mut agreed: Option<(Kind, usize)> = None;
            let mut sum = Vec::new();
            for (rank, s) in conns.iter_mut().enumerate() {
                let peer = PoisonCause::Peer { rank };
                // EOF, timeout and garbage alike: the rank is gone.
                let f = frame::read_frame(s).map_err(|_| peer.clone())?;
                if f.rank as usize != rank {
                    return Err(peer);
                }
                let vals = match f.kind {
                    // Lockstep violation: gap or replay.
                    Kind::AllReduce if f.seq != seq => return Err(peer),
                    Kind::AllReduce => match frame::bytes_to_doubles(&f.payload) {
                        Ok(v) if v.len() <= MAX_LEN => v,
                        _ => {
                            let len = f.payload.len() / 8;
                            return Err(PoisonCause::Misuse { rank, len });
                        }
                    },
                    Kind::Result => {
                        results[rank] =
                            Some(RankReport::decode(&f.payload).ok_or_else(|| peer.clone())?);
                        Vec::new()
                    }
                    Kind::Misuse => {
                        let len = f
                            .payload
                            .get(0..8)
                            .map(|b| u64::from_le_bytes(b.try_into().unwrap()) as usize)
                            .unwrap_or(0);
                        return Err(PoisonCause::Misuse { rank, len });
                    }
                    Kind::Abort => return Err(PoisonCause::decode(&f.payload).unwrap_or(peer)),
                    // Hub-originated kinds arriving *at* the hub are a
                    // protocol violation.
                    Kind::Hello | Kind::HelloAck | Kind::Sum | Kind::Poison => return Err(peer),
                };
                match agreed {
                    None => {
                        agreed = Some((f.kind, vals.len()));
                        sum = vec![0.0f64; vals.len()];
                    }
                    Some(first) if first != (f.kind, vals.len()) => return Err(peer),
                    Some(_) => {}
                }
                for (o, v) in sum.iter_mut().zip(&vals) {
                    *o += v;
                }
            }
            if !matches!(agreed, Some((Kind::AllReduce, _))) {
                // Every rank reported: the run ends when each hangs up.
                return hang_ups(conns);
            }
            let reply = Frame {
                kind: Kind::Sum,
                rank: 0,
                seq,
                payload: frame::doubles_to_bytes(&sum),
            };
            for (rank, s) in conns.iter_mut().enumerate() {
                frame::write_frame(s, &reply).map_err(|_| PoisonCause::Peer { rank })?;
            }
        }
    }

    /// End of a run: a rank that reported must hang up next. A raw EOF
    /// is the clean exit; a frame after `Result` is a protocol
    /// violation, silence or any other error the rank being gone.
    fn hang_ups(conns: &mut [UnixStream]) -> Result<(), PoisonCause> {
        for (rank, s) in conns.iter_mut().enumerate() {
            match frame::read_frame(s) {
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {}
                _ => return Err(PoisonCause::Peer { rank }),
            }
        }
        Ok(())
    }

    /// Sends `Poison` naming `cause` (if any) to every connection, then
    /// shuts every connection down. Best-effort: already-dead
    /// connections are exactly the ones that do not need telling.
    fn close_all(conns: &mut [UnixStream], cause: Option<&PoisonCause>) {
        if let Some(cause) = cause {
            let mut f = Frame::control(Kind::Poison, cause.failed_rank() as u32, 0);
            f.payload = cause.encode();
            for s in conns.iter_mut() {
                let _ = frame::write_frame(s, &f);
            }
        }
        for s in conns.iter() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }

    /// Kill-on-drop ownership of the spawned rank processes: whatever
    /// path the supervisor exits by (success, classified error, panic),
    /// no child outlives it.
    #[derive(Debug, Default)]
    pub struct ChildSet {
        children: Vec<(usize, std::process::Child)>,
    }

    impl ChildSet {
        /// An empty set.
        pub fn new() -> Self {
            Self::default()
        }

        /// Takes ownership of `child` (rank `rank`).
        pub fn push(&mut self, rank: usize, child: std::process::Child) {
            self.children.push((rank, child));
        }

        /// OS pids of the still-owned children.
        pub fn pids(&self) -> Vec<u32> {
            self.children.iter().map(|(_, c)| c.id()).collect()
        }

        /// Polls for voluntary exits until `deadline`, then kills and
        /// reaps whatever is left. Returns true when every child
        /// exited on its own.
        pub fn reap(&mut self, deadline: Duration) -> bool {
            let until = Instant::now() + deadline;
            let mut all_voluntary = true;
            loop {
                self.children
                    .retain_mut(|(_, c)| !matches!(c.try_wait(), Ok(Some(_))));
                if self.children.is_empty() {
                    return all_voluntary;
                }
                if Instant::now() >= until {
                    all_voluntary = false;
                    for (_, c) in &mut self.children {
                        let _ = c.kill();
                        let _ = c.wait();
                    }
                    self.children.clear();
                    return all_voluntary;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }

    impl Drop for ChildSet {
        fn drop(&mut self) {
            for (_, c) in &mut self.children {
                // Idempotent on already-reaped children; kill errors
                // on exited-but-unwaited ones are fine — wait() below
                // is the part that prevents zombies.
                let _ = c.kill();
                let _ = c.wait();
            }
        }
    }

    /// Everything a spawner needs to exec one child rank.
    #[derive(Clone, Debug)]
    pub struct RankSpec {
        /// The child's rank in `1..ranks` (rank 0 is the supervisor).
        pub rank: usize,
        /// Group size of this attempt.
        pub ranks: usize,
        /// 1-based attempt ordinal; degraded respawns increment it so
        /// the spawner can withhold one-shot fault injection from
        /// reruns (a fresh process has fresh fault latches).
        pub attempt: u32,
        /// The hub's socket path.
        pub endpoint: PathBuf,
    }

    /// Fault-tolerant replicated search over OS processes.
    ///
    /// The process analogue of
    /// [`crate::replicated::run_replicated_ft`], with the same rank
    /// body, degrade loop and cause order: rank 0 runs in the calling
    /// thread of the supervisor process (which also hosts the hub);
    /// ranks `1..n` are spawned via `spawn_child`, which execs the
    /// CLI's hidden `_rank` entry so every process rebuilds identical,
    /// seeded search inputs. With [`FtConfig::degrade`], a rank
    /// failure re-splits over one fewer rank, reloads the checkpoint,
    /// and respawns — against *real* process death, including
    /// `kill -9`. The hub's socket lives in the system temp directory.
    pub fn run_sharded_ft(
        tree: &Tree,
        aln: &CompressedAlignment,
        config: EngineConfig,
        search: MlSearch,
        ft: &FtConfig,
        tcfg: &TransportConfig,
        spawn_child: &mut dyn FnMut(&RankSpec) -> io::Result<std::process::Child>,
    ) -> Result<ReplicatedOutcome, ReplicatedError> {
        let inputs = RankInputs {
            tree,
            aln,
            config,
            search,
            ft,
        };
        run_degrading(ft, |ranks| {
            attempt_sharded(inputs, ranks, tcfg, spawn_child)
        })
    }

    /// One attempt at `ranks` processes: bind, spawn hub + children,
    /// run rank 0 locally, join, reap, classify.
    fn attempt_sharded(
        inputs: RankInputs<'_>,
        ranks: usize,
        tcfg: &TransportConfig,
        spawn_child: &mut dyn FnMut(&RankSpec) -> io::Result<std::process::Child>,
    ) -> Result<ReplicatedOutcome, ReplicatedError> {
        // Every attempt runs on one rank fewer than the one before.
        let attempt = (inputs.ft.num_ranks - ranks + 1) as u32;
        let tag = format!("r{ranks}-a{attempt}");
        let (listener, endpoint) = bind_endpoint(&std::env::temp_dir(), &tag)
            .map_err(|e| ReplicatedError::Transport(format!("bind uds: {e}")))?;
        let verbose = std::env::var("PHYLOMIC_TRANSPORT_VERBOSE").as_deref() == Ok("1");
        let hub = {
            let tcfg = tcfg.clone();
            std::thread::spawn(move || run_hub(listener, ranks, &tcfg))
        };
        let mut children = ChildSet::new();
        let spawned = (1..ranks).try_for_each(|rank| {
            let spec = RankSpec {
                rank,
                ranks,
                attempt,
                endpoint: endpoint.clone(),
            };
            let child = spawn_child(&spec)
                .map_err(|e| ReplicatedError::Transport(format!("spawning rank {rank}: {e}")))?;
            if verbose {
                println!("transport: spawned rank {rank} pid {}", child.id());
            }
            children.push(rank, child);
            Ok(())
        });
        // A failed spawn leaves the hub one Hello short; it exits at
        // its accept deadline and the children are killed on drop.
        // Rank 0 never starts.
        let rank0 = spawned.and_then(|()| run_socket_rank(inputs, 0, ranks, &endpoint, tcfg));
        let hub_out = hub.join().unwrap_or(HubOutcome {
            results: vec![None; ranks],
            poison: Some(PoisonCause::Peer { rank: 0 }),
        });
        // The hub has exited, so surviving children are either done or
        // already failing on a dead socket; give them a moment to exit
        // voluntarily, then enforce kill-on-drop semantics.
        children.reap(Duration::from_secs(5));
        let _ = std::fs::remove_file(&endpoint);
        classify_sharded(rank0, hub_out)
    }

    /// One socket rank — rank 0 in the supervisor, any other in its
    /// `_rank` child: connect, load the snapshot before the first
    /// collective, then the shared rank body. `inputs.ft.fault_plan`
    /// is what *this process* may fire (a respawned child gets none).
    fn run_socket_rank(
        inputs: RankInputs<'_>,
        rank: usize,
        ranks: usize,
        endpoint: &Path,
        tcfg: &TransportConfig,
    ) -> Result<RankDone, ReplicatedError> {
        let mut comm =
            SocketComm::connect(endpoint, rank, ranks, tcfg, inputs.ft.fault_plan.clone())
                .map_err(|e| {
                    ReplicatedError::Transport(format!(
                        "rank {rank} connect to {}: {e}",
                        endpoint.display()
                    ))
                })?;
        let resume = load_resume(inputs.ft).inspect_err(|e| comm.poison(e))?;
        run_rank_body(comm, inputs, resume.as_ref())
    }

    /// Merges the supervisor-side result with the hub's observation
    /// under the one cause order ([`most_causal`]).
    fn classify_sharded(
        rank0: Result<RankDone, ReplicatedError>,
        hub: HubOutcome,
    ) -> Result<ReplicatedOutcome, ReplicatedError> {
        let poison_err = hub.poison.as_ref().map(PoisonCause::as_error);
        let rank0 = match (rank0, poison_err) {
            (Ok(done), None) => done,
            (rank0, poison_err) => {
                let errors = rank0.err().into_iter().chain(poison_err);
                return Err(most_causal(errors).expect("an error on either side"));
            }
        };
        let mut rank_likelihoods = Vec::with_capacity(hub.results.len());
        let mut wire = WireStats::default();
        for (r, report) in hub.results.iter().enumerate() {
            let report = report.ok_or_else(|| {
                ReplicatedError::Transport(format!("rank {r} finished without reporting"))
            })?;
            rank_likelihoods.push(report.final_ll);
            wire.merge(&report.wire);
        }
        Ok(ReplicatedOutcome {
            result: rank0.result,
            rank_likelihoods,
            // Child kernel stats stay in their processes; these are
            // rank 0's (documented on ReplicatedOutcome).
            kernel_stats: rank0.kernel_stats,
            comm_stats: rank0.comm_stats,
            transport: rank0.transport.to_string(),
            wire,
        })
    }

    /// Inputs of a child rank process (the CLI's hidden `_rank`
    /// subcommand builds these from its pass-through flags; seeded
    /// determinism guarantees they equal the supervisor's).
    pub struct ChildRankArgs<'a> {
        /// This process's rank in `1..ft.num_ranks`.
        pub rank: usize,
        /// The hub's socket path.
        pub endpoint: PathBuf,
        /// Starting tree (identical on every rank).
        pub tree: &'a Tree,
        /// The full alignment; this rank evaluates its
        /// `split_ranges` slice.
        pub aln: &'a CompressedAlignment,
        /// Engine configuration.
        pub config: EngineConfig,
        /// The search (deterministic; keeps ranks in lockstep).
        pub search: MlSearch,
        /// The attempt's group size (`num_ranks`), the checkpoint to
        /// resume from if it exists (children never write it — rank 0
        /// is the single writer) and the scripted faults for this
        /// process (only passed on the first attempt; a respawned
        /// child runs fault-free).
        pub ft: &'a FtConfig,
        /// Socket tuning; must match the supervisor's.
        pub tcfg: TransportConfig,
    }

    /// Body of a child rank process: connect, resume, search in
    /// lockstep, report, exit. The error is returned for the CLI to
    /// print; the *classification* travels through the hub (Abort
    /// frames / EOF), not the exit code.
    pub fn run_rank(a: ChildRankArgs<'_>) -> Result<(), ReplicatedError> {
        let inputs = RankInputs {
            tree: a.tree,
            aln: a.aln,
            config: a.config,
            search: a.search,
            ft: a.ft,
        };
        run_socket_rank(inputs, a.rank, a.ft.num_ranks, &a.endpoint, &a.tcfg).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_stats_record_mean_and_merge() {
        let mut w = WireStats::default();
        assert_eq!(w.mean_ns(), 0, "empty stats have a zero mean");
        w.record(100);
        w.record(300);
        assert_eq!(w.ops, 2);
        assert_eq!(w.total_ns, 400);
        assert_eq!(w.max_ns, 300);
        assert_eq!(w.mean_ns(), 200);

        let mut other = WireStats::default();
        other.record(1_000);
        w.merge(&other);
        assert_eq!(w.ops, 3);
        assert_eq!(w.total_ns, 1_400);
        assert_eq!(w.max_ns, 1_000);
    }

    #[test]
    fn transport_kind_parses_and_prints() {
        assert_eq!(
            "threads".parse::<TransportKind>(),
            Ok(TransportKind::Threads)
        );
        assert_eq!("uds".parse::<TransportKind>(), Ok(TransportKind::Uds));
        assert_eq!(TransportKind::Uds.to_string(), "uds");
        // The retired TCP fallback is an unknown name like any other,
        // answered with the menu of transports that exist.
        let err = "tcp".parse::<TransportKind>().unwrap_err();
        assert!(err.contains("threads") && err.contains("uds"), "{err}");
        assert!("mpi".parse::<TransportKind>().is_err());
    }

    #[test]
    fn transport_config_env_override_applies_to_timeouts() {
        // The parse of the variable's value, without touching the
        // process environment (sibling tests read it concurrently).
        let cfg = TransportConfig::with_wire_timeout(Some(" 250 "));
        assert_eq!(cfg.read_timeout, Duration::from_millis(250));
        assert_eq!(cfg.write_timeout, Duration::from_millis(250));
        let default = TransportConfig::default();
        assert_eq!(cfg.accept_deadline, default.accept_deadline);
        assert_eq!(
            TransportConfig::with_wire_timeout(Some("0")).read_timeout,
            Duration::from_millis(1)
        );
        for unset in [None, Some("soon"), Some("")] {
            let cfg = TransportConfig::with_wire_timeout(unset);
            assert_eq!(cfg.read_timeout, default.read_timeout, "{unset:?}");
            assert_eq!(cfg.write_timeout, default.write_timeout, "{unset:?}");
        }
    }

    use crate::comm::{Comm, CommError, ThreadCommGroup, MAX_LEN};

    /// Cross-transport payload-contract parity: both communicators
    /// enforce the same AllReduce payload bound and fail the same way,
    /// or the choice of `--transport` would change error behaviour. The
    /// script: a full-width AllReduce succeeds, one double more fails
    /// with `PayloadTooLarge { len }` naming this rank, and the
    /// communicator is dead (latched or poisoned) afterwards.
    fn assert_contract<C: Comm>(comm: &mut C, transport: &str) {
        let mut ok = vec![1.0; MAX_LEN];
        comm.try_allreduce_sum(&mut ok)
            .unwrap_or_else(|e| panic!("{transport}: full-width payload rejected: {e}"));
        assert_eq!(
            ok,
            vec![comm.size() as f64; MAX_LEN],
            "{transport}: wrong sum"
        );

        let mut big = vec![1.0; MAX_LEN + 1];
        match comm.try_allreduce_sum(&mut big) {
            Err(CommError::PayloadTooLarge { rank, len }) => {
                assert_eq!(rank, comm.rank(), "{transport}: wrong culprit rank");
                assert_eq!(len, MAX_LEN + 1, "{transport}: wrong len");
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

    /// The innocent peer of [`assert_contract`]'s rank 0: its first
    /// AllReduce matches the offender's successful one, its second
    /// fails naming the offender.
    fn innocent_peer<C: Comm>(mut comm: C) {
        let mut buf = vec![1.0; MAX_LEN];
        comm.try_allreduce_sum(&mut buf).unwrap();
        let err = comm.try_allreduce_sum(&mut buf).unwrap_err();
        assert_eq!(err, CommError::PeerFailed { rank: 0 });
    }

    #[test]
    fn thread_comm_honors_the_shared_contract() {
        // Single-rank group: the oversize check fires before any
        // barrier, so the script runs without peers...
        let mut group = ThreadCommGroup::new(1);
        assert_contract(&mut group.take(), "threads(1)");

        // ...and with a peer present the errors are identical, while
        // the innocent rank sees the culprit named in its own failure.
        let mut group = ThreadCommGroup::new(2);
        let mut offender = group.take();
        let innocent = group.take();
        let peer = std::thread::spawn(move || innocent_peer(innocent));
        assert_contract(&mut offender, "threads(2)");
        peer.join().unwrap();
    }

    #[cfg(unix)]
    mod wire {
        use super::super::frame::{self, Frame, Kind};
        use super::super::*;
        use super::{assert_contract, innocent_peer};
        use crate::comm::{CommError, CommStats, ThreadCommGroup, MAX_LEN};
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use std::io::{self, Write};
        use std::os::unix::net::UnixStream;
        use std::path::{Path, PathBuf};
        use std::time::Instant;

        #[test]
        fn frame_roundtrips_through_a_buffer() {
            let f = Frame {
                kind: Kind::AllReduce,
                rank: 3,
                seq: 41,
                payload: frame::doubles_to_bytes(&[1.5, -2.25]),
            };
            let mut buf = Vec::new();
            frame::write_frame(&mut buf, &f).unwrap();
            assert_eq!(buf.len(), frame::HEADER_LEN + 16);
            let g = frame::read_frame(&mut buf.as_slice()).unwrap();
            assert_eq!(g.kind, Kind::AllReduce);
            assert_eq!(g.rank, 3);
            assert_eq!(g.seq, 41);
            assert_eq!(
                frame::bytes_to_doubles(&g.payload).unwrap(),
                vec![1.5, -2.25]
            );
        }

        #[test]
        fn frame_reader_rejects_garbage() {
            // Bad magic.
            let mut buf = raw(Kind::Hello, 0, 1, vec![]);
            buf[0] ^= 0xFF;
            assert!(frame::read_frame(&mut buf.as_slice()).is_err());

            // Unknown kinds, the retired barrier kinds 5 and 6 among
            // them.
            for kind in [0, 5, 6, 11, 0xEE] {
                let mut buf = raw(Kind::Hello, 0, 1, vec![]);
                buf[4] = kind;
                let err = frame::read_frame(&mut buf.as_slice()).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "kind {kind}");
            }

            // Every client frame, cut short at every length.
            for bytes in client_frames() {
                for cut in 0..bytes.len() {
                    let err = frame::read_frame(&mut &bytes[..cut]).unwrap_err();
                    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut {cut}");
                }
            }

            // Truncated payload.
            let f = Frame {
                kind: Kind::AllReduce,
                rank: 0,
                seq: 1,
                payload: vec![0u8; 16],
            };
            let mut buf = Vec::new();
            frame::write_frame(&mut buf, &f).unwrap();
            buf.truncate(buf.len() - 3);
            assert!(frame::read_frame(&mut buf.as_slice()).is_err());

            // Odd-length double payload.
            assert!(frame::bytes_to_doubles(&[0u8; 9]).is_err());
        }

        #[test]
        fn poison_cause_roundtrips_all_variants() {
            for cause in [
                PoisonCause::Peer { rank: 2 },
                PoisonCause::Misuse { rank: 1, len: 99 },
                PoisonCause::Abort {
                    rank: 0,
                    class: AbortClass::Panic,
                    message: "boom 😀".to_string(),
                },
                PoisonCause::Abort {
                    rank: 3,
                    class: AbortClass::Checkpoint,
                    message: String::new(),
                },
            ] {
                let bytes = cause.encode();
                assert_eq!(PoisonCause::decode(&bytes), Some(cause.clone()));
                assert_eq!(
                    cause.as_peer_error(),
                    CommError::PeerFailed {
                        rank: cause.failed_rank()
                    }
                );
            }
            assert_eq!(PoisonCause::decode(&[1, 2, 3]), None, "short buffer");
            let mut bad = PoisonCause::Peer { rank: 0 }.encode();
            bad[0] = 99;
            assert_eq!(PoisonCause::decode(&bad), None, "unknown tag");
        }

        #[test]
        fn an_abandoning_rank_names_a_cause_only_it_knows() {
            use crate::replicated::ReplicatedError;
            // A checkpoint failure or a panic travels in the frame: what
            // the rank sends and what the supervisor reads are inverses.
            let panicked = ReplicatedError::RankPanicked {
                rank: 2,
                message: "boom".into(),
            };
            for error in [ReplicatedError::Checkpoint("disk full".into()), panicked] {
                assert_eq!(PoisonCause::of_abandoning(2, &error).as_error(), error);
            }
            // Any other failure is the rank being gone.
            let timeout = ReplicatedError::Comm(CommError::Timeout { rank: 2, millis: 9 });
            for error in [timeout, ReplicatedError::Transport("result".into())] {
                let cause = PoisonCause::of_abandoning(2, &error);
                assert_eq!(cause, PoisonCause::Peer { rank: 2 });
            }
        }

        #[test]
        fn poison_cause_truncates_giant_messages() {
            let cause = PoisonCause::Abort {
                rank: 0,
                class: AbortClass::Panic,
                message: "x".repeat(1 << 16),
            };
            let bytes = cause.encode();
            assert!(bytes.len() <= 17 + 4096);
            match PoisonCause::decode(&bytes).unwrap() {
                PoisonCause::Abort { message, .. } => assert_eq!(message.len(), 4096),
                other => panic!("wrong variant: {other:?}"),
            }
        }

        #[test]
        fn rank_report_roundtrips() {
            let r = RankReport {
                final_ll: -1234.5678,
                comm: CommStats {
                    allreduces: 7,
                    bytes: 56,
                    barriers: 0,
                },
                wire: WireStats {
                    ops: 9,
                    total_ns: 12345,
                    max_ns: 5000,
                },
            };
            let bytes = r.encode();
            assert_eq!(bytes.len(), 48);
            assert_eq!(RankReport::decode(&bytes), Some(r));
            assert_eq!(RankReport::decode(&bytes[..47]), None);
        }

        /// One encoded frame of every kind a client sends: `Hello`,
        /// `AllReduce` of 1 to `MAX_LEN` doubles, `Misuse`, `Abort` of
        /// both classes and `Result`.
        fn client_frames() -> Vec<Vec<u8>> {
            let mut frames = vec![raw(Kind::Hello, 1, 0, vec![])];
            for n in 1..=MAX_LEN {
                let vals: Vec<f64> = (0..n).map(|i| i as f64 - 0.5).collect();
                frames.push(raw(
                    Kind::AllReduce,
                    1,
                    n as u64,
                    frame::doubles_to_bytes(&vals),
                ));
            }
            let oversize = (MAX_LEN as u64 + 1).to_le_bytes().to_vec();
            frames.push(raw(Kind::Misuse, 1, 3, oversize));
            for class in [AbortClass::Panic, AbortClass::Checkpoint] {
                let cause = PoisonCause::Abort {
                    rank: 1,
                    class,
                    message: "disk full 😀".into(),
                };
                frames.push(raw(Kind::Abort, 1, 0, cause.encode()));
            }
            frames.push(raw(Kind::Result, 1, 0, report(1)));
            frames
        }

        /// One to three hostile edits of an encoded frame: a flipped
        /// bit, a cut, an overwritten length field, or an overwritten
        /// kind byte (the retired 5 and 6 half the time).
        fn mutate(bytes: &mut Vec<u8>, rng: &mut SmallRng) {
            for _ in 0..rng.random_range(1..=3) {
                match rng.random_range(0..4) {
                    0 if !bytes.is_empty() => {
                        let at = rng.random_range(0..bytes.len());
                        bytes[at] ^= 1u8 << rng.random_range(0..8);
                    }
                    1 => bytes.truncate(rng.random_range(0..=bytes.len())),
                    2 if bytes.len() >= frame::HEADER_LEN => {
                        let len: u32 = match rng.random_range(0..3) {
                            0 => rng.random_range(0..64),
                            1 => frame::MAX_PAYLOAD + rng.random_range(0..2u32),
                            _ => rng.random(),
                        };
                        bytes[17..frame::HEADER_LEN].copy_from_slice(&len.to_le_bytes());
                    }
                    3 if bytes.len() > 4 => {
                        bytes[4] = if rng.random() {
                            rng.random_range(5..=6)
                        } else {
                            rng.random()
                        };
                    }
                    _ => {}
                }
            }
        }

        /// Reads `bytes` as the hub reads a frame and runs the payload
        /// of a frame that reads through every decoder.
        fn read_and_decode(bytes: &[u8]) -> io::Result<Frame> {
            let f = frame::read_frame(&mut &bytes[..])?;
            let _ = frame::bytes_to_doubles(&f.payload);
            let _ = PoisonCause::decode(&f.payload);
            let _ = RankReport::decode(&f.payload);
            Ok(f)
        }

        proptest::proptest! {
            #![proptest_config(proptest::ProptestConfig::with_cases(10_000))]

            /// Hostile frame bytes end in a frame or a structured error,
            /// and each decoder in a value or an error / `None`, never a
            /// panic. A frame that reads re-encodes to the bytes it was
            /// read from; a whole header of kind 5 or 6 is `InvalidData`.
            #[test]
            fn mutated_frames_read_as_a_frame_or_a_structured_error(seed in 0u64..u64::MAX) {
                let mut rng = SmallRng::seed_from_u64(seed);
                let frames = client_frames();
                let mut bytes = frames[rng.random_range(0..frames.len())].clone();
                mutate(&mut bytes, &mut rng);
                let whole_header = bytes.len() >= frame::HEADER_LEN
                    && bytes[..4] == frame::MAGIC.to_le_bytes();
                let retired = whole_header && matches!(bytes[4], 5 | 6);
                match read_and_decode(&bytes) {
                    Ok(f) => {
                        proptest::prop_assert!(!retired);
                        let mut again = Vec::new();
                        frame::write_frame(&mut again, &f).unwrap();
                        proptest::prop_assert_eq!(&again[..], &bytes[..again.len()]);
                    }
                    Err(e) if retired => {
                        proptest::prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData)
                    }
                    Err(e) => proptest::prop_assert!(
                        matches!(
                            e.kind(),
                            io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                        ),
                        "{e}"
                    ),
                }
            }
        }

        #[test]
        fn poison_queued_before_a_broken_pipe_still_names_the_dead_rank() {
            // The hub poisons the group and closes this rank's
            // connection while the rank is still computing: its next
            // collective finds a broken pipe, and must report the
            // queued Poison frame's cause, not "the hub (rank 0) died".
            let dir = std::env::temp_dir();
            let (listener, ep) = bind_endpoint(&dir, "poison-then-close").expect("bind");
            let hub = std::thread::spawn(move || {
                let (mut s, _) = listener.accept().expect("accept");
                assert_eq!(frame::read_frame(&mut s).expect("hello").kind, Kind::Hello);
                let mut ack = Frame::control(Kind::HelloAck, 0, 0);
                ack.payload.extend_from_slice(&3u32.to_le_bytes());
                frame::write_frame(&mut s, &ack).expect("ack");
                let cause = PoisonCause::Peer { rank: 1 };
                let mut poison = Frame::control(Kind::Poison, 1, 0);
                poison.payload = cause.encode();
                frame::write_frame(&mut s, &poison).expect("poison");
                let _ = s.shutdown(std::net::Shutdown::Both);
            });
            let tcfg = TransportConfig {
                read_timeout: Duration::from_secs(2),
                write_timeout: Duration::from_secs(2),
                ..TransportConfig::default()
            };
            let mut comm = SocketComm::connect(&ep, 2, 3, &tcfg, None).expect("connect");
            hub.join().unwrap();
            let _ = std::fs::remove_file(&ep);
            let err = comm.try_allreduce_sum(&mut [1.0]).unwrap_err();
            assert_eq!(err, CommError::PeerFailed { rank: 1 });
        }

        #[test]
        fn child_set_kills_on_drop() {
            let mut set = ChildSet::new();
            let child = std::process::Command::new("sleep")
                .arg("600")
                .spawn()
                .expect("spawn sleep");
            let pid = child.id();
            set.push(1, child);
            assert_eq!(set.pids(), vec![pid]);
            drop(set);
            // After Drop the process must be gone (kill + wait, so no
            // zombie either).
            let alive = std::path::Path::new(&format!("/proc/{pid}")).exists();
            assert!(!alive, "child {pid} survived ChildSet::drop");
        }

        #[test]
        fn child_set_reaps_exited_children_without_killing() {
            let mut set = ChildSet::new();
            let child = std::process::Command::new("true").spawn().expect("spawn");
            set.push(1, child);
            assert!(set.reap(Duration::from_secs(5)), "true exits promptly");
            assert!(set.pids().is_empty());
        }

        /// Binds a fresh socket and runs the real hub for `ranks` on its
        /// own thread.
        fn spawn_hub(
            tag: &str,
            ranks: usize,
            tcfg: &TransportConfig,
        ) -> (PathBuf, std::thread::JoinHandle<HubOutcome>) {
            let (listener, path) = bind_endpoint(&std::env::temp_dir(), tag).expect("bind");
            let tcfg = tcfg.clone();
            let hub = std::thread::spawn(move || run_hub(listener, ranks, &tcfg));
            (path, hub)
        }

        #[test]
        fn socket_comm_honors_the_shared_contract() {
            let tcfg = TransportConfig {
                read_timeout: Duration::from_secs(2),
                write_timeout: Duration::from_secs(2),
                ..TransportConfig::default()
            };
            let misuse = Some(PoisonCause::Misuse {
                rank: 0,
                len: MAX_LEN + 1,
            });
            // One rank against the real hub...
            let (path, hub) = spawn_hub("contract-1", 1, &tcfg);
            let mut comm = SocketComm::connect(&path, 0, 1, &tcfg, None).expect("connect");
            assert_contract(&mut comm, "uds(1)");
            drop(comm);
            assert_eq!(hub.join().unwrap().poison, misuse);
            let _ = std::fs::remove_file(&path);

            // ...and two, where the innocent rank sees the culprit
            // named, exactly as over threads.
            let (path, hub) = spawn_hub("contract-2", 2, &tcfg);
            let peer = {
                let (path, tcfg) = (path.clone(), tcfg.clone());
                std::thread::spawn(move || {
                    innocent_peer(SocketComm::connect(&path, 1, 2, &tcfg, None).expect("connect"))
                })
            };
            let mut offender = SocketComm::connect(&path, 0, 2, &tcfg, None).expect("connect");
            assert_contract(&mut offender, "uds(2)");
            peer.join().unwrap();
            drop(offender);
            assert_eq!(hub.join().unwrap().poison, misuse);
            let _ = std::fs::remove_file(&path);
        }

        /// One step of a scripted raw-frame client.
        enum Step {
            /// Write these bytes (the hub may already have hung up).
            Send(Vec<u8>),
            /// Read one reply frame.
            Recv,
            /// Read frames until the hub closes the connection.
            Linger,
        }

        /// A verdict-table row: name, the scripts of ranks 0 and 1, and
        /// the hub's expected poison cause.
        type Row = (&'static str, [Vec<Step>; 2], Option<PoisonCause>);

        fn raw(kind: Kind, rank: u32, seq: u64, payload: Vec<u8>) -> Vec<u8> {
            let mut out = Vec::new();
            let f = Frame {
                kind,
                rank,
                seq,
                payload,
            };
            frame::write_frame(&mut out, &f).unwrap();
            out
        }

        fn allreduce(rank: u32, seq: u64, vals: &[f64]) -> Step {
            Step::Send(raw(
                Kind::AllReduce,
                rank,
                seq,
                frame::doubles_to_bytes(vals),
            ))
        }

        fn control(kind: Kind, rank: u32, seq: u64, payload: Vec<u8>) -> Step {
            Step::Send(raw(kind, rank, seq, payload))
        }

        fn report(rank: u32) -> Vec<u8> {
            let r = RankReport {
                final_ll: -(rank as f64) - 0.5,
                comm: CommStats::default(),
                wire: WireStats::default(),
            };
            r.encode()
        }

        /// Says `Hello` as `rank`, then runs `script`; returns every
        /// frame the hub sent, the `HelloAck` first. Dropping the
        /// stream at the end hangs up.
        fn run_client(path: &Path, rank: u32, script: Vec<Step>) -> Vec<Frame> {
            let mut s = UnixStream::connect(path).expect("connect");
            s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            frame::write_frame(&mut s, &Frame::control(Kind::Hello, rank, 0)).unwrap();
            let mut got = vec![frame::read_frame(&mut s).expect("ack")];
            for step in script {
                match step {
                    Step::Send(bytes) => {
                        let _ = s.write_all(&bytes);
                    }
                    Step::Recv => got.extend(frame::read_frame(&mut s).ok()),
                    Step::Linger => {
                        got.extend(std::iter::from_fn(|| frame::read_frame(&mut s).ok()))
                    }
                }
            }
            got
        }

        /// The hub's verdict on every kind of hostile frame, at 2 ranks
        /// against scripted raw-frame clients: rank 1 misbehaves (rank 0
        /// sends its first AllReduce and waits), each row must end in
        /// its `PoisonCause` — sent as `Poison` to every rank still
        /// listening — within the idle watchdog `read_timeout` + 5 s,
        /// and the clean row must end with both reports and the
        /// in-thread sum's bits.
        #[test]
        fn hub_answers_every_hostile_frame_with_its_verdict() {
            let tcfg = TransportConfig {
                read_timeout: Duration::from_millis(200),
                write_timeout: Duration::from_secs(2),
                ..TransportConfig::default()
            };
            let idle_limit = tcfg.read_timeout + Duration::from_secs(5);
            let peer = Some(PoisonCause::Peer { rank: 1 });
            let misuse = |len| Some(PoisonCause::Misuse { rank: 1, len });
            let panic = PoisonCause::Abort {
                rank: 1,
                class: AbortClass::Panic,
                message: "boom".into(),
            };
            let mut bad_magic = raw(Kind::AllReduce, 1, 1, frame::doubles_to_bytes(&[1.0]));
            bad_magic[0] ^= 0xFF;
            let mut retired_barrier = raw(Kind::Hello, 1, 1, vec![]);
            retired_barrier[4] = 5;
            // -0.0 from both ranks sums to +0.0 only from a +0.0 start.
            let vals = [[-0.0, 0.1, 1e16], [-0.0, 0.2, -1e16]];
            let expected_sum = {
                let mut group = ThreadCommGroup::new(2);
                let mut one = group.take();
                let other = std::thread::spawn({
                    let (mut comm, mut buf) = (group.take(), vals[1]);
                    move || comm.try_allreduce_sum(&mut buf).map(|()| buf)
                });
                let mut buf = vals[0];
                one.try_allreduce_sum(&mut buf).unwrap();
                assert_eq!(
                    other.join().unwrap().unwrap().map(f64::to_bits),
                    buf.map(f64::to_bits)
                );
                buf
            };
            let waits = || vec![allreduce(0, 1, &[1.0]), Step::Linger];
            let clean = |r: u32| {
                vec![
                    allreduce(r, 1, &vals[r as usize]),
                    Step::Recv,
                    control(Kind::Result, r, 0, report(r)),
                ]
            };
            // Rank 0 sends its first AllReduce and waits; rank 1 sends
            // `step` and waits.
            let hostile = |step: Step| [waits(), vec![step, Step::Linger]];
            let rows: Vec<Row> = vec![
                ("seq gap", hostile(allreduce(1, 2, &[1.0])), peer.clone()),
                (
                    "replay",
                    [
                        vec![
                            allreduce(0, 1, &[1.0]),
                            Step::Recv,
                            allreduce(0, 2, &[1.0]),
                            Step::Linger,
                        ],
                        vec![
                            allreduce(1, 1, &[1.0]),
                            Step::Recv,
                            allreduce(1, 1, &[1.0]),
                            Step::Linger,
                        ],
                    ],
                    peer.clone(),
                ),
                (
                    "header rank not its own",
                    hostile(allreduce(0, 1, &[1.0])),
                    peer.clone(),
                ),
                (
                    "hub-only Sum",
                    hostile(control(Kind::Sum, 1, 1, vec![])),
                    peer.clone(),
                ),
                (
                    "hub-only HelloAck",
                    hostile(control(Kind::HelloAck, 1, 0, vec![0; 8])),
                    peer.clone(),
                ),
                (
                    "hub-only Poison",
                    hostile(control(
                        Kind::Poison,
                        1,
                        0,
                        PoisonCause::Peer { rank: 0 }.encode(),
                    )),
                    peer.clone(),
                ),
                ("bad magic", hostile(Step::Send(bad_magic)), peer.clone()),
                (
                    "retired kind 5 (Barrier)",
                    hostile(Step::Send(retired_barrier)),
                    peer.clone(),
                ),
                (
                    "ragged f64 payload",
                    hostile(control(Kind::AllReduce, 1, 1, vec![0; 9])),
                    misuse(1),
                ),
                ("9 doubles", hostile(allreduce(1, 1, &[1.0; 9])), misuse(9)),
                (
                    "lengths disagree",
                    hostile(allreduce(1, 1, &[1.0, 2.0])),
                    peer.clone(),
                ),
                (
                    "AllReduce against Result",
                    hostile(control(Kind::Result, 1, 0, report(1))),
                    peer.clone(),
                ),
                (
                    "47-byte Result",
                    [
                        vec![control(Kind::Result, 0, 0, report(0)), Step::Linger],
                        vec![
                            control(Kind::Result, 1, 0, report(1)[..47].to_vec()),
                            Step::Linger,
                        ],
                    ],
                    peer.clone(),
                ),
                ("EOF before Result", [waits(), vec![]], peer.clone()),
                (
                    "frame after Result",
                    [
                        vec![control(Kind::Result, 0, 0, report(0))],
                        vec![
                            control(Kind::Result, 1, 0, report(1)),
                            allreduce(1, 1, &[1.0]),
                            Step::Linger,
                        ],
                    ],
                    peer.clone(),
                ),
                (
                    "undecodable Abort",
                    hostile(control(Kind::Abort, 1, 0, vec![1, 2, 3])),
                    peer.clone(),
                ),
                (
                    "Abort with a panic",
                    hostile(control(Kind::Abort, 1, 0, panic.encode())),
                    Some(panic.clone()),
                ),
                (
                    "silence after Hello",
                    [waits(), vec![Step::Linger]],
                    peer.clone(),
                ),
                ("clean run", [clean(0), clean(1)], None),
            ];
            let mut failures = Vec::new();
            for (i, (name, scripts, verdict)) in rows.into_iter().enumerate() {
                let lingers: Vec<bool> = scripts
                    .iter()
                    .map(|s| matches!(s.last(), Some(Step::Linger)))
                    .collect();
                let (tx, rx) = std::sync::mpsc::channel();
                let tcfg = tcfg.clone();
                std::thread::spawn(move || {
                    let (listener, path) =
                        bind_endpoint(&std::env::temp_dir(), &format!("verdict-{i}"))
                            .expect("bind");
                    let t0 = Instant::now();
                    let clients: Vec<_> = scripts
                        .into_iter()
                        .enumerate()
                        .map(|(r, script)| {
                            let path = path.clone();
                            std::thread::spawn(move || run_client(&path, r as u32, script))
                        })
                        .collect();
                    let out = run_hub(listener, 2, &tcfg);
                    let elapsed = t0.elapsed();
                    let got: Vec<Vec<Frame>> =
                        clients.into_iter().map(|c| c.join().unwrap()).collect();
                    let _ = std::fs::remove_file(&path);
                    let _ = tx.send((out, got, elapsed));
                });
                // The watchdog: a hub that never answers fails its row.
                let Ok((out, got, elapsed)) = rx.recv_timeout(idle_limit * 3) else {
                    failures.push(format!("{name}: hangs"));
                    continue;
                };
                if out.poison != verdict {
                    failures.push(format!(
                        "{name}: verdict {:?}, want {verdict:?}",
                        out.poison
                    ));
                }
                if elapsed > idle_limit + Duration::from_secs(2) {
                    failures.push(format!("{name}: verdict after {elapsed:?}"));
                }
                for (rank, frames) in got.iter().enumerate() {
                    let last = frames.last().filter(|f| f.kind == Kind::Poison);
                    let told = last.and_then(|f| PoisonCause::decode(&f.payload));
                    if verdict.is_some() && lingers[rank] && told != verdict {
                        failures.push(format!("{name}: rank {rank} was told {told:?}"));
                    }
                }
                if verdict.is_none() {
                    let reports: Vec<_> = (0..2).map(|r| RankReport::decode(&report(r))).collect();
                    if out.results != reports {
                        failures.push(format!("{name}: results {:?}", out.results));
                    }
                    for (rank, frames) in got.iter().enumerate() {
                        let sum = frames
                            .get(1)
                            .map(|f| frame::bytes_to_doubles(&f.payload).unwrap());
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        if sum.as_deref().map(bits) != Some(bits(&expected_sum)) {
                            failures.push(format!("{name}: rank {rank} got sum {sum:?}"));
                        }
                    }
                }
            }
            assert!(failures.is_empty(), "{failures:#?}");
        }
    }
}
