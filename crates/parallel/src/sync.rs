//! Synchronization facade: `std` types in production, `interleave`
//! shims under the `interleave` cargo feature.
//!
//! Everything the barrier / fork-join / comm protocols use for
//! cross-thread synchronization goes through this module, so one
//! cargo feature swaps the whole layer onto the model checker's
//! tracked types: the atomics, the fork-join region's `Mutex` and
//! `RwLock`, `hint` and `thread`. In production every name is a
//! straight re-export of `std`.

#[cfg(feature = "interleave")]
pub(crate) use interleave::{
    hint,
    sync::{atomic, Mutex, RwLock},
    thread,
};

#[cfg(not(feature = "interleave"))]
pub(crate) use std::sync::{atomic, Mutex, RwLock};

#[cfg(not(feature = "interleave"))]
pub(crate) mod hint {
    pub use std::hint::spin_loop;
}

#[cfg(not(feature = "interleave"))]
pub(crate) mod thread {
    pub use std::thread::{spawn, yield_now, JoinHandle};
}
