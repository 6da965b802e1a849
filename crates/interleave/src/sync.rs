//! Shimmed atomics and locks, mirroring `std::sync`.
//!
//! Every atomic is *dual-mode*: constructed inside a model run it
//! registers a tracked location with the executing [`Exec`] and every
//! operation becomes a scheduling + memory-model event; constructed
//! outside a model it delegates straight to the real `std` atomic, so
//! a `--features interleave` build behaves identically to a normal
//! build everywhere except inside `interleave::model` closures. The
//! locks are built on the atomics and are dual-mode the same way.

pub mod atomic {
    use crate::exec::{current, Exec};
    pub use std::sync::atomic::Ordering;
    use std::sync::Arc;

    /// Backing representation shared by all shimmed atomic types: the
    /// value is widened to `u64`.
    enum Core {
        Real(std::sync::atomic::AtomicU64),
        Model { exec: Arc<Exec>, loc: usize },
    }

    impl Core {
        fn new(init: u64) -> Self {
            match current::get() {
                Some((exec, tid)) => {
                    let loc = exec.new_location(tid, init);
                    Core::Model { exec, loc }
                }
                None => Core::Real(std::sync::atomic::AtomicU64::new(init)),
            }
        }

        fn model_tid(&self) -> usize {
            current::get()
                .expect("interleave atomic created in a model but used outside one")
                .1
        }

        fn load(&self, ord: Ordering) -> u64 {
            match self {
                Core::Real(a) => a.load(ord),
                Core::Model { exec, loc } => exec.atomic_load(self.model_tid(), *loc, ord),
            }
        }

        fn store(&self, val: u64, ord: Ordering) {
            match self {
                Core::Real(a) => a.store(val, ord),
                Core::Model { exec, loc } => exec.atomic_store(self.model_tid(), *loc, val, ord),
            }
        }

        fn swap(&self, val: u64, ord: Ordering) -> u64 {
            match self {
                Core::Real(a) => a.swap(val, ord),
                Core::Model { exec, loc } => exec.atomic_rmw(self.model_tid(), *loc, ord, |_| val),
            }
        }

        fn compare_exchange(
            &self,
            current_val: u64,
            new: u64,
            success: Ordering,
            failure: Ordering,
        ) -> Result<u64, u64> {
            match self {
                Core::Real(a) => a.compare_exchange(current_val, new, success, failure),
                Core::Model { exec, loc } => {
                    exec.atomic_cas(self.model_tid(), *loc, current_val, new, success, failure)
                }
            }
        }
    }

    macro_rules! fetch_op {
        ($name:ident, $prim:ty, $apply:expr, $real:ident) => {
            #[doc = concat!("Shimmed `", stringify!($name), "`.")]
            pub fn $name(&self, val: $prim, ord: Ordering) -> $prim {
                match &self.core {
                    Core::Real(a) => {
                        // Operate on the widened u64; for the unsigned
                        // primitives used here the truncated result is
                        // identical to the native op.
                        a.$real(val as u64, ord) as $prim
                    }
                    Core::Model { exec, loc } => {
                        let tid = self.core.model_tid();
                        let apply = $apply;
                        exec.atomic_rmw(tid, *loc, ord, |old| apply(old as $prim, val) as u64)
                            as $prim
                    }
                }
            }
        };
    }

    macro_rules! atomic_int {
        ($name:ident, $prim:ty, $doc:literal) => {
            #[doc = $doc]
            pub struct $name {
                core: Core,
            }

            impl $name {
                /// Creates the atomic, registering it with the active
                /// model run if one exists on this thread.
                pub fn new(v: $prim) -> Self {
                    Self {
                        core: Core::new(v as u64),
                    }
                }

                /// Shimmed `load`.
                pub fn load(&self, ord: Ordering) -> $prim {
                    self.core.load(ord) as $prim
                }

                /// Shimmed `store`.
                pub fn store(&self, v: $prim, ord: Ordering) {
                    self.core.store(v as u64, ord)
                }

                /// Shimmed `swap`.
                pub fn swap(&self, v: $prim, ord: Ordering) -> $prim {
                    self.core.swap(v as u64, ord) as $prim
                }

                /// Shimmed `compare_exchange`.
                pub fn compare_exchange(
                    &self,
                    current: $prim,
                    new: $prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$prim, $prim> {
                    self.core
                        .compare_exchange(current as u64, new as u64, success, failure)
                        .map(|v| v as $prim)
                        .map_err(|v| v as $prim)
                }

                /// Shimmed `compare_exchange_weak` (never spuriously
                /// fails in the model — a sound strengthening).
                pub fn compare_exchange_weak(
                    &self,
                    current: $prim,
                    new: $prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$prim, $prim> {
                    self.compare_exchange(current, new, success, failure)
                }

                fetch_op!(
                    fetch_add,
                    $prim,
                    |a: $prim, b: $prim| a.wrapping_add(b),
                    fetch_add
                );
                fetch_op!(
                    fetch_sub,
                    $prim,
                    |a: $prim, b: $prim| a.wrapping_sub(b),
                    fetch_sub
                );
                fetch_op!(fetch_or, $prim, |a: $prim, b: $prim| a | b, fetch_or);
                fetch_op!(fetch_and, $prim, |a: $prim, b: $prim| a & b, fetch_and);
            }

            impl Default for $name {
                fn default() -> Self {
                    Self::new(0)
                }
            }

            impl std::fmt::Debug for $name {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    write!(f, concat!(stringify!($name), "(..)"))
                }
            }
        };
    }

    atomic_int!(
        AtomicU64,
        u64,
        "Dual-mode stand-in for `std::sync::atomic::AtomicU64`."
    );
    atomic_int!(
        AtomicUsize,
        usize,
        "Dual-mode stand-in for `std::sync::atomic::AtomicUsize`."
    );
    atomic_int!(
        AtomicU32,
        u32,
        "Dual-mode stand-in for `std::sync::atomic::AtomicU32`."
    );

    /// Dual-mode stand-in for `std::sync::atomic::AtomicBool`.
    pub struct AtomicBool {
        core: Core,
    }

    impl AtomicBool {
        /// Creates the atomic, registering it with the active model
        /// run if one exists on this thread.
        pub fn new(v: bool) -> Self {
            Self {
                core: Core::new(v as u64),
            }
        }

        /// Shimmed `load`.
        pub fn load(&self, ord: Ordering) -> bool {
            self.core.load(ord) != 0
        }

        /// Shimmed `store`.
        pub fn store(&self, v: bool, ord: Ordering) {
            self.core.store(v as u64, ord)
        }

        /// Shimmed `swap`.
        pub fn swap(&self, v: bool, ord: Ordering) -> bool {
            self.core.swap(v as u64, ord) != 0
        }

        /// Shimmed `compare_exchange`.
        pub fn compare_exchange(
            &self,
            current: bool,
            new: bool,
            success: Ordering,
            failure: Ordering,
        ) -> Result<bool, bool> {
            self.core
                .compare_exchange(current as u64, new as u64, success, failure)
                .map(|v| v != 0)
                .map_err(|v| v != 0)
        }
    }

    impl Default for AtomicBool {
        fn default() -> Self {
            Self::new(false)
        }
    }

    impl std::fmt::Debug for AtomicBool {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "AtomicBool(..)")
        }
    }
}

pub use lock::{Guard, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Shimmed `Mutex` and `RwLock`, dual-mode like the atomics.
///
/// The data lives in a real `std` lock. Created inside a model run, a
/// lock also gets a tracked lock word that says who holds it: taking
/// the lock is a compare-exchange on the word, retried after
/// [`crate::hint::spin_loop`] while it is held, and dropping the guard
/// gives the claim back with a `fetch_sub`. A thread touches the std
/// lock only while its claim is on the word, so no two threads ever
/// contend for it and nobody blocks outside a shimmed op; a claim that
/// finds the std lock taken anyway (a broken word protocol) fails the
/// run instead of blocking it. Created outside a model, a lock has no
/// word and is std's alone.
mod lock {
    use super::atomic::{AtomicU64, Ordering};
    use crate::exec::current;
    use std::ops::{Deref, DerefMut};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{LockResult, PoisonError, TryLockError, TryLockResult};

    /// The word's value while a writer (or a mutex holder) has it; a
    /// reader count is any value below.
    const EXCLUSIVE: u64 = u64::MAX;

    /// One claim on a lock word, given back on drop.
    struct Held<'a>(Option<(&'a AtomicU64, u64)>);

    impl<'a> Held<'a> {
        /// Claims the word: `EXCLUSIVE` from 0, or one more reader
        /// while no writer holds it. Both this and the release are
        /// `AcqRel`: the model keeps no release sequences, so every
        /// claim carries on the clocks of the ones it overwrites.
        fn take(word: Option<&'a AtomicU64>, shared: bool) -> Self {
            let Some(word) = word else {
                return Held(None);
            };
            let units = if shared { 1 } else { EXCLUSIVE };
            let mut expect = 0;
            loop {
                let next = if shared { expect + 1 } else { EXCLUSIVE };
                match word.compare_exchange(expect, next, Ordering::AcqRel, Ordering::Acquire) {
                    Ok(_) => return Held(Some((word, units))),
                    Err(now) if shared && now != EXCLUSIVE => expect = now,
                    Err(_) => {
                        expect = 0;
                        crate::hint::spin_loop();
                    }
                }
            }
        }

        /// Takes the std lock under this claim: blocking outside a
        /// model; inside one the claim has made it free.
        fn guard<G>(
            self,
            block: impl FnOnce() -> LockResult<G>,
            try_lock: impl FnOnce() -> TryLockResult<G>,
        ) -> LockResult<Guard<'a, G>> {
            let taken = match self.0 {
                None => block(),
                Some(_) => try_lock().map_err(|e| match e {
                    TryLockError::Poisoned(p) => p,
                    TryLockError::WouldBlock => panic!("lock shim: two threads hold one lock"),
                }),
            };
            match taken {
                Ok(guard) => Ok(Guard { guard, _held: self }),
                Err(p) => Err(PoisonError::new(Guard {
                    guard: p.into_inner(),
                    _held: self,
                })),
            }
        }
    }

    impl Drop for Held<'_> {
        fn drop(&mut self) {
            let Some((word, units)) = self.0 else {
                return;
            };
            let release = || word.fetch_sub(units, Ordering::AcqRel);
            if std::thread::panicking() {
                // Once a run has failed, every shimmed op unwinds its
                // thread, this release included, and a second panic
                // escaping a destructor would abort the process.
                let _ = catch_unwind(AssertUnwindSafe(release));
            } else {
                release();
            }
        }
    }

    /// A std lock guard with the claim it was taken under. The claim
    /// is declared second, so it drops second: the next holder reaches
    /// the std lock only once this one left it.
    pub struct Guard<'a, G> {
        guard: G,
        _held: Held<'a>,
    }

    impl<G: Deref> Deref for Guard<'_, G> {
        type Target = G::Target;
        fn deref(&self) -> &G::Target {
            &self.guard
        }
    }

    impl<G: DerefMut> DerefMut for Guard<'_, G> {
        fn deref_mut(&mut self) -> &mut G::Target {
            &mut self.guard
        }
    }

    /// Guard of a shimmed `Mutex::lock`.
    pub type MutexGuard<'a, T> = Guard<'a, std::sync::MutexGuard<'a, T>>;
    /// Guard of a shimmed `RwLock::read`.
    pub type RwLockReadGuard<'a, T> = Guard<'a, std::sync::RwLockReadGuard<'a, T>>;
    /// Guard of a shimmed `RwLock::write`.
    pub type RwLockWriteGuard<'a, T> = Guard<'a, std::sync::RwLockWriteGuard<'a, T>>;

    /// Dual-mode stand-in for `std::sync::Mutex`.
    pub struct Mutex<T> {
        word: Option<AtomicU64>,
        data: std::sync::Mutex<T>,
    }

    impl<T> Mutex<T> {
        /// Creates the mutex, with a lock word if a model run is
        /// active on this thread.
        pub fn new(value: T) -> Self {
            Mutex {
                word: current::get().map(|_| AtomicU64::new(0)),
                data: std::sync::Mutex::new(value),
            }
        }

        /// Shimmed `lock`.
        pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
            let held = Held::take(self.word.as_ref(), false);
            held.guard(|| self.data.lock(), || self.data.try_lock())
        }
    }

    /// Dual-mode stand-in for `std::sync::RwLock`.
    pub struct RwLock<T> {
        word: Option<AtomicU64>,
        data: std::sync::RwLock<T>,
    }

    impl<T> RwLock<T> {
        /// Creates the lock, with a lock word if a model run is active
        /// on this thread.
        pub fn new(value: T) -> Self {
            RwLock {
                word: current::get().map(|_| AtomicU64::new(0)),
                data: std::sync::RwLock::new(value),
            }
        }

        /// Shimmed `read`.
        pub fn read(&self) -> LockResult<RwLockReadGuard<'_, T>> {
            let held = Held::take(self.word.as_ref(), true);
            held.guard(|| self.data.read(), || self.data.try_read())
        }

        /// Shimmed `write`.
        pub fn write(&self) -> LockResult<RwLockWriteGuard<'_, T>> {
            let held = Held::take(self.word.as_ref(), false);
            held.guard(|| self.data.write(), || self.data.try_write())
        }
    }
}
