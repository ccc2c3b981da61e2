//! Poison-free `Mutex`/`RwLock` wrappers over `std::sync`.
//!
//! The simulator and the apps never rely on poisoning for correctness — a
//! panicked worker already aborts the run — so these wrappers recover the
//! inner guard on poison instead of returning a `Result`. That keeps lock
//! call sites infallible (no `unwrap()` in library code, per the
//! `no-panic-in-lib` lint) while staying on `std` only. The guards are
//! `std`'s own, so a [`std::sync::Condvar`] waits on a [`MutexGuard`]
//! directly (recovering its poison the same way).

pub use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// A mutual-exclusion lock whose `lock()` never fails.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// A readers-writer lock whose `read()`/`write()` never fail.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_roundtrip() {
        let l = RwLock::new(vec![1u8]);
        l.write().push(2);
        assert_eq!(l.read().len(), 2);
    }

    #[test]
    fn poisoned_mutex_recovers() {
        let m = std::sync::Arc::new(Mutex::new(41u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison it");
        })
        .join();
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
    }
}
