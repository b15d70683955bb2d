//! Minimal `parking_lot`-shaped wrapper over `std::sync::Mutex`.
//!
//! The engine only needs `lock()` without a poison `Result`. Poisoned locks
//! are unrecoverable here — a panicking rank already poisons the engine
//! through `Shared::poison` — so lock poisoning is deliberately ignored.

pub(crate) use std::sync::MutexGuard;

/// Mutex whose `lock()` returns the guard directly, ignoring poison.
#[derive(Debug, Default)]
pub(crate) struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}
