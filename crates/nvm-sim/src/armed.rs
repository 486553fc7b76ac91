//! Countdown logic for armed crashes.
//!
//! The crash harness can arm a crash that fires after N further persistence
//! events *without the operation's cooperation* ([`CrashTrigger`]). The
//! backend supplies the actual crash in the `fire` callback.

use std::sync::atomic::{AtomicI64, AtomicU8, Ordering};

/// What kind of persistence events an armed crash counts down on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashTrigger {
    /// Crash after `n` further store instructions (any thread).
    AfterStores(u64),
    /// Crash after `n` further flush instructions (any thread).
    AfterFlushes(u64),
    /// Crash after `n` further fence instructions (any thread).
    AfterFences(u64),
    /// Crash after `n` further persistence events of any kind (store, flush or
    /// fence, any thread).
    AfterEvents(u64),
}

/// The event class an armed countdown ticks on.
#[derive(Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum ArmedKind {
    Stores = 1,
    Flushes,
    Fences,
    Events,
}

/// `ArmedCrash::kind` when nothing is armed.
const UNARMED: u8 = 0;

/// Countdown state for one armed crash; negative countdown means "not armed".
pub(crate) struct ArmedCrash {
    countdown: AtomicI64,
    /// The armed [`ArmedKind`] as its discriminant, or [`UNARMED`]: an unarmed
    /// tick is this one load.
    kind: AtomicU8,
}

impl ArmedCrash {
    pub fn new() -> Self {
        ArmedCrash {
            countdown: AtomicI64::new(-1),
            kind: AtomicU8::new(UNARMED),
        }
    }

    /// Arms the countdown for `trigger`.
    pub fn arm(&self, trigger: CrashTrigger) {
        let (kind, n) = match trigger {
            CrashTrigger::AfterStores(n) => (ArmedKind::Stores, n),
            CrashTrigger::AfterFlushes(n) => (ArmedKind::Flushes, n),
            CrashTrigger::AfterFences(n) => (ArmedKind::Fences, n),
            CrashTrigger::AfterEvents(n) => (ArmedKind::Events, n),
        };
        self.kind.store(kind as u8, Ordering::SeqCst);
        self.countdown.store(n as i64, Ordering::SeqCst);
    }

    /// Disarms the countdown (no-op if not armed).
    pub fn disarm(&self) {
        self.kind.store(UNARMED, Ordering::SeqCst);
        self.countdown.store(-1, Ordering::SeqCst);
    }

    /// Records one event of class `kind`; calls `fire` exactly once when the
    /// countdown reaches zero on a matching event.
    pub fn tick(&self, kind: ArmedKind, fire: impl FnOnce()) {
        let want = self.kind.load(Ordering::SeqCst);
        if want == UNARMED || (want != ArmedKind::Events as u8 && want != kind as u8) {
            return;
        }
        // Only one thread sees the countdown step from 1 to 0.
        let prev = self.countdown.fetch_sub(1, Ordering::SeqCst);
        if prev == 1 {
            // This event was the trigger.
            self.kind.store(UNARMED, Ordering::SeqCst);
            fire();
        }
    }
}
