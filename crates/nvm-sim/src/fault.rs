//! Unified, seedable fault injection for every backend.
//!
//! A [`FaultPlan`] is a scriptable schedule of IO faults that the simulator,
//! private pool files and the shared-device group-commit executor
//! ([`crate::PersistDevice`]) all honor at the same two decision points:
//!
//! * **pwrite events** — one per fence-level batch write (a drain of pending
//!   lines towards the durable store), where the plan may inject an EIO or a
//!   *torn write* (a prefix of the pending lines is persisted, then the write
//!   fails);
//! * **fsync events** — one per durability barrier, where the plan may inject
//!   an EIO or a latency spike.
//!
//! Faults come in two failure modes:
//!
//! * **permanent** (the default for the legacy `inject_*_errors` hooks): the
//!   first injected error poisons the backend, and every later fence fails
//!   fast with the original cause — modelling a dead device;
//! * **transient**: the affected fences fail with a typed error but the
//!   backend is *not* poisoned — subsequent IO succeeds, modelling a device
//!   that hiccuped and recovered. Callers own exactly-once semantics via
//!   resolve + replay, so a failed-then-retried fence never double-applies.
//!
//! The plan replaces the previous scattering of one-off mechanisms (the
//! test-only injected-EIO counters and the raw [`crate::DEVICE_ABORT_ENV`]
//! parsing); the `ONLL_DEVICE_ABORT` environment variable survives as a thin
//! shim that arms a process abort on the same plan (see
//! [`FaultPlan::arm_abort_from_env`]). Simulated-crash countdowns
//! ([`crate::CrashTrigger`]) stay per-backend — arming a crash on one shard
//! must not crash its siblings.
//!
//! Every injected fault increments the `fault.injected` telemetry counter (and
//! an always-on internal total, see [`FaultPlan::injected`]), so chaos runs
//! can assert that a schedule actually fired.

use crate::error::NvmError;
use onll_telemetry::{Counter, Telemetry};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Marker embedded in transient injected errors so deep callees (the backend's
/// fence path, the device's batch leader) can tell a
/// recoverable injection from a poisoning one without threading a flag through
/// every IO helper.
const TRANSIENT_MARKER: &str = "injected transient";

/// The kind of fault a [`FaultRule`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail a pwrite event with a synthetic EIO (nothing of it is written).
    PwriteError,
    /// Fail an fsync event with a synthetic EIO.
    FsyncError,
    /// Persist a seed-deterministic *prefix* of the event's pending lines,
    /// then fail — a torn write. Always transient: torn bytes model a device
    /// hiccup whose garbage the recovery path must reject, not a dead device.
    TornWrite,
    /// Stall the fsync by the given duration before letting it proceed — a
    /// latency spike, not an error.
    FsyncDelay(Duration),
}

/// One scheduled fault: `kind` strikes the `after`-th matching IO event
/// (1-based) and the `count - 1` events after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRule {
    /// What to inject.
    pub kind: FaultKind,
    /// 1-based ordinal of the first matching event this rule affects. Events
    /// are counted from the moment the plan holds any rule.
    pub after: u64,
    /// How many consecutive matching events are affected.
    pub count: u64,
    /// Transient faults do not poison the backend (it recovers); permanent
    /// ones poison it on first strike. Ignored for [`FaultKind::TornWrite`]
    /// (always transient) and [`FaultKind::FsyncDelay`] (never an error).
    pub transient: bool,
}

impl FaultRule {
    /// A permanent EIO on the `after`-th pwrite event.
    pub fn pwrite_eio(after: u64) -> FaultRule {
        FaultRule {
            kind: FaultKind::PwriteError,
            after: after.max(1),
            count: 1,
            transient: false,
        }
    }

    /// A permanent EIO on the `after`-th fsync event.
    pub fn fsync_eio(after: u64) -> FaultRule {
        FaultRule {
            kind: FaultKind::FsyncError,
            after: after.max(1),
            count: 1,
            transient: false,
        }
    }

    /// A torn write on the `after`-th pwrite event (transient by definition).
    pub fn torn_write(after: u64) -> FaultRule {
        FaultRule {
            kind: FaultKind::TornWrite,
            after: after.max(1),
            count: 1,
            transient: true,
        }
    }

    /// An fsync latency spike of `delay` on the `after`-th fsync event.
    pub fn fsync_delay(after: u64, delay: Duration) -> FaultRule {
        FaultRule {
            kind: FaultKind::FsyncDelay(delay),
            after: after.max(1),
            count: 1,
            transient: true,
        }
    }

    /// Affect `count` consecutive matching events instead of one.
    pub fn times(mut self, count: u64) -> FaultRule {
        self.count = count.max(1);
        self
    }

    /// Mark the rule transient: the error surfaces but the backend recovers.
    pub fn transient(mut self) -> FaultRule {
        self.transient = true;
        self
    }

    fn matches_pwrite(&self) -> bool {
        matches!(self.kind, FaultKind::PwriteError | FaultKind::TornWrite)
    }

    fn matches_fsync(&self) -> bool {
        matches!(self.kind, FaultKind::FsyncError | FaultKind::FsyncDelay(_))
    }

    fn strikes(&self, event: u64) -> bool {
        event >= self.after && event - self.after < self.count
    }
}

/// Decision for one pwrite event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PwriteFault {
    /// Proceed normally.
    None,
    /// Fail without writing anything.
    Error {
        /// Do not poison the backend if set.
        transient: bool,
    },
    /// Write the first `keep` lines, then fail (transient).
    Torn {
        /// Number of leading (index-sorted) lines to persist before failing.
        keep: usize,
    },
}

/// Decision for one fsync event (any latency spike has already been charged
/// by the time this is returned).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FsyncFault {
    /// Proceed normally.
    None,
    /// Fail without syncing.
    Error {
        /// Do not poison the backend if set.
        transient: bool,
    },
}

/// Where in a fence's pwrite→fsync window an armed process abort fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AbortPoint {
    /// After the batch's pwrites, before the fsync: no rider's bytes are
    /// durable yet, so no rider may have been acked.
    AfterPwrites,
    /// After the fsync, before any rider wakes: bytes are durable but no
    /// acknowledgment was produced (durable > acked is the legal direction).
    AfterFsync,
}

struct ArmedAbort {
    point: AbortPoint,
    /// Remaining batches before the abort fires (1 = fire on the next batch).
    countdown: AtomicU64,
}

struct PlanInner {
    /// Fast-path gate: false until the first rule is installed, so fault-free
    /// runs pay one relaxed load per IO event and nothing else.
    active: AtomicBool,
    rules: Mutex<Vec<FaultRule>>,
    pwrites: AtomicU64,
    fsyncs: AtomicU64,
    /// xorshift64* state for torn-write prefix lengths.
    torn_rng: AtomicU64,
    injected: AtomicU64,
    counter: Mutex<Option<Counter>>,
    abort_armed: AtomicBool,
    abort: Mutex<Option<ArmedAbort>>,
}

/// A seedable, scriptable schedule of IO faults shared by every backend built
/// from one [`crate::PmemConfig`] (see the module docs). Clones share state:
/// [`crate::PmemConfig::partition`] hands every shard the same plan, so event
/// ordinals count process-wide IO, not per-shard IO.
#[derive(Clone)]
pub struct FaultPlan {
    inner: Arc<PlanInner>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::seeded(0)
    }
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("rules", &self.inner.rules.lock().unwrap().len())
            .field("pwrites", &self.inner.pwrites.load(Ordering::Relaxed))
            .field("fsyncs", &self.inner.fsyncs.load(Ordering::Relaxed))
            .field("injected", &self.injected())
            .finish()
    }
}

impl FaultPlan {
    /// An empty plan (injects nothing) with torn-write seed 0.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// An empty plan whose torn-write prefix lengths derive from `seed`.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            inner: Arc::new(PlanInner {
                active: AtomicBool::new(false),
                rules: Mutex::new(Vec::new()),
                pwrites: AtomicU64::new(0),
                fsyncs: AtomicU64::new(0),
                // xorshift64* needs a non-zero state.
                torn_rng: AtomicU64::new(seed | 1),
                injected: AtomicU64::new(0),
                counter: Mutex::new(None),
                abort_armed: AtomicBool::new(false),
                abort: Mutex::new(None),
            }),
        }
    }

    /// Installs `rule`, returning the plan for chaining.
    pub fn rule(self, rule: FaultRule) -> FaultPlan {
        self.add_rule(rule);
        self
    }

    /// Installs `rule` on a plan already handed to backends.
    pub fn add_rule(&self, rule: FaultRule) {
        self.inner.rules.lock().unwrap().push(rule);
        self.inner.active.store(true, Ordering::SeqCst);
    }

    /// Legacy hook: permanent EIO on the next `n` pwrite events.
    pub fn fail_next_pwrites(&self, n: u64) {
        let next = self.inner.pwrites.load(Ordering::SeqCst) + 1;
        self.add_rule(FaultRule::pwrite_eio(next).times(n));
    }

    /// Legacy hook: permanent EIO on the next `n` fsync events.
    pub fn fail_next_fsyncs(&self, n: u64) {
        let next = self.inner.fsyncs.load(Ordering::SeqCst) + 1;
        self.add_rule(FaultRule::fsync_eio(next).times(n));
    }

    /// Transient EIO on the next `n` pwrite events (the backend recovers:
    /// nothing is poisoned, a retry after the window succeeds). Relative
    /// arming — `n` counts from the plan's current pwrite ordinal, so setup
    /// IO already performed does not shift the target.
    pub fn fail_next_pwrites_transient(&self, n: u64) {
        let next = self.inner.pwrites.load(Ordering::SeqCst) + 1;
        self.add_rule(FaultRule::pwrite_eio(next).times(n).transient());
    }

    /// Transient EIO on the next `n` fsync events (see
    /// [`FaultPlan::fail_next_pwrites_transient`]).
    pub fn fail_next_fsyncs_transient(&self, n: u64) {
        let next = self.inner.fsyncs.load(Ordering::SeqCst) + 1;
        self.add_rule(FaultRule::fsync_eio(next).times(n).transient());
    }

    /// Total faults injected so far (errors, torn writes and delays).
    pub fn injected(&self) -> u64 {
        self.inner.injected.load(Ordering::SeqCst)
    }

    /// True once any rule is installed (fault-free runs stay on the fast
    /// path: one relaxed load per IO event).
    pub fn is_armed(&self) -> bool {
        self.inner.active.load(Ordering::Relaxed)
    }

    /// Parses a comma-separated fault spec — the cross-process installation
    /// path (e.g. an `onll_server --fault-spec` flag). Directives:
    ///
    /// * `seed=S` — torn-write prefix seed;
    /// * `pwrite-eio@N[*K]` / `fsync-eio@N[*K]` — permanent EIO on events
    ///   `N..N+K` (default `K` = 1); poisons the backend;
    /// * `transient-pwrite-eio@N[*K]` / `transient-fsync-eio@N[*K]` — same
    ///   injection, but the backend recovers afterwards;
    /// * `torn@N[*K]` — torn write (always transient);
    /// * `fsync-delay@N[*K]=MICROS` — fsync latency spike.
    ///
    /// Example: `seed=7,torn@3,transient-fsync-eio@10*2,fsync-delay@1*5=800`.
    pub fn parse_spec(spec: &str) -> Result<FaultPlan, String> {
        let mut seed = 0u64;
        let mut rules = Vec::new();
        for raw in spec.split(',') {
            let part = raw.trim();
            if part.is_empty() {
                continue;
            }
            if let Some(s) = part.strip_prefix("seed=") {
                seed = s.parse().map_err(|_| format!("bad seed in '{part}'"))?;
                continue;
            }
            let (head, tail) = part
                .split_once('@')
                .ok_or_else(|| format!("missing '@' in fault directive '{part}'"))?;
            let (positions, delay_micros) = match tail.split_once('=') {
                Some((pos, micros)) => (
                    pos,
                    Some(
                        micros
                            .parse::<u64>()
                            .map_err(|_| format!("bad delay in '{part}'"))?,
                    ),
                ),
                None => (tail, None),
            };
            let (after, count) = match positions.split_once('*') {
                Some((a, k)) => (
                    a.parse::<u64>()
                        .map_err(|_| format!("bad event ordinal in '{part}'"))?,
                    k.parse::<u64>()
                        .map_err(|_| format!("bad event count in '{part}'"))?,
                ),
                None => (
                    positions
                        .parse::<u64>()
                        .map_err(|_| format!("bad event ordinal in '{part}'"))?,
                    1,
                ),
            };
            let rule = match head {
                "pwrite-eio" => FaultRule::pwrite_eio(after),
                "fsync-eio" => FaultRule::fsync_eio(after),
                "transient-pwrite-eio" => FaultRule::pwrite_eio(after).transient(),
                "transient-fsync-eio" => FaultRule::fsync_eio(after).transient(),
                "torn" => FaultRule::torn_write(after),
                "fsync-delay" => {
                    let micros =
                        delay_micros.ok_or_else(|| format!("missing '=MICROS' in '{part}'"))?;
                    FaultRule::fsync_delay(after, Duration::from_micros(micros))
                }
                other => return Err(format!("unknown fault kind '{other}'")),
            };
            if head != "fsync-delay" && delay_micros.is_some() {
                return Err(format!("'=MICROS' only applies to fsync-delay: '{part}'"));
            }
            rules.push(rule.times(count));
        }
        let plan = FaultPlan::seeded(seed);
        for rule in rules {
            plan.add_rule(rule);
        }
        Ok(plan)
    }

    /// Binds the `fault.injected` telemetry counter. Called by backends at
    /// construction; all clones of the plan share the binding.
    pub(crate) fn bind_telemetry(&self, telemetry: &Telemetry) {
        let mut slot = self.inner.counter.lock().unwrap();
        if slot.is_none() {
            *slot = Some(telemetry.counter("fault.injected"));
        }
    }

    fn record_injection(&self) {
        self.inner.injected.fetch_add(1, Ordering::SeqCst);
        if let Some(counter) = &*self.inner.counter.lock().unwrap() {
            counter.incr();
        }
    }

    fn next_torn(&self) -> u64 {
        // xorshift64*: deterministic from the seed, lock-free.
        let mut x = self.inner.torn_rng.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.inner.torn_rng.store(x, Ordering::Relaxed);
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Consults the plan for one pwrite event covering `total_lines` pending
    /// lines. Error rules outrank torn-write rules when both strike.
    pub(crate) fn on_pwrite(&self, total_lines: usize) -> PwriteFault {
        if !self.is_armed() {
            return PwriteFault::None;
        }
        let event = self.inner.pwrites.fetch_add(1, Ordering::SeqCst) + 1;
        let mut torn = false;
        {
            let rules = self.inner.rules.lock().unwrap();
            for rule in rules.iter().filter(|r| r.matches_pwrite()) {
                if !rule.strikes(event) {
                    continue;
                }
                match rule.kind {
                    FaultKind::PwriteError => {
                        self.record_injection();
                        return PwriteFault::Error {
                            transient: rule.transient,
                        };
                    }
                    FaultKind::TornWrite => torn = true,
                    _ => unreachable!(),
                }
            }
        }
        if torn {
            self.record_injection();
            // Strictly fewer lines than pending: a torn write that persisted
            // everything would not be torn.
            let keep = if total_lines <= 1 {
                0
            } else {
                (self.next_torn() % total_lines as u64) as usize
            };
            return PwriteFault::Torn { keep };
        }
        PwriteFault::None
    }

    /// Consults the plan for one fsync event, charging any matching latency
    /// spike inline before returning the error decision.
    pub(crate) fn on_fsync(&self) -> FsyncFault {
        if !self.is_armed() {
            return FsyncFault::None;
        }
        let event = self.inner.fsyncs.fetch_add(1, Ordering::SeqCst) + 1;
        let mut delay = Duration::ZERO;
        let mut error: Option<bool> = None;
        {
            let rules = self.inner.rules.lock().unwrap();
            for rule in rules.iter().filter(|r| r.matches_fsync()) {
                if !rule.strikes(event) {
                    continue;
                }
                match rule.kind {
                    FaultKind::FsyncDelay(d) => delay = delay.max(d),
                    FaultKind::FsyncError => {
                        error.get_or_insert(rule.transient);
                    }
                    _ => unreachable!(),
                }
            }
        }
        if !delay.is_zero() {
            self.record_injection();
            std::thread::sleep(delay);
        }
        if let Some(transient) = error {
            self.record_injection();
            return FsyncFault::Error { transient };
        }
        FsyncFault::None
    }

    /// The `ONLL_DEVICE_ABORT` shim: parses `after-pwrites:<n>` /
    /// `after-fsync:<n>` from the environment and arms a process abort on the
    /// matching batch. First arm wins across clones (the countdown is
    /// process-wide when shards share a plan). No-op when the variable is
    /// unset or malformed, matching the historical behavior.
    pub(crate) fn arm_abort_from_env(&self) {
        if self.inner.abort_armed.load(Ordering::SeqCst) {
            return;
        }
        let Ok(spec) = std::env::var(crate::device::DEVICE_ABORT_ENV) else {
            return;
        };
        let Some((point, n)) = spec.split_once(':') else {
            return;
        };
        let point = match point {
            "after-pwrites" => AbortPoint::AfterPwrites,
            "after-fsync" => AbortPoint::AfterFsync,
            _ => return,
        };
        let Ok(n) = n.parse::<u64>() else { return };
        let mut slot = self.inner.abort.lock().unwrap();
        if slot.is_none() {
            *slot = Some(ArmedAbort {
                point,
                countdown: AtomicU64::new(n.max(1)),
            });
            self.inner.abort_armed.store(true, Ordering::SeqCst);
        }
    }

    /// Called at `point` once per fence batch; kills the process when the
    /// armed batch is reached. `abort` (not `exit`) so no atexit flushing
    /// runs — the closest in-process analogue of SIGKILL.
    pub(crate) fn abort_tick(&self, point: AbortPoint) {
        if !self.inner.abort_armed.load(Ordering::Relaxed) {
            return;
        }
        let slot = self.inner.abort.lock().unwrap();
        if let Some(abort) = &*slot {
            if abort.point == point && abort.countdown.fetch_sub(1, Ordering::SeqCst) == 1 {
                std::process::abort();
            }
        }
    }
}

/// A synthetic injected EIO as an [`NvmError`], marked transient or not.
pub(crate) fn injected_error(path: &Path, transient: bool) -> NvmError {
    NvmError::Io {
        path: path.display().to_string(),
        message: if transient {
            format!("{TRANSIENT_MARKER} EIO")
        } else {
            "injected EIO".to_string()
        },
    }
}

/// A synthetic torn-write error (always transient).
pub(crate) fn torn_error(path: &Path, kept: usize, total: usize) -> NvmError {
    NvmError::Io {
        path: path.display().to_string(),
        message: format!("{TRANSIENT_MARKER} torn write ({kept}/{total} lines persisted)"),
    }
}

/// True for errors injected in transient mode: the backend surfaces them
/// without poisoning itself, so the caller may retry the failed fence.
/// Callers building retry loops over a fault-injected backend use this to
/// separate retryable injected errors from permanent ones.
pub fn error_is_transient(e: &NvmError) -> bool {
    matches!(e, NvmError::Io { message, .. } if message.contains(TRANSIENT_MARKER))
}

/// [`error_is_transient`] for layers that only hold the error's rendered
/// message (e.g. a server mapping stringified backend errors to wire replies).
pub fn message_is_transient(message: &str) -> bool {
    message.contains(TRANSIENT_MARKER)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_strikes() {
        let plan = FaultPlan::new();
        assert!(!plan.is_armed());
        for _ in 0..100 {
            assert_eq!(plan.on_pwrite(4), PwriteFault::None);
            assert_eq!(plan.on_fsync(), FsyncFault::None);
        }
        assert_eq!(plan.injected(), 0);
    }

    #[test]
    fn rules_strike_on_their_event_window() {
        let plan = FaultPlan::new().rule(FaultRule::pwrite_eio(2).times(2).transient());
        assert_eq!(plan.on_pwrite(1), PwriteFault::None);
        assert_eq!(plan.on_pwrite(1), PwriteFault::Error { transient: true });
        assert_eq!(plan.on_pwrite(1), PwriteFault::Error { transient: true });
        assert_eq!(plan.on_pwrite(1), PwriteFault::None);
        assert_eq!(plan.injected(), 2);
    }

    #[test]
    fn torn_prefix_is_seed_deterministic_and_strict() {
        let lens: Vec<Vec<usize>> = (0..2)
            .map(|_| {
                let plan = FaultPlan::seeded(42).rule(FaultRule::torn_write(1).times(8));
                (0..8)
                    .map(|_| match plan.on_pwrite(10) {
                        PwriteFault::Torn { keep } => keep,
                        other => panic!("expected torn, got {other:?}"),
                    })
                    .collect()
            })
            .collect();
        assert_eq!(lens[0], lens[1], "torn prefixes replay from the seed");
        assert!(lens[0].iter().all(|&k| k < 10), "never persists every line");
    }

    #[test]
    fn legacy_hooks_fail_the_next_events() {
        let plan = FaultPlan::new();
        assert_eq!(plan.on_fsync(), FsyncFault::None);
        plan.fail_next_fsyncs(1);
        assert_eq!(plan.on_fsync(), FsyncFault::Error { transient: false });
        assert_eq!(plan.on_fsync(), FsyncFault::None);
    }

    #[test]
    fn spec_round_trip() {
        let plan =
            FaultPlan::parse_spec("seed=9, torn@3, transient-fsync-eio@2*2, fsync-delay@1=50")
                .unwrap();
        assert!(plan.is_armed());
        // fsync 1: delay only; fsync 2 and 3: transient EIO; fsync 4: clean.
        assert_eq!(plan.on_fsync(), FsyncFault::None);
        assert_eq!(plan.on_fsync(), FsyncFault::Error { transient: true });
        assert_eq!(plan.on_fsync(), FsyncFault::Error { transient: true });
        assert_eq!(plan.on_fsync(), FsyncFault::None);
        // pwrites 1-2 clean, 3 torn.
        assert_eq!(plan.on_pwrite(4), PwriteFault::None);
        assert_eq!(plan.on_pwrite(4), PwriteFault::None);
        assert!(matches!(plan.on_pwrite(4), PwriteFault::Torn { .. }));
        assert_eq!(plan.injected(), 4);
    }

    #[test]
    fn spec_rejects_malformed_directives() {
        for bad in [
            "eio",
            "pwrite-eio@x",
            "torn@1*y",
            "fsync-delay@1",
            "torn@1=5",
            "unknown@1",
            "seed=abc",
        ] {
            assert!(FaultPlan::parse_spec(bad).is_err(), "{bad} should fail");
        }
        assert!(FaultPlan::parse_spec("").unwrap().injected() == 0);
    }

    #[test]
    fn injected_errors_classify_transience() {
        let p = Path::new("x");
        assert!(error_is_transient(&injected_error(p, true)));
        assert!(!error_is_transient(&injected_error(p, false)));
        assert!(error_is_transient(&torn_error(p, 1, 3)));
    }
}
