//! Host-speed sampler for the end-to-end run.
//!
//! The host is shared: other tenants' load slows this process by up to 2×,
//! in bursts that flip within a second, and a pass's time follows. While
//! the sampler runs, a real-time interval timer interrupts the process
//! every [`PERIOD_US`] and the signal handler times a fixed probe that
//! shares no code with the simulator but has the same two parts as its
//! event loop: register-only integer work, which a lower core clock slows,
//! and random read-modify-writes over a 2 MiB table, which contention for
//! the caches and memory slows. The host shows both. A pass's
//! host seconds, scaled by the mean of [`REFERENCE_NS`] / probe time over
//! the probes taken while it ran, estimate its time on a host running at
//! the reference speed.
//!
//! The handler only touches atomics in statics (no allocation, no locks)
//! and reads the monotonic clock, all of which are async-signal-safe. Its
//! own time is counted so that callers can take it out of their timings.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Probe time at the reference host speed: the probe's median on the
/// 2-vCPU Intel Xeon KVM guest the benchmark was written on. It fixes the
/// unit of the scaled times and never changes between commits.
pub const REFERENCE_NS: f64 = 100_000.0;
/// Interval between probes.
const PERIOD_US: i64 = 20_000;
const TABLE_WORDS: usize = 1 << 18;
/// Bytes of the probe's table, all resident while the sampler runs.
pub const TABLE_BYTES: u64 = (TABLE_WORDS * 8) as u64;
const STEPS: u64 = 20_000;
const TOUCHES: usize = 6_000;
const MAX_PROBES: usize = 1 << 14;

static TABLE: [AtomicU64; TABLE_WORDS] = [const { AtomicU64::new(0) }; TABLE_WORDS];
static STATE: AtomicU64 = AtomicU64::new(0x9e37_79b9_7f4a_7c15);
static PROBE_NS: [AtomicU32; MAX_PROBES] = [const { AtomicU32::new(0) }; MAX_PROBES];
static PROBES: AtomicUsize = AtomicUsize::new(0);
static HANDLER_NS: AtomicU64 = AtomicU64::new(0);

// Only the signal handler writes these, and it interrupts the one thread
// that reads them, so `Relaxed` loads and stores suffice (no locked
// read-modify-write in the handler).
extern "C" fn on_alarm(_signal: i32) {
    let start = Instant::now();
    let mut x = STATE.load(Ordering::Relaxed);
    // Compute part: register-only work, slowed by a lower core clock.
    let mut acc = 0u64;
    for i in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x ^ i);
        if x & 7 == 0 {
            acc = acc.rotate_left(3);
        }
    }
    x ^= acc & 1;
    // Memory part: slowed by contention for the caches and memory.
    for _ in 0..TOUCHES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let word = &TABLE[x as usize % TABLE_WORDS];
        word.store(
            word.load(Ordering::Relaxed).wrapping_add(x),
            Ordering::Relaxed,
        );
    }
    STATE.store(x, Ordering::Relaxed);
    let probe_ns = start.elapsed().as_nanos();
    let k = PROBES.load(Ordering::Relaxed);
    if k < MAX_PROBES {
        PROBE_NS[k].store(probe_ns.min(u128::from(u32::MAX)) as u32, Ordering::Relaxed);
        PROBES.store(k + 1, Ordering::Relaxed);
    }
    let total = HANDLER_NS.load(Ordering::Relaxed) + start.elapsed().as_nanos() as u64;
    HANDLER_NS.store(total, Ordering::Relaxed);
}

const SIGALRM: i32 = 14;
const SA_RESTART: i32 = 0x1000_0000;
const ITIMER_REAL: i32 = 0;

/// `struct sigaction` on 64-bit Linux (glibc): handler, 1024-bit mask,
/// flags, restorer.
#[repr(C)]
struct SigAction {
    handler: extern "C" fn(i32),
    mask: [u64; 16],
    flags: i32,
    restorer: usize,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Itimerval {
    interval: Timeval,
    value: Timeval,
}

extern "C" {
    fn sigaction(signal: i32, action: *const SigAction, old: *mut SigAction) -> i32;
    fn setitimer(which: i32, new: *const Itimerval, old: *mut Itimerval) -> i32;
}

fn set_timer(period_us: i64) {
    let t = Itimerval {
        interval: Timeval {
            sec: 0,
            usec: period_us,
        },
        value: Timeval {
            sec: 0,
            usec: period_us,
        },
    };
    // SAFETY: `t` is a valid `struct itimerval` with the 64-bit Linux
    // layout, ITIMER_REAL is a valid timer, and a null old value is allowed.
    let rc = unsafe { setitimer(ITIMER_REAL, &t, std::ptr::null_mut()) };
    assert_eq!(rc, 0, "setitimer(ITIMER_REAL) takes a valid interval");
}

/// Starts probing: makes the table resident, installs the handler with
/// `SA_RESTART` (interrupted system calls resume) and arms the timer.
pub fn start() {
    for word in &TABLE {
        word.store(1, Ordering::Relaxed);
    }
    let action = SigAction {
        handler: on_alarm,
        mask: [0; 16],
        flags: SA_RESTART,
        restorer: 0,
    };
    // SAFETY: `action` has the 64-bit Linux glibc `struct sigaction`
    // layout; its handler is async-signal-safe (see the module doc), and
    // a null old action is allowed.
    let rc = unsafe { sigaction(SIGALRM, &action, std::ptr::null_mut()) };
    assert_eq!(rc, 0, "sigaction(SIGALRM) takes a valid handler");
    set_timer(PERIOD_US);
}

/// Stops the timer. The handler stays installed for a signal already
/// pending.
pub fn stop() {
    set_timer(0);
}

/// Where the sampler stands: probes so far and handler time so far.
#[derive(Clone, Copy)]
pub struct Mark {
    probes: usize,
    handler_ns: u64,
}

pub fn mark() -> Mark {
    Mark {
        probes: PROBES.load(Ordering::Relaxed),
        handler_ns: HANDLER_NS.load(Ordering::Relaxed),
    }
}

/// What the sampler saw over some stretches of time.
#[derive(Clone, Copy, Default)]
pub struct Window {
    /// Seconds the handler took.
    pub handler_s: f64,
    /// Sum over the probes of [`REFERENCE_NS`] / probe time.
    pub speed_sum: f64,
    pub probes: usize,
}

impl Window {
    /// Adds the stretch from `from` to now.
    pub fn add_since(&mut self, from: Mark) {
        let to = mark();
        self.handler_s += (to.handler_ns - from.handler_ns) as f64 / 1e9;
        for slot in &PROBE_NS[from.probes..to.probes] {
            let ns = f64::from(slot.load(Ordering::Relaxed).max(1));
            self.speed_sum += REFERENCE_NS / ns;
            self.probes += 1;
        }
    }

    /// Mean of reference over probe time (below 1 when the host runs
    /// slower than the reference), or `None` without probes.
    pub fn scale(&self) -> Option<f64> {
        (self.probes > 0).then(|| self.speed_sum / self.probes as f64)
    }
}
