//! Host-side measurement: the fingerprint stamped on every result, the
//! process's memory high-water mark and page faults, and a counting
//! allocator for bytes allocated by one call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A [`GlobalAlloc`] that forwards to the system allocator and, inside
/// [`count_allocations`] only, counts the bytes it hands out. Elsewhere
/// an allocation pays one relaxed load and a branch.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

/// Adds `bytes` to the count when counting is on. The benchmark is
/// single-threaded and the count is a statistic, so a relaxed load and
/// store (no locked read-modify-write) suffice.
fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        let n = ALLOCATED.load(Ordering::Relaxed);
        ALLOCATED.store(n + bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter update has
// no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: forwarded unchanged; `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` with allocation counting on; returns its result and the
/// bytes it allocated (growth by `realloc` included, frees ignored).
pub fn count_allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATED.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let r = f();
    COUNTING.store(false, Ordering::Relaxed);
    (r, ALLOCATED.load(Ordering::Relaxed) - before)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("hostbench reads getrusage(2) with the 64-bit Linux layout");

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Memory high-water mark (KiB) and minor page faults of this process.
pub fn rusage() -> (u64, u64) {
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        longs: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value with the kernel's
    // 64-bit Linux `struct rusage` layout, and RUSAGE_SELF is valid.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    // ru_maxrss is the first long, ru_minflt the fifth.
    (usage.longs[0] as u64, usage.longs[4] as u64)
}

/// Peak resident memory of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    rusage().0 as f64 * 1024.0 / 1e6
}

/// Minor page faults of this process so far.
pub fn minor_faults() -> u64 {
    rusage().1
}

/// What a result was measured on. Two results are comparable only when
/// their fingerprints are equal.
pub struct Fingerprint {
    pub cores: usize,
    pub cpu: String,
    pub rustc: &'static str,
    pub git: String,
}

impl Fingerprint {
    pub fn capture() -> Self {
        Fingerprint {
            cores: std::thread::available_parallelism().map_or(1, usize::from),
            cpu: cpu_model(),
            rustc: env!("HOSTBENCH_RUSTC"),
            git: howsim::manifest::git_revision(),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"cores\": {}, \"cpu\": {}, \"rustc\": {}, \"git\": {}}}",
            self.cores,
            json_str(&self.cpu),
            json_str(self.rustc),
            json_str(&self.git)
        )
    }
}

/// A JSON string literal (the fingerprint's strings are plain text; quotes,
/// backslashes and control characters are escaped).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // The brand string lives in extended leaves 0x8000_0002..=0x8000_0004.
    if __cpuid(0x8000_0000).eax < 0x8000_0004 {
        return "unknown".to_string();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for word in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    let brand = String::from_utf8_lossy(&bytes);
    brand.trim_matches(char::from(0)).trim().to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".to_string()
}
