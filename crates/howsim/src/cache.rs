//! Content-addressed simulation result cache.
//!
//! Every simulation is a pure function of `(architecture, plan,
//! degraded-disk set, seed, fault plan, recovery policy)`, so its
//! [`Report`] can be memoized. The cache key is that tuple's canonical
//! representation, content-addressed by the same FNV-1a hash the run
//! manifests use ([`crate::manifest::fnv1a64`]); the full key material
//! is stored alongside each entry and verified on lookup, so a hash
//! collision can never return the wrong report.
//!
//! Two tiers:
//!
//! * **In-memory** (always available, on by default): a process-wide
//!   map, so overlapping points across figure sweeps in one
//!   `experiments` invocation simulate once.
//! * **On-disk** (opt-in via [`set_disk_dir`], `--cache` in the
//!   binaries): entries under `results/.simcache/` persist across
//!   invocations. Files are written atomically (temp file + rename) and
//!   carry an FNV-1a checksum over their payload; any unreadable,
//!   truncated, bit-flipped, or colliding entry is treated as a miss.
//!   Wipe the cache by deleting the directory.
//!
//! Because cached reports are bit-identical to fresh ones (exact integer
//! serialization, no floats — see [`crate::codec`])
//! and [`run_plans`] dispatches misses through the deterministic
//! [`crate::sweep`] engine, cache-on and cache-off outputs are
//! byte-identical for any worker count. The event-queue backend is
//! deliberately *not* part of the key: every backend produces identical
//! reports (enforced by test), so they share entries.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use arch::Architecture;
use tasks::{plan_task, TaskKind, TaskPlan};

use crate::codec::{self, read_sealed, write_sealed};
use crate::exec::Simulation;
use crate::faults::{FaultPlan, RecoveryPolicy};
use crate::manifest::fnv1a64;
use crate::mqexec::LoadReport;
use crate::report::Report;
use crate::sweep;
use crate::workload::{AdmissionPolicy, DeadlinePolicy, WorkloadSpec};

/// On-disk entry schema identifier, bumped on breaking layout changes
/// (v2 added the checksum line and the seed/fault-plan key fields; v3
/// added per-resource wait time to the report `res` lines, so v2
/// entries no longer parse and read as misses).
pub const SCHEMA: &str = "howsim-simcache/v3";

/// On-disk schema for loaded-run entries (`.load` files). Separate from
/// [`SCHEMA`] because [`crate::LoadReport`] has its own layout.
pub const LOAD_SCHEMA: &str = "howsim-loadcache/v1";

/// Lifetime hit/miss counters for the process-wide cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served without simulating (including points deduplicated
    /// within one [`run_plans`] batch).
    pub hits: u64,
    /// Lookups that had to simulate.
    pub misses: u64,
    /// The subset of `hits` that came from the on-disk tier.
    pub disk_hits: u64,
}

struct CacheState {
    enabled: bool,
    disk_dir: Option<PathBuf>,
    /// Hash → entries; a `Vec` per hash so verified key material, not
    /// the hash, decides equality.
    entries: HashMap<u64, Vec<(String, Report)>>,
    /// Loaded-run tier, same collision discipline.
    load_entries: HashMap<u64, Vec<(String, LoadReport)>>,
    stats: CacheStats,
}

fn state() -> &'static Mutex<CacheState> {
    static STATE: OnceLock<Mutex<CacheState>> = OnceLock::new();
    STATE.get_or_init(|| {
        Mutex::new(CacheState {
            enabled: true,
            disk_dir: None,
            entries: HashMap::new(),
            load_entries: HashMap::new(),
            stats: CacheStats::default(),
        })
    })
}

fn lock() -> std::sync::MutexGuard<'static, CacheState> {
    state().lock().expect("cache lock")
}

/// Enables or disables the cache process-wide (`--no-cache` sets false).
/// Disabled, every `run_*` call simulates directly and no stats move.
pub fn set_enabled(on: bool) {
    lock().enabled = on;
}

/// Whether the cache is consulted at all.
pub fn enabled() -> bool {
    lock().enabled
}

/// Sets the on-disk tier directory (`None` keeps the cache
/// memory-only). The binaries' `--cache` flag passes
/// [`default_disk_dir`].
pub fn set_disk_dir(dir: Option<PathBuf>) {
    lock().disk_dir = dir;
}

/// The on-disk tier directory, if one is configured.
pub fn disk_dir() -> Option<PathBuf> {
    lock().disk_dir.clone()
}

/// The conventional on-disk cache location, next to the experiment CSVs.
pub fn default_disk_dir() -> PathBuf {
    PathBuf::from("results/.simcache")
}

/// Drops every in-memory entry (the on-disk tier is untouched).
pub fn clear() {
    let mut st = lock();
    st.entries.clear();
    st.load_entries.clear();
}

/// Lifetime hit/miss counters.
pub fn stats() -> CacheStats {
    lock().stats
}

/// Zeroes the hit/miss counters.
pub fn reset_stats() {
    lock().stats = CacheStats::default();
}

/// The full cache key for one simulation: every input the result depends
/// on, in canonical representation. Hashed with FNV-1a for addressing and
/// stored verbatim for collision-proof verification.
pub fn key_material(
    arch: &Architecture,
    plan: &TaskPlan,
    degraded: &[(usize, u64)],
    seed: u64,
    faults: &FaultPlan,
    recovery: RecoveryPolicy,
) -> String {
    format!(
        "arch={arch:?} | plan={plan:?} | degraded={degraded:?} | seed={seed} | faults={} | recovery={}",
        faults.summary(),
        recovery.name(),
    )
}

/// A result type the cache memoizes: where its in-memory tier lives and
/// how its on-disk tier names and encodes entries.
trait Entry: Clone + Send {
    /// Schema line of the on-disk entries.
    const SCHEMA: &'static str;
    /// File extension of the on-disk entries.
    const EXT: &'static str;
    /// The in-memory tier: hash → entries, a `Vec` per hash so verified
    /// key material, not the hash, decides equality.
    fn memory(st: &mut CacheState) -> &mut HashMap<u64, Vec<(String, Self)>>;
    fn encode(&self) -> String;
    fn decode(body: &str) -> Option<Self>;
}

impl Entry for Report {
    const SCHEMA: &'static str = SCHEMA;
    const EXT: &'static str = "report";
    fn memory(st: &mut CacheState) -> &mut HashMap<u64, Vec<(String, Self)>> {
        &mut st.entries
    }
    fn encode(&self) -> String {
        codec::report_to_cache(self)
    }
    fn decode(body: &str) -> Option<Self> {
        codec::report_from_cache(body).ok()
    }
}

impl Entry for LoadReport {
    const SCHEMA: &'static str = LOAD_SCHEMA;
    const EXT: &'static str = "load";
    fn memory(st: &mut CacheState) -> &mut HashMap<u64, Vec<(String, Self)>> {
        &mut st.load_entries
    }
    fn encode(&self) -> String {
        codec::load_report_to_cache(self)
    }
    fn decode(body: &str) -> Option<Self> {
        codec::load_report_from_cache(body).ok()
    }
}

fn entry_path<T: Entry>(dir: &Path, hash: u64) -> PathBuf {
    dir.join(format!("{hash:016x}.{}", T::EXT))
}

/// Adds `value` to the in-memory tier unless `key` is already there.
fn remember<T: Entry>(st: &mut CacheState, hash: u64, key: &str, value: &T) {
    let entries = T::memory(st).entry(hash).or_default();
    if !entries.iter().any(|(k, _)| k == key) {
        entries.push((key.to_string(), value.clone()));
    }
}

/// Looks `key` up in both tiers, counting one hit or one miss (`None`,
/// counting nothing, when the cache is disabled).
fn probe<T: Entry>(key: &str) -> Option<T> {
    let hash = fnv1a64(key.as_bytes());
    let disk = {
        let mut st = lock();
        if !st.enabled {
            return None;
        }
        if let Some(found) = T::memory(&mut st)
            .get(&hash)
            .and_then(|entries| entries.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v.clone())
        {
            st.stats.hits += 1;
            return Some(found);
        }
        st.disk_dir.clone()
    };
    if let Some(dir) = disk {
        // File I/O happens outside the lock.
        let path = entry_path::<T>(&dir, hash);
        if let Some(value) = read_sealed(&path, T::SCHEMA, |k| k == key, T::decode) {
            let mut st = lock();
            st.stats.hits += 1;
            st.stats.disk_hits += 1;
            remember(&mut st, hash, key, &value);
            return Some(value);
        }
    }
    lock().stats.misses += 1;
    None
}

/// Records a freshly simulated result under `key` in both tiers (a
/// no-op when the cache is disabled).
fn insert<T: Entry>(key: &str, value: &T) {
    let hash = fnv1a64(key.as_bytes());
    let disk = {
        let mut st = lock();
        if !st.enabled {
            return;
        }
        remember(&mut st, hash, key, value);
        st.disk_dir.clone()
    };
    if let Some(dir) = disk {
        // Best effort: a full disk or unwritable directory degrades to
        // memory-only caching rather than failing the sweep.
        let path = entry_path::<T>(&dir, hash);
        let _ = write_sealed(&path, T::SCHEMA, key, &value.encode());
    }
}

/// Serves `key` from the cache, or simulates and records it. Disabled,
/// simulates directly without computing the key.
fn cached<T: Entry>(key: impl FnOnce() -> String, simulate: impl FnOnce() -> T) -> T {
    if !enabled() {
        return simulate();
    }
    let key = key();
    if let Some(value) = probe(&key) {
        return value;
    }
    let value = simulate();
    insert(&key, &value);
    value
}

/// Runs a batch through the cache, deduplicating before dispatch: cached
/// points are served immediately, duplicate uncached points simulate
/// once (the copies count as hits), and the unique misses go through
/// [`sweep::map`] in parallel. Results come back in point order.
fn cached_batch<P, T>(
    points: &[P],
    key: impl Fn(&P) -> String,
    simulate: impl Fn(&P) -> T + Sync,
) -> Vec<T>
where
    P: Sync + std::fmt::Debug,
    T: Entry,
{
    if !enabled() {
        return sweep::map(points, simulate);
    }
    enum Slot<T> {
        Ready(T),
        Fresh(usize),
    }
    let keys: Vec<String> = points.iter().map(key).collect();
    let mut first_job: HashMap<&str, usize> = HashMap::new();
    let mut jobs: Vec<usize> = Vec::new();
    let mut slots: Vec<Slot<T>> = Vec::with_capacity(points.len());
    for (ix, key) in keys.iter().enumerate() {
        if let Some(value) = probe(key) {
            slots.push(Slot::Ready(value));
        } else if let Some(&job) = first_job.get(key.as_str()) {
            // Deduplicated within this batch: served without simulating.
            let mut st = lock();
            st.stats.hits += 1;
            st.stats.misses -= 1; // probe above counted it as a miss
            drop(st);
            slots.push(Slot::Fresh(job));
        } else {
            first_job.insert(key, jobs.len());
            slots.push(Slot::Fresh(jobs.len()));
            jobs.push(ix);
        }
    }
    let fresh: Vec<T> = sweep::map(&jobs, |&ix| simulate(&points[ix]));
    for (&ix, value) in jobs.iter().zip(&fresh) {
        insert(&keys[ix], value);
    }
    slots
        .into_iter()
        .map(|slot| match slot {
            Slot::Ready(value) => value,
            Slot::Fresh(job) => fresh[job].clone(),
        })
        .collect()
}

/// Plans and runs `task` on `arch` through the cache.
pub fn run(arch: &Architecture, task: TaskKind) -> Report {
    run_sim(&Simulation::new(arch.clone()), &plan_task(task, arch))
}

/// Runs an explicit plan on `arch` through the cache.
pub fn run_plan(arch: &Architecture, plan: &TaskPlan) -> Report {
    run_sim(&Simulation::new(arch.clone()), plan)
}

/// The cache key for a configured [`Simulation`] and plan.
fn sim_key(sim: &Simulation, plan: &TaskPlan) -> String {
    key_material(
        sim.architecture(),
        plan,
        sim.degraded_disks(),
        sim.seed(),
        sim.fault_plan(),
        sim.recovery_policy(),
    )
}

/// Looks up one configured simulation's report without simulating on a
/// miss. The availability fork path uses this to serve cached fault
/// scenarios before paying for a shared prefix re-run; pairing it with
/// [`insert_sim`] keeps cache-on and cache-off outputs byte-identical.
pub fn probe_sim(sim: &Simulation, plan: &TaskPlan) -> Option<Report> {
    probe(&sim_key(sim, plan))
}

/// Records an externally computed report (e.g. a forked continuation's)
/// under the same key [`run_sim`] would use.
pub fn insert_sim(sim: &Simulation, plan: &TaskPlan, report: &Report) {
    insert(&sim_key(sim, plan), report);
}

/// Runs `plan` on a configured [`Simulation`] through the cache (the
/// degraded-disk set, seed, fault plan, and recovery policy all
/// participate in the key).
pub fn run_sim(sim: &Simulation, plan: &TaskPlan) -> Report {
    cached(|| sim_key(sim, plan), || sim.run_plan(plan))
}

/// Batch variant of [`run`]: plans every point and delegates to
/// [`run_plans`].
pub fn run_tasks(points: &[(Architecture, TaskKind)]) -> Vec<Report> {
    let plans: Vec<(Architecture, TaskPlan)> = points
        .iter()
        .map(|(arch, task)| (arch.clone(), plan_task(*task, arch)))
        .collect();
    run_plans(&plans)
}

/// Runs a batch of sweep points through the cache, deduplicating before
/// dispatch (see [`run_sims`]). Results come back in point order, so the
/// output is byte-identical to mapping [`Simulation::run_plan`] over the
/// points directly.
pub fn run_plans(points: &[(Architecture, TaskPlan)]) -> Vec<Report> {
    let sims: Vec<(Simulation, TaskPlan)> = points
        .iter()
        .map(|(arch, plan)| (Simulation::new(arch.clone()), plan.clone()))
        .collect();
    run_sims(&sims)
}

/// Runs a batch of fully configured simulations (degraded disks, seeds,
/// fault plans and all) through the cache with the same deduplication and
/// deterministic parallel dispatch as [`run_plans`].
pub fn run_sims(points: &[(Simulation, TaskPlan)]) -> Vec<Report> {
    cached_batch(
        points,
        |(sim, plan)| sim_key(sim, plan),
        |(sim, plan)| sim.run_plan(plan),
    )
}

/// The full cache key for one loaded run: the single-query key inputs
/// minus the plan (the workload enumerates its tasks) plus the workload,
/// admission, and deadline specs — so two load scenarios can never alias
/// to one entry.
pub fn load_key_material(
    sim: &Simulation,
    workload: &WorkloadSpec,
    admission: AdmissionPolicy,
    deadline: DeadlinePolicy,
) -> String {
    format!(
        "arch={:?} | degraded={:?} | seed={} | faults={} | recovery={} | workload={} | admission={} | deadline={}",
        sim.architecture(),
        sim.degraded_disks(),
        sim.seed(),
        sim.fault_plan().summary(),
        sim.recovery_policy().name(),
        workload.summary(),
        admission.summary(),
        deadline.summary(),
    )
}

/// Looks up a cached [`LoadReport`] for one load scenario without
/// simulating on a miss. The warm-start load sweep uses this to serve
/// hits before forking misses off a shared warm prefix; pairing it with
/// [`insert_workload`] keeps cache-on and cache-off outputs
/// byte-identical.
pub fn probe_workload(
    sim: &Simulation,
    workload: &WorkloadSpec,
    admission: AdmissionPolicy,
    deadline: DeadlinePolicy,
) -> Option<LoadReport> {
    probe(&load_key_material(sim, workload, admission, deadline))
}

/// Records an externally computed [`LoadReport`] (e.g. a warm-start
/// continuation's) under the same key [`run_workload`] would use.
pub fn insert_workload(
    sim: &Simulation,
    workload: &WorkloadSpec,
    admission: AdmissionPolicy,
    deadline: DeadlinePolicy,
    report: &LoadReport,
) {
    insert(
        &load_key_material(sim, workload, admission, deadline),
        report,
    );
}

/// The cache key for a warm-start composite run (a warmup segment run
/// to idle, then `measured` grafted on via [`crate::WarmStart::extend`]):
/// the measured-load key plus the warmup spec, so a composite run can
/// never alias a plain [`run_workload`] entry or a composite with a
/// different ramp-up.
pub fn warm_key_material(
    sim: &Simulation,
    warmup: &WorkloadSpec,
    measured: &WorkloadSpec,
    admission: AdmissionPolicy,
    deadline: DeadlinePolicy,
) -> String {
    format!(
        "{} | warmup={}",
        load_key_material(sim, measured, admission, deadline),
        warmup.summary(),
    )
}

/// Looks up a cached warm-start composite report (see
/// [`warm_key_material`]) without simulating on a miss.
pub fn probe_warm_workload(
    sim: &Simulation,
    warmup: &WorkloadSpec,
    measured: &WorkloadSpec,
    admission: AdmissionPolicy,
    deadline: DeadlinePolicy,
) -> Option<LoadReport> {
    probe(&warm_key_material(
        sim, warmup, measured, admission, deadline,
    ))
}

/// Records a warm-start composite report under its composite key.
pub fn insert_warm_workload(
    sim: &Simulation,
    warmup: &WorkloadSpec,
    measured: &WorkloadSpec,
    admission: AdmissionPolicy,
    deadline: DeadlinePolicy,
    report: &LoadReport,
) {
    let key = warm_key_material(sim, warmup, measured, admission, deadline);
    insert(&key, report);
}

/// Runs a multi-query workload through the cache. The key covers the
/// workload, admission, and deadline specs on top of the simulation
/// config, and cached reports round-trip bit-exactly (all-integer
/// serialization), so cache-on and cache-off outputs are byte-identical.
pub fn run_workload(
    sim: &Simulation,
    workload: &WorkloadSpec,
    admission: AdmissionPolicy,
    deadline: DeadlinePolicy,
) -> LoadReport {
    cached(
        || load_key_material(sim, workload, admission, deadline),
        || sim.run_workload(workload, admission, deadline),
    )
}

/// Batch variant of [`run_workload`] with the same deduplication and
/// deterministic parallel dispatch as [`run_sims`].
pub fn run_workloads(
    points: &[(Simulation, WorkloadSpec, AdmissionPolicy, DeadlinePolicy)],
) -> Vec<LoadReport> {
    cached_batch(
        points,
        |(sim, w, adm, dl)| load_key_material(sim, w, *adm, *dl),
        |(sim, w, adm, dl)| sim.run_workload(w, *adm, *dl),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    /// Cache state is process-global; serialize the tests that mutate it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn fresh_cache() -> std::sync::MutexGuard<'static, ()> {
        let guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        set_disk_dir(None);
        clear();
        reset_stats();
        guard
    }

    #[test]
    fn cached_report_is_field_identical_to_fresh() {
        let _guard = fresh_cache();
        let arch = Architecture::active_disks(4);
        let fresh = Simulation::new(arch.clone()).run(TaskKind::Select);
        let first = run(&arch, TaskKind::Select);
        let second = run(&arch, TaskKind::Select);
        assert_eq!(first, fresh);
        assert_eq!(second, fresh);
        let s = stats();
        assert_eq!((s.hits, s.misses, s.disk_hits), (1, 1, 0));
    }

    #[test]
    fn key_separates_configs_and_degraded_sets() {
        let _guard = fresh_cache();
        let arch = Architecture::cluster(2);
        let plan = plan_task(TaskKind::Select, &arch);
        let none = FaultPlan::new();
        let policy = RecoveryPolicy::default();
        let base = key_material(&arch, &plan, &[], 0, &none, policy);
        assert_ne!(
            base,
            key_material(&Architecture::cluster(4), &plan, &[], 0, &none, policy)
        );
        assert_ne!(
            base,
            key_material(&arch, &plan, &[(0, 50)], 0, &none, policy)
        );
        assert_ne!(base, key_material(&arch, &plan, &[], 1, &none, policy));
        let failing = FaultPlan::parse_spec("disk:0@1s").unwrap();
        assert_ne!(base, key_material(&arch, &plan, &[], 0, &failing, policy));
        assert_ne!(
            base,
            key_material(&arch, &plan, &[], 0, &none, RecoveryPolicy::FailStop)
        );
        let degraded = Simulation::new(arch.clone()).with_degraded_disk(0, 50);
        let plain = run_sim(&Simulation::new(arch), &plan);
        let slow = run_sim(&degraded, &plan);
        assert!(slow.elapsed() > plain.elapsed(), "degraded run not shared");
        assert_eq!(stats().misses, 2);
    }

    #[test]
    fn different_seeds_miss_each_other() {
        let _guard = fresh_cache();
        let arch = Architecture::active_disks(2);
        let plan = plan_task(TaskKind::Select, &arch);
        // Seed matters once faults draw randomized placements from it: two
        // seeds must never share an entry.
        let burst = FaultPlan::parse_spec("slow:0@0s:500").unwrap();
        let a = run_sim(
            &Simulation::new(arch.clone())
                .with_seed(1)
                .with_fault_plan(burst.clone()),
            &plan,
        );
        let b = run_sim(
            &Simulation::new(arch.clone())
                .with_seed(2)
                .with_fault_plan(burst.clone()),
            &plan,
        );
        assert_eq!(stats().misses, 2, "distinct seeds simulate separately");
        assert_eq!(stats().hits, 0);
        // Re-running seed 1 hits its own entry and reproduces its report.
        let a2 = run_sim(
            &Simulation::new(arch).with_seed(1).with_fault_plan(burst),
            &plan,
        );
        assert_eq!(a, a2);
        assert_eq!(stats().hits, 1);
        let _ = b;
    }

    #[test]
    fn fault_plan_and_policy_separate_entries() {
        let _guard = fresh_cache();
        let arch = Architecture::active_disks(4);
        let plan = plan_task(TaskKind::Select, &arch);
        let healthy = run_sim(&Simulation::new(arch.clone()), &plan);
        let failing = FaultPlan::parse_spec("disk:1@0.05s").unwrap();
        let redistributed = run_sim(
            &Simulation::new(arch.clone()).with_fault_plan(failing.clone()),
            &plan,
        );
        let aborted = run_sim(
            &Simulation::new(arch)
                .with_fault_plan(failing)
                .with_recovery(RecoveryPolicy::FailStop),
            &plan,
        );
        assert_eq!(stats().misses, 3, "three configs, three entries");
        assert!(!healthy.aborted);
        assert!(redistributed.elapsed() > healthy.elapsed());
        assert!(aborted.aborted);
    }

    #[test]
    fn batch_dedups_before_dispatch() {
        let _guard = fresh_cache();
        let arch = Architecture::smp(2);
        let points = vec![
            (arch.clone(), TaskKind::Select),
            (arch.clone(), TaskKind::Aggregate),
            (arch.clone(), TaskKind::Select), // duplicate of point 0
        ];
        let reports = run_tasks(&points);
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0], reports[2]);
        let s = stats();
        assert_eq!((s.hits, s.misses), (1, 2), "duplicate served from batch");
        // A second batch is all hits and byte-identical.
        let again = run_tasks(&points);
        assert_eq!(again, reports);
        assert_eq!(stats().hits, 4);
        assert_eq!(stats().misses, 2);
    }

    #[test]
    fn disabled_cache_simulates_directly() {
        let _guard = fresh_cache();
        set_enabled(false);
        let arch = Architecture::active_disks(2);
        let a = run(&arch, TaskKind::Select);
        let b = run(&arch, TaskKind::Select);
        assert_eq!(a, b);
        assert_eq!(stats(), CacheStats::default(), "no stats move when off");
        set_enabled(true);
    }

    #[test]
    fn disk_tier_round_trips_and_rejects_corruption() {
        let _guard = fresh_cache();
        let dir = std::env::temp_dir().join(format!("howsim-simcache-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        set_disk_dir(Some(dir.clone()));
        let arch = Architecture::cluster(4);
        let fresh = run(&arch, TaskKind::Sort);
        assert_eq!(stats().misses, 1);
        let entry = fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        assert!(entry.to_string_lossy().ends_with(".report"));

        // Drop the memory tier: the next lookup must come from disk.
        clear();
        let warm = run(&arch, TaskKind::Sort);
        assert_eq!(warm, fresh, "disk round trip is field-identical");
        let s = stats();
        assert_eq!((s.hits, s.disk_hits), (1, 1));

        // A corrupt entry is a miss, not an error or a wrong answer.
        clear();
        fs::write(&entry, "garbage\n").unwrap();
        let recomputed = run(&arch, TaskKind::Sort);
        assert_eq!(recomputed, fresh);
        assert_eq!(stats().misses, 2);

        set_disk_dir(None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_and_bit_flipped_entries_are_misses() {
        let _guard = fresh_cache();
        let dir =
            std::env::temp_dir().join(format!("howsim-simcache-corrupt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        set_disk_dir(Some(dir.clone()));
        let arch = Architecture::active_disks(4);
        let fresh = run(&arch, TaskKind::Select);
        let entry = fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        let intact = fs::read(&entry).unwrap();

        // Truncation (a crash mid-write on a non-atomic filesystem, or a
        // partial copy): checksum fails, entry is recomputed.
        clear();
        reset_stats();
        fs::write(&entry, &intact[..intact.len() / 2]).unwrap();
        assert_eq!(run(&arch, TaskKind::Select), fresh);
        let s = stats();
        assert_eq!((s.hits, s.misses), (0, 1), "truncated entry must miss");

        // A single flipped bit in the payload: checksum fails.
        clear();
        reset_stats();
        let mut flipped = intact.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        fs::write(&entry, &flipped).unwrap();
        assert_eq!(run(&arch, TaskKind::Select), fresh);
        let s = stats();
        assert_eq!((s.hits, s.misses), (0, 1), "bit-flipped entry must miss");

        // The rewritten (intact) entry loads again.
        clear();
        reset_stats();
        assert_eq!(run(&arch, TaskKind::Select), fresh);
        let s = stats();
        assert_eq!((s.hits, s.disk_hits, s.misses), (1, 1, 0));

        set_disk_dir(None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_load_specs_never_alias_one_entry() {
        let _guard = fresh_cache();
        let arch = Architecture::active_disks(2);
        let sim = Simulation::new(arch);
        let mix = vec![(TaskKind::Select, 1)];
        let a_spec = WorkloadSpec::poisson(0.05, 3).with_mix(mix.clone());
        let b_spec = WorkloadSpec::poisson(0.10, 3).with_mix(mix.clone());
        let adm = AdmissionPolicy::default();
        let dl = DeadlinePolicy::default();
        // Every dimension of the load scenario separates keys.
        let base = load_key_material(&sim, &a_spec, adm, dl);
        assert_ne!(base, load_key_material(&sim, &b_spec, adm, dl));
        assert_ne!(
            base,
            load_key_material(&sim, &a_spec.clone().with_seed(9), adm, dl)
        );
        assert_ne!(
            base,
            load_key_material(
                &sim,
                &a_spec,
                AdmissionPolicy {
                    max_concurrent: 1,
                    queue_limit: 0
                },
                dl
            )
        );
        assert_ne!(
            base,
            load_key_material(
                &sim,
                &a_spec,
                adm,
                DeadlinePolicy {
                    deadline: Some(simcore::Duration::from_secs(1)),
                    max_retries: 0,
                    backoff: simcore::Duration::from_secs(1)
                }
            )
        );
        // Two different arrival rates must simulate separately...
        let a = run_workload(&sim, &a_spec, adm, dl);
        let b = run_workload(&sim, &b_spec, adm, dl);
        assert_eq!(stats().misses, 2, "distinct load specs miss each other");
        assert_ne!(a, b, "different arrival schedules, different reports");
        // ...and re-running one hits its own entry bit-exactly.
        let a2 = run_workload(&sim, &a_spec, adm, dl);
        assert_eq!(a, a2);
        assert_eq!(stats().hits, 1);
    }

    #[test]
    fn load_report_round_trips_through_disk_tier() {
        let _guard = fresh_cache();
        let dir =
            std::env::temp_dir().join(format!("howsim-loadcache-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        set_disk_dir(Some(dir.clone()));
        let sim = Simulation::new(Architecture::cluster(2)).with_seed(3);
        let w = WorkloadSpec::closed(2, 4).with_mix(vec![(TaskKind::Select, 1)]);
        let adm = AdmissionPolicy::default();
        let dl = DeadlinePolicy {
            deadline: Some(simcore::Duration::from_secs(600)),
            max_retries: 1,
            backoff: simcore::Duration::from_secs(1),
        };
        let cold = run_workload(&sim, &w, adm, dl);
        assert_eq!(stats().misses, 1);
        assert!(fs::read_dir(&dir).unwrap().any(|e| e
            .unwrap()
            .path()
            .to_string_lossy()
            .ends_with(".load")));

        // Drop the memory tier: the next lookup must come from disk,
        // bit-for-bit — per-query outcomes, phases, statuses and all.
        clear();
        let warm = run_workload(&sim, &w, adm, dl);
        assert_eq!(warm, cold, "disk round trip is field-identical");
        let s = stats();
        assert_eq!((s.hits, s.disk_hits), (1, 1));

        set_disk_dir(None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn workload_batch_dedups_before_dispatch() {
        let _guard = fresh_cache();
        let sim = Simulation::new(Architecture::smp(2));
        let w = WorkloadSpec::poisson(0.02, 2).with_mix(vec![(TaskKind::Select, 1)]);
        let adm = AdmissionPolicy::default();
        let dl = DeadlinePolicy::default();
        let points = vec![
            (sim.clone(), w.clone(), adm, dl),
            (sim.clone(), w.clone().with_seed(5), adm, dl),
            (sim.clone(), w.clone(), adm, dl), // duplicate of point 0
        ];
        let reports = run_workloads(&points);
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0], reports[2]);
        let s = stats();
        assert_eq!((s.hits, s.misses), (1, 2), "duplicate served from batch");
        let again = run_workloads(&points);
        assert_eq!(again, reports);
    }

    #[test]
    fn workload_probe_and_insert_pair_with_run_workload() {
        let _guard = fresh_cache();
        let sim = Simulation::new(Architecture::active_disks(2));
        let w = WorkloadSpec::closed(1, 2).with_mix(vec![(TaskKind::Select, 1)]);
        let adm = AdmissionPolicy::default();
        let dl = DeadlinePolicy::default();
        assert!(probe_workload(&sim, &w, adm, dl).is_none());
        let fresh = sim.run_workload(&w, adm, dl);
        insert_workload(&sim, &w, adm, dl, &fresh);
        // run_workload now serves the externally inserted report.
        assert_eq!(run_workload(&sim, &w, adm, dl), fresh);
        assert_eq!(stats().hits, 1);
    }

    #[test]
    fn faulted_report_round_trips_through_disk_tier() {
        let _guard = fresh_cache();
        let dir =
            std::env::temp_dir().join(format!("howsim-simcache-faults-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        set_disk_dir(Some(dir.clone()));
        let arch = Architecture::active_disks(4);
        let plan = plan_task(TaskKind::Sort, &arch);
        let sim = Simulation::new(arch)
            .with_seed(7)
            .with_fault_plan(FaultPlan::parse_spec("disk:2@0.1s").unwrap());
        let cold = run_sim(&sim, &plan);
        assert!(cold.faults_injected > 0);
        assert!(cold.recovery_time > simcore::Duration::ZERO);

        // Drop the memory tier: the fault fields must survive the disk
        // round trip bit-for-bit.
        clear();
        let warm = run_sim(&sim, &plan);
        assert_eq!(warm, cold);
        let s = stats();
        assert_eq!((s.hits, s.disk_hits), (1, 1));

        set_disk_dir(None);
        let _ = fs::remove_dir_all(&dir);
    }
}
