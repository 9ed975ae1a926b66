//! On-disk checkpoint tier (`.ckpt`): paused [`ExecRun`] state,
//! addressed and integrity-checked like the result cache
//! ([`crate::cache`]).
//!
//! A checkpoint captures a run at an exact event boundary — machine
//! state, fault runtime, finished-phase reports, and the live event
//! queue — so a later process can resume it (under *any* queue
//! backend) instead of re-simulating the prefix. Files carry the armor
//! every cache tier shares ([`crate::codec`]): a schema line, an FNV-1a
//! checksum over the payload, and the full key material stored
//! verbatim, so a truncated, bit-flipped, or mismatched entry is a clean
//! miss, never a panic. Publication is atomic (write to a temp file,
//! then rename).
//!
//! The checkpoint key deliberately excludes the queue backend: restored
//! queue state is renumbered into whatever backend the resuming
//! simulation configures, and the continuation's report is
//! field-identical either way. Everything else the paused state depends
//! on — architecture, plan, degraded disks, seed, fault plan, recovery
//! policy, and the pause boundary — is in the key, so two fault
//! scenarios forked from one prefix never alias.

use std::io;
use std::path::{Path, PathBuf};

use simcore::{SimTime, StateReader, StateWriter};
use tasks::plan::TaskPlan;

use crate::codec::{read_sealed, write_sealed};
use crate::exec::{ExecRun, Simulation};
use crate::manifest::fnv1a64;

/// Checkpoint schema identifier, bumped on breaking layout changes.
pub const SCHEMA: &str = "howsim-ckpt/v1";

/// The configuration part of a checkpoint key: every input the paused
/// state depends on except the pause boundary. The queue backend is
/// deliberately absent (see the module docs).
pub fn config_key(sim: &Simulation, plan: &TaskPlan) -> String {
    format!(
        "ckpt | arch={:?} | plan={:?} | degraded={:?} | seed={} | faults={} | recovery={}",
        sim.architecture(),
        plan,
        sim.degraded_disks(),
        sim.seed(),
        sim.fault_plan().summary(),
        sim.recovery_policy().name(),
    )
}

/// The full checkpoint key: the configuration plus the pause boundary.
pub fn checkpoint_key(sim: &Simulation, plan: &TaskPlan, at: SimTime) -> String {
    format!("{} | at={}", config_key(sim, plan), at.as_nanos())
}

/// The on-disk path of the checkpoint for `key` inside `dir`.
pub fn entry_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("{:016x}.ckpt", fnv1a64(key.as_bytes())))
}

/// Reads the checkpoint at `path` whose stored key `accept` approves.
/// Codec errors (a structurally valid file whose body does not describe
/// `sim`/`plan`) are a clean miss.
fn load<'p>(
    path: &Path,
    sim: &Simulation,
    plan: &'p TaskPlan,
    accept: impl FnOnce(&str) -> bool,
) -> Option<ExecRun<'p>> {
    read_sealed(path, SCHEMA, accept, |body| {
        let mut r = StateReader::new(body);
        let run = ExecRun::load_state(sim, plan, &mut r).ok()?;
        r.expect_done().ok()?;
        Some(run)
    })
}

/// Atomically writes the checkpoint file for a paused run to `path`.
///
/// # Panics
///
/// Panics if the run is profiled (see [`ExecRun::save_state`]).
pub fn write_file(
    path: &Path,
    sim: &Simulation,
    plan: &TaskPlan,
    at: SimTime,
    run: &ExecRun<'_>,
) -> io::Result<()> {
    let mut w = StateWriter::new();
    run.save_state(&mut w);
    write_sealed(path, SCHEMA, &checkpoint_key(sim, plan, at), &w.finish())
}

/// Reads a checkpoint file written by [`write_file`], verifying it was
/// saved under this `sim`/`plan` configuration (the pause boundary in
/// the stored key is accepted as-is: the resumer does not need to know
/// it, the state body carries the clock). Corrupt or mismatched files
/// are a clean miss.
pub fn read_file<'p>(path: &Path, sim: &Simulation, plan: &'p TaskPlan) -> Option<ExecRun<'p>> {
    let config = config_key(sim, plan);
    load(path, sim, plan, |key| {
        key.rsplit_once(" | at=")
            .is_some_and(|(stored, at)| stored == config && at.parse::<u64>().is_ok())
    })
}

/// Stores a paused run in the keyed checkpoint tier under `dir`;
/// returns the entry path.
///
/// # Panics
///
/// Panics if the run is profiled (see [`ExecRun::save_state`]).
pub fn store(
    dir: &Path,
    sim: &Simulation,
    plan: &TaskPlan,
    at: SimTime,
    run: &ExecRun<'_>,
) -> io::Result<PathBuf> {
    let path = entry_path(dir, &checkpoint_key(sim, plan, at));
    write_file(&path, sim, plan, at, run)?;
    Ok(path)
}

/// Looks up the checkpoint for `(sim, plan, at)` in `dir` and rebuilds
/// the paused run under `sim`'s queue backend. Missing, truncated,
/// bit-flipped, or colliding entries are a clean miss.
pub fn probe<'p>(
    dir: &Path,
    sim: &Simulation,
    plan: &'p TaskPlan,
    at: SimTime,
) -> Option<ExecRun<'p>> {
    let key = checkpoint_key(sim, plan, at);
    load(&entry_path(dir, &key), sim, plan, |stored| stored == key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPlan, RecoveryPolicy};
    use arch::Architecture;
    use simcore::QueueBackend;
    use std::fs;
    use tasks::{plan_task, TaskKind};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("howsim-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn mid_run_pause(sim: &Simulation, plan: &TaskPlan) -> SimTime {
        // Pause mid-run: halfway through the full elapsed time.
        let full = sim.run_plan(plan);
        SimTime::ZERO + simcore::Duration::from_nanos(full.elapsed().as_nanos() / 2)
    }

    #[test]
    fn key_varies_with_every_input_but_not_queue_backend() {
        let arch = Architecture::active_disks(4);
        let plan = plan_task(TaskKind::Select, &arch);
        let sim = Simulation::new(arch.clone()).with_seed(7);
        let at = SimTime::from_nanos(1_000_000);
        let base = checkpoint_key(&sim, &plan, at);

        // The backend never participates: a checkpoint taken under the
        // wheel must be found by a heap-backed resumer.
        let heap = sim.clone().with_queue_backend(QueueBackend::BinaryHeap);
        assert_eq!(base, checkpoint_key(&heap, &plan, at));

        // Every real input does.
        let other_arch = Simulation::new(Architecture::cluster(4)).with_seed(7);
        assert_ne!(base, checkpoint_key(&other_arch, &plan, at));
        let other_plan = plan_task(TaskKind::Aggregate, &arch);
        assert_ne!(base, checkpoint_key(&sim, &other_plan, at));
        let other_seed = sim.clone().with_seed(8);
        assert_ne!(base, checkpoint_key(&other_seed, &plan, at));
        let degraded = sim.clone().with_degraded_disk(0, 50);
        assert_ne!(base, checkpoint_key(&degraded, &plan, at));
        let failstop = sim.clone().with_recovery(RecoveryPolicy::FailStop);
        assert_ne!(base, checkpoint_key(&failstop, &plan, at));
        assert_ne!(
            base,
            checkpoint_key(&sim, &plan, SimTime::from_nanos(2_000_000))
        );
    }

    #[test]
    fn two_fault_plans_forked_from_one_prefix_do_not_alias() {
        let arch = Architecture::active_disks(4);
        let plan = plan_task(TaskKind::Select, &arch);
        let healthy = Simulation::new(arch);
        let at = mid_run_pause(&healthy, &plan);
        let a = healthy
            .clone()
            .with_fault_plan(FaultPlan::parse_spec("disk:0@1s").unwrap());
        let b = healthy
            .clone()
            .with_fault_plan(FaultPlan::parse_spec("disk:1@1s").unwrap());
        let ka = checkpoint_key(&a, &plan, at);
        let kb = checkpoint_key(&b, &plan, at);
        assert_ne!(ka, kb);
        let dir = tmp_dir("alias");
        assert_ne!(entry_path(&dir, &ka), entry_path(&dir, &kb));
    }

    #[test]
    fn store_probe_round_trip_resumes_identically_across_backends() {
        let arch = Architecture::active_disks(4);
        let plan = plan_task(TaskKind::Select, &arch);
        let sim = Simulation::new(arch).with_seed(3);
        let scratch = sim.run_plan(&plan);
        let at = mid_run_pause(&sim, &plan);

        let mut run = sim.start(&plan);
        run.run_until(at);
        let dir = tmp_dir("roundtrip");
        store(&dir, &sim, &plan, at, &run).expect("store checkpoint");

        for backend in [QueueBackend::CalendarWheel, QueueBackend::BinaryHeap] {
            let resumer = sim.clone().with_queue_backend(backend);
            let restored =
                probe(&dir, &resumer, &plan, at).expect("checkpoint hit under any backend");
            assert_eq!(restored.finish(), scratch, "backend {backend:?}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoints_are_clean_misses() {
        let arch = Architecture::active_disks(2);
        let plan = plan_task(TaskKind::Aggregate, &arch);
        let sim = Simulation::new(arch);
        let at = mid_run_pause(&sim, &plan);
        let mut run = sim.start(&plan);
        run.run_until(at);
        let dir = tmp_dir("corrupt");
        let path = store(&dir, &sim, &plan, at, &run).expect("store checkpoint");
        assert!(probe(&dir, &sim, &plan, at).is_some(), "sanity: intact hit");

        // Truncation: lop off the tail.
        let intact = fs::read_to_string(&path).expect("read entry");
        fs::write(&path, &intact[..intact.len() / 2]).expect("truncate");
        assert!(probe(&dir, &sim, &plan, at).is_none(), "truncated → miss");

        // Single bit flip in the body.
        let mut flipped = intact.clone().into_bytes();
        let ix = flipped.len() - 20;
        flipped[ix] ^= 0x01;
        fs::write(&path, flipped).expect("bit flip");
        assert!(probe(&dir, &sim, &plan, at).is_none(), "bit flip → miss");

        // Wrong schema line.
        fs::write(&path, intact.replace(SCHEMA, "howsim-ckpt/v0")).expect("schema");
        assert!(probe(&dir, &sim, &plan, at).is_none(), "bad schema → miss");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_round_trip_checks_the_configuration() {
        let arch = Architecture::cluster(4);
        let plan = plan_task(TaskKind::Join, &arch);
        let sim = Simulation::new(arch);
        let at = mid_run_pause(&sim, &plan);
        let mut run = sim.start(&plan);
        run.run_until(at);
        let dir = tmp_dir("file");
        let path = dir.join("pause.ckpt");
        write_file(&path, &sim, &plan, at, &run).expect("write checkpoint");

        let restored = read_file(&path, &sim, &plan).expect("resume from file");
        assert_eq!(restored.finish(), sim.run_plan(&plan));

        // A different seed is a different configuration: miss.
        let other = sim.clone().with_seed(99);
        assert!(read_file(&path, &other, &plan).is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
