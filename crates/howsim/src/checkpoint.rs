//! Checkpoint files (`.ckpt`): paused [`ExecRun`] state, integrity-checked
//! like the result cache ([`crate::cache`]).
//!
//! A checkpoint captures a run at an exact event boundary — the driver's
//! machine state, fault runtime, query progress and finished-phase
//! reports, and the live event queue — so a later process can resume it
//! (under *any* queue backend) instead of re-simulating the prefix.
//! Files carry the armor every cache tier shares ([`crate::codec`]): a
//! schema line, an FNV-1a checksum over the payload, and the full key
//! material stored verbatim, so a truncated, bit-flipped, or mismatched
//! file is a clean miss, never a panic. Publication is atomic (write to a
//! temp file, then rename).
//!
//! The key deliberately excludes the queue backend: restored queue state
//! is renumbered into whatever backend the resuming simulation
//! configures, and the continuation's report is field-identical either
//! way. Everything else the paused state depends on — architecture,
//! plan, degraded disks, seed, fault plan, recovery policy, and the
//! pause boundary — is in the key, so two fault scenarios forked from
//! one prefix never alias.

use std::io;
use std::path::Path;

use simcore::{SimTime, StateReader, StateWriter};
use tasks::plan::TaskPlan;

use crate::codec::{read_sealed, write_sealed};
use crate::exec::{ExecRun, Simulation};

/// Checkpoint schema identifier, bumped on breaking layout changes (v2:
/// the state of the one event driver, whose queue and counters span the
/// whole run rather than one phase; v1 files read as misses).
pub const SCHEMA: &str = "howsim-ckpt/v2";

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
/// it, the state body carries the clock). Corrupt or mismatched files,
/// including codec errors in a structurally valid file, are a clean
/// miss.
pub fn read_file<'p>(path: &Path, sim: &Simulation, plan: &'p TaskPlan) -> Option<ExecRun<'p>> {
    let config = config_key(sim, plan);
    let accept = |key: &str| {
        key.rsplit_once(" | at=")
            .is_some_and(|(stored, at)| stored == config && at.parse::<u64>().is_ok())
    };
    read_sealed(path, SCHEMA, accept, |body| {
        let mut r = StateReader::new(body);
        let run = ExecRun::load_state(sim, plan, &mut r).ok()?;
        r.expect_done().ok()?;
        Some(run)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPlan, RecoveryPolicy};
    use arch::Architecture;
    use simcore::QueueBackend;
    use std::fs;
    use std::path::PathBuf;
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
        assert_ne!(checkpoint_key(&a, &plan, at), checkpoint_key(&b, &plan, at));
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

    /// Rewrites the body of the checkpoint at `path` with `edit` and
    /// re-seals it under its own key, so only the edit can make it miss.
    fn reseal(path: &std::path::Path, edit: impl Fn(&str) -> String) {
        let text = fs::read_to_string(path).unwrap();
        let mut parts = text.splitn(4, '\n');
        let (_schema, _sum) = (parts.next().unwrap(), parts.next().unwrap());
        let key = parts.next().unwrap().strip_prefix("key ").unwrap();
        let body = edit(parts.next().unwrap());
        crate::codec::write_sealed(path, SCHEMA, key, &body).unwrap();
    }

    /// Replaces token `ix` of the first line starting with `prefix` and
    /// carrying a per-node work event.
    fn set_token(body: &str, prefix: &str, ix: usize, value: &str) -> String {
        let mut done = false;
        let lines: Vec<String> = body
            .lines()
            .map(|line| {
                let mut t: Vec<&str> = line.split(' ').collect();
                if !done && t[0] == prefix && matches!(t[2], "br" | "bp" | "rp") {
                    done = true;
                    t[ix] = value;
                }
                t.join(" ")
            })
            .collect();
        assert!(done, "no `{prefix}` work event to edit");
        lines.join("\n") + "\n"
    }

    #[test]
    fn restored_ids_out_of_range_are_clean_misses() {
        // A 4-node cluster join paused mid-flight; each edit below keeps
        // the file well-formed and correctly sealed. Out-of-range ids
        // must miss at load, not panic at resume or wrap to a valid id.
        let arch = Architecture::cluster(4);
        let plan = plan_task(TaskKind::Join, &arch);
        let sim = Simulation::new(arch);
        let at = mid_run_pause(&sim, &plan);
        let mut run = sim.start(&plan);
        run.run_until(at);
        let dir = tmp_dir("ids");
        let path = dir.join("pause.ckpt");
        let edits: [(&str, &str, usize, &str); 6] = [
            ("in-range edit", "qe", 4, "0"),
            ("queued node 99", "qe", 3, "99"),
            ("queued node 2^32", "qe", 3, "4294967296"),
            ("queued query 2^32", "qe", 5, "4294967296"),
            ("queued query 1 of a solo run", "qe", 5, "1"),
            ("queued event behind the clock", "qe", 1, "0"),
        ];
        for (label, prefix, ix, value) in edits {
            write_file(&path, &sim, &plan, at, &run).unwrap();
            reseal(&path, |body| set_token(body, prefix, ix, value));
            let restored = read_file(&path, &sim, &plan);
            assert_eq!(restored.is_some(), label == "in-range edit", "{label}");
        }
        // The stashed boundary event is checked too.
        write_file(&path, &sim, &plan, at, &run).unwrap();
        reseal(&path, |body| set_token(body, "pending_ev", 3, "99"));
        assert!(read_file(&path, &sim, &plan).is_none(), "pending node 99");
        // Queued work must match the query's in-flight count and state:
        // `on_work` decrements the count and dispatches on the state.
        for (label, ix, value) in [("in-flight count 0", 15, "0"), ("state Pending", 7, "0")] {
            write_file(&path, &sim, &plan, at, &run).unwrap();
            reseal(&path, |body| {
                let edit = |line: &str| {
                    let mut t: Vec<&str> = line.split(' ').collect();
                    if t[0] == "query" {
                        t[ix] = value;
                    }
                    t.join(" ")
                };
                body.lines().map(edit).collect::<Vec<_>>().join("\n") + "\n"
            });
            assert!(read_file(&path, &sim, &plan).is_none(), "{label}");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
