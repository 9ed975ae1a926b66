//! Checkpoint differential tests: snapshot a run mid-flight, restore it
//! (under any queue backend), run to completion, and the report — and its
//! serialized manifest — is byte-identical to simulating from scratch.

use arch::Architecture;
use howsim::manifest::RunManifest;
use howsim::{checkpoint, FaultPlan, Simulation};
use proptest::prelude::*;
use simcore::{Duration, QueueBackend, SimTime};
use tasks::{CpuWork, PhasePlan, TaskKind, TaskPlan};

/// Every event-queue backend a checkpoint must restore under.
const BACKENDS: [QueueBackend; 2] = [QueueBackend::CalendarWheel, QueueBackend::BinaryHeap];

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("howsim-ckpt-it-{}-{name}.ckpt", std::process::id()))
}

/// The manifest JSON is the byte-comparison surface: every report field
/// serialized in exact integers, no host or wall-clock data attached.
fn manifest_bytes(arch: &Architecture, report: &howsim::Report) -> String {
    RunManifest::new(arch, report).to_json()
}

#[test]
fn restored_join_is_byte_identical_across_backends() {
    let arch = Architecture::cluster(4);
    let plan = tasks::plan_task(TaskKind::Join, &arch);
    let sim = Simulation::new(arch.clone()).with_seed(7);
    let scratch = sim.run_plan(&plan);
    let golden = manifest_bytes(&arch, &scratch);
    let elapsed = scratch.elapsed().as_secs_f64();
    let path = tmp("join");
    for frac in [0.1, 0.5, 0.9] {
        let at = SimTime::ZERO + Duration::from_secs_f64(elapsed * frac);
        let mut run = sim.start(&plan);
        run.run_until(at);
        assert!(!run.is_done(), "pause at {frac} of elapsed is mid-flight");
        checkpoint::write_file(&path, &sim, &plan, at, &run).unwrap();
        for backend in BACKENDS {
            let loader = sim.clone().with_queue_backend(backend);
            let restored =
                checkpoint::read_file(&path, &loader, &plan).expect("valid checkpoint restores");
            let report = restored.finish();
            assert_eq!(report, scratch, "frac {frac} backend {backend:?}");
            assert_eq!(
                manifest_bytes(&arch, &report),
                golden,
                "manifest bytes at frac {frac} under {backend:?}"
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn every_pause_point_resumes_and_bad_files_miss() {
    // A faulted two-phase sort, paused mid-phase, exactly at the first
    // phase barrier, after the fault struck, and after completion.
    let arch = Architecture::cluster(4);
    let plan = tasks::plan_task(TaskKind::Sort, &arch);
    let healthy = Simulation::new(arch.clone()).run_plan(&plan).elapsed();
    let fault_at = Duration::from_secs_f64(healthy.as_secs_f64() * 0.3);
    let sim = Simulation::new(arch).with_fault_plan(FaultPlan::new().disk_fail_stop(1, fault_at));
    let scratch = sim.run_plan(&plan);
    let ns = |frac: f64| SimTime::from_nanos((scratch.elapsed().as_nanos() as f64 * frac) as u64);
    let barrier = SimTime::ZERO + scratch.phases[0].elapsed;
    let path = tmp("points");
    for (label, at) in [
        ("mid-phase", ns(0.1)),
        ("barrier", barrier),
        ("after the fault", ns(0.6)),
        ("after completion", ns(1.5)),
    ] {
        let mut run = sim.start(&plan);
        run.run_until(at);
        assert_eq!(run.is_done(), label == "after completion", "{label}");
        checkpoint::write_file(&path, &sim, &plan, at, &run).unwrap();
        for backend in BACKENDS {
            let loader = sim.clone().with_queue_backend(backend);
            let restored = checkpoint::read_file(&path, &loader, &plan).expect("v2 restores");
            assert_eq!(restored.paused_at(), run.paused_at(), "{label}");
            assert_eq!(restored.finish(), scratch, "{label} under {backend:?}");
        }
    }

    // A file of the previous schema, a truncated one, and a bit-flipped
    // one are clean misses.
    let intact = std::fs::read(&path).unwrap();
    let text = String::from_utf8(intact.clone()).unwrap();
    let damaged = [
        text.replace(checkpoint::SCHEMA, "howsim-ckpt/v1")
            .into_bytes(),
        intact[..intact.len() / 2].to_vec(),
        {
            let mut flipped = intact.clone();
            let mid = flipped.len() / 2;
            flipped[mid] ^= 1;
            flipped
        },
    ];
    for bytes in damaged {
        std::fs::write(&path, bytes).unwrap();
        assert!(checkpoint::read_file(&path, &sim, &plan).is_none());
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn profiled_fork_keeps_the_critical_path() {
    // Profiled runs cannot be serialized (spans hold arena state), but
    // in-memory forks of a profiled prefix must still reproduce the
    // from-scratch critical-path decomposition exactly.
    let arch = Architecture::active_disks(4);
    let plan = tasks::plan_task(TaskKind::Sort, &arch);
    let sim = Simulation::new(arch).with_seed(3);
    let (scratch, scratch_spans) = sim.start_profiled(&plan).finish_profiled();
    let scratch_cp = scratch_spans.critical_path();

    let mut prefix = sim.start_profiled(&plan);
    prefix
        .run_until(SimTime::ZERO + Duration::from_secs_f64(scratch.elapsed().as_secs_f64() * 0.4));
    let (report, spans) = prefix.fork().finish_profiled();
    let cp = spans.critical_path();
    assert_eq!(report, scratch);
    assert_eq!(cp.total, scratch_cp.total);
    assert_eq!(cp.segments, scratch_cp.segments);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The satellite property: a random plan, snapshotted at a random
    /// event boundary under one random backend and restored under
    /// another, finishes byte-identical to the from-scratch run.
    #[test]
    fn prop_random_snapshot_restores_byte_identical(
        read_mb in 1u64..64,
        shuffle_pct in 0u32..=100,
        write_pct in 0u32..=100,
        cpu_ns in 0.0f64..20.0,
        nodes in 1usize..6,
        arch_ix in 0usize..3,
        pause_frac in 0.0f64..1.05,
        save_backend in 0usize..2,
        load_backend in 0usize..2,
    ) {
        let mut phase = PhasePlan::new("random", read_mb << 20);
        phase.read_cpu = vec![CpuWork { tag: "work", ns_per_byte: cpu_ns }];
        phase.shuffle_factor = shuffle_pct as f64 / 100.0;
        phase.local_write_factor = write_pct as f64 / 100.0;
        if phase.shuffle_factor > 0.0 {
            phase.recv_cpu = vec![CpuWork { tag: "recv", ns_per_byte: cpu_ns / 2.0 }];
        }
        let plan = TaskPlan { task: "random", phases: vec![phase] };
        let arch = match arch_ix {
            0 => Architecture::active_disks(nodes),
            1 => Architecture::cluster(nodes),
            _ => Architecture::smp(nodes),
        };
        let sim = Simulation::new(arch.clone())
            .with_seed(read_mb ^ u64::from(shuffle_pct))
            .with_queue_backend(BACKENDS[save_backend]);
        let scratch = sim.run_plan(&plan);
        let at = SimTime::ZERO
            + Duration::from_secs_f64(scratch.elapsed().as_secs_f64() * pause_frac);
        let mut run = sim.start(&plan);
        run.run_until(at);
        let path = tmp("prop");
        checkpoint::write_file(&path, &sim, &plan, at, &run).unwrap();
        let loader = sim.clone().with_queue_backend(BACKENDS[load_backend]);
        let restored = checkpoint::read_file(&path, &loader, &plan)
            .expect("valid checkpoint restores");
        let report = restored.finish();
        prop_assert_eq!(&report, &scratch);
        prop_assert_eq!(manifest_bytes(&arch, &report), manifest_bytes(&arch, &scratch));
        let _ = std::fs::remove_file(&path);
    }
}
