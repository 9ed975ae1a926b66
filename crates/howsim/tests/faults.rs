//! Integration tests for the fault-injection and recovery subsystem:
//! the ISSUE's headline scenario (a disk fail-stop at 50% of a Sort run),
//! the recovery-policy ordering, attribution of the recovery delta, and
//! byte-level determinism of faulted runs.

use arch::Architecture;
use howsim::faults::{FaultPlan, RecoveryPolicy};
use howsim::{Attribution, Resource, Simulation};
use simcore::{Duration, QueueBackend};
use tasks::TaskKind;

/// The headline configuration: 16 Active Disks sorting, node 3's disk
/// fail-stopping at 50% of the healthy elapsed time.
fn half_sort_fault(arch: &Architecture) -> (Duration, FaultPlan) {
    let healthy = Simulation::new(arch.clone()).run(TaskKind::Sort).elapsed();
    let at = Duration::from_secs_f64(healthy.as_secs_f64() * 0.5);
    (healthy, FaultPlan::new().disk_fail_stop(3, at))
}

#[test]
fn redistribute_is_slower_than_healthy_but_beats_abort_and_rerun() {
    let arch = Architecture::active_disks(16);
    let (healthy, plan) = half_sort_fault(&arch);

    let redist = Simulation::new(arch.clone())
        .with_seed(42)
        .with_fault_plan(plan.clone())
        .run(TaskKind::Sort);
    assert!(!redist.aborted);
    assert_eq!(redist.faults_injected, 1);
    assert!(redist.work_redistributed > 0, "survivors took over work");
    assert!(redist.recovery_time > Duration::ZERO);
    assert!(redist.downtime > Duration::ZERO);
    assert!(
        redist.elapsed() > healthy,
        "degraded run ({:?}) must cost more than healthy ({healthy:?})",
        redist.elapsed()
    );

    let aborted = Simulation::new(arch)
        .with_seed(42)
        .with_fault_plan(plan)
        .with_recovery(RecoveryPolicy::FailStop)
        .run(TaskKind::Sort);
    assert!(aborted.aborted, "FailStop must cut the run short");
    assert!(aborted.elapsed() < healthy, "the abort is a partial run");
    let rerun = aborted.elapsed() + healthy;
    assert!(
        redist.elapsed() < rerun,
        "redistribute ({:?}) must beat abort-and-rerun ({rerun:?})",
        redist.elapsed()
    );
}

#[test]
fn reconstruct_read_amplifies_more_than_redistribute() {
    let arch = Architecture::active_disks(16);
    let (_, plan) = half_sort_fault(&arch);
    let mk = |policy| {
        Simulation::new(arch.clone())
            .with_seed(42)
            .with_fault_plan(plan.clone())
            .with_recovery(policy)
            .run(TaskKind::Sort)
    };
    let redist = mk(RecoveryPolicy::Redistribute);
    let reconstruct = mk(RecoveryPolicy::ReconstructRead);
    // RAID-5-style reconstruction reads every survivor for each lost
    // batch, so its recovery work strictly dominates the mirror read.
    assert!(
        reconstruct.recovery_time > redist.recovery_time,
        "reconstruct {:?} vs redistribute {:?}",
        reconstruct.recovery_time,
        redist.recovery_time
    );
    assert_eq!(reconstruct.work_redistributed, redist.work_redistributed);
}

#[test]
fn explain_attributes_the_delta_to_recovery() {
    let arch = Architecture::active_disks(16);
    let (_, plan) = half_sort_fault(&arch);
    let healthy = Simulation::new(arch.clone()).run(TaskKind::Sort);
    let faulted = Simulation::new(arch)
        .with_seed(42)
        .with_fault_plan(plan)
        .run(TaskKind::Sort);
    let recovery_busy = |r: &howsim::Report| {
        Attribution::from_report(r)
            .resources
            .iter()
            .find(|a| a.resource == Resource::Recovery)
            .map(|a| a.busy)
            .unwrap_or(Duration::ZERO)
    };
    assert_eq!(recovery_busy(&healthy), Duration::ZERO);
    let busy = recovery_busy(&faulted);
    assert!(busy > Duration::ZERO, "recovery lane shows the repair work");
    assert_eq!(busy, faulted.recovery_time);
}

#[test]
fn faulted_runs_are_deterministic_across_repeats_and_backends() {
    let arch = Architecture::active_disks(8);
    let plan = FaultPlan::new()
        .media_burst(1, Duration::from_millis(200), 1_000)
        .disk_fail_stop(5, Duration::from_secs(20))
        .link_fault(2, Duration::from_secs(2), 0.5);
    let mk = |backend| {
        Simulation::new(arch.clone())
            .with_seed(9)
            .with_fault_plan(plan.clone())
            .with_queue_backend(backend)
            .run(TaskKind::Sort)
    };
    let a = mk(QueueBackend::CalendarWheel);
    let b = mk(QueueBackend::CalendarWheel);
    assert_eq!(a, b, "same seed and plan must be field-identical");
    let heap = mk(QueueBackend::BinaryHeap);
    assert_eq!(a, heap, "the queue backend must not leak into results");
    assert_eq!(a.faults_injected, 3);
}

#[test]
fn different_seeds_change_defect_placement_not_determinism() {
    let arch = Architecture::active_disks(4);
    let plan = FaultPlan::new().media_burst(0, Duration::ZERO, 2_000);
    let mk = |seed| {
        Simulation::new(arch.clone())
            .with_seed(seed)
            .with_fault_plan(plan.clone())
            .run(TaskKind::Select)
    };
    assert_eq!(mk(1), mk(1));
    // Different seeds scatter the grown defects differently; the scan
    // cost may or may not coincide, but both runs stay reproducible.
    assert_eq!(mk(2), mk(2));
}

#[test]
fn cluster_and_smp_survive_mid_run_failures() {
    for arch in [Architecture::cluster(8), Architecture::smp(8)] {
        let (healthy, plan) = half_sort_fault(&arch);
        let r = Simulation::new(arch.clone())
            .with_seed(3)
            .with_fault_plan(plan)
            .run(TaskKind::Sort);
        assert!(!r.aborted);
        assert_eq!(r.faults_injected, 1);
        assert!(r.work_redistributed > 0);
        assert!(
            r.elapsed().as_secs_f64() >= healthy.as_secs_f64() * 0.999,
            "{}: degraded {:?} vs healthy {healthy:?}",
            r.architecture,
            r.elapsed()
        );
    }
}

/// The solo fault semantics, pinned: `(elapsed ns, events, aborted,
/// faults_injected)` of each case, captured from `Simulation::run` while
/// solo runs still had a phase loop of their own. Solo runs detect a failure that surfaced before a
/// phase start at that phase's barrier, so `disk:1@0s` costs fewer events
/// than under load and `failstop` aborts at 0.5 s before any event; the
/// pop that crosses a mid-phase abort clock is counted.
#[test]
fn solo_fault_semantics_are_pinned() {
    #[rustfmt::skip]
    let cases = [
        ("active", "select", "disk:1@0s", "redistribute", (161_805_261_572, 130877, false, 1)),
        ("active", "select", "disk:1@0s", "failstop", (500_000_000, 0, true, 1)),
        ("active", "select", "disk:1@5s", "redistribute", (161_189_901_852, 130895, false, 1)),
        ("active", "select", "disk:1@5s", "failstop", (5_500_000_000, 5396, true, 1)),
        ("active", "select", "slow:2@3s:500", "redistribute", (145_664_127_479, 130879, false, 1)),
        ("active", "select", "slow:2@3s:500", "failstop", (145_664_127_479, 130879, false, 1)),
        ("active", "select", "link:1@2s:0.5", "redistribute", (141_815_580_826, 130879, false, 1)),
        ("active", "select", "link:1@2s:0.5", "failstop", (141_815_580_826, 130879, false, 1)),
        ("cluster", "sort", "disk:1@0s", "redistribute", (690_528_272_508, 366238, false, 1)),
        ("cluster", "sort", "disk:1@0s", "failstop", (500_000_000, 0, true, 1)),
        ("cluster", "sort", "disk:1@5s", "redistribute", (685_321_290_318, 366272, false, 1)),
        ("cluster", "sort", "disk:1@5s", "failstop", (5_500_000_000, 6525, true, 1)),
        ("cluster", "sort", "slow:2@3s:500", "redistribute", (462_180_219_856, 366240, false, 1)),
        ("cluster", "sort", "slow:2@3s:500", "failstop", (462_180_219_856, 366240, false, 1)),
        ("cluster", "sort", "link:1@2s:0.5", "redistribute", (540_757_255_381, 366240, false, 1)),
        ("cluster", "sort", "link:1@2s:0.5", "failstop", (540_757_255_381, 366240, false, 1)),
        ("smp", "join", "disk:1@0s", "redistribute", (977_772_874_148, 488302, false, 1)),
        ("smp", "join", "disk:1@0s", "failstop", (500_000_000, 0, true, 1)),
        ("smp", "join", "disk:1@5s", "redistribute", (975_881_602_456, 488311, false, 1)),
        ("smp", "join", "disk:1@5s", "failstop", (5_500_000_000, 4029, true, 1)),
        ("smp", "join", "slow:2@3s:500", "redistribute", (731_930_215_326, 488304, false, 1)),
        ("smp", "join", "slow:2@3s:500", "failstop", (731_930_215_326, 488304, false, 1)),
        ("smp", "join", "link:1@2s:0.5", "redistribute", (742_340_935_166, 488304, false, 1)),
        ("smp", "join", "link:1@2s:0.5", "failstop", (742_340_935_166, 488304, false, 1)),
    ];
    for (arch, task, fault, policy, expected) in cases {
        let arch = match arch {
            "active" => Architecture::active_disks(8),
            "cluster" => Architecture::cluster(8),
            _ => Architecture::smp(8),
        };
        let task = TaskKind::ALL
            .into_iter()
            .find(|t| t.name() == task)
            .unwrap();
        let r = Simulation::new(arch)
            .with_fault_plan(FaultPlan::parse_spec(fault).unwrap())
            .with_recovery(RecoveryPolicy::parse(policy).unwrap())
            .run(task);
        let got = (
            r.elapsed().as_nanos(),
            r.events,
            r.aborted,
            r.faults_injected,
        );
        assert_eq!(got, expected, "{task:?} {fault} {policy}");
    }
}
