//! The one on-disk codec: exact-integer report serialization and the
//! armor shared by every cache tier.
//!
//! Three tiers persist state under the cache directory: `.report`
//! (single-query [`Report`]s), `.load` (multi-query [`LoadReport`]s) and
//! `.ckpt` (paused runs, see [`crate::checkpoint`]). All of them write
//! their bodies with [`simcore::state`]'s `key value` lines — every
//! quantity an integer, so a round trip is field-identical — and a
//! [`PhaseReport`] is encoded by the same function whether it sits in a
//! finished report or in a checkpoint's finished-phase list.
//!
//! Every tier writes and reads its files through one pair of helpers
//! (`write_sealed`/`read_sealed`) that wrap the body in the same armor:
//! a schema line, an FNV-1a checksum over the payload, and the full key
//! material stored verbatim, so a truncated, bit-flipped, stale or
//! colliding entry is a clean miss. Files are published atomically
//! (temp file, then rename).

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use simcore::state::intern;
use simcore::{Duration, Histogram, SimTime, StateError, StateReader, StateWriter};
use tasks::TaskKind;

use crate::manifest::fnv1a64;
use crate::metrics::{Resource, ResourceUsage};
use crate::mqexec::{LoadReport, QueryOutcome, QueryPhase, QueryStatus};
use crate::report::{PhaseReport, Report};

/// Wraps `body` for disk: schema line, checksum over the payload, then
/// the payload (`key <key>` line followed by the body).
fn seal(schema: &str, key: &str, body: &str) -> String {
    let payload = format!("key {key}\n{body}");
    let sum = fnv1a64(payload.as_bytes());
    format!("{schema}\nsum {sum:016x}\n{payload}")
}

/// Verifies text written by [`seal`] under `schema`; returns the stored
/// key and the body. Any corruption is `None`.
fn unseal<'a>(text: &'a str, schema: &str) -> Option<(&'a str, &'a str)> {
    let mut sections = text.splitn(3, '\n');
    if sections.next()? != schema {
        return None;
    }
    let sum = u64::from_str_radix(sections.next()?.strip_prefix("sum ")?, 16).ok()?;
    let payload = sections.next()?;
    if fnv1a64(payload.as_bytes()) != sum {
        return None; // truncated or bit-flipped entry
    }
    let (key_line, body) = payload.split_once('\n')?;
    Some((key_line.strip_prefix("key ")?, body))
}

/// Seals `body` under `schema` and `key` and publishes it at `path`
/// atomically (temp file, then rename), creating the directory. Writers
/// racing on one entry each rename a complete file into place.
pub(crate) fn write_sealed(path: &Path, schema: &str, key: &str, body: &str) -> io::Result<()> {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    if let Some(dir) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        fs::create_dir_all(dir)?;
    }
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp-{}-{seq}", std::process::id()));
    fs::write(&tmp, seal(schema, key, body))?;
    fs::rename(&tmp, path)
}

/// Reads the entry at `path` written by [`write_sealed`] under `schema`
/// and decodes its body, provided `accept` approves the stored key. A
/// missing, unreadable, corrupt or rejected entry is `None`.
pub(crate) fn read_sealed<T>(
    path: &Path,
    schema: &str,
    accept: impl FnOnce(&str) -> bool,
    decode: impl FnOnce(&str) -> Option<T>,
) -> Option<T> {
    let text = fs::read_to_string(path).ok()?;
    let (key, body) = unseal(&text, schema)?;
    if !accept(key) {
        return None; // hash collision or a different configuration
    }
    decode(body)
}

fn nanos(r: &mut StateReader<'_>, key: &str) -> Result<Duration, StateError> {
    Ok(Duration::from_nanos(r.num(key)?))
}

/// Splits a `<ns> <name>` value (the name is the rest of the line, so
/// names with spaces survive the round trip).
fn ns_and_name<'a>(key: &str, rest: &'a str) -> Result<(u64, &'a str), StateError> {
    let (ns, name) = rest
        .split_once(' ')
        .ok_or_else(|| StateError::new(format!("{key}: expected `<ns> <name>`")))?;
    let ns = ns
        .parse()
        .map_err(|_| StateError::new(format!("{key}: bad nanoseconds")))?;
    Ok((ns, name))
}

/// Reads a `<key> <n>` count line, then `n` items with `item`.
fn counted<T, C: FromIterator<T>>(
    r: &mut StateReader<'_>,
    key: &str,
    mut item: impl FnMut(&mut StateReader<'_>) -> Result<T, StateError>,
) -> Result<C, StateError> {
    let n: usize = r.num(key)?;
    (0..n).map(|_| item(r)).collect()
}

/// Writes a per-tag CPU time map: a `tags` count, then `tag <ns> <name>`.
pub(crate) fn save_tag_map(map: &BTreeMap<&'static str, Duration>, w: &mut StateWriter) {
    w.field("tags", map.len());
    for (tag, d) in map {
        w.str_field("tag", &format!("{} {}", d.as_nanos(), tag));
    }
}

/// Reads a map written by [`save_tag_map`].
pub(crate) fn load_tag_map(
    r: &mut StateReader<'_>,
) -> Result<BTreeMap<&'static str, Duration>, StateError> {
    counted(r, "tags", |r| {
        let (ns, tag) = ns_and_name("tag", r.field("tag")?)?;
        Ok((intern(tag), Duration::from_nanos(ns)))
    })
}

/// Writes per-resource usage: a `resources` count, then
/// `res <key> <busy_ns> <wait_ns> <lanes>` lines.
pub(crate) fn save_resources(resources: &[ResourceUsage], w: &mut StateWriter) {
    w.field("resources", resources.len());
    for u in resources {
        w.str_field(
            "res",
            &format!(
                "{} {} {} {}",
                u.resource.key(),
                u.busy.as_nanos(),
                u.wait.as_nanos(),
                u.lanes
            ),
        );
    }
}

/// Reads usage written by [`save_resources`].
pub(crate) fn load_resources(r: &mut StateReader<'_>) -> Result<Vec<ResourceUsage>, StateError> {
    counted(r, "resources", |r| {
        let bad = || StateError::new("res: expected `<resource> <busy> <wait> <lanes>`");
        let parts: Vec<&str> = r.field("res")?.split(' ').collect();
        let [key, busy, wait, lanes] = parts[..] else {
            return Err(bad());
        };
        Ok(ResourceUsage {
            resource: Resource::from_key(key)
                .ok_or_else(|| StateError::new(format!("res: unknown resource `{key}`")))?,
            busy: Duration::from_nanos(busy.parse().map_err(|_| bad())?),
            wait: Duration::from_nanos(wait.parse().map_err(|_| bad())?),
            lanes: lanes.parse().map_err(|_| bad())?,
        })
    })
}

/// Writes one [`PhaseReport`] — the encoding shared by `.report`
/// entries and checkpoints' finished phases.
pub(crate) fn save_phase_report(p: &PhaseReport, w: &mut StateWriter) {
    w.str_field("phase", p.name);
    w.field("elapsed_ns", p.elapsed.as_nanos());
    w.field("cpu_busy_ns", p.cpu_busy_total.as_nanos());
    w.field("disk_busy_ns", p.disk_busy_total.as_nanos());
    w.field("interconnect_bytes", p.interconnect_bytes);
    w.field("frontend_bytes", p.frontend_bytes);
    w.field("nodes", p.nodes);
    save_tag_map(&p.cpu_busy_by_tag, w);
    save_resources(&p.resources, w);
}

/// Reads a phase written by [`save_phase_report`].
pub(crate) fn load_phase_report(r: &mut StateReader<'_>) -> Result<PhaseReport, StateError> {
    Ok(PhaseReport {
        name: intern(r.field("phase")?),
        elapsed: nanos(r, "elapsed_ns")?,
        cpu_busy_total: nanos(r, "cpu_busy_ns")?,
        disk_busy_total: nanos(r, "disk_busy_ns")?,
        interconnect_bytes: r.num("interconnect_bytes")?,
        frontend_bytes: r.num("frontend_bytes")?,
        nodes: r.num("nodes")?,
        cpu_busy_by_tag: load_tag_map(r)?,
        resources: load_resources(r)?,
    })
}

/// Serializes a [`Report`] as the body of a `.report` entry. Every
/// field is an exact integer, so the round trip through
/// [`report_from_cache`] is field-identical and re-encoding is stable.
pub fn report_to_cache(report: &Report) -> String {
    let mut w = StateWriter::new();
    w.str_field("task", report.task);
    w.str_field("arch", report.architecture);
    w.field("disks", report.disks);
    w.field("events", report.events);
    w.field("faults_injected", report.faults_injected);
    w.field("recovery_ns", report.recovery_time.as_nanos());
    w.field("work_redistributed", report.work_redistributed);
    w.field("aborted", u8::from(report.aborted));
    w.field("downtime_ns", report.downtime.as_nanos());
    let h = &report.disk_service;
    w.field("hist_total_ns", h.total().as_nanos());
    w.field("hist_max_ns", h.max().as_nanos());
    w.list("hist_buckets", h.bucket_counts());
    w.field("phases", report.phases.len());
    for p in &report.phases {
        save_phase_report(p, &mut w);
    }
    w.finish()
}

/// Parses [`report_to_cache`] output. Strict: any missing, reordered,
/// malformed or trailing line is an error, so a stale or corrupt entry
/// is rejected rather than misread.
pub fn report_from_cache(text: &str) -> Result<Report, StateError> {
    let r = &mut StateReader::new(text);
    let report = Report {
        task: intern(r.field("task")?),
        architecture: intern(r.field("arch")?),
        disks: r.num("disks")?,
        events: r.num("events")?,
        faults_injected: r.num("faults_injected")?,
        recovery_time: nanos(r, "recovery_ns")?,
        work_redistributed: r.num("work_redistributed")?,
        aborted: r.flag("aborted")?,
        downtime: nanos(r, "downtime_ns")?,
        disk_service: {
            let (total, max) = (nanos(r, "hist_total_ns")?, nanos(r, "hist_max_ns")?);
            Histogram::from_raw(r.array("hist_buckets")?, total, max)
        },
        phases: counted(r, "phases", load_phase_report)?,
    };
    r.expect_done()?;
    Ok(report)
}

/// Serializes a [`LoadReport`] as the body of a `.load` entry (exact
/// integers and verbatim strings, like [`report_to_cache`]).
pub fn load_report_to_cache(report: &LoadReport) -> String {
    let mut w = StateWriter::new();
    w.str_field("arch", report.architecture);
    w.field("disks", report.disks);
    w.str_field("workload", &report.workload);
    w.str_field("admission", &report.admission);
    w.str_field("deadline", &report.deadline);
    w.field("elapsed_ns", report.elapsed.as_nanos());
    w.field("events", report.events);
    w.field("faults_injected", report.faults_injected);
    w.field("work_redistributed", report.work_redistributed);
    w.field("downtime_ns", report.downtime.as_nanos());
    w.field("queries", report.outcomes.len());
    for o in &report.outcomes {
        w.field("query", o.query);
        w.str_field("qtask", o.task.name());
        w.str_field("status", o.status.name());
        w.field("arrival_ns", o.arrival.as_nanos());
        match o.started {
            Some(t) => w.field("started_ns", t.as_nanos()),
            None => w.field("started_ns", "none"),
        }
        w.field("finished_ns", o.finished.as_nanos());
        w.field("retries", o.retries);
        w.field("timeouts", o.timeouts);
        w.field("qevents", o.events);
        w.field("qphases", o.phases.len());
        for p in &o.phases {
            w.str_field("qphase", &format!("{} {}", p.elapsed.as_nanos(), p.name));
        }
    }
    w.finish()
}

fn load_outcome(r: &mut StateReader<'_>) -> Result<QueryOutcome, StateError> {
    let unknown = |what: &str, name: &str| StateError::new(format!("unknown {what} `{name}`"));
    let task = |name: &str| TaskKind::ALL.into_iter().find(|k| k.name() == name);
    Ok(QueryOutcome {
        query: r.num("query")?,
        task: r
            .field("qtask")
            .and_then(|name| task(name).ok_or_else(|| unknown("task", name)))?,
        status: r
            .field("status")
            .and_then(|name| QueryStatus::parse(name).ok_or_else(|| unknown("status", name)))?,
        arrival: SimTime::from_nanos(r.num("arrival_ns")?),
        started: match r.field("started_ns")? {
            "none" => None,
            ns => Some(SimTime::from_nanos(
                ns.parse().map_err(|_| unknown("start time", ns))?,
            )),
        },
        finished: SimTime::from_nanos(r.num("finished_ns")?),
        retries: r.num("retries")?,
        timeouts: r.num("timeouts")?,
        events: r.num("qevents")?,
        phases: counted(r, "qphases", |r| {
            let (ns, name) = ns_and_name("qphase", r.field("qphase")?)?;
            Ok(QueryPhase {
                name: intern(name),
                elapsed: Duration::from_nanos(ns),
            })
        })?,
    })
}

/// Parses [`load_report_to_cache`] output; strict like
/// [`report_from_cache`].
pub fn load_report_from_cache(text: &str) -> Result<LoadReport, StateError> {
    let r = &mut StateReader::new(text);
    let report = LoadReport {
        architecture: intern(r.field("arch")?),
        disks: r.num("disks")?,
        workload: r.field("workload")?.to_string(),
        admission: r.field("admission")?.to_string(),
        deadline: r.field("deadline")?.to_string(),
        elapsed: nanos(r, "elapsed_ns")?,
        events: r.num("events")?,
        faults_injected: r.num("faults_injected")?,
        work_redistributed: r.num("work_redistributed")?,
        downtime: nanos(r, "downtime_ns")?,
        outcomes: counted(r, "queries", load_outcome)?,
    };
    r.expect_done()?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;
    use std::sync::OnceLock;

    use arch::Architecture;
    use proptest::prelude::*;
    use tasks::{plan_task, TaskPlan};

    use super::*;
    use crate::cache::{LOAD_SCHEMA, SCHEMA as REPORT_SCHEMA};
    use crate::checkpoint;
    use crate::exec::Simulation;
    use crate::faults::FaultPlan;
    use crate::workload::{AdmissionPolicy, DeadlinePolicy, WorkloadSpec};

    /// `.report` body of the faulted run in `report_bytes_are_pinned`, as
    /// written by the hand-rolled encoder this codec replaced: existing
    /// cache entries must keep hitting.
    const GOLDEN_REPORT: &str = "\
task select
arch Active
disks 2
events 130878
faults_injected 1
recovery_ns 8819842955430
work_redistributed 8560009216
aborted 0
downtime_ns 1132284009782
hist_total_ns 1134522650733
hist_max_ns 32106260
hist_buckets 0 0 0 0 0 0 0 0 0 0 0 0 0 0 12962 53138 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0
phases 1
phase scan
elapsed_ns 1133284009782
cpu_busy_ns 475596847715
disk_busy_ns 1134522650733
interconnect_bytes 0
frontend_bytes 64
nodes 2
tags 3
tag 472941157228 filter
tag 17647 net-send
tag 2655672840 os
resources 6
res disk_media 1134522650733 16723351182063 2
res worker_cpu 475596847715 0 2
res front_end_cpu 0 0 1
res interconnect 8674 0 2
res front_end_link 640 0 1
res recovery 8819842955430 0 1
";

    /// `.load` body of the run in `load_report_bytes_are_pinned`, pinned the
    /// same way: one query completes, one retries after a timeout, one is shed.
    const GOLDEN_LOAD: &str = "\
arch Active
disks 2
workload poisson:0.5:3@5 mix=select:1
admission 1:1
deadline 600s:1:1s
elapsed_ns 1172440716450
events 270109
faults_injected 0
work_redistributed 0
downtime_ns 0
queries 3
query 0
qtask select
status completed
arrival_ns 2494033447
started_ns 2494033447
finished_ns 569695852979
retries 0
timeouts 0
qevents 130863
qphases 1
qphase 567201819532 scan
query 1
qtask select
status completed
arrival_ns 3913183705
started_ns 569695852979
finished_ns 1172440716450
retries 1
timeouts 1
qevents 139237
qphases 1
qphase 567154641866 scan
query 2
qtask select
status shed
arrival_ns 7946174138
started_ns none
finished_ns 7946174138
retries 0
timeouts 0
qevents 0
qphases 0
";

    #[test]
    fn report_bytes_are_pinned() {
        let report = Simulation::new(Architecture::active_disks(2))
            .with_seed(7)
            .with_fault_plan(FaultPlan::parse_spec("disk:1@1s").unwrap())
            .run(TaskKind::Select);
        assert_eq!(report_to_cache(&report), GOLDEN_REPORT);
        assert_eq!(report_from_cache(GOLDEN_REPORT).unwrap(), report);
    }

    #[test]
    fn load_report_bytes_are_pinned() {
        let workload = WorkloadSpec::poisson(0.5, 3)
            .with_mix(vec![(TaskKind::Select, 1)])
            .with_seed(5);
        let admission = AdmissionPolicy {
            max_concurrent: 1,
            queue_limit: 1,
        };
        let deadline = DeadlinePolicy {
            deadline: Some(Duration::from_secs(600)),
            max_retries: 1,
            backoff: Duration::from_secs(1),
        };
        let report = Simulation::new(Architecture::active_disks(2))
            .with_seed(3)
            .run_workload(&workload, admission, deadline);
        assert_eq!(load_report_to_cache(&report), GOLDEN_LOAD);
        assert_eq!(load_report_from_cache(GOLDEN_LOAD).unwrap(), report);
    }

    #[test]
    fn strict_decoders_reject_malformed_bodies() {
        assert!(report_from_cache("").is_err());
        assert!(report_from_cache("task x\n").is_err());
        let half = &GOLDEN_REPORT[..GOLDEN_REPORT.len() / 2];
        assert!(report_from_cache(half).is_err());
        assert!(report_from_cache(&format!("{GOLDEN_REPORT}junk trailing\n")).is_err());
        let aborted = GOLDEN_REPORT.replace("aborted 0", "aborted 2");
        assert!(report_from_cache(&aborted).is_err());
        let bucket = GOLDEN_REPORT.replace("hist_buckets 0 ", "hist_buckets ");
        assert!(report_from_cache(&bucket).is_err(), "63 buckets");
        assert!(load_report_from_cache(&GOLDEN_LOAD.replace("shed", "lost")).is_err());
        assert!(load_report_from_cache(&format!("{GOLDEN_LOAD}x\n")).is_err());
    }

    /// A paused run's `.ckpt` file, and what reading it back needs.
    fn checkpoint_fixture() -> &'static (String, Simulation, TaskPlan) {
        static FIXTURE: OnceLock<(String, Simulation, TaskPlan)> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let arch = Architecture::active_disks(2);
            let plan = plan_task(TaskKind::Select, &arch);
            let sim = Simulation::new(arch);
            let mut run = sim.start(&plan);
            run.run_until(SimTime::from_nanos(500_000_000_000));
            let path = scratch_file("fixture");
            checkpoint::write_file(&path, &sim, &plan, run.paused_at(), &run).unwrap();
            let text = fs::read_to_string(&path).unwrap();
            let _ = fs::remove_file(&path);
            (text, sim, plan)
        })
    }

    fn scratch_file(case: &str) -> PathBuf {
        let thread = std::thread::current()
            .name()
            .unwrap_or("t")
            .replace(':', "_");
        std::env::temp_dir().join(format!(
            "howsim-codec-{}-{thread}-{case}",
            std::process::id()
        ))
    }

    /// The three valid entries: `.report`, `.load` and `.ckpt`.
    fn entries() -> [String; 3] {
        [
            seal(REPORT_SCHEMA, "r", GOLDEN_REPORT),
            seal(LOAD_SCHEMA, "l", GOLDEN_LOAD),
            checkpoint_fixture().0.clone(),
        ]
    }

    /// Reads `bytes` back as a file through every tier's reader; returns
    /// how many tiers hit.
    fn hits(bytes: &[u8]) -> usize {
        let (_, sim, plan) = checkpoint_fixture();
        let path = scratch_file("case");
        fs::write(&path, bytes).unwrap();
        let report = read_sealed(
            &path,
            REPORT_SCHEMA,
            |k| k == "r",
            |b| report_from_cache(b).ok(),
        );
        let load = read_sealed(
            &path,
            LOAD_SCHEMA,
            |k| k == "l",
            |b| load_report_from_cache(b).ok(),
        );
        let ckpt = checkpoint::read_file(&path, sim, plan);
        let _ = fs::remove_file(&path);
        usize::from(report.is_some()) + usize::from(load.is_some()) + usize::from(ckpt.is_some())
    }

    #[test]
    fn intact_entries_hit_only_their_own_tier() {
        for entry in entries() {
            assert_eq!(hits(entry.as_bytes()), 1);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes and single-byte flips or truncations of valid
        /// entries are clean misses in every tier, never a panic; the bare
        /// body decoders survive mutated bodies too (a mutated body may
        /// still decode, since only the armor's checksum can tell).
        #[test]
        fn corrupt_entries_are_clean_misses(
            noise in proptest::collection::vec(0u8..=255, 0..400),
            tier in 0usize..3,
            pos in 0usize..1_000_000,
            mask in 1u8..=255,
        ) {
            prop_assert!(report_from_cache(&String::from_utf8_lossy(&noise)).is_err());
            prop_assert!(load_report_from_cache(&String::from_utf8_lossy(&noise)).is_err());
            prop_assert_eq!(hits(&noise), 0);

            let valid = entries()[tier].clone().into_bytes();
            let mut flipped = valid.clone();
            flipped[pos % valid.len()] ^= mask;
            prop_assert_eq!(hits(&flipped), 0);
            prop_assert_eq!(hits(&valid[..pos % valid.len()]), 0);

            let (mut body, cut) = (GOLDEN_REPORT.as_bytes().to_vec(), pos % GOLDEN_REPORT.len());
            body[cut] ^= mask;
            let _ = report_from_cache(&String::from_utf8_lossy(&body));
            let _ = report_from_cache(&GOLDEN_REPORT[..cut]);
            let (mut body, cut) = (GOLDEN_LOAD.as_bytes().to_vec(), pos % GOLDEN_LOAD.len());
            body[cut] ^= mask;
            let _ = load_report_from_cache(&String::from_utf8_lossy(&body));
            let _ = load_report_from_cache(&GOLDEN_LOAD[..cut]);
        }
    }
}
