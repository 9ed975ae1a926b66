//! Seeded workload generation and robustness policies for loaded runs.
//!
//! A [`WorkloadSpec`] describes a stream of queries over the eight DSS
//! tasks: an arrival process (open-loop Poisson or closed-loop), a task
//! mix, a query count, and a seed. Generation is fully deterministic —
//! the same spec always yields the same task sequence and arrival times,
//! which is what lets loaded runs stay byte-identical across `--jobs`,
//! queue backends, and cache states (the spec is part of the cache key).
//!
//! [`AdmissionPolicy`] bounds concurrency with an explicit wait queue
//! (overflow is *counted* load shedding, never a silent drop) and
//! [`DeadlinePolicy`] gives each query a deadline with seeded
//! exponential backoff and bounded retries.

use simcore::{Duration, SimTime, SplitMix64};
use tasks::TaskKind;

/// How queries arrive at the system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Open loop: exponentially distributed inter-arrival times at
    /// `qps` queries per second, independent of completions.
    Poisson {
        /// Mean arrival rate in queries per second (must be positive).
        qps: f64,
    },
    /// Closed loop: `clients` queries are in flight from time zero; each
    /// completion immediately admits the next query in the sequence.
    Closed {
        /// Number of concurrent clients (must be positive).
        clients: u32,
    },
}

/// A deterministic query workload: arrival process, task mix, count, seed.
///
/// # Example
///
/// ```
/// use howsim::workload::WorkloadSpec;
///
/// let w = WorkloadSpec::parse_spec("poisson:0.5:24@7", "select:2,join:1").unwrap();
/// assert_eq!(w.queries, 24);
/// assert_eq!(w.summary(), "poisson:0.5:24@7 mix=select:2,join:1");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// The arrival process.
    pub arrival: ArrivalProcess,
    /// Task mix as `(task, weight)` pairs (weights need not sum to
    /// anything in particular; zero-weight entries are rejected).
    pub mix: Vec<(TaskKind, u32)>,
    /// Total number of queries generated.
    pub queries: u32,
    /// Seed of the generator streams (task draws, inter-arrival times).
    pub seed: u64,
}

/// Parses a task name as used in mix specs (`select`, `join`, ...).
fn parse_task(name: &str) -> Result<TaskKind, String> {
    TaskKind::ALL
        .into_iter()
        .find(|t| t.name() == name)
        .ok_or_else(|| {
            let names: Vec<&str> = TaskKind::ALL.iter().map(|t| t.name()).collect();
            format!(
                "unknown task '{name}' (expected one of {})",
                names.join(", ")
            )
        })
}

/// The latest simulated clock a spec may ask for: 10^9 s (about 32
/// years). Every duration, deadline-and-backoff chain and generated
/// arrival a spec describes must fit under it, which keeps all clock
/// arithmetic far from `u64` nanosecond overflow.
pub const SPEC_HORIZON: Duration = Duration::from_secs(1_000_000_000);

/// The most queries a `--load` spec may generate, and the largest
/// `--admission` bound (`max_concurrent` or `queue_limit`) it may set:
/// 100 000. Every query carries its own executor state, so a typo'd
/// count would otherwise walk billions of arrival clocks and reserve
/// gigabytes before the first event; no study in this repository comes
/// within three orders of magnitude of it.
pub const MAX_QUERIES: u32 = 100_000;

/// The error for a spec whose clocks reach past [`SPEC_HORIZON`].
pub(crate) fn beyond_horizon(what: &str) -> String {
    format!(
        "{what} reaches beyond the {}s simulated-time horizon",
        SPEC_HORIZON.as_secs_f64()
    )
}

/// Parses a duration literal: `<n>ns`, `<n>us`, `<n>ms`, or `<x>s`, at
/// most [`SPEC_HORIZON`].
pub fn parse_duration(s: &str) -> Result<Duration, String> {
    let err = || format!("bad duration '{s}' (expected e.g. 120s, 250ms, 10us, 500ns)");
    let units = [("ns", 1u64), ("us", 1_000), ("ms", 1_000_000)];
    let d = if let Some((v, unit)) = units
        .iter()
        .find_map(|&(suffix, unit)| s.strip_suffix(suffix).map(|v| (v, unit)))
    {
        let n: u64 = v.parse().map_err(|_| err())?;
        n.checked_mul(unit).map(Duration::from_nanos)
    } else if let Some(v) = s.strip_suffix('s') {
        let secs: f64 = v.parse().map_err(|_| err())?;
        if !(secs >= 0.0 && secs.is_finite()) {
            return Err(err());
        }
        (secs <= SPEC_HORIZON.as_secs_f64()).then(|| Duration::from_secs_f64(secs))
    } else {
        return Err(err());
    };
    d.filter(|&d| d <= SPEC_HORIZON)
        .ok_or_else(|| beyond_horizon(&format!("duration '{s}'")))
}

/// Renders a duration the way specs write them (integer nanoseconds
/// folded up to the coarsest exact unit), so summaries round-trip.
pub(crate) fn duration_spec(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns == 0 {
        return "0s".into();
    }
    if ns.is_multiple_of(1_000_000_000) {
        format!("{}s", ns / 1_000_000_000)
    } else if ns.is_multiple_of(1_000_000) {
        format!("{}ms", ns / 1_000_000)
    } else if ns.is_multiple_of(1_000) {
        format!("{}us", ns / 1_000)
    } else {
        format!("{ns}ns")
    }
}

impl WorkloadSpec {
    /// An open-loop Poisson workload of `queries` single-task queries.
    pub fn poisson(qps: f64, queries: u32) -> Self {
        WorkloadSpec {
            arrival: ArrivalProcess::Poisson { qps },
            mix: vec![(TaskKind::Select, 1)],
            queries,
            seed: 0,
        }
    }

    /// A closed-loop workload of `queries` queries from `clients`
    /// concurrent clients.
    pub fn closed(clients: u32, queries: u32) -> Self {
        WorkloadSpec {
            arrival: ArrivalProcess::Closed { clients },
            mix: vec![(TaskKind::Select, 1)],
            queries,
            seed: 0,
        }
    }

    /// Replaces the task mix.
    #[must_use]
    pub fn with_mix(mut self, mix: Vec<(TaskKind, u32)>) -> Self {
        self.mix = mix;
        self
    }

    /// Replaces the generator seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Parses the CLI form: `--load` is
    /// `poisson:<qps>:<queries>[@seed]` or `closed:<clients>:<queries>[@seed]`,
    /// and `--mix` is `all`, a comma list of task names, or weighted
    /// entries `name:weight` (e.g. `select:2,join:1`).
    pub fn parse_spec(load: &str, mix: &str) -> Result<Self, String> {
        let (head, seed) = match load.split_once('@') {
            Some((h, s)) => (
                h,
                s.parse::<u64>()
                    .map_err(|_| format!("bad seed in load spec '{load}'"))?,
            ),
            None => (load, 0),
        };
        let parts: Vec<&str> = head.split(':').collect();
        let arrival = match parts.as_slice() {
            ["poisson", qps, _] => {
                let qps: f64 = qps
                    .parse()
                    .map_err(|_| format!("bad rate in load spec '{load}'"))?;
                if !(qps > 0.0 && qps.is_finite()) {
                    return Err(format!("arrival rate must be positive, got {qps}"));
                }
                ArrivalProcess::Poisson { qps }
            }
            ["closed", clients, _] => {
                let clients: u32 = clients
                    .parse()
                    .map_err(|_| format!("bad client count in load spec '{load}'"))?;
                if clients == 0 {
                    return Err("closed-loop workload needs at least one client".into());
                }
                ArrivalProcess::Closed { clients }
            }
            _ => {
                return Err(format!(
                    "bad load spec '{load}' (expected poisson:<qps>:<queries>[@seed] \
                     or closed:<clients>:<queries>[@seed])"
                ))
            }
        };
        let queries: u32 = parts[2]
            .parse()
            .map_err(|_| format!("bad query count in load spec '{load}'"))?;
        if queries == 0 {
            return Err("workload needs at least one query".into());
        }
        if queries > MAX_QUERIES {
            return Err(format!(
                "load spec '{load}' asks for {queries} queries; the limit is {MAX_QUERIES}"
            ));
        }
        let mix = Self::parse_mix(mix)?;
        let spec = WorkloadSpec {
            arrival,
            mix,
            queries,
            seed,
        };
        // Arrival clocks only grow: the last one bounds them all.
        match spec.arrival_secs().last() {
            Some(last) if last > SPEC_HORIZON.as_secs_f64() => Err(beyond_horizon(&format!(
                "load spec '{load}' (last arrival at {last:e} s)"
            ))),
            _ => Ok(spec),
        }
    }

    /// Parses a `--mix` string (see [`WorkloadSpec::parse_spec`]).
    pub fn parse_mix(mix: &str) -> Result<Vec<(TaskKind, u32)>, String> {
        if mix == "all" {
            return Ok(TaskKind::ALL.into_iter().map(|t| (t, 1)).collect());
        }
        let mut out = Vec::new();
        for entry in mix.split(',') {
            let (name, weight) = match entry.split_once(':') {
                Some((n, w)) => (
                    n,
                    w.parse::<u32>()
                        .map_err(|_| format!("bad weight in mix entry '{entry}'"))?,
                ),
                None => (entry, 1),
            };
            if weight == 0 {
                return Err(format!("mix entry '{entry}' has zero weight"));
            }
            out.push((parse_task(name)?, weight));
        }
        if out.is_empty() {
            return Err("empty task mix".into());
        }
        Ok(out)
    }

    /// Canonical one-line form; `parse_spec` round-trips it (the part
    /// before `mix=` is the `--load` argument, the part after is
    /// `--mix`). Also the workload's contribution to the cache key.
    pub fn summary(&self) -> String {
        let head = match self.arrival {
            ArrivalProcess::Poisson { qps } => format!("poisson:{qps}:{}", self.queries),
            ArrivalProcess::Closed { clients } => format!("closed:{clients}:{}", self.queries),
        };
        let mix = self
            .mix
            .iter()
            .map(|(t, w)| format!("{}:{w}", t.name()))
            .collect::<Vec<_>>()
            .join(",");
        format!("{head}@{} mix={mix}", self.seed)
    }

    /// The deterministic task sequence: one seeded draw from the mix per
    /// query.
    pub fn tasks(&self) -> Vec<TaskKind> {
        let mut rng = SplitMix64::new(self.seed);
        let total: u64 = self.mix.iter().map(|&(_, w)| u64::from(w)).sum();
        (0..self.queries)
            .map(|_| {
                let mut pick = rng.next_below(total);
                for &(task, w) in &self.mix {
                    if pick < u64::from(w) {
                        return task;
                    }
                    pick -= u64::from(w);
                }
                self.mix.last().expect("non-empty mix").0
            })
            .collect()
    }

    /// The deterministic arrival times. Poisson workloads draw seeded
    /// exponential inter-arrival gaps (inverse CDF); closed-loop
    /// workloads arrive at time zero — the executor gates them on
    /// completions instead.
    pub fn arrival_times(&self) -> Vec<SimTime> {
        self.arrival_secs()
            .map(|secs| SimTime::ZERO + Duration::from_secs_f64(secs))
            .collect()
    }

    /// The arrival clocks in seconds, before rounding to nanoseconds.
    fn arrival_secs(&self) -> impl Iterator<Item = f64> {
        // Independent stream from the task draws, so changing the mix
        // never reshuffles arrival times.
        let mut rng = SplitMix64::new(self.seed).split();
        let mut clock = 0.0f64;
        let qps = match self.arrival {
            ArrivalProcess::Poisson { qps } => Some(qps),
            ArrivalProcess::Closed { .. } => None,
        };
        (0..self.queries).map(move |_| match qps {
            Some(qps) => {
                let u = rng.next_f64();
                clock += -(1.0 - u).ln() / qps;
                clock
            }
            None => 0.0,
        })
    }
}

/// Bounded-concurrency admission control. Queries beyond
/// `max_concurrent` wait in a FIFO queue of depth `queue_limit`; a query
/// arriving when the queue is full is *shed* — rejected immediately,
/// counted in the load report, never silently dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Queries executing concurrently on the machine.
    pub max_concurrent: usize,
    /// Admitted queries waiting for an execution slot.
    pub queue_limit: usize,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            max_concurrent: 4,
            queue_limit: 16,
        }
    }
}

impl AdmissionPolicy {
    /// Parses the CLI form `<max_concurrent>:<queue_limit>`; neither may
    /// exceed [`MAX_QUERIES`].
    pub fn parse_spec(s: &str) -> Result<Self, String> {
        let err = || format!("bad admission spec '{s}' (expected <max_concurrent>:<queue_limit>)");
        let (c, q) = s.split_once(':').ok_or_else(err)?;
        let max_concurrent: usize = c.parse().map_err(|_| err())?;
        let queue_limit: usize = q.parse().map_err(|_| err())?;
        if max_concurrent == 0 {
            return Err("admission control needs max_concurrent >= 1".into());
        }
        if max_concurrent.max(queue_limit) > MAX_QUERIES as usize {
            return Err(format!(
                "admission spec '{s}' exceeds the {MAX_QUERIES}-query limit"
            ));
        }
        Ok(AdmissionPolicy {
            max_concurrent,
            queue_limit,
        })
    }

    /// Canonical form; `parse_spec` round-trips it.
    pub fn summary(&self) -> String {
        format!("{}:{}", self.max_concurrent, self.queue_limit)
    }
}

/// Per-query deadline, retry, and backoff policy. A query that misses
/// its deadline is cancelled; if retries remain it restarts after a
/// seeded exponential backoff, otherwise it aborts with a partial
/// report (completed phases are kept).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlinePolicy {
    /// Deadline per attempt (`None` disables timeouts entirely). The
    /// first attempt's clock starts at arrival (queue wait counts);
    /// retries get a fresh full deadline from their restart.
    pub deadline: Option<Duration>,
    /// Retries after the first attempt times out.
    pub max_retries: u32,
    /// Base backoff; attempt `k` waits `backoff * 2^k` plus seeded
    /// jitter of up to 50%.
    pub backoff: Duration,
}

impl Default for DeadlinePolicy {
    fn default() -> Self {
        DeadlinePolicy {
            deadline: None,
            max_retries: 0,
            backoff: Duration::from_secs(10),
        }
    }
}

impl DeadlinePolicy {
    /// Parses the CLI form: `none`, `<deadline>`, or
    /// `<deadline>:<retries>:<backoff>` (e.g. `120s:2:5s`). A policy
    /// whose longest chain of attempts and backoffs reaches past
    /// [`SPEC_HORIZON`] is rejected.
    pub fn parse_spec(s: &str) -> Result<Self, String> {
        let parts: Vec<&str> = s.split(':').collect();
        let policy = match parts.as_slice() {
            ["none"] => DeadlinePolicy::default(),
            [d] => DeadlinePolicy {
                deadline: Some(parse_duration(d)?),
                ..DeadlinePolicy::default()
            },
            [d, r, b] => DeadlinePolicy {
                deadline: Some(parse_duration(d)?),
                max_retries: r
                    .parse()
                    .map_err(|_| format!("bad retry count in deadline spec '{s}'"))?,
                backoff: parse_duration(b)?,
            },
            _ => {
                return Err(format!(
                    "bad deadline spec '{s}' (expected none, <deadline>, or \
                     <deadline>:<retries>:<backoff>)"
                ))
            }
        };
        if policy.longest_chain_secs() > SPEC_HORIZON.as_secs_f64() {
            return Err(beyond_horizon(&format!("deadline spec '{s}'")));
        }
        Ok(policy)
    }

    /// Upper bound of the simulated time one query can spend on
    /// deadlines and backoffs: every attempt runs out its deadline and
    /// every retry waits its longest jittered backoff (see
    /// [`DeadlinePolicy::backoff_for`]).
    fn longest_chain_secs(&self) -> f64 {
        let Some(deadline) = self.deadline else {
            return 0.0;
        };
        let retries = f64::from(self.max_retries);
        let doubling = self.max_retries.min(21) as i32;
        let factor_sum =
            2f64.powi(doubling) - 1.0 + (retries - f64::from(doubling)) * 2f64.powi(20);
        (retries + 1.0) * deadline.as_secs_f64() + 1.5 * factor_sum * self.backoff.as_secs_f64()
    }

    /// Canonical form; `parse_spec` round-trips it.
    pub fn summary(&self) -> String {
        match self.deadline {
            None => "none".into(),
            Some(d) => format!(
                "{}:{}:{}",
                duration_spec(d),
                self.max_retries,
                duration_spec(self.backoff)
            ),
        }
    }

    /// The seeded backoff before retry attempt `attempt` (1-based):
    /// `backoff * 2^(attempt-1)` plus up to 50% jitter drawn from `rng`.
    pub(crate) fn backoff_for(&self, attempt: u32, rng: &mut SplitMix64) -> Duration {
        let doubled = self.backoff * (1u64 << (attempt - 1).min(20));
        doubled + doubled.scale(0.5 * rng.next_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use proptest::prelude::*;

    /// Spec fragments the generated strings are built from: every
    /// separator and unit, keywords, and numbers at the edges of `u64`,
    /// `f64` and the horizon.
    const TOKENS: [&str; 28] = [
        ":",
        "@",
        ",",
        ".",
        "-",
        "e",
        "s",
        "ms",
        "us",
        "ns",
        "0",
        "1",
        "3",
        "9",
        "1e9",
        "1e30",
        "1e-300",
        "18446744073709551615",
        "inf",
        "NaN",
        "poisson",
        "closed",
        "none",
        "select",
        "disk",
        "slow",
        "link",
        "x",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every spec parser returns `Err` or a value on any string,
        /// never a panic, and a value it returns keeps its clocks under
        /// the horizon.
        #[test]
        fn spec_parsers_never_panic(
            picks in proptest::collection::vec(0usize..TOKENS.len(), 0..12),
            raw in proptest::collection::vec(0u8..=255, 0..12),
        ) {
            let spec: String = picks.iter().map(|&i| TOKENS[i]).collect();
            let noise = String::from_utf8_lossy(&raw).into_owned();
            for s in [spec.as_str(), noise.as_str()] {
                if let Ok(d) = parse_duration(s) {
                    prop_assert!(d <= SPEC_HORIZON);
                }
                if let Ok(dl) = DeadlinePolicy::parse_spec(s) {
                    prop_assert!(dl.longest_chain_secs() <= SPEC_HORIZON.as_secs_f64());
                }
                if let Ok(w) = WorkloadSpec::parse_spec(s, "select") {
                    let horizon = SimTime::ZERO + SPEC_HORIZON;
                    prop_assert!(w.arrival_times().iter().all(|&t| t <= horizon));
                }
                let _ = AdmissionPolicy::parse_spec(s);
                let _ = FaultPlan::parse_spec(s);
            }
        }
    }

    #[test]
    fn load_spec_round_trips() {
        for (load, mix) in [
            ("poisson:0.5:24@7", "select:2,join:1"),
            ("closed:4:100@0", "sort:1"),
            ("poisson:12:3@999", "select:1,aggregate:3,dmine:2"),
        ] {
            let w = WorkloadSpec::parse_spec(load, mix).expect("parses");
            let summary = w.summary();
            let (l2, m2) = summary.split_once(" mix=").expect("has mix");
            let again = WorkloadSpec::parse_spec(l2, m2).expect("round-trips");
            assert_eq!(w, again, "{summary}");
        }
    }

    #[test]
    fn mix_all_and_unweighted_entries() {
        let all = WorkloadSpec::parse_mix("all").unwrap();
        assert_eq!(all.len(), TaskKind::ALL.len());
        let pair = WorkloadSpec::parse_mix("select,join").unwrap();
        assert_eq!(pair, vec![(TaskKind::Select, 1), (TaskKind::Join, 1)]);
    }

    #[test]
    fn bad_specs_are_rejected_eagerly() {
        assert!(WorkloadSpec::parse_spec("poisson:0:4", "all").is_err());
        assert!(WorkloadSpec::parse_spec("poisson:1:0", "all").is_err());
        assert!(WorkloadSpec::parse_spec("open:1:4", "all").is_err());
        assert!(WorkloadSpec::parse_spec("closed:0:4", "all").is_err());
        assert!(WorkloadSpec::parse_spec("poisson:1:4", "warble").is_err());
        assert!(WorkloadSpec::parse_spec("poisson:1:4", "select:0").is_err());
        assert!(AdmissionPolicy::parse_spec("0:4").is_err());
        assert!(AdmissionPolicy::parse_spec("four").is_err());
        assert!(DeadlinePolicy::parse_spec("120q").is_err());
        assert!(DeadlinePolicy::parse_spec("120s:x:5s").is_err());
    }

    #[test]
    fn workload_size_is_capped_at_max_queries() {
        // The limit itself is accepted; one past it is rejected by the
        // count check, before a single arrival is generated.
        let at = format!("closed:1:{MAX_QUERIES}");
        assert_eq!(
            WorkloadSpec::parse_spec(&at, "select").unwrap().queries,
            MAX_QUERIES
        );
        for load in [
            "closed:1:100001",
            "poisson:1:4000000000",
            "closed:1:4294967295@3",
        ] {
            let err = WorkloadSpec::parse_spec(load, "select").unwrap_err();
            assert!(err.contains("the limit is 100000"), "{load}: {err}");
        }
        assert!(AdmissionPolicy::parse_spec("100000:100000").is_ok());
        for adm in ["100001:4", "4:100001", "18446744073709551615:1"] {
            let err = AdmissionPolicy::parse_spec(adm).unwrap_err();
            assert!(err.contains("100000-query limit"), "{adm}: {err}");
        }
    }

    #[test]
    fn same_seed_same_sequence_different_seed_differs() {
        let w = WorkloadSpec::poisson(0.5, 64)
            .with_mix(WorkloadSpec::parse_mix("all").unwrap())
            .with_seed(42);
        assert_eq!(w.tasks(), w.tasks(), "task draws are deterministic");
        assert_eq!(
            w.arrival_times(),
            w.arrival_times(),
            "arrival times are deterministic"
        );
        let other = w.clone().with_seed(43);
        assert_ne!(w.tasks(), other.tasks());
        assert_ne!(w.arrival_times(), other.arrival_times());
    }

    #[test]
    fn poisson_arrivals_are_increasing_at_roughly_the_rate() {
        let w = WorkloadSpec::poisson(2.0, 500).with_seed(1);
        let at = w.arrival_times();
        assert!(at.windows(2).all(|p| p[0] <= p[1]), "nondecreasing");
        let span = at.last().unwrap().since(at[0]).as_secs_f64();
        let rate = 499.0 / span;
        assert!((1.5..2.5).contains(&rate), "measured rate {rate}");
    }

    #[test]
    fn mix_change_does_not_reshuffle_arrivals() {
        let a = WorkloadSpec::poisson(1.0, 16).with_seed(5);
        let b = a
            .clone()
            .with_mix(WorkloadSpec::parse_mix("sort:3,join:1").unwrap());
        assert_eq!(a.arrival_times(), b.arrival_times());
        assert_ne!(a.tasks(), b.tasks());
    }

    #[test]
    fn closed_arrivals_are_all_zero() {
        let w = WorkloadSpec::closed(4, 10);
        assert!(w.arrival_times().iter().all(|&t| t == SimTime::ZERO));
    }

    #[test]
    fn admission_and_deadline_round_trip() {
        let a = AdmissionPolicy::parse_spec("8:32").unwrap();
        assert_eq!(AdmissionPolicy::parse_spec(&a.summary()).unwrap(), a);
        for s in ["none", "120s:2:5s", "250ms:0:10s"] {
            let d = DeadlinePolicy::parse_spec(s).unwrap();
            assert_eq!(DeadlinePolicy::parse_spec(&d.summary()).unwrap(), d);
        }
        assert_eq!(
            DeadlinePolicy::parse_spec("90s").unwrap().summary(),
            "90s:0:10s"
        );
    }

    #[test]
    fn backoff_doubles_with_bounded_jitter() {
        let dl = DeadlinePolicy::parse_spec("10s:3:2s").unwrap();
        let mut rng = SplitMix64::new(9);
        for attempt in 1..=3u32 {
            let base = Duration::from_secs(2) * (1u64 << (attempt - 1));
            let b = dl.backoff_for(attempt, &mut rng);
            assert!(
                b >= base && b <= base + base.scale(0.5),
                "attempt {attempt}: {b}"
            );
        }
    }

    #[test]
    fn duration_literals_parse_and_render() {
        assert_eq!(parse_duration("120s").unwrap(), Duration::from_secs(120));
        assert_eq!(parse_duration("250ms").unwrap(), Duration::from_millis(250));
        assert_eq!(
            parse_duration("1.5s").unwrap(),
            Duration::from_secs_f64(1.5)
        );
        assert_eq!(duration_spec(Duration::from_millis(1500)), "1500ms");
        assert_eq!(duration_spec(Duration::from_secs(3)), "3s");
    }
}
