//! Head-to-head microbenchmarks of the event-queue backends: the
//! arena-backed hierarchical timing wheel (default) and the binary heap it
//! replaced.
//!
//! Both backends run the same workloads so a single report shows the
//! wheel's advantage (or any regression) directly:
//!
//! - `push_pop_10k`: bulk load of uniformly random timestamps followed
//!   by a full drain — the worst case for the wheel's bucket sort.
//! - `steady_churn_depth_512`: the executor's working regime — a queue
//!   held at steady-state depth while events churn through an advancing
//!   window of disk-service-time-scale delays, spread across many
//!   wheel buckets. This is where the wheel's O(1) bucket indexing
//!   pays off over the heap's O(log n) sift.
//! - `narrow_churn_depth_512`: the wheel's adversarial regime — the
//!   same churn squeezed into a window narrower than one bucket, so
//!   every event lands in the same bucket and the wheel degrades to
//!   its lazy in-bucket sort.
//! - `far_horizon_5k`: events past the wheel's fine span, exercising
//!   the coarse levels and their cascades.
//!
//! Before the criterion runs, the harness prints an allocations/event
//! table for the steady-churn workload (this binary registers
//! [`bench::CountingAlloc`]): every backend's steady state performs
//! zero heap allocations at constant depth — the arena wheel reaches
//! that without ever freeing a slot back to the allocator, recycling
//! them through its freelist instead.
//!
//! End-to-end scheduler cost on a real workload is measured separately
//! by `sweep_bench` (the 64-disk cluster join in `BENCH_PR6.json`).

use criterion::{criterion_group, Criterion};
use simcore::{EventQueue, QueueBackend, SimTime, SplitMix64};
use std::hint::black_box;

#[global_allocator]
static ALLOC: bench::CountingAlloc = bench::CountingAlloc;

const BACKENDS: [(QueueBackend, &str); 2] = [
    (QueueBackend::CalendarWheel, "wheel"),
    (QueueBackend::BinaryHeap, "heap"),
];

fn push_pop_10k(c: &mut Criterion) {
    for (backend, name) in BACKENDS {
        c.bench_function(&format!("queue/{name}_push_pop_10k"), |b| {
            b.iter(|| {
                let mut rng = SplitMix64::new(1);
                let mut q = EventQueue::with_backend(backend);
                for i in 0..10_000u64 {
                    q.push(SimTime::from_nanos(rng.next_below(1 << 30)), i);
                }
                let mut sum = 0u64;
                while let Some((_, e)) = q.pop() {
                    sum = sum.wrapping_add(e);
                }
                black_box(sum)
            })
        });
    }
}

/// Steady-state churn at depth 512 with delays drawn from `0..span` ns.
fn churn(c: &mut Criterion, label: &str, span: u64) {
    for (backend, name) in BACKENDS {
        c.bench_function(&format!("queue/{name}_{label}_depth_512"), |b| {
            b.iter(|| {
                let mut rng = SplitMix64::new(2);
                let mut q = EventQueue::with_backend_capacity(backend, 512);
                let mut t = 0u64;
                for i in 0..512u64 {
                    q.push(SimTime::from_nanos(t + rng.next_below(span)), i);
                }
                let mut sum = 0u64;
                for i in 0..20_000u64 {
                    let (now, e) = q.pop().expect("queue stays full");
                    t = now.as_nanos();
                    sum = sum.wrapping_add(e);
                    q.push(SimTime::from_nanos(t + 1 + rng.next_below(span)), i);
                }
                black_box(sum)
            })
        });
    }
}

fn steady_churn(c: &mut Criterion) {
    // Delays up to ~4 ms — the scale of disk service times and network
    // transfers, spread across many ~524 µs wheel buckets.
    churn(c, "steady_churn", 1 << 22);
}

fn narrow_churn(c: &mut Criterion) {
    // Delays up to 1 µs — far narrower than one bucket, so the wheel
    // falls back to sorting a single hot bucket.
    churn(c, "narrow_churn", 1 << 10);
}

fn far_horizon_overflow(c: &mut Criterion) {
    // Events beyond the wheel's fine horizon land on its coarse levels
    // and cascade into fine buckets as time advances; this measures
    // that path against the plain heap, which treats all horizons alike.
    for (backend, name) in BACKENDS {
        c.bench_function(&format!("queue/{name}_far_horizon_5k"), |b| {
            b.iter(|| {
                let mut rng = SplitMix64::new(3);
                let mut q = EventQueue::with_backend(backend);
                for i in 0..5_000u64 {
                    // Spread across ~73 minutes — far past the fine span.
                    q.push(SimTime::from_nanos(rng.next_below(1 << 42)), i);
                }
                let mut sum = 0u64;
                while let Some((_, e)) = q.pop() {
                    sum = sum.wrapping_add(e);
                }
                black_box(sum)
            })
        });
    }
}

/// Print allocations/event for the steady-churn workload, per backend.
///
/// Warm-up matches the measured window so every arena, bucket, and
/// scratch buffer reaches its working size first; the count that
/// follows is pure steady state.
fn report_allocs_per_event() {
    const EVENTS: u64 = 20_000;
    println!("allocations/event, steady_churn_depth_512 ({EVENTS} events after warm-up):");
    for (backend, name) in BACKENDS {
        let mut rng = SplitMix64::new(2);
        let mut q = EventQueue::with_backend_capacity(backend, 512);
        let mut t = 0u64;
        for i in 0..512u64 {
            q.push(SimTime::from_nanos(t + rng.next_below(1 << 22)), i);
        }
        for i in 0..EVENTS {
            let (now, _) = q.pop().expect("queue stays full");
            t = now.as_nanos();
            q.push(SimTime::from_nanos(t + 1 + rng.next_below(1 << 22)), i);
        }
        let (_, allocs) = bench::count_allocs(|| {
            let mut sum = 0u64;
            for i in 0..EVENTS {
                let (now, e) = q.pop().expect("queue stays full");
                t = now.as_nanos();
                sum = sum.wrapping_add(e);
                q.push(SimTime::from_nanos(t + 1 + rng.next_below(1 << 22)), i);
            }
            black_box(sum)
        });
        println!(
            "  {name:<9} {allocs:>6} allocs  ({:.4} allocs/event)",
            allocs as f64 / EVENTS as f64
        );
    }
    println!();
}

criterion_group!(
    benches,
    push_pop_10k,
    steady_churn,
    narrow_churn,
    far_horizon_overflow
);

fn main() {
    report_allocs_per_event();
    benches();
}
