//! Bounded work-queue executor shared by the suite and sweep drivers.
//!
//! The seed spawned one OS thread per benchmark (23 threads regardless of
//! core count) and ran the ten interconnect models strictly serially. This
//! module replaces both with a single pool: callers flatten their work into
//! a job list, and a fixed set of workers (sized to
//! [`std::thread::available_parallelism`] by default) drains a shared queue.
//! Results come back in job order, so parallel execution is bit-identical
//! to a serial loop over the same jobs.
//!
//! Each job runs under [`std::panic::catch_unwind`], so one panicking
//! configuration (a watchdog abort, a refused spec) surfaces as a
//! [`JobPanic`] for its row while every other job still completes:
//! [`run_indexed_catching`] returns the per-job `Result`s.

use std::collections::VecDeque;
use std::fmt;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Worker count used when the caller does not specify one: the number of
/// hardware threads the OS reports, with a floor of 1.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// A job that panicked inside the executor: its position in the submitted
/// item list plus the rendered panic payload. Sweep harnesses turn this
/// into a failed row (and a non-zero exit) instead of losing the whole
/// sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// Index of the job in the submitted item list.
    pub index: usize,
    /// The panic payload, when it was a string (the overwhelmingly common
    /// case: `panic!` with a message). Non-string payloads render as a
    /// placeholder.
    pub message: String,
}

impl fmt::Display for JobPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sweep job {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for JobPanic {}

fn payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// Runs `f` over every item on a pool of `workers` scoped threads and
/// returns the per-job outcomes in item order: `Ok(result)` for jobs that
/// completed, `Err(JobPanic)` for jobs that panicked. A panicking job
/// never takes down its worker or the other jobs.
///
/// Jobs are drained from a shared queue, so long and short jobs interleave
/// freely instead of being bucketed per thread. `workers` is clamped to
/// `1..=items.len()`; with one worker (or one item) the pool is skipped
/// entirely and the items run inline.
pub fn run_indexed_catching<T, R, F>(
    items: Vec<T>,
    workers: usize,
    f: F,
) -> Vec<Result<R, JobPanic>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = workers.clamp(1, n.max(1));
    let run_job = |i: usize, item: T| {
        catch_unwind(AssertUnwindSafe(|| f(item))).map_err(|payload| JobPanic {
            index: i,
            message: payload_message(payload),
        })
    };
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| run_job(i, item))
            .collect();
    }

    let queue: Mutex<VecDeque<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let slots: Vec<Mutex<Option<Result<R, JobPanic>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let job = queue.lock().expect("executor queue poisoned").pop_front();
                let Some((i, item)) = job else { break };
                let result = run_job(i, item);
                *slots[i].lock().expect("executor slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("executor slot poisoned")
                .expect("all jobs drained before the scope ended")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        for workers in [1, 2, 4, 7] {
            let out = run_indexed_catching((0..100u64).collect(), workers, |i| i * i);
            let want: Vec<_> = (0..100u64).map(|i| Ok(i * i)).collect();
            assert_eq!(out, want);
        }
    }

    #[test]
    fn empty_input() {
        let out = run_indexed_catching(Vec::<u64>::new(), 8, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_items() {
        let out = run_indexed_catching(vec![1u64, 2, 3], 64, |i| i + 1);
        assert_eq!(out, vec![Ok(2), Ok(3), Ok(4)]);
    }

    #[test]
    fn isolates_panicking_jobs() {
        for workers in [1, 4] {
            let out = run_indexed_catching((0..8u64).collect(), workers, |i| {
                assert!(i != 5, "job five died");
                i * 10
            });
            for (i, r) in out.iter().enumerate() {
                if i == 5 {
                    let p = r.as_ref().unwrap_err();
                    assert_eq!(p.index, 5);
                    assert!(p.message.contains("job five died"), "{p}");
                    assert!(p.to_string().starts_with("sweep job 5 panicked"));
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i as u64 * 10);
                }
            }
        }
    }
}
