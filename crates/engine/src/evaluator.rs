//! Evaluation fan-out strategies: serial loop or scoped-thread pool.

use crate::pool;

/// A strategy for evaluating a batch of candidate gene vectors.
///
/// Implementations must preserve input order: `eval_batch(f, batch)[i]`
/// is `f(&batch[i])` regardless of how the work is scheduled. Combined
/// with the fact that evaluation functions in this workspace consume no
/// randomness, this makes a seeded optimizer run reproduce bit-for-bit
/// under any evaluator.
pub trait Evaluator {
    /// A short human-readable name for logs and stats.
    fn label(&self) -> &'static str;

    /// Evaluates every gene vector in `batch`, returning results in input
    /// order.
    fn eval_batch<T, F>(&self, eval: &F, batch: &[Vec<f64>]) -> Vec<T>
    where
        T: Send,
        F: Fn(&[f64]) -> T + Sync;
}

/// Evaluates candidates one at a time on the calling thread.
///
/// This reproduces the behavior of the original inline run loops exactly
/// and is the default strategy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SerialEvaluator;

impl Evaluator for SerialEvaluator {
    fn label(&self) -> &'static str {
        "serial"
    }

    fn eval_batch<T, F>(&self, eval: &F, batch: &[Vec<f64>]) -> Vec<T>
    where
        T: Send,
        F: Fn(&[f64]) -> T + Sync,
    {
        batch.iter().map(|genes| eval(genes)).collect()
    }
}

/// Evaluates candidates across scoped OS threads.
///
/// Work is distributed through the shared [`pool`] helper: workers
/// claim candidates off a shared counter and write each result into
/// that candidate's output slot, so the result order is identical to
/// [`SerialEvaluator`]'s no matter how the threads are scheduled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParallelEvaluator {
    /// Worker-thread cap; `0` means "use available parallelism".
    pub threads: usize,
}

impl ParallelEvaluator {
    /// A parallel evaluator capped at `threads` workers (`0` = automatic).
    pub fn with_threads(threads: usize) -> Self {
        ParallelEvaluator { threads }
    }

    fn resolve_threads(&self, batch_len: usize) -> usize {
        let auto = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let cap = if self.threads == 0 {
            auto
        } else {
            self.threads
        };
        cap.min(batch_len).max(1)
    }
}

impl Evaluator for ParallelEvaluator {
    fn label(&self) -> &'static str {
        "parallel"
    }

    fn eval_batch<T, F>(&self, eval: &F, batch: &[Vec<f64>]) -> Vec<T>
    where
        T: Send,
        F: Fn(&[f64]) -> T + Sync,
    {
        let workers = self.resolve_threads(batch.len());
        if workers <= 1 || batch.len() <= 1 {
            return SerialEvaluator.eval_batch(eval, batch);
        }
        pool::map_indexed(workers, batch.len(), |i| eval(&batch[i]))
    }
}

/// Enum-dispatched evaluator choice, used inside optimizer configs.
///
/// The run-loop configs derive `Clone`/`Debug`/`PartialEq`, so they store
/// this enum rather than a boxed trait object. [`From`] impls let builder
/// methods accept the concrete strategy types directly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum EvaluatorKind {
    /// One-at-a-time evaluation on the calling thread (the default).
    #[default]
    Serial,
    /// Scoped-thread fan-out with automatic worker count.
    Parallel,
    /// Scoped-thread fan-out capped at a fixed worker count.
    ParallelWith(
        /// Maximum worker threads (`0` = automatic).
        usize,
    ),
}

impl EvaluatorKind {
    /// A short human-readable name for logs and stats.
    pub fn label(&self) -> &'static str {
        match self {
            EvaluatorKind::Serial => SerialEvaluator.label(),
            EvaluatorKind::Parallel | EvaluatorKind::ParallelWith(_) => {
                ParallelEvaluator::default().label()
            }
        }
    }
}

impl From<SerialEvaluator> for EvaluatorKind {
    fn from(_: SerialEvaluator) -> Self {
        EvaluatorKind::Serial
    }
}

impl From<ParallelEvaluator> for EvaluatorKind {
    fn from(p: ParallelEvaluator) -> Self {
        if p.threads == 0 {
            EvaluatorKind::Parallel
        } else {
            EvaluatorKind::ParallelWith(p.threads)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64, (2 * i) as f64]).collect()
    }

    fn sum(genes: &[f64]) -> f64 {
        genes.iter().sum()
    }

    #[test]
    fn serial_preserves_order() {
        let b = batch(7);
        let out = SerialEvaluator.eval_batch(&sum, &b);
        assert_eq!(out, vec![0.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0]);
    }

    #[test]
    fn parallel_matches_serial() {
        let b = batch(101);
        let serial = SerialEvaluator.eval_batch(&sum, &b);
        for threads in [0, 1, 2, 3, 8, 200] {
            let par = ParallelEvaluator::with_threads(threads).eval_batch(&sum, &b);
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_handles_empty_and_single() {
        let e = ParallelEvaluator::default();
        let empty: Vec<Vec<f64>> = vec![];
        assert!(e.eval_batch(&sum, &empty).is_empty());
        assert_eq!(e.eval_batch(&sum, &batch(1)), vec![0.0]);
    }

    #[test]
    fn parallel_actually_uses_multiple_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let ids = Mutex::new(HashSet::new());
        let b = batch(64);
        ParallelEvaluator::with_threads(4).eval_batch(
            &|genes: &[f64]| {
                ids.lock().unwrap().insert(std::thread::current().id());
                genes[0]
            },
            &b,
        );
        assert!(ids.into_inner().unwrap().len() > 1);
    }

    #[test]
    fn kind_dispatch_and_from() {
        assert_eq!(EvaluatorKind::Serial.label(), SerialEvaluator.label());
        assert_eq!(
            EvaluatorKind::ParallelWith(2).label(),
            ParallelEvaluator::default().label()
        );
        assert_eq!(EvaluatorKind::from(SerialEvaluator), EvaluatorKind::Serial);
        assert_eq!(
            EvaluatorKind::from(ParallelEvaluator::default()),
            EvaluatorKind::Parallel
        );
        assert_eq!(
            EvaluatorKind::from(ParallelEvaluator::with_threads(3)),
            EvaluatorKind::ParallelWith(3)
        );
        assert_eq!(EvaluatorKind::default(), EvaluatorKind::Serial);
        assert_eq!(EvaluatorKind::Serial.label(), "serial");
        assert_eq!(EvaluatorKind::Parallel.label(), "parallel");
    }
}
