//! In-memory spans recorded around calls into the workspace's layers, a
//! forwarding [`Problem`] wrapper that times every model call, and a
//! sink that sums the loops' own stage timings.
//!
//! Spans are kept in memory while a traced run executes and written out
//! once it ends ([`Tracer::write_jsonl`]). A span's self time is its
//! duration minus the part of it covered by its children
//! ([`self_times`]).

use engine::{CacheCanonicalizer, StageNanos};
use moea::problem::Bounds;
use moea::{Evaluation, OptimizeError, Problem};
use sacga::telemetry::{EventKind, RunEvent, Sink};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the tracer.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Shared by every span of one optimizer run or one sweep.
    pub trace: u64,
    /// Layer boundary the span wraps, e.g. `circuits.evaluate_all`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Work items the call covered (designs for a batch call, else 1).
    pub items: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Reserves a span id, so children can name their parent before the
    /// parent's interval is known.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Stores a finished span.
    pub fn push(&self, span: Span) {
        self.spans.lock().expect("tracer poisoned").push(span);
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id.
    pub fn span<R>(
        &self,
        parent: Option<u64>,
        trace: u64,
        name: &'static str,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.reserve();
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.push(Span {
            id,
            parent,
            trace,
            name,
            start_ns,
            end_ns,
            items: 1,
        });
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer poisoned").clone()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("tracer poisoned").iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"items\":{}}}",
                s.id, s.trace, s.name, s.start_ns, s.end_ns, s.items
            )?;
        }
        out.flush()
    }
}

/// Per-name totals: `(spans, total ns, self ns)`.
pub type SelfTimes = BTreeMap<&'static str, (u64, u64, u64)>;

/// Sums each span name's duration and self time, where self time is the
/// duration minus the union of the children's intervals (clipped to the
/// parent).
pub fn self_times(spans: &[Span]) -> SelfTimes {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out = SelfTimes::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |iv| covered_ns(iv, s.start_ns, s.end_ns));
        let row = out.entry(s.name).or_insert((0, 0, 0));
        row.0 += 1;
        row.1 += s.ns();
        row.2 += s.ns().saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// A forwarding [`Problem`] that records a span around every
/// `evaluate` and `evaluate_all` call and, optionally, keeps the
/// evaluated designs for replay. Every method the workspace's problems
/// override is forwarded, so a run through the wrapper does exactly the
/// work of a run on the inner problem.
pub struct Recorded<'t, P> {
    inner: P,
    tracer: &'t Tracer,
    capture: bool,
    parent: AtomicU64,
    trace: AtomicU64,
    designs: Mutex<Vec<Vec<f64>>>,
    items: AtomicU64,
}

impl<'t, P: Problem> Recorded<'t, P> {
    /// Wraps `inner`; with `capture` every evaluated design is kept.
    pub fn new(inner: P, tracer: &'t Tracer, capture: bool) -> Self {
        Recorded {
            inner,
            tracer,
            capture,
            parent: AtomicU64::new(0),
            trace: AtomicU64::new(0),
            designs: Mutex::new(Vec::new()),
            items: AtomicU64::new(0),
        }
    }

    /// Makes later calls children of span `parent` in trace `trace`.
    pub fn attach(&self, trace: u64, parent: u64) {
        self.trace.store(trace, Ordering::Relaxed);
        self.parent.store(parent, Ordering::Relaxed);
    }

    /// Takes the designs captured so far, in evaluation order.
    pub fn take_designs(&self) -> Vec<Vec<f64>> {
        std::mem::take(&mut *self.designs.lock().expect("capture poisoned"))
    }

    /// Takes the number of designs evaluated through the wrapper so far.
    pub fn take_items(&self) -> u64 {
        self.items.swap(0, Ordering::Relaxed)
    }

    fn record(&self, name: &'static str, start_ns: u64, items: u64) {
        self.items.fetch_add(items, Ordering::Relaxed);
        let parent = self.parent.load(Ordering::Relaxed);
        self.tracer.push(Span {
            id: self.tracer.reserve(),
            parent: (parent != 0).then_some(parent),
            trace: self.trace.load(Ordering::Relaxed),
            name,
            start_ns,
            end_ns: self.tracer.now_ns(),
            items,
        });
    }

    fn keep(&self, designs: impl Iterator<Item = Vec<f64>>) {
        if self.capture {
            self.designs
                .lock()
                .expect("capture poisoned")
                .extend(designs);
        }
    }
}

impl<P: Problem> Problem for Recorded<'_, P> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn bounds(&self) -> &Bounds {
        self.inner.bounds()
    }
    fn num_objectives(&self) -> usize {
        self.inner.num_objectives()
    }
    fn num_constraints(&self) -> usize {
        self.inner.num_constraints()
    }
    fn num_variables(&self) -> usize {
        self.inner.num_variables()
    }
    fn check_evaluation(&self, ev: &Evaluation) -> Result<(), OptimizeError> {
        self.inner.check_evaluation(ev)
    }
    fn cache_canonicalizer(&self) -> Option<CacheCanonicalizer> {
        self.inner.cache_canonicalizer()
    }
    fn evaluate(&self, x: &[f64]) -> Evaluation {
        let start = self.tracer.now_ns();
        let ev = self.inner.evaluate(x);
        self.record("circuits.evaluate", start, 1);
        self.keep(std::iter::once(x.to_vec()));
        ev
    }
    fn evaluate_all(&self, batch: &[Vec<f64>]) -> Vec<Evaluation> {
        let start = self.tracer.now_ns();
        let evs = self.inner.evaluate_all(batch);
        self.record("circuits.evaluate_all", start, batch.len() as u64);
        self.keep(batch.iter().cloned());
        evs
    }
}

/// A sink that only wants the loops' `StageTiming` events and sums
/// their per-stage nanoseconds.
#[derive(Debug, Default)]
pub struct StageSum {
    /// Nanoseconds per stage, summed over every generation seen.
    pub stages: StageNanos,
}

impl Sink for StageSum {
    fn record(&mut self, event: &RunEvent) {
        if let RunEvent::StageTiming { stages, .. } = event {
            self.stages.merge(stages);
        }
    }
    fn wants(&self, kind: EventKind) -> bool {
        kind == EventKind::StageTiming
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use analog_circuits::{DrivableLoadProblem, Spec};
    use rand::{Rng, SeedableRng};

    fn seeded_designs(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..dim).map(|_| rng.gen::<f64>()).collect())
            .collect()
    }

    fn bits(ev: &Evaluation) -> Vec<u64> {
        ev.objectives()
            .iter()
            .chain(ev.constraint_violations())
            .map(|v| v.to_bits())
            .collect()
    }

    #[test]
    fn wrapper_is_bit_identical_to_the_inner_problem() {
        let inner = DrivableLoadProblem::new(Spec::featured());
        let tracer = Tracer::default();
        let wrapped = Recorded::new(&inner, &tracer, true);
        let designs = seeded_designs(24, 15, 7);

        for x in &designs {
            assert_eq!(bits(&wrapped.evaluate(x)), bits(&inner.evaluate(x)));
        }
        let fast = wrapped.evaluate_all(&designs);
        let slow = inner.evaluate_all(&designs);
        assert_eq!(fast.len(), slow.len());
        for (a, b) in fast.iter().zip(&slow) {
            assert_eq!(bits(a), bits(b));
        }

        let canon_w = wrapped.cache_canonicalizer().expect("forwarded");
        let canon_i = inner.cache_canonicalizer().expect("drivable canonicalizes");
        for x in &designs {
            assert_eq!(canon_w(x), canon_i(x));
        }
        assert_eq!(wrapped.name(), inner.name());
        assert_eq!(wrapped.num_variables(), inner.num_variables());
        assert_eq!(wrapped.num_constraints(), inner.num_constraints());
        assert_eq!(wrapped.bounds().lower(), inner.bounds().lower());

        // 24 scalar calls plus one batch call of 24, all captured.
        let spans = tracer.spans();
        assert_eq!(spans.len(), 25);
        assert_eq!(spans.iter().map(|s| s.items).sum::<u64>(), 48);
        assert_eq!(wrapped.take_designs().len(), 48);
        assert_eq!(wrapped.take_items(), 48);
        assert_eq!(wrapped.take_items(), 0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            trace: 1,
            name: if parent.is_some() { "child" } else { "root" },
            start_ns,
            end_ns,
            items: 1,
        };
        // Children [10,30) and [20,40) overlap; [90,120) is clipped to 100.
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 40),
            span(4, Some(1), 90, 120),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"], (1, 100, 100 - 30 - 10));
        assert_eq!(t["child"], (3, 20 + 20 + 30, 70));
    }

    #[test]
    fn span_scopes_nest_by_id() {
        let tracer = Tracer::default();
        tracer.span(None, 9, "outer", |outer| {
            tracer.span(Some(outer), 9, "inner", |_| ());
        });
        let spans = tracer.spans();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
    }
}
