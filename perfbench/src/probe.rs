//! The engine-session probe: population-sized ZDT1 batches submitted to
//! and drained from `ExecutionEngine::with_session`, with and without
//! the memo cache, timed per candidate.

use crate::stats::median;
use crate::trace::Tracer;
use engine::{EngineConfig, ExecutionEngine};
use moea::problems::Zdt1;
use moea::{Evaluation, Problem};
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const BATCHES: usize = 40;
const BATCH: usize = 100;
const REPEATS: usize = 5;

/// Median ns per candidate `(without cache, with cache)`, or an error
/// when the session breaks `candidates == evaluations + cache_hits +
/// screened`. The cached variant submits every batch twice, so half of
/// its candidates are cache hits.
pub fn session_ns_per_candidate(
    seed: u64,
    tracer: &Tracer,
    trace: u64,
    parent: u64,
) -> Result<(f64, f64), String> {
    let problem = Zdt1::new(30);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let batches: Vec<Vec<Vec<f64>>> = (0..BATCHES)
        .map(|_| {
            (0..BATCH)
                .map(|_| (0..30).map(|_| rng.gen::<f64>()).collect())
                .collect()
        })
        .collect();
    let eval = |x: &[f64]| problem.evaluate(x);
    let batch_eval = |b: &[Vec<f64>]| problem.evaluate_all(b);
    let mut per = [Vec::new(), Vec::new()];
    for _ in 0..REPEATS {
        for (variant, passes) in [(0usize, 1usize), (1, 2)] {
            let config = if variant == 0 {
                EngineConfig::default()
            } else {
                EngineConfig::default().cache_capacity(1 << 16)
            };
            let name = ["engine.session.nocache", "engine.session.cache"][variant];
            let mut engine: ExecutionEngine<Evaluation> = ExecutionEngine::new(config);
            let start = tracer.now_ns();
            tracer.span(Some(parent), trace, name, |_| {
                engine.with_session(&eval, &batch_eval, |session| {
                    for batch in &batches {
                        for _ in 0..passes {
                            for genes in batch {
                                session.submit(genes);
                            }
                            black_box(session.drain_all().map_err(|e| e.to_string())?);
                        }
                    }
                    Ok::<(), String>(())
                })
            })?;
            let ns = tracer.now_ns() - start;
            let s = engine.stats();
            if s.candidates != s.evaluations + s.cache_hits + s.screened {
                return Err(format!("session probe broke the candidate balance: {s:?}"));
            }
            per[variant].push(ns as f64 / s.candidates as f64);
        }
    }
    Ok((median(&per[0]), median(&per[1])))
}
