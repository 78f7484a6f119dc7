//! Property-based tests of continuous-batching transparency (requires
//! `--features proptest`; see the note in Cargo.toml).
//!
//! Property: for **any** schedule of streams — arbitrary per-stream
//! sequence lengths, join staggering, submit chunking, and batcher knobs
//! (iteration-row cap, linger window) — every stream's concatenated
//! outputs through the shared stream batcher are bit-identical to
//! decoding that stream's sequence alone through a same-seeded batch-1
//! `dynamic_rnn` on a private session. Who else shared an iteration, in
//! which rotation order, must be unobservable.

use dcf::graph::Graph;
use dcf::ml::{decode_reference_model, decode_step_model};
use dcf::prelude::*;
use dcf::serve::ModelSignature;
use dcf::tensor::Tensor;
use proptest::prelude::*;
use std::collections::HashMap;
use std::time::Duration;

const INPUT: usize = 3;
const HIDDEN: usize = 4;
const OUTPUT: usize = 2;
const WEIGHT_SEED: u64 = 2024;

/// One stream's row in the generated schedule.
#[derive(Debug, Clone)]
struct StreamPlan {
    /// Total decode steps for this stream.
    steps: usize,
    /// Rows per submit chunk (clamped to the remaining steps).
    chunk: usize,
    /// Milliseconds to sleep before joining, staggering admissions so
    /// streams join mid-iteration of earlier ones.
    join_delay_ms: u64,
}

fn arb_plan() -> impl Strategy<Value = StreamPlan> {
    (1usize..7, 1usize..4, 0u64..3).prop_map(|(steps, chunk, join_delay_ms)| StreamPlan {
        steps,
        chunk,
        join_delay_ms,
    })
}

fn streaming_model() -> (Graph, ModelSignature, StreamSpec) {
    let mut g = GraphBuilder::new();
    let m = decode_step_model(&mut g, INPUT, HIDDEN, OUTPUT, WEIGHT_SEED).unwrap();
    let sig = ModelSignature::new().feed(&m.x_feed, DType::F32, &[INPUT]).fetch(m.y);
    let mut spec = StreamSpec::new(&m.slots_feed);
    for (cell, dims) in &m.state_cells {
        spec = spec.with_cell(cell, dims);
    }
    for &w in &m.writes {
        spec = spec.with_state_fetch(w);
    }
    (g.finish().unwrap(), sig, spec)
}

fn reference_outputs(seq: &Tensor, steps: usize) -> Tensor {
    let mut g = GraphBuilder::new();
    let y = decode_reference_model(&mut g, INPUT, HIDDEN, OUTPUT, WEIGHT_SEED, steps).unwrap();
    let sess = Session::local(g.finish().unwrap()).unwrap();
    let mut feeds = HashMap::new();
    feeds.insert("x".to_string(), seq.clone());
    sess.eval(&feeds, &[y]).unwrap().remove(0)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Any join/finish schedule is transparent, and the row accounting
    /// balances: every admitted row is decoded exactly once, every
    /// opened stream retires.
    #[test]
    fn arbitrary_schedules_are_transparent(
        plans in proptest::collection::vec(arb_plan(), 1..6),
        value_seed in any::<u64>(),
        max_iteration_rows in 1usize..6,
        linger_us in 0u64..2_000,
    ) {
        let (graph, sig, spec) = streaming_model();
        let reg = ModelRegistry::new();
        let handle = reg
            .register(
                "prop",
                ModelSpec::local(graph, sig).with_stream(
                    spec.with_iteration_rows(max_iteration_rows)
                        .with_iteration_delay(Duration::from_micros(linger_us)),
                ),
            )
            .unwrap();

        let mut rng = TensorRng::new(value_seed);
        let seqs: Vec<Tensor> =
            plans.iter().map(|p| rng.uniform(&[p.steps, INPUT], -1.0, 1.0)).collect();

        let failures: Vec<String> = std::thread::scope(|scope| {
            let tasks: Vec<_> = plans
                .iter()
                .zip(&seqs)
                .enumerate()
                .map(|(i, (plan, seq))| {
                    let handle = &handle;
                    scope.spawn(move || -> Result<(), String> {
                        std::thread::sleep(Duration::from_millis(plan.join_delay_ms));
                        let stream =
                            handle.open_stream().map_err(|e| format!("open: {e}"))?;
                        let rows = seq
                            .split0(&vec![1; plan.steps])
                            .map_err(|e| format!("split: {e}"))?;
                        let mut got = Vec::new();
                        let mut t = 0usize;
                        while t < plan.steps {
                            let to = (t + plan.chunk).min(plan.steps);
                            let mut feeds = HashMap::new();
                            feeds.insert(
                                "x".to_string(),
                                Tensor::concat0(&rows[t..to])
                                    .map_err(|e| format!("concat: {e}"))?,
                            );
                            let mut r = stream
                                .send(feeds)
                                .map_err(|e| format!("stream {i} step {t}: {e}"))?;
                            got.push(r.outputs.remove(0));
                            t = to;
                        }
                        let have =
                            Tensor::concat0(&got).map_err(|e| format!("concat: {e}"))?;
                        if !have.value_eq(&reference_outputs(seq, plan.steps)) {
                            return Err(format!(
                                "stream {i} ({plan:?}) diverged from its private reference"
                            ));
                        }
                        Ok(())
                    })
                })
                .collect();
            tasks.into_iter().filter_map(|t| t.join().unwrap().err()).collect()
        });
        prop_assert!(failures.is_empty(), "{}", failures.join("; "));

        let a = handle.metrics().aggregate;
        let total_rows: u64 = plans.iter().map(|p| p.steps as u64).sum();
        prop_assert_eq!(a.stream_rows, total_rows, "row accounting leaked");
        prop_assert_eq!(a.streams_opened, plans.len() as u64);
        prop_assert_eq!(a.streams_retired, plans.len() as u64);
        prop_assert_eq!(a.active_streams, 0);
        prop_assert_eq!(a.failed + a.expired + a.streams_expired, 0);
        // Each iteration gathers at most one row per stream and never
        // exceeds the configured cap (the mean is exact; the p99 is a
        // log₂-bucket upper edge and may round up past the cap).
        let bound = max_iteration_rows.min(plans.len()) as f64;
        prop_assert!(
            a.mean_iteration_rows <= bound + 1e-9,
            "mean {} rows/iteration exceeds the {} bound",
            a.mean_iteration_rows,
            bound
        );
    }
}
