//! Integration tests for streaming stateful inference (`dcf-serve`'s
//! sticky streams + continuous batching).
//!
//! The load-bearing property is **transparency**: a stream's outputs must
//! be bit-identical to running that stream's whole sequence alone on a
//! private model instance, no matter which other streams shared its
//! iterations, in what order they joined, or when they finished. The
//! decode-step workload is `dcf_ml::decode_step_model` — a real LSTM step
//! through the `while_loop` machinery, reading and writing per-stream
//! state slots — and the reference is `dcf_ml::decode_reference_model`
//! built from the same seed (bit-identical weights).
//!
//! The rest covers the streaming lifecycle contract end to end through
//! [`ModelHandle::open_stream`]: per-replica stream caps reject with
//! `Overloaded`, deadlines retire streams with structured errors, closed
//! streams answer `StreamClosed`, and pending rows drain when the model
//! is unloaded. The `faults` module (needs `--features faultinject`)
//! re-checks bit-identity while iterations hop a lossy simulated network.

use dcf::exec::ExecError;
use dcf::graph::Graph;
use dcf::ml::{decode_reference_model, decode_step_model};
use dcf::prelude::*;
use dcf::serve::ModelSignature;
use dcf::tensor::Tensor;
use std::collections::HashMap;
use std::time::Duration;

const INPUT: usize = 3;
const HIDDEN: usize = 4;
const OUTPUT: usize = 2;
const WEIGHT_SEED: u64 = 2024;

/// Builds the servable decode-step model: graph, serving signature
/// (clients feed `x` rows, fetch `y`), and the stream spec wiring the
/// slot placeholder and `h`/`c` state cells.
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

/// The full-sequence reference for one stream: `[T, input]` through the
/// same-seeded batch-1 `dynamic_rnn` on a private session.
fn reference_outputs(seq: &Tensor, steps: usize) -> Tensor {
    let mut g = GraphBuilder::new();
    let y = decode_reference_model(&mut g, INPUT, HIDDEN, OUTPUT, WEIGHT_SEED, steps).unwrap();
    let sess = Session::local(g.finish().unwrap()).unwrap();
    let mut feeds = HashMap::new();
    feeds.insert("x".to_string(), seq.clone());
    sess.eval(&feeds, &[y]).unwrap().remove(0)
}

fn x_rows(seq: &Tensor, steps: usize, from: usize, to: usize) -> HashMap<String, Tensor> {
    let rows = seq.split0(&vec![1; steps]).unwrap();
    let chunk = Tensor::concat0(&rows[from..to]).unwrap();
    let mut m = HashMap::new();
    m.insert("x".to_string(), chunk);
    m
}

/// Seeded sweep: streams of different lengths join staggered (mid-loop
/// for the earlier ones), submit in differently sized chunks, and finish
/// at different times — every stream's concatenated outputs must be
/// bit-identical to its private full-sequence reference.
#[test]
fn streams_joining_and_finishing_stay_bit_identical() {
    for sweep_seed in [1u64, 7, 42] {
        let (graph, sig, spec) = streaming_model();
        let reg = ModelRegistry::new();
        let handle = reg
            .register(
                "decoder",
                ModelSpec::local(graph, sig).with_stream(
                    spec.with_iteration_rows(3) // below the stream count: forces rotation
                        .with_iteration_delay(Duration::from_micros(200)),
                ),
            )
            .unwrap();

        let streams = 5usize;
        let mut rng = TensorRng::new(sweep_seed);
        let plans: Vec<(usize, Tensor)> = (0..streams)
            .map(|i| {
                let steps = 3 + 2 * i; // 3, 5, 7, 9, 11
                (steps, rng.uniform(&[steps, INPUT], -1.0, 1.0))
            })
            .collect();

        std::thread::scope(|scope| {
            for (i, (steps, seq)) in plans.iter().enumerate() {
                let handle = &handle;
                scope.spawn(move || {
                    // Staggered joins: later streams join while earlier
                    // ones are mid-decode.
                    std::thread::sleep(Duration::from_millis(i as u64));
                    let stream = handle.open_stream().unwrap();
                    let mut got = Vec::new();
                    // Chunk sizes vary per stream: 1, 2, 3, 1, 2, …
                    let mut t = 0usize;
                    while t < *steps {
                        let take = 1 + (i + t) % 3;
                        let to = (t + take).min(*steps);
                        let mut r = stream.send(x_rows(seq, *steps, t, to)).unwrap();
                        assert_eq!(r.rows, to - t);
                        got.push(r.outputs.remove(0));
                        t = to;
                    }
                    let have = Tensor::concat0(&got).unwrap();
                    let want = reference_outputs(seq, *steps);
                    assert!(
                        have.value_eq(&want),
                        "stream {i} (sweep {sweep_seed}): continuous batching \
                         perturbed outputs"
                    );
                });
            }
        });

        let m = handle.metrics();
        let a = &m.aggregate;
        assert_eq!(a.streams_opened, streams as u64);
        assert_eq!(a.streams_retired, streams as u64, "every stream must retire");
        assert_eq!(a.active_streams, 0);
        let total_rows: u64 = plans.iter().map(|(s, _)| *s as u64).sum();
        assert_eq!(a.stream_rows, total_rows);
        assert_eq!(a.failed + a.expired + a.streams_expired, 0);
        let summary = m.summary();
        assert!(summary.contains("streams:"), "summary must report streaming: {summary}");
    }
}

/// With every stream's rows enqueued before any is awaited, iterations
/// must actually co-batch: far fewer `Session::run`s than rows, with
/// multiple rows per iteration — the continuous batcher merges live
/// streams instead of serving them serially.
#[test]
fn iterations_are_shared_across_streams() {
    let (graph, sig, spec) = streaming_model();
    let reg = ModelRegistry::new();
    let handle = reg
        .register(
            "decoder",
            ModelSpec::local(graph, sig)
                .with_stream(spec.with_iteration_delay(Duration::from_millis(5))),
        )
        .unwrap();

    let streams = 4usize;
    let steps = 6usize;
    let mut rng = TensorRng::new(99);
    let seqs: Vec<Tensor> = (0..streams).map(|_| rng.uniform(&[steps, INPUT], -1.0, 1.0)).collect();

    // Open all streams and enqueue all rows before waiting on anything,
    // so the linger window sees every stream.
    let handles: Vec<_> = (0..streams).map(|_| handle.open_stream().unwrap()).collect();
    let tickets: Vec<_> = handles
        .iter()
        .zip(&seqs)
        .map(|(s, seq)| s.submit(x_rows(seq, steps, 0, steps)).unwrap())
        .collect();
    for (i, t) in tickets.into_iter().enumerate() {
        let r = t.wait().unwrap();
        let want = reference_outputs(&seqs[i], steps);
        assert!(r.outputs[0].value_eq(&want), "stream {i} diverged");
        assert!(r.tag.contains("/iter-"), "{}", r.tag);
        assert!(r.last_step > 0);
    }
    drop(handles);

    let a = handle.metrics().aggregate;
    assert_eq!(a.stream_rows, (streams * steps) as u64);
    assert!(
        a.stream_iterations < a.stream_rows,
        "no co-batching: {} iterations for {} rows",
        a.stream_iterations,
        a.stream_rows
    );
    assert!(
        a.mean_iteration_rows > 1.5,
        "iterations barely shared: mean {} rows",
        a.mean_iteration_rows
    );
    assert!(a.iteration_rows_p99 >= 1);
}

/// The lifecycle surface through the typed handle API: no stream spec →
/// `InvalidConfig`; stream cap → `Overloaded`; expired stream deadline →
/// `DeadlineExceeded`/`StreamClosed`; unload drains pending rows.
#[test]
fn stream_lifecycle_is_structured() {
    // A model registered without a stream spec cannot open streams.
    let (graph, sig, _) = streaming_model();
    let reg = ModelRegistry::new();
    let plain = reg.register("plain", ModelSpec::local(graph, sig)).unwrap();
    assert!(matches!(plain.open_stream().unwrap_err(), ExecError::InvalidConfig(_)));

    // The mirror: a stream model rejects stateless requests up front. They
    // must never reach a step (which would fail for want of the slots
    // feed), count toward eviction, or disturb a live stream.
    let (graph, sig, spec) = streaming_model();
    let streamed =
        reg.register("streamed", ModelSpec::local(graph, sig).with_stream(spec)).unwrap();
    let mut rng = TensorRng::new(3);
    let steps = 4usize;
    let seq = rng.uniform(&[steps, INPUT], -1.0, 1.0);
    let live = streamed.open_stream().unwrap();
    let mut got = vec![live.send(x_rows(&seq, steps, 0, 1)).unwrap().outputs.remove(0)];
    for i in 0..4 {
        let err = streamed.serve(Request::new(x_rows(&seq, steps, i, i + 1))).unwrap_err();
        assert!(matches!(err, ExecError::InvalidConfig(_)), "serve on a stream model: {err}");
    }
    got.push(live.send(x_rows(&seq, steps, 1, steps)).unwrap().outputs.remove(0));
    let m = streamed.metrics();
    assert_eq!(m.aggregate.steps_failed, 0, "{m:?}");
    assert_eq!(m.evicted, 0, "{m:?}");
    let want = reference_outputs(&seq, steps);
    assert!(
        Tensor::concat0(&got).unwrap().value_eq(&want),
        "a stream must decode exactly while its model rejects requests"
    );
    drop(live);

    // Per-replica stream cap.
    let (graph, sig, spec) = streaming_model();
    let capped = reg
        .register("capped", ModelSpec::local(graph, sig).with_stream(spec.with_max_streams(2)))
        .unwrap();
    let s1 = capped.open_stream().unwrap();
    let _s2 = capped.open_stream().unwrap();
    assert!(matches!(capped.open_stream().unwrap_err(), ExecError::Overloaded(_)));
    assert_eq!(capped.metrics().aggregate.streams_rejected, 1);
    drop(s1);
    // Closing one frees a slot.
    let _s3 = capped.open_stream().unwrap();

    // Deadline: the stream retires, pending rows fail structurally, and
    // later submits are StreamClosed.
    let (graph, sig, spec) = streaming_model();
    let deadlined =
        reg.register("deadlined", ModelSpec::local(graph, sig).with_stream(spec)).unwrap();
    let s = deadlined.open_stream_with_deadline(Duration::from_millis(5)).unwrap();
    std::thread::sleep(Duration::from_millis(15));
    let mut rng = TensorRng::new(5);
    let seq = rng.uniform(&[2, INPUT], -1.0, 1.0);
    match s.submit(x_rows(&seq, 2, 0, 2)) {
        Ok(t) => match t.wait() {
            Err(ExecError::DeadlineExceeded { .. }) | Err(ExecError::StreamClosed(_)) => {}
            other => panic!("expired stream returned {other:?}"),
        },
        Err(ExecError::StreamClosed(_)) => {}
        Err(e) => panic!("unexpected error {e}"),
    }

    // Drain on unload: rows accepted before the model leaves the registry
    // still complete for the ticket holder.
    let (graph, sig, spec) = streaming_model();
    let doomed = reg.register("doomed", ModelSpec::local(graph, sig).with_stream(spec)).unwrap();
    let steps = 4usize;
    let seq = rng.uniform(&[steps, INPUT], -1.0, 1.0);
    let stream = doomed.open_stream().unwrap();
    let ticket = stream.submit(x_rows(&seq, steps, 0, steps)).unwrap();
    assert!(reg.unload("doomed"));
    drop(doomed);
    let r = ticket.wait().unwrap();
    let want = reference_outputs(&seq, steps);
    assert!(r.outputs[0].value_eq(&want), "drained rows must still be exact");
    drop(stream);
}

/// Streams are replica-sticky: on a two-replica model, every iteration
/// tag a stream sees names the same replica, and opens spread across
/// replicas (least-streams routing).
#[test]
fn streams_stick_to_one_replica() {
    let (graph, sig, spec) = streaming_model();
    let reg = ModelRegistry::new();
    let handle = reg
        .register("replicated", ModelSpec::local(graph, sig).with_replicas(2).with_stream(spec))
        .unwrap();

    let mut rng = TensorRng::new(17);
    // Open all four streams first — least-streams routing only spreads
    // load across replicas while earlier streams are still live.
    let streams: Vec<_> = (0..4).map(|_| handle.open_stream().unwrap()).collect();
    let mut replica_of = Vec::new();
    for s in &streams {
        let steps = 3usize;
        let seq = rng.uniform(&[steps, INPUT], -1.0, 1.0);
        let mut tags = Vec::new();
        for t in 0..steps {
            let r = s.send(x_rows(&seq, steps, t, t + 1)).unwrap();
            // "replicated[r0]/iter-12" → "replicated[r0]".
            tags.push(r.tag.split("/iter-").next().unwrap().to_string());
        }
        assert!(
            tags.iter().all(|t| t == &tags[0]),
            "a stream hopped replicas mid-decode: {tags:?}"
        );
        replica_of.push(tags.remove(0));
    }
    // With least-streams routing and 4 concurrently live streams over 2
    // replicas, both replicas must have hosted at least one stream.
    let distinct: std::collections::HashSet<_> = replica_of.iter().collect();
    assert_eq!(distinct.len(), 2, "opens all landed on one replica: {replica_of:?}");
    assert_eq!(handle.replicas(), 2);
}

#[cfg(feature = "faultinject")]
mod faults {
    //! Transparency under injected network faults: the decode iterations
    //! hop machines (state read/accumulate on machine 0, the nonlinearity
    //! on machine 1), the replica's fault plan drops/delays/duplicates
    //! those transfers, and generous retries must absorb all of it
    //! without perturbing any stream's outputs.

    use super::*;
    use dcf::device::DeviceProfile;
    use dcf::runtime::{FaultPlan, RetryPolicy};
    use dcf::serve::{BatchPolicy, StreamHandle};

    fn two_machines() -> Cluster {
        let mut c = Cluster::new();
        c.add_device(0, DeviceProfile::cpu());
        c.add_device(1, DeviceProfile::cpu());
        c
    }

    /// A distributed accumulator stream model: `acc' = tanh(acc + x)`
    /// with the tanh on machine 1, `y = acc' · 2` fetched. Every
    /// iteration crosses the simulated network both ways.
    fn distributed_stream_model() -> (Graph, ModelSignature, StreamSpec) {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", DType::F32);
        let slots = g.placeholder("slots", DType::I64);
        let acc = g.stream_state_read(slots, "acc").unwrap();
        let s = g.add(acc, x).unwrap();
        let t = g.with_device("/machine:1/cpu:0", |g| g.tanh(s)).unwrap();
        let two = g.scalar_f32(2.0);
        let y = g.mul(t, two).unwrap();
        let w = g.stream_state_write(slots, t, "acc").unwrap();
        let sig = ModelSignature::new().feed("x", DType::F32, &[1]).fetch(y);
        let spec = StreamSpec::new("slots").with_cell("acc", &[1]).with_state_fetch(w);
        (g.finish().unwrap(), sig, spec)
    }

    fn register_distributed(
        reg: &ModelRegistry,
        name: &str,
        plan: Option<FaultPlan>,
    ) -> ModelHandle {
        let (graph, sig, spec) = distributed_stream_model();
        let generous = RetryPolicy { max_retries: 16, ..RetryPolicy::default() };
        let mut model = ModelSpec::local(graph, sig)
            .with_policy(BatchPolicy {
                run_options: RunOptions::default().with_retry(generous),
                ..BatchPolicy::default()
            })
            .with_stream(spec.with_iteration_delay(Duration::from_millis(2)));
        model.cluster = two_machines();
        if let Some(plan) = plan {
            model = model.with_replica_fault_plan(0, plan);
        }
        reg.register(name, model).unwrap()
    }

    fn drive(stream: &StreamHandle, seq: &[f32]) -> Vec<f32> {
        let mut out = Vec::new();
        for chunk in seq.chunks(2) {
            let mut feeds = HashMap::new();
            feeds.insert(
                "x".to_string(),
                Tensor::from_vec_f32(chunk.to_vec(), &[chunk.len(), 1]).unwrap(),
            );
            let r = stream.send(feeds).unwrap_or_else(|e| {
                panic!("fault-injected stream iteration failed past retries: {e}")
            });
            out.extend(r.outputs[0].as_f32_slice().unwrap());
        }
        out
    }

    #[test]
    fn fault_injected_streams_stay_bit_identical() {
        let reg = ModelRegistry::new();
        let reference = register_distributed(&reg, "clean", None);

        let mut fault_events_total = 0u64;
        for seed in [1u64, 2, 3] {
            let plan = FaultPlan::seeded(seed)
                .with_drop(0.2)
                .with_delay(0.3, Duration::from_millis(2))
                .with_duplicate(0.2);
            let faulted = register_distributed(&reg, &format!("faulted-{seed}"), Some(plan));

            let mut rng = TensorRng::new(seed ^ 0xBEEF);
            let seqs: Vec<Vec<f32>> = (0..3)
                .map(|_| rng.uniform(&[6], -1.5, 1.5).as_f32_slice().unwrap().to_vec())
                .collect();
            // Concurrent faulted streams; each compared to a private
            // fault-free stream decoding the same sequence alone.
            std::thread::scope(|scope| {
                for (i, seq) in seqs.iter().enumerate() {
                    let (faulted, reference) = (&faulted, &reference);
                    scope.spawn(move || {
                        let got = drive(&faulted.open_stream().unwrap(), seq);
                        let want = drive(&reference.open_stream().unwrap(), seq);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "faults perturbed stream {i} (seed {seed})"
                        );
                    });
                }
            });

            let a = faulted.metrics().aggregate;
            assert_eq!(a.streams_retired, 3);
            assert_eq!(a.failed, 0);
            fault_events_total += a.fault_events;
        }
        assert!(fault_events_total > 0, "no faults fired across the sweep");
    }

    trait Bits {
        fn to_bits(&self) -> Vec<u32>;
    }
    impl Bits for Vec<f32> {
        fn to_bits(&self) -> Vec<u32> {
            self.iter().map(|v| v.to_bits()).collect()
        }
    }
}
