//! `serve_streams`: open-loop streams through `ModelHandle::open_stream`
//! to the LSTM `decode_step_model` (input 3, hidden 8, output 4).
//!
//! Each stream opens, sends one fixed-length chunk of seeded rows and
//! closes. This is the serve layer used statefully: the continuous batcher
//! admits and retires streams between iterations and keeps per-stream
//! state slots in the session's `ResourceManager`. Fixed-length chunks on
//! one replica finish in the order they were sent.

use crate::layers::{self, StepProfile};
use crate::openloop::{self, drive, poisson_schedule, Phase};
use crate::spans::Spans;
use crate::stats::{bits_eq, layer_percentile, sub_seed, SplitMix};
use crate::{cold_setups, Config, Layers, Report, SetupTimes};
use dcf_graph::{Graph, GraphBuilder};
use dcf_ml::{decode_reference_model, decode_step_model, DecodeStepModel};
use dcf_runtime::{compile_count, Cluster, Session};
use dcf_serve::{ModelHandle, ModelRegistry, ModelSignature, ModelSpec, StreamSpec};
use dcf_tensor::{DType, Tensor, TensorRng};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// Offered load, streams per second.
pub const RATE: f64 = 400.0;
/// Rows per stream chunk.
pub const CHUNK: usize = 8;
/// Chunk-latency limit for `slo_frac`, ms.
pub const LIMIT_MS: f64 = 50.0;
const INPUT: usize = 3;
const HIDDEN: usize = 8;
const OUTPUT: usize = 4;
/// Distinct seeded chunks.
const POOL: usize = 64;

fn model(seed: u64) -> (Graph, DecodeStepModel) {
    let mut g = GraphBuilder::new();
    let m = decode_step_model(&mut g, INPUT, HIDDEN, OUTPUT, seed).expect("decode step builds");
    (g.finish().expect("decode step validates"), m)
}

fn feeds(m: &DecodeStepModel, chunk: &Tensor) -> HashMap<String, Tensor> {
    HashMap::from([(m.x_feed.clone(), chunk.clone())])
}

/// The registered model with what its oracle and profile re-run.
struct Served {
    handle: ModelHandle,
    graph: Graph,
    model: DecodeStepModel,
    weight_seed: u64,
}

/// Builds the decode step for weight seed `seed`, registers it and serves
/// the first stream (which instantiates the replica and compiles).
fn setup(seed: u64, chunk0: &Tensor, spans: &Spans) -> (Served, SetupTimes) {
    let t0 = Instant::now();
    let ((graph, m), _) = spans.time("graph.build", None, seed, || model(seed));
    let build_s = t0.elapsed().as_secs_f64();
    let fp = graph.fingerprint();
    let compiles = compile_count(fp);
    let t1 = Instant::now();
    let (handle, _) = spans.time("serve.first_stream", None, seed, || {
        let sig = ModelSignature::new().feed(&m.x_feed, DType::F32, &[INPUT]).fetch(m.y);
        let mut stream = StreamSpec::new(&m.slots_feed);
        for (cell, dims) in &m.state_cells {
            stream = stream.with_cell(cell, dims);
        }
        for &w in &m.writes {
            stream = stream.with_state_fetch(w);
        }
        let mut spec = ModelSpec::local(graph.clone(), sig).with_stream(stream);
        spec.session_options = crate::session_options();
        let handle = ModelRegistry::new().register("streams", spec).expect("model registers");
        handle
            .open_stream()
            .expect("first stream opens")
            .send(feeds(&m, chunk0))
            .expect("first chunk");
        handle
    });
    let compile_s = t1.elapsed().as_secs_f64();
    assert_eq!(compile_count(fp), compiles + 1, "set-up must compile, not hit the graph cache");
    let total_s = t0.elapsed().as_secs_f64();
    let served = Served { handle, graph, model: m, weight_seed: seed };
    (served, SetupTimes { build_s, grad_s: 0.0, compile_s, total_s })
}

/// Each chunk's outputs from a batch-1 full-sequence decode with the
/// same weights.
fn references(weight_seed: u64, chunks: &[Tensor]) -> Vec<Tensor> {
    let mut g = GraphBuilder::new();
    let y = decode_reference_model(&mut g, INPUT, HIDDEN, OUTPUT, weight_seed, CHUNK)
        .expect("reference decode builds");
    let sess = Session::local(g.finish().expect("reference validates")).expect("reference session");
    chunks
        .iter()
        .map(|c| {
            let f = HashMap::from([("x".to_string(), c.clone())]);
            sess.eval(&f, &[y]).expect("reference decode").remove(0)
        })
        .collect()
}

/// One open-loop phase; also returns each stream's first-row delay, ms.
fn phase(
    s: &Served,
    chunks: &[Tensor],
    wants: &[Tensor],
    seed: u64,
    seconds: f64,
    spans: &Spans,
) -> (Phase, Vec<f64>) {
    let offsets = poisson_schedule(seed, RATE, seconds);
    let mut pick = SplitMix::new(seed ^ 1);
    let which: Vec<usize> = offsets.iter().map(|_| pick.index(POOL)).collect();
    let first_row_ms = Mutex::new(Vec::with_capacity(offsets.len()));
    let p = drive(
        &offsets,
        spans,
        |i| {
            let stream = s.handle.open_stream().ok()?;
            let ticket = stream.submit(feeds(&s.model, &chunks[which[i]])).ok()?;
            Some((stream, ticket))
        },
        |i, (stream, ticket)| {
            let resp = ticket.wait().ok()?;
            stream.close();
            first_row_ms.lock().expect("first-row log").push(resp.queue_delay.as_secs_f64() * 1e3);
            Some(resp.outputs.len() == 1 && bits_eq(&resp.outputs[0], &wants[which[i]]))
        },
    );
    (p, first_row_ms.into_inner().expect("first-row log"))
}

/// One decode iteration's executor profile: the served graph run directly
/// for a single stream slot, one chunk row per run.
fn step_profile(s: &Served, chunk: &Tensor, out: &mut Layers) -> (StepProfile, f64) {
    let sess = Session::new(s.graph.clone(), Cluster::single_cpu(), crate::session_options())
        .expect("decode session");
    out.set("runtime.nodes_optimized", layers::nodes_optimized(&sess));
    let rm = sess.resources();
    let slot = rm.stream_create();
    for (cell, dims) in &s.model.state_cells {
        let mut row = vec![1];
        row.extend(dims);
        rm.stream_init_cell(slot, cell, Tensor::zeros(DType::F32, &row)).expect("state cell");
    }
    let mut fetches = vec![s.model.y];
    fetches.extend(&s.model.writes);
    let rows = chunk.split0(&[1; CHUNK]).expect("chunk rows");
    let slots = Tensor::from_vec_i64(vec![slot as i64], &[1]).expect("slot feed");
    let result = layers::profile_direct(
        &sess,
        |k| {
            let mut f = feeds(&s.model, &rows[k % CHUNK]);
            f.insert(s.model.slots_feed.clone(), slots.clone());
            f
        },
        &fetches,
    );
    rm.stream_drop(slot);
    result
}

/// Runs the workload.
pub fn run(cfg: Config) -> Report {
    let spans = Spans::new(cfg.trace);
    let mut rng = TensorRng::new(sub_seed(cfg.seed, 100));
    let chunks: Vec<Tensor> = (0..POOL).map(|_| rng.uniform(&[CHUNK, INPUT], -1.0, 1.0)).collect();
    let (s, setup) = cold_setups(cfg.seed, |seed| self::setup(seed, &chunks[0], &spans));
    let wants = references(s.weight_seed, &chunks);

    let (p, first_row_ms) =
        phase(&s, &chunks, &wants, sub_seed(cfg.seed, 200), cfg.seconds, &spans);
    if !cfg.trace {
        let rows = p.ledger.latencies_ms().len() as f64 * CHUNK as f64;
        return Report::end_to_end(p.ledger, 0, &setup, rows / p.wall_s, LIMIT_MS);
    }

    let mut layers = Layers::default();
    let micro = layers::common(cfg.seed, &setup, &mut layers);
    layers.set("graph.nodes", s.graph.len() as f64);
    layers::serve_metrics(&s.handle.metrics(), &mut layers);
    layers.set("serve.first_row_ms_p50", layer_percentile("first row", &first_row_ms, 0.5));
    layers.set("serve.first_row_ms_p99", layer_percentile("first row", &first_row_ms, 0.99));
    openloop::trace_layers(&p, &mut layers);
    let (profile, wall_us) = step_profile(&s, &chunks[0], &mut layers);
    profile.metrics(1.0, &mut layers);
    layers.set("closure.residual_frac", layers::closure_residual(&profile, &micro, wall_us));
    crate::write_trace("serve_streams", cfg.seed, &spans);
    Report::per_layer(p.ledger, 0, layers)
}
