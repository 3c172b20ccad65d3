//! The traced run: an in-process replay that times spans around calls
//! into each layer's public functions, for the per-layer metrics.
//!
//! Nothing here runs while end-to-end numbers are measured; the live run
//! has no tracing. Timings replay the run's own seeded request sequence.
//! The exact counters (simulated I/O, |RO|, frame bytes) are taken over
//! the fixed spec pool and the head of the churn stream instead, so they
//! do not depend on the seed and must repeat bit for bit across runs.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use mbrstk_core::topk::individual::individual_topk;
use mbrstk_core::topk::joint::joint_topk;
use mbrstk_core::user_index::compute_user_index_seed;
use mbrstk_core::{Mutation, Phase, ServingEngine};
use serve::{decode_request, encode_reply, Reply, Request};

use crate::workload::{build_engine, Corpus, Op, Sequence, Workload};

/// Requests of the seeded sequence the replay runs through the serving
/// layer.
const REPLAY: usize = 96;
/// Repetitions of the spec-independent layer calls (top-k, seed).
const REPS: usize = 16;
/// Passes of the codec timing loop over the replay's frames (one call
/// is well under a microsecond, below what a per-call clock read can
/// resolve, so the codec is timed per pass and divided).
const CODEC_PASSES: usize = 64;
/// Stream mutations applied directly to an unshared engine.
pub const DIRECT_MUTATIONS: usize = 48;

/// One timed call: `name` spans `[start_ns, end_ns)` since the trace
/// origin; spans of one replayed request share `req`.
struct Span {
    name: &'static str,
    req: usize,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, req: usize, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Records a span whose extent was measured by the callee (a query
    /// phase out of `QueryStats.phases`).
    fn record(&mut self, name: &'static str, req: usize, parent: usize, start_ns: u64, nanos: u64) {
        self.spans.push(Span {
            name,
            req,
            parent: Some(parent),
            start_ns,
            end_ns: start_ns + nanos,
        });
    }

    /// Median duration (ms) of the spans called `name`.
    fn median_ms(&self, name: &str) -> f64 {
        let mut d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect();
        crate::quantile(&mut d, 0.5)
    }

    /// Writes every span as one JSON line.
    fn dump(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"req\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-layer metrics of the traced run, as `(name, value, unit)`.
pub fn run(
    corpus: Corpus,
    workload: Workload,
    seed: u64,
    spans_path: &Path,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let method = workload.method();
    let k = corpus.specs[0].k;
    let mut tr = Tracer::new();
    let mut out = Vec::new();

    // Serving layer: replay the seeded sequence through a fresh serving
    // engine, with the request codec on either side of each call.
    let (fresh, _) = build_engine();
    let serving = ServingEngine::new(fresh);
    let mut seq = Sequence::new(workload, seed, 0);
    let mut request_frames = Vec::with_capacity(REPLAY);
    let mut replies = Vec::with_capacity(REPLAY);
    for req in 0..REPLAY {
        let op = seq.next_op();
        let frame = match op {
            Op::Query { spec } => &corpus.query_frames[spec],
            Op::Mutate { ordinal } => &corpus.mutation_frames[ordinal],
        };
        let root = tr.open("request", req, None);
        let s = tr.open("serve.decode_request", req, Some(root));
        let decoded = decode_request(frame).map_err(|e| format!("replay decode: {e}"))?;
        tr.close(s);
        let reply = match decoded {
            Request::Query { method, spec } => {
                let s = tr.open("serving.query", req, Some(root));
                let (answer, _guard) = serving.query(&spec, method);
                tr.close(s);
                Reply::Answer(answer)
            }
            Request::Mutate(m) => {
                let s = tr.open("serving.apply", req, Some(root));
                let io = serving.apply(m);
                tr.close(s);
                io.map_or(Reply::MutateRejected, Reply::MutateOk)
            }
            other => return Err(format!("replay sequence produced {other:?}")),
        };
        let s = tr.open("serve.encode_reply", req, Some(root));
        let body = encode_reply(&reply);
        tr.close(s);
        tr.close(root);
        match (op, &reply) {
            (Op::Query { spec }, _) if workload.write_share() == 0.0 => {
                if body != corpus.answer_frames[spec] {
                    return Err(format!(
                        "traced answer for spec {spec} differs from the reference"
                    ));
                }
            }
            (Op::Query { .. }, Reply::Answer(_)) | (Op::Mutate { .. }, Reply::MutateOk(_)) => {}
            (_, other) => return Err(format!("traced replay got {other:?}")),
        }
        request_frames.push(frame.clone());
        replies.push(reply);

        // Core layer: the same read through the batch executor, whose
        // QueryStats split it into the top-k and selection phases.
        if let Op::Query { spec } = op {
            let s = tr.open("core.query", req, None);
            let start_ns = tr.now();
            let stats = serving.snapshot().query_batch_threads(
                std::slice::from_ref(&corpus.specs[spec]),
                method,
                1,
            )[0]
            .stats;
            tr.close(s);
            let topk = stats.phases.get(Phase::TopK).nanos;
            tr.record("core.topk", req, s, start_ns, topk);
            tr.record(
                "core.select",
                req,
                s,
                start_ns + topk,
                stats.phases.get(Phase::Select).nanos,
            );
        }
    }
    out.push(("serving.query_ms", tr.median_ms("serving.query"), "ms"));
    out.push(("core.topk_ms", tr.median_ms("core.topk"), "ms"));
    out.push(("core.select_ms", tr.median_ms("core.select"), "ms"));

    // Codec: whole passes over the replay's frames.
    let per_call_us = |passes: Vec<f64>, calls: usize| {
        let mut per: Vec<f64> = passes.iter().map(|ns| ns / calls as f64 / 1e3).collect();
        crate::quantile(&mut per, 0.5)
    };
    let mut decode_ns = Vec::with_capacity(CODEC_PASSES);
    let mut encode_ns = Vec::with_capacity(CODEC_PASSES);
    for _ in 0..CODEC_PASSES {
        let t = Instant::now();
        for f in &request_frames {
            std::hint::black_box(decode_request(std::hint::black_box(f)).is_ok());
        }
        decode_ns.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        for r in &replies {
            std::hint::black_box(encode_reply(std::hint::black_box(r)).len());
        }
        encode_ns.push(t.elapsed().as_nanos() as f64);
    }
    out.push((
        "serve.decode_request_us",
        per_call_us(decode_ns, request_frames.len()),
        "us",
    ));
    out.push((
        "serve.encode_reply_us",
        per_call_us(encode_ns, replies.len()),
        "us",
    ));
    drop(serving);

    // Exact counters over the spec pool (cold queries are deterministic).
    let engine = corpus.engine;
    let n = corpus.specs.len() as f64;
    let wire = |frames: &[Vec<u8>]| frames.iter().map(|f| 4 + f.len()).sum::<usize>() as f64 / n;
    out.push(("serve.request_bytes", wire(&corpus.query_frames), "bytes"));
    out.push(("serve.reply_bytes", wire(&corpus.answer_frames), "bytes"));
    let pool = engine.query_batch_threads(&corpus.specs, method, 1);
    let mean =
        |f: &dyn Fn(&mbrstk_core::BatchOutcome) -> u64| pool.iter().map(f).sum::<u64>() as f64 / n;
    out.push((
        "core.topk_io",
        mean(&|o| o.stats.phases.get(Phase::TopK).io.total()),
        "count",
    ));
    out.push((
        "core.select_io",
        mean(&|o| o.stats.phases.get(Phase::Select).io.total()),
        "count",
    ));
    out.push((
        "index.node_visits",
        mean(&|o| o.stats.io.node_visits),
        "count",
    ));
    out.push((
        "storage.invfile_blocks",
        mean(&|o| o.stats.io.invfile_blocks),
        "count",
    ));

    // Top-k layer: Algorithms 1 and 2 depend on k only, not on the spec.
    let su = engine.super_user_shared();
    let mut ro_objects = 0usize;
    for rep in 0..REPS {
        let s = tr.open("topk.joint", rep, None);
        let joint = joint_topk(&engine.mir, &su, k, &engine.ctx, &engine.io);
        tr.close(s);
        let s = tr.open("topk.individual", rep, None);
        std::hint::black_box(individual_topk(&engine.users, &joint, k, &engine.ctx));
        tr.close(s);
        ro_objects = joint.ro.len();
    }
    out.push(("topk.joint_ms", tr.median_ms("topk.joint"), "ms"));
    out.push(("topk.individual_ms", tr.median_ms("topk.individual"), "ms"));
    out.push(("topk.ro_objects", ro_objects as f64, "count"));

    // User-index layer: the §7 seed (MIUR root + joint traversal).
    let miur = engine
        .miur
        .as_ref()
        .ok_or("engine built without the user index")?;
    for rep in 0..REPS {
        let s = tr.open("user_index.seed", rep, None);
        std::hint::black_box(compute_user_index_seed(
            miur,
            &engine.mir,
            k,
            &engine.ctx,
            &engine.io,
        ));
        tr.close(s);
    }
    out.push(("user_index.seed_ms", tr.median_ms("user_index.seed"), "ms"));

    // Dynamic layer: the head of the churn stream, straight into an
    // engine nothing else holds.
    let mut engine = engine;
    let mut maintenance = 0u64;
    for (i, m) in corpus.mutations[..DIRECT_MUTATIONS].iter().enumerate() {
        let s = tr.open("dynamic.mutation", i, None);
        let io = match m.clone() {
            Mutation::InsertObject(o) => engine.insert_object(o),
            Mutation::RemoveObject(id) => engine.remove_object(id),
            other => return Err(format!("object churn produced {other:?}")),
        };
        tr.close(s);
        maintenance += io.ok_or("direct mutation rejected")?.total();
    }
    out.push((
        "dynamic.mutation_ms",
        tr.median_ms("dynamic.mutation"),
        "ms",
    ));
    out.push((
        "dynamic.mutation_io",
        maintenance as f64 / DIRECT_MUTATIONS as f64,
        "count",
    ));

    // Refresh: re-weigh the mutated engine. The live server never
    // refreshes within a run, so its refresh-duration family stays empty.
    let serving = ServingEngine::new(engine);
    let s = tr.open("serving.refresh", 0, None);
    serving.refresh_now();
    tr.close(s);
    out.push(("serving.refresh_ms", tr.median_ms("serving.refresh"), "ms"));

    tr.dump(spans_path)
        .map_err(|e| format!("write spans to {}: {e}", spans_path.display()))?;
    Ok(out)
}
