//! The benchmark's inputs: the served corpus, the query-spec pool, the
//! churn stream and the seeded request sequence.
//!
//! The corpus and engine are built with exactly the calls and defaults
//! the shipped `serve` binary makes (`crates/serve/src/bin/serve.rs`), so
//! an in-process engine here answers every query bit-identically to the
//! server. If `serve.rs` changes its corpus or engine set-up without this
//! file following, the answer check fails the run rather than measuring a
//! different system.

use datagen::rng::{Rng, SeedableRng, StdRng};
use datagen::{
    generate_churn, generate_objects, generate_workload, ChurnConfig, ChurnOp, CorpusConfig,
    UserGenConfig,
};
use mbrstk_core::{Engine, Method, Mutation, QueryResult, QuerySpec};
use serve::{encode_reply, encode_request, Reply, Request};
use text::{Document, WeightModel};

/// Corpus seed: the `serve` binary's shipped default. The workload seed
/// varies the traffic, not the corpus, so per-corpus cost differences do
/// not enter the run-to-run spread and the exact counters repeat across
/// seeds.
pub const CORPUS_SEED: u64 = 42;
/// `serve` defaults: |O| and |U|.
pub const OBJECTS: usize = 20_000;
pub const USERS: usize = 500;
/// Query variants: rotated half-pool windows of the candidate locations.
pub const SPEC_POOL: usize = 16;
/// Keyword budget and k of every query.
const WS: usize = 3;
const K: usize = 10;
/// Length of the pre-generated churn stream (far above what a 60 s run
/// of churn-mix can consume; running out fails the run).
const CHURN_OPS: usize = 4096;
/// Salt separating the churn stream's seed from the corpus seed.
const CHURN_SALT: u64 = 0xC4_u64 << 32;

/// One named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    JointRead,
    UindexRead,
    ChurnMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::JointRead,
        Workload::UindexRead,
        Workload::ChurnMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::JointRead => "joint-read",
            Workload::UindexRead => "uindex-read",
            Workload::ChurnMix => "churn-mix",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The strategy every read of the mix uses.
    pub fn method(self) -> Method {
        match self {
            Workload::UindexRead => Method::UserIndexGreedy,
            Workload::JointRead | Workload::ChurnMix => Method::JointGreedy,
        }
    }

    /// Offered open-loop rate (req/s): about 35–40% of the measured
    /// two-worker capacity, so tails show queueing but not saturation.
    pub fn rate(self) -> f64 {
        match self {
            Workload::JointRead => 60.0,
            Workload::UindexRead => 35.0,
            Workload::ChurnMix => 45.0,
        }
    }

    /// Share of requests that are object mutations.
    pub fn write_share(self) -> f64 {
        match self {
            Workload::ChurnMix => 0.25,
            Workload::JointRead | Workload::UindexRead => 0.0,
        }
    }
}

/// Everything derived from the corpus: an engine identical to the
/// served one, the spec pool with its encoded frames and expected
/// replies, and the churn stream.
pub struct Corpus {
    pub engine: Engine,
    pub specs: Vec<QuerySpec>,
    /// Encoded query request per spec, for the workload's method.
    pub query_frames: Vec<Vec<u8>>,
    /// The in-process answer per spec.
    pub answers: Vec<QueryResult>,
    /// Encoded `Reply::Answer` per spec: a served answer is correct when
    /// its frame equals this byte for byte.
    pub answer_frames: Vec<Vec<u8>>,
    /// Object mutations (inserts and removes), in stream order.
    pub mutations: Vec<Mutation>,
    pub mutation_frames: Vec<Vec<u8>>,
}

/// Builds the engine exactly as `serve --seed CORPUS_SEED` does.
pub fn build_engine() -> (Engine, datagen::Workload) {
    let mut corpus = CorpusConfig::flickr_like(OBJECTS);
    corpus.seed = CORPUS_SEED;
    let object_data = generate_objects(&corpus);
    let workload = generate_workload(
        &object_data,
        &UserGenConfig {
            num_users: USERS,
            area: 5.0,
            uw: 20,
            ul: 3,
            num_locations: 50,
            seed: CORPUS_SEED ^ 0x9e37_79b9,
        },
    );
    let engine = Engine::build(
        object_data,
        workload.users.clone(),
        WeightModel::LanguageModel { lambda: 0.2 },
        0.5,
    )
    .with_user_index();
    (engine, workload)
}

impl Corpus {
    pub fn build(method: Method) -> Corpus {
        let (engine, wl) = build_engine();
        let pool = &wl.candidate_locations;
        let take = (pool.len() / 2).max(1);
        let specs: Vec<QuerySpec> = (0..SPEC_POOL)
            .map(|i| {
                let mut locations = pool.clone();
                locations.rotate_left(i % pool.len());
                locations.truncate(take);
                QuerySpec {
                    ox_doc: Document::new(),
                    locations,
                    keywords: wl.candidate_keywords.clone(),
                    ws: WS,
                    k: K,
                }
            })
            .collect();
        let query_frames = specs
            .iter()
            .map(|spec| {
                encode_request(&Request::Query {
                    method,
                    spec: spec.clone(),
                })
            })
            .collect();
        let answers: Vec<QueryResult> = specs.iter().map(|s| engine.query(s, method)).collect();
        let answer_frames = answers
            .iter()
            .map(|a| encode_reply(&Reply::Answer(a.clone())))
            .collect();
        let churn = ChurnConfig {
            user_fraction: 0.0,
            ..ChurnConfig::new(CHURN_OPS, 1.0)
        }
        .with_seed(CORPUS_SEED ^ CHURN_SALT);
        let mutations: Vec<Mutation> = generate_churn(
            &engine.objects,
            &engine.users,
            &wl.candidate_keywords,
            &churn,
        )
        .into_iter()
        .filter_map(|op| match op {
            ChurnOp::Mutate(m) => Some(m),
            ChurnOp::Query => None,
        })
        .collect();
        let mutation_frames = mutations
            .iter()
            .map(|m| encode_request(&Request::Mutate(m.clone())))
            .collect();
        Corpus {
            engine,
            specs,
            query_frames,
            answers,
            answer_frames,
            mutations,
            mutation_frames,
        }
    }

    /// Live object count after the first `applied` stream mutations.
    pub fn objects_after(&self, applied: usize) -> i64 {
        let delta: i64 = self.mutations[..applied]
            .iter()
            .map(|m| match m {
                Mutation::InsertObject(_) => 1,
                Mutation::RemoveObject(_) => -1,
                Mutation::InsertUser(_) | Mutation::RemoveUser(_) => 0,
            })
            .sum();
        OBJECTS as i64 + delta
    }
}

/// What the `i`-th request of a run is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A read of spec `spec` of the pool.
    Query { spec: usize },
    /// The `ordinal`-th mutation of the churn stream (applied in stream
    /// order).
    Mutate { ordinal: usize },
}

/// The seeded request sequence: which op each arrival carries and, in
/// the open loop, when it is due. Equal seeds give equal sequences.
pub struct Sequence {
    rng: StdRng,
    arrivals: StdRng,
    write_share: f64,
    rate: f64,
    next_mutation: usize,
    clock: f64,
}

impl Sequence {
    /// The sequence of one segment (one server process) of a run.
    pub fn new(workload: Workload, seed: u64, segment: u64) -> Sequence {
        let salt = (workload as u64 + 1) | (segment << 8);
        Sequence {
            rng: StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt),
            arrivals: StdRng::seed_from_u64(seed ^ (salt << 40) ^ 0xA11CE),
            write_share: workload.write_share(),
            rate: workload.rate(),
            next_mutation: 0,
            clock: 0.0,
        }
    }

    /// The next request.
    pub fn next_op(&mut self) -> Op {
        if self.write_share > 0.0 && self.rng.gen::<f64>() < self.write_share {
            self.next_mutation += 1;
            Op::Mutate {
                ordinal: self.next_mutation - 1,
            }
        } else {
            Op::Query {
                spec: self.rng.gen_range(0..SPEC_POOL),
            }
        }
    }

    /// Seconds from the start of the open loop to the next Poisson
    /// arrival.
    pub fn next_arrival(&mut self) -> f64 {
        let u: f64 = self.arrivals.gen_range(f64::MIN_POSITIVE..1.0);
        self.clock += -u.ln() / self.rate;
        self.clock
    }
}
