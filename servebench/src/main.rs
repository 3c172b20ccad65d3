//! Serving benchmark for the MaxBRSTkNN `serve` binary.
//!
//! ```text
//! servebench --serve-bin PATH --root DIR --workload joint-read|uindex-read|churn-mix
//!            --seed N --seconds S --trace 0|1
//! ```
//!
//! Starts the shipped `serve` binary, drives it over loopback TCP with an
//! open-loop Poisson schedule and then a closed-loop capacity phase,
//! checks every answer, and prints the end-to-end metrics (`--trace 0`)
//! or the per-layer metrics of an additional in-process traced replay
//! (`--trace 1`). The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod live;
mod traced;
mod workload;

use std::path::{Path, PathBuf};
use std::time::Instant;

use serve::Request;

use live::{connect, drive, exchange, text_request, Outcome, Pacing, Scrape, ServerProcess};
use workload::{Corpus, Sequence, Workload, USERS};

/// Server processes per run. `--seconds` is split evenly between them
/// and their samples are pooled: under churn a process can sit in a
/// faster or a slower regime for tens of seconds, so one process per run
/// would make the run-to-run spread a coin toss.
const SEGMENTS: usize = 4;
/// Extra server starts that only measure set-up; `setup_s` is the median
/// over these and the segments' starts.
const SETUP_ONLY: usize = 3;
/// Share of each segment spent in the open loop; the rest measures
/// closed-loop capacity.
const OPEN_SHARE: f64 = 0.85;
/// Sequential idle mutations after each segment of a read workload (its
/// write latency; churn-mix measures writes under load instead).
const PROBE_MUTATIONS: usize = 24;
/// A run whose generator sent later than this (p99, while a connection
/// was free) measured the generator, not the server: it is invalid. The
/// bound is most of one query's service time; a healthy generator stays
/// within a few scheduler ticks.
const GEN_LAG_BOUND_MS: f64 = 10.0;

struct Args {
    serve_bin: PathBuf,
    root: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut serve_bin = None;
    let mut root = PathBuf::from(".");
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let val = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--serve-bin" => serve_bin = Some(PathBuf::from(val)),
            "--root" => root = PathBuf::from(val),
            "--workload" => {
                workload =
                    Some(Workload::parse(&val).ok_or_else(|| format!("unknown workload {val:?}"))?)
            }
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad --seed {val:?}"))?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|_| format!("bad --seconds {val:?}"))?;
                if s.is_nan() || s < 1.0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {val:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
        root,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Nearest-rank quantile (sorts in place); 0 for an empty sample.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// 64-bit FNV-1a, for the binary and source fingerprints.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn hash_file(path: &Path) -> Result<u64, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut h = FNV_OFFSET;
    fnv1a(&mut h, &bytes);
    Ok(h)
}

/// Fingerprint of the sources the binary is built from: the workspace
/// manifest and lock file plus every file under `crates/`, in path
/// order. The checkout may not be a git repository, so this identifies
/// the code under test where `git rev-parse` cannot.
fn source_digest(root: &Path) -> Result<u64, String> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                walk(&path, out)?;
            } else {
                out.push(path);
            }
        }
        Ok(())
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files).map_err(|e| format!("walk crates/: {e}"))?;
    files.sort();
    let mut h = FNV_OFFSET;
    for f in &files {
        let rel = f.strip_prefix(root).unwrap_or(f);
        fnv1a(&mut h, rel.to_string_lossy().as_bytes());
        fnv1a(
            &mut h,
            &std::fs::read(f).map_err(|e| format!("read {}: {e}", f.display()))?,
        );
    }
    Ok(h)
}

fn git_rev(root: &Path) -> String {
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none (not a git checkout)".into())
}

/// Reads `"key":<integer>` out of the stats JSON document.
fn stats_field(json: &str, key: &str) -> Option<i64> {
    let at = json.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = json[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '-')
        .collect();
    digits.parse().ok()
}

/// The run's result: metrics with units, request counts, and every
/// check that failed.
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Printed with the metrics but left out of the result line.
    unbounded: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

/// What one server process saw: one segment of the run.
struct Segment {
    setup_s: f64,
    first_answer_ok: bool,
    open: Outcome,
    closed: Outcome,
    closed_wall: f64,
    probe: Outcome,
    cpu_ticks: u64,
    rss_mb: f64,
    before: Scrape,
    mid: Scrape,
    after: Scrape,
}

/// Starts a server and times spawn → first answer. Returns it with the
/// first connection closed (a worker serves one connection until it
/// closes), the set-up time, and whether the first answer was correct.
fn start_server(args: &Args, corpus: &Corpus) -> Result<(ServerProcess, f64, bool), String> {
    let t = Instant::now();
    let server = ServerProcess::spawn(&args.serve_bin)?;
    let mut first = connect(server.addr)?;
    let body =
        exchange(&mut first, &corpus.query_frames[0]).map_err(|e| format!("first query: {e}"))?;
    let setup = t.elapsed().as_secs_f64();
    Ok((server, setup, body == corpus.answer_frames[0]))
}

/// Sends the head of the churn stream one mutation at a time on an idle
/// server: the read workloads' write latency.
fn write_probe(stream: &mut std::net::TcpStream, corpus: &Corpus) -> Outcome {
    let mut probe = Outcome::default();
    for frame in &corpus.mutation_frames[..PROBE_MUTATIONS] {
        let t = Instant::now();
        let reply = exchange(stream, frame);
        probe.mutate_ms.push(live::ms(t.elapsed()));
        probe.mutations_sent += 1;
        match reply
            .map_err(|e| e.to_string())
            .and_then(|b| serve::decode_reply(&b).map_err(|e| e.to_string()))
        {
            Ok(serve::Reply::MutateOk(_)) => {
                probe.ok += 1;
                probe.mutations_applied += 1;
            }
            Ok(serve::Reply::MutateRejected) => probe.rejected_mutations += 1,
            Ok(serve::Reply::Overloaded(_)) => probe.shed += 1,
            Ok(other) => {
                probe.server_errors += 1;
                probe.note(format!("probe reply {other:?}"));
            }
            Err(e) => {
                probe.transport_errors += 1;
                probe.note(format!("probe transport: {e}"));
            }
        }
    }
    probe
}

/// Checks that the served object and user counts are the stream's
/// after `applied` mutations.
fn check_state(
    stream: &mut std::net::TcpStream,
    corpus: &Corpus,
    applied: u64,
    label: &str,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let stats = text_request(stream, &Request::Stats)?;
    let want_objects = corpus.objects_after(applied as usize);
    match (stats_field(&stats, "objects"), stats_field(&stats, "users")) {
        (Some(o), Some(u)) if o == want_objects && u == USERS as i64 => {}
        got => problems.push(format!(
            "{label}: stats reports (objects, users) = {got:?}, expected ({want_objects}, {USERS})"
        )),
    }
    Ok(())
}

/// Runs one segment on a fresh server: open loop, closed loop, idle write
/// probe (read workloads), and the per-process checks.
fn segment(
    args: &Args,
    corpus: &Corpus,
    index: u64,
    problems: &mut Vec<String>,
) -> Result<Segment, String> {
    let w = args.workload;
    let secs = args.seconds / SEGMENTS as f64;
    let open_secs = secs * OPEN_SHARE;
    let (server, setup_s, first_answer_ok) = start_server(args, corpus)?;
    let mut streams = (0..live::CONNECTIONS)
        .map(|_| connect(server.addr))
        .collect::<Result<Vec<_>, _>>()?;
    let scrape = |s: &mut std::net::TcpStream| -> Result<Scrape, String> {
        Ok(Scrape::parse(&text_request(s, &Request::Metrics)?))
    };
    let mut seq = Sequence::new(w, args.seed, index);

    let before = scrape(&mut streams[0])?;
    let cpu0 = server.cpu_ticks()?;
    let open = drive(
        &mut streams,
        corpus,
        w,
        &mut seq,
        0,
        Pacing::Open { secs: open_secs },
    );
    let cpu_ticks = server.cpu_ticks()? - cpu0;
    let mid = scrape(&mut streams[0])?;
    let t = Instant::now();
    let closed = drive(
        &mut streams,
        corpus,
        w,
        &mut seq,
        open.mutations_sent as usize,
        Pacing::Closed {
            secs: secs - open_secs,
        },
    );
    let closed_wall = t.elapsed().as_secs_f64();
    let rss_mb = server.peak_rss_mb()?;

    let probe = if w.write_share() == 0.0 {
        write_probe(&mut streams[0], corpus)
    } else {
        Outcome::default()
    };
    let after = scrape(&mut streams[0])?;
    // The server saw exactly what the client sent.
    let sent_queries = open.queries_sent + closed.queries_sent;
    let sent_mutations = open.mutations_sent + closed.mutations_sent + probe.mutations_sent;
    for (kind, sent) in [("query", sent_queries), ("mutate", sent_mutations)] {
        let key = format!("serve_requests_total{{kind=\"{kind}\"}}");
        let seen = after.sum_prefix(&key) - before.sum_prefix(&key);
        if seen != sent as f64 {
            problems.push(format!(
                "segment {index}: server counted {seen} {kind} requests, client sent {sent}"
            ));
        }
    }
    let applied = open.mutations_applied + closed.mutations_applied + probe.mutations_applied;
    check_state(
        &mut streams[0],
        corpus,
        applied,
        &format!("segment {index}"),
        problems,
    )?;
    eprintln!(
        "servebench: segment {index}: open loop {} requests ({} mutations), closed loop {} in {closed_wall:.2} s, probe {}",
        open.sent(),
        open.mutations_sent,
        closed.sent(),
        probe.sent()
    );
    Ok(Segment {
        setup_s,
        first_answer_ok,
        open,
        closed,
        closed_wall,
        probe,
        cpu_ticks,
        rss_mb,
        before,
        mid,
        after,
    })
}

fn run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let rev = git_rev(&args.root);
    let bin_hash = hash_file(&args.serve_bin)?;
    let src_hash = source_digest(&args.root)?;
    println!(
        "servebench: workload={} seed={} seconds={} trace={} rev={rev} source_fnv1a64={src_hash:016x} serve_bin={} serve_fnv1a64={bin_hash:016x}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.serve_bin.display(),
    );

    let t = Instant::now();
    let corpus = Corpus::build(w.method());
    eprintln!(
        "servebench: reference engine and {} expected answers in {:.2} s",
        corpus.specs.len(),
        t.elapsed().as_secs_f64()
    );

    let mut problems = Vec::new();
    let mut setup = Vec::new();
    let mut first_answers_wrong = 0u64;
    let mut probe = Outcome::default();
    for i in 0..SETUP_ONLY {
        let (server, setup_s, first_ok) = start_server(args, &corpus)?;
        setup.push(setup_s);
        first_answers_wrong += u64::from(!first_ok);
        if w.write_share() == 0.0 {
            let mut stream = connect(server.addr)?;
            let o = write_probe(&mut stream, &corpus);
            check_state(
                &mut stream,
                &corpus,
                o.mutations_applied,
                &format!("set-up start {i}"),
                &mut problems,
            )?;
            probe.merge(o);
        }
    }
    let mut segments = Vec::with_capacity(SEGMENTS);
    for i in 0..SEGMENTS as u64 {
        segments.push(segment(args, &corpus, i, &mut problems)?);
    }

    let (mut open, mut closed) = (Outcome::default(), Outcome::default());
    for s in &segments {
        setup.push(s.setup_s);
        first_answers_wrong += u64::from(!s.first_answer_ok);
        open.merge(s.open.clone());
        closed.merge(s.closed.clone());
        probe.merge(s.probe.clone());
    }
    let mut attempted = (SETUP_ONLY + SEGMENTS) as u64;
    let mut failed = first_answers_wrong;
    if first_answers_wrong > 0 {
        problems.push(format!(
            "{first_answers_wrong} first answers after start differ from the reference"
        ));
    }
    for (phase, o) in [("open", &open), ("closed", &closed), ("probe", &probe)] {
        attempted += o.sent();
        failed += o.errors();
        if o.errors() > 0 {
            problems.push(format!(
                "{phase} loop: {} shed, {} server errors, {} transport errors, {} wrong answers, {} rejected mutations; {:?}",
                o.shed, o.server_errors, o.transport_errors, o.wrong_answers, o.rejected_mutations, o.notes
            ));
        }
    }
    let gen_lag = quantile(&mut open.lag_ms.clone(), 0.99);
    if gen_lag > GEN_LAG_BOUND_MS {
        problems.push(format!(
            "invalid run: generator p99 send lag {gen_lag:.3} ms exceeds {GEN_LAG_BOUND_MS} ms"
        ));
    }
    let mutate = if w.write_share() == 0.0 {
        &probe.mutate_ms
    } else {
        &open.mutate_ms
    };
    // Printed for the reader, not part of the result: these move with
    // the host's stalls and speed more than with the server's code
    // (README, "dropped").
    let unbounded = vec![
        (
            "query_p99_ms",
            quantile(&mut open.query_ms.clone(), 0.99),
            "ms",
        ),
        ("mutate_p50_ms", quantile(&mut mutate.clone(), 0.5), "ms"),
        ("mutate_p95_ms", quantile(&mut mutate.clone(), 0.95), "ms"),
    ];
    let sum = |f: &dyn Fn(&Segment) -> f64| segments.iter().map(f).sum::<f64>();
    let metrics = if !args.trace {
        let mut rss: Vec<f64> = segments.iter().map(|s| s.rss_mb).collect();
        vec![
            ("setup_s", quantile(&mut setup, 0.5), "s"),
            (
                "query_p50_ms",
                quantile(&mut open.query_ms.clone(), 0.5),
                "ms",
            ),
            (
                "capacity_rps",
                closed.ok as f64 / sum(&|s| s.closed_wall),
                "1/s",
            ),
            (
                "cpu_ms_per_req",
                sum(&|s| s.cpu_ticks as f64) / live::TICKS_PER_SEC * 1e3 / open.ok.max(1) as f64,
                "ms",
            ),
            ("server_rss_mb", quantile(&mut rss, 0.5), "MiB"),
        ]
    } else {
        // Server-side deltas summed over segments: over the open loop
        // alone, or over the whole segment.
        let delta = |key: &str, whole: bool| {
            sum(&|s| {
                let end = if whole { &s.after } else { &s.mid };
                end.sum_prefix(key) - s.before.sum_prefix(key)
            })
        };
        let handle_ms = delta("serve_request_latency_us_sum{kind=\"query\"}", false)
            / delta("serve_request_latency_us_count{kind=\"query\"}", false).max(1.0)
            / 1e3;
        let per_ms = |family: &str| {
            let n = delta(&format!("{family}_count"), true);
            if n > 0.0 {
                delta(&format!("{family}_sum"), true) / n / 1e3
            } else {
                0.0
            }
        };
        let mut m = vec![
            ("serve.handle_ms", handle_ms, "ms"),
            ("serve.queue_ms", mean(&open.query_ms) - handle_ms, "ms"),
            ("serve.gen_lag_ms", gen_lag, "ms"),
            (
                "serving.mutation_ms",
                per_ms("serving_mutation_latency_us"),
                "ms",
            ),
            (
                "serving.cow_fallbacks",
                delta("serving_cow_fallbacks_total", true),
                "count",
            ),
            (
                "serving.refreshes",
                delta("serving_refreshes_total{", true),
                "count",
            ),
        ];
        drop(segments);
        let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
        let spans = PathBuf::from(target).join("servebench").join(format!(
            "spans-{}-seed{}.jsonl",
            w.name(),
            args.seed
        ));
        m.extend(traced::run(corpus, w, args.seed, &spans)?);
        eprintln!("servebench: spans written to {}", spans.display());
        m
    };
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            problems.push(format!("metric {name} is not finite"));
        }
    }
    Ok(Report {
        metrics,
        unbounded,
        attempted,
        failed,
        problems,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("servebench: run failed: {e}");
            std::process::exit(1);
        }
    };
    for p in &report.problems {
        eprintln!("servebench: CHECK FAILED: {p}");
    }
    let correct = report.problems.is_empty() && report.failed == 0;
    let mut metrics = Vec::new();
    for (name, value, unit) in &report.metrics {
        println!("{name:<26} {value:>14.6} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for (name, value, unit) in &report.unbounded {
        println!("{name:<26} {value:>14.6} {unit} (printed only, no bound)");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
