//! The live half: the `serve` process and the loopback TCP load.

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use serve::{decode_reply, read_frame, write_frame, Reply, MAX_FRAME_LEN};

use crate::workload::{Corpus, Op, Sequence, Workload, CORPUS_SEED};

/// Client threads, each with one persistent connection. The suite is
/// sized for a two-core host: more clients would compete with the
/// server's workers for the cores.
pub const CONNECTIONS: usize = 2;

/// A running `serve` process; killed and reaped on drop.
pub struct ServerProcess {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl ServerProcess {
    /// Starts `serve` with its shipped defaults on an ephemeral port and
    /// waits for the `serving on ADDR` line.
    pub fn spawn(bin: &Path) -> Result<ServerProcess, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--seed", &CORPUS_SEED.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = match read {
            Ok(_) => line
                .trim()
                .strip_prefix("serving on ")
                .and_then(|a| a.parse().ok()),
            Err(_) => None,
        };
        let mut server = ServerProcess {
            child,
            _stdout: stdout,
            addr: "127.0.0.1:0".parse().expect("literal address"),
        };
        match addr {
            Some(addr) => {
                server.addr = addr;
                Ok(server)
            }
            None => Err(format!("serve printed {line:?} instead of its address")),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// utime + stime of the whole process, in clock ticks.
    pub fn cpu_ticks(&self) -> Result<u64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))
            .map_err(|e| format!("read /proc stat: {e}"))?;
        // Fields after the parenthesized command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = &stat[stat.rfind(')').ok_or("malformed /proc stat")? + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| -> Result<u64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse().ok())
                .ok_or_else(|| "malformed /proc stat".to_string())
        };
        Ok(tick(11)? + tick(12)?)
    }

    /// Peak resident set (VmHWM), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("read /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in /proc status".to_string())
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Clock ticks per second of `/proc/<pid>/stat` (USER_HZ; 100 on Linux
/// builds for every mainstream architecture).
pub const TICKS_PER_SEC: f64 = 100.0;

const IO_TIMEOUT: Option<Duration> = Some(Duration::from_secs(10));

pub fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    // A stuck server fails the run well inside its time limit.
    for timeout in [
        stream.set_read_timeout(IO_TIMEOUT),
        stream.set_write_timeout(IO_TIMEOUT),
    ] {
        timeout.map_err(|e| format!("socket timeout: {e}"))?;
    }
    Ok(stream)
}

/// One request/reply exchange of pre-encoded frames.
pub fn exchange(stream: &mut TcpStream, frame: &[u8]) -> std::io::Result<Vec<u8>> {
    write_frame(stream, frame)?;
    read_frame(stream, MAX_FRAME_LEN)?
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "server closed"))
}

/// Sends a request that has a text reply (stats / metrics).
pub fn text_request(stream: &mut TcpStream, req: &serve::Request) -> Result<String, String> {
    let body = exchange(stream, &serve::encode_request(req)).map_err(|e| e.to_string())?;
    match decode_reply(&body).map_err(|e| e.to_string())? {
        Reply::Stats(s) | Reply::Metrics(s) => Ok(s),
        other => Err(format!("unexpected reply {other:?}")),
    }
}

/// Outcome counts of one phase; anything but `ok` is an error.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    pub queries_sent: u64,
    pub mutations_sent: u64,
    /// Mutations the server acknowledged with `MutateOk`.
    pub mutations_applied: u64,
    pub ok: u64,
    pub shed: u64,
    pub server_errors: u64,
    pub transport_errors: u64,
    pub wrong_answers: u64,
    pub rejected_mutations: u64,
    /// Latency from the scheduled arrival to the reply (ms).
    pub query_ms: Vec<f64>,
    pub mutate_ms: Vec<f64>,
    /// Send lateness while a connection was free (ms).
    pub lag_ms: Vec<f64>,
    /// The first few error descriptions, for the report.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn errors(&self) -> u64 {
        self.shed
            + self.server_errors
            + self.transport_errors
            + self.wrong_answers
            + self.rejected_mutations
    }

    pub fn sent(&self) -> u64 {
        self.queries_sent + self.mutations_sent
    }

    pub fn merge(&mut self, o: Outcome) {
        self.queries_sent += o.queries_sent;
        self.mutations_sent += o.mutations_sent;
        self.mutations_applied += o.mutations_applied;
        self.ok += o.ok;
        self.shed += o.shed;
        self.server_errors += o.server_errors;
        self.transport_errors += o.transport_errors;
        self.wrong_answers += o.wrong_answers;
        self.rejected_mutations += o.rejected_mutations;
        self.query_ms.extend(o.query_ms);
        self.mutate_ms.extend(o.mutate_ms);
        self.lag_ms.extend(o.lag_ms);
        for n in o.notes {
            if self.notes.len() < 5 {
                self.notes.push(n);
            }
        }
    }

    pub fn note(&mut self, n: String) {
        if self.notes.len() < 5 {
            self.notes.push(n);
        }
    }
}

/// How a phase paces its requests.
#[derive(Debug, Clone, Copy)]
pub enum Pacing {
    /// Poisson arrivals from the sequence; stop at the first arrival
    /// past this many seconds.
    Open { secs: f64 },
    /// Each connection sends its next request as soon as the previous
    /// reply arrives; stop claiming after this many seconds.
    Closed { secs: f64 },
}

/// Shared dispatch state: the sequence the next request is claimed
/// from, and whether the phase has ended.
struct Dispatch<'a> {
    seq: &'a mut Sequence,
    exhausted: bool,
}

/// Mutations are applied in stream order: a connection holding mutation
/// `n` waits until mutation `n - 1` has been acknowledged.
struct WriteTurn {
    done: Mutex<usize>,
    cv: Condvar,
}

/// Drives one phase over `streams` and returns what happened.
pub fn drive(
    streams: &mut [TcpStream],
    corpus: &Corpus,
    workload: Workload,
    seq: &mut Sequence,
    first_mutation: usize,
    pacing: Pacing,
) -> Outcome {
    let check_answers = workload.write_share() == 0.0;
    let dispatch = Mutex::new(Dispatch {
        seq,
        exhausted: false,
    });
    let turn = WriteTurn {
        done: Mutex::new(first_mutation),
        cv: Condvar::new(),
    };
    let start = Instant::now() + Duration::from_millis(20);
    let mut total = Outcome::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .map(|stream| {
                let (dispatch, turn) = (&dispatch, &turn);
                scope.spawn(move || {
                    let mut out = Outcome::default();
                    loop {
                        // Claim the next arrival (and its due time).
                        let claimed_at = Instant::now();
                        let (op, due) = {
                            let mut d = dispatch.lock().expect("dispatch lock");
                            if d.exhausted {
                                break;
                            }
                            match pacing {
                                Pacing::Open { secs } => {
                                    let at = d.seq.next_arrival();
                                    if at > secs {
                                        d.exhausted = true;
                                        break;
                                    }
                                    (d.seq.next_op(), Some(start + Duration::from_secs_f64(at)))
                                }
                                Pacing::Closed { secs } => {
                                    if start.elapsed().as_secs_f64() > secs {
                                        d.exhausted = true;
                                        break;
                                    }
                                    (d.seq.next_op(), None)
                                }
                            }
                        };
                        if let Some(due) = due {
                            let now = Instant::now();
                            if due > now {
                                std::thread::sleep(due - now);
                            }
                        }
                        // When the request could have gone out: due, the
                        // connection free, and (for a write) the previous
                        // write acknowledged. Waiting for any of those is
                        // charged to latency; only sending later than
                        // that is generator lag.
                        let mut ready = due.map_or(claimed_at, |d| d.max(claimed_at));
                        let frame = match op {
                            Op::Query { spec } => &corpus.query_frames[spec],
                            Op::Mutate { ordinal } => {
                                let Some(f) = corpus.mutation_frames.get(ordinal) else {
                                    out.transport_errors += 1;
                                    out.note("churn stream exhausted".into());
                                    break;
                                };
                                let mut done = turn.done.lock().expect("turn lock");
                                if *done < ordinal {
                                    while *done < ordinal {
                                        done = turn.cv.wait(done).expect("turn lock");
                                    }
                                    ready = ready.max(Instant::now());
                                }
                                f
                            }
                        };
                        let sent_at = Instant::now();
                        let origin = due.unwrap_or(sent_at);
                        if due.is_some() {
                            out.lag_ms
                                .push(ms(sent_at.saturating_duration_since(ready)));
                        }
                        let reply = exchange(stream, frame);
                        let latency = ms(origin.elapsed());
                        match op {
                            Op::Query { spec } => {
                                out.queries_sent += 1;
                                match reply {
                                    Ok(body)
                                        if check_answers && body == corpus.answer_frames[spec] =>
                                    {
                                        out.ok += 1;
                                    }
                                    Ok(body) => match decode_reply(&body) {
                                        Ok(Reply::Answer(_)) if !check_answers => out.ok += 1,
                                        Ok(Reply::Answer(got)) => {
                                            out.wrong_answers += 1;
                                            out.note(format!(
                                                "spec {spec}: served {got:?}, expected {:?}",
                                                corpus.answers[spec]
                                            ));
                                        }
                                        Ok(Reply::Overloaded(_)) => out.shed += 1,
                                        Ok(other) => {
                                            out.server_errors += 1;
                                            out.note(format!("query reply {other:?}"));
                                        }
                                        Err(e) => {
                                            out.server_errors += 1;
                                            out.note(format!("query reply undecodable: {e}"));
                                        }
                                    },
                                    Err(e) => {
                                        // The stream's state is unknown:
                                        // this connection stops.
                                        out.transport_errors += 1;
                                        out.note(format!("query transport: {e}"));
                                        break;
                                    }
                                }
                                out.query_ms.push(latency);
                            }
                            Op::Mutate { .. } => {
                                out.mutations_sent += 1;
                                let broken = reply.is_err();
                                match reply
                                    .map_err(|e| e.to_string())
                                    .and_then(|b| decode_reply(&b).map_err(|e| e.to_string()))
                                {
                                    Ok(Reply::MutateOk(_)) => {
                                        out.ok += 1;
                                        out.mutations_applied += 1;
                                    }
                                    Ok(Reply::MutateRejected) => out.rejected_mutations += 1,
                                    Ok(Reply::Overloaded(_)) => out.shed += 1,
                                    Ok(other) => {
                                        out.server_errors += 1;
                                        out.note(format!("mutate reply {other:?}"));
                                    }
                                    Err(e) => {
                                        out.transport_errors += 1;
                                        out.note(format!("mutate transport: {e}"));
                                    }
                                }
                                out.mutate_ms.push(latency);
                                // Pass the turn on whatever the outcome, so
                                // a failed write cannot wedge the phase.
                                *turn.done.lock().expect("turn lock") += 1;
                                turn.cv.notify_all();
                                if broken {
                                    break;
                                }
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("client thread"));
        }
    });
    total
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One scrape of the server's Prometheus page: the values the run
/// reconciles and reports, as `(key, value)` pairs.
#[derive(Debug, Default, Clone)]
pub struct Scrape {
    lines: Vec<(String, f64)>,
}

impl Scrape {
    pub fn parse(text: &str) -> Scrape {
        let lines = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (k, v) = l.rsplit_once(' ')?;
                Some((k.to_string(), v.parse().ok()?))
            })
            .collect();
        Scrape { lines }
    }

    /// Sum over every series whose key starts with `prefix` (a full
    /// series key selects just that series; 0 when absent, as families
    /// appear on first use).
    pub fn sum_prefix(&self, prefix: &str) -> f64 {
        self.lines
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }
}
