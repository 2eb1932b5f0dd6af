//! The `serve-evaluate` and `serve-execute` workloads: load on a
//! `repro serve` child process, first open-loop at a fixed Poisson rate
//! (`low`), then a saturating closed loop (`high`).
//!
//! The server runs the shipped default configuration (one worker per core,
//! one I/O loop), so its CPU and memory are its own. This process is the
//! load generator: one sending thread and one receiving thread on two
//! pipelined connections. Request lines are encoded before timing starts;
//! while timing, the receiver only stores raw response lines with their
//! arrival time and reads each line's id from its prefix. Responses are
//! decoded and checked after timing.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use polling::{Interest, Poller};
use wfspeak_core::{
    evaluate_prepared, execute_artifact, ExecutionPipeline, ExperimentKind, PromptVariant,
    ReferenceCache, SystemProfile, WorkflowSystemId,
};
use wfspeak_llm::SimulatedLlm;
use wfspeak_metrics::{BleuScorer, ChrfScorer};
use wfspeak_service::protocol::{decode_line, encode_line};
use wfspeak_service::{
    EvaluationScore, ExecutionScore, RequestMode, ScoreRequest, ScoreResponse, ServiceStats,
};

use crate::inputs::{self, Row, TRIALS};
use crate::report::{LayerReport, Outcome};
use crate::schedule::{self, Arrival, Rng};
use crate::stages::{Ladder, Stages};
use crate::stats;
use crate::trace::Tracer;
use crate::wire;

/// Server set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// How long a phase may take to drain after its last request is due.
const DRAIN: Duration = Duration::from_secs(10);
/// Request bodies in the `serve-execute` pool, per system.
const EXECUTE_BODIES_PER_SYSTEM: usize = 20;
/// Each phase's schedule continues, unmeasured, for this long (and at
/// least `TAIL_MIN` requests) after its measured requests.
const TAIL_SECONDS: f64 = 0.25;
const TAIL_MIN: usize = 8;
/// Pipelined connections the generator spreads requests over.
const CONNECTIONS: usize = 2;
/// Ids of `stats` requests start here; load requests count up from 1.
const STATS_ID: u64 = 1 << 40;
/// Requests the low phase sends at least: one window.
const MIN_LOW: usize = WINDOW;
/// Shares of `--seconds` for the open-loop low phase and the closed-loop
/// high (saturation) phase.
const SHARES: [f64; 2] = [0.6, 0.4];
/// Requests the saturation phase keeps in flight.
const IN_FLIGHT: usize = 16;
/// Latency percentiles are taken per window of this many consecutive
/// requests (enough for a p99) and reported as the median over windows.
const WINDOW: usize = 1100;
/// The saturated throughput is the median over this many equal slices of
/// the closed loop's window.
const SLICES: usize = 5;

/// What the server does with a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Evaluate,
    Execute,
}

/// A serve workload's fixed offered load.
#[derive(Debug, Clone)]
pub struct Spec {
    pub mode: Mode,
    /// Model responses per request.
    pub batch: usize,
    /// Offered rate of the open-loop low phase (requests/s), well below
    /// saturation.
    pub low_rps: f64,
}

impl Spec {
    pub fn named(name: &str) -> Option<Spec> {
        match name {
            "serve-evaluate" => Some(Spec {
                mode: Mode::Evaluate,
                batch: TRIALS as usize,
                low_rps: 160.0,
            }),
            "serve-execute" => Some(Spec {
                mode: Mode::Execute,
                batch: 16,
                low_rps: 60.0,
            }),
            _ => None,
        }
    }

    /// The configuration as a JSON object.
    pub fn describe(&self) -> String {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        format!(
            "{{\"mode\":\"{:?}\",\"batch\":{},\"low_rps\":{},\"high_in_flight\":{IN_FLIGHT},\
             \"shares\":[{},{}],\"min_low\":{MIN_LOW},\"connections\":{CONNECTIONS},\
             \"server\":{{\"workers\":{workers},\"io_threads\":1}}}}",
            self.mode, self.batch, self.low_rps, SHARES[0], SHARES[1]
        )
    }
}

/// One request body of the pool: the request (id 0), its encoded line
/// after the id, and the expected response line after the id.
struct Body {
    request: ScoreRequest,
    tail: Vec<u8>,
    expected_tail: Vec<u8>,
    /// Execution outcomes the program produces for this body, per response.
    ladders: Vec<Ladder>,
    /// The expected response (id 0) of an execute body, which the
    /// service replay encodes.
    expected: Option<ScoreResponse>,
    /// Index of the reference this body addresses (for warm-up).
    reference: usize,
}

fn tail_of(line: &str) -> Vec<u8> {
    wire::after_id(line.as_bytes()).to_vec()
}

/// The request pool and, for every body, the response the program itself
/// gives in-process.
fn pool(spec: &Spec, seed: u64) -> Vec<Body> {
    let clients = SimulatedLlm::all();
    let respond = |row: &Row, model: usize, trial: u64| {
        inputs::respond(&clients[model], &row.prompt, seed + trial)
    };
    let (bleu, chrf) = (BleuScorer::default(), ChrfScorer::default());
    let mut references: Vec<String> = Vec::new();
    let mut reference_index = |key: String| match references.iter().position(|r| *r == key) {
        Some(i) => i,
        None => {
            references.push(key);
            references.len() - 1
        }
    };
    let mut bodies = Vec::new();
    match spec.mode {
        Mode::Evaluate => {
            let cache = ReferenceCache::default();
            for variant in PromptVariant::ALL {
                for kind in ExperimentKind::ALL {
                    for row in inputs::experiment_rows(kind, variant) {
                        let prepared = cache.get_or_prepare(&bleu, &chrf, row.reference);
                        let profile = SystemProfile::for_system(row.system);
                        for model in 0..clients.len() {
                            let responses: Vec<String> =
                                (0..TRIALS).map(|t| respond(&row, model, t)).collect();
                            let evaluations = responses
                                .iter()
                                .map(|r| {
                                    EvaluationScore::from_evaluation(&evaluate_prepared(
                                        &bleu, &chrf, &prepared, &profile, r,
                                    ))
                                })
                                .collect();
                            let expected = ScoreResponse::evaluated(0, evaluations);
                            let request =
                                ScoreRequest::evaluate(0, row.task, row.system.name(), responses);
                            bodies.push(Body {
                                tail: tail_of(&encode_line(&request)),
                                expected_tail: tail_of(&encode_line(&expected)),
                                request,
                                ladders: Vec::new(),
                                expected: None,
                                reference: reference_index(format!("{:?}", (row.task, row.system))),
                            });
                        }
                    }
                }
            }
        }
        Mode::Execute => {
            let pipeline = ExecutionPipeline::default();
            let mut rng = Rng::new(seed ^ 0x5eed_e8ec);
            for row in inputs::execution_rows(PromptVariant::Original) {
                let mut responses = Vec::new();
                for variant in PromptVariant::ALL {
                    let prompt = inputs::execution_rows(variant)
                        .into_iter()
                        .find(|r| r.system == row.system)
                        .expect("every execution system has a row")
                        .prompt;
                    let row = Row {
                        prompt,
                        ..row.clone()
                    };
                    for model in 0..clients.len() {
                        responses.extend((0..TRIALS).map(|t| respond(&row, model, t)));
                    }
                }
                let summary = pipeline
                    .reference_summary(row.system, row.reference)
                    .expect("reference artifacts run");
                for _ in 0..EXECUTE_BODIES_PER_SYSTEM {
                    let drawn: Vec<String> = (0..spec.batch)
                        .map(|_| responses[rng.below(responses.len())].clone())
                        .collect();
                    let scores: Vec<_> = drawn
                        .iter()
                        .map(|r| execute_artifact(pipeline.sandbox(), row.system, r, &summary))
                        .collect();
                    let expected = ScoreResponse::executed(
                        0,
                        scores.iter().map(ExecutionScore::from_execution).collect(),
                    );
                    let request = ScoreRequest::execute(0, row.system.name(), drawn);
                    bodies.push(Body {
                        tail: tail_of(&encode_line(&request)),
                        expected_tail: tail_of(&encode_line(&expected)),
                        request,
                        ladders: scores.iter().map(Ladder::of).collect(),
                        expected: Some(expected),
                        reference: reference_index(row.system.name().to_owned()),
                    });
                }
            }
        }
    }
    bodies
}

/// The server child process; killed and reaped when dropped.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn spawn(repro: &Path) -> Result<Server, String> {
        let mut child = Command::new(repro)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", repro.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut banner = String::new();
        let read = BufReader::new(stdout).read_line(&mut banner);
        let mut server = Server {
            child,
            addr: String::new(),
        };
        read.map_err(|e| format!("server banner: {e}"))?;
        server.addr = banner
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or_else(|| format!("unexpected server banner {banner:?}"))?
            .to_owned();
        Ok(server)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Start a server and get answers to one request per reference.
fn set_up(repro: &Path, bodies: &[Body]) -> Result<Server, String> {
    let server = Server::spawn(repro)?;
    let stream = TcpStream::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut warm = Vec::new();
    for (i, body) in bodies.iter().enumerate() {
        if !warm
            .iter()
            .any(|&j: &usize| bodies[j].reference == body.reference)
        {
            warm.push(i);
        }
    }
    let mut reader = BufReader::new(stream);
    for (n, &i) in warm.iter().enumerate() {
        let request = ScoreRequest {
            id: n as u64 + 1,
            ..bodies[i].request.clone()
        };
        writer
            .write_all(encode_line(&request).as_bytes())
            .map_err(|e| format!("warm-up send: {e}"))?;
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("warm-up reply: {e}"))?;
        if !is_ok(line.as_bytes()) {
            return Err(format!("warm-up request failed: {}", line.trim()));
        }
    }
    Ok(server)
}

/// A response line as the receiver saw it.
struct Received {
    at_ns: u64,
    id: Option<u64>,
    line: Vec<u8>,
}

/// The receiving side of the generator: one thread reading both
/// connections, storing raw lines until it is stopped.
struct Receiver {
    count: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
    poller: Arc<Poller>,
    thread: Option<std::thread::JoinHandle<Result<Vec<Received>, String>>>,
}

impl Receiver {
    fn start(streams: Vec<TcpStream>, origin: Instant) -> Result<Receiver, String> {
        let poller = Arc::new(Poller::new().map_err(|e| e.to_string())?);
        for (key, stream) in streams.iter().enumerate() {
            poller
                .add(stream.as_raw_fd(), key, Interest::readable())
                .map_err(|e| e.to_string())?;
        }
        let count = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (count, stop, poller) = (count.clone(), stop.clone(), poller.clone());
            std::thread::spawn(move || receive(streams, origin, &poller, &count, &stop))
        };
        Ok(Receiver {
            count,
            stop,
            poller,
            thread: Some(thread),
        })
    }

    /// Wait until `n` lines have arrived, or `deadline` passes.
    fn wait_for(&self, n: usize, deadline: Instant) -> bool {
        while self.count.load(Ordering::Acquire) < n {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        true
    }

    /// Stop the thread and take every line it stored.
    fn finish(mut self) -> Result<Vec<Received>, String> {
        self.halt()
            .unwrap_or_else(|| Err("receiver already stopped".to_owned()))
    }

    fn halt(&mut self) -> Option<Result<Vec<Received>, String>> {
        self.stop.store(true, Ordering::Release);
        let _ = self.poller.notify();
        let thread = self.thread.take()?;
        Some(
            thread
                .join()
                .unwrap_or_else(|_| Err("receiver panicked".to_owned())),
        )
    }
}

impl Drop for Receiver {
    fn drop(&mut self) {
        let _ = self.halt();
    }
}

fn receive(
    mut streams: Vec<TcpStream>,
    origin: Instant,
    poller: &Poller,
    count: &AtomicUsize,
    stop: &AtomicBool,
) -> Result<Vec<Received>, String> {
    let mut lines = Vec::new();
    let mut pending: Vec<Vec<u8>> = vec![Vec::new(); streams.len()];
    let mut open = vec![true; streams.len()];
    let mut chunk = vec![0u8; 1 << 16];
    let mut events = Vec::new();
    while !stop.load(Ordering::Acquire) {
        poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .map_err(|e| e.to_string())?;
        for event in &events {
            let key = event.key;
            if !open[key] {
                continue;
            }
            // The socket is readable, so this read returns without waiting.
            let n = streams[key].read(&mut chunk).map_err(|e| e.to_string())?;
            let at_ns = origin.elapsed().as_nanos() as u64;
            if n == 0 {
                open[key] = false;
                let _ = poller.delete(streams[key].as_raw_fd());
                continue;
            }
            let buffer = &mut pending[key];
            buffer.extend_from_slice(&chunk[..n]);
            let mut start = 0;
            let before = lines.len();
            while let Some(offset) = buffer[start..].iter().position(|&b| b == b'\n') {
                let line = buffer[start..start + offset].to_vec();
                start += offset + 1;
                lines.push(Received {
                    at_ns,
                    id: wire::response_id(&line),
                    line,
                });
            }
            buffer.drain(..start);
            count.fetch_add(lines.len() - before, Ordering::Release);
        }
    }
    Ok(lines)
}

/// One request as the sender sent it.
#[derive(Debug, Clone, Copy)]
struct Sent {
    id: u64,
    body: usize,
    due_ns: u64,
    sent_ns: u64,
    phase: usize,
    /// False for the tail a phase sends after its measured requests.
    measured: bool,
}

/// The sending side: writes each request line when it is due, on
/// alternating connections.
struct Sender {
    streams: Vec<TcpStream>,
    origin: Instant,
    next_id: u64,
    sent: Vec<Sent>,
    buffer: Vec<u8>,
}

impl Sender {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Write one request line for `body`, due at `due_ns`.
    fn send_one(
        &mut self,
        bodies: &[Body],
        body: usize,
        due_ns: u64,
        phase: usize,
        measured: bool,
    ) -> Result<(), String> {
        let id = self.next_id;
        self.next_id += 1;
        self.buffer.clear();
        let _ = write!(self.buffer, "{{\"id\":{id}");
        self.buffer.extend_from_slice(&bodies[body].tail);
        let connection = id as usize % self.streams.len();
        self.streams[connection]
            .write_all(&self.buffer)
            .map_err(|e| format!("send: {e}"))?;
        self.sent.push(Sent {
            id,
            body,
            due_ns,
            sent_ns: self.now_ns(),
            phase,
            measured,
        });
        Ok(())
    }

    /// Send `arrivals` when each is due, the first `measured` of them
    /// measured.
    fn send(
        &mut self,
        bodies: &[Body],
        arrivals: &[Arrival],
        phase: usize,
        measured: usize,
    ) -> Result<(), String> {
        let start = self.now_ns() + 1_000_000;
        for (k, arrival) in arrivals.iter().enumerate() {
            let due_ns = start + arrival.due_ns;
            let now = self.now_ns();
            if due_ns > now {
                std::thread::sleep(Duration::from_nanos(due_ns - now));
            }
            self.send_one(bodies, arrival.body, due_ns, phase, k < measured)?;
        }
        Ok(())
    }

    fn stats(&mut self, phase: usize) -> Result<(), String> {
        let line = encode_line(&ScoreRequest::stats(STATS_ID + phase as u64));
        self.streams[0]
            .write_all(line.as_bytes())
            .map_err(|e| format!("stats: {e}"))
    }
}

/// Phase names, by phase index.
const PHASES: [&str; 2] = ["low", "high"];

/// Open loop: send `count` seeded Poisson arrivals at `rate` as phase
/// `index`, wait for their answers, then ask for the server's counters.
/// Returns whether everything was answered in time.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    sender: &mut Sender,
    receiver: &Receiver,
    bodies: &[Body],
    index: usize,
    rate: f64,
    count: usize,
    seed: u64,
    expected_lines: &mut usize,
) -> Result<bool, String> {
    // The schedule runs on for a short unmeasured tail, so the measured
    // requests at the end of a phase see the same traffic as the rest
    // rather than idle connections.
    let tail = ((rate * TAIL_SECONDS) as usize).max(TAIL_MIN);
    let arrivals = schedule::poisson(
        seed.wrapping_mul(0x9e37_79b9).wrapping_add(index as u64),
        rate,
        count + tail,
        bodies.len(),
    );
    sender.send(bodies, &arrivals, index, count)?;
    *expected_lines += arrivals.len();
    finish_phase(sender, receiver, index, expected_lines)
}

/// Wait for a phase's answers, then for a `stats` answer.
fn finish_phase(
    sender: &mut Sender,
    receiver: &Receiver,
    index: usize,
    expected_lines: &mut usize,
) -> Result<bool, String> {
    let mut drained = receiver.wait_for(*expected_lines, Instant::now() + DRAIN);
    sender.stats(index)?;
    *expected_lines += 1;
    drained &= receiver.wait_for(*expected_lines, Instant::now() + DRAIN);
    Ok(drained)
}

/// The first answer to each request id, and how many answers each got.
fn answers(received: &[Received]) -> (HashMap<u64, usize>, HashMap<u64, usize>) {
    let mut first = HashMap::new();
    let mut count: HashMap<u64, usize> = HashMap::new();
    for (i, r) in received.iter().enumerate() {
        if let Some(id) = r.id {
            first.entry(id).or_insert(i);
            *count.entry(id).or_default() += 1;
        }
    }
    (first, count)
}

fn is_ok(line: &[u8]) -> bool {
    wire::after_id(line).starts_with(b",\"ok\":true")
}

/// Latency of each request from its due time, in ms; a request that was
/// refused, failed or never answered counts as infinitely late.
fn latencies(sent: &[&Sent], received: &[Received], first: &HashMap<u64, usize>) -> Vec<f64> {
    sent.iter()
        .map(|s| match first.get(&s.id).map(|&i| &received[i]) {
            Some(r) if is_ok(&r.line) => r.at_ns.saturating_sub(s.due_ns) as f64 / 1e6,
            _ => f64::INFINITY,
        })
        .collect()
}

/// Closed loop: keep `IN_FLIGHT` requests outstanding for `seconds`, and
/// until at least one latency window has been answered, sending the next
/// as soon as one is answered. Returns the window and whether it drained.
fn saturate(
    sender: &mut Sender,
    receiver: &Receiver,
    bodies: &[Body],
    index: usize,
    seconds: f64,
    seed: u64,
    expected_lines: &mut usize,
) -> Result<(u64, u64, bool), String> {
    let mut rng = Rng::new(seed ^ 0x5a7u64.wrapping_mul(index as u64 + 1));
    let before = receiver.count.load(Ordering::Acquire);
    let start = sender.now_ns();
    let planned_end = start + (seconds * 1e9) as u64;
    let mut sent = 0;
    let end = loop {
        let done = receiver
            .count
            .load(Ordering::Acquire)
            .saturating_sub(before);
        let now = sender.now_ns();
        if now >= planned_end && done >= WINDOW {
            break now;
        }
        if sent - done.min(sent) < IN_FLIGHT {
            sender.send_one(bodies, rng.below(bodies.len()), now, index, true)?;
            sent += 1;
        } else {
            std::thread::sleep(Duration::from_micros(100));
        }
    };
    *expected_lines += sent;
    let drained = finish_phase(sender, receiver, index, expected_lines)?;
    Ok((start, end, drained))
}

/// What the server said besides answers: error kinds and `stats`
/// snapshots by phase.
struct Checked {
    errors: BTreeMap<String, usize>,
    server_stats: BTreeMap<u64, ServiceStats>,
}

/// Check every answer after timing: each request answered exactly once,
/// and every successful answer, decoded and re-encoded, equal to the
/// in-process one (byte-identical repeats of a verified answer are not
/// decoded again). Failures are recorded in `outcome`.
fn check(
    bodies: &[Body],
    sent: &[Sent],
    received: &[Received],
    outcome: &mut Outcome,
) -> Result<Checked, String> {
    let (_, count) = answers(received);
    let body_of: HashMap<u64, usize> = sent.iter().map(|s| (s.id, s.body)).collect();
    let unanswered = sent.iter().filter(|s| !count.contains_key(&s.id)).count();
    let repeated = sent
        .iter()
        .filter(|s| count.get(&s.id).is_some_and(|&n| n > 1))
        .count();
    let mut verified: HashMap<usize, Vec<Vec<u8>>> = HashMap::new();
    let mut mismatched = 0;
    let mut strangers = 0;
    let mut errors: BTreeMap<String, usize> = BTreeMap::new();
    let mut server_stats: BTreeMap<u64, ServiceStats> = BTreeMap::new();
    for r in received {
        let Some(id) = r.id else {
            strangers += 1;
            continue;
        };
        let text = String::from_utf8_lossy(&r.line);
        if id >= STATS_ID {
            let decoded: ScoreResponse = decode_line(&text)?;
            server_stats.insert(
                id - STATS_ID,
                decoded.stats.ok_or("stats reply without stats")?,
            );
            continue;
        }
        let Some(&body) = body_of.get(&id) else {
            strangers += 1;
            continue;
        };
        if !is_ok(&r.line) {
            let decoded: ScoreResponse = decode_line(&text)?;
            let kind = decoded.error_kind.unwrap_or_else(|| "failure".to_owned());
            *errors.entry(kind).or_default() += 1;
            continue;
        }
        let tail = wire::after_id(&r.line);
        let seen = verified.entry(body).or_default();
        if seen.iter().any(|t| t == tail) {
            continue;
        }
        // Decode, re-encode and compare with the in-process answer.
        let decoded: ScoreResponse = decode_line(&text)?;
        if wire::after_id(encode_line(&decoded).as_bytes()) == bodies[body].expected_tail.as_slice()
        {
            seen.push(tail.to_vec());
        } else {
            mismatched += 1;
        }
    }
    let refused: usize = errors.values().sum();
    outcome.failed = unanswered + refused + mismatched;
    for (count, what) in [
        (unanswered, "requests were never answered"),
        (repeated, "requests were answered more than once"),
        (strangers, "responses carried an unknown or missing id"),
        (mismatched, "responses differ from the in-process result"),
    ] {
        if count > 0 {
            outcome.fail(format!("{count} {what}"));
        }
    }
    for (kind, n) in &errors {
        if kind != "overloaded" && kind != "deadline" {
            outcome.fail(format!("{n} requests failed with `{kind}`"));
        }
    }
    Ok(Checked {
        errors,
        server_stats,
    })
}

pub fn run(
    spec: &Spec,
    repro: &Path,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Outcome, String> {
    let bodies = pool(spec, seed);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut server = None;
    for _ in 0..SETUPS {
        drop(server.take());
        let started = Instant::now();
        server = Some(set_up(repro, &bodies)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let server = server.expect("at least one set-up");

    let origin = Instant::now();
    let connect = || TcpStream::connect(&server.addr).map_err(|e| format!("connect: {e}"));
    let streams = (0..CONNECTIONS)
        .map(|_| connect())
        .collect::<Result<Vec<_>, _>>()?;
    for stream in &streams {
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
    }
    let readers = streams
        .iter()
        .map(|s| s.try_clone().map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let receiver = Receiver::start(readers, origin)?;
    let mut sender = Sender {
        streams,
        origin,
        next_id: 1,
        sent: Vec::new(),
        buffer: Vec::with_capacity(1 << 16),
    };

    let mut expected_lines = 0;
    let low_count = ((spec.low_rps * seconds * SHARES[0]).round() as usize).max(MIN_LOW);
    let low_drained = open_loop(
        &mut sender,
        &receiver,
        &bodies,
        0,
        spec.low_rps,
        low_count,
        seed,
        &mut expected_lines,
    )?;
    let (window_start, window_end, high_drained) = saturate(
        &mut sender,
        &receiver,
        &bodies,
        1,
        seconds * SHARES[1],
        seed,
        &mut expected_lines,
    )?;
    let peak_rss_mb = crate::host::peak_rss_mb(&server.pid())?;
    let received = receiver.finish()?;
    let sent = std::mem::take(&mut sender.sent);
    drop(sender);
    drop(server);

    // Everything below runs after timing.
    let mut outcome = Outcome::new(sent.len());
    let Checked {
        errors,
        server_stats,
    } = check(&bodies, &sent, &received, &mut outcome)?;
    let (first, _) = answers(&received);
    let sent_phase: HashMap<u64, usize> = sent.iter().map(|s| (s.id, s.phase)).collect();
    for (name, drained) in PHASES.iter().zip([low_drained, high_drained]) {
        if !drained {
            outcome.fail(format!("phase {name} did not drain within {DRAIN:?}"));
        }
    }

    // Latency in send order, cut into windows of `WINDOW` requests.
    let phase_latency = |index: usize| {
        let of_phase: Vec<&Sent> = sent
            .iter()
            .filter(|s| s.phase == index && s.measured)
            .collect();
        latencies(&of_phase, &received, &first)
    };
    let low = phase_latency(0);
    let high = phase_latency(1);
    let lag_ms: Vec<f64> = sent
        .iter()
        .map(|s| s.sent_ns.saturating_sub(s.due_ns) as f64 / 1e6)
        .collect();
    let lag_p99_ms = stats::tail(&stats::sorted(&lag_ms), 99.0)?;
    outcome.metric("setup_s", "s", stats::median(&setups));
    // Saturated throughput: the median over equal slices of the closed
    // loop's window of the answers that arrived in each.
    let slice_ns = (window_end - window_start) / SLICES as u64;
    let mut per_slice = [0usize; SLICES];
    for r in &received {
        let in_high = r.id.and_then(|id| sent_phase.get(&id)) == Some(&1);
        if in_high && is_ok(&r.line) && (window_start..window_end).contains(&r.at_ns) {
            per_slice[(((r.at_ns - window_start) / slice_ns) as usize).min(SLICES - 1)] += 1;
        }
    }
    let rates: Vec<f64> = per_slice
        .iter()
        .map(|&n| n as f64 / (slice_ns as f64 / 1e9))
        .collect();
    let saturated = stats::median(&rates);
    outcome.metric("results_per_s", "1/s", saturated * spec.batch as f64);
    outcome.latency("low", &stats::windows(&low, WINDOW))?;
    outcome.latency("high", &stats::windows(&high, WINDOW))?;
    outcome.metric(
        "ok_ratio",
        "ratio",
        1.0 - outcome.failed as f64 / outcome.attempted as f64,
    );
    outcome.metric("peak_rss_mb", "MB", peak_rss_mb);
    outcome.detail("saturated_rps", saturated.to_string());
    outcome.detail("lag_p99_ms", lag_p99_ms.to_string());
    let kinds: Vec<String> = errors.iter().map(|(k, n)| format!("\"{k}\":{n}")).collect();
    outcome.detail("errors", format!("{{{}}}", kinds.join(",")));
    let server_latency: Vec<String> = server_stats
        .iter()
        .map(|(phase, s)| {
            format!(
                "{{\"phase\":\"{}\",\"p50_us\":{},\"p99_us\":{}}}",
                PHASES[*phase as usize], s.latency_p50_us, s.latency_p99_us
            )
        })
        .collect();
    outcome.detail("server_latency", format!("[{}]", server_latency.join(",")));

    if traced {
        let mut quiet = Tracer::new(false);
        let plain = replay(spec, &bodies, &mut quiet)?;
        let mut tracer = Tracer::new(true);
        let replayed = replay(spec, &bodies, &mut tracer)?;
        if replayed.mismatched + plain.mismatched > 0 {
            outcome.fail(format!(
                "{} replayed requests differ from the in-process result",
                replayed.mismatched
            ));
        }
        let mut layers = LayerReport::from_spans(tracer.spans(), replayed.wall_s);
        let req_bytes: usize = sent.iter().map(|s| bodies[s.body].tail.len() + 8).sum();
        let resp_bytes: usize = received.iter().map(|r| r.line.len() + 1).sum();
        layers.set(
            "service.req_bytes",
            req_bytes as f64 / sent.len().max(1) as f64,
        );
        layers.set(
            "service.resp_bytes",
            resp_bytes as f64 / received.len().max(1) as f64,
        );
        let after_low = server_stats.get(&0).copied().unwrap_or_default();
        let last = server_stats.values().last().copied().unwrap_or_default();
        layers.set("service.server_p50_us", after_low.latency_p50_us as f64);
        layers.set("service.server_p99_us", after_low.latency_p99_us as f64);
        let client_p50_us = stats::median(&low) * 1e3;
        layers.set(
            "service.unaccounted_us",
            client_p50_us - layers.get("service.decode_us") - after_low.latency_p50_us as f64,
        );
        layers.set("service.requests", last.requests as f64);
        layers.set("service.hypotheses", last.hypotheses as f64);
        layers.set(
            "service.shed",
            *errors.get("overloaded").unwrap_or(&0) as f64,
        );
        layers.set(
            "service.deadline",
            *errors.get("deadline").unwrap_or(&0) as f64,
        );
        layers.set(
            "service.internal",
            *errors.get("internal").unwrap_or(&0) as f64,
        );
        layers.set("service.worker_restarts", last.worker_restarts as f64);
        layers.set("core.cache_hit_ratio", last.cache_hit_rate());
        layers.set("core.exec_ref_runs", replayed.reference_runs as f64);
        layers.ladder(&replayed.ladders);
        layers.set("bench.lag_p99_ms", lag_p99_ms);
        layers.set("bench.trace_overhead", replayed.wall_s / plain.wall_s - 1.0);
        layers.check_sum(&mut outcome);
        outcome.layers = Some(layers);
        outcome.spans = tracer.spans().to_vec();
    }
    Ok(outcome)
}

/// What the service replay produced.
struct Replayed {
    wall_s: f64,
    ladders: Vec<Ladder>,
    mismatched: usize,
    reference_runs: usize,
}

/// Replay each distinct request body in-process, one at a time: decode the
/// request line, make the worker's stage calls, encode the response. The
/// request's position in the pool is its trace id.
fn replay(spec: &Spec, bodies: &[Body], tr: &mut Tracer) -> Result<Replayed, String> {
    let stages = Stages::default();
    let cache = ReferenceCache::default();
    let pipeline = ExecutionPipeline::default();
    let lines: Vec<String> = bodies
        .iter()
        .enumerate()
        .map(|(i, b)| format!("{{\"id\":{}{}", i + 1, String::from_utf8_lossy(&b.tail)))
        .collect();
    // The server answers warm; so does the replay.
    for body in bodies {
        let reference = body.request.resolve_reference()?.ok_or("stats body")?;
        let system = system_of(&body.request)?;
        match spec.mode {
            Mode::Evaluate => drop(cache.get_or_prepare(&stages.bleu, &stages.chrf, reference)),
            Mode::Execute => drop(pipeline.reference_summary(system, reference)?),
        }
    }
    let mut out = Replayed {
        wall_s: 0.0,
        ladders: Vec::new(),
        mismatched: 0,
        reference_runs: pipeline.cached_references(),
    };
    let started = Instant::now();
    tr.open("bench.replay");
    for (i, (body, line)) in bodies.iter().zip(&lines).enumerate() {
        tr.set_trace(i as u64 + 1);
        tr.open("bench.request");
        let request: ScoreRequest = tr.leaf("service.decode", || decode_line(line))?;
        tr.open("service.handle");
        if request.resolve_mode()? == RequestMode::Score {
            return Err("the pool holds only evaluate and execute requests".to_owned());
        }
        let reference = request.resolve_reference()?.ok_or("stats body")?;
        let system = system_of(&request)?;
        let response = match spec.mode {
            Mode::Evaluate => {
                let prepared = tr.leaf("core.cache_lookup", || {
                    cache.get_or_prepare_bounded(&stages.bleu, &stages.chrf, reference, 4096)
                });
                let profile = SystemProfile::for_system(system);
                let evaluations = request
                    .hypotheses
                    .iter()
                    .map(|h| {
                        EvaluationScore::from_evaluation(
                            &stages.evaluate(tr, &prepared, &profile, h),
                        )
                    })
                    .collect();
                ScoreResponse::evaluated(request.id, evaluations)
            }
            Mode::Execute => {
                let summary = tr.leaf("core.exec_reference", || {
                    pipeline.reference_summary(system, reference)
                })?;
                let ladders: Vec<Ladder> = request
                    .hypotheses
                    .iter()
                    .map(|h| stages.execute(tr, system, h, &summary))
                    .collect();
                let same = ladders.len() == body.ladders.len()
                    && ladders
                        .iter()
                        .zip(&body.ladders)
                        .all(|(a, b)| a.record() == b.record());
                out.mismatched += usize::from(!same);
                out.ladders.extend(ladders);
                let expected = body
                    .expected
                    .as_ref()
                    .ok_or("execute body without answer")?;
                ScoreResponse {
                    id: request.id,
                    ..expected.clone()
                }
            }
        };
        tr.close();
        let encoded = tr.leaf("service.encode", || encode_line(&response));
        tr.close();
        out.mismatched +=
            usize::from(wire::after_id(encoded.as_bytes()) != body.expected_tail.as_slice());
    }
    tr.close();
    out.wall_s = started.elapsed().as_secs_f64();
    Ok(out)
}

fn system_of(request: &ScoreRequest) -> Result<WorkflowSystemId, String> {
    request
        .resolve_system_name()
        .and_then(WorkflowSystemId::from_name)
        .ok_or_else(|| "request names no workflow system".to_owned())
}
