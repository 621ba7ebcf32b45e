//! The serving workload: a labeling server loaded from a snapshot of a
//! seeded drift corpus, driven over loopback by an open-loop generator
//! that mixes keep-alive reads with interface ingests.
//!
//! The generator runs two threads and two connections. The sender
//! sleeps until each request is due and writes it (reads on one
//! connection, `POST` ingests on the other); the receiver waits on both
//! sockets and times every response from the moment its request was
//! due, so a stall in the server is charged to every request queued
//! behind it, and a failed request is charged as very late. Reads run
//! first open-loop at the nominal rate, then closed-loop with a fixed
//! number in flight, which measures the rate the server sustains;
//! ingests run at a fixed rate throughout.
//!
//! A run is [`SEGMENTS`] such loads, each against a freshly set-up
//! server; each figure is computed per segment and reported as the
//! median over the segments. Before its load, each server gets one
//! untimed ingest per domain. Each segment's timings are scaled by the
//! host-speed reference timed just before and after its load (see
//! [`crate::calib`]); the set-up by the reference timed around it.

use crate::calib::Calibration;
use crate::drift::{corpus, INTERFACES};
use crate::stats::{median, quantile, threads_cpu, Report};
use crate::{Args, Outcome};
use qi_core::NamingPolicy;
use qi_lexicon::Lexicon;
use qi_runtime::netpoll::{poll_fds, PollFd};
use qi_runtime::{json, parallel_try_map, SplitMix64, Telemetry};
use qi_serve::{DomainArtifact, Server, ServerConfig, ServerHandle, Snapshot, Store};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// The traffic parameters below are assumptions, not measurements of
// real clients: no request trace of an integrated-interface server
// exists to take them from. perfbench/README.md gives the reason for
// each value.

/// Domains the server holds.
const DOMAINS: usize = 16;
/// Ingests of each segment's isolated phase: one per domain.
const ISOLATED: usize = DOMAINS;
/// The name of the server's threads: qi-serve names its reactor thread,
/// and the workers it spawns inherit the name.
const SERVER_THREADS: &str = "qi-serve";
/// Reads per second at which read and ingest latency are reported.
pub const NOMINAL_RATE: f64 = 2_000.0;
/// Ingests per second, throughout the segment.
pub const INGEST_RATE: f64 = 10.0;
/// The read p99 an offered rate must meet to count as sustained.
pub const READ_P99_LIMIT_MS: f64 = 20.0;
/// The generator's own send-lateness p99 above which a run is invalid:
/// half the read latency budget spent before a request is even sent.
pub const GEN_LATE_LIMIT_MS: f64 = READ_P99_LIMIT_MS / 2.0;
/// How late a failed request counts: a non-2xx answer, a connection
/// error or no answer is charged as if it had been answered when the
/// receiver gives up waiting. Shedding load can then only worsen the
/// latency figures.
const FAILED_CHARGE_MS: f64 = 10_000.0;
/// Segments per run, each on a freshly set-up server with its own
/// corpus. Which processor the server's and the generator's threads
/// share differs from server to server and moves read latency by half,
/// so each figure is computed per segment and the run reports the
/// median over the segments. `setup_s` is the median of the set-ups.
const SEGMENTS: usize = 20;

/// Share of each segment spent in the saturation phase after the
/// nominal one.
const SATURATION_SHARE: f64 = 0.2;
/// Reads the saturation phase keeps in flight on its connection. The
/// server stops reading a connection with 64 requests in flight
/// (`MAX_INFLIGHT_PER_CONN` in qi-serve), and a client that stops
/// sending at that depth makes it stall (see perfbench/README.md); 48
/// keeps the server busy and stays clear of the limit.
const SATURATION_WINDOW: usize = 48;
/// Read mix by endpoint: labels, tree, explain, query.
const ENDPOINT_WEIGHTS: [f64; 4] = [0.40, 0.25, 0.20, 0.15];
/// Exponent of the Zipf-like skew of reads across domains.
const ZIPF_ALPHA: f64 = 0.8;
/// Cursorless queries over every domain, cached by the server until the
/// next ingest: the query set of `qi-serve-bench`'s `query_scaled`
/// stage, which covers every primitive, the lexicon relations and the
/// provenance filters.
const QUERY_SET: &[&str] = &[
    "find fields",
    "find nodes where unlabeled",
    "find fields where label ~ \"date\"",
    "find nodes where label synonym-of \"passenger\"",
    "find nodes where label hyponym-of \"location\"",
    "find nodes where rule ~ \"internal\"",
    "find fields where rejected ~ \"a\"",
    "path to groups where labeled",
    "traverse nodes from (kind = group and labeled) where kind = field",
    "find fields where label ~ \"city\" and not unlabeled or labeled",
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Labels,
    Tree,
    Explain,
    Query,
    Ingest,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Labels => "labels",
            Kind::Tree => "tree",
            Kind::Explain => "explain",
            Kind::Query => "query",
            Kind::Ingest => "ingest",
        }
    }
}

/// The generated inputs of one run: the snapshot's domains and, per
/// domain, the continuation interfaces ingests will carry.
struct Inputs {
    lexicon: Lexicon,
    snapshot: Snapshot,
    slugs: Vec<String>,
    continuations: Vec<Vec<String>>,
}

fn generate(seed: u64, ingests: usize) -> Result<Inputs, String> {
    let lexicon = Lexicon::builtin();
    let extra = ingests.div_ceil(DOMAINS) + 1;
    let base = corpus(seed, DOMAINS, INTERFACES, &lexicon);
    let extended = corpus(seed, DOMAINS, INTERFACES + extra, &lexicon);
    let policy = NamingPolicy::default();
    let telemetry = Telemetry::off();
    let mut continuations = Vec::new();
    for (b, e) in base.iter().zip(&extended) {
        if e.schemas[..INTERFACES] != b.schemas[..] {
            return Err(format!(
                "{}: continuation stream diverges from the base",
                b.name
            ));
        }
        continuations.push(
            e.schemas[INTERFACES..]
                .iter()
                .map(qi_schema::text_format::render)
                .collect(),
        );
    }
    let artifacts: Vec<DomainArtifact> = base
        .iter()
        .map(|d| qi_serve::build_artifact(d, &lexicon, policy, &telemetry))
        .collect();
    let bytes = Snapshot {
        policy,
        domains: artifacts,
    }
    .to_bytes();
    let snapshot = Snapshot::from_bytes(&bytes).map_err(|e| format!("snapshot: {e}"))?;
    let slugs = snapshot.domains.iter().map(|a| a.slug()).collect();
    Ok(Inputs {
        lexicon,
        snapshot,
        slugs,
        continuations,
    })
}

fn start_server(snapshot: Snapshot, lexicon: Lexicon) -> std::io::Result<ServerHandle> {
    let store = Store::from_snapshot(snapshot, lexicon, Telemetry::off());
    let config = ServerConfig {
        // One generator connection carries every read of the run.
        max_requests_per_conn: u64::MAX,
        ..ServerConfig::default()
    };
    let handle = Server::with_config(Arc::new(store), Telemetry::new(), config).start()?;
    let mut client = Client::connect(handle.addr())?;
    match client.get("/healthz")? {
        (200, _) => Ok(handle),
        (status, _) => Err(std::io::Error::other(format!("healthz answered {status}"))),
    }
}

/// A blocking keep-alive client for requests outside the timed load.
struct Client {
    stream: TcpStream,
    buffered: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            stream,
            buffered: Vec::new(),
        })
    }

    fn get(&mut self, path: &str) -> std::io::Result<(u16, Vec<u8>)> {
        self.request(format!("GET {path} HTTP/1.1\r\nhost: bench\r\n\r\n"))
    }

    fn post(&mut self, path: &str, body: &str) -> std::io::Result<(u16, Vec<u8>)> {
        self.request(format!(
            "POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        ))
    }

    fn request(&mut self, request: String) -> std::io::Result<(u16, Vec<u8>)> {
        self.stream.write_all(request.as_bytes())?;
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if let Some((status, body, used)) = parse_response(&self.buffered) {
                let body = body.to_vec();
                self.buffered.drain(..used);
                return Ok((status, body));
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.buffered.extend_from_slice(&chunk[..n]);
        }
    }
}

/// One complete `content-length`-framed response at the front of
/// `buffer`: status, body and the bytes it occupies.
fn parse_response(buffer: &[u8]) -> Option<(u16, &[u8], usize)> {
    let head_end = buffer.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buffer[..head_end]).ok()?;
    let status = head.split(' ').nth(1)?.parse().ok()?;
    let length: usize = head
        .lines()
        .skip(1)
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .unwrap_or(0);
    let end = head_end + length;
    (buffer.len() >= end).then(|| (status, &buffer[head_end..end], end))
}

fn percent_encode(text: &str) -> String {
    text.bytes()
        .map(|b| match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' => (b as char).to_string(),
            _ => format!("%{b:02X}"),
        })
        .collect()
}

/// A request in flight and when it was due.
struct Pending {
    kind: Kind,
    /// Index of the read phase, or `usize::MAX` for an ingest.
    phase: usize,
    id: u64,
    due: Instant,
}

/// A finished request.
struct Done {
    kind: Kind,
    phase: usize,
    id: u64,
    due: Instant,
    /// `None` for a connection error or a request never answered.
    status: Option<u16>,
    at: Instant,
}

impl Done {
    fn ok(&self) -> bool {
        matches!(self.status, Some(200..=299))
    }

    /// Latency from the due time, ms; a failed request is charged
    /// [`FAILED_CHARGE_MS`], or its real latency if that is longer.
    fn charged_ms(&self) -> f64 {
        let latency = (self.at - self.due).as_secs_f64() * 1e3;
        if self.ok() {
            latency
        } else {
            latency.max(FAILED_CHARGE_MS)
        }
    }
}

/// The nominal phase: reads offered open-loop at [`NOMINAL_RATE`].
struct Nominal {
    requests: usize,
    /// Reads in flight halfway through the phase and at its end.
    backlog_mid: usize,
    backlog_end: usize,
    /// How late the sender wrote each read past its due time, ms.
    late_ms: Vec<f64>,
    /// Every read answered 2xx, the read p99 within the limit and the
    /// backlog not growing.
    sustained: bool,
}

impl Nominal {
    /// The backlog grew by more than 10 ms worth of requests over the
    /// phase's second half.
    fn growing(&self) -> bool {
        self.backlog_end > self.backlog_mid + (NOMINAL_RATE * 0.01) as usize
    }

    /// Whether the nominal rate was sustained, judged from the finished
    /// requests once the phase's reads have drained.
    fn judge(&self, done: &[Done]) -> bool {
        let reads: Vec<&Done> = done.iter().filter(|d| d.phase == NOMINAL).collect();
        let latencies: Vec<f64> = reads.iter().map(|d| d.charged_ms()).collect();
        !self.growing()
            && reads.len() == self.requests
            && reads.iter().all(|d| d.ok())
            && quantile(&latencies, 0.99) <= READ_P99_LIMIT_MS
    }
}

/// Read phases, as recorded in [`Pending::phase`].
const NOMINAL: usize = 0;
const SATURATION: usize = 1;

/// The two generator connections; index 0 carries reads, 1 ingests.
/// A request moves from `pending` to `done` under its connection's
/// `pending` lock, so a request no longer pending is already done.
struct Conns {
    streams: [TcpStream; 2],
    pending: [Mutex<VecDeque<Pending>>; 2],
    dead: [AtomicBool; 2],
    done: Mutex<Vec<Done>>,
}

impl Conns {
    fn reads_in_flight(&self) -> usize {
        self.pending[0].lock().expect("pending lock").len()
    }
}

/// One timed load against a running server.
struct Load {
    nominal: Nominal,
    done: Vec<Done>,
    /// Ingests the server received before this load.
    first_ingest: usize,
    /// Processor time the server's threads used during the saturation
    /// phase, seconds.
    saturation_cpu_s: f64,
}

impl Load {
    /// Latencies (ms, failures charged) of phase `index`'s reads.
    fn read_ms(&self, index: usize) -> Vec<f64> {
        self.done
            .iter()
            .filter(|d| d.phase == index)
            .map(Done::charged_ms)
            .collect()
    }

    /// Latencies (ms, failures charged) of the ingests due while the
    /// nominal-rate reads were being sent.
    fn nominal_ingest_ms(&self) -> Vec<f64> {
        let window_end = self
            .done
            .iter()
            .filter(|d| d.phase == NOMINAL)
            .map(|d| d.due)
            .max();
        self.done
            .iter()
            .filter(|d| d.kind == Kind::Ingest && Some(d.due) <= window_end)
            .map(Done::charged_ms)
            .collect()
    }

    /// The saturation phase's reads and, if every one was answered 2xx
    /// within a p99 of the read limit, its span from the first read's
    /// start to the last answer, seconds.
    fn saturation(&self) -> (usize, Option<f64>) {
        let reads: Vec<&Done> = self.done.iter().filter(|d| d.phase == SATURATION).collect();
        let latencies: Vec<f64> = reads.iter().map(|d| d.charged_ms()).collect();
        let span = reads
            .iter()
            .map(|d| d.due)
            .min()
            .zip(reads.iter().map(|d| d.at).max())
            .map(|(first, last)| (last - first).as_secs_f64());
        let sustained =
            reads.iter().all(|d| d.ok()) && quantile(&latencies, 0.99) <= READ_P99_LIMIT_MS;
        (reads.len(), span.filter(|_| sustained))
    }

    /// Reads per second answered in the saturation phase; 0 unless it
    /// was sustained (see [`Load::saturation`]).
    fn saturation_rate(&self) -> f64 {
        match self.saturation() {
            (reads, Some(span)) => reads as f64 / span,
            _ => 0.0,
        }
    }
}

struct LoadPlan<'a> {
    seed: u64,
    seconds: f64,
    slugs: &'a [String],
    continuations: &'a [Vec<String>],
    /// Ingests the server received before this load.
    first_ingest: usize,
}

fn run_load(addr: SocketAddr, plan: &LoadPlan) -> std::io::Result<Load> {
    let connect = || -> std::io::Result<TcpStream> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        Ok(s)
    };
    let conns = Conns {
        streams: [connect()?, connect()?],
        pending: [Mutex::new(VecDeque::new()), Mutex::new(VecDeque::new())],
        dead: [AtomicBool::new(false), AtomicBool::new(false)],
        done: Mutex::new(Vec::new()),
    };
    let ingests = (INGEST_RATE * plan.seconds).round() as usize;
    let sending = AtomicBool::new(true);
    let mut writers = [conns.streams[0].try_clone()?, conns.streams[1].try_clone()?];

    let (nominal, saturation_cpu_s) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| receive(&conns, &sending));
        let sent = send(plan, &conns, &mut writers, ingests);
        sending.store(false, Ordering::SeqCst);
        receiver.join().expect("receiver thread panicked");
        sent
    });
    Ok(Load {
        nominal,
        done: conns.done.into_inner().expect("done lock"),
        first_ingest: plan.first_ingest,
        saturation_cpu_s,
    })
}

/// Pick the read a phase sends next: a domain from a Zipf-like skew over
/// a seeded domain order, then an endpoint from the fixed mix.
struct ReadMix {
    rng: SplitMix64,
    domain_cdf: Vec<f64>,
    endpoint_cdf: Vec<f64>,
    order: Vec<usize>,
}

fn cdf(weights: impl Iterator<Item = f64>) -> Vec<f64> {
    let weights: Vec<f64> = weights.collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

fn pick(cdf: &[f64], x: f64) -> usize {
    cdf.iter().position(|&c| x < c).unwrap_or(cdf.len() - 1)
}

impl ReadMix {
    fn new(seed: u64, domains: usize) -> ReadMix {
        let mut rng = SplitMix64::new(seed ^ 0x7265_6164);
        let mut order: Vec<usize> = (0..domains).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(i + 1));
        }
        ReadMix {
            rng,
            domain_cdf: cdf((1..=domains).map(|k| (k as f64).powf(-ZIPF_ALPHA))),
            endpoint_cdf: cdf(ENDPOINT_WEIGHTS.into_iter()),
            order,
        }
    }

    fn next(&mut self, slugs: &[String]) -> (Kind, String) {
        let slug = &slugs[self.order[pick(&self.domain_cdf, self.rng.next_f64())]];
        let kind = [Kind::Labels, Kind::Tree, Kind::Explain, Kind::Query]
            [pick(&self.endpoint_cdf, self.rng.next_f64())];
        let path = match kind {
            Kind::Query => {
                let q = QUERY_SET[self.rng.gen_range(QUERY_SET.len())];
                format!("/query?q={}", percent_encode(q))
            }
            _ => format!("/domains/{slug}/{}", kind.name()),
        };
        (kind, path)
    }
}

fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// Where the sender is in the read schedule.
enum Stage {
    /// Sending the nominal phase's reads open-loop.
    Nominal,
    /// Waiting, until the deadline at the latest, for the nominal
    /// reads to drain.
    Drain(Instant),
    /// Keeping [`SATURATION_WINDOW`] reads in flight until the instant.
    Saturate(Instant),
    Finished,
}

/// The sender: writes every request when it is due. Reads run the
/// nominal phase open-loop, drain, then run the saturation phase
/// closed-loop; ingests run on their own schedule throughout. The
/// server's `k`-th ingest carries continuation interface `k / domains`
/// of domain `k % domains`. Returns the nominal phase's record and the
/// processor time the server's threads used in the saturation phase,
/// seconds.
fn send(
    plan: &LoadPlan,
    conns: &Conns,
    writers: &mut [TcpStream; 2],
    ingests: usize,
) -> (Nominal, f64) {
    let start = Instant::now();
    let ingest_due = |k: usize| start + Duration::from_secs_f64(k as f64 / INGEST_RATE);
    let read_due = |k: usize| start + Duration::from_secs_f64(k as f64 / NOMINAL_RATE);
    let mut nominal = Nominal {
        requests: ((NOMINAL_RATE * plan.seconds * (1.0 - SATURATION_SHARE)).round() as usize)
            .max(1),
        backlog_mid: 0,
        backlog_end: 0,
        late_ms: Vec::new(),
        sustained: false,
    };
    let saturation = Duration::from_secs_f64(plan.seconds * SATURATION_SHARE);
    let mut stage = Stage::Nominal;
    let mut saturation_cpu = Duration::ZERO;
    let mut next_ingest = 0usize;
    let mut mix = ReadMix::new(plan.seed, plan.slugs.len());
    let mut id = 0u64;
    let mut sent = 0usize;
    let mut wire = Vec::new();

    loop {
        if let Stage::Drain(deadline) = stage {
            let dead = conns.dead[0].load(Ordering::SeqCst);
            if conns.reads_in_flight() == 0 || dead || Instant::now() >= deadline {
                nominal.sustained = nominal.judge(&conns.done.lock().expect("done lock"));
                stage = if dead {
                    Stage::Finished
                } else {
                    saturation_cpu = threads_cpu(SERVER_THREADS);
                    Stage::Saturate(Instant::now() + saturation)
                };
            }
        }
        if let Stage::Saturate(end) = stage {
            if Instant::now() >= end || conns.dead[0].load(Ordering::SeqCst) {
                // Reads still in flight are the server's work of this
                // phase: let them drain before reading its clock.
                let drain = Instant::now() + Duration::from_secs(2);
                while conns.reads_in_flight() > 0 && Instant::now() < drain {
                    std::thread::sleep(Duration::from_micros(100));
                }
                saturation_cpu = threads_cpu(SERVER_THREADS) - saturation_cpu;
                stage = Stage::Finished;
            }
        }
        let poll = Instant::now() + Duration::from_micros(100);
        let read_wake = match stage {
            Stage::Nominal => Some(read_due(sent)),
            Stage::Drain(_) | Stage::Saturate(_) => Some(poll),
            Stage::Finished => None,
        };
        let ingest_next = (next_ingest < ingests).then(|| ingest_due(next_ingest));
        let Some(wake) = read_wake.into_iter().chain(ingest_next).min() else {
            break;
        };
        sleep_until(wake);
        let now = Instant::now();

        wire.clear();
        let mut batch = Vec::new();
        let mut add = |due: Instant, phase: usize, id: &mut u64, batch: &mut Vec<Pending>| {
            let (kind, path) = mix.next(plan.slugs);
            wire.extend_from_slice(
                format!("GET {path} HTTP/1.1\r\nhost: bench\r\n\r\n").as_bytes(),
            );
            batch.push(Pending {
                kind,
                phase,
                id: *id,
                due,
            });
            *id += 1;
        };
        match stage {
            Stage::Nominal => {
                let in_flight = conns.reads_in_flight();
                while sent < nominal.requests && read_due(sent) <= now {
                    nominal
                        .late_ms
                        .push((now - read_due(sent)).as_secs_f64() * 1e3);
                    add(read_due(sent), NOMINAL, &mut id, &mut batch);
                    sent += 1;
                    if sent == nominal.requests / 2 {
                        nominal.backlog_mid = in_flight + batch.len();
                    }
                }
            }
            Stage::Saturate(_) => {
                let in_flight = conns.reads_in_flight();
                for _ in in_flight..SATURATION_WINDOW {
                    add(now, SATURATION, &mut id, &mut batch);
                }
            }
            Stage::Drain(_) | Stage::Finished => {}
        }
        transmit(conns, writers, 0, batch, &wire);
        if matches!(stage, Stage::Nominal) && sent == nominal.requests {
            nominal.backlog_end = conns.reads_in_flight();
            stage = Stage::Drain(Instant::now() + Duration::from_secs(2));
        }
        while next_ingest < ingests && ingest_due(next_ingest) <= Instant::now() {
            let k = plan.first_ingest + next_ingest;
            let domain = k % plan.slugs.len();
            let index = k / plan.slugs.len();
            let body = &plan.continuations[domain][index];
            let request = format!(
                "POST /domains/{}/interfaces HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{body}",
                plan.slugs[domain],
                body.len()
            );
            let pending = Pending {
                kind: Kind::Ingest,
                phase: usize::MAX,
                id,
                due: ingest_due(next_ingest),
            };
            id += 1;
            transmit(conns, writers, 1, vec![pending], request.as_bytes());
            next_ingest += 1;
        }
    }
    (nominal, saturation_cpu.as_secs_f64())
}

/// Queue `batch` as in flight on connection `c`, then write its bytes.
/// A write error marks the connection dead; the receiver then fails
/// everything still in flight on it.
fn transmit(
    conns: &Conns,
    writers: &mut [TcpStream; 2],
    c: usize,
    batch: Vec<Pending>,
    wire: &[u8],
) {
    if batch.is_empty() {
        return;
    }
    let dead = conns.dead[c].load(Ordering::SeqCst);
    conns.pending[c].lock().expect("pending lock").extend(batch);
    if !dead && writers[c].write_all(wire).is_err() {
        conns.dead[c].store(true, Ordering::SeqCst);
    }
}

/// The receiver: parses responses off both connections in order and
/// matches each to its oldest request in flight. Runs until the sender
/// is done and nothing is in flight, or until requests stay unanswered
/// for ten seconds after the sender finished.
fn receive(conns: &Conns, sending: &AtomicBool) {
    let mut buffers = [Vec::new(), Vec::new()];
    let mut chunk = vec![0u8; 256 * 1024];
    let mut give_up: Option<Instant> = None;
    let finish = |p: Pending, status: Option<u16>, at: Instant| Done {
        kind: p.kind,
        phase: p.phase,
        id: p.id,
        due: p.due,
        status,
        at,
    };
    let fail_all = |c: usize| {
        let now = Instant::now();
        let mut pending = conns.pending[c].lock().expect("pending lock");
        let mut done = conns.done.lock().expect("done lock");
        done.extend(pending.drain(..).map(|p| finish(p, None, now)));
    };
    loop {
        let in_flight: usize = conns
            .pending
            .iter()
            .map(|p| p.lock().expect("pending lock").len())
            .sum();
        if !sending.load(Ordering::SeqCst) {
            if in_flight == 0 {
                break;
            }
            let deadline = *give_up.get_or_insert_with(|| Instant::now() + Duration::from_secs(10));
            if Instant::now() >= deadline {
                fail_all(0);
                fail_all(1);
                break;
            }
        }
        for c in 0..2 {
            if conns.dead[c].load(Ordering::SeqCst) {
                fail_all(c);
            }
        }
        let mut fds = [
            PollFd::new(conns.streams[0].as_raw_fd(), true, false),
            PollFd::new(conns.streams[1].as_raw_fd(), true, false),
        ];
        if poll_fds(&mut fds, Some(Duration::from_millis(20))).is_err() {
            continue;
        }
        for c in 0..2 {
            if !fds[c].readable() || conns.dead[c].load(Ordering::SeqCst) {
                continue;
            }
            match (&conns.streams[c]).read(&mut chunk) {
                Ok(n) if n > 0 => buffers[c].extend_from_slice(&chunk[..n]),
                _ => {
                    conns.dead[c].store(true, Ordering::SeqCst);
                    fail_all(c);
                    continue;
                }
            }
            let at = Instant::now();
            let mut used = 0;
            let mut pending = conns.pending[c].lock().expect("pending lock");
            let mut done = conns.done.lock().expect("done lock");
            while let Some((status, _, n)) = parse_response(&buffers[c][used..]) {
                used += n;
                let Some(p) = pending.pop_front() else {
                    conns.dead[c].store(true, Ordering::SeqCst);
                    break;
                };
                done.push(finish(p, Some(status), at));
            }
            drop((pending, done));
            buffers[c].drain(..used);
        }
    }
}

/// The load on each segment's server.
struct Segment {
    load: Load,
    /// The host-speed scale of the load (see [`crate::calib`]).
    scale: f64,
    /// Seconds of steal during the load.
    steal: f64,
    /// Latencies of the isolated ingests, failures charged, scaled to
    /// the reference speed, ms.
    isolated_ms: Vec<f64>,
    /// Mean share of labeled fields in the served `/labels`.
    fld_acc: f64,
    /// The server's `/metrics` document, in the traced run.
    metrics: Option<json::Json>,
}

/// Set up a server on the inputs of `seed` and drive one segment of
/// the load against it. Returns the segment and the set-up time in
/// seconds, scaled and unscaled.
fn run_segment(
    args: &Args,
    seed: u64,
    calibration: &mut Calibration,
    outcome: &mut Outcome,
) -> Result<(Segment, (f64, f64)), String> {
    let seconds = args.seconds / SEGMENTS as f64;
    let ingests = (INGEST_RATE * seconds).round() as usize + 1;
    // Set-up: lexicon, corpus and continuation stream, artifact build,
    // snapshot encode and load, server start.
    let before = calibration.last();
    let start = Instant::now();
    // The continuation stream covers the warm-up, the load and the
    // isolated phase.
    let inputs = generate(seed, ingests + ISOLATED)?;
    let served = Snapshot {
        policy: inputs.snapshot.policy,
        domains: inputs.snapshot.domains.clone(),
    };
    let mut handle = start_server(served, Lexicon::builtin())
        .map_err(|e| format!("starting the server: {e}"))?;
    let setup_s = start.elapsed().as_secs_f64();
    let setup = (
        setup_s * Calibration::scale(before, calibration.sample()),
        setup_s,
    );
    let addr = handle.addr();

    // Warm-up, untimed: the snapshot's artifacts carry no delta-ingest
    // state, so each domain's first ingest is a full rebuild that
    // captures it. A long-running server pays that once per domain.
    let warmed = warm_up(addr, &inputs);
    outcome.attempted += DOMAINS as u64;
    outcome.failed += warmed.iter().filter(|ok| !**ok).count() as u64;
    let plan = LoadPlan {
        seed,
        seconds,
        slugs: &inputs.slugs,
        continuations: &inputs.continuations,
        first_ingest: DOMAINS,
    };
    let before = calibration.sample();
    let steal = crate::stats::steal_s();
    let load = run_load(addr, &plan);
    let steal = crate::stats::steal_s() - steal;
    let middle = calibration.sample();
    let scale = Calibration::scale(before, middle);
    let segment = load
        .map_err(|e| format!("connecting the load generator: {e}"))
        .map(|load| {
            let ingests_sent = load.done.iter().filter(|d| d.kind == Kind::Ingest).count();
            let isolated = isolated_ingests(addr, &inputs, DOMAINS + ingests_sent);
            let isolated_scale = Calibration::scale(middle, calibration.sample());
            outcome.attempted += isolated.len() as u64;
            outcome.failed += isolated.iter().filter(|i| !i.2).count() as u64;
            // Requests answered non-2xx, never answered or cut off by a
            // connection error are failed operations.
            outcome.attempted += load.done.len() as u64;
            outcome.failed += load.done.iter().filter(|d| !d.ok()).count() as u64;
            let mut failures = std::collections::BTreeMap::new();
            for d in load.done.iter().filter(|d| !d.ok()) {
                let phase = (d.phase != usize::MAX).then_some(d.phase);
                *failures
                    .entry((d.kind.name(), phase, d.status))
                    .or_insert(0) += 1;
            }
            for ((kind, phase, status), n) in failures {
                outcome.notes.push(format!(
                    "{n} {kind} requests failed (read phase {phase:?}, status {status:?})"
                ));
            }
            let mut ingested = ingest_log(&load);
            for (log, ok) in ingested.iter_mut().zip(warmed) {
                log.insert(0, (0, ok));
            }
            for &(g, _, ok) in &isolated {
                ingested[g % DOMAINS].push((g / DOMAINS, ok));
            }
            let fld_acc = check_replay(&inputs, addr, &ingested, outcome);
            let metrics = args.trace.then(|| {
                fetch(addr, "/metrics").and_then(|body| {
                    json::parse(&String::from_utf8_lossy(&body))
                        .map_err(|e| format!("/metrics: {e}"))
                })
            });
            let metrics = match metrics.transpose() {
                Ok(metrics) => metrics,
                Err(e) => {
                    outcome.fail(e);
                    None
                }
            };
            Segment {
                load,
                scale,
                steal,
                isolated_ms: isolated
                    .iter()
                    .map(|&(_, ms, _)| ms * isolated_scale)
                    .collect(),
                fld_acc,
                metrics,
            }
        });
    handle.shutdown();
    Ok((segment?, setup))
}

pub fn run(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let mut calibration = Calibration::new();
    let mut segments = Vec::new();
    let mut setups = Vec::new();
    let mut raw_setups = Vec::new();
    // Each segment's server holds its own corpus, so a run's figures
    // rest on SEGMENTS × DOMAINS domains. Which domains' ingests fall
    // back to a full rebuild is a property of the domain, and 16 domains
    // are too few for the slow share to repeat from seed to seed.
    let mut seeds = SplitMix64::new(args.seed);
    for _ in 0..SEGMENTS {
        match run_segment(args, seeds.next_u64(), &mut calibration, &mut outcome) {
            Ok((segment, (setup_s, raw))) => {
                segments.push(segment);
                setups.push(setup_s);
                raw_setups.push(raw);
            }
            Err(e) => {
                outcome.fail(e);
                return outcome;
            }
        }
    }

    let late: Vec<f64> = segments
        .iter()
        .flat_map(|s| s.load.nominal.late_ms.iter().copied())
        .collect();
    let late_p99 = quantile(&late, 0.99);
    if late_p99 > GEN_LATE_LIMIT_MS {
        outcome.invalid = Some(format!(
            "the generator sent its nominal-rate reads {late_p99:.3} ms late at p99 \
             (limit {GEN_LATE_LIMIT_MS} ms): it fell behind, not the server"
        ));
    }
    outcome.notes.push(format!(
        "server: {DOMAINS} drift domains of {INTERFACES} interfaces, seed {}, {SEGMENTS} \
         segments on fresh servers; reads at {NOMINAL_RATE}/s then closed-loop with \
         {SATURATION_WINDOW} in flight, ingests at {INGEST_RATE}/s, read p99 limit \
         {READ_P99_LIMIT_MS} ms",
        args.seed
    ));
    for (i, s) in segments.iter().enumerate() {
        let reads = s.load.read_ms(NOMINAL);
        let ingests = s.load.nominal_ingest_ms();
        let saturated = s.load.read_ms(SATURATION);
        outcome.notes.push(format!(
            "segment {i}, unscaled (host-speed scale {:.3}): nominal reads p50 {:.3} ms p99 \
             {:.3} ms ({}), ingests p50 {:.3} ms p95 {:.3} ms; saturated {:.0} reads/s, p99 \
             {:.3} ms; sender late p50 {:.3} ms; steal {:.2} s",
            s.scale,
            median(&reads),
            quantile(&reads, 0.99),
            if s.load.nominal.sustained {
                "sustained"
            } else {
                "not sustained"
            },
            median(&ingests),
            quantile(&ingests, 0.95),
            s.load.saturation_rate(),
            quantile(&saturated, 0.99),
            median(&s.load.nominal.late_ms),
            s.steal,
        ));
    }

    outcome.notes.push(format!(
        "set-up {:.4} s unscaled; host-speed reference median {:.3} ms",
        median(&raw_setups),
        median(&calibration.timings_ms)
    ));
    outcome.report = if args.trace {
        layer_report(&segments, late_p99)
    } else {
        let mut report = end_to_end(median(&setups), &segments);
        report.metrics.extend(generator_figures(&segments).metrics);
        report
    };
    outcome
}

/// The isolated phase, after the load: the server's ingests
/// `first..first + ISOLATED`, each sent once the one
/// before it was answered, on a server doing nothing else. Its latency,
/// from the write to the answer, is the server's cost of one ingest
/// with no read traffic beside it. Returns per ingest its global index,
/// its latency in ms (a failure charged [`FAILED_CHARGE_MS`]) and
/// whether it was answered 2xx.
fn isolated_ingests(addr: SocketAddr, inputs: &Inputs, first: usize) -> Vec<(usize, f64, bool)> {
    let mut client = Client::connect(addr);
    (first..first + ISOLATED)
        .map(|g| {
            let (domain, index) = (g % DOMAINS, g / DOMAINS);
            let path = format!("/domains/{}/interfaces", inputs.slugs[domain]);
            let start = Instant::now();
            let ok = match &mut client {
                Ok(c) => matches!(
                    c.post(&path, &inputs.continuations[domain][index]),
                    Ok((200..=299, _))
                ),
                Err(_) => false,
            };
            let ms = start.elapsed().as_secs_f64() * 1e3;
            (g, if ok { ms } else { ms.max(FAILED_CHARGE_MS) }, ok)
        })
        .collect()
}

/// POST each domain's first continuation interface; returns, per
/// domain, whether it was answered 2xx.
fn warm_up(addr: SocketAddr, inputs: &Inputs) -> Vec<bool> {
    let Ok(mut client) = Client::connect(addr) else {
        return vec![false; DOMAINS];
    };
    inputs
        .slugs
        .iter()
        .zip(&inputs.continuations)
        .map(|(slug, interfaces)| {
            let path = format!("/domains/{slug}/interfaces");
            matches!(client.post(&path, &interfaces[0]), Ok((200..=299, _)))
        })
        .collect()
}

/// Per domain, the continuation interfaces the load POSTed in order,
/// each with whether it was answered 2xx.
fn ingest_log(load: &Load) -> Vec<Vec<(usize, bool)>> {
    let mut ingests: Vec<&Done> = load
        .done
        .iter()
        .filter(|d| d.kind == Kind::Ingest)
        .collect();
    ingests.sort_by_key(|d| d.id);
    let mut log = vec![Vec::new(); DOMAINS];
    for (k, done) in ingests.into_iter().enumerate() {
        let g = load.first_ingest + k;
        log[g % DOMAINS].push((g / DOMAINS, done.ok()));
    }
    log
}

fn fetch(addr: SocketAddr, path: &str) -> Result<Vec<u8>, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("{path}: {e}"))?;
    match client.get(path) {
        Ok((200, body)) => Ok(body),
        Ok((status, _)) => Err(format!("{path} answered {status}")),
        Err(e) => Err(format!("{path}: {e}")),
    }
}

/// After the load: every domain's served `/labels` body must equal the
/// body a server renders from an in-process replay of the same ingests
/// through the full-rebuild path. Returns the mean share of labeled
/// fields over the served domains.
fn check_replay(
    inputs: &Inputs,
    addr: SocketAddr,
    ingested: &[Vec<(usize, bool)>],
    outcome: &mut Outcome,
) -> f64 {
    let policy = inputs.snapshot.policy;
    let lexicon = &inputs.lexicon;
    let telemetry = Telemetry::off();
    let replayed = parallel_try_map(
        &inputs.snapshot.domains,
        std::thread::available_parallelism().map_or(1, |n| n.get().min(2)),
        |d, base| {
            let mut artifact = base.clone();
            for &(index, _) in ingested[d].iter().filter(|(_, ok)| *ok) {
                let text = &inputs.continuations[d][index];
                let interface =
                    qi_schema::text_format::parse(text).expect("rendered interface parses");
                artifact = qi_serve::ingest_interface_full(
                    &artifact, interface, lexicon, policy, &telemetry,
                );
            }
            artifact
        },
    );
    let mut artifacts = Vec::new();
    for (d, artifact) in replayed.into_iter().enumerate() {
        match artifact {
            Ok(a) => artifacts.push(a),
            Err(panic) => {
                outcome.fail(format!("replaying {}: panicked: {panic}", inputs.slugs[d]));
                return 0.0;
            }
        }
    }
    let mut reference = match start_server(
        Snapshot {
            policy,
            domains: artifacts,
        },
        Lexicon::builtin(),
    ) {
        Ok(handle) => handle,
        Err(e) => {
            outcome.fail(format!("starting the replay server: {e}"));
            return 0.0;
        }
    };
    let mut shares = Vec::new();
    let clients = Client::connect(addr).and_then(|a| Ok((a, Client::connect(reference.addr())?)));
    match clients {
        Ok((mut served, mut replay)) => {
            for (d, slug) in inputs.slugs.iter().enumerate() {
                if ingested[d].iter().any(|(_, ok)| !ok) {
                    outcome.notes.push(format!(
                        "{slug}: an ingest failed, its replay is not compared"
                    ));
                    continue;
                }
                let path = format!("/domains/{slug}/labels");
                match (served.get(&path), replay.get(&path)) {
                    (Ok((200, a)), Ok((200, b))) if a == b => shares.push(labeled_share(&a)),
                    (Ok((200, _)), Ok((200, _))) => outcome.fail(format!(
                        "{slug}: served /labels differs from the full-rebuild replay of its {} ingests",
                        ingested[d].len()
                    )),
                    (a, b) => outcome.fail(format!(
                        "{slug}: /labels answered {:?} served, {:?} replayed",
                        a.map(|r| r.0).map_err(|e| e.to_string()),
                        b.map(|r| r.0).map_err(|e| e.to_string())
                    )),
                }
            }
        }
        Err(e) => outcome.fail(format!("connecting for the replay check: {e}")),
    }
    reference.shutdown();
    shares.iter().sum::<f64>() / shares.len().max(1) as f64
}

/// Share of a `/labels` body's fields that carry a label (FldAcc: drift
/// fields carry no instances).
fn labeled_share(body: &[u8]) -> f64 {
    let Ok(doc) = json::parse(&String::from_utf8_lossy(body)) else {
        return 0.0;
    };
    let Some(labels) = doc.get("labels").and_then(json::Json::as_array) else {
        return 0.0;
    };
    let labeled = labels
        .iter()
        .filter(|l| l.get("label").and_then(json::Json::as_str).is_some())
        .count();
    labeled as f64 / labels.len().max(1) as f64
}

/// The end-to-end figures. Serving capacity is the reads the
/// saturation phases answered per second of processor time the server
/// used in them, over every segment together; ingest latency is taken
/// over the isolated ingests of every segment together (16 per segment,
/// too few for a p95 alone). Every timing is scaled to the reference
/// host speed.
fn end_to_end(setup_s: f64, segments: &[Segment]) -> Report {
    let saturated: usize = segments
        .iter()
        .map(|s| s.load.read_ms(SATURATION).len())
        .sum();
    let (reads, cpu_s) = segments.iter().fold((0.0, 0.0), |(reads, cpu_s), s| {
        // An unsustained phase answered nothing within the limit.
        let answered = match s.load.saturation() {
            (n, Some(_)) => n as f64,
            (_, None) => 0.0,
        };
        (reads + answered, cpu_s + s.load.saturation_cpu_s * s.scale)
    });
    let ingests: Vec<f64> = segments
        .iter()
        .flat_map(|s| s.isolated_ms.iter().copied())
        .collect();
    let fld_acc = segments.iter().map(|s| s.fld_acc).sum::<f64>() / segments.len() as f64;
    let mut report = Report::default();
    report.add("setup_s", setup_s, "s", SEGMENTS);
    report.add("throughput_per_s", reads / cpu_s, "1/s", saturated);
    report.add("domain_p50_ms", median(&ingests), "ms", ingests.len());
    report.add(
        "domain_tail_ms",
        quantile(&ingests, 0.95),
        "ms",
        ingests.len(),
    );
    report.add("fld_acc", fld_acc, "ratio", DOMAINS * SEGMENTS);
    report
}

/// What the load generator saw, unscaled and unbounded: read latency
/// at the nominal rate and the rate the saturation phase reached (per
/// segment, then the median over the segments), and the latency of the
/// ingests beside the reads (pooled). The traced run reports them as
/// per-layer metrics; the timed run prints them in its summary.
fn generator_figures(segments: &[Segment]) -> Report {
    let mut report = Report::default();
    let per_segment = |figure: &dyn Fn(&Load) -> f64| -> f64 {
        let values: Vec<f64> = segments.iter().map(|s| figure(&s.load)).collect();
        median(&values)
    };
    let reads = segments.iter().map(|s| s.load.read_ms(NOMINAL).len()).sum();
    report.add(
        "serve.read_us.p50",
        per_segment(&|l| median(&l.read_ms(NOMINAL))) * 1e3,
        "us",
        reads,
    );
    report.add(
        "serve.read_us.p99",
        per_segment(&|l| quantile(&l.read_ms(NOMINAL), 0.99)) * 1e3,
        "us",
        reads,
    );
    let saturated = segments
        .iter()
        .map(|s| s.load.read_ms(SATURATION).len())
        .sum();
    report.add(
        "serve.saturated_reads_per_s",
        per_segment(&Load::saturation_rate),
        "1/s",
        saturated,
    );
    let ingests: Vec<f64> = segments
        .iter()
        .flat_map(|s| s.load.nominal_ingest_ms())
        .collect();
    report.add(
        "serve.mixed_ingest_ms.p50",
        median(&ingests),
        "ms",
        ingests.len(),
    );
    report.add(
        "serve.mixed_ingest_ms.p95",
        quantile(&ingests, 0.95),
        "ms",
        ingests.len(),
    );
    report
}

/// Per-layer figures of a traced run: the servers' own counters and
/// histograms from `/metrics`, read after each segment's load stopped,
/// and the generator's health. Counters add over the segments; a
/// histogram quantile is the median of the segments' quantiles. The
/// servers keep their registries on in every run and the generator
/// records the same per-request timestamps in every run; the traced run
/// only reads `/metrics` after each load, so `trace.overhead_pct` is 0
/// by construction and reported with 0 samples.
fn layer_report(segments: &[Segment], late_p99_ms: f64) -> Report {
    let docs: Vec<&json::Json> = segments.iter().filter_map(|s| s.metrics.as_ref()).collect();
    let histogram = |name: &str, field: &str| -> (f64, usize) {
        let hs: Vec<&json::Json> = docs
            .iter()
            .filter_map(|d| d.get("histograms").and_then(|h| h.get(name)))
            .collect();
        let values: Vec<f64> = hs
            .iter()
            .filter_map(|h| h.get(field).and_then(json::Json::as_f64))
            .collect();
        let count = hs.iter().map(|h| h.u64_or_zero("count")).sum::<u64>() as usize;
        (median(&values) / 1e3, count)
    };
    let counter = |name: &str| -> f64 {
        docs.iter()
            .map(|d| d.get("counters").map_or(0, |c| c.u64_or_zero(name)))
            .sum::<u64>() as f64
    };
    let mut report = Report::default();
    report.metrics.extend(generator_figures(segments).metrics);
    for (metric, source) in [
        ("serve.queue_wait_us", "serve.queue.wait"),
        ("serve.http.labels_us", "serve.http.labels"),
        ("serve.http.tree_us", "serve.http.tree"),
        ("serve.http.explain_us", "serve.http.explain"),
        ("serve.http.query_us", "serve.http.query"),
        ("serve.http.ingest_us", "serve.http.ingest"),
    ] {
        for q in ["p50", "p99"] {
            let (value, n) = histogram(source, q);
            report.add(&format!("{metric}.{q}"), value, "us", n);
        }
    }
    let (hits, misses) = (counter("serve.cache.hits"), counter("serve.cache.misses"));
    let lookups = hits + misses;
    report.add(
        "serve.cache.hit_ratio",
        hits / lookups.max(1.0),
        "ratio",
        lookups as usize,
    );
    report.add(
        "serve.cache.invalidations",
        counter("serve.cache.invalidations"),
        "count",
        docs.len(),
    );
    let (query_sum, n) = histogram("query.exec", "sum");
    report.add("query.exec_us.sum", query_sum, "us", n);
    // The warm-up's ingests are full rebuilds by construction: the
    // snapshot's artifacts carry no delta state.
    let warm_ups = (DOMAINS * docs.len()) as f64;
    let delta = counter("serve.ingest.delta");
    let full = (counter("serve.ingest.full") - warm_ups).max(0.0);
    let ingests = (delta + full) as usize;
    report.add(
        "serve.ingest.delta_share",
        delta / (delta + full).max(1.0),
        "ratio",
        ingests,
    );
    report.add(
        "serve.ingest.pairs_scored",
        counter("serve.ingest.pairs_scored"),
        "count",
        ingests,
    );
    let late_samples = segments.iter().map(|s| s.load.nominal.late_ms.len()).sum();
    report.add("gen.late_us.p99", late_p99_ms * 1e3, "us", late_samples);
    report.add("trace.overhead_pct", 0.0, "%", 0);
    report
}
