//! The untraced end-to-end run: boot [`HttpServer`] in-process, drive it
//! over loopback from closed-loop clients, and check every response.

use crate::host_speed;
use crate::proc_self;
use crate::stats;
use crate::workload::Workload;
use serve::{parse_prometheus, HttpServer, MetricsSnapshot};
use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use workloads::php_corpus::CorpusCache;

/// Load generated before the measured window opens.
const WARMUP: Duration = Duration::from_secs(1);
/// The operator's scrape period.
const SCRAPE_PERIOD: Duration = Duration::from_millis(100);
/// How long a client waits for an answer before the request fails.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(10);
/// Scrapes made after the window on workloads without an operator.
const IDLE_SCRAPES: usize = 21;
/// `peak_rss_mb` is read when this many traffic requests of the window
/// have completed. The access log grows with every request, so a reading
/// at a fixed request count does not move with the host's speed the way a
/// reading at a fixed time does. Every workload completes at least twice
/// this many in a 30 s window.
const RSS_AT_REQUESTS: u64 = 100_000;
/// How often the main thread checks the request count.
const RSS_POLL: Duration = Duration::from_millis(10);

/// Thread names `serve::HttpServer` gives its workers and its front end
/// (the acceptor and one thread per connection).
const WORKER_THREAD: &str = "php-worker-";
const FRONT_THREADS: &str = "http-";

/// Run phases.
const WARMING: u8 = 0;
const MEASURING: u8 = 1;
const STOPPED: u8 = 2;

const NO_VMHWM: &str = "cannot read VmHWM from /proc/self/status";

const HEALTH: &[u8] = b"GET /health HTTP/1.1\r\nhost: loopback\r\n\r\n";
const METRICS: &[u8] = b"GET /metrics HTTP/1.1\r\nhost: loopback\r\n\r\n";

/// Everything set-up builds: the compiled corpus, the expected bytes, and
/// the running server.
pub struct Setup {
    /// The shared compile cache the server serves.
    pub corpus: Arc<CorpusCache>,
    /// Expected response body per corpus script.
    pub expected: Arc<Vec<Vec<u8>>>,
    /// The running server.
    pub server: HttpServer,
    /// Timings of the set-up steps.
    pub times: SetupTimes,
}

/// How long each set-up step took, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// `CorpusCache::build`.
    pub corpus_build: f64,
    /// Expected-bytes derivation through a direct `Server`.
    pub expected: f64,
    /// `HttpServer::start`.
    pub start: f64,
    /// Corpus build through the first answered `/health`.
    pub total: f64,
}

/// Builds the corpus, derives the expected bytes, starts the server, and
/// waits for the first `/health` to answer.
pub fn setup(wl: &Workload) -> Result<Setup, String> {
    let t = Instant::now();
    let corpus = Arc::new(CorpusCache::build());
    let corpus_build = t.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let expected = Arc::new(crate::workload::expected_bodies(&corpus)?);
    let expected_s = t1.elapsed().as_secs_f64();
    let t2 = Instant::now();
    let server = HttpServer::start(wl.http_config(), Arc::clone(&corpus))
        .map_err(|e| format!("cannot start the server: {e}"))?;
    let start = t2.elapsed().as_secs_f64();
    let mut conn = Conn::new(server.addr(), false);
    let health = conn
        .send(HEALTH)
        .map_err(|e| format!("first /health failed: {e}"))?;
    if health.status != 200 || health.body != b"ok\n" {
        return Err(format!("first /health answered {}", health.status));
    }
    let total = t.elapsed().as_secs_f64();
    Ok(Setup {
        corpus,
        expected,
        server,
        times: SetupTimes {
            corpus_build,
            expected: expected_s,
            start,
            total,
        },
    })
}

/// One parsed response.
struct Response {
    status: u16,
    body: Vec<u8>,
}

/// A keep-alive client connection. The benchmark owns this client, so the
/// load generator's own cost is the same code on every commit measured.
struct Conn {
    addr: SocketAddr,
    spin: bool,
    reader: Option<BufReader<Socket>>,
    served: u64,
    reconnects: u64,
}

impl Conn {
    /// A connection to `addr`; `spin` makes it wait for answers by polling
    /// instead of sleeping in the kernel.
    fn new(addr: SocketAddr, spin: bool) -> Conn {
        Conn {
            addr,
            spin,
            reader: None,
            served: 0,
            reconnects: 0,
        }
    }

    /// Sends one request and reads its response. A keep-alive connection
    /// the server closed between requests is re-opened and the request
    /// (an idempotent GET) sent once more, as HTTP clients do.
    fn send(&mut self, request: &[u8]) -> io::Result<Response> {
        let reused = self.reader.is_some() && self.served > 0;
        match self.try_send(request) {
            Err(e) if reused && is_stale(&e) => {
                self.reader = None;
                self.reconnects += 1;
                self.try_send(request)
            }
            other => other,
        }
    }

    fn try_send(&mut self, request: &[u8]) -> io::Result<Response> {
        if self.reader.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(ANSWER_TIMEOUT))?;
            stream.set_write_timeout(Some(ANSWER_TIMEOUT))?;
            stream.set_nonblocking(self.spin)?;
            self.reader = Some(BufReader::new(Socket(stream)));
            self.served = 0;
        }
        let reader = self.reader.as_mut().expect("connection just opened");
        let result = reader
            .get_mut()
            .write_all(request)
            .and_then(|()| read_response(reader));
        match result {
            Ok((resp, keep_alive)) => {
                self.served += 1;
                if !keep_alive {
                    self.reader = None;
                }
                Ok(resp)
            }
            Err(e) => {
                self.reader = None;
                Err(e)
            }
        }
    }
}

/// A client socket. In non-blocking mode it waits by polling and yields
/// the CPU to any runnable thread after each empty poll, so a waiting
/// client never lets its CPU go idle: on a virtual machine, waking an idle
/// virtual CPU costs a trip through the hypervisor whose time varies from
/// run to run far more than the server's own work does.
struct Socket(TcpStream);

impl Socket {
    fn retry<T>(&mut self, mut op: impl FnMut(&mut TcpStream) -> io::Result<T>) -> io::Result<T> {
        let start = Instant::now();
        loop {
            match op(&mut self.0) {
                // Also what a blocking socket's timeout reports.
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if start.elapsed() >= ANSWER_TIMEOUT {
                        return Err(io::Error::new(ErrorKind::TimedOut, "no answer in time"));
                    }
                    std::thread::yield_now();
                }
                other => return other,
            }
        }
    }
}

impl io::Read for Socket {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.retry(|s| s.read(buf))
    }
}

impl Write for Socket {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.retry(|s| s.write(buf))
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Whether an error means the peer closed the connection before answering.
fn is_stale(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::UnexpectedEof
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::BrokenPipe
    )
}

/// Reads one response: status line, headers, `content-length` body.
fn read_response<R: BufRead>(r: &mut R) -> io::Result<(Response, bool)> {
    let bad = |msg: &str| io::Error::new(ErrorKind::InvalidData, msg.to_string());
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            ErrorKind::UnexpectedEof,
            "closed before status line",
        ));
    }
    let status: u16 = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut content_length = 0usize;
    let mut keep_alive = true;
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(bad("end of stream in headers"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(bad("malformed header"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().map_err(|_| bad("bad content-length"))?;
            if content_length > 1 << 24 {
                return Err(bad("body too large"));
            }
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        }
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body)?;
    Ok((Response { status, body }, keep_alive))
}

/// What one client thread saw.
#[derive(Debug, Default)]
struct ClientTally {
    attempted: u64,
    failed: u64,
    /// Requests completed inside the window (any outcome).
    window_completed: u64,
    /// 200 and byte-correct responses completed inside the window.
    window_ok: u64,
    /// Latency of each request completed inside the window, ns.
    latencies: Vec<u64>,
    reconnects: u64,
    first_error: Option<String>,
}

impl ClientTally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_error.get_or_insert(what);
    }
}

/// One closed-loop traffic client: sends its stream in order, each request
/// only after the previous reply, until the window closes.
fn traffic_client(
    addr: SocketAddr,
    stream: &[usize],
    requests: &[Vec<u8>],
    expected: &[Vec<u8>],
    phase: &AtomicU8,
    load_gen: &LoadGenThreads,
    window_done: &AtomicU64,
) -> ClientTally {
    load_gen.register();
    let mut conn = Conn::new(addr, true);
    let mut tally = ClientTally::default();
    for &script in stream.iter().cycle() {
        if phase.load(Ordering::SeqCst) == STOPPED {
            break;
        }
        let t = Instant::now();
        let result = conn.send(&requests[script]);
        let ns = t.elapsed().as_nanos() as u64;
        tally.attempted += 1;
        let ok = match result {
            Ok(r) if r.status == 200 && r.body == expected[script] => true,
            Ok(r) if r.status == 200 => {
                tally.fail(format!(
                    "script {script}: body differs from direct Server bytes"
                ));
                false
            }
            Ok(r) => {
                tally.fail(format!("script {script}: status {}", r.status));
                false
            }
            Err(e) => {
                tally.fail(format!("script {script}: transport error: {e}"));
                false
            }
        };
        if phase.load(Ordering::SeqCst) == MEASURING {
            tally.window_completed += 1;
            tally.window_ok += ok as u64;
            tally.latencies.push(ns);
            window_done.fetch_add(1, Ordering::Relaxed);
        }
    }
    tally.reconnects = conn.reconnects;
    tally
}

/// One operator cycle on `conn`: `GET /health`, then `GET /metrics`.
/// Returns the scrape's latency in ns; any wrong answer is an error.
fn scrape(conn: &mut Conn) -> Result<u64, String> {
    let health = conn.send(HEALTH).map_err(|e| format!("/health: {e}"))?;
    if health.status != 200 || health.body != b"ok\n" {
        return Err(format!("/health answered {}", health.status));
    }
    let t = Instant::now();
    let metrics = conn.send(METRICS).map_err(|e| format!("/metrics: {e}"))?;
    let ns = t.elapsed().as_nanos() as u64;
    if metrics.status != 200 {
        return Err(format!("/metrics answered {}", metrics.status));
    }
    let text = String::from_utf8(metrics.body).map_err(|_| "/metrics body is not UTF-8")?;
    parse_prometheus(&text).map_err(|e| format!("/metrics does not parse: {e}"))?;
    Ok(ns)
}

/// The operator: one keep-alive connection scraping every 100 ms. Its
/// latencies are scrape latencies.
fn operator(addr: SocketAddr, phase: &AtomicU8, load_gen: &LoadGenThreads) -> ClientTally {
    load_gen.register();
    let mut conn = Conn::new(addr, false);
    let mut tally = ClientTally::default();
    let mut next = Instant::now();
    while phase.load(Ordering::SeqCst) != STOPPED {
        tally.attempted += 2;
        let result = scrape(&mut conn);
        if phase.load(Ordering::SeqCst) == MEASURING {
            tally.window_completed += 2;
            if let Ok(ns) = result {
                tally.latencies.push(ns);
            }
        }
        if let Err(e) = result {
            tally.fail(e);
        }
        // A late scrape moves the schedule instead of bunching the next ones.
        next = (next + SCRAPE_PERIOD).max(Instant::now());
        loop {
            let now = Instant::now();
            if now >= next || phase.load(Ordering::SeqCst) == STOPPED {
                break;
            }
            std::thread::sleep((next - now).min(Duration::from_millis(10)));
        }
    }
    tally.reconnects = conn.reconnects;
    tally
}

/// The benchmark's own threads (clients, operator, the measuring main
/// thread), whose CPU time is not the server's.
#[derive(Default)]
struct LoadGenThreads(Mutex<Vec<u64>>);

impl LoadGenThreads {
    /// Adds the calling thread.
    fn register(&self) {
        if let Some(tid) = proc_self::thread_id() {
            self.0.lock().expect("thread list lock").push(tid);
        }
    }

    /// CPU ticks of the server's threads: the process minus these threads.
    fn server_ticks(&self) -> Result<u64, String> {
        let total = proc_self::cpu_ticks().ok_or("cannot read /proc/self/stat")?;
        let mut own = 0;
        for &tid in self.0.lock().expect("thread list lock").iter() {
            own += proc_self::thread_cpu_ticks(tid).ok_or("cannot read a thread's stat")?;
        }
        Ok(total.saturating_sub(own))
    }
}

/// `VmHWM` in KiB, and the window requests completed when it was read.
type RssReading = (u64, u64);

/// With one worker, gives the worker a CPU of its own and puts the
/// server's front end on a second CPU, where the clients then pin
/// themselves too; returns that second CPU. Left to itself, the guest
/// scheduler now and then places the worker beside a polling client, and
/// how often varies from run to run: pinned, `verified-mix` throughput
/// tracked the host factor exactly and its scaled spread over six runs
/// fell from 7.6% to 4.5%. With two workers on a two-CPU machine no CPU is
/// free for the front end, so nothing is pinned (`None`), as on a machine
/// with one CPU or when the kernel refuses.
fn pin_single_worker(wl: &Workload) -> Option<usize> {
    let cpus = proc_self::allowed_cpus();
    let (worker_cpu, front_cpu) = match (wl.workers, cpus.as_slice()) {
        (1, [a, b, ..]) => (*a, *b),
        _ => {
            println!("pinning: off ({} workers, {} CPUs)", wl.workers, cpus.len());
            return None;
        }
    };
    let mut pinned = true;
    for (tid, name) in proc_self::threads() {
        if name.starts_with(WORKER_THREAD) {
            pinned &= proc_self::pin_thread(tid, worker_cpu);
        } else if name.starts_with(FRONT_THREADS) {
            pinned &= proc_self::pin_thread(tid, front_cpu);
        }
    }
    if !pinned {
        println!("pinning: off (the kernel refused)");
        return None;
    }
    println!("pinning: worker on CPU {worker_cpu}; front end and clients on CPU {front_cpu}");
    Some(front_cpu)
}

/// Keeps the calling client thread from taking a CPU a worker wants: on
/// the front end's CPU when the worker has a CPU of its own, and otherwise
/// at `SCHED_IDLE`, so it polls only while no server thread is runnable.
/// On `memo-vm` (two workers, two CPUs, nothing pinned) idle-priority
/// clients cut the scaled throughput spread of five runs from 12% to 5%;
/// clients that block in the kernel instead spread 57%.
fn place_client(front_cpu: Option<usize>) {
    match front_cpu {
        Some(cpu) => proc_self::pin_thread(0, cpu),
        None => proc_self::become_idle_class(),
    };
}

/// Counters the main thread reads when the window opens and closes.
struct Mark {
    at: Instant,
    server_ticks: u64,
    snap: MetricsSnapshot,
}

impl Mark {
    fn now(server: &HttpServer, load_gen: &LoadGenThreads) -> Result<Mark, String> {
        Ok(Mark {
            at: Instant::now(),
            server_ticks: load_gen.server_ticks()?,
            snap: server.metrics_snapshot(),
        })
    }
}

/// The end-to-end figures of the measured window.
#[derive(Debug, Clone, Copy)]
pub struct Figures {
    /// Traffic responses that were 200 and byte-correct, per second.
    pub throughput_rps: f64,
    /// Nearest-rank traffic latency percentiles, µs.
    pub p50_us: f64,
    /// See `p50_us`.
    pub p90_us: f64,
    /// CPU of the server's threads per completed request (traffic and
    /// operator), µs.
    pub cpu_us_per_req: f64,
    /// Simulated µops per served request on the primary machines.
    pub sim_uops_per_req: f64,
}

/// The end-to-end result of one loopback run.
#[derive(Debug)]
pub struct LoopbackResult {
    /// Measured window, s.
    pub window_s: f64,
    /// Requests attempted over the whole run (traffic and operator).
    pub attempted: u64,
    /// Requests that failed over the whole run.
    pub failed: u64,
    /// First failure seen, for the log.
    pub first_error: Option<String>,
    /// The reported figures.
    pub window: Figures,
    /// Sorted traffic latencies inside the window, ns.
    pub latencies: Vec<u64>,
    /// Sorted scrape latencies, ns.
    pub scrapes: Vec<u64>,
    /// Peak resident memory of this process once [`RSS_AT_REQUESTS`] window
    /// requests completed (or at the window's end, if fewer did), MiB.
    pub peak_rss_mb: f64,
    /// Window requests completed when `peak_rss_mb` was read.
    pub peak_rss_requests: u64,
    /// Keep-alive connections the clients had to re-open.
    pub reconnects: u64,
    /// Mean queue depth seen by arrivals in the window.
    pub queue_depth_mean: f64,
    /// The host factor measured through the window (see [`host_speed`]).
    pub host_factor: f64,
    /// Probe units the host factor is the median of.
    pub probe_units: usize,
}

fn uops_and_requests(snap: &MetricsSnapshot) -> (u64, u64) {
    (snap.worker_uops.iter().sum(), snap.stats.requests)
}

fn us(ns: Option<u64>) -> f64 {
    ns.unwrap_or(0) as f64 / 1e3
}

/// Runs the clients for the warm-up and then for `seconds` with tracing
/// off.
pub fn run(
    wl: &Workload,
    setup: &Setup,
    streams: &[Vec<usize>],
    requests: &[Vec<u8>],
    seconds: f64,
) -> Result<LoopbackResult, String> {
    let addr = setup.server.addr();
    let server = &setup.server;
    let phase = AtomicU8::new(WARMING);
    let load_gen = LoadGenThreads::default();
    load_gen.register();
    let expected = setup.expected.as_slice();
    let window_done = AtomicU64::new(0);
    let front_cpu = pin_single_worker(wl);
    let (tallies, op_tally, marks, probe_ns) = std::thread::scope(|s| {
        let clients: Vec<_> = streams
            .iter()
            .map(|stream| {
                let (phase, load_gen, done) = (&phase, &load_gen, &window_done);
                s.spawn(move || {
                    place_client(front_cpu);
                    traffic_client(addr, stream, requests, expected, phase, load_gen, done)
                })
            })
            .collect();
        let op = wl.operator.then(|| {
            s.spawn(|| {
                place_client(front_cpu);
                operator(addr, &phase, &load_gen)
            })
        });
        let probe = s.spawn(|| {
            load_gen.register();
            while phase.load(Ordering::SeqCst) == WARMING {
                std::thread::sleep(Duration::from_millis(1));
            }
            host_speed::probe(|| phase.load(Ordering::SeqCst) == STOPPED)
        });

        std::thread::sleep(WARMUP);
        let measure = || -> Result<(Mark, Mark, Option<RssReading>), String> {
            let start = Mark::now(server, &load_gen)?;
            phase.store(MEASURING, Ordering::SeqCst);
            let deadline = start.at + Duration::from_secs_f64(seconds);
            let mut rss = None;
            loop {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                std::thread::sleep((deadline - now).min(RSS_POLL));
                let done = window_done.load(Ordering::Relaxed);
                if rss.is_none() && done >= RSS_AT_REQUESTS {
                    rss = Some((proc_self::peak_rss_kib().ok_or(NO_VMHWM)?, done));
                }
            }
            let end = Mark::now(server, &load_gen)?;
            phase.store(STOPPED, Ordering::SeqCst);
            Ok((start, end, rss))
        };
        let marks = measure();
        phase.store(STOPPED, Ordering::SeqCst);
        let tallies: Vec<ClientTally> = clients
            .into_iter()
            .map(|h| h.join().expect("traffic client panicked"))
            .collect();
        let op_tally = op.map(|h| h.join().expect("operator panicked"));
        let probe_ns = probe.join().expect("host-speed probe panicked");
        marks.map(|marks| (tallies, op_tally, marks, probe_ns))
    })?;

    let mut attempted = 0;
    let mut failed = 0;
    let mut first_error = None;
    let mut reconnects = 0;
    let mut completed = 0;
    let mut ok = 0;
    let mut latencies = Vec::new();
    let mut scrapes = Vec::new();
    for (t, is_operator) in tallies
        .into_iter()
        .map(|t| (t, false))
        .chain(op_tally.map(|t| (t, true)))
    {
        attempted += t.attempted;
        failed += t.failed;
        reconnects += t.reconnects;
        completed += t.window_completed;
        ok += t.window_ok;
        if first_error.is_none() {
            first_error = t.first_error;
        }
        if is_operator {
            scrapes = t.latencies;
        } else {
            latencies.extend(t.latencies);
        }
    }
    latencies.sort_unstable();

    let (a, b, rss) = &marks;
    let cpu_s = (b.server_ticks - a.server_ticks) as f64 / proc_self::CLOCK_TICKS_PER_S;
    let (u0, r0) = uops_and_requests(&a.snap);
    let (u1, r1) = uops_and_requests(&b.snap);
    let window_s = (b.at - a.at).as_secs_f64();
    let window = Figures {
        throughput_rps: ok as f64 / window_s,
        p50_us: us(stats::percentile(&latencies, 50.0).value),
        p90_us: us(stats::percentile(&latencies, 90.0).value),
        cpu_us_per_req: stats::ratio(cpu_s * 1e6, completed as f64),
        sim_uops_per_req: stats::ratio((u1 - u0) as f64, (r1 - r0) as f64),
    };

    // The scrape path: the operator's scrapes under traffic, or — on
    // workloads without an operator — the same cycle on the idle server.
    if !wl.operator {
        let mut conn = Conn::new(addr, false);
        for _ in 0..IDLE_SCRAPES {
            attempted += 2;
            match scrape(&mut conn) {
                Ok(ns) => scrapes.push(ns),
                Err(e) => {
                    failed += 1;
                    first_error.get_or_insert(e);
                }
            }
        }
    }
    scrapes.sort_unstable();

    let (first, last) = (&a.snap.stats.queue_depth, &b.snap.stats.queue_depth);
    let host_factor = host_speed::factor(&probe_ns).ok_or("the host-speed probe took no sample")?;
    // A window too short to reach the fixed request count falls back to
    // the peak at its end.
    let (peak_kib, peak_rss_requests) = match *rss {
        Some(at) => at,
        None => (
            proc_self::peak_rss_kib().ok_or(NO_VMHWM)?,
            window_done.into_inner(),
        ),
    };
    Ok(LoopbackResult {
        window_s,
        attempted,
        failed,
        first_error,
        window,
        latencies,
        scrapes,
        peak_rss_mb: peak_kib as f64 / 1024.0,
        peak_rss_requests,
        reconnects,
        queue_depth_mean: stats::ratio(
            (last.sum() - first.sum()) as f64,
            (last.count() - first.count()) as f64,
        ),
        host_factor,
        probe_units: probe_ns.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn reads_length_framed_responses_and_keep_alive() {
        let wire = b"HTTP/1.1 200 OK\r\ncontent-type: text/html\r\ncontent-length: 5\r\n\
                     connection: keep-alive\r\n\r\nhelloHTTP/1.1 404 Not Found\r\n\
                     Content-Length: 0\r\nConnection: close\r\n\r\n";
        let mut r = Cursor::new(wire.to_vec());
        let (resp, keep) = read_response(&mut r).unwrap();
        assert_eq!(
            (resp.status, resp.body.as_slice(), keep),
            (200, &b"hello"[..], true)
        );
        let (resp, keep) = read_response(&mut r).unwrap();
        assert_eq!((resp.status, resp.body.len(), keep), (404, 0, false));
        let err = read_response(&mut r).err().expect("stream is exhausted");
        assert!(is_stale(&err), "a closed connection reads as stale");
    }

    #[test]
    fn rejects_malformed_responses() {
        for wire in [
            &b"garbage\r\n\r\n"[..],
            b"HTTP/1.1 200 OK\r\ncontent-length: x\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nno-colon\r\n\r\n",
            b"HTTP/1.1 200 OK\r\ncontent-length: 9\r\n\r\nshort",
        ] {
            assert!(read_response(&mut Cursor::new(wire.to_vec())).is_err());
        }
    }
}
