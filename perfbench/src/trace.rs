//! The traced run: replays the seeded request stream in-process through
//! each layer's public functions, in the order a worker calls them, and
//! records a span around every call. Spans are recorded from the
//! benchmark's side of each call; the program itself is not instrumented.
//!
//! One lane per server worker replays requests: parse → middleware chain →
//! route → `Server::serve_indexed` (primary run, reference replay) → reset
//! → response write. Lanes share the middleware chain and, on `memo-vm`,
//! the memo tier, exactly as the server's workers do.

use crate::stats::{self, Span};
use crate::workload::{self, Workload};
use php_interp::{MemoHit, MemoTier};
use php_runtime::{Category, StaticSavings};
use phpaccel_core::{ExecMode, PhpMachine};
use serve::{
    parse_request, AccessLog, ErrorPages, HttpLimits, HttpResponse, IdentityEncoding, MemoCache,
    MemoCacheStats, MiddlewareChain, MiddlewareRequest, Server,
};
use std::cell::RefCell;
use std::io::Cursor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};
use workloads::php_corpus::CorpusCache;

/// Requests replayed untimed first, so caches fill before timing.
const WARMUP_REQUESTS: u64 = 500;
/// Most requests one pass serves (bounds the memory spans take).
const MAX_REQUESTS: u64 = 40_000;

static EPOCH: OnceLock<Instant> = OnceLock::new();

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// This thread's span recorder.
#[derive(Default)]
struct Tracer {
    on: bool,
    request: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
}

/// Runs `f` inside a span named `name` when this thread is tracing.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let idx = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return None;
        }
        let idx = t.spans.len();
        let (parent, request) = (t.open.last().copied(), t.request);
        let start = now_ns();
        t.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        t.open.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = idx {
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            t.spans[idx].end = now_ns();
            let closed = t.open.pop();
            debug_assert_eq!(closed, Some(idx), "spans close in stack order");
        });
    }
    out
}

fn set_tracing(on: bool, request: u64) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.on = on;
        t.request = request;
    });
}

fn take_spans() -> Vec<Span> {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().spans))
}

/// The benchmark-owned memo tier: the workload's `MemoCache` behind spans
/// and call counters.
struct TracedMemo {
    cache: Arc<MemoCache>,
    lookups: AtomicU64,
}

impl MemoTier for TracedMemo {
    fn lookup(&self, key: &str) -> Option<MemoHit> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        span("serve.memo.lookup", || self.cache.lookup(key))
    }
    fn store(&self, key: String, deps: Vec<String>, hit: MemoHit) {
        span("serve.memo.store", || self.cache.store(key, deps, hit))
    }
    fn invalidate(&self, dep: &str) -> u64 {
        span("serve.memo.invalidate", || self.cache.invalidate(dep))
    }
}

/// State every lane shares.
struct Shared<'a> {
    wl: &'a Workload,
    corpus: &'a CorpusCache,
    expected: &'a [Vec<u8>],
    requests: &'a [Vec<u8>],
    streams: &'a [Vec<usize>],
    /// Built the way `HttpServer::start` builds it (no rate limit).
    chain: MiddlewareChain,
    memo: Option<Arc<TracedMemo>>,
    limits: HttpLimits,
    next: AtomicU64,
    failures: Mutex<Vec<String>>,
}

impl Shared<'_> {
    fn fail(&self, what: String) {
        self.failures.lock().expect("failure list lock").push(what);
    }
}

/// One lane's primary-machine counters at a point in time.
struct Counters {
    uops: u64,
    categories: [u64; 8],
    htable: [u64; 4],
    heap: [u64; 4],
    string: [u64; 2],
    reuse: [u64; 2],
    savings: StaticSavings,
}

fn counters(m: &PhpMachine) -> Counters {
    let prof = m.ctx().profiler();
    let by_cat = prof.category_breakdown();
    let core = m.core();
    let (ht, hp) = (core.htable.stats(), core.heap.stats());
    let (st, ru) = (core.straccel.stats(), core.reuse.stats());
    Counters {
        uops: prof.total_uops(),
        categories: Category::ALL.map(|c| by_cat.get(&c).copied().unwrap_or(0)),
        htable: [ht.gets, ht.get_hits, ht.sets, ht.key_too_long],
        heap: [hp.mallocs, hp.malloc_hits, hp.frees, hp.free_hits],
        string: [st.ops, st.fallbacks],
        reuse: [ru.lookups, ru.hits],
        savings: prof.static_savings(),
    }
}

/// What one lane measured over the traced pass.
struct LaneResult {
    spans: Vec<Span>,
    before: Counters,
    after: Counters,
    reference_uops: u64,
    mismatches: u64,
    untraced: Untimed,
}

/// Routes one parsed request the way the server's router does, serving
/// `/run/<name>` on this lane's `Server`.
fn route(
    sh: &Shared<'_>,
    server: &mut Server,
    reference_uops: &mut u64,
    k: u64,
    req: &serve::HttpRequest,
) -> HttpResponse {
    let Some(name) = req.path.strip_prefix("/run/") else {
        return HttpResponse::new(404);
    };
    let Some(script) = sh.corpus.scripts().iter().find(|s| s.entry().name == name) else {
        return HttpResponse::new(404);
    };
    let memo = sh.memo.clone().map(|m| m as Arc<dyn MemoTier>);
    let record = span("serve.server.serve_indexed", || {
        server.serve_indexed(k, &mut |m, _req| {
            let reference = m.mode() == ExecMode::Baseline;
            let before = m.ctx().profiler().total_uops();
            let name = if reference {
                "php-interp.reference"
            } else {
                "php-interp.primary"
            };
            let out = span(name, || script.run_memo(m, true, memo.clone()));
            if reference {
                *reference_uops += m.ctx().profiler().total_uops() - before;
            }
            out
        })
    });
    span("serve.server.reset", || server.recover_between_requests());
    match record.outcome.status_code() {
        200 => HttpResponse::html(200, record.response),
        status => HttpResponse::new(status),
    }
}

/// Replays global request `k` through every layer and checks the bytes.
fn serve_one(sh: &Shared<'_>, server: &mut Server, reference_uops: &mut u64, k: u64) {
    let script = workload::interleaved(sh.streams, k);
    span("request", || {
        let mut input = Cursor::new(sh.requests[script].as_slice());
        let req = match span("serve.http.parse", || parse_request(&mut input, &sh.limits)) {
            Ok(req) => req,
            Err(e) => return sh.fail(format!("request {k}: parse error {e:?}")),
        };
        let mreq = MiddlewareRequest {
            method: &req.method,
            target: &req.target,
        };
        let resp = span("serve.middleware.handle", || {
            sh.chain.handle(&mreq, || {
                span("serve.http.route", || {
                    route(sh, server, reference_uops, k, &req)
                })
            })
        });
        let mut wire = Vec::with_capacity(resp.body.len() + 256);
        if let Err(e) = span("serve.http.write", || {
            resp.write_to(&mut wire, req.keep_alive)
        }) {
            return sh.fail(format!("request {k}: write failed: {e}"));
        }
        if resp.status != 200 || resp.body != sh.expected[script] {
            sh.fail(format!(
                "request {k}: status {} or bytes differ from direct Server bytes",
                resp.status
            ));
        }
    });
}

/// Whether global request `k` is traced: a seeded coin flip, so traced and
/// untraced requests share one pass, one machine state and one script mix.
fn traced(k: u64) -> bool {
    workload::split_mix(k) & 1 == 0
}

/// Host time of one lane's untraced requests, per corpus script.
struct Untimed {
    ns: Vec<u64>,
    count: Vec<u64>,
}

fn lane(sh: &Shared<'_>, barrier: &Barrier, deadline: &OnceLock<Instant>) -> LaneResult {
    let mut machine = PhpMachine::specialized();
    machine.set_engine(sh.wl.engine);
    let cfg = sh.wl.http_config();
    let mut server = Server::new(machine, cfg.breaker_cfg, cfg.sandbox);
    if sh.wl.reference {
        server = server.with_reference(PhpMachine::baseline());
    }
    let mut reference_uops = 0;
    let scripts = sh.corpus.len();
    let mut untraced = Untimed {
        ns: vec![0; scripts],
        count: vec![0; scripts],
    };
    // Warm-up: untraced and untimed.
    loop {
        let k = sh.next.fetch_add(1, Ordering::SeqCst);
        if k >= WARMUP_REQUESTS {
            break;
        }
        serve_one(sh, &mut server, &mut reference_uops, k);
    }
    let before = counters(server.machine());
    reference_uops = 0;
    barrier.wait(); // B1: warm-up done, counters read
    barrier.wait(); // B2: deadline set, the pass starts
    let deadline = *deadline.get().expect("deadline set before B2");
    while Instant::now() < deadline {
        let k = sh.next.fetch_add(1, Ordering::SeqCst);
        if k >= WARMUP_REQUESTS + MAX_REQUESTS {
            break;
        }
        if traced(k) {
            set_tracing(true, k);
            serve_one(sh, &mut server, &mut reference_uops, k);
            set_tracing(false, 0);
        } else {
            let t = Instant::now();
            serve_one(sh, &mut server, &mut reference_uops, k);
            let script = workload::interleaved(sh.streams, k);
            untraced.ns[script] += t.elapsed().as_nanos() as u64;
            untraced.count[script] += 1;
        }
    }
    barrier.wait(); // B3: pass done
    LaneResult {
        spans: take_spans(),
        before,
        after: counters(server.machine()),
        reference_uops,
        mismatches: server.stats().mismatches,
        untraced,
    }
}

/// Everything the traced run measured.
pub struct TraceResult {
    /// Requests served in the pass, traced or not.
    pub requests: u64,
    /// Traced requests among them.
    pub traced: u64,
    /// Wall time of the pass, s.
    pub pass_s: f64,
    /// Every span, all lanes, parents re-indexed into this vector.
    pub spans: Vec<Span>,
    /// Self time per span (same order as `spans`), ns.
    pub self_ns: Vec<u64>,
    /// Mean host time of an untraced request, µs.
    pub untraced_us: f64,
    /// Tracing cost per traced request, µs: traced minus untraced host
    /// time, compared script by script and weighted by the traced mix.
    pub overhead_us: f64,
    /// Per-category µop deltas summed over lanes, in `Category::ALL` order.
    pub categories: [u64; 8],
    /// Total µop delta summed over lanes.
    pub uops: u64,
    /// Whether every lane's category deltas sum exactly to its total.
    pub uops_reconcile: bool,
    /// µops the reference machines spent inside the handler.
    pub reference_uops: u64,
    /// Replay mismatches over every lane's lifetime.
    pub mismatches: u64,
    /// Failed checks (parse, write, status, bytes).
    pub failures: Vec<String>,
    /// Accelerator outcome ratios over the pass.
    pub htable_hit_rate: f64,
    /// See `htable_hit_rate`.
    pub heap_hit_rate: f64,
    /// See `htable_hit_rate`.
    pub string_fallback_ratio: f64,
    /// See `htable_hit_rate`.
    pub reuse_hit_rate: f64,
    /// VM opcodes and fused superinstructions over the pass.
    pub vm_ops: u64,
    /// See `vm_ops`.
    pub vm_fused: u64,
    /// Memo lookups made through the tier over the pass.
    pub memo_lookups: u64,
    /// Memo cache counters before and after the pass.
    pub memo: Option<(MemoCacheStats, MemoCacheStats)>,
}

impl TraceResult {
    /// Sum of durations of spans named `name`, per traced request, µs.
    pub fn per_request_us(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum();
        stats::ratio(ns as f64 / 1e3, self.traced as f64)
    }

    /// Sum of self times of spans named `name`, per traced request, µs.
    pub fn self_per_request_us(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .zip(&self.self_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .sum();
        stats::ratio(ns as f64 / 1e3, self.traced as f64)
    }

    /// Writes every span as one tab-separated line:
    /// `request name start_ns end_ns parent_index self_ns`.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "request\tname\tstart_ns\tend_ns\tparent\tself_ns")?;
        for (s, t) in self.spans.iter().zip(&self.self_ns) {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.request, s.name, s.start, s.end, parent, t
            )?;
        }
        w.flush()
    }
}

/// Sums two counter tuples' differences element-wise into `acc`.
fn add_delta<const N: usize>(acc: &mut [u64; N], before: [u64; N], after: [u64; N]) {
    for i in 0..N {
        acc[i] += after[i] - before[i];
    }
}

/// Replays the stream: a warm-up, then one pass of about `budget` in which
/// a seeded half of the requests is traced.
pub fn run(
    wl: &Workload,
    corpus: &CorpusCache,
    expected: &[Vec<u8>],
    streams: &[Vec<usize>],
    budget: Duration,
) -> TraceResult {
    let sh = Shared {
        wl,
        corpus,
        expected,
        requests: &workload::request_bytes(corpus),
        streams,
        chain: MiddlewareChain::new()
            .with(AccessLog::new())
            .with(ErrorPages)
            .with(IdentityEncoding),
        memo: wl.memo.then(|| {
            Arc::new(TracedMemo {
                cache: Arc::new(MemoCache::new(16)),
                lookups: AtomicU64::new(0),
            })
        }),
        limits: HttpLimits::default(),
        next: AtomicU64::new(0),
        failures: Mutex::new(Vec::new()),
    };
    let barrier = Barrier::new(wl.workers + 1);
    let deadline = OnceLock::new();
    let mut memo_before = None;
    let mut pass = Duration::ZERO;
    let lanes: Vec<LaneResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..wl.workers)
            .map(|_| s.spawn(|| lane(&sh, &barrier, &deadline)))
            .collect();
        barrier.wait(); // B1
        memo_before = sh
            .memo
            .as_ref()
            .map(|m| (m.cache.stats(), m.lookups.load(Ordering::SeqCst)));
        sh.next.store(WARMUP_REQUESTS, Ordering::SeqCst);
        let t = Instant::now();
        deadline.set(t + budget).expect("deadline set once");
        barrier.wait(); // B2
        barrier.wait(); // B3
        pass = t.elapsed();
        handles
            .into_iter()
            .map(|h| h.join().expect("trace lane panicked"))
            .collect()
    });

    let requests = sh
        .next
        .load(Ordering::SeqCst)
        .min(WARMUP_REQUESTS + MAX_REQUESTS)
        - WARMUP_REQUESTS;
    let mut spans = Vec::new();
    let mut categories = [0u64; 8];
    let mut uops = 0;
    let mut uops_reconcile = true;
    let (mut ht, mut hp, mut st, mut ru) = ([0; 4], [0; 4], [0; 2], [0; 2]);
    let (mut vm_ops, mut vm_fused, mut reference_uops, mut mismatches) = (0, 0, 0, 0);
    let mut untraced = Untimed {
        ns: vec![0; corpus.len()],
        count: vec![0; corpus.len()],
    };
    for lane in lanes {
        let base = spans.len();
        spans.extend(lane.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        let (a, b) = (&lane.before, &lane.after);
        let mut lane_categories = [0u64; 8];
        add_delta(&mut lane_categories, a.categories, b.categories);
        let lane_uops = b.uops - a.uops;
        uops_reconcile &= lane_categories.iter().sum::<u64>() == lane_uops;
        add_delta(&mut categories, a.categories, b.categories);
        uops += lane_uops;
        add_delta(&mut ht, a.htable, b.htable);
        add_delta(&mut hp, a.heap, b.heap);
        add_delta(&mut st, a.string, b.string);
        add_delta(&mut ru, a.reuse, b.reuse);
        vm_ops += b.savings.vm_ops_executed - a.savings.vm_ops_executed;
        vm_fused += b.savings.vm_fused_ops - a.savings.vm_fused_ops;
        reference_uops += lane.reference_uops;
        mismatches += lane.mismatches;
        for i in 0..corpus.len() {
            untraced.ns[i] += lane.untraced.ns[i];
            untraced.count[i] += lane.untraced.count[i];
        }
    }
    let self_ns = stats::self_times(&spans);

    // Tracing overhead, script by script: traced root-span time against
    // untraced wall time of the same script, weighted by the traced mix.
    let mut traced_ns = vec![0u64; corpus.len()];
    let mut traced_count = vec![0u64; corpus.len()];
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        let script = workload::interleaved(streams, s.request);
        traced_ns[script] += s.duration();
        traced_count[script] += 1;
    }
    let traced: u64 = traced_count.iter().sum();
    let mut overhead_ns = 0.0;
    for i in 0..corpus.len() {
        if traced_count[i] > 0 && untraced.count[i] > 0 {
            let mean_t = traced_ns[i] as f64 / traced_count[i] as f64;
            let mean_u = untraced.ns[i] as f64 / untraced.count[i] as f64;
            overhead_ns += traced_count[i] as f64 * (mean_t - mean_u);
        }
    }

    // Outcome ratios as the accelerator models define them: hash-table
    // GET hits plus SETs (which never miss) over requests; heap hardware
    // hits over in-range requests; string fallbacks over operations
    // attempted; reuse-table hits over lookups.
    let [gets, get_hits, sets, key_too_long] = ht;
    let [mallocs, malloc_hits, frees, free_hits] = hp;
    let memo = sh
        .memo
        .as_ref()
        .zip(memo_before)
        .map(|(m, (before, lookups))| {
            (
                before,
                m.cache.stats(),
                m.lookups.load(Ordering::SeqCst) - lookups,
            )
        });
    TraceResult {
        requests,
        traced,
        pass_s: pass.as_secs_f64(),
        spans,
        self_ns,
        untraced_us: stats::ratio(
            untraced.ns.iter().sum::<u64>() as f64 / 1e3,
            untraced.count.iter().sum::<u64>() as f64,
        ),
        overhead_us: stats::ratio(overhead_ns / 1e3, traced as f64),
        categories,
        uops,
        uops_reconcile,
        reference_uops,
        mismatches,
        failures: sh.failures.into_inner().expect("failure list lock"),
        htable_hit_rate: stats::ratio(
            (get_hits + sets - key_too_long.min(sets)) as f64,
            (gets + sets) as f64,
        ),
        heap_hit_rate: stats::ratio((malloc_hits + free_hits) as f64, (mallocs + frees) as f64),
        string_fallback_ratio: stats::ratio(st[1] as f64, (st[0] + st[1]) as f64),
        reuse_hit_rate: stats::ratio(ru[1] as f64, ru[0] as f64),
        vm_ops,
        vm_fused,
        memo_lookups: memo.map_or(0, |m| m.2),
        memo: memo.map(|m| (m.0, m.1)),
    }
}

/// Times `HttpServer::metrics_snapshot` and `render_prometheus` on the
/// live server, `reps` times each. Returns per-call means in µs and the
/// rendered body size.
pub fn time_scrape_path(server: &serve::HttpServer, reps: u64) -> (f64, f64, usize) {
    let mut bytes = 0;
    for i in 0..reps {
        set_tracing(true, i);
        let snap = span("serve.metrics_text.snapshot", || server.metrics_snapshot());
        bytes = span("serve.metrics_text.render", || {
            serve::render_prometheus(&snap)
        })
        .len();
        set_tracing(false, 0);
    }
    let spans = take_spans();
    let mean = |name: &str| {
        let ns: u64 = spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum();
        stats::ratio(ns as f64 / 1e3, reps as f64)
    };
    (
        mean("serve.metrics_text.snapshot"),
        mean("serve.metrics_text.render"),
        bytes,
    )
}
