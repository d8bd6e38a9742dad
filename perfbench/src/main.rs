//! `perfbench` — the two-clock loopback benchmark.
//!
//! ```text
//! perfbench --workload <verified-mix|tiny-scraped|memo-vm> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Boots `serve::HttpServer` in-process with the workload's `HttpConfig`,
//! drives it over loopback from seeded closed-loop clients, checks every
//! response against a direct `Server` run, and prints the end-to-end
//! metrics. With `--trace 1` it also replays the same request stream
//! in-process through each layer's public functions, records a span around
//! every call, and prints the per-layer metrics instead. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. See `perfbench/README.md` for the metric definitions.

mod host_speed;
mod loopback;
mod proc_self;
mod stats;
mod trace;
mod workload;

use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Duration;
use workload::Workload;

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Set-up is timed this many times per run (the run's own set-up plus
/// fresh child processes) and reported as the median.
const SETUP_SAMPLES: usize = 41;
/// Calls timed on the live server's scrape path in a traced run.
const SCRAPE_PATH_REPS: u64 = 50;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(value).ok_or_else(|| {
                    let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?} (expected one of {names:?})")
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| "--seed takes a u64")?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// A metric as printed in the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// Times set-up in fresh child processes, so the run's own process keeps
/// only its own set-up in its memory peak.
fn setup_probes(wl: &Workload, n: usize) -> Result<Vec<loopback::SetupTimes>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    (0..n)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--setup-probe", wl.name])
                .output()
                .map_err(|e| format!("cannot run set-up probe: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            let line = text.lines().last().unwrap_or("");
            let v: Vec<f64> = line
                .strip_prefix("setup_probe ")
                .map(|rest| rest.split(' ').filter_map(|x| x.parse().ok()).collect())
                .unwrap_or_default();
            if !out.status.success() || v.len() != 4 {
                return Err(format!(
                    "set-up probe failed: {}",
                    String::from_utf8_lossy(&out.stderr).trim()
                ));
            }
            Ok(loopback::SetupTimes {
                total: v[0],
                corpus_build: v[1],
                expected: v[2],
                start: v[3],
            })
        })
        .collect()
}

/// `--setup-probe <workload>`: one timed set-up, then exit.
fn setup_probe(name: &str) -> ExitCode {
    let Some(wl) = Workload::by_name(name) else {
        eprintln!("perfbench: unknown workload {name:?}");
        return ExitCode::from(2);
    };
    match loopback::setup(&wl) {
        Ok(s) => {
            let t = s.times;
            s.server.shutdown();
            println!(
                "setup_probe {} {} {} {}",
                t.total, t.corpus_build, t.expected, t.start
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--setup-probe") {
        return setup_probe(argv.get(1).map(String::as_str).unwrap_or(""));
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // A run that hangs must still end: the contract is a prompt exit.
    let limit = Duration::from_secs_f64(args.seconds * 2.0 + 60.0);
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: still running after {limit:?}; giving up");
        std::process::exit(3);
    });
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one benchmark invocation; `Ok(false)` when a gate failed.
fn run(args: &Args) -> Result<bool, String> {
    let wl = &args.workload;
    let root = Path::new(".");
    println!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        wl.name, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "context: available_parallelism={} loadavg_1m={} git_commit={} source_fnv64={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        proc_self::loadavg_1m().map_or("unknown".into(), |l| l.to_string()),
        proc_self::git_commit(root).unwrap_or_else(|| "unavailable (not a git checkout)".into()),
        proc_self::source_fingerprint(&root.join("crates"))
            .map_or("unknown".into(), |h| format!("{h:016x}")),
    );

    let mut setups = setup_probes(wl, SETUP_SAMPLES - 1)?;
    let setup = loopback::setup(wl)?;
    setups.push(setup.times);
    let med = |f: fn(&loopback::SetupTimes) -> f64| {
        stats::median(&setups.iter().map(f).collect::<Vec<_>>()).expect("set-up was timed")
    };
    let setup_s = med(|t| t.total);
    println!(
        "setup: median of {} = {:.4} s (corpus build {:.4} s, expected bytes {:.4} s, server start {:.5} s)",
        setups.len(),
        setup_s,
        med(|t| t.corpus_build),
        med(|t| t.expected),
        med(|t| t.start)
    );

    let streams = wl.streams(&setup.corpus, args.seed);
    let requests = workload::request_bytes(&setup.corpus);
    // A traced invocation splits its time between the loopback window and
    // the in-process replay.
    let window = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let lb = loopback::run(wl, &setup, &streams, &requests, window)?;

    let (p50, p90) = (lb.window.p50_us, lb.window.p90_us);
    let scrape = stats::percentile(&lb.scrapes, 50.0);
    let scrape_p50_ms = scrape.value.unwrap_or(0) as f64 / 1e6;
    println!(
        "loopback: {} traffic samples over {:.3} s, {} attempted, {} failed, {} keep-alive reconnects",
        lb.latencies.len(),
        lb.window_s,
        lb.attempted,
        lb.failed,
        lb.reconnects
    );
    for p in [99.0, 99.9] {
        let pc = stats::percentile(&lb.latencies, p);
        println!(
            "diagnostic: latency_p{p}_us = {} ({} samples, {} beyond)",
            pc.value.unwrap_or(0) as f64 / 1e3,
            pc.samples,
            stats::samples_beyond(&lb.latencies, p)
        );
    }
    if let Some(e) = &lb.first_error {
        println!("FAIL: first failed request: {e}");
    }

    let scrape_path = args
        .trace
        .then(|| trace::time_scrape_path(&setup.server, SCRAPE_PATH_REPS));
    let report = setup.server.shutdown();
    let mut gates = Vec::new();
    if lb.failed != 0 {
        gates.push(format!("{} requests failed", lb.failed));
    }
    if report.stats.mismatches != 0 {
        gates.push(format!("{} replay mismatches", report.stats.mismatches));
    }
    if !report.stats.outcomes_partition_requests() {
        gates.push("ServeStats outcomes do not partition requests".into());
    }

    let failed_frac = stats::failed_frac(lb.failed, lb.attempted);
    // Host-clock figures of the window are put on the reference host's
    // scale (see `host_speed`). The scrape path waits on a timer, memory is
    // not a time, and set-up happens before the probe runs (scaling it by
    // the window's factor made it spread more, not less), so those three
    // are reported as measured.
    let f = lb.host_factor;
    println!(
        "host: factor {f} (trimmed mean thread CPU time of {} probe units over {} ns)",
        lb.probe_units,
        host_speed::REFERENCE_UNIT_NS
    );
    let raw = [
        ("throughput_rps", lb.window.throughput_rps),
        ("latency_p50_us", p50),
        ("latency_p90_us", p90),
        ("cpu_us_per_req", lb.window.cpu_us_per_req),
    ];
    for (name, value) in raw {
        println!("raw: {name} = {value} as measured");
    }
    let e2e = vec![
        metric("throughput_rps", lb.window.throughput_rps * f, "1/s"),
        metric("latency_p50_us", p50 / f, "us"),
        metric("latency_p90_us", p90 / f, "us"),
        metric("cpu_us_per_req", lb.window.cpu_us_per_req / f, "us"),
        metric("sim_uops_per_req", lb.window.sim_uops_per_req, "uops"),
        metric("scrape_p50_ms", scrape_p50_ms, "ms"),
        metric("peak_rss_mb", lb.peak_rss_mb, "MiB"),
        metric("setup_s", setup_s, "s"),
    ];
    for m in &e2e {
        println!("e2e: {} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "e2e: failed_frac = {failed_frac} ({} of {} attempted)",
        lb.failed, lb.attempted
    );
    println!(
        "samples: latency_p50_us and latency_p90_us over {} requests ({} beyond p90); scrape_p50_ms over {} scrapes; peak_rss_mb read after {} window requests",
        lb.latencies.len(),
        stats::samples_beyond(&lb.latencies, 90.0),
        scrape.samples,
        lb.peak_rss_requests
    );
    let metrics = match scrape_path {
        None => e2e,
        Some(scrape_path) => {
            let budget = Duration::from_secs_f64(args.seconds / 2.0);
            let tr = trace::run(wl, &setup.corpus, &setup.expected, &streams, budget);
            let ctx = LayerContext {
                wl,
                lb: &lb,
                report: &report,
                p50_us: p50,
                scrape_path,
                corpus_build_s: med(|t| t.corpus_build),
                start_s: med(|t| t.start),
            };
            per_layer(&ctx, &tr, &mut gates)
        }
    };
    for g in &gates {
        println!("FAIL: {g}");
    }
    let correct = gates.is_empty();
    print_result(correct, lb.attempted, lb.failed, &metrics);
    Ok(correct)
}

/// What the per-layer breakdown reads besides the traced run itself.
struct LayerContext<'a> {
    wl: &'a Workload,
    lb: &'a loopback::LoopbackResult,
    report: &'a serve::HttpReport,
    p50_us: f64,
    scrape_path: (f64, f64, usize),
    corpus_build_s: f64,
    start_s: f64,
}

/// Builds the per-layer metrics from the traced run, prints the two clocks
/// side by side, and adds the reconciliation gates.
fn per_layer(
    ctx: &LayerContext<'_>,
    tr: &trace::TraceResult,
    gates: &mut Vec<String>,
) -> Vec<Metric> {
    // Counters cover every request in the pass; span times cover the
    // traced ones.
    let n = tr.requests as f64;
    let per_req = |x: u64| stats::ratio(x as f64, n);
    let stage_sum = tr.per_request_us("request");
    let transport = ctx.p50_us - stage_sum;
    let (memo_inv, memo_hit_ratio, memo_entries) = match tr.memo {
        Some((a, b)) => (
            per_req(b.invalidations - a.invalidations),
            stats::ratio(
                (b.hits - a.hits) as f64,
                (b.hits - a.hits + b.misses - a.misses) as f64,
            ),
            b.entries as f64,
        ),
        None => (0.0, 0.0, 0.0),
    };
    let (snapshot_us, render_us, body_bytes) = ctx.scrape_path;
    let mut m = vec![
        metric(
            "serve.http.parse_us",
            tr.per_request_us("serve.http.parse"),
            "us",
        ),
        metric(
            "serve.http.route_us",
            tr.self_per_request_us("serve.http.route"),
            "us",
        ),
        metric(
            "serve.http.write_us",
            tr.per_request_us("serve.http.write"),
            "us",
        ),
        metric("serve.http.transport_us", transport, "us"),
        metric(
            "serve.http.transport_share",
            stats::ratio(transport, ctx.p50_us),
            "ratio",
        ),
        metric(
            "serve.http.queue_depth_mean",
            ctx.lb.queue_depth_mean,
            "count",
        ),
        metric(
            "serve.http.connections",
            ctx.report.front.connections as f64,
            "count",
        ),
        metric(
            "serve.middleware.self_us",
            tr.self_per_request_us("serve.middleware.handle"),
            "us",
        ),
        metric(
            "serve.middleware.log_lines_retained",
            ctx.report.access_log.len() as f64,
            "count",
        ),
        metric(
            "serve.server.self_us",
            tr.self_per_request_us("serve.server.serve_indexed"),
            "us",
        ),
        metric(
            "serve.server.reset_us",
            tr.per_request_us("serve.server.reset"),
            "us",
        ),
        metric(
            "serve.server.replay_mismatches",
            (ctx.report.stats.mismatches + tr.mismatches) as f64,
            "count",
        ),
        metric(
            "php-interp.primary_us",
            tr.per_request_us("php-interp.primary"),
            "us",
        ),
        metric(
            "php-interp.reference_us",
            tr.per_request_us("php-interp.reference"),
            "us",
        ),
        metric("php-interp.vm_ops_per_req", per_req(tr.vm_ops), "count"),
        metric(
            "php-interp.vm_fused_share",
            stats::ratio(tr.vm_fused as f64, tr.vm_ops as f64),
            "ratio",
        ),
        metric(
            "serve.memo.lookup_us",
            tr.per_request_us("serve.memo.lookup"),
            "us",
        ),
        metric(
            "serve.memo.store_us",
            tr.per_request_us("serve.memo.store"),
            "us",
        ),
        metric(
            "serve.memo.invalidate_us",
            tr.per_request_us("serve.memo.invalidate"),
            "us",
        ),
        metric(
            "serve.memo.lookups_per_req",
            per_req(tr.memo_lookups),
            "count",
        ),
        metric("serve.memo.invalidations_per_req", memo_inv, "count"),
        metric("serve.memo.hit_ratio", memo_hit_ratio, "ratio"),
        metric("serve.memo.entries", memo_entries, "count"),
        metric("serve.metrics_text.snapshot_us", snapshot_us, "us"),
        metric("serve.metrics_text.render_us", render_us, "us"),
        metric("serve.metrics_text.body_bytes", body_bytes as f64, "bytes"),
    ];
    const CATEGORY_METRICS: [&str; 8] = [
        "core.uops.hash-map",
        "core.uops.heap",
        "core.uops.string",
        "core.uops.regex",
        "core.uops.type-check",
        "core.uops.refcount",
        "core.uops.jit-code",
        "core.uops.other",
    ];
    for (name, uops) in CATEGORY_METRICS.iter().zip(tr.categories) {
        m.push(metric(name, per_req(uops), "uops"));
    }
    m.extend([
        metric("core.uops_per_req", per_req(tr.uops), "uops"),
        metric(
            "core.reference_uops_per_req",
            per_req(tr.reference_uops),
            "uops",
        ),
        metric("accel-htable.hit_rate", tr.htable_hit_rate, "ratio"),
        metric("accel-heap.hit_rate", tr.heap_hit_rate, "ratio"),
        metric(
            "accel-string.fallback_ratio",
            tr.string_fallback_ratio,
            "ratio",
        ),
        metric("accel-regex.reuse_hit_rate", tr.reuse_hit_rate, "ratio"),
        metric("workloads.corpus_build_s", ctx.corpus_build_s, "s"),
        metric("serve.http.start_s", ctx.start_s, "s"),
        metric("trace.stage_sum_us", stage_sum, "us"),
        metric("trace.overhead_us_per_req", tr.overhead_us, "us"),
    ]);
    for x in &m {
        println!("layer: {} = {} {}", x.name, x.value, x.unit);
    }

    let loopback_uops = ctx.lb.window.sim_uops_per_req;
    println!(
        "traced: {} of {} requests traced on {} lane(s) over {:.3} s",
        tr.traced, tr.requests, ctx.wl.workers, tr.pass_s
    );
    println!(
        "clocks: host {:.2} us in-process per request (loopback p50 {:.2} us); simulated {:.1} uops per request traced (loopback {:.1})",
        stage_sum,
        ctx.p50_us,
        per_req(tr.uops),
        loopback_uops
    );
    println!(
        "reconcile: transport residual {:.2} us = {:.1}% of latency_p50_us; tracing overhead {:.2} us per traced request (untraced requests take {:.2} us)",
        transport,
        100.0 * stats::ratio(transport, ctx.p50_us),
        tr.overhead_us,
        tr.untraced_us
    );
    println!(
        "reconcile: sum of core.uops.* = {} uops = profiler total delta {} uops: {}",
        tr.categories.iter().sum::<u64>(),
        tr.uops,
        if tr.uops_reconcile {
            "exact"
        } else {
            "MISMATCH"
        }
    );
    let path = Path::new(".perfbench").join(format!("{}-spans.tsv", ctx.wl.name));
    match tr.write_spans(&path) {
        Ok(()) => println!("spans: {} written to {}", tr.spans.len(), path.display()),
        Err(e) => println!("spans: cannot write {}: {e}", path.display()),
    }

    if !tr.uops_reconcile {
        gates.push("core.uops.* do not sum to the profiler's total delta".into());
    }
    if stage_sum > ctx.p50_us {
        gates.push(format!(
            "in-process stage sum {stage_sum:.2} us exceeds latency_p50_us {:.2} us",
            ctx.p50_us
        ));
    }
    if tr.mismatches != 0 {
        gates.push(format!(
            "{} replay mismatches in the traced run",
            tr.mismatches
        ));
    }
    if let Some(f) = tr.failures.first() {
        gates.push(format!(
            "{} traced requests failed; first: {f}",
            tr.failures.len()
        ));
    }
    m
}
