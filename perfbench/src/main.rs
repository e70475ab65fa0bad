//! Serving benchmark: drives a real `mx_serve::Server` from one
//! load-generating process and times every request from outside.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload ffn_open --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs an untraced
//! half-window, then a traced half-window with probes around each layer,
//! and prints the per-layer metrics. Both check served outputs bit for bit
//! against a twin model. The last stdout line is one JSON object; the
//! process exits nonzero when any request failed or any output mismatched.
//! See `perfbench/README.md` for the workloads and the metric table.

mod drive;
mod layers;
mod probe;
mod workload;

use drive::{Outcome, Window};
use layers::{GemmBench, PlanKey};
use mx_models::zoo::{BatchModel, ZooInput};
use mx_nn::qflow::QuantConfig;
use mx_nn::TensorFormat;
use mx_serve::{Request, RequestInput, ServeStats, Server, ServerHandle};
use probe::{Probe, ProbeLog};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use workload::{Arrivals, Family, Req, Spec};

/// Server set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Requests at the head of each window whose outputs are checked against
/// the twin and scored for QSNR. The head is sent in every run, so the
/// sample depends only on the seed.
const SAMPLE: usize = 1024;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

/// Median of `v` (sorts it); 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of the middle half of `v` (sorts it): the values between its first
/// and third quartiles. Robust to a few outlying values like the median,
/// but it averages over half the sample instead of reading one value of
/// it, so it moves less between runs. 0 when empty.
fn middle_mean(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let mid = &v[n / 4..n - n / 4];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Nearest-rank percentile `p` (0..100] of sorted `v`; 0 when empty.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    rank.min(sorted.len())
        .checked_sub(1)
        .and_then(|i| sorted.get(i))
        .map_or(0.0, |&v| v)
}

/// A metric line: name, value, unit, sample count.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// Registers the tenants (wrapped in probes when `log` is given), starts
/// the server, and sends one request per `(tenant, config, bucket)` so the
/// first weight packs and plan compiles happen before the window. Returns
/// the handle and the seconds this took; building the tenants' weights is
/// input generation and is not timed.
fn set_up(
    spec: &Spec,
    names: &[String],
    warm: &RequestInput,
    log: Option<&Arc<Mutex<ProbeLog>>>,
) -> Result<(ServerHandle, f64), String> {
    let models: Vec<Box<dyn BatchModel>> = (0..spec.tenants)
        .map(|t| {
            let m = spec.build_model(t);
            match log {
                Some(log) => {
                    Box::new(Probe::new(m, spec.configs(), log.clone())) as Box<dyn BatchModel>
                }
                None => m,
            }
        })
        .collect();
    let t0 = Instant::now();
    let mut server = Server::new(spec.server_config());
    for (name, model) in names.iter().zip(models) {
        server.register(name, model);
    }
    let handle = server.start().map_err(|e| format!("server start: {e}"))?;
    for name in names {
        for cfg in spec.configs() {
            for edge in spec.edges() {
                let input = match warm {
                    RequestInput::Pixels(p) => RequestInput::Pixels(p.clone()),
                    RequestInput::Tokens(_) => RequestInput::Tokens(
                        (0..edge).map(|j| j % mx_models::data::LM_VOCAB).collect(),
                    ),
                };
                handle
                    .infer(Request::new(name.clone(), input).quant(cfg))
                    .map_err(|e| format!("warm-up: {e}"))?;
            }
        }
    }
    Ok((handle, t0.elapsed().as_secs_f64()))
}

fn run_window(
    spec: &Spec,
    handle: &ServerHandle,
    names: &[String],
    pool: &[Req],
    seconds: f64,
) -> Window {
    match spec.arrivals {
        Arrivals::Open { rate } => drive::open_loop(handle, names, pool, rate, seconds, SAMPLE),
        Arrivals::Closed { window } => {
            drive::closed_loop(handle, names, pool, window, seconds, SAMPLE)
        }
    }
}

/// The served output of every sampled request must equal, bit for bit,
/// the same request padded to its bucket and run alone through the twin.
/// QSNR scores it against the twin's FP32 forward on that padded input.
struct Check {
    checked: usize,
    mismatches: usize,
    /// QSNR of each matching response, with its request's format.
    qsnr_db: Vec<(TensorFormat, f64)>,
}

impl Check {
    /// Median QSNR of each format the sample holds, in first-seen order.
    fn qsnr_by_format(&self) -> Vec<(TensorFormat, f64, usize)> {
        let mut formats: Vec<TensorFormat> = Vec::new();
        for &(f, _) in &self.qsnr_db {
            if !formats.contains(&f) {
                formats.push(f);
            }
        }
        formats
            .into_iter()
            .map(|f| {
                let mut v: Vec<f64> = self
                    .qsnr_db
                    .iter()
                    .filter(|q| q.0 == f)
                    .map(|q| q.1)
                    .collect();
                (f, median(&mut v), v.len())
            })
            .collect()
    }
}

fn check<'a>(
    twins: &mut [Box<dyn BatchModel>],
    pool: &[Req],
    outputs: impl IntoIterator<Item = &'a (usize, Vec<f32>)>,
) -> Check {
    let mut c = Check {
        checked: 0,
        mismatches: 0,
        qsnr_db: Vec::new(),
    };
    for (index, served) in outputs {
        let req = &pool[index % pool.len()];
        let twin = &mut twins[req.tenant];
        let keep = twin.output_len(req.len());
        let run = |twin: &mut Box<dyn BatchModel>, cfg: QuantConfig| {
            twin.set_quant(cfg);
            let mut y = match &req.input {
                RequestInput::Tokens(t) => {
                    let mut padded = t.clone();
                    padded.resize(req.bucket, 0);
                    twin.forward_batch(ZooInput::Tokens(&padded), 1)
                }
                RequestInput::Pixels(p) => {
                    let mut padded = p.clone();
                    padded.resize(req.bucket, 0.0);
                    twin.forward_batch(ZooInput::Pixels(&padded), 1)
                }
            };
            y.truncate(keep);
            y
        };
        let want = run(twin, req.cfg);
        c.checked += 1;
        let same = want.len() == served.len()
            && want
                .iter()
                .zip(served)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            c.mismatches += 1;
            continue;
        }
        let reference = run(twin, QuantConfig::fp32());
        c.qsnr_db
            .push((req.cfg.fwd, mx_core::qsnr::qsnr_db(&reference, served)));
    }
    c
}

/// The process's peak resident set (`VmHWM`), MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line")?;
    Ok(kb / 1024.0)
}

fn cpu_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let probes = [
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
            ("avx512bw", std::arch::is_x86_feature_detected!("avx512bw")),
            (
                "avx512vnni",
                std::arch::is_x86_feature_detected!("avx512vnni"),
            ),
        ];
        let on: Vec<&str> = probes.iter().filter(|p| p.1).map(|p| p.0).collect();
        on.join(",")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        String::from("non-x86_64")
    }
}

/// The commit the benchmark runs at, read from `.git` when the checkout
/// has one.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn provenance(spec: &Spec, seed: u64, seconds: f64, trace: bool) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let client_threads = match spec.arrivals {
        Arrivals::Open { .. } => 2,
        Arrivals::Closed { .. } => 1,
    };
    println!(
        "# workload={} seed={seed} seconds={seconds} trace={} backend={} cpu={} nproc={nproc} \
         shards={} workers_per_shard={} max_batch={} client_threads={client_threads} gemm_threads={} rev={}",
        spec.name,
        u8::from(trace),
        mx_core::gemm::kernel_backend_name(),
        cpu_features(),
        spec.shards,
        spec.workers,
        spec.max_batch,
        mx_core::parallel::default_threads(),
        git_rev(),
    );
}

/// Prints each metric with its unit and sample count, then the result
/// object as the last line.
fn emit(correct: bool, attempted: usize, failed: usize, report: &[Metric], json: &[&str]) {
    for m in report {
        println!(
            "# {:<28} {:>16.4} {:<12} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let body: Vec<String> = report
        .iter()
        .filter(|m| json.contains(&m.name))
        .map(|m| {
            // JSON has no NaN or infinity; a ratio with an empty base
            // (no planned batches, say) reads 0.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// Sorted latencies, failed requests included at the window length.
fn latencies<'a>(outcomes: impl IntoIterator<Item = &'a Outcome>) -> Vec<f64> {
    let mut l: Vec<f64> = outcomes
        .into_iter()
        .map(|o| f64::from(o.latency_us))
        .collect();
    l.sort_by(f64::total_cmp);
    l
}

/// Per-second figures of a window, over its whole seconds: the middle mean
/// of each second's p50 latency (requests grouped by when they were due or
/// sent) and of each second's count of answered requests. A burst of
/// contention on the shared machine slows a few seconds of a run; it moves
/// those seconds, not the middle half. Returns `(p50_us, answered per
/// second)`.
fn per_second(w: &Window) -> (f64, f64) {
    let seconds = (w.seconds.floor() as usize).max(1);
    let mut p50s = Vec::with_capacity(seconds);
    let mut answered = Vec::with_capacity(seconds);
    for i in 0..seconds {
        let (lo, hi) = (i as f64, (i + 1) as f64);
        let lat = latencies(
            w.outcomes
                .iter()
                .filter(|o| (lo..hi).contains(&f64::from(o.at_s))),
        );
        if !lat.is_empty() {
            p50s.push(percentile(&lat, 50.0));
        }
        let done = w
            .outcomes
            .iter()
            .filter(|o| !o.failed && (lo..hi).contains(&f64::from(o.done_s)));
        answered.push(done.count() as f64);
    }
    (middle_mean(&mut p50s), middle_mean(&mut answered))
}

/// `cpu_us_per_req`: the server's CPU time in each whole second of the
/// window over the requests answered in that second, as the middle mean
/// over the seconds. The hypervisor's steal is taken out of each second's
/// CPU time (see `drive::server_cpu`), and the per-second slices keep a
/// burst of host contention from moving the figure, as in [`per_second`].
fn cpu_per_request(w: &Window) -> f64 {
    let mut per_request: Vec<f64> = w
        .server_cpu_s
        .iter()
        .enumerate()
        .filter_map(|(i, &cpu)| {
            let (lo, hi) = (i as f64, (i + 1) as f64);
            let answered = w
                .outcomes
                .iter()
                .filter(|o| !o.failed && (lo..hi).contains(&f64::from(o.done_s)))
                .count();
            (answered > 0).then(|| cpu * 1e6 / answered as f64)
        })
        .collect();
    middle_mean(&mut per_request)
}

/// `throughput_rps`. Closed loop: the per-second middle mean of answers.
/// Open loop: answers over the time from the first request's due time to
/// the last answer. That is the offered rate unless a backlog is left, so
/// in open loop it only shows a loss of capacity below the offered rate.
fn throughput(spec: &Spec, w: &Window) -> f64 {
    match spec.arrivals {
        Arrivals::Closed { .. } => per_second(w).1,
        Arrivals::Open { .. } => {
            let ok = w.outcomes.iter().filter(|o| !o.failed);
            let last = ok.clone().map(|o| f64::from(o.done_s)).fold(0.0, f64::max);
            ok.count() as f64 / last
        }
    }
}

/// End-to-end metrics in the result object: every one printed above except
/// the latencies and `fail_share`. `p50_us` and `p99_us` follow the load
/// other guests put on the host, not the code: on a shared two-vCPU machine
/// their run-to-run spread went past any usable regression bound whenever
/// the host was busy.
/// `cpu_us_per_req` carries the serve path's cost instead. `fail_share`
/// reads 0 on a healthy run and is carried by `failed` / `attempted`.
const END_TO_END: [&str; 5] = [
    "throughput_rps",
    "cpu_us_per_req",
    "setup_s",
    "qsnr_db",
    "peak_rss_mb",
];

const PER_LAYER: [&str; 27] = [
    "serve.submit_us",
    "serve.wait_us",
    "serve.mean_batch",
    "serve.batches",
    "serve.plan_hit_share",
    "serve.plans_compiled",
    "serve.dynamic_batch_share",
    "serve.useful_token_share",
    "serve.executor_occupancy",
    "plan.compile_us",
    "plan.execute_us",
    "plan.self_us",
    "plan.arena_bytes",
    "gemm.exec_us.m1",
    "gemm.exec_us.m32",
    "gemm.ops_per_call",
    "gemm.bytes_per_call",
    "gemm.pack_cols_us",
    "gemm.uniform_row_share",
    "engine.lower_ns_per_elem",
    "qflow.packs_performed",
    "qflow.packs_avoided",
    "gen.late_share",
    "gen.max_late_us",
    "gen.collect_ready_share",
    "gen.collect_ready_bound_us",
    "trace_overhead_us",
];

fn end_to_end(
    spec: &Spec,
    args: &Args,
    pool: &[Req],
    names: &[String],
    twins: &mut [Box<dyn BatchModel>],
) -> Result<bool, String> {
    let (handle, first) = set_up(spec, names, &pool[0].input, None)?;
    let w = run_window(spec, &handle, names, pool, args.seconds);
    // Read before the extra set-ups and the check, so the peak covers one
    // server's life: its set-up and the window.
    let peak_rss_mb = peak_rss_mb()?;
    handle.shutdown();
    let mut setups = vec![first];
    for _ in 1..SETUPS {
        let (handle, s) = set_up(spec, names, &pool[0].input, None)?;
        setups.push(s);
        handle.shutdown();
    }
    let c = check(twins, pool, &w.outputs);
    let errors = w.errors.len();
    let attempted = w.outcomes.len();
    let failed = errors + c.mismatches;
    let lat = latencies(&w.outcomes);
    let n = lat.len();
    let answered = attempted - errors;
    let p50 = per_second(&w).0;
    let cpu_us_per_req = cpu_per_request(&w);
    if cpu_us_per_req <= 0.0 {
        return Err("no CPU time readable from /proc/self/stat".into());
    }
    // qsnr_db: the mean over formats of each format's median, so every
    // format of a mixed workload reaches the figure with the same weight.
    let by_format = c.qsnr_by_format();
    for (f, q, k) in &by_format {
        println!(
            "# {:<28} {q:>16.4} {:<12} n={k}",
            format!("qsnr_db[{f}]"),
            "dB"
        );
    }
    let qsnr = by_format.iter().map(|q| q.1).sum::<f64>() / by_format.len().max(1) as f64;
    let report = [
        metric("p50_us", p50, "us", n),
        metric("p99_us", percentile(&lat, 99.0), "us", n),
        metric("throughput_rps", throughput(spec, &w), "1/s", n),
        metric("cpu_us_per_req", cpu_us_per_req, "us", answered),
        metric(
            "fail_share",
            failed as f64 / attempted as f64,
            "share",
            attempted,
        ),
        metric("setup_s", median(&mut setups), "s", SETUPS),
        metric("qsnr_db", qsnr, "dB", c.qsnr_db.len()),
        metric("peak_rss_mb", peak_rss_mb, "MiB", 1),
    ];
    let correct = failed == 0 && c.checked > 0;
    emit(correct, attempted, failed, &report, &END_TO_END);
    Ok(correct)
}

/// Window deltas of the server's own counters.
fn delta_hist(a: &ServeStats, b: &ServeStats) -> Vec<u64> {
    b.batch_histogram
        .iter()
        .zip(&a.batch_histogram)
        .map(|(y, x)| y - x)
        .collect()
}

fn traced(
    spec: &Spec,
    args: &Args,
    pool: &[Req],
    names: &[String],
    twins: &mut [Box<dyn BatchModel>],
) -> Result<bool, String> {
    let half = args.seconds / 2.0;
    // Untraced half: the baseline p50 for trace_overhead_us.
    let (plain, _) = set_up(spec, names, &pool[0].input, None)?;
    let base = run_window(spec, &plain, names, pool, half);
    plain.shutdown();

    // Traced half: every tenant behind a probe; submit/wait spans come
    // from the generator's own stamps.
    let configs = spec.configs();
    let log = Arc::new(Mutex::new(ProbeLog::new(configs.len())));
    let (handle, _) = set_up(spec, names, &pool[0].input, Some(&log))?;
    let s0 = handle.stats();
    let l0 = log.lock().expect("probe log").clone();
    let w = run_window(spec, &handle, names, pool, half);
    let s1 = handle.stats();
    let l1 = log.lock().expect("probe log").clone();
    handle.shutdown();

    let c = check(twins, pool, base.outputs.iter().chain(&w.outputs));
    let errors = base.errors.len() + w.errors.len();
    let attempted = base.outcomes.len() + w.outcomes.len();
    let failed = errors + c.mismatches;

    let batches = (s1.batches - s0.batches) as f64;
    let completed = (s1.completed - s0.completed) as f64;
    let hist = delta_hist(&s0, &s1);
    let hist_total: u64 = hist.iter().sum();
    let dynamic: u64 = l1.dynamic.iter().zip(&l0.dynamic).map(|(b, a)| b - a).sum();
    let reqs: Vec<&Req> = w
        .outcomes
        .iter()
        .map(|o| &pool[o.index as usize % pool.len()])
        .collect();
    let useful: usize = reqs.iter().map(|r| r.len()).sum();
    let padded: usize = reqs.iter().map(|r| r.bucket).sum();
    let rows_per_req = |r: &Req| match spec.family {
        Family::Ffn => 1,
        Family::Gpt => r.bucket,
    };
    let mean_rows = reqs.iter().map(|r| rows_per_req(r)).sum::<usize>() as f64 / batches.max(1.0);

    // Plan keys: planned batches per config (probe), split over buckets by
    // the window's request mix and over batch sizes by the server's
    // histogram. The server does not expose per-batch keys, so the split
    // assumes bucket and batch size independent of each other.
    let mut keys = Vec::new();
    for (ci, cfg) in configs.iter().enumerate() {
        let planned = (l1.batches[ci] - l0.batches[ci])
            .saturating_sub(l1.dynamic[ci] - l0.dynamic[ci]) as f64;
        let with_cfg: Vec<&&Req> = reqs.iter().filter(|r| r.cfg == *cfg).collect();
        if planned == 0.0 || with_cfg.is_empty() || layers::bdr(cfg).is_none() {
            continue;
        }
        for edge in spec.edges() {
            let share =
                with_cfg.iter().filter(|r| r.bucket == edge).count() as f64 / with_cfg.len() as f64;
            for (i, &count) in hist.iter().enumerate() {
                if count > 0 && share > 0.0 {
                    keys.push(PlanKey {
                        cfg: *cfg,
                        len: edge,
                        batch: i + 1,
                        weight: planned * share * count as f64 / hist_total as f64,
                    });
                }
            }
        }
    }
    let mut gemms = GemmBench::new(args.seed);
    let replay = layers::replay_plans(spec, twins[0].as_ref(), pool, &keys, &mut gemms);

    let mx6 = layers::bdr(&workload::mx(TensorFormat::MX6)).expect("MX6 is a BDR format");
    let (k, n) = layers::reference_shape(spec.family);
    let a1 = workload::activation_rows(args.seed, 1, k);
    let a32 = workload::activation_rows(args.seed, 32, k);
    let rows = workload::activation_rows(args.seed, 1024, k);
    let bytes = gemms.packed_bytes(mx6, k, n) as f64 + 4.0 * mean_rows * (k + n) as f64;

    let mut submit: Vec<f64> = w.outcomes.iter().map(|o| f64::from(o.submit_us)).collect();
    let mut wait: Vec<f64> = w
        .outcomes
        .iter()
        .filter(|o| !o.failed)
        .map(|o| f64::from(o.wait_us))
        .collect();
    let mut compile = l1.compile_us.clone();
    let open = matches!(spec.arrivals, Arrivals::Open { .. });
    let late = w
        .outcomes
        .iter()
        .filter(|o| o.late_us > drive::LATE_US)
        .count();
    let max_late = w
        .outcomes
        .iter()
        .map(|o| f64::from(o.late_us))
        .fold(0.0, f64::max);
    let nw = w.outcomes.len();
    let mut collect_ready: Vec<f64> = w.collect_ready_us.iter().map(|&v| f64::from(v)).collect();
    let p50_traced = per_second(&w).0;
    let p50_plain = per_second(&base).0;
    let report = [
        metric("serve.submit_us", median(&mut submit), "us", nw),
        metric("serve.wait_us", median(&mut wait), "us", wait.len()),
        metric(
            "serve.mean_batch",
            completed / batches.max(1.0),
            "requests",
            batches as usize,
        ),
        metric("serve.batches", batches, "count", 1),
        metric(
            "serve.plan_hit_share",
            (s1.plan_cache_hits - s0.plan_cache_hits) as f64 / batches.max(1.0),
            "share",
            batches as usize,
        ),
        metric(
            "serve.plans_compiled",
            (s1.plans_compiled - s0.plans_compiled) as f64,
            "count",
            1,
        ),
        metric(
            "serve.dynamic_batch_share",
            dynamic as f64 / batches.max(1.0),
            "share",
            batches as usize,
        ),
        metric(
            "serve.useful_token_share",
            useful as f64 / padded as f64,
            "share",
            nw,
        ),
        metric(
            "serve.executor_occupancy",
            replay.busy_s / w.seconds,
            "share",
            keys.len(),
        ),
        metric("plan.compile_us", median(&mut compile), "us", compile.len()),
        metric("plan.execute_us", replay.execute_us, "us", keys.len()),
        metric("plan.self_us", replay.self_us, "us", keys.len()),
        metric("plan.arena_bytes", s1.plan_arena_bytes as f64, "B", 1),
        metric("gemm.exec_us.m1", gemms.exec_us(mx6, &a1, 1, k, n), "us", 1),
        metric(
            "gemm.exec_us.m32",
            gemms.exec_us(mx6, &a32, 32, k, n),
            "us",
            1,
        ),
        metric(
            "gemm.ops_per_call",
            2.0 * mean_rows * (k * n) as f64,
            "ops_computed",
            1,
        ),
        metric("gemm.bytes_per_call", bytes, "B_computed", 1),
        metric("gemm.pack_cols_us", gemms.pack_cols_us(mx6, k, n), "us", 1),
        metric(
            "gemm.uniform_row_share",
            layers::uniform_row_share(mx6, &rows, k),
            "share",
            1024,
        ),
        metric(
            "engine.lower_ns_per_elem",
            layers::lower_ns_per_elem(mx6, &a32, 32, k),
            "ns",
            1,
        ),
        metric(
            "qflow.packs_performed",
            s1.packs_performed as f64,
            "count",
            1,
        ),
        metric("qflow.packs_avoided", s1.packs_avoided as f64, "count", 1),
        metric(
            "gen.late_share",
            if open { late as f64 / nw as f64 } else { 0.0 },
            "share",
            nw,
        ),
        metric(
            "gen.max_late_us",
            if open { max_late } else { 0.0 },
            "us",
            nw,
        ),
        metric(
            "gen.collect_ready_share",
            w.collect_ready_us.len() as f64 / nw as f64,
            "share",
            nw,
        ),
        metric(
            "gen.collect_ready_bound_us",
            median(&mut collect_ready),
            "us",
            collect_ready.len(),
        ),
        metric("trace_overhead_us", p50_traced - p50_plain, "us", nw),
    ];
    let correct = failed == 0 && c.checked > 0;
    emit(correct, attempted, failed, &report, &PER_LAYER);
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = Spec::by_name(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (ffn_open, ffn_closed, gpt_mixed)",
            args.workload
        );
        return ExitCode::from(2);
    };
    provenance(&spec, args.seed, args.seconds, args.trace);
    let pool = spec.requests(args.seed);
    let names: Vec<String> = (0..spec.tenants).map(|t| format!("t{t}")).collect();
    let mut twins: Vec<Box<dyn BatchModel>> =
        (0..spec.tenants).map(|t| spec.build_model(t)).collect();
    let run = if args.trace {
        traced(&spec, &args, &pool, &names, &mut twins)
    } else {
        end_to_end(&spec, &args, &pool, &names, &mut twins)
    };
    match run {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: output check failed or requests failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
