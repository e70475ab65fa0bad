//! Load generation against a running server, timed from outside.
//!
//! One process, at most two client threads: the submitter and, in open
//! loop, a collector. `Pending` has no non-blocking poll, so the collector
//! waits in submission order; a response that lands before an earlier one
//! is stamped when the collector reaches it, i.e. late. That bias only
//! lengthens latencies, and only when a later request overtakes an earlier
//! one (possible on `gpt_mixed`, whose two shards run independently).

use crate::workload::Req;
use mx_serve::{Pending, Request, ServeError, ServerHandle};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The submitter sleeps until this long before a request is due, then
/// yields until it is; a plain sleep overshoots by the kernel's timer
/// slack, which would land in every open-loop latency.
const SPIN: Duration = Duration::from_micros(50);
/// A submission this far past its due time counts as late.
pub const LATE_US: f32 = 100.0;
/// Closed-loop outcome records reserved per second of window. The
/// reservation is only address space until written, and with it the
/// record vector never reallocates, so the peak RSS grows with the count
/// answered instead of jumping at each doubling.
const CLOSED_RESERVE_PER_S: f64 = 50_000.0;
/// A `wait` that returns this fast found its answer already there.
const READY: Duration = Duration::from_micros(20);

/// `/proc` file of the whole process's CPU times, for [`cpu_seconds`].
const PROCESS: &str = "/proc/self/stat";
/// `/proc` file of the calling thread's CPU times, for [`cpu_seconds`].
const THREAD: &str = "/proc/thread-self/stat";
/// `/proc` file of the machine's CPU times, for [`host_ticks`].
const MACHINE: &str = "/proc/stat";

/// CPU time (user + system) used so far by the process or the calling
/// thread, read from `stat`, seconds. The process figure covers every
/// thread, exited ones included. `/proc` counts it in clock ticks of
/// 1/100 s.
fn cpu_seconds(stat: &str) -> Option<f64> {
    let text = std::fs::read_to_string(stat).ok()?;
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15.
    let mut fields = text.rsplit_once(')')?.1.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// CPU seconds the calling thread has used; 0 where `/proc` cannot tell.
fn thread_cpu() -> f64 {
    cpu_seconds(THREAD).unwrap_or(0.0)
}

/// CPU seconds the whole process has used; 0 where `/proc` cannot tell,
/// which leaves `cpu_us_per_req` at 0 and fails the run.
fn process_cpu() -> f64 {
    cpu_seconds(PROCESS).unwrap_or(0.0)
}

/// The machine's CPU ticks so far, summed over its vCPUs: `[steal, all]`,
/// where steal is time the hypervisor held a runnable vCPU back. Zeros
/// where `/proc` cannot tell, which leaves CPU times unscaled.
fn host_ticks() -> [f64; 2] {
    let text = std::fs::read_to_string(MACHINE).unwrap_or_default();
    // "cpu user nice system idle iowait irq softirq steal guest guest_nice";
    // guest time is already inside user.
    let ticks: Vec<f64> = text
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .take(8)
                .filter_map(|v| v.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    if ticks.len() < 8 {
        return [0.0; 2];
    }
    [ticks[7], ticks.iter().sum()]
}

/// CPU readings a generator thread takes as it passes each whole second of
/// the window: `values[i]` is read at second `i` (or as soon after it as
/// the thread gets there).
struct Marks<const N: usize> {
    start: Instant,
    values: Vec<[f64; N]>,
}

impl<const N: usize> Marks<N> {
    fn new(start: Instant) -> Self {
        Marks {
            start,
            values: Vec::new(),
        }
    }

    /// Reads `cpu` once for every whole second passed since the last call.
    fn pass(&mut self, cpu: fn() -> [f64; N]) {
        let elapsed = Instant::now().saturating_duration_since(self.start);
        let passed = elapsed.as_secs() as usize + 1;
        if self.values.len() < passed {
            let v = cpu();
            self.values.resize(passed, v);
        }
    }

    /// Reading `i` between consecutive marks.
    fn deltas(&self, i: usize) -> Vec<f64> {
        self.values.windows(2).map(|p| p[1][i] - p[0][i]).collect()
    }
}

/// The submitter's per-second reading: the process's CPU seconds, then the
/// machine's steal and total ticks.
fn process_and_host() -> [f64; 3] {
    let [steal, all] = host_ticks();
    [process_cpu(), steal, all]
}

fn own_thread() -> [f64; 1] {
    [thread_cpu()]
}

/// The server's CPU seconds in each whole second of a window: the
/// process's, less each generator thread's own, with steal taken out.
///
/// On a shared VM the CPU times `/proc` reports grow with the host's steal,
/// as if time the hypervisor held a vCPU back were charged to the thread
/// on it. Each second's figure is therefore scaled by `1 − steal / all`
/// over the machine's vCPUs in that second.
fn server_cpu(process: &Marks<3>, clients: &[&Marks<1>]) -> Vec<f64> {
    let mut cpu = process.deltas(0);
    for c in clients {
        let d = c.deltas(0);
        cpu.truncate(d.len());
        for (s, c) in cpu.iter_mut().zip(d) {
            *s -= c;
        }
    }
    let stolen = process.deltas(1).into_iter().zip(process.deltas(2));
    for (s, (steal, all)) in cpu.iter_mut().zip(stolen) {
        if all > 0.0 {
            *s *= 1.0 - steal / all;
        }
    }
    cpu
}

/// What happened to one request of the measured window. Kept small
/// (32 bytes): the process's peak RSS includes one per request.
pub struct Outcome {
    /// Index into the request stream (request `i` is `pool[i % pool.len()]`).
    pub index: u32,
    /// Seconds from the window's start to when the request was due (open
    /// loop) or sent (closed loop).
    pub at_s: f32,
    /// Seconds from the window's start to when its answer or error was in
    /// hand.
    pub done_s: f32,
    /// Open loop: due → `wait` returned. Closed loop: before `submit` →
    /// `wait` returned. Failed requests read the whole window.
    pub latency_us: f32,
    /// Time inside `ServerHandle::submit`.
    pub submit_us: f32,
    /// `submit` returned → `wait` returned.
    pub wait_us: f32,
    /// Open loop: how long after its due time the request was sent.
    pub late_us: f32,
    /// Refused or failed with a typed error.
    pub failed: bool,
}

/// One measured window.
pub struct Window {
    pub outcomes: Vec<Outcome>,
    /// The window's scheduled length, seconds.
    pub seconds: f64,
    /// Responses of the first `sample` requests, by request index.
    pub outputs: Vec<(usize, Vec<f32>)>,
    /// Every typed error, by request index.
    pub errors: Vec<(usize, ServeError)>,
    /// For each answer that was already in when the in-order collector
    /// reached it: the collector's arrival minus the request's `submit`
    /// return, µs. The answer landed somewhere in that interval, so this
    /// bounds how much later than its arrival it was stamped.
    pub collect_ready_us: Vec<f32>,
    /// The server's CPU seconds in each whole second of the window (the
    /// last, partial second is left out).
    pub server_cpu_s: Vec<f64>,
}

/// Instants of one request: due (open loop) or sent (closed loop), sent,
/// `submit` returned, the collector started waiting for it, answer in hand.
struct Stamps {
    due: Instant,
    sent: Instant,
    submitted: Instant,
    reached: Instant,
    done: Instant,
}

impl Window {
    fn new(seconds: f64, capacity: usize) -> Self {
        Window {
            outcomes: Vec::with_capacity(capacity),
            seconds,
            outputs: Vec::new(),
            errors: Vec::new(),
            collect_ready_us: Vec::new(),
            server_cpu_s: Vec::new(),
        }
    }

    fn record(
        &mut self,
        start: Instant,
        index: usize,
        t: Stamps,
        result: Result<Vec<f32>, ServeError>,
        sample: usize,
    ) {
        let failed = result.is_err();
        if !failed && t.done - t.reached < READY {
            let bound = t.reached.saturating_duration_since(t.submitted);
            self.collect_ready_us.push(us(bound) as f32);
        }
        let latency_us = if failed {
            self.seconds * 1e6
        } else {
            us(t.done - t.due)
        };
        match result {
            Ok(y) if index < sample => self.outputs.push((index, y)),
            Ok(_) => {}
            Err(e) => self.errors.push((index, e)),
        }
        self.outcomes.push(Outcome {
            index: index as u32,
            at_s: (t.due - start).as_secs_f32(),
            done_s: (t.done - start).as_secs_f32(),
            latency_us: latency_us as f32,
            submit_us: us(t.submitted - t.sent) as f32,
            wait_us: us(t.done - t.submitted) as f32,
            late_us: us(t.sent.saturating_duration_since(t.due)) as f32,
            failed,
        });
    }
}

fn request(names: &[String], r: &Req) -> Request {
    Request::new(names[r.tenant].clone(), r.input.clone()).quant(r.cfg)
}

fn pace_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Smooth open loop at `rate` requests per second for `seconds`.
pub fn open_loop(
    handle: &ServerHandle,
    names: &[String],
    pool: &[Req],
    rate: f64,
    seconds: f64,
    sample: usize,
) -> Window {
    let total = (rate * seconds).round().max(1.0) as usize;
    type Sent = (
        usize,
        Instant,
        Instant,
        Instant,
        Result<Pending, ServeError>,
    );
    let (tx, rx) = mpsc::channel::<Sent>();
    let start = Instant::now() + Duration::from_millis(1);
    std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut own = Marks::new(start);
            let mut w = Window::new(seconds, total);
            for (index, due, sent, submitted, pending) in rx {
                own.pass(own_thread);
                let reached = Instant::now();
                let (result, done) = match pending {
                    Ok(p) => {
                        let r = p.wait();
                        (r, Instant::now())
                    }
                    Err(e) => (Err(e), submitted),
                };
                let t = Stamps {
                    due,
                    sent,
                    submitted,
                    reached,
                    done,
                };
                w.record(start, index, t, result, sample);
            }
            own.pass(own_thread);
            (w, own)
        });
        let mut process = Marks::new(start);
        let mut own = Marks::new(start);
        for index in 0..total {
            let due = start + Duration::from_secs_f64(index as f64 / rate);
            pace_until(due);
            process.pass(process_and_host);
            own.pass(own_thread);
            let req = request(names, &pool[index % pool.len()]);
            let sent = Instant::now();
            let pending = handle.submit(req);
            let submitted = Instant::now();
            if tx.send((index, due, sent, submitted, pending)).is_err() {
                break;
            }
        }
        drop(tx);
        let (mut w, collector) = collector.join().expect("collector thread panicked");
        w.server_cpu_s = server_cpu(&process, &[&own, &collector]);
        w
    })
}

/// Closed loop: keep `window` requests outstanding for `seconds`, then
/// drain.
pub fn closed_loop(
    handle: &ServerHandle,
    names: &[String],
    pool: &[Req],
    window: usize,
    seconds: f64,
    sample: usize,
) -> Window {
    let mut inflight: VecDeque<(usize, Instant, Instant, Pending)> =
        VecDeque::with_capacity(window);
    let mut w = Window::new(seconds, (CLOSED_RESERVE_PER_S * seconds) as usize);
    let start = Instant::now();
    let mut process = Marks::new(start);
    let mut own = Marks::new(start);
    let end = start + Duration::from_secs_f64(seconds);
    let mut next = 0usize;
    loop {
        process.pass(process_and_host);
        own.pass(own_thread);
        while inflight.len() < window && Instant::now() < end {
            let req = request(names, &pool[next % pool.len()]);
            let sent = Instant::now();
            let pending = handle.submit(req);
            let submitted = Instant::now();
            match pending {
                Ok(p) => inflight.push_back((next, sent, submitted, p)),
                Err(e) => {
                    let t = Stamps {
                        due: sent,
                        sent,
                        submitted,
                        reached: submitted,
                        done: submitted,
                    };
                    w.record(start, next, t, Err(e), sample);
                }
            }
            next += 1;
        }
        let Some((index, sent, submitted, p)) = inflight.pop_front() else {
            break;
        };
        let reached = Instant::now();
        let result = p.wait();
        let t = Stamps {
            due: sent,
            sent,
            submitted,
            reached,
            done: Instant::now(),
        };
        w.record(start, index, t, result, sample);
    }
    w.server_cpu_s = server_cpu(&process, &[&own]);
    w
}
