//! Admission-control suite for `mx-serve`: bounded queues exert real
//! backpressure, overload sheds with a **typed** rejection (never a silent
//! drop), expired deadlines are answered with `DeadlineExceeded`, and the
//! latency-SLO gate orders traffic by priority. The tests drive the
//! controller with purpose-built models — a gate that blocks its worker
//! until released and a sleeper with a known service time — so every
//! assertion is about *which* typed outcome arrives, not about wall-clock
//! racing. A churner whose weight token moves on every batch checks that
//! a plan still executing on one worker survives its eviction by another.

use mx::models::zoo::{BatchModel, DenseGemm, InputKind, ZooInput};
use mx::nn::plan::{CompiledPlan, PlanError};
use mx::nn::qflow::QuantConfig;
use mx::nn::TensorFormat;
use mx::serve::{
    AdmissionConfig, Priority, Request, RequestInput, ServeError, Server, ServerConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

/// A pixel model that serves like a 4 → 1 dense layer (plans included)
/// and runs `act` once per batch. The server holds the model lock for the
/// quant switch, the `plan_token` check and the plan lookup or compile,
/// then executes the plan unlocked and concurrently; `plan_token` runs
/// once per batch under the lock, so that is where the act happens.
struct Fake {
    inner: DenseGemm,
    act: Box<dyn FnMut() + Send>,
    /// `Some(t)`: `plan_token` returns a fresh token on every batch, as if
    /// the weights moved between batches.
    churn: Option<u64>,
}

impl Fake {
    fn new(act: impl FnMut() + Send + 'static) -> Self {
        Fake {
            inner: DenseGemm::new(&mut StdRng::seed_from_u64(5), 4, 1, QuantConfig::fp32()),
            act: Box::new(act),
            churn: None,
        }
    }
}

impl BatchModel for Fake {
    fn input_kind(&self) -> InputKind {
        self.inner.input_kind()
    }

    fn input_len(&self) -> usize {
        self.inner.input_len()
    }

    fn output_len(&self, len: usize) -> usize {
        self.inner.output_len(len)
    }

    fn set_quant(&mut self, cfg: QuantConfig) {
        self.inner.set_quant(cfg);
    }

    fn forward_batch(&mut self, _input: ZooInput<'_>, _batch: usize) -> Vec<f32> {
        unreachable!("the server only executes compiled plans")
    }

    fn compile_plan(
        &self,
        cfg: QuantConfig,
        batch: usize,
        len: usize,
    ) -> Result<CompiledPlan, PlanError> {
        self.inner.compile_plan(cfg, batch, len)
    }

    fn plan_token(&mut self) -> u64 {
        (self.act)();
        match &mut self.churn {
            Some(token) => {
                *token += 1;
                *token
            }
            None => self.inner.plan_token(),
        }
    }
}

/// The gate: a model that parks its worker until the test releases (or
/// drops) the sender — the stand-in for a slow tenant that lets the test
/// fill queues deterministically. Either way the batch then completes
/// normally.
fn gate() -> (mpsc::Sender<()>, Fake) {
    let (tx, release) = mpsc::channel::<()>();
    (
        tx,
        Fake::new(move || {
            let _ = release.recv();
        }),
    )
}

/// The sleeper: a model with a fixed, known service time, used to seed the
/// admission controller's service-time EWMAs with a predictable value.
fn sleeper(service: Duration) -> Fake {
    Fake::new(move || std::thread::sleep(service))
}

/// The churner: a 64 → 48 dense layer whose weight token moves on every
/// batch, so every batch evicts and recompiles its key's cached plan while
/// the shard's other worker may still be executing the evicted one.
fn churner() -> Fake {
    Fake {
        inner: DenseGemm::new(&mut StdRng::seed_from_u64(6), 64, 48, QuantConfig::fp32()),
        act: Box::new(|| {}),
        churn: Some(0),
    }
}

fn px() -> RequestInput {
    RequestInput::Pixels(vec![0.0; 4])
}

#[test]
fn bounded_queue_backpressure_blocks_submitters() {
    let (gate_tx, gate) = gate();
    let mut server = Server::new(
        ServerConfig::default()
            .workers(1)
            .max_batch(1)
            .admission(AdmissionConfig::new().queue_capacity(2)),
    );
    server.register("gate", Box::new(gate));
    let handle = server.start().expect("valid config");

    // A submitter thread pushes far more requests than the pipeline
    // (executing batch + batch channel + dispatcher drain + queue bound)
    // can absorb while the worker is parked on the gate.
    const TOTAL: usize = 24;
    let submitted = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let submitted = &submitted;
        let handle_ref = &handle;
        let submitter = s.spawn(move || {
            let mut pending = Vec::with_capacity(TOTAL);
            for _ in 0..TOTAL {
                pending.push(handle_ref.submit(Request::new("gate", px())).unwrap());
                submitted.fetch_add(1, Ordering::SeqCst);
            }
            pending
        });
        // Give the submitter ample time: with the worker parked it must
        // wedge on the bounded queue well short of TOTAL.
        std::thread::sleep(Duration::from_millis(300));
        let blocked_at = submitted.load(Ordering::SeqCst);
        assert!(
            blocked_at < TOTAL,
            "bounded queue never blocked: all {TOTAL} submissions went through"
        );
        // Release the gate: every parked and queued batch completes, the
        // submitter unblocks, and every request is answered.
        drop(gate_tx);
        let pending = submitter.join().expect("submitter panicked");
        for (i, p) in pending.into_iter().enumerate() {
            assert!(
                p.wait().is_ok(),
                "request {i} must be answered after release"
            );
        }
    });
    let stats = handle.stats();
    assert_eq!(stats.completed, TOTAL as u64);
    assert_eq!(stats.shed, 0, "backpressure mode never sheds");
    assert_eq!(stats.queue_depth, 0);
    handle.shutdown();
}

#[test]
fn full_queue_sheds_with_typed_overloaded_and_never_silently_drops() {
    let (gate_tx, gate) = gate();
    let mut server = Server::new(
        ServerConfig::default()
            .workers(1)
            .max_batch(1)
            .admission(AdmissionConfig::new().queue_capacity(1).shed_on_full(true)),
    );
    server.register("gate", Box::new(gate));
    let handle = server.start().expect("valid config");

    // With the worker parked, keep submitting: the pipeline absorbs a
    // bounded handful, after which every submission must come back as a
    // typed Overloaded — submit never blocks and never loses a request.
    let mut pending = Vec::new();
    let mut overloaded = 0usize;
    for i in 0..50 {
        match handle.submit(Request::new("gate", px())) {
            Ok(p) => pending.push((i, p)),
            Err(ServeError::Overloaded { model }) => {
                assert_eq!(model, "gate");
                overloaded += 1;
            }
            Err(other) => panic!("request {i}: unexpected rejection {other:?}"),
        }
    }
    assert!(
        overloaded > 0,
        "50 submissions against a parked worker and a capacity-1 queue must shed"
    );
    assert!(
        !pending.is_empty(),
        "the pipeline must have admitted the first few requests"
    );
    let stats = handle.stats();
    assert_eq!(stats.shed, overloaded as u64, "every shed is counted");

    // Nothing admitted is ever silently dropped: release the gate and every
    // accepted request resolves.
    drop(gate_tx);
    let admitted = pending.len();
    for (i, p) in pending {
        assert!(p.wait().is_ok(), "admitted request {i} must complete");
    }
    let stats = handle.stats();
    assert_eq!(stats.completed, admitted as u64);
    assert_eq!(stats.queue_depth, 0);
    handle.shutdown();
}

#[test]
fn expired_deadlines_get_deadline_exceeded() {
    let (gate_tx, gate) = gate();
    let mut server = Server::new(ServerConfig::default().workers(1).max_batch(1));
    server.register("gate", Box::new(gate));
    let handle = server.start().expect("valid config");

    // A zero budget expires at submit time: typed error, nothing enqueued.
    let err = match handle.submit(Request::new("gate", px()).deadline(Duration::ZERO)) {
        Err(e) => e,
        Ok(_) => panic!("a zero-budget deadline must be rejected at submit"),
    };
    assert_eq!(
        err,
        ServeError::DeadlineExceeded {
            model: "gate".into()
        }
    );

    // Park the worker, then enqueue a short-deadline request behind it;
    // by the time the pipeline reaches it the deadline has passed, so the
    // dispatch- or execute-side check answers it with the typed error.
    let head = handle.submit(Request::new("gate", px())).unwrap();
    let doomed = handle
        .submit(Request::new("gate", px()).deadline(Duration::from_millis(10)))
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));
    drop(gate_tx);
    assert!(head.wait().is_ok(), "the parked head request completes");
    assert_eq!(
        doomed.wait().unwrap_err(),
        ServeError::DeadlineExceeded {
            model: "gate".into()
        }
    );
    let stats = handle.stats();
    assert_eq!(
        stats.expired, 2,
        "submit-time and queue-time expiries are both counted"
    );
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.queue_depth, 0);
    handle.shutdown();
}

#[test]
fn slo_admission_orders_traffic_by_priority() {
    // Service time ≥ 30ms; SLO 58ms. After one warm request seeds the
    // EWMA, the idle-shard wait estimate is ≥ 30ms: inside the Normal
    // budget (58ms), strictly outside the Low budget (29ms), bypassed
    // entirely by High.
    let service = Duration::from_millis(30);
    let mut server = Server::new(
        ServerConfig::default()
            .workers(1)
            .max_batch(1)
            .admission(AdmissionConfig::new().slo(Duration::from_millis(58))),
    );
    server.register("sleepy", Box::new(sleeper(service)));
    let handle = server.start().expect("valid config");

    // Cold shard: the estimate is zero, so the seeding request is admitted.
    handle
        .infer(Request::new("sleepy", px()))
        .expect("cold server admits");

    // Low priority gets half the SLO (29ms) — the ≥30ms estimate busts it.
    let err = handle
        .infer(Request::new("sleepy", px()).priority(Priority::Low))
        .unwrap_err();
    assert_eq!(
        err,
        ServeError::Overloaded {
            model: "sleepy".into()
        }
    );
    // Normal gets the full 58ms budget — admitted and served.
    handle
        .infer(Request::new("sleepy", px()))
        .expect("normal fits the full SLO");
    // High bypasses the estimate no matter what.
    handle
        .infer(Request::new("sleepy", px()).priority(Priority::High))
        .expect("high priority bypasses the SLO gate");

    let stats = handle.stats();
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.completed, 3);
    handle.shutdown();

    // A tight SLO sheds Normal traffic too, while High still lands.
    let mut server = Server::new(
        ServerConfig::default()
            .workers(1)
            .max_batch(1)
            .admission(AdmissionConfig::new().slo(Duration::from_millis(10))),
    );
    server.register("sleepy", Box::new(sleeper(service)));
    let handle = server.start().expect("valid config");
    handle
        .infer(Request::new("sleepy", px()))
        .expect("cold server admits");
    let err = handle.infer(Request::new("sleepy", px())).unwrap_err();
    assert_eq!(
        err,
        ServeError::Overloaded {
            model: "sleepy".into()
        }
    );
    handle
        .infer(Request::new("sleepy", px()).priority(Priority::High))
        .expect("high priority still lands under a busted SLO");
    let stats = handle.stats();
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.completed, 2);
    handle.shutdown();
}

#[test]
fn in_flight_plan_survives_its_own_eviction() {
    const CLIENTS: usize = 4;
    const BURSTS: usize = 6;
    const BURST: usize = 4;
    let mut server = Server::new(ServerConfig::default().workers(2).max_batch(BURST));
    server.register("churn", Box::new(churner()));
    let handle = server.start().expect("valid config");
    let cfg = QuantConfig::weights_activations(TensorFormat::MX6, TensorFormat::MX6);
    let req = |i: usize| {
        let row = (0..64)
            .map(|j| ((i * 64 + j) as f32 * 0.37).sin())
            .collect();
        Request::new("churn", RequestInput::Pixels(row)).quant(cfg)
    };
    let total = CLIENTS * BURSTS * BURST;
    // Serial answers first: one request per batch.
    let want: Vec<Vec<f32>> = (0..total)
        .map(|i| handle.infer(req(i)).expect("serial answer"))
        .collect();
    let before = handle.stats();
    // Concurrent clients keep both workers busy, so one worker's batch
    // evicts the plan slot the other is still executing.
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let (handle, want, req) = (&handle, &want, &req);
            s.spawn(move || {
                for burst in 0..BURSTS {
                    let first = (client * BURSTS + burst) * BURST;
                    let pending: Vec<_> = (first..first + BURST)
                        .map(|i| (i, handle.submit(req(i)).expect("admitted")))
                        .collect();
                    for (i, p) in pending {
                        let got = p.wait().expect("answered");
                        assert!(
                            got.len() == want[i].len()
                                && got
                                    .iter()
                                    .zip(&want[i])
                                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                            "request {i} differs from its serial answer"
                        );
                    }
                }
            });
        }
    });
    let stats = handle.stats();
    let batches = stats.batches - before.batches;
    assert_eq!(stats.completed, 2 * total as u64);
    // Every batch saw a fresh token: nothing hit, everything recompiled.
    // (`plans_compiled` is a process-wide delta that other tests may
    // inflate, never deflate.)
    assert_eq!(stats.plan_cache_hits, 0);
    assert!(
        stats.plans_compiled - before.plans_compiled >= batches,
        "{batches} batches, {} compiles",
        stats.plans_compiled - before.plans_compiled
    );
    assert_eq!(stats.plan_failures, 0);
    handle.shutdown();
}

#[test]
fn rejections_and_answers_are_printable_errors() {
    // `ServeError: Display + Error` lets callers `?` it out of main and
    // log it without `{:?}`.
    let errs: Vec<Box<dyn std::error::Error>> = vec![
        Box::new(ServeError::Overloaded { model: "m".into() }),
        Box::new(ServeError::DeadlineExceeded { model: "m".into() }),
        Box::new(ServeError::UnknownModel("m".into())),
    ];
    for e in errs {
        let msg = e.to_string();
        assert!(msg.contains('m'), "{msg}");
        assert!(
            !msg.contains("ServeError"),
            "Display must not be Debug: {msg}"
        );
    }
}
