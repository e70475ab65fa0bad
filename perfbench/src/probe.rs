//! The traced run's model probe: a `BatchModel` that forwards every call
//! to the real tenant and records what the server asked of it.
//!
//! The server drives each batch under the model lock as `set_quant(cfg)`,
//! then either the plan path (`plan_token`, plus `compile_plan` on a cache
//! miss; the plan itself executes out of the probe's sight) or the dynamic
//! walk (`forward_batch`). So every `set_quant` is one batch, every
//! `forward_batch` one dynamic batch, and every `compile_plan` one
//! plan-cache miss.

use mx_models::zoo::{BatchModel, InputKind, ZooInput};
use mx_nn::plan::{CompiledPlan, PlanError};
use mx_nn::qflow::QuantConfig;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Counts and spans one probe (or several sharing it) recorded.
#[derive(Clone, Default, Debug)]
pub struct ProbeLog {
    /// Batches started (`set_quant` calls), per config index.
    pub batches: Vec<u64>,
    /// Batches that took the dynamic walk (`forward_batch` calls), per
    /// config index.
    pub dynamic: Vec<u64>,
    /// Duration of every `compile_plan` call, µs.
    pub compile_us: Vec<f64>,
}

impl ProbeLog {
    pub fn new(configs: usize) -> Self {
        ProbeLog {
            batches: vec![0; configs],
            dynamic: vec![0; configs],
            compile_us: Vec::new(),
        }
    }
}

pub struct Probe {
    inner: Box<dyn BatchModel>,
    configs: Vec<QuantConfig>,
    current: usize,
    log: Arc<Mutex<ProbeLog>>,
}

impl Probe {
    pub fn new(
        inner: Box<dyn BatchModel>,
        configs: Vec<QuantConfig>,
        log: Arc<Mutex<ProbeLog>>,
    ) -> Self {
        Probe {
            inner,
            configs,
            current: 0,
            log,
        }
    }

    fn index(&self, cfg: &QuantConfig) -> usize {
        self.configs
            .iter()
            .position(|c| c == cfg)
            .expect("the server only forwards configs the workload sends")
    }

    fn record(&self, f: impl FnOnce(&mut ProbeLog)) {
        f(&mut self.log.lock().expect("probe log poisoned"));
    }
}

impl BatchModel for Probe {
    fn input_kind(&self) -> InputKind {
        self.inner.input_kind()
    }

    fn input_len(&self) -> usize {
        self.inner.input_len()
    }

    fn output_len(&self, len: usize) -> usize {
        self.inner.output_len(len)
    }

    fn variable_len(&self) -> bool {
        self.inner.variable_len()
    }

    fn set_quant(&mut self, cfg: QuantConfig) {
        self.current = self.index(&cfg);
        let i = self.current;
        self.record(|l| l.batches[i] += 1);
        self.inner.set_quant(cfg);
    }

    fn forward_batch(&mut self, input: ZooInput<'_>, batch: usize) -> Vec<f32> {
        let i = self.current;
        self.record(|l| l.dynamic[i] += 1);
        self.inner.forward_batch(input, batch)
    }

    fn compile_plan(
        &self,
        cfg: QuantConfig,
        batch: usize,
        len: usize,
    ) -> Result<CompiledPlan, PlanError> {
        let t0 = Instant::now();
        let plan = self.inner.compile_plan(cfg, batch, len);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        self.record(|l| l.compile_us.push(us));
        plan
    }

    fn plan_token(&mut self) -> u64 {
        self.inner.plan_token()
    }
}
