//! A delegating analysis adaptor that times each call into the wrapped
//! layer, from outside the program.

use std::sync::{Arc, Mutex};

use minimpi::Comm;
use sensei::{AnalysisAdaptor, DataAdaptor, FailureReport, Steering};

use crate::trace::{lock, SharedTracer};

/// Called after each timed `execute` with the wrapped analysis, the
/// step the data describes, and the call's end time.
pub type Hook<A> = Box<dyn FnMut(&A, u64, f64) + Send>;

/// Wraps an analysis: every `execute` becomes a span named `span`
/// under whatever span the step loop has open (the bridge's), and an
/// optional hook sees the result as soon as the call returns. The
/// analysis sits behind a shared handle so the benchmark can read its
/// public state after the run.
pub struct Timed<A> {
    inner: Arc<Mutex<A>>,
    label: String,
    span: &'static str,
    tracer: SharedTracer,
    hook: Option<Hook<A>>,
    step_from_data: bool,
    finalize_inner: bool,
}

impl<A: AnalysisAdaptor> Timed<A> {
    /// Wrap `inner`, recording spans named `span` on `tracer`.
    pub fn new(inner: A, span: &'static str, tracer: &SharedTracer) -> Self {
        Timed {
            label: inner.name().to_string(),
            inner: Arc::new(Mutex::new(inner)),
            span,
            tracer: Arc::clone(tracer),
            hook: None,
            step_from_data: false,
            finalize_inner: true,
        }
    }

    /// Run `hook` after every `execute`.
    pub fn with_hook(mut self, hook: impl FnMut(&A, u64, f64) + Send + 'static) -> Self {
        self.hook = Some(Box::new(hook));
        self
    }

    /// Stamp spans with the data's own step (an in transit endpoint,
    /// whose steps are the writer's) instead of the step loop's.
    pub fn step_from_data(mut self) -> Self {
        self.step_from_data = true;
        self
    }

    /// Leave the wrapped analysis's `finalize` to the caller (the
    /// in transit writer closes its stream over the world
    /// communicator, not the bridge's).
    pub fn skip_finalize(mut self) -> Self {
        self.finalize_inner = false;
        self
    }

    /// Shared handle to the wrapped analysis.
    pub fn handle(&self) -> Arc<Mutex<A>> {
        Arc::clone(&self.inner)
    }
}

/// The writer's step `s` (1-based, after `s` solver steps) is bridge
/// boundary `s - 1`.
pub fn boundary_of(data_step: u64) -> u64 {
    data_step.saturating_sub(1)
}

impl<A: AnalysisAdaptor> AnalysisAdaptor for Timed<A> {
    fn name(&self) -> &str {
        &self.label
    }

    fn execute(&mut self, data: &dyn DataAdaptor, comm: &Comm) -> Steering {
        let mut inner = lock(&self.inner);
        let open = {
            let mut t = lock(&self.tracer);
            if self.step_from_data {
                t.set_step(boundary_of(data.step()));
            }
            t.open(self.span)
        };
        let verdict = inner.execute(data, comm);
        let end = lock(&self.tracer).close(open);
        if let Some(hook) = &mut self.hook {
            hook(&inner, data.step(), end);
        }
        verdict
    }

    fn finalize(&mut self, comm: &Comm) {
        if self.finalize_inner {
            lock(&self.inner).finalize(comm);
        }
    }

    fn take_failures(&mut self) -> Vec<String> {
        lock(&self.inner).take_failures()
    }

    fn take_failure_reports(&mut self) -> Vec<FailureReport> {
        lock(&self.inner).take_failure_reports()
    }
}
