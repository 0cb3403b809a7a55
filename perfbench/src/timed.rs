//! A timing [`DeployOracle`] wrapper: the traced run puts one around the
//! deploy engine and one around the `CloudSim` backend inside it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use zodiac_cloud::{DeployOracle, DeployReport, FaultInjector};
use zodiac_model::Program;
use zodiac_obs::MetricsSnapshot;

/// Forwards every call to `inner`, adding up the calls, the programs they
/// carried and the time spent inside them. Time is summed per call, so for
/// a backend called from several workers it is busy time, not wall time.
pub struct Timed<D> {
    inner: D,
    calls: AtomicU64,
    programs: AtomicU64,
    busy_ns: AtomicU64,
}

/// A reading of a [`Timed`] wrapper's totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Calls made.
    pub calls: u64,
    /// Programs carried by those calls.
    pub programs: u64,
    /// Time inside the calls, in milliseconds.
    pub busy_ms: f64,
}

impl std::ops::Sub for Totals {
    type Output = Totals;
    fn sub(self, rhs: Totals) -> Totals {
        Totals {
            calls: self.calls - rhs.calls,
            programs: self.programs - rhs.programs,
            busy_ms: self.busy_ms - rhs.busy_ms,
        }
    }
}

impl<D> Timed<D> {
    /// Wraps `inner` with zeroed totals.
    pub fn new(inner: D) -> Timed<D> {
        Timed {
            inner,
            calls: AtomicU64::new(0),
            programs: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        }
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// The totals so far.
    pub fn totals(&self) -> Totals {
        Totals {
            calls: self.calls.load(Ordering::Relaxed),
            programs: self.programs.load(Ordering::Relaxed),
            busy_ms: self.busy_ns.load(Ordering::Relaxed) as f64 / 1e6,
        }
    }

    fn time<T>(&self, programs: usize, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.programs.fetch_add(programs as u64, Ordering::Relaxed);
        out
    }
}

impl<D: DeployOracle> DeployOracle for Timed<D> {
    fn deploy(&self, program: &Program) -> DeployReport {
        self.time(1, || self.inner.deploy(program))
    }

    fn deploy_with_faults(&self, program: &Program, injector: &dyn FaultInjector) -> DeployReport {
        self.time(1, || self.inner.deploy_with_faults(program, injector))
    }

    fn deploy_batch(&self, programs: &[Program]) -> Vec<DeployReport> {
        self.time(programs.len(), || self.inner.deploy_batch(programs))
    }

    fn deploys_ok(&self, program: &Program) -> bool {
        self.time(1, || self.inner.deploys_ok(program))
    }

    fn deploy_annotated(&self, program: &Program) -> (DeployReport, bool) {
        self.time(1, || self.inner.deploy_annotated(program))
    }

    fn deploy_batch_annotated(&self, programs: &[Program]) -> Vec<(DeployReport, bool)> {
        self.time(programs.len(), || {
            self.inner.deploy_batch_annotated(programs)
        })
    }

    fn telemetry(&self) -> Option<MetricsSnapshot> {
        self.inner.telemetry()
    }
}
