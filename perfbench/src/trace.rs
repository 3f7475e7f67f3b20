//! Outside-in layer profile: timing wrappers around the program's public
//! entry points (the `Actor` and `Uif` traits).
//!
//! A host clock read costs about as much as a router poll, so every call
//! is counted but only a random 1-in-N sample is timed. Reading the clock
//! also waits for the work before it to retire, so its cost depends on
//! where it is read. Each sampled call therefore times either its body or,
//! with equal odds, an empty interval at the same spot; the layer's time
//! is the call count times the difference of the two means. The gap
//! between two consecutive wrapped calls, which is the executor's own work
//! (settle loop, `next_event` scan, leap) plus the wrappers' bookkeeping,
//! is sampled the same way. The layer totals, the gap total and the clock
//! reads must then add up to the traced wall time within the stated
//! sampling error: that is the profile's self-check.

use nvmetro_core::uif::{Uif, UifDisposition, UifIoHandle, UifRequest};
use nvmetro_nvme::{Status, SubmissionEntry};
use nvmetro_sim::cost::CostModel;
use nvmetro_sim::{Actor, CpuMode, Ns, Progress};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Default sampling period: time 1 call in this many.
pub const PERIOD: u32 = 16;

/// Running sum of timed intervals (ns).
#[derive(Default)]
pub struct Samples {
    n: Cell<u64>,
    sum: Cell<f64>,
    sumsq: Cell<f64>,
}

impl Samples {
    fn add(&self, x: f64) {
        self.n.set(self.n.get() + 1);
        self.sum.set(self.sum.get() + x);
        self.sumsq.set(self.sumsq.get() + x * x);
    }

    fn mean(&self) -> f64 {
        match self.n.get() {
            0 => 0.0,
            n => self.sum.get() / n as f64,
        }
    }

    /// Variance of the sample mean.
    fn var_of_mean(&self) -> f64 {
        let n = self.n.get() as f64;
        if n < 2.0 {
            return 0.0;
        }
        let m = self.sum.get() / n;
        (self.sumsq.get() / n - m * m).max(0.0) / n
    }
}

/// One entry point of one layer (e.g. the router's `poll`).
#[derive(Default)]
pub struct Entry {
    pub calls: Cell<u64>,
    pub busy: Cell<u64>,
    /// Timed bodies (ns between the two reads).
    samples: Samples,
    /// Timed empty intervals at the same spot.
    nulls: Samples,
}

impl Entry {
    /// Estimated total time in this entry point (ns) and its variance.
    /// An entry timed on every call has no empty intervals of its own and
    /// takes `read_cost` off each call instead.
    pub fn total(&self, read_cost: f64) -> (f64, f64) {
        let c = self.calls.get() as f64;
        let null = match self.nulls.n.get() {
            0 => read_cost,
            _ => self.nulls.mean(),
        };
        let mean = self.samples.mean() - null;
        // An entry timed on every call is a census: no sampling error.
        let census = self.samples.n.get() >= self.calls.get();
        let var = if census {
            0.0
        } else {
            self.samples.var_of_mean()
        } + self.nulls.var_of_mean();
        (mean * c, var * c * c)
    }
}

/// Counters and timings of one layer.
pub struct Layer {
    pub name: &'static str,
    period: u32,
    pub poll: Entry,
    pub next_event: Entry,
}

impl Layer {
    /// Estimated total time across both entry points and its variance.
    pub fn total(&self, read_cost: f64) -> (f64, f64) {
        let (a, va) = self.poll.total(read_cost);
        let (b, vb) = self.next_event.total(read_cost);
        (a + b, va + vb)
    }
}

/// Shared state of one traced run (single-threaded, like the executor).
pub struct Tracer {
    origin: Instant,
    rng: Cell<u64>,
    gap_armed: Cell<bool>,
    last_end: Cell<f64>,
    /// Gap samples: end of one wrapped call to the start of the next.
    gaps: Samples,
    /// Empty intervals timed at the end of a call, where gaps start.
    gap_nulls: Samples,
    pub clock_reads: Cell<u64>,
    pub calls: Cell<u64>,
    pub polls: Cell<u64>,
    pub idle_polls: Cell<u64>,
    last_now: Cell<Ns>,
    pub leaps: Cell<u64>,
    layers: RefCell<Vec<Rc<Layer>>>,
}

impl Tracer {
    pub fn new(seed: u64) -> Rc<Self> {
        let origin = Instant::now();
        Rc::new(Tracer {
            origin,
            rng: Cell::new(seed | 1),
            gap_armed: Cell::new(false),
            last_end: Cell::new(0.0),
            gaps: Samples::default(),
            gap_nulls: Samples::default(),
            clock_reads: Cell::new(0),
            calls: Cell::new(0),
            polls: Cell::new(0),
            idle_polls: Cell::new(0),
            last_now: Cell::new(0),
            leaps: Cell::new(0),
            layers: RefCell::new(Vec::new()),
        })
    }

    /// The layer named `name`, created with sampling period `period` on
    /// first use.
    fn layer(&self, name: &'static str, period: u32) -> Rc<Layer> {
        let mut layers = self.layers.borrow_mut();
        if let Some(l) = layers.iter().find(|l| l.name == name) {
            return l.clone();
        }
        let l = Rc::new(Layer {
            name,
            period,
            poll: Entry::default(),
            next_event: Entry::default(),
        });
        layers.push(l.clone());
        l
    }

    pub fn layers(&self) -> Vec<Rc<Layer>> {
        self.layers.borrow().clone()
    }

    /// Wraps `actor` so its calls are counted under `layer` and 1 in
    /// `period` of them timed.
    pub fn wrap(
        self: &Rc<Self>,
        layer: &'static str,
        period: u32,
        actor: Box<dyn Actor>,
    ) -> Box<dyn Actor> {
        Box::new(TimedActor {
            inner: actor,
            layer: self.layer(layer, period),
            tracer: self.clone(),
        })
    }

    fn read(&self) -> f64 {
        self.clock_reads.set(self.clock_reads.get() + 1);
        self.origin.elapsed().as_nanos() as f64
    }

    /// xorshift64: true with probability 1/period.
    fn roll(&self, period: u32) -> bool {
        if period <= 1 {
            return true;
        }
        let mut x = self.rng.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng.set(x);
        x.is_multiple_of(period as u64)
    }

    /// Call start: takes a gap sample if the previous call armed one, and
    /// decides whether this call is timed. Returns the body's start time.
    fn begin(&self, period: u32, entry: &Entry) -> Option<f64> {
        self.calls.set(self.calls.get() + 1);
        let armed = self.gap_armed.replace(false);
        let sampled = self.roll(period);
        if !(armed || sampled) {
            return None;
        }
        let t0 = self.read();
        if armed {
            self.gaps.add(t0 - self.last_end.get());
        }
        if sampled && period > 1 && self.roll(2) {
            // Empty interval instead of the body.
            entry.nulls.add(self.read() - t0);
            return None;
        }
        sampled.then_some(t0)
    }

    /// Call end: records the body sample and maybe arms a gap sample.
    fn end(&self, start: Option<f64>, entry: &Entry) {
        let arm = self.roll(PERIOD);
        if start.is_none() && !arm {
            return;
        }
        let t1 = self.read();
        if let Some(t0) = start {
            entry.samples.add(t1 - t0);
        }
        if arm {
            if self.roll(2) {
                self.gap_nulls.add(self.read() - t1);
            } else {
                self.last_end.set(t1);
                self.gap_armed.set(true);
            }
        }
    }

    /// Estimated time between wrapped calls (ns) and its variance.
    pub fn gap_total(&self) -> (f64, f64) {
        let c = self.calls.get() as f64;
        let mean = self.gaps.mean() - self.gap_nulls.mean();
        let var = self.gaps.var_of_mean() + self.gap_nulls.var_of_mean();
        (mean * c, var * c * c)
    }

    /// Mean cost of one clock read where the wrappers read it, from all
    /// empty intervals.
    pub fn read_cost(&self) -> f64 {
        let mut n = self.gap_nulls.n.get();
        let mut sum = self.gap_nulls.sum.get();
        for l in self.layers.borrow().iter() {
            for e in [&l.poll, &l.next_event] {
                n += e.nulls.n.get();
                sum += e.nulls.sum.get();
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

/// Transparent timing wrapper around an actor.
struct TimedActor {
    inner: Box<dyn Actor>,
    layer: Rc<Layer>,
    tracer: Rc<Tracer>,
}

impl Actor for TimedActor {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn poll(&mut self, now: Ns) -> Progress {
        let tr = &self.tracer;
        if now > tr.last_now.get() {
            tr.last_now.set(now);
            tr.leaps.set(tr.leaps.get() + 1);
        }
        let start = tr.begin(self.layer.period, &self.layer.poll);
        let p = self.inner.poll(now);
        tr.end(start, &self.layer.poll);
        let e = &self.layer.poll;
        e.calls.set(e.calls.get() + 1);
        tr.polls.set(tr.polls.get() + 1);
        if p == Progress::Busy {
            e.busy.set(e.busy.get() + 1);
        } else {
            tr.idle_polls.set(tr.idle_polls.get() + 1);
        }
        p
    }

    fn next_event(&self) -> Option<Ns> {
        let tr = &self.tracer;
        let start = tr.begin(self.layer.period, &self.layer.next_event);
        let t = self.inner.next_event();
        tr.end(start, &self.layer.next_event);
        let e = &self.layer.next_event;
        e.calls.set(e.calls.get() + 1);
        t
    }

    fn charged(&self) -> Ns {
        self.inner.charged()
    }

    fn cpu_mode(&self) -> CpuMode {
        self.inner.cpu_mode()
    }
}

/// Host time spent inside a function's `Uif::work` (every call timed:
/// one call costs microseconds of crypto, so the clock is cheap here).
#[derive(Default)]
pub struct WorkTimes {
    pub calls: AtomicU64,
    pub ns: AtomicU64,
}

fn bump(a: &AtomicU64, v: u64) {
    // Single-threaded executor: a plain load/store avoids a locked add.
    a.store(a.load(Ordering::Relaxed) + v, Ordering::Relaxed);
}

/// Transparent timing wrapper around a UIF.
pub struct TimedUif {
    inner: Box<dyn Uif>,
    times: Arc<WorkTimes>,
}

impl TimedUif {
    pub fn new(inner: Box<dyn Uif>) -> (Self, Arc<WorkTimes>) {
        let times = Arc::new(WorkTimes::default());
        (
            TimedUif {
                inner,
                times: times.clone(),
            },
            times,
        )
    }
}

impl Uif for TimedUif {
    fn work(&mut self, req: &mut UifRequest<'_>) -> UifDisposition {
        let t0 = Instant::now();
        let d = self.inner.work(req);
        let ns = t0.elapsed().as_nanos() as u64;
        bump(&self.times.calls, 1);
        bump(&self.times.ns, ns);
        d
    }

    fn backend_done(&mut self, ticket: u64, status: Status) -> Option<(u16, Status)> {
        self.inner.backend_done(ticket, status)
    }

    fn work_cost(&self, cmd: &SubmissionEntry, cost: &CostModel) -> Ns {
        self.inner.work_cost(cmd, cost)
    }

    fn tick(&mut self, io: &mut UifIoHandle<'_>, now: Ns) -> bool {
        self.inner.tick(io, now)
    }

    fn next_event(&self) -> Option<Ns> {
        self.inner.next_event()
    }
}
