//! Guest-side load generators and the exactly-once ledger.
//!
//! A generator owns one virtual queue pair. It is the only place guest
//! commands are made; the program sees nothing but the submission
//! entries. Every command id is tracked from submission to completion, so
//! a lost or duplicated completion queue entry shows up in the ledger.

use crate::rng::{ParetoGaps, Rng};
use nvmetro_nvme::{CqConsumer, SqProducer, Status, SubmissionEntry};
use nvmetro_sim::{Actor, Ns, Progress};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::rc::Rc;

/// What one generator saw, read by the harness after the run.
#[derive(Default)]
pub struct Ledger {
    pub submitted: u64,
    pub completed: u64,
    pub errors: u64,
    /// Open-loop arrivals turned away at the outstanding cap.
    pub refused: u64,
    /// Completions whose command id was not outstanding (duplicates or
    /// strays).
    pub unexpected: u64,
    /// Guest-observed latency of every completion (ns).
    pub latencies: Vec<u64>,
    /// Open-loop lateness: submit time minus due time (ns).
    pub lateness: Vec<u64>,
    /// Commands captured for the classifier replay (traced runs only).
    pub captured: Option<Vec<SubmissionEntry>>,
    /// Data-integrity violations found by the command pattern.
    pub violations: Vec<String>,
}

pub type SharedLedger = Rc<RefCell<Ledger>>;

/// Cap on commands captured per generator for the classifier replay.
const CAPTURE_CAP: usize = 16_384;

/// What a closed-loop generator sends and how it checks the answers.
pub trait Pattern {
    /// The next command for queue slot `slot`.
    fn next(&mut self, slot: u16) -> SubmissionEntry;
    /// Checks a completed command; returns a violation message if the
    /// data is wrong.
    fn done(&mut self, slot: u16, cmd: &SubmissionEntry, status: Status) -> Option<String>;
}

struct Pending {
    cmd: SubmissionEntry,
    /// Submit time (closed loop) or due time (open loop).
    since: Ns,
}

/// Command-id bookkeeping shared by both generator kinds.
struct Slots {
    pending: Vec<Option<Pending>>,
    free: Vec<u16>,
}

impl Slots {
    fn new(depth: usize) -> Self {
        Slots {
            pending: (0..depth).map(|_| None).collect(),
            free: (0..depth as u16).rev().collect(),
        }
    }

    fn outstanding(&self) -> usize {
        self.pending.len() - self.free.len()
    }

    /// Reaps every available completion; returns how many arrived.
    fn reap(
        &mut self,
        cq: &CqConsumer,
        now: Ns,
        ledger: &SharedLedger,
        mut check: impl FnMut(u16, &SubmissionEntry, Status) -> Option<String>,
    ) -> usize {
        let mut n = 0;
        while let Some(cqe) = cq.pop() {
            n += 1;
            let mut l = ledger.borrow_mut();
            let Some(p) = self
                .pending
                .get_mut(cqe.cid as usize)
                .and_then(|p| p.take())
            else {
                l.unexpected += 1;
                continue;
            };
            self.free.push(cqe.cid);
            l.completed += 1;
            l.latencies.push(now - p.since);
            let status = cqe.status();
            if status.is_error() {
                l.errors += 1;
            }
            if let Some(v) = check(cqe.cid, &p.cmd, status) {
                l.violations.push(v);
            }
        }
        n
    }

    /// Submits `cmd` under a free command id; false if the SQ is full.
    fn submit(
        &mut self,
        sq: &SqProducer,
        mut cmd: SubmissionEntry,
        since: Ns,
        ledger: &SharedLedger,
    ) -> bool {
        let cid = *self.free.last().expect("caller checked a free slot");
        cmd.cid = cid;
        if sq.push(cmd).is_err() {
            return false;
        }
        self.free.pop();
        self.pending[cid as usize] = Some(Pending { cmd, since });
        let mut l = ledger.borrow_mut();
        l.submitted += 1;
        if let Some(c) = l.captured.as_mut() {
            if c.len() < CAPTURE_CAP {
                c.push(cmd);
            }
        }
        true
    }
}

/// Closed-loop generator: `qd` guest threads that each submit, wait for
/// the completion, think for an exponential time with mean `think` ns
/// (0 = resubmit at once), and submit again, until `total` commands have
/// been issued; then the queue drains.
pub struct ClosedLoop<P: Pattern> {
    name: String,
    sq: SqProducer,
    cq: CqConsumer,
    remaining: u64,
    slots: Slots,
    pattern: P,
    /// When each idle guest thread submits next.
    ready: BinaryHeap<Reverse<Ns>>,
    think: f64,
    rng: Rng,
    ledger: SharedLedger,
}

impl<P: Pattern> ClosedLoop<P> {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: String,
        (sq, cq): (SqProducer, CqConsumer),
        qd: usize,
        total: u64,
        think: f64,
        rng: Rng,
        pattern: P,
        ledger: SharedLedger,
    ) -> Self {
        ClosedLoop {
            name,
            sq,
            cq,
            remaining: total,
            slots: Slots::new(qd),
            pattern,
            ready: (0..qd).map(|_| Reverse(0)).collect(),
            think,
            rng,
            ledger,
        }
    }
}

impl<P: Pattern> Actor for ClosedLoop<P> {
    fn name(&self) -> &str {
        &self.name
    }

    fn poll(&mut self, now: Ns) -> Progress {
        let pattern = &mut self.pattern;
        let done = self
            .slots
            .reap(&self.cq, now, &self.ledger, |slot, cmd, st| {
                pattern.done(slot, cmd, st)
            });
        for _ in 0..done {
            let think = match self.think {
                t if t > 0.0 => (-t * (1.0 - self.rng.unit()).ln()) as Ns,
                _ => 0,
            };
            self.ready.push(Reverse(now + think));
        }
        let mut progressed = done > 0;
        while self.remaining > 0 && self.ready.peek().is_some_and(|r| r.0 <= now) {
            let slot = *self
                .slots
                .free
                .last()
                .expect("an idle thread has a free slot");
            let cmd = self.pattern.next(slot);
            if !self.slots.submit(&self.sq, cmd, now, &self.ledger) {
                break;
            }
            self.ready.pop();
            self.remaining -= 1;
            progressed = true;
        }
        if progressed {
            Progress::Busy
        } else {
            Progress::Idle
        }
    }

    fn next_event(&self) -> Option<Ns> {
        if self.remaining == 0 {
            return None;
        }
        self.ready.peek().map(|r| r.0)
    }
}

/// Where an open-loop tenant's reads land.
#[derive(Clone, Copy)]
pub struct ReadMix {
    pub nlb: u32,
    pub hot_slots: u64,
    pub hot_fraction: f64,
    pub private_base: u64,
    pub private_slots: u64,
}

/// Open-loop tenant: arrivals on a bounded-Pareto schedule until
/// `deadline`, each timed from when it was due. An arrival that finds
/// `cap` commands outstanding is refused.
pub struct OpenLoop {
    name: String,
    sq: SqProducer,
    cq: CqConsumer,
    cap: usize,
    slots: Slots,
    gaps: ParetoGaps,
    rng: Rng,
    next_due: f64,
    deadline: Ns,
    mix: ReadMix,
    /// Due times of arrivals waiting for SQ space.
    backlog: VecDeque<Ns>,
    ledger: SharedLedger,
}

impl OpenLoop {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: String,
        (sq, cq): (SqProducer, CqConsumer),
        cap: usize,
        gaps: ParetoGaps,
        mut rng: Rng,
        deadline: Ns,
        mix: ReadMix,
        ledger: SharedLedger,
    ) -> Self {
        let next_due = gaps.sample(&mut rng);
        OpenLoop {
            name,
            sq,
            cq,
            cap,
            slots: Slots::new(cap),
            gaps,
            rng,
            next_due,
            deadline,
            mix,
            backlog: Default::default(),
            ledger,
        }
    }

    fn due(&self) -> Option<Ns> {
        let t = self.next_due.ceil() as Ns;
        (t < self.deadline).then_some(t)
    }

    fn read(&mut self) -> SubmissionEntry {
        let m = self.mix;
        let slot = if self.rng.chance(m.hot_fraction) {
            self.rng.below(m.hot_slots)
        } else {
            m.private_base + self.rng.below(m.private_slots)
        };
        SubmissionEntry::read(1, slot * m.nlb as u64, m.nlb, 0x1000, 0)
    }
}

impl Actor for OpenLoop {
    fn name(&self) -> &str {
        &self.name
    }

    fn poll(&mut self, now: Ns) -> Progress {
        let mut progressed = self.slots.reap(&self.cq, now, &self.ledger, |_, _, _| None) > 0;
        while let Some(due) = self.due().filter(|&t| t <= now) {
            self.next_due += self.gaps.sample(&mut self.rng);
            if self.slots.outstanding() + self.backlog.len() >= self.cap {
                self.ledger.borrow_mut().refused += 1;
            } else {
                self.backlog.push_back(due);
            }
            progressed = true;
        }
        while let Some(&due) = self.backlog.front() {
            let cmd = self.read();
            if !self.slots.submit(&self.sq, cmd, due, &self.ledger) {
                break;
            }
            self.backlog.pop_front();
            self.ledger.borrow_mut().lateness.push(now - due);
            progressed = true;
        }
        if progressed {
            Progress::Busy
        } else {
            Progress::Idle
        }
    }

    fn next_event(&self) -> Option<Ns> {
        self.due()
    }
}
