//! The NVMetro I/O router.
//!
//! The router shadows each VM's virtual queues (VSQ/VCQ), invokes the VM's
//! classifier at every decision point, and forwards commands over the fast
//! path (device HSQ/HCQ), the kernel path, or the notify path (UIF
//! NSQ/NCQ). It implements the paper's §III-C mechanics:
//!
//! * **iterative routing** — hooks re-invoke the classifier when a chosen
//!   path completes, forming a per-request state machine;
//! * **multicast** — a verdict may name several paths; the request then
//!   completes only when all of them have finished (used by mirroring);
//! * **direct mediation** — classifier writes to the context's writable
//!   window are copied back into the forwarded command (LBA translation);
//! * **isolation** — the router re-checks the VM's partition bounds on
//!   every fast-path send, whatever the classifier did;
//! * **shared worker** — one router serves many VMs round-robin and tracks
//!   per-VM activity (its CPU mode is adaptive polling).
//!
//! Only the 64-byte command block moves between queues; data pages stay in
//! guest memory.

use crate::adaptive::{BatchTuner, GovernorCounters, PollGovernor, PollMode};
use crate::classify::{
    path_bits, verdict_bits, Classifier, MediatedFields, NativeClassifier, RequestCtx, Verdict,
    HOOK_HCQ, HOOK_KCQ, HOOK_NCQ, HOOK_VSQ,
};
use crate::controller::Partition;
use crate::policy::{BatchPolicy, EnginePolicy, PollPolicy};
use crate::recovery::{BreakerSnap, CircuitBreaker, Gate, RecoveryConfig};
use crate::routing::{RequestState, RoutingTable};
use nvmetro_fleet::{
    Admit, CoalesceConfig, CoalesceStats, CoalesceWindow, FleetConfig, Join, TenantScheduler,
    TenantView,
};
use nvmetro_mem::GuestMemory;
use nvmetro_nvme::{
    CompletionEntry, CqConsumer, CqPair, CqProducer, SqConsumer, SqPair, SqProducer, Status,
    SubmissionEntry,
};
use nvmetro_sim::cost::CostModel;
use nvmetro_sim::{Actor, CpuMode, Ns, Progress, Station, MS, US};
use nvmetro_telemetry::{Depth, Metric, PathKind, Route, Segment, Stage, TelemetryHandle, Tier};
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::sync::Arc;

/// The kernel path a VM's requests may be routed through (implemented by
/// `nvmetro-kernel` as a block-layer + device-mapper stack).
pub trait KernelPath: Send {
    /// Submits a translated request tagged `tag` at virtual time `now`.
    fn submit(&mut self, tag: u16, cmd: SubmissionEntry, now: Ns);
    /// Drains finished requests into `out` as `(tag, status)` pairs.
    fn poll(&mut self, now: Ns, out: &mut Vec<(u16, Status)>);
    /// Earliest future completion, if any work is in flight.
    fn next_event(&self) -> Option<Ns>;
    /// Host CPU consumed by this path so far.
    fn charged(&self) -> Ns;
}

/// The notify path's router-side queue ends.
pub struct NotifyBinding {
    /// Notify submission queue toward the UIF.
    pub nsq: SqProducer,
    /// Notify completion queue back from the UIF.
    pub ncq: CqConsumer,
}

/// Everything the router needs to serve one VM.
pub struct VmBinding {
    /// VM identifier (classifier context field).
    pub vm_id: u32,
    /// The VM's guest memory (not touched by the router itself; recorded
    /// for diagnostics and symmetry with real IOMMU bindings).
    pub mem: Arc<GuestMemory>,
    /// Partition bounds enforced on every fast-path send.
    pub partition: Partition,
    /// Router-side ends of the VM's virtual queues.
    pub vsqs: Vec<SqConsumer>,
    /// Router-side ends of the VM's virtual completion queues.
    pub vcqs: Vec<CqProducer>,
    /// Fast path: producer end of this VM's host submission queue.
    pub hsq: SqProducer,
    /// Fast path: consumer end of this VM's host completion queue.
    pub hcq: CqConsumer,
    /// Optional kernel path.
    pub kernel: Option<Box<dyn KernelPath>>,
    /// Optional notify path (UIF).
    pub notify: Option<NotifyBinding>,
    /// The VM's installed I/O classifier.
    pub classifier: Classifier,
}

/// Router counters exposed for tests and reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct RouterStats {
    /// Commands accepted from VSQs.
    pub accepted: u64,
    /// Classifier invocations (all hooks).
    pub classifier_runs: u64,
    /// Commands forwarded to the fast path.
    pub sent_hq: u64,
    /// Commands forwarded to the kernel path.
    pub sent_kq: u64,
    /// Commands forwarded to the notify path.
    pub sent_nq: u64,
    /// Requests sent to more than one target at once.
    pub multicasts: u64,
    /// Completions delivered to VCQs.
    pub completed: u64,
    /// Requests finished with an error status.
    pub errors: u64,
    /// Completions that no longer matched a tracked request.
    pub spurious: u64,
    /// Re-dispatches after a retryable failure (recovery engine).
    pub retries: u64,
    /// Deadline-expired attempts aborted NVMe-style.
    pub aborts: u64,
    /// Fast-path sends the circuit breaker diverted to the kernel path.
    pub failovers: u64,
    /// Completions dropped from the bounded VCQ retry buffer.
    pub vcq_retry_drops: u64,
    /// Completions that arrived after their attempt was aborted.
    pub late_completions: u64,
    /// Guest doorbell notifies issued for coalesced VCQ flushes: one per
    /// (vm, vsq) group per flush, however many CQEs the flush carried.
    pub cq_notifies: u64,
    /// Coalesced VCQ flushes (at most one per poll).
    pub cq_batches: u64,
    /// Cross-VM duplicate reads parked as coalescing followers instead of
    /// being dispatched (fleet coalescing window).
    pub coalesced_reads: u64,
    /// Follower completions fanned out from coalescing leaders' terminal
    /// completions.
    pub coalesce_fanout: u64,
    /// Admissions denied by a tenant's token bucket (fleet scheduler).
    pub sched_throttled: u64,
    /// Tenant drain visits cut short by DRR deficit exhaustion (fleet
    /// scheduler).
    pub sched_preemptions: u64,
    /// Requests re-admitted by a servicing restore/reshard and dispatched
    /// as a fresh attempt (new tag, new generation).
    pub replayed: u64,
    /// Completions dropped because their slot carried an older engine
    /// generation than the router's — pre-snapshot legs answering a
    /// post-restore engine (never delivered to the guest).
    pub epoch_late_drops: u64,
}

impl RouterStats {
    /// The counter that mirrors telemetry metric `m`, if the router keeps
    /// one (see [`Router::tally`]). Every field has exactly one metric, so
    /// this match is also the field list `merge` walks.
    #[inline]
    fn counter_mut(&mut self, m: Metric) -> Option<&mut u64> {
        Some(match m {
            Metric::Accepted => &mut self.accepted,
            Metric::ClassifierRuns => &mut self.classifier_runs,
            Metric::SentFast => &mut self.sent_hq,
            Metric::SentKernel => &mut self.sent_kq,
            Metric::SentNotify => &mut self.sent_nq,
            Metric::Multicasts => &mut self.multicasts,
            Metric::Completed => &mut self.completed,
            Metric::Errors => &mut self.errors,
            Metric::Spurious => &mut self.spurious,
            Metric::Retries => &mut self.retries,
            Metric::Aborts => &mut self.aborts,
            Metric::Failovers => &mut self.failovers,
            Metric::VcqRetryDrops => &mut self.vcq_retry_drops,
            Metric::LateCompletions => &mut self.late_completions,
            Metric::CqNotifies => &mut self.cq_notifies,
            Metric::CqBatches => &mut self.cq_batches,
            Metric::CoalescedReads => &mut self.coalesced_reads,
            Metric::CoalesceFanout => &mut self.coalesce_fanout,
            Metric::ThrottleApplied => &mut self.sched_throttled,
            Metric::SchedulerPreemptions => &mut self.sched_preemptions,
            Metric::ReplayedRequests => &mut self.replayed,
            Metric::EpochLateDrops => &mut self.epoch_late_drops,
            _ => return None,
        })
    }

    /// Adds another shard's counters into this one (used by the engine's
    /// aggregated view).
    pub fn merge(&mut self, other: &RouterStats) {
        let mut other = *other;
        for m in Metric::ALL {
            if let (Some(sum), Some(add)) = (self.counter_mut(m), other.counter_mut(m)) {
                *sum += *add;
            }
        }
    }
}

enum Work {
    Ingress {
        vm: usize,
        vsq: u16,
        cmd: SubmissionEntry,
    },
    PathDone {
        vm: usize,
        path: u8,
        tag: u16,
        status: Status,
    },
}

/// Recovery timer kinds, ordered within the shared timer heap.
const TIMER_DEADLINE: u8 = 0;
const TIMER_REAP: u8 = 1;

/// A recovery timer: fires at `.0` for request `(tag, seq)` of VM `.3`.
type Timer = (Ns, u16, u64, u16, u8);
/// A pending re-dispatch: at `.0`, replay request `(tag, seq)` of VM `.3`.
type RetryEntry = (Ns, u16, u64, u16);

/// Pops the earliest entry of a min-heap if `due` accepts it.
fn pop_due<T: Ord>(heap: &mut BinaryHeap<Reverse<T>>, due: impl Fn(&T) -> bool) -> Option<T> {
    let top = heap.peek_mut()?;
    due(&top.0).then(|| PeekMut::pop(top).0)
}

/// Default per-queue batch: entries drained per SQ visit and the unit of
/// CQ doorbell coalescing (the paper's "process multiple requests per
/// poll" discipline).
pub const DEFAULT_BATCH: usize = 32;

/// One bound VM slot: the binding plus the router's per-slot state.
struct VmSlot {
    binding: VmBinding,
    /// Fast-path circuit breaker (consulted only with recovery on).
    breaker: CircuitBreaker,
    /// False once detached: the binding is then an inert tombstone that
    /// ingest and views skip.
    active: bool,
    /// Per-slot admission gate (hot detach pauses one tenant's VSQs
    /// without disturbing anyone else's).
    admitting: bool,
    /// Station work items queued for this slot: lets `vm_quiesced` answer
    /// per tenant without requiring the whole station to be empty.
    work: usize,
    /// Time of the last VSQ drain that produced work.
    last_arrival: Ns,
    /// EWMA of the gaps between such drains; the hottest slot's gap feeds
    /// the governor's park decision.
    arrival_gap: Ns,
    /// Tenant-scheduler slot (fleet mode only).
    fleet_slot: usize,
}

/// The I/O router actor. One router instance is one worker thread in the
/// paper's deployment; several VMs share it round-robin.
pub struct Router {
    name: String,
    cost: CostModel,
    vms: Vec<VmSlot>,
    table: RoutingTable,
    station: Station<Work>,
    kernel_out: Vec<(u16, Status)>,
    batch: usize,
    cq_batch: Vec<(usize, u16, CompletionEntry)>,
    vcq_retry: Vec<(usize, u16, CompletionEntry)>,
    vcq_retry_cap: usize,
    last_poll: Ns,
    stats: RouterStats,
    scratch: RequestCtx,
    telemetry: TelemetryHandle,
    recovery: Option<RecoveryConfig>,
    timers: BinaryHeap<Reverse<Timer>>,
    retryq: BinaryHeap<Reverse<RetryEntry>>,
    next_seq: u64,
    /// Fleet-mode per-tenant admission scheduler (None = FIFO drain).
    fleet: Option<TenantScheduler>,
    /// Rotating start index for the scheduled VSQ drain, so tenant visit
    /// order itself is fair across rounds.
    drain_cursor: usize,
    /// Earliest time deferred (throttled/preempted) backlog should be
    /// re-examined; merged into `next_event`.
    sched_recheck: Option<Ns>,
    /// Cross-VM read coalescing window (None = no coalescing).
    coalesce: Option<CoalesceWindow>,
    /// Engine generation this shard admits under. Bumped by every
    /// restore/reshard; a completion landing on a slot with an older
    /// generation is an epoch-late straggler and is quarantined.
    generation: u32,
    /// Shard-wide admission gate (live servicing quiesce): while false, no
    /// VSQ is drained but completions, timers, and retries keep running so
    /// in-flight work converges.
    admitting: bool,
    /// Poll governor (None = unconditional busy-poll, the legacy mode).
    governor: Option<PollGovernor>,
    /// Batch auto-tuner (None = the batch bound is fixed).
    tuner: Option<BatchTuner>,
    /// Wakeup latency owed to the first station push after a park exit.
    pending_wake_debt: Ns,
    /// Extra cost per reaped device completion when this shard is pinned
    /// off the device's NUMA node (PlacementPolicy::Affine).
    completion_penalty: Ns,
    /// Stage-coverage audit (debug builds only): sequence numbers that
    /// already emitted their terminal `VcqComplete`, to debug-assert that
    /// no request terminates twice.
    #[cfg(debug_assertions)]
    finished_seqs: std::collections::HashSet<u64>,
}

impl Router {
    /// Creates an empty router. `workers` models the number of worker
    /// threads sharing the routing work (the paper's scalability evaluation
    /// uses one); `table_capacity` bounds concurrent in-flight requests.
    pub fn new(name: &str, cost: CostModel, workers: usize, table_capacity: usize) -> Self {
        Router {
            name: name.to_string(),
            cost,
            vms: Vec::new(),
            table: RoutingTable::new(table_capacity),
            station: Station::new(workers.max(1)),
            kernel_out: Vec::new(),
            batch: DEFAULT_BATCH,
            cq_batch: Vec::new(),
            vcq_retry: Vec::new(),
            vcq_retry_cap: 2 * table_capacity,
            last_poll: 0,
            stats: RouterStats::default(),
            scratch: RequestCtx::empty(),
            telemetry: TelemetryHandle::disabled(),
            recovery: None,
            timers: BinaryHeap::new(),
            retryq: BinaryHeap::new(),
            next_seq: 0,
            fleet: None,
            drain_cursor: 0,
            sched_recheck: None,
            coalesce: None,
            generation: 1,
            admitting: true,
            governor: None,
            tuner: None,
            pending_wake_debt: 0,
            completion_penalty: 0,
            #[cfg(debug_assertions)]
            finished_seqs: std::collections::HashSet::new(),
        }
    }

    /// Trace-event generation for a request sequence number: nonzero (0
    /// is reserved for "unknown"), wrapping, distinct for any 255
    /// consecutive reuses of a routing-table slot.
    #[inline]
    fn gen_of(seq: u64) -> u8 {
        (seq % 255) as u8 + 1
    }

    /// Turns the recovery engine on: per-command deadlines with NVMe-style
    /// abort, bounded retry with exponential backoff for retryable
    /// statuses, and a per-VM circuit breaker that fails fast-path sends
    /// over to the kernel path (configured via `RouterBuilder::recovery`).
    /// Without it the router surfaces every fault to the guest verbatim.
    pub(crate) fn configure_recovery(&mut self, cfg: RecoveryConfig) {
        for slot in &mut self.vms {
            slot.breaker = CircuitBreaker::new(cfg.breaker_threshold, cfg.breaker_cooldown);
        }
        self.recovery = Some(cfg);
    }

    /// The VM's fast-path circuit breaker, when recovery is on.
    pub fn breaker(&self, vm: usize) -> Option<&CircuitBreaker> {
        self.vms.get(vm).map(|s| &s.breaker)
    }

    /// `(vm_id, breaker)` for every live bound VM, in bind order (used by
    /// the engine's aggregated stats). Detached tombstone slots are
    /// skipped.
    pub(crate) fn breaker_view(&self) -> impl Iterator<Item = (u32, &CircuitBreaker)> {
        self.vms
            .iter()
            .filter(|s| s.active)
            .map(|s| (s.binding.vm_id, &s.breaker))
    }

    /// Feeds one failure to a VM's breaker, counting the Closed→Open
    /// transition (the watchdog's flap detector consumes that counter).
    fn breaker_failure(&mut self, vm: usize, t: Ns) {
        let breaker = &mut self.vms[vm].breaker;
        let was_open = breaker.is_open();
        breaker.on_failure(t);
        if !was_open && breaker.is_open() {
            self.telemetry.count(Metric::BreakerOpens);
        }
    }

    /// Bumps a [`RouterStats`] counter and its telemetry metric together,
    /// so the two views can never disagree.
    #[inline]
    fn tally(&mut self, m: Metric, n: u64) {
        if let Some(c) = self.stats.counter_mut(m) {
            *c += n;
        }
        self.telemetry.add(m, n);
    }

    /// Records a lifecycle event for the request at `tag`, naming it by the
    /// (vm, vsq, generation) its table entry carries.
    #[inline]
    fn trace(&self, t: Ns, tag: u16, stage: Stage, path: PathKind) {
        if let Some(s) = self.table.get(tag) {
            let gen = Self::gen_of(s.seq);
            self.telemetry
                .request_event(t, s.vm, s.vsq, tag, gen, stage, path);
        }
    }

    /// Whether the recovery engine is configured.
    pub fn recovery_enabled(&self) -> bool {
        self.recovery.is_some()
    }

    /// Attaches a telemetry handle (from `Telemetry::register_worker`, via
    /// `RouterBuilder::telemetry`). The default is a disabled handle, which
    /// costs one branch per instrumentation point.
    pub(crate) fn configure_telemetry(&mut self, handle: TelemetryHandle) {
        self.telemetry = handle;
    }

    /// Applies the engine's typed policy to this shard: poll governor on
    /// or off, batch fixed or auto-tuned, and the placement's per-device-
    /// completion penalty for a shard pinned off the device's NUMA node
    /// (configured via `RouterBuilder::policy`).
    pub(crate) fn configure_policy(&mut self, policy: &EnginePolicy, completion_penalty: Ns) {
        self.batch = policy.batch.initial();
        self.tuner = match policy.batch {
            BatchPolicy::Auto { min, max } => Some(BatchTuner::new(min, max)),
            BatchPolicy::Fixed(_) => None,
        };
        self.governor = match policy.poll {
            PollPolicy::Spin => None,
            PollPolicy::Adaptive {
                idle_spin,
                park_after,
            } => Some(PollGovernor::new(
                idle_spin,
                park_after,
                self.cost.adaptive_wakeup,
            )),
        };
        self.completion_penalty = completion_penalty;
    }

    /// The shard's current poll mode (Spin without a governor).
    pub fn poll_mode(&self) -> PollMode {
        self.governor.as_ref().map_or(PollMode::Spin, |g| g.mode())
    }

    /// Virtual CPU the governor has burned spinning/yielding while idle
    /// (0 without a governor: the executor accounts idle burn instead).
    pub fn governor_burn(&self) -> Ns {
        self.governor.as_ref().map_or(0, |g| g.burn())
    }

    /// Batch-size moves the auto-tuner has made (0 with a fixed batch).
    pub fn batch_retunes(&self) -> u64 {
        self.tuner.as_ref().map_or(0, |t| t.retunes())
    }

    /// Whether any guest-visible work is already waiting in this shard's
    /// queues: device/notify completions to reap, or (gates permitting)
    /// undrained VSQ entries. This is the doorbell a parked shard must
    /// not sleep through.
    fn doorbell_pending(&self) -> bool {
        self.vms.iter().filter(|s| s.active).any(|s| {
            let vm = &s.binding;
            !vm.hcq.is_empty()
                || vm.notify.as_ref().is_some_and(|n| !n.ncq.is_empty())
                || (self.admitting && s.admitting && vm.vsqs.iter().any(|q| !q.is_empty()))
        })
    }

    /// Consumes the wakeup latency owed by the last park exit (applied to
    /// the first station push of the waking poll).
    fn take_wake_debt(&mut self) -> Ns {
        std::mem::take(&mut self.pending_wake_debt)
    }

    /// Folds a produced-work observation into the slot's arrival EWMA.
    fn note_arrival(&mut self, vm: usize, now: Ns) {
        let slot = &mut self.vms[vm];
        let g = now.saturating_sub(slot.last_arrival);
        if slot.last_arrival != 0 && g > 0 {
            slot.arrival_gap = match slot.arrival_gap {
                0 => g,
                gap => (gap * 7 + g) / 8,
            };
        }
        slot.last_arrival = now;
    }

    /// The hottest live queue's arrival-gap EWMA (None before any queue
    /// has two observations).
    fn min_arrival_gap(&self) -> Option<Ns> {
        self.vms
            .iter()
            .filter(|s| s.active && s.arrival_gap > 0)
            .map(|s| s.arrival_gap)
            .min()
    }

    /// Turns the fleet scheduler on: the VSQ drain switches from
    /// unconditional FIFO visit order to weighted deficit-round-robin over
    /// tenants with token-bucket admission (configured via
    /// `RouterBuilder::fleet`). Completion drains are never scheduled —
    /// throttling a tenant's completions would only hold table slots
    /// hostage.
    pub(crate) fn configure_fleet(&mut self, cfg: &FleetConfig) {
        let mut sched = TenantScheduler::new(cfg);
        for slot in &mut self.vms {
            slot.fleet_slot = sched.slot(slot.binding.vm_id);
        }
        self.fleet = Some(sched);
    }

    /// Turns cross-VM read coalescing on (configured via
    /// `RouterBuilder::coalesce`).
    pub(crate) fn configure_coalesce(&mut self, cfg: CoalesceConfig) {
        self.coalesce = Some(CoalesceWindow::new(cfg));
    }

    /// Per-tenant scheduler state on this shard (empty without fleet
    /// mode), sorted by tenant id.
    pub fn fleet_view(&self) -> Vec<TenantView> {
        self.fleet.as_ref().map(|f| f.view()).unwrap_or_default()
    }

    /// Coalescing-window counters, when coalescing is on.
    pub fn coalesce_stats(&self) -> Option<CoalesceStats> {
        self.coalesce.as_ref().map(|w| w.stats())
    }

    /// The configured per-queue batch bound.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Binds a VM; returns its index.
    pub fn bind_vm(&mut self, binding: VmBinding) -> usize {
        let cfg = self.recovery.unwrap_or_default();
        self.vms.push(VmSlot {
            fleet_slot: self.fleet.as_mut().map_or(0, |f| f.slot(binding.vm_id)),
            binding,
            breaker: CircuitBreaker::new(cfg.breaker_threshold, cfg.breaker_cooldown),
            active: true,
            admitting: true,
            work: 0,
            last_arrival: 0,
            arrival_gap: 0,
        });
        self.vms.len() - 1
    }

    /// Router counters.
    pub fn stats(&self) -> RouterStats {
        self.stats
    }

    /// Peak concurrent in-flight requests.
    pub fn high_water(&self) -> usize {
        self.table.high_water()
    }

    /// Access to a bound VM's classifier (host-side configuration of
    /// classifier maps, on-the-fly classifier replacement).
    pub fn classifier_mut(&mut self, vm: usize) -> &mut Classifier {
        &mut self.vms[vm].binding.classifier
    }

    fn ingest(&mut self, now: Ns) -> bool {
        let mut any = false;
        for vm in 0..self.vms.len() {
            if !self.vms[vm].active {
                continue; // detached tombstone: nothing to drain
            }
            // Path completions, fast then kernel then notify. Device and
            // notify rings give up at most one batch per visit (leftovers
            // keep the poll Busy, so the next visit continues there).
            for _ in 0..self.batch {
                let Some(cqe) = self.vms[vm].binding.hcq.pop() else {
                    break;
                };
                any = true;
                self.reap(vm, path_bits::HQ, cqe.cid, cqe.status(), now);
            }
            if let Some(kernel) = self.vms[vm].binding.kernel.as_mut() {
                let mut done = std::mem::take(&mut self.kernel_out);
                kernel.poll(now, &mut done);
                for (tag, status) in done.drain(..) {
                    any = true;
                    self.reap(vm, path_bits::KQ, tag, status, now);
                }
                self.kernel_out = done;
            }
            for _ in 0..self.batch {
                let Some(cqe) = self.vms[vm]
                    .binding
                    .notify
                    .as_ref()
                    .and_then(|n| n.ncq.pop())
                else {
                    break;
                };
                any = true;
                self.reap(vm, path_bits::NQ, cqe.cid, cqe.status(), now);
            }
            // New guest commands (after completions: frees table slots).
            // In fleet mode admission is the scheduler's call instead —
            // see `drain_vsqs_scheduled`. Quiesce (shard-wide or per-VM)
            // stops exactly here: completions above keep draining.
            if self.fleet.is_none() && self.admitting && self.vms[vm].admitting {
                any |= self.admit_vm(vm, now, None);
            }
        }
        if self.fleet.is_some() && self.admitting {
            any |= self.drain_vsqs_scheduled(now);
        }
        if any && self.telemetry.enabled() {
            self.telemetry
                .depth(Depth::TableOccupancy, self.table.in_flight() as u64);
        }
        any
    }

    /// Hands one reaped path completion to the station as `PathDone`.
    fn reap(&mut self, vm: usize, path: u8, tag: u16, status: Status, now: Ns) {
        let cost = self.completion_cost(tag, path) + self.take_wake_debt();
        self.vms[vm].work += 1;
        let work = Work::PathDone {
            vm,
            path,
            tag,
            status,
        };
        self.station.push(work, cost, now);
    }

    /// Admits one VM's new commands: each VSQ visit moves at most `batch`
    /// entries, so one flooding queue cannot starve its neighbours — the
    /// round-robin moves on and returns once every other queue has had its
    /// turn. With a fleet scheduler each command must first win the
    /// tenant's DRR deficit and token bucket; a denial skips the tenant's
    /// remaining queues for this round. Returns whether anything entered.
    // Runs for every VM on every poll, idle ones included.
    #[inline(always)]
    fn admit_vm(&mut self, vm: usize, now: Ns, mut sched: Option<&mut TenantScheduler>) -> bool {
        let (batch, slot) = (self.batch, self.vms[vm].fleet_slot);
        let mut denied = false;
        let mut served = 0u64;
        for vsq in 0..self.vms[vm].binding.vsqs.len() {
            let mut drained = 0u64;
            while drained < batch as u64 && !self.vms[vm].binding.vsqs[vsq].is_empty() {
                if let Some(sched) = sched.as_deref_mut() {
                    if !self.sched_admit(sched, slot, now) {
                        denied = true;
                        break;
                    }
                }
                let Some((cmd, _)) = self.vms[vm].binding.vsqs[vsq].pop() else {
                    break;
                };
                let cost = self.cost.router_cmd + self.cost.classifier_run + self.take_wake_debt();
                self.vms[vm].work += 1;
                let vsq = vsq as u16;
                self.station.push(Work::Ingress { vm, vsq, cmd }, cost, now);
                drained += 1;
            }
            served += drained;
            if denied {
                break; // a visit cut short is not an SQ-burst observation
            }
            if drained > 0 {
                self.telemetry.depth(Depth::SqBurst, drained);
                if let Some(t) = &mut self.tuner {
                    t.record_visit(drained, batch);
                }
            }
        }
        if let Some(sched) = sched {
            let backlog_empty = !denied && self.vms[vm].binding.vsqs.iter().all(|q| q.is_empty());
            sched.end_visit(slot, backlog_empty);
            if served > 0 {
                self.telemetry.depth(Depth::TenantServed, served);
            }
        }
        if served > 0 {
            self.note_arrival(vm, now);
        }
        served > 0
    }

    /// Asks the tenant's DRR deficit (weighted share of the round) and
    /// token bucket (rate + burst, scaled by the governor's throttle knob)
    /// to admit one command. A denial arms `sched_recheck` so `next_event`
    /// keeps virtual time moving even when every other actor has gone
    /// quiet.
    fn sched_admit(&mut self, sched: &mut TenantScheduler, slot: usize, now: Ns) -> bool {
        let at = match sched.admit(slot, now) {
            Admit::Granted => return true,
            Admit::Throttled => {
                self.tally(Metric::ThrottleApplied, 1);
                sched.next_token_at(slot, now)
            }
            Admit::Exhausted => {
                // The next DRR round happens on the next poll; schedule
                // one in case the rig is otherwise idle.
                self.tally(Metric::SchedulerPreemptions, 1);
                now + US
            }
        };
        self.sched_recheck = Some(self.sched_recheck.map_or(at, |r| r.min(at)));
        false
    }

    /// Fleet-mode VSQ drain: one DRR round over all tenants, visit order
    /// rotating round to round so the order itself is fair. Unlike the
    /// FIFO drain, which admits each VM right after reaping its
    /// completions, this runs once every VM's completions are in.
    fn drain_vsqs_scheduled(&mut self, now: Ns) -> bool {
        let n = self.vms.len();
        if n == 0 {
            return false;
        }
        let Some(mut sched) = self.fleet.take() else {
            return false;
        };
        let mut any = false;
        let start = self.drain_cursor % n;
        self.drain_cursor = self.drain_cursor.wrapping_add(1);
        self.sched_recheck = None;
        sched.new_round();
        for k in 0..n {
            let vm = (start + k) % n;
            if self.vms[vm].active && self.vms[vm].admitting {
                any |= self.admit_vm(vm, now, Some(&mut sched));
            }
        }
        self.fleet = Some(sched);
        any
    }

    fn completion_cost(&self, tag: u16, path: u8) -> Ns {
        let classify = self
            .table
            .get(tag)
            .map(|s| s.hooks & path != 0)
            .unwrap_or(false);
        // A shard pinned off the device's NUMA node pays the cross-node
        // penalty to reap a device CQE (remote cacheline + doorbell).
        let affinity = if path == path_bits::HQ {
            self.completion_penalty
        } else {
            0
        };
        self.cost.router_cmd
            + affinity
            + if classify {
                self.cost.classifier_run
            } else {
                0
            }
    }

    fn apply(&mut self, work: Work, t: Ns) {
        let (Work::Ingress { vm, .. } | Work::PathDone { vm, .. }) = work;
        self.vms[vm].work = self.vms[vm].work.saturating_sub(1);
        match work {
            Work::Ingress { vm, vsq, cmd } => self.apply_ingress(vm, vsq, cmd, t),
            Work::PathDone {
                vm,
                path,
                tag,
                status,
            } => self.apply_path_done(vm, path, tag, status, t),
        }
    }

    fn apply_ingress(&mut self, vm: usize, vsq: u16, cmd: SubmissionEntry, t: Ns) {
        self.tally(Metric::Accepted, 1);
        let vm_id = self.vms[vm].binding.vm_id;
        let state = RequestState::new(vm_id, vm as u16, vsq, cmd, t, self.generation);
        let Some(tag) = self.track(state, t) else {
            return;
        };
        let verdict = self.run_classifier(vm, tag, HOOK_VSQ, Status::SUCCESS, t);
        self.route(vm, tag, verdict, t);
    }

    /// Enters a new request in the routing table under the next sequence
    /// number and opens its span. A full table fails the request at once:
    /// the guest sees a transient internal error, like a controller under
    /// resource pressure, instead of losing the command.
    fn track(&mut self, mut state: RequestState, t: Ns) -> Option<u16> {
        self.next_seq += 1;
        state.seq = self.next_seq;
        let (slot, vsq, cid) = (state.slot as usize, state.vsq, state.guest_cid);
        let Some(tag) = self.table.insert(state) else {
            self.post_vcq(slot, vsq, CompletionEntry::new(cid, Status::INTERNAL));
            return None;
        };
        self.trace(t, tag, Stage::VsqFetch, PathKind::None);
        Some(tag)
    }

    fn apply_path_done(&mut self, vm: usize, path: u8, tag: u16, status: Status, t: Ns) {
        let Some(state) = self.table.get(tag) else {
            self.tally(Metric::Spurious, 1);
            return;
        };
        // Epoch fence (servicing): a slot admitted under an older engine
        // generation is a pre-snapshot attempt whose guest answer comes
        // (or came) from the replay. Its legs are dropped here however the
        // shard is configured — recovery on or off — so a stale completion
        // can never satisfy, or corrupt, a post-restore command.
        if state.generation != self.generation {
            return self.drop_late_leg(tag, path, true);
        }
        if self.recovery.is_some() {
            if state.zombie || state.orphaned & path != 0 {
                // A leg abandoned by an abort finally reported in; the
                // guest already has its answer.
                return self.drop_late_leg(tag, path, false);
            }
            if state.pending & path == 0 {
                // Duplicate completion for a live request (e.g. the same
                // path answering twice): ignore it rather than double-
                // finishing the request.
                self.tally(Metric::Spurious, 1);
                return;
            }
            // Feed the fast-path breaker from real device outcomes.
            if path == path_bits::HQ {
                if status.is_error() {
                    self.breaker_failure(vm, t);
                } else {
                    self.vms[vm].breaker.on_success();
                }
            }
        }
        let Some(state) = self.table.get_mut(tag) else {
            return;
        };
        state.pending &= !path;
        state.serviced_at = t;
        if status.is_error() {
            if !state.status.is_error() {
                state.status = status;
            }
            if state.first_fault_at == 0 {
                state.first_fault_at = t;
            }
        }
        if state.hooks & path != 0 {
            // One-shot hook: consume it, then let the classifier decide the
            // next leg of the state machine.
            state.hooks &= !path;
            self.telemetry.count(Metric::HookReentries);
            self.trace(t, tag, Stage::HookReentry, Self::path_kind(path));
            let hook_id = match path {
                path_bits::HQ => HOOK_HCQ,
                path_bits::KQ => HOOK_KCQ,
                _ => HOOK_NCQ,
            };
            let verdict = self.run_classifier(vm, tag, hook_id, status, t);
            self.route(vm, tag, verdict, t);
        } else if state.pending == 0
            && (state.will_complete & path != 0 || state.will_complete == 0)
        {
            let final_status = state.status;
            self.finish(vm, tag, final_status, t);
        }
        // Otherwise: a multicast leg finished but others are outstanding —
        // wait for them.
    }

    /// Drops a leg that reported in after its request stopped waiting for
    /// it — abandoned by an abort, or admitted under an older generation
    /// (`epoch_late`) — and reclaims the quarantined slot once every leg
    /// is accounted for.
    fn drop_late_leg(&mut self, tag: u16, path: u8, epoch_late: bool) {
        let Some(state) = self.table.get_mut(tag) else {
            return;
        };
        state.orphaned &= !path;
        let drained = (epoch_late || state.zombie) && state.pending == 0 && state.orphaned == 0;
        self.tally(Metric::LateCompletions, 1);
        if epoch_late {
            self.tally(Metric::EpochLateDrops, 1);
        }
        if drained {
            self.table.remove(tag);
        }
    }

    /// Telemetry path annotation for a path bit.
    fn path_kind(path: u8) -> PathKind {
        match path {
            path_bits::HQ => PathKind::Fast,
            path_bits::KQ => PathKind::Kernel,
            path_bits::NQ => PathKind::Notify,
            _ => PathKind::None,
        }
    }

    fn run_classifier(&mut self, vm: usize, tag: u16, hook: u32, error: Status, t: Ns) -> Verdict {
        self.tally(Metric::ClassifierRuns, 1);
        let state = self.table.get(tag).expect("request tracked");
        let binding = &mut self.vms[vm].binding;
        // Zero-copy marshalling: refill the router's scratch context in
        // place instead of constructing a fresh buffer per invocation.
        self.scratch.fill(
            hook,
            binding.vm_id,
            state.vsq,
            &state.cmd,
            error,
            state.user_tag,
        );
        let started = self.telemetry.enabled().then(std::time::Instant::now);
        let outcome = binding.classifier.run_tiered(&mut self.scratch, t);
        if let Some(tier) = outcome.tier {
            let (metric, tier) = match tier {
                nvmetro_vbpf::Tier::Interp => (Metric::ClassifierInterp, Tier::Interp),
                nvmetro_vbpf::Tier::Compiled => (Metric::ClassifierCompiled, Tier::Compiled),
                nvmetro_vbpf::Tier::CacheHit => (Metric::ClassifierCacheHit, Tier::CacheHit),
            };
            self.telemetry.count(metric);
            if let Some(started) = started {
                self.telemetry
                    .tier_latency(tier, started.elapsed().as_nanos() as u64);
            }
        }
        self.trace(t, tag, Stage::Classified, PathKind::None);
        // Direct mediation: copy back only the fields the verifier proved
        // the classifier can write (everything, for native classifiers).
        let dirty = outcome.dirty;
        if let Some(state) = self
            .table
            .get_mut(tag)
            .filter(|_| dirty != MediatedFields::NONE)
        {
            if dirty.contains(MediatedFields::SLBA) {
                state.cmd.set_slba(self.scratch.slba());
            }
            if dirty.contains(MediatedFields::NLB) {
                let nlb = self.scratch.nlb().clamp(1, 0x1_0000);
                state.cmd.cdw12 = (state.cmd.cdw12 & !0xFFFF) | (nlb - 1);
            }
            if dirty.contains(MediatedFields::USER_TAG) {
                state.user_tag = self.scratch.user_tag();
            }
        }
        outcome.verdict
    }

    fn route(&mut self, vm: usize, tag: u16, verdict: Verdict, t: Ns) {
        if verdict.complete() {
            self.finish(vm, tag, verdict.status(), t);
            return;
        }
        let send = verdict.send_mask();
        if send == 0 {
            // A verdict that neither completes nor routes is a classifier
            // bug; fail closed.
            self.finish(vm, tag, Status::PATH_ERROR, t);
            return;
        }
        if self.try_coalesce(vm, tag, verdict) {
            // Parked as a follower of an in-flight duplicate read: no
            // dispatch; the leader's terminal completion fans out to it.
            return;
        }
        self.dispatch(
            vm,
            tag,
            send,
            verdict.hook_mask(),
            verdict.will_complete_mask(),
            t,
        );
    }

    /// Offers a request to the cross-VM coalescing window. Only pristine
    /// single-fast-path reads are eligible: no hooks, no multicast, no
    /// prior dispatch or retry — anything else keeps its own device
    /// command and its own fault-handling state machine. Returns true if
    /// the request was parked as a follower (it must not be dispatched).
    fn try_coalesce(&mut self, vm: usize, tag: u16, verdict: Verdict) -> bool {
        const NVM_READ: u8 = 0x02;
        let Some(win) = self.coalesce.as_mut() else {
            return false;
        };
        let Some(state) = self.table.get(tag) else {
            return false;
        };
        if state.cmd.opcode != NVM_READ
            || verdict.send_mask() != path_bits::HQ
            || verdict.hook_mask() != 0
            || verdict.will_complete_mask() != path_bits::HQ
            || state.sent_paths != 0
            || state.pending != 0
            || state.retries != 0
        {
            return false;
        }
        // The key is the post-mediation (physical) range, so two VMs whose
        // classifiers translate different guest LBAs to the same physical
        // blocks do coalesce, and identical guest LBAs in disjoint
        // partitions do not.
        let (slba, nlb) = (state.cmd.slba(), state.cmd.nlb());
        // Followers skip dispatch() and with it the fast-path isolation
        // check; re-check partition bounds here so a request can only ever
        // coalesce onto data its own VM is allowed to read.
        if !self.vms[vm].binding.partition.contains(slba, nlb) {
            return false; // dispatch() rejects it with LBA_OUT_OF_RANGE
        }
        // Leaders dispatch normally; the window watches their tag. Bypass
        // (window bounds hit) degrades to plain dispatch.
        let follower = matches!(win.try_join(slba, nlb, vm, tag), Join::Follower(_));
        if follower {
            self.tally(Metric::CoalescedReads, 1);
        }
        follower
    }

    /// Fans a coalescing leader's terminal status out to its parked
    /// followers: each gets its own guest CQE with the leader's status,
    /// exactly once (`resolve` retires the key and is idempotent, and
    /// followers were never dispatched, so no path completion, retry, or
    /// timer can ever touch them again).
    fn resolve_coalesced(&mut self, tag: u16, status: Status, t: Ns) {
        let followers = match self.coalesce.as_mut() {
            Some(win) => win.resolve(tag),
            None => return,
        };
        if followers.is_empty() {
            return;
        }
        self.tally(Metric::CoalesceFanout, followers.len() as u64);
        // The leader's slot is still resident (`finish` removes it after
        // this fan-out), so its generation is readable for the causal link.
        let leader_gen = self.table.get(tag).map_or(0, |s| Self::gen_of(s.seq));
        for w in followers {
            // Stamp the follower with its leader before the follower's own
            // terminal event, so the link lands on the still-open span.
            if let Some(f) = self.table.get(w.tag) {
                self.telemetry.link_event(
                    t,
                    f.vm,
                    f.vsq,
                    w.tag,
                    Self::gen_of(f.seq),
                    Stage::LinkFanout,
                    tag,
                    leader_gen,
                );
            }
            self.finish(w.vm, w.tag, status, t);
        }
    }

    /// Sends a request down a set of paths. Retries replay this with the
    /// masks of the latest dispatch, so a re-dispatched command re-arms
    /// exactly the state machine the classifier asked for.
    fn dispatch(&mut self, vm: usize, tag: u16, send: u8, hooks: u8, wc: u8, t: Ns) {
        let (mut send, mut hooks, mut wc) = (send, hooks, wc);
        // Circuit breaker: consecutive device faults divert fast-path
        // sends to the kernel path (when the VM has one) until a
        // half-open probe restores the device.
        if self.recovery.is_some()
            && send & path_bits::HQ != 0
            && self.vms[vm].binding.kernel.is_some()
            && self.vms[vm].breaker.gate(t) == Gate::Deny
        {
            let to_kernel = |m: u8| match m & path_bits::HQ {
                0 => m,
                _ => (m & !path_bits::HQ) | path_bits::KQ,
            };
            (send, hooks, wc) = (to_kernel(send), to_kernel(hooks), to_kernel(wc));
            self.tally(Metric::Failovers, 1);
            self.trace(t, tag, Stage::Failover, PathKind::Kernel);
        }
        if send.count_ones() > 1 {
            self.tally(Metric::Multicasts, 1);
        }
        let Some(state) = self.table.get_mut(tag) else {
            return;
        };
        // Isolation: the fast path reaches real hardware, so partition
        // bounds are enforced here, not trusted to the classifier.
        let mut fwd = state.cmd;
        let has_lba = fwd.has_data() || matches!(fwd.opcode, 0x08 | 0x09);
        let partition = self.vms[vm].binding.partition;
        if send & path_bits::HQ != 0 && has_lba && !partition.contains(fwd.slba(), fwd.nlb()) {
            self.finish(vm, tag, Status::LBA_OUT_OF_RANGE, t);
            return;
        }
        state.hooks |= hooks;
        state.will_complete |= wc;
        state.sent_paths |= send;
        state.dispatch_send = send;
        state.dispatch_hooks = hooks;
        state.dispatch_wc = wc;
        // A retry reclaims any path it re-dispatches on: the next
        // completion on that path is attributed to the new attempt.
        state.orphaned &= !send;
        if state.dispatched_at == 0 {
            state.dispatched_at = t;
        }
        fwd.cid = tag;
        for (path, metric) in [
            (path_bits::HQ, Metric::SentFast),
            (path_bits::KQ, Metric::SentKernel),
            (path_bits::NQ, Metric::SentNotify),
        ] {
            if send & path == 0 {
                continue;
            }
            if let Some(state) = self.table.get_mut(tag) {
                state.pending |= path;
            }
            self.tally(metric, 1);
            self.trace(t, tag, Stage::Dispatched, Self::path_kind(path));
            let binding = &mut self.vms[vm].binding;
            let queued = match path {
                path_bits::HQ => binding.hsq.push(fwd).is_ok(),
                path_bits::KQ => binding
                    .kernel
                    .as_mut()
                    .map(|k| k.submit(tag, fwd, t))
                    .is_some(),
                _ => binding
                    .notify
                    .as_mut()
                    .is_some_and(|n| n.nsq.push(fwd).is_ok()),
            };
            if !queued {
                // A target queue was missing or full: fail the request.
                // Outstanding legs on other paths will be dropped as
                // spurious when they return.
                if let Some(state) = self.table.get_mut(tag) {
                    state.pending &= !path;
                }
                self.finish(vm, tag, Status::PATH_ERROR, t);
                return;
            }
        }
        // Arm the per-dispatch deadline: if any leg is still out when it
        // fires, the attempt is aborted NVMe-style.
        let Some(timeout) = self.recovery.map(|c| c.cmd_timeout).filter(|&d| d > 0) else {
            return;
        };
        if let Some(state) = self
            .table
            .get_mut(tag)
            .filter(|s| s.pending != 0 && !s.zombie)
        {
            state.deadline = t + timeout;
            let timer = (state.deadline, tag, state.seq, vm as u16, TIMER_DEADLINE);
            self.timers.push(Reverse(timer));
        }
    }

    /// Schedules a re-dispatch when the failure is worth retrying. Returns
    /// whether the retry was taken (the request stays tracked).
    fn try_retry(&mut self, vm: usize, tag: u16, status: Status, t: Ns) -> bool {
        let Some(cfg) = self.recovery else {
            return false;
        };
        let Some(state) = self.table.get_mut(tag) else {
            return false;
        };
        if state.zombie
            || !status.is_retryable()
            || state.dispatch_send == 0
            || state.pending != 0
            || state.retries >= cfg.max_retries
        {
            return false;
        }
        state.retries += 1;
        if state.first_fault_at == 0 {
            state.first_fault_at = t;
        }
        // Fresh attempt: forget the latched error and the old deadline.
        state.status = Status::SUCCESS;
        state.deadline = 0;
        let at = t + cfg.backoff(state.retries);
        self.retryq.push(Reverse((at, tag, state.seq, vm as u16)));
        self.tally(Metric::Retries, 1);
        self.trace(t, tag, Stage::Retry, PathKind::None);
        true
    }

    fn finish(&mut self, vm: usize, tag: u16, status: Status, t: Ns) {
        if self.try_retry(vm, tag, status, t) {
            return;
        }
        // This is a *terminal* answer (retries are exhausted or not
        // applicable): if the tag led a coalesced read, its parked
        // followers inherit exactly the status this guest is about to see
        // — including aborts and post-failover statuses.
        self.resolve_coalesced(tag, status, t);
        let Some(state) = self.table.get(tag) else {
            self.tally(Metric::Spurious, 1);
            return;
        };
        let (cid, vsq, seq) = (state.guest_cid, state.vsq, state.seq);
        // With recovery on, a request whose legs are still in flight
        // (abort, or a path failure mid-multicast) answers the guest now
        // but quarantines the tag until every leg drains or the reaper
        // fires, so a late completion can never be misattributed to a
        // reused slot. A zombie's guest already has its CQE.
        let linger = match self.recovery {
            Some(_) if state.zombie => return,
            Some(cfg) if state.pending | state.orphaned != 0 => Some(cfg.zombie_linger),
            _ => None,
        };
        self.emit_finish_telemetry(tag, t);
        match linger {
            Some(linger) => {
                if let Some(state) = self.table.get_mut(tag) {
                    state.abandon_legs();
                    state.zombie = true;
                }
                let reap = (t + linger, tag, seq, vm as u16, TIMER_REAP);
                self.timers.push(Reverse(reap));
            }
            None => {
                self.table.remove(tag);
            }
        }
        self.post_vcq(vm, vsq, CompletionEntry::new(cid, status));
    }

    fn emit_finish_telemetry(&mut self, tag: u16, t: Ns) {
        self.trace(t, tag, Stage::VcqComplete, PathKind::None);
        let Some(state) = self.table.get(tag) else {
            return;
        };
        // Stage-coverage audit: every request that was observed at
        // VsqFetch must reach its terminal VcqComplete exactly once (a
        // retry re-uses the same seq — it is the same request).
        #[cfg(debug_assertions)]
        debug_assert!(
            self.finished_seqs.insert(state.seq),
            "request seq {} (vm {} vsq {} tag {}) emitted a second terminal event",
            state.seq,
            state.vm,
            state.vsq,
            tag
        );
        if self.telemetry.enabled() {
            // Attribute latency to the heaviest path the request touched
            // (notify > kernel > fast); requests the router completed
            // without dispatching have no route.
            let route = if state.sent_paths & path_bits::NQ != 0 {
                Some(Route::Notify)
            } else if state.sent_paths & path_bits::KQ != 0 {
                Some(Route::Kernel)
            } else if state.sent_paths & path_bits::HQ != 0 {
                Some(Route::Fast)
            } else {
                None
            };
            if let Some(route) = route {
                self.telemetry
                    .route_latency(route, t.saturating_sub(state.accepted_at));
            }
            if state.dispatched_at != 0 {
                self.telemetry.segment(
                    Segment::IngressToDispatch,
                    state.dispatched_at.saturating_sub(state.accepted_at),
                );
                if state.serviced_at != 0 {
                    self.telemetry.segment(
                        Segment::DispatchToService,
                        state.serviced_at.saturating_sub(state.dispatched_at),
                    );
                    self.telemetry.segment(
                        Segment::ServiceToComplete,
                        t.saturating_sub(state.serviced_at),
                    );
                }
            }
            if state.first_fault_at != 0 {
                // Recovery latency: first observed fault to final answer.
                self.telemetry.segment(
                    Segment::FaultToRecovery,
                    t.saturating_sub(state.first_fault_at),
                );
            }
        }
    }

    /// Queues a guest CQE for the end-of-poll coalesced flush. Everything a
    /// poll completes is posted in one ring write per (vm, vsq) with a
    /// single doorbell notify per group — the paper's interrupt-coalescing
    /// discipline — instead of one notify per CQE.
    fn post_vcq(&mut self, vm: usize, vsq: u16, cqe: CompletionEntry) {
        self.tally(Metric::Completed, 1);
        if cqe.status().is_error() {
            self.tally(Metric::Errors, 1);
        }
        self.cq_batch.push((vm, vsq, cqe));
    }

    /// Flushes the poll's batched CQEs into the guest VCQs (see
    /// [`Router::deliver_vcq`]).
    fn flush_cq_batch(&mut self) -> bool {
        if self.cq_batch.is_empty() {
            return false;
        }
        self.tally(Metric::CqBatches, 1);
        self.telemetry
            .depth(Depth::CqBatch, self.cq_batch.len() as u64);
        let mut entries = std::mem::take(&mut self.cq_batch);
        self.deliver_vcq(&mut entries, true);
        self.cq_batch = entries;
        true
    }

    /// Pushes guest CQEs into their VCQs in completion order. A (vm, vsq)
    /// that refuses an entry (ring full) or already has entries parked in
    /// the retry buffer parks the rest of its entries behind them, so the
    /// guest never sees completions reordered by VCQ pressure; other
    /// queues are unaffected. Each group that received entries counts one
    /// notify. `capped` parks through the bounded retry buffer; the replay
    /// of already-parked entries re-parks them without the cap (restored
    /// CQEs bypass it, so capping them here would drop guest answers).
    /// Returns whether any entry was delivered.
    fn deliver_vcq(
        &mut self,
        entries: &mut Vec<(usize, u16, CompletionEntry)>,
        capped: bool,
    ) -> bool {
        let mut blocked: Vec<(usize, u16)> = Vec::new();
        for &(vm, vsq, _) in &self.vcq_retry {
            if !blocked.contains(&(vm, vsq)) {
                blocked.push((vm, vsq));
            }
        }
        let mut notified: Vec<(usize, u16)> = Vec::new();
        for (vm, vsq, cqe) in entries.drain(..) {
            let refused = if blocked.contains(&(vm, vsq)) {
                Some(cqe)
            } else {
                self.vms[vm].binding.vcqs[vsq as usize].push(cqe).err()
            };
            match refused {
                None if !notified.contains(&(vm, vsq)) => notified.push((vm, vsq)),
                None => {}
                Some(cqe) => {
                    if !blocked.contains(&(vm, vsq)) {
                        blocked.push((vm, vsq));
                    }
                    if capped && self.vcq_retry.len() >= self.vcq_retry_cap {
                        // A guest that never reaps can otherwise grow the
                        // buffer without bound; drop (counted) rather
                        // than leak.
                        self.tally(Metric::VcqRetryDrops, 1);
                    } else {
                        self.vcq_retry.push((vm, vsq, cqe));
                    }
                }
            }
        }
        self.tally(Metric::CqNotifies, notified.len() as u64);
        !notified.is_empty()
    }

    /// Fires due recovery timers: deadline expiries abort the attempt
    /// (retry may then resurrect it), reap timers reclaim quarantined
    /// zombie slots whose legs never reported back.
    fn fire_timers(&mut self, now: Ns) -> bool {
        let mut progressed = false;
        while let Some((_, tag, seq, vm, kind)) = pop_due(&mut self.timers, |e| e.0 <= now) {
            let vm = vm as usize;
            let Some(state) = self.table.get_mut(tag).filter(|s| s.seq == seq) else {
                continue; // slot was freed or reused; stale timer
            };
            if kind == TIMER_REAP {
                // Reclaim a zombie slot whose abandoned legs never
                // completed (e.g. dropped completions).
                if state.zombie {
                    self.table.remove(tag);
                    progressed = true;
                }
                continue;
            }
            // TIMER_DEADLINE: skip if superseded by a retry or later
            // dispatch, or if everything reported in time.
            if state.zombie || state.deadline == 0 || state.deadline > now || state.pending == 0 {
                continue;
            }
            let hq_was_pending = state.pending & path_bits::HQ != 0;
            if state.first_fault_at == 0 {
                state.first_fault_at = now;
            }
            // Abandon the in-flight legs; their completions (if they ever
            // arrive) are dropped as late.
            state.abandon_legs();
            self.tally(Metric::Aborts, 1);
            self.trace(now, tag, Stage::Abort, PathKind::None);
            if hq_was_pending {
                self.breaker_failure(vm, now);
            }
            // ABORTED is retryable, so finish() re-dispatches the command
            // unless retries are exhausted.
            self.finish(vm, tag, Status::ABORTED, now);
            progressed = true;
        }
        progressed
    }

    /// Re-dispatches requests whose retry backoff has elapsed.
    fn fire_retries(&mut self, now: Ns) -> bool {
        let mut progressed = false;
        while let Some((_, tag, seq, vm)) = pop_due(&mut self.retryq, |e| e.0 <= now) {
            let Some(state) = self.table.get(tag) else {
                continue;
            };
            if state.seq != seq || state.zombie || state.pending != 0 {
                continue;
            }
            let (send, hooks, wc) = (state.dispatch_send, state.dispatch_hooks, state.dispatch_wc);
            self.dispatch(vm as usize, tag, send, hooks, wc, now);
            progressed = true;
        }
        progressed
    }
}

/// Quarantine linger for restored tags on shards without a recovery
/// config (with one, its `zombie_linger` is used instead).
const DEFAULT_ZOMBIE_LINGER: Ns = 50 * MS;

/// A detached slot's placeholder classifier: a stray invocation (which
/// should never happen — detached slots are skipped by ingest) completes
/// immediately with an internal error instead of routing anywhere.
struct TombstoneClassifier;

impl NativeClassifier for TombstoneClassifier {
    fn classify(&mut self, _ctx: &mut RequestCtx) -> Verdict {
        Verdict(verdict_bits::COMPLETE | Status::INTERNAL.0 as u64)
    }
}

/// One-pass snapshot of a shard's observable state: counters, table
/// marks, breaker states, and tenant views collected together, so an
/// aggregated view can never pair counters from one instant with breaker
/// state from another.
pub struct ShardSnapshot {
    /// The shard's counters.
    pub stats: RouterStats,
    /// Peak routing-table occupancy.
    pub high_water: usize,
    /// Current routing-table occupancy (incl. quarantined tags).
    pub in_flight: usize,
    /// `(vm_id, open, opens)` per live VM slot (empty when recovery is
    /// off).
    pub breakers: Vec<(u32, bool, u64)>,
    /// Per-tenant scheduler views (empty without fleet mode).
    pub tenants: Vec<TenantView>,
    /// The shard's poll mode at the snapshot instant (Spin without a
    /// governor).
    pub poll_mode: PollMode,
    /// The batch bound in force (auto-tuned shards move this at runtime).
    pub batch: usize,
}

/// Everything one shard contributes to a servicing snapshot, extracted by
/// [`Router::into_service`].
pub struct RouterExport {
    /// Highest request sequence number this shard issued.
    pub next_seq: u64,
    /// The shard's lifetime counters.
    pub stats: RouterStats,
    /// Peak routing-table occupancy.
    pub high_water: usize,
    /// `(vm_slot, tag, state)` for every live routing-table entry.
    pub entries: Vec<(usize, u16, RequestState)>,
    /// `(tag, at)` for every still-valid retry-backoff entry.
    pub retries: Vec<(u16, Ns)>,
    /// Undelivered guest CQEs as `(vm_slot, vsq, cqe)`, oldest first.
    pub cqes: Vec<(usize, u16, CompletionEntry)>,
    /// Breaker snapshot per VM slot (parallel to the shard's bind order).
    pub breakers: Vec<BreakerSnap>,
}

/// Live-servicing surface: quiesce gates, drain predicates, snapshot
/// extraction, and restore injection. The engine drives these; they are
/// exposed on the shard so manual-poll rigs can exercise them too.
impl Router {
    /// Engine generation this shard admits under.
    pub fn generation(&self) -> u32 {
        self.generation
    }

    pub(crate) fn set_generation(&mut self, generation: u32) {
        self.generation = generation;
    }

    /// Raises the sequence floor so replayed requests never reuse a
    /// pre-snapshot sequence number.
    pub(crate) fn set_next_seq(&mut self, seq: u64) {
        self.next_seq = self.next_seq.max(seq);
    }

    /// Opens/closes the shard-wide admission gate. Closed, the shard
    /// drains no VSQ but keeps processing completions, timers, and
    /// retries — the quiesce protocol's "stop admitting, keep converging".
    pub fn set_admitting(&mut self, on: bool) {
        self.admitting = on;
    }

    /// Whether the shard-wide admission gate is open.
    pub fn admitting(&self) -> bool {
        self.admitting
    }

    /// Gates one VM slot's admission (hot detach quiesces a single tenant
    /// without touching anyone else's queues).
    pub(crate) fn set_vm_admitting(&mut self, slot: usize, on: bool) {
        self.vms[slot].admitting = on;
    }

    /// In-flight requests that still owe their guest an answer
    /// (quarantined zombie tags excluded — their guests were answered).
    pub fn live_in_flight(&self) -> usize {
        self.table.iter().filter(|(_, s)| !s.zombie).count()
    }

    /// True once every admitted request has answered its guest and no
    /// work is parked inside the shard. Quarantined tags and undelivered
    /// VCQ retries do not block a drain: both are serialized by the
    /// snapshot.
    pub fn is_drained(&self) -> bool {
        self.live_in_flight() == 0 && self.station.is_empty() && self.cq_batch.is_empty()
    }

    /// Whether `slot` has fully drained: no station work queued for it
    /// and no live table entry admitted through it (detach safety; other
    /// tenants' backlogs don't matter here).
    pub(crate) fn vm_quiesced(&self, slot: usize) -> bool {
        self.vms[slot].work == 0
            && !self
                .table
                .iter()
                .any(|(_, s)| s.slot as usize == slot && !s.zombie)
    }

    /// One-pass observable snapshot (see [`ShardSnapshot`]).
    pub fn stats_snapshot(&self) -> ShardSnapshot {
        let breakers = if self.recovery.is_some() {
            self.breaker_view()
                .map(|(vm_id, b)| (vm_id, b.is_open(), b.opens()))
                .collect()
        } else {
            Vec::new()
        };
        ShardSnapshot {
            stats: self.stats,
            high_water: self.table.high_water(),
            in_flight: self.table.in_flight(),
            breakers,
            tenants: self.fleet_view(),
            poll_mode: self.poll_mode(),
            batch: self.batch,
        }
    }

    /// Consumes the shard into its serializable remains plus the VM
    /// bindings to rebind (`None` marks a detached tombstone slot).
    ///
    /// Station work still queued is force-applied first — accepted
    /// commands either dispatch (and serialize as in-flight) or complete
    /// (and serialize as undelivered CQEs); nothing is lost to the
    /// snapshot.
    pub(crate) fn into_service(mut self) -> (RouterExport, Vec<Option<VmBinding>>) {
        while let Some((work, t)) = self.station.pop_done_timed(Ns::MAX) {
            self.apply(work, t);
        }
        self.flush_cq_batch();
        let entries: Vec<(usize, u16, RequestState)> = self
            .table
            .iter()
            .map(|(tag, s)| (s.slot as usize, tag, s.clone()))
            .collect();
        // The retry heap keeps stale entries by design (seq-checked on
        // fire); only entries that still name a live, waiting request are
        // worth carrying.
        let retries: Vec<(u16, Ns)> = self
            .retryq
            .iter()
            .filter_map(|&Reverse((at, tag, seq, _))| {
                let s = self.table.get(tag)?;
                (s.seq == seq && !s.zombie && s.pending == 0).then_some((tag, at))
            })
            .collect();
        let cqes: Vec<(usize, u16, CompletionEntry)> = self.vcq_retry.drain(..).collect();
        let export = RouterExport {
            next_seq: self.next_seq,
            stats: self.stats,
            high_water: self.table.high_water(),
            entries,
            retries,
            cqes,
            breakers: self.vms.iter().map(|s| s.breaker.save()).collect(),
        };
        let vms = self
            .vms
            .into_iter()
            .map(|s| s.active.then_some(s.binding))
            .collect();
        (export, vms)
    }

    /// Pins a pre-snapshot request at its old tag as a quarantined zombie
    /// carrying its **old** generation. The guest's answer comes from the
    /// replayed attempt (or already came, for snapshot-time zombies); this
    /// slot exists so the old engine's in-flight legs — which carry this
    /// CID — land on an old-generation entry and are dropped as epoch-late
    /// stragglers instead of touching whatever reuses the tag. A reap
    /// timer bounds the quarantine. Fails (false) if the tag is taken.
    pub(crate) fn inject_quarantine(&mut self, tag: u16, saved: &RequestState, now: Ns) -> bool {
        let linger = self
            .recovery
            .map(|c| c.zombie_linger)
            .unwrap_or(DEFAULT_ZOMBIE_LINGER);
        if let Some(existing) = self.table.get_mut(tag) {
            // Resharding down can land two old shards' quarantines on the
            // same tag of one new shard. Both groups' stale legs will
            // arrive here carrying this CID; merging the orphan masks
            // keeps the tag pinned until every leg is accounted for.
            if existing.zombie && existing.generation != self.generation {
                existing.orphaned |= saved.pending | saved.orphaned;
                return true;
            }
            return false;
        }
        let mut state = saved.clone();
        state.abandon_legs();
        state.will_complete = 0;
        state.zombie = true;
        let seq = state.seq;
        if !self.table.insert_at(tag, state) {
            return false;
        }
        self.timers
            .push(Reverse((now + linger, tag, seq, 0, TIMER_REAP)));
        true
    }

    /// Re-admits a snapshotted request as a fresh attempt: new tag, new
    /// sequence, **current** generation. The replay re-dispatches the
    /// masks of the request's latest dispatch (or a plain fast-path read
    /// for a parked coalesce follower that never dispatched); a saved
    /// backoff (`retry_at`) is honoured instead of dispatching at once.
    /// Exactly-once holds because the pre-snapshot attempt's legs land on
    /// the quarantined old tag, never here.
    pub(crate) fn inject_replay(
        &mut self,
        slot: usize,
        saved: &RequestState,
        old_tag: u16,
        retry_at: Option<Ns>,
        now: Ns,
    ) {
        let (send, hooks, wc) = if saved.dispatch_send != 0 {
            (saved.dispatch_send, saved.dispatch_hooks, saved.dispatch_wc)
        } else {
            (path_bits::HQ, 0, path_bits::HQ)
        };
        let (vm_id, vsq) = (self.vms[slot].binding.vm_id, saved.vsq);
        let mut state = RequestState {
            guest_cid: saved.guest_cid,
            user_tag: saved.user_tag,
            retries: saved.retries,
            ..RequestState::new(vm_id, slot as u16, vsq, saved.cmd, now, self.generation)
        };
        let deferred_until = retry_at.filter(|&at| at > now);
        if deferred_until.is_some() {
            // The backoff's re-dispatch replays these masks.
            (state.dispatch_send, state.dispatch_hooks, state.dispatch_wc) = (send, hooks, wc);
        }
        // A replay opens a *new* span (the old span's trace lives in the
        // pre-snapshot engine). Replayed marks why and names the
        // pre-snapshot attempt (old tag + generation) so the trace forest
        // can stitch both attempts into one tree. A restore target whose
        // table is exhausted (e.g. resharding down concentrated too many
        // groups) fails the command instead.
        let Some(tag) = self.track(state, now) else {
            return;
        };
        let seq = self.next_seq;
        self.tally(Metric::ReplayedRequests, 1);
        let (gen, old_gen) = (Self::gen_of(seq), Self::gen_of(saved.seq));
        self.telemetry
            .link_event(now, vm_id, vsq, tag, gen, Stage::Replayed, old_tag, old_gen);
        match deferred_until {
            Some(at) => self.retryq.push(Reverse((at, tag, seq, slot as u16))),
            None => self.dispatch(slot, tag, send, hooks, wc, now),
        }
    }

    /// Re-buffers an undelivered pre-snapshot guest CQE; the poll loop's
    /// retry path delivers it in order. Not re-counted — its request was
    /// counted completed before the snapshot.
    pub(crate) fn requeue_vcq(&mut self, slot: usize, vsq: u16, cqe: CompletionEntry) {
        self.vcq_retry.push((slot, vsq, cqe));
    }

    /// Restores one VM slot's circuit breaker from a snapshot.
    pub(crate) fn restore_breaker(&mut self, slot: usize, snap: &BreakerSnap) {
        if let Some(s) = self.vms.get_mut(slot) {
            s.breaker.restore(snap);
        }
    }

    /// Swaps `slot`'s binding for an inert tombstone and returns the real
    /// binding. The caller guarantees the slot is quiesced
    /// ([`Router::vm_quiesced`]). The tombstone keeps every other
    /// binding's slot index stable, so no other tenant's queues move.
    /// Quarantined zombie tags of the departed VM are left to their reap
    /// timers — the reap path never touches the binding.
    pub(crate) fn detach_slot(&mut self, slot: usize) -> VmBinding {
        self.vms[slot].active = false;
        self.vms[slot].admitting = false;
        // Parked completions for the departing binding are undeliverable
        // once its queues leave; drop them, counted.
        let before = self.vcq_retry.len();
        self.vcq_retry.retain(|&(v, _, _)| v != slot);
        let dropped = (before - self.vcq_retry.len()) as u64;
        if dropped > 0 {
            self.tally(Metric::VcqRetryDrops, dropped);
        }
        let old = &self.vms[slot].binding;
        let tombstone = VmBinding {
            vm_id: u32::MAX,
            mem: old.mem.clone(),
            partition: old.partition,
            vsqs: Vec::new(),
            vcqs: Vec::new(),
            hsq: SqPair::new(2).0,
            hcq: CqPair::new(2).1,
            kernel: None,
            notify: None,
            classifier: Classifier::Native(Box::new(TombstoneClassifier)),
        };
        std::mem::replace(&mut self.vms[slot].binding, tombstone)
    }
}

impl Actor for Router {
    fn name(&self) -> &str {
        &self.name
    }

    fn poll(&mut self, now: Ns) -> Progress {
        self.last_poll = now;
        // Governor prologue: account idle burn since the previous poll
        // and, if parked with work already visible, take the doorbell
        // kick now so this very poll drains it (the wakeup latency rides
        // on the first station push as wake debt).
        let doorbell = self.governor.is_some() && self.doorbell_pending();
        let gov_before: Option<GovernorCounters> = self.governor.as_mut().map(|g| {
            let before = g.counters();
            g.begin_poll(now);
            if doorbell {
                g.doorbell_wake(now);
            }
            self.pending_wake_debt += g.take_wake_debt();
            before
        });
        // Replay VCQ posts that found the queue full, in submission order
        // per (vm, vsq). A replay round is one coalesced ring write per
        // queue too, but not a new CQ batch.
        let mut progressed = false;
        if !self.vcq_retry.is_empty() {
            let mut parked = std::mem::take(&mut self.vcq_retry);
            progressed = self.deliver_vcq(&mut parked, false);
        }
        // Timers and retries run unconditionally: even with recovery off, a
        // servicing restore can arm quarantine reap timers and carried-over
        // retry backoffs on this shard.
        progressed |= self.fire_timers(now);
        progressed |= self.fire_retries(now);
        progressed |= self.ingest(now);
        while let Some((work, t)) = self.station.pop_done_timed(now) {
            self.apply(work, t);
            progressed = true;
        }
        // Doorbell coalescing: everything this poll completed goes out in
        // one flush, one notify per touched (vm, vsq).
        progressed |= self.flush_cq_batch();
        // Governor epilogue: walk the Spin → Yield → Parked ladder (or
        // rewind to Spin on progress) and surface what changed.
        let queue_gap = gov_before.and_then(|_| self.min_arrival_gap());
        if let (Some(before), Some(g)) = (gov_before, self.governor.as_mut()) {
            if let Some(gap) = queue_gap {
                g.note_queue_gap(gap);
            }
            g.end_poll(now, progressed);
            // A non-doorbell wake (recovery timer, internal event) owes
            // its debt to the next poll's first work.
            self.pending_wake_debt += g.take_wake_debt();
            let after = g.counters();
            let transitions = after.transitions - before.transitions;
            if transitions > 0 {
                self.telemetry.add(Metric::PollModeTransitions, transitions);
            }
            if after.parks > before.parks {
                self.telemetry
                    .add(Metric::ShardParks, after.parks - before.parks);
                self.telemetry
                    .tag_event(now, 0, Stage::ShardPark, PathKind::None);
            }
            if after.wakes > before.wakes {
                self.telemetry
                    .add(Metric::ShardWakes, after.wakes - before.wakes);
                self.telemetry
                    .tag_event(now, 0, Stage::ShardWake, PathKind::None);
            }
        }
        // Batch auto-tune: close the observation window if due and adopt
        // the hill-climb's pick.
        let occupancy = self.table.in_flight();
        let capacity = self.table.capacity();
        if let Some(t) = &mut self.tuner {
            if let Some(next) = t.maybe_retune(now, occupancy, capacity) {
                self.batch = next;
                self.telemetry.count(Metric::BatchRetunes);
            }
        }
        if progressed {
            Progress::Busy
        } else {
            Progress::Idle
        }
    }

    fn next_event(&self) -> Option<Ns> {
        let mut next = self.station.next_event();
        for slot in &self.vms {
            if let Some(k) = slot.binding.kernel.as_ref().and_then(|k| k.next_event()) {
                next = Some(next.map_or(k, |n| n.min(k)));
            }
        }
        if !self.vcq_retry.is_empty() {
            let retry = self.last_poll + US;
            next = Some(next.map_or(retry, |n| n.min(retry)));
        }
        // Recovery wake-ups: deadlines/reaps and backoff expiries must
        // advance virtual time even when every other actor is idle (a
        // dropped completion leaves nothing else scheduled).
        if let Some(&Reverse((at, ..))) = self.timers.peek() {
            next = Some(next.map_or(at, |n| n.min(at)));
        }
        if let Some(&Reverse((at, ..))) = self.retryq.peek() {
            next = Some(next.map_or(at, |n| n.min(at)));
        }
        // Fleet-scheduler wake-up: backlog deferred by a token bucket or
        // deficit preemption must be revisited even if every guest is
        // quietly waiting on its completions.
        if let Some(at) = self.sched_recheck {
            next = Some(next.map_or(at, |n| n.min(at)));
        }
        // Parked-shard wakeup deadline: with work already visible in a
        // queue, the doorbell kick lands one wakeup latency after the
        // last poll. Without this a manually driven engine
        // (`next_event_all` loops, thread-drain on stop) would sleep
        // through the doorbell.
        if let Some(g) = &self.governor {
            if let Some(at) = g.next_wake(self.doorbell_pending()) {
                next = Some(next.map_or(at, |n| n.min(at)));
            }
        }
        next
    }

    fn charged(&self) -> Ns {
        let kernel: Ns = self
            .vms
            .iter()
            .filter_map(|s| s.binding.kernel.as_ref().map(|k| k.charged()))
            .sum();
        let governor: Ns = self.governor.as_ref().map_or(0, |g| g.burn());
        self.station.charged() + kernel + governor
    }

    fn cpu_mode(&self) -> CpuMode {
        if self.governor.is_some() {
            // The governor self-charges its spin/yield burn into
            // `charged` and parked time is free, so the executor should
            // add nothing of its own.
            CpuMode::EventDriven
        } else {
            CpuMode::Adaptive {
                idle_timeout: self.cost.adaptive_idle_timeout,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_counter_has_one_metric_and_merges() {
        let mut one = RouterStats::default();
        for (i, m) in Metric::ALL.into_iter().enumerate() {
            if let Some(c) = one.counter_mut(m) {
                *c = i as u64 + 1;
            }
        }
        assert!(
            !format!("{one:?}").contains(": 0"),
            "a counter has no metric: {one:?}"
        );
        let mut sum = one;
        sum.merge(&one);
        for m in Metric::ALL {
            let doubled = one.counter_mut(m).map(|c| *c * 2);
            assert_eq!(sum.counter_mut(m).copied(), doubled, "{m:?}");
        }
    }
}
