//! Sharded-datapath integration: per-queue FIFO completion order, batched
//! CQ posting with doorbell coalescing, cross-shard exactly-once delivery
//! under seeded chaos, and queue-pair fairness under flood.
//!
//! Like `chaos.rs`, the `CHAOS_SEED` environment variable appends an extra
//! seed to the fixed matrix so CI can sweep seeds without recompiling.

use nvmetro::core::classify::{verdict_bits, Classifier, NativeClassifier, RequestCtx, Verdict};
use nvmetro::core::engine::{EngineVm, QueueBinding, RouterBuilder};
use nvmetro::core::{partition_offset_program, passthrough_program, Partition, RecoveryConfig};
use nvmetro::device::{CompletionMode, SimSsd, SsdConfig};
use nvmetro::faults::{CmdClass, FaultAction, FaultPlan, FaultRule, FaultSite};
use nvmetro::mem::GuestMemory;
use nvmetro::nvme::{CqConsumer, CqPair, SqPair, SqProducer, SubmissionEntry};
use nvmetro::sim::cost::CostModel;
use nvmetro::sim::{Actor, Executor, Ns, Progress, MS, US};
use nvmetro::telemetry::{Metric, Telemetry};
use std::sync::Arc;

/// Everything to the fast path.
struct AlwaysFast;
impl NativeClassifier for AlwaysFast {
    fn classify(&mut self, _ctx: &mut RequestCtx) -> Verdict {
        Verdict(verdict_bits::SEND_HQ | verdict_bits::WILL_COMPLETE_HQ)
    }
}

/// A deterministic cost model: no device jitter, so equal-size commands
/// complete in submission order.
fn deterministic_cost() -> CostModel {
    CostModel {
        ssd_jitter: 0.0,
        ..Default::default()
    }
}

/// Builds an engine over `queue_pairs` fast-path queue groups on one VM,
/// returning the guest-side ends of each pair.
#[allow(clippy::type_complexity)]
fn build_sharded_rig(
    shards: usize,
    queue_pairs: usize,
    cost: CostModel,
    faults: FaultPlan,
    recovery: Option<RecoveryConfig>,
    telemetry: &Telemetry,
) -> (Executor, SimSsd, Vec<(SqProducer, CqConsumer)>) {
    let ssd = SimSsd::new(
        "ssd",
        SsdConfig {
            capacity_lbas: 1 << 20,
            cost: cost.clone(),
            move_data: false,
            seed: 11,
            faults,
            ..Default::default()
        },
    );
    let mut ssd = ssd;
    let mem = Arc::new(GuestMemory::new(1 << 20));
    let mut guest_ends = Vec::new();
    let mut queues = Vec::new();
    for _ in 0..queue_pairs {
        let (vsq_p, vsq_c) = SqPair::new(256);
        let (vcq_p, vcq_c) = CqPair::new(256);
        let (hsq_p, hsq_c) = SqPair::new(256);
        let (hcq_p, hcq_c) = CqPair::new(256);
        ssd.add_queue(hsq_c, hcq_p, mem.clone(), CompletionMode::Polled);
        queues.push(QueueBinding {
            vsqs: vec![vsq_c],
            vcqs: vec![vcq_p],
            hsq: hsq_p,
            hcq: hcq_c,
            kernel: None,
            notify: None,
            classifier: Classifier::Native(Box::new(AlwaysFast)),
        });
        guest_ends.push((vsq_p, vcq_c));
    }
    let mut builder = RouterBuilder::new("router")
        .cost(cost)
        .shards(shards)
        .table_capacity(2048)
        .telemetry(telemetry)
        .vm(EngineVm {
            vm_id: 0,
            mem,
            partition: Partition::whole(1 << 20),
            queues,
        });
    if let Some(cfg) = recovery {
        builder = builder.recovery(cfg);
    }
    let mut ex = Executor::new();
    builder.build().run_virtual(&mut ex);
    (ex, ssd, guest_ends)
}

#[test]
fn completions_stay_fifo_within_each_queue_pair() {
    // Two queue pairs on two shards, zero device jitter, equal-size reads:
    // each pair's completions must come back in submission order even
    // though the shards interleave on the device.
    const N: u16 = 64;
    let telemetry = Telemetry::disabled();
    let (mut ex, ssd, guest_ends) = build_sharded_rig(
        2,
        2,
        deterministic_cost(),
        FaultPlan::none(),
        None,
        &telemetry,
    );
    for (qp, (sq, _)) in guest_ends.iter().enumerate() {
        for i in 0..N {
            let mut cmd = SubmissionEntry::read(1, (qp as u64 * 4096) + i as u64 * 8, 8, 0x1000, 0);
            cmd.cid = i;
            sq.push(cmd).unwrap();
        }
    }
    ex.add(Box::new(ssd));
    ex.run(u64::MAX);
    for (qp, (_, cq)) in guest_ends.iter().enumerate() {
        let mut cids = Vec::new();
        while let Some(cqe) = cq.pop() {
            assert!(!cqe.status().is_error());
            cids.push(cqe.cid);
        }
        let expected: Vec<u16> = (0..N).collect();
        assert_eq!(cids, expected, "queue pair {qp} reordered completions");
    }
}

#[test]
fn cq_batches_coalesce_doorbells_under_coarse_polling() {
    // Drive the shard by hand at coarse time steps so completions pile up
    // in the HCQ between router visits: the router must post them as
    // batches with ONE notify per drained batch, not one per entry.
    const N: u16 = 64;
    let telemetry = Telemetry::enabled();
    let cost = deterministic_cost();
    let mut ssd = SimSsd::new(
        "ssd",
        SsdConfig {
            capacity_lbas: 1 << 20,
            cost: cost.clone(),
            move_data: false,
            seed: 3,
            ..Default::default()
        },
    );
    let mem = Arc::new(GuestMemory::new(1 << 20));
    let (vsq_p, vsq_c) = SqPair::new(256);
    let (vcq_p, vcq_c) = CqPair::new(256);
    let (hsq_p, hsq_c) = SqPair::new(256);
    let (hcq_p, hcq_c) = CqPair::new(256);
    ssd.add_queue(hsq_c, hcq_p, mem.clone(), CompletionMode::Polled);
    let engine = RouterBuilder::new("router")
        .cost(cost)
        .table_capacity(256)
        .telemetry(&telemetry)
        .vm(EngineVm {
            vm_id: 0,
            mem,
            partition: Partition::whole(1 << 20),
            queues: vec![QueueBinding {
                vsqs: vec![vsq_c],
                vcqs: vec![vcq_p],
                hsq: hsq_p,
                hcq: hcq_c,
                kernel: None,
                notify: None,
                classifier: Classifier::Bpf(passthrough_program()),
            }],
        })
        .build();
    let mut router = engine.into_shards().pop().unwrap();
    let batch = router.batch() as u64;

    for i in 0..N {
        let mut cmd = SubmissionEntry::read(1, i as u64 * 8, 8, 0x1000, 0);
        cmd.cid = i;
        vsq_p.push(cmd).unwrap();
    }
    let mut done = 0u64;
    let mut now: Ns = 0;
    while done < N as u64 && now < 100 * MS {
        // Coarse steps: 20 us per visit, far above per-command costs, so
        // many completions accumulate between router polls.
        router.poll(now);
        ssd.poll(now);
        while vcq_c.pop().is_some() {
            done += 1;
        }
        now += 20 * US;
    }
    assert_eq!(done, N as u64, "all reads must complete");

    let snap = telemetry.snapshot();
    let batches = snap.get(Metric::CqBatches);
    let notifies = snap.get(Metric::CqNotifies);
    assert_eq!(snap.get(Metric::Completed), N as u64);
    assert!(
        notifies <= batches,
        "one queue pair: at most one notify per flushed batch ({notifies} > {batches})"
    );
    assert!(
        notifies < N as u64,
        "coalescing must beat one doorbell per completion ({notifies} for {N})"
    );
    // Each flush drains at most `batch` entries, so the batch count is
    // bounded below by completions/batch — and notifies by construction.
    assert!(batches >= N as u64 / batch);
}

#[test]
fn classifier_memo_ceiling_may_be_huge() {
    // The memo capacity is a ceiling, not an allocation: an engine-wide
    // `classifier_memo(usize::MAX)` (or 2^40) must neither overflow the
    // power-of-two rounding nor try to allocate the table up front.
    const N: u16 = 64;
    for capacity in [usize::MAX, 1 << 40] {
        let cost = deterministic_cost();
        let mut ssd = SimSsd::new(
            "ssd",
            SsdConfig {
                capacity_lbas: 1 << 20,
                cost: cost.clone(),
                move_data: false,
                seed: 5,
                ..Default::default()
            },
        );
        let mem = Arc::new(GuestMemory::new(1 << 20));
        let (vsq_p, vsq_c) = SqPair::new(256);
        let (vcq_p, vcq_c) = CqPair::new(256);
        let (hsq_p, hsq_c) = SqPair::new(256);
        let (hcq_p, hcq_c) = CqPair::new(256);
        ssd.add_queue(hsq_c, hcq_p, mem.clone(), CompletionMode::Polled);
        let engine = RouterBuilder::new("router")
            .cost(cost)
            .table_capacity(256)
            .classifier_memo(capacity)
            .vm(EngineVm {
                vm_id: 0,
                mem,
                partition: Partition::whole(1 << 20),
                queues: vec![QueueBinding {
                    vsqs: vec![vsq_c],
                    vcqs: vec![vcq_p],
                    hsq: hsq_p,
                    hcq: hcq_c,
                    kernel: None,
                    notify: None,
                    classifier: Classifier::Bpf(partition_offset_program(4096, 1 << 16)),
                }],
            })
            .build();
        let mut router = engine.into_shards().pop().unwrap();
        // Two passes over the same 32 LBAs: the second pass hits.
        for i in 0..N {
            let mut cmd = SubmissionEntry::read(1, (i as u64 % 32) * 8, 8, 0x1000, 0);
            cmd.cid = i;
            vsq_p.push(cmd).unwrap();
        }
        let mut done = 0u64;
        let mut now: Ns = 0;
        while done < N as u64 && now < 100 * MS {
            router.poll(now);
            ssd.poll(now);
            while let Some(cqe) = vcq_c.pop() {
                assert!(!cqe.status().is_error(), "capacity {capacity}");
                done += 1;
            }
            now += 5 * US;
        }
        assert_eq!(done, N as u64, "capacity {capacity}: all reads complete");
        let stats = router.classifier_mut(0).bpf_vm_mut().unwrap().memo_stats();
        assert_eq!(stats.hits + stats.misses, N as u64);
        // Each second-pass miss needs an eviction of its key since the
        // first pass.
        assert!(
            stats.hits > 0 && stats.hits + stats.evictions >= 32,
            "capacity {capacity}: {stats:?}"
        );
    }
}

/// The fixed seed matrix plus an optional `CHAOS_SEED` from the env.
fn seeds() -> Vec<u64> {
    let mut s = vec![0x00C0_FFEE, 0x00BE_EF01, 0x005E_ED42];
    if let Ok(v) = std::env::var("CHAOS_SEED") {
        if let Ok(n) = v.trim().parse::<u64>() {
            s.push(n);
        }
    }
    s
}

#[test]
fn chaos_exactly_once_across_shard_counts() {
    // Seeded device faults (drops, media errors, stalls) against 4 queue
    // pairs at 1 and 4 shards: every command must be answered exactly once
    // per queue pair with a valid status, and dropped completions must be
    // recovered by the per-shard deadline/retry machinery.
    const N: u16 = 40;
    for seed in seeds() {
        for shards in [1usize, 4] {
            let telemetry = Telemetry::enabled();
            let plan = FaultPlan::new(seed)
                .rule(
                    FaultRule::new(FaultSite::Device, FaultAction::DropCompletion)
                        .classes(CmdClass::Read.bit())
                        .max_hits(2),
                )
                .rule(
                    FaultRule::new(FaultSite::Device, FaultAction::MediaError { dnr: false })
                        .classes(CmdClass::Read.bit())
                        .probability(0.1),
                )
                .rule(
                    FaultRule::new(FaultSite::Device, FaultAction::Stall(150 * US))
                        .classes(CmdClass::Read.bit())
                        .probability(0.1),
                );
            let (mut ex, ssd, guest_ends) = build_sharded_rig(
                shards,
                4,
                deterministic_cost(),
                plan,
                Some(RecoveryConfig {
                    cmd_timeout: 20 * MS,
                    max_retries: 4,
                    backoff_base: 20 * US,
                    backoff_max: 200 * US,
                    // High threshold: no kernel path to fail over to, so
                    // keep the breakers out of this test's way.
                    breaker_threshold: 1_000,
                    breaker_cooldown: 2 * MS,
                    zombie_linger: 5 * MS,
                }),
                &telemetry,
            );
            for (qp, (sq, _)) in guest_ends.iter().enumerate() {
                for i in 0..N {
                    let mut cmd =
                        SubmissionEntry::read(1, (qp as u64 * 8192) + i as u64 * 8, 8, 0x1000, 0);
                    cmd.cid = i;
                    sq.push(cmd).unwrap();
                }
            }
            ex.add(Box::new(ssd));
            ex.run(u64::MAX);

            for (qp, (_, cq)) in guest_ends.iter().enumerate() {
                let mut counts = std::collections::HashMap::new();
                while let Some(cqe) = cq.pop() {
                    *counts.entry(cqe.cid).or_insert(0u32) += 1;
                }
                assert_eq!(
                    counts.len(),
                    N as usize,
                    "seed {seed:#x} shards {shards}: queue pair {qp} must answer every cid"
                );
                for (cid, n) in counts {
                    assert_eq!(
                        n, 1,
                        "seed {seed:#x} shards {shards}: qp {qp} cid {cid} answered {n} times"
                    );
                }
            }
            let snap = telemetry.snapshot();
            assert_eq!(
                snap.get(Metric::Completed),
                4 * N as u64,
                "seed {seed:#x} shards {shards}"
            );
            assert!(
                snap.get(Metric::Aborts) >= 2,
                "seed {seed:#x} shards {shards}: dropped completions need deadline aborts"
            );
            assert!(
                snap.get(Metric::Retries) >= 2,
                "seed {seed:#x} shards {shards}: aborted attempts must be retried"
            );
        }
    }
}

/// Closed-loop flooder: keeps `qd` reads outstanding until `deadline`.
struct Flooder {
    sq: SqProducer,
    cq: CqConsumer,
    qd: usize,
    outstanding: usize,
    deadline: Ns,
    next_cid: u16,
    completed: u64,
}

impl Actor for Flooder {
    fn name(&self) -> &str {
        "flooder"
    }
    fn poll(&mut self, now: Ns) -> Progress {
        let mut progressed = false;
        while let Some(_cqe) = self.cq.pop() {
            self.outstanding -= 1;
            self.completed += 1;
            progressed = true;
        }
        if now < self.deadline {
            while self.outstanding < self.qd {
                let mut cmd = SubmissionEntry::read(1, 0, 8, 0x1000, 0);
                cmd.cid = self.next_cid;
                if self.sq.push(cmd).is_err() {
                    break;
                }
                self.next_cid = self.next_cid.wrapping_add(1);
                self.outstanding += 1;
                progressed = true;
            }
        }
        if progressed {
            Progress::Busy
        } else {
            Progress::Idle
        }
    }
    fn next_event(&self) -> Option<Ns> {
        None
    }
}

/// QD-1 probe: submits the next read only after the previous completed,
/// recording each round-trip latency.
struct Probe {
    sq: SqProducer,
    cq: CqConsumer,
    remaining: u32,
    in_flight: bool,
    submitted_at: Ns,
    latencies: Vec<Ns>,
}

impl Actor for Probe {
    fn name(&self) -> &str {
        "probe"
    }
    fn poll(&mut self, now: Ns) -> Progress {
        let mut progressed = false;
        if self.in_flight {
            if let Some(_cqe) = self.cq.pop() {
                self.latencies.push(now - self.submitted_at);
                self.in_flight = false;
                progressed = true;
            }
        }
        if !self.in_flight && self.remaining > 0 {
            let mut cmd = SubmissionEntry::read(1, 4096, 8, 0x1000, 0);
            cmd.cid = self.remaining as u16;
            self.sq.push(cmd).unwrap();
            self.submitted_at = now;
            self.in_flight = true;
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
        None
    }
}

#[test]
fn flooded_queue_pair_does_not_starve_its_neighbor() {
    // One shard, two queue pairs: pair 0 keeps 128 reads outstanding, pair
    // 1 runs QD-1 probes. Bounded per-queue batch draining must keep the
    // probe's round trips near the uncontended service time instead of
    // letting the flooder monopolize the shard. Driven by hand so the
    // probe's latency record stays accessible after the run.
    let telemetry = Telemetry::disabled();
    let mut cost = deterministic_cost();
    // A fast device so the shard is the contended resource.
    cost.ssd_channels = 64;
    cost.ssd_read_lat = 5_000;
    cost.ssd_cmd_overhead = 150;
    let (mut router, mut ssd, mut guest_ends) = build_sharded_rig_manual(1, 2, cost, &telemetry);
    let (probe_sq, probe_cq) = guest_ends.pop().unwrap();
    let (flood_sq, flood_cq) = guest_ends.pop().unwrap();
    let mut flooder = Flooder {
        sq: flood_sq,
        cq: flood_cq,
        qd: 128,
        outstanding: 0,
        deadline: 20 * MS,
        next_cid: 0,
        completed: 0,
    };
    let mut probe = Probe {
        sq: probe_sq,
        cq: probe_cq,
        remaining: 200,
        in_flight: false,
        submitted_at: 0,
        latencies: Vec::new(),
    };
    let mut now: Ns = 0;
    while probe.latencies.len() < 200 && now < 100 * MS {
        flooder.poll(now);
        probe.poll(now);
        router.poll(now);
        ssd.poll(now);
        now += 500;
    }
    assert_eq!(
        probe.latencies.len(),
        200,
        "probe starved: only {} round trips",
        probe.latencies.len()
    );
    let max = *probe.latencies.iter().max().unwrap();
    // Bounded per-queue draining admits the probe within one batch of the
    // flood, so its worst round trip is capped by the shard's in-service
    // backlog (~128 commands, a few hundred us). A starved queue pair
    // would instead wait out the flooder's whole 20 ms submission window.
    assert!(
        max < MS,
        "probe round trip {max}ns suggests the flooder starved the queue pair"
    );
    assert!(flooder.completed > 1_000, "flooder must actually flood");
}

/// Manual-polling variant of the rig builder: returns the single shard
/// instead of an executor.
fn build_sharded_rig_manual(
    shards: usize,
    queue_pairs: usize,
    cost: CostModel,
    telemetry: &Telemetry,
) -> (nvmetro::core::Router, SimSsd, Vec<(SqProducer, CqConsumer)>) {
    assert_eq!(shards, 1);
    let mut ssd = SimSsd::new(
        "ssd",
        SsdConfig {
            capacity_lbas: 1 << 20,
            cost: cost.clone(),
            move_data: false,
            seed: 11,
            ..Default::default()
        },
    );
    let mem = Arc::new(GuestMemory::new(1 << 20));
    let mut guest_ends = Vec::new();
    let mut queues = Vec::new();
    for _ in 0..queue_pairs {
        let (vsq_p, vsq_c) = SqPair::new(256);
        let (vcq_p, vcq_c) = CqPair::new(256);
        let (hsq_p, hsq_c) = SqPair::new(256);
        let (hcq_p, hcq_c) = CqPair::new(256);
        ssd.add_queue(hsq_c, hcq_p, mem.clone(), CompletionMode::Polled);
        queues.push(QueueBinding {
            vsqs: vec![vsq_c],
            vcqs: vec![vcq_p],
            hsq: hsq_p,
            hcq: hcq_c,
            kernel: None,
            notify: None,
            classifier: Classifier::Native(Box::new(AlwaysFast)),
        });
        guest_ends.push((vsq_p, vcq_c));
    }
    let engine = RouterBuilder::new("router")
        .cost(cost)
        .shards(shards)
        .table_capacity(2048)
        .telemetry(telemetry)
        .vm(EngineVm {
            vm_id: 0,
            mem,
            partition: Partition::whole(1 << 20),
            queues,
        })
        .build();
    let router = engine.into_shards().pop().unwrap();
    (router, ssd, guest_ends)
}
