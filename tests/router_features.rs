//! The router with every optional stage on at once, and the guest
//! completion path under VCQ back-pressure.
//!
//! Other suites turn features on alone or in pairs. Here one engine runs
//! recovery (deadlines, retries, breakers), a faulty device, the fleet
//! scheduler, cross-VM read coalescing and the adaptive poll/batch policy
//! together, over two shards, and must still answer every guest command
//! exactly once. A second rig shrinks the guest VCQ to four entries so
//! that completions park in the router and are replayed on later polls;
//! the guest must still see them exactly once and in order.
//!
//! Like `chaos.rs`, the `CHAOS_SEED` environment variable appends an
//! extra seed to the fixed matrix so CI can sweep seeds.

use nvmetro::core::classify::Classifier;
use nvmetro::core::engine::{EngineVm, QueueBinding, RouterBuilder};
use nvmetro::core::{passthrough_program, EnginePolicy, Partition, RecoveryConfig};
use nvmetro::device::{CompletionMode, SimSsd, SsdConfig};
use nvmetro::faults::{CmdClass, FaultAction, FaultPlan, FaultRule, FaultSite};
use nvmetro::fleet::{CoalesceConfig, FleetConfig};
use nvmetro::mem::GuestMemory;
use nvmetro::nvme::{CqConsumer, CqPair, SqPair, SqProducer, SubmissionEntry};
use nvmetro::sim::cost::CostModel;
use nvmetro::sim::{Actor, Ns, SimRng, MS, US};
use std::sync::Arc;

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

/// One queue group with a `vcq_entries`-deep guest completion queue: rings
/// built, host pair registered on the device, guest ends returned.
fn queue_group(
    ssd: &mut SimSsd,
    mem: &Arc<GuestMemory>,
    vcq_entries: usize,
) -> (QueueBinding, SqProducer, CqConsumer) {
    let (vsq_p, vsq_c) = SqPair::new(256);
    let (vcq_p, vcq_c) = CqPair::new(vcq_entries);
    let (hsq_p, hsq_c) = SqPair::new(256);
    let (hcq_p, hcq_c) = CqPair::new(256);
    ssd.add_queue(hsq_c, hcq_p, mem.clone(), CompletionMode::Polled);
    let binding = QueueBinding {
        vsqs: vec![vsq_c],
        vcqs: vec![vcq_p],
        hsq: hsq_p,
        hcq: hcq_c,
        kernel: None,
        notify: None,
        classifier: Classifier::Bpf(passthrough_program()),
    };
    (binding, vsq_p, vcq_c)
}

/// A closed-loop guest queue: submits `total` reads with CIDs 0, 1, ...
/// at most `qd` at a time and records every CID it is answered with, in
/// arrival order.
struct Driver {
    sq: SqProducer,
    cq: CqConsumer,
    qd: usize,
    total: u16,
    next_cid: u16,
    outstanding: usize,
    rng: SimRng,
    hot_blocks: u64,
    answers: Vec<u16>,
}

impl Driver {
    fn new(sq: SqProducer, cq: CqConsumer, qd: usize, total: u16, seed: u64, hot: u64) -> Self {
        Driver {
            sq,
            cq,
            qd,
            total,
            next_cid: 0,
            outstanding: 0,
            rng: SimRng::new(seed),
            hot_blocks: hot,
            answers: Vec::new(),
        }
    }

    /// Reaps every posted completion.
    fn reap(&mut self) {
        while let Some(cqe) = self.cq.pop() {
            self.outstanding -= 1;
            self.answers.push(cqe.cid);
        }
    }

    /// Submits up to the queue depth. Reads hit one block of the shared
    /// hot set, or sequential 8-block extents when `hot_blocks` is 0.
    fn submit(&mut self) {
        while self.outstanding < self.qd && self.next_cid < self.total {
            let slba = match self.hot_blocks {
                0 => self.next_cid as u64 * 8,
                n => self.rng.below(n),
            };
            let nlb = if self.hot_blocks == 0 { 8 } else { 1 };
            let mut cmd = SubmissionEntry::read(1, slba, nlb, 0x1000, 0);
            cmd.cid = self.next_cid;
            if self.sq.push(cmd).is_err() {
                return;
            }
            self.next_cid += 1;
            self.outstanding += 1;
        }
    }

    fn done(&self) -> bool {
        self.next_cid == self.total && self.outstanding == 0
    }

    /// Every CID in `0..total` answered exactly once, in any order.
    fn assert_exactly_once(&self, who: &str) {
        let mut seen = vec![0u32; self.total as usize];
        for &cid in &self.answers {
            seen[cid as usize] += 1;
        }
        for (cid, &n) in seen.iter().enumerate() {
            assert_eq!(n, 1, "{who}: cid {cid} answered {n} times");
        }
    }
}

#[test]
fn every_optional_stage_at_once_is_exactly_once() {
    const VMS: u32 = 4;
    const GROUPS: usize = 2;
    const READS: u16 = 400;
    for seed in seeds() {
        let plan = FaultPlan::new(seed)
            .rule(
                FaultRule::new(FaultSite::Device, FaultAction::MediaError { dnr: false })
                    .classes(CmdClass::Read.bit())
                    .probability(0.05),
            )
            .rule(
                FaultRule::new(FaultSite::Device, FaultAction::DropCompletion)
                    .classes(CmdClass::Read.bit())
                    .probability(0.01),
            )
            .rule(
                FaultRule::new(FaultSite::Device, FaultAction::Stall(300 * US))
                    .classes(CmdClass::Read.bit())
                    .probability(0.02),
            );
        let capacity_lbas = 1 << 16;
        let mut ssd = SimSsd::new(
            "ssd",
            SsdConfig {
                capacity_lbas,
                cost: CostModel::default(),
                move_data: false,
                seed,
                faults: plan,
                ..Default::default()
            },
        );
        let mem = Arc::new(GuestMemory::new(1 << 20));
        let mut builder = RouterBuilder::new("router")
            .shards(2)
            .recovery(RecoveryConfig::default())
            .fleet(FleetConfig::default())
            .coalesce(CoalesceConfig::default())
            .policy(EnginePolicy::adaptive());
        let mut drivers = Vec::new();
        for vm in 0..VMS {
            let mut queues = Vec::new();
            for g in 0..GROUPS {
                let (binding, sq, cq) = queue_group(&mut ssd, &mem, 256);
                queues.push(binding);
                let qseed = seed ^ ((vm as u64) << 8 | g as u64);
                // Every queue reads the same 16 blocks: heavy duplication,
                // so faults land on coalescing leaders with followers.
                drivers.push(Driver::new(sq, cq, 8, READS, qseed, 16));
            }
            builder = builder.vm(EngineVm {
                vm_id: vm,
                mem: mem.clone(),
                partition: Partition::whole(capacity_lbas),
                queues,
            });
        }
        let mut engine = builder.build();

        let mut now: Ns = 0;
        while now < 2_000 * MS && !drivers.iter().all(Driver::done) {
            for d in drivers.iter_mut() {
                d.reap();
                d.submit();
            }
            engine.poll_all(now);
            ssd.poll(now);
            now += 2 * US;
        }
        for (i, d) in drivers.iter().enumerate() {
            d.assert_exactly_once(&format!("seed {seed:#x} queue {i}"));
        }
        let total = engine.stats().total;
        let submitted = VMS as u64 * GROUPS as u64 * READS as u64;
        assert_eq!(total.accepted, submitted, "seed {seed:#x}");
        assert_eq!(total.completed, total.accepted, "seed {seed:#x}");
        assert!(total.coalesced_reads > 0, "seed {seed:#x}: never coalesced");
        assert_eq!(
            total.coalesce_fanout, total.coalesced_reads,
            "seed {seed:#x}: parked followers must all fan back out"
        );
        assert!(total.retries > 0, "seed {seed:#x}: faults never retried");
        assert_eq!(engine.live_in_flight(), 0, "seed {seed:#x}: residue");
    }
}

#[test]
fn completions_stay_ordered_and_exactly_once_under_vcq_pressure() {
    const READS: u16 = 500;
    let cost = CostModel {
        ssd_channels: 64,
        ssd_jitter: 0.0,
        ..Default::default()
    };
    let mut ssd = SimSsd::new(
        "ssd",
        SsdConfig {
            capacity_lbas: 1 << 20,
            cost: cost.clone(),
            move_data: false,
            seed: 7,
            ..Default::default()
        },
    );
    let mem = Arc::new(GuestMemory::new(1 << 20));
    // A 4-entry VCQ the guest reaps only every 10 µs, fed in bursts of 20
    // reads: each burst overflows the ring, so most of its completions
    // park in the router and go out through the replay phase.
    let (binding, sq, cq) = queue_group(&mut ssd, &mem, 4);
    let mut engine = RouterBuilder::new("router")
        .cost(cost)
        .vm(EngineVm {
            vm_id: 0,
            mem,
            partition: Partition::whole(1 << 20),
            queues: vec![binding],
        })
        .build();
    let mut guest = Driver::new(sq, cq, 20, READS, 0, 0);
    let mut now: Ns = 0;
    let mut next_reap: Ns = 0;
    while now < 100 * MS && !guest.done() {
        if now >= next_reap {
            guest.reap();
            next_reap += 10 * US;
        }
        if guest.outstanding == 0 {
            guest.submit();
        }
        engine.poll_all(now);
        ssd.poll(now);
        now += 5 * US;
    }
    let in_order: Vec<u16> = (0..READS).collect();
    assert_eq!(guest.answers, in_order, "CQEs lost, doubled or reordered");
    let total = engine.stats().total;
    assert_eq!(total.vcq_retry_drops, 0);
    assert!(
        total.cq_notifies > total.cq_batches,
        "replay phase never delivered: {} notifies, {} batches",
        total.cq_notifies,
        total.cq_batches
    );
}
