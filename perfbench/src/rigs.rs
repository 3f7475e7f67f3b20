//! The three benchmark workloads, each built as one virtual-time rig.
//!
//! * `fastpath_randread` — 4 VMs × 1 queue pair at QD 32, closed loop
//!   with a 1 µs mean think time, 4 KiB uniform random reads through the
//!   Fig. 5 partition-offset classifier on 4 router shards and a fast
//!   device.
//! * `fleet_hotset` — 1024 single-queue tenants on 4 shards with the
//!   fleet scheduler, read coalescing and the stall watchdog; open loop
//!   at a fixed offered rate split Zipf(1.1), bounded-Pareto gaps, half
//!   the reads on a 64-slot shared hot set, a slow many-channel device
//!   at about 80% load.
//! * `encrypt_randrw` — 1 VM × 4 queue pairs at QD 8, closed loop, 4 KiB
//!   random 50/50 read/write through the encryptor classifier and
//!   `EncryptorUif` with real XTS-AES-256, moving real bytes.
//!
//! Actors are registered in the same order whether or not the run is
//! traced, so the traced run replays the untraced one exactly.

use crate::load::{ClosedLoop, Ledger, OpenLoop, Pattern, ReadMix, SharedLedger};
use crate::rng::{derive, zipf_weights, ParetoGaps, Rng};
use crate::trace::{TimedUif, Tracer, WorkTimes, PERIOD};
use nvmetro_core::classify::Classifier;
use nvmetro_core::engine::{EngineVm, QueueBinding, RouterBuilder};
use nvmetro_core::router::NotifyBinding;
use nvmetro_core::uif::{Uif, UifRunner};
use nvmetro_core::{partition_offset_program, passthrough_program, Partition};
use nvmetro_crypto::Xts;
use nvmetro_device::{BlockStore, CompletionMode, SimSsd, SsdConfig};
use nvmetro_fleet::{CoalesceConfig, FleetConfig};
use nvmetro_functions::{build_encryptor_classifier, CryptoBackend, EncryptorUif};
use nvmetro_insight::{HealthLog, StallWatchdog, WatchdogConfig};
use nvmetro_mem::GuestMemory;
use nvmetro_nvme::{CqPair, SqPair, Status, SubmissionEntry};
use nvmetro_sim::cost::CostModel;
use nvmetro_sim::{Actor, Executor, MS, SEC, US};
use nvmetro_telemetry::{Telemetry, TelemetryConfig};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Workload names, as given to `--workload`.
pub const WORKLOADS: [&str; 3] = ["fastpath_randread", "fleet_hotset", "encrypt_randrw"];

/// 4 KiB in 512 B blocks.
const NLB: u32 = 8;
const QUEUE_DEPTH: usize = 256;

// fastpath_randread
const FP_VMS: u64 = 4;
const FP_QD: usize = 32;
const FP_IOS_PER_VM: u64 = 40_000;
const FP_PART_LBAS: u64 = 1 << 20;
/// Guest think time between a completion and the next submission on
/// that slot (mean, exponential).
const FP_THINK_NS: f64 = 1_000.0;

// fleet_hotset
const FL_TENANTS: usize = 1024;
const FL_SHARDS: usize = 4;
/// Offered rate over all tenants: about 80% of what the device below can
/// serve without coalescing (64 channels / 150 µs ≈ 426k IOPS).
const FL_OFFERED_IOPS: f64 = 340_000.0;
const FL_THETA: f64 = 1.1;
const FL_PARETO_SHAPE: f64 = 2.0;
const FL_PARETO_RATIO: f64 = 100.0;
const FL_LOAD_WINDOW: u64 = 12 * MS;
const FL_CAP: usize = 128;
const FL_HOT_SLOTS: u64 = 64;
const FL_HOT_FRACTION: f64 = 0.5;
const FL_PRIVATE_SLOTS: u64 = 64;

// encrypt_randrw
const EN_QUEUES: usize = 4;
const EN_QD: usize = 8;
const EN_IOS_PER_QUEUE: u64 = 1_000;
const EN_PART_OFFSET: u64 = 4096;
const EN_BLOCKS: u64 = 512;
const EN_DISK_SAMPLES: usize = 32;

/// A built rig, ready to run.
pub struct Rig {
    pub ex: Executor,
    pub telemetry: Telemetry,
    pub ledgers: Vec<SharedLedger>,
    pub kind: Kind,
}

/// Workload-specific handles the harness reads after the run.
pub enum Kind {
    Fastpath,
    Fleet {
        weights: Vec<f64>,
        health: HealthLog,
    },
    Encrypt {
        state: Rc<RefCell<CryptState>>,
        store: Arc<BlockStore>,
        key: Vec<u8>,
        work: Option<Arc<WorkTimes>>,
    },
}

/// Registers `actor`, wrapped under `layer` when the run is traced.
fn add(ex: &mut Executor, tracer: Option<&Rc<Tracer>>, layer: &'static str, actor: Box<dyn Actor>) {
    ex.add(match tracer {
        Some(t) => t.wrap(layer, PERIOD, actor),
        None => actor,
    })
}

fn new_ledger(capture: bool) -> SharedLedger {
    let ledger = Ledger {
        captured: capture.then(Vec::new),
        ..Ledger::default()
    };
    Rc::new(RefCell::new(ledger))
}

pub fn build(workload: &str, seed: u64, tracer: Option<&Rc<Tracer>>) -> Rig {
    match workload {
        "fastpath_randread" => fastpath(seed, tracer),
        "fleet_hotset" => fleet(seed, tracer),
        "encrypt_randrw" => encrypt(seed, tracer),
        other => panic!("unknown workload {other}"),
    }
}

/// The fast device of the sharding smoke: 64 channels, 5 µs reads, so
/// the router rather than the flash sets the pace. Unlike the smoke it
/// keeps the model's default service-time jitter: without it every read
/// takes the same time and the modeled results do not depend on the seed.
fn fast_device_cost() -> CostModel {
    CostModel {
        ssd_channels: 64,
        ssd_read_lat: 5_000,
        ssd_cmd_overhead: 150,
        ssd_cmd_overhead_write: 300,
        ..Default::default()
    }
}

/// Uniform 4 KiB random reads over one partition.
struct RandRead {
    rng: Rng,
    blocks: u64,
}

impl Pattern for RandRead {
    fn next(&mut self, _slot: u16) -> SubmissionEntry {
        let b = self.rng.below(self.blocks);
        SubmissionEntry::read(1, b * NLB as u64, NLB, 0x1000, 0)
    }

    fn done(&mut self, _slot: u16, _cmd: &SubmissionEntry, _status: Status) -> Option<String> {
        None
    }
}

/// Classifier of fastpath VM `vm` (also built for the replay).
pub fn fastpath_classifier(vm: u64) -> Classifier {
    Classifier::Bpf(partition_offset_program(vm * FP_PART_LBAS, FP_PART_LBAS))
}

fn fastpath(seed: u64, tracer: Option<&Rc<Tracer>>) -> Rig {
    let telemetry = Telemetry::enabled();
    let cost = fast_device_cost();
    let mut ssd = SimSsd::new(
        "ssd",
        SsdConfig {
            capacity_lbas: FP_VMS * FP_PART_LBAS,
            cost: cost.clone(),
            move_data: false,
            seed: derive(seed, 1),
            ..Default::default()
        },
    );
    ssd.attach_telemetry(telemetry.register_worker_named("ssd"));
    let mut ex = Executor::new();
    let mut builder = RouterBuilder::new("router")
        .cost(cost)
        .shards(FP_VMS as usize)
        .table_capacity(4096)
        .telemetry(&telemetry);
    let mut ledgers = Vec::new();
    for vm in 0..FP_VMS {
        let mem = Arc::new(GuestMemory::new(1 << 20));
        let (vsq_p, vsq_c) = SqPair::new(QUEUE_DEPTH);
        let (vcq_p, vcq_c) = CqPair::new(QUEUE_DEPTH);
        let (hsq_p, hsq_c) = SqPair::new(QUEUE_DEPTH);
        let (hcq_p, hcq_c) = CqPair::new(QUEUE_DEPTH);
        ssd.add_queue(hsq_c, hcq_p, mem.clone(), CompletionMode::Polled);
        builder = builder.vm(EngineVm {
            vm_id: vm as u32,
            mem,
            partition: Partition {
                lba_offset: vm * FP_PART_LBAS,
                lba_count: FP_PART_LBAS,
            },
            queues: vec![QueueBinding {
                vsqs: vec![vsq_c],
                vcqs: vec![vcq_p],
                hsq: hsq_p,
                hcq: hcq_c,
                kernel: None,
                notify: None,
                classifier: fastpath_classifier(vm),
            }],
        });
        let ledger = new_ledger(tracer.is_some());
        let pattern = RandRead {
            rng: Rng::new(derive(seed, 100 + vm)),
            blocks: FP_PART_LBAS / NLB as u64,
        };
        let gen = ClosedLoop::new(
            format!("load-{vm}"),
            (vsq_p, vcq_c),
            FP_QD,
            FP_IOS_PER_VM,
            FP_THINK_NS,
            Rng::new(derive(seed, 200 + vm)),
            pattern,
            ledger.clone(),
        );
        ledgers.push(ledger);
        add(&mut ex, tracer, "bench.load", Box::new(gen));
    }
    for shard in builder.build().into_shards() {
        add(&mut ex, tracer, "core.router", Box::new(shard));
    }
    add(&mut ex, tracer, "device.ssd", Box::new(ssd));
    Rig {
        ex,
        telemetry,
        ledgers,
        kind: Kind::Fastpath,
    }
}

fn fleet(seed: u64, tracer: Option<&Rc<Tracer>>) -> Rig {
    let telemetry = Telemetry::with_config(TelemetryConfig {
        trace_capacity: 1 << 16,
    });
    let cost = CostModel {
        ssd_channels: 64,
        ssd_read_lat: 150_000,
        ssd_cmd_overhead: 150,
        ssd_cmd_overhead_write: 300,
        ..Default::default()
    };
    let capacity = (FL_HOT_SLOTS + FL_TENANTS as u64 * FL_PRIVATE_SLOTS + 16) * NLB as u64;
    let mut ssd = SimSsd::new(
        "ssd",
        SsdConfig {
            capacity_lbas: capacity,
            cost: cost.clone(),
            move_data: false,
            seed: derive(seed, 1),
            ..Default::default()
        },
    );
    ssd.attach_telemetry(telemetry.register_worker_named("ssd"));
    let mem = Arc::new(GuestMemory::new(1 << 20));

    // Zipf rate split in rank order: tenant t (on shard t % 4) has rank
    // t, so the heavy tenants spread evenly over the shards and the seed
    // changes the arrivals, not the shard balance.
    let weights = zipf_weights(FL_TENANTS, FL_THETA);

    let mut ex = Executor::new();
    let mut builder = RouterBuilder::new("router")
        .cost(cost)
        .shards(FL_SHARDS)
        .table_capacity(4096)
        .telemetry(&telemetry)
        .fleet(FleetConfig::default())
        .coalesce(CoalesceConfig::default());
    let mut ledgers = Vec::with_capacity(FL_TENANTS);
    for (tenant, &w) in weights.iter().enumerate() {
        let (vsq_p, vsq_c) = SqPair::new(QUEUE_DEPTH);
        let (vcq_p, vcq_c) = CqPair::new(QUEUE_DEPTH);
        let (hsq_p, hsq_c) = SqPair::new(QUEUE_DEPTH);
        let (hcq_p, hcq_c) = CqPair::new(QUEUE_DEPTH);
        ssd.add_queue(hsq_c, hcq_p, mem.clone(), CompletionMode::Polled);
        builder = builder.vm(EngineVm {
            vm_id: tenant as u32,
            mem: mem.clone(),
            // The hot set is a shared read-only base image, so every
            // tenant sees the whole namespace.
            partition: Partition::whole(capacity),
            queues: vec![QueueBinding {
                vsqs: vec![vsq_c],
                vcqs: vec![vcq_p],
                hsq: hsq_p,
                hcq: hcq_c,
                kernel: None,
                notify: None,
                classifier: Classifier::Bpf(passthrough_program()),
            }],
        });
        let ledger = new_ledger(tracer.is_some());
        let mean_gap = SEC as f64 / (FL_OFFERED_IOPS * w);
        let gen = OpenLoop::new(
            format!("tenant-{tenant}"),
            (vsq_p, vcq_c),
            FL_CAP,
            ParetoGaps::with_mean(mean_gap, FL_PARETO_SHAPE, FL_PARETO_RATIO),
            Rng::new(derive(seed, 1000 + tenant as u64)),
            FL_LOAD_WINDOW,
            ReadMix {
                nlb: NLB,
                hot_slots: FL_HOT_SLOTS,
                hot_fraction: FL_HOT_FRACTION,
                private_base: FL_HOT_SLOTS + tenant as u64 * FL_PRIVATE_SLOTS,
                private_slots: FL_PRIVATE_SLOTS,
            },
            ledger.clone(),
        );
        ledgers.push(ledger);
        add(&mut ex, tracer, "bench.load", Box::new(gen));
    }
    for shard in builder.build().into_shards() {
        add(&mut ex, tracer, "core.router", Box::new(shard));
    }
    add(&mut ex, tracer, "device.ssd", Box::new(ssd));
    let (watchdog, health) = StallWatchdog::new(
        &telemetry,
        WatchdogConfig {
            interval: 200 * US,
            keep_spans: true,
            ..Default::default()
        },
    );
    add(&mut ex, tracer, "insight.watchdog", Box::new(watchdog));
    Rig {
        ex,
        telemetry,
        ledgers,
        kind: Kind::Fleet { weights, health },
    }
}

/// Shadow state of the encrypted disk shared by the four queue patterns.
pub struct CryptState {
    seed: u64,
    rng: Rng,
    /// Block has a command in flight (reads and writes to one block never
    /// overlap).
    busy: Vec<bool>,
    /// Last completed write version per block; 0 = not written this run.
    version: Vec<u32>,
    pub checked_reads: u64,
}

impl CryptState {
    /// The plaintext of write number `version` to `block`.
    pub fn plaintext(&self, block: u64, version: u32) -> Vec<u8> {
        let mut buf = vec![0u8; NLB as usize * 512];
        Rng::new(derive(self.seed, (block << 32) | version as u64)).fill(&mut buf);
        buf
    }

    /// Blocks written in the run, with their last version.
    pub fn written(&self) -> Vec<(u64, u32)> {
        (0..EN_BLOCKS)
            .filter(|&b| self.version[b as usize] > 0)
            .map(|b| (b, self.version[b as usize]))
            .collect()
    }
}

/// Guest LBA of working-set block `b` (partition-relative).
fn en_lba(b: u64) -> u64 {
    b * NLB as u64
}

/// One queue's 50/50 read/write stream over the shared working set.
struct CryptPattern {
    state: Rc<RefCell<CryptState>>,
    mem: Arc<GuestMemory>,
    /// Guest buffer of each command slot.
    bufs: Vec<u64>,
    /// Block and (for writes) version of each slot's command.
    inflight: Vec<(u64, Option<u32>)>,
}

impl Pattern for CryptPattern {
    fn next(&mut self, slot: u16) -> SubmissionEntry {
        let mut st = self.state.borrow_mut();
        let block = loop {
            let b = st.rng.below(EN_BLOCKS);
            if !st.busy[b as usize] {
                break b;
            }
        };
        st.busy[block as usize] = true;
        let gpa = self.bufs[slot as usize];
        let lba = en_lba(block);
        if st.rng.chance(0.5) {
            let v = st.version[block as usize] + 1;
            self.mem.write(gpa, &st.plaintext(block, v));
            self.inflight[slot as usize] = (block, Some(v));
            SubmissionEntry::write(1, lba, NLB, gpa, 0)
        } else {
            // Poison the buffer so a read that delivers nothing is caught.
            self.mem.write(gpa, &[0xA5; NLB as usize * 512]);
            self.inflight[slot as usize] = (block, None);
            SubmissionEntry::read(1, lba, NLB, gpa, 0)
        }
    }

    fn done(&mut self, slot: u16, cmd: &SubmissionEntry, status: Status) -> Option<String> {
        let mut st = self.state.borrow_mut();
        let (block, write) = self.inflight[slot as usize];
        st.busy[block as usize] = false;
        if status.is_error() {
            return None;
        }
        if let Some(v) = write {
            st.version[block as usize] = v;
            return None;
        }
        let v = st.version[block as usize];
        if v == 0 {
            return None;
        }
        st.checked_reads += 1;
        let got = self
            .mem
            .read_vec(self.bufs[slot as usize], NLB as usize * 512);
        (got != st.plaintext(block, v)).then(|| {
            format!(
                "read of block {block} (lba {}) did not return write #{v}",
                cmd.slba()
            )
        })
    }
}

/// The encryptor classifier (also built for the replay).
pub fn encrypt_classifier() -> Classifier {
    Classifier::Bpf(build_encryptor_classifier(EN_PART_OFFSET))
}

/// Physical LBA offset of the encrypted partition.
pub fn encrypt_offset() -> u64 {
    EN_PART_OFFSET
}

fn encrypt(seed: u64, tracer: Option<&Rc<Tracer>>) -> Rig {
    let telemetry = Telemetry::enabled();
    let cost = CostModel::default();
    let mut key = vec![0u8; 64]; // XTS-AES-256
    Rng::new(derive(seed, 3)).fill(&mut key);
    let mut ssd = SimSsd::new(
        "ssd",
        SsdConfig {
            capacity_lbas: EN_PART_OFFSET + EN_BLOCKS * NLB as u64 + 64,
            cost: cost.clone(),
            move_data: true,
            seed: derive(seed, 1),
            ..Default::default()
        },
    );
    ssd.attach_telemetry(telemetry.register_worker_named("ssd"));
    let store = ssd.store();
    let mem = Arc::new(GuestMemory::new(1 << 22));
    let host_mem = Arc::new(GuestMemory::new(1 << 28));

    let (hsq_p, hsq_c) = SqPair::new(QUEUE_DEPTH);
    let (hcq_p, hcq_c) = CqPair::new(QUEUE_DEPTH);
    ssd.add_queue(hsq_c, hcq_p, mem.clone(), CompletionMode::Polled);
    let (bsq_p, bsq_c) = SqPair::new(QUEUE_DEPTH);
    let (bcq_p, bcq_c) = CqPair::new(QUEUE_DEPTH);
    ssd.add_queue(bsq_c, bcq_p, host_mem.clone(), CompletionMode::Polled);
    let (nsq_p, nsq_c) = SqPair::new(QUEUE_DEPTH);
    let (ncq_p, ncq_c) = CqPair::new(QUEUE_DEPTH);

    let crypt = EncryptorUif::new(CryptoBackend::Xts(Box::new(Xts::new(&key))), EN_PART_OFFSET)
        .with_telemetry(telemetry.register_worker_named("encryptor"));
    let (uif, work): (Box<dyn Uif>, _) = match tracer {
        Some(_) => {
            let (timed, times) = TimedUif::new(Box::new(crypt));
            (Box::new(timed), Some(times))
        }
        None => (Box::new(crypt), None),
    };
    let mut runner = UifRunner::new(
        "uif-encryptor",
        cost.clone(),
        nsq_c,
        ncq_p,
        mem.clone(),
        (bsq_p, bcq_c),
        host_mem,
        uif,
        2, // the paper's two crypto workers
        true,
    );
    runner.attach_telemetry(telemetry.register_worker_named("uif"));

    let state = Rc::new(RefCell::new(CryptState {
        seed,
        rng: Rng::new(derive(seed, 4)),
        busy: vec![false; EN_BLOCKS as usize],
        version: vec![0; EN_BLOCKS as usize],
        checked_reads: 0,
    }));
    let mut ex = Executor::new();
    let mut vsqs = Vec::new();
    let mut vcqs = Vec::new();
    let mut ledgers = Vec::new();
    for q in 0..EN_QUEUES {
        let (vsq_p, vsq_c) = SqPair::new(QUEUE_DEPTH);
        let (vcq_p, vcq_c) = CqPair::new(QUEUE_DEPTH);
        vsqs.push(vsq_c);
        vcqs.push(vcq_p);
        let pattern = CryptPattern {
            state: state.clone(),
            mem: mem.clone(),
            bufs: (0..EN_QD).map(|_| mem.alloc(NLB as usize * 512)).collect(),
            inflight: vec![(0, None); EN_QD],
        };
        let ledger = new_ledger(tracer.is_some());
        let gen = ClosedLoop::new(
            format!("load-{q}"),
            (vsq_p, vcq_c),
            EN_QD,
            EN_IOS_PER_QUEUE,
            0.0,
            Rng::new(derive(seed, 200 + q as u64)),
            pattern,
            ledger.clone(),
        );
        ledgers.push(ledger);
        add(&mut ex, tracer, "bench.load", Box::new(gen));
    }
    let engine = RouterBuilder::new("router")
        .cost(cost)
        .table_capacity(1024)
        .telemetry(&telemetry)
        .vm(EngineVm {
            vm_id: 0,
            mem,
            partition: Partition {
                lba_offset: EN_PART_OFFSET,
                lba_count: EN_BLOCKS * NLB as u64,
            },
            queues: vec![QueueBinding {
                vsqs,
                vcqs,
                hsq: hsq_p,
                hcq: hcq_c,
                kernel: None,
                notify: Some(NotifyBinding {
                    nsq: nsq_p,
                    ncq: ncq_c,
                }),
                classifier: encrypt_classifier(),
            }],
        })
        .build();
    for shard in engine.into_shards() {
        add(&mut ex, tracer, "core.router", Box::new(shard));
    }
    match tracer {
        // Every UIF poll is timed: its own time is the poll minus the
        // `Uif::work` time inside it, so both need full coverage.
        Some(t) => ex.add(t.wrap("core.uif", 1, Box::new(runner))),
        None => ex.add(Box::new(runner)),
    }
    add(&mut ex, tracer, "device.ssd", Box::new(ssd));
    Rig {
        ex,
        telemetry,
        ledgers,
        kind: Kind::Encrypt {
            state,
            store,
            key,
            work,
        },
    }
}

/// Checks sampled on-disk blocks: each must be the XTS ciphertext of the
/// last plaintext written to it, and differ from that plaintext.
pub fn check_disk(state: &CryptState, store: &BlockStore, key: &[u8], seed: u64) -> Vec<String> {
    let xts = Xts::new(key);
    let written = state.written();
    let mut rng = Rng::new(derive(seed, 5));
    let mut bad = Vec::new();
    for _ in 0..EN_DISK_SAMPLES.min(written.len()) {
        let (block, v) = written[rng.below(written.len() as u64) as usize];
        let plain = state.plaintext(block, v);
        let on_disk = store.read_vec(EN_PART_OFFSET + en_lba(block), NLB);
        let mut expect = plain.clone();
        xts.encrypt_sectors(en_lba(block), &mut expect);
        if on_disk == plain {
            bad.push(format!("block {block} holds plaintext on disk"));
        } else if on_disk != expect {
            bad.push(format!("block {block} on disk is not XTS(write #{v})"));
        }
    }
    if written.is_empty() {
        bad.push("no block was written".into());
    }
    bad
}
