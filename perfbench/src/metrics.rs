//! One round of a workload, its checks, and the metrics made from rounds.

use crate::rigs::{self, Kind, Rig};
use crate::rng::derive;
use crate::trace::Tracer;
use nvmetro_core::classify::{Classifier, RequestCtx, HOOK_HCQ, HOOK_VSQ};
use nvmetro_core::passthrough_program;
use nvmetro_crypto::Xts;
use nvmetro_nvme::{NvmOpcode, Status, SubmissionEntry};
use nvmetro_telemetry::{Metric, Percentiles, Segment, TelemetrySnapshot};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("model_iops", "1/s"),
    ("model_p50_us", "us"),
    ("model_p99_us", "us"),
    ("model_cpu_us_per_io", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. Layers absent from a
/// workload report 0. `host.kios_per_s` is the whole program's host
/// throughput (guest completions per host second, median of the untraced
/// rounds): it is reported here, without a regression bound, because on
/// a shared 2-core VM its run-to-run spread reached 27%, more than the
/// 25% an end-to-end bound may be.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("host.kios_per_s", "kIO/s"),
    ("sim.executor.self_ns_per_io", "ns"),
    ("sim.executor.polls_per_io", "count"),
    ("sim.executor.idle_poll_frac", "frac"),
    ("sim.executor.leaps_per_io", "count"),
    ("sim.executor.share", "frac"),
    ("core.router.poll_ns_per_io", "ns"),
    ("core.router.next_event_ns_per_io", "ns"),
    ("core.router.busy_poll_frac", "frac"),
    ("core.router.share", "frac"),
    ("core.router.classifier_runs_per_io", "count"),
    ("core.router.cq_notifies_per_io", "count"),
    ("core.router.ingress_to_dispatch_p50_us", "us"),
    ("core.router.ingress_to_dispatch_p99_us", "us"),
    ("vbpf.classify_ns_per_call", "ns"),
    ("vbpf.classify_share_of_router", "frac"),
    ("vbpf.memo_hit_frac", "frac"),
    ("vbpf.compiled_frac", "frac"),
    ("vbpf.interp_frac", "frac"),
    ("fleet.coalesced_frac", "frac"),
    ("fleet.throttled_per_kio", "count"),
    ("fleet.preemptions_per_kio", "count"),
    ("fleet.jain", "frac"),
    ("device.ssd.poll_ns_per_io", "ns"),
    ("device.ssd.share", "frac"),
    ("device.ios_per_guest_io", "count"),
    ("device.dispatch_to_service_p50_us", "us"),
    ("core.uif.self_ns_per_io", "ns"),
    ("core.uif.share", "frac"),
    ("core.uif.requests_per_io", "count"),
    ("functions.encryptor.work_ns_per_io", "ns"),
    ("functions.encryptor.share", "frac"),
    ("crypto.mb_per_s", "MB/s"),
    ("insight.watchdog.ns_per_io", "ns"),
    ("insight.watchdog.share", "frac"),
    ("bench.load.ns_per_io", "ns"),
    ("bench.load.share", "frac"),
    ("bench.load.late_p99_us", "us"),
    ("bench.trace_overhead_frac", "frac"),
    ("bench.clock.share", "frac"),
    ("bench.profile.mismatch_frac", "frac"),
    ("bench.profile.tolerance_frac", "frac"),
    ("bench.latency_samples", "count"),
];

/// The layer profile's self-check and the error it states: the executor
/// time left over (traced wall − layer estimates − clock reads) may fall
/// below zero, i.e. the layers may account for more than the wall, by at
/// most `PROFILE_SIGMAS` sampling errors plus `PROFILE_SLACK` of the wall.
/// The slack is the systematic error of timing calls of 50–100 ns with a
/// clock read that costs as much: the compensated estimate of such a call
/// moves by ~10–20 ns with code layout and load, which on `fleet_hotset`
/// (about 14k wrapped calls per IO) is up to ~15% of the wall.
///
/// The executor time sampled between calls is an independent estimate of
/// the same quantity and is reported (`bench.profile.mismatch_frac`) but
/// not enforced: it carries the same per-call error, and on a 2-core VM
/// the two estimates differ by 0–35% of the wall on `fleet_hotset`.
const PROFILE_SIGMAS: f64 = 4.0;
const PROFILE_SLACK: f64 = 0.20;

/// Modeled end-to-end results of one round.
pub struct Model {
    pub iops: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub cpu_us_per_io: f64,
}

/// What one round produced.
pub struct Round {
    pub traced: bool,
    pub setup_s: f64,
    pub run_s: f64,
    pub completions: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Every modeled quantity of the round; must repeat exactly.
    pub fingerprint: Vec<u64>,
    pub model: Model,
    pub samples: usize,
    pub violations: Vec<String>,
    pub layers: BTreeMap<&'static str, f64>,
}

impl Round {
    pub fn summary(&self) -> String {
        let profile = match self.layers.get("sim.executor.share") {
            Some(exec) => format!(
                " executor_share={exec:.3} mismatch={:.3}",
                self.layers["bench.profile.mismatch_frac"]
            ),
            None => String::new(),
        };
        format!(
            "round traced={} setup={:.4}s run={:.4}s ios={} host_kios/s={:.3} model_iops={:.0} p50={:.2}us p99={:.2}us violations={}{profile}",
            self.traced as u8,
            self.setup_s,
            self.run_s,
            self.completions,
            self.completions as f64 / self.run_s / 1e3,
            self.model.iops,
            self.model.p50_us,
            self.model.p99_us,
            self.violations.len()
        )
    }
}

/// Nearest-rank quantile of a sorted slice.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Builds, runs and checks one round.
pub fn run_round(workload: &str, seed: u64, traced: bool) -> Round {
    let tracer = traced.then(|| Tracer::new(derive(seed, 77)));
    let t0 = Instant::now();
    let mut rig = rigs::build(workload, seed, tracer.as_ref());
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let report = rig.ex.run(u64::MAX);
    let run_ns = t1.elapsed().as_nanos() as f64;

    let mut violations = Vec::new();
    let (mut submitted, mut completed, mut errors, mut refused) = (0u64, 0u64, 0u64, 0u64);
    let mut latencies = Vec::new();
    let mut lateness = Vec::new();
    for (i, l) in rig.ledgers.iter().enumerate() {
        let l = l.borrow();
        if l.unexpected > 0 {
            violations.push(format!(
                "queue {i}: {} completions for ids not outstanding (duplicate or stray CQE)",
                l.unexpected
            ));
        }
        if l.completed != l.submitted {
            violations.push(format!(
                "queue {i}: {} submitted but {} completed after the drain (lost CQE)",
                l.submitted, l.completed
            ));
        }
        violations.extend(l.violations.iter().take(4).cloned());
        submitted += l.submitted;
        completed += l.completed;
        errors += l.errors;
        refused += l.refused;
        latencies.extend_from_slice(&l.latencies);
        lateness.extend_from_slice(&l.lateness);
    }
    latencies.sort_unstable();
    lateness.sort_unstable();
    match &rig.kind {
        Kind::Fastpath => {}
        Kind::Fleet { health, .. } => {
            let s = health.stats();
            if s.duplicate_terminals > 0 || s.spans_completed != completed {
                violations.push(format!(
                    "span reconstruction: {} duplicate terminals, {} spans completed vs {} guest completions",
                    s.duplicate_terminals, s.spans_completed, completed
                ));
            }
            if health.drain_missed() > 0 {
                violations.push(format!(
                    "watchdog missed {} trace events",
                    health.drain_missed()
                ));
            }
        }
        Kind::Encrypt {
            state, store, key, ..
        } => {
            let st = state.borrow();
            violations.extend(rigs::check_disk(&st, store, key, seed));
            if st.checked_reads == 0 {
                violations.push("no read of a written block was checked".into());
            }
        }
    }
    if completed < 1000 {
        violations.push(format!("only {completed} IOs completed (need >= 1000)"));
    }

    let snap = rig.telemetry.snapshot();
    let p50 = quantile(&latencies, 0.50);
    let p99 = quantile(&latencies, 0.99);
    let ios = completed.max(1) as f64;
    let model = Model {
        iops: completed as f64 * 1e9 / report.duration.max(1) as f64,
        p50_us: p50 as f64 / 1e3,
        p99_us: p99 as f64 / 1e3,
        cpu_us_per_io: report.total_cpu() as f64 / ios / 1e3,
    };
    let mut fingerprint = vec![
        submitted,
        completed,
        errors,
        refused,
        report.duration,
        report.total_cpu(),
        p50,
        p99,
        latencies.iter().sum(),
    ];
    fingerprint.extend(report.actor_cpu.iter().map(|(_, c)| *c));
    fingerprint.extend(Metric::ALL.iter().map(|&m| snap.get(m)));

    let layers = match &tracer {
        Some(tr) => layer_metrics(
            &rig,
            tr,
            run_ns,
            &snap,
            completed,
            &lateness,
            &mut violations,
        ),
        None => BTreeMap::new(),
    };
    Round {
        traced,
        setup_s,
        run_s: run_ns / 1e9,
        completions: completed,
        attempted: submitted + refused,
        failed: errors + refused,
        fingerprint,
        model,
        samples: latencies.len(),
        violations,
        layers,
    }
}

fn per(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

fn segment(snap: &TelemetrySnapshot, seg: Segment) -> Percentiles {
    Percentiles::of(snap.segment_hist(seg))
}

/// Per-layer metrics of one traced round, plus the profile self-check.
fn layer_metrics(
    rig: &Rig,
    tr: &Rc<Tracer>,
    wall: f64,
    snap: &TelemetrySnapshot,
    completed: u64,
    lateness: &[u64],
    violations: &mut Vec<String>,
) -> BTreeMap<&'static str, f64> {
    let ios = completed.max(1) as f64;
    let mut m = BTreeMap::new();
    let floor = tr.read_cost();
    let layer = |name: &str| tr.layers().into_iter().find(|l| l.name == name);
    let total = |name: &str| layer(name).map_or(0.0, |l| l.total(floor).0);

    // Time accounting: layers (sampled), the UIF's inner `work` (every
    // call), clock reads (counted × calibrated cost), executor (rest).
    let (mut layers_ns, mut layers_var) = (0.0, 0.0);
    for l in tr.layers() {
        let (t, v) = l.total(floor);
        layers_ns += t;
        layers_var += v;
    }
    let clock_ns = tr.clock_reads.get() as f64 * floor;
    let exec_self = wall - layers_ns - clock_ns;
    let (gap_ns, gap_var) = tr.gap_total();
    let mismatch = (exec_self - gap_ns).abs() / wall;
    let sigma = (layers_var + gap_var).sqrt();
    let tolerance = PROFILE_SIGMAS * sigma + PROFILE_SLACK * wall;
    if exec_self < -tolerance {
        violations.push(format!(
            "layer profile exceeds the traced wall: layers {layers_ns:.0} ns + clock {clock_ns:.0} ns > wall {wall:.0} ns + tolerance {tolerance:.0} ns"
        ));
    }
    let (work_calls, work_ns) = match &rig.kind {
        Kind::Encrypt { work: Some(w), .. } => {
            use std::sync::atomic::Ordering::Relaxed;
            (w.calls.load(Relaxed) as f64, w.ns.load(Relaxed) as f64)
        }
        _ => (0.0, 0.0),
    };
    let enc_body = work_ns - floor * work_calls;
    let uif_self = total("core.uif") - work_ns - floor * work_calls;
    let router = layer("core.router");

    m.insert("sim.executor.self_ns_per_io", exec_self / ios);
    m.insert("sim.executor.polls_per_io", tr.polls.get() as f64 / ios);
    m.insert(
        "sim.executor.idle_poll_frac",
        per(tr.idle_polls.get(), tr.polls.get()),
    );
    m.insert("sim.executor.leaps_per_io", tr.leaps.get() as f64 / ios);
    m.insert("sim.executor.share", exec_self / wall);
    m.insert(
        "core.router.poll_ns_per_io",
        router.as_ref().map_or(0.0, |r| r.poll.total(floor).0) / ios,
    );
    m.insert(
        "core.router.next_event_ns_per_io",
        router.as_ref().map_or(0.0, |r| r.next_event.total(floor).0) / ios,
    );
    m.insert(
        "core.router.busy_poll_frac",
        router
            .as_ref()
            .map_or(0.0, |r| per(r.poll.busy.get(), r.poll.calls.get())),
    );
    m.insert("core.router.share", total("core.router") / wall);
    let runs = snap.get(Metric::ClassifierRuns);
    m.insert("core.router.classifier_runs_per_io", runs as f64 / ios);
    m.insert(
        "core.router.cq_notifies_per_io",
        snap.get(Metric::CqNotifies) as f64 / ios,
    );
    let ingress = segment(snap, Segment::IngressToDispatch);
    m.insert(
        "core.router.ingress_to_dispatch_p50_us",
        ingress.p50 as f64 / 1e3,
    );
    m.insert(
        "core.router.ingress_to_dispatch_p99_us",
        ingress.p99 as f64 / 1e3,
    );
    let classify_ns = classify_replay(rig);
    m.insert("vbpf.classify_ns_per_call", classify_ns);
    m.insert(
        "vbpf.classify_share_of_router",
        match router.as_ref().map_or(0.0, |r| r.poll.total(floor).0) {
            p if p > 0.0 => runs as f64 * classify_ns / p,
            _ => 0.0,
        },
    );
    m.insert(
        "vbpf.memo_hit_frac",
        per(snap.get(Metric::ClassifierCacheHit), runs),
    );
    m.insert(
        "vbpf.compiled_frac",
        per(snap.get(Metric::ClassifierCompiled), runs),
    );
    m.insert(
        "vbpf.interp_frac",
        per(snap.get(Metric::ClassifierInterp), runs),
    );
    m.insert(
        "fleet.coalesced_frac",
        per(snap.get(Metric::CoalescedReads), snap.get(Metric::Accepted)),
    );
    m.insert(
        "fleet.throttled_per_kio",
        snap.get(Metric::ThrottleApplied) as f64 * 1e3 / ios,
    );
    m.insert(
        "fleet.preemptions_per_kio",
        snap.get(Metric::SchedulerPreemptions) as f64 * 1e3 / ios,
    );
    m.insert("fleet.jain", jain(rig));
    m.insert("device.ssd.poll_ns_per_io", total("device.ssd") / ios);
    m.insert("device.ssd.share", total("device.ssd") / wall);
    m.insert(
        "device.ios_per_guest_io",
        snap.get(Metric::DeviceIos) as f64 / ios,
    );
    m.insert(
        "device.dispatch_to_service_p50_us",
        segment(snap, Segment::DispatchToService).p50 as f64 / 1e3,
    );
    m.insert("core.uif.self_ns_per_io", uif_self / ios);
    m.insert("core.uif.share", uif_self / wall);
    m.insert(
        "core.uif.requests_per_io",
        snap.get(Metric::UifRequests) as f64 / ios,
    );
    m.insert("functions.encryptor.work_ns_per_io", enc_body / ios);
    m.insert("functions.encryptor.share", enc_body / wall);
    m.insert("crypto.mb_per_s", crypto_replay(rig));
    m.insert(
        "insight.watchdog.ns_per_io",
        total("insight.watchdog") / ios,
    );
    m.insert("insight.watchdog.share", total("insight.watchdog") / wall);
    m.insert("bench.load.ns_per_io", total("bench.load") / ios);
    m.insert("bench.load.share", total("bench.load") / wall);
    m.insert(
        "bench.load.late_p99_us",
        quantile(lateness, 0.99) as f64 / 1e3,
    );
    m.insert(
        "bench.clock.share",
        (clock_ns + 2.0 * floor * work_calls) / wall,
    );
    m.insert("bench.profile.mismatch_frac", mismatch);
    m.insert("bench.profile.tolerance_frac", tolerance / wall);
    m
}

/// Weight-normalized Jain fairness over tenants that sent anything.
fn jain(rig: &Rig) -> f64 {
    let Kind::Fleet { weights, .. } = &rig.kind else {
        return 0.0;
    };
    let shares: Vec<f64> = rig
        .ledgers
        .iter()
        .zip(weights)
        .filter(|(l, _)| l.borrow().submitted > 0)
        .map(|(l, w)| l.borrow().completed as f64 / w)
        .collect();
    let sum: f64 = shares.iter().sum();
    let sq: f64 = shares.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        0.0
    } else {
        sum * sum / (shares.len() as f64 * sq)
    }
}

/// One classifier invocation to replay.
struct Call {
    queue: usize,
    hook: u32,
    vm: u32,
    qid: u16,
    cmd: SubmissionEntry,
    slba: u64,
}

/// Host ns per classifier call: the round's own guest commands replayed
/// through fresh instances of the workload's classifiers via
/// `Classifier::run_tiered`, in submission order per queue (median of 5
/// passes, each with fresh instances so memo state matches a real run).
fn classify_replay(rig: &Rig) -> f64 {
    let mut calls = Vec::new();
    for (q, l) in rig.ledgers.iter().enumerate() {
        let l = l.borrow();
        for cmd in l.captured.iter().flatten() {
            let (vm, qid) = match rig.kind {
                Kind::Fastpath | Kind::Fleet { .. } => (q as u32, 0),
                Kind::Encrypt { .. } => (0, q as u16),
            };
            calls.push(Call {
                queue: q,
                hook: HOOK_VSQ,
                vm,
                qid,
                cmd: *cmd,
                slba: cmd.slba(),
            });
            // Encrypted reads re-enter the classifier at the device
            // completion hook with the translated LBA.
            if matches!(rig.kind, Kind::Encrypt { .. }) && cmd.nvm_opcode() == Some(NvmOpcode::Read)
            {
                calls.push(Call {
                    queue: q,
                    hook: HOOK_HCQ,
                    vm,
                    qid,
                    cmd: *cmd,
                    slba: cmd.slba() + rigs::encrypt_offset(),
                });
            }
        }
    }
    if calls.is_empty() {
        return 0.0;
    }
    let fresh = || -> Vec<Classifier> {
        (0..rig.ledgers.len())
            .map(|q| match rig.kind {
                Kind::Fastpath => rigs::fastpath_classifier(q as u64),
                Kind::Fleet { .. } => Classifier::Bpf(passthrough_program()),
                Kind::Encrypt { .. } => rigs::encrypt_classifier(),
            })
            .collect()
    };
    let mut passes = Vec::new();
    let mut sink = 0u64;
    let mut ctx = RequestCtx::empty();
    for _ in 0..5 {
        let mut cls = fresh();
        let t = Instant::now();
        for c in &calls {
            ctx.fill(c.hook, c.vm, c.qid, &c.cmd, Status::SUCCESS, 0);
            ctx.set_slba(c.slba);
            sink ^= cls[c.queue].run_tiered(&mut ctx, 0).verdict.0;
        }
        passes.push(t.elapsed().as_nanos() as f64 / calls.len() as f64);
    }
    std::hint::black_box(sink);
    median(passes)
}

/// XTS-AES-256 throughput (MB/s) on the round's first 64 commands'
/// sectors and sizes; 0 on workloads without encryption.
fn crypto_replay(rig: &Rig) -> f64 {
    let Kind::Encrypt { key, .. } = &rig.kind else {
        return 0.0;
    };
    let xts = Xts::new(key);
    let cmds: Vec<SubmissionEntry> = rig
        .ledgers
        .iter()
        .flat_map(|l| l.borrow().captured.clone().unwrap_or_default())
        .take(64)
        .collect();
    let bytes: usize = cmds.iter().map(|c| c.data_len()).sum();
    let mut buf = vec![0x5Au8; cmds.iter().map(|c| c.data_len()).max().unwrap_or(0)];
    let mut passes = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        for c in &cmds {
            xts.encrypt_sectors(c.slba(), &mut buf[..c.data_len()]);
        }
        passes.push(bytes as f64 / t.elapsed().as_secs_f64() / 1e6);
    }
    std::hint::black_box(&buf);
    median(passes)
}

/// Peak resident set of this process (MB), from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Metrics of a whole invocation.
pub struct Metrics {
    pub values: Vec<(&'static str, f64, &'static str)>,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub samples: usize,
    pub rounds: usize,
    pub violations: Vec<String>,
}

impl Metrics {
    pub fn from_rounds(rounds: &[Round], trace: bool) -> Self {
        let first = &rounds[0];
        let mut violations = Vec::new();
        for (i, r) in rounds.iter().enumerate() {
            for v in &r.violations {
                violations.push(format!("round {i}: {v}"));
            }
            if r.fingerprint != first.fingerprint {
                violations.push(format!(
                    "round {i} (traced={}) modeled results differ from round 0: not deterministic",
                    r.traced
                ));
            }
        }
        let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
        let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
        let host_kios = median(
            untraced
                .iter()
                .map(|r| r.completions as f64 / r.run_s / 1e3)
                .collect(),
        );
        let mut values = Vec::new();
        if trace {
            for (name, unit) in PER_LAYER {
                let v = match name {
                    "bench.trace_overhead_frac" => {
                        median(traced.iter().map(|r| r.run_s).collect())
                            / median(untraced.iter().map(|r| r.run_s).collect())
                            - 1.0
                    }
                    "bench.latency_samples" => first.samples as f64,
                    "host.kios_per_s" => host_kios,
                    _ => median(traced.iter().map(|r| r.layers[name]).collect()),
                };
                values.push((name, v, unit));
            }
        } else {
            for (name, unit) in END_TO_END {
                let v = match name {
                    "model_iops" => first.model.iops,
                    "model_p50_us" => first.model.p50_us,
                    "model_p99_us" => first.model.p99_us,
                    "model_cpu_us_per_io" => first.model.cpu_us_per_io,
                    "setup_s" => median(untraced.iter().map(|r| r.setup_s).collect()),
                    "peak_rss_mb" => peak_rss_mb(),
                    _ => unreachable!(),
                };
                values.push((name, v, unit));
            }
        }
        Metrics {
            values,
            correct: violations.is_empty(),
            attempted: rounds.iter().map(|r| r.attempted).sum(),
            failed: rounds.iter().map(|r| r.failed).sum(),
            samples: first.samples,
            rounds: rounds.len(),
            violations,
        }
    }

    /// Human-readable summary (not the last line).
    pub fn describe(&self, workload: &str, seed: u64) -> String {
        let mut s = format!(
            "# {workload} seed={seed} rounds={} latency_samples_per_round={} attempted={} failed={} failed_frac={:.6}",
            self.rounds,
            self.samples,
            self.attempted,
            self.failed,
            per(self.failed, self.attempted)
        );
        for (name, v, unit) in &self.values {
            s.push_str(&format!("\n#   {name:<40} {v:>16.4} {unit}"));
        }
        s
    }

    /// The result line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&[], 0.5), 0);
    }
}
