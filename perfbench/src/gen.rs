//! Seeded, single-threaded input generation.
//!
//! Every workload starts from `vapro-apps` mini-apps run on the
//! `vapro-sim` virtual-time runtime with a recording interceptor in each
//! rank: it forwards every hook to a real [`Collector`] (whose STG feeds
//! the server workloads) and keeps the raw interception events (which
//! `client-replay` replays). Server frames are built by bucketing each
//! rank's fragments into report periods in one pass over its STG
//! ([`bucket_batches`]), never by calling
//! [`FragmentBatch::from_stg_starting_in`] once per period — that
//! O(history) per-period scan is client work and is timed only where the
//! client runs.
//!
//! The simulator runs one OS thread per rank, but every interaction is
//! order-independent and all randomness derives from the seed, so the
//! generated events and frames depend on the seed alone: [`digest`]
//! fingerprints them and the tests pin that down.

use std::any::Any;
use vapro_apps::{find_app, AppParams};
use vapro_bench::common::memory_noise;
use vapro_core::detect::window::Window;
use vapro_core::wire::FragmentBatch;
use vapro_core::{Collector, FleetConfig, FleetIngestor, Fragment, JobKey, Stg, VaproConfig};
use vapro_sim::{
    run_simulation, EnterEvent, ExitEvent, Interceptor, NoiseSchedule, SimConfig, TargetSet,
    VirtualTime,
};

/// The benchmark's workloads (see `perfbench/README.md` for why each
/// exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 16-rank LU, quiet machine, default config (15 s windows).
    WideQuiet,
    /// 16-rank CG under rotating memory contention, 1 s windows.
    NarrowNoisy,
    /// 12 jobs of 3 tenants plus one over-budget tenant, 4 shards.
    FleetTenants,
    /// The `wide-quiet` interception events through per-rank collectors.
    ClientReplay,
}

impl Kind {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Kind; 4] = [
        Kind::WideQuiet,
        Kind::NarrowNoisy,
        Kind::FleetTenants,
        Kind::ClientReplay,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::WideQuiet => "wide-quiet",
            Kind::NarrowNoisy => "narrow-noisy",
            Kind::FleetTenants => "fleet-tenants",
            Kind::ClientReplay => "client-replay",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Input size: the benchmark's, or a small one for the unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Bench,
    /// A few periods per job, for fast tests.
    Test,
}

/// A tiny seeded generator (SplitMix64): the benchmark's only source of
/// randomness besides the simulator's own seeded RNGs.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// FNV-1a, 64 bit.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Absorb bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Absorb one integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One recorded interception event.
#[derive(Debug, Clone)]
pub enum Hook {
    /// An `on_enter` call.
    Enter(EnterEvent),
    /// An `on_exit` call.
    Exit(ExitEvent),
}

impl Hook {
    /// Virtual time of the event, ns.
    pub fn time_ns(&self) -> u64 {
        match self {
            Hook::Enter(e) => e.time.ns(),
            Hook::Exit(e) => e.time.ns(),
        }
    }
}

/// Forwards every hook to a real collector and records the event.
struct Recorder {
    collector: Collector,
    hooks: Vec<Hook>,
}

impl Interceptor for Recorder {
    fn on_enter(&mut self, ev: &EnterEvent) {
        self.hooks.push(Hook::Enter(ev.clone()));
        self.collector.on_enter(ev);
    }

    fn on_exit(&mut self, ev: &ExitEvent) {
        self.hooks.push(Hook::Exit(ev.clone()));
        self.collector.on_exit(ev);
    }

    fn hook_cost_ns(&self) -> f64 {
        self.collector.hook_cost_ns()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// One clean, sequenced v3 frame of one rank and report period.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Shipping rank.
    pub rank: usize,
    /// The frame's shipped `window_end_ns` (its shipping mark).
    pub window_end_ns: u64,
    /// Fragments in the frame.
    pub frags: usize,
    /// The encoded frame.
    pub bytes: Vec<u8>,
}

/// One injected memory-contention event (`narrow-noisy`).
#[derive(Debug, Clone, Copy)]
pub struct NoiseSpan {
    /// The victim rank.
    pub rank: usize,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

/// One monitored job: its run, its events and its clean frames.
pub struct Job {
    /// Routing identity (solo workloads use the default key).
    pub key: JobKey,
    /// Ranks.
    pub nranks: usize,
    /// Analysis configuration (report period, pipeline depth, top-K).
    pub cfg: VaproConfig,
    /// Heat-map bins per analysis window.
    pub bins: usize,
    /// The collectors' STGs, for the one-shot reference.
    pub stgs: Vec<Stg>,
    /// Per-rank interception events, in each rank's program order.
    pub hooks: Vec<Vec<Hook>>,
    /// `(rank, index)` of every event in virtual-time order across ranks
    /// (ties broken by rank, then program order).
    pub order: Vec<(u32, u32)>,
    /// Report periods every rank ships (`ceil(t_end / period)`).
    pub n_periods: u64,
    /// Clean frames, period-major then rank.
    pub frames: Vec<Frame>,
    /// Injected noise (empty on a quiet machine).
    pub noise: Vec<NoiseSpan>,
    /// True for the tenant that runs over its byte budget.
    pub over_budget: bool,
}

impl Job {
    /// Report period, ns.
    pub fn period_ns(&self) -> u64 {
        self.cfg.report_period.ns()
    }

    /// Intercepted calls (enter/exit pairs) across ranks.
    pub fn calls(&self) -> u64 {
        self.hooks.iter().map(|h| h.len() as u64 / 2).sum()
    }
}

/// What one sent frame is, and how the plane must treat it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A job's own frame: must be admitted.
    Clean,
    /// A copy with one payload byte flipped, sent before the good frame:
    /// must fail its checksum.
    Corrupt,
    /// An exact retransmit after the good frame: must be a duplicate.
    Duplicate,
    /// A valid frame claiming a rank the job does not have.
    UnknownRank,
    /// A valid frame stamped with an unregistered tenant.
    UnknownTenant,
    /// A frame of the over-budget tenant; the admission model decided
    /// whether its budget has room.
    Budgeted {
        /// The model's verdict.
        admitted: bool,
    },
}

/// One frame on the wire, in send order.
pub struct Sent {
    /// Index of the job the frame belongs to (or was copied from).
    pub job: usize,
    /// Index of the underlying clean frame in that job.
    pub frame: usize,
    /// What the frame is.
    pub class: Class,
    /// Bytes of a modified copy; `None` sends the clean frame itself.
    pub owned: Option<Vec<u8>>,
}

/// Injected hostile frames by rejection reason, and the over-budget
/// tenant's modelled rejections: what `IngestStats` must report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Injected {
    /// Corrupted copies.
    pub corrupt: u64,
    /// Exact duplicates.
    pub duplicate: u64,
    /// Unknown-rank frames.
    pub unknown_rank: u64,
    /// Unknown-tenant frames.
    pub unknown_tenant: u64,
    /// Over-budget rejections the admission model predicts.
    pub over_budget: u64,
}

/// The fleet plane's shape (`fleet-tenants` only).
pub struct FleetShape {
    /// Ingest shards.
    pub shards: usize,
    /// Frames one shard queues before a drain.
    pub queue_capacity: usize,
    /// Registered tenants and their byte budgets.
    pub tenants: Vec<(u32, u64)>,
}

impl FleetShape {
    /// A fresh plane with every tenant and job registered.
    pub fn build(&self, jobs: &[Job]) -> FleetIngestor {
        let first = &jobs[0];
        let mut fleet = FleetIngestor::new(FleetConfig {
            shards: self.shards,
            default_nranks: first.nranks,
            bins_per_window: first.bins,
            vapro: first.cfg.clone(),
            queue_capacity_frames: self.queue_capacity,
            default_tenant_budget_bytes: u64::MAX,
        });
        for &(tenant, budget) in &self.tenants {
            fleet.register_tenant(tenant, budget);
        }
        for (j, job) in jobs.iter().enumerate() {
            fleet.register_job(job.key, job.nranks, j as u32);
        }
        fleet
    }
}

/// Everything one workload replays.
pub struct Workload {
    /// The jobs (one for the solo workloads).
    pub jobs: Vec<Job>,
    /// The frames in send order.
    pub stream: Vec<Sent>,
    /// The fleet plane, for `fleet-tenants`.
    pub fleet: Option<FleetShape>,
    /// What admission must reject.
    pub injected: Injected,
    /// FNV digest of every generated event and frame.
    pub digest: u64,
}

impl Workload {
    /// The bytes of one sent frame.
    pub fn bytes<'a>(&'a self, s: &'a Sent) -> &'a [u8] {
        match &s.owned {
            Some(b) => b,
            None => &self.jobs[s.job].frames[s.frame].bytes,
        }
    }

    /// True when the frame's data must reach its job's arena.
    pub fn admits(&self, s: &Sent) -> bool {
        matches!(s.class, Class::Clean | Class::Budgeted { admitted: true })
    }

    /// Fragments the plane must admit over one pass.
    pub fn admitted_frags(&self) -> u64 {
        self.stream
            .iter()
            .filter(|s| self.admits(s))
            .map(|s| self.jobs[s.job].frames[s.frame].frags as u64)
            .sum()
    }

    /// Bytes sent over one pass.
    pub fn stream_bytes(&self) -> u64 {
        self.stream.iter().map(|s| self.bytes(s).len() as u64).sum()
    }
}

/// Bucket one rank's fragments into report periods in a single pass over
/// its STG, yielding exactly the batches
/// [`FragmentBatch::from_stg_starting_in`] extracts period by period —
/// same groups, same fragment order, same lazily built label dictionary.
pub fn bucket_batches(
    stg: &Stg,
    rank: usize,
    period_ns: u64,
    n_periods: u64,
) -> Vec<FragmentBatch> {
    struct Bucket<'a> {
        vertices: Vec<(usize, Vec<&'a Fragment>)>,
        edges: Vec<(usize, Vec<&'a Fragment>)>,
    }
    let mut buckets: Vec<Bucket<'_>> = (0..n_periods)
        .map(|_| Bucket {
            vertices: Vec::new(),
            edges: Vec::new(),
        })
        .collect();
    let period_of = |f: &Fragment| (f.start.ns() / period_ns) as usize;
    // Vertices in id order, then edges in id order, each group's
    // fragments in attachment order: appending to the last group of a
    // bucket keeps every bucket in the order the per-period filter sees.
    for (id, v) in stg.vertices().iter().enumerate() {
        for f in &v.fragments {
            let Some(b) = buckets.get_mut(period_of(f)) else {
                continue;
            };
            match b.vertices.last_mut() {
                Some((last, frags)) if *last == id => frags.push(f),
                _ => b.vertices.push((id, vec![f])),
            }
        }
    }
    for (id, e) in stg.edges().iter().enumerate() {
        for f in &e.fragments {
            let Some(b) = buckets.get_mut(period_of(f)) else {
                continue;
            };
            match b.edges.last_mut() {
                Some((last, frags)) if *last == id => frags.push(f),
                _ => b.edges.push((id, vec![f])),
            }
        }
    }
    buckets
        .into_iter()
        .enumerate()
        .map(|(k, b)| {
            let mut labels: Vec<String> = Vec::new();
            let mut syms: Vec<Option<u32>> = vec![None; stg.num_states()];
            let mut sym_of = |state: usize, labels: &mut Vec<String>| -> u32 {
                if let Some(s) = syms[state] {
                    return s;
                }
                let s = labels.len() as u32;
                labels.push(stg.vertices()[state].key.label());
                syms[state] = Some(s);
                s
            };
            let vertex_groups = b
                .vertices
                .into_iter()
                .map(|(id, frags)| vapro_core::wire::VertexGroup {
                    label: sym_of(id, &mut labels),
                    fragments: frags.into_iter().cloned().collect(),
                })
                .collect();
            let edge_groups = b
                .edges
                .into_iter()
                .map(|(id, frags)| {
                    let e = &stg.edges()[id];
                    let from = sym_of(e.from, &mut labels);
                    let to = sym_of(e.to, &mut labels);
                    vapro_core::wire::EdgeGroup {
                        from,
                        to,
                        fragments: frags.into_iter().cloned().collect(),
                    }
                })
                .collect();
            let k = k as u64;
            FragmentBatch {
                rank,
                seq: vapro_core::wire::SEQ_UNSEQUENCED,
                tenant_id: vapro_core::wire::DEFAULT_TENANT,
                job_id: vapro_core::wire::DEFAULT_JOB,
                window_start_ns: k * period_ns,
                window_end_ns: (k + 1) * period_ns,
                labels,
                vertex_groups,
                edge_groups,
            }
        })
        .collect()
}

/// The window a report period covers.
pub fn period_window(k: u64, period_ns: u64) -> Window {
    Window {
        start: VirtualTime::from_ns(k * period_ns),
        end: VirtualTime::from_ns((k + 1) * period_ns),
    }
}

/// Latest fragment end over a run, ns.
fn t_end_ns(stgs: &[Stg]) -> u64 {
    stgs.iter()
        .flat_map(|s| {
            s.vertices()
                .iter()
                .flat_map(|v| v.fragments.iter())
                .chain(s.edges().iter().flat_map(|e| e.fragments.iter()))
        })
        .map(|f| f.end.ns())
        .max()
        .unwrap_or(0)
}

/// How one job is produced.
struct JobSpec {
    app: &'static str,
    ranks: usize,
    iterations: usize,
    scale: f64,
    period: VirtualTime,
    bins: usize,
    key: JobKey,
    sim_seed: u64,
    app_seed: u64,
    noise: Vec<NoiseSpan>,
    over_budget: bool,
}

fn run_job(spec: JobSpec) -> Job {
    let app = find_app(spec.app).expect("registered mini-app");
    let cfg = VaproConfig {
        report_period: spec.period,
        ..VaproConfig::default()
    };
    let mut schedule = NoiseSchedule::quiet();
    for n in &spec.noise {
        schedule = schedule.with(memory_noise(
            TargetSet::Ranks(vec![n.rank]),
            VirtualTime::from_ns(n.start_ns),
            VirtualTime::from_ns(n.end_ns),
        ));
    }
    let sim = SimConfig::new(spec.ranks)
        .with_seed(spec.sim_seed)
        .with_noise(schedule);
    let params = AppParams::default()
        .with_iterations(spec.iterations)
        .with_scale(spec.scale)
        .with_seed(spec.app_seed);
    let result = run_simulation(
        &sim,
        |rank| {
            Box::new(Recorder {
                collector: Collector::new(rank, cfg.clone()),
                hooks: Vec::new(),
            }) as Box<dyn Interceptor>
        },
        |ctx| (app.run)(ctx, &params),
    );
    let (stgs, hooks): (Vec<Stg>, Vec<Vec<Hook>>) = result
        .into_tools::<Recorder>()
        .into_iter()
        .map(|r| (r.collector.into_stg(), r.hooks))
        .unzip();
    let mut timed: Vec<(u64, u32, u32)> = hooks
        .iter()
        .enumerate()
        .flat_map(|(r, hs)| {
            hs.iter()
                .enumerate()
                .map(move |(i, h)| (h.time_ns(), r as u32, i as u32))
        })
        .collect();
    timed.sort_unstable();
    let order = timed.into_iter().map(|(_, r, i)| (r, i)).collect();
    let period_ns = spec.period.ns();
    let n_periods = t_end_ns(&stgs).div_ceil(period_ns);
    let per_rank: Vec<Vec<FragmentBatch>> = stgs
        .iter()
        .enumerate()
        .map(|(rank, stg)| bucket_batches(stg, rank, period_ns, n_periods))
        .collect();
    let mut frames = Vec::with_capacity(per_rank.len() * n_periods as usize);
    for k in 0..n_periods {
        for (rank, batches) in per_rank.iter().enumerate() {
            let batch = &batches[k as usize];
            frames.push(Frame {
                rank,
                window_end_ns: batch.window_end_ns,
                frags: batch.len(),
                bytes: batch
                    .clone()
                    .with_seq(k + 1)
                    .with_job(spec.key.tenant, spec.key.job)
                    .encode_v3(),
            });
        }
    }
    Job {
        key: spec.key,
        nranks: spec.ranks,
        cfg,
        bins: spec.bins,
        stgs,
        hooks,
        order,
        n_periods,
        frames,
        noise: spec.noise,
        over_budget: spec.over_budget,
    }
}

fn mix(seed: u64, salt: u64) -> u64 {
    Rng::new(seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

fn solo_stream(job: &Job) -> Vec<Sent> {
    (0..job.frames.len())
        .map(|frame| Sent {
            job: 0,
            frame,
            class: Class::Clean,
            owned: None,
        })
        .collect()
}

/// Generate one workload from its seed.
pub fn generate(kind: Kind, seed: u64, size: Size) -> Workload {
    let test = size == Size::Test;
    let (jobs, stream, fleet, injected) = match kind {
        Kind::WideQuiet | Kind::ClientReplay => {
            let job = run_job(JobSpec {
                app: "LU",
                ranks: if test { 4 } else { 16 },
                iterations: if test { 120 } else { 250 },
                scale: 72.0,
                period: VaproConfig::default().report_period,
                bins: 16,
                key: JobKey::default_job(),
                sim_seed: mix(seed, 1),
                app_seed: mix(seed, 2),
                noise: Vec::new(),
                over_budget: false,
            });
            let stream = solo_stream(&job);
            (vec![job], stream, None, Injected::default())
        }
        Kind::NarrowNoisy => {
            let ranks = if test { 4 } else { 16 };
            let iterations = if test { 12 } else { 222 };
            // About 2.25 s of virtual time per iteration at this scale.
            let horizon_ns = iterations as u64 * 2_250_000_000;
            let mut rng = Rng::new(mix(seed, 3));
            let offset = rng.below(ranks as u64) as usize;
            let mut noise = Vec::new();
            let mut t = 5_000_000_000 + rng.below(5_000_000_000);
            let mut i = 0;
            while t + 10_000_000_000 < horizon_ns {
                let len = 4_000_000_000 + rng.below(4_000_000_000);
                noise.push(NoiseSpan {
                    rank: (offset + i * 5) % ranks,
                    start_ns: t,
                    end_ns: t + len,
                });
                t += len + 15_000_000_000 + rng.below(10_000_000_000);
                i += 1;
            }
            let job = run_job(JobSpec {
                app: "CG",
                ranks,
                iterations,
                scale: 150.0,
                period: VirtualTime::from_secs(1),
                bins: 8,
                key: JobKey::default_job(),
                sim_seed: mix(seed, 4),
                app_seed: mix(seed, 5),
                noise,
                over_budget: false,
            });
            let stream = solo_stream(&job);
            (vec![job], stream, None, Injected::default())
        }
        Kind::FleetTenants => fleet_workload(seed, test),
    };
    let mut w = Workload {
        jobs,
        stream,
        fleet,
        injected,
        digest: 0,
    };
    w.digest = digest(&w);
    w
}

/// The `fleet-tenants` jobs and their interleaved, fault-injected stream.
fn fleet_workload(seed: u64, test: bool) -> (Vec<Job>, Vec<Sent>, Option<FleetShape>, Injected) {
    // (app, iterations, scale): each about 30 s of virtual time.
    const APPS: [(&str, usize, f64); 3] = [
        ("CG", 300, 7.0),
        ("HPL", 600, 7.0),
        ("PageRank", 1200, 10.0),
    ];
    const OVER_BUDGET_TENANT: u32 = 4;
    let div = if test { 10 } else { 1 };
    let jobs: Vec<Job> = (0..13u32)
        .map(|j| {
            let (app, iterations, scale) = APPS[j as usize % 3];
            let over_budget = j == 12;
            let tenant = if over_budget {
                OVER_BUDGET_TENANT
            } else {
                1 + j / 4
            };
            run_job(JobSpec {
                app,
                ranks: 4,
                iterations: iterations / div,
                scale,
                period: VirtualTime::from_secs(1),
                bins: 8,
                key: JobKey { tenant, job: j },
                sim_seed: mix(seed, 100 + j as u64),
                app_seed: mix(seed, 200 + j as u64),
                noise: Vec::new(),
                over_budget,
            })
        })
        .collect();
    // The over-budget tenant may hold about two and a half of its frames
    // in flight; drains refund it.
    let ob = &jobs[12];
    let mean_frame =
        ob.frames.iter().map(|f| f.bytes.len() as u64).sum::<u64>() / ob.frames.len().max(1) as u64;
    let shape = FleetShape {
        shards: 4,
        queue_capacity: 16,
        tenants: vec![
            (1, u64::MAX),
            (2, u64::MAX),
            (3, u64::MAX),
            (OVER_BUDGET_TENANT, mean_frame * 5 / 2),
        ],
    };

    // Round-robin over jobs, one frame each, plus seeded faults: a
    // corrupted copy goes before its good frame (so no job ever sees a
    // sequence gap), duplicates and unknown-rank frames after it, and
    // only jobs 3, 7 and 11 receive the faults that reach a job.
    let mut rng = Rng::new(mix(seed, 6));
    let mut stream = Vec::new();
    let mut injected = Injected::default();
    let longest = jobs.iter().map(|j| j.frames.len()).max().unwrap_or(0);
    for i in 0..longest {
        for (j, job) in jobs.iter().enumerate() {
            let Some(frame) = job.frames.get(i) else {
                continue;
            };
            let good = |class| Sent {
                job: j,
                frame: i,
                class,
                owned: None,
            };
            if rng.unit() < 0.02 {
                let mut bytes = frame.bytes.clone();
                // Past the length prefix, magic, version and checksum:
                // inside the checksummed payload.
                let at = 13 + rng.below((bytes.len() - 13) as u64) as usize;
                bytes[at] ^= 0x5A;
                stream.push(Sent {
                    owned: Some(bytes),
                    ..good(Class::Corrupt)
                });
                injected.corrupt += 1;
            }
            stream.push(good(if job.over_budget {
                Class::Budgeted { admitted: false }
            } else {
                Class::Clean
            }));
            if rng.unit() < 0.01 {
                let mut batch = FragmentBatch::decode(&frame.bytes).expect("own frame decodes");
                batch.tenant_id = 99;
                stream.push(Sent {
                    owned: Some(batch.encode_v3()),
                    ..good(Class::UnknownTenant)
                });
                injected.unknown_tenant += 1;
            }
            if j % 4 == 3 {
                if rng.unit() < 0.03 {
                    stream.push(good(Class::Duplicate));
                    injected.duplicate += 1;
                }
                if rng.unit() < 0.02 {
                    let mut batch = FragmentBatch::decode(&frame.bytes).expect("own frame decodes");
                    batch.rank = job.nranks;
                    stream.push(Sent {
                        owned: Some(batch.encode_v3()),
                        ..good(Class::UnknownRank)
                    });
                    injected.unknown_rank += 1;
                }
            }
        }
    }
    injected.over_budget = model_admission(&shape, &jobs, &mut stream);
    (jobs, stream, Some(shape), injected)
}

/// Replay the plane's admission rules over the stream: a tenant's
/// in-flight bytes grow with each admitted frame and return to zero at
/// every drain, which runs when a shard's queue reaches capacity.
/// Marks each budgeted frame admitted or not and returns the rejections.
fn model_admission(shape: &FleetShape, jobs: &[Job], stream: &mut [Sent]) -> u64 {
    let plane = shape.build(jobs);
    let mut queued = vec![0usize; shape.shards];
    let mut in_flight = vec![0u64; shape.tenants.len()];
    let mut rejected = 0;
    for s in stream.iter_mut() {
        if matches!(s.class, Class::Corrupt | Class::UnknownTenant) {
            continue;
        }
        let job = &jobs[s.job];
        let slot = shape
            .tenants
            .iter()
            .position(|(t, _)| *t == job.key.tenant)
            .expect("every job's tenant is registered");
        let len = match &s.owned {
            Some(b) => b.len(),
            None => job.frames[s.frame].bytes.len(),
        } as u64;
        let need = in_flight[slot].saturating_add(len);
        if need > shape.tenants[slot].1 {
            s.class = Class::Budgeted { admitted: false };
            rejected += 1;
            continue;
        }
        if let Class::Budgeted { .. } = s.class {
            s.class = Class::Budgeted { admitted: true };
        }
        in_flight[slot] = need;
        let shard = plane.shard_of(job.key);
        queued[shard] += 1;
        if queued[shard] >= shape.queue_capacity {
            queued.iter_mut().for_each(|q| *q = 0);
            in_flight.iter_mut().for_each(|b| *b = 0);
        }
    }
    rejected
}

/// FNV digest of every generated event and every sent frame.
pub fn digest(w: &Workload) -> u64 {
    let mut h = Fnv::default();
    for job in &w.jobs {
        for hooks in &job.hooks {
            for hook in hooks {
                match hook {
                    Hook::Enter(e) => {
                        h.u64(0);
                        h.u64(e.rank as u64);
                        h.u64(e.time.ns());
                        h.bytes(e.site.0.as_bytes());
                        for frame in &e.path.frames {
                            h.bytes(frame.as_bytes());
                        }
                        for a in e.kind.arg_vector() {
                            h.u64(a.to_bits());
                        }
                        for (id, v) in e.counters.entries() {
                            h.u64(id.index() as u64);
                            h.u64(v.to_bits());
                        }
                    }
                    Hook::Exit(e) => {
                        h.u64(1);
                        h.u64(e.rank as u64);
                        h.u64(e.time.ns());
                        for (id, v) in e.counters.entries() {
                            h.u64(id.index() as u64);
                            h.u64(v.to_bits());
                        }
                    }
                }
            }
        }
    }
    for s in &w.stream {
        h.bytes(w.bytes(s));
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_matches_per_period_extraction() {
        for kind in [Kind::WideQuiet, Kind::NarrowNoisy] {
            let w = generate(kind, 11, Size::Test);
            let job = &w.jobs[0];
            assert!(job.n_periods >= 3, "{kind:?} too short to test bucketing");
            for (rank, stg) in job.stgs.iter().enumerate() {
                let bucketed = bucket_batches(stg, rank, job.period_ns(), job.n_periods);
                for (k, batch) in bucketed.iter().enumerate() {
                    let window = period_window(k as u64, job.period_ns());
                    let scanned = FragmentBatch::from_stg_starting_in(stg, rank, window);
                    assert_eq!(batch, &scanned, "{kind:?} rank {rank} period {k}");
                }
                let shipped: usize = bucketed.iter().map(FragmentBatch::len).sum();
                assert_eq!(
                    shipped,
                    stg.total_fragments(),
                    "every fragment shipped once"
                );
            }
        }
    }

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        for kind in Kind::ALL {
            let a = generate(kind, 7, Size::Test).digest;
            let b = generate(kind, 7, Size::Test).digest;
            let c = generate(kind, 8, Size::Test).digest;
            assert_eq!(a, b, "{kind:?} not reproducible");
            assert_ne!(a, c, "{kind:?} ignores its seed");
        }
    }

    #[test]
    fn fleet_faults_are_injected_and_modelled() {
        let w = generate(Kind::FleetTenants, 3, Size::Test);
        assert_eq!(w.jobs.len(), 13);
        let ob = w.injected.over_budget;
        let budgeted = w
            .stream
            .iter()
            .filter(|s| matches!(s.class, Class::Budgeted { .. }))
            .count();
        assert!(
            ob > 0 && (ob as usize) < budgeted,
            "over-budget tenant partly admitted: {ob}/{budgeted}"
        );
        // Every corrupted copy precedes its good frame.
        for (i, s) in w.stream.iter().enumerate() {
            if s.class == Class::Corrupt {
                let next = &w.stream[i + 1];
                assert_eq!((next.job, next.frame), (s.job, s.frame));
                assert!(FragmentBatch::decode(w.bytes(s)).is_err());
            }
        }
    }
}
