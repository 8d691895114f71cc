//! The fault-injection plan/event model and the report comparators.
//!
//! A [`FaultPlan`] describes — deterministically, from a seed — what the
//! transport does to each shipped frame: drop it, duplicate it, reorder
//! it within its reporting period, corrupt a byte, or delay it by whole
//! periods; which ranks die mid-run (stop shipping after a given
//! period); which ranks are *born* mid-run (join the deployment at a
//! given period); and whether a backpressure byte cap is armed.
//! [`plan_events`] materialises the plan as an explicit, inspectable
//! [`TransportEvent`] schedule — every frame delivery annotated with
//! what the transport did to it ([`FrameMeta`]), plus rank births.
//! The VOPR driver (`crates/vopr`, `check_solo_plan`) is the one place a
//! solo plan is pushed through a `WindowedIngestor`: it replays the
//! schedule against its admission oracle and counted invariants.
//!
//! Alongside the model live the comparators every equivalence oracle
//! shares — [`report_pair_identical`] and [`reports_identical`] — and
//! [`one_shot_reference`], the one-shot analysis a clean plan must
//! reproduce bit for bit. The fleet edition ([`FleetPlan`],
//! [`run_fleet_plan`], [`check_fleet_invariants`]) interleaves several
//! jobs' faulted streams through one `FleetIngestor` and proves each job
//! bit-identical to its solo run.

use crate::perf::synthetic_stgs;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use vapro_core::detect::window::{windows_covering, Window};
use vapro_core::wire::FragmentBatch;
use vapro_core::{
    FaultTolerance, LateDataPolicy, ServerPool, Stg, VaproConfig, WindowReport,
    WindowedIngestor,
};
use vapro_sim::VirtualTime;

/// A deterministic fault-injection schedule. Intensities are per-frame
/// probabilities in `[0, 1]`, drawn from `seed` alone — the same plan
/// always produces the same byte-level delivery sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every random decision the plan makes.
    pub seed: u64,
    /// Ranks in the synthetic run.
    pub nranks: usize,
    /// Computation fragments per rank.
    pub frags_per_rank: usize,
    /// Reporting periods the run is sliced into.
    pub periods: usize,
    /// Probability a frame is silently dropped in transit.
    pub drop: f64,
    /// Probability a frame is delivered twice (retransmission).
    pub duplicate: f64,
    /// Probability a frame is reordered within its reporting period.
    pub reorder: f64,
    /// Probability a random payload byte of a frame is flipped.
    pub corrupt: f64,
    /// Probability a frame is delayed by 1–2 whole periods.
    pub delay: f64,
    /// `(rank, last_period)`: the rank ships periods `0..=last_period`
    /// and then dies — nothing further is even generated.
    pub deaths: Vec<(usize, usize)>,
    /// Ranks joining mid-stream: each entry is the first period the
    /// newborn ships. Born rank ids follow the initial ranks, assigned
    /// in ascending birth order, and each newborn's sequence numbering
    /// starts fresh at 1.
    pub births: Vec<usize>,
    /// Backpressure cap forwarded to the ingestor's
    /// `fault.max_buffered_bytes`: ahead-of-watermark frames past this
    /// many buffered bytes are accounted drops.
    pub max_buffered_bytes: Option<u64>,
}

impl FaultPlan {
    /// The clean transport: everything delivered exactly once, in order.
    pub fn fault_free(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            nranks: 3,
            frags_per_rank: 400,
            periods: 8,
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            corrupt: 0.0,
            delay: 0.0,
            deaths: Vec::new(),
            births: Vec::new(),
            max_buffered_bytes: None,
        }
    }

    /// A randomly hostile transport: moderate intensities on every fault
    /// axis and, half the time, one rank dying mid-run — all derived
    /// from `seed`.
    pub fn random(seed: u64) -> FaultPlan {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC4A0_5F00D);
        let nranks = rng.gen_range(2usize..5);
        let periods = rng.gen_range(4usize..10);
        let deaths = if rng.gen_bool(0.5) {
            vec![(rng.gen_range(0..nranks), rng.gen_range(1..periods.max(2) - 1))]
        } else {
            Vec::new()
        };
        let mut plan = FaultPlan {
            seed,
            nranks,
            frags_per_rank: rng.gen_range(150usize..500),
            periods,
            drop: rng.gen_range(0.0..0.15),
            duplicate: rng.gen_range(0.0..0.2),
            reorder: rng.gen_range(0.0..0.5),
            corrupt: rng.gen_range(0.0..0.1),
            delay: rng.gen_range(0.0..0.2),
            deaths,
            births: Vec::new(),
            max_buffered_bytes: None,
        };
        // Drawn after every pre-existing axis so older seeds keep their
        // exact historical plans on those axes.
        if plan.periods >= 4 && rng.gen_bool(0.25) {
            plan.births = vec![rng.gen_range(1..=3usize.min(plan.periods - 2))];
        }
        if rng.gen_bool(0.2) {
            plan.max_buffered_bytes = Some(rng.gen_range(4_096u64..65_536));
        }
        plan
    }

    /// Does the plan inject any fault at all?
    pub fn is_fault_free(&self) -> bool {
        self.drop == 0.0
            && self.duplicate == 0.0
            && self.reorder == 0.0
            && self.corrupt == 0.0
            && self.delay == 0.0
            && self.deaths.is_empty()
            && self.births.is_empty()
            && self.max_buffered_bytes.is_none()
    }

    /// Ranks present by the end of the run: initial plus born.
    pub fn total_ranks(&self) -> usize {
        self.nranks + self.births.len()
    }

    /// Born ranks as `(rank_id, first_period)`, in birth order: born
    /// rank ids follow the initial ranks, earliest birth first.
    pub fn birth_schedule(&self) -> Vec<(usize, usize)> {
        let mut firsts = self.births.clone();
        firsts.sort_unstable();
        firsts.iter().enumerate().map(|(i, &p)| (self.nranks + i, p)).collect()
    }
}

/// One-line human summary of a plan, printed with the seed on any
/// invariant violation so a failure is understandable before it is
/// reproduced.
pub fn plan_summary(plan: &FaultPlan) -> String {
    format!(
        "seed={} ranks={}(+{} born) frags={} periods={} drop={:.2} dup={:.2} \
         reorder={:.2} corrupt={:.2} delay={:.2} deaths={:?} births={:?} cap={:?}",
        plan.seed,
        plan.nranks,
        plan.births.len(),
        plan.frags_per_rank,
        plan.periods,
        plan.drop,
        plan.duplicate,
        plan.reorder,
        plan.corrupt,
        plan.delay,
        plan.deaths,
        plan.births,
        plan.max_buffered_bytes,
    )
}

/// Latest fragment end across the run, ns.
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

/// The synthetic STGs a plan runs over: one per rank, born ranks
/// included (their data exists from t=0; they just don't *ship* it
/// until their birth period).
fn plan_stgs(plan: &FaultPlan) -> Vec<Stg> {
    synthetic_stgs(plan.total_ranks(), plan.frags_per_rank, 8, plan.seed ^ 0xBAD_F00D)
}

/// The ingestion config a plan runs under: production straggler policy
/// scaled to `period_ns` (degrade after 2 periods, dead after 4, drop
/// late data), unbounded buffering unless the caller arms a cap.
/// Public so the VOPR driver replays plans under this policy.
pub fn plan_config(period_ns: u64) -> VaproConfig {
    VaproConfig {
        report_period: VirtualTime::from_ns(period_ns),
        fault: FaultTolerance {
            straggler_horizon: Some(VirtualTime::from_ns(period_ns.saturating_mul(2))),
            dead_horizon: Some(VirtualTime::from_ns(period_ns.saturating_mul(4))),
            late_data: LateDataPolicy::Drop,
            max_buffered_bytes: None,
        },
        ..VaproConfig::default()
    }
}

/// The plan's reporting period: the synthetic data end split into the
/// requested period count.
pub fn plan_period_ns(plan: &FaultPlan) -> u64 {
    (t_end_ns(&plan_stgs(plan)) / plan.periods.max(1) as u64).max(1)
}

// ---------------------------------------------------------------------
// The transport event model. A plan materialises into an explicit
// schedule of events — frames with injection metadata, plus rank
// births — that the VOPR driver replays. The metadata is what makes
// per-delivery *prediction* possible: an independent admission oracle
// can say what the server must do with each delivery before pushing it.

/// What the transport did to one delivered frame, alongside its bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameMeta {
    /// The encoded frame as delivered (corruption applied).
    pub bytes: Vec<u8>,
    /// Shipping rank (as stamped in the frame before corruption).
    pub rank: usize,
    /// Reporting period the frame belongs to.
    pub period: usize,
    /// Stamped sequence number.
    pub seq: u64,
    /// The shipped span's window start, ns.
    pub window_start_ns: u64,
    /// The shipped span's window end, ns.
    pub window_end_ns: u64,
    /// A CRC-covered byte was flipped in transit.
    pub corrupted: bool,
    /// This delivery is a retransmission of an already-sent frame.
    pub retransmit: bool,
    /// Whole periods of transit delay.
    pub delayed: u64,
    /// The frame was reordered within its arrival period.
    pub reordered: bool,
    /// The frame is structurally malformed (truncated or garbage) —
    /// never produced by plans, injected directly by the VOPR driver.
    pub malformed: bool,
}

/// One event of a materialised transport schedule, in arrival order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportEvent {
    /// A frame arrives at the ingestor.
    Frame(FrameMeta),
    /// A rank joins the deployment (`WindowedIngestor::add_rank`).
    Birth {
        /// The rank id the newborn will ship under.
        rank: usize,
    },
}

/// Transport-side injection tallies of one generated schedule, for
/// fault-point coverage accounting (a dropped frame leaves no event, so
/// the schedule alone can't show the drop axis fired).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct InjectionCounts {
    /// Frames silently dropped (never delivered).
    pub dropped: u64,
    /// Extra retransmitted deliveries.
    pub duplicated: u64,
    /// Frames reordered within their arrival period.
    pub reordered: u64,
    /// Frames with a CRC-covered byte flipped.
    pub corrupted: u64,
    /// Frames delayed by whole periods.
    pub delayed: u64,
    /// Ranks that die mid-run.
    pub deaths: u64,
    /// Ranks born mid-run.
    pub births: u64,
}

/// One transport's fault axes, shared by the solo and fleet generators.
struct TransportAxes<'a> {
    drop: f64,
    duplicate: f64,
    reorder: f64,
    corrupt: f64,
    delay: f64,
    deaths: &'a [(usize, usize)],
    /// `(rank_id, first_period)` in birth order; empty for fleet jobs.
    birth_schedule: Vec<(usize, usize)>,
}

/// Generate one transport's event schedule: sequenced per-period frames
/// with faults applied, plus birth events, sorted into arrival order.
/// Each delivery carries a sort key (period-with-delay, slot) so
/// reordering and delaying are pure key perturbations; births sort at
/// slot 0 of their period, ahead of that period's frames. Shipping runs
/// to the ceiling of the data end so the tail period ships too.
/// Corruption only ever flips bytes the CRC covers (crc field onward —
/// never the magic or version byte, where a flip can masquerade as a
/// different frame layout instead of failing the checksum), so every
/// corrupted frame is predictably rejected at decode.
fn generate_events(
    stgs: &[Stg],
    period_ns: u64,
    rng_seed: u64,
    axes: &TransportAxes<'_>,
    encode: &dyn Fn(FragmentBatch) -> Vec<u8>,
) -> (Vec<TransportEvent>, InjectionCounts) {
    let t_end = t_end_ns(stgs);
    let mut rng = ChaCha8Rng::seed_from_u64(rng_seed);
    let mut counts = InjectionCounts {
        deaths: axes.deaths.len() as u64,
        births: axes.birth_schedule.len() as u64,
        ..InjectionCounts::default()
    };
    let mut keyed: Vec<((u64, u64), TransportEvent)> = Vec::new();
    for &(rank, first) in &axes.birth_schedule {
        keyed.push(((first as u64, 0), TransportEvent::Birth { rank }));
    }
    let mut slot = 0u64;
    for k in 0..t_end.div_ceil(period_ns) as usize {
        let period = Window {
            start: VirtualTime::from_ns(k as u64 * period_ns),
            end: VirtualTime::from_ns((k as u64 + 1) * period_ns),
        };
        for (rank, stg) in stgs.iter().enumerate() {
            if axes.deaths.iter().any(|&(r, last)| r == rank && k > last) {
                continue; // the rank is dead: nothing is even generated
            }
            let first = axes
                .birth_schedule
                .iter()
                .find(|&&(r, _)| r == rank)
                .map_or(0, |&(_, f)| f);
            if k < first {
                continue; // not born yet: nothing shipped
            }
            slot += 1;
            if rng.gen_bool(axes.drop) {
                counts.dropped += 1;
                continue;
            }
            // A newborn's sequence numbering starts fresh at 1.
            let seq = (k - first) as u64 + 1;
            let mut bytes =
                encode(FragmentBatch::from_stg_starting_in(stg, rank, period).with_seq(seq));
            let corrupted = rng.gen_bool(axes.corrupt);
            if corrupted {
                counts.corrupted += 1;
                let pos = rng.gen_range(9..bytes.len());
                bytes[pos] ^= 1 << rng.gen_range(0..8u32);
            }
            let delayed = if rng.gen_bool(axes.delay) {
                counts.delayed += 1;
                rng.gen_range(1u64..3)
            } else {
                0
            };
            let reordered = rng.gen_bool(axes.reorder);
            let jitter = if reordered {
                counts.reordered += 1;
                rng.gen_range(0..1_000_000u64)
            } else {
                slot
            };
            let meta = FrameMeta {
                bytes,
                rank,
                period: k,
                seq,
                window_start_ns: period.start.ns(),
                window_end_ns: period.end.ns(),
                corrupted,
                retransmit: false,
                delayed,
                reordered,
                malformed: false,
            };
            if rng.gen_bool(axes.duplicate) {
                counts.duplicated += 1;
                let dup = FrameMeta { retransmit: true, ..meta.clone() };
                keyed.push(((k as u64 + delayed, jitter + 1), TransportEvent::Frame(dup)));
            }
            keyed.push(((k as u64 + delayed, jitter), TransportEvent::Frame(meta)));
        }
    }
    // Stable by key: equal keys keep push order, so the whole schedule
    // is a pure function of (stgs, axes, seed).
    keyed.sort_by_key(|a| a.0);
    (keyed.into_iter().map(|(_, e)| e).collect(), counts)
}

/// Materialise a plan's transport schedule and injection tallies.
/// Deterministic in the plan alone.
pub fn plan_events(plan: &FaultPlan) -> (Vec<TransportEvent>, InjectionCounts) {
    let stgs = plan_stgs(plan);
    let period_ns = (t_end_ns(&stgs) / plan.periods.max(1) as u64).max(1);
    let axes = TransportAxes {
        drop: plan.drop,
        duplicate: plan.duplicate,
        reorder: plan.reorder,
        corrupt: plan.corrupt,
        delay: plan.delay,
        deaths: &plan.deaths,
        birth_schedule: plan.birth_schedule(),
    };
    generate_events(&stgs, period_ns, plan.seed, &axes, &|b| b.encode())
}

/// Field-wise equality of one report pair, as a `Result` naming the
/// first diverging field group.
pub fn report_pair_identical(g: &WindowReport, w: &WindowReport) -> Result<(), String> {
    if g.window != w.window {
        return Err(format!("window {:?} vs {:?}", g.window, w.window));
    }
    let same = g.result.series == w.result.series
        && g.result.rare_paths == w.result.rare_paths
        && g.result.comp_map == w.result.comp_map
        && g.result.comm_map == w.result.comm_map
        && g.result.io_map == w.result.io_map
        && g.result.comp_regions == w.result.comp_regions
        && g.result.comm_regions == w.result.comm_regions
        && g.result.io_regions == w.result.io_regions
        && g.result.coverage.to_bits() == w.result.coverage.to_bits()
        && g.result.edge_clusters == w.result.edge_clusters;
    if !same {
        return Err(format!("detection diverged in window {:?}", g.window));
    }
    if g.diagnoses != w.diagnoses {
        return Err(format!("diagnoses diverged in window {:?}", g.window));
    }
    if g.coverage != w.coverage {
        return Err(format!(
            "coverage diverged in window {:?}: {:?} vs {:?}",
            g.window, g.coverage, w.coverage
        ));
    }
    Ok(())
}

/// Field-wise equality of two report sequences (streamed vs one-shot),
/// as a `Result` so harness callers can surface the first divergence.
pub fn reports_identical(got: &[WindowReport], want: &[WindowReport]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} reports vs {} expected", got.len(), want.len()));
    }
    for (g, w) in got.iter().zip(want) {
        report_pair_identical(g, w)?;
    }
    Ok(())
}

/// The one-shot windowed analysis of a plan's full synthetic data —
/// the bit-identity reference for clean streamed runs. Public so the
/// VOPR driver can compare its own replays against it window by window.
pub fn one_shot_reference(plan: &FaultPlan) -> Vec<WindowReport> {
    let stgs = plan_stgs(plan);
    let cfg = plan_config(plan_period_ns(plan));
    ServerPool::new(1, plan.total_ranks()).analyze_windows(&stgs, plan.total_ranks(), 8, &cfg)
}

// ---------------------------------------------------------------------
// Fleet chaos: the same seeded fault injection aimed at the sharded
// multi-tenant plane. A [`FleetPlan`] interleaves several jobs' frame
// streams — each job with its *own* fault axes — through one
// [`FleetIngestor`]. The check is isolation by construction: every
// job's fleet output must be bit-identical to a solo [`WindowedIngestor`]
// fed exactly that job's delivery sequence, so a chaotic tenant can
// neither corrupt nor stall a clean one; and every job's solo reference
// must itself tile its admitted data exactly.

use std::collections::BTreeMap;
use vapro_core::{FleetConfig, FleetIngestor, FleetReport, FleetWindow, JobKey};

/// One job inside a fleet plan: its routing identity, its synthetic-run
/// shape, and its private transport fault axes.
#[derive(Debug, Clone, PartialEq)]
pub struct JobPlan {
    /// Owning tenant (registered with an unlimited budget by the runner).
    pub tenant: u32,
    /// Job id within the tenant.
    pub job: u32,
    /// Ranks in this job's synthetic run.
    pub nranks: usize,
    /// Computation fragments per rank.
    pub frags_per_rank: usize,
    /// Probability a frame is silently dropped in transit.
    pub drop: f64,
    /// Probability a frame is delivered twice.
    pub duplicate: f64,
    /// Probability a frame is reordered within its reporting period.
    pub reorder: f64,
    /// Probability a frame has a CRC-covered payload byte flipped.
    pub corrupt: f64,
    /// Probability a frame is delayed by 1–2 whole periods.
    pub delay: f64,
    /// `(rank, last_period)` deaths, as in [`FaultPlan::deaths`].
    pub deaths: Vec<(usize, usize)>,
}

impl JobPlan {
    /// A clean job: everything delivered exactly once, in order.
    pub fn clean(tenant: u32, job: u32) -> JobPlan {
        JobPlan {
            tenant,
            job,
            nranks: 2,
            frags_per_rank: 200,
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            corrupt: 0.0,
            delay: 0.0,
            deaths: Vec::new(),
        }
    }

    /// Does this job's transport inject any fault at all?
    pub fn is_fault_free(&self) -> bool {
        self.drop == 0.0
            && self.duplicate == 0.0
            && self.reorder == 0.0
            && self.corrupt == 0.0
            && self.delay == 0.0
            && self.deaths.is_empty()
    }

    /// The fleet routing key.
    pub fn key(&self) -> JobKey {
        JobKey { tenant: self.tenant, job: self.job }
    }
}

/// A deterministic multi-job fault schedule over the fleet plane.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPlan {
    /// Seed for every random decision the plan makes.
    pub seed: u64,
    /// Ingest shards of the fleet under test.
    pub shards: usize,
    /// Per-shard queue capacity (small values force frequent drains).
    pub queue_capacity_frames: usize,
    /// Reporting periods every job is sliced into (shared cadence).
    pub periods: usize,
    /// The jobs and their private fault axes.
    pub jobs: Vec<JobPlan>,
}

impl FleetPlan {
    /// A clean fleet: `jobs` fault-free jobs across distinct tenants.
    pub fn fault_free(seed: u64, jobs: usize) -> FleetPlan {
        FleetPlan {
            seed,
            shards: 2,
            queue_capacity_frames: 8,
            periods: 6,
            jobs: (0..jobs).map(|j| JobPlan::clean(1 + j as u32 % 3, j as u32)).collect(),
        }
    }

    /// A randomly hostile fleet: 2–4 jobs, each with its own random
    /// fault mix — except job 0, which is always clean so every random
    /// plan also probes the isolation claim — all derived from `seed`.
    pub fn random(seed: u64) -> FleetPlan {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x000F_1EE7_C4A0);
        let njobs = rng.gen_range(2usize..5);
        let periods = rng.gen_range(4usize..8);
        let jobs = (0..njobs)
            .map(|j| {
                let mut jp = JobPlan {
                    tenant: 1 + rng.gen_range(0u32..3),
                    job: j as u32,
                    nranks: rng.gen_range(2usize..4),
                    frags_per_rank: rng.gen_range(120usize..300),
                    drop: rng.gen_range(0.0..0.15),
                    duplicate: rng.gen_range(0.0..0.2),
                    reorder: rng.gen_range(0.0..0.5),
                    corrupt: rng.gen_range(0.0..0.1),
                    delay: rng.gen_range(0.0..0.2),
                    deaths: if rng.gen_bool(0.4) {
                        vec![(0, rng.gen_range(1..periods.max(3) - 1))]
                    } else {
                        Vec::new()
                    },
                };
                jp.deaths = jp
                    .deaths
                    .iter()
                    .map(|&(_, p)| (rng.gen_range(0..jp.nranks), p))
                    .collect();
                if j == 0 {
                    jp = JobPlan { nranks: jp.nranks, frags_per_rank: jp.frags_per_rank, ..JobPlan::clean(jp.tenant, 0) };
                }
                jp
            })
            .collect();
        FleetPlan {
            seed,
            shards: rng.gen_range(1usize..5),
            queue_capacity_frames: rng.gen_range(1usize..17),
            periods,
            jobs,
        }
    }
}

/// What one job saw in a fleet chaos run.
#[derive(Debug)]
pub struct FleetJobOutcome {
    /// The job's routing key.
    pub key: JobKey,
    /// The job's window reports, in window order.
    pub reports: Vec<WindowReport>,
    /// Frame deliveries attempted for this job.
    pub delivered: usize,
    /// Deliveries the fleet rejected at decode (corruption).
    pub rejected_decode: usize,
}

/// What one fleet chaos run produced.
#[derive(Debug)]
pub struct FleetChaosOutcome {
    /// The shared reporting period, ns.
    pub period_ns: u64,
    /// Total frame deliveries attempted, all jobs.
    pub delivered: usize,
    /// Per-job outcomes, in plan order.
    pub per_job: Vec<FleetJobOutcome>,
    /// The fleet's final aggregate report.
    pub report: FleetReport,
}

/// This job's synthetic STGs (seeded off the plan and the job identity).
fn fleet_job_stgs(plan: &FleetPlan, jp: &JobPlan) -> Vec<Stg> {
    let salt = ((jp.tenant as u64) << 32) | jp.job as u64;
    synthetic_stgs(jp.nranks, jp.frags_per_rank, 8, plan.seed ^ salt ^ 0xBAD_F00D)
}

/// The shared reporting period: the longest job's data split into the
/// plan's period count (every job analyses on the same cadence, as the
/// fleet's single `VaproConfig` requires). Public for the VOPR driver's
/// per-job oracle replays.
pub fn fleet_period_ns(plan: &FleetPlan) -> u64 {
    let t_end = plan
        .jobs
        .iter()
        .map(|jp| t_end_ns(&fleet_job_stgs(plan, jp)))
        .max()
        .unwrap_or(0);
    (t_end / plan.periods.max(1) as u64).max(1)
}

/// Materialise one job's faulted event schedule: sequenced per-period
/// v3 frames with the job's routing stamp, faults applied, sorted into
/// arrival order (see [`generate_events`] for the corruption-range
/// contract). Deterministic in the plan seed and the job identity.
/// Public for the VOPR driver's per-job oracle replays.
pub fn fleet_job_events(
    plan: &FleetPlan,
    jp: &JobPlan,
    period_ns: u64,
) -> (Vec<TransportEvent>, InjectionCounts) {
    let stgs = fleet_job_stgs(plan, jp);
    let salt = ((jp.tenant as u64) << 32) | jp.job as u64;
    let axes = TransportAxes {
        drop: jp.drop,
        duplicate: jp.duplicate,
        reorder: jp.reorder,
        corrupt: jp.corrupt,
        delay: jp.delay,
        deaths: &jp.deaths,
        birth_schedule: Vec::new(),
    };
    generate_events(&stgs, period_ns, plan.seed ^ salt, &axes, &|b| {
        b.with_job(jp.tenant, jp.job).encode_v3()
    })
}

/// One job's delivery bytes, in arrival order.
fn fleet_job_deliveries(plan: &FleetPlan, jp: &JobPlan, period_ns: u64) -> Vec<Vec<u8>> {
    fleet_job_events(plan, jp, period_ns)
        .0
        .into_iter()
        .filter_map(|e| match e {
            TransportEvent::Frame(f) => Some(f.bytes),
            TransportEvent::Birth { .. } => None,
        })
        .collect()
}

/// Run one fleet plan end to end: every job's faulted stream generated,
/// the streams interleaved round-robin, pushed through a sharded
/// [`FleetIngestor`], all windows flushed and attributed back per job.
pub fn run_fleet_plan(plan: &FleetPlan) -> FleetChaosOutcome {
    let period_ns = fleet_period_ns(plan);
    let cfg = plan_config(period_ns);
    let streams: Vec<Vec<Vec<u8>>> =
        plan.jobs.iter().map(|jp| fleet_job_deliveries(plan, jp, period_ns)).collect();

    let mut fleet = FleetIngestor::new(FleetConfig {
        shards: plan.shards,
        default_nranks: 1,
        bins_per_window: 8,
        vapro: cfg,
        queue_capacity_frames: plan.queue_capacity_frames,
        default_tenant_budget_bytes: u64::MAX,
    });
    for jp in &plan.jobs {
        fleet.register_tenant(jp.tenant, u64::MAX);
        fleet.register_job(jp.key(), jp.nranks, jp.tenant);
    }

    let mut rejected_decode = vec![0usize; plan.jobs.len()];
    let mut windows: Vec<FleetWindow> = Vec::new();
    let mut delivered = 0usize;
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for (j, stream) in streams.iter().enumerate() {
            let Some(bytes) = stream.get(i) else { continue };
            delivered += 1;
            match fleet.push_encoded(bytes) {
                Ok(closed) => windows.extend(closed),
                Err(_) => rejected_decode[j] += 1,
            }
        }
    }
    let (report, flushed) = fleet.into_report();
    windows.extend(flushed);

    let mut by_key: BTreeMap<JobKey, Vec<WindowReport>> = BTreeMap::new();
    for w in windows {
        by_key.entry(w.key).or_default().push(w.report);
    }
    let per_job = plan
        .jobs
        .iter()
        .enumerate()
        .map(|(j, jp)| {
            let key = jp.key();
            FleetJobOutcome {
                key,
                reports: by_key.remove(&key).unwrap_or_default(),
                delivered: streams[j].len(),
                rejected_decode: rejected_decode[j],
            }
        })
        .collect();

    FleetChaosOutcome { period_ns, delivered, per_job, report }
}

/// The fleet isolation invariants. For every job, a solo
/// [`WindowedIngestor`] fed exactly that job's delivery sequence (same
/// decode-then-push admission as the fleet's shard path) must produce a
/// bit-identical report stream — so no amount of chaos on *other*
/// tenants can corrupt or stall this one — and the solo reference must
/// tile its admitted data exactly. Clean jobs must additionally admit
/// every delivery. Returns the first violation, `Ok(())` when sound.
pub fn check_fleet_invariants(plan: &FleetPlan, outcome: &FleetChaosOutcome) -> Result<(), String> {
    let cfg = plan_config(outcome.period_ns);
    let period = VirtualTime::from_ns(outcome.period_ns);
    for (jp, job_outcome) in plan.jobs.iter().zip(&outcome.per_job) {
        let deliveries = fleet_job_deliveries(plan, jp, outcome.period_ns);
        if deliveries.len() != job_outcome.delivered {
            return Err(format!(
                "job {:?}: {} deliveries regenerated vs {} recorded",
                job_outcome.key,
                deliveries.len(),
                job_outcome.delivered
            ));
        }
        let mut solo = WindowedIngestor::new(jp.nranks, 8, cfg.clone());
        let mut solo_reports = Vec::new();
        let mut solo_rejected = 0usize;
        for bytes in &deliveries {
            match FragmentBatch::decode(bytes) {
                Ok(batch) => solo_reports.extend(solo.push(batch)),
                Err(_) => solo_rejected += 1,
            }
        }
        let admitted = solo.stats().frames_admitted;
        let max_seen_ns = solo.arena().max_end_ns();
        solo_reports.extend(solo.finish());

        if solo_rejected != job_outcome.rejected_decode {
            return Err(format!(
                "job {:?}: fleet rejected {} frames at decode, solo rejected {}",
                job_outcome.key, job_outcome.rejected_decode, solo_rejected
            ));
        }
        // Isolation: the fleet's per-job output equals the solo run.
        reports_identical(&job_outcome.reports, &solo_reports)
            .map_err(|e| format!("job {:?} diverged from its solo run: {e}", job_outcome.key))?;
        // The solo reference tiles its admitted data exactly.
        let expected =
            windows_covering(VirtualTime::ZERO, VirtualTime::from_ns(max_seen_ns), period);
        if solo_reports.len() != expected.len() {
            return Err(format!(
                "job {:?}: {} windows closed vs {} expected for data up to {} ns",
                job_outcome.key,
                solo_reports.len(),
                expected.len(),
                max_seen_ns
            ));
        }
        for (r, w) in solo_reports.iter().zip(&expected) {
            if r.window != *w {
                return Err(format!(
                    "job {:?}: window {:?} emitted where {:?} expected",
                    job_outcome.key, r.window, w
                ));
            }
        }
        // A clean job's transport loses nothing.
        if jp.is_fault_free()
            && (solo_rejected > 0 || admitted != deliveries.len() as u64)
        {
            return Err(format!(
                "clean job {:?} lost frames: {} delivered, {} admitted, {} rejected",
                job_outcome.key,
                deliveries.len(),
                admitted,
                solo_rejected
            ));
        }
        // The fleet report attributes the job with the right close count.
        let Some(summary) = outcome.report.jobs.iter().find(|s| s.key == job_outcome.key)
        else {
            return Err(format!("job {:?} missing from the fleet report", job_outcome.key));
        };
        if summary.windows_closed != job_outcome.reports.len() {
            return Err(format!(
                "job {:?}: report says {} windows closed, {} observed",
                job_outcome.key,
                summary.windows_closed,
                job_outcome.reports.len()
            ));
        }
    }
    // Every decode rejection is accounted to the unattributed bucket —
    // a corrupted frame names no trustworthy tenant.
    let total_rejected: usize = outcome.per_job.iter().map(|j| j.rejected_decode).sum();
    if outcome.report.unattributed.frames_rejected() != total_rejected as u64 {
        return Err(format!(
            "{} decode rejections but the unattributed bucket counted {}",
            total_rejected,
            outcome.report.unattributed.frames_rejected()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clean_fleet_plan_is_isolated_and_complete() {
        let plan = FleetPlan::fault_free(11, 3);
        let outcome = run_fleet_plan(&plan);
        check_fleet_invariants(&plan, &outcome).expect("clean fleet violated invariants");
        assert_eq!(outcome.per_job.len(), 3);
        for j in &outcome.per_job {
            assert!(!j.reports.is_empty(), "job {:?} closed no windows", j.key);
            assert_eq!(j.rejected_decode, 0);
        }
    }

    #[test]
    fn a_chaotic_tenant_cannot_corrupt_or_stall_a_clean_one() {
        // Job 0 is clean; job 1 shares the fleet and suffers every fault
        // axis at once. The invariant check proves job 0's output equals
        // its solo run bit for bit — and that job 1, for all its losses,
        // still tiles whatever data survived its transport.
        let mut plan = FleetPlan::fault_free(29, 2);
        plan.shards = 3;
        plan.queue_capacity_frames = 4;
        plan.jobs[1] = JobPlan {
            drop: 0.15,
            duplicate: 0.25,
            reorder: 0.5,
            corrupt: 0.5,
            delay: 0.2,
            deaths: vec![(1, 1)],
            ..plan.jobs[1].clone()
        };
        let outcome = run_fleet_plan(&plan);
        check_fleet_invariants(&plan, &outcome).expect("isolation violated");
        let chaotic = &outcome.per_job[1];
        assert!(chaotic.rejected_decode > 0, "corruption axis never fired");
        assert!(
            outcome.report.unattributed.corrupt_frames >= chaotic.rejected_decode as u64 / 2,
            "decode rejections not surfaced in the fleet report"
        );
    }

    #[test]
    fn fleet_plans_are_deterministic_in_their_seed() {
        let plan = FleetPlan::random(77);
        assert_eq!(plan, FleetPlan::random(77));
        let a = run_fleet_plan(&plan);
        let b = run_fleet_plan(&plan);
        assert_eq!(a.delivered, b.delivered);
        for (ja, jb) in a.per_job.iter().zip(&b.per_job) {
            assert_eq!(ja.key, jb.key);
            assert_eq!(ja.rejected_decode, jb.rejected_decode);
            reports_identical(&ja.reports, &jb.reports).expect("same fleet plan diverged");
        }
    }

    #[test]
    fn event_schedules_are_deterministic_and_expose_injections() {
        let plan = FaultPlan {
            drop: 0.2,
            duplicate: 0.2,
            corrupt: 0.2,
            reorder: 0.3,
            delay: 0.2,
            births: vec![1],
            ..FaultPlan::fault_free(101)
        };
        assert_eq!(FaultPlan::random(99), FaultPlan::random(99));
        let (ev_a, counts_a) = plan_events(&plan);
        let (ev_b, counts_b) = plan_events(&plan);
        assert_eq!(counts_a, counts_b);
        assert_eq!(ev_a.len(), ev_b.len());
        for (a, b) in ev_a.iter().zip(&ev_b) {
            match (a, b) {
                (TransportEvent::Frame(fa), TransportEvent::Frame(fb)) => {
                    assert_eq!(fa.bytes, fb.bytes);
                    assert_eq!(fa.corrupted, fb.corrupted);
                }
                (TransportEvent::Birth { rank: ra }, TransportEvent::Birth { rank: rb }) => {
                    assert_eq!(ra, rb)
                }
                _ => panic!("event kinds diverged between identical plans"),
            }
        }
        assert_eq!(counts_a.births, 1);
        assert!(counts_a.dropped > 0 && counts_a.corrupted > 0, "{counts_a:?}");
    }
}
