//! VOPR-style deterministic simulation tester for the vapro ingest
//! pipeline (the name nods to TigerBeetle's VOPR: a Viewstamped
//! Operation Replicator that earns trust by *measured* falsification
//! power, not by passing tests).
//!
//! One seeded event loop drives ranks, the wire codec, the
//! `WindowedIngestor`/`AnalysisStage` pipeline, and the `FleetIngestor`
//! through a single interleaved fault schedule, materialised from the
//! [`FaultPlan`]/[`TransportEvent`] model in `vapro_bench::chaos`. This
//! crate is the only code that pushes a solo plan through an ingestor:
//! the seeded scenarios and the plan proptests (`tests/plans.rs`, via
//! [`check_solo_plan`]) share one driver. Three registries make a run
//! auditable instead of merely green:
//!
//! * **Fault points** — every server-side rejection/recovery site
//!   (`vapro_core::vopr::fault_points`) counts its executions; the
//!   report gates on ≥ 80 % of them firing, so a suite that silently
//!   stopped exercising, say, backpressure, fails loudly.
//! * **Invariants** — every correctness property is a named, counted
//!   check ([`invariant::InvariantTracker`]); required invariants must
//!   execute at least once.
//! * **Canaries** — five deliberately broken server variants compiled
//!   behind `vapro-core/vopr-canary` (skip CRC, skewed watermark,
//!   disabled dedup, over-eager eviction, out-of-order release). Each
//!   must be flagged within a bounded seed budget; the canary-mutation
//!   score is the harness's measured ability to detect real bugs and
//!   is a hard gate at 100 %.
//!
//! The centrepiece oracle is [`model::AdmissionModel`]: an independent
//! reimplementation of the admission contract that predicts every
//! delivery's outcome from transport metadata alone; the driver
//! compares prediction to observation frame by frame and the shipping
//! watermark after every push.
//!
//! Every run appends each observable event to a [`journal::Journal`];
//! the same seed must produce the same journal hash (the determinism
//! gate) and any failure prints the seed plus a copy-pasteable repro.

pub mod invariant;
pub mod journal;
pub mod model;
pub mod report;

use invariant::InvariantTracker;
use journal::Journal;
use model::{outcome_name, AdmissionModel, Delivery, Outcome};
use report::{CanaryOutcome, VoprReport};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard};
use vapro_bench::chaos::{
    fleet_job_events, fleet_period_ns, one_shot_reference, plan_config, plan_events,
    plan_period_ns, plan_summary, report_pair_identical, reports_identical, FaultPlan, FleetPlan,
    FrameMeta, JobPlan, TransportEvent,
};
use vapro_bench::perf::synthetic_stgs;
use vapro_core::detect::window::{windows_covering, Window};
use vapro_core::vopr::{canary, fault_points};
use vapro_core::{
    FleetConfig, FleetIngestor, FragmentBatch, IngestStats, VaproConfig, WindowCoverage,
    WindowReport, WindowedIngestor, WireError,
};
use vapro_sim::VirtualTime;

/// Global run lock: fault-point counters and canary arming are
/// process-wide statics, so concurrent suites (e.g. parallel tests)
/// must serialise. Poisoning is tolerated — a panicked run already
/// recorded its failure.
static RUN_LOCK: Mutex<()> = Mutex::new(());

/// Seeds a canary hunt may spend per canary before declaring it missed.
pub const CANARY_SEED_BUDGET: u64 = 4;

/// Base seed for hunt attempts, disjoint from measurement seeds.
const HUNT_SEED_BASE: u64 = 0x5EED_1000;

/// Execution profiles: how many measurement seeds a run spends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// PR gate: small fixed seed set, runs in `make check`.
    Pr,
    /// Nightly sweep: a wider fixed seed set.
    Nightly,
    /// One-seed smoke, used by the crate's own tests.
    Quick,
}

impl Profile {
    pub fn name(self) -> &'static str {
        match self {
            Profile::Pr => "pr",
            Profile::Nightly => "nightly",
            Profile::Quick => "quick",
        }
    }

    pub fn seeds(self) -> Vec<u64> {
        match self {
            Profile::Pr => (0..3).map(|i| 0x56A9_0001 + i).collect(),
            Profile::Nightly => (0..12).map(|i| 0x56A9_1001 + i).collect(),
            Profile::Quick => vec![0x56A9_0001],
        }
    }
}

/// The copy-pasteable command replaying one seed with the verbose log.
pub fn repro_line(seed: u64) -> String {
    format!("cargo run --release -p vapro-vopr --features canary --bin vopr -- --seed {seed} -v")
}

// ---------------------------------------------------------------------
// The solo driver: one ingestor, one oracle, one interleaved schedule.

/// Scenario context threaded through every driver.
struct Cx<'a> {
    seed: u64,
    inv: &'a mut InvariantTracker,
    journal: &'a mut Journal,
    log: Option<&'a mut Vec<String>>,
}

impl Cx<'_> {
    fn note(&mut self, line: String) {
        self.journal.record(&line);
        if let Some(log) = self.log.as_deref_mut() {
            log.push(line);
        }
    }

    /// Verbose-log only — for events whose *timing* is legitimately
    /// nondeterministic (pipelined window closes surface at whichever
    /// push their analysis finishes by) even though their content and
    /// final order are not. The deterministic end-of-drive `report`
    /// lines cover the same facts for the journal.
    fn note_log_only(&mut self, line: String) {
        if let Some(log) = self.log.as_deref_mut() {
            log.push(line);
        }
    }
}

/// What one driven run produced.
struct Drive {
    reports: Vec<WindowReport>,
    delivered: u64,
    stats: IngestStats,
    /// Arena `(resident, high water)` bytes when the stream ended,
    /// before the final `finish`: the watermark-eviction steady state.
    arena_bytes: (u64, u64),
    /// The run aborted on a model disagreement (canary behaviour);
    /// end-of-stream checks were skipped.
    poisoned: bool,
}

/// The oracle's view of one delivery: transport metadata only.
fn delivery(f: &FrameMeta) -> Delivery {
    Delivery {
        rank: f.rank,
        seq: f.seq,
        window_start_ns: f.window_start_ns,
        window_end_ns: f.window_end_ns,
        frame_bytes: f.bytes.len() as u64,
        corrupted: f.corrupted,
        malformed: f.malformed,
    }
}

/// The `-v` line of one delivery: its span plus the fault tags the
/// transport applied — the seed-repro view of the schedule.
fn transport_line(label: &str, f: &FrameMeta) -> String {
    let mut tags = String::new();
    if f.corrupted {
        tags.push_str(" [corrupt]");
    }
    if f.retransmit {
        tags.push_str(" [dup]");
    }
    if f.delayed > 0 {
        tags.push_str(&format!(" [delay={}]", f.delayed));
    }
    if f.reordered {
        tags.push_str(" [reorder]");
    }
    if f.malformed {
        tags.push_str(" [malformed]");
    }
    format!(
        "{label} deliver rank={} period={} seq={} span=[{}..{}){tags}",
        f.rank, f.period, f.seq, f.window_start_ns, f.window_end_ns
    )
}

/// Drive one plan's schedule (plus scenario extras) through a
/// `WindowedIngestor`, predicting every delivery with the admission
/// oracle and checking the per-push invariants. Ingestor and oracle
/// start with `initial` ranks; scheduled births of ranks already inside
/// that membership are skipped (the birth-equivalence reference starts
/// at `plan.total_ranks()`). The loop aborts on the first model
/// disagreement: once the server has observably diverged from the
/// specification (only canary mutations do), its subsequent state —
/// possibly holding garbage data — is not worth simulating.
fn drive_solo(
    cx: &mut Cx<'_>,
    label: &str,
    plan: &FaultPlan,
    pipeline_depth: usize,
    initial: usize,
    extras_pre: &[FrameMeta],
    extras_post: &[FrameMeta],
) -> Drive {
    let period_ns = plan_period_ns(plan);
    let mut cfg = VaproConfig { pipeline_depth, ..plan_config(period_ns) };
    cfg.fault.max_buffered_bytes = plan.max_buffered_bytes;
    let cap = cfg.fault.max_buffered_bytes;

    let mut ing = WindowedIngestor::new(initial, 8, cfg.clone());
    let mut oracle = AdmissionModel::new(initial, &cfg);
    let (events, _) = plan_events(plan);

    let mut reports = Vec::new();
    let mut delivered = 0u64;
    let mut prev_watermark = 0u64;
    let mut poisoned = false;

    let steps = extras_pre
        .iter()
        .cloned()
        .map(TransportEvent::Frame)
        .chain(events)
        .chain(extras_post.iter().cloned().map(TransportEvent::Frame));

    for step in steps {
        let f = match step {
            TransportEvent::Birth { rank } if rank < initial => {
                cx.note(format!("{label} birth rank={rank} (member from start)"));
                continue;
            }
            TransportEvent::Birth { rank: scheduled } => {
                let got = ing.add_rank();
                let predicted = oracle.record_birth();
                let agreed = got == scheduled && predicted == scheduled;
                cx.inv.check("birth_registration", agreed, || {
                    format!("birth assigned rank {got}, oracle {predicted}, schedule {scheduled}")
                });
                cx.note(format!("{label} birth rank={got}"));
                continue;
            }
            TransportEvent::Frame(f) => f,
        };
        let d = delivery(&f);
        cx.note_log_only(transport_line(label, &f));
        delivered += 1;
        let predicted = oracle.predict(&d);
        let before = ing.stats().clone();
        let (actual, closed) = match ing.push_encoded(&f.bytes) {
            Ok(closed) => {
                let after = ing.stats();
                let outcome = if after.frames_admitted > before.frames_admitted {
                    Outcome::Admitted
                } else if after.dropped_late_frames > before.dropped_late_frames {
                    Outcome::DroppedLate
                } else if after.dropped_backpressure_frames > before.dropped_backpressure_frames {
                    Outcome::DroppedBackpressure
                } else {
                    Outcome::Admitted // unaccounted accept: agreement check will flag it
                };
                (outcome, closed)
            }
            Err(WireError::BadChecksum { .. }) => (Outcome::RejectedCorrupt, Vec::new()),
            Err(WireError::DuplicateSequence { .. }) => (Outcome::RejectedDuplicate, Vec::new()),
            Err(WireError::UnknownRank { .. }) => (Outcome::RejectedUnknownRank, Vec::new()),
            Err(_) => (Outcome::RejectedMalformed, Vec::new()),
        };
        let watermark = ing.watermark_ns();
        cx.note(format!(
            "{label} frame rank={} seq={} -> {} wm={}",
            d.rank,
            d.seq,
            outcome_name(actual),
            watermark
        ));
        for r in &closed {
            cx.note_log_only(format!(
                "{label} close [{}..{}) complete={}/{}",
                r.window.start.ns(),
                r.window.end.ns(),
                r.coverage.ranks_complete,
                r.coverage.nranks
            ));
        }
        reports.extend(closed);

        cx.inv.check("model_admission_agreement", predicted == actual, || {
            format!(
                "delivery rank={} seq={} predicted {} but server {} ({})",
                d.rank,
                d.seq,
                outcome_name(predicted),
                outcome_name(actual),
                plan_summary(plan)
            )
        });
        cx.inv.check("watermark_agreement", watermark == oracle.watermark_ns(), || {
            format!(
                "server watermark {} ns, oracle {} ns after rank={} seq={}",
                watermark,
                oracle.watermark_ns(),
                d.rank,
                d.seq
            )
        });
        cx.inv.check("watermark_monotone", watermark >= prev_watermark, || {
            format!("watermark regressed {prev_watermark} -> {watermark} ns")
        });
        prev_watermark = watermark;
        cx.inv.check(
            "eviction_safety",
            ing.arena().resident_bytes() <= ing.arena().high_water_bytes(),
            || {
                format!(
                    "arena resident {} above high water {}",
                    ing.arena().resident_bytes(),
                    ing.arena().high_water_bytes()
                )
            },
        );
        if let Some(cap) = cap {
            cx.inv.check("backpressure_bound", ing.buffered_ahead_bytes() <= cap, || {
                format!(
                    "buffered {} bytes ahead of the watermark with a {} byte cap",
                    ing.buffered_ahead_bytes(),
                    cap
                )
            });
        }
        if predicted != actual || watermark != oracle.watermark_ns() {
            poisoned = true;
            cx.note(format!("{label} ABORT on model disagreement"));
            break;
        }
    }

    let stats = ing.stats().clone();
    let max_seen_ns = ing.arena().max_end_ns();
    let arena_bytes = (ing.arena().resident_bytes(), ing.arena().high_water_bytes());
    if poisoned {
        // Dropping the ingestor joins the analysis stage without
        // analysing the tail — the diverged server may hold garbage
        // (e.g. admitted corrupt fragments) that is unsafe to simulate.
        return Drive { reports, delivered, stats, arena_bytes, poisoned };
    }
    reports.extend(ing.finish());

    for r in &reports {
        cx.note(format!(
            "{label} report [{}..{}) complete={}/{} dead={:?} diag={}",
            r.window.start.ns(),
            r.window.end.ns(),
            r.coverage.ranks_complete,
            r.coverage.nranks,
            r.coverage.ranks_dead,
            r.diagnoses.len()
        ));
    }

    // The emitted windows are exactly the canonical half-overlap cover
    // of the admitted data, in order.
    let expected = windows_covering(
        VirtualTime::ZERO,
        VirtualTime::from_ns(max_seen_ns),
        VirtualTime::from_ns(period_ns),
    );
    let tiled = reports.len() == expected.len()
        && reports.iter().zip(&expected).all(|(r, w)| r.window == *w);
    cx.inv.check("window_tiling", tiled, || {
        format!(
            "{} windows closed vs {} expected for data up to {} ns ({})",
            reports.len(),
            expected.len(),
            max_seen_ns,
            plan_summary(plan)
        )
    });
    // Every delivery is admitted, rejected, or a counted policy drop.
    let accounted = stats.frames_admitted + stats.frames_rejected();
    cx.inv.check("delivery_accounting", accounted == delivered, || {
        format!("{delivered} deliveries but {accounted} accounted: {stats}")
    });
    cx.inv.check_result(
        "coverage_sanity",
        coverage_sanity(reports.iter().map(|r| &r.coverage), initial, plan.total_ranks()),
    );
    // A run that admitted anything must have registered an arena peak.
    cx.inv.check("arena_high_water", stats.frames_admitted == 0 || arena_bytes.1 > 0, || {
        format!("{} frames admitted but arena high water never moved", stats.frames_admitted)
    });

    Drive { reports, delivered, stats, arena_bytes, poisoned }
}

/// Per-window coverage sanity over one drive's reports, in close order.
/// The deployment width starts at `initial`, never exceeds `total`
/// (initial plus born) and never shrinks; complete, absent and dead
/// ranks stay inside the width; completeness is a fraction; and the
/// cumulative corrupt, duplicate and late-drop counters never decrease.
/// `seq_gaps` is exempt: it counts gaps *outstanding* at close time, and
/// a reordered or delayed frame arriving later fills its gap.
fn coverage_sanity<'a>(
    coverage: impl IntoIterator<Item = &'a WindowCoverage>,
    initial: usize,
    total: usize,
) -> Result<(), String> {
    let mut prev_nranks = initial;
    let mut prev_counters = (0u64, 0u64, 0u64);
    for c in coverage {
        if c.nranks < prev_nranks || c.nranks > total {
            return Err(format!(
                "coverage width {} after {} (bounds [{initial}, {total}])",
                c.nranks, prev_nranks
            ));
        }
        prev_nranks = c.nranks;
        if c.ranks_complete > c.nranks {
            return Err(format!("{} of {} ranks complete", c.ranks_complete, c.nranks));
        }
        if !(0.0..=1.0).contains(&c.completeness) {
            return Err(format!("completeness {} out of range", c.completeness));
        }
        if c.ranks_absent.iter().chain(&c.ranks_dead).any(|&r| r >= c.nranks) {
            return Err(format!("out-of-range rank in coverage {c:?}"));
        }
        let counters = (c.corrupt_frames, c.duplicate_frames, c.dropped_late_frames);
        if counters.0 < prev_counters.0
            || counters.1 < prev_counters.1
            || counters.2 < prev_counters.2
        {
            return Err(format!(
                "cumulative corrupt/duplicate/late counters went backwards: \
                 {counters:?} after {prev_counters:?}"
            ));
        }
        prev_counters = counters;
    }
    Ok(())
}

/// Pipelined and inline analysis of the same schedule must agree on the
/// reports, the delivery accounting and the arena byte trajectory:
/// sealing snapshots windows out of the arena, so reclamation is
/// independent of where analysis runs.
fn pipeline_inline_equivalence(piped: &Drive, inline: &Drive) -> Result<(), String> {
    reports_identical(&piped.reports, &inline.reports)
        .map_err(|e| format!("pipelined reports diverged from inline: {e}"))?;
    if (piped.delivered, &piped.stats) != (inline.delivered, &inline.stats) {
        return Err(format!(
            "pipelined accounting ({} delivered: {}) diverged from inline ({} delivered: {})",
            piped.delivered, piped.stats, inline.delivered, inline.stats
        ));
    }
    if piped.arena_bytes != inline.arena_bytes {
        return Err(format!(
            "arena (resident, high water) bytes diverged: pipelined {:?} vs inline {:?}",
            piped.arena_bytes, inline.arena_bytes
        ));
    }
    Ok(())
}

/// Births must not perturb anything from their join point on: every
/// window starting at or after the last birth is bit-identical —
/// detection, diagnoses and coverage — to a from-start reference drive
/// where the born ranks were members all along, shipping the same
/// frames. Earlier windows may legitimately differ in deployment width
/// (the elastic-membership contract), hence the birth-anchored
/// comparison.
fn births_match_from_start(
    cx: &mut Cx<'_>,
    plan: &FaultPlan,
    born: &Drive,
) -> Result<(), String> {
    let total = plan.total_ranks();
    let reference = drive_solo(cx, "from_start", plan, default_depth(), total, &[], &[]);
    if reference.poisoned {
        return Err("the from-start reference diverged from the admission oracle".to_string());
    }
    if born.reports.len() != reference.reports.len() {
        return Err(format!(
            "born run closed {} windows, from-start reference closed {}",
            born.reports.len(),
            reference.reports.len()
        ));
    }
    let birth_ns = plan.births.iter().max().map_or(0, |&p| p as u64) * plan_period_ns(plan);
    let mut compared = 0usize;
    for (g, w) in born.reports.iter().zip(&reference.reports) {
        if g.window.start.ns() < birth_ns {
            continue;
        }
        compared += 1;
        if g.coverage.nranks != total {
            return Err(format!(
                "post-birth window {:?} closed with width {} (expected {total})",
                g.window, g.coverage.nranks
            ));
        }
        report_pair_identical(g, w)
            .map_err(|e| format!("born run diverged from the from-start reference: {e}"))?;
    }
    if compared == 0 {
        return Err("no post-birth windows to compare; grow the plan's periods".to_string());
    }
    Ok(())
}

/// The solo check every plan gets: drive it pipelined and inline, hold
/// the two to equivalence, and run the identity check that fits the
/// plan — one-shot identity for a clean transport, birth equivalence
/// when births (within the dead horizon) are its only fault. Returns
/// the pipelined drive unless it was poisoned.
fn solo_plan(cx: &mut Cx<'_>, plan: &FaultPlan, extras: &[FrameMeta]) -> Option<Drive> {
    let piped =
        drive_solo(cx, DEFAULT_DEPTH_LABEL, plan, default_depth(), plan.nranks, extras, &[]);
    if piped.poisoned {
        return None;
    }
    let inline = drive_solo(cx, "inline", plan, 0, plan.nranks, extras, &[]);
    cx.inv.check_result(
        "pipeline_inline_equivalence",
        pipeline_inline_equivalence(&piped, &inline),
    );
    if !plan.births.is_empty() {
        let width = piped.reports.last().map(|r| r.coverage.nranks);
        cx.inv.check("birth_widening", width == Some(plan.total_ranks()), || {
            format!("final window closed at width {width:?}, expected {}", plan.total_ranks())
        });
    }
    // Births are membership changes, not transport faults.
    let clean_transport =
        extras.is_empty() && FaultPlan { births: Vec::new(), ..plan.clone() }.is_fault_free();
    if !clean_transport {
        return Some(piped);
    }
    cx.inv.check("clean_no_loss", piped.stats.frames_admitted == piped.delivered, || {
        format!(
            "clean plan lost frames: {} delivered, {} admitted",
            piped.delivered, piped.stats.frames_admitted
        )
    });
    if plan.births.is_empty() {
        cx.inv.check_result(
            "stream_one_shot_identity",
            reports_identical(&piped.reports, &one_shot_reference(plan)),
        );
    } else if plan.births.iter().all(|&p| (1..=3).contains(&p)) {
        // A from-start member silent past the dead horizon (4 periods)
        // is latched dead, so the reference only exists for births
        // inside it.
        let verdict = births_match_from_start(cx, plan, &piped);
        cx.inv.check_result("birth_equivalence", verdict);
    }
    Some(piped)
}

/// Check one solo plan exactly as the seeded scenarios do (see
/// `solo_plan`): every per-push and end-of-stream invariant on the
/// pipelined and inline drives, their equivalence, and the identity
/// check that fits the plan. Returns the first violation, with the plan
/// summary. Runs under the global run lock.
pub fn check_solo_plan(plan: &FaultPlan) -> Result<(), String> {
    with_run_lock(|| {
        let mut tracker = InvariantTracker::new();
        let mut journal = Journal::new();
        tracker.enter("check_solo_plan", plan.seed);
        let mut cx = Cx { seed: plan.seed, inv: &mut tracker, journal: &mut journal, log: None };
        solo_plan(&mut cx, plan, &[]);
        match tracker.violations().first() {
            Some(v) => Err(format!("{v} ({})", plan_summary(plan))),
            None => Ok(()),
        }
    })
}

/// An undamaged delivery of `bytes` for `rank`'s `period`-th span.
fn clean_frame(bytes: Vec<u8>, rank: usize, period: usize, seq: u64, span: Window) -> FrameMeta {
    FrameMeta {
        bytes,
        rank,
        period,
        seq,
        window_start_ns: span.start.ns(),
        window_end_ns: span.end.ns(),
        corrupted: false,
        retransmit: false,
        delayed: 0,
        reordered: false,
        malformed: false,
    }
}

/// A structurally broken (truncated) frame.
fn truncated_extra(period_ns: u64) -> FrameMeta {
    let mut f = template_frame(0, period_ns);
    f.bytes.truncate(f.bytes.len() / 2);
    f.seq = 0;
    f.malformed = true;
    f
}

/// A valid encoded frame for `rank` covering the first period — the
/// template the hostile extras mutate.
fn template_frame(rank: usize, period_ns: u64) -> FrameMeta {
    let stgs = synthetic_stgs(1, 40, 8, 0xE81A);
    let window = Window {
        start: VirtualTime::ZERO,
        end: VirtualTime::from_ns(period_ns),
    };
    let bytes = FragmentBatch::from_stg_starting_in(&stgs[0], rank, window).with_seq(1).encode();
    clean_frame(bytes, rank, 0, 1, window)
}

// ---------------------------------------------------------------------
// Scenarios. Each exercises a distinct slice of the fault-point space;
// together they are the measurement suite run per seed.

const DEFAULT_DEPTH_LABEL: &str = "piped";

fn default_depth() -> usize {
    VaproConfig::default().pipeline_depth
}

/// Clean transport: the oracle agrees on every delivery, the stream is
/// bit-identical to the one-shot analysis, and the pipelined stage
/// emits exactly what inline analysis does.
fn clean_solo(cx: &mut Cx<'_>) {
    cx.inv.enter("clean_solo", cx.seed);
    solo_plan(cx, &FaultPlan::fault_free(cx.seed), &[]);
}

/// Hostile transport: every fault axis at once plus structurally broken
/// and unknown-rank extras; the oracle must still predict every outcome
/// and the pipelined/inline runs must still agree bit for bit.
fn hostile_solo(cx: &mut Cx<'_>) {
    cx.inv.enter("hostile_solo", cx.seed);
    let mut plan = FaultPlan::random(cx.seed);
    plan.drop = plan.drop.max(0.1);
    plan.duplicate = plan.duplicate.max(0.25);
    plan.reorder = plan.reorder.max(0.3);
    plan.corrupt = plan.corrupt.max(0.2);
    plan.delay = plan.delay.max(0.15);
    if plan.deaths.is_empty() {
        plan.deaths = vec![(0, 1)];
    }
    let period_ns = plan_period_ns(&plan);
    // A truncated frame, and a well-formed one claiming a rank far
    // outside the deployment.
    let extras = [truncated_extra(period_ns), template_frame(250, period_ns)];
    solo_plan(cx, &plan, &extras);
}

/// Zombie rank: a rank dies mid-run, is latched dead, and then its
/// stale frames arrive *after* the latch — they must be acknowledged
/// but dropped, exactly as the oracle predicts, and the dead rank must
/// stay visible in the tail window's coverage.
fn zombie_solo(cx: &mut Cx<'_>) {
    cx.inv.enter("zombie_solo", cx.seed);
    let dead_rank = 1usize;
    let last_period = 1usize;
    let plan =
        FaultPlan { deaths: vec![(dead_rank, last_period)], ..FaultPlan::fault_free(cx.seed) };
    let period_ns = plan_period_ns(&plan);
    let stgs = synthetic_stgs(plan.nranks, plan.frags_per_rank, 8, plan.seed ^ 0xBAD_F00D);
    let late: Vec<FrameMeta> = (1..=2u64)
        .map(|i| {
            let k = last_period as u64 + i;
            let window = Window {
                start: VirtualTime::from_ns(k * period_ns),
                end: VirtualTime::from_ns((k + 1) * period_ns),
            };
            let bytes = FragmentBatch::from_stg_starting_in(&stgs[dead_rank], dead_rank, window)
                .with_seq(k + 1)
                .encode();
            clean_frame(bytes, dead_rank, k as usize, k + 1, window)
        })
        .collect();
    let drive =
        drive_solo(cx, DEFAULT_DEPTH_LABEL, &plan, default_depth(), plan.nranks, &[], &late);
    if drive.poisoned {
        return;
    }
    let dropped_late = drive.stats.dropped_late_frames;
    cx.inv.check("late_data_dropped", dropped_late >= late.len() as u64, || {
        format!(
            "{} late zombie frames delivered but only {dropped_late} dropped under the late policy",
            late.len()
        )
    });
    let tail = drive.reports.last().map(|r| &r.coverage);
    let visible = tail.is_some_and(|c| {
        c.ranks_dead.contains(&dead_rank)
            && c.ranks_absent.contains(&dead_rank)
            && c.completeness < 1.0
    });
    cx.inv.check("dead_rank_visible", visible, || {
        format!("tail coverage {tail:?} hides dead rank {dead_rank}")
    });
}

/// Backpressure: a small ahead-of-watermark byte cap under heavy delay
/// and reorder must shed frames — and the buffered bytes must never
/// exceed the cap at any push.
fn backpressure_solo(cx: &mut Cx<'_>) {
    cx.inv.enter("backpressure_solo", cx.seed);
    let plan = FaultPlan {
        reorder: 0.7,
        delay: 0.6,
        max_buffered_bytes: Some(2_048),
        ..FaultPlan::fault_free(cx.seed)
    };
    let drive =
        drive_solo(cx, DEFAULT_DEPTH_LABEL, &plan, default_depth(), plan.nranks, &[], &[]);
    if drive.poisoned {
        return;
    }
    cx.inv.check("backpressure_engaged", drive.stats.dropped_backpressure_frames > 0, || {
        "the byte cap never shed a frame; shrink the cap or raise the delay axis".to_string()
    });
}

/// Elastic membership: a rank born mid-stream widens coverage exactly
/// once, and every post-birth window is bit-identical to a run where
/// the rank was always present.
fn birth_solo(cx: &mut Cx<'_>) {
    cx.inv.enter("birth_solo", cx.seed);
    let first = 1 + (cx.seed % 3) as usize;
    solo_plan(cx, &FaultPlan { births: vec![first], ..FaultPlan::fault_free(cx.seed) }, &[]);
}

/// Clean fleet: several tenants through the sharded plane, each job
/// bit-identical to its solo run.
fn clean_fleet(cx: &mut Cx<'_>) {
    cx.inv.enter("clean_fleet", cx.seed);
    let plan = FleetPlan::fault_free(cx.seed, 3);
    fleet_scenario(cx, "clean_fleet", &plan);
}

/// Hostile fleet: random per-job fault mixes (job 0 clean); isolation
/// must hold regardless.
fn hostile_fleet(cx: &mut Cx<'_>) {
    cx.inv.enter("hostile_fleet", cx.seed);
    let plan = FleetPlan::random(cx.seed);
    fleet_scenario(cx, "hostile_fleet", &plan);
}

fn fleet_scenario(cx: &mut Cx<'_>, label: &str, plan: &FleetPlan) {
    let outcome = vapro_bench::chaos::run_fleet_plan(plan);
    for j in &outcome.per_job {
        cx.note(format!(
            "{label} job t{}j{} delivered={} rejected={} windows={}",
            j.key.tenant,
            j.key.job,
            j.delivered,
            j.rejected_decode,
            j.reports.len()
        ));
        for r in &j.reports {
            cx.note(format!(
                "{label} job t{}j{} report [{}..{}) complete={}/{}",
                j.key.tenant,
                j.key.job,
                r.window.start.ns(),
                r.window.end.ns(),
                r.coverage.ranks_complete,
                r.coverage.nranks
            ));
        }
    }
    cx.inv.check_result(
        "tenant_isolation",
        vapro_bench::chaos::check_fleet_invariants(plan, &outcome),
    );
}

/// Tenant budgets: a starved tenant's frames are rejected over budget,
/// an unregistered tenant is rejected outright, structural garbage
/// lands in the unattributed bucket — and the well-budgeted tenant's
/// output stays bit-identical to its solo run through all of it.
fn budget_fleet(cx: &mut Cx<'_>) {
    cx.inv.enter("budget_fleet", cx.seed);
    let plan = FleetPlan {
        seed: cx.seed,
        shards: 2,
        queue_capacity_frames: 4,
        periods: 6,
        jobs: vec![JobPlan::clean(1, 0), JobPlan::clean(2, 1)],
    };
    let period_ns = fleet_period_ns(&plan);
    let cfg = plan_config(period_ns);
    let mut fleet = FleetIngestor::new(FleetConfig {
        shards: plan.shards,
        default_nranks: 1,
        bins_per_window: 8,
        vapro: cfg.clone(),
        queue_capacity_frames: plan.queue_capacity_frames,
        default_tenant_budget_bytes: u64::MAX,
    });
    fleet.register_tenant(1, u64::MAX);
    fleet.register_tenant(2, 1_000); // starved: a frame or two per drain
    for jp in &plan.jobs {
        fleet.register_job(jp.key(), jp.nranks, jp.tenant);
    }

    let streams: Vec<Vec<Vec<u8>>> = plan
        .jobs
        .iter()
        .map(|jp| {
            fleet_job_events(&plan, jp, period_ns)
                .0
                .into_iter()
                .filter_map(|e| match e {
                    TransportEvent::Frame(f) => Some(f.bytes),
                    TransportEvent::Birth { .. } => None,
                })
                .collect()
        })
        .collect();

    // Hostile injections: an unregistered tenant and a truncated frame.
    let stgs = synthetic_stgs(1, 40, 8, cx.seed ^ 0x99);
    let w0 = Window { start: VirtualTime::ZERO, end: VirtualTime::from_ns(period_ns) };
    let ghost = FragmentBatch::from_stg_starting_in(&stgs[0], 0, w0)
        .with_seq(1)
        .with_job(99, 0)
        .encode_v3();
    let truncated: Vec<u8> = ghost.iter().copied().take(ghost.len() / 2).collect();
    let ghost_rejected = matches!(fleet.push_encoded(&ghost), Err(WireError::UnknownTenant { .. }));
    cx.inv.check("unknown_tenant_rejected", ghost_rejected, || {
        "a frame from unregistered tenant 99 was not rejected as UnknownTenant".to_string()
    });
    let truncated_rejected = fleet.push_encoded(&truncated).is_err();
    cx.inv.check("structural_garbage_rejected", truncated_rejected, || {
        "a truncated frame was accepted by the fleet plane".to_string()
    });

    let mut windows = Vec::new();
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    let mut over_budget_seen = 0u64;
    for i in 0..longest {
        for stream in &streams {
            let Some(bytes) = stream.get(i) else { continue };
            match fleet.push_encoded(bytes) {
                Ok(closed) => windows.extend(closed),
                Err(WireError::TenantOverBudget { tenant, .. }) => {
                    over_budget_seen += 1;
                    cx.note(format!("budget_fleet over-budget reject tenant={tenant}"));
                }
                Err(e) => cx.note(format!("budget_fleet unexpected rejection: {e:?}")),
            }
        }
    }
    cx.inv.check(
        "budget_enforced",
        over_budget_seen > 0
            && fleet.tenant_stats(2).is_some_and(|s| s.over_budget_frames == over_budget_seen),
        || {
            format!(
                "expected over-budget rejections on tenant 2, saw {} (stats {:?})",
                over_budget_seen,
                fleet.tenant_stats(2).map(|s| s.over_budget_frames)
            )
        },
    );
    let unattributed = fleet.unattributed_stats().clone();
    cx.inv.check(
        "structural_garbage_unattributed",
        unattributed.malformed_frames >= 1 && unattributed.unknown_tenant_frames >= 1,
        || format!("unattributed bucket did not absorb the injections: {unattributed}"),
    );
    let (_report, flushed) = fleet.into_report();
    windows.extend(flushed);

    // The well-budgeted tenant's output is bit-identical to a solo
    // ingestor fed exactly its delivery sequence — the starved tenant's
    // rejections cannot leak across.
    let clean_key = plan.jobs[0].key();
    let clean_reports: Vec<WindowReport> = windows
        .into_iter()
        .filter(|w| w.key == clean_key)
        .map(|w| w.report)
        .collect();
    let mut solo = WindowedIngestor::new(plan.jobs[0].nranks, 8, cfg);
    let mut solo_reports = Vec::new();
    for bytes in &streams[0] {
        if let Ok(closed) = solo.push_encoded(bytes) {
            solo_reports.extend(closed);
        }
    }
    solo_reports.extend(solo.finish());
    cx.inv.check_result(
        "tenant_isolation",
        reports_identical(&clean_reports, &solo_reports)
            .map_err(|e| format!("budgeted fleet diverged from tenant 1's solo run: {e}")),
    );
    for r in &clean_reports {
        cx.note(format!(
            "budget_fleet clean-tenant report [{}..{}) complete={}/{}",
            r.window.start.ns(),
            r.window.end.ns(),
            r.coverage.ranks_complete,
            r.coverage.nranks
        ));
    }
}

// ---------------------------------------------------------------------
// Suite orchestration.

type Scenario = (&'static str, fn(&mut Cx<'_>));

/// Every measurement scenario, in a fixed order (the journal depends on
/// it).
const SCENARIOS: &[Scenario] = &[
    ("clean_solo", clean_solo),
    ("hostile_solo", hostile_solo),
    ("zombie_solo", zombie_solo),
    ("backpressure_solo", backpressure_solo),
    ("birth_solo", birth_solo),
    ("clean_fleet", clean_fleet),
    ("hostile_fleet", hostile_fleet),
    ("budget_fleet", budget_fleet),
];

/// One suite run over one seed: its tracker and journal.
pub struct SuiteRun {
    pub seed: u64,
    pub tracker: InvariantTracker,
    pub journal: Journal,
}

/// Run every scenario against one seed. Panics inside a scenario are
/// caught and recorded as `no_panic` violations (deterministic
/// harnesses never panic; canary mutations may).
pub fn run_suite(seed: u64, mut log: Option<&mut Vec<String>>) -> SuiteRun {
    let mut tracker = InvariantTracker::new();
    let mut journal = Journal::new();
    for &(name, scenario) in SCENARIOS {
        journal.record(name);
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            let mut cx = Cx {
                seed,
                inv: &mut tracker,
                journal: &mut journal,
                log: log.as_deref_mut(),
            };
            scenario(&mut cx);
        }))
        .is_err();
        if panicked {
            tracker.record_panic(name, seed, "scenario panicked".to_string());
            journal.record("PANIC");
        }
    }
    SuiteRun { seed, tracker, journal }
}

fn lock_run() -> MutexGuard<'static, ()> {
    RUN_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Run `f` holding the global run lock — for integration tests that
/// call [`run_suite`] directly and must not race another suite's
/// fault-point counters or canary arming.
pub fn with_run_lock<T>(f: impl FnOnce() -> T) -> T {
    let _guard = lock_run();
    f()
}

/// Hunt one canary: arm it, replay the catching scenarios over a
/// bounded seed budget, and report whether any run flagged it (a
/// violation or a panic both count — the harness noticed).
fn hunt_canary(c: canary::Canary) -> CanaryOutcome {
    let mut attempts = 0u64;
    let mut caught = false;
    for i in 0..CANARY_SEED_BUDGET {
        attempts += 1;
        canary::arm(Some(c));
        let flagged = catch_unwind(AssertUnwindSafe(|| {
            let run = run_suite_subset(HUNT_SEED_BASE + i, &["clean_solo", "hostile_solo"]);
            !run.tracker.violations().is_empty()
        }))
        .unwrap_or(true);
        canary::arm(None);
        if flagged {
            caught = true;
            break;
        }
    }
    CanaryOutcome { name: canary::name(c), caught, attempts }
}

/// Run only the named scenarios (the canary-hunt fast path).
fn run_suite_subset(seed: u64, names: &[&str]) -> SuiteRun {
    let mut tracker = InvariantTracker::new();
    let mut journal = Journal::new();
    for &(name, scenario) in SCENARIOS {
        if !names.contains(&name) {
            continue;
        }
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            let mut cx = Cx { seed, inv: &mut tracker, journal: &mut journal, log: None };
            scenario(&mut cx);
        }))
        .is_err();
        if panicked {
            tracker.record_panic(name, seed, "scenario panicked".to_string());
        }
    }
    SuiteRun { seed, tracker, journal }
}

/// Run the full VOPR suite: measurement seeds, fault-point coverage,
/// the determinism double-run, and (on canary builds) the canary hunt.
/// The returned report carries everything the gates need.
pub fn run_vopr(profile: Profile, seeds: Option<Vec<u64>>, mut log: Option<&mut Vec<String>>) -> VoprReport {
    let _guard = lock_run();
    let seeds = seeds.unwrap_or_else(|| profile.seeds());

    canary::arm(None);
    fault_points::reset();

    let mut merged = InvariantTracker::new();
    let mut first_journal: Option<Journal> = None;
    for &seed in &seeds {
        let run = run_suite(seed, log.as_deref_mut());
        if first_journal.is_none() {
            first_journal = Some(run.journal);
        }
        merged.merge(run.tracker);
    }
    let hits = fault_points::snapshot();

    // Determinism: replaying the first seed must reproduce its journal
    // hash and event count exactly.
    let (journal_hash, journal_events, determinism_ok) = match (seeds.first(), first_journal) {
        (Some(&seed), Some(first)) => {
            let replay = run_suite(seed, None);
            (
                first.hash(),
                first.events(),
                replay.journal.hash() == first.hash()
                    && replay.journal.events() == first.events(),
            )
        }
        _ => (0, 0, true),
    };

    // The canary hunt runs after measurement so armed mutations cannot
    // pollute the coverage counters above.
    let canaries: Option<Vec<CanaryOutcome>> = if canary::compiled() {
        Some(canary::CANARIES.iter().map(|&c| hunt_canary(c)).collect())
    } else {
        None
    };

    VoprReport::assemble(
        profile.name(),
        &seeds,
        &hits,
        &merged,
        journal_hash,
        journal_events,
        determinism_ok,
        canaries,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full measurement suite over one seed: no violations, every
    /// required invariant executed, high fault-point coverage.
    #[test]
    fn quick_profile_passes_every_gate_available_without_canaries() {
        let report = run_vopr(Profile::Quick, None, None);
        assert!(
            report.violations.is_empty(),
            "violations: {:#?}",
            report.violations
        );
        assert!(report.missing_required.is_empty(), "never executed: {:?}", report.missing_required);
        assert!(report.determinism_ok, "same seed produced different journals");
        assert!(
            report.coverage >= 0.8,
            "fault-point coverage {:.2} below 0.8: {:?}",
            report.coverage,
            report.fault_points
        );
    }

    /// The `-v` log (fault tags included) is a view of the run, not part
    /// of it: asking for it must leave the journal untouched.
    #[test]
    fn verbose_log_leaves_the_journal_alone() {
        let mut log = Vec::new();
        let verbose = with_run_lock(|| run_suite(7, Some(&mut log)));
        let quiet = with_run_lock(|| run_suite(7, None));
        assert!(log.iter().any(|l| l.contains(" deliver ") && l.contains("[reorder]")));
        assert_eq!(verbose.journal, quiet.journal);
    }

    /// Three full-width windows with rising cumulative counters: sane.
    fn sane_sequence() -> Vec<WindowCoverage> {
        (0..3u64)
            .map(|i| WindowCoverage {
                corrupt_frames: i,
                duplicate_frames: i,
                dropped_late_frames: i,
                seq_gaps: 2,
                ..WindowCoverage::full(3)
            })
            .collect()
    }

    fn sanity_after(mutate: impl FnOnce(&mut [WindowCoverage])) -> Result<(), String> {
        let mut seq = sane_sequence();
        mutate(&mut seq);
        coverage_sanity(&seq, 3, 4)
    }

    #[test]
    fn coverage_sanity_flags_each_broken_window() {
        assert_eq!(coverage_sanity(&sane_sequence(), 3, 4), Ok(()));
        let shrink = sanity_after(|s| s[1].nranks = 4); // 3 → 4 → 3
        assert!(shrink.is_err_and(|e| e.contains("width 3 after 4")));
        let counter = sanity_after(|s| s[2].corrupt_frames = 0);
        assert!(counter.is_err_and(|e| e.contains("went backwards")));
        let dead = sanity_after(|s| s[0].ranks_dead = vec![3]);
        assert!(dead.is_err_and(|e| e.contains("out-of-range rank")));
        let over = sanity_after(|s| s[1].completeness = 1.5);
        assert!(over.is_err_and(|e| e.contains("completeness 1.5")));
    }

    /// A reordered frame can fill an outstanding gap, so `seq_gaps` may
    /// fall between windows without breaking the invariant.
    #[test]
    fn coverage_sanity_lets_seq_gaps_fall() {
        assert_eq!(sanity_after(|s| s[2].seq_gaps = 0), Ok(()));
    }
}
