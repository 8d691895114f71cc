//! Correctness oracles. They run outside every timed pass; each returns
//! the number of wrong outcomes it found, and the caller fails the run
//! (printing the seed) when any is non-zero.
//!
//! * solo streams must equal one-shot `ServerPool::analyze_windows`;
//! * each fleet job must equal a solo `WindowedIngestor` fed the frames
//!   the fleet delivered to it;
//! * every clean frame must be admitted and every hostile frame rejected
//!   for the reason it was built to trip, in exactly the injected counts;
//! * every client batch must decode back to exactly its collector's
//!   fragments for that period.

use crate::gen::{period_window, Class, Workload};
use crate::replay::{delivered, solo_reports, ClientPass, Rejections, ServerPass};
use vapro_bench::chaos::report_pair_identical;
use vapro_core::wire::FragmentBatch;
use vapro_core::{ServerPool, WindowReport};

/// The reports each job must produce.
pub fn references(w: &Workload) -> Vec<Vec<WindowReport>> {
    match w.fleet {
        None => {
            let job = &w.jobs[0];
            vec![ServerPool::new(1, job.nranks)
                .analyze_windows(&job.stgs, job.nranks, job.bins, &job.cfg)]
        }
        Some(_) => (0..w.jobs.len())
            .map(|j| solo_reports(&w.jobs[j], &delivered(w, j), None).0)
            .collect(),
    }
}

/// Windows whose report differs from the reference (a missing or extra
/// window counts once).
pub fn report_mismatches(got: &[Vec<WindowReport>], want: &[Vec<WindowReport>]) -> u64 {
    got.iter()
        .zip(want)
        .map(|(g, w)| {
            let differ = g
                .iter()
                .zip(w)
                .filter(|(a, b)| report_pair_identical(a, b).is_err())
                .count();
            (differ + g.len().abs_diff(w.len())) as u64
        })
        .sum()
}

/// Admission outcomes that differ from what each frame was built to do:
/// a push rejected or accepted against expectation, a job admitting a
/// different number of frames than it was sent cleanly, and rejection
/// counts by reason that differ from the injected counts.
pub fn admission_errors(w: &Workload, pass: &ServerPass) -> u64 {
    let mut wrong = 0u64;
    for (s, &ok) in w.stream.iter().zip(&pass.accepted) {
        let want_ok = match s.class {
            Class::Clean | Class::Duplicate | Class::UnknownRank => true,
            Class::Budgeted { admitted } => admitted,
            Class::Corrupt | Class::UnknownTenant => false,
        };
        // A solo ingestor rejects duplicates and unknown ranks at push.
        let want_ok = want_ok
            && !(w.fleet.is_none() && matches!(s.class, Class::Duplicate | Class::UnknownRank));
        wrong += u64::from(ok != want_ok);
    }
    for (j, &admitted) in pass.admitted_frames.iter().enumerate() {
        let want = w
            .stream
            .iter()
            .filter(|s| s.job == j && w.admits(s))
            .count() as u64;
        wrong += admitted.abs_diff(want);
    }
    let i = w.injected;
    let want = Rejections {
        corrupt: i.corrupt,
        duplicate: i.duplicate,
        unknown_rank: i.unknown_rank,
        unknown_tenant: i.unknown_tenant,
        over_budget: i.over_budget,
        ..Rejections::default()
    };
    wrong += want
        .named()
        .iter()
        .zip(pass.rejected.named())
        .map(|((_, a), (_, b))| a.abs_diff(b))
        .sum::<u64>();
    wrong
}

/// Shipped batches that do not decode back to their collector's
/// fragments for the period, or differ from the server workload's frame
/// for the same rank and period. `pass` must have been run with its
/// frames kept.
pub fn client_errors(w: &Workload, pass: &ClientPass) -> u64 {
    let mut wrong = 0u64;
    for (j, job) in w.jobs.iter().enumerate() {
        let (frames, stgs) = (&pass.frames[j], &pass.stgs[j]);
        for (rank, per_period) in frames.iter().enumerate() {
            for (k, bytes) in per_period.iter().enumerate() {
                let want = FragmentBatch::from_stg_starting_in(
                    &stgs[rank],
                    rank,
                    period_window(k as u64, job.period_ns()),
                )
                .with_seq(k as u64 + 1)
                .with_job(job.key.tenant, job.key.job);
                let decodes_back = FragmentBatch::decode(bytes).is_ok_and(|b| b == want);
                let server_frame = &job.frames[k * job.nranks + rank];
                let same_frame = server_frame.rank == rank && server_frame.bytes == *bytes;
                wrong += u64::from(!(decodes_back && same_frame));
            }
        }
    }
    wrong
}

/// Batches one client pass ships.
pub fn client_batches(w: &Workload) -> u64 {
    w.jobs.iter().map(|j| j.n_periods * j.nranks as u64).sum()
}

/// Share of injected noise events whose rank and interval some detected
/// computation region covers.
pub fn noise_recall(w: &Workload, reports: &[WindowReport]) -> Option<f64> {
    let noise = &w.jobs[0].noise;
    if noise.is_empty() {
        return None;
    }
    let hit = noise
        .iter()
        .filter(|n| {
            reports
                .iter()
                .flat_map(|r| &r.result.comp_regions)
                .any(|region| {
                    region.covers_rank(n.rank)
                        && region.t_start.ns() < n.end_ns
                        && region.t_end.ns() > n.start_ns
                })
        })
        .count();
    Some(hit as f64 / noise.len() as f64)
}

/// Share of windows that flag at least one computation region.
pub fn region_frac(reports: &[WindowReport]) -> f64 {
    let flagged = reports
        .iter()
        .filter(|r| !r.result.comp_regions.is_empty())
        .count();
    flagged as f64 / reports.len().max(1) as f64
}
