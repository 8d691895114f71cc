//! Closed-loop replays through the public entry points, from one thread:
//! the next frame is pushed when the previous push returns.
//!
//! * [`server_pass`] drives a `WindowedIngestor` (solo workloads) or a
//!   `FleetIngestor` (`fleet-tenants`) with the workload's frames and
//!   times every push, the final `finish`/`into_report`, and every
//!   window's latency.
//! * [`client_pass`] drives one `Collector` per rank with the recorded
//!   interception events in virtual-time order, extracting and encoding
//!   each rank's batch once per report period.
//!
//! With `traced` set, a pass also keeps a span for every public call it
//! makes (and, on the client, for every hook call), plus the stage and
//! queue gauges read after each push. Those extra calls are why traced
//! timings are never used for end-to-end metrics.

use crate::clock::LatencyClock;
use crate::gen::{period_window, Class, FleetShape, Hook, Job, Workload};
use crate::measure::{since, SpanLog};
use std::collections::HashMap;
use std::time::Instant;
use vapro_core::wire::FragmentBatch;
use vapro_core::{Collector, IngestStats, JobKey, WindowReport, WindowedIngestor};
use vapro_sim::Interceptor;

/// Rejections by reason, summed over every stats object the plane keeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rejections {
    /// Checksum failures.
    pub corrupt: u64,
    /// Unknown wire versions.
    pub bad_version: u64,
    /// Other structural decode failures.
    pub malformed: u64,
    /// Frames naming a rank the job does not have.
    pub unknown_rank: u64,
    /// Retransmits.
    pub duplicate: u64,
    /// Late frames dropped.
    pub late: u64,
    /// Backpressure drops.
    pub backpressure: u64,
    /// Frames of unregistered tenants.
    pub unknown_tenant: u64,
    /// Frames over their tenant's byte budget.
    pub over_budget: u64,
}

impl Rejections {
    /// Add one stats object.
    pub fn add(&mut self, s: &IngestStats) {
        self.corrupt += s.corrupt_frames;
        self.bad_version += s.bad_version_frames;
        self.malformed += s.malformed_frames;
        self.unknown_rank += s.unknown_rank_frames;
        self.duplicate += s.duplicate_frames;
        self.late += s.dropped_late_frames;
        self.backpressure += s.dropped_backpressure_frames;
        self.unknown_tenant += s.unknown_tenant_frames;
        self.over_budget += s.over_budget_frames;
    }

    /// `(name, count)` for the per-layer ledger.
    pub fn named(&self) -> [(&'static str, u64); 9] {
        [
            ("corrupt", self.corrupt),
            ("bad_version", self.bad_version),
            ("malformed", self.malformed),
            ("unknown_rank", self.unknown_rank),
            ("duplicate", self.duplicate),
            ("late", self.late),
            ("backpressure", self.backpressure),
            ("unknown_tenant", self.unknown_tenant),
            ("over_budget", self.over_budget),
        ]
    }
}

/// One server pass.
#[derive(Default)]
pub struct ServerPass {
    /// First push to the return of `finish`/`into_report`, ns.
    pub wall_ns: u64,
    /// Duration of every push, ns.
    pub push_ns: Vec<u64>,
    /// One latency sample per window of every latency-tracked job, ns.
    pub latency_ns: Vec<u64>,
    /// Per sent frame: did the push return `Ok`?
    pub accepted: Vec<bool>,
    /// Reports per job, in window order.
    pub reports: Vec<Vec<WindowReport>>,
    /// Frames each job's ingestor admitted.
    pub admitted_frames: Vec<u64>,
    /// Rejections by reason.
    pub rejected: Rejections,
    /// Traced: every public call.
    pub spans: SpanLog,
    /// Traced: `pending_windows()` (solo) or `queued_frames()` (fleet)
    /// after each push.
    pub gauge: Vec<u64>,
    /// Reports the final `finish`/`into_report` delivered.
    pub at_finish: u64,
    /// Duration of the final `finish`/`into_report`, ns.
    pub finish_ns: u64,
    /// Peak arena bytes (largest over jobs).
    pub arena_peak_bytes: u64,
}

/// Replay the workload's stream once through its ingest plane.
pub fn server_pass(w: &Workload, traced: bool) -> ServerPass {
    match &w.fleet {
        None => solo_pass(w, traced),
        Some(shape) => fleet_pass_with(w, shape, traced),
    }
}

fn solo_pass(w: &Workload, traced: bool) -> ServerPass {
    let job = &w.jobs[0];
    let mut ingestor = WindowedIngestor::new(job.nranks, job.bins, job.cfg.clone());
    let mut clock = LatencyClock::new(job.nranks, job.period_ns());
    let mut out = ServerPass {
        push_ns: Vec::with_capacity(w.stream.len()),
        accepted: Vec::with_capacity(w.stream.len()),
        reports: vec![Vec::new()],
        ..ServerPass::default()
    };
    let t0 = Instant::now();
    for s in &w.stream {
        let frame = &job.frames[s.frame];
        let start = since(t0);
        clock.send(frame.rank, frame.window_end_ns, start);
        let result = ingestor.push_encoded(w.bytes(s));
        let end = since(t0);
        out.push_ns.push(end - start);
        if traced {
            out.spans.push("WindowedIngestor::push_encoded", start, end);
            let g0 = since(t0);
            out.gauge.push(ingestor.pending_windows());
            out.spans
                .push("WindowedIngestor::pending_windows", g0, since(t0));
        }
        out.accepted.push(result.is_ok());
        if let Ok(reports) = result {
            clock.deliver(
                reports.iter().map(|r| r.window.start.ns()),
                end,
                None,
                &mut out.latency_ns,
            );
            out.reports[0].extend(reports);
        }
    }
    out.admitted_frames = vec![ingestor.stats().frames_admitted];
    out.rejected.add(ingestor.stats());
    out.arena_peak_bytes = ingestor.arena().high_water_bytes();
    let start = since(t0);
    let tail = ingestor.finish();
    let end = since(t0);
    if traced {
        out.spans.push("WindowedIngestor::finish", start, end);
    }
    clock.deliver(
        tail.iter().map(|r| r.window.start.ns()),
        end,
        Some(start),
        &mut out.latency_ns,
    );
    out.at_finish = tail.len() as u64;
    out.finish_ns = end - start;
    out.reports[0].extend(tail);
    out.wall_ns = end;
    out
}

/// Replay the workload's stream once through a fleet plane of `shape`
/// (for a solo workload: its one job on a multi-shard plane).
pub fn fleet_pass_with(w: &Workload, shape: &FleetShape, traced: bool) -> ServerPass {
    let mut fleet = shape.build(&w.jobs);
    let index: HashMap<JobKey, usize> = w
        .jobs
        .iter()
        .enumerate()
        .map(|(j, job)| (job.key, j))
        .collect();
    let mut clocks: Vec<LatencyClock> = w
        .jobs
        .iter()
        .map(|j| LatencyClock::new(j.nranks, j.period_ns()))
        .collect();
    let mut out = ServerPass {
        push_ns: Vec::with_capacity(w.stream.len()),
        accepted: Vec::with_capacity(w.stream.len()),
        reports: w.jobs.iter().map(|_| Vec::new()).collect(),
        ..ServerPass::default()
    };
    // The over-budget tenant's job has sequence gaps by design, so its
    // windows wait for the final flush; it is kept out of latency.
    let tracked = |j: usize| !w.jobs[j].over_budget;
    let t0 = Instant::now();
    for s in &w.stream {
        let job = &w.jobs[s.job];
        let frame = &job.frames[s.frame];
        let start = since(t0);
        if w.admits(s) && tracked(s.job) {
            clocks[s.job].send(frame.rank, frame.window_end_ns, start);
        }
        let result = fleet.push_encoded(w.bytes(s));
        let end = since(t0);
        out.push_ns.push(end - start);
        if traced {
            out.spans.push("FleetIngestor::push_encoded", start, end);
            let g0 = since(t0);
            out.gauge.push(fleet.queued_frames() as u64);
            out.spans
                .push("FleetIngestor::queued_frames", g0, since(t0));
        }
        out.accepted.push(result.is_ok());
        if let Ok(windows) = result {
            for fw in windows {
                let j = index[&fw.key];
                if tracked(j) {
                    clocks[j].deliver(
                        [fw.report.window.start.ns()],
                        end,
                        None,
                        &mut out.latency_ns,
                    );
                }
                out.reports[j].push(fw.report);
            }
        }
    }
    for &(tenant, _) in &shape.tenants {
        if let Some(stats) = fleet.tenant_stats(tenant) {
            out.rejected.add(stats);
        }
    }
    out.rejected.add(fleet.unattributed_stats());
    let start = since(t0);
    let (report, flushed) = fleet.into_report();
    let end = since(t0);
    if traced {
        out.spans.push("FleetIngestor::into_report", start, end);
    }
    out.at_finish = flushed.len() as u64;
    out.finish_ns = end - start;
    for fw in flushed {
        let j = index[&fw.key];
        if tracked(j) {
            clocks[j].deliver(
                [fw.report.window.start.ns()],
                end,
                Some(start),
                &mut out.latency_ns,
            );
        }
        out.reports[j].push(fw.report);
    }
    out.admitted_frames = vec![0; w.jobs.len()];
    for summary in &report.jobs {
        out.rejected.add(&summary.stats);
        out.admitted_frames[index[&summary.key]] = summary.stats.frames_admitted;
    }
    out.arena_peak_bytes = report.arena_high_water_bytes();
    out.wall_ns = end;
    out
}

/// Feed a solo ingestor `frames` in order and return its reports and
/// stats: the reference a fleet job must match, and the source of the
/// stage gauges for workloads that run no solo ingestor themselves.
pub fn solo_reports(
    job: &Job,
    frames: &[&[u8]],
    pending: Option<&mut Vec<u64>>,
) -> (Vec<WindowReport>, IngestStats, u64) {
    let mut ingestor = WindowedIngestor::new(job.nranks, job.bins, job.cfg.clone());
    let mut reports = Vec::new();
    let mut gauge = pending;
    for bytes in frames {
        if let Ok(r) = ingestor.push_encoded(bytes) {
            reports.extend(r);
        }
        if let Some(g) = gauge.as_deref_mut() {
            g.push(ingestor.pending_windows());
        }
    }
    let stats = ingestor.stats().clone();
    let tail = ingestor.finish();
    let at_finish = tail.len() as u64;
    reports.extend(tail);
    (reports, stats, at_finish)
}

/// The frames of a workload's stream that reach job `j`'s ingestor
/// (everything the fleet does not reject itself), in send order.
pub fn delivered(w: &Workload, j: usize) -> Vec<&[u8]> {
    w.stream
        .iter()
        .filter(|s| s.job == j)
        .filter(|s| match s.class {
            Class::Clean | Class::Duplicate | Class::UnknownRank => true,
            Class::Budgeted { admitted } => admitted,
            Class::Corrupt | Class::UnknownTenant => false,
        })
        .map(|s| w.bytes(s))
        .collect()
}

/// One client pass over every job.
#[derive(Default)]
pub struct ClientPass {
    /// Whole-pass wall time, ns.
    pub wall_ns: u64,
    /// Intercepted calls replayed.
    pub calls: u64,
    /// Fragments shipped.
    pub frags: u64,
    /// Bytes shipped.
    pub bytes: u64,
    /// Duration of each per-rank ship (extract + encode), ns.
    pub ship_ns: Vec<u64>,
    /// Per report period: from the start of the hook call at which the
    /// first rank crossed the period's end to the return of the last
    /// rank's ship, ns.
    pub period_ns: Vec<u64>,
    /// Per job and period index, summed over ranks: extraction ns
    /// (traced only).
    pub extract_by_period: Vec<Vec<u64>>,
    /// Traced: hook, extract and encode spans.
    pub spans: SpanLog,
    /// Kept frames per job, rank and period (when asked to keep them).
    pub frames: Vec<Vec<Vec<Vec<u8>>>>,
    /// Final collector STGs per job (when asked to keep frames).
    pub stgs: Vec<Vec<vapro_core::Stg>>,
}

/// Replay every job's recorded events through fresh collectors.
pub fn client_pass(w: &Workload, traced: bool, keep: bool) -> ClientPass {
    let mut out = ClientPass::default();
    let t0 = Instant::now();
    for job in &w.jobs {
        client_job(job, t0, traced, keep, &mut out);
    }
    out.wall_ns = since(t0);
    out
}

fn client_job(job: &Job, t0: Instant, traced: bool, keep: bool, out: &mut ClientPass) {
    let n = job.nranks;
    let period = job.period_ns();
    let periods = job.n_periods as usize;
    let mut collectors: Vec<Collector> =
        (0..n).map(|r| Collector::new(r, job.cfg.clone())).collect();
    let mut next = vec![0usize; n];
    let mut first_cross: Vec<Option<u64>> = vec![None; periods];
    let mut shipped = vec![0usize; periods];
    let mut extract = vec![0u64; periods];
    let mut kept: Vec<Vec<Vec<u8>>> = if keep {
        vec![vec![Vec::new(); periods]; n]
    } else {
        Vec::new()
    };
    let mut ship =
        |rank: usize, k: usize, cross: u64, collectors: &[Collector], out: &mut ClientPass| {
            let start = since(t0);
            let batch = FragmentBatch::from_stg_starting_in(
                collectors[rank].stg(),
                rank,
                period_window(k as u64, period),
            )
            .with_seq(k as u64 + 1)
            .with_job(job.key.tenant, job.key.job);
            let mid = if traced { since(t0) } else { 0 };
            let bytes = batch.encode_v3();
            let end = since(t0);
            if traced {
                out.spans
                    .push("FragmentBatch::from_stg_starting_in", start, mid);
                out.spans.push("FragmentBatch::encode_v3", mid, end);
                extract[k] += mid - start;
            }
            out.ship_ns.push(end - start);
            out.frags += batch.len() as u64;
            out.bytes += bytes.len() as u64;
            let first = *first_cross[k].get_or_insert(cross);
            shipped[k] += 1;
            if shipped[k] == n {
                out.period_ns.push(end - first);
            }
            if keep {
                kept[rank][k] = bytes;
            }
        };
    for &(r, i) in &job.order {
        let (r, i) = (r as usize, i as usize);
        let hook = &job.hooks[r][i];
        let t = hook.time_ns();
        // Rank r's period k is complete once it has processed an event
        // at or past the period's end: every fragment starting earlier
        // was closed by that rank's next event.
        let crosses = next[r] < periods && t >= (next[r] as u64 + 1) * period;
        let start = if crosses || traced { since(t0) } else { 0 };
        match hook {
            Hook::Enter(e) => collectors[r].on_enter(e),
            Hook::Exit(e) => collectors[r].on_exit(e),
        }
        if traced {
            let name = match hook {
                Hook::Enter(_) => "Collector::on_enter",
                Hook::Exit(_) => "Collector::on_exit",
            };
            out.spans.push(name, start, since(t0));
        }
        while next[r] < periods && t >= (next[r] as u64 + 1) * period {
            ship(r, next[r], start, &collectors, out);
            next[r] += 1;
        }
    }
    let end_of_stream = since(t0);
    for (r, k) in next.iter().enumerate() {
        for k in *k..periods {
            ship(r, k, end_of_stream, &collectors, out);
        }
    }
    out.calls += job.calls();
    if traced {
        out.extract_by_period.push(extract);
    }
    if keep {
        out.frames.push(kept);
        out.stgs
            .push(collectors.into_iter().map(Collector::into_stg).collect());
    }
}
