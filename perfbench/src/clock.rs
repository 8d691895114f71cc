//! The window-latency clock.
//!
//! A window's latency runs from the start of the push whose frame lifts
//! the shipping low-watermark past the window's end to the return of the
//! call that delivers its report. The benchmark derives the watermark
//! from the frames it sends — each frame's `window_end_ns` is its rank's
//! shipping mark — so the clock needs nothing from the ingestor but the
//! reports it returns. Windows no push closes (the tail the ingestor
//! only emits from `finish`) are keyed to the start of the `finish` call.

/// Watermark bookkeeping for one job's stream, with timestamps in any
/// monotone tick unit (the benchmark uses ns since the pass began).
pub struct LatencyClock {
    step_ns: u64,
    period_ns: u64,
    marks: Vec<u64>,
    /// Tick at which each window's end fell behind the watermark.
    lifted: Vec<u64>,
}

impl LatencyClock {
    /// A clock for `nranks` ranks analysed in half-overlapped windows of
    /// `period_ns`.
    pub fn new(nranks: usize, period_ns: u64) -> LatencyClock {
        LatencyClock {
            step_ns: (period_ns / 2).max(1),
            period_ns,
            marks: vec![0; nranks],
            lifted: Vec::new(),
        }
    }

    fn window_end(&self, k: usize) -> u64 {
        k as u64 * self.step_ns + self.period_ns
    }

    /// A frame of `rank` shipping up to `window_end_ns` is about to be
    /// pushed at `tick`. Frames for ranks the job does not have move
    /// nothing.
    pub fn send(&mut self, rank: usize, window_end_ns: u64, tick: u64) {
        let Some(mark) = self.marks.get_mut(rank) else {
            return;
        };
        *mark = (*mark).max(window_end_ns);
        let low = self.marks.iter().copied().min().unwrap_or(0);
        while self.window_end(self.lifted.len()) <= low {
            self.lifted.push(tick);
        }
    }

    /// A call that returned at `tick` delivered reports for windows
    /// starting at `starts_ns`; `finish_tick` is the start of the
    /// `finish` call, if this is it. Appends one sample per window.
    pub fn deliver(
        &self,
        starts_ns: impl IntoIterator<Item = u64>,
        tick: u64,
        finish_tick: Option<u64>,
        out: &mut Vec<u64>,
    ) {
        for start in starts_ns {
            let k = (start / self.step_ns) as usize;
            let from = match (self.lifted.get(k), finish_tick) {
                (Some(&t), _) => t,
                (None, Some(f)) => f,
                // A report that neither a frame nor `finish` closed
                // cannot exist; time it from its delivering call rather
                // than drop it.
                (None, None) => tick,
            };
            out.push(tick.saturating_sub(from));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vapro_core::wire::{EdgeGroup, FragmentBatch};
    use vapro_core::{Fragment, FragmentKind, VaproConfig, WindowedIngestor};
    use vapro_sim::VirtualTime;

    /// Period 10 ns, windows [0,10), [5,15), [10,20), ... Rank 0 ships
    /// periods [0,10), [10,20), [20,30); rank 1 only the first two. Each
    /// period holds one fragment. Window 0 closes when rank 1 ships its
    /// first period (push 1), windows 1 and 2 when it ships its second
    /// (push 3); rank 1 never ships past 20, so windows 3 and 4 are the
    /// tail only `finish` emits.
    #[test]
    fn samples_are_keyed_to_the_closing_push() {
        let period = 10u64;
        let cfg = VaproConfig {
            report_period: VirtualTime::from_ns(period),
            pipeline_depth: 0,
            diagnose_top_k: 0,
            ..VaproConfig::default()
        };
        let mut ingestor = WindowedIngestor::new(2, 4, cfg);
        let mut clock = LatencyClock::new(2, period);
        let mut samples = Vec::new();
        let mut closed_by = Vec::new();
        let sends = [(0u64, 0usize), (0, 1), (1, 0), (1, 1), (2, 0)];
        for (push, (k, rank)) in sends.into_iter().enumerate() {
            let frag = Fragment {
                rank,
                kind: FragmentKind::Computation,
                start: VirtualTime::from_ns(k * period + 2),
                end: VirtualTime::from_ns(k * period + 9),
                counters: Default::default(),
                args: Vec::new(),
            };
            let batch = FragmentBatch {
                rank,
                seq: k + 1,
                tenant_id: 0,
                job_id: 0,
                window_start_ns: k * period,
                window_end_ns: (k + 1) * period,
                labels: vec!["a".into(), "b".into()],
                vertex_groups: Vec::new(),
                edge_groups: vec![EdgeGroup {
                    from: 0,
                    to: 1,
                    fragments: vec![frag],
                }],
            };
            // Push i starts at tick 100·i and returns 10 ticks later.
            let start = 100 * push as u64;
            clock.send(rank, batch.window_end_ns, start);
            let reports = ingestor.push_encoded(&batch.encode_v3()).expect("admitted");
            closed_by.extend(reports.iter().map(|r| (r.window.start.ns(), push)));
            clock.deliver(
                reports.iter().map(|r| r.window.start.ns()),
                start + 10,
                None,
                &mut samples,
            );
        }
        let tail = ingestor.finish();
        closed_by.extend(tail.iter().map(|r| (r.window.start.ns(), usize::MAX)));
        clock.deliver(
            tail.iter().map(|r| r.window.start.ns()),
            1_000,
            Some(900),
            &mut samples,
        );

        // The ingestor closed windows exactly where the clock says the
        // watermark passed them.
        assert_eq!(
            closed_by,
            vec![(0, 1), (5, 3), (10, 3), (15, usize::MAX), (20, usize::MAX)]
        );
        // Pushed windows took their closing push's 10 ticks; the tail is
        // timed from the start of `finish` (tick 900) to its return.
        assert_eq!(samples, vec![10, 10, 10, 100, 100]);
    }
}
