//! The layer-by-layer replay behind the per-layer ledger.
//!
//! The same frames go through the server's layers one public function at
//! a time, in the order the streaming ingestor runs them:
//! `FragmentBatch::decode`, `IngestArena::push_batch`, `ensure_sorted`,
//! `window_view`, `ColumnarPool::refill_from_merged`, `detect_columnar`,
//! `DiagnosisBatch::with_clusters(..).diagnose` and `evict_before`, with
//! admission (unknown ranks, duplicates, the contiguous-sequence
//! shipping mark) and window closing re-derived from the frames. Each
//! call is timed from outside. Clustering's share of `detect_columnar`
//! is measured by calling `cluster_pool` on every lane separately, so
//! detection's self time is `detect_columnar` minus that share.
//!
//! Every window's `DetectionResult` and diagnoses must equal the
//! untraced run's bit for bit; mismatches are counted as failures.

use crate::gen::{Class, Job, Workload};
use crate::measure::{since, SpanLog};
use std::collections::BTreeMap;
use std::time::Instant;
use vapro_bench::chaos::report_pair_identical;
use vapro_core::detect::window::Window;
use vapro_core::wire::FragmentBatch;
use vapro_core::{
    cluster_pool, detect_columnar, ColumnarPool, DiagnosisBatch, IngestArena, RegionDiagnosis,
    RegionOfInterest, WindowReport,
};
use vapro_sim::VirtualTime;

/// Layer totals over one replay of the whole stream.
#[derive(Debug, Default, Clone, Copy)]
pub struct Layers {
    /// `FragmentBatch::decode`, ns.
    pub decode_ns: u64,
    /// `IngestArena::push_batch`, ns.
    pub push_ns: u64,
    /// `IngestArena::ensure_sorted`, ns.
    pub sort_ns: u64,
    /// `IngestArena::window_view`, ns.
    pub view_ns: u64,
    /// `ColumnarPool::refill_from_merged`, ns.
    pub refill_ns: u64,
    /// `cluster_pool` over every lane, ns (measured apart; `detect_ns`
    /// contains the same work).
    pub cluster_ns: u64,
    /// `detect_columnar`, ns, clustering included.
    pub detect_ns: u64,
    /// Top-K `DiagnosisBatch` diagnosis, ns.
    pub diagnose_ns: u64,
    /// `IngestArena::evict_before`, ns.
    pub evict_ns: u64,
    /// Fragments decoded.
    pub frags_decoded: u64,
    /// Fragments pushed into arenas.
    pub frags_pushed: u64,
    /// Windows analysed.
    pub windows: u64,
    /// Fragments in window views.
    pub rows: u64,
    /// Workload vectors clustered.
    pub vectors: u64,
    /// Vectors in usable (fixed-workload) clusters.
    pub clustered: u64,
    /// Computation regions detected.
    pub regions: u64,
    /// Regions submitted to diagnosis (top-K per window).
    pub submitted: u64,
    /// Diagnoses returned.
    pub diagnosed: u64,
    /// Windows whose result or diagnoses differ from the reference.
    pub mismatches: u64,
}

impl Layers {
    /// Sum of every layer's self time on the ingest path, ns. The
    /// separate `cluster_pool` calls are excluded: `detect_ns` holds that
    /// work already.
    pub fn total_ns(&self) -> u64 {
        self.decode_ns
            + self.push_ns
            + self.sort_ns
            + self.view_ns
            + self.refill_ns
            + self.detect_ns
            + self.diagnose_ns
            + self.evict_ns
    }
}

#[derive(Default)]
struct Tracker {
    mark_ns: u64,
    contig: u64,
    pending: BTreeMap<u64, u64>,
}

struct JobState<'a> {
    job: &'a Job,
    arena: IngestArena,
    trackers: Vec<Tracker>,
    closed: usize,
    next_report: usize,
}

impl JobState<'_> {
    fn window(&self, k: usize) -> Window {
        let period = self.job.period_ns();
        let start = k as u64 * (period / 2).max(1);
        Window {
            start: VirtualTime::from_ns(start),
            end: VirtualTime::from_ns(start + period),
        }
    }
}

struct Replay<'a> {
    t0: Instant,
    layers: Layers,
    spans: &'a mut SpanLog,
    pool: ColumnarPool,
}

impl Replay<'_> {
    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let start = since(self.t0);
        let out = f();
        let end = since(self.t0);
        self.spans.push(name, start, end);
        (out, end - start)
    }

    fn close_ready(&mut self, st: &mut JobState<'_>, reference: &[WindowReport]) {
        let low = st.trackers.iter().map(|t| t.mark_ns).min().unwrap_or(0);
        let seen = st.arena.max_end_ns();
        let ((), ns) = self.timed("IngestArena::ensure_sorted", || st.arena.ensure_sorted());
        self.layers.sort_ns += ns;
        let mut ready = Vec::new();
        loop {
            let w = st.window(st.closed);
            let in_cover = if st.closed == 0 {
                seen > 0
            } else {
                st.window(st.closed - 1).end.ns() < seen
            };
            if w.end.ns() > low || !in_cover {
                break;
            }
            ready.push(w);
            st.closed += 1;
        }
        for &w in &ready {
            self.analyze(st, w, reference);
        }
        if !ready.is_empty() {
            let horizon = st.window(st.closed).start.ns();
            let ((), ns) = self.timed("IngestArena::evict_before", || {
                st.arena.evict_before(horizon)
            });
            self.layers.evict_ns += ns;
        }
    }

    fn finish(&mut self, st: &mut JobState<'_>, reference: &[WindowReport]) {
        let ((), ns) = self.timed("IngestArena::ensure_sorted", || st.arena.ensure_sorted());
        self.layers.sort_ns += ns;
        let t_end = st.arena.max_end_ns();
        while t_end > 0 && (st.closed == 0 || st.window(st.closed - 1).end.ns() < t_end) {
            let w = st.window(st.closed);
            st.closed += 1;
            self.analyze(st, w, reference);
        }
        if st.next_report != reference.len() {
            self.layers.mismatches += reference.len().abs_diff(st.next_report) as u64;
        }
    }

    fn analyze(&mut self, st: &mut JobState<'_>, w: Window, reference: &[WindowReport]) {
        let cfg = &st.job.cfg;
        let mut pool = std::mem::take(&mut self.pool);
        let (rows, view_ns, refill_ns) = {
            let start = since(self.t0);
            let view = st.arena.window_view(w);
            let mid = since(self.t0);
            pool.refill_from_merged(&view);
            let end = since(self.t0);
            self.spans.push("IngestArena::window_view", start, mid);
            self.spans
                .push("ColumnarPool::refill_from_merged", mid, end);
            (view.total_fragments() as u64, mid - start, end - mid)
        };
        self.layers.view_ns += view_ns;
        self.layers.refill_ns += refill_ns;
        self.layers.rows += rows;
        self.layers.windows += 1;

        let lanes = (0..pool.num_vertices())
            .map(|i| pool.vertex(i).1)
            .chain((0..pool.num_edges()).map(|i| pool.edge(i).2));
        for lane in lanes {
            let (outcome, ns) = self.timed("cluster_pool", || {
                cluster_pool(
                    &lane,
                    &cfg.proxy_counters,
                    cfg.cluster_threshold,
                    cfg.min_cluster_size,
                )
            });
            self.layers.cluster_ns += ns;
            self.layers.vectors += vapro_core::PoolView::len(&lane) as u64;
            self.layers.clustered += outcome
                .usable
                .iter()
                .map(|c| c.members.len() as u64)
                .sum::<u64>();
        }

        let (result, ns) = self.timed("detect_columnar", || {
            detect_columnar(&pool, st.job.nranks, st.job.bins, cfg)
        });
        self.layers.detect_ns += ns;
        let top = result.comp_regions.len().min(cfg.diagnose_top_k);
        self.layers.regions += result.comp_regions.len() as u64;
        self.layers.submitted += top as u64;
        let (diagnoses, ns) = self.timed("DiagnosisBatch::diagnose", || {
            if top == 0 {
                return Vec::new();
            }
            let batch = DiagnosisBatch::with_clusters(&pool, cfg, &result.edge_clusters);
            result.comp_regions[..top]
                .iter()
                .filter_map(|region| {
                    let roi = RegionOfInterest::from(region);
                    batch
                        .diagnose(&roi)
                        .map(|report| RegionDiagnosis { roi, report })
                })
                .collect::<Vec<_>>()
        });
        self.layers.diagnose_ns += ns;
        self.layers.diagnosed += diagnoses.len() as u64;
        self.pool = pool;

        match reference.get(st.next_report) {
            Some(want) => {
                let got = WindowReport {
                    window: w,
                    result,
                    diagnoses,
                    coverage: want.coverage.clone(),
                };
                if report_pair_identical(&got, want).is_err() {
                    self.layers.mismatches += 1;
                }
            }
            None => self.layers.mismatches += 1,
        }
        st.next_report += 1;
    }
}

/// Replay the workload's stream layer by layer. `reference[j]` holds job
/// `j`'s reports from an untraced pass.
pub fn layer_pass(w: &Workload, reference: &[Vec<WindowReport>], spans: &mut SpanLog) -> Layers {
    let mut states: Vec<JobState<'_>> = w
        .jobs
        .iter()
        .map(|job| JobState {
            job,
            arena: IngestArena::new(),
            trackers: (0..job.nranks).map(|_| Tracker::default()).collect(),
            closed: 0,
            next_report: 0,
        })
        .collect();
    let mut replay = Replay {
        t0: Instant::now(),
        layers: Layers::default(),
        spans,
        pool: ColumnarPool::new(),
    };
    for s in &w.stream {
        let bytes = w.bytes(s);
        let (decoded, ns) = replay.timed("FragmentBatch::decode", || FragmentBatch::decode(bytes));
        replay.layers.decode_ns += ns;
        let Ok(batch) = decoded else { continue };
        replay.layers.frags_decoded += batch.len() as u64;
        // The fleet drops these after decoding, before routing.
        if matches!(
            s.class,
            Class::UnknownTenant | Class::Budgeted { admitted: false }
        ) {
            continue;
        }
        let st = &mut states[s.job];
        let (rank, seq, end) = (batch.rank, batch.seq, batch.window_end_ns);
        let Some(tracker) = st.trackers.get_mut(rank) else {
            continue;
        };
        if seq <= tracker.contig || tracker.pending.contains_key(&seq) {
            continue;
        }
        tracker.pending.insert(seq, end);
        while let Some(e) = tracker.pending.remove(&(tracker.contig + 1)) {
            tracker.contig += 1;
            tracker.mark_ns = tracker.mark_ns.max(e);
        }
        replay.layers.frags_pushed += batch.len() as u64;
        let ((), ns) = replay.timed("IngestArena::push_batch", || st.arena.push_batch(batch));
        replay.layers.push_ns += ns;
        replay.close_ready(st, &reference[s.job]);
    }
    for (j, st) in states.iter_mut().enumerate() {
        replay.finish(st, &reference[j]);
    }
    replay.layers
}
