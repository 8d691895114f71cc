//! The Vapro benchmark: one command from interception to window report.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed (counted in `setup_s`),
//! replays them from one thread in a closed loop for `--seconds`, checks
//! every output against a reference, and prints one JSON object as the
//! last line of standard output: the end-to-end metrics with `--trace 0`,
//! the per-layer ledger with `--trace 1`. See `perfbench/README.md`.

mod check;
mod clock;
mod gen;
mod ledger;
mod measure;
mod replay;

use gen::{FleetShape, Kind, Size, Workload};
use ledger::Layers;
use measure::{block_quantile, median, SpanLog, ThreadSampler};
use replay::{ClientPass, ServerPass};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// End-to-end metrics, printed with `--trace 0`, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ingest_frags_per_s", "frags/s"),
    ("window_latency_p50_ms", "ms"),
    ("window_latency_p90_ms", "ms"),
    ("push_latency_p99_us", "us"),
    ("client_ns_per_call", "ns"),
    ("wire_bytes_per_frag", "B"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed with `--trace 1`, in `BENCHMARK.json` order.
const PER_LAYER: [(&str, &str); 39] = [
    ("collector.hook_ns_per_call", "ns"),
    ("collector.frags_per_call", "count"),
    ("wire.extract_ns_per_period", "ns"),
    ("wire.extract_flatness", "ratio"),
    ("wire.encode_ns_per_frag", "ns"),
    ("wire.decode_ns_per_frag", "ns"),
    ("wire.bytes_per_frag", "B"),
    ("arena.push_ns_per_frag", "ns"),
    ("arena.sort_ns_per_window", "ns"),
    ("arena.view_ns_per_window", "ns"),
    ("arena.evict_ns_per_window", "ns"),
    ("arena.rows_per_window", "count"),
    ("arena.peak_bytes", "B"),
    ("admit.rejected.corrupt", "count"),
    ("admit.rejected.duplicate", "count"),
    ("admit.rejected.unknown_rank", "count"),
    ("admit.rejected.unknown_tenant", "count"),
    ("admit.rejected.over_budget", "count"),
    ("columnar.refill_ns_per_window", "ns"),
    ("clustering.ns_per_window", "ns"),
    ("clustering.vectors_per_s", "1/s"),
    ("clustering.clustered_frac", "ratio"),
    ("detect.ns_per_window", "ns"),
    ("detect.regions_per_window", "count"),
    ("diagnose.ns_per_window", "ns"),
    ("diagnose.ns_per_region", "ns"),
    ("diagnose.reported_frac", "ratio"),
    ("stage.pending_max", "count"),
    ("stage.pending_mean", "count"),
    ("stage.windows_at_finish", "count"),
    ("fleet.push_ns_per_frame", "ns"),
    ("fleet.queued_max", "count"),
    ("fleet.shard_skew", "ratio"),
    ("fleet.report_ms", "ms"),
    ("proc.cpu_per_wall", "ratio"),
    ("proc.threads_peak", "count"),
    ("ledger.residual_frac", "ratio"),
    ("ledger.trace_overhead_frac", "ratio"),
    ("ledger.layer_sum_ms", "ms"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// A run's result: correctness counts, metrics, and context lines.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
    info: Vec<(&'static str, String)>,
}

impl Outcome {
    fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    fn get(&self, name: &str) -> f64 {
        match self.metrics.iter().find(|(n, _)| n == name) {
            Some((_, v)) => *v,
            None => panic!("metric {name} was not computed"),
        }
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn metrics_json(o: &Outcome, names: &[(&str, &str)]) -> String {
    let body: Vec<String> = names
        .iter()
        .map(|(n, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                num(o.get(n))
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn result_line(o: &Outcome, names: &[(&str, &str)]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics_json(o, names)
    )
}

fn info_line(o: &Outcome) -> String {
    let body: Vec<String> = o
        .info
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                Kind::ALL.map(Kind::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(kind) = Kind::parse(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let mut o = if args.trace {
        traced_run(kind, args.seed, budget)
    } else {
        timed_run(kind, args.seed, budget)
    };
    let failed_frac = o.failed as f64 / o.attempted.max(1) as f64;
    o.info
        .insert(0, ("workload", format!("\"{}\"", kind.name())));
    o.info.insert(1, ("seed", args.seed.to_string()));
    o.info
        .insert(2, ("trace", u8::from(args.trace).to_string()));
    o.info.insert(3, ("nproc", measure::nproc().to_string()));
    o.info.push(("failed_frac", num(failed_frac)));
    println!("{}", info_line(&o));
    if args.trace {
        let body: Vec<String> = o
            .metrics
            .iter()
            .map(|(n, v)| format!("\"{n}\": {}", num(*v)))
            .collect();
        println!("{{\"ledger\": {{{}}}}}", body.join(", "));
    }
    println!(
        "{}",
        result_line(&o, if args.trace { &PER_LAYER } else { &END_TO_END })
    );
    if o.failed > 0 {
        eprintln!(
            "perfbench: {} of {} outcomes wrong on {} with seed {}",
            o.failed,
            o.attempted,
            kind.name(),
            args.seed
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// Run every workload, each in its own process (so peak RSS and thread
/// counts never leak across workloads), and print a combined result.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::from(1);
        }
    };
    let names = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let (mut correct, mut attempted, mut failed, mut metrics) = (true, 0u64, 0u64, Vec::new());
    for kind in Kind::ALL {
        let out = std::process::Command::new(&exe)
            .args(["--workload", kind.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        let Ok(out) = out else {
            eprintln!("perfbench: could not run {}", kind.name());
            return ExitCode::from(1);
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or("");
        correct &= out.status.success() && last.contains("\"correct\": true");
        let field = |key: &str| -> u64 {
            last.split(&format!("\"{key}\": "))
                .nth(1)
                .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
                .and_then(|s| s.parse().ok())
                .unwrap_or(0)
        };
        attempted += field("attempted");
        failed += field("failed");
        for (name, unit) in names {
            let value = last
                .split(&format!("\"{name}\": {{\"value\": "))
                .nth(1)
                .and_then(|s| s.split(',').next())
                .unwrap_or("null");
            metrics.push(format!(
                "\"{}.{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                kind.name()
            ));
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        correct && failed == 0,
        metrics.join(", ")
    );
    if correct && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Generate the workload `SETUPS` times (plus one construction of its
/// ingest plane or collectors), keeping the last. Returns the workload,
/// each set-up's seconds, and whether every set-up produced the same
/// digest.
fn setup(kind: Kind, seed: u64, times: usize) -> (Workload, Vec<f64>, bool) {
    let mut seconds = Vec::with_capacity(times);
    let mut digests = Vec::with_capacity(times);
    let mut kept = None;
    for _ in 0..times {
        drop(kept.take()); // free the previous copy before building the next
        let t = Instant::now();
        let w = gen::generate(kind, seed, Size::Bench);
        match &w.fleet {
            Some(shape) => drop(shape.build(&w.jobs)),
            None if kind == Kind::ClientReplay => {
                let job = &w.jobs[0];
                drop(
                    (0..job.nranks)
                        .map(|r| vapro_core::Collector::new(r, job.cfg.clone()))
                        .collect::<Vec<_>>(),
                )
            }
            None => {
                let job = &w.jobs[0];
                drop(vapro_core::WindowedIngestor::new(
                    job.nranks,
                    job.bins,
                    job.cfg.clone(),
                ))
            }
        }
        seconds.push(t.elapsed().as_secs_f64());
        digests.push(w.digest);
        kept = Some(w);
    }
    let same = digests.windows(2).all(|d| d[0] == d[1]);
    (kept.expect("at least one set-up"), seconds, same)
}

/// Run `f` at least `min` times and until `until`.
fn repeat<T>(min: usize, until: Instant, mut f: impl FnMut() -> T) -> Vec<T> {
    let mut out = Vec::new();
    while out.len() < min || Instant::now() < until {
        out.push(f());
    }
    out
}

fn client_totals(w: &Workload) -> (u64, u64) {
    let frames = w.jobs.iter().flat_map(|j| &j.frames);
    frames.fold((0, 0), |(f, b), fr| {
        (f + fr.frags as u64, b + fr.bytes.len() as u64)
    })
}

/// Client passes must ship exactly the fragments and bytes the server
/// workload's frames hold.
fn client_pass_errors(w: &Workload, p: &ClientPass) -> u64 {
    u64::from((p.frags, p.bytes) != client_totals(w))
}

fn common_info(o: &mut Outcome, w: &Workload, refs: &[Vec<vapro_core::WindowReport>]) {
    o.info.push(("digest", format!("\"{:016x}\"", w.digest)));
    o.info.push(("frames", w.stream.len().to_string()));
    o.info.push(("fragments", w.admitted_frags().to_string()));
    o.info.push((
        "windows",
        refs.iter().map(Vec::len).sum::<usize>().to_string(),
    ));
    o.info.push((
        "calls",
        w.jobs.iter().map(gen::Job::calls).sum::<u64>().to_string(),
    ));
    if w.fleet.is_none() {
        if let Some(recall) = check::noise_recall(w, &refs[0]) {
            o.info.push(("noise_recall", num(recall)));
            o.info
                .push(("noise_events", w.jobs[0].noise.len().to_string()));
        } else {
            o.info
                .push(("false_region_frac", num(check::region_frac(&refs[0]))));
        }
    }
}

/// Oracles shared by both modes, run after timing: the first server pass
/// against the reference, and one client pass with its frames kept.
fn final_checks(
    o: &mut Outcome,
    w: &Workload,
    first: Option<&ServerPass>,
) -> Vec<Vec<vapro_core::WindowReport>> {
    let refs = check::references(w);
    if let Some(first) = first {
        o.attempted += refs.iter().map(Vec::len).sum::<usize>() as u64;
        o.failed += check::report_mismatches(&first.reports, &refs);
    }
    let kept = replay::client_pass(w, false, true);
    o.attempted += check::client_batches(w);
    o.failed += check::client_errors(w, &kept);
    refs
}

/// The end-to-end run (`--trace 0`).
fn timed_run(kind: Kind, seed: u64, budget: Duration) -> Outcome {
    let mut o = Outcome::default();
    let (w, setups, same_digest) = setup(kind, seed, SETUPS);
    o.attempted += 1;
    o.failed += u64::from(!same_digest);
    o.metric("setup_s", median(&setups));

    // Client and server passes interleave over the whole budget, so both
    // sample the same stretch of machine time; on the server workloads
    // the client gets about a quarter of it.
    let client_only = kind == Kind::ClientReplay;
    let client_share = if client_only { 1.0 } else { 0.25 };
    let admitted = w.admitted_frags() as f64;
    let calls = w.jobs.iter().map(gen::Job::calls).sum::<u64>() as f64;
    let mut first: Option<ServerPass> = None;
    let (mut client_ns, mut client_rates, mut periods, mut ships) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut rates, mut pushes, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
    let (mut client_time, mut server_passes) = (0u64, 0usize);
    let steal0 = measure::steal_ticks();
    let t0 = Instant::now();
    let enough = |clients: usize, servers: usize| {
        clients >= 3 && (client_only || servers >= 3) && t0.elapsed() >= budget
    };
    while !enough(client_ns.len(), server_passes) {
        let client_due = client_only
            || client_ns.len() < 3
            || (client_time as f64) < client_share * measure::since(t0) as f64;
        if client_due {
            let p = replay::client_pass(&w, false, false);
            o.attempted += check::client_batches(&w);
            o.failed += client_pass_errors(&w, &p);
            client_time += p.wall_ns;
            client_ns.push(p.wall_ns as f64 / calls);
            client_rates.push(p.frags as f64 / (p.wall_ns as f64 / 1e9));
            periods.push(p.period_ns);
            ships.push(p.ship_ns);
            continue;
        }
        let mut p = replay::server_pass(&w, false);
        server_passes += 1;
        rates.push(admitted / (p.wall_ns as f64 / 1e9));
        pushes.push(std::mem::take(&mut p.push_ns));
        latencies.push(std::mem::take(&mut p.latency_ns));
        o.attempted += (w.stream.len() + p.reports.iter().map(Vec::len).sum::<usize>()) as u64;
        o.failed += check::admission_errors(&w, &p);
        match &first {
            Some(f) => o.failed += check::report_mismatches(&p.reports, &f.reports),
            None => first = Some(p),
        }
    }
    let steal1 = measure::steal_ticks();
    let steal = (steal1.0 - steal0.0) as f64 / (steal1.1 - steal0.1).max(1) as f64;
    o.info.push(("host_steal_frac", num(steal)));
    o.metric("client_ns_per_call", median(&client_ns));
    o.info.push(("client_passes", client_ns.len().to_string()));
    if client_only {
        // The client's own analogues: fragments shipped per second, the
        // period hand-over latency, and the blocking ship call.
        o.metric("ingest_frags_per_s", median(&client_rates));
        o.metric("window_latency_p50_ms", block_quantile(&periods, 0.5) / 1e6);
        o.metric("window_latency_p90_ms", block_quantile(&periods, 0.9) / 1e6);
        o.metric("push_latency_p99_us", block_quantile(&ships, 0.99) / 1e3);
        let (frags, bytes) = client_totals(&w);
        o.metric("wire_bytes_per_frag", bytes as f64 / frags as f64);
        o.info.push((
            "latency_samples",
            periods.iter().map(Vec::len).sum::<usize>().to_string(),
        ));
    } else {
        o.metric("ingest_frags_per_s", median(&rates));
        o.metric(
            "window_latency_p50_ms",
            block_quantile(&latencies, 0.5) / 1e6,
        );
        o.metric(
            "window_latency_p90_ms",
            block_quantile(&latencies, 0.9) / 1e6,
        );
        o.metric("push_latency_p99_us", block_quantile(&pushes, 0.99) / 1e3);
        o.metric("wire_bytes_per_frag", w.stream_bytes() as f64 / admitted);
        o.info.push(("server_passes", server_passes.to_string()));
        o.info.push((
            "latency_samples",
            latencies.iter().map(Vec::len).sum::<usize>().to_string(),
        ));
    }
    o.metric("peak_rss_mb", measure::peak_rss_mb());
    let refs = final_checks(&mut o, &w, first.as_ref());
    common_info(&mut o, &w, &refs);
    o
}

/// Server passes until `until` (at least `min`), each checked: the first
/// keeps its reports as the reference the later ones must match, and
/// later ones drop theirs once compared.
fn server_passes(
    w: &Workload,
    traced: bool,
    min: usize,
    until: Instant,
    o: &mut Outcome,
) -> Vec<ServerPass> {
    let mut passes: Vec<ServerPass> = Vec::new();
    while passes.len() < min || Instant::now() < until {
        let mut p = replay::server_pass(w, traced);
        o.attempted += w.stream.len() as u64;
        o.failed += check::admission_errors(w, &p);
        if let Some(first) = passes.first() {
            o.failed += check::report_mismatches(&p.reports, &first.reports);
            p.reports.clear();
        }
        passes.push(p);
    }
    passes
}

fn walls(passes: impl Iterator<Item = u64>) -> Vec<f64> {
    passes.map(|ns| ns as f64).collect()
}

/// The traced run (`--trace 1`): the per-layer ledger.
fn traced_run(kind: Kind, seed: u64, budget: Duration) -> Outcome {
    let mut o = Outcome::default();
    let (w, _, same_digest) = setup(kind, seed, 1);
    o.attempted += 1;
    o.failed += u64::from(!same_digest);
    let t0 = Instant::now();
    let at = |frac: f64| t0 + budget.mul_f64(frac);
    let client_only = kind == Kind::ClientReplay;
    let mut trace_log = SpanLog::default();

    // Untraced baseline of the workload's own path, with the process
    // readings taken around it.
    let sampler = ThreadSampler::start();
    let (cpu0, wall0) = (measure::cpu_seconds(), Instant::now());
    let (untraced_walls, untraced_server) = if client_only {
        let passes = repeat(3, at(0.3), || replay::client_pass(&w, false, false));
        (walls(passes.iter().map(|p| p.wall_ns)), Vec::new())
    } else {
        let passes = server_passes(&w, false, 3, at(0.25), &mut o);
        (walls(passes.iter().map(|p| p.wall_ns)), passes)
    };
    let cpu_per_wall = (measure::cpu_seconds() - cpu0) / wall0.elapsed().as_secs_f64();
    let threads_peak = sampler.finish();
    o.metric("proc.cpu_per_wall", cpu_per_wall);
    o.metric("proc.threads_peak", threads_peak as f64);

    // Traced replays of the same path: spans around every public call.
    let (traced_walls, traced_server) = if client_only {
        let passes = repeat(3, at(0.55), || replay::client_pass(&w, true, false));
        client_ledger(&mut o, &w, &passes);
        let layer_sum: Vec<f64> = walls(
            passes
                .iter()
                .map(|p| p.spans.spans.iter().map(|s| s.end - s.start).sum::<u64>()),
        );
        o.metric("ledger.layer_sum_ms", median(&layer_sum) / 1e6);
        let traced = walls(passes.iter().map(|p| p.wall_ns));
        if let Some(last) = passes.into_iter().last() {
            trace_log.spans.extend(last.spans.spans);
        }
        // Its frames through the server, for the server-side ledger.
        (traced, server_passes(&w, true, 2, at(0.65), &mut o))
    } else {
        let passes = server_passes(&w, true, 3, at(0.45), &mut o);
        (walls(passes.iter().map(|p| p.wall_ns)), passes)
    };
    let overhead = median(&traced_walls) / median(&untraced_walls) - 1.0;
    o.metric("ledger.trace_overhead_frac", overhead);
    stage_ledger(&mut o, &w, &traced_server);
    if let Some(shape) = &w.fleet {
        fleet_ledger(&mut o, &w, shape, &traced_server);
    }

    // Layer-by-layer replay against the untraced reports.
    let reference = &untraced_server.first().unwrap_or(&traced_server[0]).reports;
    let layer_until = if client_only { at(0.9) } else { at(0.7) };
    let mut layer_logs = Vec::new();
    let layers: Vec<Layers> = repeat(2, layer_until, || {
        let mut log = SpanLog::default();
        let l = ledger::layer_pass(&w, reference, &mut log);
        layer_logs.push(log);
        l
    });
    for l in &layers {
        o.attempted += l.windows;
        o.failed += l.mismatches;
    }
    server_ledger(&mut o, &w, &layers, traced_server.first());
    if let Some(last) = layer_logs.pop() {
        trace_log.spans.extend(last.spans);
    }
    if !client_only {
        let layer_sum: Vec<f64> = layers.iter().map(|l| l.total_ns() as f64).collect();
        let e2e = median(&untraced_walls);
        o.metric("ledger.residual_frac", (e2e - median(&layer_sum)) / e2e);
        o.metric("ledger.layer_sum_ms", median(&layer_sum) / 1e6);
        // The client layers on this workload's own interception events.
        let passes = repeat(2, at(0.85), || replay::client_pass(&w, true, false));
        client_ledger(&mut o, &w, &passes);
    } else {
        let client_sum = o.get("ledger.layer_sum_ms") * 1e6;
        let e2e = median(&untraced_walls);
        o.metric("ledger.residual_frac", (e2e - client_sum) / e2e);
    }
    if w.fleet.is_none() {
        // The solo stream as one job of a four-shard fleet.
        let shape = FleetShape {
            shards: 4,
            queue_capacity: 16,
            tenants: Vec::new(),
        };
        // A single-job fleet must report what the bare ingestor did.
        let passes = repeat(2, at(1.0), || {
            let mut p = replay::fleet_pass_with(&w, &shape, true);
            o.attempted += p.reports.iter().map(Vec::len).sum::<usize>() as u64;
            o.failed += check::report_mismatches(&p.reports, reference);
            p.reports.clear();
            p
        });
        fleet_ledger(&mut o, &w, &shape, &passes);
    }
    if let Some(last) = traced_server.last() {
        trace_log.spans.extend(last.spans.spans.iter().copied());
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-{seed}.tsv", kind.name()));
    match trace_log.write_tsv(&path) {
        Ok(()) => o.info.push(("spans", format!("\"{}\"", path.display()))),
        Err(e) => eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        ),
    }
    let refs = final_checks(
        &mut o,
        &w,
        untraced_server.first().or(traced_server.first()),
    );
    common_info(&mut o, &w, &refs);
    o
}

fn client_ledger(o: &mut Outcome, w: &Workload, passes: &[ClientPass]) {
    let per = |f: &dyn Fn(&ClientPass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let calls = w.jobs.iter().map(gen::Job::calls).sum::<u64>() as f64;
    let periods = w.jobs.iter().map(|j| j.n_periods).sum::<u64>() as f64;
    o.metric(
        "collector.hook_ns_per_call",
        per(&|p| {
            (p.spans.total("Collector::on_enter") + p.spans.total("Collector::on_exit")) as f64
                / calls
        }),
    );
    o.metric("collector.frags_per_call", passes[0].frags as f64 / calls);
    o.metric(
        "wire.extract_ns_per_period",
        per(&|p| p.spans.total("FragmentBatch::from_stg_starting_in") as f64 / periods),
    );
    o.metric(
        "wire.encode_ns_per_frag",
        per(&|p| p.spans.total("FragmentBatch::encode_v3") as f64 / p.frags as f64),
    );
    o.metric(
        "wire.extract_flatness",
        per(&|p| {
            // Per-period extraction summed over jobs, by period index.
            let n = p.extract_by_period.iter().map(Vec::len).max().unwrap_or(0);
            let by_k: Vec<f64> = (0..n)
                .map(|k| {
                    p.extract_by_period
                        .iter()
                        .filter_map(|v| v.get(k))
                        .sum::<u64>() as f64
                })
                .collect();
            let q = n / 4;
            if q == 0 {
                return 1.0;
            }
            median(&by_k[n - q..]) / median(&by_k[q..2 * q])
        }),
    );
}

fn server_ledger(o: &mut Outcome, w: &Workload, layers: &[Layers], traced: Option<&ServerPass>) {
    let per = |f: &dyn Fn(&Layers) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>());
    let wins = |l: &Layers| l.windows.max(1) as f64;
    o.metric(
        "wire.decode_ns_per_frag",
        per(&|l| l.decode_ns as f64 / l.frags_decoded.max(1) as f64),
    );
    o.metric(
        "wire.bytes_per_frag",
        w.stream_bytes() as f64 / w.admitted_frags().max(1) as f64,
    );
    o.metric(
        "arena.push_ns_per_frag",
        per(&|l| l.push_ns as f64 / l.frags_pushed.max(1) as f64),
    );
    o.metric(
        "arena.sort_ns_per_window",
        per(&|l| l.sort_ns as f64 / wins(l)),
    );
    o.metric(
        "arena.view_ns_per_window",
        per(&|l| l.view_ns as f64 / wins(l)),
    );
    o.metric(
        "arena.evict_ns_per_window",
        per(&|l| l.evict_ns as f64 / wins(l)),
    );
    o.metric(
        "arena.rows_per_window",
        layers[0].rows as f64 / wins(&layers[0]),
    );
    o.metric(
        "arena.peak_bytes",
        traced.map_or(0, |p| p.arena_peak_bytes) as f64,
    );
    if let Some(p) = traced {
        for (reason, count) in p.rejected.named() {
            o.metric(&format!("admit.rejected.{reason}"), count as f64);
        }
    }
    o.metric(
        "columnar.refill_ns_per_window",
        per(&|l| l.refill_ns as f64 / wins(l)),
    );
    o.metric(
        "clustering.ns_per_window",
        per(&|l| l.cluster_ns as f64 / wins(l)),
    );
    o.metric(
        "clustering.vectors_per_s",
        per(&|l| l.vectors as f64 / (l.cluster_ns.max(1) as f64 / 1e9)),
    );
    o.metric(
        "clustering.clustered_frac",
        layers[0].clustered as f64 / layers[0].vectors.max(1) as f64,
    );
    o.metric(
        "detect.ns_per_window",
        per(&|l| (l.detect_ns as f64 - l.cluster_ns as f64) / wins(l)),
    );
    o.metric(
        "detect.regions_per_window",
        layers[0].regions as f64 / wins(&layers[0]),
    );
    o.metric(
        "diagnose.ns_per_window",
        per(&|l| l.diagnose_ns as f64 / wins(l)),
    );
    o.metric(
        "diagnose.ns_per_region",
        per(&|l| l.diagnose_ns as f64 / l.submitted.max(1) as f64),
    );
    let l0 = &layers[0];
    o.metric(
        "diagnose.reported_frac",
        if l0.submitted == 0 {
            0.0
        } else {
            l0.diagnosed as f64 / l0.submitted as f64
        },
    );
}

/// Stage gauges: `pending_windows()` after each push of a solo ingestor.
/// The fleet hides its jobs' stages, so `fleet-tenants` reads them from
/// solo replays of each job's delivered frames.
fn stage_ledger(o: &mut Outcome, w: &Workload, traced: &[ServerPass]) {
    let (gauge, at_finish): (Vec<u64>, u64) = if w.fleet.is_none() {
        let p = &traced[0];
        (p.gauge.clone(), p.at_finish)
    } else {
        let mut gauge = Vec::new();
        let mut at_finish = 0;
        for (j, job) in w.jobs.iter().enumerate() {
            let (_, _, tail) =
                replay::solo_reports(job, &replay::delivered(w, j), Some(&mut gauge));
            at_finish += tail;
        }
        (gauge, at_finish)
    };
    let max = gauge.iter().copied().max().unwrap_or(0);
    let mean = gauge.iter().sum::<u64>() as f64 / gauge.len().max(1) as f64;
    o.metric("stage.pending_max", max as f64);
    o.metric("stage.pending_mean", mean);
    o.metric("stage.windows_at_finish", at_finish as f64);
}

/// Fleet gauges from traced fleet passes (`gauge` = `queued_frames()`).
fn fleet_ledger(o: &mut Outcome, w: &Workload, shape: &FleetShape, passes: &[ServerPass]) {
    let per = |f: &dyn Fn(&ServerPass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    o.metric(
        "fleet.push_ns_per_frame",
        per(&|p| p.push_ns.iter().sum::<u64>() as f64 / p.push_ns.len().max(1) as f64),
    );
    o.metric(
        "fleet.queued_max",
        passes[0].gauge.iter().copied().max().unwrap_or(0) as f64,
    );
    let plane = shape.build(&w.jobs);
    let mut per_shard = vec![0u64; shape.shards];
    for s in &w.stream {
        per_shard[plane.shard_of(w.jobs[s.job].key)] += 1;
    }
    let mean = per_shard.iter().sum::<u64>() as f64 / shape.shards as f64;
    o.metric(
        "fleet.shard_skew",
        *per_shard.iter().max().unwrap_or(&0) as f64 / mean,
    );
    o.metric("fleet.report_ms", per(&|p| p.finish_ns as f64 / 1e6));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_what_the_program_prints() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            text.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        for kind in Kind::ALL {
            assert!(
                text.contains(&format!("\"name\": \"{}\"", kind.name())),
                "{kind:?}"
            );
        }
    }
}
