//! The repository benchmark: serving latency and throughput, offline
//! images per second, and a traced per-layer breakdown of the engine and
//! the compiled-plan kernels.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-cnn-closed --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every workload uses production defaults (`EngineConfig::default()`, the
//! backend each plan resolves to) and checks every output against
//! `ucnn_model::forward::dense_forward`. The last line of standard output
//! is one JSON object: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. See `perfbench/METRICS.md`.

mod load;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ucnn_core::backend::BackendKind;
use ucnn_core::compile::UcnnConfig;
use ucnn_core::counters;
use ucnn_core::plan::{CompiledNetwork, CompiledStage};
use ucnn_model::{forward, networks, ActivationGen, LayerSpec, NetworkSpec, QuantScheme};
use ucnn_serve::{Engine, EngineConfig, EngineStats, ModelRegistry};
use ucnn_tensor::{Tensor3, Tensor4};

use load::{Outcome, Record, Served};
use stats::{by_window, mean, median, percentile, signed_us, us};
use trace::Tracer;

/// Filters sharing one indirection table in every model (the serving
/// zoo's setting).
const G: usize = 2;
/// Seed of every model's weights, the reproduction's experiment seed.
const WEIGHT_SEED: u64 = 0xC0FFEE;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 101;
/// Unmeasured load before every measured phase.
const WARMUP: Duration = Duration::from_secs(1);
/// Client threads of the closed loop.
const CLOSED_CLIENTS: usize = 2;
/// Offered rate of the open loop, requests per second.
const OPEN_RATE: f64 = 3000.0;
/// Inputs per serving model.
const SERVE_CASES: usize = 8;
/// Batch size and distinct batches of the offline workload.
const OFFLINE_BATCH: usize = 16;
const OFFLINE_BATCHES: usize = 2;
/// Upper bound on the images replayed through the staged kernel walk.
const REPLAY_IMAGES: usize = 1024;
/// Upper bound on the requests whose spans the traced run writes out.
const TRACED_REQUESTS: usize = 4000;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeCnnClosed,
    ServeMlpOpen,
    OfflineLenet,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::ServeCnnClosed,
        Workload::ServeMlpOpen,
        Workload::OfflineLenet,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ServeCnnClosed => "serve-cnn-closed",
            Workload::ServeMlpOpen => "serve-mlp-open",
            Workload::OfflineLenet => "offline-lenet",
        }
    }

    /// `(model name, topology, weight scheme, weight density)` per model.
    fn models(self) -> Vec<(&'static str, NetworkSpec, QuantScheme, f64)> {
        match self {
            Workload::ServeCnnClosed => [("tiny", 0.9), ("tiny-b", 0.8), ("tiny-c", 0.7)]
                .into_iter()
                .map(|(name, d)| (name, networks::tiny(), QuantScheme::inq(), d))
                .collect(),
            Workload::ServeMlpOpen => [("mlp", 0.9), ("mlp-b", 0.8), ("mlp-c", 0.7)]
                .into_iter()
                .map(|(name, d)| {
                    let mut mlp = NetworkSpec::new(name);
                    mlp.push(LayerSpec::fully_connected("fc1", 256, 64));
                    mlp.push(LayerSpec::fully_connected("fc2", 64, 10));
                    (name, mlp, QuantScheme::ttq(), d)
                })
                .collect(),
            Workload::OfflineLenet => vec![("LeNet", networks::lenet(), QuantScheme::inq(), 0.9)],
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown workload '{name}'"))?;
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

/// A model's topology, weights and verified cases.
struct Fixture {
    spec: NetworkSpec,
    weights: Vec<Tensor4<i16>>,
    cases: Vec<load::Case>,
}

fn fixtures(workload: Workload, seed: u64, cases: usize) -> Vec<Fixture> {
    workload
        .models()
        .into_iter()
        .enumerate()
        .map(|(i, (name, topology, scheme, density))| {
            let mut spec = NetworkSpec::new(name);
            for layer in topology.layers() {
                spec.push(layer.clone());
            }
            // The models are constants; the seed varies only the inputs
            // (and the request mix). Compile time depends on the weights,
            // so seeded weights would make `setup_s` differ between seeds.
            let weights =
                forward::generate_network_weights(&spec, scheme, WEIGHT_SEED + i as u64, density);
            let mut agen =
                ActivationGen::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64 + 1));
            let first = &spec.conv_layers()[0];
            let cases = (0..cases)
                .map(|_| {
                    let input = agen.generate_for(first);
                    let expected = forward::dense_forward(&spec, &weights, &input);
                    (input, expected)
                })
                .collect();
            Fixture {
                spec,
                weights,
                cases,
            }
        })
        .collect()
}

/// Metric name → (value, unit), printed sorted by name.
type Metrics = BTreeMap<String, (f64, &'static str)>;

fn put(m: &mut Metrics, name: impl Into<String>, value: f64, unit: &'static str) {
    m.insert(name.into(), (value, unit));
}

/// The set-up timings of one run: medians over [`SETUP_REPS`].
struct Setup {
    total_s: f64,
    compile_ms: f64,
    warm_ms: f64,
    engine_start_ms: f64,
}

/// Compiles and warms every model (and starts an engine over them when
/// `engine` is set) [`SETUP_REPS`] times; keeps the last set-up.
fn set_up(
    fixtures: &[Fixture],
    engine: bool,
) -> (Setup, Vec<Arc<CompiledNetwork>>, Option<Engine>) {
    let config = EngineConfig::default();
    let (mut total, mut compile, mut warm, mut start) = (vec![], vec![], vec![], vec![]);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let registry = Arc::new(ModelRegistry::new());
        let (mut c_ns, mut w_ns) = (Duration::ZERO, Duration::ZERO);
        let mut plans = Vec::new();
        for f in fixtures {
            let c0 = Instant::now();
            let plan = CompiledNetwork::compile(&f.spec, &f.weights, &UcnnConfig::with_g(G));
            let c1 = Instant::now();
            let kind = if engine {
                plan.backend_preference().unwrap_or(config.backend)
            } else {
                plan.backend()
            };
            plan.warm(kind);
            let c2 = Instant::now();
            c_ns += c1 - c0;
            w_ns += c2 - c1;
            plans.push(if engine {
                registry.insert(plan)
            } else {
                Arc::new(plan)
            });
        }
        let s0 = Instant::now();
        let started = engine.then(|| Engine::start(registry, config));
        let s1 = Instant::now();
        total.push((s1 - t0).as_secs_f64());
        compile.push(c_ns.as_secs_f64() * 1e3);
        warm.push(w_ns.as_secs_f64() * 1e3);
        start.push((s1 - s0).as_secs_f64() * 1e3);
        if let Some((_, Some(old))) = kept.replace((plans, started)) {
            let _ = old.shutdown();
        }
    }
    let (plans, engine) = kept.expect("at least one set-up");
    let setup = Setup {
        total_s: median(&total),
        compile_ms: median(&compile),
        warm_ms: median(&warm),
        engine_start_ms: median(&start),
    };
    (setup, plans, engine)
}

/// Load accounting of one measured phase.
#[derive(Default)]
struct Tally {
    attempted: u64,
    completed: u64,
    shed: u64,
    refused: u64,
    errors: u64,
}

impl Tally {
    fn of(records: &[Record]) -> Self {
        let mut t = Tally {
            attempted: records.len() as u64,
            ..Tally::default()
        };
        for r in records {
            match r.outcome {
                Outcome::Completed(_) => t.completed += 1,
                Outcome::Shed => t.shed += 1,
                Outcome::Refused => t.refused += 1,
                Outcome::Error => t.errors += 1,
            }
        }
        t
    }

    fn failed(&self) -> u64 {
        self.shed + self.refused + self.errors
    }
}

/// One measured serving phase: records sent in `[start, start + seconds)`
/// and the engine counters around it.
struct ServePhase {
    records: Vec<Record>,
    mismatches: u64,
    start: Instant,
    before: EngineStats,
    after: EngineStats,
}

fn drive(
    workload: Workload,
    engine: &Engine,
    served: &[Served],
    seed: u64,
    seconds: u64,
) -> ServePhase {
    let run = |seed: u64, duration: Duration| {
        let start = Instant::now();
        let end = start + duration;
        let run = match workload {
            Workload::ServeCnnClosed => {
                load::closed_loop(engine, served, CLOSED_CLIENTS, seed, end)
            }
            _ => load::open_loop(engine, served, OPEN_RATE, seed, start, end),
        };
        (start, run)
    };
    let (_, warm) = run(seed ^ 0x3A3A, WARMUP);
    let before = engine.stats();
    let (start, measured) = run(seed, Duration::from_secs(seconds));
    let after = engine.stats();
    let end = start + Duration::from_secs(seconds);
    ServePhase {
        records: measured
            .records
            .into_iter()
            .filter(|r| r.intended >= start && r.intended < end)
            .collect(),
        mismatches: warm.mismatches + measured.mismatches,
        start,
        before,
        after,
    }
}

fn latency_us(r: &Record) -> Option<f64> {
    matches!(r.outcome, Outcome::Completed(_)).then(|| us(r.done - r.intended))
}

/// When a completed operation was due and when it returned.
type Sample = (Instant, Instant);

fn samples(records: &[Record]) -> Vec<Sample> {
    records
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Completed(_)))
        .map(|r| (r.intended, r.done))
        .collect()
}

/// Rate and latency percentiles of a measured phase, each taken per
/// one-second window and reported as the median over the windows, so that
/// a short stall on the host moves one window, not the run. Latencies are
/// windowed by due time; the rate is windowed by completion time, as the
/// completions of a window over the time from its first to its last.
struct Summary {
    rate: f64,
    p50: f64,
    p90: f64,
    p99: f64,
    samples: usize,
}

fn summarize(samples: &[Sample], start: Instant, seconds: u64) -> Summary {
    let windows = seconds as usize;
    let rate: Vec<f64> = by_window(samples, start, windows, |s| s.1)
        .iter()
        .filter(|w| w.len() > 1)
        .map(|w| {
            let first = w.iter().map(|s| s.1).min().expect("non-empty window");
            let last = w.iter().map(|s| s.1).max().expect("non-empty window");
            (w.len() - 1) as f64 / (last - first).as_secs_f64()
        })
        .collect();
    let (mut p50, mut p90, mut p99) = (vec![], vec![], vec![]);
    for w in by_window(samples, start, windows, |s| s.0) {
        if w.is_empty() {
            continue;
        }
        let lat: Vec<f64> = w.iter().map(|(due, done)| us(*done - *due)).collect();
        p50.push(percentile(&lat, 0.50));
        p90.push(percentile(&lat, 0.90));
        p99.push(percentile(&lat, 0.99));
    }
    let summary = Summary {
        rate: median(&rate),
        p50: median(&p50),
        p90: median(&p90),
        p99: median(&p99),
        samples: samples.len(),
    };
    println!(
        "# {} samples: {:.1}/s, latency p50 {:.1} us, p90 {:.1} us, p99 {:.1} us (medians of {} one-second windows)",
        summary.samples,
        summary.rate,
        summary.p50,
        summary.p90,
        summary.p99,
        p50.len(),
    );
    summary
}

/// The end-to-end metrics. `per_request` is the images one operation
/// carries (1 for a served request, the batch for an offline forward).
fn end_to_end(s: &Summary, tally: &Tally, per_request: usize, setup: &Setup, m: &mut Metrics) {
    put(m, "throughput_rps", s.rate, "1/s");
    put(m, "images_per_s", s.rate * per_request as f64, "1/s");
    put(m, "latency_p50_us", s.p50, "us");
    put(
        m,
        "success_ratio",
        tally.completed as f64 / tally.attempted.max(1) as f64,
        "ratio",
    );
    put(m, "setup_s", setup.total_s, "s");
    println!(
        "# {} attempted, {} completed, {} shed, {} refused, {} errors: error_ratio {}",
        tally.attempted,
        tally.completed,
        tally.shed,
        tally.refused,
        tally.errors,
        tally.failed() as f64 / tally.attempted.max(1) as f64,
    );
}

/// The tail percentiles, reported per layer as diagnostics (see
/// `METRICS.md` for why they are not end-to-end metrics).
fn tail_layers(s: &Summary, m: &mut Metrics) {
    put(m, "latency.p90_us", s.p90, "us");
    put(m, "latency.p99_us", s.p99, "us");
    put(m, "latency.samples", s.samples as f64, "count");
}

/// Per-request engine phases and their identity gap, over a traced phase.
fn engine_layers(phase: &ServePhase, seconds: u64, workers: usize, m: &mut Metrics) {
    let (mut submit, mut queue, mut form, mut exec, mut respond) =
        (vec![], vec![], vec![], vec![], vec![]);
    let (mut late, mut latency, mut gap) = (vec![], vec![], vec![]);
    let mut busy_ns = 0.0;
    for r in &phase.records {
        let Outcome::Completed(p) = r.outcome else {
            continue;
        };
        let parts = [
            signed_us(r.sent, r.intended),
            us(r.submitted - r.sent),
            p.queue_ns.saturating_sub(p.batch_form_ns) as f64 / 1e3,
            p.batch_form_ns as f64 / 1e3,
            p.service_ns as f64 / 1e3,
            signed_us(r.done, p.completed_at),
        ];
        let total = us(r.done - r.intended);
        late.push(parts[0]);
        submit.push(parts[1]);
        queue.push(parts[2]);
        form.push(parts[3]);
        exec.push(parts[4]);
        respond.push(parts[5]);
        latency.push(total);
        gap.push(total - parts.iter().sum::<f64>());
        busy_ns += p.service_ns as f64 / p.batch_size as f64;
    }
    put(m, "gen.lateness_mean_us", mean(&late), "us");
    put(m, "gen.lateness_p99_us", percentile(&late, 0.99), "us");
    put(m, "engine.submit_us", mean(&submit), "us");
    put(m, "engine.queue_wait_us", mean(&queue), "us");
    put(m, "engine.batch_form_us", mean(&form), "us");
    put(m, "engine.execute_us", mean(&exec), "us");
    put(m, "engine.respond_us", mean(&respond), "us");
    put(m, "engine.latency_mean_us", mean(&latency), "us");
    put(m, "engine.unattributed_us", mean(&gap), "us");
    put(
        m,
        "engine.execute_busy_ratio",
        busy_ns / (seconds as f64 * 1e9 * workers as f64),
        "ratio",
    );
    let (before, after) = (&phase.before, &phase.after);
    let (mut batches, mut riders) = (0u64, 0u64);
    for (size, count) in after.batch_size_counts.iter().enumerate() {
        let delta = count - before.batch_size_counts.get(size).copied().unwrap_or(0);
        batches += delta;
        riders += delta * size as u64;
    }
    put(
        m,
        "engine.batch_size_mean",
        riders as f64 / batches.max(1) as f64,
        "count",
    );
    put(
        m,
        "engine.steals",
        (after.steals - before.steals) as f64,
        "count",
    );
}

/// Spans of the first [`TRACED_REQUESTS`] completed requests: the request,
/// its `submit` and `wait` calls, and under `wait` the engine phases read
/// from its response.
fn request_spans(records: &[Record], tracer: &mut Tracer) {
    let completed = records.iter().filter_map(|r| match r.outcome {
        Outcome::Completed(p) => Some((r, p)),
        _ => None,
    });
    for (id, (r, p)) in completed.take(TRACED_REQUESTS).enumerate() {
        let id = id as u64;
        let root = tracer.push("request", id, None, r.intended, r.done);
        tracer.push("gen.lateness", id, Some(root), r.intended, r.sent);
        tracer.push("submit", id, Some(root), r.sent, r.submitted);
        let wait = tracer.push("wait", id, Some(root), r.wait_start, r.done);
        let ns = Duration::from_nanos;
        let exec_start = p.completed_at - ns(p.service_ns);
        let form_start = exec_start - ns(p.batch_form_ns);
        let enqueued = exec_start - ns(p.queue_ns);
        tracer.push("engine.queue_wait", id, Some(wait), enqueued, form_start);
        tracer.push("engine.batch_form", id, Some(wait), form_start, exec_start);
        tracer.push("engine.execute", id, Some(wait), exec_start, p.completed_at);
        tracer.push("engine.respond", id, Some(wait), p.completed_at, r.done);
    }
}

/// Per-layer kernel time, forward time and glue of replayed batches.
#[derive(Default)]
struct Replay {
    images: usize,
    forward_ns: f64,
    /// Per `kernel.<model>.<layer>` span name: total time and images.
    kernel_ns: BTreeMap<String, (f64, usize)>,
    glue_ns: f64,
    walk_ns: f64,
}

/// Replays `batches` (batch size, count) of one model: each batch runs
/// once through `forward_batch_with` and once through the staged walk,
/// whose outputs must equal the forward's and the dense reference's.
fn replay(
    plan: &CompiledNetwork,
    fixture: &Fixture,
    kind: BackendKind,
    threads: usize,
    batches: &[(usize, usize)],
    tracer: &mut Tracer,
    out: &mut Replay,
) -> Result<(), String> {
    let mut next = 0usize;
    for &(size, count) in batches {
        for _ in 0..count {
            let picked: Vec<&load::Case> = (0..size)
                .map(|i| &fixture.cases[(next + i) % fixture.cases.len()])
                .collect();
            next += size;
            let inputs: Vec<Tensor3<i16>> = picked.iter().map(|c| c.0.clone()).collect();
            let trace = tracer.spans.len() as u64;
            let t0 = Instant::now();
            let fwd = plan.forward_batch_with(&inputs, kind, threads);
            let t1 = Instant::now();
            tracer.push("forward", trace, None, t0, t1);
            let first = tracer.spans.len();
            let walked = trace::walk(plan, kind, &inputs, threads, tracer, trace);
            if walked != fwd || picked.iter().zip(&fwd).any(|(c, o)| c.1 != *o) {
                return Err(format!(
                    "staged walk of {} at batch {size} disagrees with forward_batch_with or the dense reference",
                    plan.name()
                ));
            }
            out.images += size;
            out.forward_ns += (t1 - t0).as_nanos() as f64;
            for span in &tracer.spans[first..] {
                let ns = (span.end - span.start).as_nanos() as f64;
                if span.name.starts_with("kernel.") {
                    let e = out.kernel_ns.entry(span.name.clone()).or_default();
                    e.0 += ns;
                    e.1 += size;
                } else if span.name.starts_with("glue.") {
                    out.glue_ns += ns;
                } else if span.name == "walk" {
                    out.walk_ns += ns;
                }
            }
        }
    }
    Ok(())
}

fn replay_layers(plans: &[Arc<CompiledNetwork>], r: &Replay, m: &mut Metrics) {
    let per_image = |ns: f64| ns / 1e3 / r.images.max(1) as f64;
    let kernel: f64 = r.kernel_ns.values().map(|(ns, _)| ns).sum();
    put(
        m,
        "plan.forward_us_per_image",
        per_image(r.forward_ns),
        "us",
    );
    put(m, "plan.kernel_us_per_image", per_image(kernel), "us");
    put(m, "plan.glue_us_per_image", per_image(r.glue_ns), "us");
    put(
        m,
        "plan.identity_gap_us_per_image",
        per_image(r.forward_ns - kernel - r.glue_ns),
        "us",
    );
    // The walk's children run one after another, so its self time is its
    // duration minus theirs.
    put(
        m,
        "self.walk_us_per_image",
        per_image(r.walk_ns - kernel - r.glue_ns),
        "us",
    );
    for plan in plans {
        for stage in plan.stages() {
            let CompiledStage::Conv { name, layer, .. } = stage else {
                continue;
            };
            let prefix = format!("kernel.{}.{name}", plan.name());
            let Some(&(ns, images)) = r.kernel_ns.get(&prefix) else {
                continue;
            };
            put(
                m,
                format!("{prefix}.us_per_image"),
                ns / 1e3 / images as f64,
                "us",
            );
            // MACs from the layer geometry, not counted: the dense
            // equivalent of the work the kernel stands in for.
            let macs = layer.geom().macs() as f64 * images as f64;
            put(m, format!("{prefix}.dense_gmacs"), macs / ns, "GMAC/s");
        }
    }
}

/// Multiplies issued over dense-equivalent multiplies per model × layer,
/// from the exact counts the `counters` sink recorded.
fn reuse_layers(m: &mut Metrics) {
    let mut sums: BTreeMap<(String, String), (u64, u64)> = BTreeMap::new();
    for row in counters::snapshot() {
        let e = sums.entry((row.net, row.layer)).or_default();
        e.0 += row.work.multiplies_issued;
        e.1 += row.work.dense_multiplies;
    }
    for ((net, layer), (issued, dense)) in sums {
        put(
            m,
            format!("reuse.{net}.{layer}.issued_per_dense"),
            issued as f64 / dense.max(1) as f64,
            "ratio",
        );
    }
}

/// Every per-layer metric name with its unit, for every workload: a traced
/// run reports all of them, with 0 for layers its workload does not run.
fn per_layer_catalogue() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("setup.compile_ms", "ms"),
        ("setup.warm_ms", "ms"),
        ("setup.engine_start_ms", "ms"),
        ("gen.lateness_mean_us", "us"),
        ("gen.lateness_p99_us", "us"),
        ("engine.submit_us", "us"),
        ("engine.queue_wait_us", "us"),
        ("engine.batch_form_us", "us"),
        ("engine.execute_us", "us"),
        ("engine.respond_us", "us"),
        ("engine.latency_mean_us", "us"),
        ("engine.unattributed_us", "us"),
        ("engine.execute_busy_ratio", "ratio"),
        ("engine.batch_size_mean", "count"),
        ("engine.steals", "count"),
        ("plan.forward_us_per_image", "us"),
        ("plan.kernel_us_per_image", "us"),
        ("plan.glue_us_per_image", "us"),
        ("plan.identity_gap_us_per_image", "us"),
        ("self.request_us", "us"),
        ("latency.p90_us", "us"),
        ("latency.p99_us", "us"),
        ("latency.samples", "count"),
        ("self.walk_us_per_image", "us"),
        ("trace.overhead_us", "us"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for workload in Workload::ALL {
        for (model, spec, _, _) in workload.models() {
            for layer in spec.conv_layers() {
                let prefix = format!("{model}.{}", layer.name());
                names.push((format!("kernel.{prefix}.us_per_image"), "us"));
                names.push((format!("kernel.{prefix}.dense_gmacs"), "GMAC/s"));
                names.push((format!("reuse.{prefix}.issued_per_dense"), "ratio"));
            }
        }
    }
    names
}

/// Batches per size that `records` rode in, per model, scaled down so the
/// replay covers at most [`REPLAY_IMAGES`] images.
fn observed_batches(records: &[Record], models: usize) -> Vec<Vec<(usize, usize)>> {
    let mut riders: Vec<BTreeMap<usize, usize>> = vec![BTreeMap::new(); models];
    for r in records {
        if let Outcome::Completed(p) = r.outcome {
            *riders[r.model].entry(p.batch_size).or_default() += 1;
        }
    }
    let total: usize = riders.iter().flat_map(|m| m.values()).sum();
    let scale = (REPLAY_IMAGES as f64 / total.max(1) as f64).min(1.0);
    riders
        .into_iter()
        .map(|sizes| {
            sizes
                .into_iter()
                .map(|(size, n)| {
                    let batches = n as f64 / size as f64 * scale;
                    (size, (batches.round() as usize).max(1))
                })
                .collect()
        })
        .collect()
}

/// The outcome of one run: counts for the result line and its metrics.
struct Outcomes {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

fn run_serve(args: &Args) -> Result<Outcomes, String> {
    let fixtures = fixtures(args.workload, args.seed, SERVE_CASES);
    let (setup, plans, engine) = set_up(&fixtures, true);
    let engine = engine.expect("serving set-up starts an engine");
    let config = EngineConfig::default();
    let served: Vec<Served> = fixtures
        .iter()
        .map(|f| Served {
            name: f.spec.name().to_string(),
            cases: f.cases.clone(),
        })
        .collect();
    let kinds: Vec<BackendKind> = plans
        .iter()
        .map(|p| {
            engine
                .registry()
                .backend_override(p.name())
                .or_else(|| p.backend_preference())
                .unwrap_or(engine.backend())
        })
        .collect();
    println!(
        "# {}: backend {}, {} workers, {} exec threads, max batch {}, {} cores",
        args.workload.name(),
        kinds.iter().map(|k| k.name()).collect::<Vec<_>>().join("/"),
        config.workers,
        config.exec_threads,
        config.max_batch,
        cores(),
    );
    let mut metrics = Metrics::new();
    let seconds = phase_seconds(args);
    let untraced = drive(args.workload, &engine, &served, args.seed, seconds);
    check(&untraced)?;
    let summary = summarize(&samples(&untraced.records), untraced.start, seconds);
    let mut tally = Tally::of(&untraced.records);
    if !args.trace {
        end_to_end(&summary, &tally, 1, &setup, &mut metrics);
        let _ = engine.shutdown();
        return Ok(Outcomes {
            attempted: tally.attempted,
            failed: tally.failed(),
            metrics,
        });
    }
    tail_layers(&summary, &mut metrics);
    counters::reset();
    counters::set_enabled(true);
    let traced = drive(args.workload, &engine, &served, args.seed ^ 1, seconds);
    counters::set_enabled(false);
    check(&traced)?;
    let _ = engine.shutdown();
    let t = Tally::of(&traced.records);
    tally.attempted += t.attempted;
    tally.shed += t.shed;
    tally.refused += t.refused;
    tally.errors += t.errors;

    let origin = untraced.start;
    let mut tracer = Tracer::new(origin);
    request_spans(&traced.records, &mut tracer);
    let self_us = tracer.mean_self_us();
    put(
        &mut metrics,
        "self.request_us",
        self_us.get("request").copied().unwrap_or(0.0),
        "us",
    );
    setup_layers(&setup, &mut metrics);
    engine_layers(&traced, seconds, config.workers, &mut metrics);
    reuse_layers(&mut metrics);
    let mean_latency =
        |p: &ServePhase| mean(&p.records.iter().filter_map(latency_us).collect::<Vec<_>>());
    put(
        &mut metrics,
        "trace.overhead_us",
        mean_latency(&traced) - mean_latency(&untraced),
        "us",
    );
    let mut rep = Replay::default();
    let batches = observed_batches(&traced.records, fixtures.len());
    for (i, f) in fixtures.iter().enumerate() {
        replay(
            &plans[i],
            f,
            kinds[i],
            config.exec_threads,
            &batches[i],
            &mut tracer,
            &mut rep,
        )?;
    }
    replay_layers(&plans, &rep, &mut metrics);
    write_trace(args, &tracer);
    Ok(Outcomes {
        attempted: tally.attempted,
        failed: tally.failed(),
        metrics,
    })
}

/// Length of each measured phase: the whole run, or half of it for each
/// of the untraced and traced phases of a traced run.
fn phase_seconds(args: &Args) -> u64 {
    if args.trace {
        (args.seconds / 2).max(1)
    } else {
        args.seconds
    }
}

fn check(phase: &ServePhase) -> Result<(), String> {
    if phase.mismatches > 0 {
        return Err(format!(
            "{} responses differ from the dense reference",
            phase.mismatches
        ));
    }
    let t = Tally::of(&phase.records);
    if t.attempted != t.completed + t.shed + t.refused + t.errors {
        return Err("request accounting does not add up".into());
    }
    if t.attempted == 0 {
        return Err("no request was sent in the measured window".into());
    }
    Ok(())
}

fn setup_layers(setup: &Setup, m: &mut Metrics) {
    put(m, "setup.compile_ms", setup.compile_ms, "ms");
    put(m, "setup.warm_ms", setup.warm_ms, "ms");
    put(m, "setup.engine_start_ms", setup.engine_start_ms, "ms");
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// One offline batch: its inputs and their dense-reference outputs.
type Batch = (Vec<Tensor3<i16>>, Vec<Tensor3<i32>>);

/// Runs `forward_batch_with` over the batches in turn for `seconds` after
/// a warm-up, checking every output. Returns when the measured phase
/// started and when each of its batches started and ended.
fn offline_phase(
    plan: &CompiledNetwork,
    batches: &[Batch],
    threads: usize,
    seconds: u64,
) -> Result<(Instant, Vec<Sample>), String> {
    let kind = plan.backend();
    let mut i = 0usize;
    let mut step = |times: Option<&mut Vec<Sample>>| -> Result<(), String> {
        let (inputs, expected) = &batches[i % batches.len()];
        i += 1;
        let t0 = Instant::now();
        let outs = plan.forward_batch_with(inputs, kind, threads);
        let t1 = Instant::now();
        if outs != *expected {
            return Err("offline forward differs from the dense reference".into());
        }
        if let Some(times) = times {
            times.push((t0, t1));
        }
        Ok(())
    };
    let warm_end = Instant::now() + WARMUP;
    while Instant::now() < warm_end {
        step(None)?;
    }
    let start = Instant::now();
    let end = start + Duration::from_secs(seconds);
    let mut times = Vec::new();
    while Instant::now() < end {
        step(Some(&mut times))?;
    }
    Ok((start, times))
}

fn run_offline(args: &Args) -> Result<Outcomes, String> {
    let fixtures = fixtures(args.workload, args.seed, OFFLINE_BATCH * OFFLINE_BATCHES);
    let fixture = &fixtures[0];
    let batches: Vec<Batch> = fixture
        .cases
        .chunks(OFFLINE_BATCH)
        .map(|chunk| chunk.iter().cloned().unzip())
        .collect();
    let (setup, plans, _) = set_up(&fixtures, false);
    let plan = &plans[0];
    let threads = cores();
    println!(
        "# {}: backend {}, batch {OFFLINE_BATCH}, {threads} threads, {} cores",
        args.workload.name(),
        plan.backend().name(),
        cores(),
    );
    let batch_us =
        |times: &[Sample]| -> Vec<f64> { times.iter().map(|(a, b)| us(*b - *a)).collect() };
    let seconds = phase_seconds(args);
    let (start, untraced) = offline_phase(plan, &batches, threads, seconds)?;
    let summary = summarize(&untraced, start, seconds);
    let attempted = untraced.len() as u64;
    let mut metrics = Metrics::new();
    if !args.trace {
        let tally = Tally {
            attempted,
            completed: attempted,
            ..Tally::default()
        };
        end_to_end(&summary, &tally, OFFLINE_BATCH, &setup, &mut metrics);
        return Ok(Outcomes {
            attempted,
            failed: 0,
            metrics,
        });
    }
    tail_layers(&summary, &mut metrics);
    let mut tracer = Tracer::new(start);
    counters::reset();
    counters::set_enabled(true);
    let (_, traced) = offline_phase(plan, &batches, threads, seconds)?;
    counters::set_enabled(false);
    for (n, &(t0, t1)) in traced.iter().enumerate() {
        tracer.push("forward_batch", n as u64, None, t0, t1);
    }
    reuse_layers(&mut metrics);
    setup_layers(&setup, &mut metrics);
    put(
        &mut metrics,
        "trace.overhead_us",
        mean(&batch_us(&traced)) - mean(&batch_us(&untraced)),
        "us",
    );
    let replayed = (traced.len() / 4).clamp(1, REPLAY_IMAGES / OFFLINE_BATCH);
    let mut rep = Replay::default();
    replay(
        plan,
        fixture,
        plan.backend(),
        threads,
        &[(OFFLINE_BATCH, replayed)],
        &mut tracer,
        &mut rep,
    )?;
    replay_layers(&plans, &rep, &mut metrics);
    write_trace(args, &tracer);
    Ok(Outcomes {
        attempted: attempted + traced.len() as u64,
        failed: 0,
        metrics,
    })
}

fn write_trace(args: &Args, tracer: &Tracer) {
    let path = std::path::PathBuf::from(format!(
        "perfbench/out/trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    match tracer.write(&path) {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    for (name, self_us) in tracer.mean_self_us() {
        if !name.starts_with("kernel.") {
            println!("# mean self time of {name}: {self_us:.2} us");
        }
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let result = match args.workload {
        Workload::OfflineLenet => run_offline(&args),
        _ => run_serve(&args),
    };
    let outcomes = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut metrics = outcomes.metrics;
    if args.trace {
        let mut complete = Metrics::new();
        for (name, unit) in per_layer_catalogue() {
            let measured = metrics.remove(&name).unwrap_or((0.0, unit));
            complete.insert(name, measured);
        }
        if let Some(name) = metrics.keys().next() {
            eprintln!("error: metric {name} is missing from the per-layer catalogue");
            return ExitCode::FAILURE;
        }
        metrics = complete;
    }
    for (name, (value, unit)) in &metrics {
        println!("{name:<44} {value:>14.3} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcomes.attempted.max(1),
        outcomes.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
