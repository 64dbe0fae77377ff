//! In-memory spans for the traced run, their self times, and the staged
//! kernel walk that times each layer of a compiled plan.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use ucnn_core::backend::{backend, BackendKind};
use ucnn_core::plan::{CompiledNetwork, CompiledStage};
use ucnn_model::forward::flatten_for_fc;
use ucnn_model::reference;
use ucnn_tensor::Tensor3;

/// One timed interval. `parent` indexes the enclosing span in the same
/// [`Tracer`]; spans of one request or one batch share `trace`.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub trace: u64,
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

/// Collects spans in memory; [`Tracer::write`] writes them out at the end.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// Adds a span and returns its index, for use as a parent.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        trace: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            trace,
            parent,
            start,
            end: end.max(start),
        });
        self.spans.len() - 1
    }

    /// Self time of every span in nanoseconds: its duration minus the part
    /// of it that its children cover (children clipped to the parent and
    /// overlaps counted once).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(Instant, Instant)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                let parent = &self.spans[p];
                let (s, e) = (span.start.max(parent.start), span.end.min(parent.end));
                if s < e {
                    children[p].push((s, e));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort();
                let mut covered = 0u128;
                let mut cursor = span.start;
                for &(s, e) in kids.iter() {
                    let s = s.max(cursor);
                    if e > s {
                        covered += (e - s).as_nanos();
                        cursor = e;
                    }
                }
                let total = (span.end - span.start).as_nanos();
                u64::try_from(total.saturating_sub(covered)).unwrap_or(u64::MAX)
            })
            .collect()
    }

    /// Mean self time per span name, in microseconds.
    pub fn mean_self_us(&self) -> BTreeMap<String, f64> {
        let mut sums: BTreeMap<String, (f64, u64)> = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self.self_ns()) {
            let entry = sums.entry(span.name.clone()).or_default();
            entry.0 += ns as f64 / 1e3;
            entry.1 += 1;
        }
        sums.into_iter()
            .map(|(name, (sum, n))| (name, sum / n as f64))
            .collect()
    }

    /// Writes every span, one JSON object a line, with times in
    /// nanoseconds since the run's origin and each span's self time.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos();
        let mut out = String::new();
        for (i, (span, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                span.trace,
                span.name,
                ns(span.start),
                ns(span.end),
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Runs one batch through `plan` stage by stage, as
/// `CompiledNetwork::forward_batch_with` does, recording a `kernel.<model>.
/// <layer>` span around each `Backend::run_layer` call and a `glue.<op>`
/// span around the copying, flattening, activation and pooling between
/// them, all under one `walk` span.
pub fn walk(
    plan: &CompiledNetwork,
    kind: BackendKind,
    inputs: &[Tensor3<i16>],
    threads: usize,
    tracer: &mut Tracer,
    trace: u64,
) -> Vec<Tensor3<i32>> {
    let exec = backend(kind);
    let model = plan.name();
    let walk_start = Instant::now();
    let mut spans: Vec<(String, Instant, Instant)> = Vec::new();
    let mut timed = |name: String, f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        spans.push((name, t0, Instant::now()));
    };
    let mut acts: Vec<Tensor3<i16>> = Vec::new();
    timed("glue.copy".into(), &mut || acts = inputs.to_vec());
    let last = plan.stages().len() - 1;
    let mut outs: Vec<Tensor3<i32>> = Vec::new();
    for (si, stage) in plan.stages().iter().enumerate() {
        match stage {
            CompiledStage::Conv { name, layer, is_fc } => {
                if *is_fc {
                    timed("glue.flatten".into(), &mut || {
                        acts = std::mem::take(&mut acts)
                            .into_iter()
                            .map(|a| flatten_for_fc(a, layer.geom().c()))
                            .collect();
                    });
                }
                timed(format!("kernel.{model}.{name}"), &mut || {
                    outs = exec.run_layer(layer, &acts, threads);
                });
                if si != last {
                    timed("glue.relu".into(), &mut || {
                        acts = outs.iter().map(reference::relu_saturate).collect();
                    });
                }
            }
            CompiledStage::Pool {
                kind, size, stride, ..
            } => {
                timed("glue.pool".into(), &mut || {
                    acts = acts
                        .iter()
                        .map(|a| reference::pool2d(a, *kind, *size, *stride))
                        .collect();
                });
                if si == last {
                    outs = acts
                        .iter()
                        .map(|a| {
                            Tensor3::from_fn(a.c(), a.w(), a.h(), |c, x, y| i32::from(a[(c, x, y)]))
                        })
                        .collect();
                }
            }
        }
    }
    let root = tracer.push("walk", trace, None, walk_start, Instant::now());
    for (name, start, end) in spans {
        tracer.push(name, trace, Some(root), start, end);
    }
    outs
}
