//! Compiling a fused graph onto a DLA: per-workload tuning with a cache,
//! analytic costs for memory-bound passes, and end-to-end latency.

use std::fmt;
use std::num::NonZeroUsize;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

use heron_core::generate::{SpaceGenerator, SpaceOptions};
use heron_core::tuner::{TuneConfig, Tuner};
use heron_dla::{DlaSpec, Measurer};
use heron_tensor::ops::Conv2dConfig;
use heron_workloads::{OpKind, Workload};

use crate::fuse::FusedGraph;
use crate::ir::{Graph, LayerOp};

/// Compilation options.
#[derive(Debug, Clone, Copy)]
pub struct CompileOptions {
    /// Measured trials per distinct workload.
    pub trials: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            trials: 200,
            seed: 2023,
        }
    }
}

/// How a compiled layer executes.
#[derive(Debug, Clone)]
pub enum CompiledKind {
    /// Heron-tuned MAC kernel.
    Tuned {
        /// Tuning-cache key (shared with identical layers).
        key: String,
        /// Achieved throughput, Gops.
        gflops: f64,
    },
    /// Memory-bound pass costed at streaming bandwidth.
    Memory {
        /// Bytes moved (read + write).
        bytes: u64,
    },
}

/// One compiled layer.
#[derive(Debug, Clone)]
pub struct CompiledLayer {
    /// Layer name (anchor node name).
    pub name: String,
    /// Execution kind.
    pub kind: CompiledKind,
    /// Estimated latency, seconds.
    pub latency_s: f64,
    /// Epilogue ops fused into this layer.
    pub fused_epilogues: usize,
}

/// A compiled model.
#[derive(Debug, Clone)]
pub struct CompiledModel {
    /// Target platform name.
    pub dla: String,
    /// Compiled layers in execution order.
    pub layers: Vec<CompiledLayer>,
    /// Distinct workloads tuned (cache misses).
    pub tuned_workloads: usize,
    /// Layers served from the tuning cache.
    pub cache_hits: usize,
}

impl CompiledModel {
    /// End-to-end latency (sum over layers), seconds.
    pub fn latency_s(&self) -> f64 {
        self.layers.iter().map(|l| l.latency_s).sum()
    }

    /// Fraction of latency in tuned MAC kernels.
    pub fn mac_fraction(&self) -> f64 {
        let mac: f64 = self
            .layers
            .iter()
            .filter(|l| matches!(l.kind, CompiledKind::Tuned { .. }))
            .map(|l| l.latency_s)
            .sum();
        mac / self.latency_s().max(1e-12)
    }
}

impl fmt::Display for CompiledModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "compiled model for {}: {} layers, {} tuned workloads, {} cache hits, {:.3} ms",
            self.dla,
            self.layers.len(),
            self.tuned_workloads,
            self.cache_hits,
            self.latency_s() * 1e3
        )?;
        for l in &self.layers {
            let kind = match &l.kind {
                CompiledKind::Tuned { gflops, .. } => format!("tuned {gflops:.0} Gops"),
                CompiledKind::Memory { bytes } => format!("memory {bytes} B"),
            };
            writeln!(
                f,
                "  {:<18} {:>10.1} us  {} (+{} fused)",
                l.name,
                l.latency_s * 1e6,
                kind,
                l.fused_epilogues
            )?;
        }
        Ok(())
    }
}

/// The kernel part of a convolution's cache key: `3` for a square 3×3
/// kernel, `3x1` for a 3×1 one.
fn kernel_of(c: &Conv2dConfig) -> String {
    if c.kh == c.kw {
        c.kh.to_string()
    } else {
        format!("{}x{}", c.kh, c.kw)
    }
}

/// Maps a MAC layer op onto a tunable workload named by its cache key. The
/// key names every parameter the tuned space depends on, so equal keys mean
/// equal tunes.
fn workload_of(op: &LayerOp) -> Option<Workload> {
    let (key, kind) = match *op {
        LayerOp::Conv2d(c) => (
            format!(
                "c2d-{}x{}x{}x{}x{}-k{}p{}s{}d{}",
                c.batch,
                c.in_channels,
                c.height,
                c.width,
                c.out_channels,
                kernel_of(&c),
                c.padding,
                c.stride,
                c.dilation
            ),
            OpKind::C2d(c),
        ),
        LayerOp::DepthwiseConv2d(c) => {
            let dilation = match c.dilation {
                1 => String::new(),
                d => format!("d{d}"),
            };
            (
                format!(
                    "dw-{}x{}x{}x{}-k{}p{}s{}{dilation}",
                    c.batch,
                    c.in_channels,
                    c.height,
                    c.width,
                    kernel_of(&c),
                    c.padding,
                    c.stride
                ),
                OpKind::Dw(c),
            )
        }
        LayerOp::Gemm { m, n, k } => (format!("gemm-{m}x{n}x{k}"), OpKind::Gemm { m, n, k }),
        LayerOp::Bmm { b, m, n, k } => (format!("bmm-{b}x{m}x{n}x{k}"), OpKind::Bmm { b, m, n, k }),
        _ => return None,
    };
    Some(Workload::new(key, kind))
}

/// Best `(latency, gflops)` of one workload's tune; `(∞, 0)` when its
/// space does not generate.
fn tune(workload: &Workload, spec: &DlaSpec, opts: &CompileOptions) -> (f64, f64) {
    // The DAG is dropped once its space is generated, before the tune.
    let space = {
        let dag = workload.build(spec.in_dtype);
        SpaceGenerator::new(spec.clone()).generate_named(
            &dag,
            &SpaceOptions::heron(),
            &workload.name,
        )
    };
    match space {
        Ok(space) => {
            let r = Tuner::new(
                space,
                Measurer::new(spec.clone()),
                TuneConfig::quick(opts.trials),
                opts.seed,
            )
            .run();
            (r.best_latency_s, r.best_gflops)
        }
        Err(_) => (f64::INFINITY, 0.0),
    }
}

/// Tunes every workload on up to `workers` workers — the calling thread
/// and `workers − 1` scoped threads taking the next index from a shared
/// counter — and returns the results by workload index, so they do not
/// depend on the worker count or on the interleaving. A panic in a tune
/// is re-raised with its original payload.
fn tune_all(
    workloads: &[Workload],
    spec: &DlaSpec,
    opts: &CompileOptions,
    workers: usize,
) -> Vec<(f64, f64)> {
    let workers = workers.min(workloads.len());
    let slots: Vec<OnceLock<(f64, f64)>> = workloads.iter().map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(workload) = workloads.get(i) else {
            break;
        };
        let _ = slots[i].set(tune(workload, spec, opts));
    };
    thread::scope(|s| {
        let helpers: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        work();
        for helper in helpers {
            if let Err(payload) = helper.join() {
                panic::resume_unwind(payload);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every workload is tuned"))
        .collect()
}

/// Compiles a fused graph for `spec`, tuning each distinct MAC workload
/// once.
///
/// The distinct workloads are tuned concurrently: besides the calling
/// thread, `compile` spawns up to `available_parallelism − 1` scoped
/// threads. Each tune is seeded with `opts.seed` and shares nothing with
/// the others, and results are slotted by first use, so the compiled model
/// is the same bytes at any worker count.
pub fn compile(
    graph: &Graph,
    fused: &FusedGraph,
    spec: &DlaSpec,
    opts: &CompileOptions,
) -> CompiledModel {
    let workers = thread::available_parallelism().map_or(1, NonZeroUsize::get);
    compile_on(graph, fused, spec, opts, workers)
}

/// [`compile`] on `workers` workers (the calling thread included).
pub(crate) fn compile_on(
    graph: &Graph,
    fused: &FusedGraph,
    spec: &DlaSpec,
    opts: &CompileOptions,
    workers: usize,
) -> CompiledModel {
    // The distinct MAC workloads in first-use order, and each layer's index
    // into them.
    let mut distinct: Vec<Workload> = Vec::new();
    let slot_of: Vec<Option<usize>> = fused
        .layers
        .iter()
        .map(|layer| {
            let workload = workload_of(&graph.node(layer.anchor).op)?;
            let seen = distinct.iter().position(|w| w.name == workload.name);
            Some(seen.unwrap_or_else(|| {
                distinct.push(workload);
                distinct.len() - 1
            }))
        })
        .collect();
    let tuned = tune_all(&distinct, spec, opts, workers);

    let bw = spec.global_bandwidth_bytes_per_sec();
    let dtype_bytes = spec.in_dtype.bytes();
    let mut model = CompiledModel {
        dla: spec.name.clone(),
        layers: Vec::new(),
        tuned_workloads: 0,
        cache_hits: 0,
    };
    for (layer, slot) in fused.layers.iter().zip(slot_of) {
        let node = graph.node(layer.anchor);
        if let Some(i) = slot {
            // Slots are numbered in first-use order: a new one is a tune.
            if i == model.tuned_workloads {
                model.tuned_workloads += 1;
            } else {
                model.cache_hits += 1;
            }
            let (latency, gflops) = tuned[i];
            model.layers.push(CompiledLayer {
                name: node.name.clone(),
                kind: CompiledKind::Tuned {
                    key: distinct[i].name.clone(),
                    gflops,
                },
                latency_s: latency,
                fused_epilogues: layer.epilogue.len(),
            });
        } else {
            // Memory-bound pass: read inputs + write output at stream BW.
            let out_elems = graph.output_elems(layer.anchor);
            let in_elems: i64 = node.inputs.iter().map(|&i| graph.output_elems(i)).sum();
            let bytes = (out_elems + in_elems) as u64 * dtype_bytes;
            let ops_factor = node.op.elementwise_ops_per_output() as f64;
            let latency = bytes as f64 / bw * ops_factor.max(1.0).sqrt();
            model.layers.push(CompiledLayer {
                name: node.name.clone(),
                kind: CompiledKind::Memory { bytes },
                latency_s: latency,
                fused_epilogues: 0,
            });
        }
    }
    model
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuse::fuse;
    use crate::models;

    #[test]
    fn compile_reuses_cache_for_repeated_layers() {
        // Two identical convolutions: one tuning run, one cache hit.
        let mut g = Graph::new();
        let x = g.input("x", vec![1, 16, 16, 16]);
        let cfg = heron_tensor::ops::Conv2dConfig::new(1, 16, 16, 16, 16, 3, 3, 1, 1);
        let c1 = g.add("c1", LayerOp::Conv2d(cfg), vec![x]);
        let r1 = g.add("r1", LayerOp::Relu, vec![c1]);
        let _c2 = g.add("c2", LayerOp::Conv2d(cfg), vec![r1]);
        let fused = fuse(&g);
        let model = compile(
            &g,
            &fused,
            &heron_dla::v100(),
            &CompileOptions {
                trials: 16,
                seed: 1,
            },
        );
        assert_eq!(model.tuned_workloads, 1);
        assert_eq!(model.cache_hits, 1);
        assert!(model.latency_s().is_finite());
        assert!(model.latency_s() > 0.0);
    }

    #[test]
    fn bottleneck_block_compiles_with_fused_epilogues() {
        let g = models::resnet_bottleneck(1, 56, 256, 64, false);
        let fused = fuse(&g);
        let model = compile(
            &g,
            &fused,
            &heron_dla::v100(),
            &CompileOptions {
                trials: 12,
                seed: 2,
            },
        );
        assert!(model.layers.iter().any(|l| l.fused_epilogues > 0));
        assert!(
            model.mac_fraction() > 0.5,
            "convs dominate a bottleneck block"
        );
        let text = model.to_string();
        assert!(text.contains("tuned"));
    }

    /// One layer's workload tuned directly, outside `compile`.
    fn direct_tune(op: &LayerOp, spec: &DlaSpec, opts: &CompileOptions) -> (f64, f64) {
        let workload = workload_of(op).expect("a MAC layer");
        let space = SpaceGenerator::new(spec.clone())
            .generate_named(
                &workload.build(spec.in_dtype),
                &SpaceOptions::heron(),
                &workload.name,
            )
            .expect("generates");
        let r = Tuner::new(
            space,
            Measurer::new(spec.clone()),
            TuneConfig::quick(opts.trials),
            opts.seed,
        )
        .run();
        (r.best_latency_s, r.best_gflops)
    }

    /// `(name, key, fused epilogues, latency bits, gflops bits)` of every
    /// tuned layer.
    fn tuned_layers(model: &CompiledModel) -> Vec<(String, String, usize, u64, u64)> {
        model
            .layers
            .iter()
            .filter_map(|l| match &l.kind {
                CompiledKind::Tuned { key, gflops } => Some((
                    l.name.clone(),
                    key.clone(),
                    l.fused_epilogues,
                    l.latency_s.to_bits(),
                    gflops.to_bits(),
                )),
                CompiledKind::Memory { .. } => None,
            })
            .collect()
    }

    #[test]
    fn concurrent_compile_equals_a_sequential_reference() {
        // Three distinct convolutions, the first one repeated, and a
        // memory-bound pool between them.
        let mut g = Graph::new();
        let x = g.input("x", vec![1, 16, 16, 16]);
        let a = LayerOp::Conv2d(Conv2dConfig::new(1, 16, 16, 16, 16, 3, 3, 1, 1));
        let c1 = g.add("c1", a.clone(), vec![x]);
        let r1 = g.add("r1", LayerOp::Relu, vec![c1]);
        let c2 = g.add("c2", a, vec![r1]);
        let b = Conv2dConfig::new(1, 16, 16, 16, 32, 1, 1, 0, 1);
        let c3 = g.add("c3", LayerOp::Conv2d(b), vec![c2]);
        let p = g.add("p", LayerOp::MaxPool { k: 2, s: 2 }, vec![c3]);
        let c = Conv2dConfig::new(1, 8, 8, 32, 32, 3, 3, 1, 1);
        g.add("c4", LayerOp::Conv2d(c), vec![p]);
        let fused = fuse(&g);
        let spec = heron_dla::v100();
        let opts = CompileOptions {
            trials: 12,
            seed: 5,
        };

        // The reference: one direct tune per distinct key, in first-use
        // order, one after another.
        let mut tuned: Vec<(String, (f64, f64))> = Vec::new();
        let mut hits = 0;
        let mut expected = Vec::new();
        for layer in &fused.layers {
            let node = g.node(layer.anchor);
            let Some(Workload { name: key, .. }) = workload_of(&node.op) else {
                continue;
            };
            let (latency, gflops) = match tuned.iter().find(|(k, _)| *k == key) {
                Some(&(_, hit)) => {
                    hits += 1;
                    hit
                }
                None => {
                    let r = direct_tune(&node.op, &spec, &opts);
                    tuned.push((key.clone(), r));
                    r
                }
            };
            expected.push((
                node.name.clone(),
                key,
                layer.epilogue.len(),
                latency.to_bits(),
                gflops.to_bits(),
            ));
        }
        assert_eq!((tuned.len(), hits), (3, 1));
        // The same bits at every worker count, with more workers than
        // workloads included.
        let mut rendered = Vec::new();
        for workers in [1, 2, 4] {
            let model = compile_on(&g, &fused, &spec, &opts, workers);
            assert_eq!(tuned_layers(&model), expected, "{workers} workers");
            assert_eq!((model.tuned_workloads, model.cache_hits), (3, 1));
            assert_eq!(model.layers.len(), fused.layers.len());
            rendered.push(model.to_string());
        }
        assert!(rendered.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn non_square_kernels_are_tuned_apart() {
        // A 3×1 convolution after a 3×3 one with every other dimension
        // equal: two tunes, each layer with its own numbers.
        let mut g = Graph::new();
        let x = g.input("x", vec![1, 16, 16, 16]);
        let square = LayerOp::Conv2d(Conv2dConfig::new(1, 16, 16, 16, 16, 3, 3, 1, 1));
        let tall = LayerOp::Conv2d(Conv2dConfig::new(1, 16, 16, 16, 16, 3, 1, 1, 1));
        let c1 = g.add("c1", square.clone(), vec![x]);
        g.add("c2", tall.clone(), vec![c1]);
        let fused = fuse(&g);
        let spec = heron_dla::v100();
        let opts = CompileOptions {
            trials: 12,
            seed: 5,
        };
        let model = compile(&g, &fused, &spec, &opts);
        assert_eq!((model.tuned_workloads, model.cache_hits), (2, 0));
        let expected: Vec<_> = [("c1", square, "k3p1"), ("c2", tall, "k3x1p1")]
            .into_iter()
            .map(|(name, op, kernel)| {
                let (latency, gflops) = direct_tune(&op, &spec, &opts);
                let key = format!("c2d-1x16x16x16x16-{kernel}s1d1");
                (
                    name.to_string(),
                    key,
                    0,
                    latency.to_bits(),
                    gflops.to_bits(),
                )
            })
            .collect();
        assert_ne!(expected[0].3, expected[1].3, "the two tunes differ");
        assert_eq!(tuned_layers(&model), expected);
    }

    #[test]
    fn depthwise_keys_name_the_dilation() {
        let cfg = Conv2dConfig::new(1, 14, 14, 32, 32, 3, 3, 1, 1);
        let key = |c: Conv2dConfig| workload_of(&LayerOp::DepthwiseConv2d(c)).expect("MAC").name;
        assert_eq!(key(cfg), "dw-1x32x14x14-k3p1s1");
        assert_eq!(key(cfg.with_dilation(2)), "dw-1x32x14x14-k3p1s1d2");
    }
}
