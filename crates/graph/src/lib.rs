//! Graph-level network IR, operator fusion, and the compile/tuning cache.
//!
//! The paper's pipeline (Section 2.1) starts with graph-level
//! optimisations — operator fusion and layout transformation — before
//! Heron tunes each resulting kernel. This crate provides that front end:
//!
//! * [`ir`] — a small network graph (convolutions, GEMMs, element-wise
//!   epilogues, pooling) with structural validation;
//! * [`mod@fuse`] — the fusion pass that absorbs element-wise epilogues into
//!   their producing MAC layer and groups the rest into memory-bound
//!   passes;
//! * [`mod@compile`] — lowering of a fused graph onto a DLA: each distinct MAC
//!   workload is tuned once through Heron (a tuning cache keyed by the
//!   workload signature; the distinct workloads are tuned concurrently),
//!   memory-bound layers are costed analytically, and the compiled model
//!   reports end-to-end latency;
//! * [`models`] — builders for the paper's evaluated networks (ResNet-50,
//!   VGG-16, Inception-style blocks, BERT encoders).
//!
//! # Example
//!
//! ```
//! use heron_graph::{compile::CompileOptions, fuse, models};
//!
//! let g = models::vgg16(1);
//! let fused = fuse::fuse(&g);
//! assert!(fused.layers.iter().any(|l| !l.epilogue.is_empty()), "ReLUs fuse into convs");
//! ```

pub mod compile;
pub mod fuse;
pub mod ir;
pub mod models;

pub use compile::{compile, CompileOptions, CompiledModel};
pub use fuse::{fuse, FusedGraph, FusedLayer};
pub use ir::{Graph, LayerOp, Node, NodeId};
