//! Schedule primitives, symbolic schedule state, kernel templates, and
//! lowering for the Heron reproduction.
//!
//! The pipeline is:
//!
//! 1. `heron-core`'s space generator applies [`primitive::Primitive`]s to a
//!    [`state::ScheduleState`] (TVM-style `split`/`fuse`/`bind`/`tensorize`
//!    …), producing a paper-style schedule *template* whose loop extents are
//!    **names of CSP variables**, not numbers.
//! 2. The same generator wraps the state into a [`template::KernelTemplate`]
//!    that records which CSP variables carry each stage's footprints,
//!    execution counts, vector widths and intrinsic shape.
//! 3. Given one concrete CSP solution, [`kernel::lower`] evaluates every
//!    referenced variable and emits a fully numeric [`kernel::Kernel`] that
//!    the DLA measurer in `heron-dla` simulates.
//!
//! Keeping extents symbolic until lowering is exactly what lets Heron pose
//! the whole space as a constraint satisfaction problem.
//!
//! # Example
//!
//! ```
//! use heron_sched::{MemScope, ScheduleState, StageRole, ThreadAxis};
//! use heron_tensor::{DType, IterKind};
//!
//! let mut state = ScheduleState::new();
//! state.add_stage("C", StageRole::Compute, MemScope::Global, MemScope::Global, DType::F16);
//! state.push_loop("C", &["C.i"], IterKind::Spatial, "i");
//! state.push_loop("C", &["C.r"], IterKind::Reduce, "r");
//! state.split("C", "C.i", &["C.i0", "C.i1"]);
//! state.bind("C", "C.i0", ThreadAxis::BlockX);
//! assert_eq!(state.template().len(), 2); // split + bind recorded
//! ```

pub mod codegen;
pub mod kernel;
pub mod primitive;
pub mod scope;
pub mod state;
pub mod template;

pub use codegen::kernel_pseudo_code;
pub use kernel::{lower, Kernel, KernelBuffer, KernelStage, LowerError};
pub use primitive::Primitive;
pub use scope::{MemScope, StageRole, ThreadAxis};
pub use state::{LoopSym, ScheduleState, StageSym, SymName};
pub use template::{IntrinsicRef, KernelTemplate, StageSpec};
