//! Schedule primitives, the state that records them, kernel templates,
//! and lowering for the Heron reproduction.
//!
//! The pipeline is:
//!
//! 1. `heron-core`'s space generator records the [`primitive::Primitive`]s
//!    it applies (TVM-style `split`/`fuse`/`bind`/`tensorize` …) in a
//!    [`state::ScheduleState`], producing a paper-style schedule
//!    *template* whose loop extents are **names of CSP variables**, not
//!    numbers.
//! 2. The same generator states every stage once, in a
//!    [`template::KernelTemplate`] that records which CSP variables carry
//!    each stage's footprints, execution counts, vector widths and
//!    intrinsic shape.
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
//! use heron_sched::{Primitive, ScheduleState, ThreadAxis};
//!
//! let mut state = ScheduleState::new();
//! state.split("C", "C.i", &["C.i0", "C.i1"]);
//! state.bind("C", "C.i0", ThreadAxis::BlockX);
//! assert_eq!(state.template().len(), 2); // split + bind recorded
//! assert_eq!(state.template()[0].to_string(), "C.split(C.i -> C.i0, C.i1)");
//! assert!(matches!(state.template()[1], Primitive::Bind { .. }));
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
pub use state::ScheduleState;
pub use template::{IntrinsicRef, KernelTemplate, StageSpec};
