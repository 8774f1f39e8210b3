//! `heron-pulse`: the service telemetry plane for `heron-serve`
//! (DESIGN.md §10).
//!
//! The crate folds a finished service run's deterministic projection —
//! manifest-grade job rows, per-job artifacts, and the sliced session
//! traces — into a schema-versioned `pulse.json` document
//! (`heron-pulse-v1`) of per-job SLIs, evaluates a declarative SLO
//! spec over it, and renders two human views: a pass/warn/breach SLO
//! report and the `heron_status` ops dashboard.
//!
//! Determinism contract: every SLI is defined in *simulated* time over
//! scheduling-independent inputs, so `pulse.json`, the SLO report and
//! the dashboard are byte-identical across reruns of the same service
//! script (pinned by `tests/serve_pulse.rs` and the verify.sh pulse
//! stage).
//!
//! # Example
//!
//! ```
//! use heron_pulse::{build_pulse, PulseConfig, ServiceInput, SloSpec};
//!
//! let input = ServiceInput {
//!     config: PulseConfig { backoff_base_s: 1.0, checkpoint_every: 2, workers: 2 },
//!     jobs: Vec::new(),
//!     rejected: Vec::new(),
//! };
//! let spec = SloSpec::parse("reject_rate <= 0.25\n").unwrap();
//! let doc = build_pulse(&input, &spec);
//! assert_eq!(heron_pulse::breach_count(&doc), 0);
//! heron_pulse::validate_pulse(&doc).unwrap();
//! ```

pub mod input;
pub mod report;
pub mod schema;
pub mod sli;
pub mod slo;

pub use input::{JobInput, PulseConfig, ServiceInput};
pub use report::{render_dashboard, render_slo_report};
pub use schema::{check_slo_rule, validate_pulse, SLI_KEYS};
pub use sli::{
    attach_slo, backoff_ns, breach_count, build_pulse, recovery_slis, sol_per_kprop_from_tsv,
    HOT_SPANS, PULSE_SCHEMA,
};
pub use slo::{SloOp, SloRule, SloSpec};
