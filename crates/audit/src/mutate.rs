//! The seeded rule-mutation gate: proof that the auditor is *sharp*.
//!
//! `heron_testkit::rule_mutation` enumerates every single-rule
//! drop/tighten/widen of a space's `CSP_initial`, but makes no claim
//! about which mutations actually change the admitted schedule set — a
//! dropped rule that is entailed by the others, or a widened candidate
//! set whose new value never survives propagation, is *non-effectual*
//! and undetectable in principle. This module closes that gap:
//!
//! * [`certify`] checks a mutation's effectuality against the simulator
//!   oracle using an *independent* seed (`seed ^ CERT_SALT`):
//!   drop/widen mutations must make a meaningful fraction of the
//!   mutated space's samples sim-invalid; tighten mutations must either
//!   collapse the space to root-infeasibility or yield a confirmed
//!   over-constraint witness.
//! * [`detects`] runs the cheap gate-mode audit (with the *original*
//!   seed) on the mutated space and reports whether it noticed.
//!
//! The acceptance property (pinned in `crates/audit/tests/`): the gate
//! detects **every** certified drop and tighten mutation.

use std::sync::Arc;

use heron_core::generate::GeneratedSpace;
use heron_testkit::rule_mutation::{mutations, MutationKind, RuleMutation};
use heron_trace::Tracer;

use crate::{audit_space, AuditConfig};

/// Decorrelates certification draws from the gate's detection draws, so
/// "certified effectual" is established with a seed the detector never
/// sees.
pub const CERT_SALT: u64 = 0xa0d1_7c3e_7f1a_9b2d;

/// Distinct mutated-space samples drawn while certifying a drop/widen.
const CERT_SAMPLES: usize = 48;
/// Minimum sim-invalid samples (and ≥ 1/8 of the distinct draw) for a
/// drop/widen to count as effectual.
const CERT_MIN_INVALID: usize = 3;

/// A mutation whose effect on the valid-schedule set is oracle-proven.
#[derive(Debug, Clone)]
pub struct CertifiedMutation {
    /// The certified mutation.
    pub mutation: RuleMutation,
    /// Why it is effectual (human-readable, deterministic).
    pub reason: String,
}

/// Every single-rule mutation of `space`'s problem, seeded by `seed`.
pub fn corpus(space: &GeneratedSpace, seed: u64) -> Vec<RuleMutation> {
    mutations(&space.csp, seed)
}

/// The mutated space: `m`'s damaged problem under the original kernel
/// template and platform (the oracle's ground truth is unchanged — only
/// the CSP's claim moved).
pub fn mutated_space(space: &GeneratedSpace, m: &RuleMutation) -> GeneratedSpace {
    GeneratedSpace {
        csp: Arc::new(m.csp.clone()),
        template: space.template.clone(),
        dla: space.dla.clone(),
        workload: format!("{} [{}]", space.workload, m.detail),
    }
}

/// Certifies that `m` is effectual (see the module docs). Returns the
/// deterministic reason, or `None` for a non-effectual mutation.
pub fn certify(space: &GeneratedSpace, m: &RuleMutation, seed: u64) -> Option<String> {
    let cert_seed = seed ^ CERT_SALT;
    let mspace = mutated_space(space, m);
    let tracer = Tracer::disabled();
    match m.kind {
        MutationKind::Drop | MutationKind::Widen => {
            if !heron_csp::root_feasible(&mspace.csp) {
                return None; // loosening cannot be blamed for emptiness
            }
            let mut cfg = AuditConfig::new(cert_seed);
            cfg.samples = CERT_SAMPLES;
            cfg.anchors = 0; // the over-probe is irrelevant to loosening
            let report = audit_space(&mspace, &cfg, &tracer);
            if report.boundary_invalid >= 1 {
                // Deterministic, seed-independent evidence: the gate
                // audit's own boundary probe will reproduce it.
                Some(format!(
                    "{} boundary point(s) sim-invalid",
                    report.boundary_invalid
                ))
            } else if report.invalid_total >= CERT_MIN_INVALID as u64 {
                // A loose-space invalid *rate* high enough that an
                // independent-seed sample pass finds it too.
                Some(format!(
                    "{}/{} mutated samples sim-invalid",
                    report.invalid_total, report.distinct
                ))
            } else {
                None
            }
        }
        MutationKind::Tighten => {
            if !heron_csp::root_feasible(&mspace.csp) {
                return Some("mutated space is root-infeasible".into());
            }
            let report = audit_space(&mspace, &AuditConfig::gate(cert_seed), &tracer);
            if !report.over.is_empty() {
                Some(format!(
                    "over-probe witness: {} -> {}",
                    report.over[0].var, report.over[0].value
                ))
            } else {
                None
            }
        }
    }
}

/// The oracle-certified subset of [`corpus`] — the gate's must-detect
/// negative-test set.
pub fn certified_corpus(space: &GeneratedSpace, seed: u64) -> Vec<CertifiedMutation> {
    corpus(space, seed)
        .into_iter()
        .filter_map(|m| {
            certify(space, &m, seed).map(|reason| CertifiedMutation {
                mutation: m,
                reason,
            })
        })
        .collect()
}

/// Runs the gate-mode audit on the mutated space: `true` iff the audit
/// confirms at least one witness (or proves the space infeasible).
pub fn detects(space: &GeneratedSpace, m: &RuleMutation, seed: u64) -> bool {
    let report = audit_space(
        &mutated_space(space, m),
        &AuditConfig::gate(seed),
        &Tracer::disabled(),
    );
    !report.clean()
}
