//! Answer checks: every approximate answer is compared with the exact
//! answer to the same query over the same data.

use blinkdb_exec::{ErrorMethod, QueryAnswer};
use blinkdb_telemetry::AuditAggCheck;

/// Realized accuracy over every checked answer of a run.
#[derive(Debug, Default)]
pub struct Accuracy {
    /// `|estimate − truth| / |truth|` per inexact aggregate with a
    /// non-zero truth.
    pub rel_errors: Vec<f64>,
    /// Aggregates checked against the truth.
    pub claims: u64,
    /// Checks passed under the accuracy auditor's 2σ rule.
    pub covered: u64,
}

impl Accuracy {
    pub fn coverage(&self) -> f64 {
        if self.claims == 0 {
            return f64::NAN;
        }
        self.covered as f64 / self.claims as f64
    }

    /// Audited CI coverage must lie in [90, 99]%.
    pub fn coverage_ok(&self) -> bool {
        (0.90..=0.99).contains(&self.coverage())
    }
}

/// Checks `approx` against `exact` and folds its accuracy into `acc`.
///
/// An answer fails when a group it reports does not exist in the exact
/// answer, or an estimate or error bar is not finite. The one infinite
/// bar allowed is the documented `ErrorMethod::Unavailable` (fewer than
/// two contributing sample rows), which reports "no estimate" rather
/// than a wrong one. Coverage uses the service auditor's rule
/// ([`AuditAggCheck::hit`]): exact aggregates and unavailable bars
/// count as covered, everything else must lie within 2σ of the truth.
pub fn check(approx: &QueryAnswer, exact: &QueryAnswer, acc: &mut Accuracy) -> Result<(), String> {
    for row in &approx.rows {
        let truth_row = exact
            .row_for(&row.group)
            .ok_or_else(|| format!("group {:?} is not in the exact answer", row.group))?;
        for (a, t) in row.aggs.iter().zip(&truth_row.aggs) {
            if !a.estimate.is_finite() {
                return Err(format!("estimate {} is not finite", a.estimate));
            }
            let unavailable = a.method == ErrorMethod::Unavailable && !a.exact;
            let finite = a.variance.is_finite() && a.variance >= 0.0;
            if !(unavailable || finite) {
                return Err(format!(
                    "{} variance {} is not finite",
                    a.method, a.variance
                ));
            }
            let sigma = if a.exact {
                0.0
            } else if unavailable {
                f64::INFINITY
            } else {
                a.stddev()
            };
            let audit = AuditAggCheck {
                agg: String::new(),
                estimate: a.estimate,
                truth: t.estimate,
                sigma,
                exact: a.exact,
            };
            acc.claims += 1;
            acc.covered += audit.hit(1.0) as u64;
            if !a.exact && t.estimate != 0.0 {
                acc.rel_errors.push(audit.realized_rel_error());
            }
        }
    }
    Ok(())
}
