//! The correctness gate: checks every workload must pass before any
//! timing is recorded. Failed checks count in `failed` and `ok_share`.

use raidsim::stats::StreamStats;

/// z-score of every statistical check: a two-sided false-alarm rate of
/// 6.8e-6 per check, so below 7e-5 for the ten reference checks of the
/// largest workload.
pub const GATE_Z: f64 = 4.5;

/// First-year horizon of the E10 references, hours.
const FIRST_YEAR_HOURS: f64 = 8_760.0;

/// A reference estimate from EXPERIMENTS.md: DDFs per 1,000 groups of one
/// scenario, from `n_ref` simulated groups, over the 10-year mission
/// (E12) or the first year (E10).
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    pub workload: &'static str,
    pub scenario: &'static str,
    pub source: &'static str,
    pub per_thousand: f64,
    pub n_ref: f64,
    pub first_year: bool,
}

const fn r(
    workload: &'static str,
    scenario: &'static str,
    source: &'static str,
    per_thousand: f64,
    n_ref: f64,
    first_year: bool,
) -> Reference {
    Reference {
        workload,
        scenario,
        source,
        per_thousand,
        n_ref,
        first_year,
    }
}

pub const REFERENCES: &[Reference] = &[
    r(
        "sweep_table3_des",
        "table3_no_scrub",
        "E12",
        1_192.0,
        10_000.0,
        false,
    ),
    r(
        "sweep_table3_des",
        "table3_scrub_336h",
        "E12",
        254.0,
        10_000.0,
        false,
    ),
    r(
        "sweep_table3_des",
        "table3_scrub_168h",
        "E12",
        137.0,
        10_000.0,
        false,
    ),
    r(
        "sweep_table3_des",
        "table3_scrub_48h",
        "E12",
        46.7,
        10_000.0,
        false,
    ),
    r(
        "sweep_table3_des",
        "table3_scrub_12h",
        "E12",
        16.3,
        10_000.0,
        false,
    ),
    r(
        "sweep_table3_des",
        "table3_no_scrub",
        "E10",
        77.7,
        20_000.0,
        true,
    ),
    r(
        "sweep_table3_des",
        "table3_scrub_336h",
        "E10",
        20.6,
        20_000.0,
        true,
    ),
    r(
        "sweep_table3_des",
        "table3_scrub_168h",
        "E10",
        10.8,
        20_000.0,
        true,
    ),
    r(
        "sweep_table3_des",
        "table3_scrub_48h",
        "E10",
        3.3,
        20_000.0,
        true,
    ),
    r(
        "sweep_table3_des",
        "table3_scrub_12h",
        "E10",
        1.2,
        20_000.0,
        true,
    ),
    r(
        "base168_timeline_serial",
        "base_168h",
        "E12",
        137.0,
        10_000.0,
        false,
    ),
    r(
        "base168_timeline_serial",
        "base_168h",
        "E10",
        10.8,
        20_000.0,
        true,
    ),
    r("raid6_forced_is", "raid6_168h", "E12", 6.0, 10_000.0, false),
    r(
        "noscrub_precision_ckpt",
        "base_no_scrub",
        "E12",
        1_192.0,
        10_000.0,
        false,
    ),
    r(
        "noscrub_precision_ckpt",
        "base_no_scrub",
        "E10",
        77.7,
        20_000.0,
        true,
    ),
];

/// Compares an estimate with its reference. The tolerance is
/// [`GATE_Z`] standard errors of the difference: the estimate's own
/// standard error plus the reference's, both from the estimate's
/// per-group variance (10-year rows) or, for the first-year rows whose
/// per-group variance the accumulator does not keep, from Poisson
/// counts at the reference rate. Returns `(ok, estimate, tolerance)`,
/// all per 1,000 groups.
pub fn check_reference(
    stats: &StreamStats,
    biased: bool,
    reference: &Reference,
) -> (bool, f64, f64) {
    let n = stats.groups() as f64;
    let (est, tol) = if reference.first_year {
        let est = stats.ddfs_through(FIRST_YEAR_HOURS) as f64 / n;
        let rate = reference.per_thousand / 1e3;
        (est, GATE_Z * (rate / n + rate / reference.n_ref).sqrt())
    } else if biased {
        let mean = stats.weighted_mean_ddfs();
        let se = stats.weighted_half_width(1.0);
        // Variance of one plain-measure group, E_f[D²] − E_f[D]², as the
        // weighted moments estimate it: the reference's per-group spread.
        let plain_var = (stats.weighted_mean_square_ddfs() - mean * mean).max(0.0);
        let se_ref = (plain_var / reference.n_ref).sqrt();
        (mean, GATE_Z * (se * se + se_ref * se_ref).sqrt())
    } else {
        let var = stats.variance_ddfs();
        (
            stats.mean_ddfs(),
            GATE_Z * (var / n + var / reference.n_ref).sqrt(),
        )
    };
    let (est, tol) = (est * 1e3, tol * 1e3);
    ((est - reference.per_thousand).abs() <= tol, est, tol)
}

/// One gate check and its outcome.
#[derive(Debug)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// The gate's checks, in the order they ran.
#[derive(Debug, Default)]
pub struct Gate {
    pub checks: Vec<Check>,
}

impl Gate {
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn failed(&self) -> u64 {
        self.checks.iter().filter(|c| !c.ok).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_reference_names_a_known_workload() {
        for r in REFERENCES {
            assert!(
                crate::report::WORKLOADS
                    .iter()
                    .any(|(w, _)| *w == r.workload),
                "{}",
                r.workload
            );
            assert!(r.per_thousand > 0.0 && r.n_ref > 0.0);
        }
    }

    #[test]
    fn family_wise_false_alarm_rate_stays_below_two_in_ten_thousand() {
        // Two-sided normal tail at GATE_Z, by the complementary error
        // function's asymptotic bound φ(z)/z · 2.
        let z = GATE_Z;
        let tail = 2.0 * (-z * z / 2.0).exp() / (z * (2.0 * std::f64::consts::PI).sqrt());
        let per_run = REFERENCES
            .iter()
            .filter(|r| r.workload == "sweep_table3_des")
            .count() as f64;
        assert!(tail * per_run < 2e-4, "{}", tail * per_run);
    }
}
