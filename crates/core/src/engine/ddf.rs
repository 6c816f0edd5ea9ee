//! Shared DDF-detection rules (paper Sections 4.2 and 5).
//!
//! The rules, verbatim from the paper and encoded here once so both
//! engines share them:
//!
//! 1. "If two operational failures exist simultaneously, a DDF occurs."
//! 2. "If one event is an operational failure and one is a latent
//!    defect, a DDF exists when the operational failure occurs after
//!    the latent defect has occurred and before the scrub process
//!    corrects the corrupted data."
//! 3. "Since two latent defects will not fail the system, there is no
//!    DDF if the shortest and second shortest event times are both
//!    latent defects."
//! 4. "A system failure does not occur if the shortest time is an
//!    operational failure and the second shortest is a latent defect"
//!    (defects created during a reconstruction are repaired later, not
//!    data loss).
//! 5. "Once a DDF has occurred, a subsequent one cannot occur until the
//!    first is restored."
//! 6. Figure 4, note 1: the operational failure "must be a different
//!    HDD than the one with a Ld" — a drive never combines with its own
//!    defect, and a down drive counts once (down dominates defective).
//!
//! Detection therefore happens only at operational-failure instants: at
//! such an instant, count the *other* slots that are bad (down, or else
//! carrying an uncorrected latent defect). If that count reaches the
//! redundancy level's tolerance, data is lost.

use crate::config::Redundancy;
use crate::events::DdfKind;

/// Badness of one slot at an instant, as seen by another slot's failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotCondition {
    /// Up, no uncorrected defect.
    Clean,
    /// Up but carrying an uncorrected latent defect.
    Defective,
    /// Operationally failed, reconstruction in progress.
    Down,
}

impl SlotCondition {
    /// Whether the slot contributes to a DDF count (rule 6: at most one
    /// unit of badness per slot).
    pub fn is_bad(&self) -> bool {
        !matches!(self, SlotCondition::Clean)
    }
}

/// Outcome of evaluating an operational failure against the rest of the
/// group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DdfCheck {
    /// `Some(kind)` if data is lost.
    pub ddf: Option<DdfKind>,
    /// Number of other slots that were down.
    pub others_down: usize,
    /// Number of other slots that were (only) defective.
    pub others_defective: usize,
}

/// Evaluates rules 1–4 and 6 at an operational-failure instant.
///
/// `others` are the conditions of every slot except the failing one.
/// Rule 5 (the post-DDF blocking window) is temporal and enforced by the
/// engines themselves.
// Both engines call this on every operational failure. `#[inline]`
// gives each codegen unit that uses it a local copy, so the event
// loops compile the same however the crate is split into units: left
// to the partitioner, the discrete-event loop ran ~8 % slower whenever
// this generic instance landed outside its unit.
#[inline]
pub fn check(others: impl IntoIterator<Item = SlotCondition>, redundancy: Redundancy) -> DdfCheck {
    let mut down = 0usize;
    let mut defective = 0usize;
    for c in others {
        match c {
            SlotCondition::Down => down += 1,
            SlotCondition::Defective => defective += 1,
            SlotCondition::Clean => {}
        }
    }
    let tolerated = redundancy.tolerated();
    let ddf = if down + defective >= tolerated {
        // Classify: pure operational overlap only if downs alone exceed
        // the tolerance; any defect involvement is the latent pathway.
        Some(if down >= tolerated {
            DdfKind::DoubleOperational
        } else {
            DdfKind::LatentThenOperational
        })
    } else {
        None
    };
    DdfCheck {
        ddf,
        others_down: down,
        others_defective: defective,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use SlotCondition::*;

    fn single(others: &[SlotCondition]) -> Option<DdfKind> {
        check(others.iter().copied(), Redundancy::SingleParity).ddf
    }

    fn double(others: &[SlotCondition]) -> Option<DdfKind> {
        check(others.iter().copied(), Redundancy::DoubleParity).ddf
    }

    #[test]
    fn clean_group_survives_single_failure() {
        assert_eq!(single(&[Clean; 7]), None);
    }

    #[test]
    fn rule1_two_simultaneous_operational_failures() {
        assert_eq!(
            single(&[Clean, Down, Clean]),
            Some(DdfKind::DoubleOperational)
        );
    }

    #[test]
    fn rule2_latent_then_operational() {
        assert_eq!(
            single(&[Defective, Clean, Clean]),
            Some(DdfKind::LatentThenOperational)
        );
    }

    #[test]
    fn down_dominates_classification() {
        // Mixed: a down drive alone already loses data; classify as
        // double-operational even if defects also exist.
        assert_eq!(single(&[Down, Defective]), Some(DdfKind::DoubleOperational));
    }

    #[test]
    fn double_parity_needs_two_bad_others() {
        assert_eq!(double(&[Down, Clean, Clean]), None);
        assert_eq!(double(&[Defective, Clean, Clean]), None);
        assert_eq!(
            double(&[Down, Down, Clean]),
            Some(DdfKind::DoubleOperational)
        );
        assert_eq!(
            double(&[Down, Defective, Clean]),
            Some(DdfKind::LatentThenOperational)
        );
        assert_eq!(
            double(&[Defective, Defective, Clean]),
            Some(DdfKind::LatentThenOperational)
        );
    }

    #[test]
    fn counts_are_reported() {
        let c = check(
            [Down, Defective, Clean, Defective],
            Redundancy::SingleParity,
        );
        assert_eq!(c.others_down, 1);
        assert_eq!(c.others_defective, 2);
        assert!(c.ddf.is_some());
    }

    #[test]
    fn badness_predicate() {
        assert!(!Clean.is_bad());
        assert!(Defective.is_bad());
        assert!(Down.is_bad());
    }
}
