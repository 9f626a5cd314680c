//! The MAU pipeline: stage-level hosting of cross-stacked CMU Groups.
//!
//! [`crate::stacking`] plans *where* group stages land;
//! [`crate::resources`] prices *what* they consume. This module ties the
//! two together: given a desired number of CMU Groups and an optional
//! baseline program (switch.p4), it verifies that a concrete pipeline
//! can host the deployment and reports per-stage headroom — the check an
//! operator runs before bringing FlyMon to a shared switch.

use crate::resources::{ResourceKind, ResourceVector, TofinoModel};
use crate::stacking::{GroupStage, Placement};
use crate::RmtError;

/// A validated pipeline plan: groups cross-stacked over stages, with the
/// aggregate footprint checked against a Tofino model.
#[derive(Debug, Clone)]
pub struct PipelinePlan {
    /// The stage-level placement.
    pub placement: Placement,
    /// The model the plan was validated against.
    pub model: TofinoModel,
    /// Whether a switch.p4 baseline shares the pipeline.
    pub with_baseline: bool,
}

impl PipelinePlan {
    /// Plans `groups` CMU Groups in `model`'s pipeline; when
    /// `with_baseline` is set, the switch.p4 occupancy must also fit.
    ///
    /// Fails with [`RmtError::CapacityExceeded`] when the stage count or
    /// an aggregate resource cannot host the request.
    pub fn new(
        groups: usize,
        model: TofinoModel,
        with_baseline: bool,
        footprint_per_group: &ResourceVector,
    ) -> Result<Self, RmtError> {
        // Stage capacity: cross-stacking fits stages-3 groups (plus
        // splicing, which we do not assume here).
        let max_groups = model.stages.saturating_sub(3);
        if groups > max_groups {
            return Err(RmtError::CapacityExceeded {
                resource: "MAU stages (cross-stacked CMU Groups)",
                requested: groups as u64,
                available: max_groups as u64,
            });
        }
        let placement = Placement::plan(model.stages, false);
        // Aggregate resource check.
        let mut total = footprint_per_group.scale(groups as u64);
        if with_baseline {
            total = total.add(&model.baseline_switch());
        }
        for kind in ResourceKind::ALL {
            let cap = model.capacity(kind);
            let used = total.get(kind);
            if used > cap {
                return Err(RmtError::CapacityExceeded {
                    resource: kind.name(),
                    requested: used,
                    available: cap,
                });
            }
        }
        Ok(PipelinePlan {
            placement,
            model,
            with_baseline,
        })
    }
}

/// Convenience: the per-stage kinds in pipeline order (re-exported for
/// report rendering).
pub const GROUP_STAGE_ORDER: [GroupStage; 4] = GroupStage::ALL;

#[cfg(test)]
mod tests {
    use super::*;

    fn group_fp() -> ResourceVector {
        // Matches flymon::compiler::cmu_group_footprint for the default
        // geometry (kept in sync by the cross-crate integration tests).
        ResourceVector {
            hash_units: 6,
            salus: 3,
            vliw_slots: 20,
            tcam_slots: 5120,
            sram_bits: 3 * 65536 * 16,
            table_ids: 6,
            phv_bits: 432,
        }
    }

    #[test]
    fn nine_groups_fit_a_dedicated_pipeline() {
        let plan = PipelinePlan::new(9, TofinoModel::default(), false, &group_fp()).unwrap();
        assert_eq!(plan.placement.groups.len(), 9);
        assert!(plan.placement.feasible());
    }

    #[test]
    fn ten_groups_exceed_twelve_stages() {
        let err = PipelinePlan::new(10, TofinoModel::default(), false, &group_fp()).unwrap_err();
        assert!(matches!(
            err,
            RmtError::CapacityExceeded {
                requested: 10,
                available: 9,
                ..
            }
        ));
    }

    #[test]
    fn baseline_limits_shared_pipelines() {
        // With switch.p4 aboard, hash units run out before stages do.
        let model = TofinoModel::default();
        assert!(PipelinePlan::new(3, model, true, &group_fp()).is_ok());
        let err = PipelinePlan::new(9, model, true, &group_fp()).unwrap_err();
        assert!(matches!(err, RmtError::CapacityExceeded { .. }));
    }

    #[test]
    fn group_stage_mapping_is_shift_one() {
        let plan = PipelinePlan::new(5, TofinoModel::default(), false, &group_fp()).unwrap();
        let first_stage =
            |g| plan.placement.groups.iter().find(|p| p.group == g).map(|p| p.first_stage);
        assert_eq!(first_stage(0), Some(0));
        assert_eq!(first_stage(4), Some(4));
        assert_eq!(first_stage(11), None);
    }
}
