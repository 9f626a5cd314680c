//! Cross-stacked placement of CMU Groups over MAU stages (§3.2, Fig. 8).
//!
//! A CMU Group spans four pipeline stages — Compression (C),
//! Initialization (I), Preparation (P), Operation (O) — each with a
//! different dominant resource (Table 2). Deployed one-by-one the groups
//! would waste most of every stage; FlyMon instead shift-one-stage stacks
//! them, CPU-instruction-pipeline style, so that a single MAU stage hosts
//! the C of group *j*, the I of group *j−1*, the P of group *j−2* and the
//! O of group *j−3* simultaneously.
//!
//! Appendix E adds *splicing*: the triangle areas at the beginning and end
//! of the pipeline can host three more groups if their packets are
//! mirrored and recirculated (at a bandwidth cost).

/// The four pipeline stages of a CMU Group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroupStage {
    /// Generates compressed keys from dynamic hash masks.
    Compression,
    /// Selects key and parameters for the matched task.
    Initialization,
    /// Address translation and parameter preprocessing.
    Preparation,
    /// Stateful operation on the flow attribute.
    Operation,
}

impl GroupStage {
    /// The stages in pipeline order.
    pub const ALL: [GroupStage; 4] = [
        GroupStage::Compression,
        GroupStage::Initialization,
        GroupStage::Preparation,
        GroupStage::Operation,
    ];

    /// Fraction of one MAU stage's resources this group-stage consumes —
    /// the resource-usage table of Figure 8, verbatim:
    ///
    /// | Stage | Hash | VLIW | TCAM | SALU |
    /// |-------|------|------|------|------|
    /// | C     | 50%  | 6.25%| 0%   | 0%   |
    /// | I     | 0%   | 25%  | 12.5%| 0%   |
    /// | P     | 0%   | 6.25%| 50%  | 0%   |
    /// | O     | 50%  | 25%  | 0%   | 75%  |
    pub fn usage(self) -> StageUsage {
        match self {
            GroupStage::Compression => StageUsage {
                hash: 0.50,
                vliw: 0.0625,
                tcam: 0.0,
                salu: 0.0,
            },
            GroupStage::Initialization => StageUsage {
                hash: 0.0,
                vliw: 0.25,
                tcam: 0.125,
                salu: 0.0,
            },
            GroupStage::Preparation => StageUsage {
                hash: 0.0,
                vliw: 0.0625,
                tcam: 0.50,
                salu: 0.0,
            },
            GroupStage::Operation => StageUsage {
                hash: 0.50,
                vliw: 0.25,
                tcam: 0.0,
                salu: 0.75,
            },
        }
    }

    /// Single-letter label used in layout dumps (matches Figure 8).
    pub fn letter(self) -> char {
        match self {
            GroupStage::Compression => 'C',
            GroupStage::Initialization => 'I',
            GroupStage::Preparation => 'P',
            GroupStage::Operation => 'O',
        }
    }
}

/// Per-resource fractional load of one group-stage on one MAU stage.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageUsage {
    /// Hash distribution units (fraction of 6/stage).
    pub hash: f64,
    /// VLIW instruction slots (fraction of 32/stage).
    pub vliw: f64,
    /// TCAM entry slots (fraction of one stage's TCAM).
    pub tcam: f64,
    /// SALUs (fraction of 4/stage).
    pub salu: f64,
}

impl StageUsage {
    /// Component-wise sum.
    pub fn add(&self, other: &StageUsage) -> StageUsage {
        StageUsage {
            hash: self.hash + other.hash,
            vliw: self.vliw + other.vliw,
            tcam: self.tcam + other.tcam,
            salu: self.salu + other.salu,
        }
    }

    /// True when every component fits in one MAU stage.
    pub fn feasible(&self) -> bool {
        const EPS: f64 = 1e-9;
        self.hash <= 1.0 + EPS
            && self.vliw <= 1.0 + EPS
            && self.tcam <= 1.0 + EPS
            && self.salu <= 1.0 + EPS
    }
}

/// Where one CMU Group landed in the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupPlacement {
    /// Group index (0-based).
    pub group: usize,
    /// MAU stage hosting the group's Compression stage. Subsequent group
    /// stages occupy the following MAU stages, wrapping modulo the
    /// pipeline length when the group is spliced.
    pub first_stage: usize,
    /// True when the group wraps around the pipeline end and therefore
    /// needs its packets mirrored + recirculated (Appendix E).
    pub spliced: bool,
}

/// A cross-stacked layout of CMU Groups over an MAU pipeline.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Number of MAU stages allotted.
    pub n_stages: usize,
    /// Placed groups.
    pub groups: Vec<GroupPlacement>,
    /// Aggregate fractional load per MAU stage.
    pub per_stage: Vec<StageUsage>,
}

impl Placement {
    /// Plans a cross-stacked layout in `n_stages` MAU stages.
    ///
    /// Without splicing, `n_stages - 3` groups fit (each group needs 4
    /// consecutive stages and successors shift by one). With splicing
    /// (Appendix E), wrapped placements reclaim the triangle areas and
    /// `n_stages` groups fit, the last 3 paying mirror+recirculate
    /// bandwidth.
    ///
    /// # Panics
    /// Panics if `n_stages < 4` (a CMU Group cannot fit at all).
    pub fn plan(n_stages: usize, splice: bool) -> Placement {
        assert!(n_stages >= 4, "a CMU Group needs at least 4 MAU stages");
        let n_groups = if splice { n_stages } else { n_stages - 3 };
        let mut per_stage = vec![StageUsage::default(); n_stages];
        let mut groups = Vec::with_capacity(n_groups);
        for g in 0..n_groups {
            let spliced = g + 4 > n_stages;
            for (offset, stage_kind) in GroupStage::ALL.iter().enumerate() {
                let s = (g + offset) % n_stages;
                per_stage[s] = per_stage[s].add(&stage_kind.usage());
            }
            groups.push(GroupPlacement {
                group: g,
                first_stage: g % n_stages,
                spliced,
            });
        }
        let placement = Placement {
            n_stages,
            groups,
            per_stage,
        };
        debug_assert!(placement.feasible(), "planned placement oversubscribes");
        placement
    }

    /// True when no MAU stage is oversubscribed on any resource.
    pub fn feasible(&self) -> bool {
        self.per_stage.iter().all(StageUsage::feasible)
    }

    /// Number of CMUs hosted (3 per group, §5 "Setting").
    pub fn cmus(&self) -> usize {
        self.groups.len() * 3
    }

    /// Number of groups that require mirror + recirculation.
    pub fn spliced_groups(&self) -> usize {
        self.groups.iter().filter(|g| g.spliced).count()
    }

    /// Pipeline-wide utilization of one resource, as used by Figure 13b:
    /// total fractional stage-loads divided by the allotted stage count.
    pub fn utilization(&self, select: fn(&StageUsage) -> f64) -> f64 {
        self.per_stage.iter().map(select).sum::<f64>() / self.n_stages as f64
    }

    /// Extra traffic fraction induced by splicing: every packet that must
    /// traverse a spliced group is mirrored once, so with uniform task
    /// assignment the bandwidth overhead is `spliced / total` of the
    /// measured traffic (Appendix E: "Only packets that need to perform
    /// the tasks on these spliced CMU Groups will incur additional
    /// bandwidth overhead").
    pub fn bandwidth_overhead(&self) -> f64 {
        if self.groups.is_empty() {
            0.0
        } else {
            self.spliced_groups() as f64 / self.groups.len() as f64
        }
    }

    /// Renders the Figure 8 layout matrix (rows = stacked group lanes,
    /// columns = MAU stages) for the figure regenerator.
    pub fn render_layout(&self) -> String {
        let mut out = String::new();
        for lane in 0..4.min(self.groups.len()) {
            let mut row = vec!["  .  ".to_string(); self.n_stages];
            for g in self.groups.iter().skip(lane).step_by(4) {
                for (offset, kind) in GroupStage::ALL.iter().enumerate() {
                    let s = (g.first_stage + offset) % self.n_stages;
                    row[s] = format!(" {}{:<2} ", kind.letter(), g.group);
                }
            }
            out.push_str(&row.concat());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure8_usage_table_is_verbatim() {
        let c = GroupStage::Compression.usage();
        assert_eq!((c.hash, c.vliw, c.tcam, c.salu), (0.5, 0.0625, 0.0, 0.0));
        let o = GroupStage::Operation.usage();
        assert_eq!((o.hash, o.vliw, o.tcam, o.salu), (0.5, 0.25, 0.0, 0.75));
    }

    #[test]
    fn twelve_stages_host_nine_groups_27_cmus() {
        let p = Placement::plan(12, false);
        assert_eq!(p.groups.len(), 9);
        for (g, pl) in p.groups.iter().enumerate() {
            assert_eq!((pl.group, pl.first_stage), (g, g), "shift-one placement");
        }
        assert_eq!(p.cmus(), 27);
        assert_eq!(p.spliced_groups(), 0);
        assert!(p.feasible());
    }

    #[test]
    fn figure13b_utilization_at_12_stages() {
        // §5.2: "When 12 MAU stages are allocated, the utilization of Hash
        // and SALU resources reaches 75% and 56.25%".
        let p = Placement::plan(12, false);
        assert!((p.utilization(|u| u.hash) - 0.75).abs() < 1e-9);
        assert!((p.utilization(|u| u.salu) - 0.5625).abs() < 1e-9);
    }

    #[test]
    fn utilization_grows_with_stage_count() {
        let mut last = 0.0;
        for s in 4..=12 {
            let p = Placement::plan(s, false);
            let h = p.utilization(|u| u.hash);
            assert!(h >= last, "hash utilization must be monotone");
            last = h;
        }
        // At 4 stages only one group fits: hash = 1.0/4.
        let p4 = Placement::plan(4, false);
        assert!((p4.utilization(|u| u.hash) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn fully_loaded_interior_stage_is_exactly_full() {
        // An interior stage hosts C+I+P+O of four consecutive groups:
        // hash 0.5+0+0+0.5 = 1.0, SALU 0.75, VLIW 0.625, TCAM 0.625.
        let p = Placement::plan(12, false);
        let s5 = &p.per_stage[5];
        assert!((s5.hash - 1.0).abs() < 1e-9);
        assert!((s5.salu - 0.75).abs() < 1e-9);
        assert!((s5.vliw - 0.625).abs() < 1e-9);
        assert!((s5.tcam - 0.625).abs() < 1e-9);
    }

    #[test]
    fn splicing_adds_three_groups_in_twelve_stages() {
        let p = Placement::plan(12, true);
        assert_eq!(p.groups.len(), 12);
        assert_eq!(p.spliced_groups(), 3);
        assert!(p.feasible());
        // With splicing every stage hosts one C and one O: hash = 100%.
        assert!((p.utilization(|u| u.hash) - 1.0).abs() < 1e-9);
        assert!((p.utilization(|u| u.salu) - 0.75).abs() < 1e-9);
        assert!((p.bandwidth_overhead() - 0.25).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn tiny_pipelines_rejected() {
        let _ = Placement::plan(3, false);
    }

    #[test]
    fn layout_rendering_mentions_all_groups() {
        let p = Placement::plan(8, false);
        let art = p.render_layout();
        for g in 0..5 {
            assert!(art.contains(&format!("C{g}")), "missing group {g}:\n{art}");
        }
    }
}
