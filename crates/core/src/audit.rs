//! Control/data-plane state auditor.
//!
//! The control plane keeps *shadow state* — task records, hash-unit
//! refcounts, allocator occupancy — that is supposed to mirror what the
//! data plane actually holds: configured hash masks, installed bindings,
//! register partitions. Transactional reconfiguration (deploy rollback,
//! snapshot-restoring removal) exists precisely to keep the two in
//! lockstep through failures, and [`FlyMon::audit`] is the referee: it
//! reconciles every piece of shadow state against the data plane and
//! returns a structured [`Divergence`] for each disagreement.
//!
//! An empty result is the system's consistency certificate; tests run it
//! after every mutating operation.

use std::collections::HashMap;

use flymon_packet::KeySpec;

use crate::control::FlyMon;
use crate::task::TaskId;

/// One disagreement between control-plane shadow state and the data
/// plane.
#[derive(Debug, Clone, PartialEq)]
pub enum Divergence {
    /// A hash unit's shadow key spec differs from the mask the data
    /// plane actually has configured.
    MaskMismatch {
        /// CMU group index.
        group: usize,
        /// Compression-stage hash unit index.
        unit: usize,
        /// What the control plane believes is configured.
        shadow: Option<KeySpec>,
        /// What the data-plane hash unit actually holds.
        actual: Option<KeySpec>,
    },
    /// A hash unit's shadow refcount differs from the count derived by
    /// summing every deployed task's unit references.
    RefcountMismatch {
        /// CMU group index.
        group: usize,
        /// Compression-stage hash unit index.
        unit: usize,
        /// The shadow refcount.
        shadow: usize,
        /// The refcount recomputed from task records.
        derived: usize,
    },
    /// A CMU's buddy allocator holds a different partition set than the
    /// union of deployed tasks' rows on that CMU.
    AllocatorMismatch {
        /// CMU group index.
        group: usize,
        /// CMU index within the group.
        cmu: usize,
        /// The partitions `(offset, size)` the allocator holds.
        allocator: Vec<(usize, usize)>,
        /// The partitions task records claim to own.
        tasks: Vec<(usize, usize)>,
    },
    /// The data plane has a binding no task record accounts for.
    OrphanBinding {
        /// CMU group index.
        group: usize,
        /// CMU index within the group.
        cmu: usize,
        /// The task id the stray binding carries.
        task: TaskId,
    },
    /// A task record claims a row whose binding is missing from the data
    /// plane.
    MissingBinding {
        /// CMU group index.
        group: usize,
        /// CMU index within the group.
        cmu: usize,
        /// The task whose binding is absent.
        task: TaskId,
    },
    /// A register bucket outside every allocated partition holds a
    /// non-zero value (a removal or rollback failed to scrub it).
    DirtyFreeMemory {
        /// CMU group index.
        group: usize,
        /// CMU index within the group.
        cmu: usize,
        /// First offending bucket offset.
        offset: usize,
        /// The stale value found there.
        value: u32,
    },
}

impl FlyMon {
    /// Reconciles control-plane shadow state against the data plane and
    /// returns every divergence found. An empty vector certifies the two
    /// are consistent.
    ///
    /// Five invariants are checked:
    /// 1. every hash unit's shadow spec equals its configured mask;
    /// 2. every shadow refcount equals the sum of task unit references;
    /// 3. every buddy allocator's partition set equals the union of task
    ///    rows on that CMU;
    /// 4. installed bindings and task rows account for each other
    ///    exactly (no orphans, none missing);
    /// 5. every register bucket outside an allocated partition reads
    ///    zero.
    pub fn audit(&self) -> Vec<Divergence> {
        let mut out = Vec::new();
        self.audit_masks(&mut out);
        self.audit_refcounts(&mut out);
        self.audit_allocators(&mut out);
        self.audit_bindings(&mut out);
        self.audit_free_memory(&mut out);
        out
    }

    fn audit_masks(&self, out: &mut Vec<Divergence>) {
        for (g, states) in self.units.iter().enumerate() {
            for (u, state) in states.iter().enumerate() {
                let actual = self.groups[g].units()[u].mask().copied();
                if state.spec != actual {
                    out.push(Divergence::MaskMismatch {
                        group: g,
                        unit: u,
                        shadow: state.spec,
                        actual,
                    });
                }
            }
        }
    }

    fn audit_refcounts(&self, out: &mut Vec<Divergence>) {
        let mut derived: HashMap<(usize, usize), usize> = HashMap::new();
        for task in self.tasks.values() {
            for &(g, u) in &task.unit_refs {
                *derived.entry((g, u)).or_insert(0) += 1;
            }
        }
        for (g, states) in self.units.iter().enumerate() {
            for (u, state) in states.iter().enumerate() {
                let want = derived.get(&(g, u)).copied().unwrap_or(0);
                if state.refs != want {
                    out.push(Divergence::RefcountMismatch {
                        group: g,
                        unit: u,
                        shadow: state.refs,
                        derived: want,
                    });
                }
            }
        }
    }

    fn audit_allocators(&self, out: &mut Vec<Divergence>) {
        for g in 0..self.config.groups {
            for c in 0..self.config.cmus_per_group {
                let mut from_allocator: Vec<(usize, usize)> =
                    self.allocators[g][c].allocations().to_vec();
                let mut from_tasks: Vec<(usize, usize)> = self
                    .tasks
                    .values()
                    .flat_map(|t| t.rows.iter())
                    .filter(|r| r.group == g && r.cmu == c)
                    .map(|r| (r.offset, r.size))
                    .collect();
                from_allocator.sort_unstable();
                from_tasks.sort_unstable();
                if from_allocator != from_tasks {
                    out.push(Divergence::AllocatorMismatch {
                        group: g,
                        cmu: c,
                        allocator: from_allocator,
                        tasks: from_tasks,
                    });
                }
            }
        }
    }

    fn audit_bindings(&self, out: &mut Vec<Divergence>) {
        for g in 0..self.config.groups {
            for c in 0..self.config.cmus_per_group {
                // Multiset of task ids bound on the data plane...
                let mut installed: HashMap<TaskId, usize> = HashMap::new();
                for b in self.groups[g].cmus()[c].bindings() {
                    *installed.entry(b.task).or_insert(0) += 1;
                }
                // ...versus the rows task records claim here.
                let mut expected: HashMap<TaskId, usize> = HashMap::new();
                for (id, task) in &self.tasks {
                    let rows = task.rows.iter().filter(|r| r.group == g && r.cmu == c).count();
                    if rows > 0 {
                        expected.insert(*id, rows);
                    }
                }
                for (&task, &have) in &installed {
                    if have > expected.get(&task).copied().unwrap_or(0) {
                        out.push(Divergence::OrphanBinding { group: g, cmu: c, task });
                    }
                }
                for (&task, &want) in &expected {
                    if want > installed.get(&task).copied().unwrap_or(0) {
                        out.push(Divergence::MissingBinding { group: g, cmu: c, task });
                    }
                }
            }
        }
    }

    fn audit_free_memory(&self, out: &mut Vec<Divergence>) {
        let total = self.config.buckets_per_cmu;
        for g in 0..self.config.groups {
            for c in 0..self.config.cmus_per_group {
                let mut covered = vec![false; total];
                for &(off, size) in self.allocators[g][c].allocations() {
                    for slot in covered.iter_mut().skip(off).take(size) {
                        *slot = true;
                    }
                }
                let Ok(buckets) = self.groups[g].cmus()[c].register().read_range(0, total) else {
                    continue;
                };
                if let Some((offset, value)) = buckets
                    .iter()
                    .enumerate()
                    .find(|&(i, v)| v != 0 && !covered[i])
                {
                    out.push(Divergence::DirtyFreeMemory {
                        group: g,
                        cmu: c,
                        offset,
                        value,
                    });
                }
            }
        }
    }
}
