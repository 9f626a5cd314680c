//! Resource-model scenarios: what FlyMon costs on the switch (Figs. 2,
//! 6, 8, 11, 13a–c, Table 3, Appendix B). None replays a trace, so only
//! Appendix B varies with [`Scale`].

use std::collections::{BTreeSet, HashMap};

use flymon::addr::{fig11_shift_phv_bits, fig11_tcam_usage};
use flymon::compiler::{
    cmu_group_footprint, max_static_key_copies, phv_limited_cmus, static_sum_footprint,
    StaticSketch,
};
use flymon::group::GroupConfig;
use flymon::prelude::*;
use flymon_packet::{KeySpec, Packet, SplitMix64};
use flymon_rmt::hash::HashUnit;
use flymon_rmt::resources::{ResourceKind, ResourceVector, TofinoModel};
use flymon_rmt::stacking::{GroupStage, Placement};

use crate::{min_max, task, Report, Scale};

/// Figure 2: resource footprint of four single-key sketches statically
/// deployed, and why static deployment cannot cover the task space.
pub(crate) fn fig02_static_footprint(_: Scale) -> Report {
    let model = TofinoModel::default();
    // The four resources Figure 2 plots.
    let kinds = [
        ResourceKind::HashUnit,
        ResourceKind::LogicalTableId,
        ResourceKind::Salu,
        ResourceKind::Sram,
    ];
    let row = |name: &str, fp: ResourceVector| {
        let share = |k| 100.0 * fp.get(k) as f64 / model.capacity(k) as f64;
        let mut row = vec![name.to_string()];
        row.extend(kinds.iter().map(|&k| format!("{:.1}%", share(k))));
        row
    };
    let mut rows: Vec<Vec<String>> =
        StaticSketch::ALL.iter().map(|s| row(s.name(), s.footprint(&model))).collect();
    rows.push(row("Sum", static_sum_footprint(&model)));
    let mut r = Report::default();
    r.table(
        "Figure 2: static single-key sketch footprints",
        &["sketch", "Hash Unit", "Logical Table ID", "Stateful ALU", "Stateful Memory"],
        &rows,
    );
    // The §1 argument: covering m keys × n attributes statically costs
    // O(m·n) sketch instances; the suite fits only a couple of times.
    let copies = max_static_key_copies(&model);
    r.note(format!("static suites (4 sketches each) that fit beside switch.p4: {copies}"));
    r.claim(
        "static deployment cannot cover 4 keys x 4 attributes (16 sketch instances, §1), \
         while one CMU Group hosts up to 96 tasks over the same space",
        format!("the 4-sketch suite fits {copies}x = {} instances", 4 * copies),
        4 * copies < 16,
    );
    r
}

/// Figure 6: which stateful operation (of the SALU's four slots) each
/// built-in algorithm's data-plane half runs on, with its
/// preparation-stage helper — the decomposition/aggregation of §3.1.2.
pub(crate) fn fig06_reduced_ops(_: Scale) -> Report {
    #[rustfmt::skip]
    let rows = [
        ["CMS", "Frequency", "Cond-ADD (p2 = reg max)", "—"],
        ["MRAC", "Frequency (distribution)", "Cond-ADD (p2 = reg max)", "—"],
        ["TowerSketch", "Frequency", "Cond-ADD (p2 = level cap)", "level step/cap constants"],
        ["Counter Braids", "Frequency", "Cond-ADD (both layers)", "MapZero carry judgement"],
        ["SuMax(Sum)", "Frequency", "Cond-ADD (p2 = chained min)", "running-min in PHV"],
        ["SuMax(Max)", "Max", "MAX", "—"],
        ["HyperLogLog", "Distinct (single-key)", "MAX", "leading-zero ρ patterns"],
        ["Bloom Filter", "Existence", "AND-OR (OR side)", "one-hot bit select"],
        ["Linear Counting", "Distinct (single-key)", "AND-OR (OR side)", "one-hot bit select"],
        ["BeauCoup", "Distinct (multi-key)", "AND-OR (OR side)", "coupon one-hot mapping"],
        ["Odd Sketch (§6)", "Similarity", "XOR (4th slot)", "gated one-hot (first occurrence)"],
    ];
    let mut r = Report::default();
    r.table(
        "Figure 6: built-in algorithms on the reduced operation set",
        &["algorithm", "attribute", "stateful operation", "preparation stage"],
        &rows.iter().map(|row| row.iter().map(|c| c.to_string()).collect()).collect::<Vec<_>>(),
    );
    // Everything before " (" names the attribute / the operation.
    let head = |cell: &'static str| cell.split(" (").next().unwrap_or(cell);
    let table1 = ["Frequency", "Distinct", "Existence", "Max"];
    let hosted = rows.iter().filter(|row| table1.contains(&head(row[1])));
    let ops: BTreeSet<&str> = hosted.clone().map(|row| head(row[2])).collect();
    let covered: BTreeSet<&str> = hosted.map(|row| head(row[1])).collect();
    r.claim(
        "three operations (Cond-ADD, MAX, AND-OR) cover all four attributes of Table 1; \
         the fourth SALU slot hosts the §6 expansion (XOR for Odd Sketch)",
        format!("{} of 4 attributes on {ops:?}", covered.len()),
        covered.len() == 4 && ops.into_iter().eq(["AND-OR", "Cond-ADD", "MAX"]),
    );
    r
}

/// Figure 8 (and Appendix E / Figure 16): cross-stacked CMU Group layout.
pub(crate) fn fig08_cross_stacking(_: Scale) -> Report {
    // The per-stage resource-usage table of Figure 8, verbatim.
    let percent = |share: f64| format!("{:.2}%", share * 100.0);
    let stage_row = |s: &GroupStage| {
        let u = s.usage();
        vec![format!("{s:?}"), percent(u.hash), percent(u.vliw), percent(u.tcam), percent(u.salu)]
    };
    let mut r = Report::default();
    r.table(
        "Figure 8 (table): per-MAU-stage usage of the four CMU-Group stages",
        &["stage", "Hash", "VLIW", "TCAM", "SALU"],
        &GroupStage::ALL.iter().map(stage_row).collect::<Vec<_>>(),
    );
    let plain = Placement::plan(12, false);
    r.note(format!(
        "== Figure 8: cross-stacked layout, 12 MAU stages ==\n{}groups: {}  cmus: {}  feasible: {}",
        plain.render_layout(),
        plain.groups.len(),
        plain.cmus(),
        plain.feasible()
    ));
    let spliced = Placement::plan(12, true);
    r.note(format!(
        "== Appendix E (Figure 16): spliced layout via mirror+recirculate ==\n{}\
         groups: {} ({} spliced)  cmus: {}  bandwidth overhead: {:.0}% of measured traffic",
        spliced.render_layout(),
        spliced.groups.len(),
        spliced.spliced_groups(),
        spliced.cmus(),
        spliced.bandwidth_overhead() * 100.0
    ));
    r.claim(
        "12 MAU stages hold 9 cross-stacked groups / 27 CMUs, every stage within its resources (§3.2)",
        format!("{} groups / {} CMUs, feasible: {}", plain.groups.len(), plain.cmus(), plain.feasible()),
        plain.groups.len() == 9 && plain.cmus() == 27 && plain.feasible(),
    );
    r.claim(
        "mirror+recirculate splices 3 more groups into the idle corners (Appendix E)",
        format!("{} groups, {} spliced", spliced.groups.len(), spliced.spliced_groups()),
        spliced.groups.len() == plain.groups.len() + 3 && spliced.spliced_groups() == 3,
    );
    r
}

/// Table 3: each built-in algorithm deployed on a fresh switch — CMU
/// Group usage plus the modeled rule-install latency (3 ms per
/// synchronous table rule, 16 ms per hash-mask rule, 0.1 ms per batched
/// rule: the §5.1 measurements).
pub(crate) fn tab03_deployment_delay(_: Scale) -> Report {
    let packets = Attribute::frequency_packets;
    let flows = KeySpec::FIVE_TUPLE;
    // (name, the paper's delay in ms, key, attribute, algorithm)
    #[rustfmt::skip]
    let cases = [
        ("CMS (d=3)", 16.93, KeySpec::SRC_IP, packets(), Algorithm::Cms { d: 3 }),
        ("BeauCoup (d=3)", 40.18, KeySpec::DST_IP, Attribute::Distinct(KeySpec::SRC_IP),
            Algorithm::BeauCoup { d: 3 }),
        ("Bloom Filter (d=3)", 13.67, KeySpec::NONE, Attribute::Existence(flows),
            Algorithm::Bloom { d: 3, bit_optimized: true }),
        ("SuMax(Max) (d=3)", 19.68, KeySpec::SRC_IP, Attribute::Max(MaxParam::QueueLen),
            Algorithm::SuMaxMax { d: 3 }),
        ("HyperLogLog", 5.98, KeySpec::NONE, Attribute::Distinct(flows), Algorithm::Hll),
        ("SuMax(Sum) (d=3)", 19.47, KeySpec::SRC_IP, packets(), Algorithm::SuMaxSum { d: 3 }),
        ("MRAC", 6.51, flows, packets(), Algorithm::Mrac),
    ];
    let mut rows = Vec::new();
    let mut delays = Vec::new();
    for (name, paper_ms, key, attribute, algorithm) in cases {
        let mut switch = FlyMon::new(FlyMonConfig::default());
        let handle =
            switch.deploy(&task(key, attribute, algorithm, 16384).build()).expect("deploys");
        let deployed = switch.task(handle).expect("just deployed");
        let install = &deployed.install;
        delays.push((name, install.latency_ms(), paper_ms));
        rows.push(vec![
            name.to_string(),
            attribute.name().to_string(),
            deployed.algorithm.groups_used().to_string(),
            format!(
                "{}H + {}S + {}B",
                install.hash_mask_rules, install.sync_table_rules, install.batched_table_rules
            ),
            format!("{:.2}", install.latency_ms()),
            format!("{paper_ms:.2}"),
        ]);
    }
    let mut r = Report::default();
    r.table(
        "Table 3: built-in algorithms, CMU Group usage and deployment delay",
        &[
            "algorithm",
            "attribute",
            "CMUG",
            "rules (hash/sync/batched)",
            "delay (ms)",
            "paper (ms)",
        ],
        &rows,
    );
    let slowest = delays.iter().max_by(|a, b| a.1.total_cmp(&b.1)).expect("seven rows");
    r.claim(
        "all algorithms deploy within 100 ms without interrupting traffic (§5.1)",
        format!("slowest {} at {:.2} ms", slowest.0, slowest.1),
        slowest.1 < 100.0,
    );
    let (lo, hi) = min_max(delays.iter().map(|d| d.1 / d.2));
    r.claim(
        "modeled delays track the paper's within a factor of two, BeauCoup the slowest in both",
        format!("ours/paper between {lo:.2} and {hi:.2}; slowest {}", slowest.0),
        lo > 0.5 && hi < 2.0 && slowest.0.starts_with("BeauCoup"),
    );
    r
}

/// Figure 11: resource overhead of the two address-translation methods.
pub(crate) fn fig11_addr_translation(_: Scale) -> Report {
    let slots = TofinoModel::default().tcam_slots_per_stage;
    let points: Vec<(usize, f64, usize)> = [8usize, 16, 32, 64]
        .iter()
        .map(|&p| (p, fig11_tcam_usage(p, slots), fig11_shift_phv_bits(p)))
        .collect();
    let row = |&(p, tcam, phv): &(usize, f64, usize)| {
        vec![p.to_string(), format!("{tcam:.3}"), phv.to_string()]
    };
    let mut r = Report::default();
    r.table(
        "Figure 11: address-translation overhead vs number of partitions",
        &["partitions", "TCAM usage (frac of 1 stage)", "shift-based PHV (bits)"],
        &points.iter().map(row).collect::<Vec<_>>(),
    );
    let at32 = points[2].1;
    r.claim(
        "32 partitions need 12.5% of one stage's TCAM (§5.1) — 5 memory levels, 96 tasks per group",
        format!("{at32:.3} of one stage at 32 partitions"),
        at32 == 0.125,
    );
    let steps: Vec<usize> = points.windows(2).map(|w| w[1].2 - w[0].2).collect();
    r.claim(
        "the shift-based method trades that TCAM for log2(partitions) pre-computed 16-bit offsets per CMU",
        format!("PHV grows by {steps:?} bits per doubling"),
        steps.iter().all(|&s| s == 3 * 16),
    );
    r
}

/// Figure 13a: resource overhead of CMU Groups beside switch.p4.
pub(crate) fn fig13a_overhead(_: Scale) -> Report {
    let model = TofinoModel::default();
    let group = cmu_group_footprint(&GroupConfig::default(), &model);
    let base = model.baseline_switch();
    let configs = [
        ("switch.p4", base),
        ("switch.p4 + 1 CMU-Group", base.add(&group)),
        ("switch.p4 + 3 CMU-Group", base.add(&group.scale(3))),
    ];
    let kinds = [
        ("Hash", ResourceKind::HashUnit),
        ("SALU", ResourceKind::Salu),
        ("SRAM", ResourceKind::Sram),
        ("TCAM", ResourceKind::Tcam),
        ("VLIW", ResourceKind::Vliw),
        ("LTID", ResourceKind::LogicalTableId),
    ];
    let share = |fp: &ResourceVector, k| fp.get(k) as f64 / model.capacity(k) as f64;
    let row = |(name, fp): &(&str, ResourceVector)| {
        let mut row = vec![name.to_string()];
        row.extend(kinds.iter().map(|&(_, k)| format!("{:.3}", share(fp, k))));
        row.push(if fp.fits(&model) { "yes" } else { "NO" }.to_string());
        row
    };
    let mut r = Report::default();
    r.table(
        "Figure 13a: utilization with CMU Groups integrated into switch.p4",
        &["configuration", "Hash", "SALU", "SRAM", "TCAM", "VLIW", "LTID", "fits"],
        &configs.iter().map(row).collect::<Vec<_>>(),
    );
    let (bottleneck, cost) = kinds
        .iter()
        .map(|&(name, k)| (name, share(&group, k)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("six resources");
    let fit = (1u64..).take_while(|&n| base.add(&group.scale(n)).fits(&model)).count();
    r.note(format!(
        "per-group overhead: mean {:.1}% across the six resources, bottleneck {bottleneck} at {:.1}%\n\
         groups that fit beside switch.p4 in this model: {fit}",
        group.mean_utilization(&model) * 100.0,
        cost * 100.0
    ));
    r.claim(
        "one CMU Group costs at most 8.3% of any resource, the hash units being the bottleneck (§5.2)",
        format!("bottleneck {bottleneck} at {:.2}%", cost * 100.0),
        bottleneck == "Hash" && cost <= 1.0 / 12.0,
    );
    r.claim("more than 3 groups integrate beside switch.p4 (§5.2)", format!("{fit} fit"), fit > 3);
    r
}

/// Figure 13b: hash/SALU utilization vs allotted MAU stages under
/// cross-stacking.
pub(crate) fn fig13b_stacking_util(_: Scale) -> Report {
    let row = |stages: usize| {
        let p = Placement::plan(stages, false);
        vec![
            stages.to_string(),
            p.groups.len().to_string(),
            p.cmus().to_string(),
            format!("{:.4}", p.utilization(|u| u.hash)),
            format!("{:.4}", p.utilization(|u| u.salu)),
        ]
    };
    let mut r = Report::default();
    r.table(
        "Figure 13b: cross-stacking utilization vs number of stages",
        &["stages", "groups", "CMUs", "HASH util", "SALU util"],
        &(4..=12).map(row).collect::<Vec<_>>(),
    );
    let full = Placement::plan(12, false);
    let (hash, salu) = (full.utilization(|u| u.hash), full.utilization(|u| u.salu));
    r.claim(
        "at 12 stages HASH reaches 75% and SALU 56.25% (§5.2) — SALU is capped because Tofino \
         spends a hash distribution unit on every SRAM access",
        format!("HASH {:.2}%, SALU {:.2}%", hash * 100.0, salu * 100.0),
        hash == 0.75 && salu == 0.5625,
    );
    r
}

/// Figure 13c: deployable CMUs vs candidate key size, with and without
/// the less-copy (compression) strategy.
pub(crate) fn fig13c_key_scalability(_: Scale) -> Report {
    // 32: one address; 64: IP pair; 104: 5-tuple; 360: + IPv6 addresses.
    let points: Vec<(u64, usize, usize)> = [32u64, 64, 104, 360]
        .iter()
        .map(|&bits| (bits, phv_limited_cmus(bits, false), phv_limited_cmus(bits, true)))
        .collect();
    let row = |p: &(u64, usize, usize)| vec![p.0.to_string(), p.1.to_string(), p.2.to_string()];
    let mut r = Report::default();
    r.table(
        "Figure 13c: CMUs deployable vs candidate key size",
        &["key size (bits)", "w/o compression", "w/ compression"],
        &points.iter().map(row).collect::<Vec<_>>(),
    );
    let (_, without, with) = points[3];
    r.claim(
        "with compression the PHV cost is key-size independent (compressed keys are 32-bit digests)",
        format!("{:?} CMUs across key sizes", points.iter().map(|p| p.2).collect::<Vec<_>>()),
        points.iter().all(|p| p.2 == with),
    );
    r.claim(
        "at 360-bit candidate keys (IPv6) FlyMon deploys ~5x more CMUs (§5.2)",
        format!("{with} vs {without} = {:.1}x", with as f64 / without as f64),
        with >= 5 * without,
    );
    r
}

/// Appendix B: the fraction of flows whose compressed key collides with
/// another flow's, against the closed form `1 − e^(−n/m)` — the §3.1.1
/// checkpoint is 2.35% for 400K flows on a 24-bit key.
pub(crate) fn appb_collision(scale: Scale) -> Report {
    // (flows n, key bits); the smoke points keep each n/m.
    let points: [(u32, u32); 4] = match scale {
        Scale::Full => [(100_000, 24), (400_000, 24), (400_000, 20), (400_000, 28)],
        Scale::Smoke => [(6_250, 20), (25_000, 20), (25_000, 16), (25_000, 24)],
    };
    let mut unit = HashUnit::new(0);
    unit.set_mask(KeySpec::FIVE_TUPLE);
    let mut rng = SplitMix64::new(0xAB);
    // (n, bits, empirical, closed form)
    let mut measure = |(n, bits): (u32, u32)| {
        let m = 1u64 << bits;
        let mut buckets: HashMap<u32, u32> = HashMap::new();
        for _ in 0..n {
            let pkt = Packet::tcp(rng.next_u32(), rng.next_u32(), rng.next_u16(), rng.next_u16());
            *buckets.entry(unit.compute(&pkt) & ((m - 1) as u32)).or_insert(0) += 1;
        }
        let collided: u64 = buckets.values().filter(|&&c| c > 1).map(|&c| u64::from(c)).sum();
        let theory = 1.0 - (-(f64::from(n)) / m as f64).exp();
        (n, bits, collided as f64 / f64::from(n), theory)
    };
    let measured = points.map(&mut measure);
    let row = |&(n, bits, empirical, theory): &(u32, u32, f64, f64)| {
        vec![n.to_string(), bits.to_string(), format!("{empirical:.4}"), format!("{theory:.4}")]
    };
    let mut r = Report::default();
    r.table(
        "Appendix B: compressed-key collision probability",
        &["flows n", "key bits", "empirical", "1 - e^(-n/m)"],
        &measured.iter().map(row).collect::<Vec<_>>(),
    );
    let (_, _, empirical, theory) = measured[1];
    r.claim(
        "400K flows on a 24-bit compressed key (n/m = 0.024) collide at ~2.35% — \"a small \
         percentage of collisions ... has little effect on the accuracy\" (§3.1.1)",
        format!("{:.2}% empirical, {:.2}% closed form", empirical * 100.0, theory * 100.0),
        (empirical - 0.0235).abs() < 0.002,
    );
    let (_, worst) = min_max(measured.iter().map(|&(_, _, e, t)| (e - t).abs() / t));
    r.claim(
        "collisions follow 1 - e^(-n/m) at every tested point",
        format!("largest relative gap {:.1}%", worst * 100.0),
        worst < 0.15,
    );
    r
}
