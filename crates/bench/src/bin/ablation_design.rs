//! Ablations of FlyMon's three resource-saving design choices:
//!
//! 1. **Key-slice sharing** (§3.2): CMUs of one group derive their "row
//!    hashes" as bit slices of a single compressed key instead of
//!    running independent hash functions — claimed to have "a negligible
//!    impact on measurement accuracy".
//! 2. **XOR key composition** (§3.1.1): `C(SrcIP) ⊕ C(DstIP)` stands in
//!    for a dedicated IP-pair hash unit.
//! 3. **Address translation method** (§3.3): shift-based and TCAM-based
//!    translation compute the same mapping and differ only in resource
//!    cost.
//!
//! ```sh
//! cargo run --release -p flymon-bench --bin ablation_design
//! ```

use flymon::addr::{fig11_shift_phv_bits, fig11_tcam_usage, AddrTranslation, TranslationMethod};
use flymon::prelude::*;
use flymon_bench::{fmt_bytes, print_table, representatives, small_trace};
use flymon_packet::KeySpec;
use flymon_sketches::CountMinSketch;
use flymon_traffic::ground_truth::GroundTruth;
use flymon_traffic::metrics::average_relative_error;

fn main() {
    slice_sharing_vs_independent_hashes();
    xor_composition_vs_dedicated_unit();
    translation_equivalence();
}

/// Ablation 1: shared-digest slices vs independent row hashes.
fn slice_sharing_vs_independent_hashes() {
    let trace = small_trace();
    let truth = GroundTruth::packet_counts(&trace, KeySpec::SRC_IP);
    let reps = representatives(&trace, KeySpec::SRC_IP);

    let mut rows = Vec::new();
    for &bytes in &[20usize << 10, 60 << 10, 200 << 10] {
        let buckets = (bytes / 2 / 3).max(8);

        // CMU CMS: 3 rows sliced from one 32-bit compressed key.
        let mut fm = FlyMon::new(FlyMonConfig {
            groups: 1,
            buckets_per_cmu: 1 << 17,
            max_partitions_log2: 10,
            ..FlyMonConfig::default()
        });
        let h = fm
            .deploy(
                &TaskDefinition::builder("cms")
                    .key(KeySpec::SRC_IP)
                    .algorithm(Algorithm::Cms { d: 3 })
                    .memory(buckets)
                    .build(),
            )
            .expect("deploys");
        fm.process_batch(&trace);
        let shared = average_relative_error(truth.frequency.iter().map(|(k, &v)| (*k, v)), |k| {
            fm.query_frequency(h, &reps[k]) as f64
        });

        // Software CMS: 3 fully independent hash functions, identical
        // row width (next power of two, matching the CMU rounding).
        let width = buckets.next_power_of_two();
        let mut sw = CountMinSketch::new(3, width);
        for p in &trace {
            sw.update(KeySpec::SRC_IP.extract(p).as_bytes(), 1);
        }
        let independent =
            average_relative_error(truth.frequency.iter().map(|(k, &v)| (*k, v)), |k| {
                sw.query(k.as_bytes()) as f64
            });

        rows.push(vec![
            fmt_bytes(bytes),
            format!("{shared:.4}"),
            format!("{independent:.4}"),
            format!("{:+.1}%", (shared / independent - 1.0) * 100.0),
        ]);
    }
    print_table(
        "Ablation 1: shared-digest bit slices vs independent row hashes (CMS ARE)",
        &["memory", "sliced (CMU)", "independent (sw)", "delta"],
        &rows,
    );
    println!("paper claim (§3.2): the strategy has negligible accuracy impact.\n");
}

/// Ablation 2: XOR-composed IP-pair key vs a dedicated hash unit.
fn xor_composition_vs_dedicated_unit() {
    let trace = small_trace();
    let truth = GroundTruth::packet_counts(&trace, KeySpec::IP_PAIR);
    let reps = representatives(&trace, KeySpec::IP_PAIR);

    let run = |seed_singles: bool| {
        let mut fm = FlyMon::new(FlyMonConfig {
            groups: 1,
            buckets_per_cmu: 1 << 16,
            preconfigure_five_tuple: false,
            ..FlyMonConfig::default()
        });
        if seed_singles {
            // Occupy two units with SrcIP and DstIP (disjoint filters so
            // CMUs stay shareable), forcing the pair task onto XOR.
            for (key, net) in [(KeySpec::SRC_IP, 0x63000000u32), (KeySpec::DST_IP, 0x64000000)] {
                fm.deploy(
                    &TaskDefinition::builder("seed")
                        .key(key)
                        .algorithm(Algorithm::Cms { d: 1 })
                        .filter(flymon_packet::TaskFilter::src(net, 8))
                        .memory(2048)
                        .build(),
                )
                .expect("seed deploys");
            }
        }
        let h = fm
            .deploy(
                &TaskDefinition::builder("pair")
                    .key(KeySpec::IP_PAIR)
                    .algorithm(Algorithm::Cms { d: 1 })
                    .memory(16384)
                    .build(),
            )
            .expect("pair deploys");
        let masks = fm.task(h).unwrap().install.hash_mask_rules;
        fm.process_batch(&trace);
        let are = average_relative_error(truth.frequency.iter().map(|(k, &v)| (*k, v)), |k| {
            fm.query_frequency(h, &reps[k]) as f64
        });
        (are, masks)
    };

    let (dedicated, masks_dedicated) = run(false);
    let (xored, masks_xored) = run(true);
    print_table(
        "Ablation 2: IP-pair key via XOR composition vs dedicated hash unit (CMS d=1 ARE)",
        &["variant", "ARE", "new hash masks"],
        &[
            vec![
                "dedicated unit".into(),
                format!("{dedicated:.4}"),
                masks_dedicated.to_string(),
            ],
            vec![
                "XOR of C(SrcIP)⊕C(DstIP)".into(),
                format!("{xored:.4}"),
                masks_xored.to_string(),
            ],
        ],
    );
    println!(
        "XOR composition saves the hash-mask install (and a hash unit)\n\
         while keeping accuracy in the same range (§3.1.1).\n"
    );
}

/// Ablation 3: the two translation mechanisms are semantically identical
/// and differ only in resources.
fn translation_equivalence() {
    let m = 65536;
    let mut mismatches = 0u32;
    for p in 0u8..=5 {
        for idx in 0..(1u32 << p) {
            let shift = AddrTranslation::new(p, idx, TranslationMethod::ShiftBased);
            let tcam = AddrTranslation::new(p, idx, TranslationMethod::TcamBased);
            for addr in (0..m as u32).step_by(997) {
                if shift.translate(addr, m) != tcam.translate(addr, m) {
                    mismatches += 1;
                }
            }
        }
    }
    let model = flymon_rmt::resources::TofinoModel::default();
    print_table(
        "Ablation 3: shift-based vs TCAM-based address translation",
        &["partitions", "semantic mismatches", "TCAM (frac/stage)", "PHV (bits)"],
        &[8usize, 32, 64]
            .iter()
            .map(|&k| {
                vec![
                    k.to_string(),
                    mismatches.to_string(),
                    format!("{:.3}", fig11_tcam_usage(k, model.tcam_slots_per_stage)),
                    fig11_shift_phv_bits(k).to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "both mechanisms compute the same sub-range mapping; operators pick\n\
         by which resource (TCAM vs PHV/stages) is spare (§3.3)."
    );
}
