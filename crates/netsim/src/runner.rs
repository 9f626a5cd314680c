//! Epoch-driven measurement: the standard read-out-and-reset loop.
//!
//! Sketch systems measure in epochs (§5.1): the control plane reads the
//! data plane at each boundary and clears it for the next window. This
//! module packages that loop so experiments and applications don't
//! re-implement it: feed a time-sorted trace, get a callback per epoch
//! *before* the tasks are reset.

use flymon::prelude::*;
use flymon::FlymonError;
use flymon_packet::Packet;
use flymon_traffic::split_epochs;

/// Runs `trace` through `switch` in epochs of `epoch_ns`, invoking
/// `on_epoch(index, epoch_packets, switch)` after each epoch's traffic
/// and resetting every handle in `tasks` afterwards.
///
/// Returns the number of epochs processed.
///
/// # Errors
/// Propagates readout/reset errors (e.g. a stale handle).
pub fn run_epochs<F>(
    switch: &mut FlyMon,
    trace: &[Packet],
    epoch_ns: u64,
    tasks: &[TaskHandle],
    mut on_epoch: F,
) -> Result<usize, FlymonError>
where
    F: FnMut(usize, &[Packet], &FlyMon),
{
    let epochs = split_epochs(trace, epoch_ns);
    for (i, epoch) in epochs.iter().enumerate() {
        switch.process_batch(epoch);
        on_epoch(i, epoch, switch);
        for &h in tasks {
            switch.reset_task(h)?;
        }
    }
    Ok(epochs.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flymon_packet::{KeySpec, PacketBuilder};

    #[test]
    fn per_epoch_readouts_are_isolated() {
        let mut fm = FlyMon::new(FlyMonConfig {
            groups: 1,
            buckets_per_cmu: 1024,
            ..FlyMonConfig::default()
        });
        let h = fm
            .deploy(
                &TaskDefinition::builder("t")
                    .key(KeySpec::SRC_IP)
                    .attribute(Attribute::frequency_packets())
                    .algorithm(Algorithm::Cms { d: 1 })
                    .memory(256)
                    .build(),
            )
            .unwrap();

        // Epoch i (10 µs each) carries i+1 packets of one flow.
        let mut trace = Vec::new();
        for e in 0u64..5 {
            for k in 0..=e {
                trace.push(
                    PacketBuilder::new()
                        .src_ip(7)
                        .ts_ns(e * 10_000 + k)
                        .build(),
                );
            }
        }
        let probe = flymon_packet::Packet::tcp(7, 0, 0, 0);
        let mut seen = Vec::new();
        let n = run_epochs(&mut fm, &trace, 10_000, &[h], |i, epoch, fm| {
            assert_eq!(epoch.len(), i + 1);
            seen.push(fm.query_frequency(h, &probe));
        })
        .unwrap();
        assert_eq!(n, 5);
        // Each epoch's readout reflects only that epoch (reset works).
        assert_eq!(seen, vec![1, 2, 3, 4, 5]);
        // After the loop the task is clean for the next period.
        assert_eq!(fm.query_frequency(h, &probe), 0);
    }

    #[test]
    fn empty_trace_runs_zero_epochs() {
        let mut fm = FlyMon::new(FlyMonConfig {
            groups: 1,
            buckets_per_cmu: 1024,
            ..FlyMonConfig::default()
        });
        let n = run_epochs(&mut fm, &[], 1_000, &[], |_, _, _| panic!("no epochs"))
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn stale_handles_surface_errors() {
        let mut fm = FlyMon::new(FlyMonConfig {
            groups: 1,
            buckets_per_cmu: 1024,
            ..FlyMonConfig::default()
        });
        let h = fm
            .deploy(
                &TaskDefinition::builder("t")
                    .key(KeySpec::SRC_IP)
                    .attribute(Attribute::frequency_packets())
                    .algorithm(Algorithm::Cms { d: 1 })
                    .memory(256)
                    .build(),
            )
            .unwrap();
        fm.remove(h).unwrap();
        let trace = vec![PacketBuilder::new().src_ip(1).build()];
        assert!(run_epochs(&mut fm, &trace, 1_000, &[h], |_, _, _| {}).is_err());
    }
}
