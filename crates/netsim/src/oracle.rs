//! The fleet's per-packet reference, which [`SwitchFleet::process_trace`]
//! is held bit-identical to: one packet at an ingress the caller names,
//! run by [`flymon::oracle::PerPacket`] on the switch its failover route
//! lands on. Like [`flymon::oracle`], a test oracle, not an API: CI greps
//! that the fleet, the streaming runtime, the CLI, the figure binaries
//! and the examples do not name it.

use flymon::oracle::PerPacket;
use flymon_packet::Packet;

use crate::fleet::SwitchFleet;

/// The per-packet entry point of a [`SwitchFleet`].
pub trait PerPacketFleet {
    /// Feeds a packet to the switch at `ingress`, or to the next alive
    /// switch if that one is dead; drops it if none is alive.
    ///
    /// # Panics
    /// Panics if `ingress` is out of range on a non-empty fleet.
    fn process(&mut self, ingress: usize, pkt: &Packet);
}

impl PerPacketFleet for SwitchFleet {
    fn process(&mut self, ingress: usize, pkt: &Packet) {
        if let Some(switch) = self.route_one(ingress) {
            PerPacket::process(switch, pkt);
        }
    }
}
