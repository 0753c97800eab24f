//! Messages and envelopes.
//!
//! The engine moves [`Envelope`]s: a destination, a payload, and a
//! **multiplicity** — how many wire-level messages the envelope stands
//! for. Multiplicity lets the tasks run in aggregated form (e.g. BPPR
//! moves *counts* of random walks rather than individual walks, which is
//! distributionally identical — see `mtvc-tasks::bppr`) while the cost
//! accounting still charges a non-combining system for every individual
//! wire message, exactly as the paper's Pregel+ implementation pays.

use mtvc_graph::VertexId;

/// Payload trait. Combinable payloads expose a key: the sender folds
/// envelopes with equal `(destination, key)` into one. Whether a fold
/// is *charged* is the system profile's `combiner` flag
/// (GraphLab(sync)-style); whether it *happens* on the host is that
/// flag or [`Message::EXACT_MERGE`]. Payloads own their data
/// (`'static`), so a run's message buffers can outlive it and serve
/// the next batch.
pub trait Message: Clone + Send + Sync + 'static {
    /// Whether [`Message::merge`] is exact: a receiver handed the merged
    /// envelope ends in the same state, and sends in the same order, as
    /// one handed both — a min or an OR, whose merged value is all a
    /// receiver ever acts on. The router then folds
    /// such payloads at the sender on *every* profile, so the round
    /// buffers hold one entry per `(destination, key)`; a non-combining
    /// profile is still charged every envelope it sent, so no simulated
    /// statistic moves, only host copies. Payloads whose merge sums or
    /// reorders (float sums, RNG draws per delivery) keep the default
    /// `false` and fold only under a combiner.
    const EXACT_MERGE: bool = false;

    /// Combining key within a destination vertex; `None` disables
    /// combining for this payload entirely. Envelopes with equal
    /// `(destination, key)` from one source worker fold physically
    /// whenever the round folds (a combiner, or an exact payload on any
    /// profile); the profile's `combiner` flag only prices the fold.
    fn combine_key(&self) -> Option<u64>;

    /// Merge `other` into `self`. Only called for equal
    /// `(destination, combine_key)`; multiplicities are summed by the
    /// engine separately.
    fn merge(&mut self, other: &Self);

    /// Query/group id carried by the wire codec's run-length stream
    /// (`engine::wire`) instead of inside each payload. Payloads
    /// without a natural grouping id return `None` and ride a one-byte
    /// flag per run.
    fn wire_query(&self) -> Option<u64> {
        None
    }

    /// Payload units (tuples) this envelope delivers — the unit the
    /// router's traffic accounting counts: after the fold under a
    /// combiner, per sent envelope without one. A lane-batched
    /// payload standing for several scalar messages returns its live
    /// lane count, so the cost model sees the scalar kernel's traffic.
    fn units(&self) -> u64 {
        1
    }
}

/// Unit payload for tests and simple notifications.
impl Message for () {
    fn combine_key(&self) -> Option<u64> {
        None
    }
    fn merge(&mut self, _other: &Self) {}
}

/// A routed message.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope<M> {
    pub dest: VertexId,
    pub msg: M,
    /// Number of wire messages this envelope represents (≥ 1).
    pub mult: u64,
}

impl<M> Envelope<M> {
    pub fn new(dest: VertexId, msg: M, mult: u64) -> Self {
        debug_assert!(mult >= 1, "envelope multiplicity must be >= 1");
        Envelope { dest, msg, mult }
    }
}

/// One delivered message run entry: the payload plus the wire
/// multiplicity it stands for. This is what [`SlabProgram::compute`]
/// receives — the routing merge stage moves each envelope's payload
/// into a grouped delivery buffer exactly once, so the compute phase
/// never clones a message.
///
/// [`SlabProgram::compute`]: crate::slab::SlabProgram::compute
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery<M> {
    pub msg: M,
    /// Number of wire messages this delivery represents (≥ 1).
    pub mult: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Walk {
        source: u32,
    }

    impl Message for Walk {
        fn combine_key(&self) -> Option<u64> {
            Some(self.source as u64)
        }
        fn merge(&mut self, _other: &Self) {}
    }

    #[test]
    fn unit_message_never_combines() {
        assert_eq!(().combine_key(), None);
    }

    #[test]
    fn delivery_preserves_payload_and_multiplicity() {
        let d = Delivery {
            msg: Walk { source: 7 },
            mult: 4,
        };
        assert_eq!(d.msg.combine_key(), Some(7));
        assert_eq!(d.mult, 4);
    }

    #[test]
    fn envelope_carries_multiplicity() {
        let e = Envelope::new(3, Walk { source: 7 }, 12);
        assert_eq!(e.dest, 3);
        assert_eq!(e.mult, 12);
        assert_eq!(e.msg.combine_key(), Some(7));
    }

    #[test]
    #[should_panic(expected = "multiplicity")]
    #[cfg(debug_assertions)]
    fn zero_multiplicity_rejected() {
        let _ = Envelope::new(0, (), 0);
    }
}
