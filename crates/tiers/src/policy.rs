//! The seeded up/down-tier decision seam.

use crate::spec::{TierId, TierStackSpec};
use simkit::json::{self, FromJson, Reader};
use simkit::Rng;

/// Which tiering policy a run uses. Read from scenario files as part of
/// `SimConfig`, so the variants are part of the experiment-config
/// surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TierPolicyKind {
    /// The DYRS reference-list baseline: memory is the only migration
    /// destination; pressure evictions demote one tier down when it has
    /// room; nothing is promoted on read (a block only returns to memory
    /// via a fresh migration request).
    #[default]
    Baseline,
    /// Hotness-driven tiering (after Herodotou & Kakoulli): every buffer
    /// tier is a candidate migration destination, and a read served from
    /// a middle tier promotes the block back into memory when it fits.
    Hotness,
}

impl FromJson for TierPolicyKind {
    fn read(r: &mut Reader<'_>) -> Result<Self, json::Error> {
        r.unit_variant(&[
            ("Baseline", TierPolicyKind::Baseline),
            ("Hotness", TierPolicyKind::Hotness),
        ])
    }
}

/// Up/down-tier decision maker. Owns a derived RNG stream so a future
/// stochastic policy (probabilistic admission, sampled LRU) can draw
/// randomness without perturbing any other consumer; the two shipped
/// policies are deterministic and leave the stream untouched.
#[derive(Debug, Clone)]
pub struct TierPolicy {
    kind: TierPolicyKind,
    #[allow(dead_code)]
    rng: Rng,
}

impl TierPolicy {
    /// A policy of the given kind with its own seeded stream.
    pub fn new(kind: TierPolicyKind, rng: Rng) -> Self {
        TierPolicy { kind, rng }
    }

    /// The policy kind.
    pub fn kind(&self) -> TierPolicyKind {
        self.kind
    }

    /// Candidate migration destination tiers for a node with `stack`, as
    /// `(tier, write_factor)` pairs in ascending tier order. Algorithm 1
    /// scores each pair and ties break toward the lower (faster) tier.
    pub fn dest_tiers(&self, stack: &TierStackSpec) -> Vec<(TierId, f64)> {
        match self.kind {
            TierPolicyKind::Baseline => vec![(TierId::MEM, stack.write_factor(TierId::MEM))],
            TierPolicyKind::Hotness => (0..stack.num_buffer_tiers() as u8)
                .map(|t| (TierId(t), stack.write_factor(TierId(t))))
                .collect(),
        }
    }

    /// Whether a pressure eviction should try to demote the copy down the
    /// stack instead of dropping it. Both shipped policies demote — on the
    /// legacy 2-tier stack there is no tier below memory, so this never
    /// fires and the 2-tier run stays bit-identical to the old code.
    pub fn demote_on_pressure(&mut self) -> bool {
        true
    }

    /// Whether a read served out of a middle tier should promote the
    /// block back into memory.
    pub fn promote_on_read(&mut self) -> bool {
        match self.kind {
            TierPolicyKind::Baseline => false,
            TierPolicyKind::Hotness => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: u64 = 1 << 30;
    const MIB_F: f64 = (1u64 << 20) as f64;

    fn stack() -> TierStackSpec {
        TierStackSpec::three_tier(96 * GIB, 8192.0 * MIB_F, 140.0 * MIB_F, 0.02)
    }

    #[test]
    fn baseline_targets_memory_only() {
        let p = TierPolicy::new(TierPolicyKind::Baseline, Rng::new(1));
        let dests = p.dest_tiers(&stack());
        assert_eq!(dests, vec![(TierId::MEM, 1.0)]);
    }

    #[test]
    fn hotness_enumerates_every_buffer_tier() {
        let p = TierPolicy::new(TierPolicyKind::Hotness, Rng::new(1));
        let dests = p.dest_tiers(&stack());
        assert_eq!(dests.len(), 2);
        assert_eq!(dests[0].0, TierId(0));
        assert_eq!(dests[1].0, TierId(1));
        assert!(dests.iter().all(|&(_, f)| f >= 1.0));
    }

    #[test]
    fn promote_on_read_is_policy_gated() {
        let mut base = TierPolicy::new(TierPolicyKind::Baseline, Rng::new(1));
        let mut hot = TierPolicy::new(TierPolicyKind::Hotness, Rng::new(1));
        assert!(!base.promote_on_read());
        assert!(hot.promote_on_read());
        assert!(base.demote_on_pressure());
        assert!(hot.demote_on_pressure());
    }
}
