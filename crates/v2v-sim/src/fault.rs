//! Channel fault model for the broadcast medium: bursty loss, duplication,
//! reordering, payload damage and latency jitter.
//!
//! The original [`crate::link::V2vLink`] knew a single i.i.d. `loss`
//! probability — an idealisation that real DSRC measurements contradict:
//! 802.11p loss is *bursty* (shadowing by passing trucks, deep urban
//! fades), packets arrive duplicated and out of order, and damaged frames
//! occasionally survive the CRC. [`FaultConfig`] models all of that with a
//! classic **Gilbert–Elliott** two-state channel (a Good/Bad Markov chain
//! with per-state loss rates) plus independent duplication, reordering,
//! truncation, bit-corruption and jitter knobs.
//!
//! Every draw is deterministic in the link seed, the message sequence
//! number and the receiver id, so a faulty scenario replays bit-for-bit.

use serde::{Deserialize, Serialize};

/// Fault parameters of a [`crate::link::V2vLink`].
///
/// All probabilities are per `(message, receiver)` pair and must lie in
/// `[0, 1]`. The default is the ideal channel (no faults at all), so
/// `FaultConfig { corrupt: 0.01, ..FaultConfig::default() }` switches on
/// exactly one impairment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Gilbert–Elliott transition probability Good → Bad, applied once per
    /// received message.
    pub p_good_to_bad: f64,
    /// Gilbert–Elliott transition probability Bad → Good.
    pub p_bad_to_good: f64,
    /// Loss probability while the channel is in the Good state.
    pub loss_good: f64,
    /// Loss probability while the channel is in the Bad state (the burst).
    pub loss_bad: f64,
    /// Probability that a delivered message arrives twice (the duplicate
    /// gets its own jitter draw).
    pub duplicate: f64,
    /// Probability that a delivered message is held back by
    /// [`FaultConfig::reorder_delay_s`], so later messages overtake it
    /// under time-aware delivery ([`crate::link::Endpoint::poll_until`]).
    pub reorder: f64,
    /// Extra latency added to held-back (reordered) messages, seconds.
    pub reorder_delay_s: f64,
    /// Probability that the payload arrives truncated at a random offset.
    pub truncate: f64,
    /// Probability that the payload arrives with flipped bits.
    pub corrupt: f64,
    /// Bits flipped in a corrupted payload (at random positions).
    pub corrupt_bits: usize,
    /// Uniform extra latency in `[0, jitter_s)` added to every delivery.
    pub jitter_s: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            p_good_to_bad: 0.0,
            p_bad_to_good: 1.0,
            loss_good: 0.0,
            loss_bad: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            reorder_delay_s: 0.05,
            truncate: 0.0,
            corrupt: 0.0,
            corrupt_bits: 8,
            jitter_s: 0.0,
        }
    }
}

impl FaultConfig {
    /// The ideal channel: nothing is ever lost, damaged or delayed.
    pub fn ideal() -> Self {
        Self::default()
    }

    /// Uniform i.i.d. loss with probability `p`, expressed as a degenerate
    /// Gilbert–Elliott chain (both states lose at the same rate).
    pub fn iid_loss(p: f64) -> Self {
        let p = p.clamp(0.0, 1.0);
        Self {
            loss_good: p,
            loss_bad: p,
            ..Self::default()
        }
    }

    /// A bursty channel: mostly clean in the Good state, losing `loss_bad`
    /// of packets during bursts entered with probability `p_good_to_bad`
    /// and left with probability `p_bad_to_good`.
    pub fn bursty(p_good_to_bad: f64, p_bad_to_good: f64, loss_bad: f64) -> Self {
        Self {
            p_good_to_bad,
            p_bad_to_good,
            loss_good: 0.0,
            loss_bad,
            ..Self::default()
        }
    }

    /// Long-run fraction of time the Gilbert–Elliott chain spends in the
    /// Bad state.
    pub fn stationary_bad(&self) -> f64 {
        let denom = self.p_good_to_bad + self.p_bad_to_good;
        if denom <= 0.0 {
            0.0
        } else {
            self.p_good_to_bad / denom
        }
    }

    /// Long-run expected loss rate of the chain (stationary mixture of the
    /// two per-state loss rates).
    pub fn expected_loss(&self) -> f64 {
        let bad = self.stationary_bad();
        (1.0 - bad) * self.loss_good + bad * self.loss_bad
    }

    /// Validates the configuration; returns a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        let probs = [
            ("p_good_to_bad", self.p_good_to_bad),
            ("p_bad_to_good", self.p_bad_to_good),
            ("loss_good", self.loss_good),
            ("loss_bad", self.loss_bad),
            ("duplicate", self.duplicate),
            ("reorder", self.reorder),
            ("truncate", self.truncate),
            ("corrupt", self.corrupt),
        ];
        for (name, p) in probs {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must lie in [0, 1], got {p}"));
            }
        }
        for (name, s) in [
            ("reorder_delay_s", self.reorder_delay_s),
            ("jitter_s", self.jitter_s),
        ] {
            if !s.is_finite() || s < 0.0 {
                return Err(format!("{name} must be finite and non-negative, got {s}"));
            }
        }
        if self.corrupt > 0.0 && self.corrupt_bits == 0 {
            return Err("corrupt_bits must be positive when corrupt > 0".into());
        }
        Ok(())
    }
}

/// Per-receiver Gilbert–Elliott channel state.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ChannelState {
    /// True while the chain sits in the Bad (burst) state.
    pub(crate) bad: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_ideal() {
        let f = FaultConfig::default();
        assert_eq!(f.expected_loss(), 0.0);
        assert_eq!(f.stationary_bad(), 0.0);
        assert!(f.validate().is_ok());
    }

    #[test]
    fn iid_loss_matches_both_states() {
        let f = FaultConfig::iid_loss(0.25);
        assert_eq!(f.loss_good, 0.25);
        assert_eq!(f.loss_bad, 0.25);
        assert!((f.expected_loss() - 0.25).abs() < 1e-12);
        // Out-of-range inputs clamp rather than building an invalid config.
        assert_eq!(FaultConfig::iid_loss(7.0).loss_good, 1.0);
    }

    #[test]
    fn stationary_arithmetic() {
        let f = FaultConfig::bursty(0.1, 0.3, 0.8);
        assert!((f.stationary_bad() - 0.25).abs() < 1e-12);
        assert!((f.expected_loss() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn validation_catches_bad_knobs() {
        let bad = FaultConfig {
            corrupt: 1.5,
            ..FaultConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = FaultConfig {
            jitter_s: f64::NAN,
            ..FaultConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = FaultConfig {
            corrupt: 0.5,
            corrupt_bits: 0,
            ..FaultConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = FaultConfig {
            reorder_delay_s: -1.0,
            ..FaultConfig::default()
        };
        assert!(bad.validate().is_err());
    }
}
