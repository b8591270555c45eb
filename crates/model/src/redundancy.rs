//! Per-video redundancy schemes: full replication vs erasure coding.
//!
//! The paper prices every extra nine of availability at a full copy: a
//! video's redundancy *is* its replica count, and the Eq. (4) storage
//! budget charges `r_i · size_i` bytes. A Reed-Solomon `(k, m)` code
//! stores the same video as `k + m` fragments of `⌈size_i / k⌉` bytes
//! each (k data + m parity), any `k` of which reconstruct the video —
//! so it survives `m` server losses at a storage cost of only
//! `(k + m) / k` instead of `m + 1`. The price is paid elsewhere:
//! serving needs `k` live fragment holders (each contributing a
//! `bitrate / k` bandwidth share, so one lost holder means a *degraded
//! read* with higher fan-in rather than stream death), and repairing a
//! lost fragment reads `k` surviving fragments — the k× repair-read
//! amplification this module's schemes let the simulator quantify.

use crate::error::ModelError;
use crate::ids::VideoId;
use serde::{Deserialize, Serialize};

/// How one video's bytes are made redundant across servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RedundancyScheme {
    /// `r` full copies on `r` distinct servers — the paper's model.
    Replicated {
        /// Replica count `r_i` (constraint (7): `1 ≤ r ≤ N`).
        r: u32,
    },
    /// A systematic Reed-Solomon stripe: `k` data + `m` parity
    /// fragments of `⌈size / k⌉` bytes on `k + m` distinct servers.
    /// Any `k` fragments serve or rebuild the video; losing more than
    /// `m` makes it unavailable. `m = 0` is plain striping: every
    /// fragment is needed and no loss is tolerated (`k = N, m = 0` is
    /// the wide-striping architecture the paper argues against).
    Coded {
        /// Data fragments required to serve (`k ≥ 1`).
        k: u32,
        /// Parity fragments, i.e. tolerated losses (`m ≥ 0`).
        m: u32,
    },
}

impl RedundancyScheme {
    /// Servers this scheme occupies: `r`, or `k + m`.
    #[inline]
    pub fn holders(&self) -> u32 {
        match *self {
            RedundancyScheme::Replicated { r } => r,
            RedundancyScheme::Coded { k, m } => k + m,
        }
    }

    /// Live holders needed to serve: 1 full copy, or `k` fragments.
    #[inline]
    pub fn min_live(&self) -> u32 {
        match *self {
            RedundancyScheme::Replicated { .. } => 1,
            RedundancyScheme::Coded { k, .. } => k,
        }
    }

    /// Whether this is a coded stripe.
    #[inline]
    pub fn is_coded(&self) -> bool {
        matches!(self, RedundancyScheme::Coded { .. })
    }

    /// Bytes one holder stores: the full video, or one fragment
    /// (`⌈bytes / k⌉` — fragments pad the last stripe).
    #[inline]
    pub fn stored_bytes(&self, video_bytes: u64) -> u64 {
        match *self {
            RedundancyScheme::Replicated { .. } => video_bytes,
            RedundancyScheme::Coded { k, .. } => video_bytes.div_ceil(k as u64),
        }
    }

    /// Outgoing kbps one serving holder contributes: the full bit rate,
    /// or a `⌈kbps / k⌉` fragment share.
    #[inline]
    pub fn share_kbps(&self, kbps: u64) -> u64 {
        match *self {
            RedundancyScheme::Replicated { .. } => kbps,
            RedundancyScheme::Coded { k, .. } => kbps.div_ceil(k as u64),
        }
    }

    /// Total bytes stored across all holders, relative to one copy:
    /// `r`, or `(k + m) / k`.
    pub fn storage_factor(&self) -> f64 {
        match *self {
            RedundancyScheme::Replicated { r } => r as f64,
            RedundancyScheme::Coded { k, m } => (k + m) as f64 / k as f64,
        }
    }

    /// Degenerate-parameter validation against a cluster of `n_servers`:
    /// `1 ≤ holders ≤ N`, and for coded stripes `k ≥ 1` (`m = 0` is a
    /// valid stripe without parity).
    pub fn validate(&self, n_servers: usize) -> Result<(), ModelError> {
        match *self {
            RedundancyScheme::Replicated { r } => {
                if r == 0 || r as usize > n_servers {
                    return Err(ModelError::InvalidParameter {
                        name: "redundancy r",
                        value: r as f64,
                    });
                }
            }
            RedundancyScheme::Coded { k, m } => {
                if k == 0 {
                    return Err(ModelError::InvalidParameter {
                        name: "coded k",
                        value: 0.0,
                    });
                }
                if (k + m) as usize > n_servers {
                    return Err(ModelError::InvalidParameter {
                        name: "coded k+m exceeds servers",
                        value: (k + m) as f64,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Per-video redundancy schemes, indexed by [`VideoId`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RedundancyMap {
    schemes: Vec<RedundancyScheme>,
}

impl RedundancyMap {
    /// A map from explicit per-video schemes.
    pub fn new(schemes: Vec<RedundancyScheme>) -> Result<Self, ModelError> {
        if schemes.is_empty() {
            return Err(ModelError::Empty);
        }
        Ok(RedundancyMap { schemes })
    }

    /// Every video under the same scheme.
    pub fn uniform(n_videos: usize, scheme: RedundancyScheme) -> Result<Self, ModelError> {
        Self::new(vec![scheme; n_videos])
    }

    /// Number of videos `M`.
    #[inline]
    pub fn len(&self) -> usize {
        self.schemes.len()
    }

    /// Always false: construction rejects empty maps.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.schemes.is_empty()
    }

    /// The scheme of one video.
    #[inline]
    pub fn get(&self, v: VideoId) -> RedundancyScheme {
        self.schemes[v.index()]
    }

    /// All schemes, indexed by video.
    #[inline]
    pub fn schemes(&self) -> &[RedundancyScheme] {
        &self.schemes
    }

    /// Whether any video uses a coded stripe. All-`Replicated` maps are
    /// semantically identical to no map at all, and the simulator keeps
    /// them on the exact replica code path (byte-identical reports).
    pub fn any_coded(&self) -> bool {
        self.schemes.iter().any(|s| s.is_coded())
    }

    /// Validates every scheme against the cluster size.
    pub fn validate(&self, n_servers: usize) -> Result<(), ModelError> {
        for s in &self.schemes {
            s.validate(n_servers)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C32: RedundancyScheme = RedundancyScheme::Coded { k: 3, m: 2 };

    #[test]
    fn holder_and_share_arithmetic() {
        let r = RedundancyScheme::Replicated { r: 3 };
        assert_eq!((r.holders(), r.min_live()), (3, 1));
        assert_eq!(r.stored_bytes(2_700_000_000), 2_700_000_000);
        assert_eq!(r.share_kbps(4_000), 4_000);
        assert!((r.storage_factor() - 3.0).abs() < 1e-12);

        assert_eq!((C32.holders(), C32.min_live()), (5, 3));
        // Fragments round up: 10 bytes over k=3 -> 4-byte fragments.
        assert_eq!(C32.stored_bytes(10), 4);
        assert_eq!(C32.share_kbps(4_000), 1_334);
        assert!((C32.storage_factor() - 5.0 / 3.0).abs() < 1e-12);
        assert!(C32.is_coded() && !r.is_coded());
    }

    #[test]
    fn validation_rejects_degenerate_parameters() {
        assert!(RedundancyScheme::Replicated { r: 0 }.validate(8).is_err());
        assert!(RedundancyScheme::Replicated { r: 9 }.validate(8).is_err());
        assert!(RedundancyScheme::Coded { k: 0, m: 1 }.validate(8).is_err());
        // m = 0 is plain striping: valid, it just tolerates no loss.
        assert!(RedundancyScheme::Coded { k: 4, m: 0 }.validate(8).is_ok());
        assert!(RedundancyScheme::Coded { k: 8, m: 0 }.validate(8).is_ok());
        assert!(RedundancyScheme::Coded { k: 6, m: 3 }.validate(8).is_err());
        assert!(C32.validate(5).is_ok());
        assert!(C32.validate(4).is_err());
    }

    #[test]
    fn map_accessors_and_any_coded() {
        let all_rep = RedundancyMap::uniform(3, RedundancyScheme::Replicated { r: 2 }).unwrap();
        assert!(!all_rep.any_coded());
        assert_eq!(all_rep.len(), 3);
        let mixed = RedundancyMap::new(vec![RedundancyScheme::Replicated { r: 1 }, C32]).unwrap();
        assert!(mixed.any_coded());
        assert_eq!(mixed.get(VideoId(1)), C32);
        assert!(mixed.validate(5).is_ok());
        assert!(mixed.validate(4).is_err());
    }

    #[test]
    fn empty_map_rejected() {
        assert_eq!(RedundancyMap::new(vec![]), Err(ModelError::Empty));
    }

    #[test]
    fn serde_roundtrip() {
        let map = RedundancyMap::new(vec![RedundancyScheme::Replicated { r: 2 }, C32]).unwrap();
        let json = serde_json::to_string(&map).unwrap();
        let back: RedundancyMap = serde_json::from_str(&json).unwrap();
        assert_eq!(map, back);
    }
}
