//! Admission policies.
//!
//! The paper's setting: "By the use of a static round robin scheduling
//! policy" requests for a video rotate over its replicas, and "a request
//! was rejected if required communication bandwidth was unavailable"
//! (Sec. 5). That strict policy is [`AdmissionPolicy::StaticRoundRobin`],
//! the default everywhere the paper's figures are reproduced.
//!
//! Three more policies support the ablation study (A-1 in DESIGN.md):
//!
//! * [`AdmissionPolicy::RoundRobinFailover`] — rotate, but try every
//!   replica before rejecting;
//! * [`AdmissionPolicy::LeastLoadedReplica`] — always pick the replica
//!   server with the most free outgoing bandwidth (dynamic dispatch);
//! * [`AdmissionPolicy::BackboneRedirect`] — the request-redirection
//!   strategy of the authors' follow-up work \[19\]: when the scheduled
//!   replica's link is full, any server with spare outgoing bandwidth may
//!   proxy the stream, fetching the content from a replica holder over the
//!   cluster's internal backbone (a shared bandwidth pool).

use crate::server::LinkState;
use serde::{Deserialize, Serialize};
use vod_model::{ServerId, VideoId};

/// How the dispatcher maps an arriving request to a serving server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum AdmissionPolicy {
    /// The paper's policy: the request goes to the next replica in
    /// round-robin order; if that server's link is full, reject.
    #[default]
    StaticRoundRobin,
    /// Round-robin start, but probe all replicas before rejecting.
    RoundRobinFailover,
    /// Serve from the replica server with the most free outgoing
    /// bandwidth; reject only if none fits.
    LeastLoadedReplica,
    /// Strict round-robin first; on failure, redirect through the least
    /// loaded server with link headroom, charging the shared backbone
    /// `backbone_kbps` of capacity per redirected stream.
    BackboneRedirect {
        /// Total internal backbone capacity, in kbps.
        backbone_capacity_kbps: u64,
    },
}

/// The dispatcher's routing outcome for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Serve from `server`; `backbone_kbps` > 0 marks a redirected stream.
    Admit {
        /// The server whose outgoing link carries the stream.
        server: ServerId,
        /// Backbone bandwidth consumed (0 for direct service).
        backbone_kbps: u64,
    },
    /// No eligible server had capacity.
    Reject,
}

/// Stateful request router: holds the per-video round-robin pointers and
/// the backbone occupancy.
#[derive(Debug, Clone)]
pub struct Dispatcher {
    policy: AdmissionPolicy,
    rr_next: Vec<u32>,
    backbone_used_kbps: u64,
    probes: u64,
}

impl Dispatcher {
    /// A dispatcher for `n_videos` videos under `policy`.
    pub fn new(policy: AdmissionPolicy, n_videos: usize) -> Self {
        Dispatcher {
            policy,
            rr_next: vec![0; n_videos],
            backbone_used_kbps: 0,
            probes: 0,
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> AdmissionPolicy {
        self.policy
    }

    /// Current backbone occupancy in kbps (only moves under
    /// [`AdmissionPolicy::BackboneRedirect`]).
    pub fn backbone_used_kbps(&self) -> u64 {
        self.backbone_used_kbps
    }

    /// Total admission-scan iterations (`can_admit` checks) performed
    /// over this dispatcher's lifetime — the policy's scan cost.
    pub fn admission_probes(&self) -> u64 {
        self.probes
    }

    /// Advances the video's round-robin pointer and returns the scheduled
    /// replica position.
    fn rr_advance(&mut self, video: VideoId, n_replicas: usize) -> usize {
        let slot = &mut self.rr_next[video.index()];
        let pos = *slot as usize % n_replicas;
        *slot = (*slot).wrapping_add(1);
        pos
    }

    /// Routes one request for `video` at `kbps` over its current
    /// `replicas` (in round-robin order — the layout's list, possibly
    /// extended by mid-run repair). Does **not** mutate link state; the
    /// engine applies the returned decision (and must call
    /// [`Self::release_backbone`] when a redirected stream ends).
    pub fn dispatch(
        &mut self,
        video: VideoId,
        kbps: u64,
        replicas: &[ServerId],
        links: &LinkState,
    ) -> Decision {
        debug_assert!(!replicas.is_empty());

        match self.policy {
            AdmissionPolicy::StaticRoundRobin => {
                let pos = self.rr_advance(video, replicas.len());
                let server = replicas[pos];
                self.probes += 1;
                if links.can_admit(server, kbps) {
                    Decision::Admit {
                        server,
                        backbone_kbps: 0,
                    }
                } else {
                    Decision::Reject
                }
            }
            AdmissionPolicy::RoundRobinFailover => {
                let start = self.rr_advance(video, replicas.len());
                for probe in 0..replicas.len() {
                    let server = replicas[(start + probe) % replicas.len()];
                    self.probes += 1;
                    if links.can_admit(server, kbps) {
                        return Decision::Admit {
                            server,
                            backbone_kbps: 0,
                        };
                    }
                }
                Decision::Reject
            }
            AdmissionPolicy::LeastLoadedReplica => {
                self.probes += replicas.len() as u64;
                let best = replicas
                    .iter()
                    .copied()
                    .filter(|&s| links.can_admit(s, kbps))
                    .max_by_key(|&s| (links.free_kbps(s), std::cmp::Reverse(s)));
                match best {
                    Some(server) => Decision::Admit {
                        server,
                        backbone_kbps: 0,
                    },
                    None => Decision::Reject,
                }
            }
            AdmissionPolicy::BackboneRedirect {
                backbone_capacity_kbps,
            } => {
                let pos = self.rr_advance(video, replicas.len());
                let scheduled = replicas[pos];
                self.probes += 1;
                if links.can_admit(scheduled, kbps) {
                    return Decision::Admit {
                        server: scheduled,
                        backbone_kbps: 0,
                    };
                }
                // Redirect: any server with link headroom can proxy,
                // fetching over the backbone; prefer the most free link.
                if self.backbone_used_kbps + kbps <= backbone_capacity_kbps {
                    self.probes += links.len() as u64;
                    let proxy = (0..links.len())
                        .map(|j| ServerId(j as u32))
                        .filter(|&s| links.can_admit(s, kbps))
                        .max_by_key(|&s| (links.free_kbps(s), std::cmp::Reverse(s)));
                    if let Some(server) = proxy {
                        self.backbone_used_kbps += kbps;
                        return Decision::Admit {
                            server,
                            backbone_kbps: kbps,
                        };
                    }
                }
                Decision::Reject
            }
        }
    }

    /// Returns backbone bandwidth when a redirected stream completes.
    /// Saturating in release builds: an over-release is a bug (the debug
    /// assertion and the runtime auditor both catch it) but must not take
    /// the whole run down with an integer underflow.
    pub fn release_backbone(&mut self, kbps: u64) {
        debug_assert!(self.backbone_used_kbps >= kbps);
        self.backbone_used_kbps = self.backbone_used_kbps.saturating_sub(kbps);
    }

    /// Charges a repair copy's inter-server traffic to the backbone pool
    /// when the policy models one. Returns the kbps actually charged
    /// (release it with [`Self::release_backbone`] when the copy ends):
    /// `Some(0)` for policies without a backbone, `None` when the
    /// backbone has no headroom (the copy must wait).
    pub fn try_reserve_repair_backbone(&mut self, kbps: u64) -> Option<u64> {
        match self.policy {
            AdmissionPolicy::BackboneRedirect {
                backbone_capacity_kbps,
            } => {
                if self.backbone_used_kbps + kbps <= backbone_capacity_kbps {
                    self.backbone_used_kbps += kbps;
                    Some(kbps)
                } else {
                    None
                }
            }
            _ => Some(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_model::{ClusterSpec, Layout, ServerSpec};

    fn layout_2videos() -> Layout {
        // v0 on {s0, s1}; v1 on {s2}.
        Layout::new(3, vec![vec![ServerId(0), ServerId(1)], vec![ServerId(2)]]).unwrap()
    }

    fn links(kbps: u64) -> LinkState {
        LinkState::new(
            &ClusterSpec::homogeneous(
                3,
                ServerSpec {
                    storage_bytes: 1,
                    bandwidth_kbps: kbps,
                },
            )
            .unwrap(),
        )
    }

    #[test]
    fn static_rr_rotates() {
        let layout = layout_2videos();
        let links = links(100_000);
        let mut d = Dispatcher::new(AdmissionPolicy::StaticRoundRobin, 2);
        let picks: Vec<_> = (0..4)
            .map(|_| d.dispatch(VideoId(0), 4_000, layout.replicas_of(VideoId(0)), &links))
            .collect();
        assert_eq!(
            picks,
            vec![
                Decision::Admit {
                    server: ServerId(0),
                    backbone_kbps: 0
                },
                Decision::Admit {
                    server: ServerId(1),
                    backbone_kbps: 0
                },
                Decision::Admit {
                    server: ServerId(0),
                    backbone_kbps: 0
                },
                Decision::Admit {
                    server: ServerId(1),
                    backbone_kbps: 0
                },
            ]
        );
        // Static RR scans exactly one server per dispatch.
        assert_eq!(d.admission_probes(), 4);
    }

    #[test]
    fn static_rr_rejects_when_scheduled_server_full() {
        let layout = layout_2videos();
        let mut links = links(4_000);
        links.admit(ServerId(0), 4_000); // s0 saturated
        let mut d = Dispatcher::new(AdmissionPolicy::StaticRoundRobin, 2);
        // First dispatch schedules s0 -> reject even though s1 is free.
        assert_eq!(
            d.dispatch(VideoId(0), 4_000, layout.replicas_of(VideoId(0)), &links),
            Decision::Reject
        );
        // Pointer advanced: next goes to s1 and succeeds.
        assert_eq!(
            d.dispatch(VideoId(0), 4_000, layout.replicas_of(VideoId(0)), &links),
            Decision::Admit {
                server: ServerId(1),
                backbone_kbps: 0
            }
        );
    }

    #[test]
    fn failover_probes_all_replicas() {
        let layout = layout_2videos();
        let mut links = links(4_000);
        links.admit(ServerId(0), 4_000);
        let mut d = Dispatcher::new(AdmissionPolicy::RoundRobinFailover, 2);
        assert_eq!(
            d.dispatch(VideoId(0), 4_000, layout.replicas_of(VideoId(0)), &links),
            Decision::Admit {
                server: ServerId(1),
                backbone_kbps: 0
            }
        );
        links.admit(ServerId(1), 4_000);
        assert_eq!(
            d.dispatch(VideoId(0), 4_000, layout.replicas_of(VideoId(0)), &links),
            Decision::Reject
        );
        // First dispatch probed s0 (full) then s1; second probed both.
        assert_eq!(d.admission_probes(), 4);
    }

    #[test]
    fn least_loaded_picks_most_free() {
        let layout = layout_2videos();
        let mut links = links(100_000);
        links.admit(ServerId(0), 50_000);
        let mut d = Dispatcher::new(AdmissionPolicy::LeastLoadedReplica, 2);
        assert_eq!(
            d.dispatch(VideoId(0), 4_000, layout.replicas_of(VideoId(0)), &links),
            Decision::Admit {
                server: ServerId(1),
                backbone_kbps: 0
            }
        );
    }

    #[test]
    fn backbone_redirect_proxies_when_scheduled_full() {
        let layout = layout_2videos();
        let mut links = links(8_000);
        links.admit(ServerId(0), 8_000); // saturate scheduled server
        let mut d = Dispatcher::new(
            AdmissionPolicy::BackboneRedirect {
                backbone_capacity_kbps: 10_000,
            },
            2,
        );
        // v1 lives only on s2; saturate s2 so redirect is exercised.
        links.admit(ServerId(2), 8_000);
        let decision = d.dispatch(VideoId(1), 4_000, layout.replicas_of(VideoId(1)), &links);
        // Proxy = most free link among all servers = s1.
        assert_eq!(
            decision,
            Decision::Admit {
                server: ServerId(1),
                backbone_kbps: 4_000
            }
        );
        assert_eq!(d.backbone_used_kbps(), 4_000);
        d.release_backbone(4_000);
        assert_eq!(d.backbone_used_kbps(), 0);
    }

    #[test]
    fn backbone_exhaustion_rejects() {
        let layout = layout_2videos();
        let mut links = links(8_000);
        links.admit(ServerId(2), 8_000);
        let mut d = Dispatcher::new(
            AdmissionPolicy::BackboneRedirect {
                backbone_capacity_kbps: 3_999,
            },
            2,
        );
        assert_eq!(
            d.dispatch(VideoId(1), 4_000, layout.replicas_of(VideoId(1)), &links),
            Decision::Reject
        );
    }

    #[test]
    fn backbone_no_proxy_available_rejects() {
        let layout = layout_2videos();
        let mut links = links(4_000);
        for j in 0..3 {
            links.admit(ServerId(j), 4_000);
        }
        let mut d = Dispatcher::new(
            AdmissionPolicy::BackboneRedirect {
                backbone_capacity_kbps: 1_000_000,
            },
            2,
        );
        assert_eq!(
            d.dispatch(VideoId(0), 4_000, layout.replicas_of(VideoId(0)), &links),
            Decision::Reject
        );
    }

    #[test]
    fn default_policy_is_paper_policy() {
        assert_eq!(
            AdmissionPolicy::default(),
            AdmissionPolicy::StaticRoundRobin
        );
    }
}
