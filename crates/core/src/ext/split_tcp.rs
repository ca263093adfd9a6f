//! §4 — "splitting TCP connections provides latency benefits over long
//! distances; an interesting area for study is how this benefit varies if
//! the backend of the split connection is over a private WAN versus the
//! public Internet."
//!
//! Model: a client fetches an object from an origin data center. Three
//! delivery modes:
//!
//! * **direct** — one end-to-end TCP connection (handshake + slow-start,
//!   every round trip pays the full path RTT);
//! * **split/WAN** — TCP terminates at the nearest edge PoP (short
//!   handshake and slow-start RTTs) with a pre-warmed backend connection
//!   over the private WAN;
//! * **split/public** — same split, but the backend rides the public
//!   Internet path from the PoP's metro to the origin.
//!
//! Time-to-last-byte for a small object is dominated by round trips, which
//! is where the split wins; the backend choice then decides the residual
//! one-way transit time.

use crate::study_tiers::default_datacenter;
use crate::world::Scenario;
use bb_cdn::{Tier, TierDeployment};
use bb_geo::CityId;
use bb_netsim::path_base_rtt_ms;
use bb_stats::weighted_quantile;

/// TCP initial congestion window, segments (RFC 6928).
pub const INIT_CWND: f64 = 10.0;
/// Segment size, bytes.
pub const MSS: f64 = 1460.0;

/// Slow-start round trips needed to move `bytes`.
pub fn transfer_rounds(bytes: f64) -> f64 {
    // cwnd doubles each RTT: INIT_CWND * (2^r - 1) * MSS >= bytes.
    let segs = (bytes / MSS).max(1.0);
    ((segs / INIT_CWND) + 1.0).log2().ceil().max(1.0)
}

/// Time-to-last-byte for a single connection: 1 RTT handshake plus
/// slow-start rounds.
pub fn direct_ttlb_ms(rtt_ms: f64, bytes: f64) -> f64 {
    rtt_ms + transfer_rounds(bytes) * rtt_ms
}

/// Split connection: client-side handshake and rounds at `front_rtt_ms`,
/// plus one traversal of the (pre-warmed) backend each way.
pub fn split_ttlb_ms(front_rtt_ms: f64, backend_rtt_ms: f64, bytes: f64) -> f64 {
    front_rtt_ms + transfer_rounds(bytes) * front_rtt_ms + backend_rtt_ms
}

/// Study output.
#[derive(Debug, Clone)]
pub struct SplitTcpResult {
    pub object_bytes: f64,
    /// Weighted median TTLB per mode, ms.
    pub direct_ms: f64,
    pub split_wan_ms: f64,
    pub split_public_ms: f64,
    /// Weighted median saving of split/WAN over direct.
    pub wan_saving_ms: f64,
    /// Weighted median saving of split/public over direct.
    pub public_saving_ms: f64,
    pub clients: usize,
}

impl SplitTcpResult {
    pub fn render(&self) -> String {
        format!(
            "Split-TCP ({} KB objects, {} clients):\n  \
             direct:        {:>7.1} ms\n  \
             split (WAN):   {:>7.1} ms  (saves {:.1} ms)\n  \
             split (public):{:>7.1} ms  (saves {:.1} ms)\n",
            self.object_bytes / 1024.0,
            self.clients,
            self.direct_ms,
            self.split_wan_ms,
            self.wan_saving_ms,
            self.split_public_ms,
            self.public_saving_ms
        )
    }
}

/// Run the study: all client prefixes fetch from the origin data center.
pub fn run(scenario: &Scenario, object_bytes: f64, datacenter: Option<CityId>) -> SplitTcpResult {
    let topo = &scenario.topo;
    let provider = &scenario.provider;
    let dc = datacenter.unwrap_or_else(|| default_datacenter(scenario));

    // Client→origin end-to-end (Standard-tier = public Internet to the DC)
    // and client→edge (Premium-tier entry = nearest edge PoP).
    let standard = TierDeployment::deploy(topo, provider, dc, Tier::Standard);
    let premium = TierDeployment::deploy(topo, provider, dc, Tier::Premium);

    let mut direct_pts = Vec::new();
    let mut wan_pts = Vec::new();
    let mut public_pts = Vec::new();
    let mut wan_save = Vec::new();
    let mut public_save = Vec::new();

    for p in &scenario.workload.prefixes {
        let (Some(std_path), Some(prem_path)) = (
            standard.reach(topo, provider, p.asn, p.city),
            premium.reach(topo, provider, p.asn, p.city),
        ) else {
            continue;
        };
        let e2e = path_base_rtt_ms(topo, &std_path.path);
        // Front RTT: client to its Premium entry PoP.
        let front = path_base_rtt_ms(topo, &prem_path.path);
        // Backend WAN RTT: entry PoP to DC over the private WAN.
        let backend_wan = 2.0 * prem_path.wan_ms;
        // Backend public RTT: approximate with the end-to-end public RTT
        // minus the client-side leg (both directions), floored at the
        // great-circle floor between the entry PoP and the origin. Note the
        // WAN backend is NOT always faster — where the WAN build-out
        // detours (the §3.3.2 India case), the public backend wins.
        let entry_floor = bb_geo::min_rtt_ms(
            topo.atlas
                .city(prem_path.entry_city)
                .location
                .distance_km(&topo.atlas.city(dc).location),
        );
        let backend_public = (e2e - front).max(entry_floor);

        let d = direct_ttlb_ms(e2e, object_bytes);
        let sw = split_ttlb_ms(front, backend_wan, object_bytes);
        let sp = split_ttlb_ms(front, backend_public, object_bytes);
        direct_pts.push((d, p.weight));
        wan_pts.push((sw, p.weight));
        public_pts.push((sp, p.weight));
        wan_save.push((d - sw, p.weight));
        public_save.push((d - sp, p.weight));
    }

    SplitTcpResult {
        object_bytes,
        direct_ms: weighted_quantile(&direct_pts, 0.5).unwrap_or(f64::NAN),
        split_wan_ms: weighted_quantile(&wan_pts, 0.5).unwrap_or(f64::NAN),
        split_public_ms: weighted_quantile(&public_pts, 0.5).unwrap_or(f64::NAN),
        wan_saving_ms: weighted_quantile(&wan_save, 0.5).unwrap_or(f64::NAN),
        public_saving_ms: weighted_quantile(&public_save, 0.5).unwrap_or(f64::NAN),
        clients: direct_pts.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{Scale, ScenarioConfig};

    #[test]
    fn rounds_grow_with_size() {
        assert_eq!(transfer_rounds(1000.0), 1.0);
        assert!(transfer_rounds(1e6) > transfer_rounds(1e5));
        assert!(transfer_rounds(1e7) > transfer_rounds(1e6));
    }

    #[test]
    fn split_beats_direct_for_multi_round_transfers() {
        // 100 ms e2e, 10 ms front, warm 90 ms backend, 100 KB object.
        let d = direct_ttlb_ms(100.0, 100e3);
        let s = split_ttlb_ms(10.0, 90.0, 100e3);
        assert!(s < d, "split {s} vs direct {d}");
    }

    #[test]
    fn study_shows_split_benefit_and_wan_at_least_as_good() {
        let sc = Scenario::build(ScenarioConfig::google(19, Scale::Test));
        let r = run(&sc, 100e3, None);
        assert!(r.clients > 50);
        assert!(
            r.wan_saving_ms > 0.0,
            "split over WAN must save: {:.1}",
            r.wan_saving_ms
        );
        assert!(
            r.public_saving_ms > 0.0,
            "split over public must save: {:.1}",
            r.public_saving_ms
        );
        // The two backends are comparable in the median (the paper's §4
        // question); neither should dominate by more than the direct RTT.
        assert!(
            (r.split_wan_ms - r.split_public_ms).abs() < r.direct_ms,
            "backends diverge: wan {:.1} public {:.1} direct {:.1}",
            r.split_wan_ms,
            r.split_public_ms,
            r.direct_ms
        );
        assert!(r.render().contains("Split-TCP"));
    }
}
