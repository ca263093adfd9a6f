//! §4 — "Performance-aware routing or hybrid approaches may be necessary
//! to claim this 'lost' performance … understanding how best to design
//! hybrid approaches with the benefits of both anycast and DNS
//! redirection" (§4, citing the anycast-CDN study's own hybrid proposal).
//!
//! Four serving schemes, evaluated on the same held-out beacon rounds:
//!
//! * **anycast** — hand every client the anycast address;
//! * **dns** — hand every client its LDNS-predicted best (Fig 4's scheme);
//! * **hybrid** — redirect a client to unicast only when its predicted
//!   gain clears a confidence margin; otherwise anycast (gated per prefix,
//!   i.e. an ECS-style hybrid — per-resolver gating would inherit Fig 4's
//!   aggregation error). Anycast's resilience is kept for everyone the
//!   prediction can't clearly help;
//! * **oracle** — per-measurement best option (the Fig 3 upper bound).

use crate::error::{BbError, BbResult};
use crate::study_anycast::{self, served_rtt_ms, split_rounds, train_redirector};
use crate::world::Scenario;
use bb_cdn::SiteChoice;
use bb_measure::{BeaconConfig, BeaconMeasurement};
use bb_stats::weighted_quantile;
use std::collections::HashMap;

/// Per-scheme latency summary over the evaluation rounds.
#[derive(Debug, Clone)]
pub struct SchemeStats {
    pub name: &'static str,
    /// Weighted median RTT, ms.
    pub median_ms: f64,
    /// Weighted 95th percentile RTT, ms.
    pub p95_ms: f64,
    /// Fraction of clients steered off anycast.
    pub redirected: f64,
}

impl SchemeStats {
    pub fn render_row(&self) -> String {
        format!(
            "  {:<8} median={:>6.1}ms p95={:>7.1}ms redirected={:>5.1}%",
            self.name,
            self.median_ms,
            self.p95_ms,
            self.redirected * 100.0
        )
    }
}

/// Run the comparison over a fresh beacon campaign
/// ([`study_anycast::collect`]); [`compare`] does the rest. `margin_ms` is
/// the hybrid's confidence threshold.
///
/// # Panics
/// When the campaign's odd rounds hold no complete measurement (say, a
/// one-round `beacon_cfg`); [`compare`] returns that as an error.
pub fn run(scenario: &Scenario, beacon_cfg: &BeaconConfig, margin_ms: f64) -> Vec<SchemeStats> {
    compare(
        scenario,
        &study_anycast::collect(scenario, beacon_cfg),
        margin_ms,
    )
    .expect("the campaign leaves complete measurements to score")
}

/// Run the comparison over an already-collected beacon campaign.
/// `margin_ms` is the hybrid's confidence threshold. Fails with
/// [`BbError::InsufficientData`] when the odd (test) rounds hold no
/// complete measurement.
pub fn compare(
    scenario: &Scenario,
    measurements: &[BeaconMeasurement],
    margin_ms: f64,
) -> BbResult<Vec<SchemeStats>> {
    let (topo, workload) = (&scenario.topo, &scenario.workload);
    // Fault-injected campaigns mark lost probes with NaN; only complete
    // measurements can train or score a scheme, so Fig 4's even/odd split
    // ranks the rounds over the complete measurements only (Fig 4 ranks
    // them over all of them).
    let (train, test) = split_rounds(measurements.iter().filter(|m| m.is_complete()));

    let (samples, redirector) = train_redirector(workload, &train);

    // The hybrid uses the same training data but only redirects a resolver
    // when the predicted gain clears the margin. Implemented by
    // re-deriving per-prefix predicted gains from the training samples.
    let predicted_gain: HashMap<bb_workload::PrefixId, (SiteChoice, f64)> = samples
        .iter()
        .map(|s| {
            let mut best = (SiteChoice::Anycast, s.anycast_rtt_ms);
            for &(site, rtt) in &s.unicast_rtt_ms {
                if rtt < best.1 {
                    best = (SiteChoice::Unicast(site), rtt);
                }
            }
            (s.prefix, (best.0, s.anycast_rtt_ms - best.1))
        })
        .collect();

    // Evaluate all schemes per test measurement.
    let mut points: HashMap<&'static str, Vec<(f64, f64)>> = HashMap::new();
    let mut redirected: HashMap<&'static str, f64> = HashMap::new();
    let mut total_w = 0.0;

    for m in &test {
        let w = m.weight;
        total_w += w;
        let rtt_of = |choice: SiteChoice| served_rtt_ms(topo, workload, m, choice);

        // anycast
        points.entry("anycast").or_default().push((m.anycast_rtt_ms, w));

        // dns: resolver-mix expectation (Fig 4 semantics)
        let mut dns_rtt = 0.0;
        let mut dns_redir = 0.0;
        for &(choice, frac) in &redirector.choices_for(workload, m.prefix) {
            dns_rtt += frac * rtt_of(choice);
            if !matches!(choice, SiteChoice::Anycast) {
                dns_redir += frac;
            }
        }
        points.entry("dns").or_default().push((dns_rtt, w));
        *redirected.entry("dns").or_insert(0.0) += w * dns_redir;

        // hybrid: redirect only with a clear predicted margin
        let (choice, gain) = predicted_gain
            .get(&m.prefix)
            .copied()
            .unwrap_or((SiteChoice::Anycast, 0.0));
        let hybrid_choice = if gain >= margin_ms { choice } else { SiteChoice::Anycast };
        points
            .entry("hybrid")
            .or_default()
            .push((rtt_of(hybrid_choice), w));
        if !matches!(hybrid_choice, SiteChoice::Anycast) {
            *redirected.entry("hybrid").or_insert(0.0) += w;
        }

        // oracle: per-measurement best
        let oracle = m.anycast_rtt_ms.min(m.best_unicast_ms());
        points.entry("oracle").or_default().push((oracle, w));
        if m.best_unicast_ms() < m.anycast_rtt_ms {
            *redirected.entry("oracle").or_insert(0.0) += w;
        }
    }

    ["anycast", "dns", "hybrid", "oracle"]
        .iter()
        .map(|&name| {
            let pts = points.get(name).map(Vec::as_slice).unwrap_or_default();
            let quantile = |q| {
                weighted_quantile(pts, q)
                    .ok_or_else(|| BbError::insufficient("hybrid test rounds", pts.len(), 1))
            };
            Ok(SchemeStats {
                name,
                median_ms: quantile(0.5)?,
                p95_ms: quantile(0.95)?,
                redirected: redirected.get(name).copied().unwrap_or(0.0) / total_w.max(1e-12),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{Scale, ScenarioConfig};

    fn schemes() -> Vec<SchemeStats> {
        let s = Scenario::build(ScenarioConfig::microsoft(29, Scale::Test));
        let cfg = BeaconConfig {
            rounds: 6,
            ..Default::default()
        };
        run(&s, &cfg, 10.0)
    }

    fn get<'a>(v: &'a [SchemeStats], name: &str) -> &'a SchemeStats {
        v.iter().find(|s| s.name == name).unwrap()
    }

    #[test]
    fn oracle_is_the_lower_bound() {
        let v = schemes();
        let oracle = get(&v, "oracle");
        for s in &v {
            assert!(
                oracle.median_ms <= s.median_ms + 1e-9,
                "oracle beaten by {}: {} vs {}",
                s.name,
                oracle.median_ms,
                s.median_ms
            );
        }
    }

    #[test]
    fn hybrid_redirects_fewer_than_dns_style_oracle() {
        let v = schemes();
        assert!(
            get(&v, "hybrid").redirected <= get(&v, "oracle").redirected + 1e-9,
            "hybrid must be conservative"
        );
    }

    #[test]
    fn hybrid_tail_not_worse_than_pure_dns() {
        // The point of the margin: keep anycast where prediction is shaky,
        // so the p95 must not regress vs the always-redirect scheme.
        let v = schemes();
        assert!(
            get(&v, "hybrid").p95_ms <= get(&v, "dns").p95_ms + 2.0,
            "hybrid p95 {} vs dns p95 {}",
            get(&v, "hybrid").p95_ms,
            get(&v, "dns").p95_ms
        );
    }

    #[test]
    fn one_round_leaves_nothing_to_score() {
        // Round 0 trains; with no odd round there is no test set.
        let s = Scenario::build(ScenarioConfig::microsoft(29, Scale::Test));
        let cfg = BeaconConfig {
            rounds: 1,
            ..Default::default()
        };
        let beacons = study_anycast::collect(&s, &cfg);
        assert!(!beacons.is_empty());
        let err = compare(&s, &beacons, 10.0).unwrap_err();
        assert!(
            matches!(err, BbError::InsufficientData { kept: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn all_schemes_produce_sane_latencies() {
        for s in schemes() {
            assert!(s.median_ms > 0.0 && s.median_ms < 500.0, "{s:?}");
            assert!(s.p95_ms >= s.median_ms);
            assert!((0.0..=1.0).contains(&s.redirected));
        }
    }
}
