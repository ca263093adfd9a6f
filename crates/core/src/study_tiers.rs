//! Study C (§3.3): Premium Tier (private WAN) vs Standard Tier (public
//! Internet) to a US-Central data center.
//!
//! Applies the paper's vantage-point filter — "vantage points whose route
//! to the Standard Tier includes at least one intermediate AS between the
//! vantage point's AS and Google, but whose route to the Premium Tier
//! enters Google directly from the vantage point's AS" — and reports the
//! per-country median latency difference plus the ingress-distance and
//! goodput statistics.

use crate::error::{BbError, BbResult};
use crate::figures::{CountryDiff, Coverage, Fig5};
use crate::world::Scenario;
use bb_cdn::{Tier, TierDeployment};
use bb_geo::CityId;
use bb_measure::{probe_tiers, select_vantage_points, ProbeConfig, TierProbe, VantagePoint};
use bb_netsim::goodput::transfer_time_s;
use std::collections::BTreeMap;

/// Results of the tiers study.
pub struct TiersStudy {
    pub fig5: Fig5,
    /// §4 fn.3: weighted median of (Standard − Premium) 10 MB download time
    /// across qualifying VPs, seconds (paper: "saw little difference").
    pub goodput_diff_s: f64,
    pub datacenter: CityId,
    pub probes: Vec<TierProbe>,
    pub vantage_points: Vec<VantagePoint>,
}

/// Run the study against the US-Central data center: the US main metro
/// when the provider has a PoP there, else its first PoP.
pub fn run(scenario: &Scenario, probe_cfg: &ProbeConfig) -> BbResult<TiersStudy> {
    run_with_datacenter(scenario, probe_cfg, default_datacenter(scenario))
}

/// The data center the Premium/Standard studies default to: the US main
/// metro when the provider has a PoP there, else its first PoP.
pub(crate) fn default_datacenter(scenario: &Scenario) -> CityId {
    let (us, _) = bb_geo::country::by_code("US").expect("US exists");
    let metro = scenario.topo.atlas.main_metro(us).id;
    if scenario.provider.has_pop(metro) {
        metro
    } else {
        scenario.provider.pops[0]
    }
}

/// Run against an arbitrary data-center PoP.
pub fn run_with_datacenter(
    scenario: &Scenario,
    probe_cfg: &ProbeConfig,
    datacenter: CityId,
) -> BbResult<TiersStudy> {
    let premium = TierDeployment::deploy(&scenario.topo, &scenario.provider, datacenter, Tier::Premium);
    let standard =
        TierDeployment::deploy(&scenario.topo, &scenario.provider, datacenter, Tier::Standard);
    let vps = select_vantage_points(&scenario.topo, scenario.config.seed ^ 0x_77);
    let probes = probe_tiers(
        &scenario.topo,
        &scenario.provider,
        &premium,
        &standard,
        &vps,
        &scenario.congestion,
        scenario.fault_plane(),
        probe_cfg,
    );
    analyze(scenario, datacenter, vps, probes)
}

/// Analyze collected probes.
///
/// Rounds lost to the fault plane carry NaN RTTs and are excluded from the
/// per-VP medians; Figure 5 carries the resulting coverage. Errors with
/// [`BbError::InsufficientData`] when no qualifying vantage point keeps a
/// measurable round on both tiers.
pub fn analyze(
    scenario: &Scenario,
    datacenter: CityId,
    vps: Vec<VantagePoint>,
    probes: Vec<TierProbe>,
) -> BbResult<TiersStudy> {
    let rounds_total = probes.len() as u64;
    let rounds_kept = probes.iter().filter(|p| p.rtt_ms.is_finite()).count() as u64;
    // Per-VP per-tier medians + qualification flags.
    struct VpAgg {
        premium: Vec<f64>,
        standard: Vec<f64>,
        premium_direct: bool,
        standard_indirect: bool,
        premium_ingress_km: f64,
        standard_ingress_km: f64,
    }
    // BTreeMap: iteration order feeds the qualifying-VP list and the
    // figures downstream, so it must not depend on hash state.
    let mut per_vp: BTreeMap<usize, VpAgg> = BTreeMap::new();
    for p in &probes {
        let agg = per_vp.entry(p.vp_index).or_insert(VpAgg {
            premium: Vec::new(),
            standard: Vec::new(),
            premium_direct: false,
            standard_indirect: false,
            premium_ingress_km: f64::NAN,
            standard_ingress_km: f64::NAN,
        });
        match p.tier {
            Tier::Premium => {
                if p.rtt_ms.is_finite() {
                    agg.premium.push(p.rtt_ms);
                }
                agg.premium_direct = p.intermediate_ases == 0;
                agg.premium_ingress_km = p.ingress_distance_km;
            }
            Tier::Standard => {
                if p.rtt_ms.is_finite() {
                    agg.standard.push(p.rtt_ms);
                }
                agg.standard_indirect = p.intermediate_ases >= 1;
                agg.standard_ingress_km = p.ingress_distance_km;
            }
        }
    }

    // Ingress statistics over ALL VPs with both tiers measured (the 80%/10%
    // traceroute statistic precedes the paper's VP filter).
    let both: Vec<&VpAgg> = per_vp
        .values()
        .filter(|a| !a.premium.is_empty() && !a.standard.is_empty())
        .collect();
    let frac_within = |f: &dyn Fn(&VpAgg) -> f64| {
        let close = both.iter().filter(|a| f(a) <= 400.0).count();
        close as f64 / both.len().max(1) as f64
    };
    let premium_ingress_within_400km = frac_within(&|a| a.premium_ingress_km);
    let standard_ingress_within_400km = frac_within(&|a| a.standard_ingress_km);

    // Qualifying VPs per the paper's filter.
    let qualifying: Vec<(usize, f64)> = per_vp
        .iter()
        .filter(|(_, a)| {
            !a.premium.is_empty() && !a.standard.is_empty() && a.premium_direct && a.standard_indirect
        })
        .map(|(&vi, a)| {
            let med = |v: &[f64]| bb_stats::median_unsorted(v).expect("non-empty tier series");
            (vi, med(&a.standard) - med(&a.premium))
        })
        .collect();

    // Per-country medians, weighted by VP user counts.
    let mut per_country: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
    for &(vi, diff) in &qualifying {
        let vp = &vps[vi];
        per_country
            .entry(vp.country)
            .or_default()
            .push((diff, vp.users_m.max(1e-6)));
    }
    let mut rows: Vec<CountryDiff> = per_country
        .into_iter()
        .map(|(country, points)| {
            let c = &scenario.topo.atlas.countries[country];
            let vantage_points = points.len();
            CountryDiff {
                code: c.code,
                name: c.name,
                region: c.region,
                median_diff_ms: bb_stats::weighted_median(&points).unwrap(),
                vantage_points,
                users_m: c.users_m,
            }
        })
        .collect();
    rows.sort_by(|a, b| a.code.cmp(b.code));

    if qualifying.is_empty() {
        return Err(BbError::insufficient(
            "fig5 qualifying vantage points",
            0,
            1,
        ));
    }
    let fig5 = Fig5 {
        rows,
        premium_ingress_within_400km,
        standard_ingress_within_400km,
        qualifying_vps: qualifying.len(),
        coverage: Coverage::new(rounds_kept, rounds_total),
    };

    // Goodput (10 MB transfer-time) comparison across qualifying VPs.
    let mut goodput_points = Vec::new();
    for &(vi, _) in &qualifying {
        let agg = &per_vp[&vi];
        let vp = &vps[vi];
        let med = |v: &[f64]| bb_stats::median_unsorted(v).expect("non-empty tier series");
        // Bottleneck utilization proxy: the VP's last-mile at a neutral hour.
        let util = 0.5;
        let access = 80.0;
        let t_std = transfer_time_s(10e6, med(&agg.standard), util, access);
        let t_prem = transfer_time_s(10e6, med(&agg.premium), util, access);
        goodput_points.push((t_std - t_prem, vp.users_m.max(1e-6)));
    }
    let goodput_diff_s = bb_stats::weighted_median(&goodput_points).unwrap_or(0.0);

    Ok(TiersStudy {
        fig5,
        goodput_diff_s,
        datacenter,
        probes,
        vantage_points: vps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{Scale, ScenarioConfig};

    fn quick_study() -> (Scenario, TiersStudy) {
        let scenario = Scenario::build(ScenarioConfig::google(6, Scale::Test));
        let cfg = ProbeConfig {
            rounds: 4,
            ..Default::default()
        };
        let s = run(&scenario, &cfg).expect("fault-free study succeeds");
        (scenario, s)
    }

    #[test]
    fn has_qualifying_vps_and_countries() {
        let (_, s) = quick_study();
        assert!(s.fig5.qualifying_vps > 5, "got {}", s.fig5.qualifying_vps);
        assert!(s.fig5.rows.len() >= 3, "got {} countries", s.fig5.rows.len());
    }

    #[test]
    fn premium_ingress_nearer_than_standard() {
        let (_, s) = quick_study();
        assert!(
            s.fig5.premium_ingress_within_400km > s.fig5.standard_ingress_within_400km,
            "premium {:.2} vs standard {:.2}",
            s.fig5.premium_ingress_within_400km,
            s.fig5.standard_ingress_within_400km
        );
    }

    #[test]
    fn goodput_difference_is_small() {
        // §4 fn.3: "saw little difference" — under a second either way for
        // a 10 MB transfer.
        let (_, s) = quick_study();
        assert!(
            s.goodput_diff_s.abs() < 1.0,
            "goodput diff {:.2}s",
            s.goodput_diff_s
        );
    }

    #[test]
    fn diffs_are_bounded() {
        let (_, s) = quick_study();
        for row in &s.fig5.rows {
            assert!(
                row.median_diff_ms.abs() < 500.0,
                "{}: {}",
                row.code,
                row.median_diff_ms
            );
            assert!(row.vantage_points > 0);
        }
    }

    #[test]
    fn render_mentions_ingress_stats() {
        let (_, s) = quick_study();
        let txt = s.fig5.render();
        assert!(txt.contains("Figure 5"));
        assert!(txt.contains("ingress"));
    }
}
