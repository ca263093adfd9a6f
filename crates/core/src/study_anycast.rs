//! Study B (§3.2): anycast vs best unicast (Fig 3) and DNS redirection vs
//! anycast (Fig 4).
//!
//! Figure 3 asks the oracle question: how much faster is the best unicast
//! front-end than where anycast lands the client? Figure 4 asks the
//! practical one: after training an LDNS-granularity predictor on earlier
//! measurements, does handing out the predicted-best address beat plain
//! anycast on later measurements? ("The LDNS-predicted optimal and anycast
//! are then measured side-by-side.")

use crate::error::{BbError, BbResult};
use crate::figures::{Coverage, Fig3, Fig4};
use crate::world::Scenario;
use bb_cdn::dns::TrainingSample;
use bb_cdn::{AnycastDeployment, DnsRedirector, SiteChoice};
use bb_geo::{CityId, Region};
use bb_measure::beacon::build_unicast_deployments;
use bb_measure::{run_beacons, BeaconConfig, BeaconMeasurement};
use bb_stats::{Ccdf, Cdf};
use bb_topology::Topology;
use bb_workload::Workload;
use std::collections::BTreeMap;

/// Results of the anycast study.
pub struct AnycastStudy {
    pub fig3: Fig3,
    pub fig4: Fig4,
    pub redirector: DnsRedirector,
    pub measurements: Vec<BeaconMeasurement>,
}

/// Run the full study: beacon campaign, train/test split, figures.
pub fn run(scenario: &Scenario, beacon_cfg: &BeaconConfig) -> BbResult<AnycastStudy> {
    analyze(scenario, collect(scenario, beacon_cfg))
}

/// The beacon campaign every anycast what-if reads: deploy anycast and one
/// unicast address from every PoP, then measure each client prefix against
/// both. Figures 3 and 4, the ECS sweep and the hybrid comparison all
/// evaluate one such campaign.
pub fn collect(scenario: &Scenario, beacon_cfg: &BeaconConfig) -> Vec<BeaconMeasurement> {
    let sites = &scenario.provider.pops;
    let anycast = AnycastDeployment::deploy(&scenario.topo, &scenario.provider, sites);
    let unicast = build_unicast_deployments(&scenario.topo, &scenario.provider, sites);
    run_beacons(
        &scenario.topo,
        &scenario.provider,
        &anycast,
        &unicast,
        &scenario.workload,
        &scenario.congestion,
        scenario.fault_plane(),
        beacon_cfg,
    )
}

/// Analyze an already-collected beacon campaign.
///
/// Incomplete measurements (anycast or every unicast beacon lost to the
/// fault plane) are excluded from every aggregate; Figures 3 and 4 carry
/// the resulting coverage. Errors with [`BbError::InsufficientData`] when
/// no complete measurement survives.
pub fn analyze(
    scenario: &Scenario,
    measurements: Vec<BeaconMeasurement>,
) -> BbResult<AnycastStudy> {
    let coverage = coverage(&measurements);

    // --- Figure 3: per-measurement penalty CCDFs, weighted by traffic. ---
    let penalty_points = |filter: &dyn Fn(&BeaconMeasurement) -> bool| -> Vec<(f64, f64)> {
        measurements
            .iter()
            .filter(|m| m.is_complete() && filter(m))
            .map(|m| (m.anycast_penalty_ms().max(0.0), m.weight))
            .collect()
    };
    let world = Ccdf::from_weighted(&penalty_points(&|_| true)).ok_or_else(|| {
        BbError::insufficient("fig3 penalty CCDF", coverage.kept as usize, 1)
    })?;
    let europe = Ccdf::from_weighted(&penalty_points(&|m| m.region == Region::Europe));
    let us_country = bb_geo::country::by_code("US").map(|(i, _)| i);
    let united_states = Ccdf::from_weighted(&penalty_points(&|m| {
        us_country.is_some_and(|us| {
            scenario
                .topo
                .atlas
                .city(scenario.workload.prefix(m.prefix).city)
                .country
                == us
        })
    }));
    let frac_within_10ms = 1.0 - world.fraction_gt(10.0);
    let frac_gt_100ms = world.fraction_gt(100.0);
    let fig3 = Fig3 {
        world,
        europe,
        united_states,
        frac_within_10ms,
        frac_gt_100ms,
        coverage,
    };

    let (fig4, redirector) = fig4(&scenario.topo, &scenario.workload, &measurements)?;
    Ok(AnycastStudy {
        fig3,
        fig4,
        redirector,
        measurements,
    })
}

/// The share of `measurements` that are complete.
fn coverage(measurements: &[BeaconMeasurement]) -> Coverage {
    Coverage::new(
        measurements.iter().filter(|m| m.is_complete()).count() as u64,
        measurements.len() as u64,
    )
}

/// Figure 4 over `measurements`, with the LDNS redirector trained on their
/// even rounds: train on even rounds, test on odd rounds. It reads the
/// world only through `topo` and `workload`, so a what-if can re-run it
/// against a regenerated workload.
pub(crate) fn fig4(
    topo: &Topology,
    workload: &Workload,
    measurements: &[BeaconMeasurement],
) -> BbResult<(Fig4, DnsRedirector)> {
    let (train, test) = split_rounds(measurements.iter());
    let (_, redirector) = train_redirector(workload, &train);

    // Test: per prefix, collect (anycast, predicted) series over test rounds.
    let mut per_prefix_test: BTreeMap<bb_workload::PrefixId, Vec<&BeaconMeasurement>> =
        BTreeMap::new();
    for m in &test {
        per_prefix_test.entry(m.prefix).or_default().push(m);
    }
    let mut med_points = Vec::new();
    let mut p75_points = Vec::new();
    for (&prefix, ms) in &per_prefix_test {
        let choices = redirector.choices_for(workload, prefix);
        let mut anycast_series = Vec::new();
        let mut predicted_series = Vec::new();
        for m in ms {
            anycast_series.push(m.anycast_rtt_ms);
            // Expected RTT across the prefix's resolver mix.
            let mut acc = 0.0;
            for &(choice, frac) in &choices {
                acc += frac * served_rtt_ms(topo, workload, m, choice);
            }
            predicted_series.push(acc);
        }
        let w = ms[0].weight;
        let q = |v: &[f64], p: f64| bb_stats::quantile_unsorted(v, p).expect("non-empty series");
        med_points.push((q(&anycast_series, 0.5) - q(&predicted_series, 0.5), w));
        p75_points.push((q(&anycast_series, 0.75) - q(&predicted_series, 0.75), w));
    }
    let too_few = || BbError::insufficient("fig4 improvement CDF", med_points.len(), 1);
    let median_improvement = Cdf::from_weighted(&med_points).ok_or_else(too_few)?;
    let p75_improvement = Cdf::from_weighted(&p75_points).ok_or_else(too_few)?;
    // The paper reads improvement/worse straight off the CDF's sign
    // ("improvement for 27% of queries … worse than anycast for 17%");
    // a ±0.1 ms band absorbs measurement noise around zero.
    let frac_improved = 1.0 - median_improvement.fraction_leq(0.1);
    let frac_worse = median_improvement.fraction_leq(-0.1);
    let fig4 = Fig4 {
        median_improvement,
        p75_improvement,
        frac_improved,
        frac_worse,
        coverage: coverage(measurements),
    };
    Ok((fig4, redirector))
}

/// Fig 4's train/test split. Rounds are ranked by time over every one of
/// `measurements`; the complete ones are split into even rounds (train)
/// and odd rounds (test).
pub(crate) fn split_rounds<'a>(
    measurements: impl Iterator<Item = &'a BeaconMeasurement> + Clone,
) -> (Vec<&'a BeaconMeasurement>, Vec<&'a BeaconMeasurement>) {
    let mut round_times: Vec<u64> = measurements
        .clone()
        .map(|m| m.time.minutes().to_bits())
        .collect();
    round_times.sort_unstable();
    round_times.dedup();
    // Every measurement's time is in the list, so this is its rank.
    let round_of = |m: &BeaconMeasurement| {
        let t = m.time.minutes().to_bits();
        round_times.partition_point(|&r| r < t)
    };
    measurements
        .filter(|m| m.is_complete())
        .partition(|m| round_of(m) % 2 == 0)
}

/// Fig 4's training step: per-prefix medians over the `train` rounds (the
/// anycast RTT, and each unicast site's finite RTTs), and the LDNS
/// redirector trained on them. BTreeMaps keep sample order hash-free.
pub(crate) fn train_redirector(
    workload: &Workload,
    train: &[&BeaconMeasurement],
) -> (Vec<TrainingSample>, DnsRedirector) {
    let mut per_prefix: BTreeMap<bb_workload::PrefixId, Vec<&BeaconMeasurement>> = BTreeMap::new();
    for m in train {
        per_prefix.entry(m.prefix).or_default().push(m);
    }
    let samples: Vec<TrainingSample> = per_prefix
        .iter()
        .map(|(&prefix, ms)| {
            let mut per_site: BTreeMap<CityId, Vec<f64>> = BTreeMap::new();
            for m in ms {
                for &(s, r) in &m.unicast_rtt_ms {
                    // A complete measurement can still have individual
                    // unicast probes lost to the fault plane (NaN).
                    if r.is_finite() {
                        per_site.entry(s).or_default().push(r);
                    }
                }
            }
            TrainingSample {
                prefix,
                weight: ms[0].weight,
                anycast_rtt_ms: median(ms.iter().map(|m| m.anycast_rtt_ms)),
                unicast_rtt_ms: per_site
                    .into_iter()
                    .map(|(s, v)| (s, median(v.into_iter())))
                    .collect(),
            }
        })
        .collect();
    let redirector = DnsRedirector::train(workload, &samples);
    (samples, redirector)
}

/// The RTT measurement `m` sees when served by `choice`. A predicted site
/// not among the client's measured ones (or whose probe was lost) is the
/// misdirection case: its RTT is dominated by the detour, approximated as
/// the anycast RTT plus the great-circle RTT from the client to that site.
pub(crate) fn served_rtt_ms(
    topo: &Topology,
    workload: &Workload,
    m: &BeaconMeasurement,
    choice: SiteChoice,
) -> f64 {
    match choice {
        SiteChoice::Anycast => m.anycast_rtt_ms,
        SiteChoice::Unicast(site) => m
            .unicast_rtt_ms
            .iter()
            .find(|&&(s, r)| s == site && r.is_finite())
            .map(|&(_, r)| r)
            .unwrap_or_else(|| {
                let atlas = &topo.atlas;
                let client_city = workload.prefix(m.prefix).city;
                let km = atlas
                    .city(site)
                    .location
                    .distance_km(&atlas.city(client_city).location);
                m.anycast_rtt_ms + bb_geo::min_rtt_ms(km)
            }),
    }
}

fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    bb_stats::quantile_select(&mut v, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{Scale, ScenarioConfig};

    fn quick_study() -> AnycastStudy {
        let scenario = Scenario::build(ScenarioConfig::microsoft(4, Scale::Test));
        let cfg = BeaconConfig {
            rounds: 6,
            ..Default::default()
        };
        run(&scenario, &cfg).expect("fault-free study succeeds")
    }

    #[test]
    fn fig3_anycast_mostly_good_with_a_tail() {
        let s = quick_study();
        assert!(
            s.fig3.frac_within_10ms > 0.5,
            "anycast within 10ms only {:.2}",
            s.fig3.frac_within_10ms
        );
        assert!(
            s.fig3.frac_gt_100ms < 0.3,
            "tail too heavy: {:.2}",
            s.fig3.frac_gt_100ms
        );
    }

    #[test]
    fn fig4_has_both_tails() {
        // The paper's central Fig-4 finding: prediction helps some clients
        // and hurts others. Both fractions must be non-trivial or zero-ish
        // but the CDF must exist.
        let s = quick_study();
        assert!(s.fig4.frac_improved >= 0.0);
        assert!(s.fig4.frac_worse >= 0.0);
        assert!(s.fig4.median_improvement.len() > 20);
    }

    #[test]
    fn penalties_are_non_negative() {
        let s = quick_study();
        // Fig3 uses max(0, penalty); CCDF at 0 must be ≤ 1 trivially and
        // decreasing.
        let at0 = s.fig3.world.fraction_gt(0.0);
        let at50 = s.fig3.world.fraction_gt(50.0);
        assert!(at0 >= at50);
    }

    #[test]
    fn renders() {
        let s = quick_study();
        assert!(s.fig3.render().contains("Figure 3"));
        assert!(s.fig4.render().contains("Figure 4"));
    }
}
