//! End-to-end integration: all three studies, from world-build to figure,
//! on the Test-scale world, with cross-study consistency checks.

use beating_bgp::core::ext::{ecs, hybrid};
use beating_bgp::core::{calibration, study_anycast, study_egress, study_tiers};
use beating_bgp::core::{Scale, Scenario, ScenarioConfig};
use beating_bgp::measure::{BeaconConfig, ProbeConfig, SprayConfig};
use beating_bgp::netsim::FaultLevel;

#[test]
fn study_a_end_to_end() {
    let scenario = Scenario::build(ScenarioConfig::facebook(77, Scale::Test));
    let study = study_egress::run(
        &scenario,
        &SprayConfig {
            days: 1.0,
            window_stride: 8,
            ..Default::default()
        },
    )
    .unwrap();
    // Headline claim: BGP good for the vast majority, small improvable tail.
    assert!(study.fig1.frac_bgp_good > 0.7);
    assert!(study.fig1.frac_improvable_5ms < 0.25);
    // CDF is a distribution (monotone, ends at 1).
    let pts: Vec<(f64, f64)> = study.fig1.diff.points().collect();
    assert!(pts.windows(2).all(|w| w[0].1 <= w[1].1));
    assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-9);
    // Fig 2 exists with both class comparisons on the full-diversity world.
    assert!(study.fig2.peer_vs_transit.is_some());
}

#[test]
fn study_b_end_to_end() {
    let scenario = Scenario::build(ScenarioConfig::microsoft(78, Scale::Test));
    let study = study_anycast::run(
        &scenario,
        &BeaconConfig {
            rounds: 6,
            ..Default::default()
        },
    )
    .unwrap();
    // Anycast good for most requests; CCDF decreasing.
    assert!(study.fig3.frac_within_10ms > 0.5);
    assert!(study.fig3.world.fraction_gt(0.0) >= study.fig3.world.fraction_gt(50.0));
    // Redirection helps more often than it hurts, but does both or neither.
    assert!(study.fig4.frac_improved >= study.fig4.frac_worse);
    assert!(study.fig4.frac_improved + study.fig4.frac_worse <= 1.0);
}

#[test]
fn study_c_end_to_end() {
    let scenario = Scenario::build(ScenarioConfig::google(79, Scale::Test));
    let study = study_tiers::run(
        &scenario,
        &ProbeConfig {
            rounds: 4,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(study.fig5.qualifying_vps > 0);
    // The tier distinction must be visible in ingress distances.
    assert!(study.fig5.premium_ingress_within_400km > study.fig5.standard_ingress_within_400km);
    // Per-country rows reference real countries.
    for row in &study.fig5.rows {
        assert!(bb_geo_lookup(row.code), "unknown country {}", row.code);
    }
}

fn bb_geo_lookup(code: &str) -> bool {
    beating_bgp::geo::country::by_code(code).is_some()
}

#[test]
fn calibration_runs_on_all_three_worlds() {
    for cfg in [
        ScenarioConfig::facebook(80, Scale::Test),
        ScenarioConfig::microsoft(80, Scale::Test),
        ScenarioConfig::google(80, Scale::Test),
    ] {
        let scenario = Scenario::build(cfg);
        let c = calibration::run(&scenario);
        assert!(c.traffic_within_2500km > 0.3);
        assert!(c.median_nearest_km.is_finite());
        assert!(c.median_nearest_km <= c.median_fourth_km);
    }
}

#[test]
fn whole_pipeline_is_deterministic() {
    let run_once = || {
        let scenario = Scenario::build(ScenarioConfig::facebook(81, Scale::Test));
        let study = study_egress::run(
            &scenario,
            &SprayConfig {
                days: 0.5,
                window_stride: 8,
                ..Default::default()
            },
        )
        .unwrap();
        (
            study.fig1.frac_improvable_5ms,
            study.fig1.frac_bgp_good,
            study.fig1.diff.median(),
            study.episodes.degrade_together,
        )
    };
    assert_eq!(run_once(), run_once());
}

#[test]
fn different_seeds_give_different_worlds_same_shape() {
    let frac = |seed| {
        let scenario = Scenario::build(ScenarioConfig::facebook(seed, Scale::Test));
        let study = study_egress::run(
            &scenario,
            &SprayConfig {
                days: 0.5,
                window_stride: 8,
                ..Default::default()
            },
        )
        .unwrap();
        (study.fig1.frac_bgp_good, study.fig1.diff.median())
    };
    let (good_a, med_a) = frac(1);
    let (good_b, med_b) = frac(2);
    // Different worlds...
    assert_ne!(med_a, med_b);
    // ...same qualitative conclusion.
    assert!(good_a > 0.7 && good_b > 0.7);
}

/// `repro all` runs one beacon campaign and hands the anycast study's
/// measurements to the ECS sweep and the hybrid comparison. That is sound
/// only if each what-if, run on its own campaign, prints the same rows:
/// checked here fault-free and under heavy faults.
#[test]
fn ecs_and_hybrid_read_the_anycast_study_beacons() {
    for faults in [FaultLevel::Off, FaultLevel::Heavy] {
        let mut cfg = ScenarioConfig::microsoft(42, Scale::Test);
        cfg.faults = faults.config();
        let scenario = Scenario::build(cfg);
        let beacons = BeaconConfig::default();
        let study = study_anycast::run(&scenario, &beacons).expect("the anycast study succeeds");
        let adoptions = [0.0, 0.25, 0.5, 1.0];
        let rows = |points: Vec<ecs::EcsPoint>| -> Vec<String> {
            points.iter().map(|p| p.render_row()).collect()
        };
        assert_eq!(
            rows(ecs::run(&scenario, &beacons, &adoptions).unwrap()),
            rows(ecs::sweep(&scenario, &study.measurements, &adoptions).unwrap()),
            "xecs at faults {}",
            faults.as_str()
        );
        let schemes = |stats: Vec<hybrid::SchemeStats>| -> Vec<String> {
            stats.iter().map(|s| s.render_row()).collect()
        };
        assert_eq!(
            schemes(hybrid::run(&scenario, &beacons, 10.0)),
            schemes(hybrid::compare(&scenario, &study.measurements, 10.0).unwrap()),
            "xhybrid at faults {}",
            faults.as_str()
        );
    }
}
