//! Study A (§3.1): performance-aware egress routing at each PoP vs BGP.
//!
//! Compares BGP's preferred route to an *omniscient* performance-aware
//! controller that always uses the instantaneously-best of the top-3 routes
//! — the strongest possible opponent, as in the paper: "These measurements
//! let us compare the performance of BGP's preferred route versus an
//! omniscient performance-aware route controller that always uses the path
//! with the best instantaneous performance."

use crate::error::{BbError, BbResult};
use crate::figures::{Coverage, Episodes, Fig1, Fig2};
use crate::world::Scenario;
use bb_bgp::ProviderRouteClass;
use bb_measure::{spray, SprayConfig, SprayDataset};
use bb_stats::{bootstrap_median_ci, Cdf};
use std::collections::{BTreeMap, HashMap};

/// Threshold for "meaningful" improvement/degradation, ms (the paper's
/// "5ms or more" yardstick).
pub const MEANINGFUL_MS: f64 = 5.0;

/// Results of the egress study.
pub struct EgressStudy {
    pub fig1: Fig1,
    pub fig2: Fig2,
    pub episodes: Episodes,
    /// §3.1's closing remark, checked: "We find qualitatively similar
    /// results for bandwidth (not shown)." Fraction of traffic whose best
    /// alternate improves modeled goodput by ≥10 %.
    pub bandwidth_improvable: f64,
    pub dataset: SprayDataset,
}

/// Per-⟨PoP, prefix⟩ aggregate used by the figures.
struct GroupAgg {
    /// Per-window diffs: preferred − best alternate.
    window_diffs: Vec<f64>,
    /// Per-window preferred medians (for the degradation baseline).
    preferred: Vec<f64>,
    /// Per-window best-alternate medians.
    best_alt: Vec<f64>,
    /// Total traffic volume.
    volume: f64,
    /// Per-window best peer / transit / private / public medians, where the
    /// route classes exist.
    peer_vs_transit: Vec<f64>,
    private_vs_public: Vec<f64>,
}

/// The part of the egress analysis every reader needs: the ⟨PoP, prefix⟩
/// groups, Fig 1's point CDF with its headline fractions, and the §3.1.1
/// episodes. [`analyze`] adds the bootstrap band, Fig 2 and the bandwidth
/// variant on top.
pub struct EgressSummary {
    groups: BTreeMap<(bb_geo::CityId, bb_workload::PrefixId), GroupAgg>,
    pub fig1: Fig1Point,
    pub episodes: Episodes,
}

/// Fig 1's verdict on one spray window, from its route medians (preferred
/// first). The batch analyzer and `repro serve`'s sketch path both read
/// every window through [`WindowGate::of`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum WindowGate {
    /// Fewer than 2 routes: no alternate to compare against, not counted.
    NoAlternate,
    /// Counted, but the fault plane degraded the preferred route or every
    /// alternate (NaN medians).
    Degraded,
    /// Usable: the preferred route's median and the best alternate's.
    Kept { preferred: f64, best_alt: f64 },
}

impl WindowGate {
    pub(crate) fn of(route_median_ms: &[f64]) -> WindowGate {
        if route_median_ms.len() < 2 {
            return WindowGate::NoAlternate;
        }
        let preferred = route_median_ms[0];
        // min_finite yields NaN (never ±inf) when every alternate degraded,
        // so this is_finite gate is the single NaN-policy check.
        let best_alt = bb_stats::min_finite(route_median_ms[1..].iter().copied());
        if preferred.is_finite() && best_alt.is_finite() {
            WindowGate::Kept { preferred, best_alt }
        } else {
            WindowGate::Degraded
        }
    }
}

/// Fig 1 before its band: the traffic-weighted CDF of each group's median
/// window diff and the two headline fractions read off it. Both analyzers
/// build the figure through [`Fig1Point::new`] and
/// [`Fig1Point::with_band`].
pub struct Fig1Point {
    diff: Cdf,
    /// As [`Fig1::frac_improvable_5ms`].
    pub frac_improvable_5ms: f64,
    /// As [`Fig1::frac_bgp_good`].
    frac_bgp_good: f64,
    groups: usize,
    coverage: Coverage,
}

impl Fig1Point {
    /// `point` holds one `(median diff, traffic volume)` per group with a
    /// kept window. Errors with [`BbError::InsufficientData`] when it is
    /// empty.
    pub(crate) fn new(point: &[(f64, f64)], coverage: Coverage) -> BbResult<Fig1Point> {
        let diff = Cdf::from_weighted(point)
            .ok_or_else(|| BbError::insufficient("fig1 route-diff CDF", point.len(), 1))?;
        Ok(Fig1Point {
            frac_improvable_5ms: 1.0 - diff.fraction_leq(MEANINGFUL_MS - 1e-9),
            frac_bgp_good: diff.fraction_leq(1.0),
            diff,
            groups: point.len(),
            coverage,
        })
    }

    /// The whole figure: `band` holds each group's `(lower, upper, traffic
    /// volume)`, in the order of `point`.
    pub(crate) fn with_band(self, band: &[(f64, f64, f64)]) -> BbResult<Fig1> {
        let cdf_of = |pick: fn(&(f64, f64, f64)) -> f64| {
            let pts: Vec<(f64, f64)> = band.iter().map(|b| (pick(b), b.2)).collect();
            Cdf::from_weighted(&pts)
                .ok_or_else(|| BbError::insufficient("fig1 route-diff CDF", self.groups, 1))
        };
        Ok(Fig1 {
            ci_lower: cdf_of(|b| b.0)?,
            ci_upper: cdf_of(|b| b.1)?,
            diff: self.diff,
            frac_improvable_5ms: self.frac_improvable_5ms,
            frac_bgp_good: self.frac_bgp_good,
            groups: self.groups,
            coverage: self.coverage,
        })
    }
}

/// Run the full study.
pub fn run(scenario: &Scenario, spray_cfg: &SprayConfig) -> BbResult<EgressStudy> {
    let (spray_cfg, dataset) = collect(scenario, spray_cfg);
    bb_exec::timing::time("egress:analyze", || analyze(scenario, &spray_cfg, dataset))
}

/// Run the campaign and only the shared step of its analysis, for readers
/// of the headline fractions alone (the xablate arms).
pub fn run_summary(scenario: &Scenario, spray_cfg: &SprayConfig) -> BbResult<EgressSummary> {
    let (_, dataset) = collect(scenario, spray_cfg);
    bb_exec::timing::time("egress:summarize", || summarize(&dataset))
}

/// The study's spray campaign, and the config it ran with.
fn collect(scenario: &Scenario, spray_cfg: &SprayConfig) -> (SprayConfig, SprayDataset) {
    // Targets depend only on the world, not on congestion or faults: repeat
    // campaigns over a content-identical world (e.g. the xablate arms)
    // reuse the first build instead of recomputing routes.
    let spray_cfg = SprayConfig {
        targets_memo: Some(scenario.config.world_key()),
        ..spray_cfg.clone()
    };
    let dataset = spray(
        &scenario.topo,
        &scenario.provider,
        &scenario.workload,
        &scenario.congestion,
        scenario.fault_plane(),
        &spray_cfg,
    );
    (spray_cfg, dataset)
}

/// Group the usable windows per ⟨PoP, prefix⟩, build Fig 1's point CDF
/// from each group's median window diff, and count the §3.1.1 episodes.
///
/// NaN medians (windows degraded by the fault plane) are excluded from
/// every aggregate; the figures carry the resulting coverage. Errors with
/// [`BbError::InsufficientData`] when no usable window survives.
fn summarize(dataset: &SprayDataset) -> BbResult<EgressSummary> {
    // Index target metadata (classes are per-target, constant over time).
    let classes_by_key: HashMap<(bb_geo::CityId, bb_workload::PrefixId), Vec<ProviderRouteClass>> =
        dataset
            .targets
            .iter()
            .map(|t| {
                (
                    (t.pop, t.prefix),
                    t.routes.iter().map(|r| r.class).collect(),
                )
            })
            .collect();

    // BTreeMap: iteration order feeds CDF construction and float
    // accumulation, so it must not depend on hash state.
    let mut groups: BTreeMap<(bb_geo::CityId, bb_workload::PrefixId), GroupAgg> = BTreeMap::new();
    let mut windows_total = 0u64;
    let mut windows_kept = 0u64;
    for row in &dataset.rows {
        let gate = WindowGate::of(&row.route_median_ms);
        if gate == WindowGate::NoAlternate {
            continue;
        }
        windows_total += 1;
        let WindowGate::Kept { preferred, best_alt } = gate else {
            continue;
        };
        windows_kept += 1;
        let classes = &classes_by_key[&(row.pop, row.prefix)];

        let agg = groups
            .entry((row.pop, row.prefix))
            .or_insert_with(|| GroupAgg {
                window_diffs: Vec::new(),
                preferred: Vec::new(),
                best_alt: Vec::new(),
                volume: 0.0,
                peer_vs_transit: Vec::new(),
                private_vs_public: Vec::new(),
            });
        agg.window_diffs.push(preferred - best_alt);
        agg.preferred.push(preferred);
        agg.best_alt.push(best_alt);
        agg.volume += row.volume;

        // Figure 2 class comparisons within this window.
        let best_of = |pred: &dyn Fn(ProviderRouteClass) -> bool| -> Option<f64> {
            row.route_median_ms
                .iter()
                .zip(classes)
                .filter(|&(&m, &c)| pred(c) && m.is_finite())
                .map(|(&m, _)| m)
                .fold(None, |acc: Option<f64>, m| {
                    Some(acc.map_or(m, |a| a.min(m)))
                })
        };
        let peer = best_of(&|c| {
            matches!(
                c,
                ProviderRouteClass::PrivatePeer | ProviderRouteClass::PublicPeer
            )
        });
        let transit = best_of(&|c| c == ProviderRouteClass::Transit);
        if let (Some(p), Some(t)) = (peer, transit) {
            agg.peer_vs_transit.push(p - t);
        }
        let private = best_of(&|c| c == ProviderRouteClass::PrivatePeer);
        let public = best_of(&|c| c == ProviderRouteClass::PublicPeer);
        if let (Some(pr), Some(pu)) = (private, public) {
            agg.private_vs_public.push(pr - pu);
        }
    }

    // --- Figure 1's point CDF ---
    // Each group's plain median: `quantile_select` gives the bits the
    // bootstrap's `quantile_sorted` point would.
    let point: Vec<(f64, f64)> = groups
        .values()
        .map(|agg| {
            let median = bb_stats::median_unsorted(&agg.window_diffs).expect("non-empty group");
            (median, agg.volume)
        })
        .collect();
    let fig1 = Fig1Point::new(&point, Coverage::new(windows_kept, windows_total))?;

    // --- §3.1.1 episodes ---
    let mut degraded_windows = 0usize;
    let mut degraded_and_alt_degraded = 0usize;
    let mut total_windows = 0usize;
    let mut improvable_windows = 0usize;
    let mut ever_beaten_groups = 0usize;
    let mut persistent_beaters = 0usize;
    for agg in groups.values() {
        let pref_base = bb_stats::median_unsorted(&agg.preferred).expect("non-empty group");
        let alt_base = bb_stats::median_unsorted(&agg.best_alt).expect("non-empty group");

        let mut beat_count = 0usize;
        for i in 0..agg.preferred.len() {
            total_windows += 1;
            let degraded = agg.preferred[i] > pref_base + MEANINGFUL_MS;
            if degraded {
                degraded_windows += 1;
                if agg.best_alt[i] > alt_base + MEANINGFUL_MS {
                    degraded_and_alt_degraded += 1;
                }
            }
            if agg.window_diffs[i] >= MEANINGFUL_MS {
                improvable_windows += 1;
                beat_count += 1;
            }
        }
        if beat_count > 0 {
            ever_beaten_groups += 1;
            if beat_count as f64 >= 0.8 * agg.preferred.len() as f64 {
                persistent_beaters += 1;
            }
        }
    }
    let episodes = Episodes {
        degrade_together: if degraded_windows > 0 {
            degraded_and_alt_degraded as f64 / degraded_windows as f64
        } else {
            0.0
        },
        frac_windows_degraded: degraded_windows as f64 / total_windows.max(1) as f64,
        frac_windows_improvable: improvable_windows as f64 / total_windows.max(1) as f64,
        persistent_beater_fraction: if ever_beaten_groups > 0 {
            persistent_beaters as f64 / ever_beaten_groups as f64
        } else {
            0.0
        },
    };

    Ok(EgressSummary {
        groups,
        fig1,
        episodes,
    })
}

/// Analyze an already-collected spray dataset: [`summarize`], then Fig 1's
/// bootstrap band, Fig 2 and the bandwidth variant.
pub fn analyze(
    scenario: &Scenario,
    spray_cfg: &SprayConfig,
    dataset: SprayDataset,
) -> BbResult<EgressStudy> {
    let EgressSummary {
        groups,
        fig1,
        episodes,
    } = summarize(&dataset)?;
    let coverage = fig1.coverage;

    // --- Figure 1's bootstrap band ---
    // Per-group bootstrap CIs are independent and seeded per (pop, prefix):
    // run them in parallel, in-order.
    let keys: Vec<_> = groups.keys().copied().collect();
    let cis = bb_exec::timing::time("egress:fig1-ci", || {
        bb_exec::par_map(&keys, |_, &(pop, prefix)| {
            bootstrap_median_ci(
                &groups[&(pop, prefix)].window_diffs,
                0.95,
                120,
                scenario.config.seed ^ ((pop.0 as u64) << 32) ^ prefix.0 as u64,
            )
            .expect("non-empty group")
        })
    });
    bb_exec::timing::add_count("kernel:bootstrap:batches", keys.len());
    let band: Vec<(f64, f64, f64)> = groups
        .values()
        .zip(&cis)
        .map(|(agg, ci)| (ci.lower, ci.upper, agg.volume))
        .collect();
    let fig1 = fig1.with_band(&band)?;

    // --- Figure 2 ---
    let collect_class = |f: &dyn Fn(&GroupAgg) -> &Vec<f64>| -> Option<Cdf> {
        let pts: Vec<(f64, f64)> = groups
            .values()
            .filter(|g| !f(g).is_empty())
            .map(|g| {
                let med = bb_stats::quantile_unsorted(f(g), 0.5).expect("non-empty class");
                (med, g.volume)
            })
            .collect();
        Cdf::from_weighted(&pts)
    };
    let peer_vs_transit = collect_class(&|g| &g.peer_vs_transit);
    let private_vs_public = collect_class(&|g| &g.private_vs_public);
    // "Similar performance" = |median diff| within 2 ms, or the less
    // preferred class outright better (diff > 0).
    let similar = |c: &Cdf| 1.0 - c.fraction_leq(-2.0 - 1e-9);
    let frac_transit_close = peer_vs_transit.as_ref().map(similar).unwrap_or(0.0);
    let frac_public_close = private_vs_public.as_ref().map(similar).unwrap_or(0.0);
    let fig2 = Fig2 {
        peer_vs_transit,
        private_vs_public,
        frac_transit_close,
        frac_public_close,
        coverage,
    };

    // --- Bandwidth variant (§3.1: "qualitatively similar results"). ---
    // Goodput over each route from its median MinRTT and egress
    // utilization; a group counts as bandwidth-improvable if the best
    // alternate's median goodput beats BGP's by ≥10 %.
    let mut bw_points = Vec::new();
    {
        let mut per_group: BTreeMap<(bb_geo::CityId, bb_workload::PrefixId), (Vec<f64>, f64)> =
            BTreeMap::new();
        for row in &dataset.rows {
            // goodput_mbps asserts rtt > 0, so degraded (NaN) medians must
            // be filtered before the call, not after: Fig 1's gate keeps
            // only windows whose preferred route and some alternate survived.
            if !matches!(WindowGate::of(&row.route_median_ms), WindowGate::Kept { .. }) {
                continue;
            }
            let gp = |i: usize| {
                bb_netsim::goodput_mbps(row.route_median_ms[i], row.route_util[i], 200.0)
            };
            let bgp = gp(0);
            let best_alt = (1..row.route_median_ms.len())
                .filter(|&i| row.route_median_ms[i].is_finite())
                .map(gp)
                .fold(f64::NEG_INFINITY, f64::max);
            let entry = per_group
                .entry((row.pop, row.prefix))
                .or_insert((Vec::new(), 0.0));
            entry.0.push(best_alt / bgp.max(1e-9));
            entry.1 += row.volume;
        }
        for (mut ratios, volume) in per_group.into_values() {
            let med = bb_stats::quantile_select(&mut ratios, 0.5);
            bw_points.push((med, volume));
        }
    }
    let total_bw: f64 = bw_points.iter().map(|&(_, w)| w).sum();
    let bandwidth_improvable = bw_points
        .iter()
        .filter(|&&(r, _)| r >= 1.10)
        .map(|&(_, w)| w)
        .sum::<f64>()
        / total_bw.max(1e-12);

    let _ = spray_cfg;
    Ok(EgressStudy {
        fig1,
        fig2,
        episodes,
        bandwidth_improvable,
        dataset,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{Scale, ScenarioConfig};

    fn quick_study() -> EgressStudy {
        let scenario = Scenario::build(ScenarioConfig::facebook(3, Scale::Test));
        let cfg = SprayConfig {
            days: 1.0,
            window_stride: 8,
            sessions_per_window: 5,
            ..Default::default()
        };
        run(&scenario, &cfg).expect("fault-free study succeeds")
    }

    #[test]
    fn fig1_has_paper_shape() {
        let s = quick_study();
        // Core claim: BGP good for the vast majority of traffic.
        assert!(
            s.fig1.frac_bgp_good > 0.7,
            "BGP within 1ms-or-better for only {:.2}",
            s.fig1.frac_bgp_good
        );
        // Improvable tail exists but is small.
        assert!(
            s.fig1.frac_improvable_5ms < 0.25,
            "improvable {:.2} too large",
            s.fig1.frac_improvable_5ms
        );
        assert!(s.fig1.groups > 50);
    }

    #[test]
    fn ci_band_brackets_point_estimate() {
        let s = quick_study();
        // At any x, lower-bound CDF ≥ point CDF ≥ upper-bound CDF (stochastic
        // ordering: lower bounds are smaller values).
        for x in [-5.0, -1.0, 0.0, 1.0, 5.0] {
            let lo = s.fig1.ci_lower.fraction_leq(x);
            let pt = s.fig1.diff.fraction_leq(x);
            let hi = s.fig1.ci_upper.fraction_leq(x);
            assert!(lo >= pt - 1e-9, "at {x}: lower {lo} < point {pt}");
            assert!(pt >= hi - 1e-9, "at {x}: point {pt} < upper {hi}");
        }
    }

    #[test]
    fn fig2_exists_and_is_concentrated() {
        let s = quick_study();
        let c = s.fig2.peer_vs_transit.as_ref().expect("peer/transit data");
        // Distribution should be concentrated near zero: most mass in ±10ms.
        let central = c.fraction_leq(10.0) - c.fraction_leq(-10.0 - 1e-9);
        assert!(central > 0.6, "only {central:.2} within ±10ms");
    }

    #[test]
    fn episode_analysis_fractions_in_range() {
        let s = quick_study();
        for v in [
            s.episodes.degrade_together,
            s.episodes.frac_windows_degraded,
            s.episodes.frac_windows_improvable,
            s.episodes.persistent_beater_fraction,
        ] {
            assert!((0.0..=1.0).contains(&v));
        }
        // First §3.1.1 observation: degradations are substantially
        // correlated across a destination's routes.
        assert!(
            s.episodes.degrade_together > 0.2,
            "degrade-together {:.3}",
            s.episodes.degrade_together
        );
        // Third observation: persistent beaters exist among the alternates
        // that ever beat BGP.
        assert!(s.episodes.persistent_beater_fraction > 0.0);
    }

    #[test]
    fn bandwidth_results_qualitatively_match_latency() {
        // §3.1: similar story for bandwidth — only a small fraction of
        // traffic has a meaningfully better alternate.
        let s = quick_study();
        assert!(
            s.bandwidth_improvable < 0.25,
            "bandwidth improvable {:.2}",
            s.bandwidth_improvable
        );
    }

    #[test]
    fn faulted_study_flags_partial_coverage_and_keeps_shape() {
        let mut config = ScenarioConfig::facebook(3, Scale::Test);
        config.faults = Some(bb_netsim::FaultConfig::light());
        let scenario = Scenario::build(config);
        let cfg = SprayConfig {
            days: 1.0,
            window_stride: 8,
            sessions_per_window: 5,
            ..Default::default()
        };
        let s = run(&scenario, &cfg).expect("light faults leave enough data");
        assert!(
            s.fig1.coverage.is_partial(),
            "light churn must drop some windows: {:?}",
            s.fig1.coverage
        );
        assert!(s.fig1.coverage.fraction() > 0.8, "{:?}", s.fig1.coverage);
        assert!(s.fig1.render().contains("partial data"));
        // The paper's headline survives realistic data loss.
        assert!(s.fig1.frac_bgp_good > 0.7, "{:.2}", s.fig1.frac_bgp_good);
        assert!(
            s.fig1.frac_improvable_5ms < 0.25,
            "{:.2}",
            s.fig1.frac_improvable_5ms
        );
    }

    #[test]
    fn renders_do_not_panic() {
        let s = quick_study();
        assert!(s.fig1.render().contains("Figure 1"));
        assert!(s.fig2.render().contains("Figure 2"));
        assert!(s.episodes.render().contains("episodes"));
    }
}
