//! Figure data types and rendering.
//!
//! One struct per paper figure, each carrying both the distribution data
//! and the headline statistics the paper quotes in prose, plus a `render`
//! method producing the ASCII chart the `repro` binary prints.

use bb_stats::render::{render_bar_table, render_ccdfs, render_cdfs};
use bb_stats::{Ccdf, Cdf};

/// How much of a figure's input survived the measurement fault plane.
///
/// `Default` (`0/0`) means coverage was not tracked — a fault-free run —
/// and renders nothing, so pre-fault output stays byte-identical. A figure
/// built from degraded inputs carries `kept < total` and renders a one-line
/// partial-data annotation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Coverage {
    /// Inputs (windows, beacons, probes) that survived and were used.
    pub kept: u64,
    /// Inputs the campaign attempted.
    pub total: u64,
}

impl Coverage {
    pub fn new(kept: u64, total: u64) -> Self {
        Self { kept, total }
    }

    /// Fraction of inputs kept; `1.0` when untracked.
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.kept as f64 / self.total as f64
        }
    }

    /// True when some inputs were lost (tracked and incomplete).
    pub fn is_partial(&self) -> bool {
        self.total > 0 && self.kept < self.total
    }

    /// The render line for partial figures; `None` at full coverage.
    pub fn annotation(&self) -> Option<String> {
        self.is_partial().then(|| {
            format!(
                "  [partial data: {}/{} inputs kept ({:.1}% coverage)]\n",
                self.kept,
                self.total,
                self.fraction() * 100.0
            )
        })
    }
}

/// Figure 1: CDF (by traffic volume) of median MinRTT difference,
/// BGP-preferred − best alternate, with the confidence-interval band.
#[derive(Debug, Clone)]
pub struct Fig1 {
    /// Point-estimate CDF.
    pub diff: Cdf,
    /// CDFs of the per-group CI bounds (the shaded band).
    pub ci_lower: Cdf,
    pub ci_upper: Cdf,
    /// Traffic fraction where an alternate improves median MinRTT by ≥5 ms
    /// (paper: 2–4%).
    pub frac_improvable_5ms: f64,
    /// Traffic fraction where BGP is within 1 ms of the best alternate or
    /// better (paper: "the vast majority").
    pub frac_bgp_good: f64,
    /// Number of ⟨PoP, prefix⟩ groups in the analysis.
    pub groups: usize,
    /// Fraction of spray windows that survived the fault plane.
    pub coverage: Coverage,
}

impl Fig1 {
    pub fn render(&self) -> String {
        let mut s = render_cdfs(
            "Figure 1: median MinRTT difference [BGP - best alternate] (CDF of traffic)",
            "Median MinRTT Difference (ms); >0 means alternate is better",
            &[
                ("point estimate", &self.diff),
                ("CI lower", &self.ci_lower),
                ("CI upper", &self.ci_upper),
            ],
            (-10.0, 10.0),
        );
        s.push_str(&format!(
            "  groups={}  improvable by >=5ms: {:.1}% of traffic  BGP within 1ms-or-better: {:.1}%\n",
            self.groups,
            self.frac_improvable_5ms * 100.0,
            self.frac_bgp_good * 100.0
        ));
        if let Some(note) = self.coverage.annotation() {
            s.push_str(&note);
        }
        s
    }
}

/// Figure 2: peer vs transit and private vs public peering differences.
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// Best-peer − best-transit median difference CDF (by traffic).
    pub peer_vs_transit: Option<Cdf>,
    /// Best-private − best-public median difference CDF (by traffic).
    pub private_vs_public: Option<Cdf>,
    /// Traffic fraction where transit is within 2 ms of peering.
    pub frac_transit_close: f64,
    /// Traffic fraction where public peering is within 2 ms of private.
    pub frac_public_close: f64,
    /// Fraction of spray windows that survived the fault plane.
    pub coverage: Coverage,
}

impl Fig2 {
    pub fn render(&self) -> String {
        let mut series: Vec<(&str, &Cdf)> = Vec::new();
        if let Some(c) = &self.peer_vs_transit {
            series.push(("Peering vs Transit", c));
        }
        if let Some(c) = &self.private_vs_public {
            series.push(("Private vs Public", c));
        }
        let mut s = render_cdfs(
            "Figure 2: route-class performance differences (CDF of traffic)",
            "Median Minimum RTT Difference (ms)",
            &series,
            (-10.0, 10.0),
        );
        s.push_str(&format!(
            "  transit within 2ms of peering: {:.1}%   public within 2ms of private: {:.1}%\n",
            self.frac_transit_close * 100.0,
            self.frac_public_close * 100.0
        ));
        if let Some(note) = self.coverage.annotation() {
            s.push_str(&note);
        }
        s
    }
}

/// §3.1.1 episode analysis.
#[derive(Debug, Clone)]
pub struct Episodes {
    /// Fraction of degraded windows (preferred route much worse than its
    /// own baseline) where the best alternate degraded too.
    pub degrade_together: f64,
    /// Fraction of windows where BGP's route is degraded vs baseline.
    pub frac_windows_degraded: f64,
    /// Fraction of windows where an alternate beats BGP by ≥5 ms.
    pub frac_windows_improvable: f64,
    /// Among ⟨PoP,prefix⟩ groups whose alternate ever beats BGP by ≥5 ms,
    /// the fraction where it does so in ≥80% of windows ("consistently
    /// better all the time").
    pub persistent_beater_fraction: f64,
}

impl Episodes {
    pub fn render(&self) -> String {
        format!(
            "S3.1.1 episodes: degraded windows: {:.1}%  improvable windows: {:.1}%\n  \
             alternates degrade together with BGP: {:.0}% of degraded windows\n  \
             beating alternates that are persistent: {:.0}%\n",
            self.frac_windows_degraded * 100.0,
            self.frac_windows_improvable * 100.0,
            self.degrade_together * 100.0,
            self.persistent_beater_fraction * 100.0
        )
    }
}

/// Figure 3: CCDF of anycast − best unicast, by region.
#[derive(Debug, Clone)]
pub struct Fig3 {
    pub world: Ccdf,
    pub europe: Option<Ccdf>,
    pub united_states: Option<Ccdf>,
    /// Fraction of requests with anycast within 10 ms of best unicast
    /// (paper: ~70%).
    pub frac_within_10ms: f64,
    /// Fraction of requests where best unicast is ≥100 ms faster
    /// (paper: ~10%).
    pub frac_gt_100ms: f64,
    /// Fraction of beacon measurements that survived the fault plane.
    pub coverage: Coverage,
}

impl Fig3 {
    pub fn render(&self) -> String {
        let mut series: Vec<(&str, &Ccdf)> = vec![("World", &self.world)];
        if let Some(c) = &self.europe {
            series.push(("Europe", c));
        }
        if let Some(c) = &self.united_states {
            series.push(("United States", c));
        }
        let mut s = render_ccdfs(
            "Figure 3: anycast minus best unicast (CCDF of requests)",
            "Performance difference between anycast and best unicast (ms)",
            &series,
            (0.0, 100.0),
        );
        s.push_str(&format!(
            "  anycast within 10ms of best unicast: {:.1}%   best unicast >=100ms faster: {:.1}%\n",
            self.frac_within_10ms * 100.0,
            self.frac_gt_100ms * 100.0
        ));
        if let Some(note) = self.coverage.annotation() {
            s.push_str(&note);
        }
        s
    }
}

/// Figure 4: improvement of the LDNS-predicted scheme over anycast.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// CDF over weighted prefixes of (anycast − predicted) at the median.
    pub median_improvement: Cdf,
    /// Same at the 75th percentile.
    pub p75_improvement: Cdf,
    /// Fraction of (weighted) queries improved at the median (paper: 27%).
    pub frac_improved: f64,
    /// Fraction made worse (paper: 17%).
    pub frac_worse: f64,
    /// Fraction of beacon measurements that survived the fault plane.
    pub coverage: Coverage,
}

impl Fig4 {
    pub fn render(&self) -> String {
        let mut s = render_cdfs(
            "Figure 4: DNS-redirection improvement over anycast (CDF of weighted prefixes)",
            "Improvement (ms); >0 means prediction beat anycast",
            &[
                ("Median", &self.median_improvement),
                ("75th", &self.p75_improvement),
            ],
            (-100.0, 100.0),
        );
        s.push_str(&format!(
            "  improved (median): {:.1}%   worse than anycast: {:.1}%\n",
            self.frac_improved * 100.0,
            self.frac_worse * 100.0
        ));
        if let Some(note) = self.coverage.annotation() {
            s.push_str(&note);
        }
        s
    }
}

/// One country row of Figure 5.
#[derive(Debug, Clone)]
pub struct CountryDiff {
    pub code: &'static str,
    pub name: &'static str,
    pub region: bb_geo::Region,
    /// Median(Standard RTT) − median(Premium RTT), ms. Positive = Premium
    /// (private WAN) better.
    pub median_diff_ms: f64,
    pub vantage_points: usize,
    pub users_m: f64,
}

/// Figure 5 plus the §3.3 in-text ingress statistics.
#[derive(Debug, Clone)]
pub struct Fig5 {
    pub rows: Vec<CountryDiff>,
    /// Fraction of Premium traceroutes entering the provider within 400 km
    /// of the VP (paper: 80%).
    pub premium_ingress_within_400km: f64,
    /// Same for Standard (paper: 10%).
    pub standard_ingress_within_400km: f64,
    /// Qualifying vantage points (direct Premium, indirect Standard).
    pub qualifying_vps: usize,
    /// Fraction of probe rounds that survived the fault plane.
    pub coverage: Coverage,
}

impl Fig5 {
    pub fn render(&self) -> String {
        let mut rows: Vec<(String, f64)> = self
            .rows
            .iter()
            .map(|r| (format!("{} ({})", r.name, r.region), r.median_diff_ms))
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut s = render_bar_table(
            "Figure 5: Standard minus Premium median latency per country\n  (positive = private WAN better, negative = public Internet better)",
            &rows,
            "ms",
        );
        s.push_str(&format!(
            "  qualifying VPs: {}   ingress <=400km: premium {:.0}% vs standard {:.0}%\n",
            self.qualifying_vps,
            self.premium_ingress_within_400km * 100.0,
            self.standard_ingress_within_400km * 100.0
        ));
        if let Some(note) = self.coverage.annotation() {
            s.push_str(&note);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_render_contains_stats() {
        let cdf = Cdf::from_values(&[-1.0, 0.0, 1.0]).unwrap();
        let f = Fig1 {
            diff: cdf.clone(),
            ci_lower: cdf.clone(),
            ci_upper: cdf,
            frac_improvable_5ms: 0.03,
            frac_bgp_good: 0.9,
            groups: 42,
            coverage: Coverage::default(),
        };
        let s = f.render();
        assert!(s.contains("3.0%"));
        assert!(s.contains("groups=42"));
    }

    #[test]
    fn fig5_render_sorts_and_labels() {
        let f = Fig5 {
            rows: vec![
                CountryDiff {
                    code: "IN",
                    name: "India",
                    region: bb_geo::Region::SouthAsia,
                    median_diff_ms: -20.0,
                    vantage_points: 5,
                    users_m: 600.0,
                },
                CountryDiff {
                    code: "JP",
                    name: "Japan",
                    region: bb_geo::Region::EastAsia,
                    median_diff_ms: 12.0,
                    vantage_points: 3,
                    users_m: 110.0,
                },
            ],
            premium_ingress_within_400km: 0.8,
            standard_ingress_within_400km: 0.1,
            qualifying_vps: 8,
            coverage: Coverage::default(),
        };
        let s = f.render();
        let japan_pos = s.find("Japan").unwrap();
        let india_pos = s.find("India").unwrap();
        assert!(japan_pos < india_pos, "positive diffs sort first");
        assert!(s.contains("80%"));
    }

    #[test]
    fn episodes_render() {
        let e = Episodes {
            degrade_together: 0.7,
            frac_windows_degraded: 0.1,
            frac_windows_improvable: 0.03,
            persistent_beater_fraction: 0.6,
        };
        let s = e.render();
        assert!(s.contains("70%"));
    }
}
