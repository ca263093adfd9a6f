//! Speedchecker-style vantage-point probing (§2.3.3, §3.3).
//!
//! "Our credits allow us to issue one traceroute and five pings to each of
//! the VMs 10 times a day from 800 vantage points, which we select daily to
//! rotate across ⟨City, AS⟩ locations over time." Each probe records the
//! min-of-5-pings RTT to the Premium- and Standard-tier VMs and a
//! traceroute-derived provider-ingress city.

use crate::{Sampler, TaskScratch};
use bb_cdn::{Provider, Tier, TierDeployment};
use bb_geo::{CityId, CountryIdx};
use bb_netsim::{CongestionKey, CongestionModel, FaultPlane, PathPlanBatch, SimTime};
use bb_topology::{AsClass, AsId, Topology};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Probe campaign configuration.
#[derive(Debug, Clone)]
pub struct ProbeConfig {
    pub seed: u64,
    /// Probe rounds (the paper's campaign: 10/day for 10 months; scale this
    /// down while keeping day-time coverage).
    pub rounds: usize,
    /// Hours between rounds (co-prime with 24 sweeps the clock).
    pub round_spacing_h: f64,
    /// Pings per probe (paper: 5; we take the min).
    pub pings: usize,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        Self {
            seed: 0x_5eed_cafe,
            rounds: 20,
            round_spacing_h: 5.0,
            pings: 5,
        }
    }
}

/// One ⟨City, AS⟩ vantage point.
#[derive(Debug, Clone)]
pub struct VantagePoint {
    pub asn: AsId,
    pub city: CityId,
    pub country: CountryIdx,
    /// APNIC-style user weight (millions) for aggregation.
    pub users_m: f64,
}

/// One probe result for one tier.
#[derive(Debug, Clone)]
pub struct TierProbe {
    pub vp_index: usize,
    pub tier: Tier,
    pub time: SimTime,
    /// Min of the round's pings, ms. `NaN` when the round was lost to the
    /// fault plane (all pings lost/timed out, or route withdrawn).
    pub rtt_ms: f64,
    /// Traceroute-inferred provider ingress.
    pub ingress_city: CityId,
    /// Distance from the VP to the ingress, km (the §3.3 "enter within
    /// 400 km" statistic).
    pub ingress_distance_km: f64,
    /// Intermediate ASes between the VP's AS and the provider.
    pub intermediate_ases: usize,
}

/// Enumerate ⟨City, AS⟩ vantage points over all eyeball ASes, shuffled
/// deterministically (the daily rotation).
pub fn select_vantage_points(topo: &Topology, seed: u64) -> Vec<VantagePoint> {
    let mut vps = Vec::new();
    for eye in topo.ases_of_class(AsClass::Eyeball) {
        let country = eye.home_country.expect("eyeballs have home countries");
        for &city in &eye.footprint {
            let users_m = topo.atlas.city_users_m(city) * eye.user_share;
            if users_m <= 0.0 {
                continue;
            }
            vps.push(VantagePoint {
                asn: eye.id,
                city,
                country,
                users_m,
            });
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    vps.shuffle(&mut rng);
    vps
}

/// Probe both tiers from every vantage point across the campaign rounds.
pub fn probe_tiers(
    topo: &Topology,
    provider: &Provider,
    premium: &TierDeployment,
    standard: &TierDeployment,
    vps: &[VantagePoint],
    congestion: &CongestionModel,
    faults: Option<&FaultPlane>,
    cfg: &ProbeConfig,
) -> Vec<TierProbe> {
    let (probes, tally) =
        probe_tiers_tallied(topo, provider, premium, standard, vps, congestion, faults, cfg);
    if faults.is_some() {
        crate::publish_faults(&tally);
    }
    probes
}

/// [`probe_tiers`], returning the campaign's fault tally instead of
/// publishing it.
fn probe_tiers_tallied(
    topo: &Topology,
    provider: &Provider,
    premium: &TierDeployment,
    standard: &TierDeployment,
    vps: &[VantagePoint],
    congestion: &CongestionModel,
    faults: Option<&FaultPlane>,
    cfg: &ProbeConfig,
) -> (Vec<TierProbe>, crate::FaultTally) {
    let times = (0..cfg.rounds)
        .map(|round| SimTime::from_hours(round as f64 * cfg.round_spacing_h))
        .collect();
    let sampler = Sampler::new(times, faults, cfg.pings);

    // One task per vantage point; the draws are keyed on (seed, vp index,
    // round, tier), so output is identical for every worker count, and the
    // in-order flatten reproduces the sequential vp-major row order.
    let per_vp = bb_exec::par_map(vps, |vi, vp| {
        let mut out = Vec::new();
        let mut task = TaskScratch::default();
        let lastmile = CongestionKey::LastMile(0x_caa0_0000 | vi as u64);
        let tiers: Vec<_> = [(Tier::Premium, premium), (Tier::Standard, standard)]
            .into_iter()
            .filter_map(|(tier, dep)| Some((tier, dep.reach(topo, provider, vp.asn, vp.city)?)))
            .collect();
        // Compile the tier paths once; rounds query the batch.
        let paths = tiers.iter().map(|(_, tp)| (&tp.path, Some(lastmile), None));
        let batch = PathPlanBatch::compile(topo, congestion, paths);
        // Fault-free, every probe comes from one kernel call: one cell per
        // (tier, round), tier-major, of one session.
        let mut fault_free = Vec::new();
        if faults.is_none() {
            let seeds: Vec<u64> = tiers
                .iter()
                .flat_map(|&(tier, _)| {
                    (0..cfg.rounds).map(move |round| {
                        cfg.seed ^ (vi as u64) << 24 ^ (round as u64) << 2 ^ tier as u64
                    })
                })
                .collect();
            let det = |c, _| {
                let (r, round) = (c / cfg.rounds, c % cfg.rounds);
                sampler.det(&batch, r, round, 0) + 2.0 * tiers[r].1.wan_ms
            };
            sampler.session_rtts(&mut task, &seeds, 1, det, &mut fault_free);
        }
        for (r, (tier, tp)) in tiers.iter().enumerate() {
            let ingress_distance_km = topo
                .atlas
                .city(tp.entry_city)
                .location
                .distance_km(&topo.atlas.city(vp.city).location);
            // Churn per ⟨VP, tier⟩ route, resolved once; loss per round.
            // Lost rounds are emitted as NaN so the analysis can count
            // coverage per vantage point.
            let route_key = FaultPlane::stream_key(&[vi as u64, *tier as u64]);
            let churn = faults.map(|fp| (fp, fp.route_churn(route_key)));
            for round in 0..cfg.rounds {
                let t = sampler.time(round);
                let rtt_ms = match &churn {
                    None => fault_free[r * cfg.rounds + round],
                    Some((_, churn)) if churn.withdrawn_at(t) => {
                        task.faults.lost += 1;
                        f64::NAN
                    }
                    Some((fp, _)) => {
                        let probe_key = FaultPlane::stream_key(&[route_key, round as u64]);
                        let probes = [(probe_key, cfg.seed ^ probe_key)];
                        let extras = [2.0 * tp.wan_ms];
                        let (rtt, _) =
                            sampler.faulted(fp, &mut task, (&batch, r, round), &extras, probes, 1);
                        rtt.unwrap_or(f64::NAN)
                    }
                };
                out.push(TierProbe {
                    vp_index: vi,
                    tier: *tier,
                    time: t,
                    rtt_ms,
                    ingress_city: tp.entry_city,
                    ingress_distance_km,
                    intermediate_ases: tp.intermediate_ases,
                });
                crate::progress::window_done();
            }
        }
        (out, task.faults, task.kernel)
    });
    let mut tally = crate::FaultTally::default();
    let mut ktally = crate::KernelTally::default();
    let mut probes: Vec<TierProbe> = Vec::new();
    for (vp_probes, vp_tally, vp_ktally) in per_vp {
        probes.extend(vp_probes);
        tally.merge(vp_tally);
        ktally.merge(vp_ktally);
    }
    ktally.publish("probe");
    bb_exec::timing::add_count("samples:probe", probes.len() * cfg.pings);
    (probes, tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_cdn::{build_provider, ProviderConfig};
    use bb_netsim::CongestionConfig;
    use bb_topology::{generate, TopologyConfig};

    fn campaign() -> (Topology, Provider, Vec<VantagePoint>, Vec<TierProbe>) {
        let mut topo = generate(&TopologyConfig::small(101));
        let provider = build_provider(&mut topo, &ProviderConfig::google_like(10));
        let (us, _) = bb_geo::country::by_code("US").unwrap();
        let us_metro = topo.atlas.main_metro(us).id;
        let dc = if provider.has_pop(us_metro) {
            us_metro
        } else {
            provider.pops[0]
        };
        let premium = TierDeployment::deploy(&topo, &provider, dc, Tier::Premium);
        let standard = TierDeployment::deploy(&topo, &provider, dc, Tier::Standard);
        let vps = select_vantage_points(&topo, 7);
        let congestion = CongestionModel::new(10, CongestionConfig::default());
        let cfg = ProbeConfig {
            rounds: 3,
            ..Default::default()
        };
        let probes = probe_tiers(
            &topo, &provider, &premium, &standard, &vps, &congestion, None, &cfg,
        );
        (topo, provider, vps, probes)
    }

    #[test]
    fn vantage_points_span_many_countries() {
        let (topo, _, vps, _) = campaign();
        let countries: std::collections::HashSet<_> = vps.iter().map(|v| v.country).collect();
        assert!(countries.len() >= topo.atlas.countries.len() / 2);
    }

    #[test]
    fn both_tiers_probed() {
        let (_, _, _, probes) = campaign();
        let prem = probes.iter().filter(|p| p.tier == Tier::Premium).count();
        let std_ = probes.iter().filter(|p| p.tier == Tier::Standard).count();
        assert!(prem > 0 && std_ > 0);
    }

    #[test]
    fn standard_ingress_is_at_datacenter_distance() {
        // Standard-tier probes must enter at the DC, so their ingress
        // distance equals VP→DC distance — usually far.
        let (_, _, _, probes) = campaign();
        let std_far = probes
            .iter()
            .filter(|p| p.tier == Tier::Standard && p.ingress_distance_km > 400.0)
            .count();
        let std_total = probes.iter().filter(|p| p.tier == Tier::Standard).count();
        assert!(std_far * 10 >= std_total * 6, "{std_far}/{std_total}");
    }

    #[test]
    fn premium_ingress_close_more_often_than_standard() {
        let (_, _, _, probes) = campaign();
        let frac_close = |tier: Tier| {
            let (close, total) = probes.iter().filter(|p| p.tier == tier).fold(
                (0usize, 0usize),
                |(c, t), p| {
                    (c + usize::from(p.ingress_distance_km <= 400.0), t + 1)
                },
            );
            close as f64 / total.max(1) as f64
        };
        assert!(
            frac_close(Tier::Premium) > frac_close(Tier::Standard),
            "premium {:.2} vs standard {:.2}",
            frac_close(Tier::Premium),
            frac_close(Tier::Standard)
        );
    }

    #[test]
    fn rtts_are_sane() {
        let (_, _, _, probes) = campaign();
        for p in &probes {
            assert!(p.rtt_ms > 0.0 && p.rtt_ms < 2000.0, "{}", p.rtt_ms);
        }
    }

    #[test]
    fn deterministic() {
        let (_, _, _, a) = campaign();
        let (_, _, _, b) = campaign();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.rtt_ms, y.rtt_ms);
        }
    }

    #[test]
    fn faulted_probes_emit_nan_for_lost_rounds() {
        use bb_netsim::{FaultConfig, FaultPlane};
        let mut topo = generate(&TopologyConfig::small(101));
        let provider = build_provider(&mut topo, &ProviderConfig::google_like(10));
        let dc = provider.pops[0];
        let premium = TierDeployment::deploy(&topo, &provider, dc, Tier::Premium);
        let standard = TierDeployment::deploy(&topo, &provider, dc, Tier::Standard);
        let vps = select_vantage_points(&topo, 7);
        let congestion = CongestionModel::new(10, CongestionConfig::default());
        let cfg = ProbeConfig {
            rounds: 3,
            ..Default::default()
        };
        let plane = FaultPlane::new(
            33,
            FaultConfig {
                probe_loss: 0.40,
                max_retries: 0,
                ..FaultConfig::heavy()
            },
        );
        let probes = probe_tiers(
            &topo, &provider, &premium, &standard, &vps, &congestion, Some(&plane), &cfg,
        );
        let lost = probes.iter().filter(|p| p.rtt_ms.is_nan()).count();
        let kept = probes.len() - lost;
        assert!(lost > 0, "40% loss with no retry must drop some rounds");
        assert!(kept > lost, "most rounds survive");
        for p in probes.iter().filter(|p| !p.rtt_ms.is_nan()) {
            assert!(p.rtt_ms > 0.0 && p.rtt_ms < 2000.0);
        }
    }

    /// The scalar oracle of a tier campaign: per row, the tier path through
    /// the reference walk plus the WAN extra, churn and `faulted_attempts`
    /// per round, each attempt's MinRTT through `sample_min_rtt`. Returns
    /// the RTTs, the fault tally, and the highest attempt index any probe
    /// reached.
    fn probe_oracle(
        (topo, provider, congestion): (&Topology, &Provider, &CongestionModel),
        (premium, standard): (&TierDeployment, &TierDeployment),
        vps: &[VantagePoint],
        rows: &[TierProbe],
        faults: Option<&FaultPlane>,
        cfg: &ProbeConfig,
    ) -> (Vec<f64>, crate::FaultTally, u32) {
        use bb_netsim::reference::{path_rtt_ms, sample_min_rtt};
        use bb_netsim::RttModel;
        let rm = RttModel::default();
        let mut tally = crate::FaultTally::default();
        let mut deepest = 0;
        let mut want = Vec::new();
        for chunk in rows.chunks(cfg.rounds) {
            assert_eq!(chunk.len(), cfg.rounds, "every reachable tier is probed every round");
            let (vi, tier) = (chunk[0].vp_index, chunk[0].tier);
            let vp = &vps[vi];
            let dep = match tier {
                Tier::Premium => premium,
                Tier::Standard => standard,
            };
            let tp = dep.reach(topo, provider, vp.asn, vp.city).unwrap();
            let lastmile = Some(CongestionKey::LastMile(0x_caa0_0000 | vi as u64));
            let det = |t: SimTime| {
                path_rtt_ms(topo, congestion, &tp.path, lastmile, t) + 2.0 * tp.wan_ms
            };
            let route_key = FaultPlane::stream_key(&[vi as u64, tier as u64]);
            for (round, row) in chunk.iter().enumerate() {
                assert_eq!((row.vp_index, row.tier), (vi, tier));
                let t = SimTime::from_hours(round as f64 * cfg.round_spacing_h);
                assert_eq!(row.time, t);
                want.push(match faults {
                    None => {
                        let mut rng = StdRng::seed_from_u64(
                            cfg.seed ^ (vi as u64) << 24 ^ (round as u64) << 2 ^ tier as u64,
                        );
                        sample_min_rtt(det(t), &rm, cfg.pings, &mut rng)
                    }
                    Some(fp) if fp.route_churn(route_key).withdrawn_at(t) => {
                        tally.lost += 1;
                        f64::NAN
                    }
                    Some(fp) => {
                        let probe_key = FaultPlane::stream_key(&[route_key, round as u64]);
                        crate::faulted_attempts(fp, probe_key, &mut tally, |attempt| {
                            deepest = deepest.max(attempt);
                            let ta = t + attempt as f64 * fp.config().retry_backoff_min;
                            let seed = bb_exec::derive_seed(cfg.seed ^ probe_key, attempt as u64);
                            sample_min_rtt(det(ta), &rm, cfg.pings, &mut StdRng::seed_from_u64(seed))
                        })
                        .unwrap_or(f64::NAN)
                    }
                });
            }
        }
        (want, tally, deepest)
    }

    #[test]
    fn tier_probes_match_the_scalar_oracle() {
        use bb_netsim::FaultConfig;
        let mut topo = generate(&TopologyConfig::small(101));
        let provider = build_provider(&mut topo, &ProviderConfig::google_like(10));
        let dc = provider.pops[0];
        let premium = TierDeployment::deploy(&topo, &provider, dc, Tier::Premium);
        let standard = TierDeployment::deploy(&topo, &provider, dc, Tier::Standard);
        let vps = select_vantage_points(&topo, 7);
        let congestion = CongestionModel::new(10, CongestionConfig::default());
        // Heavy never times out on this world, so the last config forces
        // timeouts and a second retry.
        let timeouts = FaultConfig {
            max_retries: 2,
            timeout_ms: 70.0,
            ..FaultConfig::heavy()
        };
        // 17 rounds per tier span whole lane groups of cells and a remainder.
        for rounds in [6, 17] {
            let cfg = ProbeConfig {
                rounds,
                ..Default::default()
            };
            for (name, fc) in [
                ("off", None),
                ("light", Some(FaultConfig::light())),
                ("heavy", Some(FaultConfig::heavy())),
                ("timeouts", Some(timeouts.clone())),
            ] {
                let plane = fc.map(|fc| FaultPlane::new(5, fc));
                let (rows, got_tally) = probe_tiers_tallied(
                    &topo, &provider, &premium, &standard, &vps, &congestion, plane.as_ref(),
                    &cfg,
                );
                let (want, want_tally, deepest) = probe_oracle(
                    (&topo, &provider, &congestion),
                    (&premium, &standard),
                    &vps,
                    &rows,
                    plane.as_ref(),
                    &cfg,
                );
                assert!(rows.len() > 100, "{name}, {rounds} rounds: {} rows", rows.len());
                assert_eq!(got_tally, want_tally, "{name}, {rounds} rounds: fault tally");
                let bits =
                    |v: &mut dyn Iterator<Item = f64>| v.map(f64::to_bits).collect::<Vec<_>>();
                assert_eq!(
                    bits(&mut rows.iter().map(|r| r.rtt_ms)),
                    bits(&mut want.iter().copied()),
                    "{name}, {rounds} rounds: RTTs"
                );
                match name {
                    "off" => assert_eq!(want_tally, crate::FaultTally::default()),
                    _ => assert!(
                        want_tally.lost > 0 && want_tally.retries > 0,
                        "{name}, {rounds} rounds: {want_tally:?}"
                    ),
                }
                if name == "timeouts" {
                    assert!(want_tally.timeouts > 0, "the low timeout must fire");
                    assert_eq!(deepest, 2, "some probe must reach its second retry");
                    assert!(
                        rows.iter().any(|r| r.rtt_ms.is_finite()),
                        "some probes must survive the timeout"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod traceroute_tests {
    use super::*;
    use bb_cdn::{build_provider, ProviderConfig, TierDeployment};
    use bb_topology::generate;
    use bb_topology::TopologyConfig;

    /// The probe's inferred ingress must agree with the traceroute view:
    /// the first hop owned by the provider sits at the ingress city.
    #[test]
    fn ingress_matches_traceroute_first_provider_hop() {
        let mut topo = generate(&TopologyConfig::small(107));
        let provider = build_provider(&mut topo, &ProviderConfig::google_like(11));
        let dc = provider.pops[0];
        let prem = TierDeployment::deploy(&topo, &provider, dc, Tier::Premium);
        let mut checked = 0;
        for eye in topo.ases_of_class(AsClass::Eyeball).take(25) {
            let Some(tp) = prem.reach(&topo, &provider, eye.id, eye.footprint[0]) else {
                continue;
            };
            let hops = tp.path.traceroute(&topo);
            let first_provider_hop = hops
                .iter()
                .find(|h| h.owner == provider.asn)
                .expect("path enters the provider");
            assert_eq!(
                first_provider_hop.city, tp.entry_city,
                "traceroute ingress disagrees with reach()"
            );
            // Hop latencies are non-decreasing and start at zero.
            assert_eq!(hops[0].one_way_ms, 0.0);
            for w in hops.windows(2) {
                assert!(w[1].one_way_ms >= w[0].one_way_ms);
            }
            checked += 1;
        }
        assert!(checked > 10, "checked only {checked}");
    }
}
