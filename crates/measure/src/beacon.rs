//! Bing-style client beacons (§2.3.2, §3.2).
//!
//! "This earlier work instrumented millions of Bing search results with
//! JavaScript to measure from the client to both the anycast address and to
//! a number of nearby unicast addresses." Each beacon measurement therefore
//! carries, for one client prefix at one time, the anycast RTT plus the RTT
//! to the N unicast front-ends nearest the client.

use crate::{Sampler, TaskScratch};
use bb_cdn::{AnycastDeployment, Provider};
use bb_geo::{CityId, Region};
use bb_netsim::{CongestionKey, CongestionModel, FaultPlane, PathPlanBatch, SimTime};
use bb_topology::Topology;
use bb_workload::{PrefixId, Workload};
use std::collections::HashMap;

/// Front-end processing time added to every request, ms.
pub const FRONTEND_PROCESS_MS: f64 = 0.5;

/// Beacon campaign configuration.
#[derive(Debug, Clone)]
pub struct BeaconConfig {
    pub seed: u64,
    /// Unicast front-ends measured per client (paper: "a number of nearby
    /// unicast addresses").
    pub n_nearest_unicast: usize,
    /// Measurement rounds (each at a different time of day).
    pub rounds: usize,
    /// Hours between rounds.
    pub round_spacing_h: f64,
    /// Jittered RTT samples per measurement.
    pub samples: usize,
}

impl Default for BeaconConfig {
    fn default() -> Self {
        Self {
            seed: 0x_000b_eac0,
            n_nearest_unicast: 4,
            rounds: 8,
            round_spacing_h: 7.0, // co-prime with 24h: sweeps the day
            samples: 3,
        }
    }
}

/// One beacon observation: a client prefix's side-by-side measurements.
#[derive(Debug, Clone)]
pub struct BeaconMeasurement {
    pub prefix: PrefixId,
    pub weight: f64,
    pub region: Region,
    pub time: SimTime,
    pub anycast_rtt_ms: f64,
    /// Which front-end anycast landed on.
    pub anycast_front_end: CityId,
    /// (site, RTT) for the measured nearby unicast front-ends.
    pub unicast_rtt_ms: Vec<(CityId, f64)>,
}

impl BeaconMeasurement {
    /// RTT of the best measured unicast front-end. Beacons lost to the
    /// fault plane carry `NaN` and are skipped; with *every* unicast beacon
    /// lost this is `NaN` (and the measurement is incomplete).
    pub fn best_unicast_ms(&self) -> f64 {
        bb_stats::min_finite(self.unicast_rtt_ms.iter().map(|&(_, r)| r))
    }

    /// Whether both sides of the comparison survived the fault plane: the
    /// anycast beacon reported and at least one unicast beacon did too.
    pub fn is_complete(&self) -> bool {
        self.anycast_rtt_ms.is_finite() && self.best_unicast_ms().is_finite()
    }

    /// Paper's Fig 3 quantity: anycast − best unicast (positive = anycast
    /// slower). `NaN` when the measurement is incomplete.
    pub fn anycast_penalty_ms(&self) -> f64 {
        self.anycast_rtt_ms - self.best_unicast_ms()
    }
}

/// Run a beacon campaign against an anycast deployment plus per-site
/// unicast deployments.
///
/// `unicast` maps each site to its single-site deployment (built once by
/// the caller; they're reused across rounds and clients).
pub fn run_beacons(
    topo: &Topology,
    provider: &Provider,
    anycast: &AnycastDeployment,
    unicast: &HashMap<CityId, AnycastDeployment>,
    workload: &Workload,
    congestion: &CongestionModel,
    faults: Option<&FaultPlane>,
    cfg: &BeaconConfig,
) -> Vec<BeaconMeasurement> {
    let (measurements, tally) = run_beacons_tallied(
        topo, provider, anycast, unicast, workload, congestion, faults, cfg,
    );
    if faults.is_some() {
        crate::publish_faults(&tally);
    }
    measurements
}

/// [`run_beacons`], returning the campaign's fault tally instead of
/// publishing it.
fn run_beacons_tallied(
    topo: &Topology,
    provider: &Provider,
    anycast: &AnycastDeployment,
    unicast: &HashMap<CityId, AnycastDeployment>,
    workload: &Workload,
    congestion: &CongestionModel,
    faults: Option<&FaultPlane>,
    cfg: &BeaconConfig,
) -> (Vec<BeaconMeasurement>, crate::FaultTally) {
    let times = (0..cfg.rounds)
        .map(|round| SimTime::from_hours(round as f64 * cfg.round_spacing_h))
        .collect();
    let sampler = Sampler::new(times, faults, cfg.samples);

    // One task per prefix; the draws are keyed on (seed, prefix id, round),
    // so output is identical for every worker count, and the in-order
    // flatten reproduces the sequential prefix-major row order.
    let per_prefix = bb_exec::par_map(&workload.prefixes, |_, prefix| {
        let lastmile = CongestionKey::LastMile(prefix.id.lastmile_code());
        // Cache the services once per prefix (routing is static).
        let any_svc = anycast.serve(topo, provider, prefix.asn, prefix.city)?;
        // Nearby sites: by great-circle distance from the client.
        let mut sites: Vec<(CityId, f64)> = anycast
            .sites
            .iter()
            .map(|&s| {
                (
                    s,
                    topo.atlas
                        .city(s)
                        .location
                        .distance_km(&topo.atlas.city(prefix.city).location),
                )
            })
            .collect();
        sites.sort_by(|a, b| a.1.total_cmp(&b.1));
        let uni_svcs: Vec<(CityId, _)> = sites
            .iter()
            .take(cfg.n_nearest_unicast)
            .filter_map(|&(s, _)| {
                unicast
                    .get(&s)
                    .and_then(|dep| dep.serve(topo, provider, prefix.asn, prefix.city))
                    .map(|svc| (s, svc))
            })
            .collect();
        if uni_svcs.is_empty() {
            return None;
        }

        // Compile every front-end's path once, anycast first; rounds then
        // query the batch. `fes` holds each route's front-end tag
        // (u64::MAX = anycast) and WAN extra.
        let svcs = std::iter::once(&any_svc).chain(uni_svcs.iter().map(|(_, svc)| svc));
        let batch = PathPlanBatch::compile(
            topo,
            congestion,
            svcs.map(|svc| (&svc.path, Some(lastmile), None)),
        );
        let fes: Vec<(u64, f64)> = std::iter::once((u64::MAX, any_svc.wan_extra_ms))
            .chain(uni_svcs.iter().map(|(s, svc)| (s.0 as u64, svc.wan_extra_ms)))
            .collect();
        // Beacons lost to the fault plane report NaN; the row is still
        // emitted so analysis can count coverage. Churn is keyed per
        // ⟨prefix, front-end⟩ route and resolved once, loss per ⟨route,
        // round⟩ beacon.
        let churn: Vec<_> = faults.map_or_else(Vec::new, |fp| {
            fes.iter()
                .map(|&(tag, _)| {
                    let key = FaultPlane::stream_key(&[prefix.id.0 as u64, tag]);
                    (key, fp.route_churn(key))
                })
                .collect()
        });

        let mut task = TaskScratch::default();
        // Fault-free, every round's beacons come from one kernel call: one
        // cell per round, one session per front-end, anycast first.
        let mut fault_free = Vec::new();
        if faults.is_none() {
            let seeds: Vec<u64> = (0..cfg.rounds)
                .map(|round| cfg.seed ^ (prefix.id.0 as u64) << 20 ^ round as u64)
                .collect();
            let det = |round, r: usize| {
                sampler.det(&batch, r, round, 0) + 2.0 * fes[r].1 + FRONTEND_PROCESS_MS
            };
            sampler.session_rtts(&mut task, &seeds, fes.len(), det, &mut fault_free);
        }
        let mut rows = Vec::with_capacity(cfg.rounds);
        for round in 0..cfg.rounds {
            let t = sampler.time(round);
            let mut rtts: Vec<f64> = match faults {
                None => fault_free[round * fes.len()..][..fes.len()].to_vec(),
                Some(fp) => (0..fes.len())
                    .map(|r| {
                        let (route_key, churn) = &churn[r];
                        if churn.withdrawn_at(t) {
                            task.faults.lost += 1;
                            return f64::NAN;
                        }
                        let probe_key = FaultPlane::stream_key(&[*route_key, round as u64]);
                        let extras = [2.0 * fes[r].1, FRONTEND_PROCESS_MS];
                        let probes = [(probe_key, cfg.seed ^ probe_key)];
                        let (rtt, _) =
                            sampler.faulted(fp, &mut task, (&batch, r, round), &extras, probes, 1);
                        rtt.unwrap_or(f64::NAN)
                    })
                    .collect(),
            };
            let anycast_rtt_ms = rtts.remove(0);
            rows.push(BeaconMeasurement {
                prefix: prefix.id,
                weight: prefix.weight,
                region: topo.atlas.city(prefix.city).region,
                time: t,
                anycast_rtt_ms,
                anycast_front_end: any_svc.front_end,
                unicast_rtt_ms: uni_svcs.iter().map(|(s, _)| *s).zip(rtts).collect(),
            });
            crate::progress::window_done();
        }
        Some((rows, task.faults, task.kernel))
    });
    let mut tally = crate::FaultTally::default();
    let mut ktally = crate::KernelTally::default();
    let mut measurements: Vec<BeaconMeasurement> = Vec::new();
    for (prefix_rows, prefix_tally, prefix_ktally) in per_prefix.into_iter().flatten() {
        measurements.extend(prefix_rows);
        tally.merge(prefix_tally);
        ktally.merge(prefix_ktally);
    }
    ktally.publish("beacon");
    let draws: usize = measurements.iter().map(|m| 1 + m.unicast_rtt_ms.len()).sum();
    bb_exec::timing::add_count("samples:beacon", draws * cfg.samples);
    (measurements, tally)
}

/// Build the per-site unicast deployments for a set of sites.
pub fn build_unicast_deployments(
    topo: &Topology,
    provider: &Provider,
    sites: &[CityId],
) -> HashMap<CityId, AnycastDeployment> {
    bb_exec::par_map(sites, |_, &s| (s, AnycastDeployment::unicast(topo, provider, s)))
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_cdn::{build_provider, ProviderConfig};
    use bb_netsim::CongestionConfig;
    use bb_topology::{generate, TopologyConfig};
    use bb_workload::{generate_workload, WorkloadConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn campaign() -> (Topology, Vec<BeaconMeasurement>) {
        let mut topo = generate(&TopologyConfig::small(91));
        let provider = build_provider(&mut topo, &ProviderConfig::microsoft_like(9));
        let workload = generate_workload(&topo, &WorkloadConfig::default());
        let congestion = CongestionModel::new(9, CongestionConfig::default());
        let sites = provider.pops.clone();
        let anycast = AnycastDeployment::deploy(&topo, &provider, &sites);
        let unicast = build_unicast_deployments(&topo, &provider, &sites);
        let cfg = BeaconConfig {
            rounds: 2,
            ..Default::default()
        };
        let ms = run_beacons(
            &topo, &provider, &anycast, &unicast, &workload, &congestion, None, &cfg,
        );
        (topo, ms)
    }

    #[test]
    fn beacons_cover_most_prefixes() {
        let (_, ms) = campaign();
        assert!(!ms.is_empty());
        let prefixes: std::collections::HashSet<_> = ms.iter().map(|m| m.prefix).collect();
        assert!(prefixes.len() > 50, "got {}", prefixes.len());
    }

    #[test]
    fn measurements_are_positive_and_bounded() {
        let (_, ms) = campaign();
        for m in &ms {
            assert!(m.anycast_rtt_ms > 0.0 && m.anycast_rtt_ms < 1000.0);
            for &(_, r) in &m.unicast_rtt_ms {
                assert!(r > 0.0 && r < 1500.0);
            }
            assert!(m.best_unicast_ms().is_finite());
        }
    }

    #[test]
    fn anycast_mostly_close_to_best_unicast() {
        // §3.2.1's headline: "most of the time, anycast performs as well as
        // the best possible unicast front-end". With everything announcing
        // everywhere, the catchment is usually the nearby site.
        let (_, ms) = campaign();
        let close = ms
            .iter()
            .filter(|m| m.anycast_penalty_ms() < 10.0)
            .count();
        assert!(
            close * 10 >= ms.len() * 5,
            "anycast within 10ms for {close}/{}",
            ms.len()
        );
    }

    #[test]
    fn unicast_count_respects_config() {
        let (_, ms) = campaign();
        for m in &ms {
            assert!(m.unicast_rtt_ms.len() <= 4);
            assert!(!m.unicast_rtt_ms.is_empty());
        }
    }

    #[test]
    fn rounds_have_distinct_times() {
        let (_, ms) = campaign();
        let times: std::collections::HashSet<u64> =
            ms.iter().map(|m| m.time.minutes().to_bits()).collect();
        assert_eq!(times.len(), 2);
    }

    #[test]
    fn deterministic() {
        let (_, a) = campaign();
        let (_, b) = campaign();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.anycast_rtt_ms, y.anycast_rtt_ms);
        }
    }

    #[test]
    fn faulted_beacons_flag_incomplete_rows() {
        use bb_netsim::{FaultConfig, FaultPlane};
        let mut topo = generate(&TopologyConfig::small(91));
        let provider = build_provider(&mut topo, &ProviderConfig::microsoft_like(9));
        let workload = generate_workload(&topo, &WorkloadConfig::default());
        let congestion = CongestionModel::new(9, CongestionConfig::default());
        let sites = provider.pops.clone();
        let anycast = AnycastDeployment::deploy(&topo, &provider, &sites);
        let unicast = build_unicast_deployments(&topo, &provider, &sites);
        let cfg = BeaconConfig {
            rounds: 4,
            ..Default::default()
        };
        let plane = FaultPlane::new(
            21,
            FaultConfig {
                probe_loss: 0.30,
                max_retries: 0,
                ..FaultConfig::heavy()
            },
        );
        let run = || {
            run_beacons(
                &topo, &provider, &anycast, &unicast, &workload, &congestion, Some(&plane),
                &cfg,
            )
        };
        let ms = run();
        let incomplete = ms.iter().filter(|m| !m.is_complete()).count();
        let complete = ms.len() - incomplete;
        assert!(incomplete > 0, "30% loss must kill some beacons");
        assert!(complete > incomplete, "most beacons still report");
        for m in &ms {
            if m.is_complete() {
                assert!(m.anycast_penalty_ms().is_finite());
            } else {
                assert!(m.anycast_penalty_ms().is_nan());
            }
        }
        // Cached churn processes in the same plane object: a repeat run is
        // byte-identical.
        let again = run();
        assert_eq!(format!("{ms:?}"), format!("{again:?}"));
    }

    /// The scalar oracle of a beacon campaign: per row, every front-end's
    /// path through the reference walk plus the service extras, churn and
    /// `faulted_attempts` per beacon, each attempt's MinRTT through
    /// `sample_min_rtt`. Returns one `(anycast, unicast)` RTT list per row,
    /// the fault tally, and the highest attempt index any beacon reached.
    fn beacon_oracle(
        (topo, provider, workload, congestion): (&Topology, &Provider, &Workload, &CongestionModel),
        (anycast, unicast): (&AnycastDeployment, &HashMap<CityId, AnycastDeployment>),
        rows: &[BeaconMeasurement],
        faults: Option<&FaultPlane>,
        cfg: &BeaconConfig,
    ) -> (Vec<Vec<f64>>, crate::FaultTally, u32) {
        use bb_netsim::reference::{path_rtt_ms, sample_min_rtt};
        use bb_netsim::RttModel;
        let rm = RttModel::default();
        let mut tally = crate::FaultTally::default();
        let mut deepest = 0;
        let mut want = Vec::new();
        for chunk in rows.chunks(cfg.rounds) {
            assert_eq!(chunk.len(), cfg.rounds, "every prefix reports every round");
            let prefix = workload.prefix(chunk[0].prefix);
            let lastmile = Some(CongestionKey::LastMile(prefix.id.lastmile_code()));
            let serve = |dep: &AnycastDeployment| {
                dep.serve(topo, provider, prefix.asn, prefix.city).unwrap()
            };
            let any_svc = serve(anycast);
            // (front-end tag, path, WAN extra) in measurement order.
            let mut fes = vec![(u64::MAX, any_svc.path.clone(), any_svc.wan_extra_ms)];
            for &(site, _) in &chunk[0].unicast_rtt_ms {
                let svc = serve(&unicast[&site]);
                fes.push((site.0 as u64, svc.path.clone(), svc.wan_extra_ms));
            }
            for (round, row) in chunk.iter().enumerate() {
                assert_eq!(row.prefix, prefix.id);
                assert_eq!(row.anycast_front_end, any_svc.front_end);
                let t = SimTime::from_hours(round as f64 * cfg.round_spacing_h);
                assert_eq!(row.time, t);
                let det = |path: &bb_netsim::RealizedPath, wan: f64, t: SimTime| {
                    path_rtt_ms(topo, congestion, path, lastmile, t)
                        + 2.0 * wan
                        + FRONTEND_PROCESS_MS
                };
                let rtts = match faults {
                    None => {
                        let mut rng = StdRng::seed_from_u64(
                            cfg.seed ^ (prefix.id.0 as u64) << 20 ^ round as u64,
                        );
                        fes.iter()
                            .map(|(_, path, wan)| {
                                sample_min_rtt(det(path, *wan, t), &rm, cfg.samples, &mut rng)
                            })
                            .collect()
                    }
                    Some(fp) => fes
                        .iter()
                        .map(|(tag, path, wan)| {
                            let route_key = FaultPlane::stream_key(&[prefix.id.0 as u64, *tag]);
                            if fp.route_churn(route_key).withdrawn_at(t) {
                                tally.lost += 1;
                                return f64::NAN;
                            }
                            let probe_key = FaultPlane::stream_key(&[route_key, round as u64]);
                            crate::faulted_attempts(fp, probe_key, &mut tally, |attempt| {
                                deepest = deepest.max(attempt);
                                let ta = t + attempt as f64 * fp.config().retry_backoff_min;
                                let seed =
                                    bb_exec::derive_seed(cfg.seed ^ probe_key, attempt as u64);
                                let mut rng = StdRng::seed_from_u64(seed);
                                sample_min_rtt(det(path, *wan, ta), &rm, cfg.samples, &mut rng)
                            })
                            .unwrap_or(f64::NAN)
                        })
                        .collect(),
                };
                want.push(rtts);
            }
        }
        (want, tally, deepest)
    }

    #[test]
    fn beacons_match_the_scalar_oracle() {
        use bb_netsim::FaultConfig;
        let mut topo = generate(&TopologyConfig::small(91));
        let provider = build_provider(&mut topo, &ProviderConfig::microsoft_like(9));
        let workload = generate_workload(&topo, &WorkloadConfig::default());
        let congestion = CongestionModel::new(9, CongestionConfig::default());
        let sites = provider.pops.clone();
        let anycast = AnycastDeployment::deploy(&topo, &provider, &sites);
        let unicast = build_unicast_deployments(&topo, &provider, &sites);
        // Heavy never times out on this world, so the last config forces
        // timeouts and a second retry.
        let timeouts = FaultConfig {
            max_retries: 2,
            timeout_ms: 70.0,
            ..FaultConfig::heavy()
        };
        // 17 rounds are two full lane groups of cells and a one-cell remainder.
        for rounds in [4, 17] {
            let cfg = BeaconConfig {
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
                let (rows, got_tally) = run_beacons_tallied(
                    &topo, &provider, &anycast, &unicast, &workload, &congestion, plane.as_ref(),
                    &cfg,
                );
                let (want, want_tally, deepest) = beacon_oracle(
                    (&topo, &provider, &workload, &congestion),
                    (&anycast, &unicast),
                    &rows,
                    plane.as_ref(),
                    &cfg,
                );
                assert!(rows.len() > 100, "{name}, {rounds} rounds: {} rows", rows.len());
                assert_eq!(got_tally, want_tally, "{name}, {rounds} rounds: fault tally");
                for (row, want) in rows.iter().zip(&want) {
                    let got: Vec<u64> = std::iter::once(row.anycast_rtt_ms)
                        .chain(row.unicast_rtt_ms.iter().map(|&(_, r)| r))
                        .map(f64::to_bits)
                        .collect();
                    let want: Vec<u64> = want.iter().map(|r| r.to_bits()).collect();
                    let at = (row.prefix, row.time);
                    assert_eq!(got, want, "{name}, {rounds} rounds: prefix and time {at:?}");
                }
                match name {
                    "off" => assert_eq!(want_tally, crate::FaultTally::default()),
                    _ => assert!(
                        want_tally.lost > 0 && want_tally.retries > 0,
                        "{name}, {rounds} rounds: {want_tally:?}"
                    ),
                }
                if name == "timeouts" {
                    assert!(want_tally.timeouts > 0, "the low timeout must fire");
                    assert_eq!(deepest, 2, "some beacon must reach its second retry");
                    assert!(
                        rows.iter().any(|r| r.anycast_rtt_ms.is_finite()),
                        "some beacons must survive the timeout"
                    );
                }
            }
        }
    }
}
