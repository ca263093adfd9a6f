//! DNS-based redirection at LDNS granularity (§2.3.2, §3.2.1).
//!
//! The redirector is trained from client-side measurements ("spraying
//! background requests", §2.2) but can only key its decisions on the
//! **resolver** that asks, not the client: "DNS redirection systems cannot
//! see the IP address of the requesting client, only of client's local
//! resolver (LDNS), limiting decisions to a per-LDNS granularity." Public
//! resolvers that send EDNS Client Subnet get per-prefix decisions instead.
//!
//! This aggregation is the mechanism behind Figure 4's both-sided CDF: a
//! resolver whose clients sit in different metros gets one answer that is
//! right for some of them and wrong for others.

use bb_geo::CityId;
use bb_workload::{LdnsId, PrefixId, Workload};
use std::collections::{BTreeMap, HashMap};

/// What the redirector returns for a lookup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SiteChoice {
    /// Hand out the anycast address (let BGP pick).
    Anycast,
    /// Hand out the unicast address of a specific front-end.
    Unicast(CityId),
}

/// One training observation: a client prefix's measured medians to the
/// anycast address and to candidate unicast front-ends.
#[derive(Debug, Clone)]
pub struct TrainingSample {
    pub prefix: PrefixId,
    /// Traffic weight of the prefix (drives the per-LDNS aggregate).
    pub weight: f64,
    pub anycast_rtt_ms: f64,
    pub unicast_rtt_ms: Vec<(CityId, f64)>,
}

/// The trained redirector.
#[derive(Debug, Clone, Default)]
pub struct DnsRedirector {
    per_ldns: HashMap<LdnsId, SiteChoice>,
    /// Per-prefix decisions for ECS-capable resolvers.
    per_prefix: HashMap<PrefixId, SiteChoice>,
}

impl DnsRedirector {
    /// Train from samples: each resolver gets the option (anycast or one
    /// unicast site) minimizing the *weighted mean* RTT over its client
    /// prefixes — "mapped each LDNS to either the best performing unicast
    /// front-end or anycast, whichever earlier measurements predict is
    /// better for clients of the LDNS".
    pub fn train(workload: &Workload, samples: &[TrainingSample]) -> DnsRedirector {
        let by_prefix: HashMap<PrefixId, &TrainingSample> =
            samples.iter().map(|s| (s.prefix, s)).collect();

        let mut per_ldns = HashMap::new();
        for ldns in &workload.ldns {
            let clients = workload.clients_of_ldns(ldns.id);
            if clients.is_empty() {
                continue;
            }
            // Accumulate weighted RTT per option across this resolver's
            // clients. Only options measured for every client count
            // (anycast always is; unicast sites vary per client — missing
            // measurements are treated as the client's anycast RTT, i.e.
            // "we wouldn't redirect that client there").
            let mut anycast_acc = 0.0;
            let mut w_acc = 0.0;
            // BTreeMap: deterministic iteration so exact-tie choices don't
            // depend on hasher state.
            let mut site_acc: BTreeMap<CityId, f64> = BTreeMap::new();
            for &(pid, w) in &clients {
                let Some(s) = by_prefix.get(&pid) else { continue };
                anycast_acc += w * s.anycast_rtt_ms;
                w_acc += w;
                for &(site, _) in &s.unicast_rtt_ms {
                    site_acc.entry(site).or_insert(0.0);
                }
            }
            if w_acc == 0.0 {
                continue;
            }
            for (&site, acc) in site_acc.iter_mut() {
                for &(pid, w) in &clients {
                    let Some(s) = by_prefix.get(&pid) else { continue };
                    let rtt = s
                        .unicast_rtt_ms
                        .iter()
                        .find(|&&(c, _)| c == site)
                        .map(|&(_, r)| r)
                        .unwrap_or(s.anycast_rtt_ms);
                    *acc += w * rtt;
                }
            }
            let mut best = (SiteChoice::Anycast, anycast_acc / w_acc);
            for (&site, &acc) in &site_acc {
                let mean = acc / w_acc;
                if mean < best.1 {
                    best = (SiteChoice::Unicast(site), mean);
                }
            }
            per_ldns.insert(ldns.id, best.0);
        }

        // ECS-capable resolvers decide per client prefix.
        let mut per_prefix = HashMap::new();
        for s in samples {
            let mut best = (SiteChoice::Anycast, s.anycast_rtt_ms);
            for &(site, rtt) in &s.unicast_rtt_ms {
                if rtt < best.1 {
                    best = (SiteChoice::Unicast(site), rtt);
                }
            }
            per_prefix.insert(s.prefix, best.0);
        }

        DnsRedirector {
            per_ldns,
            per_prefix,
        }
    }

    /// The redirector's answer for a lookup from `ldns` on behalf of
    /// `prefix` (per-prefix if the resolver sends ECS).
    pub fn resolve(&self, workload: &Workload, ldns: LdnsId, prefix: PrefixId) -> SiteChoice {
        let resolver = &workload.ldns[ldns.index()];
        if resolver.sends_ecs {
            if let Some(&c) = self.per_prefix.get(&prefix) {
                return c;
            }
        }
        self.per_ldns.get(&ldns).copied().unwrap_or(SiteChoice::Anycast)
    }

    /// The mix of choices a prefix's clients experience (across its
    /// resolvers, weighted by the client fraction using each).
    pub fn choices_for(&self, workload: &Workload, prefix: PrefixId) -> Vec<(SiteChoice, f64)> {
        workload
            .resolvers_of(prefix)
            .iter()
            .map(|&(ldns, frac)| (self.resolve(workload, ldns, prefix), frac))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_topology::{generate, TopologyConfig};
    use bb_workload::{generate_workload, LdnsKind, WorkloadConfig};

    fn setup() -> (Workload, Vec<TrainingSample>) {
        let topo = generate(&TopologyConfig::small(61));
        let w = generate_workload(&topo, &WorkloadConfig::default());
        let site_a = CityId(0);
        let site_b = CityId(1);
        // Synthetic truth: even prefixes are far from anycast (unicast A
        // much better), odd prefixes are best on anycast.
        let samples: Vec<TrainingSample> = w
            .prefixes
            .iter()
            .map(|p| {
                let even = p.id.0 % 2 == 0;
                TrainingSample {
                    prefix: p.id,
                    weight: p.weight,
                    anycast_rtt_ms: if even { 120.0 } else { 20.0 },
                    unicast_rtt_ms: vec![
                        (site_a, if even { 30.0 } else { 40.0 }),
                        (site_b, 90.0),
                    ],
                }
            })
            .collect();
        (w, samples)
    }

    #[test]
    fn ecs_resolver_gets_per_prefix_answers() {
        let (w, samples) = setup();
        let r = DnsRedirector::train(&w, &samples);
        let public = w.ldns.iter().find(|l| l.kind == LdnsKind::Public).unwrap().id;
        // Per-prefix: even → unicast A, odd → anycast.
        let even_p = w.prefixes.iter().find(|p| p.id.0 % 2 == 0).unwrap().id;
        let odd_p = w.prefixes.iter().find(|p| p.id.0 % 2 == 1).unwrap().id;
        assert_eq!(r.resolve(&w, public, even_p), SiteChoice::Unicast(CityId(0)));
        assert_eq!(r.resolve(&w, public, odd_p), SiteChoice::Anycast);
    }

    #[test]
    fn isp_resolver_aggregates_over_clients() {
        let (w, samples) = setup();
        let r = DnsRedirector::train(&w, &samples);
        // An ISP resolver serving both even and odd prefixes gives ONE
        // answer for all of them.
        let isp = w
            .ldns
            .iter()
            .find(|l| l.kind != LdnsKind::Public && {
                let clients = w.clients_of_ldns(l.id);
                let has_even = clients.iter().any(|&(p, _)| p.0 % 2 == 0);
                let has_odd = clients.iter().any(|&(p, _)| p.0 % 2 == 1);
                has_even && has_odd
            })
            .expect("some resolver with mixed clients");
        let clients = w.clients_of_ldns(isp.id);
        let choices: std::collections::HashSet<_> = clients
            .iter()
            .map(|&(p, _)| format!("{:?}", r.resolve(&w, isp.id, p)))
            .collect();
        assert_eq!(choices.len(), 1, "one answer per ISP resolver");
    }

    #[test]
    fn choices_for_mixes_resolvers() {
        let (w, samples) = setup();
        let r = DnsRedirector::train(&w, &samples);
        let p = w.prefixes[0].id;
        let mix = r.choices_for(&w, p);
        let total: f64 = mix.iter().map(|&(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(mix.len(), w.resolvers_of(p).len());
    }

    #[test]
    fn untrained_redirector_defaults_to_anycast() {
        let (w, _) = setup();
        let r = DnsRedirector::default();
        let p = w.prefixes[0].id;
        let ldns = w.resolvers_of(p)[0].0;
        assert_eq!(r.resolve(&w, ldns, p), SiteChoice::Anycast);
    }

    #[test]
    fn all_anycast_better_trains_to_anycast() {
        let (w, _) = setup();
        let samples: Vec<TrainingSample> = w
            .prefixes
            .iter()
            .map(|p| TrainingSample {
                prefix: p.id,
                weight: p.weight,
                anycast_rtt_ms: 10.0,
                unicast_rtt_ms: vec![(CityId(0), 50.0), (CityId(1), 60.0)],
            })
            .collect();
        let r = DnsRedirector::train(&w, &samples);
        for p in &w.prefixes {
            for (choice, _) in r.choices_for(&w, p.id) {
                assert_eq!(choice, SiteChoice::Anycast);
            }
        }
    }
}
