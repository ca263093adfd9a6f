//! Property-based tests on the statistics and performance-model substrates.

use beating_bgp::geo::GeoPoint;
use beating_bgp::netsim::{CongestionConfig, CongestionKey, CongestionModel, SimTime};
use beating_bgp::stats::{weighted_quantile, Cdf};
use proptest::prelude::*;

proptest! {
    /// Weighted quantiles are monotone in q and bounded by the data range.
    #[test]
    fn weighted_quantile_monotone(
        values in prop::collection::vec((-1e4f64..1e4, 1e-6f64..10.0), 1..200),
        qs in prop::collection::vec(0.0f64..1.0, 2..10),
    ) {
        let mut qs = qs;
        qs.sort_by(|a, b| a.total_cmp(b));
        let mut prev = f64::NEG_INFINITY;
        for &q in &qs {
            let v = weighted_quantile(&values, q).unwrap();
            prop_assert!(v >= prev);
            prev = v;
        }
        let lo = values.iter().map(|&(v, _)| v).fold(f64::INFINITY, f64::min);
        let hi = values.iter().map(|&(v, _)| v).fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(prev >= lo && prev <= hi);
    }

    /// A CDF built from any weighted samples is a distribution function:
    /// non-decreasing, 0-to-1, and value_at inverts fraction_leq.
    #[test]
    fn cdf_is_a_distribution(
        values in prop::collection::vec((-1e4f64..1e4, 1e-6f64..10.0), 1..200),
        probe in -1e4f64..1e4,
    ) {
        let cdf = Cdf::from_weighted(&values).unwrap();
        let pts: Vec<(f64, f64)> = cdf.points().collect();
        prop_assert!(pts.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
        prop_assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-9);
        let f = cdf.fraction_leq(probe);
        prop_assert!((0.0..=1.0).contains(&f));
        for p in [0.1, 0.5, 0.9] {
            let v = cdf.value_at(p);
            prop_assert!(cdf.fraction_leq(v) >= p - 1e-9);
        }
    }

    /// Haversine distance is a metric on the sphere: symmetric, zero on the
    /// diagonal, triangle inequality.
    #[test]
    fn haversine_is_a_metric(
        a in (-85.0f64..85.0, -180.0f64..180.0),
        b in (-85.0f64..85.0, -180.0f64..180.0),
        c in (-85.0f64..85.0, -180.0f64..180.0),
    ) {
        let (pa, pb, pc) = (
            GeoPoint::new(a.0, a.1),
            GeoPoint::new(b.0, b.1),
            GeoPoint::new(c.0, c.1),
        );
        let ab = pa.distance_km(&pb);
        let ba = pb.distance_km(&pa);
        prop_assert!((ab - ba).abs() < 1e-9);
        prop_assert!(pa.distance_km(&pa) < 1e-9);
        let (bc, ac) = (pb.distance_km(&pc), pa.distance_km(&pc));
        prop_assert!(ac <= ab + bc + 1e-6, "triangle: {ac} > {ab} + {bc}");
    }

    /// Congestion utilization is always within bounds and deterministic.
    #[test]
    fn congestion_bounded_and_deterministic(
        seed in 0u64..1000,
        key in 0u64..10_000,
        hour in 0.0f64..240.0,
        offset in -12.0f64..14.0,
    ) {
        let m1 = CongestionModel::new(seed, CongestionConfig::default());
        let m2 = CongestionModel::new(seed, CongestionConfig::default());
        let k = CongestionKey::LastMile(key);
        let t = SimTime::from_hours(hour);
        let u1 = m1.utilization(k, offset, t);
        let u2 = m2.utilization(k, offset, t);
        prop_assert_eq!(u1, u2);
        prop_assert!((0.0..=0.97).contains(&u1));
        // Queueing delay is finite and non-negative.
        let d = m1.queueing_delay_ms(k, offset, t);
        prop_assert!(d.is_finite() && d >= 0.0);
    }

    /// A compiled `PathPlanBatch` answers bit-identically to the reference
    /// walk, for any topology, set of realized paths, congestion seed,
    /// last-mile key, and query time, and its probe terms to the model's
    /// own utilization. This is the contract that lets the measurement hot
    /// loops use batches instead of the full walk.
    #[test]
    fn path_plan_matches_reference_walk(
        topo_seed in 0u64..20,
        model_seed in 0u64..50,
        hours in prop::collection::vec(0.0f64..240.0, 1..6),
        lastmile in 0u64..20_000,
    ) {
        use beating_bgp::bgp::{compute_routes, Announcement};
        use beating_bgp::netsim::reference::path_rtt_ms;
        use beating_bgp::netsim::{
            realize_path, DiurnalTable, PathPlanBatch, RealizeSpec, RealizedPath,
        };
        use beating_bgp::topology::{generate, AsClass, TopologyConfig};

        let topo = generate(&TopologyConfig::small(topo_seed));
        let eye = topo.ases_of_class(AsClass::Eyeball).next().unwrap();
        let origin = eye.id;
        let dst_city = eye.footprint[0];
        let table = compute_routes(&topo, &Announcement::full(&topo, origin));
        let model = CongestionModel::new(model_seed, CongestionConfig::default());
        // Upper half of the range means "no last-mile key", so both arms
        // of the Option are exercised (vendored proptest has no option_of).
        let lm = (lastmile < 10_000).then_some(CongestionKey::LastMile(lastmile));

        let mut paths = Vec::new();
        for src in topo.ases() {
            if src.id == origin || src.footprint.is_empty() {
                continue;
            }
            let Some(as_path) = table.as_path(src.id) else { continue };
            let spec = RealizeSpec {
                as_path: &as_path,
                src_city: src.footprint[0],
                dst_city: Some(dst_city),
                first_link: None,
                final_entry_links: None,
            };
            paths.push(realize_path(&topo, &spec));
            if paths.len() >= 8 {
                break; // enough distinct paths per case; keep runtime sane
            }
        }
        prop_assert!(!paths.is_empty(), "no realizable path in topology {}", topo_seed);
        // Every other route probes its first link, so probe terms sit
        // between some routes' RTT terms and not others'.
        let probe = |r: usize, p: &RealizedPath| p.links.first().copied().filter(|_| r % 2 == 0);
        let routes = paths.iter().enumerate().map(|(r, p)| (p, lm, probe(r, p)));
        let batch = PathPlanBatch::compile(&topo, &model, routes);
        let times: Vec<SimTime> = hours.iter().map(|&h| SimTime::from_hours(h)).collect();
        let diurnal = DiurnalTable::build(&times);
        for (r, path) in paths.iter().enumerate() {
            for (i, &t) in times.iter().enumerate() {
                let want = path_rtt_ms(&topo, &model, path, lm, t);
                let got = batch.det_rtt_ms(r, t, diurnal.row(i));
                prop_assert_eq!(
                    got.to_bits(), want.to_bits(),
                    "batch {} != walk {} at t={:?} (topo {}, model {})",
                    got, want, t, topo_seed, model_seed
                );
                if let Some(l) = probe(r, path) {
                    let offset = topo.atlas.city(topo.link(l).city).region.utc_offset_hours();
                    let want = model.utilization(CongestionKey::Link(l), offset, t);
                    let got = batch.probe_util(r, t, diurnal.row(i));
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "probe at t={:?}", t);
                }
            }
        }
    }

    /// The lane-batched session-minima kernel, on every instance the host
    /// runs, is the scalar session walk, bit for bit: each cell's sessions
    /// are the `sample_min_rtt`s drawn in turn from its seed, cell-major,
    /// whatever the cell's lane position.
    #[test]
    fn min_z_matches_scalar_walk(
        seed in 0u64..u64::MAX,
        sessions in 1usize..=9,
        samples in 1usize..=8,
        cells in 1usize..=17,
    ) {
        use beating_bgp::netsim::reference::sample_min_rtt;
        use beating_bgp::netsim::{JitterScratch, MedianLanes, RttModel};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let rm = RttModel::default();
        let seeds: Vec<u64> = (0..cells as u64).map(|c| seed ^ c.wrapping_mul(0x9E37)).collect();
        let want: Vec<u64> = seeds
            .iter()
            .flat_map(|&cell_seed| {
                let mut scalar_rng = StdRng::seed_from_u64(cell_seed);
                (0..sessions)
                    .map(|_| sample_min_rtt(10.0, &rm, samples, &mut scalar_rng).to_bits())
                    .collect::<Vec<_>>()
            })
            .collect();
        for lanes in std::iter::once(MedianLanes::portable()).chain(MedianLanes::wide()) {
            let mut z = Vec::new();
            lanes.min_z(&seeds, sessions, samples, &mut JitterScratch::default(), &mut z);
            let got: Vec<u64> = z
                .iter()
                .map(|&z| (10.0 + rm.jitter_median_ms * (rm.jitter_sigma * z).exp()).to_bits())
                .collect();
            prop_assert_eq!(&got, &want, "{:?} seed {}", lanes, seed);
        }
    }

    /// The lane-batched median kernel (odd session count), on every
    /// instance the host runs, gives each cell the median of the scalar
    /// session minima drawn from its seed: `quantile_select(…, 0.5)`, bit
    /// for bit, whatever the cell's lane position.
    #[test]
    fn batch_median_z_matches_scalar_median(
        seed in 0u64..u64::MAX,
        half in 0usize..=4,
        samples in 1usize..=8,
        cells in 1usize..=17,
    ) {
        use beating_bgp::netsim::reference::sample_min_rtt;
        use beating_bgp::netsim::{JitterScratch, MedianLanes, RttModel};
        use beating_bgp::stats::quantile_select;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let sessions = 2 * half + 1;
        let rm = RttModel::default();
        let seeds: Vec<u64> = (0..cells as u64).map(|c| seed ^ c.wrapping_mul(0x9E37)).collect();
        let want: Vec<u64> = seeds
            .iter()
            .map(|&cell_seed| {
                let mut scalar_rng = StdRng::seed_from_u64(cell_seed);
                let mut scalar: Vec<f64> = (0..sessions)
                    .map(|_| sample_min_rtt(10.0, &rm, samples, &mut scalar_rng))
                    .collect();
                quantile_select(&mut scalar, 0.5).to_bits()
            })
            .collect();
        for lanes in std::iter::once(MedianLanes::portable()).chain(MedianLanes::wide()) {
            let mut z = Vec::new();
            lanes.median_z(&seeds, sessions, samples, &mut JitterScratch::default(), &mut z);
            let got: Vec<u64> = z
                .iter()
                .map(|&z| (10.0 + rm.jitter_median_ms * (rm.jitter_sigma * z).exp()).to_bits())
                .collect();
            prop_assert_eq!(&got, &want, "{:?} seed {}", lanes, seed);
        }
    }

    /// Quantile edge cases: q=0 is the minimum, q=1 is the maximum, equal
    /// weights reduce the weighted quantile to the unweighted one, and
    /// duplicate-heavy inputs stay within the data range. `quantile_select`
    /// agrees with the sorting implementation at the extremes.
    #[test]
    fn quantile_edge_cases(
        values in prop::collection::vec(-1e4f64..1e4, 1..100),
        dup in -1e4f64..1e4,
        ndup in 0usize..50,
        q in 0.0f64..1.0,
    ) {
        use beating_bgp::stats::{quantile_select, quantile_unsorted, weighted_quantile};

        // Duplicate-heavy input: append the same value many times.
        let mut values = values;
        values.extend(std::iter::repeat(dup).take(ndup));
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);

        let weighted: Vec<(f64, f64)> = values.iter().map(|&v| (v, 1.0)).collect();
        prop_assert_eq!(weighted_quantile(&weighted, 0.0).unwrap(), lo);
        prop_assert_eq!(weighted_quantile(&weighted, 1.0).unwrap(), hi);
        prop_assert_eq!(quantile_unsorted(&values, 0.0).unwrap(), lo);
        prop_assert_eq!(quantile_unsorted(&values, 1.0).unwrap(), hi);
        prop_assert_eq!(quantile_select(&mut values.clone(), 0.0), lo);
        prop_assert_eq!(quantile_select(&mut values.clone(), 1.0), hi);

        // With equal weights the step-function weighted quantile returns an
        // actual data point whose rank brackets the interpolating unweighted
        // quantile to within two order statistics.
        let vw = weighted_quantile(&weighted, q).unwrap();
        prop_assert!(values.contains(&vw), "weighted quantile {vw} not a data point");
        let n = values.len() as f64;
        let lo_b = quantile_unsorted(&values, (q - 2.0 / n).max(0.0)).unwrap();
        let hi_b = quantile_unsorted(&values, (q + 2.0 / n).min(1.0)).unwrap();
        prop_assert!(
            (lo_b..=hi_b).contains(&vw),
            "weighted {vw} outside unweighted bracket [{lo_b}, {hi_b}] at q={q}"
        );
        prop_assert!((lo..=hi).contains(&vw));
        let vs = quantile_select(&mut values.clone(), q);
        prop_assert!((lo..=hi).contains(&vs));
    }

    /// `min_finite` (the NaN policy behind `best_unicast_ms` and the
    /// egress study's best-alternate pick) ignores non-finite entries,
    /// returns NaN — never ±inf — when nothing finite remains, and equals
    /// the plain minimum of the finite subset otherwise.
    #[test]
    fn min_finite_nan_policy(
        finite in prop::collection::vec(-1e4f64..1e4, 0..50),
        nans in 0usize..8,
        infs in 0usize..4,
    ) {
        use beating_bgp::stats::min_finite;

        let mut mixed: Vec<f64> = finite.clone();
        mixed.extend(std::iter::repeat(f64::NAN).take(nans));
        mixed.extend(std::iter::repeat(f64::INFINITY).take(infs));
        // Deterministic interleave so the non-finite entries are not all
        // at the tail.
        let shift = nans.min(mixed.len());
        mixed.rotate_right(shift);

        let got = min_finite(mixed.iter().copied());
        if finite.is_empty() {
            prop_assert!(got.is_nan(), "all-NaN input produced {got}");
        } else {
            let want = finite.iter().copied().fold(f64::INFINITY, f64::min);
            prop_assert_eq!(got, want);
        }
        // Never ±inf, no matter the mix.
        prop_assert!(!got.is_infinite(), "min_finite returned {got}");
    }

    /// CDF tail queries never leave [0, 1] even for weight distributions
    /// prone to floating-point drift in the cumulative sum — so
    /// `fraction_gt ≥ 0` and `fraction_leq ≤ 1` hold at every probe.
    #[test]
    fn cdf_fractions_bounded_under_drift(
        values in prop::collection::vec((-1e4f64..1e4, 1e-12f64..1e12), 1..300),
        probes in prop::collection::vec(-2e4f64..2e4, 1..10),
    ) {
        use beating_bgp::stats::Ccdf;

        let cdf = Cdf::from_weighted(&values).unwrap();
        let ccdf = Ccdf::from_weighted(&values).unwrap();
        for &x in &probes {
            let leq = cdf.fraction_leq(x);
            prop_assert!((0.0..=1.0).contains(&leq), "fraction_leq({x}) = {leq}");
            let gt = ccdf.fraction_gt(x);
            prop_assert!((0.0..=1.0).contains(&gt), "fraction_gt({x}) = {gt}");
        }
        // Max of the support is ≤ everything kept: the last cumulative
        // fraction is exactly 1, so nothing is "above" the distribution.
        prop_assert!(ccdf.fraction_gt(cdf.max()) <= 0.0 + 1e-12);
        prop_assert!(cdf.fraction_leq(cdf.max()) >= 1.0 - 1e-12);
    }

    /// Goodput is monotone: worse RTT or worse utilization never increases
    /// throughput.
    #[test]
    fn goodput_monotone(
        rtt in 1.0f64..500.0,
        drtt in 0.0f64..100.0,
        util in 0.0f64..0.97,
        dutil in 0.0f64..0.4,
    ) {
        use beating_bgp::netsim::goodput_mbps;
        let base = goodput_mbps(rtt, util, 1e9);
        prop_assert!(goodput_mbps(rtt + drtt, util, 1e9) <= base + 1e-9);
        prop_assert!(goodput_mbps(rtt, (util + dutil).min(0.999), 1e9) <= base + 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The faulted window kernel, on every instance the host runs, is the
    /// scalar retry walk: `faulted_attempts` per probe, each attempt one
    /// `sample_min_rtt` session over the attempt's deterministic RTT, then
    /// `quantile_select` over the kept RTTs. Same median bits, kept
    /// count and fault tally, whatever the loss rate, retry count and
    /// timeout.
    #[test]
    fn faulted_median_matches_scalar_retry_walk(
        seed in 0u64..u64::MAX,
        sessions in 1usize..=9,
        samples in 1usize..=6,
        loss in 0usize..4,
        max_retries in 0u32..=3,
        timeout_ms in 10.0f64..14.0,
        min_kept in 0usize..=10,
    ) {
        use beating_bgp::exec::derive_seed;
        use beating_bgp::netsim::reference::{faulted_attempts, sample_min_rtt};
        use beating_bgp::netsim::{
            FaultConfig, FaultPlane, FaultTally, FaultedWindow, JitterScratch, MedianLanes,
            RttModel,
        };
        use beating_bgp::stats::quantile_select;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let plane = FaultPlane::new(
            seed,
            FaultConfig {
                probe_loss: [0.0, 0.15, 0.5, 0.9][loss],
                timeout_ms,
                max_retries,
                ..FaultConfig::heavy()
            },
        );
        let model = RttModel::default();
        let det = |attempt: u32| 10.0 + 0.37 * attempt as f64;
        let probes: Vec<(u64, u64)> = (0..sessions as u64)
            .map(|s| (derive_seed(seed, 2 * s), derive_seed(seed, 2 * s + 1)))
            .collect();
        let window = FaultedWindow {
            plane: &plane,
            model: &model,
            samples,
            min_kept,
            probes: &probes,
        };

        let mut want_tally = FaultTally::default();
        let mut kept = Vec::new();
        for &(key, session_seed) in &probes {
            kept.extend(faulted_attempts(&plane, key, &mut want_tally, |attempt| {
                let mut rng = StdRng::seed_from_u64(derive_seed(session_seed, attempt as u64));
                sample_min_rtt(det(attempt), &model, samples, &mut rng)
            }));
        }
        let n = kept.len();
        let want = (n > 0 && n >= min_kept).then(|| quantile_select(&mut kept, 0.5).to_bits());

        for lanes in std::iter::once(MedianLanes::portable()).chain(MedianLanes::wide()) {
            let mut tally = FaultTally::default();
            let got = lanes.faulted_median(&window, det, &mut tally, &mut JitterScratch::default());
            prop_assert_eq!(got.median.map(f64::to_bits), want, "{:?} seed {}", lanes, seed);
            prop_assert_eq!(got.kept, n);
            prop_assert_eq!(tally, want_tally);
        }
    }
}
