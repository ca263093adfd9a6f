//! The world atlas: countries plus deterministically sampled cities.

use crate::city::{City, CityId};
use crate::country::{Country, CountryIdx, WORLD};
use crate::point::GeoPoint;
use crate::region::Region;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for atlas generation.
#[derive(Debug, Clone)]
pub struct AtlasConfig {
    pub seed: u64,
    /// Scales the number of cities per country (1.0 ⇒ up to ~10 for the
    /// largest countries). Lower it for fast tests.
    pub city_density: f64,
}

impl Default for AtlasConfig {
    fn default() -> Self {
        Self {
            seed: 0x_b6b5_1dea,
            city_density: 1.0,
        }
    }
}

/// Countries plus sampled cities. Cities are stored in one dense vector so
/// that `CityId` indexes directly; each country's cities are contiguous.
#[derive(Debug, Clone)]
pub struct Atlas {
    pub countries: Vec<Country>,
    pub cities: Vec<City>,
    /// For each country, the range of its city indices.
    city_ranges: Vec<std::ops::Range<usize>>,
}

impl Atlas {
    /// Generate the atlas: every country gets a main metro at its centroid
    /// plus satellite cities scattered within `spread_km`, with Zipf-like
    /// user shares.
    pub fn generate(cfg: &AtlasConfig) -> Atlas {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut cities = Vec::new();
        let mut city_ranges = Vec::with_capacity(WORLD.len());

        for (ci, country) in WORLD.iter().enumerate() {
            let start = cities.len();
            let n = city_count(country, cfg.city_density);
            let shares = zipf_shares(n);
            for (k, &share) in shares.iter().enumerate() {
                let location = if k == 0 {
                    country.centroid
                } else {
                    scatter(&mut rng, country.centroid, country.spread_km)
                };
                let colo_hub = k == 0 && (country.major_hub || country.users_m >= 60.0);
                cities.push(City {
                    id: CityId(cities.len() as u32),
                    name: format!("{}-{}", country.code, k),
                    country: ci,
                    region: country.region,
                    location,
                    user_share: share,
                    colo_hub,
                });
            }
            city_ranges.push(start..cities.len());
        }

        Atlas {
            countries: WORLD.to_vec(),
            cities,
            city_ranges,
        }
    }

    pub fn city(&self, id: CityId) -> &City {
        &self.cities[id.index()]
    }

    /// Cities of one country.
    pub fn cities_of(&self, country: CountryIdx) -> &[City] {
        &self.cities[self.city_ranges[country].clone()]
    }

    /// The main metro (first city) of a country.
    pub fn main_metro(&self, country: CountryIdx) -> &City {
        &self.cities[self.city_ranges[country].start]
    }

    /// All cities flagged as colo hubs.
    pub fn colo_hubs(&self) -> impl Iterator<Item = &City> {
        self.cities.iter().filter(|c| c.colo_hub)
    }

    /// Cities in a region.
    pub fn cities_in_region(&self, region: Region) -> impl Iterator<Item = &City> {
        self.cities.iter().filter(move |c| c.region == region)
    }

    /// Internet users (millions) represented by one city.
    pub fn city_users_m(&self, id: CityId) -> f64 {
        let c = self.city(id);
        self.countries[c.country].users_m * c.user_share
    }

    /// The city nearest to `point`.
    pub fn nearest_city(&self, point: GeoPoint) -> &City {
        self.cities
            .iter()
            .min_by(|a, b| {
                a.location
                    .distance_km(&point)
                    .total_cmp(&b.location.distance_km(&point))
            })
            .expect("atlas has cities")
    }
}

fn city_count(country: &Country, density: f64) -> usize {
    let n = (country.users_m.sqrt() * 0.55 * density).round() as usize;
    n.clamp(1, 16)
}

/// Zipf(1.0)-shaped shares over `n` cities, normalized to sum to 1.
fn zipf_shares(n: usize) -> Vec<f64> {
    let raw: Vec<f64> = (1..=n).map(|k| 1.0 / k as f64).collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|x| x / total).collect()
}

/// Sample a point within `spread_km` of the centroid (triangular-ish radial
/// density: more cities near the middle of the country).
fn scatter(rng: &mut StdRng, centroid: GeoPoint, spread_km: f64) -> GeoPoint {
    let r = spread_km * rng.gen::<f64>().sqrt() * rng.gen::<f64>();
    let theta = rng.gen::<f64>() * std::f64::consts::TAU;
    centroid.offset_km(r * theta.cos(), r * theta.sin())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atlas() -> Atlas {
        Atlas::generate(&AtlasConfig::default())
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = atlas();
        let b = atlas();
        assert_eq!(a.cities.len(), b.cities.len());
        for (x, y) in a.cities.iter().zip(&b.cities) {
            assert_eq!(x.location.lat_deg, y.location.lat_deg);
            assert_eq!(x.location.lon_deg, y.location.lon_deg);
        }
    }

    #[test]
    fn different_seed_different_scatter() {
        let a = atlas();
        let b = Atlas::generate(&AtlasConfig {
            seed: 7,
            ..Default::default()
        });
        // Main metros are fixed at centroids, but at least one satellite
        // city must move.
        let moved = a
            .cities
            .iter()
            .zip(&b.cities)
            .any(|(x, y)| x.location.lon_deg != y.location.lon_deg);
        assert!(moved);
    }

    #[test]
    fn user_shares_sum_to_one_per_country() {
        let a = atlas();
        for ci in 0..a.countries.len() {
            let s: f64 = a.cities_of(ci).iter().map(|c| c.user_share).sum();
            assert!((s - 1.0).abs() < 1e-9, "country {ci}: {s}");
        }
    }

    #[test]
    fn main_metro_sits_at_centroid() {
        let a = atlas();
        for ci in 0..a.countries.len() {
            let m = a.main_metro(ci);
            assert_eq!(m.location.lat_deg, a.countries[ci].centroid.lat_deg);
        }
    }

    #[test]
    fn cities_stay_within_spread() {
        let a = atlas();
        for c in &a.cities {
            let country = &a.countries[c.country];
            let d = c.location.distance_km(&country.centroid);
            // offset_km is approximate; allow 25% slack.
            assert!(
                d <= country.spread_km * 1.25,
                "{} is {d} km from centroid (spread {})",
                c.name,
                country.spread_km
            );
        }
    }

    #[test]
    fn big_countries_have_more_cities() {
        let a = atlas();
        let (us, _) = crate::country::by_code("US").unwrap();
        let (nz, _) = crate::country::by_code("NZ").unwrap();
        assert!(a.cities_of(us).len() > a.cities_of(nz).len());
    }

    #[test]
    fn colo_hubs_exist_on_every_continent_with_hub_countries() {
        let a = atlas();
        let hubs: Vec<_> = a.colo_hubs().collect();
        assert!(hubs.len() >= 10);
        assert!(hubs.iter().any(|c| c.region == Region::Europe));
        assert!(hubs.iter().any(|c| c.region == Region::NorthAmerica));
        assert!(hubs.iter().any(|c| c.region == Region::SouthAsia));
    }

    #[test]
    fn nearest_city_returns_self_for_city_location() {
        let a = atlas();
        let c = &a.cities[3];
        assert_eq!(a.nearest_city(c.location).id, c.id);
    }

    #[test]
    fn city_density_scales_city_count() {
        let small = Atlas::generate(&AtlasConfig {
            seed: 1,
            city_density: 0.3,
        });
        let big = Atlas::generate(&AtlasConfig {
            seed: 1,
            city_density: 1.0,
        });
        assert!(small.cities.len() < big.cities.len());
    }

    #[test]
    fn city_users_total_matches_country_totals() {
        let a = atlas();
        let total: f64 = a.cities.iter().map(|c| a.city_users_m(c.id)).sum();
        let expected = crate::country::total_users_m();
        assert!((total - expected).abs() < 1e-6);
    }
}
