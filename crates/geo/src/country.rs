//! Static country table: centroids, regions, and Internet user populations.
//!
//! Population figures are approximate 2019 Internet-user counts in millions
//! (the paper weights §3.3 results by APNIC user-population estimates; this
//! table plays that role). Centroids are population-weighted-ish country
//! centers, not geometric ones (e.g., Canada's sits near its southern belt).

use crate::point::GeoPoint;
use crate::region::Region;

/// Index of a country in [`WORLD`].
pub type CountryIdx = usize;

/// A country in the synthetic atlas.
#[derive(Debug, Clone)]
pub struct Country {
    /// ISO-3166-ish two-letter code.
    pub code: &'static str,
    pub name: &'static str,
    pub region: Region,
    /// Population-weighted center.
    pub centroid: GeoPoint,
    /// Internet users, millions.
    pub users_m: f64,
    /// Rough radius over which cities scatter, km.
    pub spread_km: f64,
    /// Whether the country hosts a major interconnection hub (big colo
    /// market); drives IXP and tier-1 footprint placement.
    pub major_hub: bool,
}

macro_rules! country {
    ($code:expr, $name:expr, $region:expr, $lat:expr, $lon:expr, $users:expr, $spread:expr, $hub:expr) => {
        Country {
            code: $code,
            name: $name,
            region: $region,
            centroid: GeoPoint {
                lat_deg: $lat,
                lon_deg: $lon,
            },
            users_m: $users,
            spread_km: $spread,
            major_hub: $hub,
        }
    };
}

/// The world: 56 countries covering ~4.3 B Internet users.
pub const WORLD: &[Country] = &[
    // --- North America ---
    country!("US", "United States", Region::NorthAmerica, 39.0, -96.0, 295.0, 1800.0, true),
    country!("CA", "Canada", Region::NorthAmerica, 49.0, -95.0, 34.0, 1400.0, false),
    country!("MX", "Mexico", Region::NorthAmerica, 23.0, -102.0, 88.0, 700.0, false),
    // --- South America ---
    country!("BR", "Brazil", Region::SouthAmerica, -15.0, -48.0, 150.0, 1400.0, true),
    country!("AR", "Argentina", Region::SouthAmerica, -34.0, -64.0, 39.0, 800.0, false),
    country!("CO", "Colombia", Region::SouthAmerica, 4.5, -74.0, 33.0, 500.0, false),
    country!("CL", "Chile", Region::SouthAmerica, -33.5, -70.7, 15.0, 700.0, false),
    country!("PE", "Peru", Region::SouthAmerica, -9.2, -75.0, 20.0, 500.0, false),
    country!("VE", "Venezuela", Region::SouthAmerica, 8.0, -66.0, 19.0, 400.0, false),
    country!("EC", "Ecuador", Region::SouthAmerica, -1.8, -78.2, 10.0, 300.0, false),
    // --- Europe ---
    country!("GB", "United Kingdom", Region::Europe, 52.5, -1.5, 63.0, 350.0, true),
    country!("DE", "Germany", Region::Europe, 51.0, 10.0, 77.0, 350.0, true),
    country!("FR", "France", Region::Europe, 47.0, 2.5, 58.0, 400.0, true),
    country!("IT", "Italy", Region::Europe, 42.8, 12.5, 50.0, 450.0, false),
    country!("ES", "Spain", Region::Europe, 40.2, -3.7, 42.0, 400.0, false),
    country!("NL", "Netherlands", Region::Europe, 52.2, 5.3, 16.0, 120.0, true),
    country!("PL", "Poland", Region::Europe, 52.0, 19.5, 30.0, 300.0, false),
    country!("SE", "Sweden", Region::Europe, 59.5, 17.0, 9.3, 400.0, false),
    country!("UA", "Ukraine", Region::Europe, 49.0, 31.5, 29.0, 400.0, false),
    country!("RO", "Romania", Region::Europe, 45.9, 25.0, 14.0, 250.0, false),
    country!("RU", "Russia", Region::Europe, 56.0, 44.0, 118.0, 1800.0, false),
    country!("BE", "Belgium", Region::Europe, 50.8, 4.4, 10.0, 100.0, false),
    country!("CH", "Switzerland", Region::Europe, 46.9, 7.5, 7.8, 120.0, false),
    country!("AT", "Austria", Region::Europe, 48.1, 15.0, 7.7, 180.0, false),
    country!("CZ", "Czechia", Region::Europe, 49.9, 15.3, 8.5, 150.0, false),
    country!("PT", "Portugal", Region::Europe, 39.7, -8.5, 7.8, 250.0, false),
    country!("GR", "Greece", Region::Europe, 38.5, 23.2, 7.5, 250.0, false),
    country!("NO", "Norway", Region::Europe, 60.0, 9.5, 5.0, 350.0, false),
    country!("DK", "Denmark", Region::Europe, 55.8, 10.5, 5.5, 130.0, false),
    country!("FI", "Finland", Region::Europe, 61.5, 25.0, 5.2, 350.0, false),
    country!("IE", "Ireland", Region::Europe, 53.3, -7.5, 4.3, 130.0, false),
    // --- Middle East ---
    country!("TR", "Turkey", Region::MiddleEast, 39.5, 33.0, 62.0, 600.0, false),
    country!("SA", "Saudi Arabia", Region::MiddleEast, 24.5, 45.0, 30.0, 700.0, false),
    country!("IR", "Iran", Region::MiddleEast, 33.5, 52.0, 62.0, 700.0, false),
    country!("AE", "UAE", Region::MiddleEast, 24.3, 54.4, 9.0, 150.0, true),
    country!("IL", "Israel", Region::MiddleEast, 31.8, 35.0, 7.2, 120.0, false),
    country!("IQ", "Iraq", Region::MiddleEast, 33.2, 43.7, 18.0, 350.0, false),
    // --- Africa ---
    country!("NG", "Nigeria", Region::Africa, 9.0, 7.5, 100.0, 600.0, false),
    country!("ZA", "South Africa", Region::Africa, -28.5, 25.0, 33.0, 700.0, true),
    country!("EG", "Egypt", Region::Africa, 27.5, 30.5, 50.0, 400.0, false),
    country!("KE", "Kenya", Region::Africa, -0.5, 37.5, 23.0, 350.0, false),
    country!("MA", "Morocco", Region::Africa, 32.5, -6.5, 23.0, 400.0, false),
    country!("ET", "Ethiopia", Region::Africa, 9.0, 39.5, 18.0, 450.0, false),
    country!("GH", "Ghana", Region::Africa, 7.5, -1.0, 11.0, 250.0, false),
    // --- East Asia ---
    country!("CN", "China", Region::EastAsia, 33.0, 110.0, 850.0, 1500.0, false),
    country!("JP", "Japan", Region::EastAsia, 36.0, 138.5, 110.0, 700.0, true),
    country!("KR", "South Korea", Region::EastAsia, 36.5, 127.8, 48.0, 250.0, false),
    country!("ID", "Indonesia", Region::EastAsia, -4.0, 112.0, 170.0, 1300.0, false),
    country!("PH", "Philippines", Region::EastAsia, 13.0, 122.0, 68.0, 600.0, false),
    country!("VN", "Vietnam", Region::EastAsia, 16.5, 107.5, 65.0, 700.0, false),
    country!("TH", "Thailand", Region::EastAsia, 15.0, 101.0, 50.0, 450.0, false),
    country!("MY", "Malaysia", Region::EastAsia, 3.8, 102.0, 27.0, 500.0, false),
    country!("TW", "Taiwan", Region::EastAsia, 23.8, 121.0, 21.0, 180.0, false),
    country!("SG", "Singapore", Region::EastAsia, 1.35, 103.85, 5.3, 25.0, true),
    country!("HK", "Hong Kong", Region::EastAsia, 22.3, 114.2, 6.5, 25.0, true),
    // --- South Asia ---
    country!("IN", "India", Region::SouthAsia, 22.0, 79.0, 600.0, 1200.0, true),
    country!("PK", "Pakistan", Region::SouthAsia, 30.0, 70.0, 80.0, 600.0, false),
    country!("BD", "Bangladesh", Region::SouthAsia, 23.8, 90.3, 85.0, 250.0, false),
    country!("LK", "Sri Lanka", Region::SouthAsia, 7.5, 80.7, 10.0, 150.0, false),
    country!("NP", "Nepal", Region::SouthAsia, 28.2, 84.2, 11.0, 300.0, false),
    // --- Oceania ---
    country!("AU", "Australia", Region::Oceania, -30.0, 140.0, 22.0, 1500.0, true),
    country!("NZ", "New Zealand", Region::Oceania, -40.5, 174.0, 4.4, 500.0, false),
];

/// Total Internet users across the atlas, in millions.
pub fn total_users_m() -> f64 {
    WORLD.iter().map(|c| c.users_m).sum()
}

/// Look up a country by its two-letter code.
pub fn by_code(code: &str) -> Option<(CountryIdx, &'static Country)> {
    WORLD.iter().enumerate().find(|(_, c)| c.code == code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn codes_are_unique() {
        let set: HashSet<_> = WORLD.iter().map(|c| c.code).collect();
        assert_eq!(set.len(), WORLD.len());
    }

    #[test]
    fn total_users_is_global_scale() {
        let t = total_users_m();
        assert!((3000.0..5000.0).contains(&t), "got {t}");
    }

    #[test]
    fn every_region_represented() {
        for r in Region::ALL {
            assert!(
                WORLD.iter().any(|c| c.region == r),
                "region {r} has no countries"
            );
        }
    }

    #[test]
    fn centroids_are_valid_coordinates() {
        for c in WORLD {
            assert!(c.centroid.lat_deg.abs() <= 90.0, "{}", c.code);
            assert!(c.centroid.lon_deg.abs() <= 180.0, "{}", c.code);
            assert!(c.users_m > 0.0);
            assert!(c.spread_km > 0.0);
        }
    }

    #[test]
    fn lookup_by_code() {
        let (_, us) = by_code("US").unwrap();
        assert_eq!(us.name, "United States");
        assert!(by_code("ZZ").is_none());
    }

    #[test]
    fn india_is_south_asia_and_hub() {
        let (_, inn) = by_code("IN").unwrap();
        assert_eq!(inn.region, Region::SouthAsia);
        assert!(inn.major_hub);
    }

    #[test]
    fn there_are_enough_major_hubs_for_a_global_backbone() {
        let hubs = WORLD.iter().filter(|c| c.major_hub).count();
        assert!(hubs >= 10, "got {hubs}");
    }
}
