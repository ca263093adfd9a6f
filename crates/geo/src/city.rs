//! Cities: the unit of geographic placement for PoPs, interconnects, and
//! client populations.

use crate::country::CountryIdx;
use crate::point::GeoPoint;
use crate::region::Region;

/// Dense index of a city within an [`crate::atlas::Atlas`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CityId(pub u32);

impl CityId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for CityId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "city#{}", self.0)
    }
}

/// A city in the synthetic atlas.
#[derive(Debug, Clone)]
pub struct City {
    pub id: CityId,
    /// Synthetic name, e.g. `US-3`. The first city of each country (`XX-0`)
    /// sits at the country centroid and acts as its main metro.
    pub name: String,
    pub country: CountryIdx,
    pub region: Region,
    pub location: GeoPoint,
    /// Share of the country's users living in this city's metro area.
    /// Sums to 1.0 within a country.
    pub user_share: f64,
    /// Whether the city is a major colocation/interconnection hub.
    pub colo_hub: bool,
}

impl City {
    /// Great-circle distance to another city, km.
    pub fn distance_km(&self, other: &City) -> f64 {
        self.location.distance_km(&other.location)
    }
}
