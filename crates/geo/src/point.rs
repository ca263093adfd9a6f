//! Geographic coordinates and great-circle distance.

/// Mean Earth radius in kilometers (IUGG value).
pub const EARTH_RADIUS_KM: f64 = 6371.0;

/// A point on the Earth's surface, in decimal degrees.
///
/// Latitude is positive north, longitude positive east.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    pub lat_deg: f64,
    pub lon_deg: f64,
}

impl GeoPoint {
    /// Construct a point, normalizing longitude into [-180, 180) and clamping
    /// latitude into [-90, 90].
    pub fn new(lat_deg: f64, lon_deg: f64) -> Self {
        let lat = lat_deg.clamp(-90.0, 90.0);
        let mut lon = lon_deg.rem_euclid(360.0);
        if lon >= 180.0 {
            lon -= 360.0;
        }
        Self {
            lat_deg: lat,
            lon_deg: lon,
        }
    }

    /// Great-circle (haversine) distance to `other`, in kilometers.
    ///
    /// ```
    /// use bb_geo::GeoPoint;
    /// let nyc = GeoPoint::new(40.71, -74.01);
    /// let london = GeoPoint::new(51.51, -0.13);
    /// let d = nyc.distance_km(&london);
    /// assert!((5400.0..5750.0).contains(&d)); // ~5570 km in reality
    /// ```
    pub fn distance_km(&self, other: &GeoPoint) -> f64 {
        let lat1 = self.lat_deg.to_radians();
        let lat2 = other.lat_deg.to_radians();
        let dlat = (other.lat_deg - self.lat_deg).to_radians();
        let dlon = (other.lon_deg - self.lon_deg).to_radians();

        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        // `a` can drift a hair above 1.0 from floating-point error for
        // antipodal points; clamp before the sqrt.
        let a = a.clamp(0.0, 1.0);
        2.0 * EARTH_RADIUS_KM * a.sqrt().asin()
    }

    /// A point offset from this one by roughly `dx_km` east and `dy_km`
    /// north. Used by the atlas generator to scatter cities around a country
    /// centroid; accuracy degrades near the poles, which is fine for our
    /// synthetic atlas (no city is placed above ~70° latitude).
    pub fn offset_km(&self, dx_km: f64, dy_km: f64) -> GeoPoint {
        let dlat = dy_km / 111.0;
        let cos_lat = self.lat_deg.to_radians().cos().max(0.05);
        let dlon = dx_km / (111.0 * cos_lat);
        GeoPoint::new(self.lat_deg + dlat, self.lon_deg + dlon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nyc() -> GeoPoint {
        GeoPoint::new(40.71, -74.01)
    }
    fn london() -> GeoPoint {
        GeoPoint::new(51.51, -0.13)
    }
    fn sydney() -> GeoPoint {
        GeoPoint::new(-33.87, 151.21)
    }

    #[test]
    fn zero_distance_to_self() {
        let p = nyc();
        assert!(p.distance_km(&p) < 1e-9);
    }

    #[test]
    fn nyc_london_distance_is_realistic() {
        // Real-world value is ~5570 km.
        let d = nyc().distance_km(&london());
        assert!((5400.0..5750.0).contains(&d), "got {d}");
    }

    #[test]
    fn london_sydney_distance_is_realistic() {
        // Real-world value is ~16990 km.
        let d = london().distance_km(&sydney());
        assert!((16700.0..17300.0).contains(&d), "got {d}");
    }

    #[test]
    fn distance_is_symmetric() {
        let (a, b) = (nyc(), sydney());
        assert!((a.distance_km(&b) - b.distance_km(&a)).abs() < 1e-9);
    }

    #[test]
    fn longitude_normalization() {
        let p = GeoPoint::new(0.0, 190.0);
        assert!((p.lon_deg - (-170.0)).abs() < 1e-9);
        let q = GeoPoint::new(0.0, -190.0);
        assert!((q.lon_deg - 170.0).abs() < 1e-9);
    }

    #[test]
    fn antipodal_distance_near_half_circumference() {
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(0.0, 180.0);
        let d = a.distance_km(&b);
        let half = std::f64::consts::PI * EARTH_RADIUS_KM;
        assert!((d - half).abs() < 1.0, "got {d}, expected ~{half}");
    }

    #[test]
    fn offset_roughly_preserves_distance() {
        let p = nyc();
        let q = p.offset_km(100.0, 0.0);
        let d = p.distance_km(&q);
        assert!((90.0..110.0).contains(&d), "got {d}");
        let r = p.offset_km(0.0, 100.0);
        let d2 = p.distance_km(&r);
        assert!((95.0..105.0).contains(&d2), "got {d2}");
    }
}
