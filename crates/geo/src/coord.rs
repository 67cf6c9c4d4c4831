//! Geographic coordinates and great-circle geometry.
//!
//! Distances use the haversine formula on a spherical Earth, which is
//! accurate to ~0.5 % — far below the noise floor of any latency model built
//! on top of it. The paper reports data-path distance in miles (Fig 17), so
//! both kilometre and mile accessors are provided.

/// Mean Earth radius in kilometres (IUGG).
pub const EARTH_RADIUS_KM: f64 = 6371.0088;

/// Kilometres per statute mile.
pub const KM_PER_MILE: f64 = 1.609_344;

/// A point on the Earth's surface, in degrees.
///
/// Latitude is clamped to `[-90, +90]`, longitude is wrapped to
/// `[-180, +180)` at construction; the fields themselves are private so the
/// invariant always holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    lat_deg: f64,
    lon_deg: f64,
}

impl GeoPoint {
    /// Creates a point, clamping latitude and wrapping longitude into range.
    ///
    /// Non-finite inputs are mapped to `0.0` rather than poisoning all
    /// downstream geometry; generators never produce them, and parsers are
    /// expected to validate beforehand.
    pub fn new(lat_deg: f64, lon_deg: f64) -> Self {
        let lat = if lat_deg.is_finite() {
            lat_deg.clamp(-90.0, 90.0)
        } else {
            0.0
        };
        let lon = if lon_deg.is_finite() {
            wrap_lon(lon_deg)
        } else {
            0.0
        };
        GeoPoint {
            lat_deg: lat,
            lon_deg: lon,
        }
    }

    /// Latitude in degrees, in `[-90, +90]`.
    pub fn lat_deg(&self) -> f64 {
        self.lat_deg
    }

    /// Longitude in degrees, in `[-180, +180)`.
    pub fn lon_deg(&self) -> f64 {
        self.lon_deg
    }

    /// Great-circle distance to `other` in kilometres (haversine).
    pub fn distance_km(&self, other: GeoPoint) -> f64 {
        let (lat1, lon1) = (self.lat_deg.to_radians(), self.lon_deg.to_radians());
        let (lat2, lon2) = (other.lat_deg.to_radians(), other.lon_deg.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        // Clamp guards against tiny negative rounding of `1 - a`.
        2.0 * EARTH_RADIUS_KM * a.sqrt().min(1.0).asin()
    }

    /// Great-circle distance to `other` in statute miles.
    pub fn distance_miles(&self, other: GeoPoint) -> f64 {
        self.distance_km(other) / KM_PER_MILE
    }

    /// Returns a point offset by roughly `dlat_deg` / `dlon_deg` degrees,
    /// re-normalised. Used by generators to scatter cities around a country
    /// centre.
    pub fn offset(&self, dlat_deg: f64, dlon_deg: f64) -> GeoPoint {
        GeoPoint::new(self.lat_deg + dlat_deg, self.lon_deg + dlon_deg)
    }
}

/// Wraps a longitude into `[-180, +180)`.
fn wrap_lon(lon: f64) -> f64 {
    let mut l = (lon + 180.0) % 360.0;
    if l < 0.0 {
        l += 360.0;
    }
    l - 180.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon)
    }

    #[test]
    fn zero_distance_to_self() {
        let x = p(40.0, -75.0);
        assert_eq!(x.distance_km(x), 0.0);
    }

    #[test]
    fn known_distance_new_york_london() {
        // JFK (40.64, -73.78) to LHR (51.47, -0.45) is ~5540 km.
        let d = p(40.64, -73.78).distance_km(p(51.47, -0.45));
        assert!((d - 5540.0).abs() < 60.0, "got {d}");
    }

    #[test]
    fn known_distance_equator_quarter() {
        // Quarter of the equatorial circumference.
        let d = p(0.0, 0.0).distance_km(p(0.0, 90.0));
        let expect = std::f64::consts::PI * EARTH_RADIUS_KM / 2.0;
        assert!((d - expect).abs() < 1.0, "got {d}");
    }

    #[test]
    fn symmetry() {
        let a = p(12.3, 45.6);
        let b = p(-33.9, 151.2);
        assert!((a.distance_km(b) - b.distance_km(a)).abs() < 1e-9);
    }

    #[test]
    fn miles_conversion() {
        let a = p(0.0, 0.0);
        let b = p(0.0, 1.0);
        let km = a.distance_km(b);
        assert!((a.distance_miles(b) - km / KM_PER_MILE).abs() < 1e-9);
    }

    #[test]
    fn latitude_is_clamped() {
        assert_eq!(p(123.0, 0.0).lat_deg(), 90.0);
        assert_eq!(p(-123.0, 0.0).lat_deg(), -90.0);
    }

    #[test]
    fn longitude_is_wrapped() {
        assert!((p(0.0, 190.0).lon_deg() - (-170.0)).abs() < 1e-9);
        assert!((p(0.0, -190.0).lon_deg() - 170.0).abs() < 1e-9);
        assert!(
            (p(0.0, 540.0).lon_deg() - 180.0).abs() < 1e-9 || p(0.0, 540.0).lon_deg() == -180.0
        );
    }

    #[test]
    fn non_finite_inputs_become_origin() {
        assert_eq!(p(f64::NAN, f64::INFINITY), p(0.0, 0.0));
    }

    #[test]
    fn antipodal_distance_is_half_circumference() {
        let d = p(0.0, 0.0).distance_km(p(0.0, 180.0));
        let expect = std::f64::consts::PI * EARTH_RADIUS_KM;
        assert!((d - expect).abs() < 1.0, "got {d}");
    }

    #[test]
    fn offset_moves_point() {
        let a = p(10.0, 10.0);
        let b = a.offset(1.0, 0.0);
        assert!(b.lat_deg() > a.lat_deg());
        assert!(a.distance_km(b) > 100.0);
    }
}
