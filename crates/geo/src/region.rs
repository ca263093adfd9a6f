//! World regions, at the granularity Figure 5 of the paper reasons about.
//!
//! South Asia is split out from the rest of Asia because the paper's §3.3.2
//! case study (public Internet beating Google's WAN from India) is a
//! region-level effect we model explicitly.

/// A coarse world region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Region {
    NorthAmerica,
    SouthAmerica,
    Europe,
    MiddleEast,
    Africa,
    /// East and Southeast Asia (China, Japan, Korea, SE Asia).
    EastAsia,
    /// India and its neighbors — split out for the §3.3.2 case study.
    SouthAsia,
    Oceania,
}

impl Region {
    /// All regions, in a stable order.
    pub const ALL: [Region; 8] = [
        Region::NorthAmerica,
        Region::SouthAmerica,
        Region::Europe,
        Region::MiddleEast,
        Region::Africa,
        Region::EastAsia,
        Region::SouthAsia,
        Region::Oceania,
    ];

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Region::NorthAmerica => "North America",
            Region::SouthAmerica => "South America",
            Region::Europe => "Europe",
            Region::MiddleEast => "Middle East",
            Region::Africa => "Africa",
            Region::EastAsia => "East Asia",
            Region::SouthAsia => "South Asia",
            Region::Oceania => "Oceania",
        }
    }

    /// Rough UTC offset of the region's population center, in hours. Used by
    /// the diurnal congestion model to phase local peak hours.
    pub fn utc_offset_hours(&self) -> f64 {
        match self {
            Region::NorthAmerica => -6.0,
            Region::SouthAmerica => -4.0,
            Region::Europe => 1.0,
            Region::MiddleEast => 3.0,
            Region::Africa => 2.0,
            Region::EastAsia => 8.0,
            Region::SouthAsia => 5.5,
            Region::Oceania => 10.0,
        }
    }
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_regions_distinct() {
        use std::collections::HashSet;
        let set: HashSet<_> = Region::ALL.iter().collect();
        assert_eq!(set.len(), Region::ALL.len());
    }

    #[test]
    fn utc_offsets_within_bounds() {
        for r in Region::ALL {
            let o = r.utc_offset_hours();
            assert!((-12.0..=14.0).contains(&o));
        }
    }
}
