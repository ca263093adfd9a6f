//! Simulation time: minutes since the start of the run.
//!
//! The Facebook dataset of §3.1 aggregates measurements in 15-minute
//! windows over ten days; those constants live here.

/// Length of one aggregation window, minutes (§3.1).
pub const WINDOW_MINUTES: f64 = 15.0;

/// A point in simulation time, in minutes from the epoch of the run.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct SimTime(pub f64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0.0);

    pub fn from_minutes(m: f64) -> Self {
        SimTime(m)
    }

    pub fn from_hours(h: f64) -> Self {
        SimTime(h * 60.0)
    }

    pub fn from_days(d: f64) -> Self {
        SimTime(d * 24.0 * 60.0)
    }

    pub fn minutes(&self) -> f64 {
        self.0
    }

    pub fn hours(&self) -> f64 {
        self.0 / 60.0
    }

    pub fn days(&self) -> f64 {
        self.0 / (24.0 * 60.0)
    }

    /// Hour-of-day at a location `utc_offset_hours` east of UTC.
    pub fn local_hour(&self, utc_offset_hours: f64) -> f64 {
        (self.hours() + utc_offset_hours).rem_euclid(24.0)
    }

    /// Index of the aggregation window containing this time.
    pub fn window(&self) -> Window {
        Window((self.0 / WINDOW_MINUTES).floor() as u32)
    }
}

impl std::ops::Add<f64> for SimTime {
    type Output = SimTime;
    fn add(self, minutes: f64) -> SimTime {
        SimTime(self.0 + minutes)
    }
}

/// A 15-minute aggregation window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Window(pub u32);

impl Window {
    /// Start of this window.
    pub fn start(&self) -> SimTime {
        SimTime(self.0 as f64 * WINDOW_MINUTES)
    }

    /// Midpoint of this window (used as the representative sample time).
    pub fn midpoint(&self) -> SimTime {
        SimTime((self.0 as f64 + 0.5) * WINDOW_MINUTES)
    }

    /// Windows covering `[0, horizon)`.
    pub fn over(horizon: SimTime) -> impl Iterator<Item = Window> {
        let n = (horizon.minutes() / WINDOW_MINUTES).ceil() as u32;
        (0..n).map(Window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let t = SimTime::from_days(2.0);
        assert_eq!(t.minutes(), 2880.0);
        assert_eq!(t.hours(), 48.0);
        assert_eq!(t.days(), 2.0);
    }

    #[test]
    fn local_hour_wraps_at_utc() {
        assert_eq!(SimTime::from_hours(25.0).local_hour(0.0), 1.0);
        assert_eq!(SimTime::from_hours(24.0).local_hour(0.0), 0.0);
    }

    #[test]
    fn local_hour_applies_offset() {
        let t = SimTime::from_hours(23.0);
        assert_eq!(t.local_hour(2.0), 1.0);
        assert_eq!(t.local_hour(-1.0), 22.0);
        assert_eq!(t.local_hour(5.5), 4.5);
    }

    #[test]
    fn window_indexing() {
        assert_eq!(SimTime::from_minutes(0.0).window(), Window(0));
        assert_eq!(SimTime::from_minutes(14.9).window(), Window(0));
        assert_eq!(SimTime::from_minutes(15.0).window(), Window(1));
        assert_eq!(Window(2).start().minutes(), 30.0);
        assert_eq!(Window(2).midpoint().minutes(), 37.5);
    }

    #[test]
    fn windows_over_horizon() {
        let ws: Vec<Window> = Window::over(SimTime::from_hours(1.0)).collect();
        assert_eq!(ws.len(), 4);
        assert_eq!(ws[0], Window(0));
        assert_eq!(ws[3], Window(3));
    }

    #[test]
    fn ten_days_is_960_windows() {
        // The Facebook study spans ten days of 15-minute windows.
        let ws = Window::over(SimTime::from_days(10.0)).count();
        assert_eq!(ws, 960);
    }
}
