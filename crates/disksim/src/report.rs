//! Per-disk accounting.

use pc_units::{Joules, SimDuration};

/// Complete time and energy accounting for one simulated disk.
///
/// Every simulated microsecond of the disk's life is attributed to exactly
/// one bucket: servicing (active), residing in a power mode, spinning
/// down, or spinning up — which is what makes the paper's Figure 7a
/// percentage-breakdown reproducible.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DiskReport {
    /// Time spent actively servicing requests (seek + rotation + transfer).
    pub service_time: SimDuration,
    /// Time resting in each power mode, indexed by mode (0 = full-speed
    /// idle).
    pub mode_time: Vec<SimDuration>,
    /// Time spent in spin-down transitions.
    pub spin_down_time: SimDuration,
    /// Time spent in spin-up transitions.
    pub spin_up_time: SimDuration,
    /// Energy spent servicing requests.
    pub service_energy: Joules,
    /// Energy spent resting in each power mode.
    pub mode_energy: Vec<Joules>,
    /// Energy spent in spin-down transitions.
    pub spin_down_energy: Joules,
    /// Energy spent in spin-up transitions.
    pub spin_up_energy: Joules,
    /// Number of requests serviced.
    pub requests: u64,
    /// Number of spin-down transitions (counting each ladder demotion).
    pub spin_downs: u64,
    /// Number of spin-ups back to full speed.
    pub spin_ups: u64,
    /// Sum of per-request response times (completion − arrival).
    pub response_total: SimDuration,
    /// Largest single response time observed.
    pub response_max: SimDuration,
    /// Sum of gaps between consecutive request arrivals at this disk.
    pub interarrival_total: SimDuration,
    /// Number of gaps in `interarrival_total`.
    pub interarrival_count: u64,
}

impl DiskReport {
    /// Creates an empty report for a disk with `modes` power modes.
    #[must_use]
    pub fn new(modes: usize) -> Self {
        DiskReport {
            mode_time: vec![SimDuration::ZERO; modes],
            mode_energy: vec![Joules::ZERO; modes],
            ..DiskReport::default()
        }
    }

    /// Total energy attributed to this disk.
    #[must_use]
    pub fn total_energy(&self) -> Joules {
        self.service_energy
            + self.mode_energy.iter().copied().sum::<Joules>()
            + self.spin_down_energy
            + self.spin_up_energy
    }

    /// Total accounted time. Once the simulation is finished this is at
    /// least the simulated horizon, and it can run past it: a spin-down
    /// or spin-up still in flight at `finish` is accounted in full, so
    /// its completion may land after the horizon.
    #[must_use]
    pub fn total_time(&self) -> SimDuration {
        self.service_time
            + self.mode_time.iter().copied().sum::<SimDuration>()
            + self.spin_down_time
            + self.spin_up_time
    }

    /// Mean response time, or zero if the disk serviced no requests.
    #[must_use]
    pub fn mean_response(&self) -> SimDuration {
        if self.requests == 0 {
            SimDuration::ZERO
        } else {
            self.response_total / self.requests
        }
    }

    /// Mean gap between consecutive arrivals, or zero with fewer than two
    /// requests.
    #[must_use]
    pub fn mean_interarrival(&self) -> SimDuration {
        if self.interarrival_count == 0 {
            SimDuration::ZERO
        } else {
            self.interarrival_total / self.interarrival_count
        }
    }

    /// Fraction of accounted time spent in the given bucket list
    /// `(service, per-mode, spin-down, spin-up)`, for Figure-7a style
    /// breakdowns. Returns zeros for an empty report.
    #[must_use]
    pub fn time_fractions(&self) -> TimeFractions {
        let total = self.total_time().as_secs_f64();
        if total == 0.0 {
            return TimeFractions::default();
        }
        TimeFractions {
            service: self.service_time.as_secs_f64() / total,
            per_mode: self
                .mode_time
                .iter()
                .map(|t| t.as_secs_f64() / total)
                .collect(),
            spin_down: self.spin_down_time.as_secs_f64() / total,
            spin_up: self.spin_up_time.as_secs_f64() / total,
        }
    }

    /// Merges another report into this one (used to total an array).
    ///
    /// # Panics
    ///
    /// Panics if the two reports have different mode counts.
    pub fn merge(&mut self, other: &DiskReport) {
        assert_eq!(
            self.mode_time.len(),
            other.mode_time.len(),
            "cannot merge reports with different mode counts"
        );
        self.service_time += other.service_time;
        self.spin_down_time += other.spin_down_time;
        self.spin_up_time += other.spin_up_time;
        self.service_energy += other.service_energy;
        self.spin_down_energy += other.spin_down_energy;
        self.spin_up_energy += other.spin_up_energy;
        self.requests += other.requests;
        self.spin_downs += other.spin_downs;
        self.spin_ups += other.spin_ups;
        self.response_total += other.response_total;
        self.response_max = self.response_max.max(other.response_max);
        self.interarrival_total += other.interarrival_total;
        self.interarrival_count += other.interarrival_count;
        for (a, b) in self.mode_time.iter_mut().zip(&other.mode_time) {
            *a += *b;
        }
        for (a, b) in self.mode_energy.iter_mut().zip(&other.mode_energy) {
            *a += *b;
        }
    }
}

/// A Figure-7a style percentage time breakdown.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeFractions {
    /// Fraction of time servicing requests.
    pub service: f64,
    /// Fraction of time resting in each mode.
    pub per_mode: Vec<f64>,
    /// Fraction of time spinning down.
    pub spin_down: f64,
    /// Fraction of time spinning up.
    pub spin_up: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_buckets() {
        let mut r = DiskReport::new(2);
        r.service_time = SimDuration::from_secs(1);
        r.mode_time[0] = SimDuration::from_secs(2);
        r.mode_time[1] = SimDuration::from_secs(3);
        r.spin_down_time = SimDuration::from_secs(4);
        r.spin_up_time = SimDuration::from_secs(5);
        assert_eq!(r.total_time(), SimDuration::from_secs(15));
        r.service_energy = Joules::new(1.0);
        r.mode_energy[1] = Joules::new(2.0);
        r.spin_up_energy = Joules::new(3.0);
        assert!((r.total_energy().as_joules() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn means_handle_empty_reports() {
        let r = DiskReport::new(2);
        assert_eq!(r.mean_response(), SimDuration::ZERO);
        assert_eq!(r.mean_interarrival(), SimDuration::ZERO);
        assert_eq!(r.time_fractions(), TimeFractions::default());
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut r = DiskReport::new(3);
        r.service_time = SimDuration::from_secs(1);
        r.mode_time[0] = SimDuration::from_secs(5);
        r.mode_time[2] = SimDuration::from_secs(3);
        r.spin_up_time = SimDuration::from_secs(1);
        let f = r.time_fractions();
        let sum = f.service + f.per_mode.iter().sum::<f64>() + f.spin_down + f.spin_up;
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = DiskReport::new(1);
        a.requests = 2;
        a.response_max = SimDuration::from_secs(1);
        let mut b = DiskReport::new(1);
        b.requests = 3;
        b.response_max = SimDuration::from_secs(2);
        b.mode_energy[0] = Joules::new(5.0);
        a.merge(&b);
        assert_eq!(a.requests, 5);
        assert_eq!(a.response_max, SimDuration::from_secs(2));
        assert!((a.total_energy().as_joules() - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "mode counts")]
    fn merge_rejects_mismatched_modes() {
        let mut a = DiskReport::new(1);
        a.merge(&DiskReport::new(2));
    }
}
