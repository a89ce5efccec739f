//! The placement-sensitivity model `S`.
//!
//! The paper models job slowdown from non-ideal placement as a factor
//! `S(G) <= 1` applied to the linear-scaling running time (§5.2, step 3):
//!
//! ```text
//! time = serial_time / (G * S(placement))
//! ```
//!
//! `S` takes one value per network boundary the allocation spans: GPUs in
//! one NVLink slot, GPUs spanning PCIe slots within a machine, GPUs spanning
//! machines in a rack, and GPUs spanning racks. `S → 1` means the model is
//! placement-insensitive (e.g. ResNet50); a small cross-machine `S` means
//! the model is network-intensive (e.g. VGG16).

use themis_cluster::placement::Locality;

/// Per-locality slowdown factors, each in `(0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementSensitivity {
    /// Factor when all GPUs share an NVLink slot (usually 1.0).
    pub slot: f64,
    /// Factor when GPUs span PCIe slots of one machine.
    pub machine: f64,
    /// Factor when GPUs span machines within a rack.
    pub rack: f64,
    /// Factor when GPUs span racks.
    pub cross_rack: f64,
}

impl PlacementSensitivity {
    /// A perfectly placement-insensitive profile (`S = 1` everywhere).
    pub const INSENSITIVE: PlacementSensitivity = PlacementSensitivity {
        slot: 1.0,
        machine: 1.0,
        rack: 1.0,
        cross_rack: 1.0,
    };

    /// Creates a profile from the four per-level factors.
    ///
    /// # Panics
    /// Panics unless `1 >= slot >= machine >= rack >= cross_rack > 0`.
    pub fn new(slot: f64, machine: f64, rack: f64, cross_rack: f64) -> Self {
        assert!(
            slot <= 1.0
                && slot >= machine
                && machine >= rack
                && rack >= cross_rack
                && cross_rack > 0.0,
            "sensitivity factors must be monotonically non-increasing in (0, 1]"
        );
        PlacementSensitivity {
            slot,
            machine,
            rack,
            cross_rack,
        }
    }

    /// The slowdown factor for a given locality level.
    pub fn factor(&self, locality: Locality) -> f64 {
        match locality {
            Locality::Slot => self.slot,
            Locality::Machine => self.machine,
            Locality::Rack => self.rack,
            Locality::CrossRack => self.cross_rack,
        }
    }

    /// Effective parallel speedup of `gpus` GPUs placed with the given
    /// locality: `G * S(locality)` (the denominator of the paper's running
    /// time estimate). A single GPU never pays a communication penalty.
    /// Returns 0 for zero GPUs.
    pub fn effective_speedup(&self, gpus: usize, locality: Locality) -> f64 {
        if gpus == 0 {
            0.0
        } else if gpus == 1 {
            1.0
        } else {
            gpus as f64 * self.factor(locality)
        }
    }

    /// Whether this profile is "network intensive" in the sense of the
    /// paper's §8.4.1: the model loses more than 30% of its throughput when
    /// its GPUs span machines.
    pub fn is_network_intensive(&self) -> bool {
        self.rack < 0.7
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_by_locality() {
        let s = PlacementSensitivity::new(1.0, 0.9, 0.6, 0.4);
        assert_eq!(s.factor(Locality::Slot), 1.0);
        assert_eq!(s.factor(Locality::Machine), 0.9);
        assert_eq!(s.factor(Locality::Rack), 0.6);
        assert_eq!(s.factor(Locality::CrossRack), 0.4);
    }

    #[test]
    fn effective_speedup_scales_with_gpus() {
        let s = PlacementSensitivity::new(1.0, 0.9, 0.6, 0.4);
        assert_eq!(s.effective_speedup(0, Locality::Slot), 0.0);
        assert_eq!(s.effective_speedup(1, Locality::CrossRack), 1.0);
        assert_eq!(s.effective_speedup(4, Locality::Slot), 4.0);
        assert!((s.effective_speedup(4, Locality::Rack) - 2.4).abs() < 1e-12);
    }

    #[test]
    fn network_intensive_classification() {
        let vgg_like = PlacementSensitivity::new(1.0, 0.9, 0.5, 0.35);
        let resnet_like = PlacementSensitivity::new(1.0, 0.98, 0.95, 0.9);
        assert!(vgg_like.is_network_intensive());
        assert!(!resnet_like.is_network_intensive());
    }

    #[test]
    fn insensitive_profile_never_slows_down() {
        let s = PlacementSensitivity::INSENSITIVE;
        for loc in Locality::ALL {
            assert_eq!(s.factor(loc), 1.0);
        }
        assert_eq!(s.effective_speedup(8, Locality::CrossRack), 8.0);
    }

    #[test]
    #[should_panic(expected = "monotonically")]
    fn non_monotone_rejected() {
        let _ = PlacementSensitivity::new(1.0, 0.5, 0.9, 0.2);
    }
}
