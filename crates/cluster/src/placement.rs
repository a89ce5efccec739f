//! Locality levels and placement scoring.
//!
//! Themis (and its evaluation) uses a 4-level placement scheme (§8.1):
//!
//! * **Slot** locality — all GPUs connected by NVLink within one slot,
//! * **Machine** locality — GPUs in the same machine connected over PCIe,
//! * **Rack** locality — GPUs in the same rack,
//! * **None** (cross-rack) — the allocation spans racks.
//!
//! Each successive level has lower network bandwidth. The [`PlacementScorer`]
//! maps an allocation to a score in `(0, 1]` where `1.0` means tightly
//! packed (the paper's Figure 7 plots the CDF of exactly this score).

use crate::alloc::GpuAlloc;
use crate::topology::ClusterSpec;

/// The tightest network boundary an allocation fits inside.
///
/// Ordered from tightest (best) to loosest (worst): `Slot < Machine < Rack <
/// CrossRack`. An empty or single-GPU allocation is always `Slot`-local.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Locality {
    /// All GPUs in one NVLink slot.
    Slot,
    /// All GPUs in one machine (PCIe).
    Machine,
    /// All GPUs in one rack.
    Rack,
    /// The allocation crosses racks ("no locality" in the paper).
    CrossRack,
}

impl Locality {
    /// All locality levels from tightest to loosest.
    pub const ALL: [Locality; 4] = [
        Locality::Slot,
        Locality::Machine,
        Locality::Rack,
        Locality::CrossRack,
    ];

    /// Human-readable name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Locality::Slot => "slot",
            Locality::Machine => "machine",
            Locality::Rack => "rack",
            Locality::CrossRack => "cross-rack",
        }
    }
}

impl std::fmt::Display for Locality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Computes the spread ([`Locality`]) of an allocation.
///
/// Returns `Locality::Slot` for empty or single-GPU allocations (a single GPU
/// has ideal placement by definition). One pass over the allocation using
/// the spec's precomputed GPU→(machine, rack, slot) table — no set
/// construction, no per-machine scans.
pub fn spread(alloc: &GpuAlloc, spec: &ClusterSpec) -> Locality {
    if alloc.len() <= 1 {
        return Locality::Slot;
    }
    let mut first = None;
    let mut same_machine = true;
    let mut same_rack = true;
    let mut same_slot = true;
    for gpu in alloc.iter() {
        let Some(loc) = spec.location_of(gpu) else {
            continue;
        };
        match first {
            None => first = Some(loc),
            Some(anchor) => {
                same_machine &= loc.machine == anchor.machine;
                same_rack &= loc.rack == anchor.rack;
                same_slot &= loc.slot == anchor.slot;
            }
        }
    }
    if first.is_none() {
        // A multi-GPU allocation with no GPU known to this spec: worst
        // placement, matching the previous set-based implementation.
        return Locality::CrossRack;
    }
    match (same_machine, same_slot, same_rack) {
        (true, true, _) => Locality::Slot,
        (true, false, _) => Locality::Machine,
        (false, _, true) => Locality::Rack,
        (false, _, false) => Locality::CrossRack,
    }
}

/// Maps a [`Locality`] level to a placement score in `(0, 1]`.
///
/// A score of `1.0` indicates GPUs are tightly packed; lower scores imply
/// GPUs that are spread out (paper §8.1, "Placement Score" metric). The
/// default scores mirror the decreasing bandwidth across levels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementScorer {
    /// Score when all GPUs share an NVLink slot.
    pub slot: f64,
    /// Score when all GPUs share a machine.
    pub machine: f64,
    /// Score when all GPUs share a rack.
    pub rack: f64,
    /// Score when the allocation crosses racks.
    pub cross_rack: f64,
}

impl Default for PlacementScorer {
    fn default() -> Self {
        PlacementScorer {
            slot: 1.0,
            machine: 0.9,
            rack: 0.75,
            cross_rack: 0.5,
        }
    }
}

impl PlacementScorer {
    /// The score for a locality level.
    pub fn score_for(&self, locality: Locality) -> f64 {
        match locality {
            Locality::Slot => self.slot,
            Locality::Machine => self.machine,
            Locality::Rack => self.rack,
            Locality::CrossRack => self.cross_rack,
        }
    }

    /// The placement score of a concrete allocation.
    pub fn score(&self, alloc: &GpuAlloc, spec: &ClusterSpec) -> f64 {
        self.score_for(spread(alloc, spec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::GpuId;

    fn spec() -> ClusterSpec {
        // Rack 0: two 4-GPU machines (slot size 2); rack 1: one 4-GPU machine.
        ClusterSpec::builder()
            .rack(|r| r.machines(2, 4))
            .rack(|r| r.machines(1, 4))
            .build()
    }

    #[test]
    fn empty_and_single_gpu_are_slot_local() {
        let spec = spec();
        assert_eq!(spread(&GpuAlloc::empty(), &spec), Locality::Slot);
        assert_eq!(
            spread(&GpuAlloc::from_gpus([GpuId(5)]), &spec),
            Locality::Slot
        );
    }

    #[test]
    fn slot_vs_machine_locality() {
        let spec = spec();
        // GPUs 0,1 share slot 0 of machine 0 (slot size 2).
        let slot_local = GpuAlloc::from_gpus([GpuId(0), GpuId(1)]);
        assert_eq!(spread(&slot_local, &spec), Locality::Slot);
        // GPUs 0,2 are in different slots of machine 0.
        let machine_local = GpuAlloc::from_gpus([GpuId(0), GpuId(2)]);
        assert_eq!(spread(&machine_local, &spec), Locality::Machine);
    }

    #[test]
    fn rack_and_cross_rack_locality() {
        let spec = spec();
        // Machines 0 and 1 are both in rack 0.
        let rack_local = GpuAlloc::from_gpus([GpuId(0), GpuId(4)]);
        assert_eq!(spread(&rack_local, &spec), Locality::Rack);
        // Machine 2 is in rack 1.
        let cross = GpuAlloc::from_gpus([GpuId(0), GpuId(8)]);
        assert_eq!(spread(&cross, &spec), Locality::CrossRack);
    }

    #[test]
    fn scorer_is_monotone() {
        let scorer = PlacementScorer::default();
        assert!(scorer.score_for(Locality::Slot) >= scorer.score_for(Locality::Machine));
        assert!(scorer.score_for(Locality::Machine) >= scorer.score_for(Locality::Rack));
        assert!(scorer.score_for(Locality::Rack) >= scorer.score_for(Locality::CrossRack));
        assert_eq!(scorer.score_for(Locality::Slot), 1.0);
    }

    #[test]
    fn scorer_scores_allocations() {
        let spec = spec();
        let scorer = PlacementScorer::default();
        let tight = GpuAlloc::from_gpus([GpuId(0), GpuId(1)]);
        let spread_alloc = GpuAlloc::from_gpus([GpuId(0), GpuId(8)]);
        assert!(scorer.score(&tight, &spec) > scorer.score(&spread_alloc, &spec));
    }

    #[test]
    fn locality_names() {
        assert_eq!(Locality::Slot.to_string(), "slot");
        assert_eq!(Locality::CrossRack.name(), "cross-rack");
        assert_eq!(Locality::ALL.len(), 4);
    }
}
