//! Locality levels and placement scoring.
//!
//! Themis (and its evaluation) uses a 4-level placement scheme (§8.1):
//!
//! * **Slot** locality — all GPUs connected by NVLink within one slot,
//! * **Machine** locality — GPUs in the same machine connected over PCIe,
//! * **Rack** locality — GPUs in the same rack,
//! * **None** (cross-rack) — the allocation spans racks.
//!
//! Each successive level has lower network bandwidth. [`Locality::score`]
//! maps a level to a score in `(0, 1]` where `1.0` means tightly packed
//! (the paper's Figure 7 plots the CDF of exactly this score).

use crate::alloc::GpuAlloc;
use crate::topology::{ClusterSpec, GpuLocation};

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

    /// The placement score of an allocation at this level, in `(0, 1]`:
    /// `1.0` means tightly packed, and the score falls with the bandwidth
    /// across levels (paper §8.1, "Placement Score" metric).
    pub fn score(self) -> f64 {
        match self {
            Locality::Slot => 1.0,
            Locality::Machine => 0.9,
            Locality::Rack => 0.75,
            Locality::CrossRack => 0.5,
        }
    }
}

impl std::fmt::Display for Locality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A running fold of GPU locations into a [`Locality`]: the one place the
/// locality rule is written. [`spread`] folds an allocation into one; the
/// simulator folds every job of an app into its own in a single walk over
/// the app's GPUs.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpreadFold {
    /// GPUs added, known to the spec or not.
    gpus: usize,
    /// The first known GPU's location, which the others are compared with.
    first: Option<GpuLocation>,
    split_machine: bool,
    split_rack: bool,
    split_slot: bool,
}

impl SpreadFold {
    /// Adds one GPU at `loc`. A GPU the spec does not know (`None`) counts
    /// toward the size but not toward the spread.
    pub fn add(&mut self, loc: Option<GpuLocation>) {
        self.gpus += 1;
        let Some(loc) = loc else {
            return;
        };
        match self.first {
            None => self.first = Some(loc),
            Some(anchor) => {
                self.split_machine |= loc.machine != anchor.machine;
                self.split_rack |= loc.rack != anchor.rack;
                self.split_slot |= loc.slot != anchor.slot;
            }
        }
    }

    /// Number of GPUs added.
    pub fn gpus(&self) -> usize {
        self.gpus
    }

    /// The spread of the GPUs added so far. `Slot` for none or one (a
    /// single GPU has ideal placement by definition); `CrossRack` for
    /// several of which the spec knows none.
    pub fn locality(&self) -> Locality {
        if self.gpus <= 1 {
            return Locality::Slot;
        }
        if self.first.is_none() {
            return Locality::CrossRack;
        }
        match (self.split_machine, self.split_slot, self.split_rack) {
            (false, false, _) => Locality::Slot,
            (false, true, _) => Locality::Machine,
            (true, _, false) => Locality::Rack,
            (true, _, true) => Locality::CrossRack,
        }
    }
}

/// Computes the spread ([`Locality`]) of an allocation: one
/// [`SpreadFold`] pass over it using the spec's precomputed
/// GPU→(machine, rack, slot) table — no set construction, no per-machine
/// scans.
pub fn spread(alloc: &GpuAlloc, spec: &ClusterSpec) -> Locality {
    let mut fold = SpreadFold::default();
    for gpu in alloc.iter() {
        fold.add(spec.location_of(gpu));
    }
    fold.locality()
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
    fn unknown_gpus_count_toward_size_but_not_spread() {
        let spec = spec();
        let unknown = GpuAlloc::from_gpus([GpuId(90), GpuId(99)]);
        assert_eq!(spread(&unknown, &spec), Locality::CrossRack);
        let one_known = GpuAlloc::from_gpus([GpuId(0), GpuId(99)]);
        assert_eq!(spread(&one_known, &spec), Locality::Slot);
        let mut fold = SpreadFold::default();
        fold.add(None);
        assert_eq!((fold.gpus(), fold.locality()), (1, Locality::Slot));
    }

    #[test]
    fn score_falls_as_locality_loosens() {
        assert_eq!(Locality::Slot.score(), 1.0);
        for pair in Locality::ALL.windows(2) {
            assert!(pair[0].score() > pair[1].score(), "{pair:?}");
        }
        assert!(Locality::CrossRack.score() > 0.0);
    }

    #[test]
    fn locality_names() {
        assert_eq!(Locality::Slot.to_string(), "slot");
        assert_eq!(Locality::CrossRack.name(), "cross-rack");
        assert_eq!(Locality::ALL.len(), 4);
    }
}
