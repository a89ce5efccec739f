//! Static cluster topology: racks, machines, GPUs and NVLink slots.
//!
//! The topology is immutable once built. Mutable allocation state lives in
//! [`crate::cluster::Cluster`], which wraps a [`ClusterSpec`].
//!
//! The paper evaluates Themis on two clusters:
//!
//! * a simulated, heterogeneously constructed **256-GPU** cluster with a
//!   mixture of 4-GPU, 2-GPU and 1-GPU machines spread across multiple
//!   racks ([`ClusterSpec::heterogeneous_256`]), and
//! * a **50-GPU** Azure testbed of NC/NV instances with 1/2/4 GPUs each
//!   ([`ClusterSpec::testbed_50`]).

use crate::ids::{GpuId, MachineId, RackId};

/// Description of a single machine: how many GPUs it has, how they are
/// grouped into NVLink slots, and which rack it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineSpec {
    /// Machine identifier (dense, assigned by the builder).
    pub id: MachineId,
    /// Rack this machine lives in.
    pub rack: RackId,
    /// Global ids of the GPUs on this machine, in slot order.
    pub gpus: Vec<GpuId>,
    /// Number of GPUs per NVLink slot. GPUs within a slot communicate over
    /// NVLink; GPUs in different slots of the same machine communicate over
    /// PCIe. A `slot_size` >= `gpus.len()` means the whole machine is one
    /// slot.
    pub slot_size: usize,
}

impl MachineSpec {
    /// Number of GPUs on this machine.
    pub fn num_gpus(&self) -> usize {
        self.gpus.len()
    }
}

/// Precomputed location of one GPU: its machine, rack and NVLink slot.
/// Built once by the [`ClusterSpecBuilder`], so placement scoring never
/// has to scan a machine's GPU list at auction time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuLocation {
    /// Machine holding the GPU.
    pub machine: MachineId,
    /// Rack the machine lives in.
    pub rack: RackId,
    /// NVLink slot index within the machine.
    pub slot: u32,
}

/// Description of a rack: a set of machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RackSpec {
    /// Rack identifier.
    pub id: RackId,
    /// Machines in this rack.
    pub machines: Vec<MachineId>,
}

/// Immutable description of an entire cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSpec {
    machines: Vec<MachineSpec>,
    racks: Vec<RackSpec>,
    /// gpu index -> (machine, rack, slot) (dense lookup).
    gpu_locations: Vec<GpuLocation>,
}

impl ClusterSpec {
    /// Starts building a cluster specification.
    pub fn builder() -> ClusterSpecBuilder {
        ClusterSpecBuilder::default()
    }

    /// All machines in the cluster, ordered by id.
    pub fn machines(&self) -> &[MachineSpec] {
        &self.machines
    }

    /// Looks up a machine by id.
    pub fn machine(&self, id: MachineId) -> Option<&MachineSpec> {
        self.machines.get(id.index())
    }

    /// Total number of GPUs in the cluster.
    pub fn total_gpus(&self) -> usize {
        self.gpu_locations.len()
    }

    /// Total number of machines in the cluster.
    pub fn total_machines(&self) -> usize {
        self.machines.len()
    }

    /// Total number of racks in the cluster.
    pub fn total_racks(&self) -> usize {
        self.racks.len()
    }

    /// The machine a GPU belongs to, or `None` for an unknown GPU.
    pub fn machine_of(&self, gpu: GpuId) -> Option<MachineId> {
        self.gpu_locations.get(gpu.index()).map(|l| l.machine)
    }

    /// The rack a GPU belongs to, or `None` for an unknown GPU.
    pub fn rack_of(&self, gpu: GpuId) -> Option<RackId> {
        self.gpu_locations.get(gpu.index()).map(|l| l.rack)
    }

    /// The full precomputed location of a GPU, or `None` for an unknown GPU.
    pub fn location_of(&self, gpu: GpuId) -> Option<GpuLocation> {
        self.gpu_locations.get(gpu.index()).copied()
    }

    /// Iterates over every GPU id in the cluster.
    pub fn all_gpus(&self) -> impl Iterator<Item = GpuId> + '_ {
        (0..self.total_gpus() as u32).map(GpuId)
    }

    /// The paper's simulated cluster: a heterogeneously constructed 256-GPU
    /// cluster with a mixture of 4-GPU, 2-GPU and 1-GPU machines spread
    /// across multiple racks (§8.1).
    ///
    /// Layout: 4 racks, each with 12 × 4-GPU machines, 6 × 2-GPU machines
    /// and 4 × 1-GPU machines = 64 GPUs per rack, 256 GPUs total.
    pub fn heterogeneous_256() -> ClusterSpec {
        let mut b = ClusterSpec::builder();
        for _ in 0..4 {
            b = b.rack(|r| {
                r.machines_with(12, 4, 2)
                    .machines_with(6, 2, 2)
                    .machines_with(4, 1, 1)
            });
        }
        b.build()
    }

    /// The paper's testbed: 50 GPUs spread across 20 Azure NC/NV instances
    /// with 1, 2 or 4 GPUs each (§8.1).
    ///
    /// Layout: 2 racks; 10 machines per rack; per rack: 4 × 4-GPU (the
    /// NC-series K80 instances), 3 × 2-GPU and 3 × 1-GPU (the NV-series M60
    /// instances) = 25 GPUs per rack, 50 total across 20 instances.
    pub fn testbed_50() -> ClusterSpec {
        let mut b = ClusterSpec::builder();
        for _ in 0..2 {
            b = b.rack(|r| {
                r.machines_with(4, 4, 2)
                    .machines_with(3, 2, 2)
                    .machines_with(3, 1, 1)
            });
        }
        b.build()
    }

    /// A homogeneous cluster: `racks` racks of `machines_per_rack` machines
    /// with `gpus_per_machine` GPUs each. Useful for unit tests and
    /// micro-benchmarks.
    pub fn homogeneous(
        racks: usize,
        machines_per_rack: usize,
        gpus_per_machine: usize,
    ) -> ClusterSpec {
        ClusterSpec::synthetic(racks, machines_per_rack, gpus_per_machine)
    }

    /// A synthetic homogeneous cluster for scale studies beyond the paper's
    /// 256 GPUs: `racks` racks × `machines_per_rack` machines ×
    /// `gpus_per_machine` GPUs (one NVLink slot per GPU pair). The `scale`
    /// scenario matrix builds its 1024- and 4096-GPU clusters with this
    /// constructor.
    ///
    /// ```
    /// use themis_cluster::topology::ClusterSpec;
    ///
    /// // The scale matrix's 1024-GPU cluster: 16 racks × 16 machines × 4.
    /// let spec = ClusterSpec::synthetic(16, 16, 4);
    /// assert_eq!(spec.total_gpus(), 1024);
    /// assert_eq!(spec.total_machines(), 256);
    /// assert_eq!(spec.total_racks(), 16);
    /// ```
    pub fn synthetic(
        racks: usize,
        machines_per_rack: usize,
        gpus_per_machine: usize,
    ) -> ClusterSpec {
        let mut b = ClusterSpec::builder();
        for _ in 0..racks {
            b = b.rack(|r| r.machines(machines_per_rack, gpus_per_machine));
        }
        b.build()
    }
}

/// Builder for [`ClusterSpec`].
#[derive(Debug, Default)]
pub struct ClusterSpecBuilder {
    racks: Vec<RackBuilder>,
}

impl ClusterSpecBuilder {
    /// Adds a rack described by the closure.
    pub fn rack(mut self, f: impl FnOnce(RackBuilder) -> RackBuilder) -> Self {
        self.racks.push(f(RackBuilder::default()));
        self
    }

    /// Finalizes the specification, assigning dense machine / GPU ids in
    /// declaration order.
    pub fn build(self) -> ClusterSpec {
        let mut machines = Vec::new();
        let mut racks = Vec::new();
        let mut gpu_locations = Vec::new();
        let mut next_gpu = 0u32;
        let mut next_machine = 0u32;

        for (rack_idx, rack) in self.racks.into_iter().enumerate() {
            let rack_id = RackId(rack_idx as u32);
            let mut rack_machines = Vec::new();
            for group in rack.groups {
                let slot_size = group.slot_size.max(1);
                for _ in 0..group.count {
                    let machine_id = MachineId(next_machine);
                    next_machine += 1;
                    let gpus: Vec<GpuId> = (0..group.gpus_per_machine)
                        .map(|slot_idx| {
                            let id = GpuId(next_gpu);
                            next_gpu += 1;
                            gpu_locations.push(GpuLocation {
                                machine: machine_id,
                                rack: rack_id,
                                slot: (slot_idx / slot_size) as u32,
                            });
                            id
                        })
                        .collect();
                    machines.push(MachineSpec {
                        id: machine_id,
                        rack: rack_id,
                        gpus,
                        slot_size: group.slot_size,
                    });
                    rack_machines.push(machine_id);
                }
            }
            racks.push(RackSpec {
                id: rack_id,
                machines: rack_machines,
            });
        }

        ClusterSpec {
            machines,
            racks,
            gpu_locations,
        }
    }
}

/// Builder for a single rack within a [`ClusterSpecBuilder`].
#[derive(Debug, Default)]
pub struct RackBuilder {
    groups: Vec<MachineGroup>,
}

#[derive(Debug)]
struct MachineGroup {
    count: usize,
    gpus_per_machine: usize,
    slot_size: usize,
}

impl RackBuilder {
    /// Adds `count` machines with `gpus_per_machine` GPUs each (one NVLink
    /// slot per pair of GPUs).
    pub fn machines(self, count: usize, gpus_per_machine: usize) -> Self {
        self.machines_with(count, gpus_per_machine, 2)
    }

    /// Adds `count` machines with `slot_size` GPUs per NVLink slot.
    pub fn machines_with(
        mut self,
        count: usize,
        gpus_per_machine: usize,
        slot_size: usize,
    ) -> Self {
        assert!(gpus_per_machine > 0, "machines must have at least one GPU");
        assert!(slot_size > 0, "slot size must be at least one GPU");
        self.groups.push(MachineGroup {
            count,
            gpus_per_machine,
            slot_size,
        });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_dense_ids() {
        let spec = ClusterSpec::builder()
            .rack(|r| r.machines(2, 4))
            .rack(|r| r.machines(1, 2))
            .build();
        assert_eq!(spec.total_machines(), 3);
        assert_eq!(spec.total_gpus(), 10);
        assert_eq!(spec.total_racks(), 2);
        assert_eq!(spec.machine_of(GpuId(0)), Some(MachineId(0)));
        assert_eq!(spec.machine_of(GpuId(7)), Some(MachineId(1)));
        assert_eq!(spec.machine_of(GpuId(8)), Some(MachineId(2)));
        assert_eq!(spec.machine_of(GpuId(10)), None);
        assert_eq!(spec.rack_of(GpuId(9)), Some(RackId(1)));
    }

    #[test]
    fn heterogeneous_256_has_256_gpus() {
        let spec = ClusterSpec::heterogeneous_256();
        assert_eq!(spec.total_gpus(), 256);
        assert_eq!(spec.total_racks(), 4);
        // Mixture of machine sizes.
        let sizes: std::collections::BTreeSet<usize> =
            spec.machines().iter().map(|m| m.num_gpus()).collect();
        assert_eq!(sizes, [1usize, 2, 4].into_iter().collect());
    }

    #[test]
    fn testbed_50_matches_paper() {
        let spec = ClusterSpec::testbed_50();
        assert_eq!(spec.total_gpus(), 50);
        assert_eq!(spec.total_machines(), 20);
        let four_gpu = spec.machines().iter().filter(|m| m.num_gpus() == 4);
        assert_eq!(four_gpu.count(), 8, "the eight K80 instances");
    }

    #[test]
    fn homogeneous_builder() {
        let spec = ClusterSpec::homogeneous(2, 3, 4);
        assert_eq!(spec.total_gpus(), 24);
        assert!(spec.machines().iter().all(|m| m.num_gpus() == 4));
    }

    #[test]
    fn synthetic_scales_to_thousands_of_gpus() {
        let spec = ClusterSpec::synthetic(16, 16, 4);
        assert_eq!(spec.total_gpus(), 1024);
        assert_eq!(spec.total_machines(), 256);
        assert_eq!(spec.total_racks(), 16);
        // The dense lookup covers the last GPU too.
        assert_eq!(spec.machine_of(GpuId(1023)), Some(MachineId(255)));
        assert_eq!(spec.rack_of(GpuId(1023)), Some(RackId(15)));
    }

    #[test]
    fn precomputed_locations_match_machine_lookup() {
        let spec = ClusterSpec::heterogeneous_256();
        for gpu in spec.all_gpus() {
            let loc = spec.location_of(gpu).expect("gpu exists");
            let machine = spec.machine(loc.machine).expect("machine exists");
            assert!(machine.gpus.contains(&gpu));
            assert_eq!(machine.rack, loc.rack);
            let position = machine.gpus.iter().position(|g| *g == gpu);
            assert_eq!(
                position.map(|i| i / machine.slot_size),
                Some(loc.slot as usize)
            );
        }
        assert_eq!(spec.location_of(GpuId(256)), None);
    }

    #[test]
    #[should_panic(expected = "at least one GPU")]
    fn zero_gpu_machines_rejected() {
        let _ = ClusterSpec::builder().rack(|r| r.machines(1, 0)).build();
    }

    #[test]
    fn all_gpus_iterates_everything() {
        let spec = ClusterSpec::homogeneous(1, 2, 2);
        let gpus: Vec<GpuId> = spec.all_gpus().collect();
        assert_eq!(gpus, vec![GpuId(0), GpuId(1), GpuId(2), GpuId(3)]);
    }
}
