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

use crate::alloc::GpuAlloc;
use crate::ids::{GpuId, MachineId, RackId};

/// The *generation* (speed class) of a machine's GPUs.
///
/// Real AI clusters are accreted over hardware generations, so a scheduler
/// sees a mix of GPU speeds rather than the paper's uniform fleet. A
/// generation is the speed dimension of heterogeneity: a GPU of generation
/// `g` retires serial work `g.speed()` times as fast as the reference
/// generation, so an allocation's effective throughput is
/// `G_eff = Σ speed_i × S(placement)` instead of `G × S(placement)`.
///
/// Every constructor defaults to [`GpuGeneration::Pascal`] (speed 1.0),
/// which reproduces the paper's uniform-speed assumption exactly — speed
/// 1.0 everywhere is observationally pure by construction; only
/// [`ClusterSpec::with_generation_cycle`] assigns other generations.
///
/// ```
/// use themis_cluster::topology::GpuGeneration;
///
/// assert_eq!(GpuGeneration::default().speed(), 1.0);
/// assert_eq!(GpuGeneration::Volta.speed(), 2.0);
/// // Generations order by speed.
/// assert!(GpuGeneration::Kepler.speed() < GpuGeneration::Ampere.speed());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum GpuGeneration {
    /// Legacy Kepler-class hardware: half the reference speed.
    Kepler,
    /// Pascal-class (the paper's P100 era): the 1.0 reference speed.
    #[default]
    Pascal,
    /// Volta-class: twice the reference speed.
    Volta,
    /// Ampere-class: three times the reference speed.
    Ampere,
}

impl GpuGeneration {
    /// Every generation, oldest (slowest) first.
    pub const ALL: [GpuGeneration; 4] = [
        GpuGeneration::Kepler,
        GpuGeneration::Pascal,
        GpuGeneration::Volta,
        GpuGeneration::Ampere,
    ];

    /// Relative speed factor: serial work retired per unit time, normalized
    /// to the Pascal reference generation.
    pub fn speed(self) -> f64 {
        match self {
            GpuGeneration::Kepler => 0.5,
            GpuGeneration::Pascal => 1.0,
            GpuGeneration::Volta => 2.0,
            GpuGeneration::Ampere => 3.0,
        }
    }

    /// Stable lower-case identifier used in scenario ids and JSON.
    pub fn name(self) -> &'static str {
        match self {
            GpuGeneration::Kepler => "kepler",
            GpuGeneration::Pascal => "pascal",
            GpuGeneration::Volta => "volta",
            GpuGeneration::Ampere => "ampere",
        }
    }
}

impl std::fmt::Display for GpuGeneration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

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
    /// The GPU generation (speed class) of this machine. All GPUs of one
    /// machine share a generation — clusters are bought machine-at-a-time.
    pub generation: GpuGeneration,
}

impl MachineSpec {
    /// Number of GPUs on this machine.
    pub fn num_gpus(&self) -> usize {
        self.gpus.len()
    }

    /// The speed factor shared by every GPU on this machine.
    pub fn speed(&self) -> f64 {
        self.generation.speed()
    }
}

/// Precomputed location of one GPU: its machine, rack, NVLink slot and
/// generation (speed class). Built once by the [`ClusterSpecBuilder`], so
/// placement scoring and speed lookups never have to scan a machine's GPU
/// list at auction time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuLocation {
    /// Machine holding the GPU.
    pub machine: MachineId,
    /// Rack the machine lives in.
    pub rack: RackId,
    /// NVLink slot index within the machine.
    pub slot: u32,
    /// Generation (speed class) of the GPU, inherited from its machine.
    pub generation: GpuGeneration,
}

impl GpuLocation {
    /// The GPU's speed factor.
    pub fn speed(&self) -> f64 {
        self.generation.speed()
    }
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
    /// gpu index -> (machine, rack, slot, generation) (dense lookup).
    gpu_locations: Vec<GpuLocation>,
    /// `Some(g)` when every machine shares generation `g` — the fast path
    /// for speed queries on uniform clusters (including every paper-shaped
    /// spec, which is all-Pascal).
    uniform_generation: Option<GpuGeneration>,
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

    /// The generation (speed class) of a GPU, or `None` for an unknown GPU.
    pub fn generation_of(&self, gpu: GpuId) -> Option<GpuGeneration> {
        self.gpu_locations.get(gpu.index()).map(|l| l.generation)
    }

    /// The speed factor of a GPU, or `None` for an unknown GPU. O(1) via
    /// the precomputed location table.
    pub fn speed_of(&self, gpu: GpuId) -> Option<f64> {
        self.generation_of(gpu).map(GpuGeneration::speed)
    }

    /// The speed factor shared by every GPU of a machine, or `None` for an
    /// unknown machine.
    pub fn machine_speed(&self, machine: MachineId) -> Option<f64> {
        self.machine(machine).map(MachineSpec::speed)
    }

    /// `Some(g)` when every machine in the cluster shares generation `g`
    /// (a *uniform-speed* cluster — the paper's assumption), else `None`.
    pub fn uniform_generation(&self) -> Option<GpuGeneration> {
        self.uniform_generation
    }

    /// Whether every GPU runs at the reference speed 1.0. All paper-shaped
    /// constructors produce such clusters; the speed-aware scheduling paths
    /// are observationally pure on them.
    pub fn is_unit_speed(&self) -> bool {
        self.uniform_generation == Some(GpuGeneration::Pascal)
    }

    /// Aggregate speed of every GPU in the cluster — the heterogeneous
    /// generalization of [`ClusterSpec::total_gpus`] (equal to it on a
    /// unit-speed cluster).
    pub fn total_speed(&self) -> f64 {
        match self.uniform_generation {
            Some(g) => g.speed() * self.total_gpus() as f64,
            None => self.gpu_locations.iter().map(|l| l.speed()).sum(),
        }
    }

    /// Aggregate speed of the `cap` *fastest* GPUs in `alloc` (all of them
    /// when `cap >= alloc.len()`). This is the `Σ speed_i` term of the
    /// effective-throughput model `G_eff = Σ speed_i × S(placement)` for a
    /// job whose usable parallelism is `cap`: GPUs beyond the cap are
    /// wasted, and the optimistic assumption is the job's tasks land on the
    /// fastest GPUs it holds. On a uniform cluster this is
    /// `min(len, cap) × speed` exactly — `min(len, cap) as f64` at unit
    /// speed, which is what keeps the weighted scheduling paths
    /// byte-identical to the unweighted ones.
    pub fn capped_speed(&self, alloc: &GpuAlloc, cap: usize) -> f64 {
        let usable = alloc.len().min(cap);
        if usable == 0 {
            return 0.0;
        }
        if let Some(g) = self.uniform_generation {
            return g.speed() * usable as f64;
        }
        if alloc.len() <= cap {
            return alloc.iter().map(|g| self.speed_of(g).unwrap_or(1.0)).sum();
        }
        let mut speeds: Vec<f64> = alloc
            .iter()
            .map(|g| self.speed_of(g).unwrap_or(1.0))
            .collect();
        speeds.sort_unstable_by(|a, b| b.total_cmp(a));
        speeds.into_iter().take(cap).sum()
    }

    /// Returns a copy of this spec with machine generations reassigned
    /// round-robin from `cycle` in machine-id order (machine `m` gets
    /// `cycle[m % cycle.len()]`). This is how the scenario matrix turns any
    /// base topology into a mixed-generation cluster; a one-element
    /// `[Pascal]` cycle reproduces the uniform-speed spec exactly.
    ///
    /// ```
    /// use themis_cluster::topology::{ClusterSpec, GpuGeneration};
    ///
    /// let base = ClusterSpec::synthetic(1, 4, 2);
    /// // Alternate fast Volta and reference Pascal machines, 2:1 in speed.
    /// let mixed = base
    ///     .clone()
    ///     .with_generation_cycle(&[GpuGeneration::Volta, GpuGeneration::Pascal]);
    /// assert_eq!(mixed.uniform_generation(), None);
    /// assert_eq!(mixed.total_speed(), 2.0 * 4.0 + 1.0 * 4.0);
    /// // A [Pascal] cycle is the identity on paper-shaped specs.
    /// assert_eq!(
    ///     base.clone().with_generation_cycle(&[GpuGeneration::Pascal]),
    ///     base
    /// );
    /// ```
    ///
    /// # Panics
    /// Panics on an empty cycle.
    pub fn with_generation_cycle(mut self, cycle: &[GpuGeneration]) -> ClusterSpec {
        assert!(
            !cycle.is_empty(),
            "a generation cycle needs at least one generation"
        );
        for machine in &mut self.machines {
            machine.generation = cycle[machine.id.index() % cycle.len()];
        }
        for location in &mut self.gpu_locations {
            location.generation = self.machines[location.machine.index()].generation;
        }
        self.uniform_generation = uniform_generation_of(&self.machines);
        self
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
    /// // Synthetic clusters are uniform-speed (the paper's assumption):
    /// assert!(spec.is_unit_speed());
    /// assert_eq!(spec.total_speed(), 1024.0);
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

    /// A synthetic *mixed-generation* cluster: the same topology as
    /// [`ClusterSpec::synthetic`], with machine generations assigned
    /// round-robin from `cycle` (see
    /// [`ClusterSpec::with_generation_cycle`]).
    ///
    /// ```
    /// use themis_cluster::topology::{ClusterSpec, GpuGeneration};
    ///
    /// // A three-generation 16-GPU rack: Volta / Pascal / Kepler machines.
    /// let spec = ClusterSpec::synthetic_mixed(
    ///     1,
    ///     4,
    ///     4,
    ///     &[GpuGeneration::Volta, GpuGeneration::Pascal, GpuGeneration::Kepler],
    /// );
    /// assert_eq!(spec.total_gpus(), 16);
    /// // Machines 0..4 get Volta, Pascal, Kepler, Volta.
    /// assert_eq!(spec.total_speed(), (2.0 + 1.0 + 0.5 + 2.0) * 4.0);
    /// assert!(!spec.is_unit_speed());
    /// ```
    pub fn synthetic_mixed(
        racks: usize,
        machines_per_rack: usize,
        gpus_per_machine: usize,
        cycle: &[GpuGeneration],
    ) -> ClusterSpec {
        ClusterSpec::synthetic(racks, machines_per_rack, gpus_per_machine)
            .with_generation_cycle(cycle)
    }
}

/// `Some(g)` when every machine shares generation `g`. An empty cluster is
/// uniformly the default generation.
fn uniform_generation_of(machines: &[MachineSpec]) -> Option<GpuGeneration> {
    let first = machines.first().map(|m| m.generation).unwrap_or_default();
    machines
        .iter()
        .all(|m| m.generation == first)
        .then_some(first)
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
                                generation: GpuGeneration::default(),
                            });
                            id
                        })
                        .collect();
                    machines.push(MachineSpec {
                        id: machine_id,
                        rack: rack_id,
                        gpus,
                        slot_size: group.slot_size,
                        generation: GpuGeneration::default(),
                    });
                    rack_machines.push(machine_id);
                }
            }
            racks.push(RackSpec {
                id: rack_id,
                machines: rack_machines,
            });
        }

        let uniform_generation = uniform_generation_of(&machines);
        ClusterSpec {
            machines,
            racks,
            gpu_locations,
            uniform_generation,
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
    /// slot per pair of GPUs, reference generation).
    pub fn machines(self, count: usize, gpus_per_machine: usize) -> Self {
        self.machines_with(count, gpus_per_machine, 2)
    }

    /// Adds `count` machines with `slot_size` GPUs per NVLink slot, at the
    /// reference generation (speed 1.0).
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

    #[test]
    fn default_specs_are_unit_speed() {
        for spec in [
            ClusterSpec::heterogeneous_256(),
            ClusterSpec::testbed_50(),
            ClusterSpec::synthetic(2, 2, 4),
        ] {
            assert_eq!(spec.uniform_generation(), Some(GpuGeneration::Pascal));
            assert!(spec.is_unit_speed());
            assert_eq!(spec.total_speed(), spec.total_gpus() as f64);
            for gpu in spec.all_gpus() {
                assert_eq!(spec.speed_of(gpu), Some(1.0));
            }
        }
    }

    #[test]
    fn generation_cycle_assigns_round_robin() {
        let spec =
            ClusterSpec::synthetic_mixed(1, 4, 2, &[GpuGeneration::Volta, GpuGeneration::Pascal]);
        assert_eq!(
            spec.machine(MachineId(0)).unwrap().generation,
            GpuGeneration::Volta
        );
        assert_eq!(
            spec.machine(MachineId(1)).unwrap().generation,
            GpuGeneration::Pascal
        );
        assert_eq!(spec.machine_speed(MachineId(2)), Some(2.0));
        assert_eq!(spec.machine_speed(MachineId(9)), None);
        assert_eq!(spec.uniform_generation(), None);
        assert!(!spec.is_unit_speed());
        // Per-GPU speeds follow the machine, via the dense location table.
        assert_eq!(spec.speed_of(GpuId(0)), Some(2.0));
        assert_eq!(spec.speed_of(GpuId(2)), Some(1.0));
        assert_eq!(spec.speed_of(GpuId(99)), None);
        assert_eq!(
            spec.total_speed(),
            2.0 * 2.0 + 1.0 * 2.0 + 2.0 * 2.0 + 1.0 * 2.0
        );
        // Locations stay consistent with machines after the rewrite.
        for gpu in spec.all_gpus() {
            let loc = spec.location_of(gpu).unwrap();
            assert_eq!(
                loc.generation,
                spec.machine(loc.machine).unwrap().generation
            );
            assert_eq!(loc.speed(), spec.speed_of(gpu).unwrap());
        }
    }

    #[test]
    fn capped_speed_prefers_fastest_gpus() {
        let spec =
            ClusterSpec::synthetic_mixed(1, 2, 2, &[GpuGeneration::Kepler, GpuGeneration::Volta]);
        // GPUs 0,1 are Kepler (0.5); GPUs 2,3 are Volta (2.0).
        let all = GpuAlloc::from_gpus([GpuId(0), GpuId(1), GpuId(2), GpuId(3)]);
        assert_eq!(spec.capped_speed(&all, 4), 5.0);
        // Capped at 2, the two Volta GPUs are counted.
        assert_eq!(spec.capped_speed(&all, 2), 4.0);
        assert_eq!(spec.capped_speed(&all, 0), 0.0);
        assert_eq!(spec.capped_speed(&GpuAlloc::empty(), 4), 0.0);
        // Uniform fast path: exact integer arithmetic at unit speed.
        let uniform = ClusterSpec::synthetic(1, 2, 2);
        assert_eq!(spec.capped_speed(&all, 3), 4.5);
        assert_eq!(uniform.capped_speed(&all, 3), 3.0);
    }

    #[test]
    fn generation_names_round_trip() {
        let names: std::collections::BTreeSet<&str> =
            GpuGeneration::ALL.iter().map(|g| g.name()).collect();
        assert_eq!(names.len(), GpuGeneration::ALL.len(), "names are distinct");
        for generation in GpuGeneration::ALL {
            assert!(generation.speed() > 0.0);
            assert_eq!(generation.to_string(), generation.name());
        }
        assert_eq!(GpuGeneration::default(), GpuGeneration::Pascal);
    }

    #[test]
    #[should_panic(expected = "at least one generation")]
    fn empty_generation_cycle_rejected() {
        let _ = ClusterSpec::synthetic(1, 1, 1).with_generation_cycle(&[]);
    }
}
