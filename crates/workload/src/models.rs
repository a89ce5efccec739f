//! Model zoo.
//!
//! The paper profiles five image-classification architectures (Figure 2) and
//! builds its simulated workload from a 60:40 mix of placement-*insensitive*
//! (ResNet-family) and placement-*sensitive* (VGG-family) apps (§8.1). Each
//! [`ModelArch`] carries:
//!
//! * a single-GPU throughput (images/second on a P100, matching Fig. 2's
//!   leftmost bars divided by 4),
//! * a [`PlacementSensitivity`] profile calibrated so that the 4-GPU
//!   1-server vs 2×2-server throughput ratio matches Fig. 2,
//! * the parameter size in MB (drives the intuition for why dense models
//!   are network-bound under synchronous SGD).

use crate::sensitivity::PlacementSensitivity;
use themis_cluster::placement::Locality;

/// A deep-learning model architecture with its performance profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelArch {
    /// VGG16 — large dense layers, strongly placement sensitive.
    Vgg16,
    /// VGG19 — like VGG16 with more conv layers.
    Vgg19,
    /// AlexNet — large fully-connected layers, placement sensitive.
    AlexNet,
    /// Inception-v3 — moderately placement sensitive.
    InceptionV3,
    /// ResNet50 — small parameter set, effectively placement insensitive.
    ResNet50,
    /// ResNet152 — deeper ResNet, still placement insensitive.
    ResNet152,
    /// A GNMT-style recurrent translation model (language workload).
    Gnmt,
    /// A BERT-style transformer (language workload, network heavy).
    BertBase,
}

impl ModelArch {
    /// Every architecture in the zoo.
    pub const ALL: [ModelArch; 8] = [
        ModelArch::Vgg16,
        ModelArch::Vgg19,
        ModelArch::AlexNet,
        ModelArch::InceptionV3,
        ModelArch::ResNet50,
        ModelArch::ResNet152,
        ModelArch::Gnmt,
        ModelArch::BertBase,
    ];

    /// The five models profiled in the paper's Figure 2.
    pub const FIGURE2: [ModelArch; 5] = [
        ModelArch::Vgg16,
        ModelArch::Vgg19,
        ModelArch::AlexNet,
        ModelArch::InceptionV3,
        ModelArch::ResNet50,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ModelArch::Vgg16 => "VGG16",
            ModelArch::Vgg19 => "VGG19",
            ModelArch::AlexNet => "AlexNet",
            ModelArch::InceptionV3 => "Inception-v3",
            ModelArch::ResNet50 => "ResNet50",
            ModelArch::ResNet152 => "ResNet152",
            ModelArch::Gnmt => "GNMT",
            ModelArch::BertBase => "BERT-base",
        }
    }

    /// Single-GPU training throughput in images (or sequences) per second,
    /// roughly matching published P100 numbers.
    pub fn serial_throughput(self) -> f64 {
        match self {
            ModelArch::Vgg16 => 55.0,
            ModelArch::Vgg19 => 47.0,
            ModelArch::AlexNet => 120.0,
            ModelArch::InceptionV3 => 78.0,
            ModelArch::ResNet50 => 52.0,
            ModelArch::ResNet152 => 22.0,
            ModelArch::Gnmt => 30.0,
            ModelArch::BertBase => 18.0,
        }
    }

    /// The placement-sensitivity profile for this architecture.
    ///
    /// Calibrated so the ratio between machine-local and rack-level
    /// placement matches the 4-GPU 1-server vs 2×2-server throughput drop in
    /// Figure 2: VGG16/19 and AlexNet lose roughly half their throughput
    /// when crossing machines, Inception-v3 loses ~10%, ResNet50 almost
    /// nothing.
    pub fn sensitivity(self) -> PlacementSensitivity {
        match self {
            ModelArch::Vgg16 => PlacementSensitivity::new(1.0, 0.92, 0.50, 0.35),
            ModelArch::Vgg19 => PlacementSensitivity::new(1.0, 0.92, 0.52, 0.36),
            ModelArch::AlexNet => PlacementSensitivity::new(1.0, 0.90, 0.55, 0.38),
            ModelArch::InceptionV3 => PlacementSensitivity::new(1.0, 0.97, 0.88, 0.75),
            ModelArch::ResNet50 => PlacementSensitivity::new(1.0, 0.99, 0.97, 0.93),
            ModelArch::ResNet152 => PlacementSensitivity::new(1.0, 0.98, 0.94, 0.88),
            ModelArch::Gnmt => PlacementSensitivity::new(1.0, 0.90, 0.55, 0.40),
            ModelArch::BertBase => PlacementSensitivity::new(1.0, 0.90, 0.58, 0.42),
        }
    }

    /// Whether the paper would classify apps training this model as
    /// "network intensive" (placement sensitive) — §8.4.1.
    pub fn is_network_intensive(self) -> bool {
        self.sensitivity().is_network_intensive()
    }

    /// Aggregate throughput (samples/second) of `gpus` GPUs placed at the
    /// given locality. This is the quantity Figure 2 plots for 4 GPUs.
    pub fn throughput(self, gpus: usize, locality: Locality) -> f64 {
        self.serial_throughput() * self.sensitivity().effective_speedup(gpus, locality)
    }

    /// The models in the placement-*sensitive* half of the paper's workload.
    pub fn network_intensive_pool() -> Vec<ModelArch> {
        ModelArch::ALL
            .into_iter()
            .filter(|m| m.is_network_intensive())
            .collect()
    }

    /// The models in the placement-*insensitive* half of the paper's
    /// workload.
    pub fn compute_intensive_pool() -> Vec<ModelArch> {
        ModelArch::ALL
            .into_iter()
            .filter(|m| !m.is_network_intensive())
            .collect()
    }
}

impl std::fmt::Display for ModelArch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_shape_vgg_vs_resnet() {
        // VGG16 has a strict machine-local preference; ResNet50 has none
        // (paper §2.2 & Fig. 2).
        let vgg_local = ModelArch::Vgg16.throughput(4, Locality::Machine);
        let vgg_spread = ModelArch::Vgg16.throughput(4, Locality::Rack);
        let resnet_local = ModelArch::ResNet50.throughput(4, Locality::Machine);
        let resnet_spread = ModelArch::ResNet50.throughput(4, Locality::Rack);
        assert!(
            vgg_local / vgg_spread > 1.5,
            "VGG16 must lose a lot of throughput when spread: {vgg_local} vs {vgg_spread}"
        );
        assert!(
            resnet_local / resnet_spread < 1.1,
            "ResNet50 must barely notice placement: {resnet_local} vs {resnet_spread}"
        );
    }

    #[test]
    fn classification_matches_paper_mix() {
        assert!(ModelArch::Vgg16.is_network_intensive());
        assert!(ModelArch::Vgg19.is_network_intensive());
        assert!(ModelArch::AlexNet.is_network_intensive());
        assert!(!ModelArch::ResNet50.is_network_intensive());
        assert!(!ModelArch::InceptionV3.is_network_intensive());
        assert!(!ModelArch::network_intensive_pool().is_empty());
        assert!(!ModelArch::compute_intensive_pool().is_empty());
    }

    #[test]
    fn throughput_is_positive_and_monotone_in_gpus() {
        for model in ModelArch::ALL {
            let t1 = model.throughput(1, Locality::Machine);
            let t4 = model.throughput(4, Locality::Machine);
            assert!(t1 > 0.0);
            assert!(t4 > t1, "{model}: 4 GPUs must beat 1 GPU");
        }
    }

    #[test]
    fn pools_partition_the_zoo() {
        let net = ModelArch::network_intensive_pool();
        let comp = ModelArch::compute_intensive_pool();
        assert_eq!(net.len() + comp.len(), ModelArch::ALL.len());
        for m in net {
            assert!(!comp.contains(&m));
        }
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::BTreeSet<_> =
            ModelArch::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), ModelArch::ALL.len());
    }
}
