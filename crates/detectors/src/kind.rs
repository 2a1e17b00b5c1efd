//! Detector selection: the [`DetectorKind`] enum and the [`build`]
//! factory the engine, CLI and bench harness dispatch through.

use crate::error::DetectorError;
use crate::jordan::JordanCenter;
use crate::rumor::RumorCentralityDetector;
use isomit_core::{InitiatorDetector, Rid, RidConfig, RidError, RidPositive, RidTree};

/// Every detector the subsystem can build, by stable wire label.
///
/// Labels are part of the service protocol (the `rid` verb's `detector`
/// field) and of the `BENCH_detectors.json` schema; they never change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectorKind {
    /// The paper's full RID framework (label `rid`).
    Rid,
    /// The RID-Tree baseline, §IV-B1 (label `rid_tree`).
    RidTree,
    /// The RID-Positive baseline, §IV-B1 (label `rid_positive`).
    RidPositive,
    /// Shah & Zaman rumor centrality (label `rumor_centrality`).
    RumorCentrality,
    /// Jordan / distance center (label `jordan_center`).
    JordanCenter,
}

impl DetectorKind {
    /// All kinds, in canonical (wire-label) order.
    pub const ALL: [DetectorKind; 5] = [
        DetectorKind::Rid,
        DetectorKind::RidTree,
        DetectorKind::RidPositive,
        DetectorKind::RumorCentrality,
        DetectorKind::JordanCenter,
    ];

    /// The stable wire label of this kind.
    pub fn as_label(self) -> &'static str {
        match self {
            DetectorKind::Rid => "rid",
            DetectorKind::RidTree => "rid_tree",
            DetectorKind::RidPositive => "rid_positive",
            DetectorKind::RumorCentrality => "rumor_centrality",
            DetectorKind::JordanCenter => "jordan_center",
        }
    }

    /// Resolves a wire label back to its kind.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::UnknownDetector`] (whose message lists
    /// every known label) if `label` matches no detector.
    pub fn from_label(label: &str) -> Result<Self, DetectorError> {
        DetectorKind::ALL
            .into_iter()
            .find(|k| k.as_label() == label)
            .ok_or_else(|| DetectorError::UnknownDetector {
                name: label.to_string(),
            })
    }

    /// Every known wire label, in canonical order — for error messages
    /// and protocol documentation.
    pub fn known_labels() -> [&'static str; 5] {
        [
            DetectorKind::Rid.as_label(),
            DetectorKind::RidTree.as_label(),
            DetectorKind::RidPositive.as_label(),
            DetectorKind::RumorCentrality.as_label(),
            DetectorKind::JordanCenter.as_label(),
        ]
    }
}

/// Builds a boxed detector of the given kind.
///
/// The RID family reads `alpha` / `beta` / objective / external-support
/// from `config`; the centrality estimators are parameter-free and
/// ignore it.
///
/// # Errors
///
/// Returns [`RidError::InvalidParameter`] if `config` is invalid for the
/// requested RID-family detector (`alpha` not finite or `< 1`, `beta`
/// negative).
///
/// # Examples
///
/// ```
/// use isomit_core::RidConfig;
/// use isomit_detectors::{build, DetectorKind};
///
/// let detector = build(DetectorKind::JordanCenter, &RidConfig::default()).unwrap();
/// assert_eq!(detector.name(), "Jordan-Center");
///
/// let bad = RidConfig {
///     alpha: 0.5,
///     ..RidConfig::default()
/// };
/// assert!(build(DetectorKind::Rid, &bad).is_err());
/// ```
pub fn build(
    kind: DetectorKind,
    config: &RidConfig,
) -> Result<Box<dyn InitiatorDetector>, RidError> {
    Ok(match kind {
        DetectorKind::Rid => Box::new(Rid::from_config(*config)?),
        DetectorKind::RidTree => Box::new(RidTree::new(config.alpha)?),
        DetectorKind::RidPositive => Box::new(RidPositive::new()),
        DetectorKind::RumorCentrality => Box::new(RumorCentralityDetector::new()),
        DetectorKind::JordanCenter => Box::new(JordanCenter::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for kind in DetectorKind::ALL {
            assert_eq!(DetectorKind::from_label(kind.as_label()), Ok(kind));
        }
    }

    #[test]
    fn unknown_label_is_rejected() {
        match DetectorKind::from_label("bogus") {
            Err(DetectorError::UnknownDetector { name }) => assert_eq!(name, "bogus"),
            other => panic!("expected UnknownDetector, got {other:?}"),
        }
    }

    #[test]
    fn known_labels_match_all() {
        let labels = DetectorKind::known_labels();
        assert_eq!(labels.len(), DetectorKind::ALL.len());
        for (kind, label) in DetectorKind::ALL.into_iter().zip(labels) {
            assert_eq!(kind.as_label(), label);
        }
    }

    #[test]
    fn build_produces_every_kind() {
        let config = RidConfig::default();
        for kind in DetectorKind::ALL {
            let detector = build(kind, &config).expect("default config builds every detector");
            assert!(!detector.name().is_empty());
        }
    }

    #[test]
    fn invalid_config_is_reported_as_rid_error() {
        let bad = RidConfig {
            alpha: 0.0,
            ..RidConfig::default()
        };
        for kind in [DetectorKind::Rid, DetectorKind::RidTree] {
            assert!(matches!(
                build(kind, &bad),
                Err(RidError::InvalidParameter { .. })
            ));
        }
    }
}
