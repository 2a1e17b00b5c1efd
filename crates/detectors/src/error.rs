//! Error type shared by every detector.

use crate::kind::DetectorKind;
use isomit_core::RidError;

/// Failure modes of detector construction through [`crate::build`] or
/// [`DetectorKind::from_label`].
#[derive(Debug, Clone, PartialEq)]
pub enum DetectorError {
    /// A RID-family estimator rejected its configuration.
    Rid(RidError),
    /// A detector was requested by a label no [`DetectorKind`] carries.
    UnknownDetector {
        /// The label that failed to resolve.
        name: String,
    },
}

impl std::fmt::Display for DetectorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DetectorError::Rid(e) => write!(f, "{e}"),
            DetectorError::UnknownDetector { name } => write!(
                f,
                "unknown detector `{name}` (known: {})",
                DetectorKind::known_labels().join(", ")
            ),
        }
    }
}

impl std::error::Error for DetectorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DetectorError::Rid(e) => Some(e),
            DetectorError::UnknownDetector { .. } => None,
        }
    }
}

impl From<RidError> for DetectorError {
    fn from(e: RidError) -> Self {
        DetectorError::Rid(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_detector_lists_known_labels() {
        let e = DetectorError::UnknownDetector {
            name: "bogus".to_string(),
        };
        let msg = e.to_string();
        assert!(msg.contains("unknown detector `bogus`"), "{msg}");
        for label in DetectorKind::known_labels() {
            assert!(msg.contains(label), "missing {label} in {msg}");
        }
    }
}
