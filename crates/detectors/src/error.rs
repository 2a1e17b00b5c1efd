//! Error type of detector selection by label.

use crate::kind::DetectorKind;

/// Failure of [`DetectorKind::from_label`].
#[derive(Debug, Clone, PartialEq)]
pub enum DetectorError {
    /// A detector was requested by a label no [`DetectorKind`] carries.
    UnknownDetector {
        /// The label that failed to resolve.
        name: String,
    },
}

impl std::fmt::Display for DetectorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DetectorError::UnknownDetector { name } => write!(
                f,
                "unknown detector `{name}` (known: {})",
                DetectorKind::known_labels().join(", ")
            ),
        }
    }
}

impl std::error::Error for DetectorError {}

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
