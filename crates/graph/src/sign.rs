use std::fmt;
use std::ops::{Mul, Neg};

/// Polarity of a signed edge: trust (`+1`) or distrust (`−1`).
///
/// Signs multiply like the integers they stand for, which is exactly the
/// state-propagation rule of the MFC model (`s(v) = s(u) · s_D(u, v)`):
///
/// ```
/// use isomit_graph::Sign;
/// assert_eq!(Sign::Positive * Sign::Negative, Sign::Negative);
/// assert_eq!(Sign::Negative * Sign::Negative, Sign::Positive);
/// assert_eq!(-Sign::Positive, Sign::Negative);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sign {
    /// A trust (`+1`) relationship.
    Positive,
    /// A distrust (`−1`) relationship.
    Negative,
}

impl Sign {
    /// Returns the integer value of the sign: `+1` or `−1`.
    #[inline]
    pub fn value(self) -> i8 {
        match self {
            Sign::Positive => 1,
            Sign::Negative => -1,
        }
    }

    /// Builds a sign from any non-zero integer, using its arithmetic sign.
    ///
    /// Returns `None` for zero.
    ///
    /// ```
    /// use isomit_graph::Sign;
    /// assert_eq!(Sign::from_value(-4), Some(Sign::Negative));
    /// assert_eq!(Sign::from_value(0), None);
    /// ```
    #[inline]
    pub fn from_value(v: i64) -> Option<Self> {
        match v {
            0 => None,
            v if v > 0 => Some(Sign::Positive),
            _ => Some(Sign::Negative),
        }
    }

    /// `true` for [`Sign::Positive`].
    #[inline]
    pub fn is_positive(self) -> bool {
        matches!(self, Sign::Positive)
    }

    /// `true` for [`Sign::Negative`].
    #[inline]
    pub fn is_negative(self) -> bool {
        matches!(self, Sign::Negative)
    }
}

impl Mul for Sign {
    type Output = Sign;

    #[inline]
    fn mul(self, rhs: Sign) -> Sign {
        if self == rhs {
            Sign::Positive
        } else {
            Sign::Negative
        }
    }
}

impl Neg for Sign {
    type Output = Sign;

    #[inline]
    fn neg(self) -> Sign {
        match self {
            Sign::Positive => Sign::Negative,
            Sign::Negative => Sign::Positive,
        }
    }
}

impl fmt::Display for Sign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Sign::Positive => "+",
            Sign::Negative => "-",
        })
    }
}

/// Opinion state of a node about the rumor — the paper's `{+1, −1, 0, ?}`.
///
/// * [`NodeState::Positive`] — believes the rumor (`+1`),
/// * [`NodeState::Negative`] — disbelieves it (`−1`),
/// * [`NodeState::Inactive`] — has not been reached (`0`),
/// * [`NodeState::Unknown`] — state was not observed in the snapshot (`?`).
///
/// `Unknown` is distinct from `Inactive`: an unknown node may well be
/// infected, the snapshot just does not record it. Detection algorithms
/// treat `Unknown` as a wildcard that may assume any state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NodeState {
    /// Believes the rumor to be true (`+1`).
    Positive,
    /// Believes the rumor to be false (`−1`).
    Negative,
    /// Not activated by the rumor (`0`).
    #[default]
    Inactive,
    /// State not observed in the snapshot (`?`).
    Unknown,
}

impl NodeState {
    /// Returns the opinion as `Some(+1)` / `Some(−1)` for activated nodes,
    /// and `None` for inactive or unknown nodes.
    #[inline]
    pub fn opinion(self) -> Option<i8> {
        match self {
            NodeState::Positive => Some(1),
            NodeState::Negative => Some(-1),
            NodeState::Inactive | NodeState::Unknown => None,
        }
    }

    /// Returns the opinion as a [`Sign`], if the node is activated.
    #[inline]
    pub fn sign(self) -> Option<Sign> {
        match self {
            NodeState::Positive => Some(Sign::Positive),
            NodeState::Negative => Some(Sign::Negative),
            NodeState::Inactive | NodeState::Unknown => None,
        }
    }

    /// Builds an activated state from a [`Sign`].
    #[inline]
    pub fn from_sign(sign: Sign) -> Self {
        match sign {
            Sign::Positive => NodeState::Positive,
            Sign::Negative => NodeState::Negative,
        }
    }

    /// `true` if the node holds an opinion (`+1` or `−1`).
    #[inline]
    pub fn is_active(self) -> bool {
        matches!(self, NodeState::Positive | NodeState::Negative)
    }

    /// `true` for [`NodeState::Unknown`].
    #[inline]
    pub fn is_unknown(self) -> bool {
        matches!(self, NodeState::Unknown)
    }
}

impl From<Sign> for NodeState {
    #[inline]
    fn from(sign: Sign) -> Self {
        NodeState::from_sign(sign)
    }
}

impl fmt::Display for NodeState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NodeState::Positive => "+1",
            NodeState::Negative => "-1",
            NodeState::Inactive => "0",
            NodeState::Unknown => "?",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_multiplication_table() {
        use Sign::*;
        assert_eq!(Positive * Positive, Positive);
        assert_eq!(Positive * Negative, Negative);
        assert_eq!(Negative * Positive, Negative);
        assert_eq!(Negative * Negative, Positive);
    }

    #[test]
    fn sign_value_round_trip() {
        for s in [Sign::Positive, Sign::Negative] {
            assert_eq!(Sign::from_value(s.value() as i64), Some(s));
        }
        assert_eq!(Sign::from_value(0), None);
    }

    #[test]
    fn sign_negation() {
        assert_eq!(-Sign::Negative, Sign::Positive);
        assert_eq!(-(-Sign::Positive), Sign::Positive);
    }

    #[test]
    fn state_opinion_mapping() {
        assert_eq!(NodeState::Positive.opinion(), Some(1));
        assert_eq!(NodeState::Negative.opinion(), Some(-1));
        assert_eq!(NodeState::Inactive.opinion(), None);
        assert_eq!(NodeState::Unknown.opinion(), None);
    }

    #[test]
    fn state_sign_round_trip() {
        for s in [Sign::Positive, Sign::Negative] {
            assert_eq!(NodeState::from_sign(s).sign(), Some(s));
        }
    }

    #[test]
    fn default_state_is_inactive() {
        assert_eq!(NodeState::default(), NodeState::Inactive);
        assert!(!NodeState::default().is_active());
    }

    #[test]
    fn state_propagation_matches_sign_product() {
        // s(v) = s(u) * s(u, v): a negative edge flips the opinion.
        let su = NodeState::Positive.sign().unwrap();
        let edge = Sign::Negative;
        assert_eq!(NodeState::from_sign(su * edge), NodeState::Negative);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Sign::Positive.to_string(), "+");
        assert_eq!(Sign::Negative.to_string(), "-");
        assert_eq!(NodeState::Unknown.to_string(), "?");
        assert_eq!(NodeState::Inactive.to_string(), "0");
    }
}
