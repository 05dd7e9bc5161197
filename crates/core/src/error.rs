//! The attack crate's error type.

use polykey_encode::EncodeError;
use polykey_netlist::NetlistError;

/// Errors raised by attack drivers.
#[derive(Debug)]
pub enum AttackError {
    /// Locked netlist and oracle disagree on port counts.
    OracleMismatch {
        /// "inputs" or "outputs".
        what: &'static str,
        /// Ports on the locked netlist.
        netlist: usize,
        /// Ports on the oracle.
        oracle: usize,
    },
    /// The requested splitting effort exceeds the available input ports.
    SplitTooWide {
        /// Requested `N`.
        requested: usize,
        /// Primary inputs available.
        available: usize,
    },
    /// The requested splitting depth exceeds what the engine's 64-bit
    /// sub-space patterns can represent. `1u64 << n` would silently wrap
    /// (release) or panic (debug) past this point, so the engine rejects
    /// the configuration up front — see `polykey_attack::MAX_SPLIT_WIDTH`.
    SplitTooDeep {
        /// Requested depth (splitting effort or resplit cap).
        requested: usize,
        /// The deepest representable split width.
        max: usize,
    },
    /// A sub-space pin names an input position the netlist does not have.
    InputOutOfRange {
        /// The offending input position.
        position: usize,
        /// Primary inputs of the netlist.
        inputs: usize,
    },
    /// Recombination received an inconsistent key set.
    BadKeySet {
        /// What was wrong.
        message: String,
    },
    /// An [`crate::AttackSession`] was misconfigured (e.g. no oracle).
    SessionConfig {
        /// What was wrong.
        message: String,
    },
    /// A structural netlist failure.
    Netlist(NetlistError),
    /// A CNF encoding, miter or equivalence-checking failure.
    Encode(EncodeError),
}

impl std::fmt::Display for AttackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttackError::OracleMismatch { what, netlist, oracle } => {
                write!(f, "oracle mismatch: netlist has {netlist} {what}, oracle has {oracle}")
            }
            AttackError::SplitTooWide { requested, available } => {
                write!(f, "splitting effort {requested} exceeds {available} primary inputs")
            }
            AttackError::SplitTooDeep { requested, max } => {
                write!(
                    f,
                    "splitting depth {requested} exceeds the engine's maximum of {max} \
                     (sub-space patterns are 64-bit prefix paths)"
                )
            }
            AttackError::InputOutOfRange { position, inputs } => {
                write!(
                    f,
                    "input position {position} is out of range for {inputs} primary inputs"
                )
            }
            AttackError::BadKeySet { message } => write!(f, "bad key set: {message}"),
            AttackError::SessionConfig { message } => {
                write!(f, "attack session misconfigured: {message}")
            }
            AttackError::Netlist(e) => write!(f, "netlist error: {e}"),
            AttackError::Encode(e) => write!(f, "encode error: {e}"),
        }
    }
}

impl std::error::Error for AttackError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AttackError::Netlist(e) => Some(e),
            AttackError::Encode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for AttackError {
    fn from(e: NetlistError) -> AttackError {
        AttackError::Netlist(e)
    }
}

impl From<EncodeError> for AttackError {
    fn from(e: EncodeError) -> AttackError {
        AttackError::Encode(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = AttackError::OracleMismatch { what: "inputs", netlist: 5, oracle: 4 };
        assert!(e.to_string().contains("5 inputs"));
        let e = AttackError::SplitTooWide { requested: 10, available: 3 };
        assert!(e.to_string().contains("10"));
        let e = AttackError::SplitTooDeep { requested: 64, max: 63 };
        assert!(e.to_string().contains("64") && e.to_string().contains("63"));
        let e: AttackError = NetlistError::UnknownSignal("x".into()).into();
        assert!(e.to_string().contains("x"));
    }
}
