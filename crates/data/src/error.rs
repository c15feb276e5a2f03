use std::error::Error;
use std::fmt;

/// Errors produced by the data layer: a trace built in memory that breaks
/// one of [`JobTrace`](crate::JobTrace)'s structural rules.
#[derive(Debug)]
#[non_exhaustive]
pub enum DataError {
    /// A structurally invalid job (e.g. ragged feature rows, or a node list
    /// whose length is not the task count), with what is wrong with it.
    Invalid(String),
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::Invalid(msg) => write!(f, "invalid trace: {msg}"),
        }
    }
}

impl Error for DataError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DataError>();
    }
}
