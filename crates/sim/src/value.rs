//! The self-describing value tree every spec, report and snapshot passes
//! through on its way to or from text.
//!
//! [`Value`] and the error type live in the vendored `serde` crate, where
//! the derive macros target them directly; this module gives them their
//! workspace names and the two conversion entry points the text backends
//! ([`crate::json`], [`crate::toml`]) share.

use serde::de::DeserializeOwned;
use serde::ser::Serialize;

pub use serde::{Error as SpecError, Value};

/// Fold any serializable type into a [`Value`].
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, SpecError> {
    value.to_value()
}

/// Unfold a [`Value`] into any deserializable type.
pub fn from_value<T: DeserializeOwned>(value: Value) -> Result<T, SpecError> {
    T::from_value(value)
}
