//! Marker `Serialize`/`Deserialize` traits with blanket impls, so the
//! product's derives and bounds compile while nothing can actually be
//! serialized (the `serde_json` stand-in refuses and counts the call).

pub use serde_derive::{Deserialize, Serialize};

pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

pub trait Deserialize<'de>: Sized {}
impl<'de, T> Deserialize<'de> for T {}
