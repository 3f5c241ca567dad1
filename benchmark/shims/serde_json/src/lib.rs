//! Stand-in for the `serde_json` entry points the product calls from
//! its save / migrate / checkpoint paths.  Nothing is encoded: each
//! call returns `Err` and bumps [`stub_calls`], and the benchmark fails
//! a run whose counter is not zero, so no workload can depend on it.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

// A statistic: publishes no other data.
static STUB_CALLS: AtomicU64 = AtomicU64::new(0);

/// How many times any stub in this crate has been called.
pub fn stub_calls() -> u64 {
    STUB_CALLS.load(Ordering::Relaxed)
}

fn refuse<T>() -> Result<T> {
    STUB_CALLS.fetch_add(1, Ordering::Relaxed);
    Err(Error)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("serde_json is stubbed out in the benchmark build")
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum Value {
    #[default]
    Null,
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("null")
    }
}

pub fn to_vec<T: ?Sized>(_value: &T) -> Result<Vec<u8>> {
    refuse()
}

pub fn to_value<T>(_value: T) -> Result<Value> {
    refuse()
}

pub fn from_slice<T>(_bytes: &[u8]) -> Result<T> {
    refuse()
}

pub fn from_value<T>(_value: Value) -> Result<T> {
    refuse()
}
