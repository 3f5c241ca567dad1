//! Empty on purpose: no product crate names anything from crossbeam.
