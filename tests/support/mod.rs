//! The pre-predecoding low-end simulator, kept only as a test oracle.
//! `machine::simulate` must agree with `dra_sim::simulate` on every field
//! of every `SimResult` and on every `SimError`.

// Kept whole: the interpreter uses only part of the old cache's API.
#[allow(dead_code)]
pub mod cache;
pub mod machine;
