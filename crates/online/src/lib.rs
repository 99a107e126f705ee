//! Re-exports [`wm_core::online`] under the crate name the benchmark (`pipeline_ledger/`) imports.
pub use wm_core::online::*;
