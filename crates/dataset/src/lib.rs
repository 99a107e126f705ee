//! # wm-dataset — the synthetic IITM-Bandersnatch corpus
//!
//! The paper's dataset is 100 volunteers watching Bandersnatch under a
//! grid of operational conditions, each data point a pair
//! `{encrypted trace, ground-truth choices}` plus the volunteer's
//! behavioural attributes (Table I). This crate generates the synthetic
//! counterpart:
//!
//! * [`spec`] — viewer specifications: behavioural attributes sampled
//!   from the `wm-behavior` model, operational conditions cycled over
//!   the full grid (3 OSes × 2 browsers × 2 devices × 2 connection
//!   types × 3 times of day), and a per-viewer seed;
//! * [`run`] — execute the viewing sessions (in parallel across
//!   threads; each session is independently seeded and deterministic);
//! * [`io`] — persist and reload: the dataset manifest as JSON
//!   (via `wm-json`), traces as standard pcap files.

pub mod io;
pub mod run;
pub mod spec;

pub use io::{load_manifest, save_dataset};
pub use run::{
    run_dataset, try_run_dataset, try_run_dataset_with_workers, DatasetRun, SessionFailure,
    SessionRecord, SimOptions,
};
pub use spec::{DatasetSpec, OperationalConditions, Table1Summary, ViewerSpec};
