//! # white-mirror — reproduction of the White Mirror attack
//!
//! A from-scratch Rust reproduction of *"White Mirror: Leaking Sensitive
//! Information from Interactive Netflix Movies using Encrypted Traffic
//! Analysis"* (Mitra et al., SIGCOMM 2019 posters): a passive
//! eavesdropper recovers the choices a viewer makes inside *Black
//! Mirror: Bandersnatch* from nothing but TLS record lengths.
//!
//! This facade crate re-exports the whole workspace. The pipeline, end
//! to end:
//!
//! ```text
//! story graph ──> player ──TLS/TCP──> link+tap ──> Netflix server
//!   (wm-story)   (wm-player)  (wm-tls,wm-net)        (wm-netflix)
//!                                  │
//!                                pcap (wm-capture)
//!                                  │
//!                        White Mirror attack (wm-core)
//!                                  │
//!                         the viewer's choices
//! ```
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use white_mirror::prelude::*;
//!
//! // One viewing session of the (reconstructed) Bandersnatch graph.
//! let graph = Arc::new(story::bandersnatch::bandersnatch());
//! let script = ViewerScript::sample(7, 14, 0.5);
//! let mut cfg = SessionConfig::fast(graph.clone(), 7, script);
//! cfg.player.time_scale = 40; // fast playback for the doctest
//! let session = run_session(&cfg).unwrap();
//!
//! // Train the attack on a different, labelled session…
//! let train_cfg = SessionConfig::fast(graph.clone(), 8, ViewerScript::sample(8, 14, 0.5));
//! let train = run_session(&{ let mut c = train_cfg; c.player.time_scale = 40; c }).unwrap();
//! let attack = WhiteMirror::train(&train.labels, WhiteMirrorConfig::scaled(40)).unwrap();
//!
//! // …and read the victim's choices out of the raw capture.
//! let (decoded, accuracy) = attack.evaluate(&session.trace, &graph, &session.decisions);
//! assert!(accuracy.accuracy() > 0.85);
//! assert_eq!(decoded.choices.len(), session.decisions.len());
//! ```

pub use wm_behavior as behavior;
pub use wm_capture as capture;
pub use wm_chaos as chaos;
pub use wm_cipher as cipher;
pub use wm_core as core;
pub use wm_core::{baselines, online};
pub use wm_dataset as dataset;
pub use wm_defense as defense;
pub use wm_fleet as fleet;
pub use wm_http as http;
pub use wm_json as json;
pub use wm_net as net;
pub use wm_netflix as netflix;
pub use wm_obs as obs;
pub use wm_player as player;
pub use wm_sim as sim;
pub use wm_story as story;
pub use wm_telemetry as telemetry;
pub use wm_telemetry::trace;
pub use wm_tls as tls;

/// The names most programs need.
pub mod prelude {
    pub use wm_capture::{RecordClass, Trace};
    pub use wm_chaos::{FaultEvent, FaultKind, FaultPlan, ShardFaultPlan};
    pub use wm_core::online::{OnlineConfig, OnlineDecoder, OnlineVerdict};
    pub use wm_core::{WhiteMirror, WhiteMirrorConfig};
    pub use wm_dataset::{run_dataset, try_run_dataset, DatasetSpec, SimOptions};
    pub use wm_defense::Defense;
    pub use wm_fleet::{Fleet, FleetConfig, FleetReport};
    pub use wm_net::conditions::{ConnectionType, LinkConditions, TimeOfDay};
    pub use wm_player::{Profile, ViewerScript};
    pub use wm_sim::{run_session, run_session_lossy, SessionConfig, SessionError, SessionOutput};
    pub use wm_story::{self as story, Choice, StoryGraph};
    pub use wm_telemetry::trace::{
        counts_by_name, export_chrome_trace, export_jsonl, trace_diff, TraceEvent,
    };
    pub use wm_tls::CipherSuite;
}
