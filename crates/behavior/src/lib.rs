//! # wm-behavior — viewer behaviour model
//!
//! Table I of the paper records *behavioural* attributes for every
//! volunteer — age group, gender, political alignment, state of mind —
//! because the whole point of the attack is that choices correlate with
//! who the viewer is. This crate is the synthetic counterpart: it maps
//! those attributes onto preference weights over the story graph's
//! choice tags (`wm_story::ChoiceTag`) and samples viewer scripts from
//! them, so the generated IITM-Bandersnatch-style corpus carries real
//! attribute/choice structure for the behavioural-profiling example to
//! recover.
//!
//! The weight tables are invented (the paper publishes no behavioural
//! coefficients); what matters for the reproduction is that they are
//! *consistent* — the same attributes always shift the same tags — and
//! documented. See `attributes` for the Table I domains and `model` for
//! the sampling.

pub mod attributes;
pub mod infer;
pub mod model;

pub use attributes::{AgeGroup, BehaviorAttributes, Gender, PoliticalAlignment, StateOfMind};
pub use infer::{infer_attributes, AttributePosterior};
pub use model::{script_for, tag_affinity, BehaviorModel};
