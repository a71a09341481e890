//! Fleet-scale sharded campaign engine.
//!
//! The paper's evaluation — and the roadmap's "millions of users" north
//! star — needs cheap, reproducible campaigns of 10⁴–10⁶ independent
//! episodes: a grid of [`ctjam_core::env::EnvParams`] × seeds × one
//! defender policy. This crate schedules such a grid onto
//! [`ctjam_core::pool`]'s work-stealing shard pool and guarantees the
//! results are **bit-exact regardless of thread count or steal order**:
//!
//! * Every episode derives its own RNG stream from the campaign's base
//!   seed by chained SplitMix64 mixing ([`CampaignSpec::episode_seed`])
//!   — no episode ever observes another's draws.
//! * Per-episode outcomes are keyed by episode index, so the outcome
//!   vector is independent of which shard ran what.
//! * Per-shard telemetry aggregates into
//!   [`ctjam_telemetry::ShardSink`]s, whose `merge` is associative and
//!   commutative (exact summation), so the O(shards) reduction lands on
//!   the sequential result bit-for-bit.
//!
//! A single read-only policy ([`ctjam_dqn::policy::GreedyPolicy`] behind
//! an `Arc`) is shared by all shards — campaigns evaluate one trained
//! network against the whole grid without cloning weights per episode.
//! Campaigns can also carry per-episode fault plans
//! ([`CampaignFaults`]), and [`Fleet::run_partial`] /
//! [`CampaignProgress`] / [`Fleet::resume`] give kill/resume with a
//! checkpointed prefix that reproduces the uninterrupted run exactly
//! (`tests/chaos.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod progress;
pub mod shared;
pub mod spec;

pub use engine::{CampaignResult, EpisodeOutcome, Fleet, ResumeError};
pub use progress::CampaignProgress;
pub use shared::SharedPolicyDefender;
pub use spec::{CampaignFaults, CampaignPolicy, CampaignSpec};
