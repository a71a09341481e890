//! Micro-batching TCP inference server for the trained CTJam DQN
//! defender.
//!
//! The paper's deployment story (§III.C and the resource-constrained
//! nodes of the related work) has many transmitters consulting one
//! trained anti-jamming policy. This crate turns the in-process
//! [`ctjam_dqn::policy::GreedyPolicy`] into a network service:
//!
//! * [`protocol`] — the versioned, length-prefixed binary wire format
//!   (magic + version + request id + payload), total decoding with
//!   typed [`protocol::WireError`]s and an allocation-bomb-proof
//!   length cap; v2 adds a tenant id to `Observe` while every
//!   default-tenant frame stays byte-identical to v1;
//! * `batcher` (internal) — the bounded, work-conserving micro-batch
//!   queue (an idle worker takes everything queued, up to `max_batch`)
//!   with explicit `ServerBusy` backpressure;
//! * [`server`] — [`server::PolicyServer`]: accept/connection threads,
//!   N sharded batch workers (connections pinned by
//!   `conn_id % workers`) flushing into `Mlp::forward_batch` grouped
//!   by tenant, multi-model tenancy with per-tenant checkpoint
//!   hot-reload (validate-then-swap, never dropping connections),
//!   queue-delay SLO admission control, and graceful
//!   drain-on-shutdown;
//! * [`client`] — a small blocking [`client::PolicyClient`] (tenant
//!   aware; default-tenant clients speak pure v1);
//! * [`metrics`] — global and per-tenant counters plus
//!   latency/queue-wait/batch-size/queue-depth histograms (with
//!   p50/p95/p99) via `ctjam-telemetry`.
//!
//! Served actions are **bit-exact** with `DqnAgent::act_greedy` on the
//! agent the checkpoint was saved from: the batched forward kernel is
//! bit-exact with the per-sample one, and the argmax tie/NaN rules are
//! shared with the agent (asserted end-to-end by the `serve_bench` load
//! harness in `crates/bench`).
//!
//! # Example
//!
//! ```
//! use ctjam_dqn::agent::DqnAgent;
//! use ctjam_dqn::config::DqnConfig;
//! use ctjam_dqn::policy::GreedyPolicy;
//! use ctjam_serve::client::PolicyClient;
//! use ctjam_serve::server::{PolicyServer, ServerConfig};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let config = DqnConfig { history_len: 2, num_channels: 4, num_power_levels: 2,
//!                          hidden: (8, 8), ..DqnConfig::default() };
//! let agent = DqnAgent::new(config.clone(), &mut rng);
//! let server = PolicyServer::bind(
//!     "127.0.0.1:0",
//!     GreedyPolicy::from_agent(&agent),
//!     ServerConfig::default(),
//! ).unwrap();
//!
//! let mut client = PolicyClient::connect(server.local_addr()).unwrap();
//! let observation = vec![0.0; config.input_size()];
//! let action = client.act(&observation).unwrap();
//! assert_eq!(action as usize, agent.act_greedy(&observation));
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod batcher;
pub mod client;
pub mod metrics;
pub mod protocol;
pub mod server;
