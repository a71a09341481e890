//! Multi-tenant serving: v1 and v2 clients sharing one server, tenant
//! isolation under hot-reload, typed unknown-tenant rejections, and
//! the drain guarantee holding across every tenant at once.

mod common;

use common::{observations, small_config, temp_file, trained_agent};
use ctjam_dqn::checkpoint;
use ctjam_dqn::config::DqnConfig;
use ctjam_dqn::policy::GreedyPolicy;
use ctjam_serve::client::{ClientError, PolicyClient};
use ctjam_serve::protocol::{ErrorCode, DEFAULT_TENANT};
use ctjam_serve::server::{PolicyServer, ReloadError, ServerConfig, TenantError};
use ctjam_telemetry::JsonValue;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const TENANT_B: u32 = 7;

/// Two tenants, four clients (two v1 implicit-default, two v2
/// explicit), all pipelining concurrently across 2 workers: every
/// reply must be bit-exact against *that tenant's* agent.
#[test]
fn v1_and_v2_clients_are_bit_exact_concurrently() {
    let config = small_config();
    let agent_a = Arc::new(trained_agent(&config, 70));
    let agent_b = Arc::new(trained_agent(&config, 71));
    let server = PolicyServer::bind(
        "127.0.0.1:0",
        GreedyPolicy::from_agent(&agent_a),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    server
        .add_tenant(TENANT_B, GreedyPolicy::from_agent(&agent_b))
        .expect("add tenant");
    assert_eq!(server.tenant_ids(), vec![DEFAULT_TENANT, TENANT_B]);
    let addr = server.local_addr();

    let mut workers = Vec::new();
    for t in 0..4u64 {
        let agent = if t % 2 == 0 {
            Arc::clone(&agent_a)
        } else {
            Arc::clone(&agent_b)
        };
        let config = config.clone();
        workers.push(thread::spawn(move || {
            let mut client = if t % 2 == 0 {
                // v1 path: no tenant on the wire at all.
                PolicyClient::connect(addr).expect("connect v1")
            } else {
                PolicyClient::connect_tenant(addr, TENANT_B).expect("connect v2")
            };
            for obs in observations(&config, 40, 400 + t) {
                assert_eq!(
                    client.act(&obs).expect("act") as usize,
                    agent.act_greedy(&obs),
                    "tenant isolation broken for client {t}"
                );
            }
        }));
    }
    for w in workers {
        w.join().expect("client thread panicked");
    }

    let metrics = server.shutdown();
    let tenants = metrics.get("tenants").expect("tenants object");
    for id in ["0", "7"] {
        let counters = tenants
            .get(id)
            .and_then(|t| t.get("counters"))
            .unwrap_or_else(|| panic!("tenant {id} metrics missing"));
        assert_eq!(counters.get("requests"), Some(&JsonValue::Num(80.0)));
        assert_eq!(counters.get("responses"), Some(&JsonValue::Num(80.0)));
    }
}

/// An unknown tenant id is a per-request typed rejection, not a
/// connection error — and a tenant registered *after* the miss is
/// picked up by the same connection (no negative caching).
#[test]
fn unknown_tenant_is_typed_and_late_registration_is_seen() {
    let config = small_config();
    let agent_a = trained_agent(&config, 72);
    let agent_b = trained_agent(&config, 73);
    let server = PolicyServer::bind(
        "127.0.0.1:0",
        GreedyPolicy::from_agent(&agent_a),
        ServerConfig::default(),
    )
    .expect("bind");

    let mut client = PolicyClient::connect_tenant(server.local_addr(), TENANT_B).expect("connect");
    let obs = &observations(&config, 1, 8)[0];
    match client.act(obs) {
        Err(ClientError::Rejected(ErrorCode::UnknownTenant)) => {}
        other => panic!("expected UnknownTenant, got {other:?}"),
    }

    // Same connection, same tenant id — now registered.
    server
        .add_tenant(TENANT_B, GreedyPolicy::from_agent(&agent_b))
        .expect("add tenant");
    assert_eq!(
        client.act(obs).expect("act after registration") as usize,
        agent_b.act_greedy(obs)
    );

    // And the default tenant still answers on the same connection.
    client.set_tenant(DEFAULT_TENANT);
    assert_eq!(
        client.act(obs).expect("act as default") as usize,
        agent_a.act_greedy(obs)
    );

    let metrics = server.shutdown();
    let counters = metrics.get("counters").expect("counters");
    assert_eq!(counters.get("unknown_tenant"), Some(&JsonValue::Num(1.0)));
}

#[test]
fn duplicate_tenant_ids_are_refused() {
    let config = small_config();
    let agent = trained_agent(&config, 74);
    let server = PolicyServer::bind(
        "127.0.0.1:0",
        GreedyPolicy::from_agent(&agent),
        ServerConfig::default(),
    )
    .expect("bind");
    assert_eq!(
        server.add_tenant(DEFAULT_TENANT, GreedyPolicy::from_agent(&agent)),
        Err(TenantError::Duplicate(DEFAULT_TENANT))
    );
    server.shutdown();
}

/// Reloading one tenant must not disturb another: tenant B hot-swaps
/// to a new policy while tenant 0 keeps serving its original one,
/// both observed over live connections. Shape validation is also
/// per-tenant.
#[test]
fn tenant_reloads_are_isolated() {
    let config = small_config();
    let agent_a = trained_agent(&config, 75);
    let agent_b = trained_agent(&config, 76);
    let agent_b2 = trained_agent(&config, 77);
    let obs: Vec<f64> = observations(&config, 200, 9)
        .into_iter()
        .find(|o| {
            agent_b.act_greedy(o) != agent_b2.act_greedy(o)
                && agent_a.act_greedy(o) != agent_b2.act_greedy(o)
        })
        .expect("seeds 75/76/77 disagree somewhere");

    let server = PolicyServer::bind(
        "127.0.0.1:0",
        GreedyPolicy::from_agent(&agent_a),
        ServerConfig::default(),
    )
    .expect("bind");
    server
        .add_tenant(TENANT_B, GreedyPolicy::from_agent(&agent_b))
        .expect("add tenant");
    let addr = server.local_addr();

    let mut client_a = PolicyClient::connect(addr).expect("connect a");
    let mut client_b = PolicyClient::connect_tenant(addr, TENANT_B).expect("connect b");
    assert_eq!(
        client_b.act(&obs).expect("act b before swap") as usize,
        agent_b.act_greedy(&obs)
    );

    let path = temp_file("tenant_b2");
    checkpoint::save_agent(&agent_b2, &path).expect("save b2");
    server
        .reload_tenant_from(TENANT_B, &path)
        .expect("reload b");

    // B swapped, same connection; A untouched, same connection.
    assert_eq!(
        client_b.act(&obs).expect("act b after swap") as usize,
        agent_b2.act_greedy(&obs)
    );
    assert_eq!(
        client_a.act(&obs).expect("act a after b's swap") as usize,
        agent_a.act_greedy(&obs)
    );

    // Unknown tenant ids are typed.
    match server.reload_tenant_from(99, &path) {
        Err(ReloadError::UnknownTenant(99)) => {}
        other => panic!("expected UnknownTenant, got {other:?}"),
    }

    // Shape validation stays per-tenant: a wider checkpoint is
    // refused for B even though it never matched A either.
    let wide = DqnConfig {
        num_channels: config.num_channels * 2,
        ..config.clone()
    };
    let wide_path = temp_file("tenant_wide");
    checkpoint::save_agent(&trained_agent(&wide, 78), &wide_path).expect("save wide");
    match server.reload_tenant_from(TENANT_B, &wide_path) {
        Err(ReloadError::ShapeMismatch { .. }) => {}
        other => panic!("expected ShapeMismatch, got {other:?}"),
    }
    assert_eq!(
        client_b.act(&obs).expect("act b after rejected swap") as usize,
        agent_b2.act_greedy(&obs)
    );

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&wide_path).ok();
    let metrics = server.shutdown();
    let tenant_b = metrics
        .get("tenants")
        .and_then(|t| t.get("7"))
        .expect("tenant 7 metrics");
    let counters = tenant_b.get("counters").expect("tenant counters");
    assert_eq!(counters.get("reloads_ok"), Some(&JsonValue::Num(1.0)));
    assert_eq!(counters.get("reloads_rejected"), Some(&JsonValue::Num(1.0)));
}

/// Per-tenant checkpoint watchers act independently: publishing a new
/// checkpoint for tenant B swaps B and leaves the default tenant's
/// policy alone.
#[test]
fn per_tenant_watcher_swaps_only_its_tenant() {
    let config = small_config();
    let agent_a = trained_agent(&config, 80);
    let agent_b = trained_agent(&config, 81);
    let agent_b2 = trained_agent(&config, 82);
    let obs: Vec<f64> = observations(&config, 200, 10)
        .into_iter()
        .find(|o| agent_b.act_greedy(o) != agent_b2.act_greedy(o))
        .expect("seeds 81/82 disagree somewhere");

    let path_b = temp_file("watched_b");
    checkpoint::save_agent(&agent_b, &path_b).expect("save b");
    let mut server = PolicyServer::bind(
        "127.0.0.1:0",
        GreedyPolicy::from_agent(&agent_a),
        ServerConfig {
            poll_interval: Duration::from_millis(10),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    server
        .add_tenant(
            TENANT_B,
            GreedyPolicy::load_checkpoint(&path_b).expect("load"),
        )
        .expect("add tenant");
    server
        .watch_tenant_checkpoint(TENANT_B, path_b.clone())
        .expect("watch b");
    assert_eq!(
        server.watch_tenant_checkpoint(99, path_b.clone()),
        Err(TenantError::Unknown(99))
    );

    let mut client_b =
        PolicyClient::connect_tenant(server.local_addr(), TENANT_B).expect("connect");
    assert_eq!(
        client_b.act(&obs).expect("act before swap") as usize,
        agent_b.act_greedy(&obs)
    );

    thread::sleep(Duration::from_millis(20));
    checkpoint::save_agent(&agent_b2, &path_b).expect("publish b2");

    let expected = agent_b2.act_greedy(&obs);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let served = client_b.act(&obs).expect("act across swap") as usize;
        if served == expected {
            break;
        }
        assert!(Instant::now() < deadline, "tenant watcher never swapped");
        thread::sleep(Duration::from_millis(10));
    }
    // The default tenant never moved.
    let mut client_a = PolicyClient::connect(server.local_addr()).expect("connect a");
    assert_eq!(
        client_a.act(&obs).expect("act a") as usize,
        agent_a.act_greedy(&obs)
    );
    std::fs::remove_file(&path_b).ok();
    server.shutdown();
}

/// The drain guarantee spans tenants: shutdown races four synchronous
/// clients, two per tenant, and every admitted request is answered —
/// globally and per tenant, the `Action` replies the clients received
/// == responses == recorded latencies (and, globally, == recorded
/// queue waits).
#[test]
fn graceful_drain_answers_every_tenant() {
    let config = small_config();
    let agent_a = Arc::new(trained_agent(&config, 83));
    let agent_b = Arc::new(trained_agent(&config, 84));
    let server = PolicyServer::bind(
        "127.0.0.1:0",
        GreedyPolicy::from_agent(&agent_a),
        ServerConfig {
            workers: 2,
            max_batch: 64,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    server
        .add_tenant(TENANT_B, GreedyPolicy::from_agent(&agent_b))
        .expect("add tenant");
    let addr = server.local_addr();

    let mut workers = Vec::new();
    for t in 0..4u64 {
        let (agent, tenant) = if t % 2 == 0 {
            (Arc::clone(&agent_a), DEFAULT_TENANT)
        } else {
            (Arc::clone(&agent_b), TENANT_B)
        };
        let config = config.clone();
        workers.push(thread::spawn(move || {
            let mut client = PolicyClient::connect_tenant(addr, tenant).expect("connect");
            let mut answered = 0u32;
            // Keep a request in flight until the shutdown ends the
            // connection, so the shutdown always races live traffic.
            for obs in observations(&config, 20, 500 + t).iter().cycle() {
                match client.act(obs) {
                    Ok(served) => {
                        assert_eq!(served as usize, agent.act_greedy(obs));
                        answered += 1;
                    }
                    Err(ClientError::Rejected(ErrorCode::ShuttingDown))
                    | Err(ClientError::Closed)
                    | Err(ClientError::Io(_)) => break,
                    Err(other) => panic!("unexpected failure: {other}"),
                }
            }
            (tenant, answered)
        }));
    }
    thread::sleep(Duration::from_millis(30));
    let metrics = server.shutdown();
    let answered: Vec<(u32, u32)> = workers
        .into_iter()
        .map(|w| w.join().expect("client thread panicked"))
        .collect();

    let num = |v: Option<&JsonValue>| match v {
        Some(&JsonValue::Num(n)) => n,
        other => panic!("expected a number, got {other:?}"),
    };
    let counters = metrics.get("counters").expect("counters");
    let responses = num(counters.get("responses"));
    for histogram in ["latency_us", "queue_wait_us"] {
        let h = metrics.get(histogram).expect("histogram");
        assert_eq!(
            h.get("count"),
            Some(&JsonValue::Num(responses)),
            "{histogram}"
        );
    }
    let tenants = metrics.get("tenants").expect("tenants");
    let mut tenant_responses = 0.0;
    for id in [DEFAULT_TENANT, TENANT_B] {
        let t = tenants.get(&id.to_string()).expect("tenant entry");
        let r = num(t.get("counters").expect("tenant counters").get("responses"));
        let c = num(t.get("latency_us").expect("tenant latency").get("count"));
        assert_eq!(r, c, "tenant {id} dropped an admitted request");
        // Each client has one request in flight, so every reply the
        // server answered must have reached it before the socket closed.
        let got: u32 = answered
            .iter()
            .filter(|&&(tenant, _)| tenant == id)
            .map(|&(_, n)| n)
            .sum();
        assert_eq!(f64::from(got), r, "tenant {id} lost an answered reply");
        tenant_responses += r;
    }
    assert_eq!(
        tenant_responses, responses,
        "tenant responses do not sum to the global count"
    );
}
