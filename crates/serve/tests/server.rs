//! End-to-end server tests over real loopback sockets: bit-exactness
//! against the in-process agent, typed rejections, hostile-byte
//! resilience, and graceful shutdown accounting.

mod common;

use common::{observations, small_config, temp_file, trained_agent};
use ctjam_dqn::checkpoint;
use ctjam_dqn::policy::GreedyPolicy;
use ctjam_serve::client::{ClientError, PolicyClient};
use ctjam_serve::protocol::{ErrorCode, Message, MAX_PAYLOAD};
use ctjam_serve::server::{PolicyServer, ServerConfig};
use ctjam_telemetry::JsonValue;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

#[test]
fn served_actions_are_bit_exact_across_concurrent_clients() {
    let config = small_config();
    let agent = Arc::new(trained_agent(&config, 41));
    let server = PolicyServer::bind(
        "127.0.0.1:0",
        GreedyPolicy::from_agent(&agent),
        ServerConfig::default(),
    )
    .expect("bind");
    let addr = server.local_addr();

    let mut workers = Vec::new();
    for t in 0..4u64 {
        let agent = Arc::clone(&agent);
        let config = config.clone();
        workers.push(thread::spawn(move || {
            let mut client = PolicyClient::connect(addr).expect("connect");
            client.ping().expect("ping");
            for obs in observations(&config, 50, t) {
                let served = client.act(&obs).expect("act");
                assert_eq!(served as usize, agent.act_greedy(&obs));
            }
        }));
    }
    for w in workers {
        w.join().expect("client thread panicked");
    }
    let metrics = server.shutdown();
    let counters = metrics.get("counters").expect("counters");
    assert_eq!(counters.get("requests"), Some(&JsonValue::Num(200.0)));
    assert_eq!(counters.get("responses"), Some(&JsonValue::Num(200.0)));
    assert_eq!(counters.get("pings"), Some(&JsonValue::Num(4.0)));
}

/// The sharding contract: worker count changes scheduling, never
/// behavior. Every served action stays bit-exact against the
/// in-process agent at 1, 2, and 4 workers.
#[test]
fn served_actions_are_bit_exact_at_any_worker_count() {
    let config = small_config();
    let agent = Arc::new(trained_agent(&config, 47));
    for workers in [1usize, 2, 4] {
        let server = PolicyServer::bind(
            "127.0.0.1:0",
            GreedyPolicy::from_agent(&agent),
            ServerConfig {
                workers,
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        assert_eq!(server.worker_count(), workers);
        let addr = server.local_addr();
        let mut clients = Vec::new();
        for t in 0..4u64 {
            let agent = Arc::clone(&agent);
            let config = config.clone();
            clients.push(thread::spawn(move || {
                let mut client = PolicyClient::connect(addr).expect("connect");
                for obs in observations(&config, 30, 300 + t) {
                    assert_eq!(
                        client.act(&obs).expect("act") as usize,
                        agent.act_greedy(&obs),
                        "divergence at {workers} workers"
                    );
                }
            }));
        }
        for c in clients {
            c.join().expect("client thread panicked");
        }
        let metrics = server.shutdown();
        let counters = metrics.get("counters").expect("counters");
        assert_eq!(counters.get("responses"), Some(&JsonValue::Num(120.0)));
        // The default tenant's slice of the same traffic.
        let tenant = metrics
            .get("tenants")
            .and_then(|t| t.get("0"))
            .expect("default tenant metrics");
        let tcounters = tenant.get("counters").expect("tenant counters");
        assert_eq!(tcounters.get("responses"), Some(&JsonValue::Num(120.0)));
    }
}

/// Wire-level pipelining across a mid-stream hot-reload: one
/// connection writes a burst of Observe frames, checkpoints flip
/// underneath, and the replies must come back in exactly the request
/// order with every action explained by one of the two policies.
#[test]
fn pipelined_replies_stay_ordered_across_a_reload() {
    let config = small_config();
    let agent_a = trained_agent(&config, 48);
    let agent_b = trained_agent(&config, 49);
    let path_a = temp_file("pipeline_a");
    let path_b = temp_file("pipeline_b");
    checkpoint::save_agent(&agent_a, &path_a).expect("save a");
    checkpoint::save_agent(&agent_b, &path_b).expect("save b");

    let server = PolicyServer::bind(
        "127.0.0.1:0",
        GreedyPolicy::from_agent(&agent_a),
        ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
    )
    .expect("bind");

    let total = 200usize;
    let obs = observations(&config, total, 6);
    let mut burst = Vec::new();
    for (i, o) in obs.iter().enumerate() {
        Message::Observe {
            id: i as u64,
            tenant: 0,
            observation: o.clone(),
        }
        .encode_into(&mut burst);
    }

    let mut raw = TcpStream::connect(server.local_addr()).expect("connect raw");
    raw.set_nodelay(true).expect("nodelay");
    raw.write_all(&burst).expect("write burst");

    // Interleave reads with reloads on this thread: after every few
    // replies, swap the checkpoint under the still-draining burst.
    let mut stream_for_read = raw;
    let mut next_expected = 0u64;
    while next_expected < total as u64 {
        let reply = Message::read_from(&mut stream_for_read)
            .expect("read reply")
            .expect("connection closed mid-burst");
        match reply {
            Message::Action { id, action } => {
                assert_eq!(id, next_expected, "reply out of order");
                let o = &obs[id as usize];
                let from_a = agent_a.act_greedy(o);
                let from_b = agent_b.act_greedy(o);
                let served = action as usize;
                assert!(
                    served == from_a || served == from_b,
                    "action {served} from neither policy (a={from_a}, b={from_b})"
                );
                next_expected += 1;
            }
            other => panic!("unexpected reply kind: {other:?}"),
        }
        if next_expected.is_multiple_of(16) {
            let path = if (next_expected / 16).is_multiple_of(2) {
                &path_b
            } else {
                &path_a
            };
            server.reload_from(path).expect("reload mid-burst");
        }
    }
    std::fs::remove_file(&path_a).ok();
    std::fs::remove_file(&path_b).ok();
    server.shutdown();
}

/// The queue-delay SLO end to end under a zero budget: the first flush
/// primes the cost estimate (nothing is shed before it), every later
/// request is either served bit-exactly or refused with a typed
/// `Overloaded` that leaves the connection open, and the final counters
/// account for each one, globally and per tenant. Whether a given
/// request is shed depends on where the worker is when it arrives; the
/// admission step itself (depth × cost > budget, both counters, the
/// `Overloaded` reply) is pinned by a unit test in `server.rs` on a
/// server with no worker.
#[test]
fn queue_delay_slo_serves_or_sheds_every_request() {
    let config = small_config();
    let agent = trained_agent(&config, 50);
    let server = PolicyServer::bind(
        "127.0.0.1:0",
        GreedyPolicy::from_agent(&agent),
        ServerConfig {
            workers: 1,
            max_batch: 2,
            max_queue_delay: Some(Duration::ZERO),
            ..ServerConfig::default()
        },
    )
    .expect("bind");

    let total = 12;
    let obs = observations(&config, total, 7);
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    raw.set_nodelay(true).expect("nodelay");
    // Requests 0 and 1 are admitted whatever the timing: until a flush
    // completes the cost is unpriced, and once request 0's flush has
    // priced it, request 0 has left the queue. Their flushes prime the
    // estimate. Then a pipelined tail meets the priced zero budget:
    // each request is shed exactly when it finds another still queued.
    let (mut served, mut shed) = (0.0, 0.0);
    for ids in [0..2, 2..total] {
        let mut frames = Vec::new();
        for id in ids.clone() {
            let observation = obs[id].clone();
            Message::Observe {
                id: id as u64,
                tenant: 0,
                observation,
            }
            .encode_into(&mut frames);
        }
        raw.write_all(&frames).expect("write frames");
        for _ in ids {
            match Message::read_from(&mut raw).expect("read").expect("open") {
                Message::Action { id, action } => {
                    assert_eq!(action as usize, agent.act_greedy(&obs[id as usize]));
                    served += 1.0;
                }
                Message::Error { id, code } => {
                    assert!(id >= 2, "request {id} shed before the first flush");
                    assert_eq!(code, ErrorCode::Overloaded);
                    shed += 1.0;
                }
                other => panic!("unexpected reply: {other:?}"),
            }
        }
    }

    let metrics = server.shutdown();
    let counters = metrics.get("counters").expect("counters");
    assert_eq!(counters.get("slo_rejections"), Some(&JsonValue::Num(shed)));
    assert_eq!(counters.get("responses"), Some(&JsonValue::Num(served)));
    for histogram in ["latency_us", "queue_wait_us"] {
        let h = metrics.get(histogram).expect("histogram");
        assert_eq!(h.get("count"), Some(&JsonValue::Num(served)));
    }
    let tenant = metrics
        .get("tenants")
        .and_then(|t| t.get("0"))
        .expect("default tenant metrics");
    let tcounters = tenant.get("counters").expect("tenant counters");
    assert_eq!(tcounters.get("slo_rejections"), Some(&JsonValue::Num(shed)));
}

#[test]
fn wrong_observation_width_is_a_typed_rejection_and_connection_survives() {
    let config = small_config();
    let agent = trained_agent(&config, 42);
    let server = PolicyServer::bind(
        "127.0.0.1:0",
        GreedyPolicy::from_agent(&agent),
        ServerConfig::default(),
    )
    .expect("bind");
    let mut client = PolicyClient::connect(server.local_addr()).expect("connect");

    let narrow = vec![0.0; config.input_size() - 1];
    match client.act(&narrow) {
        Err(ClientError::Rejected(ErrorCode::BadObservation)) => {}
        other => panic!("expected BadObservation, got {other:?}"),
    }
    // The rejection is per-request: the same connection keeps working.
    let good = vec![0.0; config.input_size()];
    assert_eq!(
        client.act(&good).expect("act") as usize,
        agent.act_greedy(&good)
    );
}

#[test]
fn full_queue_surfaces_server_busy() {
    let config = small_config();
    let agent = trained_agent(&config, 43);
    let server = PolicyServer::bind(
        "127.0.0.1:0",
        GreedyPolicy::from_agent(&agent),
        ServerConfig {
            queue_capacity: 0, // every push is refused: deterministic busy
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut client = PolicyClient::connect(server.local_addr()).expect("connect");
    match client.act(&vec![0.0; config.input_size()]) {
        Err(ClientError::Rejected(ErrorCode::ServerBusy)) => {}
        other => panic!("expected ServerBusy, got {other:?}"),
    }
    let metrics = server.shutdown();
    let counters = metrics.get("counters").expect("counters");
    assert_eq!(counters.get("busy_rejections"), Some(&JsonValue::Num(1.0)));
}

#[test]
fn hostile_bytes_drop_the_connection_but_not_the_server() {
    let config = small_config();
    let agent = trained_agent(&config, 44);
    let server = PolicyServer::bind(
        "127.0.0.1:0",
        GreedyPolicy::from_agent(&agent),
        ServerConfig::default(),
    )
    .expect("bind");
    let addr = server.local_addr();

    // Garbage magic, then an oversized length prefix on a valid header:
    // both must be swallowed as typed wire errors server-side.
    for hostile in [
        b"XXXXXXXXXXXXXXXXXXXXXXXX".to_vec(),
        {
            let mut bytes = Message::Ping { id: 1 }.encode();
            bytes[14..18].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
            bytes
        },
        // A response kind arriving at the server.
        Message::Action { id: 9, action: 3 }.encode(),
    ] {
        let mut raw = TcpStream::connect(addr).expect("connect raw");
        raw.write_all(&hostile).expect("write hostile bytes");
        // Give the server a moment to read and drop us.
        thread::sleep(Duration::from_millis(100));
    }

    // A well-behaved client is still served, bit-exactly.
    let mut client = PolicyClient::connect(addr).expect("connect after attack");
    let obs = vec![0.5; config.input_size()];
    assert_eq!(
        client.act(&obs).expect("act") as usize,
        agent.act_greedy(&obs)
    );
    let metrics = server.shutdown();
    let counters = metrics.get("counters").expect("counters");
    match counters.get("wire_errors") {
        Some(&JsonValue::Num(n)) => assert!(n >= 3.0, "wire_errors = {n}"),
        other => panic!("missing wire_errors counter: {other:?}"),
    }
}

/// Eight synchronous clients through one small batch: every flush,
/// whatever mix of connections it carries, answers bit-exactly. (That
/// a backlog leaves together, `max_batch` at a time, is pinned without
/// timing by the batcher's unit tests.)
#[test]
fn batched_flushes_stay_bit_exact_across_eight_clients() {
    let config = small_config();
    let agent = Arc::new(trained_agent(&config, 45));
    let server = PolicyServer::bind(
        "127.0.0.1:0",
        GreedyPolicy::from_agent(&agent),
        ServerConfig {
            max_batch: 8,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    let mut workers = Vec::new();
    for t in 0..8u64 {
        let agent = Arc::clone(&agent);
        let config = config.clone();
        workers.push(thread::spawn(move || {
            let mut client = PolicyClient::connect(addr).expect("connect");
            for obs in observations(&config, 40, 100 + t) {
                assert_eq!(
                    client.act(&obs).expect("act") as usize,
                    agent.act_greedy(&obs)
                );
            }
        }));
    }
    for w in workers {
        w.join().expect("client thread panicked");
    }
    let metrics = server.shutdown();
    let counters = metrics.get("counters").expect("counters");
    assert_eq!(counters.get("responses"), Some(&JsonValue::Num(320.0)));
}

#[test]
fn graceful_shutdown_answers_whats_in_flight() {
    let config = small_config();
    let agent = Arc::new(trained_agent(&config, 46));
    let server = PolicyServer::bind(
        "127.0.0.1:0",
        GreedyPolicy::from_agent(&agent),
        ServerConfig {
            max_batch: 64,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    let mut workers = Vec::new();
    for t in 0..4u64 {
        let agent = Arc::clone(&agent);
        let config = config.clone();
        workers.push(thread::spawn(move || {
            let mut client = PolicyClient::connect(addr).expect("connect");
            let mut answered = 0u32;
            // Keep a request in flight until the shutdown ends the
            // connection, so the shutdown always races live traffic.
            for obs in observations(&config, 20, 200 + t).iter().cycle() {
                match client.act(obs) {
                    // Every answered request must still be bit-exact.
                    Ok(served) => {
                        assert_eq!(served as usize, agent.act_greedy(obs));
                        answered += 1;
                    }
                    // Racing the shutdown: typed refusal or a closed
                    // socket are both acceptable — panics are not.
                    Err(ClientError::Rejected(ErrorCode::ShuttingDown))
                    | Err(ClientError::Closed)
                    | Err(ClientError::Io(_)) => break,
                    Err(other) => panic!("unexpected failure: {other}"),
                }
            }
            answered
        }));
    }
    thread::sleep(Duration::from_millis(30));
    let metrics = server.shutdown();
    let answered: u32 = workers
        .into_iter()
        .map(|w| w.join().expect("client thread panicked"))
        .sum();
    // Drain guarantee: every request the server answered reached its
    // client before the socket closed (each client has one request in
    // flight, so nothing is left unread), and each answered request
    // left the queue through one flush.
    let counters = metrics.get("counters").expect("counters");
    let responses = match counters.get("responses") {
        Some(&JsonValue::Num(n)) => n,
        other => panic!("missing responses counter: {other:?}"),
    };
    assert_eq!(f64::from(answered), responses, "an answered reply was lost");
    for histogram in ["latency_us", "queue_wait_us"] {
        let h = metrics.get(histogram).expect("histogram");
        assert_eq!(
            h.get("count"),
            Some(&JsonValue::Num(responses)),
            "{histogram}"
        );
    }
}
