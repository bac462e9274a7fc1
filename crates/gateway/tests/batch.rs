//! Batch frames through the gateway: forwarded sub-requests travel as
//! one `batch` frame per shard, and the reassembled reply must equal the
//! single-shot sequence byte for byte — `cached` flags included — with
//! or without a shard failing under the frame.

use gpp_gateway::ring::{routing_key, HashRing};
use gpp_gateway::{GatewayConfig, GatewayState};
use gpp_serve::protocol::split_batch_response;
use gpp_serve::{Client, Request, ServeConfig, Server, ServerHandle};
use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(20);
const SHARDS: usize = 3;

/// Structurally distinct programs: each `n` fingerprints differently, so
/// each has its own ring position.
fn skeleton(n: usize) -> String {
    let size = 1usize << (12 + n % 8);
    format!(
        "program batch-{n}\n\
         array a f32 [{size}]\n\
         array b f32 [{size}]\n\
         array c f32 [{size}]\n\
         \n\
         kernel add\n\
         \x20 parallel i {size}\n\
         \x20 stmt adds={adds}\n\
         \x20   read  a [i]\n\
         \x20   read  b [i]\n\
         \x20   write c [i]\n",
        adds = 1 + n / 8,
    )
}

fn project(n: usize, seed: u64) -> String {
    format!("gpp/1 project seed={seed}\n{}", skeleton(n))
}

/// The ring position (shard index) that owns program `n` as primary.
fn owner(n: usize) -> usize {
    let labels: Vec<String> = (0..SHARDS).map(|i| format!("shard{i}")).collect();
    let program = gpp_skeleton::text::parse(&skeleton(n)).unwrap();
    let key = routing_key("eureka", gpp_gpu_model::program_fingerprint(&program));
    HashRing::new(&labels).route(key).unwrap()
}

/// Six programs whose primaries cover all three shards, two each.
const PROGRAMS: [usize; 6] = [0, 3, 7, 4, 8, 14];

/// A 16-sub frame over [`PROGRAMS`]: every program appears as an
/// identical pair (miss, then memo hit), one also at a second seed, plus a
/// ping, an `analyze`, and a malformed sub riding along.
fn frame(base_seed: u64) -> Vec<String> {
    let mut subs: Vec<String> = PROGRAMS.iter().map(|&n| project(n, base_seed)).collect();
    subs.push("gpp/1 ping".to_string());
    subs.extend(PROGRAMS.iter().rev().map(|&n| project(n, base_seed)));
    subs.push(project(PROGRAMS[2], base_seed + 1));
    subs.push(format!("gpp/1 analyze\n{}", skeleton(4)));
    subs.push("gpp/1 project\n".to_string());
    assert_eq!(subs.len(), 16);
    subs
}

fn spawn_shard() -> ServerHandle {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServeConfig::default()
    };
    Server::bind(config).unwrap().spawn().unwrap()
}

/// Ground truth: the same sub-requests sent single-shot, in frame order,
/// to one fresh shard.
fn single_shot(frames: &[Vec<String>]) -> Vec<Vec<String>> {
    let shard = spawn_shard();
    let mut client = Client::connect(shard.addr(), TIMEOUT).unwrap();
    let replies = frames
        .iter()
        .map(|subs| subs.iter().map(|p| client.call_raw(p).unwrap()).collect())
        .collect();
    drop(client);
    shard.shutdown_and_join().unwrap();
    replies
}

fn pool(config: GatewayConfig) -> (Vec<ServerHandle>, GatewayState) {
    let shards: Vec<ServerHandle> = (0..SHARDS).map(|_| spawn_shard()).collect();
    let addrs = shards.iter().map(|s| s.addr().to_string()).collect();
    (shards, GatewayState::new(config, addrs))
}

fn sub_replies(reply: &str) -> Vec<String> {
    split_batch_response(reply)
        .unwrap_or_else(|| panic!("not a batch reply: {reply}"))
        .into_iter()
        .map(str::to_string)
        .collect()
}

#[test]
fn grouped_frame_equals_the_single_shot_sequence_byte_for_byte() {
    let owners: BTreeSet<usize> = PROGRAMS.iter().map(|&n| owner(n)).collect();
    assert_eq!(owners.len(), SHARDS, "the frame must span every shard");
    let frames = vec![frame(500), frame(600)];
    let reference = single_shot(&frames);
    let (shards, state) = pool(GatewayConfig::default());

    for (subs, expected) in frames.iter().zip(&reference) {
        let reply = state.handle(&Request::new_batch(subs.clone()).encode());
        assert_eq!(&sub_replies(&reply), expected);
        let cached = |r: &String| r.contains("\"cached\":true");
        assert_eq!(
            sub_replies(&reply).iter().filter(|r| cached(r)).count(),
            6,
            "each duplicate pair hits once"
        );
    }
    assert_eq!(state.metrics.batch_frames.load(Ordering::Relaxed), 2);
    assert_eq!(state.metrics.batch_subs.load(Ordering::Relaxed), 32);
    for s in shards {
        s.shutdown_and_join().unwrap();
    }
}

#[test]
fn routed_total_rises_by_at_most_one_per_shard_per_frame() {
    let (shards, state) = pool(GatewayConfig::default());
    for base_seed in [700, 710, 720] {
        let before = state.metrics.routed_total.load(Ordering::Relaxed);
        let reply = state.handle(&Request::new_batch(frame(base_seed)).encode());
        assert!(reply.starts_with("{\"ok\":true"), "{reply}");
        let forwards = state.metrics.routed_total.load(Ordering::Relaxed) - before;
        assert!(
            (1..=SHARDS as u64).contains(&forwards),
            "a 16-sub frame made {forwards} upstream forwards"
        );
    }
    let per_shard: Vec<u64> = state
        .pool
        .shards()
        .iter()
        .map(|s| s.routed.load(Ordering::Relaxed))
        .collect();
    assert_eq!(per_shard, vec![3; SHARDS], "one frame per shard per batch");
    for s in shards {
        s.shutdown_and_join().unwrap();
    }
}

#[test]
fn shard_down_during_a_batch_falls_back_and_keeps_every_reply() {
    let victim = owner(PROGRAMS[0]);
    let frames = vec![frame(800)];
    let reference = single_shot(&frames);
    // The victim refuses the first forward it sees: its group's frame.
    let plan = format!("seed=7;gateway.shard.down@shard{victim}:first=1");
    let config = GatewayConfig {
        faults: Arc::new(gpp_fault::FaultInjector::new(plan.parse().unwrap())),
        ..GatewayConfig::default()
    };
    let (shards, state) = pool(config);

    let reply = state.handle(&Request::new_batch(frames[0].clone()).encode());
    assert_eq!(sub_replies(&reply), reference[0]);

    let dead = &state.pool.shards()[victim];
    assert!(!dead.is_healthy(), "the failed group tripped the breaker");
    assert_eq!(dead.forward_errors.load(Ordering::Relaxed), 1);
    assert_eq!(
        state.metrics.failovers.load(Ordering::Relaxed),
        0,
        "fallback routes straight to the healthy successor"
    );
    assert_eq!(state.metrics.unavailable.load(Ordering::Relaxed), 0);
    for s in shards {
        s.shutdown_and_join().unwrap();
    }
}
