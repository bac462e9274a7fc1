//! The `batch` frame end-to-end: a batch reply must be **bit-for-bit**
//! the concatenation of the single-shot replies for the same requests —
//! the property the gateway's fan-out relies on.

use gpp_serve::protocol::{batch_response, split_batch_response, Request};
use gpp_serve::Command;
use gpp_serve::{ServeConfig, ServiceState};
use grophecy::report::Json;
use proptest::prelude::*;

const VEC_ADD: &str = include_str!("../../../skeletons/vector_add.gsk");
const HOTSPOT: &str = include_str!("../../../skeletons/hotspot_1024.gsk");

fn payload(cmd: &str, body: &str) -> String {
    format!("gpp/1 {cmd}\n{body}")
}

/// Extracts the `replies` array elements from a batch reply by splitting
/// on the envelope (each element is itself a complete JSON object the
/// server rendered, so reconstructing the concatenation is exact).
fn assert_batch_equals_singles(batch_reply: &str, singles: &[String]) {
    let expected = format!(
        "{{\"ok\":true,\"command\":\"batch\",\"count\":{},\"replies\":[{}]}}",
        singles.len(),
        singles.join(",")
    );
    assert_eq!(batch_reply, expected);
}

#[test]
fn batch_reply_is_bitwise_concatenation_of_single_shots() {
    let subs = vec![
        payload("project", VEC_ADD),
        payload("project seed=7", VEC_ADD),
        "gpp/1 ping".to_string(),
        payload("analyze", HOTSPOT),
        "gpp/1 project\n".to_string(), // sub-level error: still embedded
    ];
    // Reference: a fresh state answering each request single-shot.
    let singles: Vec<String> = {
        let s = ServiceState::new(ServeConfig::default());
        subs.iter().map(|p| s.handle(p, 0)).collect()
    };
    // Batch: another fresh state, same requests in one frame.
    let s = ServiceState::new(ServeConfig::default());
    let batch_reply = s.handle(&Request::new_batch(subs).encode(), 0);
    assert_batch_equals_singles(&batch_reply, &singles);
}

#[test]
fn batch_subs_share_server_caches() {
    let s = ServiceState::new(ServeConfig::default());
    let subs = vec![payload("project", VEC_ADD), payload("project", VEC_ADD)];
    let reply = s.handle(&Request::new_batch(subs).encode(), 0);
    // Second identical sub hits the projection memo warmed by the first.
    assert!(reply.contains("\"cached\":false"), "{reply}");
    assert!(reply.contains("\"cached\":true"), "{reply}");
    let snap = s.snapshot(0);
    assert_eq!((snap.proj_misses, snap.proj_hits), (1, 1));
}

#[test]
fn successful_project_replies_carry_the_fingerprint() {
    let s = ServiceState::new(ServeConfig::default());
    let a = s.handle(&payload("project", VEC_ADD), 0);
    let b = s.handle(&payload("project seed=9", VEC_ADD), 0);
    let c = s.handle(&payload("project", HOTSPOT), 0);
    let fp = |reply: &str| {
        let at = reply.find("\"fingerprint\":\"").expect("fingerprint field") + 15;
        reply[at..at + 32].to_string()
    };
    // Structural: same program → same fingerprint at any seed; a
    // different program fingerprints differently.
    assert_eq!(fp(&a), fp(&b));
    assert_ne!(fp(&a), fp(&c));
    // The stats memo rows expose the same fingerprints.
    let stats = s.handle("gpp/1 stats", 0);
    assert!(stats.contains("\"projection_memo\":["), "{stats}");
    assert!(
        stats.contains(&format!("\"fingerprint\":\"{}\"", fp(&a))),
        "{stats}"
    );
    assert!(
        stats.contains(&format!("\"fingerprint\":\"{}\"", fp(&c))),
        "{stats}"
    );
}

/// Characters a sub-reply's strings may carry that a naive splitter on
/// `,` or brackets would trip over.
const TRICKY: [char; 10] = [',', '[', ']', '{', '}', '"', '\\', ':', 'a', '\n'];

/// A rendered sub-reply whose string field holds `picks` from
/// [`TRICKY`], wrapped `nest` levels deep in arrays and objects.
fn tricky_reply(picks: &[usize], nest: usize) -> String {
    let text: String = picks.iter().map(|&i| TRICKY[i]).collect();
    let mut value = Json::Str(text.clone());
    for _ in 0..nest {
        value = Json::Arr(vec![value, Json::obj([("s", Json::Str(text.clone()))])]);
    }
    Json::obj([("ok", Json::Bool(false)), ("message", value)]).render()
}

#[test]
fn split_batch_response_rejects_non_batch_replies() {
    let busy = r#"{"ok":false,"error":{"kind":"busy","message":"full"}}"#;
    assert_eq!(split_batch_response(busy), None);
    let one = r#"{"ok":true,"command":"batch","count":2,"replies":[{"ok":true}]}"#;
    assert_eq!(split_batch_response(one), None, "count disagrees");
    let open = r#"{"ok":true,"command":"batch","count":1,"replies":[{"a":"]}"#;
    assert_eq!(split_batch_response(open), None, "unterminated string");
    assert_eq!(split_batch_response(&batch_response(&[])), Some(vec![]));
}

#[test]
fn split_batch_response_recovers_real_server_sub_replies() {
    let subs = vec![
        payload("project", VEC_ADD),
        "gpp/1 ping".to_string(),
        payload("analyze", HOTSPOT),
        "gpp/1 project\n".to_string(),
    ];
    let singles: Vec<String> = {
        let s = ServiceState::new(ServeConfig::default());
        subs.iter().map(|p| s.handle(p, 0)).collect()
    };
    let s = ServiceState::new(ServeConfig::default());
    let reply = s.handle(&Request::new_batch(subs).encode(), 0);
    assert_eq!(
        split_batch_response(&reply),
        Some(singles.iter().map(String::as_str).collect())
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Splitting a joined batch reply returns every part unchanged, even
    /// when the parts' strings hold commas, brackets, braces and escaped
    /// quotes at any nesting depth.
    #[test]
    fn split_of_join_returns_the_parts(
        parts in proptest::collection::vec(
            (proptest::collection::vec(0usize..TRICKY.len(), 0..12), 0usize..3),
            0..8,
        ),
    ) {
        let replies: Vec<String> =
            parts.iter().map(|(picks, nest)| tricky_reply(picks, *nest)).collect();
        let joined = batch_response(&replies);
        let split = split_batch_response(&joined);
        prop_assert_eq!(split, Some(replies.iter().map(String::as_str).collect()));
    }

    /// For any mix of deterministic sub-requests (well-formed and broken
    /// alike — `stats` is excluded since its counters depend on the frame
    /// count), the batch reply equals the concatenation of single-shot
    /// replies from an identically-initialized server, bit for bit.
    #[test]
    fn batch_matches_singles_for_any_mix(
        picks in proptest::collection::vec(0usize..6, 1..8),
        seed in 0u64..1000,
    ) {
        let sub = |pick: usize| match pick {
            0 => payload(&format!("project seed={seed}"), VEC_ADD),
            1 => "gpp/1 ping".to_string(),
            2 => payload("analyze", VEC_ADD),
            3 => payload(&format!("project seed={}", seed + 1), HOTSPOT),
            4 => payload("deps", VEC_ADD),
            _ => "gpp/1 project\n".to_string(), // missing skeleton: error
        };
        let subs: Vec<String> = picks.iter().map(|p| sub(*p)).collect();
        let singles: Vec<String> = {
            let s = ServiceState::new(ServeConfig::default());
            subs.iter().map(|p| s.handle(p, 0)).collect()
        };
        let s = ServiceState::new(ServeConfig::default());
        let batch_reply = s.handle(&Request::new_batch(subs).encode(), 0);
        let expected = format!(
            "{{\"ok\":true,\"command\":\"batch\",\"count\":{},\"replies\":[{}]}}",
            picks.len(),
            singles.join(",")
        );
        prop_assert_eq!(batch_reply, expected);
    }

    /// Encode/decode round-trips any batch of ping frames at any legal
    /// count.
    #[test]
    fn batch_roundtrips_at_any_count(n in 1usize..40) {
        let req = Request::new_batch((0..n).map(|_| "gpp/1 ping".to_string()));
        let decoded = Request::decode(&req.encode()).unwrap();
        prop_assert_eq!(decoded.command, Command::Batch);
        prop_assert_eq!(decoded.batch.len(), n);
    }
}
