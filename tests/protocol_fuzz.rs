//! Protocol fuzz over the daemon's wire surface: seeded mutations of a
//! valid request frame thrown at a live in-process server over raw
//! Unix sockets.
//!
//! Three invariants, checked on every single mutation:
//!
//! * **never panic** — a panic hook counts every panic in the process;
//!   the fuzz ends with that counter untouched;
//! * **never a wrong answer** — every reply line must parse as a
//!   [`ServiceResponse`]; an `ok` reply must be self-consistent
//!   (`fnv64` matches its own stdout), and when the mutated frame still
//!   decodes to the canonical request, its stdout must be byte-exact;
//! * **never a leaked slot** — after hundreds of abandoned, torn, and
//!   malformed connections, the full `conn_limit` budget is still
//!   available (the `ConnSlot` RAII regression: a leak would turn
//!   admission into permanent busy-rejection).
//!
//! Seeds are fixed (`SmallRng::seed_from_u64`), so a failure
//! reproduces exactly — the same contract as `corruption_fuzz.rs` for
//! storage artifacts, applied to the wire.

use membw::runner::counters::Counter;
use membw::runner::{fault, persist, CancelReason, CancelToken};
use membw::service::{ServiceRequest, ServiceResponse, STATS_TARGET};
use membw::sweep::SweepMode;
use membw::targets;
use membw::workloads::Scale;
use membw_serve::{client, serve, Endpoint, ResultStore, ServeConfig, Server};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const FUZZ_MUTATIONS: u64 = 340;
const CONN_LIMIT: usize = 4;
const MAX_FRAME: usize = 2048;

static PANICS: AtomicU64 = AtomicU64::new(0);

fn request(target: &str) -> ServiceRequest {
    let mut req = ServiceRequest::new(target);
    req.scale = "test".to_string();
    req
}

fn reference(target: &str) -> String {
    targets::render_target(target, Scale::Test, SweepMode::Stack)
        .expect("reference render")
        .stdout
}

/// One seeded mutation in place: bit flip, byte splice (any value —
/// including `\n`, which splits the frame, and non-UTF-8 bytes),
/// random-byte insertion, truncation, tail chop, or oversize padding.
fn mutate(bytes: &mut Vec<u8>, rng: &mut SmallRng) {
    match rng.gen_range(0u32..6) {
        0 => {
            let pos = rng.gen_range(0..bytes.len());
            bytes[pos] ^= 1 << rng.gen_range(0u32..8);
        }
        1 => {
            let pos = rng.gen_range(0..bytes.len());
            bytes[pos] = (rng.gen::<u32>() & 0xff) as u8;
        }
        2 => {
            let pos = rng.gen_range(0..=bytes.len());
            bytes.insert(pos, (rng.gen::<u32>() & 0xff) as u8);
        }
        3 => {
            let keep = rng.gen_range(0..bytes.len());
            bytes.truncate(keep);
        }
        4 => {
            let cut = rng.gen_range(1..=bytes.len().min(16));
            bytes.truncate(bytes.len() - cut);
        }
        _ => {
            // Oversize: pad past the frame bound so the daemon must
            // refuse it mid-accumulation.
            let pad = MAX_FRAME + rng.gen_range(1usize..512);
            let at = bytes.len().saturating_sub(1);
            for _ in 0..pad {
                bytes.insert(at, b'x');
            }
        }
    }
}

/// Throw one frame at the daemon over a raw socket and collect every
/// reply byte until the server closes. `shutdown(Write)` after the
/// frame keeps the keepalive server from waiting out its read timeout.
fn exchange_raw(socket: &std::path::Path, frame: &[u8]) -> Vec<u8> {
    let mut s = UnixStream::connect(socket).expect("daemon socket");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    // The daemon may legitimately kill the connection mid-write
    // (oversize refusal); a send error is an acceptable outcome.
    let _ = s.write_all(frame);
    let _ = s.shutdown(Shutdown::Write);
    let mut reply = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match s.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => reply.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break, // reset/timeout: the close outcome
        }
    }
    reply
}

/// The wire contract for whatever came back: every *complete* line
/// parses as a [`ServiceResponse`]; `ok` replies are self-consistent;
/// a reply to the untouched canonical request is byte-exact.
fn assert_replies_structured(
    reply: &[u8],
    sent: &[u8],
    canonical: &ServiceRequest,
    expected: &str,
    seed: u64,
) {
    let mut rest = reply;
    while let Some(pos) = rest.iter().position(|&b| b == b'\n') {
        let line = std::str::from_utf8(&rest[..pos])
            .unwrap_or_else(|e| panic!("seed {seed}: reply line is not UTF-8: {e}"));
        rest = &rest[pos + 1..];
        if line.trim().is_empty() {
            continue;
        }
        let resp: ServiceResponse = serde_json::from_str(line.trim())
            .unwrap_or_else(|e| panic!("seed {seed}: unstructured reply {line:?}: {e}"));
        if let ServiceResponse::Ok { stdout, fnv64, .. } = &resp {
            assert_eq!(
                *fnv64,
                format!("{:016x}", persist::fnv64(stdout)),
                "seed {seed}: ok reply is not self-consistent"
            );
            // A mutation that survives as the canonical request must
            // still get the canonical bytes — anything else is the
            // "wrong answer" this fuzz exists to rule out.
            let sent_line = sent.split(|&b| b == b'\n').next().unwrap_or(&[]);
            if let Ok(txt) = std::str::from_utf8(sent_line) {
                if let Ok(req) = serde_json::from_str::<ServiceRequest>(txt.trim()) {
                    if req == *canonical {
                        assert_eq!(stdout, expected, "seed {seed}: wrong answer");
                    }
                }
            }
        }
    }
    assert!(
        rest.is_empty(),
        "seed {seed}: daemon closed mid-reply-frame on an intact connection: {:?}",
        String::from_utf8_lossy(rest)
    );
}

#[test]
fn fuzzed_frames_never_panic_never_answer_wrong_never_leak_a_slot() {
    // Panic accounting for the whole process: the daemon runs in this
    // process, so any handler panic lands in this hook.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        PANICS.fetch_add(1, Ordering::SeqCst);
        prev(info);
    }));

    let base = std::env::temp_dir().join(format!("membw_protofuzz_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let socket = base.join("fuzz.sock");
    let endpoint = Endpoint::Unix(socket.clone());

    let config = ServeConfig {
        max_inflight: 2,
        queue_bound: 8,
        conn_limit: CONN_LIMIT,
        read_timeout: Duration::from_millis(400),
        max_frame: MAX_FRAME,
    };
    let store = ResultStore::open(&base.join("store")).expect("open store");
    let server = Arc::new(Server::new(config, store));
    let cancel = CancelToken::new();
    let listener = endpoint.listen().expect("listen");
    let serve_thread = {
        let srv = Arc::clone(&server);
        let token = cancel.clone();
        std::thread::spawn(move || serve(&srv, listener, &token))
    };
    assert!(
        client::wait_ready(&endpoint, Duration::from_secs(10)),
        "daemon never came up"
    );

    let canonical = request("table2");
    let expected = reference("table2");
    let mut clean = serde_json::to_string(&canonical)
        .expect("encode request")
        .into_bytes();
    clean.push(b'\n');

    // Directed corpus first: the shapes a random mutator finds rarely.
    let directed: Vec<Vec<u8>> = vec![
        Vec::new(),                          // connect-and-leave
        b"\n".to_vec(),                      // empty frame
        b"\n\n\n\n".to_vec(),                // empty frame train
        b"{}\n".to_vec(),                    // valid JSON, no target
        b"{\"target\":\"dump\"}\n".to_vec(), // unservable target
        b"not json at all\n".to_vec(),       // plain garbage
        vec![0xff, 0xfe, 0x80, b'\n'],       // non-UTF-8 frame
        {
            let mut two = clean.clone(); // interleaved frames
            two.extend_from_slice(&clean);
            two
        },
        // Oversize with no terminator: a complete over-long *line* is
        // merely malformed; the oversize refusal guards the unbounded
        // *accumulation* of a frame that never ends.
        vec![b'{'; MAX_FRAME + 64],
        clean[..clean.len() - 1].to_vec(), // torn request (no newline)
    ];
    for (i, frame) in directed.iter().enumerate() {
        let reply = exchange_raw(&socket, frame);
        assert_replies_structured(&reply, frame, &canonical, &expected, 10_000 + i as u64);
    }

    // The retired analytic tolerance is refused by name, and the same
    // connection goes on to answer the next frame byte-exact.
    {
        let mut frames =
            br#"{"target":"table2","scale":"test","analytic_rel_permille":600}"#.to_vec();
        frames.push(b'\n');
        frames.extend_from_slice(&clean);
        let reply = exchange_raw(&socket, &frames);
        let replies: Vec<ServiceResponse> = String::from_utf8(reply)
            .expect("UTF-8 replies")
            .lines()
            .map(|l| serde_json::from_str(l).expect("structured reply"))
            .collect();
        match &replies[..] {
            [ServiceResponse::Error { kind, message, .. }, ServiceResponse::Ok { stdout, .. }] => {
                assert_eq!(kind, "bad-request");
                assert!(message.contains("analytic_rel_permille"), "{message}");
                assert!(message.contains("retired"), "{message}");
                assert_eq!(stdout, &expected, "the next frame still answers byte-exact");
            }
            other => panic!("expected bad-request then ok, got {other:?}"),
        }
    }

    for i in 0..FUZZ_MUTATIONS {
        let mut rng = SmallRng::seed_from_u64(0xF02D_0000 + i);
        let mut frame = clean.clone();
        mutate(&mut frame, &mut rng);
        let reply = exchange_raw(&socket, &frame);
        assert_replies_structured(&reply, &frame, &canonical, &expected, i);
    }

    // Slot-leak regression: every admission slot must still be free.
    // Hold `conn_limit` live queries open at once; if any fuzz
    // connection leaked its ConnSlot, at least one of these gets a
    // busy rejection instead of an answer.
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONN_LIMIT)
            .map(|_| {
                let endpoint = &endpoint;
                scope.spawn(move || {
                    client::query(
                        endpoint,
                        &request(STATS_TARGET),
                        Some(Duration::from_secs(30)),
                    )
                    .expect("stats query on a post-fuzz daemon")
                })
            })
            .collect();
        for h in handles {
            match h.join().expect("stats thread") {
                ServiceResponse::Stats(_) => {}
                other => panic!("slot leak: expected stats on a fresh slot, got {other:?}"),
            }
        }
    });

    // The daemon is not just alive — it still answers byte-exact.
    match client::query(&endpoint, &canonical, Some(Duration::from_secs(120)))
        .expect("post-fuzz canonical query")
    {
        ServiceResponse::Ok { stdout, .. } => assert_eq!(stdout, expected),
        other => panic!("post-fuzz canonical query must succeed, got {other:?}"),
    }

    // Drive the two remaining wire counters. A half-sent frame held
    // past the read timeout is a slow-loris: `net-timeouts` must move
    // (an idle keepalive connection deliberately does not count).
    {
        let mut s = UnixStream::connect(&socket).expect("daemon socket");
        s.write_all(b"{\"target\":").expect("half a frame");
        std::thread::sleep(Duration::from_millis(700)); // > read_timeout
        drop(s);
    }
    // A reply severed mid-write (client vanished) must not fail the
    // job — only `reply-aborted` moves, and the same request answers
    // byte-exact right afterwards.
    {
        let plan = fault::FaultPlan::parse("net:tornframe@1").expect("plan");
        fault::set_plan(Some(plan));
        let torn = exchange_raw(&socket, &clean);
        fault::set_plan(None);
        assert!(
            !torn.ends_with(b"\n"),
            "tornframe@1 must leave an unterminated reply frame"
        );
        match client::query(&endpoint, &canonical, Some(Duration::from_secs(120)))
            .expect("query after a torn reply")
        {
            ServiceResponse::Ok { stdout, .. } => assert_eq!(
                stdout, expected,
                "a torn delivery must not poison the job or the store"
            ),
            other => panic!("expected ok after a torn delivery, got {other:?}"),
        }
    }

    // The rejections were counted, on the wire, in the stats reply.
    let stats = match client::query(
        &endpoint,
        &request(STATS_TARGET),
        Some(Duration::from_secs(30)),
    )
    .expect("stats query")
    {
        ServiceResponse::Stats(s) => s,
        other => panic!("expected stats, got {other:?}"),
    };
    assert!(
        stats.get(Counter::MalformedRejected) > 0,
        "the corpus contains garbage frames; malformed_rejected must move"
    );
    assert!(
        stats.get(Counter::OversizeRejected) > 0,
        "the corpus contains oversize frames; oversize_rejected must move"
    );
    assert!(
        stats.get(Counter::NetTimeouts) > 0,
        "a half-sent frame outlived the read timeout; net_timeouts must move"
    );
    assert!(
        stats.get(Counter::ReplyAborted) > 0,
        "a reply was severed mid-write; reply_aborted must move"
    );

    cancel.cancel(CancelReason::Interrupted);
    serve_thread
        .join()
        .expect("serve thread")
        .expect("serve loop");
    assert_eq!(
        PANICS.load(Ordering::SeqCst),
        0,
        "a fuzzed frame made something in the daemon panic"
    );
    let _ = std::fs::remove_dir_all(&base);
}
