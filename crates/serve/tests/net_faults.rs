//! Fault injection against the TCP front-end: slow-loris frames,
//! half-open connections, mid-frame disconnects, hostile length prefixes
//! and malformed HTTP heads. The server must reap each offender on its
//! configured deadline, keep serving other connections with bounded
//! latency, and leak neither file descriptors nor threads across
//! connection churn.

use bns_data::Interactions;
use bns_model::MatrixFactorization;
use bns_serve::proto::{ModeRequest, RequestFrame};
use bns_serve::{ModelArtifact, NetConfig, NetServer, QueryEngine, Status, WireClient};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn engine() -> QueryEngine {
    let mut rng = StdRng::seed_from_u64(11);
    let model = MatrixFactorization::new(8, 16, 8, 0.1, &mut rng).unwrap();
    let seen = Interactions::from_pairs(8, 16, &[(0, 0), (1, 5), (2, 9), (7, 15)]).unwrap();
    QueryEngine::new(ModelArtifact::freeze(&model, &seen).unwrap())
}

/// Short deadlines so every fault resolves within a test-sized budget.
fn fault_cfg() -> NetConfig {
    NetConfig {
        workers: 2,
        read_timeout: Duration::from_millis(150),
        idle_timeout: Duration::from_millis(300),
        write_timeout: Duration::from_millis(500),
        ..NetConfig::default()
    }
}

/// Reads until EOF/error with a bounded socket timeout; returns how long
/// the peer took to close us.
fn wait_for_close(stream: &mut TcpStream, budget: Duration) -> Duration {
    let start = Instant::now();
    stream.set_read_timeout(Some(budget)).unwrap();
    let mut sink = [0u8; 256];
    loop {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => return start.elapsed(),
            Ok(_) => {
                assert!(
                    start.elapsed() < budget,
                    "peer kept the connection alive past {budget:?}"
                );
            }
        }
    }
}

/// Polls `pred` until it holds or `budget` expires.
fn eventually(budget: Duration, mut pred: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < budget {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    pred()
}

#[test]
fn slow_loris_is_reaped_and_other_connections_stay_fast() {
    let server = NetServer::bind("127.0.0.1:0", engine(), fault_cfg()).unwrap();
    let addr = server.local_addr();

    // The loris dribbles a valid frame one byte at a time, far slower
    // than `read_timeout` allows for the whole frame.
    let frame = RequestFrame::TopK {
        user: 0,
        k: 5,
        exclude_seen: false,
        mode: ModeRequest::Default,
    }
    .encode();
    let mut loris = TcpStream::connect(addr).unwrap();
    let loris_thread = std::thread::spawn(move || {
        for &b in &frame {
            if loris.write_all(&[b]).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(60));
        }
        wait_for_close(&mut loris, Duration::from_secs(5))
    });

    // A healthy client keeps getting answers with bounded latency while
    // the loris is mid-attack.
    let mut healthy = WireClient::connect(addr).unwrap();
    for i in 0..20u32 {
        let start = Instant::now();
        let resp = healthy
            .top_k(i % 8, 5, false, ModeRequest::Default)
            .unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "healthy request {i} took {:?} during slow-loris",
            start.elapsed()
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let closed_after = loris_thread.join().unwrap();
    assert!(
        closed_after < Duration::from_secs(5),
        "loris connection survived {closed_after:?}"
    );
    assert!(server.metrics().deadline_hits.get() >= 1);
}

#[test]
fn half_open_connection_is_reaped_on_idle_timeout() {
    let server = NetServer::bind("127.0.0.1:0", engine(), fault_cfg()).unwrap();
    let mut idle = TcpStream::connect(server.local_addr()).unwrap();
    // Send nothing at all; the server must hang up on its own.
    let closed_after = wait_for_close(&mut idle, Duration::from_secs(5));
    assert!(
        closed_after < Duration::from_secs(3),
        "half-open connection survived {closed_after:?}"
    );
    assert!(eventually(Duration::from_secs(2), || {
        server.metrics().deadline_hits.get() >= 1 && server.metrics().connections_closed.get() >= 1
    }));
}

#[test]
fn mid_frame_disconnects_leave_the_server_healthy() {
    let server = NetServer::bind("127.0.0.1:0", engine(), fault_cfg()).unwrap();
    let addr = server.local_addr();
    let frame = RequestFrame::TopK {
        user: 1,
        k: 4,
        exclude_seen: true,
        mode: ModeRequest::Default,
    }
    .encode();
    for cut in 1..frame.len() {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&frame[..cut]).unwrap();
        drop(s); // vanish mid-frame
    }
    // Every abandoned connection is eventually torn down…
    assert!(
        eventually(Duration::from_secs(5), || {
            server.metrics().connections_closed.get() >= (frame.len() - 1) as u64
        }),
        "only {} of {} abandoned connections reaped",
        server.metrics().connections_closed.get(),
        frame.len() - 1
    );
    // …and the server still answers.
    let mut client = WireClient::connect(addr).unwrap();
    assert_eq!(client.ping().unwrap().status, Status::Pong);
    assert_eq!(
        client
            .top_k(1, 4, true, ModeRequest::Default)
            .unwrap()
            .status,
        Status::Ok
    );
}

#[test]
fn oversized_length_prefix_is_dropped_without_buffering() {
    let server = NetServer::bind("127.0.0.1:0", engine(), fault_cfg()).unwrap();
    let addr = server.local_addr();
    for claimed in [bns_serve::proto::MAX_PAYLOAD_LEN as u32 + 1, u32::MAX] {
        let mut s = TcpStream::connect(addr).unwrap();
        let mut header = claimed.to_le_bytes().to_vec();
        header.extend_from_slice(&0u32.to_le_bytes());
        s.write_all(&header).unwrap();
        // The server must hang up on the header alone — it never waits
        // for (or allocates) the claimed multi-gigabyte payload.
        let closed_after = wait_for_close(&mut s, Duration::from_secs(5));
        assert!(
            closed_after < Duration::from_secs(2),
            "oversized prefix survived {closed_after:?}"
        );
    }
    assert!(server.metrics().proto_errors.get() >= 2);
    // Unrelated traffic is unaffected.
    let mut client = WireClient::connect(addr).unwrap();
    assert_eq!(client.ping().unwrap().status, Status::Pong);
}

#[test]
fn corrupted_frame_closes_only_its_own_connection() {
    let server = NetServer::bind("127.0.0.1:0", engine(), fault_cfg()).unwrap();
    let addr = server.local_addr();
    let mut good = WireClient::connect(addr).unwrap();
    assert_eq!(good.ping().unwrap().status, Status::Pong);

    let mut frame = RequestFrame::Ping.encode();
    let last = frame.len() - 1;
    frame[last] ^= 0xFF; // checksum now wrong
    let mut bad = TcpStream::connect(addr).unwrap();
    bad.write_all(&frame).unwrap();
    let closed_after = wait_for_close(&mut bad, Duration::from_secs(5));
    assert!(closed_after < Duration::from_secs(2));
    assert!(eventually(Duration::from_secs(2), || {
        server.metrics().proto_errors.get() >= 1
    }));

    // The well-behaved connection survives the neighbor's corruption.
    assert_eq!(good.ping().unwrap().status, Status::Pong);
}

fn fd_count() -> usize {
    std::fs::read_dir("/proc/self/fd").map_or(0, |d| d.count())
}

fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

#[test]
fn connection_churn_leaks_no_fds_or_threads() {
    if !std::path::Path::new("/proc/self/fd").exists() {
        return; // /proc-less platform; the other suites still cover reaping
    }
    // Warm up allocator/runtime fds before taking the baseline.
    {
        let server = NetServer::bind("127.0.0.1:0", engine(), fault_cfg()).unwrap();
        let mut c = WireClient::connect(server.local_addr()).unwrap();
        let _ = c.ping();
    }
    let fd_base = fd_count();
    let thread_base = thread_count();
    {
        let server = NetServer::bind("127.0.0.1:0", engine(), fault_cfg()).unwrap();
        let addr = server.local_addr();
        for round in 0..30u32 {
            match round % 3 {
                // Clean request/response.
                0 => {
                    let mut c = WireClient::connect(addr).unwrap();
                    let _ = c.top_k(round % 8, 3, false, ModeRequest::Default);
                }
                // Mid-frame disconnect.
                1 => {
                    let mut s = TcpStream::connect(addr).unwrap();
                    let _ = s.write_all(&[1, 0, 0]);
                }
                // Corrupted frame.
                _ => {
                    let mut s = TcpStream::connect(addr).unwrap();
                    let mut f = RequestFrame::Ping.encode();
                    f[4] ^= 0xFF;
                    let _ = s.write_all(&f);
                }
            }
        }
        // Dropping the server joins the accept thread, every connection
        // thread, and the worker pool.
    }
    assert!(
        eventually(Duration::from_secs(10), || fd_count() <= fd_base + 2),
        "fd leak: baseline {fd_base}, now {}",
        fd_count()
    );
    assert!(
        eventually(Duration::from_secs(10), || {
            thread_count() <= thread_base + 2
        }),
        "thread leak: baseline {thread_base}, now {}",
        thread_count()
    );
}

/// Sends `head` on a fresh connection (one byte per write when
/// `trickle`), then reads until the server closes. Returns what the
/// server wrote and how long it took to close after the last byte.
fn send_head(addr: std::net::SocketAddr, head: &[u8], trickle: bool) -> (Vec<u8>, Duration) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_nodelay(true).unwrap();
    // Write errors are expected: the server may hang up mid-head.
    if trickle {
        for b in head {
            if s.write_all(std::slice::from_ref(b)).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    } else {
        let _ = s.write_all(head);
    }
    let sent = Instant::now();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut reply = Vec::new();
    let mut chunk = [0u8; 512];
    loop {
        match s.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => reply.extend_from_slice(&chunk[..n]),
            // A reset is a close: the server dropped unread bytes.
            Err(e) if e.kind() != std::io::ErrorKind::WouldBlock => break,
            Err(_) => panic!("server neither answered nor closed within 5 s"),
        }
    }
    (reply, sent.elapsed())
}

#[test]
fn malformed_http_heads_get_an_error_or_a_close_and_never_panic() {
    let cfg = fault_cfg();
    // The server closes an incomplete head once `read_timeout` expires;
    // allow its poll tick and a loaded host's scheduling on top.
    let budget = cfg.read_timeout + Duration::from_secs(1);
    let server = NetServer::bind("127.0.0.1:0", engine(), cfg).unwrap();
    let addr = server.local_addr();

    let mut oversized = b"GET /topk?user=1&k=3&pad=".to_vec();
    oversized.resize(9 * 1024, b'a');
    let heads: Vec<(&str, Vec<u8>, bool)> = vec![
        (
            "non-UTF-8 bytes",
            b"\xff\xfe\xfd\xfc\r\n\r\n".to_vec(),
            false,
        ),
        (
            "non-UTF-8 target",
            b"GET /topk?user=\xff&k=3 HTTP/1.1\r\n\r\n".to_vec(),
            false,
        ),
        ("empty request line", b"\r\n\r\n".to_vec(), false),
        (
            "POST",
            b"POST /topk?user=1&k=3 HTTP/1.1\r\n\r\n".to_vec(),
            false,
        ),
        ("no target", b"GET\r\n\r\n".to_vec(), false),
        ("no user", b"GET /topk?k=3 HTTP/1.1\r\n\r\n".to_vec(), false),
        ("no k", b"GET /topk?user=1 HTTP/1.1\r\n\r\n".to_vec(), false),
        (
            "k=0",
            b"GET /topk?user=1&k=0 HTTP/1.1\r\n\r\n".to_vec(),
            false,
        ),
        (
            "k=65536",
            b"GET /topk?user=1&k=65536 HTTP/1.1\r\n\r\n".to_vec(),
            false,
        ),
        (
            "user=2^32",
            b"GET /topk?user=4294967296&k=3 HTTP/1.1\r\n\r\n".to_vec(),
            false,
        ),
        (
            "unknown parameter",
            b"GET /topk?user=1&k=3&color=red HTTP/1.1\r\n\r\n".to_vec(),
            false,
        ),
        (
            "repeated parameter",
            b"GET /topk?user=1&k=3&user=2 HTTP/1.1\r\n\r\n".to_vec(),
            false,
        ),
        (
            "mode=bogus",
            b"GET /topk?user=1&k=3&mode=bogus HTTP/1.1\r\n\r\n".to_vec(),
            false,
        ),
        ("head over 8 KiB, no terminator", oversized, false),
        (
            "trickled head",
            b"GET /topk?user=1&k=0 HTTP/1.1\r\n\r\n".to_vec(),
            true,
        ),
        (
            "G then binary",
            b"G\x00\x01\xff\x80\x7f\x00\x00".to_vec(),
            false,
        ),
        (
            "G then binary, terminated",
            b"G\x00\xff\x80\r\n\r\n".to_vec(),
            false,
        ),
    ];
    for (name, head, trickle) in &heads {
        let (reply, closed_after) = send_head(addr, head, *trickle);
        assert!(
            closed_after < budget,
            "{name}: connection stayed open {closed_after:?}"
        );
        if !reply.is_empty() {
            let text = String::from_utf8_lossy(&reply);
            assert!(
                text.starts_with("HTTP/1.1 4") || text.starts_with("HTTP/1.1 5"),
                "{name}: expected a 4xx/5xx status line or a close, got {text:?}"
            );
        }
    }

    // A panicking connection thread would skip its `connections_closed`
    // increment, so the two counters only meet if every thread returned.
    let m = server.metrics();
    assert!(
        eventually(Duration::from_secs(5), || {
            m.connections_closed.get() == m.connections_accepted.get()
        }),
        "{} of {} connections closed",
        m.connections_closed.get(),
        m.connections_accepted.get()
    );
    assert_eq!(m.connections_accepted.get(), heads.len() as u64);
    let mut client = WireClient::connect(addr).unwrap();
    assert_eq!(client.ping().unwrap().status, Status::Pong);
}
