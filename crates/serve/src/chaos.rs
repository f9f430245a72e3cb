//! Protocol chaos: the adversarial clients the soak test throws at a
//! live daemon.
//!
//! Both are *client-side* faults: the daemon under test runs
//! completely unmodified, which is the point — the soak criterion is
//! that no client behavior, however broken, changes a well-formed
//! client's bytes or brings the process down. Server-side faults are
//! `MEMBW_FAULT` plans ([`membw_core::runner::fault`]).
//!
//! Neither returns an error: a connection the daemon slams shut *is*
//! the expected outcome, so transport failures are swallowed — the soak
//! test's assertions live on the daemon side (still alive, well-formed
//! clients unaffected).

use crate::net::Endpoint;
use std::io::{BufRead, BufReader, Read, Write};
use std::time::Duration;

/// Drip `request_line` one byte at a time, slower than any human
/// typist, until the server's frame deadline closes the connection (or
/// after bounded effort).
pub fn slowloris(endpoint: &Endpoint, request_line: &str) {
    let Ok(mut s) = endpoint.connect() else {
        return;
    };
    let _ = s.set_read_timeout(Some(Duration::from_millis(100)));
    for b in request_line.as_bytes().iter().take(32) {
        if s.write_all(std::slice::from_ref(b)).is_err() {
            break;
        }
        let _ = s.flush();
        std::thread::sleep(Duration::from_millis(40));
        // Probe for the server closing the connection.
        let mut probe = [0u8; 1];
        if let Ok(0) = s.read(&mut probe) {
            break; // server hung up: defense worked
        }
    }
}

/// Send `n` concurrent identical requests, which must coalesce onto one
/// computation. Returns one response line per burst client that got an
/// answer.
pub fn dupburst(endpoint: &Endpoint, n: usize, request_line: &str) -> Vec<String> {
    let handles: Vec<_> = (0..n)
        .map(|_| {
            let ep = endpoint.clone();
            let line = request_line.to_string();
            std::thread::spawn(move || -> Option<String> {
                let mut s = ep.connect().ok()?;
                s.write_all(line.as_bytes()).ok()?;
                s.write_all(b"\n").ok()?;
                s.flush().ok()?;
                let mut reader = BufReader::new(s);
                let mut reply = String::new();
                reader.read_line(&mut reply).ok()?;
                (!reply.is_empty()).then(|| reply.trim_end().to_string())
            })
        })
        .collect();
    handles
        .into_iter()
        .filter_map(|h| h.join().ok().flatten())
        .collect()
}
