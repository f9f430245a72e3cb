//! Transport: Unix-domain sockets (default) and TCP (`--listen
//! tcp:PORT`), behind one pair of enums so the protocol layer is
//! transport-blind. Also the daemon's pidfile, published beside a
//! Unix socket so operators (and the crash-consistency suite) can
//! tell a live daemon's files from a dead one's.
//!
//! Every socket operation here — accept, read, write — consults the
//! `net:` domain of the [`fault`] plan first, making this facade the
//! single wire injection surface exactly as `runner::faultio` is the
//! storage one. With no `net:` directive each hook is one relaxed atomic
//! load.

use membw_core::runner::{fault, faultio};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Where the daemon listens / the client connects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix-domain socket path.
    Unix(PathBuf),
    /// A TCP host:port.
    Tcp(String),
}

impl Endpoint {
    /// Parse an endpoint spec: `tcp:PORT`, `tcp:HOST:PORT`, or a Unix
    /// socket path (anything else).
    ///
    /// # Errors
    ///
    /// An empty spec, or a `tcp:` spec without a port.
    pub fn parse(spec: &str) -> Result<Self, String> {
        if spec.is_empty() {
            return Err("empty endpoint spec".to_string());
        }
        match spec.strip_prefix("tcp:") {
            None => Ok(Endpoint::Unix(PathBuf::from(spec))),
            Some("") => Err("tcp endpoint needs a port: tcp:PORT or tcp:HOST:PORT".to_string()),
            Some(rest) => {
                let addr = if rest.contains(':') {
                    rest.to_string()
                } else {
                    rest.parse::<u16>().map_err(|_| {
                        format!("invalid tcp port '{rest}' (expected tcp:PORT or tcp:HOST:PORT)")
                    })?;
                    format!("127.0.0.1:{rest}")
                };
                Ok(Endpoint::Tcp(addr))
            }
        }
    }

    /// Connect as a client.
    ///
    /// # Errors
    ///
    /// The underlying socket error.
    pub fn connect(&self) -> std::io::Result<Stream> {
        match self {
            Endpoint::Unix(path) => UnixStream::connect(path).map(Stream::Unix),
            Endpoint::Tcp(addr) => TcpStream::connect(addr.as_str()).map(Stream::Tcp),
        }
    }

    /// Bind as a server. A stale Unix socket file (left by a killed
    /// daemon — exactly the crash-restart path the store exists for) is
    /// detected by probing it: if nothing answers, the file is removed
    /// and the address rebound; if a live daemon answers, binding fails.
    ///
    /// # Errors
    ///
    /// The underlying bind error, or "address in use" when a live
    /// daemon already answers on a Unix socket.
    pub fn listen(&self) -> std::io::Result<Listener> {
        match self {
            Endpoint::Unix(path) => match UnixListener::bind(path) {
                Ok(l) => Ok(Listener::Unix(l)),
                Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
                    if UnixStream::connect(path).is_ok() {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::AddrInUse,
                            format!("a daemon is already serving on {}", path.display()),
                        ));
                    }
                    faultio::remove_file(path)?;
                    UnixListener::bind(path).map(Listener::Unix)
                }
                Err(e) => Err(e),
            },
            Endpoint::Tcp(addr) => TcpListener::bind(addr.as_str()).map(Listener::Tcp),
        }
    }

    /// Human-readable address for log lines.
    pub fn display(&self) -> String {
        match self {
            Endpoint::Unix(path) => path.display().to_string(),
            Endpoint::Tcp(addr) => format!("tcp:{addr}"),
        }
    }

    /// The socket file to unlink on clean shutdown (Unix only).
    pub fn socket_path(&self) -> Option<&Path> {
        match self {
            Endpoint::Unix(path) => Some(path),
            Endpoint::Tcp(_) => None,
        }
    }
}

/// The pidfile published beside a Unix socket: `<socket>.pid`. TCP
/// endpoints have no natural directory, so they publish none.
pub fn pidfile_path(endpoint: &Endpoint) -> Option<PathBuf> {
    endpoint.socket_path().map(|p| {
        let mut os = p.as_os_str().to_os_string();
        os.push(".pid");
        PathBuf::from(os)
    })
}

/// Durably publish this process's PID beside the endpoint's socket
/// (tmp → write → fsync → rename, through the fault-injecting I/O
/// layer so `crash@K` exploration covers daemon startup too). The
/// rename makes publication atomic: a reader — in particular the
/// `--supervise` parent taking over after a crash, or an operator's
/// `kill $(cat sock.pid)` — sees either the previous complete pidfile
/// or this one, never a torn PID. Returns the written path, or `None`
/// for TCP endpoints.
///
/// # Errors
///
/// The failed I/O step. Callers treat this as a warning — a daemon
/// without a pidfile still serves.
pub fn write_pidfile(endpoint: &Endpoint) -> std::io::Result<Option<PathBuf>> {
    let Some(path) = pidfile_path(endpoint) else {
        return Ok(None);
    };
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    let tmp = PathBuf::from(os);
    let mut f = faultio::DurableFile::create(&tmp)?;
    f.write_all(format!("{}\n", std::process::id()).as_bytes())?;
    f.sync_all()?;
    drop(f);
    faultio::rename(&tmp, &path)?;
    Ok(Some(path))
}

/// Remove the endpoint's pidfile on clean shutdown (best-effort).
pub fn remove_pidfile(endpoint: &Endpoint) {
    if let Some(path) = pidfile_path(endpoint) {
        let _ = faultio::remove_file(&path);
    }
}

/// One accepted or dialed connection.
pub enum Stream {
    /// Unix-domain stream.
    Unix(UnixStream),
    /// TCP stream.
    Tcp(TcpStream),
}

impl Stream {
    /// Bound every blocking read (slow-loris defense, client response
    /// waits).
    ///
    /// # Errors
    ///
    /// The underlying socket error.
    pub fn set_read_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(d),
            Stream::Tcp(s) => s.set_read_timeout(d),
        }
    }

    /// Shut both directions down (best-effort): how an injected
    /// `disconnect@K`/`tornframe@K` makes the peer see a vanished
    /// counterpart rather than a half-open socket.
    fn sever(&self) {
        match self {
            Stream::Unix(s) => {
                let _ = s.shutdown(Shutdown::Both);
            }
            Stream::Tcp(s) => {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
    }

    fn raw_read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }

    fn raw_write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        fault::net_read().inspect_err(|_| self.sever())?;
        self.raw_read(buf)
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let limit = fault::net_write(buf.len()).inspect_err(|_| self.sever())?;
        let n = self.raw_write(&buf[..buf.len().min(limit.max(1))])?;
        fault::net_wrote(n);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// The daemon's listening socket.
#[derive(Debug)]
pub enum Listener {
    /// Unix-domain listener.
    Unix(UnixListener),
    /// TCP listener.
    Tcp(TcpListener),
}

impl Listener {
    /// Non-blocking accept so the serve loop can poll the drain token.
    ///
    /// # Errors
    ///
    /// The underlying socket error.
    pub fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match self {
            Listener::Unix(l) => l.set_nonblocking(nb),
            Listener::Tcp(l) => l.set_nonblocking(nb),
        }
    }

    /// Accept one connection (the accepted stream is switched back to
    /// blocking; per-read timeouts bound it instead).
    ///
    /// The `net:` fault hook fires *after* a connection actually
    /// arrived, never on an idle `WouldBlock` poll — so `acceptfail:N`
    /// and net-point ordinals count real connections and stay
    /// deterministic under the serve loop's eager polling. An injected
    /// failure drops the just-accepted stream (the peer sees EOF:
    /// exactly a daemon that died between `accept` and service).
    ///
    /// # Errors
    ///
    /// `WouldBlock` when non-blocking and idle; otherwise the socket
    /// error (or the injected accept failure).
    pub fn accept(&self) -> std::io::Result<Stream> {
        let stream = match self {
            Listener::Unix(l) => Stream::Unix(l.accept()?.0),
            Listener::Tcp(l) => Stream::Tcp(l.accept()?.0),
        };
        fault::net_accept()?;
        match &stream {
            Stream::Unix(s) => s.set_nonblocking(false)?,
            Stream::Tcp(s) => s.set_nonblocking(false)?,
        }
        Ok(stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_specs_parse() {
        assert_eq!(
            Endpoint::parse("/tmp/membw.sock").unwrap(),
            Endpoint::Unix(PathBuf::from("/tmp/membw.sock"))
        );
        assert_eq!(
            Endpoint::parse("tcp:7070").unwrap(),
            Endpoint::Tcp("127.0.0.1:7070".to_string())
        );
        assert_eq!(
            Endpoint::parse("tcp:0.0.0.0:7070").unwrap(),
            Endpoint::Tcp("0.0.0.0:7070".to_string())
        );
        assert!(Endpoint::parse("").is_err());
        assert!(Endpoint::parse("tcp:").is_err());
        assert!(Endpoint::parse("tcp:notaport").is_err());
    }

    #[test]
    fn stale_unix_socket_is_rebound() {
        let path =
            std::env::temp_dir().join(format!("membw_net_stale_{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let ep = Endpoint::Unix(path.clone());
        // First bind, then drop the listener WITHOUT unlinking — the
        // socket file stays behind, as after SIGKILL.
        drop(ep.listen().unwrap());
        assert!(path.exists(), "stale socket file left behind");
        // Rebinding must probe, unlink, and succeed.
        let l2 = ep.listen().expect("stale socket rebinds");
        drop(l2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn live_unix_socket_refuses_second_daemon() {
        let path = std::env::temp_dir().join(format!("membw_net_live_{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let ep = Endpoint::Unix(path.clone());
        let _live = ep.listen().unwrap();
        let err = ep.listen().expect_err("second daemon must be refused");
        assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
        let _ = std::fs::remove_file(&path);
    }
    #[test]
    fn pidfile_round_trips_beside_a_unix_socket() {
        let sock = std::env::temp_dir().join(format!("membw_net_pid_{}.sock", std::process::id()));
        let ep = Endpoint::Unix(sock.clone());
        let path = write_pidfile(&ep).unwrap().expect("unix endpoints publish");
        assert_eq!(path, sock.with_extension("sock.pid"));
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body.trim().parse::<u32>().unwrap(), std::process::id());
        remove_pidfile(&ep);
        assert!(!path.exists(), "pidfile removed on shutdown");
        // TCP endpoints publish nothing.
        assert_eq!(
            write_pidfile(&Endpoint::Tcp("127.0.0.1:0".into())).unwrap(),
            None
        );
    }
}
