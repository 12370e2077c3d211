//! The store server: a [`TcpListener`] accept loop on [`std::thread::scope`]
//! with one scoped handler thread per connection.
//!
//! Each handler answers GET/PUT/STAT frames against a shared [`EntryDir`].
//! PUT payloads are validated end-to-end before anything touches the entry
//! directory — a corrupt envelope earns an `ERR` response and quarantines
//! nothing, while an on-disk entry that fails validation at GET time is
//! quarantined and answered as a `MISS`. A connection dropped mid-frame
//! (a client killed mid-PUT) surfaces as a read error, so the partial frame
//! is discarded whole and no entry is written.
//!
//! The accept loop blocks in `accept` and checks a stop flag after each
//! return, so a new connection is served at once; [`StoreHandle::stop`]
//! raises the flag and wakes the loop with one throwaway connection.
//! Handlers poll the same flag between frames with a short read timeout and
//! allow an in-flight frame a generous (but bounded) completion window.

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use virgo_sim::json::ObjWriter;

use crate::entries::{EntryDir, Loaded, StoreError};
use crate::protocol::{read_request, write_response, Opcode, Request, Status};

/// How often an idle connection re-checks the stop flag.
const IDLE_POLL: Duration = Duration::from_millis(50);
/// How long a peer gets to complete a frame it has started sending.
const FRAME_TIMEOUT: Duration = Duration::from_secs(2);
/// How long the accept loop waits before retrying a failed `accept` (e.g.
/// the process is out of file descriptors).
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Monotonically counted aggregate server statistics, shared by every
/// connection handler.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// GET requests answered with `HIT`.
    pub get_hits: AtomicU64,
    /// GET requests answered with `MISS`.
    pub get_misses: AtomicU64,
    /// PUT requests accepted and stored.
    pub put_oks: AtomicU64,
    /// PUT requests refused (invalid envelope or write failure).
    pub put_rejects: AtomicU64,
    /// On-disk entries quarantined at GET time.
    pub quarantined: AtomicU64,
    /// Connections dropped on a malformed or truncated frame.
    pub protocol_errors: AtomicU64,
    /// Payload bytes received in PUT frames.
    pub bytes_in: AtomicU64,
    /// Payload bytes sent in HIT frames.
    pub bytes_out: AtomicU64,
}

impl ServerStats {
    /// Renders the counters as a compact JSON object (the `STATS` payload).
    pub fn to_json(&self) -> String {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut w = ObjWriter::new();
        w.u64("connections", g(&self.connections))
            .u64("get_hits", g(&self.get_hits))
            .u64("get_misses", g(&self.get_misses))
            .u64("put_oks", g(&self.put_oks))
            .u64("put_rejects", g(&self.put_rejects))
            .u64("quarantined", g(&self.quarantined))
            .u64("protocol_errors", g(&self.protocol_errors))
            .u64("bytes_in", g(&self.bytes_in))
            .u64("bytes_out", g(&self.bytes_out));
        w.finish()
    }
}

/// Per-connection counters, reported on close when the server is verbose.
#[derive(Debug, Default, Clone, Copy)]
struct ConnStats {
    gets: u64,
    hits: u64,
    puts: u64,
    rejects: u64,
    errors: u64,
}

/// A running store server bound to a socket address.
#[derive(Debug)]
pub struct StoreServer {
    listener: TcpListener,
    entries: EntryDir,
    stats: Arc<ServerStats>,
    stop: Arc<AtomicBool>,
    verbose: bool,
}

impl StoreServer {
    /// Binds a server to `addr` (use port 0 for an ephemeral port) serving
    /// entries from `entries`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: impl ToSocketAddrs, entries: EntryDir) -> std::io::Result<StoreServer> {
        let listener = TcpListener::bind(addr)?;
        Ok(StoreServer {
            listener,
            entries,
            stats: Arc::new(ServerStats::default()),
            stop: Arc::new(AtomicBool::new(false)),
            verbose: false,
        })
    }

    /// Enables per-connection stat lines on stderr (used by the binary).
    pub fn verbose(mut self, verbose: bool) -> Self {
        self.verbose = verbose;
        self
    }

    /// The bound address (reports the actual port for ephemeral binds).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared aggregate counters.
    pub fn stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.stats)
    }

    /// Serves connections until the stop flag is raised (only a
    /// [`StoreHandle`] raises it, so the binary serves forever). Each
    /// connection is handled on its own scoped thread; `run` returns only
    /// after every handler has finished.
    pub fn run(&self) {
        std::thread::scope(|scope| loop {
            let accepted = self.listener.accept();
            if self.stop.load(Ordering::Relaxed) {
                // The wake-up connection from `StoreHandle::stop`, or a
                // late client: either way it is dropped unserved.
                break;
            }
            match accepted {
                Ok((stream, peer)) => {
                    let conn_id = self.stats.connections.fetch_add(1, Ordering::Relaxed) + 1;
                    scope.spawn(move || self.handle(stream, peer, conn_id));
                }
                Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
            }
        });
    }

    /// Consumes the server and runs it on a background thread, returning a
    /// handle that can stop and join it. Used by in-process tests/benches;
    /// the standalone binary calls [`run`](StoreServer::run) directly.
    pub fn spawn(self) -> std::io::Result<StoreHandle> {
        let addr = self.local_addr()?;
        let stats = self.stats();
        let stop = Arc::clone(&self.stop);
        let join = std::thread::spawn(move || self.run());
        Ok(StoreHandle {
            addr,
            stats,
            stop,
            join: Some(join),
        })
    }

    /// Serves one connection until the peer hangs up, a frame is malformed
    /// or the stop flag is raised.
    fn handle(&self, mut stream: TcpStream, peer: SocketAddr, conn_id: u64) {
        let mut conn = ConnStats::default();
        // Replies go out as soon as they are written, not held back for
        // the peer's ACK of the request (a ~40 ms delayed-ACK stall per
        // reply). Best effort: a socket that refuses still works, slowly.
        let _ = stream.set_nodelay(true);
        loop {
            match self.read_frame(&mut stream) {
                Ok(Some(request)) => {
                    if !self.answer(&mut stream, request, &mut conn) {
                        break;
                    }
                }
                Ok(None) => break, // clean disconnect or stop requested
                Err(_) => {
                    // Malformed/truncated frame: the stream is out of sync,
                    // drop the connection. Nothing was stored.
                    conn.errors += 1;
                    self.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
        }
        if self.verbose {
            eprintln!(
                "[virgo-store] conn #{conn_id} {peer}: {} gets ({} hit), {} puts ({} rejected), {} protocol errors",
                conn.gets, conn.hits, conn.puts, conn.rejects, conn.errors
            );
        }
    }

    /// Reads one frame, polling the stop flag while the connection is idle.
    /// Returns `Ok(None)` on clean EOF or stop, `Err` on a malformed or
    /// timed-out frame.
    fn read_frame(&self, stream: &mut TcpStream) -> std::io::Result<Option<Request>> {
        // Idle phase: wait for the first byte with a short timeout so the
        // stop flag is honored promptly on quiet connections.
        let mut first = [0u8; 1];
        loop {
            if self.stop.load(Ordering::Relaxed) {
                return Ok(None);
            }
            stream.set_read_timeout(Some(IDLE_POLL))?;
            match stream.read(&mut first) {
                Ok(0) => return Ok(None), // peer hung up
                Ok(_) => break,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue
                }
                Err(e) => return Err(e),
            }
        }
        // Frame phase: the peer has started a frame; give it a bounded
        // window to finish. A frame cut short (peer killed mid-PUT) fails
        // read_exact and is discarded whole.
        stream.set_read_timeout(Some(FRAME_TIMEOUT))?;
        let mut reader = first.as_slice().chain(stream);
        read_request(&mut reader).map(Some)
    }

    /// Answers one request. Returns `false` when the connection should close
    /// (a response could not be written).
    fn answer(&self, stream: &mut TcpStream, request: Request, conn: &mut ConnStats) -> bool {
        let outcome = match request.opcode {
            Opcode::Get => {
                conn.gets += 1;
                let Some(key) = request.key_hex() else {
                    return self.refuse(stream, conn, "malformed key");
                };
                match self.entries.load(key) {
                    Loaded::Valid(text, _) => {
                        conn.hits += 1;
                        self.stats.get_hits.fetch_add(1, Ordering::Relaxed);
                        self.stats
                            .bytes_out
                            .fetch_add(text.len() as u64, Ordering::Relaxed);
                        write_response(stream, Status::Hit, text.as_bytes())
                    }
                    Loaded::Absent => {
                        self.stats.get_misses.fetch_add(1, Ordering::Relaxed);
                        write_response(stream, Status::Miss, b"")
                    }
                    Loaded::Quarantined { .. } => {
                        self.stats.quarantined.fetch_add(1, Ordering::Relaxed);
                        self.stats.get_misses.fetch_add(1, Ordering::Relaxed);
                        write_response(stream, Status::Miss, b"")
                    }
                }
            }
            Opcode::Put => {
                conn.puts += 1;
                self.stats
                    .bytes_in
                    .fetch_add(request.payload.len() as u64, Ordering::Relaxed);
                let Some(key) = request.key_hex() else {
                    return self.refuse(stream, conn, "malformed key");
                };
                let Ok(envelope) = std::str::from_utf8(&request.payload) else {
                    return self.refuse(stream, conn, "payload is not UTF-8");
                };
                match self.entries.store(key, envelope) {
                    Ok(_) => {
                        self.stats.put_oks.fetch_add(1, Ordering::Relaxed);
                        write_response(stream, Status::Ok, b"")
                    }
                    Err(e @ StoreError::Invalid(_)) => {
                        return self.refuse(stream, conn, &e.to_string());
                    }
                    Err(e @ StoreError::Io(_)) => {
                        return self.refuse(stream, conn, &e.to_string());
                    }
                }
            }
            Opcode::Stat => write_response(stream, Status::Stats, self.stats.to_json().as_bytes()),
        };
        outcome.is_ok()
    }

    /// Sends an `ERR` response with a reason; keeps the connection open
    /// (the frame itself was well-formed, only its contents were refused).
    fn refuse(&self, stream: &mut TcpStream, conn: &mut ConnStats, reason: &str) -> bool {
        conn.rejects += 1;
        self.stats.put_rejects.fetch_add(1, Ordering::Relaxed);
        write_response(stream, Status::Err, reason.as_bytes()).is_ok()
    }
}

/// A handle to a server running on a background thread.
#[derive(Debug)]
pub struct StoreHandle {
    addr: SocketAddr,
    stats: Arc<ServerStats>,
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl StoreHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's aggregate counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Raises the stop flag, wakes the blocking accept with one throwaway
    /// connection and joins the server thread (idempotent).
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(join) = self.join.take() {
            // If this connect fails the accept loop is not waiting in
            // `accept` (it is backing off from an error) and sees the flag
            // on its next turn.
            let _ = TcpStream::connect(self.addr);
            let _ = join.join();
        }
    }
}

impl Drop for StoreHandle {
    fn drop(&mut self) {
        self.stop();
    }
}
