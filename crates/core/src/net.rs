//! TCP socket transport: the wire protocol over a real network boundary.
//!
//! SecNDP's threat model places the trusted processor and the untrusted
//! NDP memory on opposite sides of a *channel an adversary owns*. This
//! module puts the length-prefixed traced wire frames (unchanged, byte for
//! byte) onto pooled `TcpStream`s: a [`NetServer`] hosts devices behind a
//! listener, and a [`TcpLink`] carries an [`Endpoint`]'s frames to it —
//! [`TcpEndpoint`] is that endpoint. Deadlines, retries and the
//! idempotent-only rule are the transport core's, identical on every link.
//!
//! # Net framing
//!
//! The socket carries the traced wire frames inside a thin transport
//! header (all fields little-endian):
//!
//! ```text
//! request:  len: u32 | req_id: u64 | session: u64 | rank: u32 | wire frame
//! reply:    len: u32 | req_id: u64 | wire frame
//! ```
//!
//! `len` counts everything after itself and is capped at
//! [`MAX_NET_FRAME`] plus the header — an oversized declared length closes
//! the connection (server side) or fails the in-flight requests with
//! [`Error::FrameTooLarge`] (client side); it is never allocated. The
//! sentinel length [`SHUTDOWN_SENTINEL`] is a graceful-drain request: the
//! server echoes it, stops accepting, and lets in-flight connections
//! finish their current frame (there is no portable signal handling
//! without a libc dependency, so drain rides the framing instead).
//!
//! `req_id` multiplexes in-flight requests: multiple client threads share
//! one connection and a reader thread demultiplexes replies into the
//! endpoint's pending table by id. The id only routes bytes back to a
//! waiting thread — reply *content* is still verified cryptographically,
//! so a malicious server that swaps the ids of two replies produces two
//! verification failures, never two wrong answers.
//!
//! `session` namespaces device state per client endpoint: a
//! [`NetServer::host_sessions`] server creates one device instance per
//! `(session, rank)` pair on first use, so concurrent clients (or
//! concurrent tests hitting one server) never clobber each other's
//! tables.
//!
//! # Failure semantics
//!
//! - **Connections are lazy** and re-dialed with bounded backoff when
//!   broken; `secndp_net_connects_total` / `_reconnects_total` count the
//!   churn, and reconnects degrade the endpoint's health component.
//! - **A dying connection fails exactly its own requests** with
//!   [`LinkFail::ConnLost`] (or [`LinkFail::TooLarge`] for an oversized
//!   reply), which the core retries for idempotent requests and surfaces
//!   as [`Error::ConnectionLost`] otherwise.
//! - **The socket is untrusted.** Nothing here adds integrity: a byte
//!   flipped on the wire is caught by the same checksum-tag verification
//!   that catches a tampering device, and an undecodable reply is a typed
//!   [`Error::MalformedResponse`] — never a panic.

use crate::device::NdpDevice;
use crate::error::Error;
use crate::transport::{Endpoint, Link, LinkFail, Pending, RankVitals, TransportConfig};
use crate::wire;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Largest wire frame the net framing will carry, in bytes. A declared
/// length above this is rejected *before* any allocation — a 4-byte
/// header must not be able to command a multi-gigabyte buffer.
pub const MAX_NET_FRAME: usize = 64 << 20;

/// Sentinel `len` value requesting a graceful server drain (see the
/// [module docs](self)).
pub const SHUTDOWN_SENTINEL: u32 = u32::MAX;

/// Bytes of request header after the length prefix (id + session + rank).
const REQ_HEADER: usize = 8 + 8 + 4;

/// Bytes of reply header after the length prefix (id).
const REPLY_HEADER: usize = 8;

/// Socket read-timeout tick: blocked reads wake this often to check
/// shutdown flags, so teardown never waits on a silent peer.
const IO_TICK: Duration = Duration::from_millis(50);

/// Socket knobs of a [`TcpEndpoint`]; the timeout and retry knobs are the
/// shared [`TransportConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetConfig {
    /// Server address per rank (`host:port`). Duplicate entries address
    /// multiple ranks on one server — the rank header tells them apart.
    /// Empty means self-hosted (a private loopback server per endpoint).
    pub addrs: Vec<String>,
    /// Connections per rank; client threads multiplex over the pool.
    pub pool: usize,
    /// Dial attempts before a broken rank fails its request with
    /// [`Error::ConnectionLost`].
    pub connect_retries: u32,
    /// Pause between dial attempts.
    pub connect_backoff: Duration,
    /// Deadlines, retries, window and stall grace.
    pub transport: TransportConfig,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            addrs: Vec::new(),
            pool: 1,
            connect_retries: 20,
            connect_backoff: Duration::from_millis(25),
            transport: TransportConfig::default(),
        }
    }
}

impl NetConfig {
    /// Reads every `SECNDP_TRANSPORT_*` knob, falling back to the
    /// defaults: `_WINDOW`, `_TIMEOUT_MS`, `_RETRIES`,
    /// `_STALL_MS` (the shared [`TransportConfig`]), plus `_ADDRS`
    /// (comma-separated `host:port`, one per rank) and `_POOL`.
    pub fn from_env() -> Self {
        fn var<T: std::str::FromStr>(name: &str, default: T) -> T {
            std::env::var(format!("SECNDP_TRANSPORT_{name}"))
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        }
        let d = Self::default();
        let t = d.transport;
        let ms = |d: Duration| d.as_millis() as u64;
        Self {
            addrs: var("ADDRS", String::new())
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect(),
            pool: var("POOL", d.pool).max(1),
            transport: TransportConfig {
                window: var("WINDOW", t.window).max(1),
                timeout: Duration::from_millis(var("TIMEOUT_MS", ms(t.timeout))),
                max_retries: var("RETRIES", t.max_retries),
                stall_grace: Duration::from_millis(var("STALL_MS", ms(t.stall_grace)).max(10)),
            },
            ..d
        }
    }
}

/// Fills `buf` from `stream`, tolerating arbitrarily torn reads (the
/// stream has an [`IO_TICK`] read timeout; timeouts just loop) and
/// polling `stopped` on every tick so teardown is never held hostage by
/// a silent peer. `false` on close (a torn frame is a close), error or
/// stop.
fn read_full(stream: &mut TcpStream, buf: &mut [u8], stopped: impl Fn() -> bool) -> bool {
    let mut pos = 0;
    while pos < buf.len() {
        if stopped() {
            return false;
        }
        match stream.read(&mut buf[pos..]) {
            Ok(0) => return false,
            Ok(n) => pos += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

/// Writes one record, `len | header | frame` (a request header is
/// `req_id | session | rank`, a reply header `req_id`), in one write;
/// returns the bytes written.
fn write_record(stream: &mut TcpStream, header: &[u8], frame: &[u8]) -> io::Result<usize> {
    let len = header.len() + frame.len();
    let mut buf = Vec::with_capacity(4 + len);
    buf.extend_from_slice(&(len as u32).to_le_bytes());
    buf.extend_from_slice(header);
    buf.extend_from_slice(frame);
    stream.write_all(&buf)?;
    Ok(buf.len())
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// How a [`NetServer`] turns an incoming wire frame into a reply frame.
/// One instance is shared (behind a mutex) by every connection thread, so
/// frame service is serialized exactly as on the inline transport.
trait FrameHost: Send {
    fn serve_frame(&mut self, session: u64, rank: u32, frame: &[u8]) -> Vec<u8>;
}

/// A single shared device serving every session and rank — the
/// self-hosted backend behind `SECNDP_TRANSPORT=tcp`, where one endpoint
/// owns one wrapped device.
struct DeviceHost<D>(D);

impl<D: NdpDevice + Send> FrameHost for DeviceHost<D> {
    fn serve_frame(&mut self, _session: u64, _rank: u32, frame: &[u8]) -> Vec<u8> {
        wire::serve_or_reply(&mut self.0, frame)
    }
}

/// Lazily creates one device per `(session, rank)` — the multi-client
/// standalone server. Sessions are never evicted; a long-lived public
/// server would pair this with an idle-session reaper.
struct SessionHost<D, F> {
    make: F,
    devices: HashMap<(u64, u32), D>,
}

impl<D, F> FrameHost for SessionHost<D, F>
where
    D: NdpDevice + Send,
    F: Fn(u64, u32) -> D + Send,
{
    fn serve_frame(&mut self, session: u64, rank: u32, frame: &[u8]) -> Vec<u8> {
        let dev = self
            .devices
            .entry((session, rank))
            .or_insert_with(|| (self.make)(session, rank));
        wire::serve_or_reply(dev, frame)
    }
}

/// A TCP listener hosting NDP devices behind the net framing: one thread
/// per connection, frames dispatched through [`wire::serve_or_reply`] so
/// even decodable-but-invalid requests get a typed error reply instead of
/// a dropped connection.
pub struct NetServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    listener: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.addr)
            .field("stopping", &self.stop.load(Ordering::SeqCst))
            .finish()
    }
}

impl NetServer {
    /// Hosts one shared device: every session and rank hits the same
    /// instance (the self-hosted single-client topology).
    ///
    /// # Errors
    ///
    /// Propagates the listener bind failure.
    pub fn host_device<D: NdpDevice + Send + 'static>(
        device: D,
        addr: impl ToSocketAddrs,
    ) -> io::Result<Self> {
        Self::bind(Box::new(DeviceHost(device)), addr)
    }

    /// Hosts per-client devices: `make(session, rank)` builds a fresh
    /// device the first time that pair appears, so concurrent clients are
    /// isolated from each other (the multi-client topology the
    /// `secndp-server` binary runs).
    ///
    /// # Errors
    ///
    /// Propagates the listener bind failure.
    pub fn host_sessions<D, F>(make: F, addr: impl ToSocketAddrs) -> io::Result<Self>
    where
        D: NdpDevice + Send + 'static,
        F: Fn(u64, u32) -> D + Send + 'static,
    {
        Self::bind(
            Box::new(SessionHost {
                make,
                devices: HashMap::new(),
            }),
            addr,
        )
    }

    fn bind(host: Box<dyn FrameHost>, addr: impl ToSocketAddrs) -> io::Result<Self> {
        // Touch the server-side instruments so they exist (as zeros) in
        // exported metrics before the first connection or violation.
        crate::metrics::net_server_connections();
        crate::metrics::net_rejected_frames();
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let host = Arc::new(Mutex::new(host));
        let accept_stop = Arc::clone(&stop);
        let accept_conns = Arc::clone(&conns);
        let listener_thread = std::thread::Builder::new()
            .name("secndp-net-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    crate::metrics::net_server_connections().inc();
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_read_timeout(Some(IO_TICK));
                    let host = Arc::clone(&host);
                    let stop = Arc::clone(&accept_stop);
                    let handle = std::thread::Builder::new()
                        .name("secndp-net-conn".into())
                        .spawn(move || connection_loop(stream, host, stop, addr))
                        .expect("spawn net connection thread");
                    accept_conns.lock().unwrap().push(handle);
                }
            })
            .expect("spawn net accept thread");
        Ok(Self {
            addr,
            stop,
            listener: Some(listener_thread),
            conns,
        })
    }

    /// The bound address (resolves `:0` to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a drain was requested (by [`shutdown`](Self::shutdown) or
    /// a client's [`SHUTDOWN_SENTINEL`] frame).
    pub fn is_stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Raises the drain flag and wakes the acceptor; does not join.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Self-connect so the blocking accept observes the flag.
        let _ = TcpStream::connect(self.addr);
    }

    /// Blocks until the server has drained: the acceptor exits (after a
    /// [`shutdown`](Self::shutdown) or a client-sent sentinel) and every
    /// connection thread finishes its in-flight frame and joins.
    pub fn wait(&mut self) {
        if let Some(h) = self.listener.take() {
            let _ = h.join();
        }
        let handles = std::mem::take(&mut *self.conns.lock().unwrap());
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
        self.wait();
    }
}

/// Per-connection server loop: reads request records, dispatches through
/// the shared host, writes reply records. Every framing violation —
/// garbage preamble, truncated or oversized length, torn frame — closes
/// *this* connection (counted, never a panic); the listener keeps serving
/// everyone else. A device that panics while serving fails only its own
/// request, with a typed error frame: the panic is caught before the host
/// lock is released, so the lock is never poisoned for other sessions.
fn connection_loop(
    mut stream: TcpStream,
    host: Arc<Mutex<Box<dyn FrameHost>>>,
    stop: Arc<AtomicBool>,
    server_addr: SocketAddr,
) {
    let stopped = || stop.load(Ordering::SeqCst);
    loop {
        let mut len_buf = [0u8; 4];
        if !read_full(&mut stream, &mut len_buf, stopped) {
            return;
        }
        let len = u32::from_le_bytes(len_buf);
        if len == SHUTDOWN_SENTINEL {
            // Graceful drain: acknowledge by echoing the sentinel, raise
            // the flag, and wake the acceptor so it exits too.
            let _ = stream.write_all(&SHUTDOWN_SENTINEL.to_le_bytes());
            stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(server_addr);
            return;
        }
        let len = len as usize;
        if !(REQ_HEADER + 1..=MAX_NET_FRAME + REQ_HEADER).contains(&len) {
            // Unframeable stream (garbage preamble or an absurd length):
            // there is no way to resynchronize, so the connection ends.
            crate::metrics::net_rejected_frames().inc();
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        let mut payload = vec![0u8; len];
        if !read_full(&mut stream, &mut payload, stopped) {
            return;
        }
        let session = u64::from_le_bytes(payload[8..16].try_into().unwrap());
        let rank = u32::from_le_bytes(payload[16..20].try_into().unwrap());
        let (req_id, frame) = (&payload[..8], &payload[REQ_HEADER..]);
        let reply = {
            let mut host = host.lock().unwrap_or_else(PoisonError::into_inner);
            catch_unwind(AssertUnwindSafe(|| host.serve_frame(session, rank, frame)))
        }
        .unwrap_or_else(|_| wire::error_reply(frame, wire::CODE_DEVICE_ERROR));
        if write_record(&mut stream, req_id, &reply).is_err() {
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// One established connection: the writing half plus its reader thread.
struct LiveConn {
    stream: TcpStream,
    /// Process-unique connection id: the route its requests travel on.
    id: u64,
    alive: Arc<AtomicBool>,
    reader: Option<JoinHandle<()>>,
    vitals: Arc<RankVitals>,
}

impl Drop for LiveConn {
    fn drop(&mut self) {
        // The swap makes the live-count decrement exactly-once between
        // this drop and the reader thread's own exit path.
        if self.alive.swap(false, Ordering::SeqCst) {
            self.vitals.live.fetch_sub(1, Ordering::Relaxed);
        }
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

/// One slot of a rank's connection pool.
#[derive(Default)]
struct ConnCell {
    conn: Option<LiveConn>,
    /// Whether this slot ever dialed (the next dial is a reconnect).
    dialed: bool,
}

/// One rank: a server address plus its connection pool.
struct RankConns {
    addr: String,
    conns: Vec<Mutex<ConnCell>>,
}

/// Process-unique session ids: the pid keeps concurrent *processes*
/// apart on a shared server, the counter keeps concurrent endpoints in
/// one process apart.
fn fresh_session() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(1);
    (u64::from(std::process::id()) << 32) | (SEQ.fetch_add(1, Ordering::Relaxed) & 0xFFFF_FFFF)
}

/// Carries frames over pooled kernel TCP sockets to [`NetServer`] ranks,
/// one reader thread per connection demultiplexing replies by request id.
pub struct TcpLink {
    ranks: Vec<RankConns>,
    vitals: Vec<Arc<RankVitals>>,
    session: u64,
    next_conn: AtomicUsize,
    connect_retries: u32,
    connect_backoff: Duration,
    write_timeout: Duration,
    /// The private loopback server of a self-hosted link; declared last so
    /// it drains after the connections close.
    _server: Option<NetServer>,
}

/// The TCP-linked endpoint. See the [module docs](self).
pub type TcpEndpoint = Endpoint<TcpLink>;

impl TcpLink {
    /// A link to `cfg.addrs`, one rank per address. Connections are lazy —
    /// no I/O happens until the first request.
    pub fn new(cfg: &NetConfig) -> Self {
        Self {
            ranks: cfg
                .addrs
                .iter()
                .map(|addr| RankConns {
                    addr: addr.clone(),
                    conns: (0..cfg.pool.max(1)).map(|_| Mutex::default()).collect(),
                })
                .collect(),
            vitals: cfg.addrs.iter().map(|_| Arc::default()).collect(),
            session: fresh_session(),
            next_conn: AtomicUsize::new(0),
            connect_retries: cfg.connect_retries,
            connect_backoff: cfg.connect_backoff,
            write_timeout: cfg.transport.timeout.max(IO_TICK),
            _server: None,
        }
    }

    /// Spawns a private loopback [`NetServer`] hosting `device` and links
    /// a single rank to it: every frame crosses a real kernel socket while
    /// the device semantics (honest, tampering, delayed, …) are preserved.
    ///
    /// # Errors
    ///
    /// Propagates the loopback bind failure.
    pub fn self_hosted<D: NdpDevice + Send + 'static>(
        device: D,
        cfg: &NetConfig,
    ) -> io::Result<Self> {
        let server = NetServer::host_device(device, "127.0.0.1:0")?;
        let cfg = NetConfig {
            addrs: vec![server.local_addr().to_string()],
            ..cfg.clone()
        };
        Ok(Self {
            _server: Some(server),
            ..Self::new(&cfg)
        })
    }

    /// The live connection in `cell`, (re-)dialing it with backoff when it
    /// is missing or dead.
    fn connected<'c>(
        &self,
        cell: &'c mut ConnCell,
        rank: usize,
        pending: &Arc<Pending>,
    ) -> Result<&'c mut LiveConn, LinkFail> {
        if !cell
            .conn
            .as_ref()
            .is_some_and(|c| c.alive.load(Ordering::SeqCst))
        {
            // Dropping the dead connection joins its reader before dialing,
            // keeping the thread count bounded across reconnect storms.
            cell.conn = None;
            cell.conn = Some(self.dial(rank, pending)?);
            crate::metrics::net_connects().inc();
            if cell.dialed {
                crate::metrics::net_reconnects().inc();
            }
            cell.dialed = true;
        }
        Ok(cell.conn.as_mut().expect("connection just ensured"))
    }

    fn dial(&self, rank: usize, pending: &Arc<Pending>) -> Result<LiveConn, LinkFail> {
        static CONN_SEQ: AtomicU64 = AtomicU64::new(1);
        let mut attempt = 0;
        let stream = loop {
            match TcpStream::connect(&self.ranks[rank].addr) {
                Ok(s) => break s,
                Err(_) if attempt < self.connect_retries => {
                    attempt += 1;
                    std::thread::sleep(self.connect_backoff);
                }
                Err(_) => return Err(LinkFail::ConnLost),
            }
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(self.write_timeout));
        let reader_stream = stream.try_clone().map_err(|_| LinkFail::ConnLost)?;
        let _ = reader_stream.set_read_timeout(Some(IO_TICK));
        let id = CONN_SEQ.fetch_add(1, Ordering::Relaxed);
        let alive = Arc::new(AtomicBool::new(true));
        let vitals = &self.vitals[rank];
        let reader = {
            let (pending, alive, vitals) =
                (Arc::clone(pending), Arc::clone(&alive), vitals.clone());
            std::thread::Builder::new()
                .name("secndp-net-reader".into())
                .spawn(move || reader_loop(reader_stream, pending, alive, vitals, id))
                .expect("spawn net reader thread")
        };
        vitals.live.fetch_add(1, Ordering::Relaxed);
        vitals.ever.store(true, Ordering::Relaxed);
        Ok(LiveConn {
            stream,
            id,
            alive,
            reader: Some(reader),
            vitals: Arc::clone(vitals),
        })
    }
}

impl Link for TcpLink {
    fn vitals(&self) -> &[Arc<RankVitals>] {
        &self.vitals
    }

    fn send(
        &self,
        rank: usize,
        id: u64,
        frame: &Arc<Vec<u8>>,
        pending: &Arc<Pending>,
    ) -> Result<(), LinkFail> {
        if frame.len() > MAX_NET_FRAME {
            return Err(LinkFail::TooLarge(frame.len()));
        }
        let conns = &self.ranks[rank].conns;
        let slot = self.next_conn.fetch_add(1, Ordering::Relaxed) % conns.len();
        let mut cell = conns[slot].lock().unwrap_or_else(PoisonError::into_inner);
        let conn = self.connected(&mut cell, rank, pending)?;
        pending.set_route(id, conn.id);
        let mut header = [0u8; REQ_HEADER];
        header[..8].copy_from_slice(&id.to_le_bytes());
        header[8..16].copy_from_slice(&self.session.to_le_bytes());
        header[16..].copy_from_slice(&(rank as u32).to_le_bytes());
        match write_record(&mut conn.stream, &header, frame) {
            Ok(n) => {
                crate::metrics::net_tx_bytes().add(n as u64);
                Ok(())
            }
            Err(_) => {
                // The write tore mid-record: the stream cannot be reused,
                // and the server never serves a torn record.
                cell.conn = None;
                Err(LinkFail::ConnLost)
            }
        }
    }
}

/// Reader half of one connection: demultiplexes reply records into the
/// pending table by request id. On any framing violation, close or
/// teardown it fails exactly its own route's in-flight requests and exits.
fn reader_loop(
    mut stream: TcpStream,
    pending: Arc<Pending>,
    alive: Arc<AtomicBool>,
    vitals: Arc<RankVitals>,
    route: u64,
) {
    let stopped = || !alive.load(Ordering::SeqCst);
    let fail = loop {
        let mut len_buf = [0u8; 4];
        if !read_full(&mut stream, &mut len_buf, stopped) {
            break LinkFail::ConnLost;
        }
        let len = u32::from_le_bytes(len_buf);
        if len == SHUTDOWN_SENTINEL {
            // The server acknowledged a drain; the connection is over.
            break LinkFail::ConnLost;
        }
        let len = len as usize;
        if !(REPLY_HEADER + 1..=MAX_NET_FRAME + REPLY_HEADER).contains(&len) {
            break LinkFail::TooLarge(len);
        }
        let mut payload = vec![0u8; len];
        if !read_full(&mut stream, &mut payload, stopped) {
            break LinkFail::ConnLost;
        }
        crate::metrics::net_rx_bytes().add(4 + len as u64);
        let req_id = u64::from_le_bytes(payload[0..8].try_into().unwrap());
        payload.drain(..REPLY_HEADER);
        vitals.end_serve();
        pending.complete(req_id, Ok(payload));
    };
    // Exactly-once live-count decrement (see LiveConn::drop).
    if alive.swap(false, Ordering::SeqCst) {
        vitals.live.fetch_sub(1, Ordering::Relaxed);
    }
    pending.fail_route(route, fail);
}

impl TcpEndpoint {
    /// Connects to external server(s): one rank per entry of `cfg.addrs`.
    /// Connections are lazy — no I/O happens until the first request.
    ///
    /// # Errors
    ///
    /// Returns [`Error::MalformedResponse`] when `cfg.addrs` is empty (a
    /// TCP endpoint with zero ranks could answer nothing).
    pub fn connect(cfg: NetConfig) -> Result<Self, Error> {
        if cfg.addrs.is_empty() {
            return Err(Error::MalformedResponse {
                reason: "tcp endpoint needs at least one rank address",
            });
        }
        Ok(Self::from_link(TcpLink::new(&cfg), cfg.transport))
    }

    /// A single-rank endpoint over a private loopback [`NetServer`]
    /// hosting `device` (see [`TcpLink::self_hosted`]). This is what
    /// `SECNDP_TRANSPORT=tcp` without `SECNDP_TRANSPORT_ADDRS` rides.
    ///
    /// # Errors
    ///
    /// Propagates the loopback bind failure.
    pub fn self_hosted<D: NdpDevice + Send + 'static>(
        device: D,
        cfg: NetConfig,
    ) -> io::Result<Self> {
        Ok(Self::from_link(
            TcpLink::self_hosted(device, &cfg)?,
            cfg.transport,
        ))
    }
}
