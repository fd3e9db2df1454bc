//! The transport core: one [`Endpoint`] over a pluggable [`Link`].
//!
//! SecNDP puts the memory *and the channel to it* on the untrusted side,
//! so the transport adds no security of its own — it is plumbing, and it
//! exists once. An [`Endpoint`] owns everything that is transport policy:
//!
//! - **Request ids and the pending table.** Every submission gets an
//!   endpoint-local `u64` id keyed into one pending-request table; the
//!   wire frames themselves are the unchanged traced-frame envelope. The id
//!   is matched on the *trusted* side, so a malicious device cannot confuse
//!   two requests by forging one — a swapped reply fails verification.
//! - **Out-of-order completion.** A link completes whichever frame it
//!   finishes first; `wait(id)` redeems results in any order, `poll(id)`
//!   observes without blocking.
//! - **Bounded in-flight window.** `submit` blocks while `window`
//!   uncompleted requests are outstanding (backpressure).
//! - **Deadlines and idempotent-only retry.** When a request's deadline
//!   expires or its link loses it, idempotent requests (`WeightedSum`,
//!   `ReadRow` — pure reads) are re-sent to the next rank with a linearly
//!   growing deadline, at most `max_retries` times; then the caller gets
//!   [`Error::DeviceTimeout`] or the link's typed error. A send that fails
//!   outright (dead worker, refused dial) fails over to the next rank.
//!   **`Load` is never retried or failed over**: a re-sent Load could
//!   overwrite a table a concurrent re-encryption already replaced, so it
//!   is broadcast once per rank and any failure surfaces.
//! - **First completion wins.** After a retry two replies may arrive for
//!   one id; the first settles the slot, the straggler is dropped and
//!   counted (`secndp_transport_late_completions_total`). This is sound
//!   precisely because only idempotent requests retry.
//! - **Nothing leaks.** Every id leaves the table exactly once — redeemed,
//!   timed out, failed, or [abandoned](Endpoint::abandon) by a batch or
//!   broadcast that gave up — so `submitted == completed + timeouts +
//!   failures` holds on the shared counters whenever the table is empty.
//!
//! A [`Link`] only moves frame bytes to a rank and hands replies back
//! through [`Pending::complete`]. Three links exist: [`InlineLink`] serves
//! on the caller's thread, [`ChannelLink`] runs rank worker threads, and
//! [`TcpLink`](crate::net::TcpLink) ships frames over pooled sockets.
//! Spans stitch identically on all three: frames are encoded under the
//! caller's ambient span, and the device-side `ndp_serve` span parents
//! under the context the envelope carries.

use crate::device::{validate_load, NdpDevice, NdpResponse};
use crate::error::Error;
use crate::fault::{FaultClass, FaultInjector, FaultKind};
use crate::wire::{self, Request, Response};
use secndp_arith::mersenne::Fq;
use secndp_arith::ring::RingWord;
use secndp_telemetry::health::{self, HealthStatus};
use secndp_telemetry::trace;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Extra deadline granted per retry attempt (linear backoff).
const BACKOFF: Duration = Duration::from_millis(1);

/// Timeout and retry knobs shared by every [`Endpoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportConfig {
    /// Maximum uncompleted requests in flight before `submit` blocks.
    pub window: usize,
    /// Per-request deadline; expiry triggers retry or `DeviceTimeout`.
    pub timeout: Duration,
    /// Maximum re-sends of an idempotent request after its first attempt
    /// timed out or lost its link (`0` disables retries).
    pub max_retries: u32,
    /// How long a *busy* rank may go without a heartbeat before it counts
    /// as stalled in health reports (see [`Endpoint::stalled_ranks`]).
    pub stall_grace: Duration,
}

impl Default for TransportConfig {
    fn default() -> Self {
        Self {
            window: 32,
            timeout: Duration::from_millis(1000),
            max_retries: 2,
            stall_grace: Duration::from_secs(2),
        }
    }
}

/// Liveness vitals of one rank, published by its link for health scoring.
///
/// Serving links beat the heartbeat around every frame (the channel
/// worker also on idle ticks) and raise `busy` while the device holds one;
/// a rank is **stalled** when it is busy past the grace period. Socket
/// links count live connections instead; a rank that connected once and
/// holds none now is **disconnected**.
#[derive(Debug)]
pub struct RankVitals {
    /// Per-rank monotonic epoch heartbeats are measured against.
    epoch: Instant,
    /// Milliseconds since `epoch` at the last beat.
    heartbeat_ms: AtomicU64,
    /// Whether the device is serving a frame right now.
    busy: AtomicBool,
    /// Replies produced by (or received from) this rank.
    served: AtomicU64,
    /// Established connections (socket links only).
    pub(crate) live: AtomicUsize,
    /// Whether the rank ever held a connection (socket links only).
    pub(crate) ever: AtomicBool,
}

impl Default for RankVitals {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            heartbeat_ms: AtomicU64::new(0),
            busy: AtomicBool::new(false),
            served: AtomicU64::new(0),
            live: AtomicUsize::new(0),
            ever: AtomicBool::new(false),
        }
    }
}

impl RankVitals {
    fn beat(&self) {
        self.heartbeat_ms
            .store(self.epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
    }

    fn begin_serve(&self) {
        self.beat();
        self.busy.store(true, Ordering::Relaxed);
    }

    /// Records one reply from this rank.
    pub(crate) fn end_serve(&self) {
        self.busy.store(false, Ordering::Relaxed);
        self.served.fetch_add(1, Ordering::Relaxed);
        self.beat();
    }

    /// Time since the rank last signalled liveness.
    pub fn heartbeat_age(&self) -> Duration {
        let now = self.epoch.elapsed().as_millis() as u64;
        Duration::from_millis(now.saturating_sub(self.heartbeat_ms.load(Ordering::Relaxed)))
    }

    /// Whether the device is currently serving a frame.
    pub fn is_busy(&self) -> bool {
        self.busy.load(Ordering::Relaxed)
    }

    /// Replies produced by (or received from) this rank.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Busy past the grace period without a heartbeat.
    pub fn stalled(&self, grace: Duration) -> bool {
        self.is_busy() && self.heartbeat_age() > grace
    }

    /// Currently-established connections (socket links).
    pub fn live_connections(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Whether the rank ever held a connection (socket links).
    pub fn ever_connected(&self) -> bool {
        self.ever.load(Ordering::Relaxed)
    }

    /// Connected in the past but holds no live connection now.
    pub fn disconnected(&self) -> bool {
        self.ever_connected() && self.live_connections() == 0
    }
}

/// Why one attempt of a request failed inside a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFail {
    /// The device could not decode the request frame.
    Rejected,
    /// The rank's worker thread has exited.
    WorkerGone,
    /// The carrying connection died (refused dial, reset, EOF, torn write).
    ConnLost,
    /// The peer declared a frame longer than the link carries.
    TooLarge(usize),
}

impl LinkFail {
    /// Whether an idempotent request may be re-sent past this failure.
    fn retryable(self) -> bool {
        matches!(self, LinkFail::WorkerGone | LinkFail::ConnLost)
    }

    fn into_error(self, attempts: u32) -> Error {
        match self {
            LinkFail::Rejected => crate::metrics::malformed("device rejected request frame"),
            LinkFail::WorkerGone => crate::metrics::malformed("transport worker disconnected"),
            LinkFail::ConnLost => Error::ConnectionLost { attempts },
            LinkFail::TooLarge(len) => Error::FrameTooLarge { len },
        }
    }
}

/// A frame carrier: moves request frames to a rank and hands each reply
/// (or failure) back through [`Pending::complete`] — synchronously or from
/// another thread. Retry, deadlines and accounting live in [`Endpoint`].
pub trait Link: Send + Sync + 'static {
    /// Per-rank vitals, rank order; the length is the rank count.
    fn vitals(&self) -> &[Arc<RankVitals>];

    /// Queues `frame` (request `id`) to `rank`.
    ///
    /// # Errors
    ///
    /// A [`LinkFail`] when the rank cannot take the frame at all.
    fn send(
        &self,
        rank: usize,
        id: u64,
        frame: &Arc<Vec<u8>>,
        pending: &Arc<Pending>,
    ) -> Result<(), LinkFail>;
}

enum State {
    /// Sent; no reply yet.
    Waiting,
    /// The link delivered reply bytes.
    Done(Vec<u8>),
    /// The link lost the current attempt.
    Failed(LinkFail),
}

struct Slot {
    state: State,
    /// The encoded frame, kept for idempotent requests so a retry re-sends
    /// the identical bytes (trace envelope included); `None` for `Load`.
    frame: Option<Arc<Vec<u8>>>,
    /// Sends so far (the first submission counts as 1).
    attempts: u32,
    deadline: Instant,
    submitted: Instant,
    /// Link-defined carrier of the current attempt (a connection id), so
    /// a dying carrier fails exactly its own requests.
    route: u64,
}

struct Table {
    slots: HashMap<u64, Slot>,
    /// Slots in `State::Waiting`: what the window is enforced against.
    waiting: usize,
}

/// The pending-request table shared between an [`Endpoint`] and its link.
pub struct Pending {
    table: Mutex<Table>,
    /// Signals completions (for `wait`) and freed window credit (`submit`).
    cv: Condvar,
}

impl Pending {
    fn lock(&self) -> MutexGuard<'_, Table> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Settles request `id`'s current attempt. A reply for an id that is
    /// no longer waiting (a retry answered first, or the caller gave up)
    /// is dropped and counted late.
    pub fn complete(&self, id: u64, reply: Result<Vec<u8>, LinkFail>) {
        let mut t = self.lock();
        match t.slots.get_mut(&id) {
            Some(slot) if matches!(slot.state, State::Waiting) => {
                slot.state = match reply {
                    Ok(bytes) => State::Done(bytes),
                    Err(fail) => State::Failed(fail),
                };
                t.waiting -= 1;
                crate::metrics::transport_inflight().add(-1);
                self.cv.notify_all();
            }
            _ => crate::metrics::transport_late_completions().inc(),
        }
    }

    /// Records which carrier request `id` is about to travel on.
    pub fn set_route(&self, id: u64, route: u64) {
        if let Some(slot) = self.lock().slots.get_mut(&id) {
            slot.route = route;
        }
    }

    /// Fails every request still waiting on `route` — called when a
    /// carrier dies, so its requests error (or retry) now instead of
    /// waiting out their deadlines.
    pub fn fail_route(&self, route: u64, fail: LinkFail) {
        let mut t = self.lock();
        let mut hit = 0;
        for slot in t.slots.values_mut() {
            if slot.route == route && matches!(slot.state, State::Waiting) {
                slot.state = State::Failed(fail);
                hit += 1;
            }
        }
        if hit > 0 {
            t.waiting -= hit;
            crate::metrics::transport_inflight().add(-(hit as i64));
            self.cv.notify_all();
        }
    }

    /// Removes a slot in whatever state, keeping the window and the
    /// submitted = completed + timeouts + failures books balanced: a slot
    /// still waiting counts as a timeout when its deadline ran out, and as
    /// a failure when it was given up.
    fn remove(&self, id: u64, expired: bool) -> Option<Slot> {
        let mut t = self.lock();
        let slot = t.slots.remove(&id)?;
        match slot.state {
            State::Waiting => {
                t.waiting -= 1;
                crate::metrics::transport_inflight().add(-1);
                self.cv.notify_all();
                if expired {
                    crate::metrics::transport_timeouts().inc();
                } else {
                    crate::metrics::transport_failures().inc();
                }
            }
            State::Done(_) => crate::metrics::transport_completed().inc(),
            State::Failed(_) => crate::metrics::transport_failures().inc(),
        }
        Some(slot)
    }
}

/// Handle to one in-flight request; redeem it with [`Endpoint::poll`] or
/// [`Endpoint::wait`], or drop it with [`Endpoint::abandon`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestId(u64);

/// A wire endpoint: the pending table, deadlines, retries, broadcast and
/// the [`NdpDevice`] facade, over any [`Link`]. See the [module docs](self).
pub struct Endpoint<L: Link> {
    /// Health registration; declared first so it drops (unregistering the
    /// check) before the link tears its ranks down.
    _health: health::HealthCheckHandle,
    /// The component name registered under (`transport-epN`).
    component: String,
    link: L,
    pending: Arc<Pending>,
    cfg: TransportConfig,
    next_id: AtomicU64,
    next_rank: AtomicUsize,
}

/// The channel-linked endpoint: device ranks on worker threads.
pub type AsyncEndpoint = Endpoint<ChannelLink>;

impl<L: Link> std::fmt::Debug for Endpoint<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("component", &self.component)
            .field("ranks", &self.ranks())
            .field("cfg", &self.cfg)
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

impl<L: Link> Endpoint<L> {
    /// Wraps `link` in the transport core.
    ///
    /// # Panics
    ///
    /// Panics if the link has no ranks.
    pub fn from_link(link: L, cfg: TransportConfig) -> Self {
        assert!(
            !link.vitals().is_empty(),
            "endpoint needs at least one rank"
        );
        // Touch every transport instrument so they exist in exported
        // metrics (as zeros) before the first request.
        crate::metrics::transport_inflight();
        crate::metrics::transport_submitted();
        crate::metrics::transport_completed();
        crate::metrics::transport_timeouts();
        crate::metrics::transport_failures();
        crate::metrics::transport_retries();
        crate::metrics::transport_late_completions();
        crate::metrics::transport_completion();
        let (health, component) = register_health(link.vitals().to_vec(), cfg.stall_grace);
        Self {
            _health: health,
            component,
            link,
            pending: Arc::new(Pending {
                table: Mutex::new(Table {
                    slots: HashMap::new(),
                    waiting: 0,
                }),
                cv: Condvar::new(),
            }),
            cfg,
            next_id: AtomicU64::new(1),
            next_rank: AtomicUsize::new(0),
        }
    }

    /// Number of device ranks.
    pub fn ranks(&self) -> usize {
        self.link.vitals().len()
    }

    /// Requests submitted and not yet completed, failed or abandoned.
    pub fn in_flight(&self) -> usize {
        self.pending.lock().waiting
    }

    /// Per-rank liveness vitals, rank order.
    pub fn vitals(&self) -> &[Arc<RankVitals>] {
        self.link.vitals()
    }

    /// The health component this endpoint registered under
    /// (`transport-epN`), as it appears in `/healthz` reports.
    pub fn health_component(&self) -> &str {
        &self.component
    }

    /// Ranks busy past `cfg.stall_grace` without a heartbeat — an
    /// unresponsive untrusted device holding a frame.
    pub fn stalled_ranks(&self) -> Vec<usize> {
        (0..self.ranks())
            .filter(|&r| self.vitals()[r].stalled(self.cfg.stall_grace))
            .collect()
    }

    fn next_rank(&self) -> usize {
        self.next_rank.fetch_add(1, Ordering::Relaxed) % self.ranks()
    }

    /// Encodes under the ambient span (captured *before* the encode span
    /// opens), so the device-side `ndp_serve` stitches under the caller.
    fn encode(req: &Request) -> Result<Arc<Vec<u8>>, Error> {
        let ctx = trace::current();
        let _e = trace::span(trace::names::WIRE_ENCODE);
        Ok(Arc::new(req.encode_traced(ctx)?))
    }

    /// Submits a request to the next rank. Blocks while the in-flight
    /// window is full, then returns at once with an id for
    /// [`poll`](Self::poll) / [`wait`](Self::wait).
    ///
    /// # Errors
    ///
    /// [`Error::FrameTooLarge`] if the request cannot be encoded, or the
    /// link's typed error when no rank can take it.
    pub fn submit(&self, req: &Request) -> Result<RequestId, Error> {
        let idempotent = !matches!(req, Request::Load { .. });
        self.submit_frame(Self::encode(req)?, idempotent, self.next_rank())
    }

    fn submit_frame(
        &self,
        frame: Arc<Vec<u8>>,
        idempotent: bool,
        rank: usize,
    ) -> Result<RequestId, Error> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        {
            let mut t = self.pending.lock();
            while t.waiting >= self.cfg.window.max(1) {
                t = self
                    .pending
                    .cv
                    .wait(t)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            let now = Instant::now();
            t.slots.insert(
                id,
                Slot {
                    state: State::Waiting,
                    frame: idempotent.then(|| Arc::clone(&frame)),
                    attempts: 1,
                    deadline: now + self.cfg.timeout,
                    submitted: now,
                    route: 0,
                },
            );
            t.waiting += 1;
        }
        crate::metrics::wire_packets().inc();
        crate::metrics::wire_tx_bytes().add(frame.len() as u64);
        secndp_telemetry::profile::add_wire_bytes(frame.len() as u64, 0);
        crate::metrics::transport_submitted().inc();
        crate::metrics::transport_inflight().add(1);
        self.send(id, &frame, rank, idempotent)?;
        Ok(RequestId(id))
    }

    /// Hands the frame to `rank`; when `failover` is set (idempotent
    /// requests only) a rank that cannot take it passes it to the next,
    /// so a dead rank costs capacity, not correctness. A `Load` never
    /// fails over — that would load fewer replicas than asked. When no
    /// permitted rank takes the frame the slot is dropped.
    fn send(
        &self,
        id: u64,
        frame: &Arc<Vec<u8>>,
        rank: usize,
        failover: bool,
    ) -> Result<(), Error> {
        let tries = if failover { self.ranks() } else { 1 };
        let mut fail = LinkFail::WorkerGone;
        for i in 0..tries {
            match self
                .link
                .send((rank + i) % self.ranks(), id, frame, &self.pending)
            {
                Ok(()) => return Ok(()),
                Err(f) if f.retryable() => fail = f,
                Err(f) => {
                    fail = f;
                    break;
                }
            }
        }
        let attempts = self.pending.remove(id, false).map_or(1, |s| s.attempts);
        Err(fail.into_error(attempts))
    }

    /// Non-blocking check: `None` while the request is in flight,
    /// `Some(result)` once it settled (consuming the id). Deadlines and
    /// retries only run inside [`wait`](Self::wait).
    pub fn poll(&self, id: RequestId) -> Option<Result<Response, Error>> {
        match self.pending.lock().slots.get(&id.0).map(|s| &s.state) {
            Some(State::Waiting) => return None,
            Some(State::Failed(f)) if f.retryable() => return None,
            _ => {}
        }
        Some(self.settle(id))
    }

    /// Blocks until the request settles, retrying idempotent requests
    /// whose deadline expired or whose link lost them, and decodes the
    /// reply.
    ///
    /// # Errors
    ///
    /// [`Error::DeviceTimeout`] when the deadline (plus retries) expires,
    /// the link's typed error, or the decoded device reply's error.
    pub fn wait(&self, id: RequestId) -> Result<Response, Error> {
        let mut t = self.pending.lock();
        loop {
            let now = Instant::now();
            let Some(slot) = t.slots.get_mut(&id.0) else {
                return Err(crate::metrics::malformed("unknown request id"));
            };
            let lost = match slot.state {
                State::Waiting if now < slot.deadline => {
                    let dur = slot.deadline - now;
                    t = self
                        .pending
                        .cv
                        .wait_timeout(t, dur)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                    continue;
                }
                State::Waiting => false,
                State::Failed(f) if f.retryable() => true,
                _ => {
                    drop(t);
                    return self.settle(id);
                }
            };
            let frame = match &slot.frame {
                Some(frame) if slot.attempts <= self.cfg.max_retries => Arc::clone(frame),
                _ => {
                    drop(t);
                    return self.settle(id);
                }
            };
            slot.attempts += 1;
            slot.deadline = now + self.cfg.timeout + BACKOFF * (slot.attempts - 1);
            if lost {
                slot.state = State::Waiting;
                t.waiting += 1;
                crate::metrics::transport_inflight().add(1);
            }
            drop(t);
            crate::metrics::transport_retries().inc();
            secndp_telemetry::profile::add_retries(1);
            self.send(id.0, &frame, self.next_rank(), true)?;
            t = self.pending.lock();
        }
    }

    /// Removes a final slot and turns it into the caller's result.
    fn settle(&self, id: RequestId) -> Result<Response, Error> {
        let Some(slot) = self.pending.remove(id.0, true) else {
            return Err(crate::metrics::malformed("unknown request id"));
        };
        match slot.state {
            State::Done(reply) => {
                crate::metrics::transport_completion()
                    .observe(slot.submitted.elapsed().as_nanos() as u64);
                crate::metrics::wire_rx_bytes().add(reply.len() as u64);
                secndp_telemetry::profile::add_wire_bytes(0, reply.len() as u64);
                wire::decode_reply(&reply)
            }
            State::Failed(fail) => Err(fail.into_error(slot.attempts)),
            State::Waiting => Err(Error::DeviceTimeout {
                deadline_ms: self.cfg.timeout.as_millis() as u64,
                attempts: slot.attempts,
            }),
        }
    }

    /// Drops a request the caller no longer wants, whatever its state; a
    /// reply arriving later is counted late. Unknown ids are ignored.
    pub fn abandon(&self, id: RequestId) {
        self.pending.remove(id.0, false);
    }

    /// Submits then waits.
    ///
    /// # Errors
    ///
    /// As for [`submit`](Self::submit) and [`wait`](Self::wait).
    pub fn round_trip(&self, req: &Request) -> Result<Response, Error> {
        let id = self.submit(req)?;
        self.wait(id)
    }

    /// Sends the request once to **every** rank and waits for all of them
    /// (`Load` must reach every replica). Never retried; every rank is
    /// attempted, and the first failing rank's error is returned once all
    /// have settled. The request is dropped as soon as it is encoded.
    ///
    /// # Errors
    ///
    /// As for [`wait`](Self::wait), from the first failing rank.
    pub fn broadcast(&self, req: Request) -> Result<Response, Error> {
        let frame = Self::encode(&req)?;
        drop(req);
        let mut first_err = None;
        let mut ids = Vec::with_capacity(self.ranks());
        for rank in 0..self.ranks() {
            match self.submit_frame(Arc::clone(&frame), false, rank) {
                Ok(id) => ids.push(id),
                Err(e) => {
                    first_err.get_or_insert(Err(e));
                }
            }
        }
        drop(frame);
        let mut last = None;
        for id in ids {
            match self.wait(id) {
                Ok(Response::Err(code)) => {
                    first_err.get_or_insert(Ok(Response::Err(code)));
                }
                Err(e) => {
                    first_err.get_or_insert(Err(e));
                }
                ok => last = Some(ok),
            }
        }
        first_err
            .or(last)
            .expect("an endpoint has at least one rank")
    }
}

/// Registers an endpoint's component with the process-wide
/// [`health::monitor`]: stalled or disconnected ranks degrade it (all of
/// them down fails it), as do timeouts, retries and reconnects within the
/// health window.
fn register_health(
    vitals: Vec<Arc<RankVitals>>,
    grace: Duration,
) -> (health::HealthCheckHandle, String) {
    static EP_SEQ: AtomicU64 = AtomicU64::new(0);
    let component = format!("transport-ep{}", EP_SEQ.fetch_add(1, Ordering::Relaxed));
    let handle = health::monitor().register(&component, move |ctx| {
        let down: Vec<usize> = (0..vitals.len())
            .filter(|&r| vitals[r].stalled(grace) || vitals[r].disconnected())
            .collect();
        if !down.is_empty() {
            let status = if down.len() == vitals.len() {
                HealthStatus::Failing
            } else {
                HealthStatus::Degraded
            };
            return (
                status,
                format!(
                    "transport rank(s) {down:?} of {} stalled (busy > {} ms without a \
                     heartbeat) or disconnected",
                    vitals.len(),
                    grace.as_millis()
                ),
            );
        }
        let timeouts = ctx.counter_delta("secndp_transport_timeouts_total");
        let retries = ctx.counter_delta("secndp_transport_retries_total");
        let reconnects = ctx.counter_delta("secndp_net_reconnects_total");
        if timeouts + retries + reconnects > 0 {
            return (
                HealthStatus::Degraded,
                format!(
                    "{timeouts} timeout(s), {retries} retr(ies), {reconnects} reconnect(s) \
                     within the window"
                ),
            );
        }
        let served: u64 = vitals.iter().map(|v| v.served()).sum();
        (
            HealthStatus::Ok,
            format!("{} rank(s) live, {served} frames served", vitals.len()),
        )
    });
    (handle, component)
}

/// Blocking [`NdpDevice`] facade: every trait call is one request
/// (`load` broadcasts to all ranks), so trait-generic code — the whole
/// protocol stack and e2e suite — runs over any link unchanged.
impl<L: Link> NdpDevice for Endpoint<L> {
    fn load(
        &mut self,
        table_addr: u64,
        ciphertext: Vec<u8>,
        row_bytes: usize,
        tags: Option<Vec<Fq>>,
    ) -> Result<(), Error> {
        // Validate shape before the round trip: the wire error code carries
        // no payload, so a local check keeps the faithful field values.
        validate_load(ciphertext.len(), row_bytes)?;
        let mut sp = trace::span(trace::names::WIRE_ROUND_TRIP);
        sp.attr_u64("ranks", self.ranks() as u64);
        let _t = crate::metrics::wire_round_trip().start_timer();
        let req = Request::Load {
            table_addr,
            row_bytes: row_bytes as u32,
            ciphertext,
            tags: tags.map(|ts| ts.iter().map(|t| t.value()).collect()),
        };
        match self.broadcast(req)? {
            Response::Ack => Ok(()),
            Response::Err(code) => Err(wire::error_from_code(code, table_addr)),
            _ => Err(crate::metrics::malformed("unexpected load reply")),
        }
    }

    fn weighted_sum<W: RingWord>(
        &self,
        table_addr: u64,
        indices: &[usize],
        weights: &[W],
        with_tag: bool,
    ) -> Result<NdpResponse<W>, Error> {
        let sp = trace::span(trace::names::WIRE_ROUND_TRIP);
        let _t = crate::metrics::wire_round_trip().start_timer();
        let resp = self.round_trip(&Request::WeightedSum {
            table_addr,
            elem_bytes: W::BYTES as u8,
            indices: indices.iter().map(|&i| i as u64).collect(),
            weights: weights.iter().map(|w| w.as_u64()).collect(),
            with_tag,
        })?;
        drop(sp);
        wire::sum_from_response(resp, table_addr)
    }

    fn read_row(&self, table_addr: u64, row: usize) -> Result<Vec<u8>, Error> {
        let sp = trace::span(trace::names::WIRE_ROUND_TRIP);
        let _t = crate::metrics::wire_round_trip().start_timer();
        let resp = self.round_trip(&Request::ReadRow {
            table_addr,
            row: row as u64,
        })?;
        drop(sp);
        match resp {
            Response::Row(b) => Ok(b),
            Response::Err(code) => Err(wire::error_from_code(code, table_addr)),
            _ => Err(crate::metrics::malformed("wrong response kind")),
        }
    }
}

/// Serves every frame synchronously on the caller's thread — no worker,
/// no queue, no thread hop.
#[derive(Debug)]
pub struct InlineLink<D> {
    device: Mutex<D>,
    vitals: [Arc<RankVitals>; 1],
}

impl<D> InlineLink<D> {
    /// Serves frames against `device`.
    pub fn new(device: D) -> Self {
        Self {
            device: Mutex::new(device),
            vitals: [Arc::default()],
        }
    }
}

impl<D: NdpDevice + Send + 'static> Link for InlineLink<D> {
    fn vitals(&self) -> &[Arc<RankVitals>] {
        &self.vitals
    }

    fn send(
        &self,
        _rank: usize,
        id: u64,
        frame: &Arc<Vec<u8>>,
        pending: &Arc<Pending>,
    ) -> Result<(), LinkFail> {
        let v = &self.vitals[0];
        v.begin_serve();
        let reply = {
            let mut device = self.device.lock().unwrap_or_else(PoisonError::into_inner);
            wire::serve(&mut *device, frame)
        };
        v.end_serve();
        pending.complete(id, reply.map_err(|_| LinkFail::Rejected));
        Ok(())
    }
}

/// One frame queued to a rank worker.
struct Job {
    id: u64,
    frame: Arc<Vec<u8>>,
    pending: Arc<Pending>,
}

/// N device ranks on worker threads, each owning its device and draining
/// its own queue. The chaos harness's frame-class faults land inside the
/// worker loop, between dequeue and serve.
pub struct ChannelLink {
    senders: Vec<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    vitals: Vec<Arc<RankVitals>>,
}

impl ChannelLink {
    /// Spawns one worker per device; `injector` wires the chaos harness's
    /// frame-class faults into every worker.
    pub fn new<D: NdpDevice + Send + 'static>(
        devices: Vec<D>,
        injector: Option<Arc<FaultInjector>>,
    ) -> Self {
        let mut link = Self {
            senders: Vec::with_capacity(devices.len()),
            workers: Vec::with_capacity(devices.len()),
            vitals: Vec::with_capacity(devices.len()),
        };
        for (rank, device) in devices.into_iter().enumerate() {
            let (tx, rx) = mpsc::channel::<Job>();
            let v = Arc::new(RankVitals::default());
            let inj = injector.clone();
            link.vitals.push(Arc::clone(&v));
            link.workers.push(
                std::thread::Builder::new()
                    .name(format!("secndp-rank{rank}"))
                    .spawn(move || worker_loop(device, rx, v, rank as u32, inj))
                    .expect("spawn transport worker"),
            );
            link.senders.push(tx);
        }
        link
    }
}

impl Link for ChannelLink {
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
        let job = Job {
            id,
            frame: Arc::clone(frame),
            pending: Arc::clone(pending),
        };
        self.senders[rank]
            .send(job)
            .map_err(|_| LinkFail::WorkerGone)
    }
}

impl Drop for ChannelLink {
    fn drop(&mut self) {
        // Hang up every queue, then join the workers so no thread outlives
        // the link and the devices drop deterministically.
        self.senders.clear();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop<D: NdpDevice>(
    mut device: D,
    rx: mpsc::Receiver<Job>,
    vitals: Arc<RankVitals>,
    rank: u32,
    injector: Option<Arc<FaultInjector>>,
) {
    loop {
        vitals.beat();
        let job = match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(job) => job,
            // Idle tick: refresh the heartbeat so idleness never looks
            // like a stall, then keep listening.
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        // Chaos hook: each consumed frame fault is journaled with the trace
        // id carried in the request frame (the worker has no ambient span
        // until `wire::serve` opens one).
        let (mut late_ms, mut mask, mut duplicate) = (0, 0, false);
        if let Some(inj) = injector.as_deref() {
            if let Some(fault) = inj.take(FaultClass::Frame) {
                let trace = wire::peek_trace(&job.frame);
                let detail = match fault.kind {
                    FaultKind::DropReply => "reply dropped; slot left waiting",
                    FaultKind::RankCrash => "worker exited without replying",
                    FaultKind::RankStall { .. } => "busy-held before serving",
                    FaultKind::LateReply { .. } => "reply delayed past deadline",
                    FaultKind::MalformedReply { .. } => "reply first byte corrupted",
                    FaultKind::DuplicateReply => "reply completed twice",
                    // Data/Host kinds are filtered out by `take`'s class match.
                    _ => unreachable!("non-frame fault taken by worker"),
                };
                inj.journal(&fault, rank, detail, trace);
                match fault.kind {
                    FaultKind::DropReply => continue,
                    FaultKind::RankCrash => return,
                    FaultKind::RankStall { stall_ms } => {
                        // Busy without heartbeats: exactly the signature
                        // the stall detector scores against `stall_grace`.
                        vitals.begin_serve();
                        std::thread::sleep(Duration::from_millis(stall_ms as u64));
                    }
                    FaultKind::LateReply { delay_ms } => late_ms = delay_ms,
                    FaultKind::MalformedReply { mask: m } => mask = m,
                    _ => duplicate = true, // DuplicateReply
                }
            }
        }
        vitals.begin_serve();
        let mut reply = wire::serve(&mut device, &job.frame).map_err(|_| LinkFail::Rejected);
        vitals.end_serve();
        if let Ok(Some(b)) = reply.as_mut().map(|r| r.first_mut()) {
            *b ^= mask;
        }
        if late_ms > 0 {
            std::thread::sleep(Duration::from_millis(late_ms as u64));
        }
        if duplicate {
            // The duplicate must hit the settled slot and be counted as a
            // late completion, never double-settled.
            job.pending.complete(job.id, reply.clone());
        }
        job.pending.complete(job.id, reply);
    }
}

impl AsyncEndpoint {
    /// Spawns one worker thread per device in `devices`; each worker owns
    /// its device and serves frames through [`wire::serve`].
    ///
    /// # Panics
    ///
    /// Panics if `devices` is empty.
    pub fn new<D: NdpDevice + Send + 'static>(devices: Vec<D>, cfg: TransportConfig) -> Self {
        Self::from_link(ChannelLink::new(devices, None), cfg)
    }

    /// [`new`](Self::new), with the chaos harness's [`FaultInjector`]
    /// landing frame-class faults (drops, duplicates, late/malformed
    /// replies, stalls, crashes) inside every rank worker. Pair with
    /// [`FaultyNdp`](crate::fault::FaultyNdp)-wrapped devices sharing the
    /// same injector so data-class faults land too.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is empty.
    pub fn new_with_faults<D: NdpDevice + Send + 'static>(
        devices: Vec<D>,
        cfg: TransportConfig,
        injector: Arc<FaultInjector>,
    ) -> Self {
        Self::from_link(ChannelLink::new(devices, Some(injector)), cfg)
    }

    /// One device, one rank.
    pub fn single<D: NdpDevice + Send + 'static>(device: D, cfg: TransportConfig) -> Self {
        Self::new(vec![device], cfg)
    }
}

/// A link picked at run time (see [`RemoteNdp`](crate::wire::RemoteNdp));
/// `D` names the device type the endpoint was built around.
pub struct DynLink<D> {
    inner: Box<dyn Link>,
    _device: PhantomData<fn() -> D>,
}

impl<D> DynLink<D> {
    /// Erases `link`'s type.
    pub fn new(link: impl Link) -> Self {
        Self {
            inner: Box::new(link),
            _device: PhantomData,
        }
    }
}

impl<D: 'static> Link for DynLink<D> {
    fn vitals(&self) -> &[Arc<RankVitals>] {
        self.inner.vitals()
    }

    fn send(
        &self,
        rank: usize,
        id: u64,
        frame: &Arc<Vec<u8>>,
        pending: &Arc<Pending>,
    ) -> Result<(), LinkFail> {
        self.inner.send(rank, id, frame, pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{HonestNdp, Tamper, TamperingNdp};
    use crate::fault::PlannedFault;
    use crate::keys::SecretKey;
    use crate::protocol::TrustedProcessor;

    fn loaded_endpoint(ranks: usize) -> AsyncEndpoint {
        let mut dev = HonestNdp::new();
        let rows: Vec<u32> = (0..32).collect();
        dev.load(
            0x100,
            secndp_arith::ring::words_to_le_bytes(&rows),
            16,
            None,
        )
        .unwrap();
        AsyncEndpoint::new(vec![dev; ranks], TransportConfig::default())
    }

    impl<L: Link> Endpoint<L> {
        /// Slots in the pending table, settled or not.
        fn slots(&self) -> usize {
            self.pending.lock().slots.len()
        }
    }

    #[test]
    fn submit_wait_round_trip() {
        let ep = loaded_endpoint(2);
        let req = Request::WeightedSum {
            table_addr: 0x100,
            elem_bytes: 4,
            indices: vec![0, 1],
            weights: vec![1, 1],
            with_tag: false,
        };
        let id = ep.submit(&req).unwrap();
        match ep.wait(id).unwrap() {
            Response::Sum { c_res, .. } => {
                assert_eq!(
                    secndp_arith::ring::words_from_le_bytes::<u32>(&c_res),
                    vec![4, 6, 8, 10]
                );
            }
            other => panic!("unexpected reply {other:?}"),
        }
        assert_eq!(ep.in_flight(), 0);
        assert_eq!(ep.slots(), 0);
    }

    #[test]
    fn wait_twice_is_a_typed_error() {
        let ep = loaded_endpoint(1);
        let req = Request::ReadRow {
            table_addr: 0x100,
            row: 0,
        };
        let id = ep.submit(&req).unwrap();
        assert!(ep.wait(id).is_ok());
        // The slot is consumed; a second wait is an error, not a hang.
        assert!(matches!(ep.wait(id), Err(Error::MalformedResponse { .. })));
    }

    #[test]
    fn poll_transitions_none_to_some() {
        let ep = loaded_endpoint(1);
        let req = Request::ReadRow {
            table_addr: 0x100,
            row: 1,
        };
        let id = ep.submit(&req).unwrap();
        // Spin until the worker completes; each poll is non-blocking.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match ep.poll(id) {
                None => {
                    assert!(Instant::now() < deadline, "completion never arrived");
                    std::thread::yield_now();
                }
                Some(r) => {
                    assert!(matches!(r.unwrap(), Response::Row(_)));
                    break;
                }
            }
        }
    }

    #[test]
    fn device_errors_cross_the_transport_typed() {
        let ep = loaded_endpoint(1);
        let req = Request::WeightedSum {
            table_addr: 0xDEAD,
            elem_bytes: 4,
            indices: vec![0],
            weights: vec![1],
            with_tag: false,
        };
        let id = ep.submit(&req).unwrap();
        assert!(matches!(ep.wait(id).unwrap(), Response::Err(1)));
    }

    #[test]
    fn inline_link_serves_on_the_callers_thread() {
        let mut dev = HonestNdp::new();
        dev.load(0x1, vec![7u8; 32], 16, None).unwrap();
        let ep = Endpoint::from_link(InlineLink::new(dev), TransportConfig::default());
        let id = ep
            .submit(&Request::ReadRow {
                table_addr: 0x1,
                row: 1,
            })
            .unwrap();
        // Settled before `submit` returned: no worker, no queue.
        assert_eq!(ep.in_flight(), 0);
        assert_eq!(ep.poll(id).unwrap().unwrap(), Response::Row(vec![7; 16]));
        assert_eq!(ep.vitals()[0].served(), 1);
    }

    #[test]
    fn stalled_rank_is_detected_and_recovers() {
        let mut dev = HonestNdp::new();
        dev.load(0x1, vec![0u8; 64], 16, None).unwrap();
        // A device that sits on reads for 400 ms against a 50 ms grace:
        // the rank must show as stalled mid-serve and clean afterwards.
        let slow = crate::device::DelayedNdp::new(dev, Duration::from_millis(400));
        let ep = AsyncEndpoint::single(
            slow,
            TransportConfig {
                stall_grace: Duration::from_millis(50),
                timeout: Duration::from_secs(10),
                max_retries: 0,
                ..TransportConfig::default()
            },
        );
        assert!(ep.stalled_ranks().is_empty(), "idle rank must not stall");
        let id = ep
            .submit(&Request::ReadRow {
                table_addr: 0x1,
                row: 0,
            })
            .unwrap();
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(ep.stalled_ranks(), vec![0]);
        assert!(ep.vitals()[0].is_busy());
        ep.wait(id).unwrap();
        assert!(ep.stalled_ranks().is_empty(), "stall clears on completion");
        assert_eq!(ep.vitals()[0].served(), 1);
    }

    #[test]
    fn endpoint_registers_and_unregisters_health_component() {
        let ep = loaded_endpoint(1);
        let name = ep.health_component().to_string();
        assert!(name.starts_with("transport-ep"));
        let monitor = secndp_telemetry::health::monitor();
        assert!(monitor.components().contains(&name));
        drop(ep);
        assert!(
            !monitor.components().contains(&name),
            "dropping the endpoint must unregister its health check"
        );
    }

    #[test]
    fn window_backpressure_caps_in_flight() {
        // One rank, tiny window: submitting more requests than the window
        // must block until completions free slots — and in_flight never
        // exceeds the window.
        let mut dev = HonestNdp::new();
        dev.load(0x1, vec![0u8; 64], 16, None).unwrap();
        let ep = AsyncEndpoint::single(
            dev,
            TransportConfig {
                window: 2,
                ..TransportConfig::default()
            },
        );
        let mut ids = Vec::new();
        for i in 0..8 {
            let id = ep
                .submit(&Request::ReadRow {
                    table_addr: 0x1,
                    row: i % 4,
                })
                .unwrap();
            assert!(ep.in_flight() <= 2, "window violated");
            ids.push(id);
        }
        for id in ids {
            assert!(ep.wait(id).is_ok());
        }
    }

    /// A pipelined batch that fails verification on its first query must
    /// leave no slot behind for the 15 queries it gave up on.
    #[test]
    fn failed_pipelined_batch_leaves_the_table_empty() {
        let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0x1EA4));
        let mut ep = AsyncEndpoint::single(
            TamperingNdp::new(Tamper::FlipResultBit { element: 0, bit: 1 }),
            TransportConfig::default(),
        );
        let pt: Vec<u32> = (0..64).collect();
        let table = cpu.encrypt_table(&pt, 16, 4, 0x2000).unwrap();
        let handle = cpu.publish(&table, &mut ep).unwrap();
        let queries: Vec<(Vec<usize>, Vec<u32>)> = (0..16).map(|q| (vec![q], vec![1])).collect();
        assert!(matches!(
            cpu.weighted_sum_batch_pipelined(&handle, &ep, &queries, true),
            Err(Error::VerificationFailed { .. })
        ));
        assert_eq!(ep.slots(), 0, "abandoned requests must leave the table");
        assert_eq!(ep.in_flight(), 0);
    }

    /// A broadcast whose send fails on one rank still waits out the ranks
    /// it reached, and leaves no slot behind.
    #[test]
    fn failed_broadcast_leaves_the_table_empty() {
        let injector = Arc::new(FaultInjector::new());
        let mut ep = AsyncEndpoint::new_with_faults(
            vec![HonestNdp::new(); 2],
            TransportConfig {
                timeout: Duration::from_millis(50),
                ..TransportConfig::default()
            },
            Arc::clone(&injector),
        );
        let read = Request::ReadRow {
            table_addr: 0x1,
            row: 0,
        };
        // Round-robin: the first read lands on rank 0, the second on rank
        // 1, whose worker crashes on it; the read retries onto rank 0. The
        // broadcast then reaches rank 0 before rank 1's send fails.
        ep.round_trip(&read).unwrap();
        injector.arm(PlannedFault {
            op: 0x7E57,
            rank: 1,
            kind: FaultKind::RankCrash,
        });
        ep.round_trip(&read).unwrap();
        let err = ep.load(0x1, vec![0u8; 32], 16, None).unwrap_err();
        assert!(matches!(err, Error::MalformedResponse { .. }), "{err:?}");
        assert_eq!(ep.slots(), 0, "a partial broadcast must not leak slots");
        assert_eq!(ep.in_flight(), 0);
    }
}
