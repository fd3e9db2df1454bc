//! Layer probes for the traced run: wrappers that time calls into a
//! layer's public trait from the outside. The program itself is unchanged.

use secndp_arith::mersenne::Fq;
use secndp_arith::ring::RingWord;
use secndp_cipher::aes::{Block, BlockCipher};
use secndp_core::device::{NdpDevice, NdpResponse};
use secndp_core::Error;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since a process-wide epoch, comparable across threads.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Time spent inside one layer. Concurrent calls (the pad generator
/// splits large batches across threads) are merged: `wall_ns` is the
/// length of the union of the call intervals, so it compares directly
/// with the caller's elapsed time.
#[derive(Default)]
pub struct Clock {
    /// (calls open now, start of the current busy interval).
    open: Mutex<(u32, u64)>,
    wall_ns: AtomicU64,
    items: AtomicU64,
    /// Start of the first call since the last [`Clock::rearm`].
    first_ns: AtomicU64,
}

#[derive(Clone, Copy, Default)]
pub struct ClockSnap {
    pub wall_ns: u64,
    pub items: u64,
}

impl ClockSnap {
    pub fn since(self, before: Self) -> Self {
        Self {
            wall_ns: self.wall_ns - before.wall_ns,
            items: self.items - before.items,
        }
    }
}

impl Clock {
    pub fn time<T>(&self, items: u64, f: impl FnOnce() -> T) -> T {
        {
            let now = now_ns();
            let mut open = self.open.lock().expect("clock lock");
            if open.0 == 0 {
                open.1 = now;
            }
            open.0 += 1;
            self.first_ns.fetch_min(now, Relaxed);
        }
        let out = f();
        let now = now_ns();
        let mut open = self.open.lock().expect("clock lock");
        open.0 -= 1;
        if open.0 == 0 {
            self.wall_ns.fetch_add(now - open.1, Relaxed);
        }
        self.items.fetch_add(items, Relaxed);
        out
    }

    pub fn snap(&self) -> ClockSnap {
        ClockSnap {
            wall_ns: self.wall_ns.load(Relaxed),
            items: self.items.load(Relaxed),
        }
    }

    pub fn rearm(&self) {
        self.first_ns.store(u64::MAX, Relaxed);
    }

    /// Start of the first call since [`rearm`](Self::rearm), if any.
    pub fn first_ns(&self) -> Option<u64> {
        Some(self.first_ns.load(Relaxed)).filter(|&t| t != u64::MAX)
    }
}

/// `Aes128Fast` (or any cipher) behind a clock. Forwards the batched entry
/// point so the program keeps its interleaved fast path.
pub struct TimedCipher<C> {
    inner: C,
    clock: Arc<Clock>,
}

impl<C> TimedCipher<C> {
    pub fn new(inner: C, clock: Arc<Clock>) -> Self {
        Self { inner, clock }
    }
}

impl<C: BlockCipher> BlockCipher for TimedCipher<C> {
    fn encrypt_block(&self, block: &Block) -> Block {
        self.clock.time(1, || self.inner.encrypt_block(block))
    }

    fn decrypt_block(&self, block: &Block) -> Block {
        self.inner.decrypt_block(block)
    }

    fn key_bytes(&self) -> usize {
        self.inner.key_bytes()
    }

    fn encrypt_blocks_into(&self, blocks: &[Block], out: &mut [Block]) {
        self.clock.time(blocks.len() as u64, || {
            self.inner.encrypt_blocks_into(blocks, out)
        })
    }
}

/// Clocks for one device boundary: weighted sums (items = rows) and table
/// loads (items = bytes).
#[derive(Default)]
pub struct DeviceClocks {
    pub sls: Clock,
    pub load: Clock,
}

/// An [`NdpDevice`] behind optional clocks. Without clocks (the untraced
/// run) every method is a plain forward.
pub struct Timed<D> {
    inner: D,
    clocks: Option<Arc<DeviceClocks>>,
}

impl<D> Timed<D> {
    pub fn new(inner: D, clocks: Option<Arc<DeviceClocks>>) -> Self {
        Self { inner, clocks }
    }
}

impl<D: NdpDevice> NdpDevice for Timed<D> {
    fn load(
        &mut self,
        table_addr: u64,
        ciphertext: Vec<u8>,
        row_bytes: usize,
        tags: Option<Vec<Fq>>,
    ) -> Result<(), Error> {
        match &self.clocks {
            None => self.inner.load(table_addr, ciphertext, row_bytes, tags),
            Some(c) => c.load.time(ciphertext.len() as u64, || {
                self.inner.load(table_addr, ciphertext, row_bytes, tags)
            }),
        }
    }

    fn weighted_sum<W: RingWord>(
        &self,
        table_addr: u64,
        indices: &[usize],
        weights: &[W],
        with_tag: bool,
    ) -> Result<NdpResponse<W>, Error> {
        let call = || {
            self.inner
                .weighted_sum(table_addr, indices, weights, with_tag)
        };
        match &self.clocks {
            None => call(),
            Some(c) => c.sls.time(indices.len() as u64, call),
        }
    }

    fn read_row(&self, table_addr: u64, row: usize) -> Result<Vec<u8>, Error> {
        self.inner.read_row(table_addr, row)
    }
}

/// Every probe of one traced rig.
#[derive(Default)]
pub struct Probes {
    pub aes: Arc<Clock>,
    /// The client's handle on the transport (inline and TCP only: the
    /// pipelined batch takes the async endpoint itself).
    pub client: Arc<DeviceClocks>,
    /// The honest device the transport serves.
    pub server: Arc<DeviceClocks>,
}
