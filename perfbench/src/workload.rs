//! The three workloads: set-up, the closed-loop timed phase, and the
//! correctness and tamper gates.

use crate::inputs::{self, Digest, Query, Rng, RowDist};
use crate::probes::{now_ns, ClockSnap, Probes, Timed};
use secndp_cipher::aes::BlockCipher;
use secndp_cipher::PadCacheStats;
use secndp_core::device::{HonestNdp, NdpDevice, Tamper, TamperingNdp};
use secndp_core::wire::RemoteNdp;
use secndp_core::{
    AsyncEndpoint, EncryptedTable, Error, NetConfig, TableHandle, TcpEndpoint, TransportConfig,
    TrustedProcessor,
};
use std::time::{Duration, Instant};

/// Every table is `u32` × 64 columns: 256-byte rows, 16 data pad blocks
/// plus one tag block per row.
pub const COLS: usize = 64;
pub const BLOCKS_PER_ROW: u64 = (COLS * 4 / 16) as u64 + 1;
const BASE_ADDR: u64 = 0x40_0000;

#[derive(Clone, Copy, PartialEq)]
pub enum Transport {
    /// `RemoteNdp::inline`: every frame is encoded, served on the caller's
    /// thread and decoded.
    Inline,
    /// `TcpEndpoint::self_hosted`: loopback socket, pool 1, one rank.
    Tcp,
    /// `AsyncEndpoint::single`: one rank worker, pipelined batches.
    Async,
}

pub struct Spec {
    pub name: &'static str,
    pub rows: usize,
    pub pf: usize,
    pub zipf: Option<f64>,
    pub transport: Transport,
    /// Queries per read op (one `weighted_sum`, or one pipelined batch).
    pub batch: usize,
    /// Every `n`-th op rewrites the table instead of reading it.
    pub update_every: Option<u64>,
    /// Ops between correctness checks and CPU-clock reads (~50 ms).
    pub chunk: usize,
}

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "sls_hot_pf80_inline",
        rows: 1024,
        pf: 80,
        zipf: Some(0.8),
        transport: Transport::Inline,
        batch: 1,
        update_every: None,
        chunk: 512,
    },
    Spec {
        name: "sls_cold_pf10_tcp",
        rows: 65_536,
        pf: 10,
        zipf: None,
        transport: Transport::Tcp,
        batch: 1,
        update_every: None,
        chunk: 512,
    },
    Spec {
        name: "sls_update_pf40_async",
        rows: 4096,
        pf: 40,
        zipf: Some(0.8),
        transport: Transport::Async,
        batch: 32,
        update_every: Some(8),
        chunk: 16,
    },
];

/// Seed-derived inputs: two plaintext images of the table (updates
/// alternate between them), the row distribution and the query streams.
pub struct Inputs {
    pub images: [Vec<u32>; 2],
    pub key: [u8; 16],
    dist: RowDist,
    seed: u64,
}

const STREAM_TABLE: u64 = 1;
const STREAM_DIST: u64 = 2;
const STREAM_OPS: u64 = 3;
const STREAM_TAMPER: u64 = 4;
const STREAM_KEY: u64 = 5;

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64) -> Self {
        let mut t = Rng::stream(seed, STREAM_TABLE);
        let images = [
            inputs::table(&mut t, spec.rows * COLS),
            inputs::table(&mut t, spec.rows * COLS),
        ];
        let mut d = Rng::stream(seed, STREAM_DIST);
        let dist = match spec.zipf {
            Some(a) => RowDist::zipf(spec.rows, a, &mut d),
            None => RowDist::Uniform(spec.rows),
        };
        let mut k = Rng::stream(seed, STREAM_KEY);
        let mut key = [0u8; 16];
        key[..8].copy_from_slice(&k.next_u64().to_le_bytes());
        key[8..].copy_from_slice(&k.next_u64().to_le_bytes());
        Self {
            images,
            key,
            dist,
            seed,
        }
    }

    pub fn ops(&self, spec: &'static Spec) -> OpStream<'_> {
        OpStream {
            spec,
            inputs: self,
            rng: Rng::stream(self.seed, STREAM_OPS),
            n: 0,
        }
    }

    /// Digest of both images, the key and the first 1,024 ops.
    pub fn digest(&self, spec: &'static Spec) -> u64 {
        let mut h = Digest::new();
        for img in &self.images {
            img.iter().for_each(|&x| h.word(x as u64));
        }
        self.key.iter().for_each(|&b| h.word(b as u64));
        let mut ops = self.ops(spec);
        for _ in 0..1024 {
            match ops.next_op() {
                Op::Update => h.word(u64::MAX),
                Op::Read(qs) => {
                    for (idx, w) in qs {
                        idx.iter().for_each(|&i| h.word(i as u64));
                        w.iter().for_each(|&a| h.word(a as u64));
                    }
                }
            }
        }
        h.finish()
    }
}

pub enum Op {
    Read(Vec<Query>),
    Update,
}

pub struct OpStream<'a> {
    spec: &'static Spec,
    inputs: &'a Inputs,
    rng: Rng,
    n: u64,
}

impl OpStream<'_> {
    pub fn next_op(&mut self) -> Op {
        self.n += 1;
        if self
            .spec
            .update_every
            .is_some_and(|k| self.n.is_multiple_of(k))
        {
            return Op::Update;
        }
        Op::Read(
            (0..self.spec.batch)
                .map(|_| inputs::query(&mut self.rng, &self.inputs.dist, self.spec.pf))
                .collect(),
        )
    }
}

/// The client's handle on one transport, built explicitly (never from
/// `SECNDP_TRANSPORT`). `D` is the device the transport serves.
pub enum Link<D: NdpDevice + Send + 'static> {
    Inline(Timed<RemoteNdp<Timed<D>>>),
    Tcp(Timed<TcpEndpoint>),
    Async(AsyncEndpoint),
}

impl<D: NdpDevice + Send + 'static> Link<D> {
    pub fn connect(t: Transport, device: D, probes: Option<&Probes>) -> Result<Self, Failure> {
        let client = probes.map(|p| p.client.clone());
        let served = Timed::new(device, probes.map(|p| p.server.clone()));
        Ok(match t {
            Transport::Inline => Self::Inline(Timed::new(RemoteNdp::inline(served), client)),
            Transport::Tcp => {
                let ep = TcpEndpoint::self_hosted(served, NetConfig::default())
                    .map_err(|e| format!("loopback server: {e}"))?;
                Self::Tcp(Timed::new(ep, client))
            }
            Transport::Async => {
                Self::Async(AsyncEndpoint::single(served, TransportConfig::default()))
            }
        })
    }

    pub fn publish<C: BlockCipher>(
        &mut self,
        cpu: &TrustedProcessor<C>,
        table: &EncryptedTable<u32>,
    ) -> Result<TableHandle, Error> {
        match self {
            Self::Inline(d) => cpu.publish(table, d),
            Self::Tcp(d) => cpu.publish(table, d),
            Self::Async(e) => cpu.publish(table, e),
        }
    }

    /// One read op: a verified `weighted_sum` per query on the blocking
    /// transports, one pipelined batch on the async one.
    pub fn read<C: BlockCipher>(
        &self,
        cpu: &TrustedProcessor<C>,
        h: &TableHandle,
        qs: &[Query],
    ) -> Result<Vec<Vec<u32>>, Error> {
        fn each<C: BlockCipher, E: NdpDevice>(
            cpu: &TrustedProcessor<C>,
            h: &TableHandle,
            dev: &E,
            qs: &[Query],
        ) -> Result<Vec<Vec<u32>>, Error> {
            qs.iter()
                .map(|(idx, w)| cpu.weighted_sum(h, dev, idx, w, true))
                .collect()
        }
        match self {
            Self::Inline(d) => each(cpu, h, d, qs),
            Self::Tcp(d) => each(cpu, h, d, qs),
            Self::Async(e) => cpu.weighted_sum_batch_pipelined(h, e, qs, true),
        }
    }
}

/// A processor, a published table and the link it is served over.
pub struct Rig<C: BlockCipher> {
    pub cpu: TrustedProcessor<C>,
    link: Link<HonestNdp>,
    table: EncryptedTable<u32>,
    /// The image the table held before the last rewrite (stale replay).
    prev: Option<EncryptedTable<u32>>,
    handle: TableHandle,
    /// Which of the two plaintext images is live.
    image: usize,
    spec: &'static Spec,
}

/// Bench-level failure: a gate that did not hold, or set-up that failed.
pub type Failure = String;

impl<C: BlockCipher> Rig<C> {
    /// Key, `encrypt_table`, endpoint start-up, `publish`, and a warm-up
    /// sweep that fills the pad cache.
    pub fn setup(
        spec: &'static Spec,
        inputs: &Inputs,
        cpu: TrustedProcessor<C>,
        probes: Option<&Probes>,
    ) -> Result<Self, Failure> {
        let mut cpu = cpu;
        let table = cpu
            .encrypt_table(&inputs.images[0], spec.rows, COLS, BASE_ADDR)
            .map_err(|e| format!("encrypt_table: {e}"))?;
        let mut link = Link::connect(spec.transport, HonestNdp::new(), probes)?;
        let handle = link
            .publish(&cpu, &table)
            .map_err(|e| format!("publish: {e}"))?;
        let rig = Self {
            cpu,
            link,
            table,
            prev: None,
            handle,
            image: 0,
            spec,
        };
        rig.warm(inputs)?;
        Ok(rig)
    }

    /// Reads every row the pad cache can hold (the whole table when it
    /// fits) once, in PF-sized queries, checking each result.
    fn warm(&self, inputs: &Inputs) -> Result<(), Failure> {
        let spec = self.spec;
        let cache_rows = self.cpu.pad_cache().capacity_blocks() / BLOCKS_PER_ROW as usize;
        let rows: Vec<usize> = (0..spec.rows.min(cache_rows)).collect();
        let sweep: Vec<Query> = rows
            .chunks(spec.pf)
            .map(|c| (c.to_vec(), vec![1u32; c.len()]))
            .collect();
        for qs in sweep.chunks(spec.batch) {
            let got = self
                .link
                .read(&self.cpu, &self.handle, qs)
                .map_err(|e| format!("warm-up read: {e}"))?;
            self.check(inputs, self.image, qs, &got)?;
        }
        Ok(())
    }

    fn check(
        &self,
        inputs: &Inputs,
        image: usize,
        qs: &[Query],
        got: &[Vec<u32>],
    ) -> Result<(), Failure> {
        for (q, r) in qs.iter().zip(got) {
            if *r != inputs::reference(&inputs.images[image], COLS, q) {
                return Err(format!(
                    "correctness gate: verified result differs from the plaintext reference (rows {:?})",
                    &q.0[..q.0.len().min(4)]
                ));
            }
        }
        Ok(())
    }

    /// `reencrypt_table` of the whole region with the other image, then
    /// `publish`. Returns (encrypt ns, publish ns).
    fn update(&mut self, inputs: &Inputs) -> Result<(u64, u64), Error> {
        let next = 1 - self.image;
        let t0 = Instant::now();
        let table = self
            .cpu
            .reencrypt_table(&self.table, &inputs.images[next])?;
        let t1 = Instant::now();
        self.handle = self.link.publish(&self.cpu, &table)?;
        let t2 = Instant::now();
        self.prev = Some(std::mem::replace(&mut self.table, table));
        self.image = next;
        Ok(((t1 - t0).as_nanos() as u64, (t2 - t1).as_nanos() as u64))
    }

    /// Tamper gate: a fixed set of queries over the same transport kind to
    /// a `TamperingNdp` per attack, and to an honest device still holding
    /// the pre-rewrite image (stale replay). Every query must come back
    /// `VerificationFailed`. Returns the number of queries checked.
    pub fn tamper_gate(&self, inputs: &Inputs) -> Result<u64, Failure> {
        let spec = self.spec;
        let swap_row = 0;
        let mut rng = Rng::stream(inputs.seed, STREAM_TAMPER);
        let queries: Vec<Query> = (0..4)
            .map(|_| {
                let mut q = inputs::query(&mut rng, &RowDist::Uniform(spec.rows), spec.pf);
                q.0[0] = 1 + rng.below(spec.rows as u64 - 1) as usize;
                q
            })
            .collect();
        let attacks = [
            Tamper::FlipResultBit { element: 0, bit: 0 },
            Tamper::ForgeTag,
            Tamper::SwapFirstRow { with: swap_row },
        ];
        let mut checked = 0;
        for attack in attacks {
            let link = Link::connect(spec.transport, TamperingNdp::new(attack), None);
            checked += self.expect_rejected(&format!("{attack:?}"), link, &self.table, &queries)?;
        }
        if let Some(stale) = &self.prev {
            let link = Link::connect(spec.transport, HonestNdp::new(), None);
            checked += self.expect_rejected("stale replay", link, stale, &queries)?;
        }
        Ok(checked)
    }

    fn expect_rejected<D: NdpDevice + Send + 'static>(
        &self,
        what: &str,
        link: Result<Link<D>, Failure>,
        image: &EncryptedTable<u32>,
        queries: &[Query],
    ) -> Result<u64, Failure> {
        let mut link = link.map_err(|e| format!("tamper gate ({what}): connect: {e}"))?;
        link.publish(&self.cpu, image)
            .map_err(|e| format!("tamper gate ({what}): publish: {e}"))?;
        for q in queries {
            match link.read(&self.cpu, &self.handle, std::slice::from_ref(q)) {
                Err(Error::VerificationFailed { .. }) => {}
                other => {
                    return Err(format!(
                        "tamper gate ({what}): expected VerificationFailed, got {:?}",
                        other.map(|_| "a verified result")
                    ))
                }
            }
        }
        Ok(queries.len() as u64)
    }
}

/// Process user+sys CPU time in clock ticks (`/proc/self/stat`).
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit_once(')').map_or("", |(_, s)| s);
    let f: Vec<&str> = after.split_whitespace().collect();
    let field = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    // Fields 14 and 15 of stat(5); `after` starts at field 3.
    field(11) + field(12)
}

/// Linux reports CPU times in units of USER_HZ, which is 100 on every
/// mainstream architecture.
pub const TICK_US: f64 = 10_000.0;

/// What one timed phase measured.
#[derive(Default)]
pub struct Phase {
    pub read_ns: Vec<u64>,
    pub update_ns: Vec<u64>,
    pub queries: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Queries ÷ op time of each op-stream chunk (~50 ms).
    pub chunk_qps: Vec<f64>,
    /// Op time ÷ the correctness gate's plaintext time for the same
    /// queries, per op-stream chunk.
    pub chunk_vs_plain: Vec<f64>,
    /// The correctness gate's plaintext time over the op-stream chunks.
    pub plain_ns: u64,
    /// Process CPU ticks spent in op-stream chunks.
    pub cpu_ticks: u64,
    pub peak_rss_mib: f64,
    pub ledger: Ledger,
}

/// Per-layer sums from the traced run.
#[derive(Default)]
pub struct Ledger {
    pub read_op_ns: u64,
    pub call_ns: u64,
    pub device_ns: u64,
    pub aes_read: ClockSnap,
    pub requested_blocks: u64,
    pub cache_read: CacheDelta,
    pub update_op_ns: u64,
    pub encrypt_ns: u64,
    pub publish_ns: u64,
    pub load_ns: u64,
    pub aes_update: ClockSnap,
    pub cache_update: CacheDelta,
    /// Σ |op time − Σ layer self-times| over all ops.
    pub residue_ns: u64,
}

#[derive(Default, Clone, Copy)]
pub struct CacheDelta {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub invalidations: u64,
}

impl CacheDelta {
    fn between(a: PadCacheStats, b: PadCacheStats) -> Self {
        Self {
            hits: b.hits - a.hits,
            misses: b.misses - a.misses,
            evictions: b.evictions - a.evictions,
            invalidations: b.invalidations - a.invalidations,
        }
    }

    fn add(&mut self, o: Self) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.evictions += o.evictions;
        self.invalidations += o.invalidations;
    }
}

fn add_snap(acc: &mut ClockSnap, d: ClockSnap) {
    acc.wall_ns += d.wall_ns;
    acc.items += d.items;
}

/// Self-times of one op must not be negative: clamp them and keep what
/// the clamping added as residue.
fn residue(op_ns: u64, parts: &[i64]) -> u64 {
    let covered: i64 = parts.iter().map(|&p| p.max(0)).sum();
    (covered - op_ns as i64).unsigned_abs()
}

/// Transport availability errors are counted as failed ops. Any other
/// error from the honest device is a program defect (a rejected honest
/// result, a malformed reply) and fails the run.
fn transient(e: &Error) -> bool {
    matches!(
        e,
        Error::DeviceTimeout { .. } | Error::ConnectionLost { .. }
    )
}

/// Runs the workload's op stream closed-loop for `dur` (at least one
/// chunk) on one client thread, adding to `ph`, and checks every verified
/// result against the plaintext reference after each chunk. A mismatch
/// fails the run; it is never counted as a slow op.
pub fn run_phase<C: BlockCipher>(
    rig: &mut Rig<C>,
    inputs: &Inputs,
    ops: &mut OpStream<'_>,
    ph: &mut Phase,
    dur: Duration,
    probes: Option<&Probes>,
) -> Result<(), Failure> {
    let deadline = Instant::now() + dur;
    let mut first = true;
    let spec = rig.spec;
    // (op index in the chunk, live image, verified results) per read.
    let mut outs: Vec<(usize, usize, Vec<Vec<u32>>)> = Vec::new();
    let mut errors = Vec::new();
    while first || Instant::now() < deadline {
        first = false;
        let batch: Vec<Op> = (0..spec.chunk).map(|_| ops.next_op()).collect();
        outs.clear();
        let (mut chunk_q, mut chunk_ns) = (0, 0);
        let cpu0 = cpu_ticks();
        for (i, op) in batch.iter().enumerate() {
            ph.attempted += 1;
            let before = probes.map(|p| Marks::take(p, &rig.cpu));
            let t = Instant::now();
            let result = match op {
                Op::Read(qs) => rig.link.read(&rig.cpu, &rig.handle, qs).map(|r| {
                    let ns = t.elapsed().as_nanos() as u64;
                    if let (Some(p), Some(b)) = (probes, before) {
                        ph.ledger.read(p, &rig.cpu, b, ns, spec, qs);
                    }
                    ph.read_ns.push(ns);
                    ph.queries += qs.len() as u64;
                    chunk_q += qs.len() as u64;
                    outs.push((i, rig.image, r));
                    ns
                }),
                Op::Update => rig.update(inputs).map(|(enc, publ)| {
                    let ns = t.elapsed().as_nanos() as u64;
                    if let (Some(p), Some(b)) = (probes, before) {
                        ph.ledger.update(p, &rig.cpu, b, ns, enc, publ);
                    }
                    ph.update_ns.push(ns);
                    ns
                }),
            };
            match result {
                Ok(ns) => chunk_ns += ns,
                Err(e) if transient(&e) => {
                    ph.failed += 1;
                    errors.push(e);
                }
                Err(e) => {
                    return Err(format!(
                        "correctness gate: an op on the honest device returned {e}"
                    ))
                }
            }
        }
        let cpu_ticks = cpu_ticks() - cpu0;
        // The gate's plaintext weighted sums run on this thread right after
        // the chunk, so they see the same machine speed as its ops.
        let t = Instant::now();
        for (i, image, got) in &outs {
            if let Op::Read(qs) = &batch[*i] {
                rig.check(inputs, *image, qs, got)?;
            }
        }
        let plain_ns = t.elapsed().as_nanos().max(1) as u64;
        if chunk_q > 0 {
            ph.cpu_ticks += cpu_ticks;
            ph.plain_ns += plain_ns;
            ph.chunk_qps
                .push(chunk_q as f64 * 1e9 / chunk_ns.max(1) as f64);
            ph.chunk_vs_plain.push(chunk_ns as f64 / plain_ns as f64);
        }
    }
    if let Some(e) = errors.first() {
        eprintln!("# {} ops failed; first error: {e}", errors.len());
    }
    Ok(())
}

/// Probe readings taken just before an op.
#[derive(Clone, Copy)]
struct Marks {
    t_ns: u64,
    aes: ClockSnap,
    client: ClockSnap,
    server: ClockSnap,
    load: ClockSnap,
    cache: PadCacheStats,
}

impl Marks {
    fn take<C: BlockCipher>(p: &Probes, cpu: &TrustedProcessor<C>) -> Self {
        p.server.sls.rearm();
        Self {
            aes: p.aes.snap(),
            client: p.client.sls.snap(),
            server: p.server.sls.snap(),
            load: p.server.load.snap(),
            cache: cpu.pad_cache().stats(),
            t_ns: now_ns(),
        }
    }
}

impl Ledger {
    /// A read op. Layers: device (served `HonestNdp`), transport hop
    /// (client call − device), AES (cipher wrapper) and the rest of the
    /// trusted side (op − call − AES: planning, cache probes, combine,
    /// verify). A pipelined batch hands the endpoint itself to the
    /// library, so its call window opens at the first device call; the
    /// first request's encode and queue hop then count as trusted time,
    /// and the reconstruction interleaved with later replies as call time.
    fn read<C: BlockCipher>(
        &mut self,
        p: &Probes,
        cpu: &TrustedProcessor<C>,
        b: Marks,
        op_ns: u64,
        spec: &Spec,
        qs: &[Query],
    ) {
        let aes = p.aes.snap().since(b.aes);
        let device = p.server.sls.snap().since(b.server).wall_ns;
        let call = match spec.transport {
            Transport::Async => p
                .server
                .sls
                .first_ns()
                .map_or(0, |first| (b.t_ns + op_ns).saturating_sub(first)),
            _ => p.client.sls.snap().since(b.client).wall_ns,
        };
        self.read_op_ns += op_ns;
        self.call_ns += call;
        self.device_ns += device;
        add_snap(&mut self.aes_read, aes);
        self.cache_read
            .add(CacheDelta::between(b.cache, cpu.pad_cache().stats()));
        self.requested_blocks += qs.iter().map(|q| q.0.len() as u64).sum::<u64>() * BLOCKS_PER_ROW;
        self.residue_ns += residue(
            op_ns,
            &[
                device as i64,
                call as i64 - device as i64,
                aes.wall_ns as i64,
                op_ns as i64 - call as i64 - aes.wall_ns as i64,
            ],
        );
    }

    /// An update op. Layers: `reencrypt_table` (AES included), publish
    /// wire (publish − served load) and the device load.
    fn update<C: BlockCipher>(
        &mut self,
        p: &Probes,
        cpu: &TrustedProcessor<C>,
        b: Marks,
        op_ns: u64,
        enc_ns: u64,
        pub_ns: u64,
    ) {
        let load = p.server.load.snap().since(b.load).wall_ns;
        self.update_op_ns += op_ns;
        self.encrypt_ns += enc_ns;
        self.publish_ns += pub_ns;
        self.load_ns += load;
        add_snap(&mut self.aes_update, p.aes.snap().since(b.aes));
        self.cache_update
            .add(CacheDelta::between(b.cache, cpu.pad_cache().stats()));
        self.residue_ns += residue(
            op_ns,
            &[enc_ns as i64, pub_ns as i64 - load as i64, load as i64],
        );
    }
}

/// Builds a rig and reports how long it took, in seconds.
pub fn timed_setup<C: BlockCipher>(
    spec: &'static Spec,
    inputs: &Inputs,
    make_cpu: &dyn Fn() -> TrustedProcessor<C>,
    probes: Option<&Probes>,
) -> Result<(Rig<C>, f64), Failure> {
    let t = Instant::now();
    let rig = Rig::setup(spec, inputs, make_cpu(), probes)?;
    Ok((rig, t.elapsed().as_secs_f64()))
}
