//! Acceptance tests for the non-blocking NDP transport: the async
//! endpoint must be observationally equivalent to the blocking
//! `RemoteNdp` path (differential check under randomized delays and
//! completion reordering), complete out of order through `poll`, turn an
//! injected device stall into a typed `DeviceTimeout`, transparently
//! retry idempotent requests onto a healthy rank, and never retry the
//! state-mutating `Load`.

use std::time::Duration;

use secndp::arith::mersenne::Fq;
use secndp::arith::ring::RingWord;
use secndp::core::device::{DelayedNdp, NdpResponse, Tamper, TamperingNdp};
use secndp::core::wire::{RemoteNdp, Request};
use secndp::core::{
    AsyncEndpoint, Error, HonestNdp, NdpDevice, SecretKey, TransportConfig, TrustedProcessor,
};

const ROWS: usize = 32;
const COLS: usize = 8;
const ADDR: u64 = 0x7000;

fn plaintext() -> Vec<u32> {
    (0..ROWS * COLS).map(|x| (x * 37 + 11) as u32).collect()
}

/// Deterministic LCG query stream over `ROWS`.
fn queries(n: usize, seed: u64) -> Vec<(Vec<usize>, Vec<u32>)> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize
    };
    (0..n)
        .map(|_| {
            let len = 2 + next() % 6;
            let idx: Vec<usize> = (0..len).map(|_| next() % ROWS).collect();
            let w: Vec<u32> = (0..len).map(|_| (next() % 100) as u32 + 1).collect();
            (idx, w)
        })
        .collect()
}

/// Ground truth computed directly over the plaintext (wrapping ring math).
fn expected(pt: &[u32], idx: &[usize], w: &[u32]) -> Vec<u32> {
    let mut out = vec![0u32; COLS];
    for (&i, &a) in idx.iter().zip(w) {
        for (j, o) in out.iter_mut().enumerate() {
            *o = o.wrapping_add(a.wrapping_mul(pt[i * COLS + j]));
        }
    }
    out
}

/// The async endpoint (4 jittered ranks, genuinely reordering
/// completions) must return exactly what the blocking in-process wire
/// path returns — which must equal the plaintext ground truth.
#[test]
fn async_endpoint_matches_blocking_path_differentially() {
    let pt = plaintext();
    let qs = queries(24, 0xD1FF);

    // Blocking leg: classic RemoteNdp over an in-process device.
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0xA51));
    let mut ndp = RemoteNdp::inline(HonestNdp::new());
    let table = cpu.encrypt_table(&pt, ROWS, COLS, ADDR).unwrap();
    let handle = cpu.publish(&table, &mut ndp).unwrap();
    let blocking = cpu.weighted_sum_batch(&handle, &ndp, &qs, true).unwrap();

    // Pipelined leg: 4 ranks with distinct jitter streams, so replies
    // genuinely complete out of submission order.
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0xA52));
    let ranks: Vec<DelayedNdp<HonestNdp>> = (0..4)
        .map(|r| {
            DelayedNdp::with_jitter(
                HonestNdp::new(),
                Duration::from_micros(50),
                Duration::from_micros(900),
                0xBEEF ^ ((r as u64) << 17),
            )
        })
        .collect();
    let mut endpoint = AsyncEndpoint::new(
        ranks,
        TransportConfig {
            window: 8,
            timeout: Duration::from_secs(10),
            ..TransportConfig::default()
        },
    );
    let table = cpu.encrypt_table(&pt, ROWS, COLS, ADDR).unwrap();
    let handle = cpu.publish(&table, &mut endpoint).unwrap();
    let pipelined = cpu
        .weighted_sum_batch_pipelined(&handle, &endpoint, &qs, true)
        .unwrap();

    // Single-query async leg: one rank, built explicitly.
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0xA53));
    let mut remote = AsyncEndpoint::single(
        DelayedNdp::with_jitter(
            HonestNdp::new(),
            Duration::from_micros(50),
            Duration::from_micros(500),
            0x5A5A,
        ),
        TransportConfig::default(),
    );
    let table = cpu.encrypt_table(&pt, ROWS, COLS, ADDR).unwrap();
    let handle = cpu.publish(&table, &mut remote).unwrap();

    for (qi, (idx, w)) in qs.iter().enumerate() {
        let want = expected(&pt, idx, w);
        assert_eq!(blocking[qi], want, "blocking leg diverged on query {qi}");
        assert_eq!(pipelined[qi], want, "pipelined leg diverged on query {qi}");
        let one = cpu.weighted_sum(&handle, &remote, idx, w, true).unwrap();
        assert_eq!(one, want, "async single-query leg diverged on query {qi}");
    }
}

/// A fast rank's reply must be redeemable through `poll` while a slow
/// rank's earlier request is still in flight — completion order is
/// decoupled from submission order.
#[test]
fn poll_redeems_completions_out_of_submission_order() {
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0x00D));
    let slow = DelayedNdp::new(HonestNdp::new(), Duration::from_millis(300));
    let fast = DelayedNdp::new(HonestNdp::new(), Duration::ZERO);
    let mut endpoint = AsyncEndpoint::new(
        vec![slow, fast],
        TransportConfig {
            timeout: Duration::from_secs(10),
            ..TransportConfig::default()
        },
    );
    let pt = plaintext();
    let table = cpu.encrypt_table(&pt, ROWS, COLS, ADDR).unwrap();
    cpu.publish(&table, &mut endpoint).unwrap();

    let req = |rows: [u64; 2]| Request::WeightedSum {
        table_addr: ADDR,
        elem_bytes: 4,
        indices: rows.to_vec(),
        weights: vec![1, 1],
        with_tag: false,
    };
    // Round-robin: the first submit lands on the slow rank, the second
    // on the fast one.
    let a = endpoint.submit(&req([0, 1])).unwrap();
    let b = endpoint.submit(&req([2, 3])).unwrap();

    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let b_result = loop {
        if let Some(r) = endpoint.poll(b) {
            break r;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "fast rank never completed"
        );
        std::thread::sleep(Duration::from_micros(200));
    };
    b_result.unwrap();
    // The earlier request (slow rank) must still be pending when the
    // later one has already settled.
    assert!(
        endpoint.poll(a).is_none(),
        "slow rank finished before its 300ms delay — completion order not exercised"
    );
    endpoint.wait(a).unwrap();
}

/// An injected device stall must surface as `Error::DeviceTimeout` after
/// the per-request deadline, with the timeout counter incremented.
#[test]
fn stalled_rank_times_out_with_typed_error() {
    // With telemetry compiled out the counters are no-op stubs, so the
    // counter movement is only asserted when the feature is on.
    #[cfg(feature = "telemetry")]
    let (timeouts, before) = {
        let c = secndp::telemetry::counter!(
            "secndp_transport_timeouts_total",
            "Async-transport requests whose per-request deadline expired."
        );
        (c, c.get())
    };

    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0xDEAD));
    let stalled = DelayedNdp::new(HonestNdp::new(), Duration::from_millis(500));
    let mut endpoint = AsyncEndpoint::new(
        vec![stalled],
        TransportConfig {
            timeout: Duration::from_millis(40),
            max_retries: 0,
            ..TransportConfig::default()
        },
    );
    let pt = plaintext();
    let table = cpu.encrypt_table(&pt, ROWS, COLS, ADDR).unwrap();
    // Load passes straight through `DelayedNdp`, so publish succeeds;
    // only the data path stalls.
    let handle = cpu.publish(&table, &mut endpoint).unwrap();

    let err = cpu
        .weighted_sum(&handle, &endpoint, &[0], &[1u32], true)
        .unwrap_err();
    match err {
        Error::DeviceTimeout { attempts, .. } => assert_eq!(attempts, 1),
        other => panic!("expected DeviceTimeout, got {other:?}"),
    }
    #[cfg(feature = "telemetry")]
    assert!(timeouts.get() > before, "timeout counter did not move");
}

/// After the slow rank misses its deadline, the retry must land on the
/// healthy rank and the verified result must still check out — and the
/// retry counter must record the re-send.
#[test]
fn retry_moves_to_a_healthy_rank_and_still_verifies() {
    #[cfg(feature = "telemetry")]
    let (retries, before) = {
        let c = secndp::telemetry::counter!(
            "secndp_transport_retries_total",
            "Idempotent async-transport requests re-sent after a timeout."
        );
        (c, c.get())
    };

    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0x2E7));
    let slow = DelayedNdp::new(HonestNdp::new(), Duration::from_millis(500));
    let fast = DelayedNdp::new(HonestNdp::new(), Duration::ZERO);
    let mut endpoint = AsyncEndpoint::new(
        vec![slow, fast],
        TransportConfig {
            timeout: Duration::from_millis(60),
            max_retries: 2,
            ..TransportConfig::default()
        },
    );
    let pt = plaintext();
    let table = cpu.encrypt_table(&pt, ROWS, COLS, ADDR).unwrap();
    let handle = cpu.publish(&table, &mut endpoint).unwrap();

    // Round-robin sends the first request to the slow rank; the deadline
    // expires and the retry lands on the fast rank.
    let res = cpu
        .weighted_sum(&handle, &endpoint, &[0, 4], &[3u32, 2], true)
        .unwrap();
    assert_eq!(res, expected(&pt, &[0, 4], &[3, 2]));
    #[cfg(feature = "telemetry")]
    assert!(retries.get() > before, "retry counter did not move");
}

/// Wraps a device so that `load` stalls — `weighted_sum`/`read_row` pass
/// straight through. Used to prove `Load` is never retried.
#[derive(Debug)]
struct SlowLoadNdp {
    inner: HonestNdp,
    delay: Duration,
}

impl NdpDevice for SlowLoadNdp {
    fn load(
        &mut self,
        table_addr: u64,
        ciphertext: Vec<u8>,
        row_bytes: usize,
        tags: Option<Vec<Fq>>,
    ) -> Result<(), Error> {
        std::thread::sleep(self.delay);
        self.inner.load(table_addr, ciphertext, row_bytes, tags)
    }

    fn weighted_sum<W: RingWord>(
        &self,
        table_addr: u64,
        indices: &[usize],
        weights: &[W],
        with_tag: bool,
    ) -> Result<NdpResponse<W>, Error> {
        self.inner
            .weighted_sum(table_addr, indices, weights, with_tag)
    }

    fn read_row(&self, table_addr: u64, row: usize) -> Result<Vec<u8>, Error> {
        self.inner.read_row(table_addr, row)
    }
}

/// A stalled `Load` must time out on its *first* attempt — never be
/// re-sent, even with retries enabled — because re-sending a load after
/// a timeout could overwrite a newer table image on the device.
#[test]
fn load_is_never_retried() {
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0x10AD));
    let device = SlowLoadNdp {
        inner: HonestNdp::new(),
        delay: Duration::from_millis(400),
    };
    let mut endpoint = AsyncEndpoint::new(
        vec![device],
        TransportConfig {
            timeout: Duration::from_millis(40),
            max_retries: 3, // retries are on; Load must still not use them
            ..TransportConfig::default()
        },
    );
    let pt = plaintext();
    let table = cpu.encrypt_table(&pt, ROWS, COLS, ADDR).unwrap();
    let err = cpu.publish(&table, &mut endpoint).unwrap_err();
    match err {
        Error::DeviceTimeout { attempts, .. } => {
            assert_eq!(attempts, 1, "Load was retried {} times", attempts - 1)
        }
        other => panic!("expected DeviceTimeout, got {other:?}"),
    }
}

/// The full end-to-end protocol — publish, verified single and batched
/// summations, and tamper detection — must behave identically over the
/// async (channel-linked) endpoint.
#[test]
fn end_to_end_protocol_over_async_endpoint() {
    let pt = plaintext();
    let qs = queries(8, 0xE2E);

    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0xE7E));
    let mut ndp = AsyncEndpoint::single(HonestNdp::new(), TransportConfig::default());
    let table = cpu.encrypt_table(&pt, ROWS, COLS, ADDR).unwrap();
    let handle = cpu.publish(&table, &mut ndp).unwrap();

    let res = cpu
        .weighted_sum(&handle, &ndp, &[1, 2], &[5u32, 7], true)
        .unwrap();
    assert_eq!(res, expected(&pt, &[1, 2], &[5, 7]));

    let batch = cpu.weighted_sum_batch(&handle, &ndp, &qs, true).unwrap();
    for (qi, (idx, w)) in qs.iter().enumerate() {
        assert_eq!(batch[qi], expected(&pt, idx, w));
    }

    // Tampering must still be caught through the async wire.
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0xBAD2));
    let mut evil = AsyncEndpoint::single(
        TamperingNdp::new(Tamper::FlipResultBit { element: 0, bit: 5 }),
        TransportConfig::default(),
    );
    let table = cpu.encrypt_table(&pt, ROWS, COLS, 0x9000).unwrap();
    let handle = cpu.publish(&table, &mut evil).unwrap();
    let err = cpu
        .weighted_sum(&handle, &evil, &[0, 1], &[1u32, 1], true)
        .unwrap_err();
    assert!(matches!(
        err,
        Error::VerificationFailed { table_addr: 0x9000 }
    ));
}
