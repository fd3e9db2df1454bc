//! Transport parity: the inline, channel and TCP links sit under one
//! transport core, so the protocol must not be able to tell them apart.
//! Each link is built explicitly (ignoring `SECNDP_TRANSPORT`) and runs
//! the same publish, verified `weighted_sum`, `read_row_verified` and
//! pipelined batch. All three must return identical results, journal the
//! same set of span names, and move the shared `secndp_transport_*` (and
//! wire) counters by identical amounts on every request.
//!
//! This file is its own test binary with a single test, so the global
//! counters move only for the requests made here.

use std::collections::BTreeSet;

use secndp::core::device::HonestNdp;
use secndp::core::net::{NetConfig, TcpEndpoint};
use secndp::core::transport::{Endpoint, InlineLink, Link};
use secndp::core::{AsyncEndpoint, SecretKey, TransportConfig, TrustedProcessor};
use secndp::telemetry::trace;

const ROWS: usize = 16;
const COLS: usize = 8;
const ADDR: u64 = 0x6000;

/// The counters every link must move identically per request.
const SHARED: [&str; 9] = [
    "secndp_transport_submitted_total",
    "secndp_transport_completed_total",
    "secndp_transport_timeouts_total",
    "secndp_transport_failures_total",
    "secndp_transport_retries_total",
    "secndp_transport_late_completions_total",
    "secndp_wire_packets_total",
    "secndp_wire_tx_bytes_total",
    "secndp_wire_rx_bytes_total",
];

fn counters() -> Vec<u64> {
    let snap = secndp::telemetry::global().snapshot();
    SHARED.iter().map(|name| snap.counter_total(name)).collect()
}

/// What one link produced: per-step results and counter deltas, plus the
/// span names journaled under the run's trace.
#[derive(Debug, PartialEq)]
struct Run {
    results: Vec<Vec<Vec<u32>>>,
    deltas: Vec<Vec<u64>>,
    spans: BTreeSet<&'static str>,
}

fn exercise<L: Link>(ep: &mut Endpoint<L>) -> Run {
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0x9A41));
    let pt: Vec<u32> = (0..ROWS * COLS).map(|x| (x * 13 + 5) as u32).collect();
    let table = cpu.encrypt_table(&pt, ROWS, COLS, ADDR).unwrap();
    let batch: Vec<(Vec<usize>, Vec<u32>)> = (0..6)
        .map(|q| (vec![q, (q * 5 + 3) % ROWS], vec![2, 7]))
        .collect();

    let root = trace::span("parity_root");
    let tid = root.trace_id();
    let mut results = Vec::new();
    let mut deltas = Vec::new();
    let mut step = |f: &mut dyn FnMut() -> Vec<Vec<u32>>| {
        let before = counters();
        results.push(f());
        deltas.push(counters().iter().zip(&before).map(|(a, b)| a - b).collect());
    };
    let mut handle = None;
    step(&mut || {
        handle = Some(cpu.publish(&table, ep).unwrap());
        Vec::new()
    });
    let handle = handle.unwrap();
    step(&mut || {
        vec![cpu
            .weighted_sum(&handle, &*ep, &[1, 4, 9], &[3u32, 1, 4], true)
            .unwrap()]
    });
    step(&mut || vec![cpu.read_row_verified::<u32, _>(&handle, &*ep, 7).unwrap()]);
    step(&mut || {
        cpu.weighted_sum_batch_pipelined(&handle, &*ep, &batch, true)
            .unwrap()
    });
    drop(root);

    let spans = trace::journal()
        .snapshot()
        .into_iter()
        .filter(|e| e.trace.0 == tid)
        .map(|e| e.name)
        .collect();
    Run {
        results,
        deltas,
        spans,
    }
}

#[test]
fn inline_channel_and_tcp_links_are_indistinguishable() {
    let cfg = TransportConfig::default();
    let inline = exercise(&mut Endpoint::from_link(
        InlineLink::new(HonestNdp::new()),
        cfg,
    ));
    let channel = exercise(&mut AsyncEndpoint::single(HonestNdp::new(), cfg));
    let tcp =
        exercise(&mut TcpEndpoint::self_hosted(HonestNdp::new(), NetConfig::default()).unwrap());

    // The runs are correct, not merely equal: spot-check the plaintext.
    let pt = |i: usize, j: usize| ((i * COLS + j) * 13 + 5) as u32;
    let want: Vec<u32> = (0..COLS)
        .map(|j| 3 * pt(1, j) + pt(4, j) + 4 * pt(9, j))
        .collect();
    assert_eq!(inline.results[1], vec![want]);
    assert_eq!(
        inline.results[2],
        vec![(0..COLS).map(|j| pt(7, j)).collect::<Vec<_>>()]
    );
    assert_eq!(inline.results[3].len(), 6);

    for (name, run) in [("channel", &channel), ("tcp", &tcp)] {
        assert_eq!(
            run.results, inline.results,
            "{name} results differ from inline"
        );
        assert_eq!(
            run.spans, inline.spans,
            "{name} span names differ from inline"
        );
        assert_eq!(
            run.deltas, inline.deltas,
            "{name} moved the shared counters differently (order: {SHARED:?})"
        );
    }
    if cfg!(feature = "telemetry") {
        assert!(inline.spans.contains("ndp_serve"), "{:?}", inline.spans);
        // One request per step (publish broadcasts to the single rank),
        // six for the pipelined batch — all completed, none lost.
        let submitted: Vec<u64> = inline.deltas.iter().map(|d| d[0]).collect();
        let completed: Vec<u64> = inline.deltas.iter().map(|d| d[1]).collect();
        assert_eq!(submitted, vec![1, 1, 1, 6]);
        assert_eq!(completed, submitted);
    }
}
