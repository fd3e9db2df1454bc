//! Acceptance tests for the deterministic fault-injection harness.
//!
//! The masked-or-detected invariant, end to end: every fault injected
//! into the device path (data corruption, tag forgery, stale replays),
//! the transport path (drops, duplicates, malformed frames, crashes) or
//! the trusted side (pad-cache corruption) must leave the query either
//! *correct* or *failed with a typed error* — never silently wrong.
//!
//! Also covers the satellites: every [`Tamper`] arm now fires on plain
//! row reads (demonstrating the unverified-read blind spot) and is caught
//! by [`TrustedProcessor::read_row_verified`]; retry semantics under
//! injected faults (idempotent requests fail over, `Load` never retries).

use std::sync::Arc;
use std::time::Duration;

use secndp::cipher::{CounterBlock, Domain};
use secndp::core::device::{Tamper, TamperingNdp};
use secndp::core::fault::{
    FaultKind, FaultPlan, FaultSel, InvariantChecker, Outcome, PlannedFault, QueryRecord,
};
use secndp::core::{
    AsyncEndpoint, Error, FaultInjector, FaultyNdp, HonestNdp, SecretKey, TransportConfig,
    TrustedProcessor,
};
use secndp::telemetry::audit::audit_log;
use secndp::telemetry::faultlog::fault_log;
use secndp::telemetry::trace;

const ROWS: usize = 4;
const COLS: usize = 4;
const ADDR: u64 = 0x9000;

fn plaintext() -> Vec<u32> {
    (1..=(ROWS * COLS) as u32).collect()
}

fn ground_truth(pt: &[u32], idx: &[usize], w: &[u32]) -> Vec<u32> {
    let mut out = vec![0u32; COLS];
    for (&i, &a) in idx.iter().zip(w) {
        for (j, o) in out.iter_mut().enumerate() {
            *o = o.wrapping_add(a.wrapping_mul(pt[i * COLS + j]));
        }
    }
    out
}

/// Satellite 1: every tamper arm corrupts plain row reads *silently* —
/// and the verified read path turns each one into `VerificationFailed`.
#[test]
fn every_tamper_arm_is_silent_on_plain_reads_but_caught_verified() {
    let pt = plaintext();
    let row0: Vec<u32> = pt[..COLS].to_vec();
    for tamper in [
        Tamper::FlipResultBit { element: 0, bit: 3 },
        Tamper::SwapFirstRow { with: 1 },
        Tamper::ZeroResult,
        Tamper::CorruptStoredRow { row: 0 },
    ] {
        let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0xBAD));
        let mut dev = TamperingNdp::new(tamper);
        let table = cpu.encrypt_table(&pt, ROWS, COLS, ADDR).unwrap();
        let handle = cpu.publish(&table, &mut dev).unwrap();

        // The blind spot: an unverified read decrypts whatever ciphertext
        // the device chose to return — wrong data, no error.
        let read: Vec<u32> = cpu.read_row(&handle, &dev, 0).unwrap();
        assert_ne!(
            read, row0,
            "{tamper:?} should corrupt the plain read silently"
        );

        // The fix: the verified read carries a combinable tag, so the
        // same device is caught red-handed.
        assert!(
            matches!(
                cpu.read_row_verified::<u32, _>(&handle, &dev, 0),
                Err(Error::VerificationFailed { .. })
            ),
            "{tamper:?} must fail the verified read"
        );
    }

    // ForgeTag is the inverse shape: plain reads pass through untouched
    // (a raw row has no tag to forge), but the verified read still fails.
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0xBAD));
    let mut dev = TamperingNdp::new(Tamper::ForgeTag);
    let table = cpu.encrypt_table(&pt, ROWS, COLS, ADDR).unwrap();
    let handle = cpu.publish(&table, &mut dev).unwrap();
    assert_eq!(cpu.read_row::<u32, _>(&handle, &dev, 0).unwrap(), row0);
    assert!(matches!(
        cpu.read_row_verified::<u32, _>(&handle, &dev, 0),
        Err(Error::VerificationFailed { .. })
    ));
}

/// Data-class faults injected by `FaultyNdp` are all detected by
/// verification, journaled under the query's trace, and audited in the
/// same trace.
#[test]
fn faulty_ndp_data_faults_are_detected_and_audited() {
    const OP_BASE: u64 = 0xA100_0000;
    let pt = plaintext();
    let injector = Arc::new(FaultInjector::new());
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0xDA7A));
    let mut dev = FaultyNdp::new(HonestNdp::new(), Arc::clone(&injector), 0);
    let table = cpu.encrypt_table(&pt, ROWS, COLS, ADDR).unwrap();
    let handle = cpu.publish(&table, &mut dev).unwrap();

    for (i, kind) in [
        FaultKind::FlipResponseBit { element: 1, bit: 7 },
        FaultKind::SwapValue { offset: 3 },
        FaultKind::SwapTag,
        FaultKind::ZeroResult,
    ]
    .into_iter()
    .enumerate()
    {
        let op = OP_BASE + i as u64;
        injector.arm(PlannedFault { op, rank: 0, kind });
        let sp = trace::span("fault_test_query");
        let my_trace = trace::current().trace.0;
        let res = cpu.weighted_sum::<u32, _>(&handle, &dev, &[0, 1], &[3, 2], true);
        drop(sp);
        assert!(
            matches!(res, Err(Error::VerificationFailed { .. })),
            "{kind:?} must be caught by verification, got {res:?}"
        );
        let journaled = fault_log().snapshot();
        let rec = journaled
            .iter()
            .find(|r| r.op == op)
            .unwrap_or_else(|| panic!("{kind:?} was not journaled"));
        assert_eq!(rec.kind, kind.name());
        // Trace coupling and audit events only exist with telemetry
        // compiled in; the journal itself is unconditional.
        if cfg!(feature = "telemetry") {
            assert_eq!(rec.trace.0, my_trace, "journal must carry the query trace");
            assert!(
                audit_log().snapshot().iter().any(|e| e.trace.0 == my_trace),
                "{kind:?} detection must be audited in the same trace"
            );
        }
    }

    // Stale replay with no prior image is served fresh → masked, correct.
    injector.arm(PlannedFault {
        op: OP_BASE + 10,
        rank: 0,
        kind: FaultKind::ReplayStale,
    });
    let res = cpu
        .weighted_sum::<u32, _>(&handle, &dev, &[0, 1], &[3, 2], true)
        .unwrap();
    assert_eq!(res, ground_truth(&pt, &[0, 1], &[3, 2]));
    let rec = fault_log()
        .snapshot()
        .into_iter()
        .find(|r| r.op == OP_BASE + 10)
        .expect("fresh-serve replay still journaled");
    assert_eq!(rec.detail, "no stale image; served fresh");

    // After a re-encryption bumps the version, a stale replay serves the
    // previous image — pads no longer line up, verification fires.
    let table2 = cpu.reencrypt_table(&table, &pt).unwrap();
    let handle2 = cpu.publish(&table2, &mut dev).unwrap();
    injector.arm(PlannedFault {
        op: OP_BASE + 11,
        rank: 0,
        kind: FaultKind::ReplayStale,
    });
    assert!(matches!(
        cpu.weighted_sum::<u32, _>(&handle2, &dev, &[0, 1], &[3, 2], true),
        Err(Error::VerificationFailed { .. })
    ));
    let _ = handle;
}

/// Host-class fault: corrupting a cached OTP pad on the *trusted* side is
/// outside SecNDP's adversary model but inside its safety argument — the
/// wrong pad yields a wrong reconstruction, which verification flags.
#[test]
fn pad_cache_corruption_is_detected_by_verification() {
    let pt = plaintext();
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0xCAC4E));
    // The suite also runs with SECNDP_PAD_CACHE_BLOCKS=0; force a real
    // cache so the corruption hook has something to poison.
    cpu.set_pad_cache_blocks(256);
    let mut dev = HonestNdp::new();
    let table = cpu.encrypt_table(&pt, ROWS, COLS, ADDR).unwrap();
    let handle = cpu.publish(&table, &mut dev).unwrap();

    // Warm the cache, then poison the data pad of row 0's first block.
    let clean = cpu
        .weighted_sum::<u32, _>(&handle, &dev, &[0, 1], &[3, 2], true)
        .unwrap();
    assert_eq!(clean, ground_truth(&pt, &[0, 1], &[3, 2]));
    let counter = CounterBlock::new(Domain::Data, handle.layout().row_addr(0), handle.version());
    assert!(
        cpu.pad_cache().corrupt(counter, 0x5A),
        "warm cache must contain row 0's pad block"
    );
    assert!(matches!(
        cpu.weighted_sum::<u32, _>(&handle, &dev, &[0, 1], &[3, 2], true),
        Err(Error::VerificationFailed { .. })
    ));
    // Repair (XOR is an involution) and the same query verifies again.
    assert!(cpu.pad_cache().corrupt(counter, 0x5A));
    assert_eq!(
        cpu.weighted_sum::<u32, _>(&handle, &dev, &[0, 1], &[3, 2], true)
            .unwrap(),
        clean
    );
}

fn chaos_endpoint(ranks: usize, injector: &Arc<FaultInjector>) -> AsyncEndpoint {
    AsyncEndpoint::new_with_faults(
        FaultyNdp::fleet(HonestNdp::new(), ranks, Arc::clone(injector)),
        TransportConfig {
            timeout: Duration::from_millis(150),
            max_retries: 3,
            stall_grace: Duration::from_millis(40),
            ..TransportConfig::default()
        },
        Arc::clone(injector),
    )
}

/// Satellite 4a: an idempotent request whose reply is dropped is retried
/// onto a healthy rank and still verifies — the fault is masked.
#[test]
fn idempotent_requests_retry_past_dropped_replies() {
    const OP: u64 = 0xA200_0000;
    let pt = plaintext();
    let injector = Arc::new(FaultInjector::new());
    let mut ep = chaos_endpoint(2, &injector);
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0xD20));
    let table = cpu.encrypt_table(&pt, ROWS, COLS, ADDR).unwrap();
    let handle = cpu.publish(&table, &mut ep).unwrap();

    injector.arm(PlannedFault {
        op: OP,
        rank: 0,
        kind: FaultKind::DropReply,
    });
    // The first reply is eaten; only the deadline-driven retry onto the
    // other rank can produce this (correct, verified) result.
    let res = cpu
        .weighted_sum::<u32, _>(&handle, &ep, &[0, 1], &[3, 2], true)
        .unwrap();
    assert_eq!(res, ground_truth(&pt, &[0, 1], &[3, 2]));
    assert!(
        fault_log().snapshot().iter().any(|r| r.op == OP),
        "dropped reply must be journaled"
    );
}

/// Satellite 4b: `Load` is never retried — when its reply is dropped the
/// timeout surfaces with `attempts: 1`, proving no re-send happened.
#[test]
fn load_is_never_retried_even_when_its_reply_is_dropped() {
    const OP: u64 = 0xA300_0000;
    let pt = plaintext();
    let injector = Arc::new(FaultInjector::new());
    let mut ep = chaos_endpoint(1, &injector);
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0xD21));
    let table = cpu.encrypt_table(&pt, ROWS, COLS, ADDR).unwrap();

    injector.arm(PlannedFault {
        op: OP,
        rank: 0,
        kind: FaultKind::DropReply,
    });
    match cpu.publish(&table, &mut ep) {
        Err(Error::DeviceTimeout { attempts, .. }) => {
            assert_eq!(attempts, 1, "Load must never be re-sent");
        }
        other => panic!("dropped Load reply must time out, got {other:?}"),
    }
    // The endpoint is still serviceable: a clean publish goes through.
    assert!(cpu.publish(&table, &mut ep).is_ok());
}

/// Satellite 4c: a crashed rank degrades capacity, not correctness —
/// idempotent queries fail over to the surviving rank, while a `Load`
/// (which must reach *every* replica) surfaces a typed error.
#[test]
fn crashed_rank_fails_over_queries_but_fails_loads_typed() {
    const OP: u64 = 0xA400_0000;
    let pt = plaintext();
    let injector = Arc::new(FaultInjector::new());
    let mut ep = chaos_endpoint(2, &injector);
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0xD22));
    let table = cpu.encrypt_table(&pt, ROWS, COLS, ADDR).unwrap();
    let handle = cpu.publish(&table, &mut ep).unwrap();

    injector.arm(PlannedFault {
        op: OP,
        rank: 0,
        kind: FaultKind::RankCrash,
    });
    // This query's worker exits without replying; the retry lands on the
    // survivor. Subsequent queries fail over at send time (no timeout).
    for _ in 0..3 {
        let res = cpu
            .weighted_sum::<u32, _>(&handle, &ep, &[0, 1], &[3, 2], true)
            .unwrap();
        assert_eq!(res, ground_truth(&pt, &[0, 1], &[3, 2]));
    }
    // A broadcast Load cannot fail over — the dead rank must surface.
    let table2 = cpu.reencrypt_table(&table, &pt).unwrap();
    match cpu.publish(&table2, &mut ep) {
        Err(Error::MalformedResponse { .. }) | Err(Error::DeviceTimeout { .. }) => {}
        other => panic!("Load to a crashed rank must fail typed, got {other:?}"),
    }
}

/// Tentpole, miniature: a seeded chaos soak over the concurrent transport
/// with the full reconciliation — every injected fault masked or
/// detected, zero silent corruptions, and the journal joins queries by
/// op index and trace id.
#[test]
fn mini_soak_invariant_holds_under_mixed_faults() {
    const OP_BASE: u64 = 0xFA00_0000;
    const OPS: u64 = 120;
    let pt = plaintext();
    let injector = Arc::new(FaultInjector::new());
    let ranks = 3;
    let mut ep = chaos_endpoint(ranks, &injector);
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0x50AC));
    let table = cpu.encrypt_table(&pt, ROWS, COLS, ADDR).unwrap();
    let handle = cpu.publish(&table, &mut ep).unwrap();

    // High rate so 120 ops exercise plenty of faults; no stalls/crashes
    // (covered above) so the mini-soak stays fast and rank capacity
    // constant; no pad-cache faults (host-side loop covered above).
    let plan = FaultPlan {
        rate_permille: 150,
        mix: vec![
            FaultSel::Flip,
            FaultSel::Swap,
            FaultSel::SwapTag,
            FaultSel::Stale,
            FaultSel::Zero,
            FaultSel::Drop,
            FaultSel::Duplicate,
            FaultSel::Malformed,
        ],
        ranks: ranks as u32,
        ..FaultPlan::new(0xC0FFEE)
    };

    let mut queries: Vec<QueryRecord> = Vec::new();
    let mut lcg = 0x1234_5678u64;
    let mut next = move |bound: u64| {
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (lcg >> 33) % bound
    };
    for i in 0..OPS {
        let op = OP_BASE + i;
        if let Some(f) = plan.fault_for(i) {
            injector.arm(PlannedFault { op, ..f });
        }
        let k = 1 + next(3) as usize;
        let idx: Vec<usize> = (0..k).map(|_| next(ROWS as u64) as usize).collect();
        let w: Vec<u32> = (0..k).map(|_| 1 + next(9) as u32).collect();
        let sp = trace::span("mini_soak_op");
        let my_trace = trace::current().trace.0;
        let outcome = if i % 3 == 0 {
            // Verified single-row read (travels as a tagged sum).
            match cpu.read_row_verified::<u32, _>(&handle, &ep, idx[0]) {
                Ok(v) if v == pt[idx[0] * COLS..(idx[0] + 1) * COLS] => Outcome::Correct,
                Ok(_) => Outcome::Wrong,
                Err(e) => Outcome::Failed(e),
            }
        } else {
            match cpu.weighted_sum::<u32, _>(&handle, &ep, &idx, &w, true) {
                Ok(v) if v == ground_truth(&pt, &idx, &w) => Outcome::Correct,
                Ok(_) => Outcome::Wrong,
                Err(e) => Outcome::Failed(e),
            }
        };
        // An armed fault the op never consumed (e.g. the error path
        // returned before the device saw the frame) must not leak into
        // the next op.
        injector.disarm();
        queries.push(QueryRecord {
            op,
            trace: my_trace,
            outcome,
        });
        drop(sp);
    }
    drop(ep); // joins workers: all completions land before reconciling

    let faults: Vec<_> = fault_log()
        .snapshot()
        .into_iter()
        .filter(|r| (OP_BASE..OP_BASE + OPS).contains(&r.op))
        .collect();
    assert!(
        faults.len() > 5,
        "rate 150 permille over {OPS} ops should inject plenty, got {}",
        faults.len()
    );
    let report = InvariantChecker::new(plan.seed).check(&faults, &queries, &audit_log().snapshot());
    assert!(
        report.ok(),
        "invariant violated:\n{}\nschedule:\n{}",
        report.violations.join("\n"),
        plan.render_schedule(OPS)
    );
    assert_eq!(report.masked + report.detected, report.injected);
    assert_eq!(report.silent_corruptions, 0);
}
