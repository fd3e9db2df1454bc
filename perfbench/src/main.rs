//! Wall-clock benchmark of verified SecNDP offload.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sls_hot_pf80_inline --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One client thread drives real verified queries through the public API
//! in a closed loop (the next op is sent when the previous one returned,
//! as a TEE thread waiting on its reply does). With `--trace 0` the last
//! stdout line carries the end-to-end metrics; with `--trace 1` it carries
//! the per-layer metrics of a separate run with layer probes attached.
//! Earlier `#` lines give the run metadata, every metric with its unit and
//! sample count, and the per-layer breakdown. See `README.md`.

mod inputs;
mod probes;
mod workload;

use probes::{Probes, TimedCipher};
use secndp_cipher::aes::BlockCipher;
use secndp_cipher::Aes128Fast;
use secndp_core::{ChecksumScheme, SecretKey, TrustedProcessor, VersionManager};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{run_phase, timed_setup, Failure, Inputs, Phase, Rig, Spec, SPECS};

/// The paper's pipelined AES engine (§VI-B, Table II).
const PAPER_AES_GBPS: f64 = 111.3;

/// Largest `|op time − Σ layer self-times|` the traced run accepts, as a
/// percentage of op time.
const TELESCOPE_TOLERANCE_PCT: f64 = 5.0;

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut name, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => name = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => trace = Some(val == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let spec = SPECS.iter().find(|s| s.name == name).ok_or_else(|| {
        let names: Vec<_> = SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {name}; one of {names:?}")
    })?;
    Ok(Args {
        spec,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0).max(0.5),
        trace: trace.unwrap_or(false),
    })
}

/// Numbers must measure the defaults: refuse to run under any `SECNDP_*`
/// override (pad cache size, fault injection, transport selection…).
fn check_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("SECNDP_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {set:?} set: unset them to measure the defaults"
        ))
    }
}

fn main() {
    let args = match parse_args().and_then(|a| check_env().map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    match run(&args, &mut report) {
        Ok(()) => report.print(true),
        Err(e) => {
            eprintln!("perfbench: {e}");
            report.print(false);
            std::process::exit(1);
        }
    }
}

/// A fixed plaintext loop, independent of the program: how fast this
/// machine is right now. Median of five reps of [`calib_loop`], in µs.
fn calibrate() -> f64 {
    let mut reps: Vec<f64> = (0..5).map(|_| calib_loop(CALIB_ITERS)).collect();
    median(&mut reps)
}

const CALIB_ITERS: u64 = 1_000_000;

/// Time of `iters` steps of a SplitMix64 loop, scaled to [`CALIB_ITERS`]
/// steps, in µs.
fn calib_loop(iters: u64) -> f64 {
    let t = Instant::now();
    let mut r = inputs::Rng::new(7);
    let mut acc = 0u64;
    for _ in 0..iters {
        acc = acc.wrapping_add(r.next_u64() >> 7);
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64() * 1e6 * CALIB_ITERS as f64 / iters as f64
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of nanosecond samples, in µs.
fn pct_us(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1e3
}

fn status_kib(key: &str) -> f64 {
    let s = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    s.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0)
}

fn cpu_flags() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags = info
        .lines()
        .find_map(|l| l.strip_prefix("flags"))
        .unwrap_or("")
        .to_string();
    let has = |f: &str| flags.split_whitespace().any(|x| x == f);
    format!("aes={} avx512f={}", has("aes"), has("avx512f"))
}

fn counter(name: &str) -> u64 {
    secndp_telemetry::global().snapshot().counter_total(name)
}

const COUNTERS: [(&str, &str); 3] = [
    ("core.transport.retries", "secndp_transport_retries_total"),
    ("core.net.retries", "secndp_net_retries_total"),
    ("core.net.timeouts", "secndp_net_timeouts_total"),
];

#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    /// (name, value, unit) in output order.
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str, note: &str) {
        let value = if value.is_finite() { value } else { 0.0 };
        println!("# {name} = {value} {unit}{note}");
        self.metrics.push((name, value, unit));
    }

    fn print(&self, correct: bool) {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        println!("{out}");
    }
}

/// Segments per traced run. The untraced reference rig's segments
/// alternate with the traced rig's, so both see the same stretch of
/// machine time.
const SEGMENTS: u32 = 5;

/// Share of a traced run's seconds given to the untraced reference rig.
const UNTRACED_SHARE: f64 = 0.3;

/// Set-up is repeated at least this often, and until this much time has
/// been spent (capped), and the median is reported.
const SETUP_MIN: usize = 15;
const SETUP_MAX: usize = 128;
const SETUP_BUDGET_S: f64 = 3.0;

/// Runs the workload's op stream for the run's seconds. A traced run
/// passes an untraced `reference` rig and splits the time into segments
/// that alternate between the two rigs. Returns (phase, reference phase).
fn measure<C: BlockCipher>(
    args: &Args,
    rig: &mut Rig<C>,
    inputs: &Inputs,
    probes: Option<&Probes>,
    mut reference: Option<&mut Rig<Aes128Fast>>,
) -> Result<(Phase, Phase), Failure> {
    let (mut ph, mut ref_ph) = (Phase::default(), Phase::default());
    let (mut ops, mut ref_ops) = (inputs.ops(args.spec), inputs.ops(args.spec));
    let (segments, untraced) = match reference {
        Some(_) => (SEGMENTS, UNTRACED_SHARE),
        None => (1, 0.0),
    };
    let seg = |share: f64| Duration::from_secs_f64(args.seconds * share / segments as f64);
    for _ in 0..segments {
        if let Some(r) = reference.as_deref_mut() {
            run_phase(r, inputs, &mut ref_ops, &mut ref_ph, seg(untraced), None)?;
        }
        run_phase(rig, inputs, &mut ops, &mut ph, seg(1.0 - untraced), probes)?;
    }
    ph.peak_rss_mib = status_kib("VmHWM:") / 1024.0;
    Ok((ph, ref_ph))
}

fn run(args: &Args, report: &mut Report) -> Result<(), Failure> {
    let spec = args.spec;
    let calib_start = calibrate();
    let inputs = Inputs::generate(spec, args.seed);
    println!(
        "# meta workload={} seed={} seconds={} trace={} nproc={} cpu: {} input_digest={:016x} transport={} client=closed-loop x1",
        spec.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cpu_flags(),
        inputs.digest(spec),
        match spec.transport {
            workload::Transport::Inline => "RemoteNdp::inline",
            workload::Transport::Tcp => "TcpEndpoint::self_hosted(pool 1, 1 rank)",
            workload::Transport::Async => "AsyncEndpoint::single(1 rank)",
        }
    );
    let plain_cpu = || TrustedProcessor::new(SecretKey::from_bytes(inputs.key));

    if !args.trace {
        let (mut rig, first) = sampled_setup(spec, &inputs, &plain_cpu)?;
        print_build(&rig);
        let (mut ph, _) = measure(args, &mut rig, &inputs, None, None)?;
        tamper_gate(&rig, &inputs)?;
        drop(rig);
        // Further set-ups only for the set-up time median, after the peak
        // RSS reading, so their leftovers do not count as workload memory.
        let mut setups = vec![first];
        while setups.len() < SETUP_MIN
            || (setups.iter().map(|s| s.secs).sum::<f64>() < SETUP_BUDGET_S
                && setups.len() < SETUP_MAX)
        {
            setups.push(sampled_setup(spec, &inputs, &plain_cpu)?.1);
        }
        end_to_end(report, &mut ph, &setups);
        let calib_end = calibrate();
        println!(
            "# machine.calib_us = {} us (start {calib_start}, end {calib_end})",
            (calib_start + calib_end) / 2.0
        );
        return Ok(());
    }

    // The untraced reference rig, for the tracing-overhead figure.
    let (mut plain, _) = timed_setup(spec, &inputs, &plain_cpu, None)?;
    print_build(&plain);
    let probes = Probes::default();
    let traced_cpu = || {
        let cipher = TimedCipher::new(Aes128Fast::new(&inputs.key), Arc::clone(&probes.aes));
        TrustedProcessor::from_cipher(cipher, ChecksumScheme::SingleS, VersionManager::new())
    };
    let (mut rig, _) = timed_setup(spec, &inputs, &traced_cpu, Some(&probes))?;
    let counters0: Vec<u64> = COUNTERS.iter().map(|(_, c)| counter(c)).collect();
    let (mut ph, mut ref_ph) = measure(args, &mut rig, &inputs, Some(&probes), Some(&mut plain))?;
    let counters: Vec<u64> = COUNTERS
        .iter()
        .zip(&counters0)
        .map(|((_, c), b)| counter(c) - b)
        .collect();
    tamper_gate(&rig, &inputs)?;
    report.attempted += ref_ph.attempted;
    report.failed += ref_ph.failed;
    let untraced_qps = median(&mut ref_ph.chunk_qps);
    let calib = (calib_start + calibrate()) / 2.0;
    per_layer(report, &mut ph, untraced_qps, &counters, calib)
}

/// The calibration loop's time on the reference host (a shared 2-vCPU
/// Intel Xeon VM with AES-NI) when it ran fast, in µs. `setup_s` is
/// reported at that machine speed.
const CALIB_REF_US: f64 = 1500.0;

/// Calibration steps run just before and just after each set-up.
const SETUP_CALIB_ITERS: u64 = 500_000;

/// One set-up's time and how fast the machine was around it.
struct SetupSample {
    secs: f64,
    /// [`calib_loop`] time, the mean of the loops before and after: a
    /// stretch of slow machine on either side shows in it.
    calib_us: f64,
}

/// An untraced set-up, timed, between two short calibration loops.
fn sampled_setup<C: BlockCipher>(
    spec: &'static Spec,
    inputs: &Inputs,
    make_cpu: &dyn Fn() -> TrustedProcessor<C>,
) -> Result<(Rig<C>, SetupSample), Failure> {
    let before = calib_loop(SETUP_CALIB_ITERS);
    let (rig, secs) = timed_setup(spec, inputs, make_cpu, None)?;
    let after = calib_loop(SETUP_CALIB_ITERS);
    let calib_us = (before + after) / 2.0;
    Ok((rig, SetupSample { secs, calib_us }))
}

fn tamper_gate<C: BlockCipher>(rig: &Rig<C>, inputs: &Inputs) -> Result<(), Failure> {
    let n = rig.tamper_gate(inputs)?;
    println!("# tamper gate: {n} tampered or stale queries, all rejected with VerificationFailed");
    Ok(())
}

fn print_build<C: BlockCipher>(rig: &Rig<C>) {
    // Instruments register on first use, so after set-up an empty
    // registry means telemetry was compiled out.
    let telemetry = !secndp_telemetry::global().snapshot().metrics.is_empty();
    println!(
        "# build: telemetry={} pad_cache_blocks={}",
        if telemetry { "on" } else { "off" },
        rig.cpu.pad_cache().capacity_blocks()
    );
}

/// Bounded metrics go into the result line. The absolute speeds are
/// printed beside them but not bounded: on a shared host they follow the
/// machine, whose speed moved by a third within minutes while the same
/// runs' `verified_vs_plain_x` held within a few percent.
fn end_to_end(report: &mut Report, ph: &mut Phase, setups: &[SetupSample]) {
    report.attempted += ph.attempted;
    report.failed += ph.failed;
    ph.read_ns.sort_unstable();
    ph.update_ns.sort_unstable();
    let cpu_ns = ph.cpu_ticks as f64 * workload::TICK_US * 1e3;
    let mut raw: Vec<f64> = setups.iter().map(|s| s.secs).collect();
    let mut scaled: Vec<f64> = setups
        .iter()
        .map(|s| s.secs * CALIB_REF_US / s.calib_us)
        .collect();
    report.put(
        "setup_s",
        median(&mut scaled),
        "s",
        &format!(
            " (median of {} set-ups, each scaled to a calibration loop of {CALIB_REF_US} us; unscaled median {} s)",
            setups.len(),
            median(&mut raw)
        ),
    );
    report.put(
        "verified_vs_plain_x",
        median(&mut ph.chunk_vs_plain),
        "x",
        &format!(
            " (op time / plaintext weighted sums of the same queries; median of {} chunks, {} queries)",
            ph.chunk_vs_plain.len(),
            ph.queries
        ),
    );
    report.put(
        "cpu_vs_plain_x",
        cpu_ns / ph.plain_ns as f64,
        "x",
        &format!(
            " (process CPU time / plaintext weighted sums of the same queries; {} queries)",
            ph.queries
        ),
    );
    report.put("peak_rss_mib", ph.peak_rss_mib, "MiB", "");
    let n_reads = format!("n={} read ops", ph.read_ns.len());
    let n_updates = format!("n={} updates", ph.update_ns.len());
    for (name, value, unit, n) in [
        (
            "queries_per_s",
            median(&mut ph.chunk_qps),
            "1/s",
            format!("median of {} chunks", ph.chunk_qps.len()),
        ),
        (
            "read_p50_us",
            pct_us(&ph.read_ns, 0.50),
            "us",
            n_reads.clone(),
        ),
        (
            "read_p90_us",
            pct_us(&ph.read_ns, 0.90),
            "us",
            n_reads.clone(),
        ),
        ("read_p99_us", pct_us(&ph.read_ns, 0.99), "us", n_reads),
        (
            "update_p50_us",
            pct_us(&ph.update_ns, 0.50),
            "us",
            n_updates.clone(),
        ),
        (
            "update_p90_us",
            pct_us(&ph.update_ns, 0.90),
            "us",
            n_updates,
        ),
        (
            "cpu_us_per_query",
            cpu_ns / 1e3 / ph.queries as f64,
            "us",
            format!("{} queries", ph.queries),
        ),
    ] {
        println!("# {name} = {value} {unit} (not bounded; {n})");
    }
    println!(
        "# failed_ops_ratio = {} ({} of {} ops)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
}

fn per_layer(
    report: &mut Report,
    ph: &mut Phase,
    untraced_qps: f64,
    counters: &[u64],
    calib_us: f64,
) -> Result<(), Failure> {
    report.attempted += ph.attempted;
    report.failed += ph.failed;
    let l = &ph.ledger;
    let q = ph.queries as f64;
    let u = ph.update_ns.len() as f64;
    // Only the update workload rewrites the table; elsewhere the
    // per-update figures are 0.
    let per_update = if u > 0.0 {
        ""
    } else {
        " (no updates in this workload)"
    };
    let us = |ns: u64, per: f64| ns as f64 / 1e3 / per;
    let aes_blocks = l.aes_read.items + l.aes_update.items;
    let aes_ns = l.aes_read.wall_ns + l.aes_update.wall_ns;
    let lookups = l.cache_read.hits + l.cache_read.misses;
    let traced_qps = median(&mut ph.chunk_qps);
    let total_op_ns = l.read_op_ns + l.update_op_ns;
    let unaccounted = l.residue_ns as f64 * 100.0 / total_op_ns as f64;

    report.put(
        "cipher.aes.blocks_per_query",
        l.aes_read.items as f64 / q,
        "count",
        "",
    );
    report.put(
        "cipher.aes.us_per_query",
        us(l.aes_read.wall_ns, q),
        "us",
        "",
    );
    report.put(
        "cipher.aes.gbps",
        aes_blocks as f64 * 128.0 / aes_ns as f64,
        "Gbps",
        &format!(
            " (paper's engine: {PAPER_AES_GBPS} Gbps; {aes_blocks} blocks, reads and rewrites)"
        ),
    );
    report.put(
        "cipher.cache.hit_ratio",
        l.cache_read.hits as f64 / lookups as f64,
        "ratio",
        "",
    );
    report.put(
        "cipher.cache.evictions_per_kquery",
        l.cache_read.evictions as f64 * 1e3 / q,
        "count",
        "",
    );
    report.put(
        "cipher.cache.invalidations_per_update",
        l.cache_update.invalidations as f64 / u,
        "count",
        per_update,
    );
    report.put(
        "cipher.otp.unique_block_ratio",
        (l.aes_read.items + l.cache_read.hits) as f64 / l.requested_blocks as f64,
        "ratio",
        " ((AES blocks + cache hits) / 17 blocks per requested row)",
    );
    report.put(
        "core.protocol.trusted_us_per_query",
        us(l.read_op_ns - l.call_ns, q),
        "us",
        "",
    );
    report.put(
        "core.protocol.non_aes_us_per_query",
        (l.read_op_ns as f64 - l.call_ns as f64 - l.aes_read.wall_ns as f64) / 1e3 / q,
        "us",
        "",
    );
    report.put("core.wire.call_us_per_query", us(l.call_ns, q), "us", "");
    report.put(
        "core.transport.hop_us_per_query",
        (l.call_ns as f64 - l.device_ns as f64) / 1e3 / q,
        "us",
        "",
    );
    report.put(
        "core.transport.device_busy_ratio",
        l.device_ns as f64 / l.read_op_ns as f64,
        "ratio",
        "",
    );
    report.put("core.device.sls_us_per_query", us(l.device_ns, q), "us", "");
    report.put(
        "core.device.load_us_per_update",
        us(l.load_ns, u),
        "us",
        per_update,
    );
    report.put(
        "core.encrypt.us_per_update",
        us(l.encrypt_ns, u),
        "us",
        per_update,
    );
    report.put(
        "core.wire.publish_us_per_update",
        (l.publish_ns as f64 - l.load_ns as f64) / 1e3 / u,
        "us",
        per_update,
    );
    for ((name, _), &v) in COUNTERS.iter().zip(counters) {
        report.put(name, v as f64, "count", "");
    }
    report.put(
        "trace.overhead_pct",
        (untraced_qps - traced_qps) * 100.0 / untraced_qps,
        "%",
        &format!(" (untraced {untraced_qps:.1} vs traced {traced_qps:.1} queries/s)"),
    );
    report.put(
        "trace.unaccounted_pct",
        unaccounted,
        "%",
        &format!(" (tolerance {TELESCOPE_TOLERANCE_PCT}%)"),
    );
    report.put("machine.calib_us", calib_us, "us", "");
    println!(
        "# traced: {} queries in {} read ops, {} updates; failed_ops_ratio = {}",
        ph.queries,
        ph.read_ns.len(),
        ph.update_ns.len(),
        report.failed as f64 / report.attempted.max(1) as f64
    );
    if unaccounted > TELESCOPE_TOLERANCE_PCT {
        return Err(format!(
            "telescoping check: layer self-times miss op time by {unaccounted:.2}% (> {TELESCOPE_TOLERANCE_PCT}%)"
        ));
    }
    Ok(())
}
