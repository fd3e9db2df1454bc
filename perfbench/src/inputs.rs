//! Seeded input generation, independent of the library crates so that a
//! change to the program can never change what the benchmark feeds it.

/// SplitMix64: a tiny, well-mixed 64-bit generator.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// An independent stream for one purpose, derived from the run seed.
    pub fn stream(seed: u64, purpose: u64) -> Self {
        let mut r = Self(seed ^ purpose.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by 128-bit multiply-shift.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// How query rows are drawn.
pub enum RowDist {
    Uniform(usize),
    /// Zipf over ranks, with rank → row scattered by a seeded permutation
    /// so popular rows are not address-adjacent.
    Zipf {
        cdf: Vec<f64>,
        rows: Vec<usize>,
    },
}

impl RowDist {
    pub fn zipf(n: usize, alpha: f64, rng: &mut Rng) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(alpha);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        let mut rows: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            rows.swap(i, rng.below(i as u64 + 1) as usize);
        }
        Self::Zipf { cdf, rows }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        match self {
            Self::Uniform(n) => rng.below(*n as u64) as usize,
            Self::Zipf { cdf, rows } => {
                let u = rng.unit();
                let rank = cdf.partition_point(|&c| c <= u).min(rows.len() - 1);
                rows[rank]
            }
        }
    }
}

/// Largest plaintext element. With weights below 256 and at most 80 rows a
/// query, every weighted sum stays below 2³² — the verified protocol
/// rejects results that wrap the ring, so the inputs must not.
pub const MAX_ELEM: u64 = 1 << 16;
pub const MAX_WEIGHT: u64 = 256;

pub fn table(rng: &mut Rng, len: usize) -> Vec<u32> {
    (0..len).map(|_| rng.below(MAX_ELEM) as u32).collect()
}

pub type Query = (Vec<usize>, Vec<u32>);

pub fn query(rng: &mut Rng, dist: &RowDist, pf: usize) -> Query {
    let idx = (0..pf).map(|_| dist.sample(rng)).collect();
    let w = (0..pf)
        .map(|_| 1 + rng.below(MAX_WEIGHT - 1) as u32)
        .collect();
    (idx, w)
}

/// The plaintext result `Σₖ aₖ · P[iₖ]`, computed without the library.
pub fn reference(plain: &[u32], cols: usize, q: &Query) -> Vec<u32> {
    let mut acc = vec![0u64; cols];
    for (&i, &a) in q.0.iter().zip(&q.1) {
        for (s, &p) in acc.iter_mut().zip(&plain[i * cols..(i + 1) * cols]) {
            *s += a as u64 * p as u64;
        }
    }
    acc.into_iter()
        .map(|s| u32::try_from(s).expect("inputs are bounded below 2^32"))
        .collect()
}

/// FNV-1a over a stream of 64-bit words: a digest that shows two runs with
/// the same seed received identical inputs.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}
