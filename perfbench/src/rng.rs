//! Seeded input generation: a SplitMix64 stream and a Zipf popularity table.
//!
//! The benchmark owns its randomness so that a seed names one byte-exact
//! input, whatever the program's own generators do.

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other streams of the same seed
    /// by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD605_BBB5_8C8A_BBFD));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Zipf-distributed picks over `n` items, with a seeded assignment of
/// items to popularity ranks.
#[derive(Debug, Clone)]
pub struct Zipf {
    /// Cumulative weights, by rank.
    cumulative: Vec<u64>,
    /// Item holding each rank.
    item_at_rank: Vec<u32>,
}

impl Zipf {
    /// Weights are `SCALE / (rank + 1)^exponent`, rounded to integers.
    const SCALE: f64 = (1u64 << 40) as f64;

    /// A table over `n` items whose ranks are shuffled by `rng`.
    pub fn new(n: usize, exponent: f64, rng: &mut Rng) -> Zipf {
        let mut total = 0u64;
        let cumulative = (0..n)
            .map(|r| {
                total += (Self::SCALE / ((r + 1) as f64).powf(exponent)) as u64;
                total
            })
            .collect();
        let mut item_at_rank: Vec<u32> = (0..n as u32).collect();
        rng.shuffle(&mut item_at_rank);
        Zipf {
            cumulative,
            item_at_rank,
        }
    }

    /// Picks one item.
    pub fn pick(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("a non-empty table");
        let x = rng.next_u64() % total;
        let rank = self.cumulative.partition_point(|&c| c <= x);
        self.item_at_rank[rank] as usize
    }
}

/// FNV-1a over a sequence of byte strings, each length-prefixed so that
/// boundaries count: the digest of a request schedule.
pub fn digest<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for part in parts {
        for b in (part.len() as u64).to_le_bytes() {
            eat(b);
        }
        for &b in part {
            eat(b);
        }
    }
    h
}
