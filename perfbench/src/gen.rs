//! Seeded inputs: the random stream and the per-seed variant of each
//! program.
//!
//! The generator lives in the benchmark rather than in a repository crate
//! so that a seed names the same inputs at every commit.

/// SplitMix64: small, fast, and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Rewrites every nonzero `scalar name = <literal>;` initializer of a
/// mini-ZPL source, scaling it by a factor within 1% of one. The program's
/// structure, and so the work every layer does on it, is unchanged; its
/// numbers, and so the values full-mode simulation must reproduce, are the
/// seed's own.
pub fn perturb_scalars(source: &str, rng: &mut Rng) -> String {
    let mut out = String::with_capacity(source.len() + 64);
    for line in source.lines() {
        out.push_str(&perturb_line(line, rng).unwrap_or_else(|| line.to_string()));
        out.push('\n');
    }
    out
}

fn perturb_line(line: &str, rng: &mut Rng) -> Option<String> {
    let rest = line.trim_start().strip_prefix("scalar ")?;
    let (name, value) = rest.split_once('=')?;
    let value: f64 = value.trim().strip_suffix(';')?.trim().parse().ok()?;
    if value == 0.0 {
        return None;
    }
    let scaled = value * (1.0 + 0.02 * (rng.unit() - 0.5));
    Some(format!("scalar {} = {scaled:.12};", name.trim()))
}

/// The value of `config <name> = <integer>;` in a mini-ZPL source.
pub fn config_value(source: &str, name: &str) -> Option<i64> {
    source.lines().find_map(|line| {
        let (key, value) = line.trim().strip_prefix("config ")?.split_once('=')?;
        if key.trim() != name {
            return None;
        }
        value.trim().strip_suffix(';')?.trim().parse().ok()
    })
}
