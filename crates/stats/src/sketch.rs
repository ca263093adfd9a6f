//! Mergeable weighted-quantile sketches for streaming campaigns.
//!
//! `repro serve` advances measurement windows forever; retaining every
//! sample would grow without bound. A [`QuantileSketch`] summarizes a
//! weighted value stream in O(log range / ε) memory with a declared
//! relative-error guarantee: for any rank q, the reported quantile `s`
//! and the true weighted quantile `v` (the smallest value whose
//! cumulative weight reaches `q·total`, exactly `weighted_quantile`'s
//! convention) satisfy `|s − v| ≤ ε·|v|`.
//!
//! The layout is DDSketch-style logarithmic binning, with two properties
//! the batch pipeline's determinism contract demands and the stock
//! designs do not give:
//!
//! * **Integer bucket weights.** Weights are accumulated in fixed-point
//!   (2⁻²⁰ resolution), so merging is pure integer addition —
//!   associative and commutative *at the byte level*, not merely up to
//!   float rounding. Shard sketches combine byte-identically no matter
//!   the merge order.
//! * **Canonical encoding.** Buckets live in a vector of `(index,
//!   weight)` pairs kept sorted by index (found by binary search), encode
//!   walks them in index order, and every float is serialized as raw IEEE
//!   bits. Equal sketch state ⇒ equal bytes, which is what lets snapshot
//!   epochs and audit comparisons diff sketches with `==`.
//!
//! Coarsening (the resource governor's degraded mode) halves the bucket
//! indices, squaring γ: memory halves, ε grows to `2ε/(1+ε²)` (< 2ε).
//! Merging sketches at different coarsening levels first coarsens the
//! finer one — deterministic, so degraded shards still merge
//! byte-identically.

/// Fixed-point weight resolution: weights are stored as multiples of
/// 2⁻²⁰ (≈ 1e-6). Integer arithmetic keeps merges exact.
const WEIGHT_SCALE: f64 = (1u64 << 20) as f64;

/// Serialization magic for [`QuantileSketch::encode`].
const MAGIC: &[u8; 8] = b"bbqs/v1\n";

/// Bucket weights as `(index, weight)` pairs, strictly ascending by index.
type Buckets = Vec<(i32, u64)>;

/// Add `w` to bucket `i`, inserting it in index order if absent.
fn bump(buckets: &mut Buckets, i: i32, w: u64) {
    match buckets.binary_search_by_key(&i, |&(k, _)| k) {
        Ok(at) => buckets[at].1 += w,
        Err(at) => buckets.insert(at, (i, w)),
    }
}

/// The weights of `buckets`.
fn weights(buckets: &[(i32, u64)]) -> impl DoubleEndedIterator<Item = u64> + '_ {
    buckets.iter().map(|&(_, w)| w)
}

/// A mergeable weighted-quantile sketch with bounded relative error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileSketch {
    /// Coarsening level: ε at level L is `eps_at_level(base_eps_bits, L)`.
    level: u32,
    /// The *declared* base ε (level 0), as raw f64 bits so the struct
    /// stays `Eq` and the encoding stays canonical.
    base_eps_bits: u64,
    /// `ln γ` at the current level, as raw bits: a function of the two
    /// fields above, cached so `add` takes one logarithm per value.
    ln_gamma_bits: u64,
    /// Positive-value buckets: index i covers `(γ^(i−1), γ^i]`.
    pos: Buckets,
    /// Negative-value buckets, keyed by the index of `|v|`.
    neg: Buckets,
    /// Weight at exactly zero.
    zero_w: u64,
    /// Number of `add` calls folded in (merged sketches sum these).
    count: u64,
    /// Smallest / largest value observed, as raw bits (quantiles clamp
    /// to this range). `f64::INFINITY.to_bits()` etc. when empty.
    min_bits: u64,
    max_bits: u64,
}

/// ε after `level` coarsenings of a base-ε sketch. Each coarsening maps
/// γ → γ², i.e. ε → 2ε/(1+ε²).
pub fn eps_at_level(base_eps: f64, level: u32) -> f64 {
    let mut eps = base_eps;
    for _ in 0..level {
        eps = 2.0 * eps / (1.0 + eps * eps);
    }
    eps
}

impl QuantileSketch {
    /// A fresh sketch with relative-error bound `eps ∈ (0, 1)`.
    pub fn new(eps: f64) -> Self {
        assert!(
            eps > 0.0 && eps < 1.0,
            "sketch eps must be in (0,1), got {eps}; eps = 0 means exact \
             (retained-sample) mode, which is not a sketch"
        );
        let mut sketch = Self {
            level: 0,
            base_eps_bits: eps.to_bits(),
            ln_gamma_bits: 0,
            pos: Vec::new(),
            neg: Vec::new(),
            zero_w: 0,
            count: 0,
            min_bits: f64::INFINITY.to_bits(),
            max_bits: f64::NEG_INFINITY.to_bits(),
        };
        sketch.cache_ln_gamma();
        sketch
    }

    /// Recompute the cached `ln γ` after the level changes.
    fn cache_ln_gamma(&mut self) {
        self.ln_gamma_bits = self.gamma().ln().to_bits();
    }

    /// The error bound currently in force (grows with coarsening).
    pub fn eps(&self) -> f64 {
        eps_at_level(f64::from_bits(self.base_eps_bits), self.level)
    }

    /// The declared level-0 ε this sketch was created with.
    pub fn base_eps(&self) -> f64 {
        f64::from_bits(self.base_eps_bits)
    }

    /// Coarsening level (0 = full declared resolution).
    pub fn level(&self) -> u32 {
        self.level
    }

    fn gamma(&self) -> f64 {
        let eps = self.eps();
        (1.0 + eps) / (1.0 - eps)
    }

    fn bucket_of(&self, v: f64) -> i32 {
        // Index i covers (γ^(i−1), γ^i]: i = ⌈ln v / ln γ⌉.
        (v.ln() / f64::from_bits(self.ln_gamma_bits)).ceil() as i32
    }

    /// Representative value of bucket `i`: the midpoint `2γ^i/(γ+1)`,
    /// within ε of every value in the bucket.
    fn rep_of(&self, i: i32) -> f64 {
        let g = self.gamma();
        2.0 * g.powi(i) / (g + 1.0)
    }

    /// Fold in one value with weight `w` (non-finite values and
    /// non-positive weights are ignored, matching `weighted_quantile`).
    pub fn add(&mut self, v: f64, w: f64) {
        if !v.is_finite() || !(w > 0.0) {
            return;
        }
        let w_fp = (w * WEIGHT_SCALE).round() as u64;
        if w_fp == 0 {
            return;
        }
        if v > 0.0 {
            let i = self.bucket_of(v);
            bump(&mut self.pos, i, w_fp);
        } else if v < 0.0 {
            let i = self.bucket_of(-v);
            bump(&mut self.neg, i, w_fp);
        } else {
            self.zero_w += w_fp;
        }
        self.count += 1;
        if v < f64::from_bits(self.min_bits) {
            self.min_bits = v.to_bits();
        }
        if v > f64::from_bits(self.max_bits) {
            self.max_bits = v.to_bits();
        }
    }

    /// Values folded in so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Total weight folded in (fixed-point rounding included).
    pub fn total_weight(&self) -> f64 {
        let fp: u64 = weights(&self.pos).chain(weights(&self.neg)).sum::<u64>() + self.zero_w;
        fp as f64 / WEIGHT_SCALE
    }

    /// Resident size in bytes (counter-based accounting for the serve
    /// resource governor, estimated per bucket). The constants predate
    /// the vector storage and stay as they are: governor decisions are
    /// part of the output, so the accounting must not move.
    pub fn resident_bytes(&self) -> u64 {
        const FIXED: u64 = 64;
        const PER_BUCKET: u64 = 32;
        FIXED + PER_BUCKET * (self.pos.len() + self.neg.len()) as u64
    }

    /// Coarsen one level: halve the bucket indices (γ → γ²). Memory
    /// shrinks, ε grows to `2ε/(1+ε²)`. Deterministic: the same state
    /// always coarsens to the same state.
    pub fn coarsen(&mut self) {
        let fold = |m: &mut Buckets| {
            // ⌈i/2⌉ for either sign: (γ^(i−1), γ^i] ⊆ (Γ^(⌈i/2⌉−1), Γ^⌈i/2⌉]
            // with Γ = γ². The index map is monotone, so folded indices stay
            // sorted and equal ones are adjacent.
            let mut out: Buckets = Vec::with_capacity(m.len() / 2 + 1);
            for &(i, w) in m.iter() {
                let j = (i + 1).div_euclid(2);
                match out.last_mut() {
                    Some(last) if last.0 == j => last.1 += w,
                    _ => out.push((j, w)),
                }
            }
            *m = out;
        };
        fold(&mut self.pos);
        fold(&mut self.neg);
        self.level += 1;
        self.cache_ln_gamma();
    }

    /// Merge `other` into `self`. Requires the same base ε; sketches at
    /// different coarsening levels are first coarsened to the coarser of
    /// the two. At equal levels the merge is pure integer addition —
    /// associative and commutative at the byte level.
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert_eq!(
            self.base_eps_bits, other.base_eps_bits,
            "cannot merge sketches with different declared eps"
        );
        let target = self.level.max(other.level);
        while self.level < target {
            self.coarsen();
        }
        let mut o;
        let other = if other.level < target {
            o = other.clone();
            while o.level < target {
                o.coarsen();
            }
            &o
        } else {
            other
        };
        for &(i, w) in &other.pos {
            bump(&mut self.pos, i, w);
        }
        for &(i, w) in &other.neg {
            bump(&mut self.neg, i, w);
        }
        self.zero_w += other.zero_w;
        self.count += other.count;
        if f64::from_bits(other.min_bits) < f64::from_bits(self.min_bits) {
            self.min_bits = other.min_bits;
        }
        if f64::from_bits(other.max_bits) > f64::from_bits(self.max_bits) {
            self.max_bits = other.max_bits;
        }
    }

    /// Weighted quantile estimate: the representative of the bucket
    /// containing the smallest value whose cumulative weight reaches
    /// `q·total` (the `weighted_quantile` convention), clamped to the
    /// observed [min, max]. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total: u64 = weights(&self.pos).chain(weights(&self.neg)).sum::<u64>() + self.zero_w;
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Integer threshold: smallest cum with cum ≥ q·total.
        let thresh = (q * total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        // Ascending value order: negatives (|v| descending), zero,
        // positives (ascending).
        for &(i, w) in self.neg.iter().rev() {
            cum += w;
            if cum >= thresh {
                return Some(self.clamp(-self.rep_of(i)));
            }
        }
        cum += self.zero_w;
        if self.zero_w > 0 && cum >= thresh {
            return Some(self.clamp(0.0));
        }
        for &(i, w) in &self.pos {
            cum += w;
            if cum >= thresh {
                return Some(self.clamp(self.rep_of(i)));
            }
        }
        // Rounding pushed the threshold past the last bucket: max value.
        Some(f64::from_bits(self.max_bits))
    }

    fn clamp(&self, v: f64) -> f64 {
        v.clamp(f64::from_bits(self.min_bits), f64::from_bits(self.max_bits))
    }

    /// Canonical byte encoding: magic, header ints, then buckets in key
    /// order. Equal state ⇒ equal bytes; `decode(encode(s)) == s`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + 12 * (self.pos.len() + self.neg.len()));
        out.extend_from_slice(MAGIC);
        for v in [
            self.level as u64,
            self.base_eps_bits,
            self.zero_w,
            self.count,
            self.min_bits,
            self.max_bits,
            self.pos.len() as u64,
            self.neg.len() as u64,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for m in [&self.pos, &self.neg] {
            for &(i, w) in m {
                out.extend_from_slice(&i.to_le_bytes());
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
        out
    }

    /// Decode [`encode`](Self::encode)'s output. `None` on any structural
    /// mismatch (bad magic, short buffer, unsorted keys).
    pub fn decode(bytes: &[u8]) -> Option<QuantileSketch> {
        struct Cursor<'a> {
            rest: &'a [u8],
            pos: usize,
        }
        impl Cursor<'_> {
            fn u64(&mut self) -> Option<u64> {
                let chunk: [u8; 8] = self.rest.get(self.pos..self.pos + 8)?.try_into().ok()?;
                self.pos += 8;
                Some(u64::from_le_bytes(chunk))
            }
            fn i32(&mut self) -> Option<i32> {
                let chunk: [u8; 4] = self.rest.get(self.pos..self.pos + 4)?.try_into().ok()?;
                self.pos += 4;
                Some(i32::from_le_bytes(chunk))
            }
        }
        let mut c = Cursor {
            rest: bytes.strip_prefix(MAGIC.as_slice())?,
            pos: 0,
        };
        let level = c.u64()?;
        let base_eps_bits = c.u64()?;
        let zero_w = c.u64()?;
        let count = c.u64()?;
        let min_bits = c.u64()?;
        let max_bits = c.u64()?;
        let n_pos = c.u64()? as usize;
        let n_neg = c.u64()? as usize;
        let mut maps: [Buckets; 2] = [Vec::new(), Vec::new()];
        for (mi, n) in [(0usize, n_pos), (1, n_neg)] {
            let mut prev: Option<i32> = None;
            for _ in 0..n {
                let i = c.i32()?;
                let w = c.u64()?;
                if prev.is_some_and(|p| p >= i) {
                    return None; // not canonical: keys must strictly ascend
                }
                prev = Some(i);
                maps[mi].push((i, w));
            }
        }
        if c.pos != c.rest.len() {
            return None;
        }
        let [pos, neg] = maps;
        let mut sketch = QuantileSketch {
            level: u32::try_from(level).ok()?,
            base_eps_bits,
            ln_gamma_bits: 0,
            pos,
            neg,
            zero_w,
            count,
            min_bits,
            max_bits,
        };
        sketch.cache_ln_gamma();
        Some(sketch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantile::weighted_quantile;
    use std::collections::BTreeMap;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn filled(seed: u64, n: usize, eps: f64) -> (QuantileSketch, Vec<(f64, f64)>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sk = QuantileSketch::new(eps);
        let mut raw = Vec::with_capacity(n);
        for _ in 0..n {
            let v = (rng.gen::<f64>() * 200.0 - 20.0) * 1.5;
            let w = (rng.gen::<f64>() * 8.0).max(0.01);
            sk.add(v, w);
            raw.push((v, w));
        }
        (sk, raw)
    }

    #[test]
    fn quantile_within_declared_eps() {
        let (sk, raw) = filled(7, 4000, 0.02);
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let truth = weighted_quantile(&raw, q).unwrap();
            let est = sk.quantile(q).unwrap();
            assert!(
                (est - truth).abs() <= sk.eps() * truth.abs() + 1e-9,
                "q={q}: est {est} vs truth {truth} (eps {})",
                sk.eps()
            );
        }
    }

    #[test]
    fn merge_matches_single_stream_bytes() {
        let (whole, raw) = filled(11, 1000, 0.01);
        let mut parts: Vec<QuantileSketch> = Vec::new();
        for chunk in raw.chunks(137) {
            let mut sk = QuantileSketch::new(0.01);
            for &(v, w) in chunk {
                sk.add(v, w);
            }
            parts.push(sk);
        }
        let mut merged = QuantileSketch::new(0.01);
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(merged.encode(), whole.encode());
    }

    #[test]
    fn merge_is_order_independent_at_byte_level() {
        let (_, raw) = filled(23, 600, 0.05);
        let parts: Vec<QuantileSketch> = raw
            .chunks(100)
            .map(|c| {
                let mut sk = QuantileSketch::new(0.05);
                for &(v, w) in c {
                    sk.add(v, w);
                }
                sk
            })
            .collect();
        let mut fwd = QuantileSketch::new(0.05);
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = QuantileSketch::new(0.05);
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd.encode(), rev.encode());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let (sk, _) = filled(31, 500, 0.03);
        let bytes = sk.encode();
        let back = QuantileSketch::decode(&bytes).expect("roundtrip");
        assert_eq!(back, sk);
        assert_eq!(back.encode(), bytes);
        assert!(QuantileSketch::decode(&bytes[..bytes.len() - 1]).is_none());
        assert!(QuantileSketch::decode(b"nope").is_none());
    }

    #[test]
    fn coarsen_halves_resolution_and_keeps_bound() {
        let (mut sk, raw) = filled(43, 3000, 0.01);
        let before = sk.resident_bytes();
        sk.coarsen();
        assert!(sk.resident_bytes() < before);
        assert_eq!(sk.level(), 1);
        assert!(sk.eps() > 0.01 && sk.eps() < 0.021);
        let truth = weighted_quantile(&raw, 0.5).unwrap();
        let est = sk.quantile(0.5).unwrap();
        assert!((est - truth).abs() <= sk.eps() * truth.abs() + 1e-9);
    }

    #[test]
    fn cross_level_merge_is_deterministic() {
        let (a, _) = filled(5, 400, 0.02);
        let (mut b, _) = filled(6, 400, 0.02);
        b.coarsen();
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.encode(), ba.encode());
        assert_eq!(ab.level(), 1);
    }

    #[test]
    fn nan_and_nonpositive_weights_ignored() {
        let mut sk = QuantileSketch::new(0.1);
        sk.add(f64::NAN, 1.0);
        sk.add(1.0, 0.0);
        sk.add(1.0, -3.0);
        sk.add(f64::INFINITY, 1.0);
        assert_eq!(sk.count(), 0);
        assert!(sk.quantile(0.5).is_none());
    }

    /// The sketch as it was kept before the sorted-vector storage: buckets
    /// in `BTreeMap`s, `ln γ` recomputed per value. The reference the
    /// storage change must match byte for byte.
    struct MapSketch {
        level: u32,
        base_eps_bits: u64,
        pos: BTreeMap<i32, u64>,
        neg: BTreeMap<i32, u64>,
        zero_w: u64,
        count: u64,
        min_bits: u64,
        max_bits: u64,
    }

    impl MapSketch {
        fn new(eps: f64) -> Self {
            MapSketch {
                level: 0,
                base_eps_bits: eps.to_bits(),
                pos: BTreeMap::new(),
                neg: BTreeMap::new(),
                zero_w: 0,
                count: 0,
                min_bits: f64::INFINITY.to_bits(),
                max_bits: f64::NEG_INFINITY.to_bits(),
            }
        }

        fn gamma(&self) -> f64 {
            let eps = eps_at_level(f64::from_bits(self.base_eps_bits), self.level);
            (1.0 + eps) / (1.0 - eps)
        }

        fn add(&mut self, v: f64, w: f64) {
            if !v.is_finite() || !(w > 0.0) {
                return;
            }
            let w_fp = (w * WEIGHT_SCALE).round() as u64;
            if w_fp == 0 {
                return;
            }
            let bucket = |v: f64| (v.ln() / self.gamma().ln()).ceil() as i32;
            if v > 0.0 {
                *self.pos.entry(bucket(v)).or_insert(0) += w_fp;
            } else if v < 0.0 {
                *self.neg.entry(bucket(-v)).or_insert(0) += w_fp;
            } else {
                self.zero_w += w_fp;
            }
            self.count += 1;
            if v < f64::from_bits(self.min_bits) {
                self.min_bits = v.to_bits();
            }
            if v > f64::from_bits(self.max_bits) {
                self.max_bits = v.to_bits();
            }
        }

        fn coarsen(&mut self) {
            let fold = |m: &BTreeMap<i32, u64>| {
                let mut out = BTreeMap::new();
                for (&i, &w) in m {
                    *out.entry((i + 1).div_euclid(2)).or_insert(0) += w;
                }
                out
            };
            self.pos = fold(&self.pos);
            self.neg = fold(&self.neg);
            self.level += 1;
        }

        fn merge(&mut self, other: &MapSketch) {
            while self.level < other.level {
                self.coarsen();
            }
            let mut o = MapSketch {
                pos: other.pos.clone(),
                neg: other.neg.clone(),
                ..*other
            };
            while o.level < self.level {
                o.coarsen();
            }
            for (&i, &w) in &o.pos {
                *self.pos.entry(i).or_insert(0) += w;
            }
            for (&i, &w) in &o.neg {
                *self.neg.entry(i).or_insert(0) += w;
            }
            self.zero_w += o.zero_w;
            self.count += o.count;
            if f64::from_bits(o.min_bits) < f64::from_bits(self.min_bits) {
                self.min_bits = o.min_bits;
            }
            if f64::from_bits(o.max_bits) > f64::from_bits(self.max_bits) {
                self.max_bits = o.max_bits;
            }
        }

        fn quantile(&self, q: f64) -> Option<f64> {
            let total: u64 = self.pos.values().chain(self.neg.values()).sum::<u64>() + self.zero_w;
            if total == 0 {
                return None;
            }
            let thresh = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
            let (lo, hi) = (f64::from_bits(self.min_bits), f64::from_bits(self.max_bits));
            let g = self.gamma();
            let rep = |i: i32| 2.0 * g.powi(i) / (g + 1.0);
            let mut cum = 0u64;
            for (&i, &w) in self.neg.iter().rev() {
                cum += w;
                if cum >= thresh {
                    return Some((-rep(i)).clamp(lo, hi));
                }
            }
            cum += self.zero_w;
            if self.zero_w > 0 && cum >= thresh {
                return Some(0.0f64.clamp(lo, hi));
            }
            for (&i, &w) in &self.pos {
                cum += w;
                if cum >= thresh {
                    return Some(rep(i).clamp(lo, hi));
                }
            }
            Some(hi)
        }

        fn encode(&self) -> Vec<u8> {
            let mut out = MAGIC.to_vec();
            for v in [
                self.level as u64,
                self.base_eps_bits,
                self.zero_w,
                self.count,
                self.min_bits,
                self.max_bits,
                self.pos.len() as u64,
                self.neg.len() as u64,
            ] {
                out.extend_from_slice(&v.to_le_bytes());
            }
            for m in [&self.pos, &self.neg] {
                for (&i, &w) in m {
                    out.extend_from_slice(&i.to_le_bytes());
                    out.extend_from_slice(&w.to_le_bytes());
                }
            }
            out
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Random add / merge / coarsen sequences on two sketches give the
        /// map reference's bytes after every step, the same quantiles at
        /// the end, and survive a decode round trip.
        #[test]
        fn sorted_buckets_match_the_map_reference(
            ops in proptest::collection::vec((0u8..13, -1e4f64..1e4, 0.0f64..4.0), 1..300),
            eps in 0.005f64..0.2,
        ) {
            let mut sketches = [QuantileSketch::new(eps), QuantileSketch::new(eps)];
            let mut maps = [MapSketch::new(eps), MapSketch::new(eps)];
            for (op, v, w) in ops {
                // Near-zero magnitudes, exact zeros and weights that round
                // to nothing all occur.
                let v = match op % 3 {
                    0 => v,
                    1 => v * 1e-3,
                    _ => (v / 1e3).round(),
                };
                let w = if op == 11 { w * 1e-7 } else { w };
                match op {
                    0..=8 | 11 => {
                        let k = (op % 2) as usize;
                        sketches[k].add(v, w);
                        maps[k].add(v, w);
                    }
                    9 => {
                        let (a, b) = sketches.split_at_mut(1);
                        a[0].merge(&b[0]);
                        let (a, b) = maps.split_at_mut(1);
                        a[0].merge(&b[0]);
                    }
                    _ => {
                        let k = (op == 12) as usize;
                        if sketches[k].level() < 4 {
                            sketches[k].coarsen();
                            maps[k].coarsen();
                        }
                    }
                }
                for (sk, map) in sketches.iter().zip(&maps) {
                    proptest::prop_assert_eq!(sk.encode(), map.encode());
                }
            }
            for (sk, map) in sketches.iter().zip(&maps) {
                for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0] {
                    let bits = |x: Option<f64>| x.map(f64::to_bits);
                    proptest::prop_assert_eq!(bits(sk.quantile(q)), bits(map.quantile(q)));
                }
                let back = QuantileSketch::decode(&sk.encode());
                proptest::prop_assert_eq!(back.as_ref(), Some(sk));
            }
        }
    }

    #[test]
    fn zero_and_negative_values_order_correctly() {
        let mut sk = QuantileSketch::new(0.01);
        for v in [-10.0, -1.0, 0.0, 1.0, 10.0] {
            sk.add(v, 1.0);
        }
        let lo = sk.quantile(0.0).unwrap();
        let hi = sk.quantile(1.0).unwrap();
        assert!(lo < 0.0 && (lo + 10.0).abs() <= 0.01 * 10.0 + 1e-9);
        assert!((hi - 10.0).abs() <= 0.01 * 10.0 + 1e-9);
        let mid = sk.quantile(0.5).unwrap();
        assert_eq!(mid, 0.0);
    }
}
