//! Dense interning of profile elements, so sweeps can replay one trace
//! through thousands of detector configurations without re-hashing.
//!
//! Both the batch path ([`InternedTrace`]) and the streaming detector
//! intern through one [`Interner`]: a hash table keyed by a folded
//! 64×64→128-bit multiply under a per-process random key. Ids are
//! assigned in first-seen order, so every output is independent of the
//! key.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

use opd_trace::ProfileElement;

/// Folds the 128-bit product of `a` and `b` to 64 bits.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

/// The interner's hash key: drawn once per process from `std`'s
/// [`RandomState`], so element values crafted by an untrusted stream
/// cannot be chosen to collide in the table.
#[derive(Debug, Clone, Copy)]
struct FoldKey {
    xor: u64,
    mul: u64,
}

impl FoldKey {
    fn process() -> FoldKey {
        static KEY: OnceLock<FoldKey> = OnceLock::new();
        *KEY.get_or_init(|| {
            let random = RandomState::new();
            FoldKey {
                xor: random.hash_one(0u64),
                mul: random.hash_one(1u64) | 1,
            }
        })
    }
}

impl Default for FoldKey {
    fn default() -> Self {
        FoldKey::process()
    }
}

impl BuildHasher for FoldKey {
    type Hasher = FoldHasher;

    #[inline]
    fn build_hasher(&self) -> FoldHasher {
        FoldHasher {
            key: *self,
            hash: 0,
        }
    }
}

/// One folded multiply per `u64` written (table keys are packed
/// profile elements, so that is one per lookup).
struct FoldHasher {
    key: FoldKey,
    hash: u64,
}

impl Hasher for FoldHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.hash = folded_multiply(word ^ self.hash ^ self.key.xor, self.key.mul);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Maps profile elements to dense ids `0..len()` in first-seen order.
/// Shared by [`InternedTrace`] construction and the streaming
/// detector.
#[derive(Debug, Clone, Default)]
pub(crate) struct Interner {
    map: HashMap<u64, u32, FoldKey>,
}

impl Interner {
    /// An interner pre-sized for `capacity` distinct elements.
    pub(crate) fn with_capacity(capacity: usize) -> Interner {
        Interner::with_key(FoldKey::process(), capacity)
    }

    fn with_key(key: FoldKey, capacity: usize) -> Interner {
        Interner {
            map: HashMap::with_capacity_and_hasher(capacity, key),
        }
    }

    /// The dense id of `element`, assigning the next one if unseen.
    #[inline]
    pub(crate) fn intern(&mut self, element: ProfileElement) -> u32 {
        let next = self.map.len() as u32;
        *self.map.entry(element.raw()).or_insert(next)
    }

    /// Number of distinct elements interned so far.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Forgets every element, keeping the table's capacity.
    pub(crate) fn clear(&mut self) {
        self.map.clear();
    }
}

/// A branch trace with every distinct profile element mapped to a dense
/// id in `0..distinct_count`.
///
/// Building the interned form once and calling
/// [`PhaseDetector::run_interned`](crate::PhaseDetector::run_interned)
/// for each configuration is the fast path used by the experiment
/// harness.
///
/// # Examples
///
/// ```
/// use opd_core::InternedTrace;
/// use opd_trace::{MethodId, ProfileElement};
///
/// let a = ProfileElement::new(MethodId::new(0), 0, true);
/// let b = ProfileElement::new(MethodId::new(0), 0, false);
/// let interned = InternedTrace::from_elements([a, b, a, a]);
/// assert_eq!(interned.len(), 4);
/// assert_eq!(interned.distinct_count(), 2);
/// assert_eq!(interned.ids(), &[0, 1, 0, 0]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct InternedTrace {
    ids: Vec<u32>,
    distinct: u32,
    /// Lazily built per-site occurrence index for the rank-mode SWAR
    /// kernel; pure cache, so excluded from equality.
    site_index: OnceLock<SiteIndex>,
}

impl PartialEq for InternedTrace {
    fn eq(&self, other: &Self) -> bool {
        self.ids == other.ids && self.distinct == other.distinct
    }
}

impl Eq for InternedTrace {}

impl InternedTrace {
    /// Interns a sequence of profile elements.
    pub fn from_elements<I>(elements: I) -> Self
    where
        I: IntoIterator<Item = ProfileElement>,
    {
        Self::from_elements_with_capacity(elements, 0)
    }

    /// Interns a sequence of profile elements with the intern table
    /// pre-sized for `distinct_hint` distinct elements — typically the
    /// static alphabet bound from the `opd-analyze` crate — so
    /// interning a trace within the bound never rehashes.
    ///
    /// The hint is only a capacity; the result is identical to
    /// [`from_elements`](InternedTrace::from_elements) whatever its
    /// value.
    pub fn from_elements_with_capacity<I>(elements: I, distinct_hint: usize) -> Self
    where
        I: IntoIterator<Item = ProfileElement>,
    {
        let iter = elements.into_iter();
        let mut interner = Interner::with_capacity(distinct_hint);
        let mut ids = Vec::with_capacity(iter.size_hint().0);
        ids.extend(iter.map(|e| interner.intern(e)));
        InternedTrace {
            ids,
            distinct: interner.len() as u32,
            site_index: OnceLock::new(),
        }
    }

    /// Number of elements in the trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` if the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of distinct profile elements.
    #[must_use]
    pub fn distinct_count(&self) -> u32 {
        self.distinct
    }

    /// The dense element ids, in trace order.
    #[must_use]
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// The per-site occurrence index, built on first use and cached,
    /// or `None` when the trace is outside the rank-mode envelope
    /// (empty, too many distinct sites, or an index too large to be
    /// worth the memory).
    pub(crate) fn try_site_index(&self) -> Option<&SiteIndex> {
        if !SiteIndex::eligible(self) {
            return None;
        }
        Some(self.site_index.get_or_init(|| SiteIndex::build(self)))
    }
}

/// Per-site occurrence bitmaps over a whole interned trace, with
/// per-word prefix ranks: `rank(s, x)` — how many of `trace[..x]` are
/// site `s` — in O(1). The rank-mode SWAR kernel derives both window
/// count vectors of any trace run `[a, b, c)` from six rank lookups
/// per site, paying zero work per consumed element.
///
/// Layout is site-minor: word `w` of site `s` lives at
/// `words[w * sites + s]`, so the per-judge loop over all sites at a
/// fixed trace position walks one contiguous cache line run.
#[derive(Debug, Clone)]
pub(crate) struct SiteIndex {
    sites: usize,
    words: Vec<u64>,
    ranks: Vec<u32>,
}

/// Rank mode caps: more distinct sites than this and the per-judge
/// site loop outgrows the dense kernel's per-element work...
pub(crate) const MAX_RANK_SITES: u32 = 512;
/// ...and an index bigger than this many u64 words (32 MiB of bitmap
/// plus 16 MiB of ranks) is not worth caching per trace.
const MAX_RANK_WORDS: usize = 1 << 22;

impl SiteIndex {
    /// Whether `trace` is within the rank-mode envelope.
    fn eligible(trace: &InternedTrace) -> bool {
        let sites = trace.distinct_count();
        if sites == 0 || sites > MAX_RANK_SITES || trace.is_empty() {
            return false;
        }
        Self::words_per_site(trace.len())
            .checked_mul(sites as usize)
            .is_some_and(|w| w <= MAX_RANK_WORDS)
    }

    /// Words per site: one per 64 trace positions, plus a sentinel so
    /// the rank at position `len` itself stays a plain lookup.
    fn words_per_site(len: usize) -> usize {
        len / 64 + 1
    }

    fn build(trace: &InternedTrace) -> Self {
        let sites = trace.distinct_count() as usize;
        let words_per = Self::words_per_site(trace.len());
        let mut words = vec![0u64; words_per * sites];
        for (pos, &site) in trace.ids().iter().enumerate() {
            words[(pos >> 6) * sites + site as usize] |= 1u64 << (pos & 63);
        }
        let mut ranks = vec![0u32; words_per * sites];
        let mut running = vec![0u32; sites];
        for w in 0..words_per {
            let base = w * sites;
            ranks[base..base + sites].copy_from_slice(&running);
            for s in 0..sites {
                running[s] += words[base + s].count_ones();
            }
        }
        SiteIndex {
            sites,
            words,
            ranks,
        }
    }

    /// A cursor answering `rank(s, x)` for every site at one fixed
    /// trace position `x`.
    ///
    /// # Panics
    ///
    /// Panics (via slice indexing) if `x` exceeds the trace length.
    pub(crate) fn ranker(&self, x: usize) -> SiteRanker<'_> {
        let base = (x >> 6) * self.sites;
        SiteRanker {
            words: &self.words[base..base + self.sites],
            ranks: &self.ranks[base..base + self.sites],
            mask: (1u64 << (x & 63)) - 1,
        }
    }
}

/// See [`SiteIndex::ranker`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct SiteRanker<'a> {
    words: &'a [u64],
    ranks: &'a [u32],
    mask: u64,
}

impl SiteRanker<'_> {
    /// How many of `trace[..x]` are site `s`.
    #[inline]
    pub(crate) fn rank(&self, s: usize) -> u32 {
        self.ranks[s] + (self.words[s] & self.mask).count_ones()
    }
}

impl From<&opd_trace::BranchTrace> for InternedTrace {
    fn from(trace: &opd_trace::BranchTrace) -> Self {
        InternedTrace::from_elements(trace.iter().copied())
    }
}

impl FromIterator<ProfileElement> for InternedTrace {
    fn from_iter<I: IntoIterator<Item = ProfileElement>>(iter: I) -> Self {
        InternedTrace::from_elements(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opd_trace::MethodId;

    #[test]
    fn empty_trace() {
        let t = InternedTrace::from_elements([]);
        assert!(t.is_empty());
        assert_eq!(t.distinct_count(), 0);
    }

    #[test]
    fn ids_are_first_seen_order() {
        let e = |o| ProfileElement::new(MethodId::new(1), o, false);
        let t = InternedTrace::from_elements([e(5), e(3), e(5), e(9)]);
        assert_eq!(t.ids(), &[0, 1, 0, 2]);
        assert_eq!(t.distinct_count(), 3);
    }

    #[test]
    fn capacity_hint_does_not_change_the_result() {
        let e = |o| ProfileElement::new(MethodId::new(1), o, false);
        let elements = [e(5), e(3), e(5), e(9)];
        let plain = InternedTrace::from_elements(elements);
        for hint in [0, 1, 3, 64] {
            assert_eq!(
                InternedTrace::from_elements_with_capacity(elements, hint),
                plain
            );
        }
    }

    #[test]
    fn ids_do_not_depend_on_the_hash_key() {
        let e = |o| ProfileElement::new(MethodId::new(o % 7), o, o % 3 == 0);
        let elements: Vec<ProfileElement> = (0..5_000u32).map(|i| e(i * 31 % 977)).collect();
        let keys = [
            FoldKey { xor: 0, mul: 1 },
            FoldKey {
                xor: 0x9e37_79b9_7f4a_7c15,
                mul: 0xd6e8_feb8_6659_fd93,
            },
            FoldKey::process(),
        ];
        let ids: Vec<Vec<u32>> = keys
            .iter()
            .map(|&key| {
                let mut interner = Interner::with_key(key, 0);
                elements.iter().map(|&x| interner.intern(x)).collect()
            })
            .collect();
        assert_eq!(ids[0], ids[1]);
        assert_eq!(ids[0], ids[2]);
        assert_eq!(ids[0], InternedTrace::from_elements(elements).ids());
    }

    #[test]
    fn from_branch_trace() {
        let e = |o| ProfileElement::new(MethodId::new(1), o, true);
        let bt: opd_trace::BranchTrace = (0..10).map(|i| e(i % 3)).collect();
        let t = InternedTrace::from(&bt);
        assert_eq!(t.len(), 10);
        assert_eq!(t.distinct_count(), 3);
    }
}
