//! The incremental checkpoint representation: dirty-page delta records
//! over a content-hash deduplicating page store.
//!
//! A full-copy checkpoint clones the whole `Machine` (O(mapped pages)
//! `Arc` bumps). The incremental engine instead *interns* only the pages
//! whose write generation advanced since the previous capture into a
//! [`DedupeStore`] — identical page contents anywhere across the ring
//! share one store slot — and records a cumulative `page -> (slot, gen)`
//! table per snapshot (16 bytes per page, no data). Reconstruction
//! ([`DeltaRecord::materialize`]) rebuilds a `Machine` from the record's
//! machine skeleton plus the store, verifies the full-image digest
//! captured at take time, and is bit-identical to a full clone — a
//! property the manager's `Differential` engine and the
//! `checkpoint_incremental` proptests enforce page by page.
//!
//! **Hash once at intern; images fold slot digests; materialize
//! re-verifies bytes.** A page's bytes are hashed when it is interned
//! (the slot keeps that digest). A capture builds its image digest by
//! folding each entry's `(page, generation, slot digest)` — it never
//! re-hashes the live machine — which equals [`mem_digest`] of the
//! captured image because `intern` byte-verifies a slot before reusing
//! it and equal write generations mean equal bytes. Materialization is
//! the one place that re-reads every byte: it recomputes [`mem_digest`]
//! of the rebuilt image, the fail-closed check against delta-chain
//! truncation and dedupe-store eviction. All-zero pages, most of a
//! guest's image, hash to a constant after a zero scan.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use svm::mem::{Mem, Page, PAGE_SIZE};
use svm::Machine;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice (the workspace's standard offline hash),
/// continuing from state `h`.
const fn fnv1a_from(mut h: u64, bytes: &[u8]) -> u64 {
    let mut i = 0;
    while i < bytes.len() {
        h ^= bytes[i] as u64;
        h = h.wrapping_mul(FNV_PRIME);
        i += 1;
    }
    h
}

/// FNV-1a over a byte slice.
const fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_OFFSET, bytes)
}

/// [`page_digest`] of an all-zero page.
const ZERO_PAGE_DIGEST: u64 = fnv1a(&[0u8; PAGE_SIZE]);

/// Content digest of one page.
pub fn page_digest(page: &Page) -> u64 {
    page_digest_bytes(&page.0)
}

/// FNV-1a of the page, short-cut to [`ZERO_PAGE_DIGEST`] when every
/// byte is zero. The zero scan still reads every byte of a zero page.
fn page_digest_bytes(bytes: &[u8; PAGE_SIZE]) -> u64 {
    // OR-reduce 64-byte chunks (vectorizes), stopping at the first
    // non-zero chunk.
    if bytes
        .chunks_exact(64)
        .all(|c| c.iter().fold(0u8, |acc, &b| acc | b) == 0)
    {
        ZERO_PAGE_DIGEST
    } else {
        fnv1a(bytes)
    }
}

/// The one fold behind every image digest: FNV-1a over the
/// little-endian words `(page number, write generation, page digest)`
/// of each mapped page in ascending page order, then the global write
/// watermark and the NX flag.
struct ImageFold(u64);

impl ImageFold {
    fn new() -> ImageFold {
        ImageFold(FNV_OFFSET)
    }

    fn word(&mut self, v: u64) {
        self.0 = fnv1a_from(self.0, &v.to_le_bytes());
    }

    fn page(&mut self, pno: u32, gen: u64, digest: u64) {
        self.word(pno as u64);
        self.word(gen);
        self.word(digest);
    }

    fn finish(mut self, mem: &Mem) -> u64 {
        self.word(mem.write_seq());
        self.word(mem.nx as u64);
        self.0
    }
}

/// Deterministic digest of a full address-space image: page numbers,
/// per-page write generations and contents, the global write watermark
/// and the NX flag. Two `Mem`s with equal digests are observably
/// identical to the guest *and* to the generation-keyed caches above it.
pub fn mem_digest(mem: &Mem) -> u64 {
    let mut fold = ImageFold::new();
    for (pno, gen) in mem.page_table() {
        fold.page(
            pno,
            gen,
            page_digest_bytes(mem.page_bytes(pno).expect("mapped")),
        );
    }
    fold.finish(mem)
}

/// A key into the [`DedupeStore`] (derived from the page's content hash,
/// probed past collisions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageKey(u64);

struct StoreSlot {
    data: Arc<Page>,
    /// Content digest of `data` (collision verification).
    digest: u64,
    /// How many delta-record entries reference this slot; the slot is
    /// compacted away when the count returns to zero.
    refs: u64,
}

/// Running statistics of a [`DedupeStore`] (all monotone counters, safe
/// to export as absolute metrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Pages interned that created a fresh slot.
    pub inserted: u64,
    /// Pages interned that deduplicated against a live slot.
    pub dedup_hits: u64,
    /// Slots compacted after their last reference was released.
    pub compacted: u64,
    /// Slots forcibly evicted by the chaos seam.
    pub force_evicted: u64,
}

/// Content-addressed, reference-counted page storage shared by every
/// incremental snapshot in a manager's ring.
///
/// Memory stays bounded: the store holds at most one copy of each
/// *distinct* page content referenced by a retained snapshot, and
/// compaction drops a slot the moment the last referencing snapshot is
/// evicted.
#[derive(Default)]
pub struct DedupeStore {
    slots: HashMap<u64, StoreSlot>,
    stats: StoreStats,
}

impl DedupeStore {
    /// An empty store.
    pub fn new() -> DedupeStore {
        DedupeStore::default()
    }

    /// Intern a captured page: returns the key of the slot holding this
    /// exact content, bumping its reference count. Hash collisions are
    /// verified byte-for-byte and resolved by quadratic-free re-probing
    /// (key + odd constant), so two different contents never share a
    /// slot.
    pub fn intern(&mut self, data: Arc<Page>) -> PageKey {
        let digest = page_digest(&data);
        let mut key = digest;
        loop {
            match self.slots.get_mut(&key) {
                Some(slot) if slot.digest == digest && slot.data.0[..] == data.0[..] => {
                    slot.refs += 1;
                    self.stats.dedup_hits += 1;
                    return PageKey(key);
                }
                Some(_) => key = key.wrapping_add(0x9e37_79b9_7f4a_7c15),
                None => {
                    self.slots.insert(
                        key,
                        StoreSlot {
                            data,
                            digest,
                            refs: 1,
                        },
                    );
                    self.stats.inserted += 1;
                    return PageKey(key);
                }
            }
        }
    }

    /// The page behind `key`, if the slot is still live.
    pub fn get(&self, key: PageKey) -> Option<Arc<Page>> {
        self.slots.get(&key.0).map(|s| Arc::clone(&s.data))
    }

    /// Content digest of the page behind `key` (computed once, when the
    /// page was interned), if the slot is still live.
    pub(crate) fn digest(&self, key: PageKey) -> Option<u64> {
        self.slots.get(&key.0).map(|s| s.digest)
    }

    /// Add a reference to a live slot for an entry inherited from a
    /// previous table; returns the slot's digest (`None` if the chaos
    /// seam evicted it).
    fn bump(&mut self, key: PageKey) -> Option<u64> {
        let slot = self.slots.get_mut(&key.0)?;
        slot.refs += 1;
        Some(slot.digest)
    }

    /// Release one reference to `key`, compacting the slot when the last
    /// reference drops.
    pub fn release(&mut self, key: PageKey) {
        if let Some(slot) = self.slots.get_mut(&key.0) {
            slot.refs = slot.refs.saturating_sub(1);
            if slot.refs == 0 {
                self.slots.remove(&key.0);
                self.stats.compacted += 1;
            }
        }
    }

    /// Number of live slots (distinct page contents retained).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the store holds no pages.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Chaos seam: forcibly evict one live slot *despite outstanding
    /// references* — the dedupe-store eviction race. Any snapshot whose
    /// delta chain references the evicted content can no longer be
    /// materialized (its digest verification fails closed), which must
    /// degrade to a restart, never a panic or a silently-wrong rollback.
    /// Evicts the smallest live key for determinism; returns it.
    pub fn chaos_evict_one(&mut self) -> Option<PageKey> {
        let key = *self.slots.keys().min()?;
        self.slots.remove(&key);
        self.stats.force_evicted += 1;
        Some(PageKey(key))
    }
}

/// One incremental snapshot: a machine skeleton (cpu, heap, net, clock,
/// layout — everything but the page table) plus a cumulative
/// `page -> (store key, write gen)` table and the full-image digest for
/// verification at reconstruction time.
pub struct DeltaRecord {
    /// The checkpointed machine with `mem` reduced to its skeleton
    /// (permissions, regions, NX, `write_seq` — an empty page table).
    meta: Machine,
    /// Cumulative page table: every mapped page, referenced by store key.
    pages: BTreeMap<u32, (PageKey, u64)>,
    /// Pages newly interned by this snapshot (the delta; the rest of
    /// `pages` was inherited from the previous record or the drain).
    pub delta_len: usize,
    /// `mem_digest` of the captured image, verified on materialize.
    image_digest: u64,
}

impl DeltaRecord {
    /// Capture `m` incrementally: `prev` is the previous record's
    /// cumulative table (empty for the base snapshot) and `pending` the
    /// pre-copy drain's already-interned dirty pages. Only pages whose
    /// generation advanced past both are interned now — the snapshot
    /// instant is O(changed-since-drain).
    pub fn capture(
        m: &Machine,
        store: &mut DedupeStore,
        prev: &BTreeMap<u32, (PageKey, u64)>,
        pending: &BTreeMap<u32, (PageKey, u64)>,
    ) -> DeltaRecord {
        let mut pages = BTreeMap::new();
        let mut delta_len = 0usize;
        let mut fold = ImageFold::new();
        for (pno, gen) in m.mem.page_table() {
            // Prefer, in order: a pending drained capture at the live
            // generation, the previous record's entry at the live
            // generation, else intern fresh. Equal generations guarantee
            // identical bytes (the write-gen ladder contract).
            let inherited = [pending.get(&pno), prev.get(&pno)]
                .into_iter()
                .flatten()
                .find(|&&(_, g)| g == gen)
                .map(|&(key, _)| key);
            let (key, digest) = match inherited {
                Some(key) => {
                    // A slot the chaos seam evicted has no digest left:
                    // hash the live bytes so the record still carries
                    // the true image digest (its materialize fails
                    // closed on the missing slot).
                    let digest = store.bump(key).unwrap_or_else(|| {
                        page_digest_bytes(m.mem.page_bytes(pno).expect("mapped"))
                    });
                    (key, digest)
                }
                None => {
                    let (arc, _) = m.mem.page_arc(pno).expect("mapped");
                    delta_len += 1;
                    let key = store.intern(arc);
                    (key, store.digest(key).expect("just interned"))
                }
            };
            fold.page(pno, gen, digest);
            pages.insert(pno, (key, gen));
        }
        let image_digest = fold.finish(&m.mem);
        debug_assert_eq!(image_digest, mem_digest(&m.mem), "slot digests drifted");
        let mut meta = m.clone();
        meta.mem = m.mem.skeleton();
        DeltaRecord {
            meta,
            pages,
            delta_len,
            image_digest,
        }
    }

    /// The cumulative page table (for chaining the next capture).
    pub fn pages(&self) -> &BTreeMap<u32, (PageKey, u64)> {
        &self.pages
    }

    /// The stored full-image digest.
    pub fn image_digest(&self) -> u64 {
        self.image_digest
    }

    /// Connection count and clock live on the meta machine if needed.
    pub fn meta(&self) -> &Machine {
        &self.meta
    }

    /// Reconstruct the checkpointed machine from the skeleton plus the
    /// store, verifying the full-image digest captured at take time.
    /// Returns `None` — fail closed, caller degrades to restart — when
    /// any referenced slot vanished (dedupe-store eviction race) or the
    /// rebuilt image's digest disagrees (delta-chain truncation or any
    /// other corruption).
    pub fn materialize(&self, store: &DedupeStore) -> Option<Machine> {
        let mut m = self.meta.clone();
        for (&pno, &(key, gen)) in &self.pages {
            let data = store.get(key)?;
            m.mem.restore_page(pno, data, gen);
        }
        if mem_digest(&m.mem) != self.image_digest {
            return None;
        }
        Some(m)
    }

    /// Release every store reference this record holds (eviction path).
    pub fn release(&self, store: &mut DedupeStore) {
        for &(key, _) in self.pages.values() {
            store.release(key);
        }
    }

    /// Chaos seam: truncate the delta chain by dropping the record's
    /// highest-numbered page entries (modelling a lost delta segment).
    /// Returns how many entries were dropped. Materialization afterwards
    /// fails its digest verification and degrades to a restart.
    pub fn chaos_truncate(&mut self, store: &mut DedupeStore, drop_pages: usize) -> usize {
        let mut dropped = 0;
        for _ in 0..drop_pages {
            let Some((&pno, _)) = self.pages.iter().next_back() else {
                break;
            };
            if let Some((key, _)) = self.pages.remove(&pno) {
                store.release(key);
                dropped += 1;
            }
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_with(b: u8) -> Arc<Page> {
        let mut p = Page::zeroed();
        p.0[0] = b;
        p.0[PAGE_SIZE - 1] = b.wrapping_mul(3);
        Arc::new(p)
    }

    #[test]
    fn zero_page_constant_is_fnv1a_of_a_zeroed_page() {
        let zero = Page::zeroed();
        assert_eq!(ZERO_PAGE_DIGEST, fnv1a(&zero.0[..]));
        assert_eq!(page_digest(&zero), ZERO_PAGE_DIGEST);
    }

    #[test]
    fn a_last_byte_write_leaves_the_zero_path() {
        let mut p = Page::zeroed();
        p.0[PAGE_SIZE - 1] = 1;
        assert_ne!(page_digest(&p), ZERO_PAGE_DIGEST);
        assert_eq!(page_digest(&p), fnv1a(&p.0[..]));
    }

    /// Store keys derive from page digests (and `chaos_evict_one` picks
    /// the smallest key), so the digest values themselves are pinned.
    #[test]
    fn page_digest_golden_values() {
        let mut last = Page::zeroed();
        last.0[PAGE_SIZE - 1] = 1;
        let mut pattern = Page::zeroed();
        for (i, b) in pattern.0.iter_mut().enumerate() {
            *b = (i * 31 % 251) as u8;
        }
        assert_eq!(page_digest(&Page::zeroed()), 0xb93a_0c83_ce3b_6325);
        assert_eq!(page_digest(&last), 0xb93a_0b83_ce3b_6172);
        assert_eq!(page_digest(&pattern), 0x0798_80fe_55db_c518);
    }

    #[test]
    fn store_dedupes_identical_content_and_compacts() {
        let mut store = DedupeStore::new();
        let a = store.intern(page_with(1));
        let b = store.intern(page_with(1));
        let c = store.intern(page_with(2));
        assert_eq!(a, b, "identical contents share a slot");
        assert_ne!(a, c);
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats().dedup_hits, 1);
        assert_eq!(store.stats().inserted, 2);
        store.release(a);
        assert_eq!(store.len(), 2, "one reference still outstanding");
        store.release(b);
        assert_eq!(store.len(), 1, "last release compacts the slot");
        assert!(store.get(a).is_none());
        assert!(store.get(c).is_some());
        assert_eq!(store.stats().compacted, 1);
    }

    #[test]
    fn forced_eviction_breaks_lookup_but_never_panics() {
        let mut store = DedupeStore::new();
        let a = store.intern(page_with(7));
        let evicted = store.chaos_evict_one().expect("one slot live");
        assert_eq!(evicted, a);
        assert!(store.get(a).is_none(), "evicted despite refs");
        store.release(a); // releasing a vanished key is a no-op
        assert_eq!(store.stats().force_evicted, 1);
        assert!(store.chaos_evict_one().is_none(), "empty store");
    }

    #[test]
    fn equal_gens_share_slots_across_records() {
        use svm::loader::Aslr;
        let prog = svm::asm::assemble(
            ".text\nmain:\n movi r1, v\nloop:\n ld r0, [r1, 0]\n addi r0, r0, 1\n st [r1, 0], r0\n jmp loop\n.data\nv: .word 0\n",
        )
        .expect("asm");
        let mut m = Machine::boot(&prog, Aslr::off()).expect("boot");
        let mut store = DedupeStore::new();
        let empty = BTreeMap::new();
        let base = DeltaRecord::capture(&m, &mut store, &empty, &empty);
        assert_eq!(base.delta_len, m.mem.mapped_pages(), "base interns all");
        m.run(&mut svm::NopHook, 2000);
        let next = DeltaRecord::capture(&m, &mut store, base.pages(), &empty);
        assert!(
            next.delta_len < base.delta_len,
            "only dirtied pages re-interned: {} vs {}",
            next.delta_len,
            base.delta_len
        );
        // Both records materialize bit-identically to their captures.
        let rb = base.materialize(&store).expect("base materializes");
        assert_eq!(mem_digest(&rb.mem), base.image_digest());
        let rn = next.materialize(&store).expect("next materializes");
        assert_eq!(mem_digest(&rn.mem), next.image_digest());
        assert_eq!(rn.cpu, m.cpu);
        // Eviction of the base releases only its refs; next survives.
        base.release(&mut store);
        assert!(next.materialize(&store).is_some());
    }

    #[test]
    fn truncation_and_eviction_fail_materialize_closed() {
        use svm::loader::Aslr;
        let prog = svm::asm::assemble(".text\nmain:\n halt\n").expect("asm");
        let m = Machine::boot(&prog, Aslr::off()).expect("boot");
        let mut store = DedupeStore::new();
        let empty = BTreeMap::new();
        let rec = DeltaRecord::capture(&m, &mut store, &empty, &empty);
        assert!(rec.materialize(&store).is_some());
        // Dedupe-store eviction race: a referenced slot vanishes.
        store.chaos_evict_one().expect("live slot");
        assert!(rec.materialize(&store).is_none(), "fails closed");
        // Delta-chain truncation on a fresh capture.
        let mut store2 = DedupeStore::new();
        let mut rec2 = DeltaRecord::capture(&m, &mut store2, &empty, &empty);
        assert!(rec2.chaos_truncate(&mut store2, 2) > 0);
        assert!(rec2.materialize(&store2).is_none(), "fails closed");
    }

    #[test]
    fn capture_over_an_evicted_slot_keeps_the_true_digest() {
        use svm::loader::Aslr;
        let prog = svm::asm::assemble(".text\nmain:\n halt\n").expect("asm");
        let m = Machine::boot(&prog, Aslr::off()).expect("boot");
        let mut store = DedupeStore::new();
        let empty = BTreeMap::new();
        let base = DeltaRecord::capture(&m, &mut store, &empty, &empty);
        store.chaos_evict_one().expect("live slot");
        // Every entry is inherited; one of them has lost its slot.
        let next = DeltaRecord::capture(&m, &mut store, base.pages(), &empty);
        assert_eq!(next.delta_len, 0);
        assert_eq!(next.image_digest(), mem_digest(&m.mem));
        assert!(next.materialize(&store).is_none(), "fails closed");
    }
}
