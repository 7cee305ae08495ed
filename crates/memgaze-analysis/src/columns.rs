//! The columnar access core: a sampled trace as struct-of-arrays columns.
//!
//! Every resident artifact asks the same questions of each access —
//! which function, load class, implied Constant count and source line
//! its ip has, and which block it touches at the footprint, reuse and
//! OS-page granularities. Answering them per access per artifact (a
//! symbol binary search, two annotation-map lookups, a hash-set insert
//! per block) was most of the analysis time. [`AccessColumns`] answers
//! each once per trace:
//!
//! * a dense *site* id per access; the [`SiteTable`] resolves function,
//!   [`LoadClass`], `implied_const` and `src_line` once per distinct ip;
//! * dense *block* ids per access at each granularity
//!   ([`BlockColumn`]): the rank of the access's block among the
//!   trace's distinct blocks, so per-block state is a plain array and
//!   rank order is block order;
//! * sample boundaries, so per-sample kernels slice the columns;
//! * an address-ordered index, so every address range — a zoom region —
//!   is one contiguous slice of it.
//!
//! The kernels that read columns (`reuse::scan_reuse`,
//! `FootprintDiagnostics::of_blocks`, [`crate::window::FunctionWindows`],
//! [`crate::zoom::zoom_columns`] and the working set) are also what the
//! slice entry points (`analyze_window`, `FootprintDiagnostics::compute`,
//! `CodeWindows::build`, `LocationZoom::run`, `working_set`) run, on ids
//! built locally by `with_local_ids` or [`AccessColumns::build`].

use crate::diagnostics::DiagSets;
use crate::fxhash::FxHashMap;
use crate::reuse::ReuseScratch;
use memgaze_model::{Access, AuxAnnotations, BlockSize, Ip, LoadClass, SymbolTable};
use std::cell::RefCell;
use std::ops::Range;

/// Function id of an ip that no symbol covers (grouped as `"<unknown>"`).
pub const UNKNOWN_FUNCTION: u32 = u32::MAX;

/// Name under which accesses outside every symbol are reported.
pub(crate) const UNKNOWN_NAME: &str = "<unknown>";

/// One load site (distinct ip), resolved against the symbol table and the
/// annotation file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Site {
    /// The load's instruction address.
    pub ip: Ip,
    /// Enclosing function's id, or [`UNKNOWN_FUNCTION`].
    pub func: u32,
    /// Static load class (Irregular when unannotated).
    pub class: LoadClass,
    /// Implied Constant loads the site stands for.
    pub implied_const: u32,
    /// Source line (0 when unannotated).
    pub line: u32,
}

/// Distinct sites in first-seen order.
#[derive(Debug, Clone, Default)]
pub struct SiteTable {
    sites: Vec<Site>,
    index: FxHashMap<Ip, u32>,
}

impl SiteTable {
    /// The dense id of `ip`, resolving it on first sight.
    pub(crate) fn intern(&mut self, ip: Ip, annots: &AuxAnnotations, symbols: &SymbolTable) -> u32 {
        if let Some(&id) = self.index.get(&ip) {
            return id;
        }
        let annot = annots.get(ip);
        let id = self.sites.len() as u32;
        self.sites.push(Site {
            ip,
            func: symbols.lookup(ip).map_or(UNKNOWN_FUNCTION, |f| f.id.0),
            class: annot.map_or(LoadClass::Irregular, |a| a.class),
            implied_const: annot.map_or(0, |a| a.implied_const),
            line: annot.map_or(0, |a| a.src_line),
        });
        self.index.insert(ip, id);
        id
    }

    /// The site with dense id `id`.
    #[inline]
    pub fn get(&self, id: u32) -> &Site {
        &self.sites[id as usize]
    }

    /// All sites, indexed by dense id.
    pub fn sites(&self) -> &[Site] {
        &self.sites
    }
}

/// Dense block ids of every access at one granularity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockColumn {
    /// The granularity.
    pub bs: BlockSize,
    /// Per access: the rank of its block among the distinct blocks.
    pub id: Vec<u32>,
    /// Distinct block numbers, strictly increasing: `blocks[id[i]]` is
    /// access `i`'s block.
    pub blocks: Vec<u64>,
}

impl BlockColumn {
    /// Rank the blocks of address-sorted accesses at every size in
    /// `sizes` (each once): `sorted_addr[k]` is the address of access
    /// `by_addr[k]`. Only the finest size scatters ids through the
    /// permutation; a coarser block is a finer block shifted right, so
    /// its ids are a lookup in a table over the finer ranks.
    fn ranked(sorted_addr: &[u64], by_addr: &[u32], sizes: &[BlockSize]) -> Vec<BlockColumn> {
        let mut sizes = sizes.to_vec();
        sizes.sort_unstable_by_key(|bs| bs.log2());
        sizes.dedup();
        let Some(&finest) = sizes.first() else {
            return Vec::new();
        };
        let mut id = vec![0u32; by_addr.len()];
        let mut blocks: Vec<u64> = Vec::new();
        for (&addr, &i) in sorted_addr.iter().zip(by_addr) {
            let b = addr >> finest.log2();
            if blocks.last() != Some(&b) {
                blocks.push(b);
            }
            id[i as usize] = (blocks.len() - 1) as u32;
        }
        let mut cols = vec![BlockColumn {
            bs: finest,
            id,
            blocks,
        }];
        for &bs in &sizes[1..] {
            let fine = &cols[0];
            let shift = bs.log2() - finest.log2();
            let mut blocks: Vec<u64> = Vec::new();
            let of_fine: Vec<u32> = fine
                .blocks
                .iter()
                .map(|&b| {
                    if blocks.last() != Some(&(b >> shift)) {
                        blocks.push(b >> shift);
                    }
                    (blocks.len() - 1) as u32
                })
                .collect();
            let id = fine.id.iter().map(|&f| of_fine[f as usize]).collect();
            cols.push(BlockColumn { bs, id, blocks });
        }
        cols
    }

    /// Number of distinct blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether no access was ranked.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

/// The site column: a site id per access plus the sample boundaries —
/// all that code windows need, without the address-ordered index.
#[derive(Debug, Clone)]
pub struct Sites {
    /// The distinct load sites.
    pub table: SiteTable,
    /// Per access: its site id.
    pub site: Vec<u32>,
    /// Sample `s` holds accesses `sample_start[s]..sample_start[s + 1]`.
    pub sample_start: Vec<usize>,
}

impl Sites {
    /// The site column of `samples` (each an access slice, in time
    /// order).
    ///
    /// # Panics
    /// Panics when the trace holds `u32::MAX` accesses or more.
    pub fn build<'t>(
        samples: impl IntoIterator<Item = &'t [Access]>,
        annots: &AuxAnnotations,
        symbols: &SymbolTable,
    ) -> Sites {
        let mut table = SiteTable::default();
        let mut site = Vec::new();
        let mut sample_start = vec![0];
        for accesses in samples {
            site.extend(accesses.iter().map(|a| table.intern(a.ip, annots, symbols)));
            sample_start.push(site.len());
        }
        assert!(
            u32::try_from(site.len()).is_ok(),
            "fewer than 2^32 accesses"
        );
        Sites {
            table,
            site,
            sample_start,
        }
    }

    /// Number of accesses.
    pub fn len(&self) -> usize {
        self.site.len()
    }

    /// Whether the trace has no accesses.
    pub fn is_empty(&self) -> bool {
        self.site.is_empty()
    }

    /// Number of samples.
    pub fn num_samples(&self) -> usize {
        self.sample_start.len() - 1
    }

    /// Access index range of sample `s`.
    #[inline]
    pub fn sample(&self, s: usize) -> Range<usize> {
        self.sample_start[s]..self.sample_start[s + 1]
    }

    /// Every sample's access index range, in sample order.
    pub fn sample_ranges(&self) -> Vec<Range<usize>> {
        (0..self.num_samples()).map(|s| self.sample(s)).collect()
    }

    /// The site of access `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &Site {
        self.table.get(self.site[i])
    }
}

/// A sampled trace as columns; see the module docs.
#[derive(Debug, Clone)]
pub struct AccessColumns {
    /// Site ids and sample boundaries.
    pub sites: Sites,
    /// Block ids at each granularity asked for at build time.
    pub blocks: Vec<BlockColumn>,
    /// Access indices in address order (ties in access order). The
    /// sorted addresses themselves are not kept: block ids rise along
    /// this order, so a block column locates each block's accesses in it.
    pub by_addr: Vec<u32>,
}

impl AccessColumns {
    /// Columns over `samples` (each an access slice, in time order) with
    /// block ids at every size in `sizes`.
    ///
    /// # Panics
    /// Panics when the trace holds `u32::MAX` accesses or more.
    pub fn build<'t>(
        samples: impl IntoIterator<Item = &'t [Access]> + Clone,
        annots: &AuxAnnotations,
        symbols: &SymbolTable,
        sizes: &[BlockSize],
    ) -> AccessColumns {
        let sites = Sites::build(samples.clone(), annots, symbols);
        let addrs = samples
            .into_iter()
            .flatten()
            .map(|a| a.addr.raw())
            .collect();
        let (sorted_addr, by_addr) = sort_by_addr(addrs);
        let blocks = BlockColumn::ranked(&sorted_addr, &by_addr, sizes);
        AccessColumns {
            sites,
            blocks,
            by_addr,
        }
    }

    /// Number of accesses.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether the trace has no accesses.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Block ids at `bs`, when the columns were built with that size.
    pub fn column(&self, bs: BlockSize) -> Option<&BlockColumn> {
        self.blocks.iter().find(|c| c.bs == bs)
    }

    /// `(block id at col, load class, implied Constant loads)` of each
    /// access in `idx` — the footprint-diagnostics kernel's input.
    pub fn classified<'c>(
        &'c self,
        col: &'c BlockColumn,
        idx: impl Iterator<Item = usize> + 'c,
    ) -> impl Iterator<Item = (u32, LoadClass, u32)> + 'c {
        idx.map(move |i| {
            let site = self.sites.get(i);
            (col.id[i], site.class, site.implied_const)
        })
    }
}

/// Radix digit width of [`sort_by_addr`].
const DIGIT_BITS: u32 = 11;

/// Access indices sorted by address (equal addresses in access order).
/// Returns the sorted addresses and their access indices.
///
/// Only the bits on which the addresses differ matter — not the shared
/// high bits of a heap, nor the zero low bits of aligned loads. When
/// they span at most 32 bits, each access packs into one `u64` (those
/// bits above its index) and an LSD radix sort over the packed words
/// takes a pass per 11 bits; wider spans fall back to a comparison sort.
fn sort_by_addr(addrs: Vec<u64>) -> (Vec<u64>, Vec<u32>) {
    let (any, all) = addrs
        .iter()
        .fold((0u64, u64::MAX), |(or, and), &a| (or | a, and & a));
    let varying = any ^ all;
    let low = varying.trailing_zeros().min(63);
    let span = 64 - varying.leading_zeros() - low.min(64 - varying.leading_zeros());
    if span > 32 {
        let mut pairs: Vec<(u64, u32)> = addrs.into_iter().zip(0..).collect();
        pairs.sort_unstable();
        return pairs.into_iter().unzip();
    }
    let field = (1u64 << span) - 1;
    let mut keys: Vec<u64> = addrs
        .iter()
        .zip(0..)
        .map(|(&a, i): (&u64, u64)| ((a >> low) & field) << 32 | i)
        .collect();
    // The addresses' buffer becomes the scatter target, and the packed
    // words become the sorted addresses: no extra buffer per column.
    let mut tmp = addrs;
    let mask = (1u64 << DIGIT_BITS) - 1;
    let mut shift = 32;
    while shift < 32 + span {
        let mut next = vec![0usize; 1 << DIGIT_BITS];
        for &k in &keys {
            next[((k >> shift) & mask) as usize] += 1;
        }
        let mut at = 0;
        for slot in next.iter_mut() {
            let count = *slot;
            *slot = at;
            at += count;
        }
        for &k in &keys {
            let slot = &mut next[((k >> shift) & mask) as usize];
            tmp[*slot] = k;
            *slot += 1;
        }
        std::mem::swap(&mut keys, &mut tmp);
        shift += DIGIT_BITS;
    }
    let by_addr = keys.iter().map(|&k| k as u32).collect();
    let shared = all & !(field << low);
    for k in keys.iter_mut() {
        *k = shared | (*k >> 32) << low;
    }
    (keys, by_addr)
}

/// Per-thread scratch of the slice entry points: the local block-id map
/// and ids, and the kernels' scratch. Reused across calls, so analysing
/// many small windows (a sample, a 16-access locality chunk) allocates
/// no scratch per window.
#[derive(Default)]
struct LocalScratch {
    index: FxHashMap<u64, u32>,
    ids: Vec<u32>,
    blocks: Vec<u64>,
    kernels: KernelScratch,
}

/// Scratch of the reuse and diagnostics kernels.
#[derive(Default)]
pub(crate) struct KernelScratch {
    pub(crate) reuse: ReuseScratch,
    pub(crate) diag: DiagSets,
}

thread_local! {
    static LOCAL: RefCell<LocalScratch> = RefCell::default();
}

/// Run `f` on dense block ids of one access slice, assigned in
/// first-touch order — the local columns the slice entry points hand to
/// the column kernels: `ids[i]` is access `i`'s id and `blocks[id]` its
/// block number. `f` must not call back into a slice entry point.
pub(crate) fn with_local_ids<R>(
    accesses: &[Access],
    bs: BlockSize,
    f: impl FnOnce(&[u32], &[u64], &mut KernelScratch) -> R,
) -> R {
    LOCAL.with(|local| {
        let local = &mut *local.borrow_mut();
        // Clearing a map costs its capacity: drop one grown by a far
        // larger window than this one.
        if local.index.capacity() > 4 * accesses.len() + 1024 {
            local.index = FxHashMap::default();
        }
        local.index.clear();
        local.ids.clear();
        local.blocks.clear();
        for a in accesses {
            let b = a.addr.block(bs);
            let next = local.blocks.len() as u32;
            let id = *local.index.entry(b).or_insert(next);
            if id == next {
                local.blocks.push(b);
            }
            local.ids.push(id);
        }
        f(&local.ids, &local.blocks, &mut local.kernels)
    })
}

/// A set of dense ids as a bitset that remembers what it set: `clear`
/// costs the ids inserted since the last clear, so one scratch set serves
/// every window of a pass instead of a fresh hash set per window, and
/// the bits of a trace's ids stay cache-resident.
#[derive(Debug, Clone, Default)]
pub(crate) struct DistinctIds {
    bits: Vec<u64>,
    inserted: Vec<u32>,
}

impl DistinctIds {
    /// Empty the set and make room for ids below `n`.
    pub(crate) fn clear(&mut self, n: usize) {
        for id in self.inserted.drain(..) {
            self.bits[id as usize >> 6] = 0;
        }
        let words = n.div_ceil(64);
        if self.bits.len() < words {
            self.bits.resize(words, 0);
        }
    }

    /// Insert `id`; true when it was not yet in the set.
    #[inline]
    pub(crate) fn insert(&mut self, id: u32) -> bool {
        let word = &mut self.bits[id as usize >> 6];
        let bit = 1u64 << (id & 63);
        let fresh = *word & bit == 0;
        if fresh {
            *word |= bit;
            self.inserted.push(id);
        }
        fresh
    }
}

/// A map from dense id to the last position it was seen at — the reuse
/// kernel's `last` array, emptied by clearing its [`DistinctIds`].
#[derive(Debug, Clone, Default)]
pub(crate) struct LastSeen {
    seen: DistinctIds,
    pos: Vec<u32>,
}

impl LastSeen {
    /// Forget every position and make room for ids below `n`.
    pub(crate) fn clear(&mut self, n: usize) {
        self.seen.clear(n);
        if self.pos.len() < n {
            self.pos.resize(n, 0);
        }
    }

    /// Record `id` at `pos`; returns the position it was last seen at
    /// since the last `clear`.
    #[inline]
    pub(crate) fn replace(&mut self, id: u32, pos: usize) -> Option<usize> {
        let prev = self.pos[id as usize] as usize;
        self.pos[id as usize] = pos as u32;
        if self.seen.insert(id) {
            None
        } else {
            Some(prev)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memgaze_model::{FunctionId, IpAnnot};

    #[test]
    fn sites_resolve_once_and_blocks_rank_in_address_order() {
        let mut symbols = SymbolTable::new();
        symbols.add_function("f", Ip(0x100), Ip(0x200), "f.c");
        let mut annots = AuxAnnotations::new();
        let mut a = IpAnnot::of_class(LoadClass::Strided, FunctionId(0));
        a.implied_const = 2;
        a.src_line = 7;
        annots.insert(Ip(0x110), a);
        let s0 = vec![
            Access::new(Ip(0x110), 0x1040u64, 0),
            Access::new(Ip(0x999), 0x1000u64, 1),
        ];
        let s1 = vec![Access::new(Ip(0x110), 0x2000u64, 5)];
        let cols = AccessColumns::build(
            [s0.as_slice(), s1.as_slice()],
            &annots,
            &symbols,
            &[
                BlockSize::CACHE_LINE,
                BlockSize::OS_PAGE,
                BlockSize::CACHE_LINE,
            ],
        );
        assert_eq!(cols.len(), 3);
        assert_eq!(cols.sites.num_samples(), 2);
        assert_eq!(cols.sites.sample_ranges(), vec![0..2, 2..3]);
        assert_eq!(cols.sites.site, vec![0, 1, 0]);
        assert_eq!(
            *cols.sites.get(0),
            Site {
                ip: Ip(0x110),
                func: 0,
                class: LoadClass::Strided,
                implied_const: 2,
                line: 7
            }
        );
        let unknown = cols.sites.get(1);
        assert_eq!(unknown.func, UNKNOWN_FUNCTION);
        assert_eq!(unknown.class, LoadClass::Irregular);
        assert_eq!(cols.blocks.len(), 2, "duplicate sizes are built once");
        let lines = cols.column(BlockSize::CACHE_LINE).unwrap();
        assert_eq!(lines.blocks, vec![0x40, 0x41, 0x80]);
        assert_eq!(lines.id, vec![1, 0, 2]);
        let pages = cols.column(BlockSize::OS_PAGE).unwrap();
        assert_eq!(
            (pages.blocks.clone(), pages.id.clone()),
            (vec![1, 2], vec![0, 0, 1])
        );
        assert!(cols.column(BlockSize::WORD).is_none());
        assert_eq!(cols.by_addr, vec![1, 0, 2]);
    }

    #[test]
    fn address_sort_orders_by_address_then_access() {
        let heap = [
            0x7f00_0012_3418u64,
            0x7f00_0000_0ff8,
            0x7f00_0012_3418,
            0x7f00_0fff_fff8,
        ];
        let wide = [
            0x7f00_0000_1000u64,
            5,
            u64::MAX,
            0x7f00_0000_0ff8,
            5,
            0,
            1 << 40,
        ];
        for addrs in [&heap[..], &wide[..], &[7, 7], &[u64::MAX], &[]] {
            let mut want: Vec<(u64, u32)> = addrs.iter().copied().zip(0..).collect();
            want.sort_unstable();
            let want: (Vec<u64>, Vec<u32>) = want.into_iter().unzip();
            assert_eq!(sort_by_addr(addrs.to_vec()), want, "{addrs:x?}");
        }
    }

    #[test]
    fn scratch_sets_forget_on_clear() {
        let mut d = DistinctIds::default();
        d.clear(4);
        assert!(d.insert(3) && !d.insert(3));
        d.clear(4);
        assert!(d.insert(3));
        let mut last = LastSeen::default();
        last.clear(2);
        assert_eq!(last.replace(1, 5), None);
        assert_eq!(last.replace(1, 9), Some(5));
        last.clear(2);
        assert_eq!(last.replace(1, 0), None);
    }

    #[test]
    fn interned_ids_follow_first_touch() {
        let acc: Vec<Access> = [0x80u64, 0x0, 0x88, 0x40]
            .iter()
            .enumerate()
            .map(|(t, &a)| Access::new(Ip(1), a, t as u64))
            .collect();
        assert_eq!(
            with_local_ids(&acc, BlockSize::CACHE_LINE, |ids, blocks, _| {
                (ids.to_vec(), blocks.to_vec())
            }),
            (vec![0, 1, 0, 2], vec![2, 0, 1])
        );
    }
}
