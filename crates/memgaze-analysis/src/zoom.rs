//! Location zooming (paper §IV-C2, Fig. 5).
//!
//! Finds memory regions with poor spatio-temporal locality top-down: a
//! region is divided into fixed-size pages; a *hot subregion* is a maximal
//! run of contiguous pages, each with at least one access, whose total is
//! at least `t`% of the region's accesses; the page size shrinks per
//! level and the zoom stops at a minimum region size. The *contiguous*
//! property matters: cold gaps inside a hot region are kept so the reuse
//! distance `D` reflects the locality of the *entire* object.

use crate::columns::{AccessColumns, BlockColumn, UNKNOWN_NAME};
use crate::reuse::{sample_analyses, BlockReuse};
use memgaze_model::{Access, AuxAnnotations, BlockSize, FunctionId, SymbolTable};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;

/// Zoom parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ZoomConfig {
    /// Access-block size for reuse distance `D` (default: cache line).
    pub access_block: BlockSize,
    /// Initial page size (log₂ bytes) used to find subregions.
    pub initial_page_log2: u8,
    /// Minimum page size; reaching it stops the recursion.
    pub min_page_log2: u8,
    /// Page-size shrink per level, in log₂ steps.
    pub shrink_log2: u8,
    /// Hot-subregion threshold `t` as a percentage of the parent
    /// region's accesses.
    pub hot_threshold_pct: f64,
    /// Stop descending once a region is this small (bytes).
    pub min_region_bytes: u64,
    /// Hard recursion depth cap.
    pub max_depth: u32,
}

impl Default for ZoomConfig {
    fn default() -> Self {
        ZoomConfig {
            access_block: BlockSize::CACHE_LINE,
            initial_page_log2: 20, // 1 MiB pages at the top
            min_page_log2: 12,     // stop at 4-KiB pages
            shrink_log2: 2,        // ÷4 per level
            hot_threshold_pct: 10.0,
            min_region_bytes: 4096,
            max_depth: 8,
        }
    }
}

/// Code attributed to a region: function, line, and access count.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegionCode {
    /// Function name.
    pub function: String,
    /// Source line of the hottest access site in the region.
    pub line: u32,
    /// Accesses from this function into the region.
    pub accesses: u64,
}

/// A node of the location zoom tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ZoomRegion {
    /// Region address range `[lo, hi)`.
    pub lo: u64,
    /// Exclusive upper address, saturated at `u64::MAX`: a region that
    /// holds an access at `u64::MAX` has `hi == u64::MAX` and still
    /// counts that access.
    pub hi: u64,
    /// Accesses into the region.
    pub accesses: u64,
    /// Percent of the *trace's* total accesses ("hotness").
    pub pct_of_total: f64,
    /// Mean spatio-temporal reuse distance `D` of accesses to the region.
    pub reuse_d: f64,
    /// Distinct access blocks touched in the region.
    pub blocks: u64,
    /// Zoom depth (0 = top-level region).
    pub depth: u32,
    /// Hot subregions (empty at the leaves).
    pub children: Vec<ZoomRegion>,
    /// Code attribution, hottest first.
    pub code: Vec<RegionCode>,
}

impl ZoomRegion {
    /// Accesses per touched block — the paper's "A / block" hotness.
    pub fn accesses_per_block(&self) -> f64 {
        if self.blocks == 0 {
            0.0
        } else {
            self.accesses as f64 / self.blocks as f64
        }
    }

    /// Region size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.hi - self.lo
    }

    /// Depth-first iterator over leaf regions (final zoom results).
    pub fn leaves(&self) -> Vec<&ZoomRegion> {
        let mut out = Vec::new();
        let mut stack = vec![self];
        while let Some(r) = stack.pop() {
            if r.children.is_empty() {
                out.push(r);
            } else {
                stack.extend(r.children.iter());
            }
        }
        out.sort_by_key(|r| r.lo);
        out
    }
}

/// The zoom analysis: accesses plus merged per-block reuse data.
pub struct LocationZoom<'a> {
    accesses: &'a [Access],
    reuse: &'a BlockReuse,
    symbols: &'a SymbolTable,
    annots: Option<&'a AuxAnnotations>,
    cfg: ZoomConfig,
}

impl<'a> LocationZoom<'a> {
    /// Prepare a zoom over the given accesses (typically every sampled
    /// access, with `reuse` merged across samples).
    pub fn new(
        accesses: &'a [Access],
        reuse: &'a BlockReuse,
        symbols: &'a SymbolTable,
        cfg: ZoomConfig,
    ) -> LocationZoom<'a> {
        LocationZoom {
            accesses,
            reuse,
            symbols,
            annots: None,
            cfg,
        }
    }

    /// Attach the annotation file so region code attribution carries
    /// source lines (paper Fig. 5's "code (function, line)").
    pub fn with_annotations(mut self, annots: &'a AuxAnnotations) -> LocationZoom<'a> {
        self.annots = Some(annots);
        self
    }

    /// Run the zoom from the full address range; returns the root region
    /// (or `None` for an empty trace). Builds the accesses' columns and
    /// runs [`zoom_columns`].
    pub fn run(&self) -> Option<ZoomRegion> {
        let none = AuxAnnotations::new();
        let annots = self.annots.unwrap_or(&none);
        let ps = page_size(&self.cfg);
        let cols = AccessColumns::build([self.accesses], annots, self.symbols, &[ps]);
        let pages = cols.column(ps).expect("column built");
        let bounds = address_bounds(self.accesses)?;
        zoom_columns(&cols, pages, bounds, self.reuse, self.symbols, self.cfg)
    }
}

/// The finest page size a zoom with `cfg` divides regions into: block ids
/// at this size (or finer) are all it needs of the addresses.
pub fn page_size(cfg: &ZoomConfig) -> BlockSize {
    BlockSize::from_log2(cfg.min_page_log2)
}

/// The lowest and highest address of `accesses`, or `None` when there
/// are none.
pub fn address_bounds<'t>(accesses: impl IntoIterator<Item = &'t Access>) -> Option<(u64, u64)> {
    accesses
        .into_iter()
        .map(|a| a.addr.raw())
        .fold(None, |b, x| {
            Some(b.map_or((x, x), |(lo, hi): (u64, u64)| (lo.min(x), hi.max(x))))
        })
}

/// The zoom over a trace's columns: returns the root region, or `None`
/// when there are no accesses. `pages` are the columns' block ids at
/// [`page_size`] or finer, and `bounds` the trace's lowest and highest
/// address. Code attribution takes its lines from the site table, so
/// columns built without annotations attribute line 0.
///
/// Every region is an address range of whole pages (clipped to the
/// trace's bounds), so its accesses are one contiguous slice of the
/// address-ordered index, and its pages one range of the page column's
/// distinct blocks: hot runs are found by one scan over those blocks,
/// and code attribution counts each site's accesses in the slice by
/// binary search in the site's position list (or, for a small region, by
/// one scan into dense per-site counters).
///
/// The configured initial page size is clamped so the top level sees
/// at least four pages — a span smaller than one page would otherwise
/// never be divided.
///
/// # Panics
/// Panics when `pages` is coarser than [`page_size`].
pub fn zoom_columns(
    cols: &AccessColumns,
    pages: &BlockColumn,
    bounds: (u64, u64),
    reuse: &BlockReuse,
    symbols: &SymbolTable,
    cfg: ZoomConfig,
) -> Option<ZoomRegion> {
    assert!(
        pages.bs.log2() <= cfg.min_page_log2,
        "page column coarser than the zoom's finest page"
    );
    if cols.is_empty() {
        return None;
    }
    let (lo, hi) = (bounds.0, bounds.1.saturating_add(1));
    let span = (hi - lo).max(1);
    let span_log2 = 63 - span.leading_zeros() as u8;
    let page_log2: u8 = cfg
        .initial_page_log2
        .min(span_log2.saturating_sub(2))
        .max(cfg.min_page_log2);

    // Address-order positions of each page: block ids rise along the
    // address order, so page `r` holds positions `start[r]..start[r + 1]`.
    let mut start = vec![0usize; pages.len() + 1];
    for &id in &pages.id {
        start[id as usize + 1] += 1;
    }
    for r in 1..start.len() {
        start[r] += start[r - 1];
    }

    // Function names ranked in name order, so sorting by rank is sorting
    // by name; sites then carry (name rank, line).
    let sites = cols.sites.table.sites();
    let site_name: Vec<&str> = sites
        .iter()
        .map(|s| {
            symbols
                .function(FunctionId(s.func))
                .map_or(UNKNOWN_NAME, |f| f.name.as_str())
        })
        .collect();
    let mut names = site_name.clone();
    names.sort_unstable();
    names.dedup();
    // Each site's accesses by address-order position, so a region's count
    // of a site is two binary searches.
    let by_addr_site: Vec<u32> = cols
        .by_addr
        .iter()
        .map(|&i| cols.sites.site[i as usize])
        .collect();
    let mut site_start = vec![0usize; sites.len() + 1];
    for &site in &by_addr_site {
        site_start[site as usize + 1] += 1;
    }
    for s in 1..site_start.len() {
        site_start[s] += site_start[s - 1];
    }
    let mut next = site_start.clone();
    let mut site_pos = vec![0u32; by_addr_site.len()];
    for (k, &site) in by_addr_site.iter().enumerate() {
        site_pos[next[site as usize]] = k as u32;
        next[site as usize] += 1;
    }
    let mut zoom = Zoom {
        blocks: &pages.blocks,
        block_log2: pages.bs.log2(),
        start,
        sites: by_addr_site,
        site_pos,
        site_start,
        site_key: sites
            .iter()
            .zip(&site_name)
            .map(|(s, name)| (names.binary_search(name).unwrap() as u32, s.line))
            .collect(),
        names,
        counts: vec![0; sites.len()],
        touched: Vec::new(),
        reuse,
        cfg,
        total: cols.len() as u64,
    };
    Some(zoom.region(lo, hi, 0, pages.len(), page_log2, 0))
}

/// One zoom pass's inputs and scratch.
struct Zoom<'a> {
    /// Distinct block numbers of the page column, in address order.
    blocks: &'a [u64],
    block_log2: u8,
    /// Block `r`'s accesses are address-order positions
    /// `start[r]..start[r + 1]`.
    start: Vec<usize>,
    /// Site id of each access, in address order.
    sites: Vec<u32>,
    /// Address-order positions grouped by site, increasing within each
    /// site: site `s` owns `site_pos[site_start[s]..site_start[s + 1]]`.
    site_pos: Vec<u32>,
    site_start: Vec<usize>,
    /// Per site: (rank of its function name, source line).
    site_key: Vec<(u32, u32)>,
    /// Distinct function names, sorted.
    names: Vec<&'a str>,
    /// Per-site access counts of the region being described (all zero
    /// between regions).
    counts: Vec<u64>,
    /// Sites with a non-zero count.
    touched: Vec<u32>,
    reuse: &'a BlockReuse,
    cfg: ZoomConfig,
    total: u64,
}

impl Zoom<'_> {
    /// The node for `[lo, hi)`, whose accesses are address-order
    /// positions `a..b`.
    fn describe(&mut self, lo: u64, hi: u64, a: usize, b: usize, depth: u32) -> ZoomRegion {
        let bs = self.cfg.access_block;
        let lo_block = lo >> bs.log2();
        let hi_block = hi.div_ceil(bs.bytes());
        let d = self.reuse.region_mean_distance(lo_block, hi_block);
        let blocks = self.reuse.region_blocks(lo_block, hi_block);

        // Code attribution: accesses per site, folded into (function,
        // line) counts in name-then-line order.
        let mut lines: Vec<(u32, u32, u64)> = self
            .site_counts(a, b)
            .into_iter()
            .map(|(site, count)| {
                let (name, line) = self.site_key[site as usize];
                (name, line, count)
            })
            .collect();
        lines.sort_unstable();
        // Per function: (accesses, name rank, hottest line). Ties break
        // explicitly: among equal counts the lower line is the hottest,
        // and functions with equal counts are ordered by name.
        let mut funcs: Vec<(u64, u32, u32)> = Vec::new();
        for group in lines.chunk_by(|x, y| x.0 == y.0) {
            let mut total = 0;
            let mut hottest = (0u64, 0u32);
            for same_line in group.chunk_by(|x, y| x.1 == y.1) {
                let c: u64 = same_line.iter().map(|x| x.2).sum();
                total += c;
                if c > hottest.0 {
                    hottest = (c, same_line[0].1);
                }
            }
            funcs.push((total, group[0].0, hottest.1));
        }
        funcs.sort_by_key(|&(accesses, _, _)| Reverse(accesses));
        funcs.truncate(4);
        let code = funcs
            .into_iter()
            .map(|(accesses, name, line)| RegionCode {
                function: self.names[name as usize].to_string(),
                line,
                accesses,
            })
            .collect();

        let accesses = (b - a) as u64;
        ZoomRegion {
            lo,
            hi,
            accesses,
            pct_of_total: if self.total == 0 {
                0.0
            } else {
                100.0 * accesses as f64 / self.total as f64
            },
            reuse_d: d,
            blocks,
            depth,
            children: Vec::new(),
            code,
        }
    }

    /// `(site, accesses)` of every site with accesses at address-order
    /// positions `a..b`: two binary searches per site when that is
    /// cheaper than a scan of the range, else one scan into per-site
    /// counters.
    fn site_counts(&mut self, a: usize, b: usize) -> Vec<(u32, u64)> {
        let sites = self.site_start.len() - 1;
        let search_cost = sites * 2 * (self.sites.len().ilog2() as usize + 1);
        if search_cost < b - a {
            return (0..sites)
                .filter_map(|site| {
                    let pos = &self.site_pos[self.site_start[site]..self.site_start[site + 1]];
                    let count = pos.partition_point(|&k| (k as usize) < b)
                        - pos.partition_point(|&k| (k as usize) < a);
                    (count > 0).then_some((site as u32, count as u64))
                })
                .collect();
        }
        for &site in &self.sites[a..b] {
            if self.counts[site as usize] == 0 {
                self.touched.push(site);
            }
            self.counts[site as usize] += 1;
        }
        self.touched
            .drain(..)
            .map(|site| (site, std::mem::take(&mut self.counts[site as usize])))
            .collect()
    }

    /// The subtree of `[lo, hi)`, whose pages are blocks `ra..rb`.
    fn region(
        &mut self,
        lo: u64,
        hi: u64,
        ra: usize,
        rb: usize,
        page_log2: u8,
        depth: u32,
    ) -> ZoomRegion {
        let (a, b) = (self.start[ra], self.start[rb]);
        let mut region = self.describe(lo, hi, a, b, depth);
        let page = 1u64 << page_log2;
        let stop = depth >= self.cfg.max_depth
            || page_log2 < self.cfg.min_page_log2
            || (hi - lo) <= self.cfg.min_region_bytes
            || (hi - lo) <= page;
        if stop || a == b {
            return region;
        }

        // Maximal runs of contiguous non-empty pages: consecutive blocks
        // whose pages differ by at most one.
        let threshold = ((b - a) as f64 * self.cfg.hot_threshold_pct / 100.0).ceil() as usize;
        let next_page_log2 = page_log2
            .saturating_sub(self.cfg.shrink_log2)
            .max(self.cfg.min_page_log2);
        let shift = page_log2 - self.block_log2;
        let mut r = ra;
        while r < rb {
            let first_page = self.blocks[r] >> shift;
            let mut last_page = first_page;
            let mut j = r + 1;
            while j < rb && self.blocks[j] >> shift <= last_page + 1 {
                last_page = self.blocks[j] >> shift;
                j += 1;
            }
            let (run_ra, run_rb) = (r, j);
            r = j;
            if self.start[run_rb] - self.start[run_ra] < threshold.max(1) {
                continue; // not hot enough
            }
            let run_lo = (first_page << page_log2).max(lo);
            let run_end = (u128::from(last_page) + 1) << page_log2;
            let run_hi = run_end.min(u128::from(hi)) as u64;
            // A run identical to the parent at the minimum page size
            // cannot be divided further — the parent is the leaf.
            if run_lo == lo && run_hi == hi && next_page_log2 >= page_log2 {
                continue;
            }
            let child = self.region(run_lo, run_hi, run_ra, run_rb, next_page_log2, depth + 1);
            region.children.push(child);
        }
        region
    }
}

/// Convenience: run the zoom over every sampled access of a trace.
pub fn zoom_trace(
    trace: &memgaze_model::SampledTrace,
    symbols: &SymbolTable,
    cfg: ZoomConfig,
) -> Option<ZoomRegion> {
    zoom_trace_annotated(trace, symbols, None, cfg)
}

/// [`zoom_trace`] with source-line attribution from the annotation file.
pub fn zoom_trace_annotated(
    trace: &memgaze_model::SampledTrace,
    symbols: &SymbolTable,
    annots: Option<&AuxAnnotations>,
    cfg: ZoomConfig,
) -> Option<ZoomRegion> {
    let none = AuxAnnotations::new();
    let samples = trace.samples.iter().map(|s| s.accesses.as_slice());
    let ps = page_size(&cfg);
    let annots = annots.unwrap_or(&none);
    let cols = AccessColumns::build(samples, annots, symbols, &[cfg.access_block, ps]);
    let col = cols.column(cfg.access_block).expect("column built");
    let analyses = sample_analyses(&cols, col, crate::par::default_threads());
    let merged = BlockReuse::from_columns(&cols, col, &analyses);
    let pages = cols.column(ps).expect("column built");
    let bounds = address_bounds(trace.accesses())?;
    zoom_columns(&cols, pages, bounds, &merged, symbols, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reuse;
    use memgaze_model::{Access, Ip};

    /// Two hot objects far apart: object A at 1 MiB (streamed, poor
    /// locality), object B at 64 MiB (reused heavily).
    fn two_objects() -> Vec<Access> {
        let mut acc = Vec::new();
        let mut t = 0u64;
        let a_base = 1u64 << 20;
        let b_base = 64u64 << 20;
        for rep in 0..4u64 {
            for i in 0..256u64 {
                acc.push(Access::new(Ip(0x100), a_base + (rep * 256 + i) * 64, t));
                t += 1;
            }
            for i in 0..256u64 {
                acc.push(Access::new(Ip(0x200), b_base + (i % 8) * 64, t));
                t += 1;
            }
        }
        acc
    }

    fn zoom_over(acc: &[Access], cfg: ZoomConfig) -> ZoomRegion {
        let r = reuse::analyze_window(acc, cfg.access_block);
        let br = BlockReuse::from_analysis(acc, cfg.access_block, &r);
        let symbols = SymbolTable::new();
        let z = LocationZoom::new(acc, &br, &symbols, cfg);
        z.run().unwrap()
    }

    #[test]
    fn finds_two_hot_subregions() {
        let acc = two_objects();
        let root = zoom_over(&acc, ZoomConfig::default());
        assert_eq!(root.accesses, acc.len() as u64);
        assert!((root.pct_of_total - 100.0).abs() < 1e-9);
        // Two separate hot objects must appear as distinct leaves.
        let leaves = root.leaves();
        assert!(leaves.len() >= 2, "leaves: {}", leaves.len());
        let a_leaf = leaves.iter().find(|r| r.lo < (2 << 20)).unwrap();
        let b_leaf = leaves.iter().find(|r| r.lo >= (63 << 20)).unwrap();
        // A is streamed (1024 distinct blocks, 1 access each); B is
        // reused (8 blocks, 128 accesses each).
        assert!(a_leaf.accesses_per_block() < 2.0);
        assert!(b_leaf.accesses_per_block() > 50.0);
        // B's reuse distance is small: cycling 8 blocks gives D = 7 for
        // most reuses, with a few large cross-phase distances pulling the
        // mean up slightly.
        assert!(b_leaf.reuse_d < 20.0, "D = {}", b_leaf.reuse_d);
    }

    #[test]
    fn threshold_filters_cold_runs() {
        // One hot object plus a single stray access far away: with a 10%
        // threshold the stray page is not a hot subregion.
        let mut acc = two_objects();
        acc.push(Access::new(Ip(0x300), 512u64 << 20, 99_999));
        let root = zoom_over(&acc, ZoomConfig::default());
        let leaves = root.leaves();
        assert!(
            leaves.iter().all(|r| r.accesses > 1),
            "stray access must not become a leaf"
        );
    }

    #[test]
    fn depth_and_page_floor_terminate() {
        let acc = two_objects();
        let cfg = ZoomConfig {
            max_depth: 2,
            ..Default::default()
        };
        let root = zoom_over(&acc, cfg);
        fn max_depth(r: &ZoomRegion) -> u32 {
            r.children.iter().map(max_depth).max().unwrap_or(r.depth)
        }
        assert!(max_depth(&root) <= 2);
    }

    #[test]
    fn children_nest_within_parents() {
        let acc = two_objects();
        let root = zoom_over(&acc, ZoomConfig::default());
        fn check(r: &ZoomRegion) {
            let sum: u64 = r.children.iter().map(|c| c.accesses).sum();
            assert!(sum <= r.accesses, "children exceed parent accesses");
            for c in &r.children {
                assert!(c.lo >= r.lo && c.hi <= r.hi, "child outside parent");
                assert_eq!(c.depth, r.depth + 1);
                check(c);
            }
        }
        check(&root);
    }

    #[test]
    fn annotations_attach_source_lines() {
        use memgaze_model::{AuxAnnotations, FunctionId, IpAnnot, LoadClass};
        let acc = two_objects();
        let r = reuse::analyze_window(&acc, BlockSize::CACHE_LINE);
        let br = BlockReuse::from_analysis(&acc, BlockSize::CACHE_LINE, &r);
        let mut symbols = SymbolTable::new();
        symbols.add_function("streamer", Ip(0x100), Ip(0x200), "w.c");
        symbols.add_function("reuser", Ip(0x200), Ip(0x300), "w.c");
        let mut annots = AuxAnnotations::new();
        let mut a1 = IpAnnot::of_class(LoadClass::Strided, FunctionId(0));
        a1.src_line = 42;
        annots.insert(Ip(0x100), a1);
        let mut a2 = IpAnnot::of_class(LoadClass::Irregular, FunctionId(1));
        a2.src_line = 77;
        annots.insert(Ip(0x200), a2);

        let root = LocationZoom::new(&acc, &br, &symbols, ZoomConfig::default())
            .with_annotations(&annots)
            .run()
            .unwrap();
        let leaves = root.leaves();
        let a_leaf = leaves.iter().find(|r| r.lo < (2 << 20)).unwrap();
        let code = a_leaf
            .code
            .iter()
            .find(|c| c.function == "streamer")
            .unwrap();
        assert_eq!(code.line, 42);
        let b_leaf = leaves.iter().find(|r| r.lo >= (63 << 20)).unwrap();
        let code = b_leaf.code.iter().find(|c| c.function == "reuser").unwrap();
        assert_eq!(code.line, 77);
    }

    #[test]
    fn access_at_top_of_address_space() {
        // `max + 1` used to overflow: a debug build panicked and a
        // release build returned a root with `hi < lo`.
        let top = u64::MAX;
        let acc: Vec<Access> = (0..64u64)
            .map(|i| Access::new(Ip(0x100), top - (i % 16) * 4096, i))
            .chain([Access::new(Ip(0x200), top - (1 << 30), 64)])
            .collect();
        let root = zoom_over(&acc, ZoomConfig::default());
        assert!(root.lo <= root.hi, "[{:#x}, {:#x})", root.lo, root.hi);
        assert_eq!(root.hi, u64::MAX);
        assert_eq!(root.accesses, acc.len() as u64);
        for leaf in root.leaves() {
            assert!(leaf.lo <= leaf.hi && leaf.accesses > 0, "{leaf:?}");
        }
        let only_top = zoom_over(&[Access::new(Ip(0x100), top, 0)], ZoomConfig::default());
        assert_eq!((only_top.lo, only_top.hi, only_top.accesses), (top, top, 1));
    }

    #[test]
    fn empty_input_yields_none() {
        let br = BlockReuse::default();
        let symbols = SymbolTable::new();
        let z = LocationZoom::new(&[], &br, &symbols, ZoomConfig::default());
        assert!(z.run().is_none());
    }
}
