//! Branch-free flattened lowering of retained streams — the compile-time
//! form behind [`BackendKind::FlattenedBatch`](crate::backend::BackendKind).
//!
//! [`run_compiled`](crate::exec::run_compiled()) walks a
//! [`GroupStream`] entry by entry: every
//! entry pays a position decode (two divisions), a padding bounds check, an
//! `Option` test on the closure level, and — on closures — a data-dependent
//! nested loop over levels. All of that control flow exists to recover two
//! static facts the stream already fixed at compile time:
//!
//! 1. **where each entry reads** — the input offset is an affine function of
//!    the output position, so it flattens to a per-entry base offset plus
//!    one per-position delta (`base[i] + stride·(x·H + y)`);
//! 2. **which contiguous entry runs feed which weight** — each level's
//!    activation groups are contiguous runs of the sorted stream, so they
//!    flatten to CSR-style `[start, end)` ranges with the group's canonical
//!    weight value attached (zero-weight groups are dropped entirely).
//!
//! The executor then needs no per-entry decode at all: phase one gathers
//! activations through the precomputed offsets into a running prefix sum,
//! phase two forms every group total as one prefix difference and multiplies
//! it by the group's weight. Both loops are pure index-stride arithmetic.
//! Because `i32` addition is associative modulo 2³², the prefix-difference
//! group totals — and therefore the outputs — are **bit-identical** to the
//! hierarchical accumulator walk (the conformance corpus and the
//! cross-backend property test pin this down).
//!
//! Padding is the one data-dependent hazard: with `pad > 0` an entry's read
//! can fall outside the input plane for edge output positions. Unpadded
//! layers (every FC layer, and any conv with `pad == 0`) take the fully
//! branch-free gather; padded layers keep a per-entry bounds check but still
//! skip the decode and the closure machinery.
//!
//! # Batch-interleaved lanes and ISA tiers
//!
//! The paper's vector datapath amortizes one indirection stream across `VW`
//! lanes (§VI): the iterator walk is paid once, the arithmetic is wide. The
//! per-image executor above does the opposite over a batch — every image
//! re-pays every gather offset and segment bound.
//! [`run_flattened_batch_interleaved`] is the software analog of the
//! hardware's lane sharing: the batch is cut into chunks of interleaved
//! images (`input[off · LW + lane]`, planar offset major, image lane
//! minor), and both phases run as straight-line loops over contiguous
//! `LW`-wide strips (`i16`→`i32` widening adds, one broadcast multiply per
//! segment weight). Every gather base, halo bounds check, and CSR segment
//! range is computed **once per entry per output position** and feeds all
//! `LW` images.
//!
//! The strip width and codegen follow the dispatched [`SimdTier`]
//! ([`simd`](crate::simd)): the `scalar` tier keeps the historical
//! [`LANE_WIDTH`]` = 8` strips under baseline codegen, while the `avx2` /
//! `avx512` tiers run the same strip body 16/32 lanes wide inside
//! `#[target_feature]`-gated kernels so the compiler emits full-width
//! 256/512-bit arithmetic. Per lane the i32 operation sequence is identical
//! at every width and every tier, so outputs stay bit-identical to
//! [`run_flattened`] across all of them — the golden conformance corpus is
//! the referee.
//!
//! Scratch (the interleaved chunk, the prefix lanes, the lane-major output)
//! lives in a per-thread arena whose capacity follows the dispatched kernel
//! width, so a serving worker's steady-state hot path stops allocating per
//! request.

use std::cell::RefCell;

use ucnn_tensor::{ConvGeom, Tensor3};

use crate::hierarchy::{GroupStream, ZERO_RANK};
use crate::plan::CompiledLayer;
use crate::simd::{SimdCaps, SimdTier};

/// The flattened, branch-free form of one retained tile: per-entry gather
/// offsets plus CSR-style activation-group ranges per level.
///
/// Built once per plan by [`FlattenedTile::lower`] — lazily, on the first
/// [`CompiledLayer::flat_tiles`] call — then cached; executed by
/// [`run_flattened`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlattenedTile {
    /// Absolute output channel of the tile's first filter.
    k_first: usize,
    /// Filters in the tile (`G` of the stream).
    g: usize,
    /// `true` when every gather is in-bounds for every output position
    /// (`pad == 0`), enabling the branch-free gather loop.
    all_in_bounds: bool,
    /// Retained stream entries (each gather-array below has this length).
    n: usize,
    /// Per entry: input offset at output position (0, 0). With `pad == 0`
    /// this is non-negative and `base[i] + stride·(x·in_h + y)` is the exact
    /// flattened input index for output `(x, y)`. Only populated on the
    /// branch-free path (`pad == 0`); the checked path never reads it.
    base: Vec<i32>,
    /// Per entry: absolute input channel. Only populated on the checked
    /// gather path (`pad > 0`); the branch-free path never reads it.
    chan: Vec<u32>,
    /// Per entry: `r - pad` (checked gather path only).
    dx: Vec<i16>,
    /// Per entry: `s - pad` (checked gather path only).
    dy: Vec<i16>,
    /// Per level `l`: segments `seg_ptr[l]..seg_ptr[l + 1]` belong to `l`.
    seg_ptr: Vec<u32>,
    /// Per segment: first entry of the activation group.
    seg_start: Vec<u32>,
    /// Per segment: one past the last entry of the activation group.
    seg_end: Vec<u32>,
    /// Per segment: the group's canonical (non-zero) weight value.
    seg_weight: Vec<i32>,
}

impl FlattenedTile {
    /// Lowers one retained stream into its flattened form.
    ///
    /// `k_first`/`c_first` are the tile's absolute filter and channel bases
    /// (as in [`CompiledTile`](crate::plan::CompiledTile)); `geom` is the
    /// layer geometry the offsets are computed against.
    #[must_use]
    pub fn lower(stream: &GroupStream, k_first: usize, c_first: usize, geom: &ConvGeom) -> Self {
        let g = stream.g();
        let n = stream.entry_count();
        let rs = geom.r() * geom.s();
        let s_dim = geom.s();
        let (in_w, in_h) = (geom.in_w(), geom.in_h());
        let pad = geom.pad() as isize;
        let canonical = stream.canonical();

        // Each gather path reads only its own arrays, so build just those:
        // `base` for the branch-free path, `chan`/`dx`/`dy` for the checked
        // one — half the resident footprint either way.
        let all_in_bounds = geom.pad() == 0;
        let mut base = Vec::with_capacity(if all_in_bounds { n } else { 0 });
        let mut chan = Vec::with_capacity(if all_in_bounds { 0 } else { n });
        let mut dx = Vec::with_capacity(if all_in_bounds { 0 } else { n });
        let mut dy = Vec::with_capacity(if all_in_bounds { 0 } else { n });
        for e in stream.entries() {
            let p = e.index as usize;
            let c = p / rs;
            let rem = p % rs;
            let r = (rem / s_dim) as isize;
            let s = (rem % s_dim) as isize;
            let c_abs = c_first + c;
            if all_in_bounds {
                let off = (c_abs * in_w * in_h) as isize + (r - pad) * in_h as isize + (s - pad);
                base.push(i32::try_from(off).expect("input offset fits i32"));
            } else {
                chan.push(u32::try_from(c_abs).expect("channel fits u32"));
                dx.push((r - pad) as i16);
                dy.push((s - pad) as i16);
            }
        }

        // CSR group ranges: at level `l`, a group closes at entry `i` when
        // the stream closes level `l` or any outer level there. Groups whose
        // weight is zero at this level dispatch nothing and are dropped.
        let mut seg_ptr = Vec::with_capacity(g + 1);
        let mut seg_start = Vec::new();
        let mut seg_end = Vec::new();
        let mut seg_weight = Vec::new();
        for level in 0..g {
            seg_ptr.push(u32::try_from(seg_start.len()).expect("segment count fits u32"));
            let mut start = 0u32;
            for i in 0..n {
                let e = stream.entry(i);
                let Some(cl) = e.close_level else { continue };
                if (cl as usize) > level {
                    continue;
                }
                let rank = e.ranks[level];
                if rank != ZERO_RANK {
                    seg_start.push(start);
                    seg_end.push(i as u32 + 1);
                    seg_weight.push(i32::from(canonical[rank as usize]));
                }
                start = i as u32 + 1;
            }
        }
        seg_ptr.push(u32::try_from(seg_start.len()).expect("segment count fits u32"));

        Self {
            k_first,
            g,
            all_in_bounds,
            n,
            base,
            chan,
            dx,
            dy,
            seg_ptr,
            seg_start,
            seg_end,
            seg_weight,
        }
    }

    /// Stream entries retained by the tile.
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.n
    }

    /// Activation-group segments across all levels — one multiply each per
    /// output position.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.seg_start.len()
    }

    /// Whether the tile takes the fully branch-free gather (`pad == 0`).
    #[must_use]
    pub fn branch_free(&self) -> bool {
        self.all_in_bounds
    }

    /// The shared strip kernel body: adds this tile's partial sums for `LW`
    /// batch-interleaved images at once. `input` holds a chunk interleaved
    /// as `input[off · LW + lane]` (see [`interleave_lanes`]), `out` is the
    /// matching lane-major output accumulator (`out[off · LW + lane]`), and
    /// `prefix` is caller scratch holding `(n + 1) · LW` prefix lanes.
    /// `LW == 1` **is** the planar walk — the layout degenerates to the
    /// plain planar slices, which is how [`run_flattened`] executes.
    ///
    /// Per lane the i32 operation sequence is independent of `LW`: one
    /// indirection walk feeds all `LW` lanes, and every inner loop is a
    /// contiguous `LW`-wide strip the compiler lifts to SIMD at whatever
    /// register width the enclosing `#[target_feature]` wrapper enables.
    /// The const generic keeps the lane arrays on the stack and the strips
    /// fully unrolled at every monomorphized width.
    #[inline(always)]
    fn accumulate_lanes_body<const LW: usize>(
        &self,
        input: &[i16],
        out: &mut [i32],
        geom: &ConvGeom,
        prefix: &mut Vec<i32>,
    ) {
        let (out_w, out_h) = (geom.out_w(), geom.out_h());
        let (in_w, in_h) = (geom.in_w(), geom.in_h());
        let stride = geom.stride();
        let n = self.n;
        prefix.resize((n + 1) * LW, 0);
        prefix[..LW].fill(0);

        for x in 0..out_w {
            for y in 0..out_h {
                // Phase 1: LW parallel prefix sums behind one offset stream.
                let mut run = [0i32; LW];
                if self.all_in_bounds {
                    let delta = (x * stride * in_h + y * stride) as i32;
                    for (i, &b) in self.base.iter().enumerate() {
                        let src = &input[(b + delta) as usize * LW..][..LW];
                        for (r, &v) in run.iter_mut().zip(src) {
                            *r += i32::from(v);
                        }
                        prefix[(i + 1) * LW..][..LW].copy_from_slice(&run);
                    }
                } else {
                    let (bx, by) = ((x * stride) as isize, (y * stride) as isize);
                    for i in 0..n {
                        let ix = bx + isize::from(self.dx[i]);
                        let iy = by + isize::from(self.dy[i]);
                        // One halo check covers the whole chunk: a halo read
                        // is zero for every image, so all LW lanes skip it.
                        if ix >= 0 && iy >= 0 && (ix as usize) < in_w && (iy as usize) < in_h {
                            let off =
                                (self.chan[i] as usize * in_w + ix as usize) * in_h + iy as usize;
                            let src = &input[off * LW..][..LW];
                            for (r, &v) in run.iter_mut().zip(src) {
                                *r += i32::from(v);
                            }
                        }
                        prefix[(i + 1) * LW..][..LW].copy_from_slice(&run);
                    }
                }
                // Phase 2: segment ranges resolved once; each segment is one
                // broadcast multiply.
                for level in 0..self.g {
                    let mut acc = [0i32; LW];
                    let s0 = self.seg_ptr[level] as usize;
                    let s1 = self.seg_ptr[level + 1] as usize;
                    for si in s0..s1 {
                        let hi = &prefix[self.seg_end[si] as usize * LW..][..LW];
                        let lo = &prefix[self.seg_start[si] as usize * LW..][..LW];
                        let weight = self.seg_weight[si];
                        for (a, (&h, &l)) in acc.iter_mut().zip(hi.iter().zip(lo)) {
                            *a += (h - l) * weight;
                        }
                    }
                    let off = (((self.k_first + level) * out_w + x) * out_h + y) * LW;
                    for (o, &a) in out[off..][..LW].iter_mut().zip(&acc) {
                        *o += a;
                    }
                }
            }
        }
    }
}

/// The `#[target_feature]`-gated tier kernels: each wrapper re-monomorphizes
/// the shared [`FlattenedTile::accumulate_lanes_body`] under a wider ISA so
/// the compiler emits full-width vector arithmetic for the strip loops. The
/// body is `#[inline(always)]`, so the feature gate reaches every inner
/// loop.
///
/// These functions are `unsafe` purely by the `#[target_feature]` language
/// rule; they have no other safety obligations. Callers must ensure the
/// feature is present — [`accumulate_width`] only reaches them through a
/// [`SimdTier`] clamped by [`SimdCaps`](crate::simd::SimdCaps) detection.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod tier_kernels {
    use super::FlattenedTile;
    use ucnn_tensor::ConvGeom;

    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tile_lanes_avx2<const LW: usize>(
        tile: &FlattenedTile,
        input: &[i16],
        out: &mut [i32],
        geom: &ConvGeom,
        prefix: &mut Vec<i32>,
    ) {
        tile.accumulate_lanes_body::<LW>(input, out, geom, prefix);
    }

    /// # Safety
    ///
    /// The CPU must support AVX-512 F, BW, DQ and VL.
    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
    pub(super) unsafe fn tile_lanes_avx512<const LW: usize>(
        tile: &FlattenedTile,
        input: &[i16],
        out: &mut [i32],
        geom: &ConvGeom,
        prefix: &mut Vec<i32>,
    ) {
        tile.accumulate_lanes_body::<LW>(input, out, geom, prefix);
    }
}

/// NEON twin of the x86 tier kernels (NEON is baseline on aarch64, but the
/// explicit gate keeps the dispatch structure uniform).
#[cfg(target_arch = "aarch64")]
#[allow(unsafe_code)]
mod tier_kernels {
    use super::FlattenedTile;
    use ucnn_tensor::ConvGeom;

    /// # Safety
    ///
    /// The CPU must support NEON.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn tile_lanes_neon<const LW: usize>(
        tile: &FlattenedTile,
        input: &[i16],
        out: &mut [i32],
        geom: &ConvGeom,
        prefix: &mut Vec<i32>,
    ) {
        tile.accumulate_lanes_body::<LW>(input, out, geom, prefix);
    }
}

/// Runs one monomorphized strip width through the selected tier kernel.
///
/// The `unsafe` blocks satisfy the `#[target_feature]` contract by
/// construction: every tier that reaches an executor has been clamped to
/// the CPU's detected capabilities ([`SimdCaps::clamp`]), so a gated kernel
/// only runs when its feature was probed present. Foreign-architecture
/// tiers fold into the scalar arm at compile time via the `cfg`s.
///
/// [`SimdCaps::clamp`]: crate::simd::SimdCaps::clamp
#[allow(unsafe_code)]
fn accumulate_width<const LW: usize>(
    tile: &FlattenedTile,
    input: &[i16],
    out: &mut [i32],
    geom: &ConvGeom,
    prefix: &mut Vec<i32>,
    tier: SimdTier,
) {
    match tier {
        // SAFETY: `tier` is clamped to the detected capabilities, so the
        // CPU supports AVX2.
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => unsafe {
            tier_kernels::tile_lanes_avx2::<LW>(tile, input, out, geom, prefix);
        },
        // SAFETY: `tier` is clamped to the detected capabilities, so the
        // CPU supports AVX-512 F/BW/DQ/VL.
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 => unsafe {
            tier_kernels::tile_lanes_avx512::<LW>(tile, input, out, geom, prefix);
        },
        // SAFETY: `tier` is clamped to the detected capabilities, so the
        // CPU supports NEON.
        #[cfg(target_arch = "aarch64")]
        SimdTier::Neon => unsafe {
            tier_kernels::tile_lanes_neon::<LW>(tile, input, out, geom, prefix);
        },
        _ => tile.accumulate_lanes_body::<LW>(input, out, geom, prefix),
    }
}

/// Dispatches to the monomorphized kernel for a runtime chunk width. The
/// decomposition ([`next_chunk_width`]) only ever emits these widths:
/// `1..=8` for residuals, plus the wide-tier strips 16 and 32.
fn accumulate_tile_lanes(
    tile: &FlattenedTile,
    input: &[i16],
    out: &mut [i32],
    geom: &ConvGeom,
    prefix: &mut Vec<i32>,
    lw: usize,
    tier: SimdTier,
) {
    match lw {
        1 => accumulate_width::<1>(tile, input, out, geom, prefix, tier),
        2 => accumulate_width::<2>(tile, input, out, geom, prefix, tier),
        3 => accumulate_width::<3>(tile, input, out, geom, prefix, tier),
        4 => accumulate_width::<4>(tile, input, out, geom, prefix, tier),
        5 => accumulate_width::<5>(tile, input, out, geom, prefix, tier),
        6 => accumulate_width::<6>(tile, input, out, geom, prefix, tier),
        7 => accumulate_width::<7>(tile, input, out, geom, prefix, tier),
        8 => accumulate_width::<8>(tile, input, out, geom, prefix, tier),
        16 => accumulate_width::<16>(tile, input, out, geom, prefix, tier),
        32 => accumulate_width::<32>(tile, input, out, geom, prefix, tier),
        other => unreachable!("lane width {other} has no monomorphized kernel"),
    }
}

/// The width of the next chunk when `rest` images remain and the dispatched
/// tier interleaves `lane_width` lanes: whole tier-width strips first, then
/// the widest monomorphized residuals (16, then [`LANE_WIDTH`]), then the
/// exact remainder. Every emitted width has a kernel in
/// [`accumulate_tile_lanes`].
fn next_chunk_width(rest: usize, lane_width: usize) -> usize {
    if rest >= lane_width {
        lane_width
    } else if rest >= 16 {
        16
    } else if rest >= LANE_WIDTH {
        LANE_WIDTH
    } else {
        rest
    }
}

/// How many lane strips [`next_chunk_width`] decomposes a batch into at a
/// given tier width — the analytic count behind
/// [`LayerWork::lane_strips`](crate::counters::LayerWork::lane_strips)
/// (one CSR indirection walk per strip).
#[must_use]
pub(crate) fn chunk_count(batch: usize, lane_width: usize) -> usize {
    let mut rest = batch;
    let mut strips = 0;
    while rest > 0 {
        rest -= next_chunk_width(rest, lane_width);
        strips += 1;
    }
    strips
}

/// Executes a [`CompiledLayer`] on one image through its flattened tiles —
/// the width-1 strip, which is the planar layout itself. Bit-identical to
/// [`run_compiled`](crate::exec::run_compiled()) with no per-entry decode
/// or closure branching in the inner loops. The
/// [`BackendKind::FlattenedBatch`](crate::backend::BackendKind) executor
/// runs exactly this walk for a batch (or residual chunk) of one image.
///
/// # Panics
///
/// Panics if `input` does not match the compiled layer's geometry.
///
/// # Examples
///
/// ```
/// use ucnn_core::compile::UcnnConfig;
/// use ucnn_core::exec::run_compiled;
/// use ucnn_core::flatten::run_flattened;
/// use ucnn_core::plan::CompiledLayer;
/// use ucnn_tensor::{ConvGeom, Tensor3, Tensor4};
///
/// let geom = ConvGeom::new(5, 5, 3, 2, 3, 3);
/// let filters = Tensor4::from_fn(2, 3, 3, 3, |k, c, r, s| ((k + c + r + s) % 3) as i16);
/// let input = Tensor3::from_fn(3, 5, 5, |c, x, y| ((c + x + 2 * y) % 7) as i16);
/// let layer = CompiledLayer::compile(&geom, 1, &filters, &UcnnConfig::with_g(2));
/// assert_eq!(run_flattened(&layer, &input), run_compiled(&layer, &input));
/// ```
#[must_use]
pub fn run_flattened(layer: &CompiledLayer, input: &Tensor3<i16>) -> Tensor3<i32> {
    crate::exec::check_batch_inputs(layer, std::slice::from_ref(input));
    let geom = layer.geom();
    let tier = layer.simd_tier();
    let mut out = Tensor3::<i32>::zeros(geom.k(), geom.out_w(), geom.out_h());
    with_thread_scratch(|scratch| planar_walk(layer, input, &mut out, &mut scratch.prefix, tier));
    out
}

/// Adds every flattened tile of `layer` into one image's planar output at
/// strip width 1 (the planar layout needs no interleave transpose).
fn planar_walk(
    layer: &CompiledLayer,
    input: &Tensor3<i16>,
    out: &mut Tensor3<i32>,
    prefix: &mut Vec<i32>,
    tier: SimdTier,
) {
    let (in_slice, out_slice) = (input.as_slice(), out.as_mut_slice());
    for tile in layer.flat_tiles() {
        accumulate_width::<1>(tile, in_slice, out_slice, layer.geom(), prefix, tier);
    }
}

/// The scalar tier's interleave width — and the widest *residual* chunk the
/// decomposition emits below a full tier strip. Eight `i32` lanes fill two
/// 128-bit registers on baseline x86-64; the `avx2`/`avx512` tiers run 16-
/// and 32-lane strips (see [`SimdTier::lane_width`]), all through the same
/// monomorphized kernel set.
pub const LANE_WIDTH: usize = 8;

/// Reusable scratch for the flattened executors: the batch-interleaved
/// input chunk, the `LW`-wide prefix lanes, and the lane-major output
/// accumulator.
///
/// One arena serves any number of layers and chunk widths — buffers only
/// ever grow, and [`FlattenedScratch::reserve_for`] pre-grows them to the
/// dispatched kernel width so wider tiers never reallocate per chunk. The
/// module keeps a thread-local arena that the single-threaded paths borrow,
/// so each serving worker thread reuses its own arena across requests.
#[derive(Debug, Default)]
struct FlattenedScratch {
    /// Batch-interleaved activations: `interleaved[off · LW + lane]`.
    interleaved: Vec<i16>,
    /// Prefix-sum lanes: `(n + 1) · LW` values, row `i` = prefix after
    /// entry `i − 1`.
    prefix: Vec<i32>,
    /// Lane-major output accumulator: `out_lanes[off · LW + lane]`.
    out_lanes: Vec<i32>,
}

/// Grows a buffer's capacity to at least `cap` elements without touching
/// its length or contents.
fn grow_capacity<T>(v: &mut Vec<T>, cap: usize) {
    if v.capacity() < cap {
        v.reserve(cap - v.len());
    }
}

impl FlattenedScratch {
    /// Pre-grows every buffer for running `layer` at interleave width
    /// `lane_width`, so no subsequent chunk of that width (or narrower)
    /// reallocates. Called by the batch executor with the dispatched
    /// tier's width; idempotent and monotone — an arena reserved for a wide
    /// layer serves narrower ones for free.
    fn reserve_for(&mut self, layer: &CompiledLayer, lane_width: usize) {
        let geom = layer.geom();
        let in_len = geom.c() * layer.conv_groups() * geom.in_w() * geom.in_h();
        let out_len = geom.k() * geom.out_w() * geom.out_h();
        let max_entries = layer
            .flat_tiles()
            .iter()
            .map(FlattenedTile::entry_count)
            .max()
            .unwrap_or(0);
        grow_capacity(&mut self.interleaved, in_len * lane_width);
        grow_capacity(&mut self.prefix, (max_entries + 1) * lane_width);
        grow_capacity(&mut self.out_lanes, out_len * lane_width);
    }
}

thread_local! {
    /// Per-thread arena behind the single-threaded paths: serving workers
    /// are threads, so this is a per-worker arena without any API plumbing.
    static THREAD_SCRATCH: RefCell<FlattenedScratch> = RefCell::new(FlattenedScratch::default());
}

/// Runs `f` with the calling thread's [`FlattenedScratch`] arena.
fn with_thread_scratch<R>(f: impl FnOnce(&mut FlattenedScratch) -> R) -> R {
    THREAD_SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

/// Transposes a chunk of equally sized planar images into the
/// batch-interleaved lane layout: `out[off · LW + lane] = images[lane][off]`
/// where `LW == images.len()`.
///
/// The inverse is [`deinterleave_lanes`]; the round trip is exact for any
/// chunk width (pinned by a property test).
///
/// # Panics
///
/// Panics if `images` is empty or the images differ in length.
pub fn interleave_lanes<T: Copy + Default>(images: &[&[T]], out: &mut Vec<T>) {
    let lw = images.len();
    assert!(lw > 0, "cannot interleave an empty chunk");
    let len = images[0].len();
    out.clear();
    out.resize(len * lw, T::default());
    for (lane, img) in images.iter().enumerate() {
        assert_eq!(img.len(), len, "interleaved images must be equally sized");
        for (off, &v) in img.iter().enumerate() {
            out[off * lw + lane] = v;
        }
    }
}

/// Scatters a lane-major buffer (`lanes[off · LW + lane]`,
/// `LW == outs.len()`) back into planar per-image slices — the inverse of
/// [`interleave_lanes`].
///
/// # Panics
///
/// Panics if `outs` is empty or `lanes` is not exactly `LW` equally sized
/// planes.
pub fn deinterleave_lanes<T: Copy>(lanes: &[T], outs: &mut [&mut [T]]) {
    let lw = outs.len();
    assert!(lw > 0, "cannot deinterleave into an empty chunk");
    for (lane, out) in outs.iter_mut().enumerate() {
        assert_eq!(out.len() * lw, lanes.len(), "lane buffer size mismatch");
        for (off, dst) in out.iter_mut().enumerate() {
            *dst = lanes[off * lw + lane];
        }
    }
}

/// Executes one lane chunk (`inputs.len()` = an emitted chunk width) through
/// the flattened tiles: interleave once, walk every tile `LW`-wide, scatter
/// the lane-major sums into the per-image outputs.
fn run_chunk(
    layer: &CompiledLayer,
    inputs: &[Tensor3<i16>],
    outs: &mut [Tensor3<i32>],
    scratch: &mut FlattenedScratch,
    tier: SimdTier,
) {
    let geom = layer.geom();
    let lw = inputs.len();
    debug_assert!(matches!(lw, 1..=8 | 16 | 32), "chunk width {lw}");
    debug_assert_eq!(outs.len(), lw);
    if lw == 1 {
        // A single lane gains nothing from interleaving (the transpose is
        // pure overhead); the width-1 kernel is the planar walk, written
        // straight into the already zeroed output.
        planar_walk(layer, &inputs[0], &mut outs[0], &mut scratch.prefix, tier);
        return;
    }
    let images: Vec<&[i16]> = inputs.iter().map(Tensor3::as_slice).collect();
    interleave_lanes(&images, &mut scratch.interleaved);
    let out_len = geom.k() * geom.out_w() * geom.out_h();
    scratch.out_lanes.clear();
    scratch.out_lanes.resize(out_len * lw, 0);
    for tile in layer.flat_tiles() {
        accumulate_tile_lanes(
            tile,
            &scratch.interleaved,
            &mut scratch.out_lanes,
            geom,
            &mut scratch.prefix,
            lw,
            tier,
        );
    }
    let mut planes: Vec<&mut [i32]> = outs.iter_mut().map(Tensor3::as_mut_slice).collect();
    deinterleave_lanes(&scratch.out_lanes, &mut planes);
}

/// Batch-interleaved execution of a [`CompiledLayer`]'s flattened tiles —
/// the [`BackendKind::FlattenedBatch`](crate::backend::BackendKind) inner
/// loop.
///
/// The batch is processed in chunks as wide as the dispatched tier's
/// interleave width (8 scalar, 16 AVX2, 32 AVX-512 — the plan's cached
/// [`CompiledLayer::simd_tier`]). Each chunk is transposed once into the
/// batch-interleaved layout, every gather base / halo bounds check / CSR
/// segment range is computed once per entry per output position, and the
/// prefix-sum and segment-multiply phases run as contiguous `LW`-wide
/// strips through the tier's `#[target_feature]` kernel. Per image the i32
/// operation sequence is identical to [`run_flattened`] at every width and
/// tier, so outputs are **bit-identical** to it at every batch size and
/// thread count.
///
/// `threads > 1` splits the batch into contiguous runs of **whole
/// tier-width chunks** executed on scoped threads, each with its own
/// scratch arena — never below the active lane width per worker, so
/// adding threads cannot narrow the SIMD width (a batch of 32 on the
/// `avx512` tier runs as one full-width chunk regardless of the thread
/// budget). With one thread (or a single chunk) the calling thread's arena
/// is reused, so steady-state serving does not allocate scratch per request.
///
/// # Panics
///
/// Panics if `threads == 0` or any input mismatches the layer geometry.
///
/// # Examples
///
/// ```
/// use ucnn_core::compile::UcnnConfig;
/// use ucnn_core::flatten::{run_flattened, run_flattened_batch_interleaved};
/// use ucnn_core::plan::CompiledLayer;
/// use ucnn_tensor::{ConvGeom, Tensor3, Tensor4};
///
/// let geom = ConvGeom::new(1, 1, 16, 4, 1, 1);
/// let filters = Tensor4::from_fn(4, 16, 1, 1, |k, c, _, _| ((k + c) % 3) as i16 - 1);
/// let layer = CompiledLayer::compile(&geom, 1, &filters, &UcnnConfig::with_g(2));
/// let inputs: Vec<Tensor3<i16>> = (0..5)
///     .map(|b| Tensor3::from_fn(16, 1, 1, |c, _, _| ((b + c) % 7) as i16))
///     .collect();
/// let lanes = run_flattened_batch_interleaved(&layer, &inputs, 1);
/// for (input, out) in inputs.iter().zip(&lanes) {
///     assert_eq!(out, &run_flattened(&layer, input)); // bit-identical
/// }
/// ```
#[must_use]
pub fn run_flattened_batch_interleaved(
    layer: &CompiledLayer,
    inputs: &[Tensor3<i16>],
    threads: usize,
) -> Vec<Tensor3<i32>> {
    run_flattened_batch_interleaved_forced(layer, inputs, threads, layer.simd_tier())
}

/// [`run_flattened_batch_interleaved`] on an explicit [`SimdTier`] instead
/// of the plan's cached one — the entry point for per-tier conformance
/// tests and the pinned-tier bench rows. The tier is clamped to the CPU's
/// detected capabilities, so forcing an unavailable tier runs the best
/// supported one instead of faulting.
///
/// # Panics
///
/// Panics if `threads == 0` or any input mismatches the layer geometry.
#[must_use]
pub fn run_flattened_batch_interleaved_forced(
    layer: &CompiledLayer,
    inputs: &[Tensor3<i16>],
    threads: usize,
    tier: SimdTier,
) -> Vec<Tensor3<i32>> {
    assert!(threads > 0, "need at least one execution thread");
    if inputs.is_empty() {
        return Vec::new();
    }
    let tier = SimdCaps::get().clamp(tier);
    // Work is dealt in whole tier-width chunks: splitting finer would
    // narrow the SIMD width of every worker's kernel, costing more than
    // the extra thread buys.
    let lane = tier.lane_width();
    let chunks = inputs.len().div_ceil(lane);
    let workers = threads.min(chunks);
    if workers == 1 {
        return with_thread_scratch(|scratch| run_interleaved_with(layer, inputs, scratch, tier));
    }
    let chunk = chunks.div_ceil(workers) * lane;
    let mut results: Vec<Vec<Tensor3<i32>>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .chunks(chunk)
            .map(|ins| {
                scope.spawn(move || {
                    let mut scratch = FlattenedScratch::default();
                    run_interleaved_with(layer, ins, &mut scratch, tier)
                })
            })
            .collect();
        for handle in handles {
            results.push(handle.join().expect("interleaved executor thread panicked"));
        }
    });
    results.into_iter().flatten().collect()
}

/// [`run_flattened_batch_interleaved_forced`] on the calling thread with
/// an explicit scratch arena and an already clamped `tier` (no allocation
/// once the arena has grown to the layer's working-set size at that
/// tier's width).
fn run_interleaved_with(
    layer: &CompiledLayer,
    inputs: &[Tensor3<i16>],
    scratch: &mut FlattenedScratch,
    tier: SimdTier,
) -> Vec<Tensor3<i32>> {
    let geom = layer.geom();
    crate::exec::check_batch_inputs(layer, inputs);
    let lane = tier.lane_width();
    // Size the arena for the widest chunk this call will run, so the
    // per-chunk loop never reallocates even the first time a wide tier
    // executes.
    scratch.reserve_for(layer, lane.min(inputs.len().max(1)));
    let mut outs: Vec<Tensor3<i32>> = inputs
        .iter()
        .map(|_| Tensor3::zeros(geom.k(), geom.out_w(), geom.out_h()))
        .collect();
    let mut start = 0;
    while start < inputs.len() {
        let w = next_chunk_width(inputs.len() - start, lane);
        run_chunk(
            layer,
            &inputs[start..start + w],
            &mut outs[start..start + w],
            scratch,
            tier,
        );
        start += w;
    }
    outs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::UcnnConfig;
    use crate::exec::run_compiled;
    use crate::simd::{available_tiers, SimdCaps};
    use ucnn_model::{reference, ActivationGen, QuantScheme, WeightGen};
    use ucnn_tensor::Tensor4;

    fn check(geom: ConvGeom, conv_groups: usize, g: usize, ct: usize, seed: u64) {
        let mut wgen = WeightGen::new(QuantScheme::inq(), seed).with_density(0.8);
        let weights = wgen.generate_dims(geom.k(), geom.c(), geom.r(), geom.s());
        let mut agen = ActivationGen::new(seed ^ 0xF1A7);
        let input = agen.generate(geom.c() * conv_groups, geom.in_w(), geom.in_h());
        let cfg = UcnnConfig {
            g,
            ct,
            ..UcnnConfig::default()
        };
        let layer = CompiledLayer::compile(&geom, conv_groups, &weights, &cfg);
        let expected = reference::conv2d(&geom, conv_groups, &input, &weights);
        assert_eq!(run_compiled(&layer, &input), expected, "run_compiled");
        assert_eq!(run_flattened(&layer, &input), expected, "run_flattened");
        // The batch-interleaved executor must agree at every chunk width:
        // distinct images per lane so a lane mix-up cannot cancel out.
        let mut agen = ActivationGen::new(seed ^ 0x1A9E5);
        for b in [1usize, 2, 5, LANE_WIDTH, LANE_WIDTH + 3] {
            let batch: Vec<Tensor3<i16>> = (0..b)
                .map(|_| agen.generate(geom.c() * conv_groups, geom.in_w(), geom.in_h()))
                .collect();
            let per_image: Vec<Tensor3<i32>> =
                batch.iter().map(|i| run_flattened(&layer, i)).collect();
            for threads in [1usize, 2, 4] {
                assert_eq!(
                    run_flattened_batch_interleaved(&layer, &batch, threads),
                    per_image,
                    "interleaved B={b}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn fc_shape_is_branch_free_and_exact() {
        let geom = ConvGeom::new(1, 1, 64, 10, 1, 1);
        let cfg = UcnnConfig::with_g(2);
        let mut wgen = WeightGen::new(QuantScheme::ttq(), 3).with_density(0.6);
        let weights = wgen.generate_dims(10, 64, 1, 1);
        let layer = CompiledLayer::compile(&geom, 1, &weights, &cfg);
        assert!(layer.flat_tiles().iter().all(FlattenedTile::branch_free));
        check(geom, 1, 2, 16, 3);
    }

    #[test]
    fn padded_strided_conv_takes_checked_path_and_stays_exact() {
        let geom = ConvGeom::new(11, 9, 5, 6, 3, 3).with_stride(2).with_pad(1);
        check(geom, 1, 2, 3, 4);
    }

    #[test]
    fn halo_corners_with_pad2_stride_and_negative_deltas() {
        // pad = 2 with a 3×3 filter makes every dx/dy delta non-positive
        // (r − pad ∈ {−2, −1, 0}), so the checked gather must clip reads on
        // ALL four sides: ix < 0 and iy < 0 at the (0, 0) output corner,
        // ix ≥ in_w / iy ≥ in_h at the far corners once the stride pushes
        // the gather base past the plane. Non-square input (7×6) keeps the
        // two axes from masking each other's bugs.
        for (stride, seed) in [(1usize, 21u64), (2, 22), (3, 23)] {
            let geom = ConvGeom::new(7, 6, 3, 4, 3, 3)
                .with_stride(stride)
                .with_pad(2);
            // The lowering must take the checked path everywhere…
            let mut wgen = WeightGen::new(QuantScheme::inq(), seed).with_density(0.8);
            let weights = wgen.generate_dims(4, 3, 3, 3);
            let layer = CompiledLayer::compile(&geom, 1, &weights, &UcnnConfig::with_g(2));
            assert!(
                layer.flat_tiles().iter().all(|t| !t.branch_free()),
                "pad > 0 must disable the branch-free gather (stride {stride})"
            );
            // …and every corner output (where halo reads clip) must agree
            // with the dense reference bit for bit.
            check(geom, 1, 2, 2, seed);
        }
    }

    #[test]
    fn halo_corners_grouped_conv_pad2() {
        // Grouped conv + pad 2: the checked path's absolute-channel gather
        // (`chan[i]`) must stay inside each group's channel band even while
        // the spatial deltas go negative.
        let geom = ConvGeom::new(6, 7, 3, 4, 3, 3).with_stride(2).with_pad(2);
        check(geom, 2, 2, 2, 24);
    }

    #[test]
    fn corner_halo_reads_contribute_zero() {
        // Direct corner probe: an input of all ones with an all-ones filter
        // makes each output count exactly the in-bounds reads, so the four
        // corners of a pad-2 stride-2 layer quantify precisely how many
        // halo reads were clipped. out = (7+4−3)/2+1 = 5 wide, (6+4−3)/2+1
        // = 4 tall; corner (0,0) sees a 1×1 valid window (8 of 9 reads
        // clip), the bottom corners a 1×2 window (iy = 6 clips past
        // in_h = 6 while ix clips at −2/−1 or 7/8).
        let geom = ConvGeom::new(7, 6, 1, 1, 3, 3).with_stride(2).with_pad(2);
        let weights = Tensor4::from_fn(1, 1, 3, 3, |_, _, _, _| 1i16);
        let input = Tensor3::filled(1, 7, 6, 1i16);
        let layer = CompiledLayer::compile(&geom, 1, &weights, &UcnnConfig::default());
        let out = run_flattened(&layer, &input);
        let expected = reference::conv2d(&geom, 1, &input, &weights);
        assert_eq!(out, expected);
        assert_eq!(out[(0, 0, 0)], 1, "top-left corner: 8 of 9 reads clip");
        assert_eq!(
            out[(0, geom.out_w() - 1, 0)],
            1,
            "top-right corner clips ix ≥ in_w and iy < 0"
        );
        assert_eq!(
            out[(0, 0, geom.out_h() - 1)],
            2,
            "bottom-left corner clips ix < 0 and iy ≥ in_h"
        );
        assert_eq!(
            out[(0, geom.out_w() - 1, geom.out_h() - 1)],
            2,
            "bottom-right corner clips ix ≥ in_w and iy ≥ in_h"
        );
        // The interleaved kernel shares the same single bounds check.
        let batch = vec![input; 4];
        for got in run_flattened_batch_interleaved(&layer, &batch, 1) {
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn interleave_deinterleave_round_trip() {
        let images: Vec<Vec<i16>> = (0..5)
            .map(|lane| (0..12).map(|i| (lane * 100 + i) as i16).collect())
            .collect();
        let refs: Vec<&[i16]> = images.iter().map(Vec::as_slice).collect();
        let mut lanes = Vec::new();
        interleave_lanes(&refs, &mut lanes);
        assert_eq!(lanes.len(), 5 * 12);
        assert_eq!(lanes[3], 300); // off 0, lane 3
        assert_eq!(lanes[7 * 5 + 1], 107); // off 7, lane 1
        let mut back: Vec<Vec<i16>> = vec![vec![0; 12]; 5];
        let mut outs: Vec<&mut [i16]> = back.iter_mut().map(Vec::as_mut_slice).collect();
        deinterleave_lanes(&lanes, &mut outs);
        assert_eq!(back, images);
    }

    #[test]
    fn explicit_scratch_arena_is_reusable_across_layers_and_widths() {
        // One arena across different layers, chunk widths, and both gather
        // paths: buffers only grow, results stay exact.
        let mut scratch = FlattenedScratch::default();
        let geoms = [
            ConvGeom::new(1, 1, 32, 6, 1, 1),
            ConvGeom::new(6, 5, 4, 3, 3, 3).with_pad(1),
        ];
        let mut agen = ActivationGen::new(77);
        for (gi, geom) in geoms.iter().enumerate() {
            let mut wgen = WeightGen::new(QuantScheme::inq(), 70 + gi as u64).with_density(0.8);
            let weights = wgen.generate_dims(geom.k(), geom.c(), geom.r(), geom.s());
            let layer = CompiledLayer::compile(geom, 1, &weights, &UcnnConfig::with_g(2));
            for b in [2usize, 8, 11] {
                let inputs: Vec<Tensor3<i16>> = (0..b)
                    .map(|_| agen.generate(geom.c(), geom.in_w(), geom.in_h()))
                    .collect();
                let expected: Vec<Tensor3<i32>> =
                    inputs.iter().map(|i| run_flattened(&layer, i)).collect();
                assert_eq!(
                    run_interleaved_with(&layer, &inputs, &mut scratch, layer.simd_tier()),
                    expected,
                    "layer {gi}, B={b}"
                );
            }
        }
    }

    #[test]
    fn scratch_capacity_follows_dispatch_width_across_mixed_width_layers() {
        // Satellite regression: one arena alternating between layers run at
        // every available tier width (8/16/32 on full AVX-512 hardware).
        // After `reserve_for` at the widest width each layer will see, the
        // buffers must never reallocate — pointers and capacities stay put
        // across every mixed-width run — and results stay exact.
        let widest = SimdCaps::get().best().lane_width();
        let geoms = [
            ConvGeom::new(1, 1, 48, 6, 1, 1),
            ConvGeom::new(5, 4, 3, 4, 3, 3).with_pad(1),
        ];
        let layers: Vec<CompiledLayer> = geoms
            .iter()
            .enumerate()
            .map(|(gi, geom)| {
                let mut wgen = WeightGen::new(QuantScheme::inq(), 90 + gi as u64).with_density(0.8);
                let weights = wgen.generate_dims(geom.k(), geom.c(), geom.r(), geom.s());
                CompiledLayer::compile(geom, 1, &weights, &UcnnConfig::with_g(2))
            })
            .collect();
        let mut scratch = FlattenedScratch::default();
        for layer in &layers {
            scratch.reserve_for(layer, widest);
        }
        let caps = (
            scratch.interleaved.capacity(),
            scratch.prefix.capacity(),
            scratch.out_lanes.capacity(),
        );
        let ptrs = (
            scratch.interleaved.as_ptr(),
            scratch.prefix.as_ptr(),
            scratch.out_lanes.as_ptr(),
        );
        let mut agen = ActivationGen::new(91);
        for round in 0..2 {
            for (layer, geom) in layers.iter().zip(&geoms) {
                for &tier in available_tiers() {
                    let lane = tier.lane_width();
                    // Full-width chunk plus a residual chunk.
                    let b = lane + 3;
                    let inputs: Vec<Tensor3<i16>> = (0..b)
                        .map(|_| agen.generate(geom.c(), geom.in_w(), geom.in_h()))
                        .collect();
                    let expected: Vec<Tensor3<i32>> =
                        inputs.iter().map(|i| run_flattened(layer, i)).collect();
                    let got = run_interleaved_with(layer, &inputs, &mut scratch, tier);
                    assert_eq!(got, expected, "round {round}, tier {}", tier.name());
                }
            }
        }
        assert_eq!(
            caps,
            (
                scratch.interleaved.capacity(),
                scratch.prefix.capacity(),
                scratch.out_lanes.capacity(),
            ),
            "arena buffers grew after reserve_for"
        );
        assert_eq!(
            ptrs,
            (
                scratch.interleaved.as_ptr(),
                scratch.prefix.as_ptr(),
                scratch.out_lanes.as_ptr(),
            ),
            "arena buffers reallocated after reserve_for"
        );
    }

    #[test]
    fn every_available_tier_is_bit_identical() {
        // Cheap in-process tier sweep: full-width + residual batches per
        // tier, threaded and not, against the planar per-image walk. The
        // conformance corpus repeats this against golden vectors; this is
        // the fast in-module guard.
        let geoms = [
            ConvGeom::new(1, 1, 64, 8, 1, 1),
            ConvGeom::new(4, 4, 3, 4, 3, 3).with_pad(1),
        ];
        let mut agen = ActivationGen::new(55);
        for (gi, geom) in geoms.iter().enumerate() {
            let mut wgen = WeightGen::new(QuantScheme::inq(), 50 + gi as u64).with_density(0.8);
            let weights = wgen.generate_dims(geom.k(), geom.c(), geom.r(), geom.s());
            let layer = CompiledLayer::compile(geom, 1, &weights, &UcnnConfig::with_g(2));
            for &tier in available_tiers() {
                let lane = tier.lane_width();
                for b in [lane, lane + 3] {
                    let inputs: Vec<Tensor3<i16>> = (0..b)
                        .map(|_| agen.generate(geom.c(), geom.in_w(), geom.in_h()))
                        .collect();
                    let expected: Vec<Tensor3<i32>> =
                        inputs.iter().map(|i| run_flattened(&layer, i)).collect();
                    for threads in [1usize, 3] {
                        assert_eq!(
                            run_flattened_batch_interleaved_forced(&layer, &inputs, threads, tier),
                            expected,
                            "tier {}, B={b}, {threads} threads",
                            tier.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn grouped_conv_exact() {
        let geom = ConvGeom::new(7, 7, 4, 6, 3, 3).with_pad(1);
        check(geom, 2, 2, 4, 5);
    }

    #[test]
    fn ragged_channel_tiles_exact() {
        let geom = ConvGeom::new(8, 8, 10, 4, 3, 3);
        check(geom, 1, 3, 4, 6);
    }

    #[test]
    fn all_zero_tile_lowers_to_zero_work() {
        let stream = GroupStream::build(&[&[0i16; 9][..], &[0i16; 9][..]]);
        let geom = ConvGeom::new(5, 5, 1, 2, 3, 3);
        let tile = FlattenedTile::lower(&stream, 0, 0, &geom);
        assert_eq!(tile.entry_count(), 0);
        assert_eq!(tile.segment_count(), 0);
    }

    #[test]
    fn segment_counts_match_stream_multiplies() {
        // Segments per position equal the stream's uncapped multiply count:
        // one multiply per non-zero group closure.
        let mut wgen = WeightGen::new(QuantScheme::inq(), 9).with_density(0.7);
        let w = wgen.generate_dims(2, 8, 3, 3);
        let slices: Vec<&[i16]> = vec![w.filter(0), w.filter(1)];
        let stream = GroupStream::build(&slices);
        let geom = ConvGeom::new(5, 5, 8, 2, 3, 3);
        let tile = FlattenedTile::lower(&stream, 0, 0, &geom);
        assert_eq!(tile.segment_count(), stream.multiplies());
    }

    #[test]
    fn chunk_decomposition_emits_only_kernel_widths() {
        for lane in [8usize, 16, 32] {
            for total in 1usize..=70 {
                let mut rest = total;
                let mut seen_widths = Vec::new();
                while rest > 0 {
                    let w = next_chunk_width(rest, lane);
                    assert!(matches!(w, 1..=8 | 16 | 32), "width {w}");
                    assert!(w <= lane, "width {w} exceeds tier lane {lane}");
                    seen_widths.push(w);
                    rest -= w;
                }
                assert_eq!(seen_widths.iter().sum::<usize>(), total);
                // Full tier-width chunks come first; widths never increase.
                for pair in seen_widths.windows(2) {
                    assert!(pair[0] >= pair[1], "widths must be non-increasing");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "input plane mismatch")]
    fn rejects_mismatched_input() {
        let geom = ConvGeom::new(6, 6, 4, 4, 3, 3);
        let weights = Tensor4::from_fn(4, 4, 3, 3, |_, _, _, _| 1i16);
        let layer = CompiledLayer::compile(&geom, 1, &weights, &UcnnConfig::default());
        let _ = run_flattened(&layer, &Tensor3::filled(4, 5, 5, 1i16));
    }

    #[test]
    #[should_panic(expected = "need at least one execution thread")]
    fn rejects_zero_threads() {
        let geom = ConvGeom::new(4, 4, 2, 2, 3, 3);
        let weights = Tensor4::from_fn(2, 2, 3, 3, |_, _, _, _| 1i16);
        let layer = CompiledLayer::compile(&geom, 1, &weights, &UcnnConfig::default());
        let _ = run_flattened_batch_interleaved(&layer, &[], 0);
    }
}
