/* Two-pointer / k-way merge-add kernels for sorted COO gradient streams, the
 * fused error-feedback accumulate + candidate scan (which also seeds the
 * cuts it scans against), the segmented exact top-k, the Spar-Reduce-Scatter
 * take and transmission step, and the convolution unfold / fold of
 * repro.nn.conv (end of file).
 *
 * Compiled on demand by repro.sparse.ckernels (cc -O3 -ffp-contract=off
 * -shared -fPIC); the package falls back to vectorized NumPy kernels when no
 * compiler is available, so this file is an accelerator, not a dependency.
 *
 * Bit-exactness contract: duplicate indices are accumulated strictly
 * left-to-right in stream order starting from +0.0, which reproduces the
 * seed implementation (np.add.at over a stream-ordered concatenation)
 * bit-for-bit.  accumulate_scan_f64 rounds every product and every sum on
 * its own, like the NumPy statements it replaces; -ffp-contract=off keeps
 * the compiler from fusing them into an FMA, which rounds once.
 */

#include <math.h>
#include <stdint.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define X86_VARIANTS 1
#endif

/* MAX_STREAMS, SCAN_PAD, SEED_RUN, SEED_SHARE and SEED_MIN_RUNS come as -D
 * flags from ckernels.py, their one definition. */

/* Merge-add two sorted-unique COO streams.  Writes at most na + nb entries
 * into out_indices / out_values; returns the number written.  Sums exactly
 * like the winner tree below (0.0 + a + b, the first stream's value first)
 * at about a third of its cost, so that tree hands two-stream merges here. */
static int64_t merge_add_i64_f64(
    int64_t na, const int64_t *ai, const double *av,
    int64_t nb, const int64_t *bi, const double *bv,
    int64_t *out_indices, double *out_values)
{
    int64_t i = 0, j = 0, o = 0;
    while (i < na && j < nb) {
        int64_t x = ai[i], y = bi[j];
        if (x < y) {
            out_indices[o] = x;
            out_values[o] = 0.0 + av[i];
            i++;
        } else if (y < x) {
            out_indices[o] = y;
            out_values[o] = 0.0 + bv[j];
            j++;
        } else {
            out_indices[o] = x;
            out_values[o] = 0.0 + av[i] + bv[j];
            i++;
            j++;
        }
        o++;
    }
    for (; i < na; i++, o++) {
        out_indices[o] = ai[i];
        out_values[o] = 0.0 + av[i];
    }
    for (; j < nb; j++, o++) {
        out_indices[o] = bi[j];
        out_values[o] = 0.0 + bv[j];
    }
    return o;
}

/* K-way merge-add of sorted COO streams in O(total * log streams): unique
 * within each stream when there are two (merge_add_i64_f64 takes those),
 * duplicates allowed across and within streams otherwise.  Equal indices are
 * consumed stream by stream in stream order, so the accumulation matches a
 * sequential pairwise left fold.  Returns the number of entries written, or
 * -1 if num_streams exceeds MAX_STREAMS.
 *
 * A complete winner tree over the (padded to a power of two) stream heads is
 * kept in an implicit array: leaves at win[width + s] hold stream ids, every
 * internal node holds the id of the smaller-keyed child, with ties going to
 * the left child.  Because the leaf layout is in stream order, the left
 * child always covers lower stream ids, so among equal head indices the
 * root is the *lowest* stream id — equal indices are therefore consumed in
 * stream order and the accumulation reproduces the seed's sequential
 * pairwise left fold bit for bit.  Advancing a stream only
 * replays its leaf-to-root path.
 *
 * INT64_MAX marks an exhausted stream; it cannot collide with a real index
 * because indices live in [0, length) with length itself at most INT64_MAX.
 */
int64_t merge_many_tournament_i64_f64(
    int64_t num_streams,
    const int64_t **indices,
    const double **values,
    const int64_t *lengths,
    int64_t *out_indices,
    double *out_values)
{
    int64_t cursor[MAX_STREAMS];
    int64_t key[MAX_STREAMS];
    int32_t win[2 * MAX_STREAMS];
    int64_t s, node, width, o = 0;

    if (num_streams > MAX_STREAMS)
        return -1;
    if (num_streams <= 0)
        return 0;
    if (num_streams == 2)
        return merge_add_i64_f64(lengths[0], indices[0], values[0],
                                 lengths[1], indices[1], values[1],
                                 out_indices, out_values);

    width = 1;  /* MAX_STREAMS is a power of two, so width <= MAX_STREAMS */
    while (width < num_streams)
        width <<= 1;

    for (s = 0; s < width; s++) {
        cursor[s] = 0;
        key[s] = (s < num_streams && lengths[s] > 0) ? indices[s][0] : INT64_MAX;
        win[width + s] = (int32_t)s;
    }
    for (node = width - 1; node >= 1; node--) {
        int32_t a = win[2 * node], b = win[2 * node + 1];
        win[node] = (key[b] < key[a]) ? b : a;
    }

    while (key[win[1]] != INT64_MAX) {
        int64_t best = key[win[1]];
        double acc = 0.0;
        do {
            s = win[1];
            do {  /* drain this stream's duplicates of `best` in one go */
                acc += values[s][cursor[s]];
                cursor[s]++;
            } while (cursor[s] < lengths[s] && indices[s][cursor[s]] == best);
            key[s] = (cursor[s] < lengths[s]) ? indices[s][cursor[s]] : INT64_MAX;
            for (node = (width + s) >> 1; node >= 1; node >>= 1) {
                int32_t a = win[2 * node], b = win[2 * node + 1];
                win[node] = (key[b] < key[a]) ? b : a;
            }
        } while (key[win[1]] == best);
        out_indices[o] = best;
        out_values[o] = acc;
        o++;
    }
    return o;
}

/* ------------------------------------------------------------------------
 * Fused error-feedback accumulate + candidate scan.
 *
 * One sweep over a worker's n values does the residual add
 *     store[i] += addend[i]                           (velocity == NULL)
 *     velocity[i] = momentum * velocity[i] + addend[i];
 *     store[i] += velocity[i]                         (momentum correction)
 * and, per block, writes the indices (into the whole vector) whose new
 * |store[i]| reaches that block's cut, in index order, and those magnitudes
 * beside them: the sweep has them in a register, the selection that follows
 * would gather them again.  NaN never reaches a cut and a NaN cut is reached
 * by nothing, as with NumPy's `>=`.
 *
 * A block that more than cap entries reach is reported as overflowed
 * (count -1) and only its add goes on, so candidate storage is bounded by
 * what the caller expects, not by n.  Every variant may write up to
 * SCAN_PAD entries past cap before it notices.
 *
 * A block without a cut (NaN) can be given one first, from a sample of the
 * magnitudes the sweep is about to produce (seed_cut below), so that a
 * selector's first selection ranks a few candidates like every later one.
 * ------------------------------------------------------------------------ */

static double select_descending(double *a, int64_t n, int64_t p);

/* The sample a cut is seeded from: SEED_RUN contiguous entries at the start
 * of each of `runs` equal parts of the block — runs, not single entries, so
 * that a sample of one entry in SEED_SHARE touches one page in eight instead
 * of all of them — with at least SEED_MIN_RUNS runs, and the whole block
 * when that covers it.  Which entries are read depends on the block's
 * length alone.  (repro.sparse.topk.seed_cut is the NumPy statement of
 * this.) */

/* The rank-th largest of the sampled |s + g| (|s + (m * v + g)| under
 * momentum; rounded like the sweep, nothing written), NaN ranked last and
 * rank clipped to the sample; NaN when that magnitude is not positive — a
 * cut everything reaches selects nothing.  sample holds the sampled
 * entries. */
static double seed_cut(const double *s, const double *g, const double *v,
                       double m, int64_t len, int64_t rank, double *sample)
{
    int64_t runs = len / (SEED_RUN * SEED_SHARE), run = SEED_RUN;
    int64_t count = 0, i, j;
    double cut;
    if (runs < SEED_MIN_RUNS)
        runs = SEED_MIN_RUNS;
    if (runs * SEED_RUN >= len) {
        runs = 1;
        run = len;
    }
    for (j = 0; j < runs; j++) {
        int64_t lo = j * len / runs;
        for (i = lo; i < lo + run; i++) {
            double u = g[i], x;
            if (v) {
                u = m * v[i];
                u = u + g[i];
            }
            x = fabs(s[i] + u);
            sample[count++] = x == x ? x : -INFINITY;
        }
    }
    if (count == 0)
        return NAN;
    cut = select_descending(sample, count, (rank < count ? rank : count) - 1);
    return cut > 0 ? cut : NAN;
}

static void accumulate_plain(double *s, const double *g, double *v, double m,
                             int64_t len)
{
    int64_t i;
    if (v) {
        for (i = 0; i < len; i++) {
            double u = m * v[i];
            u = u + g[i];
            v[i] = u;
            s[i] = s[i] + u;
        }
    } else {
        for (i = 0; i < len; i++)
            s[i] = s[i] + g[i];
    }
}

/* Elements [i, len) of one block, continuing at `count` candidates; also the
 * whole-block kernel where no SIMD variant applies.  Returns the new count,
 * or -1 on overflow. */
static int64_t scan_scalar(double *s, const double *g, double *v, double m,
                           int64_t i, int64_t len, double cut, int64_t cap,
                           int64_t base, int64_t *out, double *mag, int64_t count)
{
    for (; i < len && count <= cap; i++) {
        double u = g[i], x;
        if (v) {
            u = m * v[i];
            u = u + g[i];
            v[i] = u;
        }
        x = s[i] + u;
        s[i] = x;
        x = fabs(x);
        out[count] = base + i;
        mag[count] = x;
        count += x >= cut;
    }
    if (count <= cap)
        return count;
    accumulate_plain(s + i, g + i, v ? v + i : 0, m, len - i);
    return -1;
}

static int64_t scan_block_scalar(double *s, const double *g, double *v, double m,
                                 int64_t len, double cut, int64_t cap,
                                 int64_t base, int64_t *out, double *mag)
{
    return scan_scalar(s, g, v, m, 0, len, cut, cap, base, out, mag, 0);
}

#ifdef X86_VARIANTS
/* The sweep keeps up with a plain add only when compare and compaction are
 * branch-free: a SIMD compare yields a lane mask, the lanes' indices are
 * compressed to the front of a vector by the mask and stored whole at
 * out[count], and count advances by the mask's population — which lanes
 * pass is as good as random, so a branch on the mask mispredicts. */
#define SCAN_BLOCK_SIMD(NAME, TARGET, LANES, VEC, SET1, LOADU, STOREU, ADD, MUL, ABS, MASK, EMIT, EMIT_PD) \
    __attribute__((target(TARGET)))                                          \
    static int64_t NAME(double *s, const double *g, double *v, double m,    \
                        int64_t len, double cut, int64_t cap,                \
                        int64_t base, int64_t *out, double *mag)             \
    {                                                                        \
        const VEC vcut = SET1(cut), vm = SET1(m);                            \
        int64_t i = 0, count = 0;                                            \
        for (; i + LANES <= len && count <= cap; i += LANES) {               \
            VEC u = LOADU(g + i), x;                                         \
            unsigned mask;                                                   \
            if (v) {                                                         \
                u = ADD(MUL(vm, LOADU(v + i)), u);                           \
                STOREU(v + i, u);                                            \
            }                                                                \
            x = ADD(LOADU(s + i), u);                                        \
            STOREU(s + i, x);                                                \
            x = ABS(x);                                                      \
            mask = MASK(x, vcut);                                            \
            EMIT(out + count, mask, base + i);                               \
            EMIT_PD(mag + count, mask, x);                                   \
            count += __builtin_popcount(mask);                               \
        }                                                                    \
        return scan_scalar(s, g, v, m, i, len, cut, cap, base, out, mag, count); \
    }

/* COMPRESS4[mask]: the 32-bit lane permutation that moves the 64-bit lanes
 * set in `mask` to the front, in order. */
static const int32_t COMPRESS4[16][8] __attribute__((aligned(32))) = {
    {0, 0, 0, 0, 0, 0, 0, 0}, {0, 1, 0, 0, 0, 0, 0, 0},
    {2, 3, 0, 0, 0, 0, 0, 0}, {0, 1, 2, 3, 0, 0, 0, 0},
    {4, 5, 0, 0, 0, 0, 0, 0}, {0, 1, 4, 5, 0, 0, 0, 0},
    {2, 3, 4, 5, 0, 0, 0, 0}, {0, 1, 2, 3, 4, 5, 0, 0},
    {6, 7, 0, 0, 0, 0, 0, 0}, {0, 1, 6, 7, 0, 0, 0, 0},
    {2, 3, 6, 7, 0, 0, 0, 0}, {0, 1, 2, 3, 6, 7, 0, 0},
    {4, 5, 6, 7, 0, 0, 0, 0}, {0, 1, 4, 5, 6, 7, 0, 0},
    {2, 3, 4, 5, 6, 7, 0, 0}, {0, 1, 2, 3, 4, 5, 6, 7},
};

#define ABS_AVX2(x) _mm256_andnot_pd(_mm256_set1_pd(-0.0), x)
#define MASK_AVX2(x, vcut) ((unsigned)_mm256_movemask_pd(                    \
    _mm256_cmp_pd(x, vcut, _CMP_GE_OQ)))
#define EMIT_AVX2(dst, mask, i) _mm256_storeu_si256((__m256i *)(dst),        \
    _mm256_permutevar8x32_epi32(                                             \
        _mm256_add_epi64(_mm256_set1_epi64x(i), _mm256_setr_epi64x(0, 1, 2, 3)), \
        _mm256_load_si256((const __m256i *)COMPRESS4[mask])))
#define EMIT_PD_AVX2(dst, mask, x) _mm256_storeu_si256((__m256i *)(dst),     \
    _mm256_permutevar8x32_epi32(_mm256_castpd_si256(x),                      \
        _mm256_load_si256((const __m256i *)COMPRESS4[mask])))
#define ABS_AVX512(x) _mm512_castsi512_pd(_mm512_and_epi64(                  \
    _mm512_castpd_si512(x), _mm512_set1_epi64(INT64_MAX)))
#define MASK_AVX512(x, vcut) ((unsigned)_mm512_cmp_pd_mask(x, vcut, _CMP_GE_OQ))
#define EMIT_AVX512(dst, mask, i) _mm512_storeu_si512((dst),                 \
    _mm512_maskz_compress_epi64((__mmask8)(mask),                            \
        _mm512_add_epi64(_mm512_set1_epi64(i),                               \
                         _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7))))
#define EMIT_PD_AVX512(dst, mask, x) _mm512_storeu_pd((dst),                 \
    _mm512_maskz_compress_pd((__mmask8)(mask), x))

SCAN_BLOCK_SIMD(scan_block_avx2, "avx2,popcnt", 4, __m256d, _mm256_set1_pd,
                _mm256_loadu_pd, _mm256_storeu_pd, _mm256_add_pd,
                _mm256_mul_pd, ABS_AVX2, MASK_AVX2, EMIT_AVX2, EMIT_PD_AVX2)
SCAN_BLOCK_SIMD(scan_block_avx512, "avx512f,popcnt", 8, __m512d, _mm512_set1_pd,
                _mm512_loadu_pd, _mm512_storeu_pd, _mm512_add_pd,
                _mm512_mul_pd, ABS_AVX512, MASK_AVX512, EMIT_AVX512, EMIT_PD_AVX512)
#endif

typedef int64_t (*scan_block_fn)(double *, const double *, double *, double,
                                 int64_t, double, int64_t, int64_t,
                                 int64_t *, double *);

/* Lanes of the widest variant this CPU runs: 8 (AVX-512F), 4 (AVX2) or 1. */
int64_t accumulate_scan_lanes(void)
{
#ifdef X86_VARIANTS
    if (__builtin_cpu_supports("popcnt")) {
        if (__builtin_cpu_supports("avx512f"))
            return 8;
        if (__builtin_cpu_supports("avx2"))
            return 4;
    }
#endif
    return 1;
}

/* The variant processing `lanes` values at a time (0: the widest), or NULL
 * when this CPU does not run it. */
static scan_block_fn scan_block_variant(int64_t lanes)
{
    int64_t widest = accumulate_scan_lanes();
    if (lanes == 0)
        lanes = widest;
#ifdef X86_VARIANTS
    if (lanes == 8 && widest >= 8)
        return scan_block_avx512;
    if (lanes == 4 && widest >= 4)
        return scan_block_avx2;
#endif
    return lanes == 1 ? scan_block_scalar : 0;
}

/* bounds holds num_blocks + 1 ascending edges from 0 to the vectors' length.
 * The blocks' candidates are written back to back, in block order, to out
 * (indices) and mag (magnitudes) — an overflowed block leaves nothing — and
 * each block's number of them (or -1) to counts[b]; out and mag hold
 * (caps[0] + SCAN_PAD) + ... + (caps[num_blocks-1] + SCAN_PAD) entries.  A
 * block whose cut is NaN is first given one where seed_ranks (NULL: nowhere)
 * holds a positive rank for it — seed_cut of that rank, written back to
 * cuts[b], through sample, which holds the largest such block's sampled
 * entries — and is only added when it still has none.  lanes picks the
 * variant (0: the widest available); returns -1, having done nothing, when
 * this CPU does not run it. */
int64_t accumulate_scan_f64(
    double *store, const double *addend, double *velocity, double momentum,
    int64_t num_blocks, const int64_t *bounds, double *cuts,
    const int64_t *caps, const int64_t *seed_ranks, double *sample,
    int64_t *out, double *mag, int64_t *counts, int64_t lanes)
{
    scan_block_fn scan_block = scan_block_variant(lanes);
    int64_t b;
    if (!scan_block)
        return -1;
    for (b = 0; b < num_blocks; b++) {
        int64_t lo = bounds[b], len = bounds[b + 1] - lo;
        double *v = velocity ? velocity + lo : 0;
        if (cuts[b] != cuts[b] && seed_ranks && seed_ranks[b] > 0)
            cuts[b] = seed_cut(store + lo, addend + lo, v, momentum, len,
                               seed_ranks[b], sample);
        if (cuts[b] != cuts[b]) {
            accumulate_plain(store + lo, addend + lo, v, momentum, len);
            counts[b] = 0;
        } else {
            counts[b] = scan_block(store + lo, addend + lo, v, momentum, len,
                                   cuts[b], caps[b], lo, out, mag);
            if (counts[b] > 0) {
                out += counts[b];
                mag += counts[b];
            }
        }
    }
    return 0;
}

/* ------------------------------------------------------------------------
 * Segmented exact top-k.
 *
 * magnitude holds non-negative values (or NaN) in num_segments consecutive
 * segments, segment s at offsets[s]..offsets[s+1].  For every segment with
 * ks[s] >= 0, keep[i] is set to 1 for the ks[s] largest entries — ties to
 * the lower index, NaN ranked below every magnitude — which is the
 * selection of a stable descending argsort.  Entries not kept are left as
 * the caller initialised them (0), and a segment with ks[s] < 0 is left
 * alone altogether.
 *
 * A segment that keeps some but not all of its entries also reports
 * cuts[s], its reached[s]-th largest magnitude, where reached[s] is
 * reaches[s] clipped to ks[s]..length (reaches == NULL: ks[s]); the others
 * report NaN and 0.  scratch holds as many doubles as the longest such
 * segment.
 *
 * A scalar quickselect: right for many short segments, where one call
 * replaces a NumPy partition per segment; NumPy's vectorised partition
 * overtakes it on long ones, which the caller keeps for itself.
 * ------------------------------------------------------------------------ */

/* Rearranges a[0..n) so that a[p] is its (p + 1)-th largest value, nothing
 * before it is smaller and nothing after it larger; returns a[p].  No NaN.
 *
 * Quickselect on a median-of-three pivot with branch-free partition passes
 * (every element is swapped to the boundary, which advances by the outcome
 * of the comparison): which side an element falls on is as good as random,
 * so a branch on it mispredicts every other time.  One pass moves the
 * entries above the pivot to the front; only if the rank sought is not among
 * them does a second pass gather the pivot's ties, so runs of equal values
 * (zeros, a tie at the cut) cost one extra pass instead of one per value. */
static double select_descending(double *a, int64_t n, int64_t p)
{
    int64_t lo = 0, hi = n, i, j;
    while (hi - lo > 16) {
        double x = a[lo], y = a[lo + (hi - lo) / 2], z = a[hi - 1], pivot;
        int64_t above = lo, ties;
        pivot = x > y ? (y > z ? y : (x > z ? z : x))
                      : (x > z ? x : (y > z ? z : y));
        for (i = lo; i < hi; i++) {
            x = a[i];
            a[i] = a[above];
            a[above] = x;
            above += x > pivot;
        }
        if (p < above) {
            hi = above;
            continue;
        }
        ties = above;
        for (i = above; i < hi; i++) {
            x = a[i];
            a[i] = a[ties];
            a[ties] = x;
            ties += x == pivot;
        }
        if (p < ties)
            return pivot;
        lo = ties;
    }
    for (i = lo + 1; i < hi; i++) {
        double t = a[i];
        for (j = i; j > lo && a[j - 1] < t; j--)
            a[j] = a[j - 1];
        a[j] = t;
    }
    return a[p];
}

/* One segment of the selection, 0 < k < n and k <= reach <= n: out[i] is set
 * to 1 for the k kept entries of m[0..n) and to 0 for the others; returns the
 * reach-th largest magnitude.  scratch holds n doubles. */
static double mark_top_k(const double *m, int64_t n, int64_t k, int64_t reach,
                         double *scratch, uint8_t *out)
{
    int64_t i, need = k;
    double cut, at_reach;
    for (i = 0; i < n; i++)
        scratch[i] = m[i] == m[i] ? m[i] : -INFINITY;
    cut = select_descending(scratch, n, k - 1);
    at_reach = reach == k ? cut
                          : select_descending(scratch + k, n - k, reach - k - 1);
    for (i = 0; i < n; i++)
        need -= m[i] > cut;
    /* everything above the cut, and the first `need` entries exactly at it
     * (NaN counts as -inf there) */
    for (i = 0; i < n; i++) {
        int tie = (m[i] == cut) | ((cut == -INFINITY) & (m[i] != m[i]));
        tie &= need > 0;
        out[i] = (m[i] > cut) | tie;
        need -= tie;
    }
    return at_reach;
}

void segmented_top_k_f64(
    int64_t num_segments, const int64_t *offsets, const int64_t *ks,
    const int64_t *reaches, const double *magnitude, double *scratch,
    uint8_t *keep, double *cuts, int64_t *reached)
{
    int64_t s, i;
    for (s = 0; s < num_segments; s++) {
        uint8_t *out = keep + offsets[s];
        int64_t n = offsets[s + 1] - offsets[s], k = ks[s], reach;
        if (k < 0)
            continue;
        cuts[s] = NAN;
        reached[s] = 0;
        if (k == 0 || n == 0)
            continue;
        if (k >= n) {
            for (i = 0; i < n; i++)
                out[i] = 1;
            continue;
        }
        reach = reaches && reaches[s] > k ? reaches[s] : k;
        if (reach > n)
            reach = n;
        cuts[s] = mark_top_k(magnitude + offsets[s], n, k, reach, scratch, out);
        reached[s] = reach;
    }
}

/* The same selection on a COO stream, split in the same call: segment s of
 * (indices, values) keeps its ks[s] largest-magnitude entries (ks[s] >= 0);
 * the kept entries of all segments go to (kept_indices, kept_values), the
 * others to (rest_indices, rest_values), in order.  Returns the number kept.
 *
 * Outputs and scratch live in two caller-allocated buffers (one pointer each
 * to marshal, which is what a call on a few hundred entries costs), with
 * n = offsets[num_segments] and S = num_segments:
 *     fwork, 4n + S + ceil(n / 8) doubles:
 *         [0, n) magnitudes   [n, 2n) select scratch   [2n, 3n) kept_values
 *         [3n, 4n) rest_values   [4n, 4n + S) cuts   then n keep bytes
 *     iwork, 2n + S int64:
 *         [0, n) kept_indices   [n, 2n) rest_indices   [2n, 2n + S) reached
 *
 * The split is branch-free — each entry is written to both sides and the
 * side it belongs to advances — because which entries a top-k keeps is as
 * good as random; NumPy's boolean gathers branch. */
int64_t top_k_split_i64_f64(
    int64_t num_segments, const int64_t *offsets, const int64_t *ks,
    const int64_t *indices, const double *values,
    double *fwork, int64_t *iwork)
{
    int64_t n = offsets[num_segments], kept = 0, rest = 0, i;
    double *magnitude = fwork, *scratch = fwork + n;
    double *kept_values = fwork + 2 * n, *rest_values = fwork + 3 * n;
    double *cuts = fwork + 4 * n;
    uint8_t *keep = (uint8_t *)(cuts + num_segments);
    int64_t *kept_indices = iwork, *rest_indices = iwork + n;
    for (i = 0; i < n; i++) {
        magnitude[i] = fabs(values[i]);
        keep[i] = 0;
    }
    segmented_top_k_f64(num_segments, offsets, ks, 0, magnitude, scratch,
                        keep, cuts, iwork + 2 * n);
    for (i = 0; i < n; i++) {
        int64_t k = keep[i];
        kept_indices[kept] = rest_indices[rest] = indices[i];
        kept_values[kept] = rest_values[rest] = values[i];
        kept += k;
        rest += 1 - k;
    }
    return kept;
}

/* Phase 1 of Spar-Reduce-Scatter takes every rank's selection out of its
 * store: out[r * per + i] = rows[r][x] and the slot becomes +0.0, x =
 * indices[r * per + i] (unique within a rank).  Returns 0, or -1 — having
 * changed nothing — when an index lies outside [0, length). */
int64_t take_rows_f64(int64_t ranks, int64_t per, double *const *rows,
                      const int64_t *indices, int64_t length, double *out)
{
    int64_t r, i;
    for (i = 0; i < ranks * per; i++)
        if ((uint64_t)indices[i] >= (uint64_t)length)
            return -1;
    for (r = 0; r < ranks; r++) {
        double *row = rows[r];
        for (i = r * per; i < (r + 1) * per; i++) {
            out[i] = row[indices[i]];
            row[indices[i]] = 0.0;
        }
    }
    return 0;
}

/* ------------------------------------------------------------------------
 * One transmission step of Spar-Reduce-Scatter, for every rank at once
 * (repro.core.srs; srs_round_numpy there is the NumPy statement of it).
 *
 * A rank's blocks are one run of (held_i, held_v), block slot by block slot
 * and bucket segment by bucket segment: segment b of slot s of rank r spans
 * held_off[(r * (sent + slots) + s) * buckets + b] up to the next offset.
 * The first `sent` slots of every rank have just been sent and are skipped.
 * Slot j of the `slots` after them is
 *   1. merged with what the rank received for it — bag b of it lies in rank
 *      r's inbox buffers (inbox[2r]: indices, inbox[2r + 1]: values; null
 *      when nothing arrived) from in_bounds[2q] up to in_bounds[2q + 1],
 *      q = (r * slots + j) * buckets + b — held first, 0.0 + a + b where
 *      both hold an index and 0.0 + x elsewhere; but when either block is
 *      empty in every bucket, the other one is taken as it is;
 *   2. where targets[r * slots + j] is set, cut to its ks[q] (> 0) largest
 *      magnitudes in every bucket segment: the selection of
 *      segmented_top_k_f64 (ties to the lower index, NaN lowest).  A
 *      dropped entry is added into rows[r][index] when rows is not null and
 *      written to (drop_i, drop_v) — rank r's from drop_off[r] up to
 *      drop_off[r + 1] — when drop_off is not null.
 * What is kept goes to (out_i, out_v) in the same layout with `slots` slots,
 * its offsets to out_off; returns the number of entries written, or -1 when
 * an index to add into a row lies outside [0, length) (what was added before
 * stays added).  fwork holds 2 * longest doubles and keep `longest` bytes,
 * longest being the most entries one merged segment can have.
 * ------------------------------------------------------------------------ */
int64_t srs_round_f64(
    int64_t ranks, int64_t sent, int64_t slots, int64_t buckets,
    const int64_t *held_off, const int64_t *held_i, const double *held_v,
    const uintptr_t *inbox, const int64_t *in_bounds,
    const uint8_t *targets, const int64_t *ks, double *const *rows,
    int64_t *out_off, int64_t *out_i, double *out_v,
    int64_t *drop_off, int64_t *drop_i, double *drop_v,
    double *fwork, uint8_t *keep, int64_t length)
{
    int64_t r, j, b, i, o = 0, d = 0;
    out_off[0] = 0;
    if (drop_off)
        drop_off[0] = 0;
    for (r = 0; r < ranks; r++) {
        const int64_t *in_i = (const int64_t *)inbox[2 * r];
        const double *in_v = (const double *)inbox[2 * r + 1];
        double *row = rows ? rows[r] : 0;
        for (j = 0; j < slots; j++) {
            int64_t q = (r * slots + j) * buckets, received = 0;
            const int64_t *held = held_off + (r * (sent + slots) + sent + j) * buckets;
            const int64_t *bounds = in_bounds + 2 * q;
            int both;
            for (b = 0; b < buckets; b++)
                received += bounds[2 * b + 1] - bounds[2 * b];
            both = received > 0 && held[buckets] > held[0];
            for (b = 0; b < buckets; b++, q++) {
                int64_t lo = held[b], na = held[b + 1] - lo;
                int64_t in_lo = bounds[2 * b], nb = bounds[2 * b + 1] - in_lo;
                int64_t n = na + nb, kept = 0;
                if (both) {
                    n = merge_add_i64_f64(na, held_i + lo, held_v + lo,
                                          nb, in_i + in_lo, in_v + in_lo,
                                          out_i + o, out_v + o);
                } else {  /* one of the two is empty in every bucket */
                    for (i = 0; i < na; i++) {
                        out_i[o + i] = held_i[lo + i];
                        out_v[o + i] = held_v[lo + i];
                    }
                    for (i = 0; i < nb; i++) {
                        out_i[o + i] = in_i[in_lo + i];
                        out_v[o + i] = in_v[in_lo + i];
                    }
                }
                if (targets[r * slots + j] && n > ks[q]) {
                    for (i = 0; i < n; i++)
                        fwork[i] = fabs(out_v[o + i]);
                    mark_top_k(fwork, n, ks[q], ks[q], fwork + n, keep);
                    for (i = 0; i < n; i++) {  /* in place: kept <= i */
                        int64_t index = out_i[o + i];
                        double value = out_v[o + i];
                        out_i[o + kept] = index;
                        out_v[o + kept] = value;
                        kept += keep[i];
                        if (keep[i])
                            continue;
                        if (row) {
                            if ((uint64_t)index >= (uint64_t)length)
                                return -1;
                            row[index] += value;
                        }
                        if (drop_off) {
                            drop_i[d] = index;
                            drop_v[d] = value;
                            d++;
                        }
                    }
                    n = kept;
                }
                o += n;
                out_off[q + 1] = o;
            }
        }
        if (drop_off)
            drop_off[r + 1] = d;
    }
    return o;
}

/* ------------------------------------------------------------------------
 * Convolution unfold / fold (repro.nn.conv.im2col / col2im).
 *
 * Entry ((b * oh + oy) * ow + ox, (ch * kh + y) * kw + x) of the
 * C-contiguous (n * oh * ow, c * kh * kw) column matrix pairs with pixel
 * (oy * stride + y - padding, ox * stride + x - padding) of plane (b, ch) of
 * the image.  The caller has checked that oh and ow are positive.
 * ------------------------------------------------------------------------ */

/* Unfold: every column entry is its pixel, +0.0 where that falls into the
 * padding.  A pure gather, so the matrix holds the image's bits.  The image
 * is read through its element strides (sn, sc, sh, sw): the NCHW view of an
 * NHWC buffer that a convolution hands on needs no copy. */
void im2col_f64(const double *image, int64_t n, int64_t c, int64_t h, int64_t w,
                int64_t sn, int64_t sc, int64_t sh, int64_t sw,
                int64_t kh, int64_t kw, int64_t stride, int64_t padding,
                int64_t oh, int64_t ow, double *columns)
{
    int64_t b, oy, ox, ch, y, x;
    for (b = 0; b < n; b++)
        for (oy = 0; oy < oh; oy++)
            for (ox = 0; ox < ow; ox++) {
                int64_t top = oy * stride - padding, left = ox * stride - padding;
                for (ch = 0; ch < c; ch++) {
                    const double *plane = image + b * sn + ch * sc;
                    for (y = top; y < top + kh; y++) {
                        if (y < 0 || y >= h) {
                            for (x = 0; x < kw; x++)
                                *columns++ = 0.0;
                            continue;
                        }
                        for (x = left; x < left + kw; x++)
                            *columns++ = x >= 0 && x < w ? plane[y * sh + x * sw] : 0.0;
                    }
                }
            }
}

/* Fold, the adjoint: every pixel of the zero-initialised (n, c, ph, pw)
 * padded image accumulates the column entries unfolding would have read
 * from it, starting from its +0.0 in ascending kernel offset (y, x) — the
 * order of the NumPy statement, which adds one offset's strided slice at a
 * time — so every sum rounds alike.  Walking the rows backwards is that
 * order: of two entries landing on one pixel, the one at the smaller offset
 * comes from the larger output position. */
void col2im_f64(const double *columns, int64_t n, int64_t c, int64_t ph, int64_t pw,
                int64_t kh, int64_t kw, int64_t stride, int64_t oh, int64_t ow,
                double *padded)
{
    int64_t b, oy, ox, ch, y, x, row = c * kh * kw;
    const double *entry = columns + n * oh * ow * row;
    for (b = n - 1; b >= 0; b--)
        for (oy = oh - 1; oy >= 0; oy--)
            for (ox = ow - 1; ox >= 0; ox--) {
                double *plane = padded + (b * c * ph + oy * stride) * pw + ox * stride;
                entry -= row;
                for (ch = 0; ch < c; ch++, plane += ph * pw)
                    for (y = 0; y < kh; y++)
                        for (x = 0; x < kw; x++)
                            plane[y * pw + x] += entry[(ch * kh + y) * kw + x];
            }
}
