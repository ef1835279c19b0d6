/* Batched partial-pivot Gaussian elimination -- native twin of
 * repro.core.linalg.gaussian_eliminate -- and the fused template solve
 * built on it, the native twin of repro.core.continuous.solve_accumulated.
 * The two steps that feed that solve per hypothesis, the pointwise field
 * build and the template box sum, follow at the end of the file.
 *
 * The kernel performs BITWISE the same IEEE-754 double arithmetic as the
 * vectorized NumPy reference, element for element, in the same order:
 *
 *   - pivot selection is argmax of |column| with first-max-wins ties and
 *     NumPy's NaN-is-maximal convention,
 *   - row updates compute a[i][j] - (a[i][k]/pivot) * a[k][j] with exactly
 *     one rounding per multiply and subtract (compiled with
 *     -ffp-contract=off so no FMA contraction is allowed),
 *   - back substitution accumulates sum_j a[k][j] * x[j] the way
 *     np.einsum's SIMD inner-product loop does: two lanes of partial sums
 *     (even and odd positions), each 8-element block folded right-nested
 *     into its lane accumulator, leftover pairs added left-associated,
 *     and one final lane-combining add (verified bit-exact against
 *     np.einsum for every contraction length 1..40),
 *   - pivots below SINGULAR_TOLERANCE mark the system singular, divide by
 *     a substituted 1.0 and zero the factors, exactly like the reference.
 *
 * Because IEEE add/mul/div are exactly rounded and the operand order is
 * identical, scalar C and vectorized NumPy produce identical bit patterns.
 * The same holds lane by lane for the template solve's AVX2 / AVX-512F
 * body at the end of this file, which this file #includes once per
 * vector width.  The Python wrapper cross-checks every entry point, and
 * the template solve at every width the CPU runs, on import with
 * fingerprint batches and refuses the library on any mismatch.
 */

#ifndef LANES /* the lane-parallel body below is included once per width */

#include <math.h>
#include <stddef.h>
#include <stdlib.h>
#include <string.h>

static const double SINGULAR_TOLERANCE = 1e-12;

/* NumPy argmax semantics for doubles: keep the first encountered value
 * that every later value fails to exceed; a NaN beats any non-NaN and
 * the first NaN wins. */
static ptrdiff_t column_argmax(const double *col, ptrdiff_t len, ptrdiff_t stride)
{
    ptrdiff_t best_i = 0;
    double best = fabs(col[0]);
    int best_nan = isnan(best);
    for (ptrdiff_t i = 1; i < len; i++) {
        double v = fabs(col[i * stride]);
        if (best_nan)
            break;
        if (v > best || isnan(v)) {
            best = v;
            best_i = i;
            best_nan = isnan(v);
        }
    }
    return best_i;
}

/* np.einsum("ij,ij->i", ...) SIMD inner product, replicated exactly:
 * two lanes (even/odd positions); each full block of 8 terms folds
 * right-nested into its lane accumulator,
 *   lane = t0 + (t2 + (t4 + (t6 + lane)))
 * then leftover pairs add left-associated and the lanes combine with
 * one final add. */
static inline double einsum_dot(const double *row, const double *xv, ptrdiff_t len)
{
    ptrdiff_t head = (len / 8) * 8;
    double lane0 = 0.0, lane1 = 0.0;
    for (ptrdiff_t j = 0; j < head; j += 8) {
        double t0 = row[j] * xv[j];
        double t1 = row[j + 1] * xv[j + 1];
        double t2 = row[j + 2] * xv[j + 2];
        double t3 = row[j + 3] * xv[j + 3];
        double t4 = row[j + 4] * xv[j + 4];
        double t5 = row[j + 5] * xv[j + 5];
        double t6 = row[j + 6] * xv[j + 6];
        double t7 = row[j + 7] * xv[j + 7];
        lane0 = t0 + (t2 + (t4 + (t6 + lane0)));
        lane1 = t1 + (t3 + (t5 + (t7 + lane1)));
    }
    for (ptrdiff_t j = head; j < len; j += 2) {
        lane0 += row[j] * xv[j];
        if (j + 1 < len)
            lane1 += row[j + 1] * xv[j + 1];
    }
    return lane0 + lane1;
}

/* Solve one n-by-n system.  as (n*n) and bs (n) are destroyed; xs (n)
 * receives the solution (zeros when singular).  Returns the singular
 * flag. */
static inline unsigned char solve_system(double *as, double *bs, double *xs, ptrdiff_t n)
{
    unsigned char sing = 0;

    for (ptrdiff_t k = 0; k < n; k++) {
        ptrdiff_t piv = k + column_argmax(as + k * n + k, n - k, n);
        if (piv != k) {
            for (ptrdiff_t j = 0; j < n; j++) {
                double tmp = as[k * n + j];
                as[k * n + j] = as[piv * n + j];
                as[piv * n + j] = tmp;
            }
            double tmp = bs[k];
            bs[k] = bs[piv];
            bs[piv] = tmp;
        }
        double pivot = as[k * n + k];
        int bad = fabs(pivot) < SINGULAR_TOLERANCE;
        /* NaN pivots compare false against the tolerance, exactly like
         * np.abs(pivots) < SINGULAR_TOLERANCE. */
        if (bad)
            sing = 1;
        double safe = bad ? 1.0 : pivot;
        for (ptrdiff_t i = k + 1; i < n; i++) {
            double factor = bad ? 0.0 : as[i * n + k] / safe;
            for (ptrdiff_t j = 0; j < n; j++)
                as[i * n + j] -= factor * as[k * n + j];
            bs[i] -= factor * bs[k];
        }
    }

    for (ptrdiff_t k = n - 1; k >= 0; k--) {
        double acc = einsum_dot(as + k * n + (k + 1), xs + (k + 1), n - 1 - k);
        double pivot = as[k * n + k];
        double safe = fabs(pivot) < SINGULAR_TOLERANCE ? 1.0 : pivot;
        xs[k] = (bs[k] - acc) / safe;
    }
    if (sing)
        for (ptrdiff_t j = 0; j < n; j++)
            xs[j] = 0.0;
    return sing;
}

/* Solve m independent n-by-n systems.  a (m*n*n) and b (m*n) are scratch
 * copies and are destroyed; x (m*n) receives solutions (zeros for
 * singular systems); singular (m) receives 0/1 flags.  Returns 0. */
int gauss_eliminate(double *a, double *b, double *x, unsigned char *singular,
                    ptrdiff_t m, ptrdiff_t n)
{
    for (ptrdiff_t s = 0; s < m; s++)
        singular[s] = solve_system(a + s * n * n, b + s * n, x + s * n, n);
    return 0;
}

/* The template solve of repro.core.continuous.solve_accumulated, fused.
 *
 * Reads packed 28-field sums (21 upper-triangle entries of the
 * symmetric 6x6 H, 6 gradient entries, the constant c) in place,
 * through a per-field table.  The systems are numbered flat over
 * outer * inner; field k of system (o, p) sits at
 *
 *   base[k][o * outer_stride[k] + p * pixel_stride]      (in doubles)
 *
 * so the fields may live in different buffers: the hypothesis search
 * hands over a varying stack, one plane per hypothesis, and the
 * hypothesis-invariant sums of the frame pair with outer stride 0.  An
 * array that holds all 28 fields (a channels-last view of
 * channels-first box sums, say) is a table with one base spread by its
 * field stride and one outer stride.  With a pixels list the call
 * solves only the count systems it names, in list order (any order,
 * duplicates allowed); without one it solves all of them.  Per system
 * it replays the NumPy reference:
 *
 *   - h = H + ridge * I over EVERY entry (off the diagonal that adds
 *     ridge * 0.0, which turns a -0.0 entry into +0.0), skipped when
 *     ridge == 0 like the reference's `if ridge:`,
 *   - theta = solve(h, -grad) through solve_system (zeros when
 *     singular, exactly np.where(singular, 0.0, theta)),
 *   - error = c + einsum(theta, grad) in the two-lane order above,
 *   - error = max(error, 0.0) as np.maximum: a negative error becomes
 *     +0.0 and NaN passes through.  The error is never -0.0 here (the
 *     lanes start at +0.0, and c + (+0.0) is +0.0 for either zero c),
 *     so no signed-zero rule of np.maximum comes into play.
 *
 * On x86 CPUs with AVX2 (AVX-512F) the systems are solved 4 (8) at a
 * time by the lane-parallel body at the end of this file, which
 * replays solve_system lane by lane; everywhere else, and at lanes ==
 * 1, one at a time by solve_system.
 *
 * theta (count*6, or outer*inner*6), error and singular are written
 * contiguously in solve order.  lanes picks the body: 0 the widest the
 * CPU runs, else 1, 4 or 8.  Returns 0, or -1 for a width the CPU
 * cannot run. */
enum { N_PARAMS = 6, N_TRIU = 21, N_FIELDS = 28, MAX_LANES = 8 };

/* Where a group's systems sit: lane l is system (outer[l], pixel[l] /
 * pixel_stride).  SAME_OUTER: every lane shares outer[0], whose planes
 * start at field[k]; CONTIGUOUS: moreover pixel[l] == pixel[0] + l for
 * every lane of a full group. */
enum { MIXED, SAME_OUTER, CONTIGUOUS };
typedef struct {
    const double *const *base;
    const ptrdiff_t *outer_stride;
    const double *field[N_FIELDS];
    ptrdiff_t outer[MAX_LANES], pixel[MAX_LANES];
    int mode;
} lane_group;

/* Field k of the group's first system. */
static inline const double *field_at(const lane_group *g, int k)
{
    return g->field[k] + g->pixel[0];
}

/* Solves the first n systems of a group. */
typedef void (*solve_group_fn)(const lane_group *g, double ridge, ptrdiff_t n, double *theta,
                               double *error, unsigned char *singular);

static void solve_one(const lane_group *g, double ridge, ptrdiff_t n, double *theta,
                      double *error, unsigned char *singular)
{
    enum { N = N_PARAMS };
    const double diag = ridge * 1.0;
    const double offd = ridge * 0.0;
    double a[N * N], b[N], grad[N];
    int idx = 0;
    (void)n;
    for (ptrdiff_t i = 0; i < N; i++)
        for (ptrdiff_t j = i; j < N; j++, idx++) {
            double v = *field_at(g, idx);
            a[i * N + j] = v;
            a[j * N + i] = v;
        }
    if (ridge != 0.0)
        for (ptrdiff_t i = 0; i < N; i++)
            for (ptrdiff_t j = 0; j < N; j++)
                a[i * N + j] = a[i * N + j] + (i == j ? diag : offd);
    for (int k = 0; k < N; k++) {
        grad[k] = *field_at(g, N_TRIU + k);
        b[k] = -grad[k];
    }
    double c = *field_at(g, N_TRIU + N);
    singular[0] = solve_system(a, b, theta, N);
    double e = c + einsum_dot(theta, grad, N);
    error[0] = e < 0.0 ? 0.0 : e;
}

#if defined(__x86_64__) || defined(__i386__)
#define LANES 4
#define LANE_TARGET "avx2"
#include "gauss.c"
#undef LANES
#undef LANE_TARGET
#define LANES 8
#define LANE_TARGET "avx512f"
#include "gauss.c"
#undef LANES
#undef LANE_TARGET

/* Bit w set: the CPU (and the OS, which must save the vector state)
 * runs the w-lane body.  Probed once, when the library loads. */
static int lane_widths = 1;

__attribute__((constructor)) static void probe_lane_widths(void)
{
    __builtin_cpu_init();
    lane_widths = 1 | (__builtin_cpu_supports("avx2") ? 4 : 0)
                  | (__builtin_cpu_supports("avx512f") ? 8 : 0);
}
#else
static const int lane_widths = 1;
#endif

/* The widths solve_packed accepts, as a bit mask of 1, 4 and 8. */
int solve_lane_widths(void)
{
    return lane_widths;
}

int solve_packed(const double *const *base, const ptrdiff_t *outer_stride, ptrdiff_t outer,
                 ptrdiff_t inner, ptrdiff_t pixel_stride, const ptrdiff_t *pixels,
                 ptrdiff_t count, double ridge, double *theta, double *error,
                 unsigned char *singular, int lanes)
{
    solve_group_fn group = solve_one;
    if (lanes == 0)
        lanes = lane_widths & 8 ? 8 : lane_widths & 4 ? 4 : 1;
    if ((lanes != 1 && lanes != 4 && lanes != 8) || !(lane_widths & lanes))
        return -1;
#if defined(__x86_64__) || defined(__i386__)
    if (lanes == 4)
        group = solve_group4;
    else if (lanes == 8)
        group = solve_group8;
#endif
    ptrdiff_t total = pixels ? count : outer * inner;
    lane_group g = {.base = base, .outer_stride = outer_stride};
    ptrdiff_t planes_at = -1; /* the outer index g.field points into */
    ptrdiff_t o = 0, p = 0; /* the next system when every one is solved */
    for (ptrdiff_t s = 0; s < total; s += lanes) {
        ptrdiff_t n = total - s < lanes ? total - s : lanes;
        for (ptrdiff_t l = 0; l < n; l++) {
            if (pixels) {
                ptrdiff_t flat = pixels[s + l];
                g.outer[l] = outer == 1 ? 0 : flat / inner;
                g.pixel[l] = (outer == 1 ? flat : flat % inner) * pixel_stride;
            } else {
                g.outer[l] = o;
                g.pixel[l] = p * pixel_stride;
                if (++p == inner) {
                    p = 0;
                    o++;
                }
            }
        }
        /* Idle lanes of a short group re-solve the first system. */
        int same = 1, contiguous = n == lanes;
        for (ptrdiff_t l = 1; l < lanes; l++) {
            if (l >= n) {
                g.outer[l] = g.outer[0];
                g.pixel[l] = g.pixel[0];
            }
            same &= g.outer[l] == g.outer[0];
            contiguous &= g.pixel[l] == g.pixel[0] + l;
        }
        g.mode = !same ? MIXED : contiguous ? CONTIGUOUS : SAME_OUTER;
        if (same && g.outer[0] != planes_at) {
            planes_at = g.outer[0];
            for (int k = 0; k < N_FIELDS; k++)
                g.field[k] = base[k] + planes_at * outer_stride[k];
        }
        group(&g, ridge, n, theta + s * N_PARAMS, error + s, singular + s);
    }
    return 0;
}

/* The hypothesis-varying per-pixel normal-equation fields of
 * repro.kernels.reference.pointwise_fields, written channels-first.
 *
 * Inputs are the before-motion planes p, q, e, g (hw doubles each) and
 * n after-motion planes p', q' (n * hw doubles each).  Only columns 0
 * and 3 of the residual rows read p' or q', so an H entry whose columns
 * both avoid them depends on the before frame alone; the caller sums
 * those once per frame pair.  out receives, per hypothesis, the other
 * N_VARYING fields -- every H entry touching column 0 or 3, the
 * gradient and c, in packed order -- as planes of hw doubles.  Per
 * pixel the reference arithmetic is replayed term for term:
 *
 *   - residual rows a1 = (p', 0, q, p'-p, -1, 0), r1 = p'-p and
 *     a2 = (q'-q, p, 0, q', 0, -1), r2 = q'-q,
 *   - w1 = 1/(e*e), w2 = 1/(g*g), wa = w * a column by column (a -1
 *     column is a multiply by -1.0, not a negation), w1r1 = w1 * r1,
 *   - H entry (i, j) = wa1_i * a1_j + wa2_i * a2_j, dropping a row
 *     whose column i or j is a structural zero (none of the varying
 *     entries drops both); gradient k likewise from w1r1 * a1_k and
 *     w2r2 * a2_k; c = w1r1 * r1 + w2r2 * r2.
 *
 * The output planes sit hw doubles apart, so writing them from a
 * per-pixel loop touches 18 distant cache lines per pixel.  Instead a
 * tile of TILE pixels is staged column by column and every field is
 * written as one contiguous run of the tile.  Returns 0. */
enum { TILE = 128, N_VARYING = 18 };

static int a1_zero(int k) { return k == 1 || k == 5; }
static int a2_zero(int k) { return k == 2 || k == 4; }
static int reads_after(int k) { return k == 0 || k == 3; }

/* Writes the packed indices of the fields pointwise_planes emits, in
 * emission order, to fields (N_FIELDS long); returns their count.  The
 * loader checks them against repro.kernels.reference.VARYING_FIELDS
 * before it trusts the field build. */
int pointwise_varying_fields(ptrdiff_t *fields)
{
    ptrdiff_t count = 0, idx = 0;
    for (int i = 0; i < N_PARAMS; i++)
        for (int j = i; j < N_PARAMS; j++, idx++)
            if (reads_after(i) || reads_after(j))
                fields[count++] = idx;
    for (; idx < N_FIELDS; idx++)
        fields[count++] = idx;
    return (int)count;
}

int pointwise_planes(const double *p, const double *q, const double *e, const double *g,
                     const double *p_after, const double *q_after, ptrdiff_t n,
                     ptrdiff_t hw, double *out)
{
    double a1[N_PARAMS][TILE], a2[N_PARAMS][TILE];
    double wa1[N_PARAMS][TILE], wa2[N_PARAMS][TILE];
    double w1[TILE], w2[TILE], w1r1[TILE], w2r2[TILE];

    for (ptrdiff_t s = 0; s < hw; s += TILE) {
        ptrdiff_t len = hw - s < TILE ? hw - s : TILE;
        /* Columns shared by every hypothesis. */
        for (ptrdiff_t t = 0; t < len; t++) {
            double ee = e[s + t], gg = g[s + t];
            w1[t] = 1.0 / (ee * ee);
            w2[t] = 1.0 / (gg * gg);
            a1[2][t] = q[s + t];
            a1[4][t] = -1.0;
            a2[1][t] = p[s + t];
            a2[5][t] = -1.0;
            wa1[2][t] = w1[t] * a1[2][t];
            wa1[4][t] = w1[t] * a1[4][t];
            wa2[1][t] = w2[t] * a2[1][t];
            wa2[5][t] = w2[t] * a2[5][t];
        }
        for (ptrdiff_t h = 0; h < n; h++) {
            const double *pa = p_after + h * hw + s;
            const double *qa = q_after + h * hw + s;
            double *f = out + h * N_VARYING * hw + s;
            for (ptrdiff_t t = 0; t < len; t++) {
                double dp = pa[t] - p[s + t];
                double dq = qa[t] - q[s + t];
                a1[0][t] = pa[t];
                a1[3][t] = dp;
                a2[0][t] = dq;
                a2[3][t] = qa[t];
                wa1[0][t] = w1[t] * a1[0][t];
                wa1[3][t] = w1[t] * a1[3][t];
                wa2[0][t] = w2[t] * a2[0][t];
                wa2[3][t] = w2[t] * a2[3][t];
                w1r1[t] = w1[t] * dp;
                w2r2[t] = w2[t] * dq;
            }
            for (int i = 0; i < N_PARAMS; i++)
                for (int j = i; j < N_PARAMS; j++) {
                    if (!reads_after(i) && !reads_after(j))
                        continue;
                    int keep1 = !a1_zero(i) && !a1_zero(j);
                    int keep2 = !a2_zero(i) && !a2_zero(j);
                    if (keep1 && keep2)
                        for (ptrdiff_t t = 0; t < len; t++)
                            f[t] = wa1[i][t] * a1[j][t] + wa2[i][t] * a2[j][t];
                    else if (keep1)
                        for (ptrdiff_t t = 0; t < len; t++)
                            f[t] = wa1[i][t] * a1[j][t];
                    else
                        for (ptrdiff_t t = 0; t < len; t++)
                            f[t] = wa2[i][t] * a2[j][t];
                    f += hw;
                }
            for (int k = 0; k < N_PARAMS; k++, f += hw) {
                if (!a1_zero(k) && !a2_zero(k))
                    for (ptrdiff_t t = 0; t < len; t++)
                        f[t] = w1r1[t] * a1[k][t] + w2r2[t] * a2[k][t];
                else if (!a1_zero(k))
                    for (ptrdiff_t t = 0; t < len; t++)
                        f[t] = w1r1[t] * a1[k][t];
                else
                    for (ptrdiff_t t = 0; t < len; t++)
                        f[t] = w2r2[t] * a2[k][t];
            }
            for (ptrdiff_t t = 0; t < len; t++)
                f[t] = w1r1[t] * a1[3][t] + w2r2[t] * a2[0][t];
        }
    }
    return 0;
}

/* Template box sums of repro.kernels.reference.box_sum_planes, on
 * channels-first planes.
 *
 * Replays SciPy's uniform_filter(..., mode="constant", cval=0.0) on
 * each of `planes` h-by-w planes: one uniform_filter1d per axis with a
 * window longer than 1, rows (the h axis) first, then columns on the
 * first pass's output, then the product with side_y * side_x.  Each
 * 1-d pass zero-extends the line by side/2 entries before and
 * side - side/2 - 1 after and keeps a RAW running sum over it:
 *
 *   t = 0.0 + ext[0] + ... + ext[side-1]     (left to right)
 *   out[0] = t / side
 *   t += ext[l + side - 1] - ext[l - 1];  out[l] = t / side
 *
 * The division stays outside the add chain, so it vectorizes.  The
 * rows pass runs the w independent columns side by side; the columns
 * pass runs ROWS lines side by side, each from its own zero-extended
 * copy.  Windows longer than the line need no special case: the
 * zero extension covers them.  Returns 0, or -1 when scratch memory
 * cannot be allocated. */
enum { ROWS = 4 };

/* Raw running sums of one zero-extended line (ext, w + side - 1 long)
 * into o (w long), undivided. */
static void running_sums1(const double *restrict ext, double *restrict o, ptrdiff_t w,
                          ptrdiff_t side)
{
    double t = 0.0;
    for (ptrdiff_t l = 0; l < side; l++)
        t += ext[l];
    o[0] = t;
    for (ptrdiff_t x = 1; x < w; x++) {
        t += ext[x + side - 1] - ext[x - 1];
        o[x] = t;
    }
}

/* running_sums1 on ROWS lines at once (ext_w and o_w apart), so the
 * four dependency chains overlap. */
static void running_sums4(const double *restrict ext, ptrdiff_t ext_w, double *restrict o,
                          ptrdiff_t o_w, ptrdiff_t w, ptrdiff_t side)
{
    const double *e0 = ext, *e1 = ext + ext_w, *e2 = ext + 2 * ext_w, *e3 = ext + 3 * ext_w;
    double *o0 = o, *o1 = o + o_w, *o2 = o + 2 * o_w, *o3 = o + 3 * o_w;
    double t0 = 0.0, t1 = 0.0, t2 = 0.0, t3 = 0.0;
    for (ptrdiff_t l = 0; l < side; l++) {
        t0 += e0[l];
        t1 += e1[l];
        t2 += e2[l];
        t3 += e3[l];
    }
    o0[0] = t0;
    o1[0] = t1;
    o2[0] = t2;
    o3[0] = t3;
    for (ptrdiff_t x = 1; x < w; x++) {
        ptrdiff_t hi = x + side - 1, lo = x - 1;
        t0 += e0[hi] - e0[lo];
        t1 += e1[hi] - e1[lo];
        t2 += e2[hi] - e2[lo];
        t3 += e3[hi] - e3[lo];
        o0[x] = t0;
        o1[x] = t1;
        o2[x] = t2;
        o3[x] = t3;
    }
}

int box_sum_planes(const double *in, double *out, ptrdiff_t planes, ptrdiff_t h,
                   ptrdiff_t w, ptrdiff_t side_y, ptrdiff_t side_x)
{
    const double scale = (double)(side_y * side_x);
    const double dy = (double)side_y, dx = (double)side_x;
    ptrdiff_t ext_w = w + side_x - 1;
    double *zeros = calloc((size_t)w + 1, sizeof(double));
    double *t = malloc(((size_t)w + 1) * sizeof(double));
    double *ext = calloc((size_t)(ROWS * ext_w), sizeof(double));
    if (!zeros || !t || !ext) {
        free(zeros);
        free(t);
        free(ext);
        return -1;
    }
    const ptrdiff_t lead_y = side_y / 2, lead_x = side_x / 2;
    for (ptrdiff_t pl = 0; pl < planes; pl++) {
        const double *src = in + pl * h * w;
        double *dst = out + pl * h * w;
        if (side_y > 1) {
            /* Extended row r is image row r - lead_y, or zeros. */
#define EXT_ROW(r) (((r) - lead_y >= 0 && (r) - lead_y < h) ? src + ((r) - lead_y) * w : zeros)
            for (ptrdiff_t x = 0; x < w; x++)
                t[x] = 0.0;
            for (ptrdiff_t r = 0; r < side_y; r++) {
                const double *row = EXT_ROW(r);
                for (ptrdiff_t x = 0; x < w; x++)
                    t[x] += row[x];
            }
            for (ptrdiff_t y = 0; y < h; y++) {
                if (y > 0) {
                    const double *hi = EXT_ROW(y + side_y - 1);
                    const double *lo = EXT_ROW(y - 1);
                    for (ptrdiff_t x = 0; x < w; x++)
                        t[x] += hi[x] - lo[x];
                }
                double *o = dst + y * w;
                if (side_x > 1)
                    for (ptrdiff_t x = 0; x < w; x++)
                        o[x] = t[x] / dy;
                else
                    for (ptrdiff_t x = 0; x < w; x++)
                        o[x] = t[x] / dy * scale;
            }
#undef EXT_ROW
            src = dst;
        }
        if (side_x > 1) {
            for (ptrdiff_t y0 = 0; y0 < h; y0 += ROWS) {
                ptrdiff_t rows = h - y0 < ROWS ? h - y0 : ROWS;
                for (ptrdiff_t r = 0; r < rows; r++)
                    memcpy(ext + r * ext_w + lead_x, src + (y0 + r) * w,
                           (size_t)w * sizeof(double));
                if (rows == ROWS)
                    running_sums4(ext, ext_w, dst + y0 * w, w, w, side_x);
                else
                    for (ptrdiff_t r = 0; r < rows; r++)
                        running_sums1(ext + r * ext_w, dst + (y0 + r) * w, w, side_x);
                for (ptrdiff_t x = 0; x < rows * w; x++)
                    dst[y0 * w + x] = dst[y0 * w + x] / dx * scale;
            }
        } else if (side_y == 1) {
            memcpy(dst, src, (size_t)(h * w) * sizeof(double));
        }
    }
    free(zeros);
    free(t);
    free(ext);
    return 0;
}

#else /* LANES */

/* The lane-parallel template solve: solve_one on LANES systems at once.
 *
 * Every lane follows the same elimination schedule on its own system --
 * the MasPar's SIMD-lockstep PEs -- so each data-dependent branch of
 * solve_system becomes a per-lane mask and a blend, and every lane
 * replays the scalar arithmetic operation for operation:
 *
 *   - pivot: first maximum of |column k| with NaN maximal, as
 *       take = !best_nan & (v > best | isnan(v))
 *     blending best, its row index and best_nan on take;
 *   - row swap: rows k and r trade columns >= k in the lanes whose
 *     pivot row is r (columns < k are never read again);
 *   - factors: a[i][k] / safe first, then +0.0 blended in where the
 *     pivot is bad (|pivot| < SINGULAR_TOLERANCE, false for NaN);
 *   - row updates: columns > k only.  Every entry at or left of the
 *     pivot column is dead after step k: later pivots, factors and
 *     updates read columns > k, and back substitution reads each
 *     pivot and the entries right of it, none of which the skipped
 *     updates would have written;
 *   - back substitution and the error dot in np.einsum's two-lane
 *     order (both contractions are shorter than 8: even terms into
 *     lane 0, odd terms into lane 1, from +0.0, one combining add);
 *   - singular zeroing and the clamp as blends.
 *
 * A contiguous group loads each field as one vector; any other group
 * loads lane by lane, from one field pointer when its lanes share an
 * outer index.  All 28 fields are loaded up front behind one branch on
 * the group's mode: a branch per field load cost about a tenth of the
 * solve.  Compiled for LANE_TARGET only, and called only when the CPU
 * supports it. */

#define LANE_CAT_(name, w) name##w
#define LANE_CAT(name, w) LANE_CAT_(name, w)
#define vd LANE_CAT(vd, LANES)
#define vm LANE_CAT(vm, LANES)
#define LANE_FN static inline __attribute__((target(LANE_TARGET), always_inline))

typedef double vd __attribute__((vector_size(LANES * sizeof(double))));
typedef long long vm __attribute__((vector_size(LANES * sizeof(double))));

/* Lanes of a where m is set, of b elsewhere (m lanes are 0 or -1). */
#define BLEND(m, a, b) ((vd)(((vm)(a) & (m)) | ((vm)(b) & ~(m))))
#define VABS(v) ((vd)((vm)(v) & ~(vm)LANE_CAT(splat, LANES)(-0.0)))

LANE_FN vd LANE_CAT(splat, LANES)(double x)
{
    vd v;
    for (int l = 0; l < LANES; l++)
        v[l] = x;
    return v;
}

/* The 28 fields of a group's systems, one vector each. */
LANE_FN void LANE_CAT(load_fields, LANES)(const lane_group *g, vd *f)
{
    if (g->mode == CONTIGUOUS) {
        for (int k = 0; k < N_FIELDS; k++)
            memcpy(&f[k], field_at(g, k), sizeof f[k]);
    } else if (g->mode == SAME_OUTER) {
        for (int k = 0; k < N_FIELDS; k++)
            for (int l = 0; l < LANES; l++)
                f[k][l] = g->field[k][g->pixel[l]];
    } else {
        for (int k = 0; k < N_FIELDS; k++)
            for (int l = 0; l < LANES; l++)
                f[k][l] = g->base[k][g->outer[l] * g->outer_stride[k] + g->pixel[l]];
    }
}

#define SPLAT LANE_CAT(splat, LANES)

static __attribute__((target(LANE_TARGET))) void
LANE_CAT(solve_group, LANES)(const lane_group *g, double ridge, ptrdiff_t n, double *theta,
                             double *error, unsigned char *singular)
{
    enum { N = N_PARAMS };
    const vd zero = SPLAT(0.0), one = SPLAT(1.0), tol = SPLAT(SINGULAR_TOLERANCE);
    const vm none = (vm)(zero != zero); /* every lane false */
    vd a[N][N], b[N], grad[N], x[N], f[N_FIELDS];
    LANE_CAT(load_fields, LANES)(g, f);
    for (int i = 0, idx = 0; i < N; i++)
        for (int j = i; j < N; j++, idx++)
            a[i][j] = a[j][i] = f[idx];
    if (ridge != 0.0) {
        const vd diag = SPLAT(ridge * 1.0), offd = SPLAT(ridge * 0.0);
        for (int i = 0; i < N; i++)
            for (int j = 0; j < N; j++)
                a[i][j] = a[i][j] + (i == j ? diag : offd);
    }
    for (int k = 0; k < N; k++) {
        grad[k] = f[N_TRIU + k];
        b[k] = -grad[k];
    }
    const vd c = f[N_TRIU + N];

    /* Both sweeps are unrolled in full so that every a[i][j] is a
     * fixed register or spill slot, not an indexed stack array. */
    vm sing = none;
#pragma GCC unroll 6
    for (int k = 0; k < N; k++) {
        vd best = VABS(a[k][k]);
        vm best_nan = (vm)(best != best);
        vm index = none + k;
        for (int i = k + 1; i < N; i++) {
            vd v = VABS(a[i][k]);
            vm v_nan = (vm)(v != v);
            vm take = ~best_nan & ((vm)(v > best) | v_nan);
            best = BLEND(take, v, best);
            index = (take & i) | (~take & index);
            best_nan = (take & v_nan) | (~take & best_nan);
        }
        for (int r = k + 1; r < N; r++) {
            vm m = (vm)(index == r);
            for (int j = k; j < N; j++) {
                vd t = a[k][j];
                a[k][j] = BLEND(m, a[r][j], t);
                a[r][j] = BLEND(m, t, a[r][j]);
            }
            vd t = b[k];
            b[k] = BLEND(m, b[r], t);
            b[r] = BLEND(m, t, b[r]);
        }
        vd pivot = a[k][k];
        vm bad = (vm)(VABS(pivot) < tol);
        sing |= bad;
        vd safe = BLEND(bad, one, pivot);
        for (int i = k + 1; i < N; i++) {
            vd factor = a[i][k] / safe;
            factor = BLEND(bad, zero, factor);
            for (int j = k + 1; j < N; j++)
                a[i][j] -= factor * a[k][j];
            b[i] -= factor * b[k];
        }
    }

#pragma GCC unroll 6
    for (int k = N - 1; k >= 0; k--) {
        vd lane0 = zero, lane1 = zero;
        for (int j = k + 1; j < N; j += 2) {
            lane0 += a[k][j] * x[j];
            if (j + 1 < N)
                lane1 += a[k][j + 1] * x[j + 1];
        }
        vd pivot = a[k][k];
        vd safe = BLEND((vm)(VABS(pivot) < tol), one, pivot);
        x[k] = (b[k] - (lane0 + lane1)) / safe;
    }
    vd lane0 = zero, lane1 = zero;
    for (int k = 0; k < N; k++) {
        x[k] = BLEND(sing, zero, x[k]);
        if (k % 2)
            lane1 += x[k] * grad[k];
        else
            lane0 += x[k] * grad[k];
    }
    vd e = c + (lane0 + lane1);
    e = BLEND((vm)(e < zero), zero, e);

    for (ptrdiff_t l = 0; l < n; l++) {
        for (int k = 0; k < N; k++)
            theta[l * N + k] = x[k][l];
        error[l] = e[l];
        singular[l] = (unsigned char)(sing[l] & 1);
    }
}

#undef SPLAT
#undef VABS
#undef BLEND
#undef LANE_FN
#undef vm
#undef vd

#endif /* LANES */
