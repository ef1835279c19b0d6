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
 * The Python wrapper cross-checks both entry points on import with
 * fingerprint batches and refuses the library on any mismatch.
 */

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
 * Reads outer * inner packed 28-field sums (21 upper-triangle entries of
 * the symmetric 6x6 H, 6 gradient entries, the constant c) in place:
 * system (o, p) starts at fields + o * outer_stride + p * pixel_stride
 * and its k-th field sits k * field_stride further on (strides in
 * doubles), so a channels-last view of channels-first box sums is read
 * without a copy.  Per system it replays the NumPy reference:
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
 * theta (m*6), error (m) and singular (m) are written contiguously in
 * (o, p) order.  Returns 0. */
int solve_packed(const double *fields, ptrdiff_t outer, ptrdiff_t outer_stride,
                 ptrdiff_t inner, ptrdiff_t pixel_stride, ptrdiff_t field_stride,
                 double ridge, double *theta, double *error, unsigned char *singular)
{
    enum { N = 6, N_TRIU = 21 };
    const double diag = ridge * 1.0;
    const double off = ridge * 0.0;
    for (ptrdiff_t o = 0; o < outer; o++) {
        for (ptrdiff_t p = 0; p < inner; p++) {
            const double *f = fields + o * outer_stride + p * pixel_stride;
            ptrdiff_t s = o * inner + p;
            double a[N * N], b[N], grad[N];
            ptrdiff_t idx = 0;
            for (ptrdiff_t i = 0; i < N; i++)
                for (ptrdiff_t j = i; j < N; j++, idx++) {
                    double v = f[idx * field_stride];
                    a[i * N + j] = v;
                    a[j * N + i] = v;
                }
            if (ridge != 0.0)
                for (ptrdiff_t i = 0; i < N; i++)
                    for (ptrdiff_t j = 0; j < N; j++)
                        a[i * N + j] = a[i * N + j] + (i == j ? diag : off);
            for (ptrdiff_t k = 0; k < N; k++) {
                grad[k] = f[(N_TRIU + k) * field_stride];
                b[k] = -grad[k];
            }
            double c = f[(N_TRIU + N) * field_stride];
            double *x = theta + s * N;
            singular[s] = solve_system(a, b, x, N);
            double e = c + einsum_dot(x, grad, N);
            error[s] = e < 0.0 ? 0.0 : e;
        }
    }
    return 0;
}

/* The per-pixel normal-equation fields of
 * repro.kernels.reference.pointwise_fields, written channels-first.
 *
 * Inputs are the before-motion planes p, q, e, g (hw doubles each) and
 * n after-motion planes p', q' (n * hw doubles each); out receives
 * n * 28 planes of hw doubles, hypothesis-major.  Per pixel the
 * reference arithmetic is replayed term for term:
 *
 *   - residual rows a1 = (p', 0, q, p'-p, -1, 0), r1 = p'-p and
 *     a2 = (q'-q, p, 0, q', 0, -1), r2 = q'-q,
 *   - w1 = 1/(e*e), w2 = 1/(g*g), wa = w * a column by column (a -1
 *     column is a multiply by -1.0, not a negation), w1r1 = w1 * r1,
 *   - H entry (i, j) = wa1_i * a1_j + wa2_i * a2_j, dropping a row
 *     whose column i or j is a structural zero, and +0.0 where both
 *     rows drop; gradient k likewise from w1r1 * a1_k and w2r2 * a2_k;
 *     c = w1r1 * r1 + w2r2 * r2.
 *
 * The 28 output planes sit hw doubles apart, so writing them from a
 * per-pixel loop touches 28 distant cache lines per pixel.  Instead a
 * tile of TILE pixels is staged column by column and every field is
 * written as one contiguous run of the tile.  Returns 0. */
enum { N_PARAMS = 6, N_FIELDS = 28, TILE = 128 };

static int a1_zero(int k) { return k == 1 || k == 5; }
static int a2_zero(int k) { return k == 2 || k == 4; }

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
            double *dst = out + h * N_FIELDS * hw + s;
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
            ptrdiff_t idx = 0;
            for (int i = 0; i < N_PARAMS; i++)
                for (int j = i; j < N_PARAMS; j++, idx++) {
                    int keep1 = !a1_zero(i) && !a1_zero(j);
                    int keep2 = !a2_zero(i) && !a2_zero(j);
                    double *f = dst + idx * hw;
                    if (keep1 && keep2)
                        for (ptrdiff_t t = 0; t < len; t++)
                            f[t] = wa1[i][t] * a1[j][t] + wa2[i][t] * a2[j][t];
                    else if (keep1)
                        for (ptrdiff_t t = 0; t < len; t++)
                            f[t] = wa1[i][t] * a1[j][t];
                    else if (keep2)
                        for (ptrdiff_t t = 0; t < len; t++)
                            f[t] = wa2[i][t] * a2[j][t];
                    else
                        for (ptrdiff_t t = 0; t < len; t++)
                            f[t] = 0.0;
                }
            for (int k = 0; k < N_PARAMS; k++, idx++) {
                double *f = dst + idx * hw;
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
            double *f = dst + idx * hw;
            for (ptrdiff_t t = 0; t < len; t++)
                f[t] = w1r1[t] * a1[3][t] + w2r2[t] * a2[0][t];
        }
    }
    return 0;
}

/* Template box sums of repro.kernels.reference.box_sum_stack, on
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
