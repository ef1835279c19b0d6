/* Batched partial-pivot Gaussian elimination -- native twin of
 * repro.core.linalg.gaussian_eliminate -- and the fused template solve
 * built on it, the native twin of repro.core.continuous.solve_accumulated.
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
