/* Scalar subspace steps under a banded Hessian, one sampler batch at a time.
 *
 * Subspace i is scalar when it has one basis column on a contiguous
 * support [b, b + w).  A step sums g_i = v . g over the support left to
 * right, adds c v to x with c = alpha_i (-g_i / A_i), adds
 * c g_i + c^2 h_i / 2 to f, and adds c (H v) to g at the nonzero rows of
 * H v, carrying ||g||^2 and its rounding slack.  The arithmetic is
 * that of the loop in solvers.py, in the same order; build without
 * floating-point contraction (-ffp-contract=off) so that it rounds the
 * same way on every platform.
 */
#include <math.h>
#include <stdint.h>

typedef struct {
    const int64_t *start;    /* first support row of each subspace */
    const int64_t *offsets;  /* subspace i owns vals[offsets[i]:offsets[i + 1]] */
    const double *vals;
    const double *scalars;   /* A_i = v^T A v */
    const double *energies;  /* h_i = v^T H v */
    const int64_t *aoffsets; /* nonzeros of H v: rows and values */
    const int64_t *arows;
    const double *avals;
} Layout;

typedef struct {
    double *x, *g;
    const double *alpha;
    const uint8_t *scalar;   /* the steps this kernel takes */
    double *fs, *gns;        /* records of the state before each step */
    int64_t *chosen;
    double f, gn2, slack, thr2, tau;
    int64_t k, kmax, j;
} Run;

/* Take the steps of batch[0:m] in order from iteration R->k; stop before
 * an index that is not scalar or at kmax, and after a step that ends an
 * epoch or leaves the carried norm within its rounding band of the
 * threshold.  Returns the number of steps taken. */
int64_t scalar_steps(const Layout *L, Run *R, const int64_t *batch, int64_t m)
{
    double *x = R->x, *g = R->g;
    double f = R->f, gn2 = R->gn2, slack = R->slack;
    int64_t k = R->k, t = 0;
    while (t < m && k < R->kmax && R->scalar[batch[t]]) {
        int64_t i = batch[t], b = L->start[i];
        const double *v = L->vals + L->offsets[i];
        int64_t w = L->offsets[i + 1] - L->offsets[i];
        R->fs[k] = f;
        R->gns[k] = sqrt(gn2);
        R->chosen[k] = i;
        double gi = v[0] * g[b];
        for (int64_t s = 1; s < w; s++)
            gi += v[s] * g[b + s];
        double c = R->alpha[i] * (-gi / L->scalars[i]);
        for (int64_t s = 0; s < w; s++)
            x[b + s] += c * v[s];
        f += c * gi + 0.5 * c * c * L->energies[i];
        double s_old = 0.0, s_new = 0.0;
        for (int64_t p = L->aoffsets[i]; p < L->aoffsets[i + 1]; p++) {
            double old = g[L->arows[p]], new = old + c * L->avals[p];
            g[L->arows[p]] = new;
            s_old += old * old;
            s_new += new * new;
        }
        gn2 += s_new - s_old;
        slack += s_new + s_old;
        k++;
        t++;
        if (k % R->j == 0 || gn2 <= R->thr2 + R->tau * (slack + R->thr2))
            break;
    }
    R->f = f;
    R->gn2 = gn2;
    R->slack = slack;
    R->k = k;
    return t;
}
