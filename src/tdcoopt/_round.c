/* The array steps of one round, called from tdcoopt.core.
 *
 * Each function is a port of the numpy code it replaces in core.py, which
 * stays as the reference where no library can be built: the same
 * operations on each entry, in the same order, with numpy's rules for
 * NaN and for ties.
 *   np.clip(s, lo, hi) on float arrays: a NaN in any operand is the
 *     result, and a tie gives the bound (so a zero takes the bound's sign);
 *   np.maximum(t, 0.0): NaN passes, and a tie gives +0.0;
 *   np.maximum.reduce and np.minimum.reduce: a NaN is the result;
 *   np.add.reduce of a contiguous float64 array: 0.0 + numpy's pairwise
 *     sum (pairwise below).
 * Built with -ffp-contract=off, so no multiply and add are fused.
 */
#include <math.h>
#include <stddef.h>

#include "_kernels.h"

static double clip(double s, double lo, double hi)
{
    double t = s > lo || isnan(s) ? s : lo;
    return t < hi || isnan(t) ? t : hi;
}

/* np.clip(z - eps * (2.0 * coef * z + signals), lo, hi) */
void tdcoopt_primal_step(intptr_t n, const double *z, double eps, const double *coef,
                         const double *signals, const double *lo, const double *hi,
                         double *out)
{
    for (intptr_t i = 0; i < n; i++) {
        double grad = 2.0 * coef[i] * z[i] + signals[i];
        out[i] = clip(z[i] - eps * grad, lo[i], hi[i]);
    }
}

/* mu holds the upper-band multipliers of the n nodes of v, then the
 * lower-band ones: np.maximum(mu + eps * (g - eta * mu), 0.0) with
 * g = [v - v_max, v_min - v] */
void tdcoopt_mu_step(intptr_t n, const double *mu, const double *v, double v_min,
                     double v_max, double eps, double eta, double *out)
{
    for (intptr_t i = 0; i < 2 * n; i++) {
        double g = i < n ? v[i] - v_max : v_min - v[i - n];
        double t = mu[i] + eps * (g - eta * mu[i]);
        out[i] = t > 0.0 || isnan(t) ? t : 0.0;
    }
}

/* np.maximum.reduce(np.abs(a - b)) (b NULL: of np.abs(a)); 0.0 when n is 0 */
double tdcoopt_inf_norm(intptr_t n, const double *a, const double *b)
{
    double m = 0.0;
    for (intptr_t i = 0; i < n; i++) {
        double d = fabs(b == NULL ? a[i] : a[i] - b[i]);
        if (isnan(d))
            return d;
        if (d > m)
            m = d;
    }
    return m;
}

/* numpy's pairwise sum of c_i z_i z_i, i < n, in its order: a plain loop
 * from 0.0 under 8 terms; up to 128, eight running sums combined as
 * ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the rest one
 * by one; above 128, the two halves, split at n/2 rounded down to a
 * multiple of 8. */
static double pairwise(const double *c, const double *z, intptr_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (intptr_t i = 0; i < n; i++)
            res += c[i] * z[i] * z[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        intptr_t i;
        for (int j = 0; j < 8; j++)
            r[j] = c[j] * z[j] * z[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += c[i + j] * z[i + j] * z[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += c[i] * z[i] * z[i];
        return res;
    }
    intptr_t half = n / 2;
    half -= half % 8;
    return pairwise(c, z, half) + pairwise(c + half, z + half, n - half);
}

/* core.total_cost over z = [p, q, P_M], 2 n_nodes <= n: the generators'
 * block, then p's, then q's, each summed as np.add.reduce sums it */
double tdcoopt_total_cost(intptr_t n, intptr_t n_nodes, const double *coef,
                          const double *z)
{
    double generators = 0.0 + pairwise(coef + 2 * n_nodes, z + 2 * n_nodes,
                                       n - 2 * n_nodes);
    double p = 0.0 + pairwise(coef, z, n_nodes);
    double q = 0.0 + pairwise(coef + n_nodes, z + n_nodes, n_nodes);
    return generators + p + q;
}

/* core.iteration_record's row.  Feeder k's v_min and v_max reduce v from
 * starts[k] as np.minimum.reduceat and np.maximum.reduceat do; its alpha
 * and beta are the prices of p and q at its probe.  The layout holds lam,
 * P_M's first cell, the first cell of each per-feeder field (P_L, v_min,
 * v_max, alpha, beta), the stride between feeders, then slack_residual,
 * total_cost and the two step norms. */
void tdcoopt_record_row(const struct tdcoopt_record *r, double *row)
{
    const intptr_t *at = r->layout, n_nodes = r->n_nodes, per = at[TDCOOPT_STRIDE];
    const double *v = r->v;
    row[at[TDCOOPT_AT_LAM]] = r->lam;
    for (intptr_t i = 0; i < r->n - 2 * n_nodes; i++)
        row[at[TDCOOPT_AT_P_M] + i] = r->z[2 * n_nodes + i];
    for (intptr_t k = 0; k < r->n_feeders; k++) {
        intptr_t start = r->starts[k], stop = start + 1;
        if (k + 1 == r->n_feeders)
            stop = n_nodes;
        else if (r->starts[k + 1] > start)
            stop = r->starts[k + 1];
        double lowest = v[start], highest = v[start];
        for (intptr_t j = start + 1; j < stop; j++) {
            if (!isnan(lowest) && (v[j] < lowest || isnan(v[j])))
                lowest = v[j];
            if (!isnan(highest) && (v[j] > highest || isnan(v[j])))
                highest = v[j];
        }
        intptr_t cell = k * per, probe = r->probes[k];
        row[at[TDCOOPT_AT_P_L] + cell] = r->P_L[k];
        row[at[TDCOOPT_AT_V_MIN] + cell] = lowest;
        row[at[TDCOOPT_AT_V_MAX] + cell] = highest;
        row[at[TDCOOPT_AT_ALPHA] + cell] = r->signals[probe];
        row[at[TDCOOPT_AT_BETA] + cell] = r->signals[n_nodes + probe];
    }
    row[at[TDCOOPT_AT_SLACK]] = r->residual;
    row[at[TDCOOPT_AT_COST]] = tdcoopt_total_cost(r->n, n_nodes, r->coef, r->z);
    row[at[TDCOOPT_AT_STEP_PRIMAL]] = r->step_primal;
    row[at[TDCOOPT_AT_STEP_DUAL]] = r->step_dual;
}
