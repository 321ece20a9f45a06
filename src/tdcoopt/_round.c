/* The array steps of one round, called from tdcoopt.core.
 *
 * Each function is a port of the numpy code it replaces in core.py, which
 * stays as the reference where no library can be built: the same
 * operations on each entry, in the same order, with numpy's rules for
 * NaN and for ties.
 *   np.clip(s, lo, hi) on float arrays: a NaN in any operand is the
 *     result, and a tie gives the bound (so a zero takes the bound's sign);
 *   np.maximum(t, 0.0): NaN passes, and a tie gives +0.0;
 *   np.maximum.reduce and np.minimum.reduce, and np.maximum(a, b) on two
 *     floats: a NaN is the result;
 *   np.add.reduce of a contiguous float64 array: 0.0 + numpy's pairwise
 *     sum (pairwise below).
 * Built with -ffp-contract=off, so no multiply and add are fused.
 */
#include <math.h>
#include <stddef.h>

#include "_kernels.h"

/* a > b ? a : b and a < b ? a : b, the selects the compiler makes without
 * a branch (one on the sign of a step is mispredicted as often as taken),
 * then the NaN rules, whose branches a run never takes */
static double clip(double s, double lo, double hi)
{
    double t = s > lo ? s : lo;
    t = isnan(s) ? s : t;
    double u = t < hi ? t : hi;
    return isnan(t) ? t : u;
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
static void tdcoopt_mu_step(intptr_t n, const double *mu, const double *v,
                            double v_min, double v_max, double eps, double eta,
                            double *out)
{
    for (intptr_t i = 0; i < n; i++) {
        double t = mu[i] + eps * ((v[i] - v_max) - eta * mu[i]);
        double u = t > 0.0 ? t : 0.0;
        out[i] = isnan(t) ? t : u;
    }
    for (intptr_t i = 0; i < n; i++) {
        double t = mu[n + i] + eps * ((v_min - v[i]) - eta * mu[n + i]);
        double u = t > 0.0 ? t : 0.0;
        out[n + i] = isnan(t) ? t : u;
    }
}

/* m, then d, reduced as np.maximum.reduce does: the first NaN sticks */
static double larger(double m, double d)
{
    return !isnan(m) && (d > m || isnan(d)) ? d : m;
}

/* np.maximum.reduce(np.abs(a - b)) (b NULL: of np.abs(a)); 0.0 when n is 0 */
static double tdcoopt_inf_norm(intptr_t n, const double *a, const double *b)
{
    double m = 0.0;
    for (intptr_t i = 0; i < n; i++)
        m = larger(m, fabs(b == NULL ? a[i] : a[i] - b[i]));
    return m;
}

/* core._der_prices without its products: feeder k holds nodes starts[k]
 * to starts[k + 1] (the last one to n) and w = mu[:n] - mu[n:].  Each
 * feeder whose w is all zero gets lam_ders + 0.0 against p and 0.0
 * against q in out (2n + n_generators); lam goes against P_M.  Every other
 * feeder, with a w entry nonzero or NaN as np.count_nonzero counts them,
 * is listed in active (n_feeders entries), its prices left unwritten.
 * Returns the number listed.  starts must rise from 0 to at most n. */
intptr_t tdcoopt_flat_signals(intptr_t n, const double *mu, intptr_t n_feeders,
                              const intptr_t *starts, intptr_t n_generators,
                              double lam_ders, double lam, double *out, intptr_t *active)
{
    double alpha = lam_ders + 0.0;
    intptr_t n_active = 0;
    for (intptr_t k = 0; k < n_feeders; k++) {
        intptr_t lo = starts[k], hi = k + 1 < n_feeders ? starts[k + 1] : n, i = lo;
        while (i < hi && mu[i] - mu[n + i] == 0.0)
            i++;
        if (i < hi) {
            active[n_active++] = k;
            continue;
        }
        for (i = lo; i < hi; i++) {
            out[i] = alpha;
            out[n + i] = 0.0;
        }
    }
    for (intptr_t i = 0; i < n_generators; i++)
        out[2 * n + i] = lam;
    return n_active;
}

/* w = mu[:n] - mu[n:], as numpy subtracts them */
void tdcoopt_band_difference(intptr_t n, const double *mu, double *w)
{
    for (intptr_t i = 0; i < n; i++)
        w[i] = mu[i] - mu[n + i];
}

/* core.solve's norms of a round, as its numpy reference
 * (core._step_norms) takes them: out[0] the primal step over eps, out[1]
 * the dual step over eps, out[2] the new state's norm; the two parts of
 * each of the last two are combined by larger(), so a NaN in either part
 * is the norm.  One pass over z (n entries) and one over mu (m).
 * No term is -0.0 (fabs), so without a NaN each largest term is the same
 * in any order: each pass keeps four running maxima per norm, merged at
 * the end, and sums its terms, which are NaN, +inf or at least +0.0, so
 * the sum is NaN exactly when a term is.  A NaN term sends each norm to
 * tdcoopt_inf_norm, which gives the first NaN. */
static double largest(double a, double b, double c, double d)
{
    a = b > a ? b : a;
    c = d > c ? d : c;
    return c > a ? c : a;
}

void tdcoopt_step_norms(intptr_t n, const double *z_new, const double *z, intptr_t m,
                        const double *mu_new, const double *mu, double lam_new,
                        double lam, double eps, double *out)
{
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0; /* the step of z */
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0; /* the size of z_new */
    double sum0 = 0.0, sum1 = 0.0;
    intptr_t i = 0;
    for (; i + 4 <= n; i += 4) {
        double d0 = fabs(z_new[i] - z[i]), d1 = fabs(z_new[i + 1] - z[i + 1]);
        double d2 = fabs(z_new[i + 2] - z[i + 2]), d3 = fabs(z_new[i + 3] - z[i + 3]);
        double b0 = fabs(z_new[i]), b1 = fabs(z_new[i + 1]);
        double b2 = fabs(z_new[i + 2]), b3 = fabs(z_new[i + 3]);
        sum0 += d0 + d1;
        sum1 += d2 + d3;
        s0 = d0 > s0 ? d0 : s0, s1 = d1 > s1 ? d1 : s1;
        s2 = d2 > s2 ? d2 : s2, s3 = d3 > s3 ? d3 : s3;
        a0 = b0 > a0 ? b0 : a0, a1 = b1 > a1 ? b1 : a1;
        a2 = b2 > a2 ? b2 : a2, a3 = b3 > a3 ? b3 : a3;
    }
    for (; i < n; i++) {
        double d = fabs(z_new[i] - z[i]), b = fabs(z_new[i]);
        sum0 += d;
        s0 = d > s0 ? d : s0;
        a0 = b > a0 ? b : a0;
    }
    double step_z = largest(s0, s1, s2, s3), size_z = largest(a0, a1, a2, a3);
    s0 = s1 = s2 = s3 = 0.0;
    for (i = 0; i + 4 <= m; i += 4) {
        double d0 = fabs(mu_new[i] - mu[i]), d1 = fabs(mu_new[i + 1] - mu[i + 1]);
        double d2 = fabs(mu_new[i + 2] - mu[i + 2]), d3 = fabs(mu_new[i + 3] - mu[i + 3]);
        sum0 += d0 + d1;
        sum1 += d2 + d3;
        s0 = d0 > s0 ? d0 : s0, s1 = d1 > s1 ? d1 : s1;
        s2 = d2 > s2 ? d2 : s2, s3 = d3 > s3 ? d3 : s3;
    }
    for (; i < m; i++) {
        double d = fabs(mu_new[i] - mu[i]);
        sum0 += d;
        s0 = d > s0 ? d : s0;
    }
    double step_mu = largest(s0, s1, s2, s3);
    if (isnan(sum0 + sum1)) {
        step_z = tdcoopt_inf_norm(n, z_new, z);
        size_z = tdcoopt_inf_norm(n, z_new, NULL);
        step_mu = tdcoopt_inf_norm(m, mu_new, mu);
    }
    double step_lam = fabs(lam_new - lam), size_lam = fabs(lam_new);
    out[0] = step_z / eps;
    out[1] = larger(step_lam, step_mu) / eps;
    out[2] = larger(size_z, size_lam);
}

/* numpy's pairwise sum of c_i z_i z_i (c NULL: of z_i), i < n, in its
 * order: a plain loop from 0.0 under 8 terms; up to 128, eight running
 * sums combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)),
 * then the rest one by one; above 128, the two halves, split at n/2
 * rounded down to a multiple of 8. */
static double term(const double *c, const double *z, intptr_t i)
{
    return c == NULL ? z[i] : c[i] * z[i] * z[i];
}

static double pairwise(const double *c, const double *z, intptr_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (intptr_t i = 0; i < n; i++)
            res += term(c, z, i);
        return res;
    }
    if (n <= 128) {
        double r[8];
        intptr_t i;
        for (int j = 0; j < 8; j++)
            r[j] = term(c, z, j);
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += term(c, z, i + j);
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += term(c, z, i);
        return res;
    }
    intptr_t half = n / 2;
    half -= half % 8;
    return pairwise(c, z, half)
           + pairwise(c == NULL ? NULL : c + half, z + half, n - half);
}

/* core.dual_update: mu's step (tdcoopt_mu_step) into mu_out, then lam's
 * along the balance residual, which it returns: P0_slack less the
 * implied slack output sum(P_L) - sum(P_M) - fixed (core._balance), each
 * sum as np.add.reduce takes it */
double tdcoopt_dual_step(const struct tdcoopt_dual *d, double *mu_out, double *lam_new)
{
    tdcoopt_mu_step(d->n, d->mu, d->v, d->v_min, d->v_max, d->eps, d->eta, mu_out);
    double implied = (0.0 + pairwise(NULL, d->P_L, d->n_feeders))
                     - (0.0 + pairwise(NULL, d->P_M, d->n_generators)) - d->fixed;
    double residual = d->P0_slack - implied;
    *lam_new = d->lam + d->eps * (residual - d->eta * d->lam);
    return residual;
}

/* core.total_cost over z = [p, q, P_M], 2 n_nodes <= n: the generators'
 * block, then p's, then q's, each summed as np.add.reduce sums it */
static double tdcoopt_total_cost(intptr_t n, intptr_t n_nodes, const double *coef,
                                 const double *z)
{
    double generators = 0.0 + pairwise(coef + 2 * n_nodes, z + 2 * n_nodes,
                                       n - 2 * n_nodes);
    double p = 0.0 + pairwise(coef, z, n_nodes);
    double q = 0.0 + pairwise(coef + n_nodes, z + n_nodes, n_nodes);
    return generators + p + q;
}

/* core.iteration_record's row.  Feeder k's v_min and v_max reduce v from
 * starts[k] as np.minimum.reduceat and np.maximum.reduceat do, then add
 * +0.0, so a zero extreme is +0.0 whichever signed zero the reduction
 * keeps; its alpha and beta are the prices of p and q at its probe.  The
 * layout holds lam, P_M's first cell, the first cell of each per-feeder
 * field (P_L, v_min, v_max, alpha, beta), the stride between feeders,
 * then slack_residual, total_cost and the two step norms. */
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
        row[at[TDCOOPT_AT_V_MIN] + cell] = lowest + 0.0;
        row[at[TDCOOPT_AT_V_MAX] + cell] = highest + 0.0;
        row[at[TDCOOPT_AT_ALPHA] + cell] = r->signals[probe];
        row[at[TDCOOPT_AT_BETA] + cell] = r->signals[n_nodes + probe];
    }
    row[at[TDCOOPT_AT_SLACK]] = r->residual;
    row[at[TDCOOPT_AT_COST]] = tdcoopt_total_cost(r->n, n_nodes, r->coef, r->z);
    row[at[TDCOOPT_AT_STEP_PRIMAL]] = r->step_primal;
    row[at[TDCOOPT_AT_STEP_DUAL]] = r->step_dual;
}
