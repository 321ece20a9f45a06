/* Backward/forward sweep on one radial feeder, called from tdcoopt.acpf.
 *
 * A port of acpf._sweep_python, operation for operation: the same loop
 * orders, the same expressions evaluated left to right, sqrt and fabs,
 * and plain left-to-right sums.  Built without -ffast-math and with
 * -ffp-contract=off, so every result matches the Python sweep bit for bit.
 *
 * order/parent/roots, r/x: the feeder tree (parent -1 at the substation).
 * p_inj/q_inj: net nodal injections.  v: the starting voltages on entry,
 * the solution on success.  out: P_L, Q_L, loss, residual.  info: the
 * iteration count, then the collapsing node's position.  scratch: 5n
 * doubles, each written before it is read in every pass, since order
 * lists every node once, each after its parent.  Every index in order,
 * parent and roots must lie in [0, n) (parent: -1 too).  The extension
 * module (_kernels.c) checks the tree once, when it binds a feeder, and
 * the binding keeps the tree and the scratch for all its sweeps.  v may
 * be the feeder's entries of a longer vector, the voltages of its whole
 * network (Feeder.sweep there).  A NaN change makes the residual NaN for
 * good, so a sweep that meets a NaN never converges.
 */
#include <math.h>

#include "_kernels.h"

int tdcoopt_sweep(const struct tdcoopt_sweep *s)
{
    const int n = s->n, n_roots = s->n_roots, max_iter = s->max_iter;
    const int *order = s->order, *parent = s->parent, *roots = s->roots;
    const double *r = s->r, *x = s->x, *p_inj = s->p_inj, *q_inj = s->q_inj;
    double *v = s->v, *out = s->out;
    int *info = s->info;
    double *P_send = s->scratch, *Q_send = P_send + n, *ell = Q_send + n;
    double *P_recv = ell + n, *Q_recv = P_recv + n;
    double tol = s->tol, v0_sq = s->v0 * s->v0;
    double residual = INFINITY;
    int status = TDCOOPT_NOT_CONVERGED;

    for (int it = 1; it <= max_iter; it++) {
        info[0] = it;
        /* backward: receiving-end flows, then losses with current voltages */
        for (int j = 0; j < n; j++) {
            P_recv[j] = -p_inj[j];
            Q_recv[j] = -q_inj[j];
        }
        for (int k = n - 1; k >= 0; k--) {
            int j = order[k];
            double u_j = v[j] * v[j];
            if (u_j == 0.0) {
                status = TDCOOPT_ZERO_VOLTAGE;
                goto done;
            }
            double l_j = (P_recv[j] * P_recv[j] + Q_recv[j] * Q_recv[j]) / u_j;
            ell[j] = l_j;
            double ps = P_recv[j] + r[j] * l_j;
            double qs = Q_recv[j] + x[j] * l_j;
            P_send[j] = ps;
            Q_send[j] = qs;
            int pj = parent[j];
            if (pj >= 0) {
                P_recv[pj] += ps;
                Q_recv[pj] += qs;
            }
        }
        /* forward: squared-magnitude update from the substation */
        residual = 0.0;
        for (int k = 0; k < n; k++) {
            int j = order[k];
            int pj = parent[j];
            double u_up = pj < 0 ? v0_sq : v[pj] * v[pj];
            double u_j = u_up - 2.0 * (r[j] * P_send[j] + x[j] * Q_send[j])
                         + (r[j] * r[j] + x[j] * x[j]) * ell[j];
            if (u_j <= 0.0) {
                info[1] = j;
                status = TDCOOPT_COLLAPSE;
                goto done;
            }
            double v_new = sqrt(u_j);
            double change = fabs(v_new - v[j]);
            if (change > residual || isnan(change))
                residual = change;
            v[j] = v_new;
        }
        if (residual < tol) {
            double P_L = 0.0, Q_L = 0.0, loss = 0.0;
            for (int k = 0; k < n_roots; k++) {
                P_L += P_send[roots[k]];
                Q_L += Q_send[roots[k]];
            }
            for (int j = 0; j < n; j++)
                loss += r[j] * ell[j];
            out[0] = P_L;
            out[1] = Q_L;
            out[2] = loss;
            status = TDCOOPT_CONVERGED;
            break;
        }
    }
    if (status == TDCOOPT_NOT_CONVERGED)
        info[0] = max_iter;
done:
    out[3] = residual;
    return status;
}
