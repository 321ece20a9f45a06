/* The numerical kernels of tdcoopt, in plain C: _sweep.c (the feeder
 * sweep), _format.c (the trace formatter) and _round.c (the round's array
 * steps).  Each reads and writes only the buffers it is given, of the
 * sizes stated here.  _kernels.c, the extension module tdcoopt._kernels,
 * is the only caller: it checks every argument against these sizes and
 * ranges before it calls a kernel (a feeder's tree once, when it is
 * bound).
 */
#ifndef TDCOOPT_KERNELS_H
#define TDCOOPT_KERNELS_H

#include <stdint.h>

/* _sweep.c: the sweep's outcome, and its buffers (n nodes; see there) */
enum {
    TDCOOPT_CONVERGED, TDCOOPT_COLLAPSE, TDCOOPT_NOT_CONVERGED, TDCOOPT_ZERO_VOLTAGE,
};

struct tdcoopt_sweep {
    const int *order, *parent, *roots;  /* n, n, n_roots */
    const double *r, *x, *p_inj, *q_inj;  /* n each */
    double *v, *out, *scratch;  /* n, 4, 5n */
    int *info;  /* 2 */
    double v0, tol;
    int n, n_roots, max_iter;
};

int tdcoopt_sweep(const struct tdcoopt_sweep *s);

/* _format.c: rows lines of cols cells into out, which holds at least
 * rows * (22 + 25 cols) bytes; g holds 2 (TDCOOPT_K_MAX - TDCOOPT_K_MIN + 1)
 * entries */
#define TDCOOPT_K_MIN (-324)
#define TDCOOPT_K_MAX 292

long tdcoopt_format_rows(const int64_t *iterations, const double *cells,
                         long rows, long cols, const uint64_t *g, char *out);

/* _round.c: n entries in each array, but mu and its out (2n) and where
 * stated */
void tdcoopt_primal_step(intptr_t n, const double *z, double eps, const double *coef,
                         const double *signals, const double *lo, const double *hi,
                         double *out);
/* out 2n + n_generators, starts and active n_feeders each */
intptr_t tdcoopt_flat_signals(intptr_t n, const double *mu, intptr_t n_feeders,
                              const intptr_t *starts, intptr_t n_generators,
                              double lam_ders, double lam, double *out,
                              intptr_t *active);
void tdcoopt_band_difference(intptr_t n, const double *mu, double *w);
void tdcoopt_step_norms(intptr_t n, const double *z_new, const double *z, intptr_t m,
                        const double *mu_new, const double *mu, double lam_new,
                        double lam, double eps, double *out); /* z n, mu m, out 3 */

/* one dual step: the multipliers of n nodes, then the balance price */
struct tdcoopt_dual {
    intptr_t n, n_feeders, n_generators;
    const double *mu, *v, *P_L, *P_M; /* 2n, n, n_feeders, n_generators */
    double v_min, v_max, eps, eta, lam, P0_slack, fixed;
};

double tdcoopt_dual_step(const struct tdcoopt_dual *d, double *mu_out, double *lam_new);

/* where record_row puts each field of a row: the order of trace.Records.layout */
enum {
    TDCOOPT_AT_LAM, TDCOOPT_AT_P_M, TDCOOPT_AT_P_L, TDCOOPT_AT_V_MIN, TDCOOPT_AT_V_MAX,
    TDCOOPT_AT_ALPHA, TDCOOPT_AT_BETA, TDCOOPT_STRIDE, TDCOOPT_AT_SLACK,
    TDCOOPT_AT_COST, TDCOOPT_AT_STEP_PRIMAL, TDCOOPT_AT_STEP_DUAL, TDCOOPT_LAYOUT,
};

/* one round's trace row: its layout, then what goes in it */
struct tdcoopt_record {
    const intptr_t *layout;  /* TDCOOPT_LAYOUT entries */
    intptr_t n, n_nodes, n_feeders;
    double lam, residual, step_primal, step_dual;
    const double *z, *coef;  /* n each: z = [p, q, P_M], n_nodes in p and in q */
    const double *P_L;  /* n_feeders */
    const double *v;  /* n_nodes */
    const intptr_t *starts, *probes;  /* n_feeders each, in [0, n_nodes) */
    const double *signals;  /* at least 2 n_nodes */
};

void tdcoopt_record_row(const struct tdcoopt_record *r, double *row);

#endif
