/* The extension module tdcoopt._kernels: the package's C kernels
 * (_kernels.h) as Python functions on numpy arrays, called with
 * METH_FASTCALL.
 *
 * Each function checks every argument before a kernel reads a byte: an
 * array of the wrong type or dtype is a TypeError, one of the wrong shape,
 * length, layout or writeability a ValueError, an index outside its range
 * an IndexError.  Only this file includes the CPython and numpy headers,
 * so a build parses them once.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>

#include <limits.h>
#include <stdlib.h>
#include <string.h>

#include "_kernels.h"

/* ---------------------------------------------------------------------
 * argument checks: NULL or -1 with an exception set when one fails
 * --------------------------------------------------------------------- */

static int nargs_are(const char *function, Py_ssize_t nargs, Py_ssize_t expected)
{
    if (nargs == expected)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)", function,
                 expected, nargs);
    return -1;
}

/* obj as an aligned, native-endian, C-contiguous array of dtype `type`
 * and `ndim` dimensions, named `name` in errors */
static PyArrayObject *array(PyObject *obj, int type, int ndim, const char *name,
                            int writeable)
{
    if (!PyArray_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "%s must be a numpy array", name);
        return NULL;
    }
    PyArrayObject *a = (PyArrayObject *)obj;
    if (PyArray_TYPE(a) != type || !PyArray_ISNOTSWAPPED(a)) {
        PyArray_Descr *want = PyArray_DescrFromType(type);
        PyErr_Format(PyExc_TypeError, "%s must have dtype %R", name, (PyObject *)want);
        Py_XDECREF(want);
        return NULL;
    }
    if (PyArray_NDIM(a) != ndim) {
        PyErr_Format(PyExc_ValueError, "%s must have %d dimension(s)", name, ndim);
        return NULL;
    }
    if (!PyArray_IS_C_CONTIGUOUS(a) || !PyArray_ISALIGNED(a)) {
        PyErr_Format(PyExc_ValueError, "%s must be C-contiguous and aligned", name);
        return NULL;
    }
    if (writeable && !PyArray_ISWRITEABLE(a)) {
        PyErr_Format(PyExc_ValueError, "%s must be writeable", name);
        return NULL;
    }
    return a;
}

/* the data of obj, a 1-D array as array() checks it, of *n entries (or of
 * any length when *n is -1, which is then stored there) */
static void *vector(PyObject *obj, int type, const char *name, intptr_t *n,
                    int writeable)
{
    PyArrayObject *a = array(obj, type, 1, name, writeable);
    if (a == NULL)
        return NULL;
    intptr_t length = PyArray_DIM(a, 0);
    if (*n >= 0 && length != *n) {
        PyErr_Format(PyExc_ValueError, "%s has length %zd, not %zd", name,
                     (Py_ssize_t)length, (Py_ssize_t)*n);
        return NULL;
    }
    *n = length;
    return PyArray_DATA(a);
}

/* a vector() of int32 (`type` NPY_INT) or intp entries, each in [lo, hi) */
static const void *indices(PyObject *obj, int type, const char *name, intptr_t *n,
                           intptr_t lo, intptr_t hi)
{
    const void *data = vector(obj, type, name, n, 0);
    if (data == NULL)
        return NULL;
    for (intptr_t k = 0; k < *n; k++) {
        intptr_t i = type == NPY_INT ? ((const int *)data)[k] : ((const intptr_t *)data)[k];
        if (i < lo || i >= hi) {
            PyErr_Format(PyExc_IndexError, "%s[%zd] = %zd is out of range [%zd, %zd)",
                         name, (Py_ssize_t)k, (Py_ssize_t)i, (Py_ssize_t)lo,
                         (Py_ssize_t)hi);
            return NULL;
        }
    }
    return data;
}

static int real(PyObject *obj, const char *name, double *out)
{
    *out = PyFloat_AsDouble(obj);
    if (*out == -1.0 && PyErr_Occurred()) {
        PyErr_Format(PyExc_TypeError, "%s must be a real number", name);
        return -1;
    }
    return 0;
}

static int count(PyObject *obj, const char *name, intptr_t lo, intptr_t hi,
                 intptr_t *out)
{
    Py_ssize_t value = PyLong_AsSsize_t(obj);
    if (value == -1 && PyErr_Occurred())
        return -1;
    if (value < lo || value > hi) {
        PyErr_Format(PyExc_ValueError, "%s = %zd is out of range [%zd, %zd]", name,
                     value, (Py_ssize_t)lo, (Py_ssize_t)hi);
        return -1;
    }
    *out = value;
    return 0;
}

/* whether obj is an array whose bytes, as np.may_share_memory bounds
 * them, meet [lo, hi) */
static int overlaps(PyObject *obj, const char *lo, const char *hi)
{
    if (lo == hi || !PyArray_Check(obj) || PyArray_SIZE((PyArrayObject *)obj) == 0)
        return 0;
    PyArrayObject *a = (PyArrayObject *)obj;
    const char *start = PyArray_BYTES(a), *end = start + PyArray_ITEMSIZE(a);
    for (int d = 0; d < PyArray_NDIM(a); d++) {
        npy_intp extent = (PyArray_DIM(a, d) - 1) * PyArray_STRIDE(a, d);
        if (extent < 0)
            start += extent;
        else
            end += extent;
    }
    return start < hi && lo < end;
}

/* a new float64 array of n entries */
static PyArrayObject *new_vector(intptr_t n, double **data)
{
    npy_intp dims[1] = {n};
    PyArrayObject *a = (PyArrayObject *)PyArray_SimpleNew(1, dims, NPY_DOUBLE);
    if (a != NULL)
        *data = PyArray_DATA(a);
    return a;
}

/* ---------------------------------------------------------------------
 * _sweep.c
 * --------------------------------------------------------------------- */

/* sweep(order, parent, roots, r, x, p0, q0, v0, p, q, v_init, tol, max_iter, out)
 *
 * The model's tree and base injections, then the call's: p and q (any
 * 1-D sequences of n reals) are added to p0 and q0, and the sweep starts
 * from v_init (one too), or flat at v0 where it is None.  The voltages go
 * into out: a new array where it is None, else a writeable float64 array of n
 * entries, as vector() checks it, that shares no memory with p, q or
 * v_init unless it is v_init.  The start is copied into out and swept in
 * place.  Returns (v, P_L, Q_L, loss, iterations, residual), v being out,
 * on convergence; (status, iterations, node, residual) on a collapse or
 * when the iterations run out, out then holding the last pass; raises
 * ZeroDivisionError on a zero voltage, as the Python sweep does.  The
 * scratch is allocated per call and zeroed, so no entry is read unwritten
 * whatever the tree. */
static PyObject *sweep(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    if (nargs_are("sweep", nargs, 14) < 0)
        return NULL;
    intptr_t n = -1, n_roots = -1;
    if (vector(args[0], NPY_INT, "order", &n, 0) == NULL)
        return NULL;
    if (n > INT_MAX / 8) {
        PyErr_SetString(PyExc_ValueError, "order: too many nodes");
        return NULL;
    }
    const int *order, *parent, *roots;
    const double *r, *x, *p0, *q0;
    double v0, tol;
    intptr_t max_iter;
    if ((order = indices(args[0], NPY_INT, "order", &n, 0, n)) == NULL
        || (parent = indices(args[1], NPY_INT, "parent", &n, -1, n)) == NULL
        || (roots = indices(args[2], NPY_INT, "roots", &n_roots, 0, n)) == NULL
        || (r = vector(args[3], NPY_DOUBLE, "r", &n, 0)) == NULL
        || (x = vector(args[4], NPY_DOUBLE, "x", &n, 0)) == NULL
        || (p0 = vector(args[5], NPY_DOUBLE, "p0", &n, 0)) == NULL
        || (q0 = vector(args[6], NPY_DOUBLE, "q0", &n, 0)) == NULL
        || real(args[7], "v0", &v0) < 0
        || real(args[11], "tol", &tol) < 0
        || count(args[12], "max_iter", INT_MIN, INT_MAX, &max_iter) < 0)
        return NULL;
    if (n_roots > INT_MAX) {
        PyErr_SetString(PyExc_ValueError, "roots: too many entries");
        return NULL;
    }

    /* the call's vectors, as float64 arrays of n entries */
    const char *names[3] = {"p", "q", "v_init"};
    PyArrayObject *given[3] = {NULL, NULL, NULL}, *v = NULL;
    double *work = NULL;
    PyObject *result = NULL;
    for (int i = 0; i < 3; i++) {
        if (i == 2 && args[10] == Py_None)
            break;
        given[i] = (PyArrayObject *)PyArray_FROMANY(args[8 + i], NPY_DOUBLE, 0, 0,
                                                    NPY_ARRAY_CARRAY_RO);
        if (given[i] == NULL)
            goto exit;
        if (PyArray_NDIM(given[i]) != 1) {
            PyErr_Format(PyExc_ValueError, "%s must have 1 dimension(s)", names[i]);
            goto exit;
        }
        if (PyArray_DIM(given[i], 0) != n) {
            PyErr_Format(PyExc_ValueError, "%s must have length %zd", names[i],
                         (Py_ssize_t)n);
            goto exit;
        }
    }
    double *vs;
    if (args[13] == Py_None) {
        if ((v = new_vector(n, &vs)) == NULL)
            goto exit;
    } else {
        if ((vs = vector(args[13], NPY_DOUBLE, "out", &n, 1)) == NULL)
            goto exit;
        const char *lo = (const char *)vs, *hi = (const char *)(vs + n);
        for (int i = 0; i < 3; i++) {
            if ((i < 2 || args[13] != args[10]) && overlaps(args[8 + i], lo, hi)) {
                PyErr_Format(PyExc_ValueError, "out overlaps %s", names[i]);
                goto exit;
            }
        }
        v = (PyArrayObject *)args[13];
        Py_INCREF(v);
    }
    /* the injections, then the scratch */
    if ((work = calloc(7 * (size_t)n + 1, sizeof(double))) == NULL) {
        PyErr_NoMemory();
        goto exit;
    }
    const double *p = PyArray_DATA(given[0]), *q = PyArray_DATA(given[1]);
    double *p_inj = work, *q_inj = work + n;
    for (intptr_t j = 0; j < n; j++) {
        p_inj[j] = p0[j] + p[j];
        q_inj[j] = q0[j] + q[j];
    }
    if (given[2] == NULL) {
        for (intptr_t j = 0; j < n; j++)
            vs[j] = v0;
    } else if (PyArray_DATA(given[2]) != vs) {
        memcpy(vs, PyArray_DATA(given[2]), (size_t)n * sizeof(double));
    }

    double out[4] = {0.0, 0.0, 0.0, 0.0};
    int info[2] = {0, -1};
    struct tdcoopt_sweep s = {
        order, parent, roots, r, x, p_inj, q_inj, vs, out, work + 2 * n, info,
        v0, tol, (int)n, (int)n_roots, (int)max_iter,
    };
    int status = tdcoopt_sweep(&s);
    if (status == TDCOOPT_CONVERGED)
        result = Py_BuildValue("(Odddid)", (PyObject *)v, out[0], out[1], out[2],
                               info[0], out[3]);
    else if (status == TDCOOPT_ZERO_VOLTAGE)
        PyErr_SetString(PyExc_ZeroDivisionError, "float division by zero");
    else
        result = Py_BuildValue("(iiid)", status, info[0], info[1], out[3]);
exit:
    free(work);
    Py_XDECREF(v);
    for (int i = 0; i < 3; i++)
        Py_XDECREF(given[i]);
    return result;
}

/* ---------------------------------------------------------------------
 * _format.c
 * --------------------------------------------------------------------- */

/* format_rows(iterations, cells, table, out) -> the bytes written
 *
 * iterations: int64, one per row; cells: float64, rows x cols, C order;
 * table: trace._schubfach_table(); out: uint8, at least rows (22 + 25
 * cols) bytes (trace._row_bytes per row). */
static PyObject *format_rows(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    if (nargs_are("format_rows", nargs, 4) < 0)
        return NULL;
    PyArrayObject *cells = array(args[1], NPY_DOUBLE, 2, "cells", 0);
    if (cells == NULL)
        return NULL;
    intptr_t rows = PyArray_DIM(cells, 0), cols = PyArray_DIM(cells, 1);
    intptr_t entries = 2 * (TDCOOPT_K_MAX - TDCOOPT_K_MIN + 1), size = -1;
    const int64_t *iterations;
    const uint64_t *g;
    char *out;
    if ((iterations = vector(args[0], NPY_INT64, "iterations", &rows, 0)) == NULL
        || (g = vector(args[2], NPY_UINT64, "table", &entries, 0)) == NULL
        || (out = vector(args[3], NPY_UINT8, "out", &size, 1)) == NULL)
        return NULL;
    if (rows > LONG_MAX || cols > LONG_MAX
        || (rows && cols > (INTPTR_MAX / rows - 22) / 25)
        || size < rows * (22 + 25 * cols)) {
        PyErr_SetString(PyExc_ValueError, "out cannot hold the longest such lines");
        return NULL;
    }
    long written = tdcoopt_format_rows(iterations, PyArray_DATA(cells), (long)rows,
                                       (long)cols, g, out);
    return PyLong_FromLong(written);
}

/* ---------------------------------------------------------------------
 * _round.c
 * --------------------------------------------------------------------- */

/* primal_step(z, eps, coef, signals, lo, hi) -> the new z, a new array */
static PyObject *primal_step(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    if (nargs_are("primal_step", nargs, 6) < 0)
        return NULL;
    intptr_t n = -1;
    const double *z, *coef, *signals, *lo, *hi;
    double eps, *out;
    if ((z = vector(args[0], NPY_DOUBLE, "z", &n, 0)) == NULL
        || real(args[1], "eps", &eps) < 0
        || (coef = vector(args[2], NPY_DOUBLE, "coef", &n, 0)) == NULL
        || (signals = vector(args[3], NPY_DOUBLE, "signals", &n, 0)) == NULL
        || (lo = vector(args[4], NPY_DOUBLE, "lo", &n, 0)) == NULL
        || (hi = vector(args[5], NPY_DOUBLE, "hi", &n, 0)) == NULL)
        return NULL;
    PyArrayObject *result = new_vector(n, &out);
    if (result != NULL)
        tdcoopt_primal_step(n, z, eps, coef, signals, lo, hi, out);
    return (PyObject *)result;
}

/* mu_step(mu, v, v_min, v_max, eps, eta) -> the new mu, a new array */
static PyObject *mu_step(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    if (nargs_are("mu_step", nargs, 6) < 0)
        return NULL;
    intptr_t n = -1, m = -1;
    const double *mu, *v;
    double v_min, v_max, eps, eta, *out;
    if ((mu = vector(args[0], NPY_DOUBLE, "mu", &m, 0)) == NULL
        || (v = vector(args[1], NPY_DOUBLE, "v", &n, 0)) == NULL
        || real(args[2], "v_min", &v_min) < 0
        || real(args[3], "v_max", &v_max) < 0
        || real(args[4], "eps", &eps) < 0
        || real(args[5], "eta", &eta) < 0)
        return NULL;
    if (m != 2 * n) {
        PyErr_Format(PyExc_ValueError, "mu has length %zd, not twice v's %zd",
                     (Py_ssize_t)m, (Py_ssize_t)n);
        return NULL;
    }
    PyArrayObject *result = new_vector(m, &out);
    if (result != NULL)
        tdcoopt_mu_step(n, mu, v, v_min, v_max, eps, eta, out);
    return (PyObject *)result;
}

/* inf_diff(a, b) -> float(np.maximum.reduce(np.abs(a - b))), 0.0 when empty */
static PyObject *inf_diff(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    if (nargs_are("inf_diff", nargs, 2) < 0)
        return NULL;
    intptr_t n = -1;
    const double *a, *b;
    if ((a = vector(args[0], NPY_DOUBLE, "a", &n, 0)) == NULL
        || (b = vector(args[1], NPY_DOUBLE, "b", &n, 0)) == NULL)
        return NULL;
    return PyFloat_FromDouble(tdcoopt_inf_norm(n, a, b));
}

/* inf_norm(a) -> float(np.maximum.reduce(np.abs(a))), 0.0 when empty */
static PyObject *inf_norm(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    if (nargs_are("inf_norm", nargs, 1) < 0)
        return NULL;
    intptr_t n = -1;
    const double *a = vector(args[0], NPY_DOUBLE, "a", &n, 0);
    if (a == NULL)
        return NULL;
    return PyFloat_FromDouble(tdcoopt_inf_norm(n, a, NULL));
}

/* total_cost(coef, z, n_nodes) -> core.total_cost's value */
static PyObject *total_cost(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    if (nargs_are("total_cost", nargs, 3) < 0)
        return NULL;
    intptr_t n = -1, n_nodes;
    const double *coef, *z;
    if ((coef = vector(args[0], NPY_DOUBLE, "coef", &n, 0)) == NULL
        || (z = vector(args[1], NPY_DOUBLE, "z", &n, 0)) == NULL
        || count(args[2], "n_nodes", 0, n / 2, &n_nodes) < 0)
        return NULL;
    return PyFloat_FromDouble(tdcoopt_total_cost(n, n_nodes, coef, z));
}

/* record_row(row, layout, lam, z, n_nodes, coef, P_L, v, starts, signals,
 *            probes, residual, step_primal, step_dual)
 *
 * Fills a trace row as core.iteration_record does (tdcoopt_record_row).
 * layout is trace.Records.layout; every cell it names must lie in the
 * row.  z = [p, q, P_M] with n_nodes entries in p and in q; coef spans z,
 * and the prices, signals, start with those of p and q.  v spans the
 * nodes; starts and probes (intp node positions), like P_L, hold one
 * entry per feeder. */
static PyObject *record_row(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    if (nargs_are("record_row", nargs, 14) < 0)
        return NULL;
    struct tdcoopt_record r;
    intptr_t width = -1, n_layout = TDCOOPT_LAYOUT, n_signals = -1;
    double *row;
    r.n = -1;
    r.n_feeders = -1;
    if ((row = vector(args[0], NPY_DOUBLE, "row", &width, 1)) == NULL
        || (r.layout = vector(args[1], NPY_INTP, "layout", &n_layout, 0)) == NULL
        || real(args[2], "lam", &r.lam) < 0
        || (r.z = vector(args[3], NPY_DOUBLE, "z", &r.n, 0)) == NULL
        || count(args[4], "n_nodes", 0, r.n / 2, &r.n_nodes) < 0
        || (r.coef = vector(args[5], NPY_DOUBLE, "coef", &r.n, 0)) == NULL
        || (r.P_L = vector(args[6], NPY_DOUBLE, "P_L", &r.n_feeders, 0)) == NULL
        || (r.v = vector(args[7], NPY_DOUBLE, "v", &r.n_nodes, 0)) == NULL
        || (r.starts = indices(args[8], NPY_INTP, "starts", &r.n_feeders, 0,
                               r.n_nodes)) == NULL
        || (r.signals = vector(args[9], NPY_DOUBLE, "signals", &n_signals, 0)) == NULL
        || (r.probes = indices(args[10], NPY_INTP, "probes", &r.n_feeders, 0,
                               r.n_nodes)) == NULL
        || real(args[11], "residual", &r.residual) < 0
        || real(args[12], "step_primal", &r.step_primal) < 0
        || real(args[13], "step_dual", &r.step_dual) < 0)
        return NULL;
    if (n_signals < 2 * r.n_nodes) {
        PyErr_Format(PyExc_ValueError, "signals has %zd entries, fewer than 2 n_nodes",
                     (Py_ssize_t)n_signals);
        return NULL;
    }
    /* every cell the layout names lies in the row */
    intptr_t per = r.layout[TDCOOPT_STRIDE];
    for (int f = 0; f < TDCOOPT_LAYOUT; f++) {
        intptr_t first = r.layout[f], cells = 1, stride = 1;
        if (f == TDCOOPT_STRIDE)
            continue;
        if (f == TDCOOPT_AT_P_M)
            cells = r.n - 2 * r.n_nodes;
        else if (f >= TDCOOPT_AT_P_L && f <= TDCOOPT_AT_BETA)
            cells = r.n_feeders, stride = per;
        if (cells == 0)
            continue;
        if (first < 0 || first >= width || stride < 0
            || (cells > 1 && stride > (width - 1 - first) / (cells - 1))) {
            PyErr_Format(PyExc_ValueError, "layout[%d] does not fit a row of %zd cells",
                         f, (Py_ssize_t)width);
            return NULL;
        }
    }
    tdcoopt_record_row(&r, row);
    Py_RETURN_NONE;
}

/* ---------------------------------------------------------------------
 * the module
 * --------------------------------------------------------------------- */

#define FASTCALL(name) (PyCFunction)(void (*)(void))name, METH_FASTCALL

static PyMethodDef methods[] = {
    {"sweep", FASTCALL(sweep),
     "sweep(order, parent, roots, r, x, p0, q0, v0, p, q, v_init, tol, max_iter, out)"},
    {"format_rows", FASTCALL(format_rows),
     "format_rows(iterations, cells, table, out) -> bytes written"},
    {"primal_step", FASTCALL(primal_step),
     "primal_step(z, eps, coef, signals, lo, hi) -> the new z"},
    {"mu_step", FASTCALL(mu_step), "mu_step(mu, v, v_min, v_max, eps, eta) -> the new mu"},
    {"inf_diff", FASTCALL(inf_diff), "inf_diff(a, b) -> max |a - b|, 0.0 when empty"},
    {"inf_norm", FASTCALL(inf_norm), "inf_norm(a) -> max |a|, 0.0 when empty"},
    {"total_cost", FASTCALL(total_cost), "total_cost(coef, z, n_nodes) -> sum of coef z z"},
    {"record_row", FASTCALL(record_row),
     "record_row(row, layout, lam, z, n_nodes, coef, P_L, v, starts, signals, "
     "probes, residual, step_primal, step_dual)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "tdcoopt._kernels",
    "The compiled kernels of tdcoopt (see tdcoopt._native).", -1, methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__kernels(void)
{
    import_array();
    return PyModule_Create(&module);
}
