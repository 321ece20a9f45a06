/* The extension module tdcoopt._kernels: the package's C kernels
 * (_kernels.h) as Python functions on numpy arrays, called with
 * METH_FASTCALL.
 *
 * Each function checks every argument before a kernel reads a byte: an
 * array of the wrong type or dtype is a TypeError, one of the wrong shape,
 * length, layout or writeability a ValueError, an index outside its range
 * an IndexError.  A feeder's tree and its place in its network are checked
 * once, when bind_feeder copies them into a Feeder, whose sweeps then check
 * only the call's own vectors, which span the whole network.
 * Only this file includes the CPython and numpy headers, so a build
 * parses them once.
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

/* a view of entries start to start + n of a, a float64 vector as
 * vector() checks it, that keeps a alive */
static PyArrayObject *span_view(PyArrayObject *a, intptr_t start, intptr_t n)
{
    npy_intp dims[1] = {n};
    PyArray_Descr *descr = PyArray_DescrFromType(NPY_DOUBLE);
    PyObject *view = PyArray_NewFromDescr(&PyArray_Type, descr, 1, dims, NULL,
                                          (double *)PyArray_DATA(a) + start,
                                          NPY_ARRAY_CARRAY, NULL);
    if (view == NULL)
        return NULL;
    Py_INCREF(a);
    if (PyArray_SetBaseObject((PyArrayObject *)view, (PyObject *)a) < 0) {
        Py_DECREF(view);
        return NULL;
    }
    return (PyArrayObject *)view;
}

/* ---------------------------------------------------------------------
 * _sweep.c: a feeder bound once, then swept
 * --------------------------------------------------------------------- */

/* A feeder's tree and base injections, copied and checked once by
 * bind_feeder, with the scratch of its sweeps: the summed injections
 * (2n), then tdcoopt_sweep's (5n).  The feeder's n nodes are entries
 * start to start + n of its network's n_network-entry vectors.  result
 * is the type a converged sweep returns, a tuple subclass of six entries
 * (acpf.SweepResult). */
typedef struct {
    PyObject_HEAD
    PyTypeObject *result;
    int n, n_roots;
    intptr_t start, n_network;
    double v0;
    int *order, *parent, *roots; /* one block: n, n, n_roots */
    double *r, *x, *p0, *q0, *work; /* one block: n each, then 7n */
} Feeder;

static void feeder_dealloc(Feeder *f)
{
    Py_DECREF(f->result);
    free(f->order);
    free(f->r);
    PyObject_Free(f);
}

/* 0 when order lists every node once, each after its parent; else -1
 * with a ValueError.  order and parent hold n indices in range. */
static int parents_first(const int *order, const int *parent, intptr_t n)
{
    char *placed = calloc((size_t)n + 1, 1);
    if (placed == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    int status = 0;
    for (intptr_t k = 0; k < n && status == 0; k++) {
        int j = order[k], pj = parent[j];
        if (placed[j]) {
            PyErr_Format(PyExc_ValueError, "order[%zd] = %d repeats a node",
                         (Py_ssize_t)k, j);
            status = -1;
        } else if (pj >= 0 && !placed[pj]) {
            PyErr_Format(PyExc_ValueError, "order[%zd] = %d comes before its parent %d",
                         (Py_ssize_t)k, j, pj);
            status = -1;
        }
        placed[j] = 1;
    }
    free(placed);
    return status;
}

static PyTypeObject FeederType;

/* bind_feeder(result, order, parent, roots, r, x, p0, q0, v0, start,
 *             n_network) -> a Feeder
 *
 * The model's tree (parent -1 at the substation) and base injections,
 * copied: every index in range, and order each node once, after its
 * parent.  start and n_network place the feeder's n nodes in its
 * network: entries start to start + n, which must lie in [0, n_network),
 * of the vectors its sweeps take.  result: a tuple subclass with no
 * fields of its own, which converged sweeps then return. */
static PyObject *bind_feeder(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    if (nargs_are("bind_feeder", nargs, 11) < 0)
        return NULL;
    PyTypeObject *result = (PyTypeObject *)args[0];
    if (!PyType_Check(args[0]) || !PyType_FastSubclass(result, Py_TPFLAGS_TUPLE_SUBCLASS)
        || result->tp_basicsize != PyTuple_Type.tp_basicsize
        || result->tp_itemsize != PyTuple_Type.tp_itemsize) {
        PyErr_SetString(PyExc_TypeError, "result must be a tuple subclass without fields");
        return NULL;
    }
    intptr_t n = -1, n_roots = -1, start, n_network;
    if (vector(args[1], NPY_INT, "order", &n, 0) == NULL)
        return NULL;
    if (n > INT_MAX / 8) {
        PyErr_SetString(PyExc_ValueError, "order: too many nodes");
        return NULL;
    }
    const int *order, *parent, *roots;
    const double *r, *x, *p0, *q0;
    double v0;
    if ((order = indices(args[1], NPY_INT, "order", &n, 0, n)) == NULL
        || (parent = indices(args[2], NPY_INT, "parent", &n, -1, n)) == NULL
        || (roots = indices(args[3], NPY_INT, "roots", &n_roots, 0, n)) == NULL
        || (r = vector(args[4], NPY_DOUBLE, "r", &n, 0)) == NULL
        || (x = vector(args[5], NPY_DOUBLE, "x", &n, 0)) == NULL
        || (p0 = vector(args[6], NPY_DOUBLE, "p0", &n, 0)) == NULL
        || (q0 = vector(args[7], NPY_DOUBLE, "q0", &n, 0)) == NULL
        || real(args[8], "v0", &v0) < 0
        || count(args[9], "start", -INT_MAX, INT_MAX, &start) < 0
        || count(args[10], "n_network", -INT_MAX, INT_MAX, &n_network) < 0)
        return NULL;
    if (n_roots > INT_MAX / 2) {
        PyErr_SetString(PyExc_ValueError, "roots: too many entries");
        return NULL;
    }
    if (parents_first(order, parent, n) < 0)
        return NULL;
    if (start < 0 || start > n_network - n) {
        PyErr_Format(PyExc_ValueError,
                     "nodes %zd to %zd lie outside a network of %zd nodes",
                     (Py_ssize_t)start, (Py_ssize_t)(start + n), (Py_ssize_t)n_network);
        return NULL;
    }
    Feeder *f = PyObject_New(Feeder, &FeederType);
    if (f == NULL)
        return NULL;
    f->result = result;
    Py_INCREF(result);
    f->n = (int)n;
    f->n_roots = (int)n_roots;
    f->start = start;
    f->n_network = n_network;
    f->v0 = v0;
    f->order = malloc((2 * (size_t)n + (size_t)n_roots + 1) * sizeof(int));
    f->r = calloc(11 * (size_t)n + 1, sizeof(double));
    if (f->order == NULL || f->r == NULL) {
        Py_DECREF(f);
        return PyErr_NoMemory();
    }
    f->parent = f->order + n;
    f->roots = f->parent + n;
    f->x = f->r + n;
    f->p0 = f->x + n;
    f->q0 = f->p0 + n;
    f->work = f->q0 + n;
    memcpy(f->order, order, (size_t)n * sizeof(int));
    memcpy(f->parent, parent, (size_t)n * sizeof(int));
    memcpy(f->roots, roots, (size_t)n_roots * sizeof(int));
    memcpy(f->r, r, (size_t)n * sizeof(double));
    memcpy(f->x, x, (size_t)n * sizeof(double));
    memcpy(f->p0, p0, (size_t)n * sizeof(double));
    memcpy(f->q0, q0, (size_t)n * sizeof(double));
    return (PyObject *)f;
}

/* Feeder.sweep(p, q, v_init, tol, max_iter, out)
 *
 * p, q and v_init (any 1-D sequences of n_network reals; v_init may be
 * None) and out (None, or a writeable float64 array of n_network entries,
 * as vector() checks it, that shares no memory with p, q or v_init) span
 * the feeder's network; the sweep reads and writes only the feeder's
 * entries of them, start to start + n.  The feeder's p and q are added to
 * p0 and q0, and the sweep starts from its entries of v_init, or flat at
 * v0 where that is None.  The start is copied into the voltages and swept
 * in place: the feeder's entries of out, or a new array of n entries
 * where out is None.  Returns (v, P_L, Q_L, loss, iterations, residual)
 * as the bound result type on convergence, v being those n voltages (out
 * itself when the feeder is its whole network, else a view of its
 * entries); (status, iterations, node, residual) on a collapse or when
 * the iterations run out, the voltages then holding the last pass;
 * raises ZeroDivisionError on a zero voltage, as the Python sweep does.
 * The scratch is the Feeder's: with order checked, every entry is written
 * before it is read in each pass. */
static PyObject *feeder_sweep(Feeder *f, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs_are("sweep", nargs, 6) < 0)
        return NULL;
    intptr_t n = f->n, n_network = f->n_network, start = f->start, max_iter;
    double tol;
    if (real(args[3], "tol", &tol) < 0
        || count(args[4], "max_iter", INT_MIN, INT_MAX, &max_iter) < 0)
        return NULL;

    /* the call's vectors, as float64 arrays of n_network entries */
    const char *names[3] = {"p", "q", "v_init"};
    PyArrayObject *given[3] = {NULL, NULL, NULL}, *v = NULL;
    PyObject *result = NULL;
    for (int i = 0; i < 3; i++) {
        if (i == 2 && args[2] == Py_None)
            break;
        PyArrayObject *a = (PyArrayObject *)args[i];
        if (PyArray_CheckExact(args[i]) && PyArray_TYPE(a) == NPY_DOUBLE
            && PyArray_ISCARRAY_RO(a)) {
            given[i] = a; /* what PyArray_FROMANY returns for it, sooner */
            Py_INCREF(a);
        } else {
            given[i] = (PyArrayObject *)PyArray_FROMANY(args[i], NPY_DOUBLE, 0, 0,
                                                        NPY_ARRAY_CARRAY_RO);
        }
        if (given[i] == NULL)
            goto exit;
        if (PyArray_NDIM(given[i]) != 1) {
            PyErr_Format(PyExc_ValueError, "%s must have 1 dimension(s)", names[i]);
            goto exit;
        }
        if (PyArray_DIM(given[i], 0) != n_network) {
            PyErr_Format(PyExc_ValueError, "%s must have length %zd", names[i],
                         (Py_ssize_t)n_network);
            goto exit;
        }
    }
    double *vs;
    if (args[5] == Py_None) {
        if ((v = new_vector(n, &vs)) == NULL)
            goto exit;
    } else {
        if ((vs = vector(args[5], NPY_DOUBLE, "out", &n_network, 1)) == NULL)
            goto exit;
        const char *lo = (const char *)vs, *hi = (const char *)(vs + n_network);
        for (int i = 0; i < 3; i++) {
            if (overlaps(args[i], lo, hi)) {
                PyErr_Format(PyExc_ValueError, "out overlaps %s", names[i]);
                goto exit;
            }
        }
        vs += start;
        if (n == n_network) {
            v = (PyArrayObject *)args[5];
            Py_INCREF(v);
        } else if ((v = span_view((PyArrayObject *)args[5], start, n)) == NULL) {
            goto exit;
        }
    }
    const double *p = (const double *)PyArray_DATA(given[0]) + start;
    const double *q = (const double *)PyArray_DATA(given[1]) + start;
    double *p_inj = f->work, *q_inj = f->work + n;
    for (intptr_t j = 0; j < n; j++) {
        p_inj[j] = f->p0[j] + p[j];
        q_inj[j] = f->q0[j] + q[j];
    }
    if (given[2] == NULL) {
        for (intptr_t j = 0; j < n; j++)
            vs[j] = f->v0;
    } else {
        memcpy(vs, (const double *)PyArray_DATA(given[2]) + start,
               (size_t)n * sizeof(double));
    }

    double out[4] = {0.0, 0.0, 0.0, 0.0};
    int info[2] = {0, -1};
    struct tdcoopt_sweep s = {
        f->order, f->parent, f->roots, f->r, f->x, p_inj, q_inj, vs, out,
        f->work + 2 * n, info, f->v0, tol, (int)n, f->n_roots, (int)max_iter,
    };
    int status = tdcoopt_sweep(&s);
    if (status == TDCOOPT_CONVERGED) {
        /* (v, P_L, Q_L, loss, iterations, residual), built as
         * tuple.__new__(result, ...) builds it */
        result = f->result->tp_alloc(f->result, 6);
        if (result != NULL) {
            Py_INCREF(v);
            PyTuple_SET_ITEM(result, 0, (PyObject *)v);
            PyTuple_SET_ITEM(result, 1, PyFloat_FromDouble(out[0]));
            PyTuple_SET_ITEM(result, 2, PyFloat_FromDouble(out[1]));
            PyTuple_SET_ITEM(result, 3, PyFloat_FromDouble(out[2]));
            PyTuple_SET_ITEM(result, 4, PyLong_FromLong(info[0]));
            PyTuple_SET_ITEM(result, 5, PyFloat_FromDouble(out[3]));
            for (int i = 1; i < 6 && result != NULL; i++) {
                if (PyTuple_GET_ITEM(result, i) == NULL)
                    Py_CLEAR(result); /* a tuple drops its NULL items */
            }
        }
    } else if (status == TDCOOPT_ZERO_VOLTAGE) {
        PyErr_SetString(PyExc_ZeroDivisionError, "float division by zero");
    } else {
        result = Py_BuildValue("(iiid)", status, info[0], info[1], out[3]);
    }
exit:
    Py_XDECREF(v);
    for (int i = 0; i < 3; i++)
        Py_XDECREF(given[i]);
    return result;
}

static PyMethodDef feeder_methods[] = {
    {"sweep", (PyCFunction)(void (*)(void))feeder_sweep, METH_FASTCALL,
     "sweep(p, q, v_init, tol, max_iter, out)"},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject FeederType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "tdcoopt._kernels.Feeder",
    .tp_basicsize = sizeof(Feeder),
    .tp_dealloc = (destructor)feeder_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "A feeder's tree and its place in its network, checked and copied "
              "once (bind_feeder), and the scratch of its sweeps.",
    .tp_methods = feeder_methods,
};

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

/* dual_step(mu, v, v_min, v_max, eps, eta, lam, P_L, P_M, P0_slack, fixed)
 *     -> (the new mu, a new array; the new lam; the balance residual)
 *
 * core.dual_update (tdcoopt_dual_step): the multipliers, the voltages
 * (mu has twice v's entries), the band, the step and the regularization,
 * then the price and what its residual reads, P_L and P_M of any length. */
static PyObject *dual_step(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    if (nargs_are("dual_step", nargs, 11) < 0)
        return NULL;
    struct tdcoopt_dual d;
    intptr_t m = -1;
    double *out, lam;
    d.n = d.n_feeders = d.n_generators = -1;
    if ((d.mu = vector(args[0], NPY_DOUBLE, "mu", &m, 0)) == NULL
        || (d.v = vector(args[1], NPY_DOUBLE, "v", &d.n, 0)) == NULL
        || real(args[2], "v_min", &d.v_min) < 0
        || real(args[3], "v_max", &d.v_max) < 0
        || real(args[4], "eps", &d.eps) < 0
        || real(args[5], "eta", &d.eta) < 0
        || real(args[6], "lam", &d.lam) < 0
        || (d.P_L = vector(args[7], NPY_DOUBLE, "P_L", &d.n_feeders, 0)) == NULL
        || (d.P_M = vector(args[8], NPY_DOUBLE, "P_M", &d.n_generators, 0)) == NULL
        || real(args[9], "P0_slack", &d.P0_slack) < 0
        || real(args[10], "fixed", &d.fixed) < 0)
        return NULL;
    if (m != 2 * d.n) {
        PyErr_Format(PyExc_ValueError, "mu has length %zd, not twice v's %zd",
                     (Py_ssize_t)m, (Py_ssize_t)d.n);
        return NULL;
    }
    PyArrayObject *mu = new_vector(m, &out);
    if (mu == NULL)
        return NULL;
    double residual = tdcoopt_dual_step(&d, out, &lam);
    return Py_BuildValue("(Ndd)", (PyObject *)mu, lam, residual);
}

/* flat_signals(mu, n_nodes, n_generators, lam_ders, lam, starts)
 *     -> (prices, w, active): core.der_signals' prices in a new array,
 *        but for the feeders listed in active (a tuple of their
 *        positions), whose products core.der_signals then writes from
 *        w = mu[:n_nodes] - mu[n_nodes:] (None when active is empty);
 *        None when mu is not a float64 array of 2 n_nodes entries, as
 *        array() checks it (der_signals' numpy code then runs).
 *        starts (intp) holds each feeder's first node: it must rise from
 *        0, and each feeder ends where the next starts, the last one at
 *        n_nodes. */
static PyObject *flat_signals(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    if (nargs_are("flat_signals", nargs, 6) < 0)
        return NULL;
    intptr_t n, n_generators, n_feeders = -1;
    double lam_ders, lam, *out;
    const intptr_t *starts;
    if (count(args[1], "n_nodes", 0, INTPTR_MAX / 4, &n) < 0
        || count(args[2], "n_generators", 0, INTPTR_MAX / 4, &n_generators) < 0
        || real(args[3], "lam_ders", &lam_ders) < 0 || real(args[4], "lam", &lam) < 0
        || (starts = vector(args[5], NPY_INTP, "starts", &n_feeders, 0)) == NULL)
        return NULL;
    int tiled = n_feeders == 0 ? n == 0 : starts[0] == 0;
    for (intptr_t k = 0; k < n_feeders && tiled; k++)
        tiled = starts[k] <= (k + 1 < n_feeders ? starts[k + 1] : n);
    if (!tiled) {
        PyErr_Format(PyExc_ValueError,
                     "starts must rise from 0 to at most n_nodes = %zd", (Py_ssize_t)n);
        return NULL;
    }
    PyArrayObject *mu = (PyArrayObject *)args[0];
    if (!PyArray_Check(args[0]) || PyArray_TYPE(mu) != NPY_DOUBLE
        || !PyArray_ISCARRAY_RO(mu) || PyArray_NDIM(mu) != 1
        || PyArray_DIM(mu, 0) != 2 * n)
        Py_RETURN_NONE;
    intptr_t *active = PyMem_Malloc(((size_t)n_feeders + 1) * sizeof(intptr_t));
    PyArrayObject *prices = new_vector(2 * n + n_generators, &out);
    PyObject *listed = NULL, *w = NULL, *result = NULL;
    if (active == NULL || prices == NULL) {
        if (active == NULL)
            PyErr_NoMemory();
        goto exit;
    }
    const double *m = PyArray_DATA(mu);
    intptr_t n_active = tdcoopt_flat_signals(n, m, n_feeders, starts, n_generators,
                                             lam_ders, lam, out, active);
    if ((listed = PyTuple_New(n_active)) == NULL)
        goto exit;
    for (intptr_t k = 0; k < n_active; k++) {
        PyObject *position = PyLong_FromSsize_t(active[k]);
        if (position == NULL)
            goto exit;
        PyTuple_SET_ITEM(listed, k, position);
    }
    if (n_active == 0) {
        w = Py_None;
        Py_INCREF(w);
    } else {
        double *ws;
        if ((w = (PyObject *)new_vector(n, &ws)) == NULL)
            goto exit;
        tdcoopt_band_difference(n, m, ws);
    }
    result = PyTuple_Pack(3, (PyObject *)prices, w, listed);
exit:
    PyMem_Free(active);
    Py_XDECREF(prices);
    Py_XDECREF(w);
    Py_XDECREF(listed);
    return result;
}

/* step_norms(z_new, z, mu_new, mu, lam_new, lam, eps)
 *     -> (step_primal, step_dual, state): core._step_norms */
static PyObject *step_norms(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    if (nargs_are("step_norms", nargs, 7) < 0)
        return NULL;
    intptr_t n = -1, m = -1;
    const double *z_new, *z, *mu_new, *mu;
    double lam_new, lam, eps, out[3];
    if ((z_new = vector(args[0], NPY_DOUBLE, "z_new", &n, 0)) == NULL
        || (z = vector(args[1], NPY_DOUBLE, "z", &n, 0)) == NULL
        || (mu_new = vector(args[2], NPY_DOUBLE, "mu_new", &m, 0)) == NULL
        || (mu = vector(args[3], NPY_DOUBLE, "mu", &m, 0)) == NULL
        || real(args[4], "lam_new", &lam_new) < 0
        || real(args[5], "lam", &lam) < 0
        || real(args[6], "eps", &eps) < 0)
        return NULL;
    tdcoopt_step_norms(n, z_new, z, m, mu_new, mu, lam_new, lam, eps, out);
    return Py_BuildValue("(ddd)", out[0], out[1], out[2]);
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
 * the market's round: _round.c's primal step, one agent at a time, and
 * the operator's filing of the reports
 * --------------------------------------------------------------------- */

/* the names file_reports reads off each report, interned at import */
static PyObject *str_iteration_tag, *str_sender, *str_payload;

/* whether obj is an exact int in [0, n), stored in *out; an int too large
 * for an intptr_t is not, and leaves no exception set */
static int exact_index(PyObject *obj, intptr_t n, intptr_t *out)
{
    if (!PyLong_CheckExact(obj))
        return 0;
    Py_ssize_t i = PyLong_AsSsize_t(obj);
    if (i == -1 && PyErr_Occurred()) {
        PyErr_Clear(); /* an OverflowError */
        return 0;
    }
    *out = i;
    return i >= 0 && i < n;
}

/* agent_step(coords, z, eps, coef, signals, lo, hi) -> a list of floats
 *
 * market.UserAgent.step and GeneratorAgent.step: tdcoopt_primal_step at
 * each coordinate of coords (a tuple of exact ints, each in [0, n)), in
 * order, of z and the round's other arrays (n entries each). */
static PyObject *agent_step(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    if (nargs_are("agent_step", nargs, 7) < 0)
        return NULL;
    intptr_t n = -1;
    const double *z, *coef, *signals, *lo, *hi;
    double eps;
    PyObject *coords = args[0];
    if (!PyTuple_Check(coords)) {
        PyErr_SetString(PyExc_TypeError, "coords must be a tuple");
        return NULL;
    }
    if ((z = vector(args[1], NPY_DOUBLE, "z", &n, 0)) == NULL
        || real(args[2], "eps", &eps) < 0
        || (coef = vector(args[3], NPY_DOUBLE, "coef", &n, 0)) == NULL
        || (signals = vector(args[4], NPY_DOUBLE, "signals", &n, 0)) == NULL
        || (lo = vector(args[5], NPY_DOUBLE, "lo", &n, 0)) == NULL
        || (hi = vector(args[6], NPY_DOUBLE, "hi", &n, 0)) == NULL)
        return NULL;
    Py_ssize_t m = PyTuple_GET_SIZE(coords);
    for (Py_ssize_t k = 0; k < m; k++) {
        PyObject *c = PyTuple_GET_ITEM(coords, k);
        intptr_t i;
        if (!PyLong_CheckExact(c)) {
            PyErr_Format(PyExc_TypeError, "coords[%zd] must be an int", k);
            return NULL;
        }
        if (!exact_index(c, n, &i)) {
            PyErr_Format(PyExc_IndexError, "coords[%zd] = %R is out of range [0, %zd)", k,
                         c, (Py_ssize_t)n);
            return NULL;
        }
    }
    PyObject *values = PyList_New(m);
    for (Py_ssize_t k = 0; values != NULL && k < m; k++) {
        intptr_t i = PyLong_AsSsize_t(PyTuple_GET_ITEM(coords, k));
        double value;
        tdcoopt_primal_step(1, z + i, eps, coef + i, signals + i, lo + i, hi + i, &value);
        PyObject *item = PyFloat_FromDouble(value);
        if (item == NULL)
            Py_CLEAR(values);
        else
            PyList_SET_ITEM(values, k, item);
    }
    return values;
}

/* one report of file_reports, filed into out: 1 when it is filed, 0 when
 * it is not one file_reports accepts, -1 with an exception set when
 * reading its attributes raised.  filled marks the positions (n_slots),
 * then the coordinates (n), already filled. */
static int file_one(PyObject *msg, intptr_t tag, PyObject *slots, intptr_t n_slots,
                    intptr_t n, char *filled, double *out)
{
    PyObject *stamp = NULL, *sender = NULL, *payload = NULL, *slot = NULL;
    int status = 0;
    intptr_t got, k;
    if ((stamp = PyObject_GetAttr(msg, str_iteration_tag)) == NULL
        || (sender = PyObject_GetAttr(msg, str_sender)) == NULL
        || (payload = PyObject_GetAttr(msg, str_payload)) == NULL) {
        status = -1;
        goto exit;
    }
    if (!exact_index(stamp, PY_SSIZE_T_MAX, &got) || got != tag
        || !PyUnicode_CheckExact(sender) || !PyList_CheckExact(payload))
        goto exit;
    /* held: looking a sender up may run the code of another key's __eq__ */
    slot = PyDict_GetItemWithError(slots, sender);
    Py_XINCREF(slot);
    if (slot == NULL) {
        status = PyErr_Occurred() ? -1 : 0;
        goto exit;
    }
    if (!PyTuple_CheckExact(slot) || PyTuple_GET_SIZE(slot) != 2
        || !exact_index(PyTuple_GET_ITEM(slot, 0), n_slots, &k) || filled[k])
        goto exit;
    PyObject *coords = PyTuple_GET_ITEM(slot, 1);
    if (!PyTuple_CheckExact(coords) || PyTuple_GET_SIZE(coords) != PyList_GET_SIZE(payload))
        goto exit;
    /* nothing below runs Python code, so the payload holds still */
    filled[k] = 1;
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(payload); i++) {
        PyObject *v = PyList_GET_ITEM(payload, i);
        intptr_t c;
        if (!exact_index(PyTuple_GET_ITEM(coords, i), n, &c) || filled[n_slots + c]
            || !PyFloat_CheckExact(v) || !isfinite(PyFloat_AS_DOUBLE(v)))
            goto exit;
        filled[n_slots + c] = 1;
        out[c] = PyFloat_AS_DOUBLE(v);
    }
    status = 1;
exit:
    Py_XDECREF(stamp);
    Py_XDECREF(sender);
    Py_XDECREF(payload);
    Py_XDECREF(slot);
    return status;
}

/* file_reports(reports, tag, slots, n) -> z, a new array of n entries;
 * or None
 *
 * market.operator_step's intake of a round it accepts: tag is an exact
 * int, at least 0, and reports (a list) holds one message for each entry
 * of slots (a dict: sender -> (position, coords)), each with tag as an
 * exact int, an exact str sender on slots whose position no other report
 * holds, and a payload that is an exact list of exact finite floats, one
 * per coordinate.  z holds each payload at its sender's coordinates and
 * 0.0 elsewhere.  None when the tag or a report is not so, or the slots
 * do not fit (a position outside [0, len(slots)), or coords not an exact
 * tuple of exact ints in [0, n), each held by one sender): the Python
 * intake then decides. */
static PyObject *file_reports(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    if (nargs_are("file_reports", nargs, 4) < 0)
        return NULL;
    PyObject *reports = args[0], *slots = args[2];
    intptr_t tag, n;
    if (!PyList_Check(reports)) {
        PyErr_SetString(PyExc_TypeError, "reports must be a list");
        return NULL;
    }
    if (!PyDict_Check(slots)) {
        PyErr_SetString(PyExc_TypeError, "slots must be a dict");
        return NULL;
    }
    if (count(args[3], "n", 0, PY_SSIZE_T_MAX / 8, &n) < 0)
        return NULL;
    intptr_t n_slots = PyDict_GET_SIZE(slots);
    if (!exact_index(args[1], PY_SSIZE_T_MAX, &tag) || PyList_GET_SIZE(reports) != n_slots)
        Py_RETURN_NONE;

    npy_intp dims[1] = {n};
    PyObject *z = PyArray_ZEROS(1, dims, NPY_DOUBLE, 0);
    char *filled = PyMem_Calloc((size_t)n_slots + (size_t)n + 1, 1);
    if (z == NULL || filled == NULL) {
        Py_XDECREF(z);
        PyMem_Free(filled);
        return filled == NULL ? PyErr_NoMemory() : NULL;
    }
    double *out = PyArray_DATA((PyArrayObject *)z);
    int status = 1;
    intptr_t filed = 0;
    /* reading a report's attributes may run code that changes the list:
     * each report is held while it is read, and the length read anew */
    for (Py_ssize_t j = 0; status == 1 && j < PyList_GET_SIZE(reports); j++) {
        PyObject *msg = PyList_GET_ITEM(reports, j);
        Py_INCREF(msg);
        status = file_one(msg, tag, slots, n_slots, n, filled, out);
        Py_DECREF(msg);
        filed++;
    }
    PyMem_Free(filled);
    /* each filed report holds a position of its own */
    if (status == 1 && filed == n_slots)
        return z;
    Py_DECREF(z);
    if (status < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* ---------------------------------------------------------------------
 * the module
 * --------------------------------------------------------------------- */

#define FASTCALL(name) (PyCFunction)(void (*)(void))name, METH_FASTCALL

static PyMethodDef methods[] = {
    {"bind_feeder", FASTCALL(bind_feeder),
     "bind_feeder(result, order, parent, roots, r, x, p0, q0, v0, start, n_network) "
     "-> a Feeder"},
    {"format_rows", FASTCALL(format_rows),
     "format_rows(iterations, cells, table, out) -> bytes written"},
    {"primal_step", FASTCALL(primal_step),
     "primal_step(z, eps, coef, signals, lo, hi) -> the new z"},
    {"dual_step", FASTCALL(dual_step),
     "dual_step(mu, v, v_min, v_max, eps, eta, lam, P_L, P_M, P0_slack, fixed) "
     "-> (mu, lam, residual)"},
    {"flat_signals", FASTCALL(flat_signals),
     "flat_signals(mu, n_nodes, n_generators, lam_ders, lam, starts) -> (prices, w, "
     "active), or None"},
    {"step_norms", FASTCALL(step_norms),
     "step_norms(z_new, z, mu_new, mu, lam_new, lam, eps) -> (step_primal, "
     "step_dual, state)"},
    {"record_row", FASTCALL(record_row),
     "record_row(row, layout, lam, z, n_nodes, coef, P_L, v, starts, signals, "
     "probes, residual, step_primal, step_dual)"},
    {"agent_step", FASTCALL(agent_step),
     "agent_step(coords, z, eps, coef, signals, lo, hi) -> the agent's new values"},
    {"file_reports", FASTCALL(file_reports),
     "file_reports(reports, tag, slots, n) -> the round's z, or None"},
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
    if (PyType_Ready(&FeederType) < 0)
        return NULL;
    if ((str_iteration_tag = PyUnicode_InternFromString("iteration_tag")) == NULL
        || (str_sender = PyUnicode_InternFromString("sender")) == NULL
        || (str_payload = PyUnicode_InternFromString("payload")) == NULL)
        return NULL;
    return PyModule_Create(&module);
}
