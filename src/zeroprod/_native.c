/* Compiled forms of three kernels of zeroprod.kernels, as the extension
 * module zeroprod._native.
 *
 * Each function runs the exact procedure of its pure counterpart, so
 * both backends return the same value for the same arguments:
 *   mc_zero_pairs(n, samples, seed) -- kernels._mc_zero_pairs_py
 *       (splitmix64, rejection, x before y, hit iff n | x*y);
 *   brent_rho(n, c, x0) -- kernels._brent_rho_py (polynomial y^2 + c,
 *       gcd batches of 128, the same backtrack), 0 when it degenerates;
 *   is_prime(n) -- kernels._is_prime_py (Miller-Rabin with the witnesses
 *       2, 3, ..., 37 and the same early exits), exact for every n.
 * Arguments must fit 64 bits (OverflowError otherwise), and n >= 1 for
 * the first two; kernels.py checks both before it calls.  Products are
 * formed in 128 bits, so no step wraps.  kernels.py builds this file
 * with gcc -O2 -shared -fPIC -I<Python include directory>.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

typedef unsigned __int128 u128;

static uint64_t splitmix64(uint64_t *state)
{
    uint64_t z = *state += 0x9E3779B97F4A7C15u;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9u;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBu;
    return z ^ (z >> 31);
}

/* The next accepted draw reduced mod n.  r is rejected iff 2**64 mod n
 * is nonzero and r >= 2**64 - (2**64 mod n); written as 0 - rem, that
 * limit cannot wrap to 0 when n is a power of two. */
static uint64_t draw(uint64_t *state, uint64_t n, uint64_t rem)
{
    uint64_t r;
    do
        r = splitmix64(state);
    while (rem != 0 && r >= 0 - rem);
    return r % n;
}

static uint64_t mc_hits(uint64_t n, uint64_t samples, uint64_t *state)
{
    uint64_t rem = (uint64_t)(((u128)1 << 64) % n), hits = 0;
    for (; samples; samples--) {
        uint64_t x = draw(state, n, rem);
        uint64_t y = draw(state, n, rem);
        hits += n >> 32 ? (u128)x * y % n == 0 : x * y % n == 0;
    }
    return hits;
}

static uint64_t gcd(uint64_t a, uint64_t b)
{
    while (b) {
        uint64_t t = a % b;
        a = b;
        b = t;
    }
    return a;
}

/* y^2 + c reduced in 128 bits: n may lie within c of 2**64. */
static uint64_t step(uint64_t y, uint64_t c, uint64_t n)
{
    return (uint64_t)(((u128)y * y + c) % n);
}

static uint64_t distance(uint64_t a, uint64_t b)
{
    return a > b ? a - b : b - a;
}

static uint64_t rho(uint64_t n, uint64_t c, uint64_t x0)
{
    uint64_t y = x0, x = x0, ys = x0, q = 1, g = 1;
    for (uint64_t r = 1; g == 1; r *= 2) {
        x = y;
        for (uint64_t i = 0; i < r; i++)
            y = step(y, c, n);
        for (uint64_t k = 0; k < r && g == 1; k += 128) {
            ys = y;
            for (uint64_t i = 0; i < 128 && i < r - k; i++) {
                y = step(y, c, n);
                q = (uint64_t)((u128)q * distance(x, y) % n);
            }
            g = gcd(q, n);
        }
    }
    if (g == n) {
        /* Backtrack one step at a time from the last checkpoint. */
        g = 1;
        for (y = ys; g == 1;) {
            y = step(y, c, n);
            g = gcd(distance(x, y), n);
        }
    }
    return g == n ? 0 : g;
}

static uint64_t mulmod(uint64_t a, uint64_t b, uint64_t n)
{
    return (uint64_t)((u128)a * b % n);
}

static uint64_t powmod(uint64_t a, uint64_t e, uint64_t n)
{
    uint64_t r = 1;
    for (; e; e >>= 1) {
        if (e & 1)
            r = mulmod(r, a, n);
        a = mulmod(a, a, n);
    }
    return r;
}

static const uint64_t witnesses[] = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37};

/* These witnesses decide every n < 2**64 exactly. */
static int miller_rabin(uint64_t n)
{
    if (n < 2)
        return 0;
    for (int i = 0; i < 12; i++) {
        if (n == witnesses[i])
            return 1;
        if (n % witnesses[i] == 0)
            return 0;
    }
    uint64_t d = n - 1;
    int r = 0;
    for (; d % 2 == 0; d /= 2)
        r++;
    for (int i = 0; i < 12; i++) {
        uint64_t x = powmod(witnesses[i], d, n);
        if (x == 1 || x == n - 1)
            continue;
        int j = 1;
        for (; j < r; j++) {
            x = mulmod(x, x, n);
            if (x == n - 1)
                break;
        }
        if (j == r)
            return 0;
    }
    return 1;
}

static int unpack(PyObject *const *args, Py_ssize_t nargs, uint64_t v[3])
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "expected 3 arguments");
        return -1;
    }
    for (int i = 0; i < 3; i++) {
        v[i] = PyLong_AsUnsignedLongLong(args[i]);
        if (v[i] == (uint64_t)-1 && PyErr_Occurred())
            return -1;
    }
    if (v[0] == 0) {
        PyErr_SetString(PyExc_ValueError, "n must be >= 1");
        return -1;
    }
    return 0;
}

/* Samples run in chunks without the GIL, and a signal such as Ctrl-C
 * ends the call between chunks. */
static PyObject *mc_zero_pairs(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    uint64_t v[3], hits = 0;
    if (unpack(args, nargs, v))
        return NULL;
    uint64_t n = v[0], samples = v[1], state = v[2];
    while (samples) {
        uint64_t chunk = samples < (1u << 22) ? samples : (1u << 22);
        Py_BEGIN_ALLOW_THREADS
        hits += mc_hits(n, chunk, &state);
        Py_END_ALLOW_THREADS
        samples -= chunk;
        if (PyErr_CheckSignals())
            return NULL;
    }
    return PyLong_FromUnsignedLongLong(hits);
}

static PyObject *brent_rho(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    uint64_t v[3], g;
    if (unpack(args, nargs, v))
        return NULL;
    Py_BEGIN_ALLOW_THREADS
    g = rho(v[0], v[1], v[2]);
    Py_END_ALLOW_THREADS
    return PyLong_FromUnsignedLongLong(g);
}

static PyObject *is_prime(PyObject *self, PyObject *arg)
{
    uint64_t n = PyLong_AsUnsignedLongLong(arg);
    if (n == (uint64_t)-1 && PyErr_Occurred())
        return NULL;
    return PyBool_FromLong(miller_rabin(n));
}

static PyMethodDef methods[] = {
    {"mc_zero_pairs", (PyCFunction)(void (*)(void))mc_zero_pairs, METH_FASTCALL, NULL},
    {"brent_rho", (PyCFunction)(void (*)(void))brent_rho, METH_FASTCALL, NULL},
    {"is_prime", is_prime, METH_O, NULL},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_native", NULL, -1, methods};

PyMODINIT_FUNC PyInit__native(void)
{
    return PyModule_Create(&module);
}
