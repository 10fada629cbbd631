/* Compiled forms of five kernels of zeroprod.kernels, as the extension
 * module zeroprod._native.
 *
 * Each function runs the exact procedure of its pure counterpart, or
 * decides every pair by its own product as the pure one does, so both
 * backends return the same value for the same arguments:
 *   mc_zero_pairs(n, samples, seed) -- kernels._mc_zero_pairs_py
 *       (splitmix64, rejection, x before y, hit iff n | x*y);
 *   brent_rho(n, c, x0) -- kernels._brent_rho_py (polynomial y^2 + c,
 *       gcd batches of 128, the same backtrack), 0 when it degenerates;
 *   is_prime(n) -- kernels._is_prime_py (Miller-Rabin with the witnesses
 *       2, 3, ..., 37 and the same early exits), exact for every n;
 *   pair_count(moduli) -- kernels._ann_pair_count_zn_py for one modulus,
 *       kernels._ann_pair_count_mixed_py for more;
 *   graph_edges(moduli, indices) -- kernels._graph_edges_zn_py and
 *       kernels._graph_edges_mixed_py, on the vertices' odometer indices
 *       (for Z_n, the elements themselves), which must ascend strictly
 *       (ValueError otherwise) on both backends.
 * Z_n pairs run 16 rows side by side as running residues x*y mod n, with
 * no division in the loop; a product ring ANDs one bitset per digit, 64
 * pairs per word.  Arguments of the first three must fit 64 bits
 * (OverflowError otherwise), and n >= 1 for the first two; they form
 * products in 128 bits, so no step wraps.  The pair kernels take moduli
 * >= 1 whose product, the ring order, is below 2**31 (OverflowError
 * otherwise), so a residue plus an element fits 32 bits.  kernels.py
 * checks the ranges before it calls: n for Z_n, and for a product ring
 * the lane limit, which no ring of order 2**31 or more passes.  The
 * loops run without the GIL, and a signal such as Ctrl-C ends them
 * between slices of work.
 * kernels.py builds this file with gcc -O2 -shared -fPIC -I<Python
 * include directory>.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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

/* ---- Pair kernels: every pair (x, y) of a ring of order below 2**31 ---- */

#define PAIR_LIMIT ((uint64_t)1 << 31)
#define LANES 16         /* rows of Z_n run side by side */
#define SLICE (1u << 22) /* steps between two checks for signals */

/* A ring Z_{m_1} x ... x Z_{m_r}, each m_t >= 1, order = their product. */
typedef struct {
    Py_ssize_t r;
    uint32_t *mods;
    uint32_t order;
    size_t lanes; /* the sum of the moduli */
} ring;

/* Vertices by odometer index, strictly ascending. */
typedef struct {
    Py_ssize_t m;
    uint32_t *idx;
} vertices;

/* Index pairs (i, j), grown with realloc, so without the GIL. */
typedef struct {
    uint32_t *ij;
    size_t len, cap;
} pairs;

static int push(pairs *e, uint32_t i, uint32_t j)
{
    if (e->len == e->cap) {
        size_t cap = e->cap ? 2 * e->cap : 1024;
        uint32_t *grown = realloc(e->ij, 2 * cap * sizeof *grown);
        if (grown == NULL)
            return -1;
        e->ij = grown;
        e->cap = cap;
    }
    e->ij[2 * e->len] = i;
    e->ij[2 * e->len + 1] = j;
    e->len++;
    return 0;
}

/* The position of vertex y, or -1 when y is no vertex. */
static int64_t position(const vertices *v, uint32_t y)
{
    Py_ssize_t lo = 0, hi = v->m;
    while (lo < hi) {
        Py_ssize_t mid = lo + (hi - lo) / 2;
        if (v->idx[mid] < y)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo < v->m && v->idx[lo] == y ? lo : -1;
}

/* Takes the GIL, runs pending signal handlers and releases it again;
 * nonzero when one raised. */
static int interrupted(PyThreadState **save)
{
    PyEval_RestoreThread(*save);
    int raised = PyErr_CheckSignals();
    *save = PyEval_SaveThread();
    return raised;
}

/* One step of every lane: r = x*y mod n becomes x*(y + 1) mod n by one
 * addition and at most one subtraction.  x, r < n < 2**31, so x + r
 * cannot wrap. */
#define ADVANCE(k) \
    do { \
        uint32_t s_ = r[k] + x[k]; \
        r[k] = s_ >= n ? s_ - n : s_; \
    } while (0)

/* Columns y0 .. y1 - 1 of the rows x: hits[k] counts the columns where
 * x[k]*y = 0; r holds x*y0 mod n on entry and x*y1 mod n on return. */
static void count_lanes(uint32_t n, const uint32_t *x_, uint32_t *r_, uint32_t *hits_,
                        uint32_t y0, uint32_t y1)
{
    uint32_t x[LANES], r[LANES], hits[LANES];
    memcpy(x, x_, sizeof x);
    memcpy(r, r_, sizeof r);
    memcpy(hits, hits_, sizeof hits);
    for (uint32_t y = y0; y < y1; y++)
        for (int k = 0; k < LANES; k++) {
            hits[k] += r[k] == 0;
            ADVANCE(k);
        }
    memcpy(r_, r, sizeof r);
    memcpy(hits_, hits, sizeof hits);
}

/* The first column y in [y0, y1) where some x[k]*y = 0, or y1; r holds
 * x*y0 mod n on entry and x*y mod n on return. */
static uint32_t next_zero(uint32_t n, const uint32_t *x_, uint32_t *r_, uint32_t y0, uint32_t y1)
{
    uint32_t x[LANES], r[LANES], y = y0;
    memcpy(x, x_, sizeof x);
    memcpy(r, r_, sizeof r);
    for (; y < y1; y++) {
        uint32_t zero = 0;
        for (int k = 0; k < LANES; k++)
            zero |= r[k] == 0;
        if (zero)
            break;
        for (int k = 0; k < LANES; k++)
            ADVANCE(k);
    }
    memcpy(r_, r, sizeof r);
    return y;
}

/* Ordered pairs of Z_n with x*y = 0: x = 0 kills every y, and each other
 * unordered pair is tested once, so the count is the diagonal plus twice
 * the strict upper triangle.  Rows x0 .. x0 + 15 share their columns from
 * x0 + 1 on; a lane counts only columns past its own row.  Returns 0 when
 * a signal handler raised. */
static int zn_pair_count(uint32_t n, uint64_t *count, PyThreadState **save)
{
    uint64_t diagonal = 1, upper = n - 1, budget = SLICE;
    uint32_t x[LANES], r[LANES], hits[LANES];
    for (uint32_t x0 = 1; x0 < n; x0 += LANES) {
        uint32_t live = n - x0 < LANES ? n - x0 : LANES;
        for (uint32_t k = 0; k < LANES; k++) {
            x[k] = k < live ? x0 + k : 0;
            r[k] = (uint32_t)((uint64_t)x[k] * (x0 + 1) % n);
            hits[k] = 0;
            diagonal += k < live && (uint64_t)x[k] * x[k] % n == 0;
        }
        uint32_t y = x0 + 1;
        for (; y < x0 + LANES && y < n; y++)
            for (uint32_t k = 0; k < LANES; k++) {
                hits[k] += r[k] == 0 && y > x[k];
                ADVANCE(k);
            }
        while (y < n) {
            uint32_t end = n - y > budget ? y + (uint32_t)budget : n;
            count_lanes(n, x, r, hits, y, end);
            budget -= end - y;
            y = end;
            if (budget == 0) {
                if (interrupted(save))
                    return 0;
                budget = SLICE;
            }
        }
        for (uint32_t k = 0; k < live; k++)
            upper += hits[k];
    }
    *count = diagonal + 2 * upper;
    return 1;
}

/* Edges of Z_n among the vertices v: rows i0 .. i0 + 15 run side by
 * side over the columns past row i0, and a column where some row's
 * product is 0 is kept for row i when it is a vertex at a position
 * j > i.  A block's edges are gathered in column order, then appended
 * row by row, so they come in ascending (i, j) order.  Returns -1 when
 * memory ran out, 0 when a signal handler raised and 1 when done. */
static int zn_graph_edges(uint32_t n, const vertices *v, pairs *e, PyThreadState **save)
{
    uint32_t x[LANES], r[LANES], top = v->idx[v->m - 1];
    uint64_t budget = SLICE;
    pairs block = {NULL, 0, 0};
    int done = 1;
    for (Py_ssize_t i0 = 0; done == 1 && i0 < v->m; i0 += LANES) {
        uint32_t live = v->m - i0 < LANES ? (uint32_t)(v->m - i0) : LANES;
        for (uint32_t k = 0; k < LANES; k++)
            x[k] = v->idx[i0 + (k < live ? k : 0)];
        uint32_t y = x[0] + 1;
        for (uint32_t k = 0; k < LANES; k++)
            r[k] = (uint32_t)((uint64_t)x[k] * y % n);
        block.len = 0;
        while (done == 1 && y <= top) {
            uint32_t end = top - y >= budget ? y + (uint32_t)budget : top + 1;
            uint32_t hit = next_zero(n, x, r, y, end);
            budget -= hit - y;
            y = hit;
            if (hit < end) {
                int64_t j = position(v, hit);
                for (uint32_t k = 0; k < live; k++)
                    if (r[k] == 0 && j > i0 + (int64_t)k && push(&block, k, (uint32_t)j))
                        done = -1;
                for (uint32_t k = 0; k < LANES; k++)
                    ADVANCE(k);
                y++;
                budget--;
            }
            if (budget == 0) {
                if (interrupted(save))
                    done = 0;
                budget = SLICE;
            }
        }
        for (uint32_t k = 0; done == 1 && k < live; k++)
            for (size_t h = 0; h < block.len; h++)
                if (block.ij[2 * h] == k && push(e, (uint32_t)i0 + k, block.ij[2 * h + 1]))
                    done = -1;
    }
    free(block.ij);
    return done;
}

/* Sets bits lo .. hi - 1. */
static void set_bits(uint64_t *bits, uint64_t lo, uint64_t hi)
{
    for (; lo < hi && lo % 64; lo++)
        bits[lo / 64] |= (uint64_t)1 << (lo % 64);
    for (; lo + 64 <= hi; lo += 64)
        bits[lo / 64] = ~(uint64_t)0;
    for (; lo < hi; lo++)
        bits[lo / 64] |= (uint64_t)1 << (lo % 64);
}

static uint64_t popcount(uint64_t w)
{
    w -= (w >> 1) & 0x5555555555555555u;
    w = (w & 0x3333333333333333u) + ((w >> 2) & 0x3333333333333333u);
    w = (w + (w >> 4)) & 0x0F0F0F0F0F0F0F0Fu;
    return (w * 0x0101010101010101u) >> 56;
}

/* The zero lanes of a product ring: per component t and digit v, the
 * bitset of the elements b whose digit b_t satisfies v*b_t = 0 in
 * Z_{m_t}.  Bit b stands for the element of odometer index b (the last
 * digit varies fastest), so digit w of component t owns blocks of
 * stride_t bits, one every m_t*stride_t.  The lanes of component t
 * follow those of the components before it, words 64-bit words each.
 * NULL when memory runs out. */
static uint64_t *zero_lanes(const ring *g, size_t words)
{
    uint64_t *bits = calloc(g->lanes * words, sizeof *bits);
    if (bits == NULL)
        return NULL;
    uint64_t *lane = bits, stride = g->order;
    for (Py_ssize_t t = 0; t < g->r; t++) {
        uint32_t n = g->mods[t];
        stride /= n;
        for (uint32_t v = 0; v < n; v++, lane += words)
            for (uint32_t w = 0, p = 0; w < n; w++, p = p + v >= n ? p + v - n : p + v)
                if (p == 0)
                    for (uint64_t b = w * stride; b < g->order; b += n * stride)
                        set_bits(lane, b, b + stride);
    }
    return bits;
}

/* Pointers to the lanes of the digits of element a in each component. */
static void lanes_of(const ring *g, const uint64_t *bits, size_t words, uint32_t a,
                     const uint64_t **row)
{
    const uint64_t *lane = bits + g->lanes * words;
    for (Py_ssize_t t = g->r - 1; t >= 0; t--) {
        lane -= g->mods[t] * words;
        row[t] = lane + (a % g->mods[t]) * words;
        a /= g->mods[t];
    }
}

/* Ordered zero-product pairs of a product ring: the row of element a is
 * the AND of its digits' lanes, counted by popcount per word.  Returns -1
 * when memory ran out, 0 when a signal handler raised and 1 when done. */
static int mixed_pair_count(const ring *g, uint64_t *count, PyThreadState **save)
{
    size_t words = (g->order + 63) / 64;
    uint64_t *bits = zero_lanes(g, words);
    const uint64_t **row = malloc(g->r * sizeof *row);
    int done = bits != NULL && row != NULL ? 1 : -1;
    uint64_t total = 0, budget = SLICE;
    for (uint32_t a = 0; done == 1 && a < g->order; a++) {
        lanes_of(g, bits, words, a, row);
        for (size_t w = 0; w < words; w++) {
            uint64_t acc = row[0][w];
            for (Py_ssize_t t = 1; t < g->r; t++)
                acc &= row[t][w];
            total += popcount(acc);
        }
        uint64_t work = words * g->r;
        budget = budget > work ? budget - work : 0;
        if (budget == 0) {
            if (interrupted(save))
                done = 0;
            budget = SLICE;
        }
    }
    free(bits);
    free(row);
    *count = total;
    return done;
}

/* Edges of a product ring among the vertices v: row i ANDs the lanes of
 * vertex i with the vertex set and reads the set bits past its own
 * index, each the index of a vertex at a position j > i, so the edges
 * come in ascending (i, j) order.  Returns -1 when memory ran out, 0
 * when a signal handler raised and 1 when done. */
static int mixed_graph_edges(const ring *g, const vertices *v, pairs *e, PyThreadState **save)
{
    size_t words = (g->order + 63) / 64;
    uint64_t *bits = zero_lanes(g, words), *verts = calloc(words, sizeof *verts);
    const uint64_t **row = malloc(g->r * sizeof *row);
    int done = bits != NULL && verts != NULL && row != NULL ? 1 : -1;
    uint64_t budget = SLICE;
    for (Py_ssize_t k = 0; done == 1 && k < v->m; k++)
        verts[v->idx[k] / 64] |= (uint64_t)1 << (v->idx[k] % 64);
    for (Py_ssize_t i = 0; done == 1 && i < v->m; i++) {
        uint64_t from = (uint64_t)v->idx[i] + 1;
        lanes_of(g, bits, words, v->idx[i], row);
        for (size_t w = from / 64; done == 1 && w < words; w++) {
            uint64_t acc = verts[w];
            for (Py_ssize_t t = 0; t < g->r; t++)
                acc &= row[t][w];
            if (w == from / 64)
                acc &= ~(uint64_t)0 << (from % 64);
            for (; acc; acc &= acc - 1)
                if (push(e, (uint32_t)i, (uint32_t)position(v, w * 64 + __builtin_ctzll(acc))))
                    done = -1;
        }
        uint64_t work = words * g->r;
        budget = budget > work ? budget - work : 0;
        if (done == 1 && budget == 0) {
            if (interrupted(save))
                done = 0;
            budget = SLICE;
        }
    }
    free(bits);
    free(verts);
    free(row);
    return done;
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

/* moduli: a sequence of ints m >= 1 whose product is below 2**31. */
static int read_ring(PyObject *moduli, ring *g)
{
    PyObject *seq = PySequence_Fast(moduli, "moduli must be a sequence");
    if (seq == NULL)
        return -1;
    g->r = PySequence_Fast_GET_SIZE(seq);
    g->mods = malloc((g->r ? g->r : 1) * sizeof *g->mods);
    g->order = 1;
    g->lanes = 0;
    int ok = g->mods != NULL;
    if (!ok)
        PyErr_NoMemory();
    else if (g->r == 0) {
        PyErr_SetString(PyExc_ValueError, "no moduli");
        ok = 0;
    }
    for (Py_ssize_t t = 0; ok && t < g->r; t++) {
        uint64_t m = PyLong_AsUnsignedLongLong(PySequence_Fast_GET_ITEM(seq, t));
        if (m == (uint64_t)-1 && PyErr_Occurred())
            ok = 0;
        else if (m == 0) {
            PyErr_SetString(PyExc_ValueError, "moduli must be >= 1");
            ok = 0;
        } else if (m >= PAIR_LIMIT || (uint64_t)g->order * m >= PAIR_LIMIT) {
            PyErr_SetString(PyExc_OverflowError, "ring order must be below 2**31");
            ok = 0;
        } else {
            g->mods[t] = (uint32_t)m;
            g->order *= (uint32_t)m;
            g->lanes += m;
        }
    }
    Py_DECREF(seq);
    return ok ? 0 : -1;
}

/* indices: a sequence of strictly ascending ints in [0, order). */
static int read_vertices(PyObject *indices, uint32_t order, vertices *v)
{
    PyObject *seq = PySequence_Fast(indices, "indices must be a sequence");
    if (seq == NULL)
        return -1;
    v->m = PySequence_Fast_GET_SIZE(seq);
    v->idx = malloc((v->m ? v->m : 1) * sizeof *v->idx);
    int ok = v->idx != NULL;
    if (!ok)
        PyErr_NoMemory();
    for (Py_ssize_t k = 0; ok && k < v->m; k++) {
        uint64_t b = PyLong_AsUnsignedLongLong(PySequence_Fast_GET_ITEM(seq, k));
        if (b == (uint64_t)-1 && PyErr_Occurred())
            ok = 0;
        else if (b >= order) {
            PyErr_SetString(PyExc_ValueError, "indices must be below the ring order");
            ok = 0;
        } else if (k && b <= v->idx[k - 1]) {
            PyErr_SetString(PyExc_ValueError, "vertices must ascend strictly");
            ok = 0;
        } else
            v->idx[k] = (uint32_t)b;
    }
    Py_DECREF(seq);
    return ok ? 0 : -1;
}

/* pair_count(moduli): ordered pairs (x, y) of the ring with x*y = 0.  The
 * loops run without the GIL, and a signal such as Ctrl-C ends the call
 * between slices of work. */
static PyObject *pair_count(PyObject *self, PyObject *moduli)
{
    ring g = {0, NULL, 0, 0};
    uint64_t count = 0;
    if (read_ring(moduli, &g)) {
        free(g.mods);
        return NULL;
    }
    PyThreadState *save = PyEval_SaveThread();
    int done = g.r == 1 ? zn_pair_count(g.order, &count, &save)
                        : mixed_pair_count(&g, &count, &save);
    PyEval_RestoreThread(save);
    free(g.mods);
    if (done < 0)
        return PyErr_NoMemory();
    return done ? PyLong_FromUnsignedLongLong(count) : NULL;
}

/* The pairs of e as a list of (i, j) tuples of positions below m; the
 * edges of a vertex share one int object. */
static PyObject *edge_list(const pairs *e, Py_ssize_t m)
{
    PyObject **num = calloc(m ? m : 1, sizeof *num), *list = PyList_New(e->len);
    if (num == NULL)
        PyErr_NoMemory();
    for (size_t h = 0; num != NULL && list != NULL && h < e->len; h++) {
        PyObject *edge = PyTuple_New(2);
        if (edge == NULL)
            Py_CLEAR(list);
        else
            PyList_SET_ITEM(list, h, edge);
        for (int s = 0; list != NULL && s < 2; s++) {
            uint32_t k = e->ij[2 * h + s];
            if (num[k] == NULL && (num[k] = PyLong_FromUnsignedLong(k)) == NULL)
                Py_CLEAR(list);
            else {
                Py_INCREF(num[k]);
                PyTuple_SET_ITEM(edge, s, num[k]);
            }
        }
    }
    for (Py_ssize_t k = 0; num != NULL && k < m; k++)
        Py_XDECREF(num[k]);
    if (num == NULL)
        Py_CLEAR(list);
    free(num);
    return list;
}

/* graph_edges(moduli, indices): the position pairs (i, j), i < j, with
 * x_i*x_j = 0, where x_i is the element of odometer index indices[i] (for
 * one modulus, the element itself), as a list of tuples. */
static PyObject *graph_edges(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    ring g = {0, NULL, 0, 0};
    vertices v = {0, NULL};
    pairs e = {NULL, 0, 0};
    PyObject *list = NULL;
    int done = 1;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "expected 2 arguments");
        return NULL;
    }
    if (read_ring(args[0], &g) || read_vertices(args[1], g.order, &v))
        goto out;
    if (v.m) {
        PyThreadState *save = PyEval_SaveThread();
        done = g.r == 1 ? zn_graph_edges(g.order, &v, &e, &save)
                        : mixed_graph_edges(&g, &v, &e, &save);
        PyEval_RestoreThread(save);
    }
    if (done < 0)
        PyErr_NoMemory();
    else if (done)
        list = edge_list(&e, v.m);
out:
    free(g.mods);
    free(v.idx);
    free(e.ij);
    return list;
}

static PyMethodDef methods[] = {
    {"mc_zero_pairs", (PyCFunction)(void (*)(void))mc_zero_pairs, METH_FASTCALL, NULL},
    {"brent_rho", (PyCFunction)(void (*)(void))brent_rho, METH_FASTCALL, NULL},
    {"is_prime", is_prime, METH_O, NULL},
    {"pair_count", pair_count, METH_O, NULL},
    {"graph_edges", (PyCFunction)(void (*)(void))graph_edges, METH_FASTCALL, NULL},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_native", NULL, -1, methods};

PyMODINIT_FUNC PyInit__native(void)
{
    return PyModule_Create(&module);
}
