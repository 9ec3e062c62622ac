/* Compiled mod-p polynomial kernels; the same contract as pure.py.
 *
 * Polynomials are arrays of residues in [0, p), ascending in degree, with
 * a nonzero top coefficient (length 0 is the zero polynomial). A modulus
 * p is accepted for F of degree n when n (p-1)^2 + (p-1) < 2^64
 * (lazy_fits; see Delayed reduction below): p <= 2^31 at degree 4, about
 * 1.24e9 at degree 12 and 7.2e8 at degree 36, far above the primes near
 * the 10,000th (104,729) where the census and certify stop, and any
 * p < 2^28 (intpoly's resultant primes) up to degree 255. A larger p
 * raises OverflowError, which the loader in __init__.py answers by
 * calling pure.py. Each step mirrors pure.py, so results and ValueError
 * messages agree with it even for composite moduli, where a leading
 * coefficient may not be invertible.
 *
 * The module exports two kernels, each answering for a list of primes
 * from one call:
 * - splitting_types(coeffs, primes): the factor degrees of F mod each
 *   prime, with None at each prime where F is not squarefree. For p prime
 *   and not dividing lc(F), those are exactly the primes that divide
 *   Disc(F), so its callers find good primes without computing Disc.
 *   __init__.py defines ddf_degrees, the degrees at one prime, on top of it.
 * - resultants(a, b, primes): Res(a, b) mod each prime, by Euclid's
 *   remainder sequence over F_p with the leading coefficients tracked
 *   (n above is the larger degree). intpoly.resultant combines the
 *   residues by the Chinese remainder theorem.
 *
 * Distinct-degree factorization iterates the Frobenius matrix (Berlekamp's
 * Q; von zur Gathen and Shoup, Comput. Complexity 2, 1992). For monic F of
 * degree n, x^p mod F is computed once by left-to-right powering (x_pow),
 * where a product by x is a shift and one reduction step; row i of Q is
 * x^(ip) mod F (0 <= i < n), and each later degree costs one product
 * h <- Q h in place of log2(p) squarings, since for h = sum h_i x^i,
 * h^p = sum h_i^p x^(ip) = sum h_i x^(ip). That identity needs p prime:
 * the cross terms of the p-th power vanish, and h_i^p = h_i (Fermat). A
 * composite modulus takes the same steps as in pure.py; its "degrees" mean
 * nothing. h stays modulo the original F, and each gcd(h - x, f) is taken
 * against the part f of F left once the factors of lower degree are
 * divided out.
 *
 * Delayed reduction. At one prime every operand of a product is reduced
 * mod F, so it has at most n coefficients, and every divisor has degree at
 * most n. So a coefficient of a product, or of Q h, is a sum of at most n
 * terms below (p-1)^2. In a division the leading coefficient t is reduced
 * at each step and the others receive (p - t) * f_i <= (p-1)^2, so each
 * remainder coefficient is a residue below p plus at most n such terms.
 * As n (p-1)^2 + (p-1) < 2^64 (lazy_fits), these sums are accumulated in
 * u64 and each coefficient is reduced once. Reductions are Barrett's (a
 * multiply by floor(2^64 / p) and a shift), not a hardware division.
 *
 * The gcd (the squarefree test and each gcd(h - x, f)) is Euclid by
 * pseudo-remainders (Knuth, TAOCP 2, 4.6.1, Algorithm R), with no
 * inverse per step: x <- c x - t x^s y for c = lc(y) and t = lc(x), the
 * top term dropped, and only the final gcd made monic. Each new
 * coefficient c x_i + (p - t) y_i is reduced at once, and is below
 * 2 (p-1)^2. It has the y term only where deg y >= 1, so deg F = n >= 2,
 * and then lazy_fits(p, n) bounds it below 2^64; with deg y = 0 it is
 * c x_i < (p-1)^2. So the gcd needs no bound beyond lazy_fits.
 *
 * __init__.py compiles this file on first import:
 *     cc -O2 -shared -fPIC -I<Python include> _speed.c -o <cache file>
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

typedef uint64_t u64;
typedef unsigned __int128 u128;

static const char NOT_INVERTIBLE[] = "base is not invertible for the given modulus";

static inline u64 subm(u64 a, u64 b, u64 p) { return a >= b ? a - b : a + (p - b); }

/* Scratch buffers of one call: 2n + 2 residues each for n coefficients,
 * and n^2 for Q. F is the prepared polynomial, f the part of it still
 * unfactored in the distinct-degree loop. */
typedef struct {
    u64 p, *F, *f, *h, *g, *t, *u, *v, *w, *degs, *q;
    u64 m; /* floor(2^64 / p), for reduce */
} Work;

/* Whether n terms of at most (p-1)^2 plus one of at most p - 1 sum below
 * 2^64. As it needs p <= 2^32, any product of two residues fits 64 bits. */
static int lazy_fits(u64 p, Py_ssize_t n)
{
    u64 s = p - 1;
    return s <= UINT32_MAX && (n < 1 || s * s <= (UINT64_MAX - s) / (u64)n);
}

/* x mod p by Barrett's method, for any x < 2^64 and p < 2^63: as
 * 2^64 / p - 1 < m <= 2^64 / p, the quotient estimate floor(x m / 2^64) is
 * floor(x / p) or one less, so one correction step suffices. */
static inline u64 reduce(u64 x, const Work *k)
{
    u64 r = x - (u64)(((u128)x * k->m) >> 64) * k->p;
    return r >= k->p ? r - k->p : r;
}

static Py_ssize_t trim(const u64 *a, Py_ssize_t n)
{
    while (n > 0 && a[n - 1] == 0)
        n--;
    return n;
}

/* a^-1 mod p, or 0 when gcd(a, p) != 1. */
static u64 inv_mod(u64 a, u64 p)
{
    int64_t t = 0, nt = 1, tmp;
    u64 r = p, nr = a, q, rtmp;
    while (nr) {
        q = r / nr;
        tmp = t - (int64_t)q * nt, t = nt, nt = tmp;
        rtmp = r - q * nr, r = nr, nr = rtmp;
    }
    if (r != 1)
        return 0;
    return t < 0 ? (u64)(t + (int64_t)p) : (u64)t;
}

/* Scales a to a monic polynomial in place; -1 (error set) if its
 * leading coefficient is not invertible mod p. */
static int make_monic(u64 *a, Py_ssize_t n, const Work *k)
{
    u64 inv;
    if (n == 0 || a[n - 1] == 1)
        return 0;
    if (!(inv = inv_mod(a[n - 1], k->p))) {
        PyErr_SetString(PyExc_ValueError, NOT_INVERTIBLE);
        return -1;
    }
    for (Py_ssize_t i = 0; i < n; i++)
        a[i] = reduce(a[i] * inv, k);
    return 0;
}

/* out = a * b; out has room for la + lb - 1 and aliases neither. */
static Py_ssize_t mul(const u64 *a, Py_ssize_t la, const u64 *b, Py_ssize_t lb, u64 *out, const Work *k)
{
    Py_ssize_t lo = la + lb - 1;
    if (la == 0 || lb == 0)
        return 0;
    memset(out, 0, lo * sizeof *out);
    for (Py_ssize_t i = 0; i < la; i++)
        if (a[i])
            for (Py_ssize_t j = 0; j < lb; j++)
                out[i + j] += a[i] * b[j];
    for (Py_ssize_t i = 0; i < lo; i++)
        out[i] = reduce(out[i], k);
    return trim(out, lo);
}

/* r mod f in place, for monic f; returns the remainder's length. With q
 * non-NULL the quotient goes there (room for lr - lf + 1, aliasing nothing). */
static Py_ssize_t divide(u64 *r, Py_ssize_t lr, const u64 *f, Py_ssize_t lf, u64 *q, const Work *k)
{
    u64 p = k->p;
    Py_ssize_t df = lf - 1, lq = lr - df;
    if (q && lq > 0)
        memset(q, 0, lq * sizeof *q);
    for (; lr - 1 >= df; lr--) {
        u64 t = reduce(r[lr - 1], k);
        Py_ssize_t shift = lr - 1 - df;
        if (q)
            q[shift] = t;
        if (t)
            for (Py_ssize_t i = 0; i < df; i++)
                r[shift + i] += (p - t) * f[i];
    }
    for (Py_ssize_t i = 0; i < lr; i++)
        r[i] = reduce(r[i], k);
    return trim(r, lr);
}

/* Monic gcd(a, b) into out, or -1 (error set); a and b may alias out.
 * Euclid by pseudo-remainders (Knuth, TAOCP 2, 4.6.1, Algorithm R), as
 * pure._gcd_mod: while deg x >= deg y, x <- c x - t x^s y for c = lc(y),
 * t = lc(x) and s = deg x - deg y, with the top term dropped; then x and
 * y swap. Over a field each remainder is a nonzero multiple of the monic
 * one, so only the final gcd is made monic, with one inversion. A new
 * coefficient c x_i + (p - t) y_i is below 2 (p-1)^2; the y term is there
 * only when deg y >= 1, so deg F = n >= 2, and lazy_fits(p, n) bounds
 * 2 (p-1)^2 + (p-1) below 2^64. */
static Py_ssize_t gcd(const u64 *a, Py_ssize_t la, const u64 *b, Py_ssize_t lb, u64 *out, Work *k)
{
    u64 *x = k->u, *y = k->v, *s, p = k->p;
    Py_ssize_t n;
    memcpy(x, a, la * sizeof *x);
    memcpy(y, b, lb * sizeof *y);
    while (lb) {
        u64 c = y[lb - 1];
        while (la >= lb) {
            u64 t = p - x[--la];
            Py_ssize_t shift = la - (lb - 1);
            for (Py_ssize_t i = 0; i < shift; i++)
                x[i] = reduce(c * x[i], k);
            for (Py_ssize_t i = shift; i < la; i++)
                x[i] = reduce(c * x[i] + t * y[i - shift], k);
            la = trim(x, la);
        }
        s = x, x = y, y = s;
        n = la, la = lb, lb = n;
    }
    if (make_monic(x, la, k) < 0)
        return -1;
    memcpy(out, x, la * sizeof *x);
    return la;
}

/* a * x mod (f, p) in place, for monic f of length lf and a of length
 * la < lf (reduced mod f), with room for lf residues: a shift, and where
 * that reaches degree deg f, one reduction step. */
static Py_ssize_t times_x(u64 *a, Py_ssize_t la, const u64 *f, Py_ssize_t lf, const Work *k)
{
    Py_ssize_t n = lf - 1;
    u64 t;
    if (la == 0)
        return 0;
    memmove(a + 1, a, la * sizeof *a);
    a[0] = 0;
    if (la < n)
        return la + 1;
    t = k->p - a[n];
    for (Py_ssize_t i = 0; i < n; i++)
        a[i] = reduce(a[i] + t * f[i], k);
    return trim(a, n);
}

/* x^e mod (f, p) into out, for monic f of degree at least 2 and e >= 1, by
 * left-to-right binary powering: each bit below the top one costs a
 * squaring (a product and a division), and a set bit one times_x. As x^e
 * mod a monic f is unique, this is the remainder for any modulus. */
static Py_ssize_t x_pow(u64 e, const u64 *f, Py_ssize_t lf, u64 *out, Work *k)
{
    Py_ssize_t lo = 2, lw;
    int bit = 63 - __builtin_clzll(e);
    out[0] = 0, out[1] = 1;
    while (bit-- > 0) {
        lw = mul(out, lo, out, lo, k->w, k);
        lo = divide(k->w, lw, f, lf, NULL, k);
        memcpy(out, k->w, lo * sizeof *out);
        if (e >> bit & 1)
            lo = times_x(out, lo, f, lf, k);
    }
    return lo;
}

/* Q into k->q, row i (n residues) = x^(ip) mod (F, p) for 0 <= i < n =
 * deg F >= 2, from xp = x^p mod F. */
static void frobenius_rows(const u64 *xp, Py_ssize_t lxp, Py_ssize_t lF, Work *k)
{
    Py_ssize_t n = lF - 1, lr = lxp, lw;
    u64 *q = k->q;
    memset(q, 0, n * n * sizeof *q);
    q[0] = 1;
    memcpy(q + n, xp, lxp * sizeof *xp);
    for (Py_ssize_t i = 2; i < n; i++) {
        lw = mul(q + (i - 1) * n, lr, xp, lxp, k->w, k);
        lr = divide(k->w, lw, k->F, lF, NULL, k);
        memcpy(q + i * n, k->w, lr * sizeof *k->w);
    }
}

/* h <- Q h, that is h^p mod (F, p) for p prime (see the header), for h of
 * length lh <= n = deg F. */
static Py_ssize_t frobenius(u64 *h, Py_ssize_t lh, Py_ssize_t n, Work *k)
{
    u64 *out = k->w;
    memset(out, 0, n * sizeof *out);
    for (Py_ssize_t i = 0; i < lh; i++) {
        const u64 *row = k->q + i * n;
        if (h[i])
            for (Py_ssize_t j = 0; j < n; j++)
                out[j] += h[i] * row[j];
    }
    for (Py_ssize_t j = 0; j < n; j++)
        out[j] = reduce(out[j], k);
    memcpy(h, out, n * sizeof *h);
    return trim(h, n);
}

/* gcd(h - x, f) into k->g, or -1 (error set). */
static Py_ssize_t gcd_minus_x(const u64 *h, Py_ssize_t lh, const u64 *f, Py_ssize_t lf, Work *k)
{
    Py_ssize_t lt = lh > 2 ? lh : 2;
    memset(k->t, 0, lt * sizeof *k->t);
    memcpy(k->t, h, lh * sizeof *h);
    k->t[1] = subm(k->t[1], 1, k->p);
    return gcd(k->t, trim(k->t, lt), f, lf, k->g, k);
}

/* Sets k->p from the Python int p, for F of degree n: -1 with ValueError
 * if p < 2, with OverflowError if lazy_fits(p, n) fails. */
static int set_modulus(Work *k, PyObject *p, Py_ssize_t n)
{
    int overflow;
    long long v = PyLong_AsLongLongAndOverflow(p, &overflow);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (overflow < 0 || (!overflow && v < 2)) {
        PyErr_SetString(PyExc_ValueError, "modulus must be a prime >= 2");
        return -1;
    }
    if (overflow || !lazy_fits((u64)v, n)) {
        PyErr_SetString(PyExc_OverflowError, "modulus too large for the compiled kernel");
        return -1;
    }
    k->p = (u64)v;
    k->m = (u64)(((u128)1 << 64) / k->p);
    return 0;
}

/* coeffs (a PySequence_Fast) reduced mod p = k->p into out: its length, or
 * -1 (error set), with ValueError where p divides its leading coefficient. */
static Py_ssize_t load(PyObject *coeffs, PyObject *p, u64 *out, const Work *k)
{
    Py_ssize_t n = PySequence_Fast_GET_SIZE(coeffs);
    PyObject **items = PySequence_Fast_ITEMS(coeffs);
    for (Py_ssize_t i = 0; i < n; i++) {
        int overflow;
        long long v = PyLong_AsLongLongAndOverflow(items[i], &overflow);
        if (v == -1 && PyErr_Occurred())
            return -1;
        if (!overflow) {
            out[i] = v >= 0 ? (u64)v % k->p : k->p - 1 - (u64)(-(v + 1)) % k->p;
        } else {
            PyObject *r = PyNumber_Remainder(items[i], p);
            if (!r)
                return -1;
            out[i] = PyLong_AsUnsignedLongLong(r);
            Py_DECREF(r);
            if (PyErr_Occurred())
                return -1;
        }
    }
    if (n == 0 || out[n - 1] == 0) {
        PyErr_SetString(PyExc_ValueError, "leading coefficient divisible by p");
        return -1;
    }
    return n;
}

/* pure._prep: coeffs reduced mod p into k->F, checked and made monic.
 * Returns the length, or -1 (error set). */
static Py_ssize_t prep(PyObject *coeffs, PyObject *p, Work *k)
{
    Py_ssize_t n;
    if (set_modulus(k, p, PySequence_Fast_GET_SIZE(coeffs) - 1) < 0 || (n = load(coeffs, p, k->F, k)) < 0)
        return -1;
    return make_monic(k->F, n, k) < 0 ? -1 : n;
}

/* pure._degrees on k: the descending factor degrees as a new list, or
 * None where F is not squarefree mod p. */
static PyObject *degrees(PyObject *coeffs, PyObject *p, Work *k)
{
    Py_ssize_t lF = prep(coeffs, p, k), lf, lh = 0, lg, nd = 0;
    u64 *F = k->F, *f = k->f, *h = k->h, *g = k->g, *degs = k->degs;
    PyObject *out;
    if (lF < 0)
        return NULL;
    if (lF == 1) {
        PyErr_SetString(PyExc_ValueError, "constant polynomial mod p");
        return NULL;
    }
    for (Py_ssize_t i = 1; i < lF; i++)
        h[i - 1] = reduce((u64)i % k->p * F[i], k);
    if ((lg = gcd(F, lF, h, trim(h, lF - 1), g, k)) < 0)
        return NULL;
    if (lg != 1)
        Py_RETURN_NONE;
    /* Distinct-degree factorization: h = x^(p^d) mod F, and gcd(h - x, f)
     * is the product of the factors of degree d, divided out of f. */
    memcpy(f, F, lF * sizeof *F);
    lf = lF;
    for (Py_ssize_t d = 1; lf - 1 >= 2 * d; d++) {
        if (d == 1) {
            lh = x_pow(k->p, F, lF, h, k);
        } else {
            if (d == 2)
                frobenius_rows(h, lh, lF, k);
            lh = frobenius(h, lh, lF - 1, k);
        }
        if ((lg = gcd_minus_x(h, lh, f, lf, k)) < 0)
            return NULL;
        if (lg > 1) {
            for (Py_ssize_t c = (lg - 1) / d; c > 0; c--)
                degs[nd++] = d;
            memcpy(k->t, f, lf * sizeof *f);
            divide(k->t, lf, g, lg, f, k);
            lf = trim(f, lf - lg + 1);
        }
    }
    if (lf > 1)
        degs[nd++] = lf - 1;
    if (!(out = PyList_New(nd)))
        return NULL;
    /* Degrees were found in ascending order except possibly the last. */
    for (Py_ssize_t i = nd - 1; i > 0 && degs[i] < degs[i - 1]; i--) {
        u64 s = degs[i];
        degs[i] = degs[i - 1], degs[i - 1] = s;
    }
    for (Py_ssize_t i = 0; i < nd; i++) {
        PyObject *d = PyLong_FromUnsignedLongLong(degs[nd - 1 - i]);
        if (!d) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, i, d);
    }
    return out;
}

/* pure.splitting_types: the degrees at each of primes, None where F is not
 * squarefree mod that prime, as a new list. The scratch space is sized
 * for the length of coeffs once, for every prime. */
static PyObject *splitting_types(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *coeffs, *primes, *seq, *ps, *out = NULL;
    Py_ssize_t n, width;
    Work k;
    u64 *buf = NULL;
    if (!PyArg_ParseTuple(args, "OO:splitting_types", &coeffs, &primes))
        return NULL;
    if (!(seq = PySequence_Fast(coeffs, "coefficients must be a sequence")))
        return NULL;
    n = PySequence_Fast_GET_SIZE(seq);
    width = 2 * n + 2;
    ps = PySequence_Fast(primes, "primes must be a sequence");
    if (ps && !(buf = PyMem_Calloc(9 * width + n * n, sizeof *buf)))
        PyErr_NoMemory();
    if (buf) {
        u64 **slots[] = {&k.F, &k.f, &k.h, &k.g, &k.t, &k.u, &k.v, &k.w, &k.degs};
        for (size_t i = 0; i < sizeof slots / sizeof *slots; i++)
            *slots[i] = buf + i * width;
        k.q = buf + 9 * width;
        out = PyList_New(PySequence_Fast_GET_SIZE(ps));
        for (Py_ssize_t j = 0; out && j < PySequence_Fast_GET_SIZE(ps); j++) {
            PyObject *type = degrees(seq, PySequence_Fast_GET_ITEM(ps, j), &k);
            if (!type)
                Py_CLEAR(out);
            else
                PyList_SET_ITEM(out, j, type);
        }
    }
    PyMem_Free(buf);
    Py_XDECREF(ps);
    Py_DECREF(seq);
    return out;
}

/* u^e mod p. */
static u64 pow_residue(u64 u, u64 e, const Work *k)
{
    u64 r = 1;
    for (; e; e >>= 1) {
        if (e & 1)
            r = reduce(r * u, k);
        u = reduce(u * u, k);
    }
    return r;
}

/* pure._resultant: Res(x, y) mod p into *res, for x and y of lengths lx
 * and ly with nonzero leading residues (both overwritten). Euclid's
 * remainder sequence, tracking leading coefficients: y is made monic,
 * which scales Res by lc(y)^deg x, and Res(x, y) = (-1)^(deg x deg y)
 * Res(y, x mod y) for monic y. Returns 0, or -1 (error set) where a
 * leading coefficient is not invertible mod p (p composite). */
static int resultant(u64 *x, Py_ssize_t lx, u64 *y, Py_ssize_t ly, u64 *res, Work *k)
{
    u64 p = k->p, r = 1, *s;
    Py_ssize_t m = lx - 1, n = ly - 1, t;
    if (m < n) {
        s = x, x = y, y = s;
        t = m, m = n, n = t;
        if (m & n & 1)
            r = p - 1;
    }
    while (n > 0) {
        r = reduce(r * pow_residue(y[n], m, k), k);
        if (make_monic(y, n + 1, k) < 0)
            return -1;
        if ((lx = divide(x, m + 1, y, n + 1, NULL, k)) == 0) {
            *res = 0;
            return 0;
        }
        if (m & n & 1)
            r = r ? p - r : 0;
        s = x, x = y, y = s;
        m = n, n = lx - 1;
    }
    *res = reduce(r * pow_residue(y[0], m, k), k);
    return 0;
}

/* pure.resultants: Res(a, b) mod each of primes, as a new list. lazy_fits
 * is taken at the larger degree: dividing x by y adds at most
 * deg x - deg y + 1 <= deg x terms below (p-1)^2 to a coefficient. */
static PyObject *resultants(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *a, *b, *primes, *sa, *sb = NULL, *ps = NULL, *out = NULL;
    Py_ssize_t width = 0;
    Work k;
    u64 *buf = NULL;
    if (!PyArg_ParseTuple(args, "OOO:resultants", &a, &b, &primes))
        return NULL;
    if ((sa = PySequence_Fast(a, "coefficients must be a sequence"))
        && (sb = PySequence_Fast(b, "coefficients must be a sequence"))
        && (ps = PySequence_Fast(primes, "primes must be a sequence"))) {
        width = PySequence_Fast_GET_SIZE(sa);
        if (PySequence_Fast_GET_SIZE(sb) > width)
            width = PySequence_Fast_GET_SIZE(sb);
        if (!(buf = PyMem_Calloc(2 * width + 2, sizeof *buf)))
            PyErr_NoMemory();
    }
    if (buf)
        out = PyList_New(PySequence_Fast_GET_SIZE(ps));
    for (Py_ssize_t j = 0; out && j < PySequence_Fast_GET_SIZE(ps); j++) {
        PyObject *p = PySequence_Fast_GET_ITEM(ps, j), *v = NULL;
        Py_ssize_t la, lb;
        u64 r;
        if (set_modulus(&k, p, width - 1) == 0 && (la = load(sa, p, buf, &k)) >= 0
            && (lb = load(sb, p, buf + width + 1, &k)) >= 0 && resultant(buf, la, buf + width + 1, lb, &r, &k) == 0)
            v = PyLong_FromUnsignedLongLong(r);
        if (!v)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, j, v);
    }
    PyMem_Free(buf);
    Py_XDECREF(ps);
    Py_XDECREF(sb);
    Py_XDECREF(sa);
    return out;
}

static PyMethodDef methods[] = {
    {"splitting_types", splitting_types, METH_VARARGS,
     "The degrees of the irreducible factors of coeffs mod p, descending,\n"
     "for each p in primes; None where coeffs is not squarefree mod p."},
    {"resultants", resultants, METH_VARARGS,
     "Res(a, b) mod p for each p in primes, from coefficient sequences\n"
     "ascending in degree."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_speed", "Compiled mod-p polynomial kernels.", -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__speed(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m && PyModule_AddStringConstant(m, "BACKEND", "c") < 0)
        Py_CLEAR(m);
    return m;
}
