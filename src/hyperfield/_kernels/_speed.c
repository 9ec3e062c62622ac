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
 * The module exports four kernels. The first two answer for a list of
 * primes from one call:
 * - splitting_types(coeffs, primes): the factor degrees of F mod each
 *   prime, with None at each prime where F is not squarefree. For p prime
 *   and not dividing lc(F), those are exactly the primes that divide
 *   Disc(F), so its callers find good primes without computing Disc.
 *   __init__.py defines ddf_degrees, the degrees at one prime, on top of it.
 * - resultants(a, b, primes): Res(a, b) mod each prime, by Euclid's
 *   remainder sequence over F_p with the leading coefficients tracked
 *   (n above is the larger degree). intpoly.resultant combines the
 *   residues by the Chinese remainder theorem.
 * The other two are the modular core of Zassenhaus's algorithm
 * (factor.lift_and_recombine):
 * - irreducible_factors(coeffs, q): the monic irreducible factors of F mod
 *   an odd prime q, sorted by (length, coefficients), for F squarefree mod
 *   q with q not dividing lc(F).
 * - hensel_lift(coeffs, factors, q, target): those factors lifted to mod
 *   target = q^k, in order, with lc(F) times their product F mod target.
 *   Here lazy_fits is asked of target at deg F: target <= 2^31 at degree 4
 *   and about 1.24e9 at degree 12, where the census and certify lift to
 *   below 2^20.
 *
 * One distinct-degree loop (ddf) serves splitting_types and
 * irreducible_factors: it leaves the blocks (block, d), the product of the
 * factors of degree d, as pure._ddf_blocks yields them.
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
 * Equal-degree splitting (Cantor and Zassenhaus; von zur Gathen and
 * Gerhard, Modern Computer Algebra, 14.3) splits a block w of factors of
 * degree d by gcd(r, w) or gcd(r^((q^d-1)/2) - 1, w) for random r. The
 * exponent (q^d-1)/2 overflows 64 bits, so r^((q^d-1)/2) is taken as
 * N(r)^((q-1)/2) for the norm N(r) = prod_{i<d} r^(q^i) mod w: on each
 * factor of w, N(r) is the norm from F_(q^d) to F_q, and
 * (q^d-1)/(q-1) = sum_{i<d} q^i. Each r^(q^i) is one product with the
 * Frobenius matrix of the block, so the exponent left is (q-1)/2. The r
 * come from splitmix64, seeded with 0 per call, as in pure.py, so the
 * backends take the same steps at any modulus; after SPLIT_TRIES draws
 * that split nothing (for q prime, a chance of at most 2^-64) the split
 * raises ValueError rather than loop.
 *
 * Hensel lifting (ibid., 15.4) peels one factor at a time, as pure.py: the
 * first factor h and g = lc(F) times the rest are lifted as a pair by
 * quadratic steps mod q, q^2, q^4, ... up to target, then g is split the
 * same way. Each step works mod one m <= target, where f = g h and
 * s g + t h = 1 mod the last modulus keep deg g + deg h = deg F,
 * deg s < deg h and deg t < deg g (h monic): so each operand has at most
 * n coefficients, and lazy_fits(target, n) bounds every product and
 * division as above. hensel_lift checks that lc(F) times the factors is F
 * mod q before the first step, since these bounds rest on it.
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

static inline u64 addm(u64 a, u64 b, u64 p) { return a >= p - b ? a - (p - b) : a + b; }

/* A polynomial stored at buf + at, of length len; d is the degree of its
 * irreducible factors, for a distinct-degree block. */
typedef struct {
    Py_ssize_t at, len, d;
} Span;

/* Scratch buffers of one call (work_init): 2n + 2 residues each for n
 * coefficients, and n^2 for Q. F is the prepared polynomial, f the part
 * of it still unfactored in the distinct-degree loop. The distinct-degree
 * blocks are kept in blk, the polynomials still to split in stk and the
 * irreducible factors in fac, each listed by its spans. */
typedef struct {
    u64 p, *F, *f, *h, *g, *t, *u, *v, *w, *degs, *q, *r, *nr, *s, *blk, *stk, *fac;
    u64 m; /* floor(2^64 / p), for reduce */
    Span *blocks, *factors, *stack;
    Py_ssize_t nblocks, nfactors;
    u64 *buf; /* the one allocation that holds the above */
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

static void set_p(Work *k, u64 p)
{
    k->p = p;
    k->m = (u64)(((u128)1 << 64) / p);
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

/* a <- a * b mod (f, p) in place, for monic f of length lf, with room
 * for lf residues in a; b may alias a. Returns the new length of a. */
static Py_ssize_t mul_rem(u64 *a, Py_ssize_t la, const u64 *b, Py_ssize_t lb, const u64 *f, Py_ssize_t lf, Work *k)
{
    Py_ssize_t lw = divide(k->w, mul(a, la, b, lb, k->w, k), f, lf, NULL, k);
    memcpy(a, k->w, lw * sizeof *a);
    return lw;
}

/* x^e mod (f, p) into out, for monic f of degree at least 1 and e >= 2, by
 * left-to-right binary powering: each bit below the top one costs a
 * squaring (a product and a division), and a set bit one times_x. As x^e
 * mod a monic f is unique, this is the remainder for any modulus. */
static Py_ssize_t x_pow(u64 e, const u64 *f, Py_ssize_t lf, u64 *out, Work *k)
{
    Py_ssize_t lo = 2;
    int bit = 63 - __builtin_clzll(e);
    out[0] = 0, out[1] = 1;
    while (bit-- > 0) {
        lo = mul_rem(out, lo, out, lo, f, lf, k);
        if (e >> bit & 1)
            lo = times_x(out, lo, f, lf, k);
    }
    return lo;
}

/* a^e mod (f, p) into out, for a reduced mod monic f (length lf) and
 * e >= 1, by left-to-right binary powering; out aliases nothing. */
static Py_ssize_t pow_rem(const u64 *a, Py_ssize_t la, u64 e, const u64 *f, Py_ssize_t lf, u64 *out, Work *k)
{
    Py_ssize_t lo = la;
    int bit = 63 - __builtin_clzll(e);
    memcpy(out, a, la * sizeof *a);
    while (bit-- > 0) {
        lo = mul_rem(out, lo, out, lo, f, lf, k);
        if (e >> bit & 1)
            lo = mul_rem(out, lo, a, la, f, lf, k);
    }
    return lo;
}

/* Q of f into k->q: row i (n residues) = x^(ip) mod (f, p) for 0 <= i < n
 * = deg f, from xp = x^p mod f. */
static void frobenius_rows(const u64 *f, Py_ssize_t lf, const u64 *xp, Py_ssize_t lxp, Work *k)
{
    Py_ssize_t n = lf - 1, lr = lxp, lw;
    u64 *q = k->q;
    memset(q, 0, n * n * sizeof *q);
    q[0] = 1;
    memcpy(q + n, xp, lxp * sizeof *xp);
    for (Py_ssize_t i = 2; i < n; i++) {
        lw = mul(q + (i - 1) * n, lr, xp, lxp, k->w, k);
        lr = divide(k->w, lw, f, lf, NULL, k);
        memcpy(q + i * n, k->w, lr * sizeof *k->w);
    }
}

/* h <- Q h, that is h^p mod (f, p) for p prime (see the header), for Q of
 * f (frobenius_rows) and h of length lh <= n = deg f. */
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
    set_p(k, (u64)v);
    return 0;
}

/* coeffs (a PySequence_Fast) reduced mod p = k->p into out, untrimmed: its
 * length, or -1 (error set). */
static Py_ssize_t load_residues(PyObject *coeffs, PyObject *p, u64 *out, const Work *k)
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
    return n;
}

/* load_residues, with ValueError where p divides the leading coefficient. */
static Py_ssize_t load(PyObject *coeffs, PyObject *p, u64 *out, const Work *k)
{
    Py_ssize_t n = load_residues(coeffs, p, out, k);
    if (n < 0)
        return -1;
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

/* Allocates the scratch space of k for polynomials of n coefficients:
 * 0, or -1 (error set). */
static int work_init(Work *k, Py_ssize_t n)
{
    u64 **slots[] = {&k->F, &k->f, &k->h, &k->g, &k->t, &k->u, &k->v, &k->w, &k->degs,
                     &k->r, &k->nr, &k->s, &k->blk, &k->stk, &k->fac};
    size_t count = sizeof slots / sizeof *slots, width = 2 * n + 2, residues = count * width + n * n;
    if (!(k->buf = PyMem_Calloc(residues + 3 * (n + 1) * sizeof(Span) / sizeof *k->buf, sizeof *k->buf))) {
        PyErr_NoMemory();
        return -1;
    }
    for (size_t i = 0; i < count; i++)
        *slots[i] = k->buf + i * width;
    k->q = k->buf + count * width;
    k->blocks = (Span *)(k->buf + residues), k->factors = k->blocks + n + 1, k->stack = k->factors + n + 1;
    return 0;
}

/* Appends a (length la, factor degree d) to the polynomials stored in buf
 * and listed in list[0 .. *count). */
static void push(u64 *buf, Span *list, Py_ssize_t *count, const u64 *a, Py_ssize_t la, Py_ssize_t d)
{
    Py_ssize_t at = *count ? list[*count - 1].at + list[*count - 1].len : 0;
    memmove(buf + at, a, la * sizeof *a);
    list[(*count)++] = (Span){at, la, d};
}

/* pure._squarefree and pure._ddf_blocks on k: 1 with the distinct-degree
 * blocks of F mod p in k->blocks, 0 where F is not squarefree mod p, or -1
 * (error set). */
static int ddf(PyObject *coeffs, PyObject *p, Work *k)
{
    Py_ssize_t lF = prep(coeffs, p, k), lf, lh = 0, lg;
    u64 *F = k->F, *f = k->f, *h = k->h, *g = k->g;
    if (lF < 0)
        return -1;
    if (lF == 1) {
        PyErr_SetString(PyExc_ValueError, "constant polynomial mod p");
        return -1;
    }
    for (Py_ssize_t i = 1; i < lF; i++)
        h[i - 1] = reduce((u64)i % k->p * F[i], k);
    if ((lg = gcd(F, lF, h, trim(h, lF - 1), g, k)) < 0)
        return -1;
    if (lg != 1)
        return 0;
    /* h = x^(p^d) mod F, and gcd(h - x, f) is the product of the factors
     * of degree d, divided out of f. */
    k->nblocks = 0;
    memcpy(f, F, lF * sizeof *F);
    lf = lF;
    for (Py_ssize_t d = 1; lf - 1 >= 2 * d; d++) {
        if (d == 1) {
            lh = x_pow(k->p, F, lF, h, k);
        } else {
            if (d == 2)
                frobenius_rows(F, lF, h, lh, k);
            lh = frobenius(h, lh, lF - 1, k);
        }
        if ((lg = gcd_minus_x(h, lh, f, lf, k)) < 0)
            return -1;
        if (lg > 1) {
            push(k->blk, k->blocks, &k->nblocks, g, lg, d);
            memcpy(k->t, f, lf * sizeof *f);
            divide(k->t, lf, g, lg, f, k);
            lf = trim(f, lf - lg + 1);
        }
    }
    if (lf > 1)
        push(k->blk, k->blocks, &k->nblocks, f, lf, lf - 1);
    return 1;
}

/* pure._degrees on k: the descending factor degrees as a new list, or
 * None where F is not squarefree mod p. */
static PyObject *degrees(PyObject *coeffs, PyObject *p, Work *k)
{
    Py_ssize_t nd = 0;
    u64 *degs = k->degs;
    PyObject *out;
    int squarefree = ddf(coeffs, p, k);
    if (squarefree < 0)
        return NULL;
    if (!squarefree)
        Py_RETURN_NONE;
    for (Py_ssize_t b = 0; b < k->nblocks; b++)
        for (Py_ssize_t c = (k->blocks[b].len - 1) / k->blocks[b].d; c > 0; c--)
            degs[nd++] = k->blocks[b].d;
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
    Work k = {0};
    if (!PyArg_ParseTuple(args, "OO:splitting_types", &coeffs, &primes))
        return NULL;
    if (!(seq = PySequence_Fast(coeffs, "coefficients must be a sequence")))
        return NULL;
    ps = PySequence_Fast(primes, "primes must be a sequence");
    if (ps && work_init(&k, PySequence_Fast_GET_SIZE(seq)) == 0) {
        out = PyList_New(PySequence_Fast_GET_SIZE(ps));
        for (Py_ssize_t j = 0; out && j < PySequence_Fast_GET_SIZE(ps); j++) {
            PyObject *type = degrees(seq, PySequence_Fast_GET_ITEM(ps, j), &k);
            if (!type)
                Py_CLEAR(out);
            else
                PyList_SET_ITEM(out, j, type);
        }
    }
    PyMem_Free(k.buf);
    Py_XDECREF(ps);
    Py_DECREF(seq);
    return out;
}

/* a (length n) as a new list of ints. */
static PyObject *to_list(const u64 *a, Py_ssize_t n)
{
    PyObject *out = PyList_New(n);
    for (Py_ssize_t i = 0; out && i < n; i++) {
        PyObject *c = PyLong_FromUnsignedLongLong(a[i]);
        if (!c)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, c);
    }
    return out;
}

/* Random polynomials drawn per split before split gives up: for p an odd
 * prime a draw fails to split w with probability at most 1/2, so 64
 * failures in a row have probability at most 2^-64 (pure._SPLIT_TRIES). */
#define SPLIT_TRIES 64

/* splitmix64 (Steele, Lea and Flood, OOPSLA 2014), as pure._draws: the
 * next draw from *state, which starts at 0 in each irreducible_factors. */
static u64 splitmix(u64 *state)
{
    u64 z = *state += 0x9E3779B97F4A7C15u;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9u;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBu;
    return z ^ (z >> 31);
}

/* pure._split: a monic factor of w (length lw, monic, a product of
 * irreducibles of degree d) of degree between 0 and deg w, exclusive, into
 * k->g: gcd(r, w) or gcd(N(r)^((p-1)/2) - 1, w) for random r, with the norm
 * N(r) = prod_{i<d} r^(p^i) mod w taken through the Frobenius matrix in
 * k->q of the block (of degree nb) that w divides. Returns its length, or
 * -1 (error set), with ValueError after SPLIT_TRIES draws. */
static Py_ssize_t split(const u64 *w, Py_ssize_t lw, Py_ssize_t d, Py_ssize_t nb, u64 *state, Work *k)
{
    Py_ssize_t n = lw - 1, lr, lg, lt, ln, ls;
    u64 p = k->p, *r = k->r, *t = k->h, *norm = k->nr, *s = k->s;
    for (int i = 0; i < SPLIT_TRIES; i++) {
        for (Py_ssize_t j = 0; j < n; j++)
            r[j] = splitmix(state) % p;
        if (!(lr = trim(r, n)))
            continue;
        if ((lg = gcd(r, lr, w, lw, k->g, k)) < 0)
            return -1;
        if (lg > 1 && lg < lw)
            return lg;
        memcpy(t, r, lr * sizeof *r);
        memcpy(norm, r, lr * sizeof *r);
        lt = ln = lr;
        for (Py_ssize_t j = 1; j < d; j++) {
            lt = divide(t, frobenius(t, lt, nb, k), w, lw, NULL, k);
            ln = mul_rem(norm, ln, t, lt, w, lw, k);
        }
        if (!(ls = pow_rem(norm, ln, (p - 1) / 2, w, lw, s, k)))
            s[ls++] = 0;
        s[0] = subm(s[0], 1, p);
        if ((lg = gcd(s, trim(s, ls), w, lw, k->g, k)) < 0)
            return -1;
        if (lg > 1 && lg < lw)
            return lg;
    }
    PyErr_SetString(PyExc_ValueError, "equal-degree splitting found no factor in 64 draws");
    return -1;
}

/* pure._equal_degree: the irreducible factors of the distinct-degree
 * block b (length lb, factors of degree d) appended to k->factors, split
 * last in, first out as there. 0, or -1 (error set). */
static int equal_degree(const u64 *b, Py_ssize_t lb, Py_ssize_t d, u64 *state, Work *k)
{
    Py_ssize_t top = 1, lg, lq;
    if (lb - 1 == d) {
        push(k->fac, k->factors, &k->nfactors, b, lb, d);
        return 0;
    }
    if (d > 1)
        frobenius_rows(b, lb, k->h, x_pow(k->p, b, lb, k->h, k), k);
    memcpy(k->stk, b, lb * sizeof *b);
    k->stack[0] = (Span){0, lb, d};
    while (top) {
        Span w = k->stack[--top];
        if (w.len - 1 == d) {
            push(k->fac, k->factors, &k->nfactors, k->stk + w.at, w.len, d);
            continue;
        }
        if ((lg = split(k->stk + w.at, w.len, d, lb - 1, state, k)) < 0)
            return -1;
        memcpy(k->t, k->stk + w.at, w.len * sizeof *k->t);
        divide(k->t, w.len, k->g, lg, k->u, k);
        lq = trim(k->u, w.len - lg + 1);
        /* w was on top, so its place and the one residue after it are free. */
        memcpy(k->stk + w.at, k->g, lg * sizeof *k->g);
        memcpy(k->stk + w.at + lg, k->u, lq * sizeof *k->u);
        k->stack[top++] = (Span){w.at, lg, d};
        k->stack[top++] = (Span){w.at + lg, lq, d};
    }
    return 0;
}

/* Whether factor a sorts before factor b: by length, then coefficients
 * from the constant term, as pure's sort key (len(v), v). */
static int sorts_before(Span a, Span b, const u64 *c)
{
    if (a.len != b.len)
        return a.len < b.len;
    for (Py_ssize_t i = 0; i < a.len; i++)
        if (c[a.at + i] != c[b.at + i])
            return c[a.at + i] < c[b.at + i];
    return 0;
}

/* pure.irreducible_factors: the monic irreducible factors of coeffs mod an
 * odd prime q, sorted by (length, coefficients), as a new list. */
static PyObject *irreducible_factors(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *coeffs, *q, *seq, *out = NULL;
    Work k = {0};
    u64 state = 0;
    long long v;
    int overflow, squarefree;
    if (!PyArg_ParseTuple(args, "OO:irreducible_factors", &coeffs, &q))
        return NULL;
    v = PyLong_AsLongLongAndOverflow(q, &overflow);
    if (v == -1 && PyErr_Occurred())
        return NULL;
    if (overflow < 0 || (!overflow && (v < 3 || v % 2 == 0))) {
        PyErr_SetString(PyExc_ValueError, "modulus must be an odd prime");
        return NULL;
    }
    if (!(seq = PySequence_Fast(coeffs, "coefficients must be a sequence")))
        return NULL;
    if (work_init(&k, PySequence_Fast_GET_SIZE(seq)) == 0 && (squarefree = ddf(seq, q, &k)) >= 0) {
        Py_ssize_t b = 0, nf;
        if (!squarefree)
            PyErr_SetString(PyExc_ValueError, "not squarefree mod p");
        else
            for (k.nfactors = 0; b < k.nblocks; b++)
                if (equal_degree(k.blk + k.blocks[b].at, k.blocks[b].len, k.blocks[b].d, &state, &k) < 0)
                    break;
        if (squarefree && b == k.nblocks && (out = PyList_New(nf = k.nfactors))) {
            for (Py_ssize_t i = 1; i < nf; i++) /* insertion sort: a handful of factors */
                for (Py_ssize_t j = i; j > 0 && sorts_before(k.factors[j], k.factors[j - 1], k.fac); j--) {
                    Span s = k.factors[j];
                    k.factors[j] = k.factors[j - 1], k.factors[j - 1] = s;
                }
            for (Py_ssize_t i = 0; out && i < nf; i++) {
                PyObject *f = to_list(k.fac + k.factors[i].at, k.factors[i].len);
                if (!f)
                    Py_CLEAR(out);
                else
                    PyList_SET_ITEM(out, i, f);
            }
        }
    }
    PyMem_Free(k.buf);
    Py_DECREF(seq);
    return out;
}

/* out = a + b, or a - b where neg, mod p, trimmed, for residues a and b;
 * out may alias either. */
static Py_ssize_t add(const u64 *a, Py_ssize_t la, const u64 *b, Py_ssize_t lb, int neg, u64 *out, u64 p)
{
    Py_ssize_t lo = la > lb ? la : lb;
    for (Py_ssize_t i = 0; i < lo; i++) {
        u64 x = i < la ? a[i] : 0, y = i < lb ? b[i] : 0;
        out[i] = neg ? subm(x, y, p) : addm(x, y, p);
    }
    return trim(out, lo);
}

/* r mod f in place with the quotient into q (trimmed, as pure._divmod_mod
 * gives it), for monic f: the remainder's length; *lq the quotient's. */
static Py_ssize_t divmod(u64 *r, Py_ssize_t lr, const u64 *f, Py_ssize_t lf, u64 *q, Py_ssize_t *lq, const Work *k)
{
    Py_ssize_t len = lr - lf + 1 > 0 ? lr - lf + 1 : 0;
    lr = divide(r, lr, f, lf, q, k);
    *lq = trim(q, len);
    return lr;
}

/* The pair that a Hensel step lifts (pure._hensel_step): f = g h and
 * s g + t h = 1 mod the current modulus, h monic, deg s < deg h and
 * deg t < deg g. */
typedef struct {
    u64 *g, *h, *s, *t;
    Py_ssize_t lg, lh, ls, lt;
} Pair;

/* pure._bezout_mod: s and t for the pair's g and h mod p = k->p, into x;
 * 0, or -1 (error set). Uses the nine buffers of tmp. */
static int bezout(Pair *x, u64 *const *tmp, Work *k)
{
    u64 p = k->p, inv, *r0 = tmp[0], *r1 = tmp[1], *s0 = tmp[2], *s1 = tmp[3], *t0 = tmp[4], *t1 = tmp[5],
        *r1m = tmp[6], *qq = tmp[7], *prod = tmp[8], *swap;
    Py_ssize_t l0 = x->lg, l1 = x->lh, ls0 = 1, ls1 = 0, lt0 = 0, lt1 = 1, lq, len;
    memcpy(r0, x->g, l0 * sizeof *r0);
    memcpy(r1, x->h, l1 * sizeof *r1);
    s0[0] = t1[0] = 1;
    while (l1) {
        u64 lead = inv_mod(r1[l1 - 1], p);
        if (!lead) {
            PyErr_SetString(PyExc_ValueError, NOT_INVERTIBLE);
            return -1;
        }
        for (Py_ssize_t i = 0; i < l1; i++)
            r1m[i] = reduce(r1[i] * lead, k);
        len = divmod(r0, l0, r1m, l1, qq, &lq, k);
        for (Py_ssize_t i = 0; i < lq; i++)
            qq[i] = reduce(qq[i] * lead, k);
        swap = r0, r0 = r1, r1 = swap, l0 = l1, l1 = len;
        ls0 = add(s0, ls0, prod, mul(qq, lq, s1, ls1, prod, k), 1, s0, p);
        swap = s0, s0 = s1, s1 = swap, len = ls0, ls0 = ls1, ls1 = len;
        lt0 = add(t0, lt0, prod, mul(qq, lq, t1, lt1, prod, k), 1, t0, p);
        swap = t0, t0 = t1, t1 = swap, len = lt0, lt0 = lt1, lt1 = len;
    }
    if (l0 != 1) {
        PyErr_SetString(PyExc_ValueError, "factors not coprime mod q");
        return -1;
    }
    if (!(inv = inv_mod(r0[0], p))) {
        PyErr_SetString(PyExc_ValueError, NOT_INVERTIBLE);
        return -1;
    }
    for (Py_ssize_t i = 0; i < ls0; i++)
        x->s[i] = reduce(s0[i] * inv, k);
    for (Py_ssize_t i = 0; i < lt0; i++)
        x->t[i] = reduce(t0[i] * inv, k);
    x->ls = ls0, x->lt = lt0;
    return 0;
}

/* pure._hensel_step: lifts the pair x from mod m to mod k->p =
 * min(m^2, target), for f (length lf) reduced mod target, which k->p
 * divides. Uses six buffers of tmp. */
static void hensel_step(const u64 *f, Py_ssize_t lf, Pair *x, u64 *const *tmp, Work *k)
{
    static const u64 one = 1;
    u64 p = k->p, *e = tmp[0], *X = tmp[1], *Y = tmp[2], *Z = tmp[3], *W = tmp[4], *V = tmp[5];
    Py_ssize_t le, lx, ly, lz, lw;
    for (Py_ssize_t i = 0; i < lf; i++)
        V[i] = reduce(f[i], k);
    le = add(V, trim(V, lf), X, mul(x->g, x->lg, x->h, x->lh, X, k), 1, e, p);
    /* q, r = divmod(s e, h) into Z and X; g += t e + q g; h += r */
    lx = divmod(X, mul(x->s, x->ls, e, le, X, k), x->h, x->lh, Z, &lz, k);
    ly = mul(x->t, x->lt, e, le, Y, k);
    ly = add(Y, ly, W, mul(Z, lz, x->g, x->lg, W, k), 0, Y, p);
    x->lg = add(x->g, x->lg, Y, ly, 0, x->g, p);
    x->lh = add(x->h, x->lh, X, lx, 0, x->h, p);
    /* b = s g + t h - 1 into X; c, d = divmod(s b, h) into Z and Y */
    lx = mul(x->s, x->ls, x->g, x->lg, X, k);
    lx = add(X, lx, Y, mul(x->t, x->lt, x->h, x->lh, Y, k), 0, X, p);
    lx = add(X, lx, &one, 1, 1, X, p);
    ly = divmod(Y, mul(x->s, x->ls, X, lx, Y, k), x->h, x->lh, Z, &lz, k);
    /* t -= t b + c g; s -= d */
    lw = mul(x->t, x->lt, X, lx, W, k);
    lw = add(W, lw, e, mul(Z, lz, x->g, x->lg, e, k), 0, W, p);
    x->lt = add(x->t, x->lt, W, lw, 1, x->t, p);
    x->ls = add(x->s, x->ls, Y, ly, 1, x->s, p);
}

/* Whether target = q^j for some j >= 1, for q >= 2. */
static int is_power(long long q, long long target)
{
    long long t = q;
    while (t < target && t <= target / q)
        t *= q;
    return t == target;
}

/* The factors of hensel_lift (a PySequence_Fast of nf sequences) reduced
 * mod q = k->p into buf, trimmed, with their spans: 0, or -1 (error set). */
static int load_factors(PyObject *fs, PyObject *q, u64 *buf, Span *spans, const Work *k)
{
    Py_ssize_t at = 0, len;
    for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(fs); i++) {
        PyObject *u = PySequence_Fast(PySequence_Fast_GET_ITEM(fs, i), "factors must be sequences");
        if (!u)
            return -1;
        len = load_residues(u, q, buf + at, k);
        Py_DECREF(u);
        if (len < 0)
            return -1;
        spans[i] = (Span){at, trim(buf + at, len), 0};
        at += spans[i].len;
    }
    return 0;
}

/* Whether the factors (monic, nonconstant) times lc = f[lf - 1] are f mod
 * q = k->p, for f reduced mod a multiple of q; checked as pure.hensel_lift
 * does, the degrees first, so that no product outgrows its buffer. */
static int lifts_f(const u64 *f, Py_ssize_t lf, const u64 *fac, const Span *spans, Py_ssize_t nf, u64 *const *tmp,
                   const Work *k)
{
    Py_ssize_t degree = 0, lp = 1;
    u64 *prod = tmp[0], *w = tmp[1];
    for (Py_ssize_t i = 0; i < nf; i++) {
        if (spans[i].len < 2 || fac[spans[i].at + spans[i].len - 1] != 1)
            return 0;
        degree += spans[i].len - 1;
    }
    if (nf == 0 || degree != lf - 1)
        return 0;
    prod[0] = f[lf - 1] % k->p;
    for (Py_ssize_t i = 0; i < nf; i++) {
        lp = mul(prod, lp, fac + spans[i].at, spans[i].len, w, k);
        memcpy(prod, w, lp * sizeof *w);
    }
    for (Py_ssize_t i = 0; i < lf; i++)
        w[i] = f[i] % k->p;
    return lp == trim(w, lf) && !memcmp(prod, w, lp * sizeof *w);
}

/* pure.hensel_lift: the factors of coeffs mod q lifted to mod target, as
 * a new list; OverflowError where q or target fails lazy_fits at deg F. */
static PyObject *hensel_lift(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *coeffs, *factors, *qo, *to, *seq = NULL, *fs = NULL, *out = NULL;
    long long q, target;
    int oq, ot;
    Py_ssize_t n, nf = 0, lf, total = 0, width;
    Work k = {0};
    u64 *buf = NULL, *f, *lifted, *fac, *tmp[9], inv;
    Span *spans = NULL;
    Pair x;
    if (!PyArg_ParseTuple(args, "OOOO:hensel_lift", &coeffs, &factors, &qo, &to))
        return NULL;
    if ((q = PyLong_AsLongLongAndOverflow(qo, &oq)) == -1 && PyErr_Occurred())
        return NULL;
    if (oq < 0 || (!oq && q < 2)) {
        PyErr_SetString(PyExc_ValueError, "modulus must be a prime >= 2");
        return NULL;
    }
    if ((target = PyLong_AsLongLongAndOverflow(to, &ot)) == -1 && PyErr_Occurred())
        return NULL;
    if (oq > 0 || ot > 0) {
        PyErr_SetString(PyExc_OverflowError, "modulus too large for the compiled kernel");
        return NULL;
    }
    if (ot < 0 || !is_power(q, target)) {
        PyErr_SetString(PyExc_ValueError, "target must be a power of q");
        return NULL;
    }
    if (!(seq = PySequence_Fast(coeffs, "coefficients must be a sequence"))
        || !(fs = PySequence_Fast(factors, "factors must be a sequence")))
        goto done;
    n = PySequence_Fast_GET_SIZE(seq) - 1;
    if (!lazy_fits((u64)target, n)) {
        PyErr_SetString(PyExc_OverflowError, "modulus too large for the compiled kernel");
        goto done;
    }
    nf = PySequence_Fast_GET_SIZE(fs);
    for (Py_ssize_t i = 0; i < nf; i++) {
        Py_ssize_t len = PySequence_Size(PySequence_Fast_GET_ITEM(fs, i));
        if (len < 0)
            goto done;
        total += len;
    }
    width = 2 * n + 4;
    buf = PyMem_Calloc(15 * width + total, sizeof *buf);
    spans = PyMem_Calloc(nf + 1, sizeof *spans);
    if (!buf || !spans) {
        PyErr_NoMemory();
        goto done;
    }
    f = buf, lifted = buf + width, fac = buf + 15 * width;
    x.g = buf + 2 * width, x.h = buf + 3 * width, x.s = buf + 4 * width, x.t = buf + 5 * width;
    for (int i = 0; i < 9; i++)
        tmp[i] = buf + (6 + i) * width;
    set_p(&k, (u64)target);
    if ((lf = load(seq, to, f, &k)) < 0)
        goto done;
    set_p(&k, (u64)q);
    if (f[lf - 1] % k.p == 0) {
        PyErr_SetString(PyExc_ValueError, "leading coefficient divisible by p");
        goto done;
    }
    if (load_factors(fs, qo, fac, spans, &k) < 0)
        goto done;
    if (!lifts_f(f, lf, fac, spans, nf, tmp, &k)) {
        PyErr_SetString(PyExc_ValueError, "factors must be monic and nonconstant mod q, with lc(F) times their product F");
        goto done;
    }
    /* As pure.hensel_lift: peel off one factor at a time; f becomes the
     * lifted rest, and the lifted factors go to `lifted`. */
    for (Py_ssize_t i = 0; i + 1 < nf; i++) {
        u64 m = (u64)q;
        set_p(&k, m);
        x.lh = spans[i].len;
        memcpy(x.h, fac + spans[i].at, x.lh * sizeof *x.h);
        x.g[0] = f[lf - 1] % k.p, x.lg = 1;
        for (Py_ssize_t j = i + 1; j < nf; j++) {
            x.lg = mul(x.g, x.lg, fac + spans[j].at, spans[j].len, tmp[0], &k);
            memcpy(x.g, tmp[0], x.lg * sizeof *x.g);
        }
        if (bezout(&x, tmp, &k) < 0)
            goto done;
        while (m < (u64)target) {
            m = m * m < (u64)target ? m * m : (u64)target;
            set_p(&k, m);
            hensel_step(f, lf, &x, tmp, &k);
        }
        spans[i] = (Span){i ? spans[i - 1].at + spans[i - 1].len : 0, x.lh, 0};
        memcpy(lifted + spans[i].at, x.h, x.lh * sizeof *x.h);
        memcpy(f, x.g, x.lg * sizeof *f);
        lf = x.lg;
    }
    set_p(&k, (u64)target);
    if (!(inv = inv_mod(f[lf - 1], k.p))) {
        PyErr_SetString(PyExc_ValueError, NOT_INVERTIBLE);
        goto done;
    }
    spans[nf - 1] = (Span){nf > 1 ? spans[nf - 2].at + spans[nf - 2].len : 0, lf, 0};
    for (Py_ssize_t i = 0; i < lf; i++)
        lifted[spans[nf - 1].at + i] = reduce(f[i] * inv, &k);
    spans[nf - 1].len = trim(lifted + spans[nf - 1].at, lf);
    out = PyList_New(nf);
    for (Py_ssize_t i = 0; out && i < nf; i++) {
        PyObject *u = to_list(lifted + spans[i].at, spans[i].len);
        if (!u)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, u);
    }
done:
    PyMem_Free(buf);
    PyMem_Free(spans);
    Py_XDECREF(fs);
    Py_XDECREF(seq);
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
    {"irreducible_factors", irreducible_factors, METH_VARARGS,
     "The monic irreducible factors of coeffs mod the odd prime q, sorted\n"
     "by (length, coefficients)."},
    {"hensel_lift", hensel_lift, METH_VARARGS,
     "The monic factors of coeffs mod q lifted to mod target = q^k, in order."},
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
