import importlib.util
import math
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from sympy import nextprime, prevprime
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_ddf_zassenhaus, gf_factor_sqf, gf_irreducible_p, gf_mul, gf_sqf_p

from hyperfield import _kernels, factor
from hyperfield._kernels import pure
from hyperfield.factor import primes_not_dividing
from hyperfield.intpoly import IntPolynomial, discriminant
from oracles import gcd_mod

SRC = Path(__file__).parent.parent / "src"
SYSTEM_PATH = "/usr/bin:/bin"

PROBE = (
    "from hyperfield._kernels import BACKEND, ddf_degrees, hensel_lift, irreducible_factors, splitting_types;"
    "f = [-1, 0, 0, 0, 1];"
    "print(BACKEND, ddf_degrees([1,1,0,1], 2), splitting_types([1,0,1], [3, 5]), irreducible_factors(f, 5),"
    " hensel_lift(f, irreducible_factors(f, 5), 5, 125))"
)
# What PROBE prints after the backend: x^4 - 1 splits into linear factors
# mod 5, lifted to the roots 1, -1 and +-57 of x^4 - 1 mod 125.
PROBE_ANSWERS = "[3] [[2], [1, 1]] [[1, 1], [2, 1], [3, 1], [4, 1]] [[1, 1], [57, 1], [68, 1], [124, 1]]"

REASON_PROBE = "from hyperfield._kernels import BACKEND, PURE_REASON; print(BACKEND, PURE_REASON, sep='|')"

HAS_HEADERS = os.path.exists(os.path.join(_kernels._INCLUDE, "Python.h"))
needs_cc = pytest.mark.skipif(
    shutil.which("cc") is None or not HAS_HEADERS, reason="no C compiler on PATH or no Python headers"
)


def _probe(env_extra, src=SRC, code=PROBE):
    env = {"PYTHONPATH": str(src), "PATH": SYSTEM_PATH, **env_extra}
    for name in ("HOME", "XDG_CACHE_HOME"):
        if name in os.environ:
            env.setdefault(name, os.environ[name])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_default_backend_prefers_compiled():
    out = _probe({})
    expected = "c" if shutil.which("cc", path=SYSTEM_PATH) and HAS_HEADERS else "pure"
    assert out == f"{expected} {PROBE_ANSWERS}"
    if expected == "c":
        assert _probe({}, code=REASON_PROBE) == "c|None"


def test_pure_fallback_selected_by_env():
    out = _probe({"HYPERFIELD_PURE": "1"})
    assert out == f"pure {PROBE_ANSWERS}"
    assert _probe({"HYPERFIELD_PURE": "1"}, code=REASON_PROBE) == "pure|HYPERFIELD_PURE is set"


def test_backends_give_same_answers_everywhere():
    # the main parity sweeps live in test_factor and TestZassenhausKernels;
    # this is the quick seam check, in a fresh interpreter on each backend
    answers = {_probe({}).partition(" ")[2], _probe({"HYPERFIELD_PURE": "1"}).partition(" ")[2]}
    assert answers == {PROBE_ANSWERS}
    assert _kernels.ddf_degrees([1, 0, 1], 5) == [1, 1]
    assert _kernels.splitting_types([1, 0, 1], [3, 5]) == [[2], [1, 1]]
    assert (_kernels.PURE_REASON is None) == (_kernels.BACKEND == "c")


def test_no_compiler_falls_back_to_pure(tmp_path):
    empty = tmp_path / "bin"
    empty.mkdir()
    env = {"XDG_CACHE_HOME": str(tmp_path / "cache"), "PATH": str(empty)}
    assert _probe(env).split()[0] == "pure"
    assert _probe(env, code=REASON_PROBE) == "pure|no C compiler: cc is not on PATH"


def test_failed_compile_reports_the_compiler_error(tmp_path):
    fake = tmp_path / "bin"
    fake.mkdir()
    (fake / "cc").write_text(
        "#!/bin/sh\n"
        "echo 'x.c:1:10: fatal error: Python.h: No such file or directory' >&2\n"
        "echo 'compilation terminated.' >&2\n"
        "exit 1\n"
    )
    (fake / "cc").chmod(0o755)
    out = _probe({"XDG_CACHE_HOME": str(tmp_path / "cache"), "PATH": str(fake)}, code=REASON_PROBE)
    assert out == "pure|cc failed: x.c:1:10: fatal error: Python.h: No such file or directory"


def test_unwritable_cache_falls_back_to_pure(tmp_path):
    blocker = tmp_path / "cache"
    blocker.write_text("a file where the cache directory should be")
    out = _probe({"XDG_CACHE_HOME": str(blocker)}, code=REASON_PROBE)
    assert out.startswith("pure|cannot build or load the C kernel: ")


@needs_cc
def test_warm_cache_needs_no_compiler(tmp_path):
    cache = tmp_path / "cache"
    assert _probe({"XDG_CACHE_HOME": str(cache), "PATH": os.environ["PATH"]}).split()[0] == "c"
    built = list((cache / "hyperfield").iterdir())
    assert len(built) == 1 and built[0].name.startswith("_speed-")
    assert _probe({"XDG_CACHE_HOME": str(cache), "PATH": ""}).split()[0] == "c"


@needs_cc
def test_parallel_first_imports_share_one_cache_file(tmp_path):
    cache = tmp_path / "cache"
    env = {"PYTHONPATH": str(SRC), "PATH": os.environ["PATH"], "XDG_CACHE_HOME": str(cache)}
    procs = [
        subprocess.Popen([sys.executable, "-c", PROBE], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
        for _ in range(2)
    ]
    outs = [proc.communicate(timeout=300) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], outs
    assert [out.split()[0] for out, _ in outs] == ["c", "c"]
    assert [p.name for p in (cache / "hyperfield").iterdir()] == [os.path.basename(_kernels.cache_path(
        (SRC / "hyperfield" / "_kernels" / "_speed.c").read_bytes()))]


@needs_cc
def test_cache_key_follows_the_source(tmp_path):
    cache = tmp_path / "cache"
    copy = tmp_path / "src"
    shutil.copytree(SRC / "hyperfield", copy / "hyperfield", ignore=shutil.ignore_patterns("__pycache__"))
    env = {"XDG_CACHE_HOME": str(cache), "PATH": os.environ["PATH"]}
    assert _probe(env, copy).split()[0] == "c"
    source = copy / "hyperfield" / "_kernels" / "_speed.c"
    first = _kernels.cache_path(source.read_bytes())
    with source.open("a") as fh:
        fh.write("/* edited */\n")
    second = _kernels.cache_path(source.read_bytes())
    assert first != second
    assert _probe(env, copy).split()[0] == "c"
    assert sorted(p.name for p in (cache / "hyperfield").iterdir()) == sorted(
        os.path.basename(p) for p in (first, second)
    )


@needs_cc
def test_cache_open_to_other_users_is_not_loaded(tmp_path):
    # a file another user owns or may write could be a planted module
    cache = tmp_path / "cache"
    env = {"XDG_CACHE_HOME": str(cache), "PATH": os.environ["PATH"]}
    assert _probe(env).split()[0] == "c"
    folder = cache / "hyperfield"
    (built,) = folder.iterdir()
    assert folder.stat().st_mode & 0o777 == 0o700 and built.stat().st_mode & 0o777 == 0o700
    for target in (built, folder):
        target.chmod(0o722)
        assert _probe(env).split()[0] == "pure"
        assert _probe(env, code=REASON_PROBE).endswith(f"{target} is not private to this user")
        target.chmod(0o700)
    assert _probe(env).split()[0] == "c"
    if os.getuid() == 0:  # only root can hand the file to another user
        os.chown(built, 65534, 65534)
        assert _probe(env).split()[0] == "pure"


@needs_cc
def test_kernel_compiles_without_warnings(tmp_path):
    command = [*_kernels._COMPILE_COMMAND, "-Wall", "-Wextra", "-Werror", _kernels._SOURCE, "-o", str(tmp_path / "k.so")]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def _compiled():
    """The compiled C kernel module, or None where it cannot be built."""
    if shutil.which("cc") is None or not HAS_HEADERS:
        return None
    compiled, why = _kernels.load_compiled()
    assert compiled is not None, f"a C compiler and Python.h exist but _speed.c did not compile or load: {why}"
    return compiled


def test_bench_kernels_backends_agree():
    """benchmarks/bench_kernels.py still runs on the kernel API: its kernel
    workload gives the same outputs on both backends (a smoke size; the
    full script takes about a minute)."""
    compiled = _compiled()
    if compiled is None:
        pytest.skip("no C compiler on PATH or no Python headers")
    spec = importlib.util.spec_from_file_location("bench_kernels", SRC.parent / "benchmarks" / "bench_kernels.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    cases = bench.workload(50)
    outs, _ = bench.run(pure, cases)
    assert [len(rows) for rows in outs] == [50, 2]
    assert bench.run(compiled, cases)[0] == outs
    # the gcd rows: the monic Euclid and the pseudo-remainder gcd agree
    # (gcd_rows asserts it)
    assert [(d, name) for d, name, _, _ in bench.gcd_rows(count=5)] == [
        (d, name) for d in bench.GCD_DEGREES for name, _ in bench.GCD_MODULI]
    # the discriminant rows: the PRS oracle and the modular path on both
    # backends agree (resultant_rows asserts it) on a few members per box
    selected, real_lift = _kernels.impl, factor.hensel_lift_factors
    rows = bench.resultant_rows([pure, compiled], count=5)
    assert [(name, n) for name, n, _, _ in rows] == [("census", 4), ("iso", 6), ("n5", 5)]
    assert _kernels.impl is selected  # resultant_rows restores the backend
    # the Zassenhaus rows: both kernels agree on both backends
    # (zassenhaus_rows asserts it), on the lifts of a few polynomials each
    rows = bench.zassenhaus_rows([pure, compiled], count=8)
    assert [name for name, _, _, _ in rows] == ["census", "iso", "certify"]
    assert all(lifts > 0 and set(times) == {"irreducible_factors", "hensel_lift"} for _, _, lifts, times in rows)
    assert factor.hensel_lift_factors is real_lift  # zassenhaus_cases restores the name


def _backends(p: int, n: int):
    """pure.py, and the C kernel wherever it can be built: the compiled
    module where it takes p at degree n, else the dispatcher in
    hyperfield._kernels, which hands p to pure.py."""
    compiled = _compiled()
    if compiled is None:
        return [pure]
    return [pure, compiled if p <= _lazy_bound(n) else _kernels]


def _lazy_bound(n: int) -> int:
    """The largest modulus p with n (p-1)^2 + (p-1) < 2^64 and p - 1 < 2^32:
    up to it the C kernel delays reduction at degree n (lazy_fits)."""
    s = min(math.isqrt((2**64 - 1) // n), 2**32 - 1)
    while n * s * s + s > 2**64 - 1:
        s -= 1
    return s + 1


def _irreducible(rng, p: int, d: int, avoid) -> list[int]:
    """A monic irreducible of degree d mod p (descending, as in sympy), not
    in avoid; certified by sympy's irreducibility test."""
    while True:
        f = [1] + [rng.randrange(p) for _ in range(d)]
        if f not in avoid and gf_irreducible_p(f, p, ZZ):
            return f


class TestKnownSplittingTypes:
    """Both backends against factor-degree multisets that neither computes:
    products of distinct irreducibles mod p with known degrees, and sympy's
    own distinct-degree factorization at the moduli on either side of the
    C kernel's delayed-reduction bound, past which the compiled module
    declines and the dispatcher answers from pure.py."""

    PRIMES = [2, 3, 547, 65537, 2**31 - 1, 2**61 - 1]
    # Repeated degrees, so that factors are divided out of f inside the loop;
    # the R_t shapes of degree 36 (the orbits 6 + 30 of S_6 on ordered pairs).
    # One irreducible of degree 36 only at p = 2 and 3: sympy takes seconds
    # to find one at the larger primes.
    SHAPES = [(1, 1, 2, 3, 3, 4, 4), (1, 1, 5, 5), (3, 3, 4, 4, 4), (6, 30), (6, 6, 12, 12)]

    @pytest.mark.parametrize("p", PRIMES)
    def test_products_of_irreducibles(self, p):
        rng = random.Random(p)
        for shape in self.SHAPES + [(36,)] * (p <= 3):
            factors = []
            for d in shape:
                factors.append(_irreducible(rng, p, d, factors))
            product = [1]
            for f in factors:
                product = gf_mul(product, f, p, ZZ)
            coeffs = product[::-1]
            expected = sorted(shape, reverse=True)
            for backend in _backends(p, sum(shape)):
                assert backend.splitting_types(coeffs, [p]) == [expected], (backend.BACKEND, p, shape)
                assert backend.splitting_types(coeffs, [p, p]) == [expected, expected]

    @pytest.mark.parametrize("n", [4, 12, 36])
    def test_moduli_at_the_delayed_reduction_bound(self, n):
        bound = _lazy_bound(n)
        compiled = _compiled()
        for p in (prevprime(bound + 1), nextprime(bound)):
            coeffs = [p - 1] * n + [1]  # every residue below the top at its largest
            f = coeffs[::-1]
            assert gf_sqf_p(f, p, ZZ)
            expected = sorted((d for g, d in gf_ddf_zassenhaus(f, p, ZZ) for _ in range((len(g) - 1) // d)), reverse=True)
            for backend in dict.fromkeys([*_backends(p, n), _kernels]):
                assert backend.splitting_types(coeffs, [p]) == [expected], (backend.BACKEND, n, p)
            assert _kernels.ddf_degrees(coeffs, p) == expected, (n, p)
            if compiled is not None and p > bound:
                with pytest.raises(OverflowError):
                    compiled.splitting_types(coeffs, [p])


@pytest.mark.parametrize("n", [1, 2])
def test_random_polynomials_at_the_bound_of_degrees_1_and_2(n):
    """The C kernel against pure.py at the largest prime it takes at degree
    n and at the first one it declines. At degree 2 a step of its gcd sums
    c x_i + (p - t) y_i, up to 2 (p-1)^2, for p near 3.04e9: the edge of
    lazy_fits. Past the bound the dispatcher answers from pure.py."""
    compiled = _compiled()
    if compiled is None:
        pytest.skip("no C compiler on PATH or no Python headers")
    bound = _lazy_bound(n)
    rng = random.Random(n)
    for p in (prevprime(bound + 1), nextprime(bound)):
        polys = [[p - 1] * n + [1], [p - 1] * (n + 1)]
        polys += [[rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)] for _ in range(300)]
        factor_counts = set()
        for coeffs in polys:
            want = pure.splitting_types(coeffs, [p])
            factor_counts.add(len(want[0] or ()))
            if p <= bound:
                assert compiled.splitting_types(coeffs, [p]) == want, (coeffs, p)
            else:
                with pytest.raises(OverflowError):
                    compiled.splitting_types(coeffs, [p])
                assert _kernels.splitting_types(coeffs, [p]) == want, (coeffs, p)
        assert set(range(1, n + 1)) <= factor_counts  # irreducible and split F both occur


class TestPseudoRemainderGcd:
    """pure._gcd_mod, Euclid by pseudo-remainders, against the monic Euclid
    of tests/oracles.py, at primes from 3 to 2^61 - 1."""

    PRIMES = [3, 5, 13, 101, 65537, 2**31 - 1, 2**32 - 5, 2**61 - 1]

    @staticmethod
    def _poly(rng, p: int, d: int) -> list[int]:
        """A random polynomial of degree d mod p, reduced; [] for d = -1."""
        return [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)] if d >= 0 else []

    @pytest.mark.parametrize("p", PRIMES)
    def test_matches_the_monic_euclid(self, p):
        rng = random.Random(p)
        cases = [([], []), ([], [1]), ([1], []), ([p - 1], [p - 1])]
        for _ in range(200):
            a, b = self._poly(rng, p, rng.randint(-1, 12)), self._poly(rng, p, rng.randint(-1, 12))
            if rng.random() < 0.5:  # a common factor, so that the gcd is not 1
                g = self._poly(rng, p, rng.randint(1, 4))
                a, b = pure._mul_mod(a, g, p), pure._mul_mod(b, g, p)
            cases += [(a, b), (b, a), (a, a), (a, []), ([], b), (a, self._poly(rng, p, 0))]
        degrees = set()
        for a, b in cases:
            got = pure._gcd_mod(a, b, p)
            assert got == gcd_mod(a, b, p), (a, b, p)
            degrees.add(len(got) - 1)
        assert {-1, 0, 1, 2, 3, 4} <= degrees


def _by_length(factors):
    """factors sorted as irreducible_factors returns them."""
    return sorted(factors, key=lambda v: (len(v), v))


def _squarefree_cases(rng, count: int, max_degree: int, primes: int = 2):
    """(coeffs, q) for `count` random integer polynomials of degree 2 to
    max_degree, each at its first `primes` odd good primes (not dividing
    lc * Disc)."""
    cases = []
    while len(cases) < count * primes:
        d = rng.choice([rng.randint(2, 12), rng.randint(2, max_degree)])
        coeffs = [rng.randint(-30, 30) for _ in range(d)] + [rng.choice([1, 2, 3, -1])]
        disc = discriminant(IntPolynomial(coeffs))
        if disc:
            cases += [(coeffs, q) for q in primes_not_dividing(coeffs[-1] * disc, primes, start=3)]
    return cases


def _outcome(kernel, *args):
    try:
        return kernel(*args)
    except ValueError as e:
        return ("ValueError", str(e))


class TestZassenhausKernels:
    """irreducible_factors and hensel_lift keep one contract on both
    backends: the same factors and lifts, and the same ValueError
    messages. Past the C kernel's bound (lazy_fits of target at deg F for
    the lift) the compiled module raises OverflowError and the dispatcher
    in hyperfield._kernels answers from pure.py."""

    def test_irreducible_factors_match_sympy(self):
        rng = random.Random(11)
        counts = set()
        for coeffs, q in _squarefree_cases(rng, 80, 36):
            want = _by_length(
                [[int(c) for c in reversed(g)] for g in gf_factor_sqf([c % q for c in reversed(coeffs)], q, ZZ)[1]])
            for backend in _backends(q, len(coeffs) - 1):
                assert backend.irreducible_factors(coeffs, q) == want, (backend.BACKEND, coeffs, q)
            counts.add(min(len(want), 5))
        assert counts == {1, 2, 3, 4, 5}

    @pytest.mark.parametrize("p", [3, 547, 65537])
    def test_products_of_irreducibles_of_equal_degree(self, p):
        # Several factors of one degree, so that Cantor-Zassenhaus splits
        # each distinct-degree block more than once.
        rng = random.Random(p)
        for shape in [(1, 1, 1, 2, 3, 3), (1, 1, 2, 3, 3, 4, 4), (3, 3, 4, 4, 4), (6, 6, 12, 12), (2, 2, 2, 5, 5)]:
            factors = []
            for d in shape:
                factors.append(_irreducible(rng, p, d, factors))
            product = [1]
            for f in factors:
                product = gf_mul(product, f, p, ZZ)
            want = _by_length([f[::-1] for f in factors])
            for backend in _backends(p, sum(shape)):
                assert backend.irreducible_factors(product[::-1], p) == want, (backend.BACKEND, p, shape)

    def test_irreducible_factors_errors_match(self):
        compiled = _compiled()
        if compiled is None:
            pytest.skip("no C compiler on PATH or no Python headers")
        rng = random.Random(12)
        errors = set()
        for _ in range(600):
            q = rng.choice([3, 5, 7, 13, 101, 2, 4, 1, 0, -3, 9, 15, 2**61 - 1])
            a = [rng.randint(-5, 5) for _ in range(rng.randint(0, 4))] + [rng.choice([1, 2, q or 1])]
            f = pure._mul_mod(a, a, 2**64) if rng.random() < 0.3 else a  # a square: not squarefree
            want = _outcome(pure.irreducible_factors, f, q)
            backend = compiled if q <= _lazy_bound(max(len(f) - 1, 1)) else _kernels
            assert _outcome(backend.irreducible_factors, f, q) == want, (f, q)
            if isinstance(want, tuple):
                errors.add(want[1])
        assert errors == {
            "modulus must be an odd prime",
            "leading coefficient divisible by p",
            "constant polynomial mod p",
            "not squarefree mod p",
            "base is not invertible for the given modulus",
        }

    def test_hensel_lift_on_both_sides_of_the_bound(self):
        compiled = _compiled()
        rng = random.Random(13)
        declined = 0
        for coeffs, q in _squarefree_cases(rng, 40, 36, primes=1):
            n = len(coeffs) - 1
            factors = pure.irreducible_factors(coeffs, q)
            top = int(math.log(_lazy_bound(n), q))
            while q ** (top + 1) <= _lazy_bound(n):
                top += 1
            for k in {1, 2, top, top + 1}:
                target = q**k
                lifted = pure.hensel_lift(coeffs, factors, q, target)
                assert [[c % q for c in v] for v in lifted] == factors
                assert all(v[-1] == 1 for v in lifted)
                product = [coeffs[-1] % target]
                for v in lifted:
                    product = pure._mul_mod(product, v, target)
                assert product == pure._reduce(coeffs, target), (coeffs, q, k)
                assert _kernels.hensel_lift(coeffs, factors, q, target) == lifted
                if compiled is None:
                    continue
                if target <= _lazy_bound(n):
                    assert compiled.hensel_lift(coeffs, factors, q, target) == lifted, (coeffs, q, k)
                else:
                    declined += 1
                    with pytest.raises(OverflowError):
                        compiled.hensel_lift(coeffs, factors, q, target)
        assert compiled is None or declined == 40

    def test_hensel_lift_errors_match(self):
        compiled = _compiled()
        if compiled is None:
            pytest.skip("no C compiler on PATH or no Python headers")
        f = [-1, 0, 0, 0, 1]  # (x - 1)(x - 2)(x - 3)(x - 4) mod 5
        good = [[4, 1], [3, 1], [2, 1], [1, 1]]
        cases = {
            "modulus must be a prime >= 2": [(f, good, 1, 1), (f, good, -5, 25)],
            "target must be a power of q": [(f, good, 5, 100), (f, good, 5, 1), (f, good, 5, -25), (f, good, 5, 0)],
            "leading coefficient divisible by p": [([1, 0, 5], good, 5, 25), ([], good, 5, 25)],
            "factors must be monic and nonconstant mod q, with lc(F) times their product F": [
                (f, [], 5, 25), (f, good[:3], 5, 25), (f, [[4, 2], [3, 1], [2, 1], [1, 1]], 5, 25),
                (f, [[1]] + good, 5, 25), (f, [[4, 1], [3, 1], [2, 1], [2, 1]], 5, 25),
            ],
            "factors not coprime mod q": [([1, 2, 1], [[1, 1], [1, 1]], 5, 25)],
            # (x + 1)(x + 4) mod 9: the remainder 3 of Euclid is not a unit
            "base is not invertible for the given modulus": [([4, 5, 1], [[1, 1], [4, 1]], 9, 81)],
        }
        for message, calls in cases.items():
            for args in calls:
                assert _outcome(pure.hensel_lift, *args) == ("ValueError", message), args
                assert _outcome(compiled.hensel_lift, *args) == ("ValueError", message), args
        # factors are reduced mod q first: these are `good`
        unreduced = (f, [[4, 1, 0, 0], [-2, 1], [2, 1], [1, 1, 5]], 5, 625)
        assert compiled.hensel_lift(*unreduced) == pure.hensel_lift(*unreduced) == pure.hensel_lift(f, good, 5, 625)

    def test_odd_composite_moduli_end_in_value_error(self):
        # Both backends take the same steps at a composite modulus: the same
        # ValueError, or the same (meaningless) factors and lift, each within
        # 10 s.
        backends = [pure] + ([_kernels] if _compiled() else [])
        rng = random.Random(14)
        errors = cases = 0
        for q in (9, 15, 21, 25, 27, 45, 49, 1001, 3**19, 999_999_999):
            for _ in range(12):
                coeffs = [rng.randint(-50, 50) for _ in range(rng.randint(2, 24))] + [1]
                outcomes = []
                for backend in backends:
                    start = time.perf_counter()
                    got = _outcome(backend.irreducible_factors, coeffs, q)
                    if isinstance(got, list):
                        got = (got, _outcome(backend.hensel_lift, coeffs, got, q, q**3))
                    assert time.perf_counter() - start < 10, (backend.BACKEND, coeffs, q)
                    outcomes.append(got)
                assert all(o == outcomes[0] for o in outcomes), (coeffs, q)
                errors += outcomes[0][0] == "ValueError"
                cases += 1
        assert errors >= 0.9 * cases

    def test_split_gives_up_after_bounded_draws(self):
        # x^2 + 1 is irreducible mod 3, so no draw splits it into "degree 1"
        # factors: _equal_degree stops after _SPLIT_TRIES draws.
        draws = pure._draws()
        counted = []

        def counting():
            for z in draws:
                counted.append(z)
                yield z

        with pytest.raises(ValueError, match="equal-degree splitting found no factor"):
            pure._equal_degree([1, 0, 1], 1, 3, counting())
        assert len(counted) == 2 * pure._SPLIT_TRIES

    def test_draws_are_splitmix64(self):
        # The published first outputs of splitmix64 from seed 0.
        draws = pure._draws()
        assert [next(draws) for _ in range(3)] == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
