import importlib.util
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from sympy import nextprime, prevprime
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_ddf_zassenhaus, gf_irreducible_p, gf_mul, gf_sqf_p

from hyperfield import _kernels
from hyperfield._kernels import pure
from oracles import gcd_mod

SRC = Path(__file__).parent.parent / "src"
SYSTEM_PATH = "/usr/bin:/bin"

PROBE = (
    "from hyperfield._kernels import BACKEND, ddf_degrees, splitting_types;"
    "print(BACKEND, ddf_degrees([1,1,0,1], 2), splitting_types([1,0,1], [3, 5]))"
)

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
    assert out == f"{expected} [3] [[2], [1, 1]]"
    if expected == "c":
        assert _probe({}, code=REASON_PROBE) == "c|None"


def test_pure_fallback_selected_by_env():
    out = _probe({"HYPERFIELD_PURE": "1"})
    assert out == "pure [3] [[2], [1, 1]]"
    assert _probe({"HYPERFIELD_PURE": "1"}, code=REASON_PROBE) == "pure|HYPERFIELD_PURE is set"


def test_backends_give_same_answers_everywhere():
    # the main parity sweep lives in test_factor; this is the quick seam check
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
    selected = _kernels.impl
    rows = bench.resultant_rows([pure, compiled], count=5)
    assert [(name, n) for name, n, _, _ in rows] == [("census", 4), ("iso", 6), ("n5", 5)]
    assert _kernels.impl is selected  # resultant_rows restores the backend


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
