"""Kernel backend selection: the C kernel in _speed.c, or pure.py.

On first import, _speed.c is compiled with the system C compiler into
``${XDG_CACHE_HOME:-~/.cache}/hyperfield/_speed-<key><EXT_SUFFIX>``,
where <key> is the sha256 of the source, the compile command and the
extension suffix; later imports load that file. Any failure (no
compiler or Python headers, an unwritable cache, a compile error or
timeout) selects the pure-Python kernels, and so does a cache directory
or file that another user owns or may write. Set HYPERFIELD_PURE=1 to
force them. PURE_REASON says why the pure kernels are in use (the
compiler's error line, for a failed compile), and is None on the C
backend. The C kernel takes a modulus p for a polynomial of degree n
(for resultants, the larger of the two degrees) when
n (p-1)^2 + (p-1) < 2^64, so that it can delay reduction (p <= 2^31
at degree 4, about 7.2e8 at degree 36, any p < 2^28 up to degree 255);
it raises OverflowError for any other, and those go to pure.py.

Both backends export two kernels:

- splitting_types(coeffs, primes): the factor degrees of coeffs mod each
  prime, from one call, with None at a prime where coeffs is not
  squarefree. For p prime and not dividing the leading coefficient, p is
  marked exactly when it divides Disc(coeffs), so factor's good-prime
  walk needs no Disc. ddf_degrees(coeffs, p), the degrees at one prime,
  is defined here on top of it and raises ValueError where it would be
  None.
- resultants(a, b, primes): Res(a, b) mod each prime, from one call,
  which intpoly.resultant combines by the Chinese remainder theorem. It
  raises the ValueError of splitting_types where p < 2 or p divides a
  leading coefficient.
"""
import hashlib
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, ModuleSpec

from . import pure

_SOURCE = os.path.join(os.path.dirname(__file__), "_speed.c")
_EXT_SUFFIX = EXTENSION_SUFFIXES[0]
_COMPILE_TIMEOUT_S = 120
# sysconfig's "include" path of the posix_prefix scheme, without importing
# sysconfig on every start.
_INCLUDE = os.path.join(sys.base_prefix, "include", f"python{sys.version_info[0]}.{sys.version_info[1]}{sys.abiflags}")
_COMPILE_COMMAND = ("cc", "-O2", "-shared", "-fPIC", f"-I{_INCLUDE}")


def cache_path(source: bytes) -> str:
    """Where the module compiled from `source` is cached."""
    key = hashlib.sha256(b"\0".join([source, " ".join(_COMPILE_COMMAND).encode(), _EXT_SUFFIX.encode()]))
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(cache, "hyperfield", f"_speed-{key.hexdigest()}{_EXT_SUFFIX}")


def _private(path: str) -> bool:
    """Whether path belongs to this user and no one else may write it."""
    st = os.stat(path)
    return st.st_uid == os.getuid() and not st.st_mode & 0o022


def _compiler_diagnostic(stderr: str) -> str:
    """The compiler's first error line, else its last line of output."""
    lines = [line.strip() for line in stderr.splitlines() if line.strip()]
    return next((line for line in lines if "error" in line), lines[-1] if lines else "no output")


def _compile(path: str) -> str | None:
    """Compile _speed.c into path; None on success, else why it failed."""
    import subprocess  # only on a cache miss: it costs milliseconds to import

    cc = _COMPILE_COMMAND[0]
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        try:
            proc = subprocess.run([*_COMPILE_COMMAND, _SOURCE, "-o", tmp], timeout=_COMPILE_TIMEOUT_S, text=True,
                                  stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        except FileNotFoundError:
            return f"no C compiler: {cc} is not on PATH"
        except subprocess.TimeoutExpired:
            return f"{cc} timed out after {_COMPILE_TIMEOUT_S} s"
        if proc.returncode:
            return f"{cc} failed: {_compiler_diagnostic(proc.stderr)}"
        os.chmod(tmp, 0o700)  # whatever the umask, _private accepts it
        os.replace(tmp, path)  # atomic: a parallel import sees no partial file
        return None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_compiled():
    """(the C kernel module, None), compiled first on a cache miss; or
    (None, why not) if it cannot be compiled or loaded, or if the cache
    directory or file is not private to this user (another user could
    plant code there)."""
    try:
        with open(_SOURCE, "rb") as fh:
            path = cache_path(fh.read())
        folder = os.path.dirname(path)
        os.makedirs(folder, mode=0o700, exist_ok=True)
        if not _private(folder):
            return None, f"cache directory {folder} is not private to this user"
        why = None if os.path.exists(path) else _compile(path)
        if why:
            return None, why
        if not _private(path):
            return None, f"cached module {path} is not private to this user"
        loader = ExtensionFileLoader(f"{__name__}._speed", path)
        module = loader.create_module(ModuleSpec(loader.name, loader, origin=path))
        loader.exec_module(module)
        return module, None
    except (OSError, ImportError) as e:
        return None, f"cannot build or load the C kernel: {e}"


# PURE_REASON: why the pure kernels are in use; None when the C kernel is.
impl, PURE_REASON = (None, "HYPERFIELD_PURE is set") if os.environ.get("HYPERFIELD_PURE") else load_compiled()
impl = impl or pure
BACKEND = impl.BACKEND


def splitting_types(coeffs, primes) -> list[list[int] | None]:
    """The factor degrees of coeffs mod each of primes, descending, with
    None at each prime where coeffs is not squarefree; from pure.py where
    the C kernel declines a modulus."""
    try:
        return impl.splitting_types(coeffs, primes)
    except OverflowError:  # a modulus past the C kernel's bound
        return pure.splitting_types(coeffs, primes)


def resultants(a, b, primes) -> list[int]:
    """Res(a, b) mod each of primes, in [0, p); from pure.py where the C
    kernel declines a modulus."""
    try:
        return impl.resultants(a, b, primes)
    except OverflowError:  # a modulus past the C kernel's bound
        return pure.resultants(a, b, primes)


def ddf_degrees(coeffs, p: int) -> list[int]:
    """The factor degrees of coeffs mod p, descending; ValueError where
    coeffs is not squarefree mod p."""
    degs = splitting_types(coeffs, [p])[0]
    if degs is None:
        raise ValueError("not squarefree mod p")
    return degs


__all__ = ["BACKEND", "PURE_REASON", "ddf_degrees", "resultants", "splitting_types"]
