"""Kernel backend selection: the C kernel in _speed.c, or pure.py.

On first import, _speed.c is compiled with the system C compiler into
``${XDG_CACHE_HOME:-~/.cache}/hyperfield/_speed-<key><EXT_SUFFIX>``,
where <key> is the sha256 of the source, the compile command and the
extension suffix; later imports load that file. Any failure (no
compiler or Python headers, an unwritable cache, a compile error or
timeout) selects the pure-Python kernels, and so does a cache directory
or file that another user owns or may write. Set HYPERFIELD_PURE=1 to
force them. The C kernel takes moduli below 2^63; larger ones go to
pure.py. roots_mod_p has only the pure implementation.
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


def _compile(path: str) -> bool:
    import subprocess  # only on a cache miss: it costs milliseconds to import

    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        subprocess.run([*_COMPILE_COMMAND, _SOURCE, "-o", tmp], check=True, timeout=_COMPILE_TIMEOUT_S,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        os.chmod(tmp, 0o700)  # whatever the umask, _private accepts it
        os.replace(tmp, path)  # atomic: a parallel import sees no partial file
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_compiled():
    """The C kernel module, compiled first on a cache miss; None if it
    cannot be compiled or loaded, or if the cache directory or file is
    not private to this user (another user could plant code there)."""
    try:
        with open(_SOURCE, "rb") as fh:
            path = cache_path(fh.read())
        os.makedirs(os.path.dirname(path), mode=0o700, exist_ok=True)
        if not _private(os.path.dirname(path)):
            return None
        if not os.path.exists(path) and not _compile(path):
            return None
        if not _private(path):
            return None
        loader = ExtensionFileLoader(f"{__name__}._speed", path)
        module = loader.create_module(ModuleSpec(loader.name, loader, origin=path))
        loader.exec_module(module)
        return module
    except (OSError, ImportError):
        return None


def _pure_above_2_63(name: str):
    compiled, fallback = getattr(impl, name), getattr(pure, name)

    def kernel(coeffs, p):
        try:
            return compiled(coeffs, p)
        except OverflowError:  # a modulus of 2^63 or more
            return fallback(coeffs, p)

    return kernel


impl = None if os.environ.get("HYPERFIELD_PURE") else load_compiled()
if impl is None:
    impl = pure
    ddf_degrees, splitting_types = pure.ddf_degrees, pure.splitting_types
else:
    ddf_degrees, splitting_types = _pure_above_2_63("ddf_degrees"), _pure_above_2_63("splitting_types")
roots_mod_p = pure.roots_mod_p  # one caller, rational_roots, at a small prime
BACKEND = impl.BACKEND

__all__ = ["BACKEND", "ddf_degrees", "roots_mod_p", "splitting_types"]
