import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent / "src"))


def pytest_terminal_summary(terminalreporter):
    # A summary line rather than a report header: `pytest -q` hides the header.
    from hyperfield import _kernels

    why = f" ({_kernels.PURE_REASON})" if _kernels.PURE_REASON else ""
    terminalreporter.write_line(f"hyperfield kernel backend: {_kernels.BACKEND}{why}")
