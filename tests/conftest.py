import itertools
import math

import pytest

from heightcount.heights import PrimitiveMatrix
from heightcount.enumeration import scan_pgl2_adjoint

ACCEPTANCE_RESULTS: list[tuple[int, str, bool, str]] = []


def record_criterion(number: int, name: str, ok: bool, detail: str):
    ACCEPTANCE_RESULTS.append((number, name, ok, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number, name, ok, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {number:2d} {status} {name}: {detail}")


@pytest.fixture(scope="session")
def pgl2_scan_14():
    """The one big scan: adjoint heights < 2^14 with Cartan data at 2 and 3."""
    return scan_pgl2_adjoint(2**14, primes_tracked=(2, 3))


@pytest.fixture(scope="session")
def exhaustive_sample_10():
    """Every point of PGL_2(Q) whose canonical representative has entries
    bounded by 10 (primitive, canonical sign, det != 0)."""
    pts = []
    for a, b, c, d in itertools.product(range(-10, 11), repeat=4):
        first = next((x for x in (a, b, c, d) if x), None)
        if first is None or first < 0:
            continue
        if a * d - b * c == 0:
            continue
        if math.gcd(math.gcd(abs(a), abs(b)), math.gcd(abs(c), abs(d))) != 1:
            continue
        pts.append(PrimitiveMatrix(((a, b), (c, d))))
    return pts
