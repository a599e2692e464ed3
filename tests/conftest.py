import pytest

from latlab import (
    boolean_lattice,
    build_lattice,
    chain,
    diamond_m3,
    pentagon_n5,
    subspace_lattice,
)

_CRITERION_LINES = []


def record_criterion(number, ok, text):
    state = "PASS" if ok else "FAIL"
    _CRITERION_LINES.append((number, f"ACCEPTANCE CRITERION {number}: {state} - {text}"))


def pytest_terminal_summary(terminalreporter):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(set(_CRITERION_LINES)):
            terminalreporter.line(line)


@pytest.fixture(scope="session")
def fano():
    return subspace_lattice(3, 2)


@pytest.fixture(scope="session")
def broken_plane():
    # 0 < p,q,r,s; lines L1 = p|q and L2 = r|s; top directly above both
    # lines.  Graded of height 3, but the disjoint coplanar lines L1, L2
    # violate P2 and the skew atom pairs violate P1.
    return build_lattice(
        ["0", "p", "q", "r", "s", "L1", "L2", "1"],
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 5), (3, 6), (4, 6), (5, 7), (6, 7)],
    )


@pytest.fixture(scope="session")
def law_corpus():
    """Every generator, every parameter combination up to 256 elements.

    The 256-element cap keeps the exhaustive per-element law scans inside
    the documented 10-second budget; the generators themselves accept more.
    """
    lats = [boolean_lattice(n) for n in range(1, 9)]
    subspace_params = [
        (1, 2), (1, 3), (1, 5), (1, 7),
        (2, 2), (2, 3), (2, 5), (2, 7), (2, 11), (2, 13),
        (3, 2), (3, 3), (3, 5), (3, 7),
        (4, 2), (4, 3),
    ]
    for n, q in subspace_params:
        lat = subspace_lattice(n, q)
        if lat.size <= 256:
            lats.append(lat)
    lats.extend([diamond_m3(), pentagon_n5()])
    lats.extend(chain(k) for k in range(2, 9))
    return lats
