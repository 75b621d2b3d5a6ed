import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from qcasim.constants import PhysicalConstants


@pytest.fixture(scope="session")
def paper():
    return PhysicalConstants.paper()


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from test_acceptance import VERDICTS
    except ImportError:
        return
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)


def random_layout(rng, max_cells=6):
    """Random non-overlapping layout on a 20 nm grid, mixed rotations."""
    from qcasim.geometry import Cell, Layout

    n = int(rng.integers(1, max_cells + 1))
    spots = [(i, j) for i in range(4) for j in range(4)]
    picks = rng.choice(len(spots), size=n, replace=False)
    cells = []
    for idx, pick in enumerate(picks):
        gx, gy = spots[pick]
        # 6-decimal coordinates: the canonical precision of the file format
        jitter = rng.uniform(-0.6, 0.6, size=2)
        cells.append(Cell(
            id=f"c{idx}",
            center_x=float(f"{gx * 21.0 + jitter[0]:.6f}"),
            center_y=float(f"{gy * 21.0 + jitter[1]:.6f}"),
            dot_offset=float(rng.choice((4.5, 6.0, 9.0))),
            rotation=int(rng.choice((0, 45))),
            role="fixed" if idx == 0 else "normal",
            fixed_polarization=1.0 if idx == 0 else None,
        ))
    return Layout(name="random", cells=tuple(cells))
