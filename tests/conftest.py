"""Session fixtures shared across the suite.

The checkpoint table to 1.1e5 is the suite's largest computation and the
ladder calibration depends on it, so both are session-scoped; tests that
mutate a config make their own copy.  Acceptance tests push one summary line
each into a shared list that is echoed after the run.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pytest

from zetaladder.ladder import LadderConfig, PrimePiTable, calibrate_c0
from zetaladder.quadrature import SecondMomentTable

TABLE_TOP = 1.1e5
ANCHORS = tuple(float(a) for a in np.geomspace(1.0e4, 1.0e5, 10))

_summary_lines: List[str] = []


@pytest.fixture(scope="session")
def smtable() -> SecondMomentTable:
    """Checkpoint table covering the desk range; built once per session."""
    table = SecondMomentTable()
    table.ensure(TABLE_TOP)
    return table


@pytest.fixture(scope="session")
def pi_table() -> PrimePiTable:
    return PrimePiTable.build(1_100_000)


@pytest.fixture(scope="session")
def ladder_cfg(smtable) -> LadderConfig:
    cfg = LadderConfig()
    calibrate_c0(list(ANCHORS), cfg, smtable)
    return cfg


@pytest.fixture
def record_criterion():
    """Collector for the one-line acceptance verdicts."""

    def rec(line: str) -> None:
        _summary_lines.append(line)
        print(line)

    return rec


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _summary_lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in _summary_lines:
            terminalreporter.write_line(line)
