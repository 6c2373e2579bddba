"""The paper tables the ``sim_tables`` workload regenerates.

Every table and figure of the paper's evaluation runs on ``repro.sim``
and ``repro.simninf``; one *pass* regenerates these six with the
workload seed.  Event and call totals are exact counts: they must be
equal on every pass, and at seed 1997 equal to ``golden.json``.
"""

from __future__ import annotations

import json
import os

from repro.experiments.lan_multiclient import (
    table3_1pe,
    table4_4pe,
    table5_smp,
)
from repro.experiments.wan import fig10_multisite, table6_1pe, table7_4pe

TABLES = {
    "table3": table3_1pe,
    "table4": table4_4pe,
    "table5": table5_smp,
    "table6": table6_1pe,
    "table7": table7_4pe,
    "fig10": fig10_multisite,
}

GOLDEN_SEED = 1997
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden.json")


def table_totals(result) -> tuple[int, int]:
    """``(events executed, Ninf_calls completed)`` over every cell of a
    regenerated table (``LanTable``) or figure (list of multisite cells)."""
    if isinstance(result, list):
        cells = [part for cell in result
                 for part in (cell.result, cell.ochau_single_site)]
    else:
        cells = list(result.cells.values())
    events = sum(cell.server.sim.event_count for cell in cells)
    calls = sum(len(cell.records) for cell in cells)
    return events, calls


def load_golden() -> dict:
    """``{table: {"events": int, "calls": int}}`` at GOLDEN_SEED."""
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)
