"""The olsonorder backends each workload builds, timed as its set-up.

Importing this module imports olsonorder, so a fresh interpreter that
times `import backends; backends.build(name)` times the library's
import plus the backend construction, including the eager axiom
validation of the table backends.
"""

from __future__ import annotations

import olsonorder as oo

# The carrier models in workloads.CARRIERS are written for these parameters.
LATTICE = {
    "mv_chain": {"kind": "mv_chain", "n": 8},
    "set_algebra": {"kind": "set_algebra", "omega": 4},
    "tribe": {"kind": "tribe", "omega": 2, "den": 4},
    "quotient": {"kind": "quotient", "omega": 4, "null": [3]},
}
TABLES = {"mo2": oo.mo2_algebra, "block_cycle": oo.block_cycle_algebra}


def build(workload: str) -> dict:
    """Construct the workload's backends by name; none for hilbert and cli."""
    if workload == "cli":
        import olsonorder.cli  # noqa: F401  the CLI's import is its set-up
        return {}
    if workload == "exact-lattice":
        return {name: oo.algebra_from_json(lit) for name, lit in LATTICE.items()}
    if workload == "exact-certify":
        return {name: make() for name, make in TABLES.items()}
    return {}
