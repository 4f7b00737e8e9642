"""Shared per-node scalar state as structure-of-arrays.

At 5k–10k nodes the per-node *vector* work — candidate generation in
:class:`~repro.sim.channel.ChannelGeometry`, bulk snapshots for the scale
benchmarks — wants flat arrays, while the per-event *scalar* work (one
energy charge or radio-state stamp at a time, millions per run) is fastest
as plain attribute access on slotted objects: a scalar numpy ``arr[i]``
read/write costs ~4x an attribute access, so forcing hot-path scalars
through arrays would slow the simulator down, not speed it up.

:class:`NodeStateArrays` therefore splits ownership by access pattern:

* **positions** live here authoritatively-in-parallel with the channel's
  id-keyed dict — the channel writes both on every
  :meth:`~repro.sim.channel.Channel.update_position`, and geometry passes
  consume the arrays directly instead of rebuilding them from the dict;
* **energy totals** and **radio state-since timestamps** are *snapshot*
  columns: :meth:`capture` bulk-copies them out of the slotted
  :class:`~repro.core.energy_model.NodeEnergy` / per-node PHY objects on
  demand (end of run, benchmark probes), so scale tooling gets columnar
  views without taxing the event loop.

Node objects stay views over this state: ``Node.position`` already reads
through the channel, and the channel reads/writes the arrays here, so
there is exactly one live copy of every coordinate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.energy_model import NodeEnergy
    from repro.sim.phy import Phy


class NodeStateArrays:
    """Columnar per-node scalars: positions plus snapshot columns.

    ``ids`` fixes the row order (position/registration order — the same
    order :class:`~repro.sim.channel.ChannelGeometry` ranks nodes in) and
    ``index_of`` maps a node id back to its row.  ``xs``/``ys`` are kept
    in sync with the channel's position dict; ``energy_total`` and
    ``state_since`` hold whatever the last :meth:`capture` observed.
    """

    __slots__ = ("ids", "index_of", "xs", "ys", "energy_total", "state_since")

    def __init__(self, ids: tuple[int, ...]) -> None:
        self.ids = ids
        self.index_of = {node_id: row for row, node_id in enumerate(ids)}
        n = len(ids)
        self.xs = np.zeros(n, dtype=np.float64)
        self.ys = np.zeros(n, dtype=np.float64)
        self.energy_total = np.zeros(n, dtype=np.float64)
        self.state_since = np.zeros(n, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def from_positions(
        cls, positions: Mapping[int, tuple[float, float]]
    ) -> "NodeStateArrays":
        """Build arrays in the iteration order of ``positions``."""
        state = cls(tuple(positions))
        xs, ys = state.xs, state.ys
        for row, (x, y) in enumerate(positions.values()):
            xs[row] = x
            ys[row] = y
        return state

    # ------------------------------------------------------------------
    # Positions (write-through from the channel)
    # ------------------------------------------------------------------
    def set_position(self, node_id: int, position: tuple[float, float]) -> None:
        row = self.index_of[node_id]
        self.xs[row] = position[0]
        self.ys[row] = position[1]

    def position(self, node_id: int) -> tuple[float, float]:
        row = self.index_of[node_id]
        return (float(self.xs[row]), float(self.ys[row]))

    # ------------------------------------------------------------------
    # Snapshot columns (bulk capture on demand)
    # ------------------------------------------------------------------
    def capture(
        self,
        ledgers: Mapping[int, "NodeEnergy"] | None = None,
        phys: Iterable["Phy"] | None = None,
    ) -> None:
        """Bulk-refresh the snapshot columns from the live objects.

        ``ledgers`` maps node id -> energy ledger (rows without a ledger
        keep their previous value); ``phys`` yields registered PHYs whose
        ``state_since`` timestamps are copied out.  Called at well-defined
        probe points (end of run, benchmark sampling), never per event.
        """
        index_of = self.index_of
        if ledgers is not None:
            energy_total = self.energy_total
            for node_id, ledger in ledgers.items():
                energy_total[index_of[node_id]] = ledger.total
        if phys is not None:
            state_since = self.state_since
            for phy in phys:
                state_since[index_of[phy.node_id]] = phy.state_since

    def summary(self) -> dict[str, float]:
        """Aggregate view of the snapshot columns (plain-python math).

        Uses python ``sum`` / ``min`` / ``max`` rather than numpy
        reductions: the values may feed serialized reports and pairwise
        numpy summation rounds differently than sequential python sum.
        """
        n = len(self.ids)
        if n == 0:
            return {"nodes": 0.0}
        totals = [float(value) for value in self.energy_total]
        return {
            "nodes": float(n),
            "energy_total": sum(totals),
            "energy_min": min(totals),
            "energy_max": max(totals),
        }
