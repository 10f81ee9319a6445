"""Batched state — N same-mesh :class:`HydroState` lanes in one arena.

:class:`EnsembleState` stacks the per-lane fields into leading-axis
arrays — ``(N, nnode)`` nodal, ``(N, ncell)`` cell, ``(N, ncell, 4)``
corner — that every batched kernel consumes in one pass.  One mesh, one
boundary-condition object and one material layout are shared by all
lanes (that is the contract: an ensemble varies *state and controls*,
not topology).

Lane views (:meth:`lane_state`) rebuild a genuine :class:`HydroState`
whose fields are row views into the batch arrays, so per-lane
machinery — the ALE remapper, the diagnostics probe, the final-state
extraction — runs unchanged on one lane without copying.

A one-lane batch (every serial run) adopts its state's arrays as
``arr[None]`` views instead of copying them: the batch advances the
lane's own :class:`HydroState` in place, as the serial driver always
did, and costs no second copy of the fields.  It may also carry a
time-driven boundary (``bc.driver``): one lane has one clock, so the
shared prescribed-velocity arrays are that clock's.

Ragged retirement is by *compaction*: :meth:`compact` drops finished
rows with a fancy-index copy (``arr[keep]``), which preserves every
surviving lane's bits exactly.  Masking finished lanes in place (e.g.
``dt = 0``) is deliberately avoided — a zero dt turns ``0 · inf`` NaNs
loose in the timestep kernels.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.state import HydroState
from ..utils.errors import BookLeafError

#: HydroState fields batched per lane, by shape family
NODE_FIELDS = ("x", "y", "u", "v")
CELL_FIELDS = ("rho", "e", "p", "cs2", "q", "volume", "cell_mass")
CORNER_FIELDS = ("corner_mass", "corner_volume")


class EnsembleState:
    """N stacked lanes of one same-mesh problem."""

    def __init__(self, states: List[HydroState]):
        if not states:
            raise BookLeafError("an ensemble needs at least one lane")
        first = states[0]
        if first.bc.driver is not None and len(states) > 1:
            raise BookLeafError(
                "time-driven boundary conditions (bc.driver) cannot be "
                "batched — lanes advance at different times, so the "
                "shared prescribed-velocity arrays would be wrong; run "
                "this problem through repro.api.run instead"
            )
        for i, st in enumerate(states[1:], start=1):
            if st.mesh.ncell != first.mesh.ncell \
                    or st.mesh.nnode != first.mesh.nnode \
                    or not np.array_equal(st.mesh.cell_nodes,
                                          first.mesh.cell_nodes):
                raise BookLeafError(
                    f"ensemble lane {i} has a different mesh topology; "
                    "all lanes must share one mesh"
                )
            if not np.array_equal(st.mat, first.mat):
                raise BookLeafError(
                    f"ensemble lane {i} has a different material layout"
                )
            if not (np.array_equal(st.bc.flags, first.bc.flags)
                    and np.array_equal(st.bc.ux, first.bc.ux)
                    and np.array_equal(st.bc.uy, first.bc.uy)):
                raise BookLeafError(
                    f"ensemble lane {i} has different boundary conditions"
                )
        self.mesh = first.mesh
        self.bc = first.bc
        self.mat = first.mat.copy()
        for name in NODE_FIELDS + CELL_FIELDS + CORNER_FIELDS:
            if len(states) == 1:
                # Adopt, don't copy: a (1, …) view of the lane's array.
                # Contiguity is kept so reductions stay in serial order.
                setattr(self, name,
                        np.ascontiguousarray(getattr(first, name))[None])
            else:
                setattr(self, name,
                        np.stack([getattr(st, name) for st in states]))
        self._node_mass: Optional[np.ndarray] = None
        #: product cache (:class:`~repro.ensemble.kernels.Geom`) of the
        #: current coordinates: built by the corrector's getgeom, read
        #: by the next step's getdt and predictor; dropped whenever the
        #: coordinates or the row layout change behind its back
        self.geom = None

    # ------------------------------------------------------------------
    @property
    def n_lanes(self) -> int:
        return self.x.shape[0]

    def node_mass(self, scatter) -> np.ndarray:
        """Cached (N, nnode) nodal mass; ``scatter`` is the batched
        corner-to-node scatter callable (one shared plan)."""
        if self._node_mass is None:
            self._node_mass = scatter(self.corner_mass)
        return self._node_mass

    def invalidate_node_mass(self) -> None:
        """Corner masses changed (ALE remap) — drop the cache."""
        self._node_mass = None

    # ------------------------------------------------------------------
    def lane_state(self, i: int) -> HydroState:
        """A :class:`HydroState` whose fields are row views of lane i.

        Mutating the view's arrays *in place* mutates the batch; code
        that rebinds fields (the ALE update) must be followed by
        :meth:`absorb_lane` to copy the rebound arrays back.
        """
        return HydroState(
            mesh=self.mesh,
            x=self.x[i], y=self.y[i], u=self.u[i], v=self.v[i],
            rho=self.rho[i], e=self.e[i], p=self.p[i], cs2=self.cs2[i],
            q=self.q[i], volume=self.volume[i],
            cell_mass=self.cell_mass[i],
            corner_mass=self.corner_mass[i],
            corner_volume=self.corner_volume[i],
            mat=self.mat, bc=self.bc,
        )

    def absorb_lane(self, i: int, st: HydroState) -> None:
        """Copy a lane state's (possibly rebound) fields back into row i."""
        for name in NODE_FIELDS + CELL_FIELDS + CORNER_FIELDS:
            # Unconditional row copy: a no-op when the field is still
            # the row view, a commit when the remapper rebound it.
            getattr(self, name)[i] = getattr(st, name)
        self.invalidate_node_mass()
        self.geom = None

    def extract_lane(self, i: int) -> HydroState:
        """A standalone copy of lane i (the final per-lane result)."""
        return self.lane_state(i).copy()

    # ------------------------------------------------------------------
    def compact(self, keep: np.ndarray) -> None:
        """Drop retired lanes: keep only rows where ``keep`` is True.

        A fancy-index copy per field — bit-preserving for survivors.
        """
        for name in NODE_FIELDS + CELL_FIELDS + CORNER_FIELDS:
            setattr(self, name, getattr(self, name)[keep])
        if self._node_mass is not None:
            self._node_mass = self._node_mass[keep]
        self.geom = None
