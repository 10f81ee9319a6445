"""The ensemble correctness contract: every lane bit-identical to serial.

``run_ensemble([c0, ..., cN])`` must produce, for each lane, byte-for-
byte the state arrays, step count, final time and diagnostics scalars
of the ``core`` loop (``setup.make_hydro().run()``) on the same config.
Since the ``serial`` backend itself steps a one-lane batch, comparing
against ``run(ci)`` would test the ensemble path against itself; the
``core`` loop is the independent reference (the one decomposed ranks
run).  Not approximately equal — ``tobytes()`` equal: the batched
kernels keep the serial operation association per lane (see
:mod:`repro.ensemble.kernels`), so any drift, however small, means an
expression changed shape and the contract is broken.

The default parametrisation caps steps so tier-1 stays fast; the CI
bit-identity gate job sets ``BOOKLEAF_BITID_FULL=1`` to run Noh and
Sod at 32x32 to completion with N=4 lanes.
"""

import os

import numpy as np
import pytest

from repro.api import RunConfig, run_ensemble
from repro.ensemble import kernels
from repro.metrics import DiagnosticsProbe

FIELDS = ("x", "y", "u", "v", "rho", "e", "p", "q", "cs2",
          "volume", "corner_volume", "cell_mass")

FULL = os.environ.get("BOOKLEAF_BITID_FULL") == "1"

#: capped step counts for the tier-1 parametrisation (full runs gate
#: in CI where the job budget allows the ~600-step Noh)
CAP = {"noh": 60, "sod": 80}


class CoreRun:
    """The ``core`` loop's outcome on one config, shaped like the parts
    of a :class:`~repro.api.RunResult` the assertions read."""

    def __init__(self, config, override=None, metrics_every=0):
        setup = config.build_setup()
        if override:
            setup.controls = setup.controls.with_(**override).validated()
        hydro = setup.make_hydro()
        if metrics_every:
            hydro.probe = DiagnosticsProbe(every=metrics_every,
                                           record=True)
        hydro.run(max_steps=config.max_steps)
        assert type(hydro).__name__ == "Hydro"
        self.state = hydro.state
        self.nstep = hydro.nstep
        self.time = hydro.time
        self.metrics_rows = hydro.probe.rows if metrics_every else None

    def diagnostics(self):
        return {
            "mass": self.state.total_mass(),
            "total_energy": self.state.total_energy(),
            "rho_max": float(self.state.rho.max()),
        }


def _state_bytes(state):
    return {f: getattr(state, f).tobytes()
            for f in FIELDS if hasattr(state, f)}


def assert_lane_identical(serial_result, lane_result):
    sb = _state_bytes(serial_result.state)
    eb = _state_bytes(lane_result.state)
    differing = [f for f in sb if sb[f] != eb[f]]
    assert not differing, f"lane fields differ bytewise: {differing}"
    assert lane_result.nstep == serial_result.nstep
    assert lane_result.time == serial_result.time
    assert lane_result.diagnostics() == serial_result.diagnostics()


@pytest.mark.parametrize("problem", ["noh", "sod"])
@pytest.mark.parametrize("lanes", [2, 4])
def test_every_lane_matches_serial(problem, lanes):
    max_steps = None if FULL else CAP[problem]
    configs = [RunConfig(problem=problem, nx=32, ny=32,
                         max_steps=max_steps) for _ in range(lanes)]
    ensemble = run_ensemble(configs)
    serial = CoreRun(configs[0])
    for lane_result in ensemble:
        assert_lane_identical(serial, lane_result)


@pytest.mark.parametrize("forced, problem", [
    # Noh's converging shock activates every corner -> naturally dense;
    # force it through the compressed path.  Sod's planar shock leaves
    # most of the mesh inactive -> naturally sparse; force it dense.
    (1.01, "noh"),
    (-1.0, "sod"),
])
def test_forced_viscosity_branch_is_identical(forced, problem,
                                              monkeypatch):
    """Sparse and dense getq branches are interchangeable bitwise —
    the branch choice is a speed heuristic, never an answer change."""
    monkeypatch.setattr(kernels, "SPARSE_MAX_FRACTION", forced)
    configs = [RunConfig(problem=problem, nx=24, ny=24, max_steps=25)
               for _ in range(2)]
    ensemble = run_ensemble(configs)
    serial = CoreRun(configs[0])
    for lane_result in ensemble:
        assert_lane_identical(serial, lane_result)


def test_ragged_retirement_keeps_lanes_identical():
    """Lanes finishing at different steps are retired by compaction;
    the survivors must keep marching bit-identically."""
    steps = [90, 30, 60]
    configs = [RunConfig(problem="sod", nx=24, ny=24, max_steps=s)
               for s in steps]
    ensemble = run_ensemble(configs)
    for config, lane_result in zip(configs, ensemble):
        assert_lane_identical(CoreRun(config), lane_result)


def test_heterogeneous_controls_per_lane():
    """Per-lane cq1/cfl sweeps diverge the lanes' dt sequences; each
    lane still matches its own serial run exactly."""
    overrides = [None, {"cq1": 0.3}, {"cfl_safety": 0.4}]
    configs = [RunConfig(problem="sod", nx=20, ny=20, max_steps=40)
               for _ in overrides]
    ensemble = run_ensemble(configs, control_overrides=overrides)

    for override, config, lane_result in zip(overrides, configs,
                                             ensemble):
        core = CoreRun(config, override)
        sb = _state_bytes(core.state)
        eb = _state_bytes(lane_result.state)
        differing = [f for f in sb if sb[f] != eb[f]]
        assert not differing, (
            f"override {override}: fields differ {differing}")
        assert lane_result.nstep == core.nstep
        assert lane_result.time == core.time


def test_ale_lane_beside_plain_lane():
    """A remapping lane (ALE every 4 steps) shares the batch with a
    pure-Lagrangian lane; both stay bit-identical to serial, and the
    remap correctly invalidates the cross-step geometry cache."""
    configs = [RunConfig(problem="noh", nx=16, ny=16, max_steps=24)
               for _ in range(2)]
    overrides = [None, {"ale_on": True, "ale_every": 4}]
    ensemble = run_ensemble(configs, control_overrides=overrides)

    assert_lane_identical(CoreRun(configs[0]), ensemble[0])
    core = CoreRun(configs[1], {"ale_on": True, "ale_every": 4})
    sb = _state_bytes(core.state)
    eb = _state_bytes(ensemble[1].state)
    differing = [f for f in sb if sb[f] != eb[f]]
    assert not differing, f"ALE lane fields differ: {differing}"


def test_metrics_rows_match_serial_probe():
    """A lane's diagnostics stream equals the serial run's (floats and
    all) — the probe samples identical state at identical steps."""
    configs = [RunConfig(problem="sod", nx=16, ny=16, max_steps=30,
                         metrics_every=10) for _ in range(2)]
    ensemble = run_ensemble(configs)
    serial = CoreRun(configs[0], metrics_every=10)
    for lane_result in ensemble:
        assert lane_result.metrics_rows is not None
        assert len(lane_result.metrics_rows) == len(serial.metrics_rows)
        for mine, ref in zip(lane_result.metrics_rows,
                             serial.metrics_rows):
            for key in ("nstep", "energy_drift", "mass_drift",
                        "rho_max", "total_energy"):
                if key in ref:
                    assert mine[key] == ref[key], key
