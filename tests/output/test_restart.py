"""Checkpoint/restart through the one checkpoint format
(:mod:`repro.fleet.checkpoint`): a checkpoint round-trips bit-exactly,
a restored run continues bit-identically, and unreadable, foreign-
version or mismatched files are refused with a structured error."""

import json

import numpy as np
import pytest

from repro.api import RunConfig, _execute_run, run
from repro.fleet.checkpoint import (
    load_checkpoint,
    restore_into,
    save_checkpoint,
)
from repro.utils.errors import BookLeafError

CONFIG = RunConfig(problem="sod", nx=30, ny=2, time_end=0.05)


@pytest.fixture
def mid_run():
    return run(CONFIG.replace(max_steps=10)).driver.hydros[0]


def _resume(path, max_steps=None):
    """A fresh driver of ``CONFIG`` with the checkpoint overlaid, run to
    ``max_steps`` total steps (or to the end time)."""
    config = CONFIG.replace(max_steps=max_steps)
    return _execute_run(config, on_prepared=lambda driver, steps:
                        restore_into(driver, path, max_steps=steps))


def _rewrite_meta(path, **changes):
    data = dict(np.load(path))
    meta = json.loads(bytes(data["__meta__"]).decode("utf-8"))
    meta.update(changes)
    data["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"),
                                     dtype=np.uint8).copy()
    np.savez(path, **data)


def test_roundtrip_bit_exact(tmp_path, mid_run):
    hydro = mid_run
    path = str(tmp_path / "chk.npz")
    save_checkpoint(path, hydro)
    meta, arrays = load_checkpoint(path)
    assert meta["time"] == hydro.time
    assert meta["nstep"] == hydro.nstep
    assert meta["dt"] == hydro.dt
    for name in ("x", "y", "u", "v", "rho", "e", "p", "cs2", "q",
                 "cell_mass", "corner_mass", "volume", "corner_volume"):
        np.testing.assert_array_equal(arrays[name],
                                      getattr(hydro.state, name))
    np.testing.assert_array_equal(arrays["mat"], hydro.state.mat)
    np.testing.assert_array_equal(arrays["bc_flags"], hydro.state.bc.flags)


def test_resumed_run_matches_uninterrupted(tmp_path, mid_run):
    """Checkpoint at step 10, resume, run to the end: identical to an
    uninterrupted run (bit-for-bit)."""
    straight = run(CONFIG)
    path = str(tmp_path / "chk.npz")
    save_checkpoint(path, mid_run)

    resumed = _resume(path)

    assert resumed.nstep == straight.nstep
    assert resumed.time == straight.time
    np.testing.assert_array_equal(resumed.state.rho, straight.state.rho)
    np.testing.assert_array_equal(resumed.state.u, straight.state.u)
    np.testing.assert_array_equal(resumed.state.x, straight.state.x)


def test_restart_preserves_bcs_functionally(tmp_path, mid_run):
    path = str(tmp_path / "chk.npz")
    save_checkpoint(path, mid_run)
    resumed = _resume(path, max_steps=mid_run.nstep + 1)
    assert resumed.nstep == mid_run.nstep + 1
    mesh = resumed.state.mesh
    left = np.isclose(mesh.x, 0.0)
    assert np.all(resumed.state.u[left] == 0.0)


def test_missing_file_raises(tmp_path):
    with pytest.raises(BookLeafError, match="cannot read"):
        load_checkpoint(str(tmp_path / "nope.npz"))


def test_wrong_version_rejected(tmp_path, mid_run):
    path = str(tmp_path / "chk.npz")
    save_checkpoint(path, mid_run)
    _rewrite_meta(path, schema_version=99)
    with pytest.raises(BookLeafError, match="format version"):
        load_checkpoint(path)


def test_tampered_dump_rejected(tmp_path, mid_run):
    """A checkpoint whose arrays no longer fit the job's mesh is refused
    before anything is overlaid."""
    path = str(tmp_path / "chk.npz")
    save_checkpoint(path, mid_run)
    data = dict(np.load(path))
    data["x"] = data["x"][:-1]          # drop a node
    np.savez(path, **data)
    with pytest.raises(BookLeafError, match="does not match"):
        _resume(path)


def test_fresh_state_checkpoint(tmp_path):
    fresh = run(CONFIG.replace(max_steps=0))
    path = str(tmp_path / "t0.npz")
    save_checkpoint(path, fresh.driver.hydros[0])
    meta, arrays = load_checkpoint(path)
    assert meta["time"] == 0.0 and meta["nstep"] == 0
    np.testing.assert_array_equal(arrays["rho"],
                                  CONFIG.build_setup().state.rho)
