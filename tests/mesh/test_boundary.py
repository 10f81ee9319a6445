"""Unit tests for boundary-condition classification and application."""

import numpy as np
import pytest

from repro.mesh.boundary import (
    FIX_X,
    FIX_Y,
    BoundaryConditions,
    classify_box_boundary,
)
from repro.mesh.generator import rect_mesh


def test_box_classification_flags():
    mesh = rect_mesh(4, 4)
    bc = classify_box_boundary(mesh, (0.0, 1.0, 0.0, 1.0))
    left = np.isclose(mesh.x, 0.0)
    bottom = np.isclose(mesh.y, 0.0)
    assert np.all(bc.flags[left] & FIX_X)
    assert np.all(bc.flags[bottom] & FIX_Y)
    corner = left & bottom
    assert np.all(bc.flags[corner] == FIX_X | FIX_Y)
    interior = ~left & ~bottom & ~np.isclose(mesh.x, 1) & ~np.isclose(mesh.y, 1)
    assert np.all(bc.flags[interior] == 0)


def test_partial_walls():
    mesh = rect_mesh(3, 3)
    bc = classify_box_boundary(mesh, (0.0, 1.0, 0.0, 1.0),
                               walls={"left": True})
    right = np.isclose(mesh.x, 1.0)
    assert np.all(bc.flags[right] & FIX_X == 0)


def test_apply_velocity_zeroes_constrained_components():
    mesh = rect_mesh(2, 2)
    bc = classify_box_boundary(mesh, (0.0, 1.0, 0.0, 1.0))
    u = np.ones(mesh.nnode)
    v = np.ones(mesh.nnode)
    bc.apply_velocity(u, v)
    assert np.all(u[np.isclose(mesh.x, 0.0)] == 0.0)
    assert np.all(v[np.isclose(mesh.y, 1.0)] == 0.0)
    # a wall node still slides along its wall
    left_mid = np.flatnonzero(np.isclose(mesh.x, 0.0)
                              & np.isclose(mesh.y, 0.5))[0]
    assert v[left_mid] == 1.0


def test_apply_acceleration():
    bc = BoundaryConditions(np.array([FIX_X, FIX_Y, 0], dtype=np.int8))
    ax = np.ones(3)
    ay = np.ones(3)
    bc.apply_acceleration(ax, ay)
    assert list(ax) == [0.0, 1.0, 1.0]
    assert list(ay) == [1.0, 0.0, 1.0]


def test_prescribed_piston_velocity():
    flags = np.array([FIX_X | FIX_Y, 0], dtype=np.int8)
    ux = np.array([2.5, 0.0])
    bc = BoundaryConditions(flags, ux, np.zeros(2))
    u = np.zeros(2)
    v = np.ones(2)
    bc.apply_velocity(u, v)
    assert u[0] == 2.5
    assert v[0] == 0.0
    assert u[1] == 0.0 and v[1] == 1.0


def test_free_factory():
    bc = BoundaryConditions.free(5)
    assert bc.constrained_nodes().size == 0


def test_constrained_nodes():
    bc = BoundaryConditions(np.array([0, FIX_X, 0, FIX_Y], dtype=np.int8))
    np.testing.assert_array_equal(bc.constrained_nodes(), [1, 3])


def test_subset():
    bc = BoundaryConditions(np.array([FIX_X, 0, FIX_Y], dtype=np.int8),
                            np.array([1.0, 0.0, 0.0]),
                            np.array([0.0, 0.0, 2.0]))
    sub = bc.subset(np.array([2, 0]))
    assert list(sub.flags) == [FIX_Y, FIX_X]
    assert sub.uy[0] == 2.0
    assert sub.ux[1] == 1.0


def test_tolerance_scales_with_extent():
    mesh = rect_mesh(2, 2, (0.0, 1000.0, 0.0, 1000.0))
    bc = classify_box_boundary(mesh, (0.0, 1000.0, 0.0, 1000.0))
    assert np.any(bc.flags & FIX_X)


def test_moved_wall_nodes_stay_classified():
    """Classification is by initial coords and is applied every step."""
    mesh = rect_mesh(2, 2)
    bc = classify_box_boundary(mesh, (0.0, 1.0, 0.0, 1.0))
    u = np.full(mesh.nnode, 3.0)
    v = np.full(mesh.nnode, 3.0)
    bc.apply_velocity(u, v)
    # left wall x never moves because u is forced to the wall value
    assert np.all(u[np.isclose(mesh.x, 0.0)] == 0.0)


# --------------------------------------------------------------------------
# time-dependent drivers
# --------------------------------------------------------------------------
class _LinearDriver:
    """u = t on every node's x, 2t on y (test double)."""

    def __init__(self, n):
        self.n = n

    def velocities(self, t):
        return np.full(self.n, t), np.full(self.n, 2.0 * t)

    def subset(self, nodes):
        return _LinearDriver(len(nodes))


def test_driver_initialised_at_time_zero():
    bc = BoundaryConditions(np.array([FIX_X, FIX_Y], dtype=np.int8),
                            driver=_LinearDriver(2))
    np.testing.assert_array_equal(bc.ux, 0.0)
    np.testing.assert_array_equal(bc.uy, 0.0)


def test_driver_advance_refreshes_prescribed_values():
    bc = BoundaryConditions(np.array([FIX_X, FIX_Y], dtype=np.int8),
                            driver=_LinearDriver(2))
    bc.advance(0.5)
    np.testing.assert_allclose(bc.ux, 0.5)
    np.testing.assert_allclose(bc.uy, 1.0)
    u = np.zeros(2)
    v = np.zeros(2)
    bc.apply_velocity(u, v)
    assert u[0] == 0.5 and u[1] == 0.0     # only FIX_X node's u driven
    assert v[0] == 0.0 and v[1] == 1.0


def test_copy_keeps_current_driven_values():
    """A state copy mid-run carries the driver's current prescribed
    velocities, not a reset to t=0."""
    from repro.problems import load_problem

    state = load_problem("kidder", nx=3, ny=3).state
    state.bc.advance(1.0e-3)
    ux, uy = state.bc.ux.copy(), state.bc.uy.copy()
    copied = state.copy()
    np.testing.assert_array_equal(copied.bc.ux, ux)
    np.testing.assert_array_equal(copied.bc.uy, uy)
    assert copied.bc.driver is state.bc.driver


def test_advance_is_noop_without_driver():
    bc = BoundaryConditions(np.array([FIX_X], dtype=np.int8),
                            np.array([3.0]), np.array([0.0]))
    bc.advance(10.0)
    assert bc.ux[0] == 3.0


def test_subset_propagates_driver():
    bc = BoundaryConditions(np.zeros(4, dtype=np.int8),
                            driver=_LinearDriver(4))
    sub = bc.subset(np.array([0, 2]))
    assert sub.driver is not None
    sub.advance(1.0)
    np.testing.assert_allclose(sub.ux, 1.0)
    assert sub.ux.shape == (2,)


def test_driver_bcs_rejected_by_ensemble():
    """Driven boundaries batch only at N=1 (one lane, one clock)."""
    from repro.ensemble.state import EnsembleState
    from repro.problems import load_problem
    from repro.utils.errors import BookLeafError

    state = load_problem("kidder", nx=3, ny=3).state
    other = load_problem("kidder", nx=3, ny=3).state
    with pytest.raises(BookLeafError, match="cannot be batched"):
        EnsembleState([state, other])
    assert EnsembleState([state]).bc.driver is not None
