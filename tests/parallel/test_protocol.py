"""Structural conformance of every comms endpoint and backend.

The communication seam is a typed contract
(:mod:`repro.parallel.interface`): these tests hold every
implementation — serial, threads, processes — against the full seam
table so the endpoints cannot drift apart silently again.  The dt
reduction's binomial-tree shape is checked here too, from the
``dt_hops``/``dt_reductions`` counters both distributed endpoints keep.
"""

import inspect
import math

import pytest

from repro.core.comms import NullComms, SerialComms
from repro.parallel import available_backends, get_backend
from repro.parallel.backends import BACKENDS
from repro.parallel.backends.processes import ProcessComms
from repro.parallel.interface import (
    PLAN_METHODS,
    SEAM_ATTRIBUTES,
    SEAM_METHODS,
    CommBackend,
    CommEndpoint,
    seam_violations,
)
from repro.parallel.typhon import TyphonComms
from repro.utils.errors import BookLeafError

ENDPOINTS = [SerialComms, TyphonComms, ProcessComms]


@pytest.mark.parametrize("cls", ENDPOINTS,
                         ids=lambda c: c.__name__)
def test_endpoint_covers_full_seam(cls):
    assert seam_violations(cls) == []


@pytest.mark.parametrize("cls", ENDPOINTS,
                         ids=lambda c: c.__name__)
def test_endpoint_declares_conformance(cls):
    assert getattr(cls, "__comm_endpoint__", False)


def test_null_comms_is_serial_comms():
    assert NullComms is SerialComms


def test_live_endpoints_satisfy_protocol():
    """isinstance() against the runtime-checkable Protocol, on real
    endpoint instances built the way the backends build them."""
    from repro.parallel import DistributedHydro
    from repro.problems import load_problem

    serial = NullComms()
    assert isinstance(serial, CommEndpoint)
    assert (serial.rank, serial.size) == (0, 1)

    setup = load_problem("sod", nx=12, ny=4)
    driver = DistributedHydro(setup, 2, backend="threads")
    for hydro in driver.hydros:
        assert isinstance(hydro.comms, CommEndpoint)
    for attr in SEAM_ATTRIBUTES:
        assert hasattr(driver.hydros[0].comms, attr)


def test_seam_table_matches_protocol_definition():
    """The table the checker enforces and the Protocol's own methods
    must agree — otherwise the checker tests a stale seam."""
    proto_methods = {
        name for name, member in vars(CommEndpoint).items()
        if not name.startswith("_") and callable(member)
    }
    assert proto_methods == set(SEAM_METHODS)


def test_seam_has_one_exchange_per_point():
    """One blocking call per exchange point: the seam and the plan
    internals carry no split-phase post/complete halves."""
    assert len(SEAM_METHODS) == 12
    assert len(PLAN_METHODS) == 4


@pytest.mark.parametrize("cls", [TyphonComms, ProcessComms],
                         ids=lambda c: c.__name__)
def test_distributed_endpoints_cover_plan_table(cls):
    """The plan-driven internals of the two distributed endpoints
    must keep identical signatures (PLAN_METHODS) — the
    backend-equivalence guarantees depend on them staying in step."""
    assert seam_violations(cls, table=PLAN_METHODS) == []


def test_seam_checker_catches_drift():
    class Broken:
        def exchange_kinematics(self, wrong_name):
            pass

    problems = seam_violations(Broken)
    assert any("missing" in p for p in problems)
    assert any("drifted" in p for p in problems)


def test_registry_is_complete_and_conforming():
    assert available_backends() == ("serial", "threads", "processes")
    for name, cls in BACKENDS.items():
        assert cls.name == name
        backend = get_backend(name)
        assert isinstance(backend, CommBackend)
        sig = inspect.signature(cls.execute)
        assert "max_steps" in sig.parameters


def test_unknown_backend_rejected():
    with pytest.raises(BookLeafError, match="unknown comm backend"):
        get_backend("mpi")


# ----------------------------------------------------------------------
# dt reduction topology: ⌈log2 P⌉ critical path
# ----------------------------------------------------------------------
def _per_rank_comm(nranks, backend, max_steps):
    from repro.parallel import DistributedHydro
    from repro.problems import load_problem

    setup = load_problem("noh", nx=16, ny=16)
    driver = DistributedHydro(setup, nranks, backend=backend)
    driver.run(max_steps=max_steps)
    return driver.per_rank_comm()


@pytest.mark.parametrize("backend", ["threads", "processes"])
@pytest.mark.parametrize("nranks", [4, 8])
def test_dt_reduction_critical_path_is_log2(backend, nranks):
    if backend == "processes" and nranks == 8:
        pytest.skip("8-way process fan-out is covered by the threads run")
    per_rank = _per_rank_comm(nranks, backend, max_steps=10)
    reductions = per_rank[0]["dt_reductions"]
    assert reductions > 0
    expected_depth = math.ceil(math.log2(nranks))
    hops = [entry["dt_hops"] for entry in per_rank]
    # Every rank performed the same number of reductions; the critical
    # path of each is its busiest rank's hop count.
    assert all(entry["dt_reductions"] == reductions for entry in per_rank)
    depth = max(hops) / reductions
    assert depth == expected_depth
    assert depth < nranks - 1  # strictly better than the flat gather
    # The tree has exactly P−1 edges, each walked once per reduction
    # (up-sweep); the down-sweep reuses them, counted on the parent.
    assert sum(hops) == reductions * (nranks - 1)


@pytest.mark.parametrize("backend", ["threads", "processes"])
def test_dt_tree_counters(backend):
    """At 4 ranks the root combines ⌈log2 4⌉ = 2 children per
    reduction, on either distributed backend."""
    per_rank = _per_rank_comm(4, backend, max_steps=6)
    assert max(e["dt_hops"] for e in per_rank) \
        == 2 * per_rank[0]["dt_reductions"]
