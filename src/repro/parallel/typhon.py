"""Simulated Typhon — BookLeaf's unstructured-mesh comm library.

The real BookLeaf communicates through Typhon, a thin distributed
communication library over MPI that provides halo exchanges and
collectives for unstructured meshes.  MPI is not available in this
environment, so this module reimplements Typhon's semantics over
threads in one process: each rank runs the *unchanged* SPMD hydro code
in its own thread, and the exchange points synchronise through
barriers and move data by direct array copies between rank states.

Because numpy releases the GIL inside its kernels, the rank threads
genuinely overlap, but the purpose here is *semantic* fidelity plus
instrumentation, not speed: every exchange and reduction is counted
(messages and bytes), giving the performance model measured
communication volumes exactly where the real mini-app would have
MPI traffic — two halo exchanges and one global reduction per step
(paper Section IV-A).

Determinism: partial nodal sums are combined in ascending rank order
on every rank, so shared interface nodes receive *bit-identical*
values everywhere and a decomposed run tracks the serial one to
floating-point round-off only.

Every halo exchange runs over the compiled CommPlans
(docs/PARALLEL.md) as a single-barrier collective: pack this rank's
blocks into its staging buffer, one barrier, read the peers' blocks.

The per-step dt reduction is a **binomial-tree combining reduction**
(min is exact, so the tree result is bitwise equal to a root gather):
each rank combines its children's candidates, forwards one candidate
to its parent, and the root's result flows back down — O(log P) hops
on the critical path instead of the O(P) rank-0 serial gather, visible
in ``CommStats.dt_hops``.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..core.timestep import Candidate
from ..utils.errors import CommError
from .commplan import CommPlan, _widths, compile_plans
from .halo import Subdomain

_FLOAT_BYTES = 8

#: honest payload of the dt reduction: every rank publishes a
#: ``(dt, reason, cell, rank)`` tuple — four values, not one scalar
DT_REDUCE_VALUES = 4

#: the only dt-limiter reasons that cross the seam (``getdt``'s local
#: candidates); the processes backend encodes them as small ints
DT_REASONS = ("cfl", "div")

#: seconds a dt-tree spin-wait may starve before declaring
#: the run wedged (the backends' watchdogs normally fire first)
SPIN_TIMEOUT = 120.0

#: spin-wait backoff ceiling.  Virtual ranks oversubscribe the host,
#: so a waiter must *sleep*, not yield: every quantum it burns polling
#: is a quantum stolen from the very peer it is waiting on (the halo
#: exchanges' Barrier sleeps on a condition variable and sets the bar).
#: A handful of free polls catch the already-arrived case; after that
#: the sleep doubles from 2 µs up to this ceiling.
SPIN_MAX_SLEEP = 500e-6


def spin_backoff(spins: int) -> float:
    """Sleep duration for the ``spins``-th unsuccessful poll."""
    if spins < 4:
        return 0.0
    return min(SPIN_MAX_SLEEP, 2e-6 * (1 << min(spins - 4, 10)))

#: shared no-op context for untraced comm calls (stateless, reusable)
_NULL_SPAN = nullcontext()


def tree_parent(rank: int) -> int:
    """Parent of ``rank`` in the binomial reduction tree (root 0):
    clear the lowest set bit."""
    return rank & (rank - 1)


def tree_children(rank: int, size: int) -> List[int]:
    """Children of ``rank`` in the binomial tree over ``size`` ranks,
    ascending.  Rank r owns r + 2^k for every k with r's low k+1 bits
    zero — the root's child count is ⌈log2 P⌉, the tree's depth bound."""
    children: List[int] = []
    k = 0
    while True:
        bit = 1 << k
        if rank & ((bit << 1) - 1):
            break
        child = rank + bit
        if child >= size:
            break
        children.append(child)
        k += 1
    return children


@dataclass
class CommStats:
    """Per-rank traffic counters (the perf model's inputs)."""

    messages: int = 0
    bytes_sent: int = 0
    halo_exchanges: int = 0
    reductions: int = 0
    #: dt reductions performed (each charges DT_REDUCE_VALUES once,
    #: whatever the tree shape — topology honesty lives in dt_hops)
    dt_reductions: int = 0
    #: combining messages *received* during dt up-sweeps: this rank's
    #: child count summed over reductions.  The per-reduction maximum
    #: over ranks is the tree's critical-path fan-in — ⌈log2 P⌉ for
    #: the binomial tree vs. P−1 for the old rank-0 root gather.
    dt_hops: int = 0

    def account(self, nvalues: int, messages: int = 1) -> None:
        """Charge ``nvalues`` float64 payload carried by ``messages``
        logical messages (1 per packed block per neighbour)."""
        self.messages += messages
        self.bytes_sent += nvalues * _FLOAT_BYTES

    def bytes_per_step(self, steps: int) -> float:
        """Traffic volume normalised per step (the scaling curves'
        x-axis companion; 0.0 for an unstepped run)."""
        return self.bytes_sent / steps if steps else 0.0

    def as_dict(self) -> dict:
        """JSON-ready counters (the run report's ``comm`` entries)."""
        return {
            "messages": self.messages,
            "bytes": self.bytes_sent,
            "halo_exchanges": self.halo_exchanges,
            "reductions": self.reductions,
            "dt_reductions": self.dt_reductions,
            "dt_hops": self.dt_hops,
        }


class TyphonContext:
    """Shared coordination state for all ranks of one run."""

    def __init__(self, subdomains: List[Subdomain], plans=None):
        self.subdomains = subdomains
        self.size = len(subdomains)
        self.barrier = threading.Barrier(self.size)
        #: phase-parity slots for the packed single-sync protocol:
        #: consecutive collectives publish into alternating halves
        self.pslots: List[List[Optional[object]]] = [
            [None] * self.size, [None] * self.size,
        ]
        #: binomial-tree dt combining cells: ``dt_up[r]`` holds rank
        #: r's combined candidate for its parent, ``dt_down[r]`` the
        #: broadcast result for r's children — each a ``(generation,
        #: candidate)`` tuple, single writer, generation-guarded reads.
        self.dt_up: List[Optional[tuple]] = [None] * self.size
        self.dt_down: List[Optional[tuple]] = [None] * self.size
        #: per-rank wake-up conditions for the dt-tree waits: a
        #: publisher notifies exactly the ranks whose predicates watch
        #: the advanced cell, so waiters sleep event-driven (like the
        #: halo Barrier) instead of burning the quantum the
        #: awaited peer needs — on an oversubscribed host a polling
        #: waiter pays either stolen CPU or wake-up latency; a
        #: condition variable pays neither, and per-rank conditions
        #: avoid the thundering herd a single shared one would wake
        self.rank_cv = [threading.Condition() for _ in range(self.size)]
        #: per-rank live state references (registered by the driver)
        self.states: List[Optional[object]] = [None] * self.size
        self.stats: List[CommStats] = [CommStats() for _ in range(self.size)]
        #: compiled packed-exchange layouts, one per rank (callers with
        #: an artifact cache hand in the precompiled set)
        self.plans: List[CommPlan] = (
            plans if plans is not None else compile_plans(subdomains)
        )
        # Staging buffers live in a Workspace arena (the PR-1 allocator
        # extended into the comm layer): allocated once here, reused by
        # every exchange of the run.  Peers read each other's staging
        # directly — shared process memory is the transport.
        from ..perf.workspace import Workspace

        self.comm_ws = Workspace()
        self.staging: List[np.ndarray] = [
            self.comm_ws.array(f"commplan.staging.rank{plan.rank}",
                               plan.staging_doubles())
            for plan in self.plans
        ]
        self._failure = threading.Event()

    def register_state(self, rank: int, state) -> None:
        self.states[rank] = state

    def sync(self) -> None:
        """Barrier with failure propagation: if any rank died, raise."""
        if self._failure.is_set():
            raise CommError("a peer rank failed; aborting collective")
        try:
            self.barrier.wait()
        except threading.BrokenBarrierError:
            raise CommError("a peer rank failed; aborting collective") from None

    def abort(self) -> None:
        """Mark the run failed and release everyone stuck in a barrier
        or a dt-tree wait."""
        self._failure.set()
        self.barrier.abort()
        for cv in self.rank_cv:
            with cv:
                cv.notify_all()

    def total_stats(self) -> CommStats:
        total = CommStats()
        for s in self.stats:
            total.messages += s.messages
            total.bytes_sent += s.bytes_sent
            total.halo_exchanges += s.halo_exchanges
            total.reductions += s.reductions
            total.dt_reductions += s.dt_reductions
            total.dt_hops += s.dt_hops
        return total

    def per_rank_stats(self) -> List[dict]:
        """Every rank's counters in ascending rank order (deterministic
        — each rank only ever writes its own :class:`CommStats`)."""
        return [s.as_dict() for s in self.stats]

    def traffic_matrix(self) -> np.ndarray:
        """(size, size) static bytes-per-step estimate between rank
        pairs, from the halo schedules: kinematic halo (4 fields) plus
        nodal-sum completion (3 fields) — the map a communication-
        topology study would draw."""
        matrix = np.zeros((self.size, self.size))
        for sub in self.subdomains:
            for src, idx in sub.recv_nodes.items():
                matrix[src, sub.rank] += 4 * idx.size * _FLOAT_BYTES
            for peer, idx in sub.shared_nodes.items():
                matrix[peer, sub.rank] += 3 * idx.size * _FLOAT_BYTES
        return matrix


class TyphonComms:
    """One rank's communication endpoint (plugs into the comms seam).

    Every exchange runs over the compiled
    :class:`~repro.parallel.commplan.CommPlan` as a single-sync
    protocol: gather the halo values into this rank's preallocated
    staging buffer, one barrier, read the peers' packed blocks.

    Nodal-sum totals are returned as rows of a reused arena
    buffer: they stay valid until the *next-but-one* completion with
    the same field count (double-buffered by parity), which covers
    every caller in the step loop — long-lived results must be
    committed by copy, the same contract as the PR-1 kernel arena.
    """

    #: declares conformance to repro.parallel.interface.CommEndpoint
    __comm_endpoint__ = True

    def __init__(self, ctx: TyphonContext, sub: Subdomain, tracer=None,
                 plan: Optional[CommPlan] = None):
        self.ctx = ctx
        self.sub = sub
        self.rank = sub.rank
        self.size = ctx.size
        self.stats = ctx.stats[self.rank]
        #: optional :class:`~repro.telemetry.spans.Tracer`; when set,
        #: every exchange/reduction records a ``comm`` span on this
        #: rank's stream (the span covers the barrier waits too — in a
        #: trace, load imbalance shows up as long comm spans)
        self.tracer = tracer
        self.plan = plan if plan is not None else ctx.plans[self.rank]
        #: collective-phase counter: parity selects the pslot row and
        #: the staging half.  Advanced once per barrier collective on
        #: every rank — the op sequence is SPMD, so the counters agree
        #: globally.
        self._phase = 0
        #: dt-reduction generation (guards the combining cells' reuse)
        self._dt_gen = 0
        from ..perf.workspace import Workspace

        #: arena for the reusable nodal-sum totals buffers
        self._ws = Workspace()

    def _span(self, name: str):
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            return _NULL_SPAN
        return tracer.span(name, cat="comm")

    # ------------------------------------------------------------------
    # packed-protocol helpers
    # ------------------------------------------------------------------
    def _my_region(self, section: str, parity: int) -> np.ndarray:
        plan = self.plan
        return plan.region(self.ctx.staging[self.rank], section, parity)

    def _peer_region(self, peer: int, section: str,
                     parity: int) -> np.ndarray:
        plan = self.ctx.plans[peer]
        return plan.region(self.ctx.staging[peer], section, parity)

    def _slots(self) -> List[Optional[object]]:
        """Publication slots for a scalar collective: the phase-parity
        pslot row (single sync; double-buffered like the staging)."""
        return self.ctx.pslots[self._phase & 1]

    def _finish_collective(self) -> None:
        """Close a scalar collective: advance the parity phase."""
        self._phase += 1

    # ------------------------------------------------------------------
    # dt-tree neighbour synchronisation
    # ------------------------------------------------------------------
    def _spin(self, ready, what: str) -> None:
        """Wait until ``ready()`` — event-driven, never a global
        barrier.  The fast path (already satisfied) takes no lock;
        otherwise the wait sleeps on this rank's wake-up condition,
        re-checking the predicate whenever a watched peer publishes.
        The 100 ms guard timeout only serves the failure/deadline
        checks."""
        if ready():
            return
        ctx = self.ctx
        deadline = time.monotonic() + SPIN_TIMEOUT
        cv = ctx.rank_cv[self.rank]
        with cv:
            while not cv.wait_for(ready, timeout=0.1):
                if ctx._failure.is_set():
                    raise CommError(
                        "a peer rank failed; aborting collective")
                if time.monotonic() > deadline:
                    raise CommError(
                        f"rank {self.rank} timed out waiting for {what}"
                    )

    def _announce(self, ranks) -> None:
        """Wake the ranks whose ``_spin`` predicates watch a counter
        this rank just advanced (and nobody else)."""
        for r in ranks:
            cv = self.ctx.rank_cv[r]
            with cv:
                cv.notify_all()

    # ------------------------------------------------------------------
    # kinematic halo exchange (before the viscosity kernel)
    # ------------------------------------------------------------------
    def exchange_kinematics(self, state) -> None:
        """Refresh ghost-only nodes' x, y, u, v from their owner ranks."""
        with self._span("typhon.exchange_kinematics"):
            self._exchange_kinematics(state)

    def _exchange_kinematics(self, state) -> None:
        # One (4, n) coalesced message per neighbour, one sync.  The
        # trailing barrier is unnecessary because the next collective
        # writes the opposite parity half.
        parity = self._phase & 1
        sec = self.plan.kin
        sec.pack(self._my_region("kin", parity),
                 (state.x, state.y, state.u, state.v))
        self.ctx.sync()  # every rank's halo block staged
        for src_rank, local_idx in self.sub.recv_nodes.items():
            bx, by, bu, bv = sec.peer_blocks(
                src_rank, self._peer_region(src_rank, "kin", parity),
                (1, 1, 1, 1)
            )
            state.x[local_idx] = bx
            state.y[local_idx] = by
            state.u[local_idx] = bu
            state.v[local_idx] = bv
            self.stats.account(4 * local_idx.size)
        self.stats.halo_exchanges += 1
        self._phase += 1

    # ------------------------------------------------------------------
    # nodal sum completion (inside the acceleration kernel)
    # ------------------------------------------------------------------
    def complete_node_arrays(self, state, *arrays: np.ndarray
                             ) -> Tuple[np.ndarray, ...]:
        """Complete partial nodal sums across ranks.

        ``arrays`` are this rank's per-node partial sums, accumulated
        from *owned* cells only.  Partials are combined in ascending
        rank order so every rank computes bit-identical totals for
        shared nodes.
        """
        with self._span("typhon.complete_node_arrays"):
            return self._complete_node_arrays(state, *arrays)

    def _complete_node_arrays(self, state, *partials: np.ndarray
                              ) -> Tuple[np.ndarray, ...]:
        # Stage only the *shared-node* values (one coalesced message
        # per peer), one sync, fold into reused arena totals
        # (double-buffered by parity).  The fold visits the ascending
        # rank sequence with this rank's own partial in its sorted
        # position, so shared nodes accumulate in a fixed order bit
        # for bit.
        ctx = self.ctx
        parity = self._phase & 1
        sec = self.plan.nodesum
        sec.pack(self._my_region("nodesum", parity), partials)
        ctx.sync()  # every rank's shared-node block staged
        nf = len(partials)
        buf = self._ws.zeros(f"commplan.totals{nf}.{parity}",
                             (nf, partials[0].shape[0]))
        totals = tuple(buf[i] for i in range(nf))
        widths = _widths(partials)
        ranks = sorted(set(self.sub.shared_nodes) | {self.rank})
        for r in ranks:
            if r == self.rank:
                for total, p in zip(totals, partials):
                    total += p
            else:
                mine = self.sub.shared_nodes[r]
                blocks = sec.peer_blocks(
                    r, self._peer_region(r, "nodesum", parity), widths
                )
                for total, block in zip(totals, blocks):
                    total[mine] += block
                self.stats.account(nf * mine.size)
        self.stats.halo_exchanges += 1
        self._phase += 1
        return totals

    def assemble_node_sums(self, state, fx: np.ndarray, fy: np.ndarray
                           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Owned-cell scatter + deterministic cross-rank completion."""
        owned = self.sub.owned_cell_mask[:, None]
        node_fx = state.scatter_to_nodes(np.where(owned, fx, 0.0))
        node_fy = state.scatter_to_nodes(np.where(owned, fy, 0.0))
        mass = state.scatter_to_nodes(
            np.where(owned, state.corner_mass, 0.0)
        )
        return self.complete_node_arrays(state, node_fx, node_fy, mass)

    # ------------------------------------------------------------------
    # the single global reduction (getdt)
    # ------------------------------------------------------------------
    def reduce_dt(self, candidates: List[Candidate]) -> Candidate:
        """Global minimum-dt candidate, with the cell id globalised."""
        with self._span("typhon.reduce_dt"):
            return self._reduce_dt(candidates)

    def _reduce_dt(self, candidates: List[Candidate]) -> Candidate:
        """Binomial-tree combining reduction.

        Up-sweep: combine the children's candidates into this rank's
        local best and hand one candidate to the parent; down-sweep:
        the root's winner flows back along the same edges.  min over
        the ``(dt, src_rank)`` key is exact and associative, so the
        result is bitwise equal to a flat gather — but the critical
        path is ⌈log2 P⌉ combining messages instead of the old rank-0
        root's P−1.  Fully synchronising (no rank can leave before
        every rank has entered), which is what the parity-slot reuse
        invariant requires of every collective.
        """
        dt, reason, cell = min(candidates, key=lambda c: c[0])
        gcell = int(self.sub.cell_global[cell]) if cell >= 0 else -1
        ctx = self.ctx
        self._dt_gen += 1
        g = self._dt_gen
        best = (dt, reason, gcell, self.rank)
        hops = 0
        children = tree_children(self.rank, self.size)
        for child in children:
            self._spin(
                lambda c=child: (ctx.dt_up[c] is not None
                                 and ctx.dt_up[c][0] == g),
                f"dt candidate from child rank {child} (gen {g})",
            )
            entry = ctx.dt_up[child][1]
            best = min(best, entry, key=lambda c: (c[0], c[3]))
            hops += 1
        if self.rank == 0:
            result = best
        else:
            parent = tree_parent(self.rank)
            ctx.dt_up[self.rank] = (g, best)
            self._announce((parent,))
            self._spin(
                lambda: (ctx.dt_down[parent] is not None
                         and ctx.dt_down[parent][0] == g),
                f"dt result from parent rank {parent} (gen {g})",
            )
            result = ctx.dt_down[parent][1]
        ctx.dt_down[self.rank] = (g, result)
        self._announce(children)
        self.stats.reductions += 1
        self.stats.dt_reductions += 1
        self.stats.dt_hops += hops
        self.stats.account(DT_REDUCE_VALUES)
        return (result[0], result[1], result[2])

    def allreduce_max(self, value: float) -> float:
        """Global maximum of a scalar across ranks."""
        with self._span("typhon.allreduce_max"):
            return self._allreduce_max(value)

    def _allreduce_max(self, value: float) -> float:
        ctx = self.ctx
        slots = self._slots()
        slots[self.rank] = float(value)
        ctx.sync()
        result = max(slots)      # type: ignore[type-var]
        self.stats.reductions += 1
        self.stats.account(1)
        self._finish_collective()
        return float(result)     # type: ignore[arg-type]

    def allreduce_sum(self, values: np.ndarray) -> np.ndarray:
        """Element-wise global sum of a small vector across ranks."""
        with self._span("typhon.allreduce_sum"):
            return self._allreduce_combine(values, np.add)

    def allreduce_min(self, values: np.ndarray) -> np.ndarray:
        """Element-wise global minimum of a small vector across ranks."""
        with self._span("typhon.allreduce_min"):
            return self._allreduce_combine(values, np.minimum)

    def _allreduce_combine(self, values: np.ndarray, op) -> np.ndarray:
        # Combined by a left fold in ascending rank order on every rank
        # — the same fold the processes backend's root reduce performs —
        # so all backends produce bit-identical results.
        ctx = self.ctx
        slots = self._slots()
        slots[self.rank] = np.array(values, dtype=np.float64)
        ctx.sync()
        result = np.array(slots[0], dtype=np.float64)
        for r in range(1, self.size):
            result = op(result, slots[r])
        self.stats.reductions += 1
        self.stats.account(result.size)
        self._finish_collective()
        return result

    # ------------------------------------------------------------------
    def owned_cell_mask(self, state) -> Optional[np.ndarray]:
        return self.sub.owned_cell_mask

    # ------------------------------------------------------------------
    # cell-field halo (the distributed ALE remap)
    # ------------------------------------------------------------------
    def exchange_cell_arrays(self, *arrays: np.ndarray) -> None:
        """Refresh the ghost-cell rows of per-cell arrays from their
        owner ranks (every rank must pass the same array list)."""
        with self._span("typhon.exchange_cell_arrays"):
            self._exchange_cell_arrays(*arrays)

    def _exchange_cell_arrays(self, *arrays: np.ndarray) -> None:
        # All cell fields coalesce into one block per neighbour
        # (scalars and (n, 4) corner fields interleaved by the plan's
        # per-array widths), one sync.
        parity = self._phase & 1
        sec = self.plan.cell
        sec.pack(self._my_region("cell", parity), arrays)
        self.ctx.sync()  # every rank's ghost-cell block staged
        widths = _widths(arrays)
        for src_rank, local_idx in self.sub.recv_cells.items():
            blocks = sec.peer_blocks(
                src_rank, self._peer_region(src_rank, "cell", parity),
                widths
            )
            nvalues = 0
            for mine, block in zip(arrays, blocks):
                mine[local_idx] = block
                nvalues += block.size
            self.stats.account(nvalues)
        self.stats.halo_exchanges += 1
        self._phase += 1

    def exchange_cell_fields(self, state) -> None:
        """Refresh ghost thermodynamics and masses before a remap."""
        self.exchange_cell_arrays(
            state.rho, state.e, state.cell_mass, state.corner_mass
        )

    def physical_boundary_sides(self, state) -> Optional[np.ndarray]:
        return self.sub.physical_boundary_sides()

    def physical_boundary_side_mask(self, state) -> Optional[np.ndarray]:
        return self.sub.physical_boundary_mask
