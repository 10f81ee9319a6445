"""The ``processes`` backend: one OS process per rank over shared memory.

The threads backend overlaps rank work only inside GIL-releasing numpy
kernels; everything else serialises.  This backend runs each rank's
*unchanged* SPMD hydro loop in its own forked process, so the ranks
genuinely execute in parallel, and reimplements the Typhon exchange
semantics over three primitives:

* **mailboxes** — one ``multiprocessing.shared_memory`` segment per
  rank, holding the rank's double-buffered packed staging (the
  compiled CommPlan's layout).  At every exchange point each rank
  packs its send blocks into its own mailbox and index-copies the
  blocks it needs out of its peers' — with the same ascending-rank
  summation order as the threads backend, so a processes run is
  **bit-identical** to a threads run of the same problem.  One
  ``multiprocessing.Barrier`` frames each exchange.
* **combining cells** — the per-step dt reduction runs the binomial
  tree over a shared segment of generation-guarded cells (up-sweep
  candidates, down-sweep result), O(log P) hops on the critical path.
* **pipes** — the remaining scalar collectives (the remap's collective
  skip decision, the metrics probe's sums/minima) stay a
  gather/broadcast over per-rank ``Pipe`` pairs rooted at rank 0, in
  ascending rank order.

Per-rank :class:`~repro.parallel.typhon.CommStats`, kernel timers and
trace spans are marshalled back over a result queue when the ranks
finish and merged with the existing deterministic rank-order rules;
final states are read back out of the mailboxes by the parent, so
``gather`` is backend-agnostic.

Requires the ``fork`` start method (the run context — problem setup,
subdomains, schedules — is inherited, never pickled), i.e. Linux or
macOS-with-fork.  See docs/PARALLEL.md for the layout diagram.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
import traceback
import warnings
from contextlib import nullcontext
from multiprocessing import shared_memory
from threading import BrokenBarrierError
from typing import Dict, List, Optional, Tuple

import numpy as np

from ...core.hydro import Hydro
from ...core.timestep import Candidate
from ...metrics.watchdog import (
    BOARD_COLS, Heartbeat, HeartbeatBoard, stall_message,
)
from ...utils.errors import BookLeafError, CommError, StalledRankWarning
from ...utils.timers import TimerRegistry
from ..commplan import CommPlan, _widths
from ..halo import Subdomain, local_state
from ..interface import BackendRun
from ..typhon import (
    DT_REASONS, DT_REDUCE_VALUES, SPIN_TIMEOUT, CommStats, spin_backoff,
    tree_children, tree_parent,
)
from .threads import pick_primary_failure, raise_rank_failure

_FLOAT_BYTES = 8

#: one dt combining cell: (generation, dt, reason code, global cell,
#: source rank) — generation guards reuse, the rest is the candidate
_DT_CELL = 5

#: shared no-op context for untraced comm calls (mirrors typhon.py)
_NULL_SPAN = nullcontext()

#: the final-state publication: every field ``gather`` reads, in a
#: fixed order, as (name, kind, trailing-dim) — kind sizes the leading
#: axis from the subdomain's local mesh (``node`` -> nnode,
#: ``cell`` -> ncell)
STATE_FIELDS: Tuple[Tuple[str, str, int], ...] = (
    ("x", "node", 1), ("y", "node", 1),
    ("u", "node", 1), ("v", "node", 1),
    ("rho", "cell", 1), ("e", "cell", 1), ("p", "cell", 1),
    ("cs2", "cell", 1), ("q", "cell", 1),
    ("cell_mass", "cell", 1), ("volume", "cell", 1),
    ("corner_mass", "cell", 4), ("corner_volume", "cell", 4),
)


class RemoteRankError(BookLeafError):
    """A failure that happened inside a rank process.

    Tracebacks cannot cross a process boundary as live objects, so the
    child formats its traceback and the parent chains this carrier —
    the remote stack stays readable in the exception report.
    """

    def __init__(self, message: str, remote_traceback: str = ""):
        self.remote_traceback = remote_traceback
        if remote_traceback:
            message = (f"{message}\n--- remote traceback ---\n"
                       f"{remote_traceback.rstrip()}")
        super().__init__(message)


def _mailbox_doubles(sub: Subdomain, plan: CommPlan) -> int:
    """Mailbox capacity (float64 slots) for one rank: exactly the
    plan's double-buffered packed staging — halo-proportional,
    typically O(√ncell) — because final states travel over the result
    queue."""
    return plan.staging_doubles()


class _ProcessRunContext:
    """Everything the rank processes share, created pre-fork.

    Fork semantics are load-bearing: children inherit this object (the
    setup, subdomains and schedules are never pickled); only the
    synchronisation primitives and shared segments are truly shared.
    """

    def __init__(self, driver, max_steps: Optional[int]):
        ctx = mp.get_context("fork")
        self.setup = driver.setup
        self.subdomains: List[Subdomain] = driver.subdomains
        self.size = driver.nranks
        self.max_steps = max_steps
        self.trace = driver.trace
        self.collect_steps = driver.collect_step_series
        self.build_probe = driver.build_probe
        self.watchdog_timeout = driver.watchdog_timeout
        self.epoch_ns = time.perf_counter_ns()
        #: compiled packed-exchange layouts
        self.plans: List[CommPlan] = driver.compiled_plans()
        self.barrier = ctx.Barrier(self.size)
        self.failure = ctx.Event()
        #: SimpleQueue: the put is synchronous, so a failing child can
        #: os._exit right after reporting without losing the record
        self.errors = ctx.SimpleQueue()
        self.results: mp.Queue = ctx.Queue()
        #: rank 0 holds the root end of one duplex pipe per peer rank
        self.root_conns: Dict[int, object] = {}
        self.leaf_conns: Dict[int, object] = {}
        for r in range(1, self.size):
            root, leaf = ctx.Pipe(duplex=True)
            self.root_conns[r] = root
            self.leaf_conns[r] = leaf
        self.segments: List[shared_memory.SharedMemory] = [
            shared_memory.SharedMemory(
                create=True,
                size=_mailbox_doubles(
                    sub, self.plans[sub.rank]
                ) * _FLOAT_BYTES,
            )
            for sub in self.subdomains
        ]
        # dt combining cells: (size, 2, _DT_CELL) float64 — row r holds
        # rank r's up-sweep candidate and down-sweep result, each
        # generation-stamped so reuse across reductions is unambiguous.
        self.dt_seg = shared_memory.SharedMemory(
            create=True, size=self.size * 2 * _DT_CELL * _FLOAT_BYTES,
        )
        # Heartbeat board: one shared (nranks, 2) float64 segment the
        # ranks beat into and the parent's stall monitor polls
        # (CLOCK_MONOTONIC is system-wide, so the stamps compare across
        # processes).  Launch-stamped pre-fork.
        self.heartbeat_seg = shared_memory.SharedMemory(
            create=True, size=self.size * BOARD_COLS * _FLOAT_BYTES
        )
        self.heartbeat_board().launch()
        self._ctx = ctx

    # ------------------------------------------------------------------
    def mailbox(self, rank: int) -> np.ndarray:
        seg = self.segments[rank]
        return np.ndarray(
            (seg.size // _FLOAT_BYTES,), dtype=np.float64, buffer=seg.buf
        )

    def dt_cells(self) -> np.ndarray:
        """(size, 2, _DT_CELL) dt combining-cell view (0 = up-sweep
        candidate, 1 = down-sweep result)."""
        return np.ndarray(
            (self.size, 2, _DT_CELL), dtype=np.float64,
            buffer=self.dt_seg.buf,
        )

    def heartbeat_board(self) -> HeartbeatBoard:
        """A view of the shared heartbeat segment (caller must drop the
        view — ``board.array = None`` — before interpreter teardown in
        the children, like the mailboxes)."""
        return HeartbeatBoard(np.ndarray(
            (self.size, BOARD_COLS), dtype=np.float64,
            buffer=self.heartbeat_seg.buf,
        ))

    def close_foreign_pipe_ends(self, rank: int) -> None:
        """Drop the pipe ends this rank does not own (fork duplicated
        every fd into every child; unowned copies would defeat EOF
        detection and leak descriptors)."""
        if rank != 0:
            for conn in self.root_conns.values():
                conn.close()
        for r, conn in self.leaf_conns.items():
            if r != rank:
                conn.close()

    # ------------------------------------------------------------------
    # collective semantics (mirrors TyphonContext.sync/abort)
    # ------------------------------------------------------------------
    def sync(self) -> None:
        if self.failure.is_set():
            raise CommError("a peer rank failed; aborting collective")
        try:
            self.barrier.wait()
        except BrokenBarrierError:
            raise CommError("a peer rank failed; aborting collective") from None

    def abort(self) -> None:
        self.failure.set()
        try:
            self.barrier.abort()
        except Exception:
            pass

    def recv(self, conn) -> object:
        """Blocking pipe receive that fails fast when a peer died.

        A closed pipe (the peer process is gone) is a *secondary*
        symptom, so it surfaces as :class:`CommError` — failure
        attribution then points at the rank that actually died.
        """
        try:
            while not conn.poll(0.2):
                if self.failure.is_set():
                    raise CommError(
                        "a peer rank failed; aborting collective"
                    )
            return conn.recv()
        except (EOFError, BrokenPipeError, OSError):
            raise CommError(
                "a peer rank closed its pipe; aborting collective"
            ) from None

    def send(self, conn, payload) -> None:
        """Pipe send with the same dead-peer translation as recv."""
        try:
            conn.send(payload)
        except (BrokenPipeError, OSError):
            raise CommError(
                "a peer rank closed its pipe; aborting collective"
            ) from None

    def cleanup(self) -> None:
        for conn in list(self.root_conns.values()) + list(self.leaf_conns.values()):
            try:
                conn.close()
            except Exception:
                pass
        for seg in self.segments + [self.dt_seg, self.heartbeat_seg]:
            try:
                seg.close()
            except Exception:
                pass
            try:
                seg.unlink()
            except Exception:
                pass


class ProcessComms:
    """One rank's communication endpoint over shared-memory mailboxes.

    Counter accounting and summation order mirror
    :class:`~repro.parallel.typhon.TyphonComms` line for line — the
    backend-equivalence tests assert *identical* per-rank CommStats and
    bit-identical gathered states against the threads backend.
    """

    #: declares conformance to repro.parallel.interface.CommEndpoint
    __comm_endpoint__ = True

    def __init__(self, ctx: _ProcessRunContext, sub: Subdomain, tracer=None,
                 plan: Optional[CommPlan] = None):
        self.ctx = ctx
        self.sub = sub
        self.rank = sub.rank
        self.size = ctx.size
        self.stats = CommStats()
        self.tracer = tracer
        self._mailbox = ctx.mailbox(self.rank)
        self.plan = plan if plan is not None else ctx.plans[sub.rank]
        #: collective-phase counter — advanced once per barrier
        #: collective, mirroring TyphonComms, so parity schedules agree
        self._phase = 0
        #: shared dt combining cells
        self._dt = ctx.dt_cells()
        self._dt_gen = 0
        #: cached peer-mailbox views (one ndarray export per peer, not
        #: one per exchange) — dropped with the own view at teardown
        self._views: Dict[int, np.ndarray] = {}
        from ...perf.workspace import Workspace

        #: arena for the reusable nodal-sum totals buffers
        self._ws = Workspace()

    def drop_segment_views(self) -> None:
        """Release every shared-segment export before interpreter
        teardown (an mmap cannot close while a numpy view is alive)."""
        self._mailbox = None
        self._dt = None
        self._views.clear()

    def _span(self, name: str):
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            return _NULL_SPAN
        return tracer.span(name, cat="comm")

    # ------------------------------------------------------------------
    # packed-protocol helpers (mirror TyphonComms)
    # ------------------------------------------------------------------
    def _peer_mail(self, peer: int) -> np.ndarray:
        buf = self._views.get(peer)
        if buf is None:
            buf = self.ctx.mailbox(peer)
            self._views[peer] = buf
        return buf

    def _my_region(self, section: str, parity: int) -> np.ndarray:
        return self.plan.region(self._mailbox, section, parity)

    def _peer_region(self, peer: int, section: str,
                     parity: int) -> np.ndarray:
        return self.ctx.plans[peer].region(
            self._peer_mail(peer), section, parity
        )

    # ------------------------------------------------------------------
    # dt-tree neighbour synchronisation (mirrors TyphonComms; the
    # combining cells live in a shared float64 segment)
    # ------------------------------------------------------------------
    def _spin(self, ready, what: str) -> None:
        """Wait until ``ready()`` — sleeping with backoff, never a
        global barrier (and never busy-polling: on an oversubscribed
        host every burned quantum starves the awaited peer)."""
        if ready():
            return
        deadline = time.monotonic() + SPIN_TIMEOUT
        spins = 0
        while not ready():
            if self.ctx.failure.is_set():
                raise CommError("a peer rank failed; aborting collective")
            spins += 1
            time.sleep(spin_backoff(spins))
            if spins % 64 == 0 and time.monotonic() > deadline:
                raise CommError(
                    f"rank {self.rank} timed out waiting for {what}"
                )

    # ------------------------------------------------------------------
    # kinematic halo exchange (before the viscosity kernel)
    # ------------------------------------------------------------------
    def exchange_kinematics(self, state) -> None:
        """Refresh ghost-only nodes' x, y, u, v from their owner ranks."""
        with self._span("typhon.exchange_kinematics"):
            self._exchange_kinematics(state)

    def _exchange_kinematics(self, state) -> None:
        # One (4, n) coalesced message per neighbour, one sync (the
        # next collective writes the opposite parity).
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
        """Complete partial nodal sums across ranks (ascending rank
        order — bit-identical totals on every rank)."""
        with self._span("typhon.complete_node_arrays"):
            return self._complete_node_arrays(state, *arrays)

    def _complete_node_arrays(self, state, *partials: np.ndarray
                              ) -> Tuple[np.ndarray, ...]:
        # Stage shared-node values only, one sync, fold into reused
        # arena totals (double-buffered by parity) in the identical
        # ascending order.
        parity = self._phase & 1
        sec = self.plan.nodesum
        sec.pack(self._my_region("nodesum", parity), partials)
        self.ctx.sync()  # every rank's shared-node block staged
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
    # the single global reduction (getdt) — binomial combining cells
    # ------------------------------------------------------------------
    def reduce_dt(self, candidates: List[Candidate]) -> Candidate:
        """Global minimum-dt candidate, with the cell id globalised."""
        with self._span("typhon.reduce_dt"):
            return self._reduce_dt(candidates)

    def _write_dt_cell(self, row: int, g: int, cand: tuple) -> None:
        """Publish a candidate into this rank's combining cell: payload
        first, generation stamp last (x86 stores are not reordered, so
        a reader that observes the stamp observes the payload)."""
        dt, reason, gcell, src = cand
        try:
            code = DT_REASONS.index(reason)
        except ValueError:
            raise CommError(
                f"unencodable dt reason {reason!r}; expected one of "
                f"{DT_REASONS}"
            ) from None
        cell = self._dt[self.rank, row]
        cell[1] = dt
        cell[2] = float(code)
        cell[3] = float(gcell)
        cell[4] = float(src)
        cell[0] = float(g)

    def _read_dt_cell(self, rank: int, row: int) -> tuple:
        cell = self._dt[rank, row]
        return (float(cell[1]), DT_REASONS[int(cell[2])],
                int(cell[3]), int(cell[4]))

    def _reduce_dt(self, candidates: List[Candidate]) -> Candidate:
        """Binomial-tree combining reduction over shared cells — same
        topology and combine key as TyphonComms, so a
        processes run's dt stream and CommStats match the threads
        backend exactly.  O(log P) hops on the critical path."""
        dt, reason, cell = min(candidates, key=lambda c: c[0])
        gcell = int(self.sub.cell_global[cell]) if cell >= 0 else -1
        self._dt_gen += 1
        g = self._dt_gen
        best = (dt, reason, gcell, self.rank)
        hops = 0
        for child in tree_children(self.rank, self.size):
            self._spin(
                lambda c=child: self._dt[c, 0, 0] >= g,
                f"dt candidate from child rank {child} (gen {g})",
            )
            entry = self._read_dt_cell(child, 0)
            best = min(best, entry, key=lambda c: (c[0], c[3]))
            hops += 1
        if self.rank == 0:
            result = best
        else:
            self._write_dt_cell(0, g, best)
            parent = tree_parent(self.rank)
            self._spin(
                lambda: self._dt[parent, 1, 0] >= g,
                f"dt result from parent rank {parent} (gen {g})",
            )
            result = self._read_dt_cell(parent, 1)
        self._write_dt_cell(1, g, result)
        self.stats.reductions += 1
        self.stats.dt_reductions += 1
        self.stats.dt_hops += hops
        self.stats.account(DT_REDUCE_VALUES)
        return (result[0], result[1], result[2])

    def allreduce_max(self, value: float) -> float:
        """Global maximum of a scalar across ranks."""
        with self._span("typhon.allreduce_max"):
            result = self._root_reduce(float(value), max)
        self.stats.reductions += 1
        self.stats.account(1)
        self._phase += 1
        return float(result)

    def allreduce_sum(self, values: np.ndarray) -> np.ndarray:
        """Element-wise global sum of a small vector across ranks."""
        return self._allreduce_combine(
            values, np.add, "typhon.allreduce_sum")

    def allreduce_min(self, values: np.ndarray) -> np.ndarray:
        """Element-wise global minimum of a small vector across ranks."""
        return self._allreduce_combine(
            values, np.minimum, "typhon.allreduce_min")

    def _allreduce_combine(self, values: np.ndarray, op,
                           span_name: str) -> np.ndarray:
        # Ascending-rank left fold — the same fold TyphonComms performs
        # in shared slots — so threads and processes runs stay
        # bit-identical down to the diagnostics stream.
        def combine(entries):
            result = np.array(entries[0], dtype=np.float64)
            for entry in entries[1:]:
                result = op(result, entry)
            return result

        with self._span(span_name):
            result = self._root_reduce(
                np.array(values, dtype=np.float64), combine)
        self.stats.reductions += 1
        self.stats.account(result.size)
        self._phase += 1
        return result

    def _root_reduce(self, mine, combine):
        """Gather every rank's value at rank 0 (ascending rank order,
        so tie-breaks are deterministic), combine, broadcast back."""
        ctx = self.ctx
        if self.rank == 0:
            entries = [mine]
            for r in range(1, self.size):
                entries.append(ctx.recv(ctx.root_conns[r]))
            result = combine(entries)
            for r in range(1, self.size):
                ctx.send(ctx.root_conns[r], result)
            return result
        conn = ctx.leaf_conns[self.rank]
        ctx.send(conn, mine)
        return ctx.recv(conn)

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
        # All cell fields coalesce into one block per neighbour, one
        # sync.
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


def _state_from_payload(rc: _ProcessRunContext, rank: int,
                        fields: Dict[str, np.ndarray]):
    """Parent side: rebuild one rank's final local state from its
    result-queue payload (the packed path — a pickle round-trip of
    float64 arrays is exact, so bit-identity is preserved)."""
    state = local_state(rc.subdomains[rank], rc.setup.state)
    for name, _, _ in STATE_FIELDS:
        setattr(state, name, fields[name])
    state.invalidate_node_mass()
    return state


def _rank_main(rc: _ProcessRunContext, rank: int) -> None:
    """Entry point of one rank process (runs in the forked child)."""
    try:
        rc.close_foreign_pipe_ends(rank)
        sub = rc.subdomains[rank]
        state = local_state(sub, rc.setup.state)
        tracer = None
        if rc.trace:
            from ...telemetry.spans import Tracer

            tracer = Tracer(rank=rank, epoch_ns=rc.epoch_ns)
        comms = ProcessComms(rc, sub, tracer=tracer, plan=rc.plans[rank])
        timers = TimerRegistry()
        timers.tracer = tracer
        probe = rc.build_probe(rank, cell_global=sub.cell_global)
        hydro = Hydro(state, rc.setup.table, rc.setup.controls,
                      timers=timers, comms=comms, probe=probe)
        board = rc.heartbeat_board()
        hydro.observers.append(Heartbeat(board, rank))
        series = None
        if rank == 0 and rc.collect_steps:
            from ...telemetry.report import StepSeries

            series = StepSeries()
            hydro.observers.append(series)
        hydro.run(max_steps=rc.max_steps)
        # Collective end-of-run point: every rank is past its last
        # staging read before anyone tears its mailbox views down.
        rc.sync()
        # Halo-sized mailboxes cannot carry the final state; ship it
        # over the result queue (one pickle at end of run).
        final_state = {
            name: np.ascontiguousarray(getattr(hydro.state, name))
            for name, _, _ in STATE_FIELDS
        }
        timers.tracer = None  # tracer spans travel separately
        rc.results.put((rank, {
            "nstep": hydro.nstep,
            "time": hydro.time,
            "timers": timers,
            "spans": tracer.spans if tracer is not None else [],
            "comm": comms.stats.as_dict(),
            "state": final_state,
            "step_rows": series.rows if series is not None else None,
            "metrics_rows": probe.rows if probe is not None else None,
            "metrics": probe.registry if probe is not None else None,
        }))
        # Release the shared-segment views before interpreter teardown:
        # an mmap cannot close while a numpy export is alive.
        comms.drop_segment_views()
        board.array = None
    except BaseException as exc:
        rc.errors.put((
            rank, type(exc).__name__, str(exc), traceback.format_exc(),
        ))
        rc.abort()
        os._exit(1)


class ProcessesBackend:
    """Launch one forked process per rank; marshal everything back."""

    name = "processes"

    # ------------------------------------------------------------------
    def prepare(self, driver) -> None:
        if "fork" not in mp.get_all_start_methods():
            raise BookLeafError(
                "the processes backend needs the 'fork' start method "
                "(Linux/macOS); use backend='threads' here"
            )
        # Rank objects live in the children; the driver keeps only the
        # decomposition (and, after run, the marshalled BackendRun).

    # ------------------------------------------------------------------
    def execute(self, driver, max_steps: Optional[int] = None) -> BackendRun:
        rc = _ProcessRunContext(driver, max_steps)
        try:
            return self._execute(driver, rc)
        finally:
            rc.cleanup()

    def _execute(self, driver, rc: _ProcessRunContext) -> BackendRun:
        ctx = rc._ctx
        procs = [
            ctx.Process(target=_rank_main, args=(rc, r), name=f"rank{r}")
            for r in range(rc.size)
        ]
        for p in procs:
            p.start()
        # Parent's copies of the pipe ends are not used; close them so
        # fd accounting stays tight (children hold their own copies).
        for conn in list(rc.root_conns.values()) + list(rc.leaf_conns.values()):
            conn.close()

        results: Dict[int, dict] = {}
        error_records: List[Tuple[int, str, str, str]] = []
        dead: Dict[int, int] = {}
        board = rc.heartbeat_board()
        timeout = rc.watchdog_timeout
        stalled: Dict[int, dict] = {}

        def drain() -> None:
            while True:
                try:
                    rank, payload = rc.results.get_nowait()
                except Exception:
                    break
                results[rank] = payload
            while not rc.errors.empty():
                error_records.append(rc.errors.get())

        while True:
            drain()
            for r, p in enumerate(procs):
                if (not p.is_alive() and p.exitcode not in (0, None)
                        and r not in dead):
                    dead[r] = p.exitcode
                    rc.abort()  # free peers stuck in barriers/pipes
                    if timeout is not None and r not in stalled:
                        # A dead rank has definitively stopped beating;
                        # the watchdog reports it immediately rather
                        # than waiting out the timeout.
                        stalled[r] = board.last_seen()[r]
            if timeout is not None and not stalled:
                for r, seen in board.stalled(timeout).items():
                    if r not in results:
                        stalled[r] = seen
                if stalled:
                    rc.abort()  # diagnose the hang instead of sharing it
            if len(results) == rc.size:
                break
            if all(not p.is_alive() for p in procs):
                break
            if stalled and all(
                not procs[r].is_alive()
                for r in range(rc.size) if r not in stalled
            ):
                break  # only wedged ranks left; terminate them below
            time.sleep(0.01)
        for p in procs:
            p.join(timeout=10.0)
            if p.is_alive():
                p.terminate()
                p.join(timeout=5.0)
        drain()

        if stalled:
            message = stall_message(stalled, board, timeout)
            warnings.warn(message, StalledRankWarning)
        board.array = None

        failures: List[Tuple[int, BaseException]] = []
        for rank, etype, emsg, tb in error_records:
            if etype == "CommError":
                failures.append((rank, CommError(emsg)))
            else:
                failures.append(
                    (rank, RemoteRankError(f"[{etype}] {emsg}", tb))
                )
        reported = {rank for rank, _ in failures}
        for rank, exitcode in sorted(dead.items()):
            if rank not in reported and rank not in results:
                failures.append((rank, RemoteRankError(
                    f"rank process terminated abnormally "
                    f"(exitcode {exitcode})"
                )))
        if stalled and all(isinstance(exc, CommError) for _, exc in failures):
            # The wedge itself never raised (that is what a wedge is);
            # the peers only carry the secondary abort cascade — the
            # watchdog verdict is the primary failure.
            raise BookLeafError(f"run aborted: {message}")
        if failures:
            rank, exc = pick_primary_failure(failures)
            raise_rank_failure(rank, exc)
        if len(results) != rc.size:
            missing = sorted(set(range(rc.size)) - set(results))
            raise BookLeafError(
                f"ranks {missing} exited without reporting results"
            )

        steps = {results[r]["nstep"] for r in range(rc.size)}
        times = {round(results[r]["time"], 14) for r in range(rc.size)}
        if len(steps) != 1 or len(times) != 1:
            raise BookLeafError(
                f"ranks desynchronised: steps={steps} times={times}"
            )
        states = [
            _state_from_payload(rc, r, results[r]["state"])
            for r in range(rc.size)
        ]
        return BackendRun(
            backend=self.name,
            nranks=rc.size,
            nstep=results[0]["nstep"],
            time=results[0]["time"],
            states=states,
            timers=[results[r]["timers"] for r in range(rc.size)],
            spans=[results[r]["spans"] for r in range(rc.size)],
            comm_per_rank=[results[r]["comm"] for r in range(rc.size)],
            step_rows=results[0]["step_rows"],
            metrics_rows=results[0].get("metrics_rows"),
            metrics=results[0].get("metrics"),
        )
