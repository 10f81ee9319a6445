"""Per-layer metrics, measured from outside the program.

Two sources, neither of which adds tracing to ``src/``:

* :class:`Recorder` times calls into each layer's public entry points
  by wrapping them for the duration of one traced operation (and
  restoring them after), so untraced operations run unmodified code;
* the counters a :class:`repro.api.RunResult` already returns: the
  Table II kernel timers, the per-rank comm counters, the trace spans
  of a ``RunConfig(trace=True)`` run, and the fleet's event log.

Time metrics ending in ``_ns`` are nanoseconds per cell-step, with a
rank's seconds averaged over the ranks (they run side by side), so
``core.*`` + ``comm.exchange_ns`` + ``ale.alestep_ns`` +
``core.unattributed_ns`` = ``core.step_loop_ns``.
"""

from __future__ import annotations

import importlib
import sys
import time

CORE_REGIONS = ("getq", "getforce", "getacc", "getgeom", "getdt", "getpc",
                "getein", "getrho")
#: ALE sub-regions, all nested inside ``alestep``
ALE_REGIONS = {"getmesh": "alegetmesh", "getfvol": "alegetfvol",
               "advect": "aleadvect", "update": "aleupdate"}

#: Computed bytes per call of each Table II kernel, per cell: the
#: arrays it reads plus the arrays it writes, each counted once, as
#: (corner doubles, cell doubles, node doubles, cell ints).  A quad
#: cell has 4 corners; node counts scale by nnode/ncell.  Temporaries
#: and cache misses are ignored, so these are lower bounds.
KERNEL_TRAFFIC = {
    # cx cy fqx fqy | u v rho cs2 p vol q p_eff | u v
    "getq": (16, 6, 2, 0),
    # cx cy fqx fqy cmass cvol fx fy | p_eff rho cs2 vol | u v
    "getforce": (32, 4, 2, 0),
    # fx fy | mass u v u_new v_new u_bar v_bar
    "getacc": (8, 0, 7, 0),
    # cx cy cvol | vol | x y u v x' y'
    "getgeom": (12, 1, 6, 0),
    # vol cs2 q rho | x y u v
    "getdt": (0, 4, 4, 0),
    # rho e p cs2 | mat
    "getpc": (0, 4, 0, 1),
    # fx fy | e (read and written) | u v
    "getein": (8, 2, 2, 0),
    # cell_mass vol rho
    "getrho": (0, 3, 0, 0),
}

#: (module, class or None, attribute, span name) of every entry point
#: the recorder wraps.  A plain function is also rebound in every
#: ``repro`` module that imported it by name.
ENTRY_POINTS = (
    ("repro.api", "RunConfig", "build_setup", "problems.build_setup"),
    ("repro.parallel.partition.interface", None, "partition",
     "partition.partition"),
    ("repro.parallel.halo", None, "build_subdomains", "halo.subdomains"),
    ("repro.parallel.commplan", None, "compile_plans", "commplan.compile"),
    ("repro.parallel.distributed", "DistributedHydro", "__init__",
     "backends.construct"),
    ("repro.parallel.distributed", "DistributedHydro", "run", "backends.run"),
    ("repro.parallel.distributed", "DistributedHydro", "gather",
     "backends.gather"),
    ("repro.fleet.cache", "ResultCache", "load", "fleet.load"),
    ("repro.fleet.cache", "ResultCache", "store", "fleet.cache_store"),
    ("repro.fleet.batch", None, "run_ensemble_jobs", "ensemble.batch"),
    ("repro.fleet.worker", "WorkerPool", "run", "fleet.pool"),
)


class Recorder:
    """Context manager: wrap every entry point in :data:`ENTRY_POINTS`
    with a timer; ``spans`` collects ``(name, seconds)`` in call order.
    An entry point that no longer exists is skipped, and its metrics
    read 0."""

    def __init__(self):
        self.spans = []
        self._undo = []

    def _timed(self, original, name):
        spans = self.spans

        def wrapper(*args, **kwargs):
            label = name
            if name == "fleet.load":
                # the pool's result spool and the cache share the class
                hit = kwargs.get("hit", True)
                label = "fleet.cache_load" if hit else "fleet.spool_load"
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                spans.append((label, time.perf_counter() - t0))

        return wrapper

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        for module_name, cls_name, attr, name in ENTRY_POINTS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            owner = getattr(module, cls_name, None) if cls_name else module
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._timed(original, name)
            self._patch(owner, attr, wrapper)
            if cls_name is None:
                for other in list(sys.modules.values()):
                    if (other is not module
                            and getattr(other, "__name__", "").startswith(
                                "repro.")
                            and getattr(other, attr, None) is original):
                        self._patch(other, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    @staticmethod
    def total(spans, name):
        return sum(s for n, s in spans if n == name)


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    names = [("problems.build_setup_s", "s"),
             ("partition.partition_s", "s"), ("partition.edge_cut", "count"),
             ("partition.imbalance", "ratio"), ("halo.subdomains_s", "s"),
             ("commplan.compile_s", "s"), ("backends.prepare_s", "s"),
             ("backends.gather_s", "s"), ("core.step_loop_ns", "ns")]
    names += [(f"core.{r}_ns", "ns") for r in CORE_REGIONS]
    names += [("core.unattributed_ns", "ns")]
    names += [(f"core.{r}_bytes_computed", "B/cellstep")
              for r in CORE_REGIONS]
    names += [("ale.alestep_ns", "ns")]
    names += [(f"ale.{r}_ns", "ns") for r in ALE_REGIONS]
    names += [("ale.exchange_ns", "ns"),
              ("comm.messages_per_step", "count"),
              ("comm.bytes_per_step", "B"),
              ("comm.halo_exchanges_per_step", "count"),
              ("comm.dt_hops_per_step", "count"),
              ("comm.exchange_ns", "ns"), ("comm.rank_imbalance", "ratio"),
              ("ensemble.batch_ns", "ns"),
              ("ensemble.lanes_per_batch", "count"),
              ("ensemble.batched_jobs", "count"),
              ("fleet.cache_hits", "count"), ("fleet.cache_misses", "count"),
              ("fleet.cache_hit_ratio", "ratio"),
              ("fleet.cache_load_s", "s"), ("fleet.cache_store_s", "s"),
              ("fleet.pool_jobs", "count"), ("fleet.pool_job_s", "s"),
              ("fleet.retries", "count"), ("api.result_assembly_s", "s"),
              ("trace.overhead_frac", "ratio"), ("host.ref_ms", "ms")]
    return names


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _exchange_split(spans):
    """Seconds of ``exchange`` regions outside and inside ``alestep``,
    summed over ranks, from a traced run's span stream."""
    outside = inside = 0.0
    by_rank = {}
    for span in spans:
        by_rank.setdefault(span.rank, []).append(span)
    for rank_spans in by_rank.values():
        ale = [(s.t0_ns, s.t0_ns + s.dur_ns) for s in rank_spans
               if s.name == "alestep"]
        for s in rank_spans:
            if s.name != "exchange":
                continue
            if any(a <= s.t0_ns < b for a, b in ale):
                inside += s.dur_ns * 1e-9
            else:
                outside += s.dur_ns * 1e-9
    return outside, inside


def kernel_layers(results, cellsteps):
    """core/ale/comm metrics over per-run results (not ensemble lanes):
    times per cell-step of their combined work, comm counts per step."""
    out = {}
    if not results or not cellsteps:
        return out
    region = {}
    traffic = {}
    loop = outside = inside = 0.0
    rank_kernel = []
    for result in results:
        nranks = result.nranks
        mesh = result.state.mesh
        kernels = result.report()["kernels"]
        for name, entry in kernels.items():
            region[name] = region.get(name, 0.0) + entry["seconds"] / nranks
        for name, (corner, cell, node, ints) in KERNEL_TRAFFIC.items():
            per_cell = (8 * (corner + cell + node * mesh.nnode / mesh.ncell)
                        + ints * result.state.mat.itemsize)
            calls = kernels.get(name, {}).get("calls", 0) / nranks
            traffic[name] = (traffic.get(name, 0.0)
                             + per_cell * mesh.ncell * calls)
        run_spans = [s.dur_ns * 1e-9 for s in result.spans if s.cat == "run"]
        loop += (_mean(run_spans) if run_spans else result.wall_seconds)
        if nranks > 1:
            # (a single rank's exchange region times a call into the
            # null endpoint; it stays in unattributed, not in comm)
            if result.spans:
                o, i = _exchange_split(result.spans)
            else:
                # an untraced pool job: no spans to split by; the
                # sweep's decomposed job has no remap, so all of its
                # exchange time is the step's own
                o, i = kernels.get("exchange", {}).get("seconds", 0.0), 0.0
            outside += o / nranks
            inside += i / nranks
        driver = result.driver
        if driver is not None and driver.result is not None:
            rank_kernel.append([
                sum(t.seconds(r) for r in CORE_REGIONS
                    + tuple(ALE_REGIONS.values()))
                for t in driver.result.timers])

    def ns(seconds):
        return seconds / cellsteps * 1e9

    out["core.step_loop_ns"] = ns(loop)
    for r in CORE_REGIONS:
        out[f"core.{r}_ns"] = ns(region.get(r, 0.0))
    out["ale.alestep_ns"] = ns(region.get("alestep", 0.0))
    for short, r in ALE_REGIONS.items():
        out[f"ale.{short}_ns"] = ns(region.get(r, 0.0))
    out["ale.exchange_ns"] = ns(inside)
    out["comm.exchange_ns"] = ns(outside)
    out["core.unattributed_ns"] = ns(
        loop - sum(region.get(r, 0.0) for r in CORE_REGIONS)
        - region.get("alestep", 0.0) - outside)
    imbalance = [max(k) / _mean(k) - 1 for k in rank_kernel if _mean(k)]
    out["comm.rank_imbalance"] = _mean(imbalance)
    for name, moved in traffic.items():
        out[f"core.{name}_bytes_computed"] = moved / cellsteps
    decomposed = [r for r in results if r.comm_total]
    steps = sum(r.nstep for r in decomposed)
    for key, name in (("messages", "messages_per_step"),
                      ("bytes", "bytes_per_step"),
                      ("halo_exchanges", "halo_exchanges_per_step"),
                      ("dt_hops", "dt_hops_per_step")):
        out[f"comm.{name}"] = sum(r.comm_total.get(key, 0)
                                  for r in decomposed) / steps if steps else 0
    return out


def fleet_layers(handle, results, spans, cached):
    """fleet/ensemble metrics of one submission (zeros for a direct
    single run, which has no cache, batch or pool)."""
    events = handle.events if handle is not None else []
    log = handle.schedule_log if handle is not None else []
    hits = sum(1 for r in results if r.cache_hit)
    misses = (len(results) - hits) if cached else 0
    pool_done = [e["wall_seconds"] for e in events
                 if e["event"] == "job_done" and e.get("worker") is not None]
    widths = [e["width"] for e in log if e["event"] == "ensemble_batch"]
    batched = [r for r in results
               if r.backend == "ensemble" and not r.cache_hit]
    groups = {}
    for r in batched:
        groups.setdefault(id(r.timers), []).append(r)
    lane_cellsteps = sum(r.state.mesh.ncell * r.nstep for r in batched)
    batch_wall = sum(g[0].wall_seconds for g in groups.values())
    loads = [s for n, s in spans if n == "fleet.cache_load"]
    stores = [s for n, s in spans if n == "fleet.cache_store"]
    return {
        "fleet.cache_hits": hits,
        "fleet.cache_misses": misses,
        "fleet.cache_hit_ratio": hits / (hits + misses) if cached else 0.0,
        "fleet.cache_load_s": _mean(loads),
        "fleet.cache_store_s": _mean(stores),
        "fleet.pool_jobs": len(pool_done),
        "fleet.pool_job_s": _mean(pool_done),
        "fleet.retries": sum(1 for e in events
                             if e["event"] == "job_retried"),
        "ensemble.batch_ns": (batch_wall / lane_cellsteps * 1e9
                              if lane_cellsteps else 0.0),
        "ensemble.lanes_per_batch": _mean(widths),
        "ensemble.batched_jobs": len(batched),
    }


def single_run(result, wall, spans):
    """Per-layer metrics of one traced single run."""
    total = Recorder.total
    cellsteps = result.state.mesh.ncell * result.nstep
    out = kernel_layers([result], cellsteps)
    out.update(fleet_layers(None, [result], spans, cached=False))
    driver = result.driver
    if driver.part is not None:
        from repro.parallel.partition.interface import edge_cut, imbalance

        out["partition.edge_cut"] = edge_cut(driver.global_mesh, driver.part)
        out["partition.imbalance"] = imbalance(driver.part, result.nranks)
    build = total(spans, "problems.build_setup")
    part = total(spans, "partition.partition")
    subs = total(spans, "halo.subdomains")
    compile_s = total(spans, "commplan.compile")
    construct = total(spans, "backends.construct")
    run_s = total(spans, "backends.run")
    gather = total(spans, "backends.gather")
    loop = out["core.step_loop_ns"] * cellsteps * 1e-9
    out.update({
        "problems.build_setup_s": build,
        "partition.partition_s": part,
        "halo.subdomains_s": subs,
        "commplan.compile_s": compile_s,
        # driver construction and launch less the layers timed inside
        "backends.prepare_s": construct + run_s - part - subs - compile_s
        - loop,
        "backends.gather_s": gather,
        "api.result_assembly_s": wall - build - construct - run_s - gather,
    })
    return out


def sweep(handle, results, wall, spans):
    """Per-layer metrics of one traced sweep."""
    total = Recorder.total
    per_run = [r for r in results
               if not r.cache_hit and r.backend != "ensemble"]
    cellsteps = sum(r.state.mesh.ncell * r.nstep for r in per_run)
    out = kernel_layers(per_run, cellsteps)
    out.update(fleet_layers(handle, results, spans, cached=True))
    measured = (total(spans, "fleet.cache_load")
                + total(spans, "fleet.cache_store")
                + total(spans, "ensemble.batch")
                + total(spans, "fleet.pool"))
    out["problems.build_setup_s"] = total(spans, "problems.build_setup")
    # sweep wall outside cache I/O, batched passes and the pool
    out["api.result_assembly_s"] = wall - measured
    return out


def summarise(samples):
    """Mean of each per-layer metric over the traced operations (means,
    unlike medians, keep the breakdown adding up), with every metric
    present: layers a workload bypasses read 0."""
    return {name: _mean([s.get(name, 0.0) for s in samples])
            for name, _ in metric_names()}
