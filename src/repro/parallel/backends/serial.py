"""The ``serial`` backend: one rank, no decomposition, no comms.

Exists so the :mod:`repro.api` façade drives serial, thread-parallel
and process-parallel runs through one code path: a serial run is a
"decomposed" run with one rank.  No partitioning, no halos, no
barriers — and no ``core.Hydro``: the rank is a one-lane batch of the
ensemble kernels (:class:`~repro.ensemble.driver.LaneHydro`), which is
bit-identical to the ``core`` loop and several times cheaper per step.
``driver.hydros[0]`` is that lane, with the ``Hydro`` attributes
(clocks, ``state``, ``probe``, ``observers``, ``timers``) embedders
and fleet checkpoint/restore read.
"""

from __future__ import annotations

from typing import Optional

from ...ensemble.driver import LaneHydro
from ...utils.errors import BookLeafError
from ...utils.timers import TimerRegistry
from ..interface import BackendRun


class SerialBackend:
    """Run the single rank inline on the calling thread."""

    name = "serial"

    def prepare(self, driver) -> None:
        if driver.nranks != 1:
            raise BookLeafError(
                f"the serial backend runs exactly 1 rank, not "
                f"{driver.nranks}; pick backend='threads' or 'processes'"
            )
        setup = driver.setup
        if driver.trace:
            from ...telemetry.spans import Tracer

            driver.tracers = [Tracer(rank=0)]
        timers = TimerRegistry(
            trace_allocations=getattr(driver, "trace_allocations", False)
        )
        timers.tracer = driver.tracers[0] if driver.tracers else None
        logger = None
        if getattr(driver, "log_every", 0):
            from ...utils.log import StepLogger

            logger = StepLogger(every=driver.log_every)
        driver.hydros.append(LaneHydro(
            setup, timers=timers, logger=logger,
            probe=driver.build_probe(0), artifacts=driver.artifacts,
        ))

    def execute(self, driver, max_steps: Optional[int] = None) -> BackendRun:
        hydro = driver.hydros[0]
        step_series = None
        if driver.collect_step_series:
            from ...telemetry.report import StepSeries

            step_series = StepSeries()
            hydro.observers.append(step_series)
        try:
            hydro.run(max_steps=max_steps)
        except BaseException:
            if hydro.probe is not None:
                hydro.probe.close()  # the failure path skips finish()
            raise
        probe = hydro.probe
        return BackendRun(
            backend=self.name,
            nranks=1,
            nstep=hydro.nstep,
            time=hydro.time,
            states=[hydro.state],
            timers=[hydro.timers],
            spans=[driver.tracers[0].spans] if driver.tracers else [[]],
            comm_per_rank=[],
            step_rows=step_series.rows if step_series else None,
            metrics_rows=probe.rows if probe is not None else None,
            metrics=probe.registry if probe is not None else None,
        )
