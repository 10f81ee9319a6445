"""Ensemble batching: N same-mesh runs through one ``(N, …)`` kernel pass.

The hot kernels are memory-bound at mini-app sizes; stacking N
independent simulations along a leading batch axis amortises every
kernel launch, index gather and Python-level step over N lanes and
turns the per-cell arithmetic into larger, better-pipelined array ops.
A serial run is a one-lane batch (:class:`LaneHydro`, the ``serial``
backend's driver), so every lane of an ensemble is bit-identical to the
serial run of its config — see docs/PERFORMANCE.md ("Ensemble
batching") and the CI gate.

Entry points: :func:`repro.api.run_ensemble` (or the ``run-ensemble``
CLI subcommand) for the config-driven surface;
:class:`EnsembleHydro` to embed the batched driver directly.
"""

from .driver import EnsembleHydro, LaneHydro, run_ensemble
from .eos import EnsembleEos
from .state import EnsembleState

__all__ = ["EnsembleHydro", "EnsembleEos", "EnsembleState", "LaneHydro",
           "run_ensemble"]
