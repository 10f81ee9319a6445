"""Checkpoint/restart: periodic HydroState snapshots for resumable jobs.

This is the repo's one checkpoint format: fleet jobs, the examples and
post-mortem dumps of failed runs all write it.

A fleet job that dies mid-run (preempted worker, SIGKILL, machine
loss) resumes from its last checkpoint instead of restarting.  The
checkpoint is one atomically-written ``.npz`` holding

* every state array (:data:`repro.fleet.cache.STATE_FIELDS` + material
  ids + boundary planes),
* the loop clocks — ``nstep``, ``time``, ``dt``, ``dt_reason``,
  ``dt_cell`` (``dt`` is load-bearing: ``getdt`` growth-limits against
  the previous step's dt, so restoring it keeps the resumed dt sequence
  bitwise equal to the uninterrupted one),
* the diagnostics probe's internals (rows, drift baseline, last sampled
  step) so the resumed NDJSON stream is byte-identical to an
  uninterrupted run's,
* the job's cache key, so a stale checkpoint from a different config
  can never be overlaid.

Restore order is the part that guards bit-identity: the driver is built
fresh from the config *first* — so the ALE remapper captures the
pristine initial coordinates as its Eulerian target, exactly as in an
uninterrupted run — and only then are the checkpoint arrays overlaid
into the live state.  Checkpointing is supported for serial-backend
jobs (the sweep workload); decomposed jobs restart from scratch on
failure.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Optional

import numpy as np

from ..utils.errors import FleetError
from .cache import state_arrays, overlay_state

#: checkpoint file layout version
CHECKPOINT_SCHEMA_VERSION = 1


def save_checkpoint(path: str, hydro, key: str = "") -> None:
    """Atomically write one checkpoint of a live serial driver (any
    ``Hydro``-shaped object: a ``serial``-backend lane or a ``core``
    :class:`~repro.core.hydro.Hydro`)."""
    probe_doc = None
    if hydro.probe is not None:
        p = hydro.probe
        probe_doc = {
            "rows": p.rows,
            "baseline": p._baseline,
            "last_sampled": p._last_sampled,
        }
    meta = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "key": key,
        "nstep": int(hydro.nstep),
        "time": float(hydro.time),
        "dt": float(hydro.dt) if hydro.dt is not None else None,
        "dt_reason": hydro.dt_reason,
        "dt_cell": int(hydro.dt_cell) if hydro.dt_cell is not None else -1,
        "probe": probe_doc,
    }
    arrays = state_arrays(hydro.state)
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8).copy()
    root = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(root, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=root, suffix=".ckpt.tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path: str):
    """Read a checkpoint back as ``(meta, arrays)``; an unreadable file
    or one of another layout version raises :class:`FleetError`."""
    try:
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(bytes(arrays.pop("__meta__")).decode("utf-8"))
    except (OSError, ValueError, KeyError) as exc:
        raise FleetError(f"cannot read checkpoint {path}: {exc}") from exc
    version = meta.get("schema_version")
    if version != CHECKPOINT_SCHEMA_VERSION:
        raise FleetError(
            f"checkpoint {path} has format version {version}; this "
            f"build reads version {CHECKPOINT_SCHEMA_VERSION}"
        )
    return meta, arrays


class CheckpointWriter:
    """Step-loop observer that checkpoints every ``every`` steps.

    Attach *before* any fault-injecting observer: the write for step N
    happens ahead of anything that can kill the process at step N.
    """

    def __init__(self, path: str, every: int, key: str = "",
                 on_write=None):
        if every < 1:
            raise FleetError("checkpoint cadence must be >= 1")
        self.path = path
        self.every = int(every)
        self.key = key
        self.saves = 0
        #: optional ``on_write(step)`` hook — the fleet's live event
        #: plane turns each save into a ``job_checkpointed`` event
        self.on_write = on_write

    def __call__(self, hydro) -> None:
        if hydro.nstep % self.every == 0:
            save_checkpoint(self.path, hydro, key=self.key)
            self.saves += 1
            if self.on_write is not None:
                self.on_write(int(hydro.nstep))


def restore_into(driver, path: str, key: str = "",
                 max_steps: Optional[int] = None) -> Optional[int]:
    """Overlay a checkpoint into a freshly-built serial driver.

    This is the :func:`repro.api._execute_run` ``on_prepared`` hook's
    body: the driver's rank-0 hydro gets the stored state, clocks and
    probe internals; the NDJSON sink (if any) is rewritten with the
    restored rows so subsequent samples continue the stream; and a
    cadence-due sample the crash cut off between checkpoint and probe
    is regenerated from the restored state (bitwise identical — the
    sample is a pure function of state + baseline).  Returns the
    *remaining* step budget (the step loop counts steps from its call),
    or None to leave ``max_steps`` untouched.
    """
    meta, arrays = load_checkpoint(path)
    if key and meta.get("key") and meta["key"] != key:
        raise FleetError(
            f"checkpoint {path} belongs to job {meta['key'][:12]}..., "
            f"not {key[:12]}...; refusing to overlay"
        )
    if not driver.hydros:
        raise FleetError(
            "checkpoint restore needs an in-process rank "
            "(serial backend); decomposed jobs restart instead"
        )
    hydro = driver.hydros[0]
    for name, live in state_arrays(hydro.state).items():
        stored = arrays.get(name)
        if stored is None or stored.shape != live.shape:
            raise FleetError(
                f"checkpoint {path} does not match this job's mesh: "
                f"field {name!r} is "
                f"{'missing' if stored is None else stored.shape}, "
                f"expected {live.shape}"
            )
    overlay_state(hydro.state, arrays)
    hydro.nstep = int(meta["nstep"])
    hydro.time = float(meta["time"])
    hydro.dt = meta["dt"]
    hydro.dt_reason = meta["dt_reason"]
    hydro.dt_cell = meta["dt_cell"]
    probe_doc = meta.get("probe")
    if hydro.probe is not None and probe_doc is not None:
        probe = hydro.probe
        probe.rows = list(probe_doc["rows"] or [])
        probe._baseline = probe_doc["baseline"]
        probe._last_sampled = probe_doc["last_sampled"]
        if probe.sink_path is not None:
            # Rewrite the stream with the restored rows; _emit appends
            # from here on, so the final file matches an uninterrupted
            # run byte for byte.
            probe._sink = open(probe.sink_path, "w")
            for rec in probe.rows:
                probe._sink.write(json.dumps(rec) + "\n")
            probe._sink.flush()
        # The crash window: a checkpoint at step N is written by an
        # observer that runs *before* the probe samples step N.  If N
        # was cadence-due, regenerate that sample now from the restored
        # state so the stream doesn't skip it.
        if (hydro.nstep % probe.every == 0
                and probe._last_sampled != hydro.nstep):
            probe.sample(hydro)
    if max_steps is not None:
        return max(0, int(max_steps) - hydro.nstep)
    return None
