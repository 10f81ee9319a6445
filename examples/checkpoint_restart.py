#!/usr/bin/env python
"""Checkpoint/restart: stop a calculation and resume it bit-exactly.

Runs the Sedov blast for 100 steps, checkpoints it with
``repro.fleet.checkpoint.save_checkpoint``, builds a fresh serial
driver, overlays the checkpoint (``restore_into``) and carries on —
then proves the resumed trajectory is bit-for-bit identical to an
uninterrupted run.

Run:  python examples/checkpoint_restart.py
"""

import os
import tempfile

import numpy as np

from repro.api import RunConfig, run
from repro.fleet.checkpoint import (
    load_checkpoint,
    restore_into,
    save_checkpoint,
)
from repro.parallel.distributed import DistributedHydro


def main() -> None:
    config = RunConfig(problem="sedov", nx=40, ny=40, time_end=0.5)

    print("reference: uninterrupted Sedov run ...")
    straight = run(config)
    print(f"  {straight.nstep} steps to t = {straight.time:.3f}")

    print("interrupted run: stop at step 100, checkpoint, resume ...")
    first = run(config.replace(max_steps=100)).driver.hydros[0]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sedov.ckpt.npz")
        save_checkpoint(path, first)
        size_kb = os.path.getsize(path) / 1024
        meta, _ = load_checkpoint(path)
        print(f"  checkpoint written at t = {meta['time']:.4f} "
              f"({size_kb:.0f} KiB)")
        resumed = DistributedHydro(config.build_setup(), 1,
                                   backend="serial")
        restore_into(resumed, path)
        resumed.run()
    print(f"  resumed to t = {resumed.time:.3f} "
          f"({resumed.nstep} total steps)")

    state = resumed.gather()
    identical = (
        resumed.nstep == straight.nstep
        and np.array_equal(state.rho, straight.state.rho)
        and np.array_equal(state.u, straight.state.u)
        and np.array_equal(state.x, straight.state.x)
    )
    print(f"\nbit-for-bit identical to the uninterrupted run: {identical}")
    assert identical


if __name__ == "__main__":
    main()
