"""The Lagrangian step — predictor/corrector orchestration.

Implements Algorithm 1 of the paper exactly, with each kernel wrapped
in the timer region whose name appears in Table II:

    Predictor:  getq, getforce, getgeom (half step), getrho, getein, getpc
    Corrector:  getq, getforce, getacc, getgeom (full step), getrho,
                getein, getpc

The predictor advances the *thermodynamic* state to the half step using
the start-of-step velocities (first-order); the corrector re-evaluates
the forces there, accelerates the nodes, and advances everything over
the full step with time-centred quantities (second-order overall).

Communications (ghost kinematics before the viscosity, nodal-sum
completion inside the acceleration) go through the ``comms`` seam, so
this very function body runs unchanged in serial and distributed mode.

Passing a :class:`~repro.perf.plans.MeshPlans` and a
:class:`~repro.perf.workspace.Workspace` makes the whole step reuse
arena buffers: after the first step every kernel temporary, every
half-step field and every returned array comes from the arena, and the
results are *committed* into the long-lived state arrays by copy (the
arena never leaks into the state).  Both arguments are optional and
independent; omitting them reproduces the allocating behaviour exactly.
The ``plans`` scatter shortcut is only taken on single-domain runs —
a decomposed run's nodal sums must complete through the comms seam.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..eos.multimaterial import MaterialTable
from ..perf.plans import MeshPlans
from ..perf.workspace import Workspace, scratch
from ..utils.timers import TimerRegistry
from . import energy as energy_mod
from . import geometry, viscosity
from .acceleration import getacc
from .comms import SerialComms
from .controls import HydroControls
from .density import getrho
from .force import getforce
from .state import HydroState


def _viscosity(mesh, cx, cy, u, v, rho, cs2, p, volume, gamma, controls,
               plans=None, ws=None):
    """Dispatch on the configured viscosity form.

    Returns ``(fqx, fqy, q_cell, p_effective)``: the edge form produces
    corner forces (p unchanged); the bulk form augments the cell
    pressure instead and returns ``fqx = fqy = None`` — no viscous
    corner forces, so ``getforce`` skips the add instead of summing a
    freshly-allocated pair of zero arrays.
    """
    if controls.viscosity_form == "bulk":
        w = scratch(ws)
        q_cell = viscosity.bulk_q(
            cx, cy, u, v, mesh.cell_nodes, rho, cs2, volume,
            controls.cq1, controls.cq2, ws=ws,
            out=w.array("lag.bulkq", mesh.ncell) if ws is not None else None,
        )
        if ws is not None:
            p_eff = w.array("lag.peff", mesh.ncell)
            np.add(p, q_cell, out=p_eff)
        else:
            p_eff = p + q_cell
        return None, None, q_cell, p_eff
    fqx, fqy, q_cell = viscosity.getq(
        mesh, cx, cy, u, v, rho, cs2, gamma,
        controls.cq1, controls.cq2, controls.use_limiter,
        plans=plans, ws=ws,
    )
    return fqx, fqy, q_cell, p


def lagstep(state: HydroState, table: MaterialTable,
            controls: HydroControls, dt: float,
            timers: TimerRegistry, gamma: np.ndarray,
            comms=None, time: Optional[float] = None,
            plans: Optional[MeshPlans] = None,
            ws: Optional[Workspace] = None) -> None:
    """Advance ``state`` in place by one Lagrangian step of size ``dt``."""
    comms = comms if comms is not None else SerialComms()
    mesh = state.mesh
    half = 0.5 * dt
    mask = comms.owned_cell_mask(state)
    w = scratch(ws)
    # Plans bypass the nodal-sum completion, which is only valid when
    # this rank owns every node (a single-domain run).
    acc_plans = plans if getattr(comms, "size", 1) == 1 else None

    # ------------------------------------------------------------------
    # predictor: evolve thermodynamics to the half step with u^n
    # ------------------------------------------------------------------
    with timers.region("exchange"):
        comms.exchange_kinematics(state)

    if ws is not None:
        cx = w.array("lag.cx", (mesh.ncell, 4))
        cy = w.array("lag.cy", (mesh.ncell, 4))
    else:
        cx = np.empty((mesh.ncell, 4))
        cy = np.empty((mesh.ncell, 4))
    geometry.gather(mesh, state.x, state.y, out=(cx, cy))
    with timers.region("getq"):
        fqx, fqy, q_cell, p_eff = _viscosity(
            mesh, cx, cy, state.u, state.v, state.rho, state.cs2,
            state.p, state.volume, gamma, controls, plans=plans, ws=ws,
        )
        if ws is not None:
            np.copyto(state.q, q_cell)
        else:
            state.q = q_cell
    with timers.region("getforce"):
        fx, fy = getforce(
            mesh, cx, cy, state.u, state.v, p_eff, state.rho, state.cs2,
            fqx, fqy, state.corner_mass, state.corner_volume, state.volume,
            controls, ws=ws,
        )

    with timers.region("getgeom"):
        if ws is not None:
            x_h = w.array("lag.xh", mesh.nnode)
            y_h = w.array("lag.yh", mesh.nnode)
            np.multiply(state.u, half, out=x_h)
            x_h += state.x
            np.multiply(state.v, half, out=y_h)
            y_h += state.y
        else:
            x_h = state.x + half * state.u
            y_h = state.y + half * state.v
        cx_h, cy_h, vol_h, cvol_h = geometry.getgeom(
            mesh, x_h, y_h, time=time, check_mask=mask, ws=ws, tag="half"
        )

    with timers.region("getrho"):
        rho_h = getrho(
            state.cell_mass, vol_h, controls.dencut,
            out=w.array("lag.rhoh", mesh.ncell) if ws is not None else None,
        )
    with timers.region("getein"):
        e_h = energy_mod.getein(
            state, fx, fy, state.u, state.v, half, ws=ws,
            out=w.array("lag.eh", mesh.ncell) if ws is not None else None,
        )
    with timers.region("getpc"):
        p_h, cs2_h = table.getpc(
            state.mat, rho_h, e_h, ws=ws,
            out=(w.array("lag.ph", mesh.ncell),
                 w.array("lag.cs2h", mesh.ncell)) if ws is not None else None,
        )

    # ------------------------------------------------------------------
    # corrector: forces at the half step, full-step update
    # ------------------------------------------------------------------
    with timers.region("getq"):
        fqx, fqy, q_cell, p_eff_h = _viscosity(
            mesh, cx_h, cy_h, state.u, state.v, rho_h, cs2_h,
            p_h, vol_h, gamma, controls, plans=plans, ws=ws,
        )
        if ws is not None:
            np.copyto(state.q, q_cell)
        else:
            state.q = q_cell
    with timers.region("getforce"):
        fx, fy = getforce(
            mesh, cx_h, cy_h, state.u, state.v, p_eff_h, rho_h, cs2_h,
            fqx, fqy, state.corner_mass, cvol_h, vol_h,
            controls, ws=ws,
        )

    with timers.region("getacc"):
        u_new, v_new, u_bar, v_bar = getacc(
            state, fx, fy, dt, comms=comms, plans=acc_plans, ws=ws,
        )

    with timers.region("getgeom"):
        if ws is not None:
            move = w.array("lag.move", mesh.nnode)
            np.multiply(u_bar, dt, out=move)
            state.x += move
            np.multiply(v_bar, dt, out=move)
            state.y += move
            _, _, vol, cvol = geometry.getgeom(
                mesh, state.x, state.y, time=time, check_mask=mask,
                ws=ws, tag="full",
            )
            np.copyto(state.volume, vol)
            np.copyto(state.corner_volume, cvol)
        else:
            state.x += dt * u_bar
            state.y += dt * v_bar
            _, _, state.volume, state.corner_volume = geometry.getgeom(
                mesh, state.x, state.y, time=time, check_mask=mask
            )

    with timers.region("getrho"):
        if ws is not None:
            getrho(state.cell_mass, state.volume, controls.dencut,
                   out=state.rho)
        else:
            state.rho = getrho(state.cell_mass, state.volume, controls.dencut)
    with timers.region("getein"):
        if ws is not None:
            # out may alias state.e: the work term is fully accumulated
            # before the final elementwise subtraction.
            energy_mod.getein(state, fx, fy, u_bar, v_bar, dt, ws=ws,
                              out=state.e)
        else:
            state.e = energy_mod.getein(state, fx, fy, u_bar, v_bar, dt)
    with timers.region("getpc"):
        if ws is not None:
            table.getpc(state.mat, state.rho, state.e, ws=ws,
                        out=(state.p, state.cs2))
        else:
            state.p, state.cs2 = table.getpc(state.mat, state.rho, state.e)

    if ws is not None:
        np.copyto(state.u, u_new)
        np.copyto(state.v, v_new)
    else:
        state.u = u_new
        state.v = v_new
