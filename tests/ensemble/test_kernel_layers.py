"""The two kernel layers agree bit for bit, for every registered problem.

A serial run drives a one-lane batch of the ensemble kernels
(:class:`repro.ensemble.driver.LaneHydro`); decomposed ranks still run
the ``core`` kernels through :class:`repro.core.hydro.Hydro`.  While
both layers exist this file keeps them honest: for every problem in
``problem_names()``, with the ALE remap off and on,

* the serial run's ``state_digest`` equals the plain ``core`` loop of
  ``setup.make_hydro().run()``;
* it equals a digest pinned from the ``core``-driven serial backend
  before the switch (so neither layer can drift with the other);
* it equals the matching lane of a 2-lane ``run_ensemble`` (Kidder:
  of a 1-lane one, since a driven boundary batches only at N=1).

A peak-memory guard rides along: the one-lane batch adopts the setup
state's arrays instead of copying them and frees each geometry cache
after its last reader, so its traced peak stays level with the
``core`` loop's.
"""

import tracemalloc

import pytest

from repro.api import RunConfig, run, run_ensemble
from repro.fleet.cache import state_digest
from repro.parallel.distributed import DistributedHydro
from repro.problems import problem_names

STEPS = 12
#: (nx, ny) per problem; everything else runs 12 x 6
SIZES = {"kidder": (6, 8)}

#: serial digests (12 steps, sizes above) recorded from the ``core``
#: serial driver; outputs are bit-identical across the switch
PINNED = {
    "jwl_expansion-lag":
        "121e2d8a5d5b8f319951af93f0ae66446ced5aef5ea48a8d8a0c977e3b8f7fed",
    "jwl_expansion-ale":
        "e71efd466d551a87bc99225ef190d202f123190b43aeb423900943c14e1eef1f",
    "kidder-lag":
        "81ef4fe29408f9c1c1d2e9f8b94abe3b6b178389207393ac5171b90b367f1d04",
    "kidder-ale":
        "0f8bdeecc0a81b0acc4a1bc2a4bcdc45bfb9fe8839f34e5f36861443c3004f2d",
    "leblanc-lag":
        "df195dd956dd30bd62093ab0215c5ed7ce4dfa21c3410516ba0c901023dec021",
    "leblanc-ale":
        "ee60c6744ab036051312d8f21eb1fd4237d073dbbb63c6b30b5eb001360bb519",
    "noh-lag":
        "5d4e31bc0da97b44f2eb4599946c4cc5075e5724baad69db61d950a0a978fcce",
    "noh-ale":
        "8b826707c922e9a60d47eeded631e77528e40a8f9aa9fe6c7663fa9e86d822cf",
    "saltzmann-lag":
        "6aa5ad336ff03fc4e049af434738247c0dc91185cd75d96d6e5c4e8cd0b799be",
    "saltzmann-ale":
        "752658b41cff4693fd46d1cb5b3da8cdfb69555eefbd9e9bfbd4426796ebad61",
    "sedov-lag":
        "d1e4c8be3b00b5bf22a0f2cd31eb845110ba39394dea615b7ad02bd428e5f3bf",
    "sedov-ale":
        "f4ecb01db4882a1ccf7244e0b876edc9eb0b4939c1734cb4977bc83a35508cc1",
    "sod-lag":
        "1bcf345a986c25336fdc287f1ad1e847bbe40e75481d928774f428b7d9420721",
    "sod-ale":
        "abad2aca407ecbbae39e1e109cb97d78ede42f5d54feaa13dd6dfe66c582d213",
    "triple_point-lag":
        "02863d2528e50600015fe6ad93deb3f84bbecd300fa9617207d51b3424fd0707",
    "triple_point-ale":
        "1413b99ef7191ffaf8fdf87daa0e30909ddf40819b64330e439024467c622a5a",
    "water_air-lag":
        "fb40ac664cc55d2cb1f8e41b6bea8c2e89166f0440e06ee3a6115d82f174171b",
    "water_air-ale":
        "1b7533cb4cbb23e72eb4c22c3479427cd737fa9ee538dc09ff066967a0742b2f",
}


def _config(problem):
    nx, ny = SIZES.get(problem, (12, 6))
    return RunConfig(problem=problem, nx=nx, ny=ny, max_steps=STEPS)


def _setup(problem, ale):
    """The config's setup with the remap switched on or off (not every
    problem declares an ``ale_on`` setting, so go through controls)."""
    setup = _config(problem).build_setup()
    setup.controls = setup.controls.with_(ale_on=ale).validated()
    return setup


def _digest(state, nstep, time):
    return state_digest(state, nstep, time)


@pytest.mark.parametrize("ale", [False, True], ids=["lag", "ale"])
@pytest.mark.parametrize("problem", problem_names())
def test_serial_matches_core_loop_and_ensemble_lane(problem, ale):
    key = f"{problem}-{'ale' if ale else 'lag'}"

    driver = DistributedHydro(_setup(problem, ale), 1, backend="serial")
    driver.run(max_steps=STEPS)
    serial = _digest(driver.gather(), driver.nstep, driver.time)

    core = _setup(problem, ale).make_hydro()
    core.run(max_steps=STEPS)
    assert type(core).__name__ == "Hydro"
    assert serial == _digest(core.state, core.nstep, core.time), (
        f"{key}: serial lane and core loop disagree")
    assert serial == PINNED[key], f"{key}: serial digest drifted"

    if not ale:
        result = run(_config(problem))
        assert _digest(result.state, result.nstep, result.time) == serial

    # A driven boundary (Kidder) batches only as a single lane.
    config = _config(problem)
    batch = [config] if problem == "kidder" else \
        [config, config.replace(max_steps=STEPS + 3)]
    lane = run_ensemble(batch,
                        control_overrides=[{"ale_on": ale}] * len(batch))[0]
    assert lane.backend == "ensemble"
    assert _digest(lane.state, lane.nstep, lane.time) == serial, (
        f"{key}: ensemble lane and serial run disagree")


def test_serial_backend_drives_a_one_lane_batch():
    from repro.ensemble.driver import LaneHydro

    result = run(_config("kidder"))
    assert isinstance(result.driver.hydros[0], LaneHydro)


def test_zero_step_run_builds_no_batch():
    """Plans and the batch are built when the first step is taken; a
    zero-step run hands back the setup state untouched."""
    result = run(_config("noh").replace(max_steps=0))
    lane = result.driver.hydros[0]
    assert lane._batch is None
    assert result.nstep == 0
    assert result.state is lane.setup.state


def _traced_peak(fn):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_serial_peak_memory_level_with_core_loop():
    """Noh 64², 6 steps: the serial backend's traced peak stays within
    5% of the ``core`` loop's, set-up included on both sides.  (The
    ``api.run`` result assembly on top is the same for either layer,
    so it stays out of the comparison.)"""
    config = RunConfig(problem="noh", nx=64, ny=64, max_steps=6)

    def core_loop():
        config.build_setup().make_hydro().run(max_steps=6)

    def serial():
        driver = DistributedHydro(config.build_setup(), 1,
                                  backend="serial")
        driver.run(max_steps=6)

    core_peak = _traced_peak(core_loop)
    serial_peak = _traced_peak(serial)
    assert serial_peak <= 1.05 * core_peak, (
        f"serial peak {serial_peak / 2**20:.2f} MiB vs core loop "
        f"{core_peak / 2**20:.2f} MiB")
