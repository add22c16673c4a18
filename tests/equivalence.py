"""One equivalence harness: every fast path against its scalar oracle.

Each :class:`Pair` names a fast path, its oracle in :mod:`repro.oracles`,
and the DESIGN.md §Performance contract tier between them.
:meth:`Pair.check` runs both sides on private deep copies of the same
inputs and applies the tier's comparator to everything they return:

* ``bitwise`` — every leaf identical: floats to the bit, arrays in shape,
  dtype, and bytes;
* ``counter-exact`` — integers identical; integral-valued floats (cycle
  counts at an integral CPI, exact in any summation order) identical;
  other floats ``isclose`` to ``rel_tol=1e-12``;
* ``allclose`` — floats within the pair's ``rtol``/``atol`` (a per-field
  override in ``tolerances`` applies to that field's whole subtree);
  integer decisions — ints, bools, strings, integer arrays — identical.

Dataclasses, dicts, lists, and tuples are compared field by field and key
by key (key order included).  A raised exception is part of the result:
both sides must raise the same type with the same message, and the fast
side's exception propagates so a case can ``pytest.raises`` it.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import numbers
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import oracles
from repro.core.batch import evaluate_batch
from repro.core.design import DroneDesign
from repro.core.equations import InfeasibleDesignError
from repro.control.mixer import MotorMixer
from repro.core.explorer import sweep_wheelbase
from repro.physics.rigid_body import QuadcopterBody
from repro.platforms.cpu import InOrderCore
from repro.slam.bundle_adjustment import global_bundle_adjust
from repro.slam.features import hamming_distance_matrix
from repro.slam.matching import (
    match_against_map,
    match_by_projection,
    match_features,
)
from repro.slam.tracking import track_pose

BITWISE = "bitwise"
COUNTER_EXACT = "counter-exact"
ALLCLOSE = "allclose"
TIERS = (BITWISE, COUNTER_EXACT, ALLCLOSE)


@dataclasses.dataclass(frozen=True)
class Pair:
    """A fast path, its oracle, and the contract tier between them."""

    name: str
    fast: Callable[..., Any]
    oracle: Callable[..., Any]
    tier: str
    rtol: float = 0.0
    atol: float = 0.0
    tolerances: Mapping[str, Tuple[float, float]] = dataclasses.field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        if self.tier not in TIERS:
            raise ValueError(f"{self.name}: unknown tier {self.tier!r}")

    def check(self, *args: Any, **kwargs: Any) -> Tuple[Any, Any]:
        """Run both sides on the same inputs; assert the tier holds."""
        fast, fast_error = _run(self.fast, args, kwargs)
        oracle, oracle_error = _run(self.oracle, args, kwargs)
        if fast_error is not None or oracle_error is not None:
            assert type(fast_error) is type(oracle_error), (
                f"{self.name}: fast raised {fast_error!r}, "
                f"oracle raised {oracle_error!r}"
            )
            assert str(fast_error) == str(oracle_error), self.name
            raise fast_error
        assert_tier(fast, oracle, self.tier, self.rtol, self.atol,
                    self.tolerances, self.name)
        return fast, oracle

    def lift(self, wrap: Callable[[Callable[..., Any]], Callable[..., Any]],
             name: Optional[str] = None) -> "Pair":
        """The same contract over ``wrap(side)`` — e.g. a longer scenario
        built from the side, or a view of the state it leaves behind."""
        return dataclasses.replace(
            self, name=name or self.name, fast=wrap(self.fast),
            oracle=wrap(self.oracle),
        )


def _run(fn: Callable[..., Any], args: Sequence[Any],
         kwargs: Dict[str, Any]) -> Tuple[Any, Optional[BaseException]]:
    args, kwargs = copy.deepcopy((tuple(args), kwargs))
    try:
        return fn(*args, **kwargs), None
    except Exception as error:
        return None, error


def assert_tier(fast: Any, oracle: Any, tier: str, rtol: float = 0.0,
                atol: float = 0.0,
                tolerances: Mapping[str, Tuple[float, float]] = {},
                path: str = "result") -> None:
    """Assert ``fast`` matches ``oracle`` under ``tier``, leaf by leaf."""

    def child(value_fast: Any, value_oracle: Any, key: Any,
              where: str) -> None:
        tol = tolerances.get(key, (rtol, atol)) if isinstance(key, str) \
            else (rtol, atol)
        assert_tier(value_fast, value_oracle, tier, tol[0], tol[1],
                    tolerances, where)

    if dataclasses.is_dataclass(fast) and not isinstance(fast, type):
        assert type(fast) is type(oracle), path
        for field in dataclasses.fields(fast):
            child(getattr(fast, field.name), getattr(oracle, field.name),
                  field.name, f"{path}.{field.name}")
    elif isinstance(fast, dict):
        assert isinstance(oracle, dict), path
        assert list(fast) == list(oracle), f"{path}: keys differ"
        for key in fast:
            child(fast[key], oracle[key], key, f"{path}[{key!r}]")
    elif isinstance(fast, (list, tuple)):
        assert type(fast) is type(oracle), path
        assert len(fast) == len(oracle), f"{path}: lengths differ"
        for index, (a, b) in enumerate(zip(fast, oracle)):
            assert_tier(a, b, tier, rtol, atol, tolerances,
                        f"{path}[{index}]")
    elif isinstance(fast, np.ndarray):
        _assert_arrays(fast, oracle, tier, rtol, atol, path)
    elif _is_float(fast) or _is_float(oracle):
        _assert_floats(fast, oracle, tier, rtol, atol, path)
    else:
        assert fast == oracle, f"{path}: {fast!r} != {oracle!r}"


def _is_float(value: Any) -> bool:
    return isinstance(value, (float, np.floating))


def _assert_floats(fast: Any, oracle: Any, tier: str, rtol: float,
                   atol: float, path: str) -> None:
    assert isinstance(fast, numbers.Real) and isinstance(oracle, numbers.Real), path
    a, b = float(fast), float(oracle)
    if tier == BITWISE or (tier == COUNTER_EXACT and b.is_integer()):
        assert np.float64(a).tobytes() == np.float64(b).tobytes(), \
            f"{path}: {a!r} != {b!r}"
    elif tier == COUNTER_EXACT:
        assert math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0), \
            f"{path}: {a!r} vs {b!r}"
    else:
        assert abs(a - b) <= atol + rtol * abs(b), \
            f"{path}: {a!r} vs {b!r} (rtol={rtol}, atol={atol})"


def _assert_arrays(fast: np.ndarray, oracle: Any, tier: str, rtol: float,
                   atol: float, path: str) -> None:
    assert isinstance(oracle, np.ndarray), path
    assert fast.shape == oracle.shape, f"{path}: {fast.shape} vs {oracle.shape}"
    assert fast.dtype == oracle.dtype, f"{path}: {fast.dtype} vs {oracle.dtype}"
    if tier == BITWISE or fast.dtype.kind != "f":
        assert np.ascontiguousarray(fast).tobytes() == \
            np.ascontiguousarray(oracle).tobytes(), f"{path}: arrays differ"
    else:
        for a, b in zip(fast.ravel().tolist(), oracle.ravel().tolist()):
            _assert_floats(a, b, tier, rtol, atol, path)


# -- observables of stateful fast paths ---------------------------------------


def _with_map(bundle_adjust: Callable[..., Any]) -> Callable[..., Any]:
    """Bundle adjustment edits the map: its result includes the map."""

    def run(slam_map, camera, **kwargs):
        return {
            "result": bundle_adjust(slam_map, camera, **kwargs),
            "keyframes": slam_map.keyframes,
            "points": slam_map.points,
        }

    return run


def structure_stats(core: InOrderCore) -> Dict[str, Tuple[int, int]]:
    """(accesses, misses) of every microarchitectural structure."""
    return {
        "l1": (core.l1.stats.accesses, core.l1.stats.misses),
        "llc": (core.llc.stats.accesses, core.llc.stats.misses),
        "tlb": (core.tlb.stats.accesses, core.tlb.stats.misses),
        "predictor": (core.predictor.stats.branches,
                      core.predictor.stats.mispredictions),
    }


def _with_structures(run: Callable[..., Any]) -> Callable[..., Any]:
    """A core run's result includes the structure statistics it leaves."""

    def wrapped(core, *args):
        return {"counters": run(core, *args),
                "structures": structure_stats(core)}

    return wrapped


def evaluate_designs_batch(designs: Sequence[Dict[str, float]]):
    """One :func:`evaluate_batch` call over a list of design kwargs."""
    keys = [k for k in designs[0] if k != "battery_cells"]
    return evaluate_batch(
        np.array([d["wheelbase_mm"] for d in designs]),
        np.array([d["battery_cells"] for d in designs], dtype=np.int64),
        np.array([d["battery_capacity_mah"] for d in designs]),
        **{
            k: np.array([d[k] for d in designs])
            for k in keys
            if k not in ("wheelbase_mm", "battery_capacity_mah")
        },
    )


def _batch_lanes(designs):
    batch = evaluate_designs_batch(designs)
    return [
        batch.evaluation(index).as_dict() if bool(batch.feasible[index])
        else batch.failure_message(index)
        for index in range(len(designs))
    ]


def _scalar_lanes(designs):
    lanes = []
    for params in designs:
        try:
            lanes.append(DroneDesign(**params).evaluate().as_dict())
        except InfeasibleDesignError as error:
            lanes.append(str(error))
    return lanes


def ticks(step: Callable[..., Any]) -> Callable[..., Any]:
    """A body stepped through a thrust schedule: every state it passes
    through, and the gust state its wind is left in."""

    def run(body, thrust_rows, dt):
        states = [step(body, thrusts, dt).copy() for thrusts in thrust_rows]
        gust = None if body.wind is None else body.wind._state
        return {"states": states, "gust": gust}

    return run


def _with_counters(mix: Callable[..., Any]) -> Callable[..., Any]:
    """A mix's result includes the allocation counters it bumps."""

    def run(mixer, total_thrust_n, torque_nm):
        return {"thrusts": mix(mixer, total_thrust_n, torque_nm),
                "mixes": mixer.mixes, "saturations": mixer.saturations}

    return run


# -- the pairs ----------------------------------------------------------------

#: Per-lane design evaluation: one batched grid vs ``DroneDesign.evaluate``.
EVALUATE_BATCH = Pair("evaluate_batch", _batch_lanes, _scalar_lanes, BITWISE)
SWEEP_WHEELBASE = Pair("sweep_wheelbase", sweep_wheelbase,
                       oracles.sweep_wheelbase, BITWISE)
ORB_EXTRACT = Pair("OrbExtractor.extract",
                   lambda extractor, frame: extractor.extract(frame),
                   oracles.orb_extract, BITWISE)
HAMMING_DISTANCE_MATRIX = Pair("hamming_distance_matrix",
                               hamming_distance_matrix,
                               oracles.hamming_distance_matrix, BITWISE)
MATCH_FEATURES = Pair("match_features", match_features,
                      oracles.match_features, BITWISE)
MATCH_AGAINST_MAP = Pair("match_against_map", match_against_map,
                         oracles.match_against_map, BITWISE)
MATCH_BY_PROJECTION = Pair("match_by_projection", match_by_projection,
                           oracles.match_by_projection, BITWISE)
#: Reductions round differently; the RMS and yaw bounds are absolute.
TRACK_POSE = Pair("track_pose", track_pose, oracles.track_pose, ALLCLOSE,
                  rtol=1e-9, atol=1e-12,
                  tolerances={"yaw_rad": (0.0, 1e-9),
                              "final_rms_px": (0.0, 1e-9)})
#: Near-singular landmark solves amplify the reduction-order rounding, so
#: landmarks get 1e-7 — still far below the map's centimetre noise floor.
GLOBAL_BUNDLE_ADJUST = Pair("global_bundle_adjust",
                            _with_map(global_bundle_adjust),
                            _with_map(oracles.global_bundle_adjust), ALLCLOSE,
                            rtol=1e-9, atol=1e-12,
                            tolerances={"yaw_rad": (0.0, 1e-9),
                                        "initial_rms_px": (0.0, 1e-9),
                                        "final_rms_px": (0.0, 1e-9),
                                        "points": (1e-6, 1e-7)})
RUN_SEGMENTS = Pair("InOrderCore.run_segments",
                    _with_structures(InOrderCore.run_segments),
                    _with_structures(oracles.run_segments), COUNTER_EXACT)
RUN_TRACE = Pair(
    "InOrderCore.run_trace",
    _with_structures(InOrderCore.run_trace),
    _with_structures(lambda core, context, trace: oracles.run_segments(
        core, [(context, trace)])[context]),
    COUNTER_EXACT,
)
#: The scalar flight tick: float arithmetic vs the NumPy-vector reference.
WRENCH_FROM_MOTOR_THRUSTS = Pair("QuadcopterBody.wrench_from_motor_thrusts",
                                 QuadcopterBody.wrench_from_motor_thrusts,
                                 oracles.wrench_from_motor_thrusts, BITWISE)
BODY_STEP = Pair("QuadcopterBody.step", QuadcopterBody.step,
                 oracles.quadcopter_body_step, BITWISE)
MOTOR_MIXER_MIX = Pair("MotorMixer.mix", _with_counters(MotorMixer.mix),
                       _with_counters(oracles.motor_mixer_mix), BITWISE)
