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

Paths without a NumPy form in :mod:`repro.oracles` are held to golden
vectors instead: :func:`golden` compares a result ``bitwise`` to the bit
patterns recorded under ``tests/fixtures/`` from the NumPy form they
replaced.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import json
import math
import numbers
import os
import struct
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
import pytest

from repro import oracles
from repro.core.batch import evaluate_batch
from repro.core.design import DroneDesign
from repro.core.equations import InfeasibleDesignError
from repro.core.explorer import sweep_wheelbase
from repro.physics.rigid_body import ROTOR_ANGLES_RAD
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


# -- golden vectors -----------------------------------------------------------

GOLDEN_DIR = Path(__file__).resolve().parent / "fixtures"
#: ``REPRO_RECORD_GOLDEN=1`` rewrites the vectors instead of checking them.
#: Record only from a commit whose outputs are the reference, and review
#: the diff.
RECORD_ENV = "REPRO_RECORD_GOLDEN"
#: ``REPRO_GOLDEN_STRICT=1`` fails a vector this host cannot check instead
#: of reporting its test as skipped.
STRICT_ENV = "REPRO_GOLDEN_STRICT"
#: The host features a vector's bits can depend on.  ``BLAS``: dots,
#: matvecs, matrix products and LAPACK solves, whose kernels (fused
#: multiply-adds or not, summation order) OpenBLAS picks by CPU.  ``LIBM``:
#: the transcendental functions of :mod:`math` and NumPy, and float ``**``.
BLAS, LIBM = "blas", "libm"
#: Vectors the running test could not check on this host; ``conftest.py``
#: reports a test that passes with any left here as skipped.
UNCHECKED: List[str] = []


def golden(name: str, fn: Callable[..., Any], *args: Any,
           uses: Sequence[str] = (), nan_sign: bool = True,
           **kwargs: Any) -> Any:
    """Run ``fn`` and hold its result ``bitwise`` to the vector ``name``.

    ``name`` is ``"<root>/<group>/<case>"``; the group's vectors live in
    ``GOLDEN_DIR/<root>/<group>.json``, one case per line.  A raised
    exception is the result: its type and message must match the recorded
    ones, and it propagates so a case can ``pytest.raises`` it.

    ``uses`` names the host features (:data:`BLAS`, :data:`LIBM`) the
    result's bits depend on.  Where this host rounds one of them
    differently from the recording host (the probes in
    ``GOLDEN_DIR/<root>/host.json``), ``fn`` still runs and its result is
    returned for the caller's own asserts, but its bits are not compared:
    the vector goes on :data:`UNCHECKED`, or fails under ``STRICT_ENV``.
    A case that uses neither feature is checked on every host.

    ``nan_sign=False`` leaves a NaN's sign free (its payload still counts),
    for a case whose NaNs meet in a NumPy SIMD loop: which of two NaN
    operands propagates there depends on the array's address.
    """
    group, case = name.rsplit("/", 1)
    host = GOLDEN_DIR / name.split("/", 1)[0] / "host.json"
    recording = os.environ.get(RECORD_ENV) == "1"
    try:
        result, error = fn(*args, **kwargs), None
    except Exception as caught:
        result, error = None, caught
    encoded = _encode(result if error is None else error)
    path = GOLDEN_DIR / f"{group}.json"
    differing = [] if recording else [
        feature for feature in uses if not _same_host(str(host), feature)
    ]
    if recording:
        for feature, probe in _host_probe().items():
            _record(host, feature, _encode(probe))
        _record(path, case, encoded)
    elif differing:
        message = (f"{name}: bits unchecked, this host's "
                   f"{' and '.join(differing)} rounds differently")
        if os.environ.get(STRICT_ENV) == "1":
            pytest.fail(message)
        UNCHECKED.append(message)
    else:
        vectors = _load_golden(str(path))
        assert case in vectors, f"{name}: no recorded vector (set {RECORD_ENV}=1)"
        fresh, recorded = _decode(encoded), _decode(vectors[case])
        if not nan_sign:
            fresh, recorded = _unsigned_nans(fresh), _unsigned_nans(recorded)
        assert_tier(fresh, recorded, BITWISE, path=name)
    if error is not None:
        raise error
    return result


def _record(path: Path, case: str, encoded: Any) -> None:
    vectors = json.loads(path.read_text()) if path.exists() else {}
    vectors[case] = encoded
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"{json.dumps(key)}: {json.dumps(vectors[key], separators=(',', ':'))}"
             for key in sorted(vectors)]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    _load_golden.cache_clear()
    _same_host.cache_clear()


@functools.lru_cache(maxsize=None)
def _load_golden(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


def _host_probe() -> Dict[str, Dict[str, np.ndarray]]:
    """Per host feature, seeded results whose rounding depends on it: BLAS
    dots, matvecs, 9x9 products and 3x3 solves in the flight tick's shapes,
    and the transcendental functions the tick calls."""
    rng = np.random.default_rng(2024)
    angles = rng.uniform(-4.0, 4.0, 256)
    ratios = rng.uniform(-1.0, 1.0, 256).tolist()
    bases = rng.uniform(0.5, 1.5, 64).tolist()
    libm = {
        "math": np.array(
            [f(x) for f in (math.sin, math.cos, math.tan, math.exp)
             for x in angles.tolist()]
            + [f(x) for f in (math.asin, math.acos) for x in ratios]
            + [math.atan2(y, x) for y, x in zip(ratios, angles.tolist())]
            + [math.hypot(y, x) for y, x in zip(ratios, angles.tolist())]
        ),
        "pow": np.array([b ** e for b in bases for e in (2, 5.2561, 0.5)]),
        "numpy": np.concatenate([
            f(x) for f in (np.sin, np.cos) for x in (angles, ROTOR_ANGLES_RAD)
        ]),
    }
    blas = {}
    for n in (2, 3, 4, 9):
        a, b = rng.standard_normal((2, 64, n))
        blas[f"dot{n}"] = np.array([x.dot(y) for x, y in zip(a, b)])
    for n in (3, 4, 9):
        matrices = rng.standard_normal((16, n, n))
        vectors = rng.standard_normal((16, n))
        blas[f"matvec{n}"] = np.array([m @ v for m, v in zip(matrices, vectors)])
        blas[f"matvec{n}_t"] = np.array([m.T @ v for m, v in zip(matrices, vectors)])
    left, right = rng.standard_normal((2, 4, 9, 9))
    blas["matmul9"] = np.array([a @ b @ a.T for a, b in zip(left, right)])
    systems = rng.standard_normal((16, 3, 3)) + 3.0 * np.eye(3)
    blas["solve3"] = np.array([np.linalg.solve(m, v) for m, v in
                               zip(systems, rng.standard_normal((16, 3)))])
    return {BLAS: blas, LIBM: libm}


@functools.lru_cache(maxsize=None)
def _same_host(path: str, feature: str) -> bool:
    recorded = _decode(_load_golden(path)[feature])
    probe = _decode(_encode(_host_probe()[feature]))
    try:
        assert_tier(probe, recorded, BITWISE)
    except AssertionError:
        return False
    return True


def _unsigned_nans(tree: Any) -> Any:
    """``tree`` with the sign bit of every NaN cleared."""
    if isinstance(tree, dict):
        return {key: _unsigned_nans(item) for key, item in tree.items()}
    if isinstance(tree, (list, tuple)):
        return type(tree)(_unsigned_nans(item) for item in tree)
    if isinstance(tree, np.ndarray) and tree.dtype.kind == "f":
        return np.where(np.isnan(tree), np.abs(tree), tree)
    if isinstance(tree, float) and tree != tree:
        return math.fabs(tree)
    return tree


def _encode(value: Any) -> Any:
    """A JSON tree that keeps every bit.

    Floats are ``"f:<hex>"`` and arrays ``"a:<dtype>:<shape>:<hex>"``, both
    big-endian; other strings get an ``"s:"`` prefix.  A dataclass is an
    object whose ``"@"`` key names its type, a tuple is ``{"()": [...]}``,
    and an exception is ``{"error": <type>, "message": <str>}``.
    """
    if isinstance(value, BaseException):
        return {"error": _encode(type(value).__name__),
                "message": _encode(str(value))}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {"@": type(value).__name__,
                **{f.name: _encode(getattr(value, f.name))
                   for f in dataclasses.fields(value)}}
    if isinstance(value, dict):
        assert all(isinstance(key, str) and key != "@" for key in value), value
        return {key: _encode(item) for key, item in value.items()}
    if isinstance(value, tuple):
        return {"()": [_encode(item) for item in value]}
    if isinstance(value, list):
        return [_encode(item) for item in value]
    if isinstance(value, np.ndarray):
        big = value.dtype.newbyteorder(">")
        shape = "x".join(str(n) for n in value.shape)
        bits = np.ascontiguousarray(value, dtype=big).tobytes().hex()
        return f"a:{value.dtype.str}:{shape}:{bits}"
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if _is_float(value):
        return "f:" + struct.pack(">d", float(value)).hex()
    if isinstance(value, str):
        return "s:" + value
    assert value is None, f"cannot encode {value!r}"
    return value


def _decode(tree: Any) -> Any:
    if isinstance(tree, list):
        return [_decode(item) for item in tree]
    if isinstance(tree, dict):
        if "()" in tree:
            return tuple(_decode(item) for item in tree["()"])
        return {key: item if key == "@" else _decode(item)
                for key, item in tree.items()}
    if not isinstance(tree, str):
        return tree
    kind, _, body = tree.partition(":")
    if kind == "f":
        return struct.unpack(">d", bytes.fromhex(body))[0]
    if kind == "a":
        dtype_str, shape, bits = body.split(":")
        dtype = np.dtype(dtype_str)
        dims = [int(n) for n in shape.split("x")] if shape else []
        big = np.frombuffer(bytes.fromhex(bits), dtype=dtype.newbyteorder(">"))
        return big.astype(dtype).reshape(dims)
    assert kind == "s", f"unknown golden leaf {tree!r}"
    return body
