"""Purity fixture: @pure functions that cheat, next to ones that don't."""

from repro.analysis.markers import pure

_CALLS = 0
_HISTORY = []


@pure
def count_calls(x: float) -> float:  # BAD: writes a module global
    global _CALLS
    _CALLS += 1
    return x


@pure
def record(x: float) -> float:  # BAD: mutates a module-level container
    _HISTORY.append(x)
    return x


@pure
def stamp(sample: dict) -> dict:  # BAD: mutates its argument
    sample["stamped"] = True
    return sample


@pure
def chatty(x: float) -> float:  # BAD: ambient I/O
    print(x)
    return x


@pure
def delegate(sample: dict) -> dict:  # BAD: impurity is one call deep
    return stamp(sample)


@pure
def clean_math(a: float, b: float) -> float:
    total = a + b
    return total


@pure
def clean_local_mutation(values: list) -> float:
    scratch = list(values)
    scratch.append(0.0)  # mutating a fresh local copy is fine
    return float(len(scratch))


@pure
def clean_transitive(a: float) -> float:
    return clean_math(a, a)
