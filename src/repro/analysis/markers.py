"""Runtime markers consumed by the static-analysis suite.

These decorators are zero-overhead at runtime — they only attach an
attribute the AST passes (and curious humans) can read.  They live in their
own dependency-free module so inner-loop code can import them without
pulling the analysis machinery into the flight stack.
"""

from __future__ import annotations

from typing import Any, Callable, TypeVar

_F = TypeVar("_F", bound=Callable[..., Any])
_T = TypeVar("_T", bound=type)


def hot_path(func: _F) -> _F:
    """Mark a function as inner-loop code subject to the hot-path lint.

    The 50-500 Hz inner loop (paper Table 2) is a hard real-time budget:
    marked functions may not allocate via comprehensions, do file I/O,
    format strings, or log eagerly, and every callee the analyzer can
    resolve must itself be ``@hot_path`` or ``@hot_path_safe``.  Error
    paths (code inside ``raise`` statements) are exempt — an abort is
    already off the hot path.
    """
    func.__hot_path__ = True  # type: ignore[attr-defined]
    return func


def hot_path_safe(func: _F) -> _F:
    """Whitelist a function as callable from a hot path without being one.

    Use for rarely-taken helpers (error formatting, one-shot lazy init)
    whose body intentionally breaks hot-path rules.  The body of a
    ``hot_path_safe`` function is not checked.
    """
    func.__hot_path_safe__ = True  # type: ignore[attr-defined]
    return func


def pure(func: _F) -> _F:
    """Register a function as pure: its result depends only on its inputs.

    The purity pass verifies the claim transitively — a ``@pure`` function
    (and every callee the call graph can resolve) must not write globals,
    mutate its arguments, or touch ambient state (clocks, global RNGs,
    file I/O).  The chaos ``run_trial`` contract — "a TrialResult is a
    pure function of (spec, config)" — and the Eq. 1-7 evaluators carry
    this marker so the static pass guards what the replay harness checks
    dynamically.
    """
    func.__pure__ = True  # type: ignore[attr-defined]
    return func


def mutable_state(cls: _T) -> _T:
    """Register a dataclass as intentionally mutable shared state.

    Config-shaped dataclasses (``*Config``, ``*Spec``, ``*Profile`` ...)
    must be ``frozen=True`` so a scenario cannot drift mid-run; classes
    that genuinely accumulate state opt out with this decorator, which
    doubles as documentation of that decision.
    """
    cls.__mutable_state__ = True
    return cls
