"""First-class sparsity schedules (the ``k`` of every synchronisation).

The paper sweeps the sparsity ratio ``k/n`` as a static hyper-parameter
(Fig. 16); follow-up systems treat it as a *schedule*: Deep Gradient
Compression ramps the sparsity up over a few warm-up epochs so early
iterations — whose gradients carry the most signal — are compressed
gently.  A :class:`KSchedule` makes that first-class: every synchroniser
resolves its per-step ``k`` through its schedule at the start of each
step.

Two schedules are provided:

* :class:`ConstantSchedule` — the paper's static ``k``/``density`` pair.
  This is the default everywhere and reproduces the pre-schedule behaviour
  bit for bit.
* :class:`WarmupSchedule` — a DGC-style geometric ramp from a dense-ish
  ``start_density`` down to the target over ``warmup_steps`` steps.

Schedules also define the spec-string grammar used by :mod:`repro.api`
(``schedule=warmup:5`` etc.); :func:`parse_schedule` and
:meth:`KSchedule.spec` round-trip it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

__all__ = [
    "resolve_k",
    "KSchedule",
    "ConstantSchedule",
    "WarmupSchedule",
    "parse_schedule",
    "coerce_schedule",
    "SCHEDULE_KINDS",
]

#: Schedule kinds understood by :func:`parse_schedule` (the ``schedule=``
#: values of the :mod:`repro.api` spec grammar).
SCHEDULE_KINDS = ("constant", "warmup")


def resolve_k(num_elements: int, k: Optional[int], density: Optional[float]) -> int:
    """Resolve the number of selected gradients from ``k`` or ``density``.

    Exactly one of the two should be provided; the result is clamped to
    ``[1, num_elements]``.
    """
    if num_elements <= 0:
        raise ValueError("num_elements must be positive")
    if k is None and density is None:
        raise ValueError("either k or density must be given")
    if k is not None and density is not None:
        raise ValueError("give only one of k and density")
    if k is None:
        if not 0 < density <= 1:
            raise ValueError("density must be in (0, 1]")
        k = int(round(density * num_elements))
    k = int(k)
    return max(1, min(num_elements, k))


class KSchedule(ABC):
    """Per-iteration resolution of the sparsity ``k``.

    ``resolve(iteration, num_elements)`` is called at the *start* of every
    step and returns the ``k`` that step selects per worker.
    """

    #: Spec-grammar kind (first token of the ``schedule=`` value).
    kind: str = "constant"

    @abstractmethod
    def resolve(self, iteration: int, num_elements: int) -> int:
        """The ``k`` to select at ``iteration`` (0-based) for a gradient of
        ``num_elements``."""

    @abstractmethod
    def spec(self) -> str:
        """The ``schedule=`` spec-string value that reconstructs this
        schedule (see :func:`parse_schedule`)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.spec()!r})"


def _validate_target(k: Optional[int], density: Optional[float]) -> None:
    """Shared constructor validation: exactly one of ``k``/``density``."""
    if k is None and density is None:
        raise ValueError("either k or density must be given")
    if k is not None and density is not None:
        raise ValueError("give only one of k and density")
    if k is not None and int(k) <= 0:
        raise ValueError("k must be positive")
    if density is not None and not 0 < density <= 1:
        raise ValueError("density must be in (0, 1]")


class ConstantSchedule(KSchedule):
    """The paper's static sparsity: the same ``k`` (or ``density``) forever.

    ``resolve`` is exactly :func:`resolve_k`, so a constant schedule is
    bit-identical to the pre-schedule code path.
    """

    kind = "constant"

    def __init__(self, k: Optional[int] = None, density: Optional[float] = None) -> None:
        _validate_target(k, density)
        self.k = None if k is None else int(k)
        self.density = None if density is None else float(density)

    def resolve(self, iteration: int, num_elements: int) -> int:
        return resolve_k(num_elements, self.k, self.density)

    def spec(self) -> str:
        return "constant"


class WarmupSchedule(KSchedule):
    """DGC-style sparsity warm-up: start dense-ish, ramp to the target.

    Deep Gradient Compression ramps its sparsity exponentially over the
    first epochs (density 0.25 -> 0.0625 -> ... -> target) so the large
    early gradients are compressed gently.  This schedule reproduces that
    shape per *step*: the selected density decays geometrically from
    ``start_density`` at iteration 0 to the target ``k``/``density`` at
    iteration ``warmup_steps``, and stays at the target afterwards.

    ``start_density`` is clamped up to the target density when the target
    is denser than the start (the ramp never goes *up*).
    """

    kind = "warmup"

    #: DGC's first warm-up density (75% sparsity).
    DEFAULT_START_DENSITY = 0.25

    def __init__(self, warmup_steps: int, k: Optional[int] = None,
                 density: Optional[float] = None,
                 start_density: Optional[float] = None) -> None:
        _validate_target(k, density)
        if warmup_steps <= 0:
            raise ValueError("warmup_steps must be positive")
        start = self.DEFAULT_START_DENSITY if start_density is None else float(start_density)
        if not 0 < start <= 1:
            raise ValueError("start_density must be in (0, 1]")
        self.warmup_steps = int(warmup_steps)
        self.k = None if k is None else int(k)
        self.density = None if density is None else float(density)
        self.start_density = start
        self._explicit_start = start_density is not None

    def resolve(self, iteration: int, num_elements: int) -> int:
        target = resolve_k(num_elements, self.k, self.density)
        if iteration >= self.warmup_steps:
            return target
        target_density = target / num_elements
        start = max(self.start_density, target_density)
        if start <= target_density:
            return target
        # Geometric interpolation: exactly `start` at iteration 0, exactly
        # the target density once iteration reaches warmup_steps.
        fraction = iteration / self.warmup_steps
        density = start * (target_density / start) ** fraction
        return resolve_k(num_elements, None, min(1.0, density))

    def spec(self) -> str:
        if self._explicit_start:
            return f"warmup:{self.warmup_steps}:{self.start_density:g}"
        return f"warmup:{self.warmup_steps}"


# ---------------------------------------------------------------------------
# spec-string grammar
# ---------------------------------------------------------------------------
def parse_schedule(spec: str, k: Optional[int] = None,
                   density: Optional[float] = None) -> KSchedule:
    """Build a :class:`KSchedule` from its spec-string value.

    Grammar (the ``schedule=`` value of the :mod:`repro.api` spec strings)::

        constant                  -> ConstantSchedule(k, density)
        warmup:STEPS              -> WarmupSchedule(STEPS, k, density)
        warmup:STEPS:START        -> WarmupSchedule(STEPS, k, density, START)

    The target sparsity (``k`` or ``density``) comes from the surrounding
    configuration, exactly as in ``SparDLConfig``.
    """
    text = str(spec).strip().lower()
    if not text:
        raise ValueError("empty schedule spec")
    parts = text.split(":")
    kind, args = parts[0], parts[1:]
    if kind == "constant":
        if args:
            raise ValueError(f"constant schedule takes no arguments, got {spec!r}")
        return ConstantSchedule(k=k, density=density)
    if kind == "warmup":
        if not 1 <= len(args) <= 2:
            raise ValueError(
                f"warmup schedule spec must be warmup:STEPS[:START_DENSITY], got {spec!r}")
        steps = int(args[0])
        start = float(args[1]) if len(args) == 2 else None
        return WarmupSchedule(steps, k=k, density=density, start_density=start)
    raise ValueError(
        f"unknown schedule kind {kind!r}; expected one of {', '.join(SCHEDULE_KINDS)}")


def coerce_schedule(schedule, k: Optional[int] = None,
                    density: Optional[float] = None) -> KSchedule:
    """Normalise a schedule argument into a :class:`KSchedule`.

    ``schedule`` may be a ready :class:`KSchedule` (then ``k``/``density``
    must not also be given — the schedule carries its own target), a spec
    string interpreted against the given target, or ``None`` for the
    constant schedule over ``k``/``density``.
    """
    if isinstance(schedule, KSchedule):
        if k is not None or density is not None:
            raise ValueError(
                "a KSchedule object carries its own sparsity target; "
                "do not also give k or density")
        return schedule
    if schedule is None:
        return ConstantSchedule(k=k, density=density)
    return parse_schedule(str(schedule), k=k, density=density)
