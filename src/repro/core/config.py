"""Configuration of the SparDL framework.

:class:`SparDLConfig` collects every knob the paper exposes: the sparsity
(``k`` or a density ratio), the team count ``d``, the Spar-All-Gather variant
and the residual collection policy.  The configuration validates itself
against a cluster size so misconfigurations (``d`` not dividing ``P``, R-SAG
with a non-power-of-two ``d``, ...) fail loudly before any communication
happens.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .residuals import ResidualPolicy
from .schedules import KSchedule, coerce_schedule

__all__ = ["SAGMode", "SparDLConfig", "is_power_of_two"]


def is_power_of_two(value: int) -> bool:
    return value >= 1 and (value & (value - 1)) == 0


class SAGMode(str, Enum):
    """Which Spar-All-Gather variant synchronises the teams."""

    #: Pick R-SAG when ``d`` is a power of two, B-SAG otherwise.
    AUTO = "auto"
    #: Recursive-doubling SAG; requires ``d`` to be a power of two.
    RSAG = "rsag"
    #: Bruck-based SAG with the adaptive top-h controller; any ``d``.
    BSAG = "bsag"

    @classmethod
    def coerce(cls, value: "SAGMode | str") -> "SAGMode":
        if isinstance(value, cls):
            return value
        return cls(str(value).lower())


@dataclass
class SparDLConfig:
    """Hyper-parameters of one SparDL synchroniser.

    Parameters
    ----------
    k:
        Number of gradients selected per worker.  Mutually exclusive with
        ``density``.
    density:
        Fraction ``k/n`` of gradients selected per worker (the paper sweeps
        1e-1 .. 1e-5 in Fig. 16).  Mutually exclusive with ``k``.
    num_teams:
        The paper's ``d``.  ``d = 1`` disables Spar-All-Gather entirely
        (SparDL is then SRS followed by a Bruck All-Gather).
    sag_mode:
        Which SAG variant to use when ``num_teams > 1``.
    residual_policy:
        Residual collection policy (GRES / PRES / LRES / none).
    sparsify_all_blocks:
        Disable the paper's "Optimization for SRS": re-sparsify every held
        block after each summation instead of only the blocks about to be
        sent.  Only used by the ablation benchmark.
    schedule:
        Sparsity schedule (see :mod:`repro.core.schedules`): ``None`` keeps
        the constant ``k``/``density`` (the pre-schedule behaviour, bit for
        bit), a spec string (``"warmup:5"``) is interpreted
        against the configured ``k``/``density`` target, and a ready
        :class:`~repro.core.schedules.KSchedule` object carries its own
        target (``k``/``density`` must then be omitted).
    num_bits:
        Value quantization of the wire (Section VI extension): ``None``
        (default) transmits full-precision values — the pre-quantization
        pipeline bit for bit — while an integer in ``[1, 32]`` installs a
        :class:`~repro.compression.quantization.QuantizedCompressor` behind
        the pipeline's ``compress`` stage: selected values are quantized
        QSGD-style (per-worker independent random streams), the exact
        per-message quantization error joins the residual error-feedback
        path, and every message is billed at the ``(1 + num_bits/32)/2``
        COO accounting.
    momentum:
        DGC momentum-correction factor (Lin et al., ICLR'18): ``None``
        (default) keeps plain error feedback — the pre-momentum pipeline bit
        for bit — while a factor in ``(0, 1)`` makes the residual manager
        accumulate *velocity* (``u = m*u + g``) with momentum factor masking
        at the final global indices, so delayed coordinates keep their
        momentum history.  The synchroniser builds its residual manager
        with this factor, and it is fixed from then on.  Train such a
        synchroniser with ``TrainerConfig(momentum=0.0)`` (momentum-free
        optimizers), otherwise velocity is applied twice.
    """

    k: Optional[int] = None
    density: Optional[float] = None
    num_teams: int = 1
    sag_mode: SAGMode | str = SAGMode.AUTO
    residual_policy: ResidualPolicy | str = ResidualPolicy.GLOBAL
    sparsify_all_blocks: bool = False
    schedule: Optional[KSchedule | str] = None
    num_bits: Optional[int] = None
    momentum: Optional[float] = None

    def __post_init__(self) -> None:
        if isinstance(self.schedule, KSchedule):
            if self.k is not None or self.density is not None:
                raise ValueError(
                    "a KSchedule object carries its own sparsity target; "
                    "do not also give k or density")
        else:
            if self.k is None and self.density is None:
                raise ValueError("either k or density must be given")
            if self.k is not None and self.density is not None:
                raise ValueError("give only one of k and density")
        if self.k is not None and self.k <= 0:
            raise ValueError("k must be positive")
        if self.density is not None and not 0 < self.density <= 1:
            raise ValueError("density must be in (0, 1]")
        if self.num_teams <= 0:
            raise ValueError("num_teams must be positive")
        if self.num_bits is not None and not 1 <= int(self.num_bits) <= 32:
            raise ValueError("num_bits must be between 1 and 32 (or None)")
        if self.momentum is not None and not 0 < float(self.momentum) < 1:
            raise ValueError("momentum must be in (0, 1) (or None)")
        if self.momentum is not None and ResidualPolicy.coerce(
                self.residual_policy) is ResidualPolicy.NONE:
            raise ValueError(
                "momentum correction accumulates velocity in the residual "
                "stores; residual_policy='none' would discard it")
        self.sag_mode = SAGMode.coerce(self.sag_mode)
        self.residual_policy = ResidualPolicy.coerce(self.residual_policy)

    # ------------------------------------------------------------------
    def resolve_schedule(self) -> KSchedule:
        """The :class:`~repro.core.schedules.KSchedule` this configuration
        describes (a constant schedule over ``k``/``density`` by default)."""
        return coerce_schedule(self.schedule, k=self.k, density=self.density)

    def resolve_k(self, num_elements: int) -> int:
        """Number of selected gradients for a vector of ``num_elements``
        at iteration 0 of the configured schedule."""
        if num_elements <= 0:
            raise ValueError("num_elements must be positive")
        if self.k is not None:
            k = self.k
        elif self.density is not None:
            k = int(round(self.density * num_elements))
        else:
            return self.resolve_schedule().resolve(0, num_elements)
        return max(1, min(num_elements, int(k)))

    def validate_for_cluster(self, num_workers: int) -> None:
        """Raise when this configuration cannot run on ``num_workers``."""
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if self.num_teams > num_workers:
            raise ValueError(
                f"num_teams={self.num_teams} exceeds the number of workers {num_workers}"
            )
        if num_workers % self.num_teams != 0:
            raise ValueError(
                f"num_teams={self.num_teams} must divide the number of workers {num_workers}"
            )
        if (self.num_teams > 1 and self.sag_mode is SAGMode.RSAG
                and not is_power_of_two(self.num_teams)):
            raise ValueError("R-SAG requires a power-of-two number of teams")

    def effective_sag_mode(self) -> SAGMode:
        """The variant actually executed for this ``num_teams``."""
        if self.num_teams == 1:
            return SAGMode.AUTO
        if self.sag_mode is SAGMode.AUTO:
            return SAGMode.RSAG if is_power_of_two(self.num_teams) else SAGMode.BSAG
        return SAGMode.coerce(self.sag_mode)

    def team_size(self, num_workers: int) -> int:
        self.validate_for_cluster(num_workers)
        return num_workers // self.num_teams

    def describe(self) -> str:
        """Short human-readable label used in figures and reports."""
        if self.k is not None:
            sparsity = f"k={self.k}"
        elif self.density is not None:
            sparsity = f"k/n={self.density:g}"
        else:
            sparsity = self.resolve_schedule().spec()
        parts = [sparsity]
        if isinstance(self.schedule, str) and self.schedule.strip().lower() != "constant":
            parts.append(self.schedule.strip().lower())
        elif isinstance(self.schedule, KSchedule) and self.schedule.spec() != "constant":
            if self.schedule.spec() != sparsity:
                parts.append(self.schedule.spec())
        if self.num_teams > 1:
            parts.append(f"{self.effective_sag_mode().value.upper()}")
            parts.append(f"d={self.num_teams}")
        if self.num_bits is not None:
            parts.append(f"{self.num_bits}bit")
        if self.momentum is not None:
            parts.append(f"m={self.momentum:g}")
        return f"SparDL({', '.join(parts)})"
