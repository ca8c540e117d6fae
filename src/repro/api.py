"""One facade for building any synchroniser from a spec string.

Experiments select communication methods the way the paper's figures do —
by short names — but a configuration is more than a name: sparsity, team
count, SAG variant, residual policy, sparsity *schedule* and bucketing all
ride along.  The facade folds all of it into one URL-style spec string::

    spardl?density=0.01&schedule=warmup:5&buckets=layer
    ok-topk?k=500
    gtopk?density=0.01&schedule=adaptive
    dense

Grammar
-------
``name[?key=value[&key=value]...]`` where ``name`` is any method name or
alias (case-insensitive, as in the paper's figures) and the keys are:

========== ===================================================================
``k``       entries selected per worker (mutually exclusive with ``density``)
``density`` selected fraction ``k/n`` (mutually exclusive with ``k``)
``schedule`` sparsity schedule: ``constant`` (default), ``warmup:STEPS`` /
            ``warmup:STEPS:START_DENSITY`` (DGC-style ramp), ``adaptive`` /
            ``adaptive:GAIN`` (nnz-feedback controller)
``teams``   SparDL team count ``d`` (default 1)
``sag``     SparDL Spar-All-Gather mode: ``auto`` / ``rsag`` / ``bsag``
``residuals`` SparDL residual policy: ``global`` / ``partial`` / ``local`` / ``none``
``buckets`` ``flat`` (default), ``layer`` (one bucket per parameter tensor),
            ``size:N`` (SSFusion-style fusion of consecutive tensors up to
            ``N`` elements), or ``auto`` / ``auto:mgwfbp`` / ``auto:asc``
            (plan the fused layout with :mod:`repro.core.fusion`: MG-WFBP
            merge-if-it-keeps-the-critical-path, or ASC alpha-saturation
            coalescing, over an alpha-beta model calibrated from the
            transport — ``auto`` is MG-WFBP); non-flat specs need a
            ``model``, and ``auto`` planning reads the optional
            ``network=`` / ``compute_profile=`` arguments of :func:`make`
``bits``    wire value quantization (all methods): bits per value in
            ``[1, 32]``; values are quantized QSGD-style with exact error
            feedback, sparse messages bill the ``(1 + bits/32)/2`` COO
            accounting plus one scale element, and dense payloads bill
            ``bits/32`` per value (absent = full precision, the
            pre-quantization pipeline bit for bit).  On non-flat ``buckets``
            modes the value may carry per-bucket overrides:
            ``bits=8,emb:32`` quantizes every bucket at 8 bits except those
            whose name contains ``emb``, which stay at 32 — keeping
            sensitive layers high precision.  Each ``pattern:bits`` item
            matches case-insensitive substrings of the bucket names
            (fused buckets join their tensor names with ``+``); the
            optional leading bare integer is the default for unmatched
            buckets (absent = full precision for them)
``momentum`` DGC momentum correction (Lin et al., ICLR'18): a factor in
            ``(0, 1)`` makes the residual manager accumulate velocity
            ``u = m*u + g`` with momentum-factor masking at the final
            global indices, so delayed coordinates keep their momentum
            history.  Run the trainer with
            ``TrainerConfig.momentum_correction=True`` (momentum-free
            optimizer) so velocity is not applied twice.  Absent = plain
            error feedback, bit for bit
``hybrid``  per-tensor-size dense/sparse policy on bucketed layouts:
            ``hybrid=dense<SIZE`` runs every bucket smaller than ``SIZE``
            elements as an exact full-precision dense All-Reduce and the
            rest with the spec's sparse method (+quantization) — the DGC
            hybrid: small tensors are cheaper dense and are guaranteed
            representation.  Requires a non-flat ``buckets`` mode and a
            sparse method
``backend`` execution backend: ``sim:P`` (deterministic in-process
            simulator) or ``mp:P`` (``P`` real worker processes, see
            :class:`~repro.comm.mp_backend.MultiprocessCluster`); with a
            backend given, :func:`make` builds the transport itself and
            ``cluster`` may be omitted.  ``sim`` / ``mp`` without ``:P``
            are accepted when an explicit ``cluster`` supplies the worker
            count.  Absent = use the ``cluster`` argument as-is.
``trace``   observability level: ``off`` (default; no tracer is constructed
            and every method stays bit-identical to the untraced pipeline),
            ``steps`` (step/stage/epoch spans, membership markers, the
            replayed overlap timeline) or ``comm`` (everything plus
            per-message admission events and per-fault markers).  The
            :class:`~repro.obs.trace.Tracer` is attached to the built
            synchroniser (``sync.tracer``) and installed on its transport;
            see ``docs/observability.md``.
========== ===================================================================

:func:`make` builds a ready synchroniser (a
:class:`~repro.core.bucketed.BucketedSynchronizer` when bucketing is
requested), :func:`make_factory` defers construction until the model is
known (the :class:`~repro.training.trainer.DistributedTrainer` calls the
factory with its cluster and model replica), and :func:`describe` maps any
facade-built synchroniser back to its canonical spec string —
``parse_spec(describe(x))`` round-trips.

The old ``repro.baselines.registry`` interface (``make_synchronizer`` with
keyword arguments, ``SYNCHRONIZER_NAMES``, ``available_methods``) lives
here now and remains importable from the registry module unchanged.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from .comm.transport import Transport, make_transport, parse_backend_spec, transport_spec
from .core.base import GradientSynchronizer
from .core.bucketed import BucketedSynchronizer, fuse_buckets, layer_buckets
from .core.fusion import FUSION_PLANNERS, plan_buckets
from .core.config import SAGMode, SparDLConfig
from .core.residuals import ResidualPolicy
from .core.schedules import parse_schedule
from .core.spardl import SparDLSynchronizer
from .obs import TraceLevel, Tracer, attach_tracer

__all__ = [
    "SYNCHRONIZER_NAMES",
    "SyncSpec",
    "parse_spec",
    "make",
    "make_factory",
    "make_synchronizer",
    "describe",
    "available_methods",
]

#: Canonical method names (as used in the paper's figures).
SYNCHRONIZER_NAMES = ("SparDL", "Ok-Topk", "TopkA", "TopkDSA", "gTopk", "Dense")

_ALIASES: Dict[str, str] = {
    "spardl": "SparDL",
    "ok-topk": "Ok-Topk",
    "oktopk": "Ok-Topk",
    "ok_topk": "Ok-Topk",
    "topka": "TopkA",
    "topk-a": "TopkA",
    "topk_a": "TopkA",
    "topkdsa": "TopkDSA",
    "topk-dsa": "TopkDSA",
    "topk_dsa": "TopkDSA",
    "gtopk": "gTopk",
    "gtop-k": "gTopk",
    "dense": "Dense",
    "allreduce": "Dense",
}

#: Spec token used when canonicalising each method name.
_SPEC_NAMES: Dict[str, str] = {
    "SparDL": "spardl",
    "Ok-Topk": "ok-topk",
    "TopkA": "topka",
    "TopkDSA": "topkdsa",
    "gTopk": "gtopk",
    "Dense": "dense",
}

#: Recognised spec keys, in canonical serialisation order.
_SPEC_KEYS = ("k", "density", "teams", "sag", "residuals", "schedule",
              "buckets", "bits", "momentum", "hybrid",
              "backend", "trace")


def _is_power_of_two(value: int) -> bool:
    return value >= 1 and (value & (value - 1)) == 0


def _validate_bits_value(text: "str | int") -> int:
    try:
        value = int(text)
    except (TypeError, ValueError):
        raise ValueError(
            f"bits must be an integer between 1 and 32, got {text!r}") from None
    if not 1 <= value <= 32:
        raise ValueError("bits must be an integer between 1 and 32")
    return value


def _split_bits(bits: "int | str | None"):
    """Split a ``bits`` value into ``(default, overrides)``.

    ``default`` is the bit width for unmatched buckets (``None`` = full
    precision) and ``overrides`` is an ordered ``[(pattern, bits), ...]``
    list; a pattern applies to every bucket whose (lowercased) name contains
    it.  Plain integers have no overrides; ``"8,emb:32"`` parses to
    ``(8, [("emb", 32)])`` and ``"emb:32"`` to ``(None, [("emb", 32)])``.
    """
    if bits is None:
        return None, []
    if isinstance(bits, int):
        return _validate_bits_value(bits), []
    default: Optional[int] = None
    overrides: List[tuple] = []
    for item in str(bits).split(","):
        item = item.strip()
        if not item:
            raise ValueError(f"empty item in bits={bits!r}")
        if ":" in item:
            pattern, _, width = item.rpartition(":")
            pattern = pattern.strip().lower()
            if not pattern:
                raise ValueError(
                    f"bits override {item!r} needs a bucket-name pattern "
                    "before the colon")
            if pattern in (existing for existing, _ in overrides):
                raise ValueError(f"duplicate bits pattern {pattern!r}")
            overrides.append((pattern, _validate_bits_value(width)))
        else:
            if default is not None:
                raise ValueError(
                    f"bits={bits!r} gives more than one default width")
            if overrides:
                raise ValueError(
                    f"the default width in bits={bits!r} must come before "
                    "the pattern overrides")
            default = _validate_bits_value(item)
    return default, overrides


def _canonical_bits(bits: "int | str | None") -> "int | str | None":
    """Validate a ``bits`` value and return its canonical form (an ``int``
    when there are no per-bucket overrides, else the normalised string)."""
    default, overrides = _split_bits(bits)
    if not overrides:
        return default
    items = ([] if default is None else [str(default)])
    items += [f"{pattern}:{width}" for pattern, width in overrides]
    return ",".join(items)


def _hybrid_threshold(hybrid: Optional[str]) -> Optional[int]:
    """The dense-switch size of a ``hybrid=dense<SIZE`` value (``None``
    when the policy is off)."""
    if hybrid is None:
        return None
    text = str(hybrid).strip().lower()
    prefix, _, size = text.partition("<")
    if prefix != "dense" or not size:
        raise ValueError(
            f"hybrid={hybrid!r} is malformed; expected hybrid=dense<SIZE "
            "(buckets smaller than SIZE elements run dense)")
    threshold = int(size)
    if threshold <= 0:
        raise ValueError("the hybrid dense-switch size must be positive")
    return threshold


@dataclass
class SyncSpec:
    """Parsed form of one spec string (see the module grammar)."""

    method: str
    k: Optional[int] = None
    density: Optional[float] = None
    teams: int = 1
    sag: str = "auto"
    residuals: str = "global"
    schedule: str = "constant"
    buckets: str = "flat"
    #: Wire quantization: ``None`` (full precision), an int in ``[1, 32]``,
    #: or a per-bucket override string like ``"8,emb:32"`` (see the grammar).
    bits: "Optional[int | str]" = None
    #: DGC momentum-correction factor in ``(0, 1)``, or ``None`` (off).
    momentum: Optional[float] = None
    #: Hybrid dense/sparse policy ``"dense<SIZE"``, or ``None`` (off).
    hybrid: Optional[str] = None
    backend: Optional[str] = None
    trace: str = "off"
    #: Extra builder options that are not part of the spec grammar
    #: (e.g. ``sparsify_all_blocks`` for the ablation benchmark).
    extras: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.method not in SYNCHRONIZER_NAMES:
            canonical = _ALIASES.get(str(self.method).strip().lower())
            if canonical is None:
                raise ValueError(
                    f"unknown synchroniser {self.method!r}; expected one of "
                    f"{', '.join(SYNCHRONIZER_NAMES)}")
            self.method = canonical
        if self.k is not None and self.density is not None:
            raise ValueError("give only one of k and density")
        if self.bits is not None:
            if not isinstance(self.bits, (int, str)):
                raise ValueError("bits must be an integer between 1 and 32 "
                                 "or a per-bucket override string")
            self.bits = _canonical_bits(self.bits)
        if self.momentum is not None:
            self.momentum = float(self.momentum)
            if not 0.0 < self.momentum < 1.0:
                raise ValueError("momentum must be in (0, 1)")
        if self.hybrid is not None:
            threshold = _hybrid_threshold(self.hybrid)
            self.hybrid = f"dense<{threshold}"
            if self.method == "Dense":
                raise ValueError(
                    "hybrid=dense<SIZE switches small buckets of a sparse "
                    "method to dense; it does not apply to the dense method")
        if self.backend is not None:
            kind, workers = parse_backend_spec(self.backend)
            self.backend = kind if workers is None else f"{kind}:{workers}"
        self.trace = TraceLevel.coerce(self.trace).name.lower()
        if self.buckets.startswith("auto"):
            planner = _bucket_planner(self.buckets)
            if planner not in FUSION_PLANNERS:
                raise ValueError(
                    f"unknown fusion planner in buckets={self.buckets!r}; expected "
                    f"auto, {', '.join('auto:' + p for p in FUSION_PLANNERS)}")
        # A sparse method without k/density is allowed at parse time (the
        # keyword arguments of make()/make_synchronizer may still supply
        # the target); the builders fail loudly when it is truly missing.

    # ------------------------------------------------------------------
    def canonical(self) -> str:
        """The canonical spec string (non-default keys only, fixed order)."""
        params = []
        if self.k is not None:
            params.append(f"k={self.k}")
        if self.density is not None:
            params.append(f"density={self.density:g}")
        if self.teams != 1:
            params.append(f"teams={self.teams}")
        if self.sag != "auto":
            params.append(f"sag={self.sag}")
        if self.residuals != "global":
            params.append(f"residuals={self.residuals}")
        if self.schedule != "constant":
            params.append(f"schedule={self.schedule}")
        if self.buckets != "flat":
            params.append(f"buckets={self.buckets}")
        if self.bits is not None:
            params.append(f"bits={self.bits}")
        if self.momentum is not None:
            params.append(f"momentum={self.momentum:g}")
        if self.hybrid is not None:
            params.append(f"hybrid={self.hybrid}")
        if self.backend is not None:
            params.append(f"backend={self.backend}")
        if self.trace != "off":
            params.append(f"trace={self.trace}")
        name = _SPEC_NAMES[self.method]
        return f"{name}?{'&'.join(params)}" if params else name

    @property
    def is_bucketed(self) -> bool:
        return self.buckets != "flat"


def _bucket_planner(buckets: str) -> str:
    """The planner name behind a ``buckets=auto[:PLANNER]`` value."""
    if buckets == "auto":
        return "mgwfbp"
    return buckets.partition(":")[2]


def parse_spec(spec: "str | SyncSpec") -> SyncSpec:
    """Parse ``name?key=value&...`` into a :class:`SyncSpec`.

    A ready :class:`SyncSpec` passes through unchanged, so every facade
    entry point accepts both forms.
    """
    if isinstance(spec, SyncSpec):
        return spec
    text = str(spec).strip()
    if not text:
        raise ValueError("empty synchroniser spec")
    name, _, query = text.partition("?")
    options: Dict[str, Any] = {}
    if query:
        for item in query.split("&"):
            if not item:
                continue
            key, separator, value = item.partition("=")
            key = key.strip().lower()
            if not separator or not value:
                raise ValueError(f"malformed spec parameter {item!r} (expected key=value)")
            if key not in _SPEC_KEYS:
                raise ValueError(
                    f"unknown spec key {key!r}; expected one of {', '.join(_SPEC_KEYS)}")
            if key in options:
                raise ValueError(f"duplicate spec key {key!r}")
            if key == "k":
                options[key] = int(value)
            elif key in ("density", "momentum"):
                options[key] = float(value)
            elif key == "teams":
                options[key] = int(value)
            elif key == "bits":
                # Kept as written: a plain integer or a per-bucket override
                # string; SyncSpec canonicalises either form.
                options[key] = value.strip()
            else:
                options[key] = value.strip().lower()
    return SyncSpec(method=name, **options)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------
def _validate_schedule_spec(spec: SyncSpec) -> None:
    """Fail on malformed schedule specs before any construction happens."""
    if spec.method == "Dense":
        if spec.schedule != "constant":
            raise ValueError("Dense has no sparsity knob; schedule= does not apply")
        return
    parse_schedule(spec.schedule, k=spec.k, density=spec.density)


def _build_flat(spec: SyncSpec, cluster: Transport,
                num_elements: int) -> GradientSynchronizer:
    """Build one flat-vector synchroniser for ``num_elements`` gradients."""
    from .baselines.dense import DenseAllReduceSynchronizer
    from .baselines.gtopk import GTopkSynchronizer
    from .baselines.ok_topk import OkTopkSynchronizer
    from .baselines.topk_a import TopkASynchronizer
    from .baselines.topk_dsa import TopkDSASynchronizer

    method = spec.method
    if method == "gTopk" and not _is_power_of_two(cluster.num_workers):
        raise ValueError(
            f"gTopk requires a power-of-two number of workers, got P={cluster.num_workers}: "
            "its recursive-doubling exchange pairs workers rank ^ step, which only covers "
            "every rank when P is a power of two.  Run it at P in {2, 4, 8, ...} or pick "
            "another method (see available_methods)."
        )
    schedule = None if spec.schedule == "constant" else spec.schedule
    if spec.bits is not None and not isinstance(spec.bits, int):
        raise ValueError(
            f"per-bucket bits overrides ({spec.bits!r}) need a non-flat "
            "buckets mode; the patterns match bucket names")
    if method == "Dense":
        return DenseAllReduceSynchronizer(cluster, num_elements,
                                          num_bits=spec.bits,
                                          momentum=spec.momentum)
    if method == "SparDL":
        config = SparDLConfig(
            k=spec.k, density=spec.density, num_teams=spec.teams,
            sag_mode=SAGMode.coerce(spec.sag),
            residual_policy=ResidualPolicy.coerce(spec.residuals),
            schedule=schedule, num_bits=spec.bits, momentum=spec.momentum,
            **spec.extras,
        )
        return SparDLSynchronizer(cluster, num_elements, config)
    classes = {
        "Ok-Topk": OkTopkSynchronizer,
        "TopkA": TopkASynchronizer,
        "TopkDSA": TopkDSASynchronizer,
        "gTopk": GTopkSynchronizer,
    }
    return classes[method](cluster, num_elements, k=spec.k, density=spec.density,
                           schedule=schedule, num_bits=spec.bits,
                           momentum=spec.momentum)


def _bucket_layout(spec: SyncSpec, model) -> List[tuple]:
    """``(name, size)`` buckets for the requested bucketing mode."""
    if model is None:
        raise ValueError(
            f"buckets={spec.buckets} needs the model: pass model=... (anything with "
            "parameters()) so the bucket layout can be derived from its tensor shapes")
    buckets = layer_buckets(model)
    if spec.buckets == "layer" or spec.buckets.startswith("auto"):
        # auto planning starts from the per-layer layout; the fusion plan
        # itself is computed in make(), which has the transport in hand.
        return buckets
    if spec.buckets.startswith("size:"):
        max_elements = int(spec.buckets.split(":", 1)[1])
        return fuse_buckets(buckets, max_elements)
    raise ValueError(
        f"unknown buckets mode {spec.buckets!r}; expected flat, layer, size:N "
        "or auto[:mgwfbp|:asc]")


def _resolve_backend(parsed: SyncSpec,
                     cluster: Optional[Transport]) -> Transport:
    """The transport a spec runs on.

    With no ``backend=`` key the passed ``cluster`` is used as-is (and
    required).  With one, the key must agree with any passed cluster —
    kind and, when given, worker count — or, when no cluster is passed,
    carry an explicit worker count so the transport can be built here.
    """
    if parsed.backend is None:
        if cluster is None:
            raise ValueError(
                "give cluster=... or a backend=KIND:P spec key so make() "
                "can build the transport itself")
        return cluster
    kind, workers = parse_backend_spec(parsed.backend)
    if cluster is None:
        if workers is None:
            raise ValueError(
                f"backend={parsed.backend} without a cluster needs an explicit "
                f"worker count: use backend={kind}:P or pass cluster=...")
        return make_transport(parsed.backend)
    actual_kind, actual_workers = parse_backend_spec(transport_spec(cluster))
    if kind != actual_kind or (workers is not None and workers != actual_workers):
        raise ValueError(
            f"spec requests backend={parsed.backend} but the passed cluster is "
            f"{transport_spec(cluster)}; drop the backend key or pass a "
            "matching transport")
    return cluster


def make(spec: "str | SyncSpec", cluster: Optional[Transport] = None, *,
         num_elements: Optional[int] = None, model=None,
         network=None, compute_profile=None,
         **overrides) -> GradientSynchronizer:
    """Build a synchroniser from a spec string.

    ``num_elements`` gives the flat gradient length directly; ``model``
    (anything exposing ``parameters()``, e.g. a :class:`repro.nn.Module`)
    derives it — and is required for any non-flat ``buckets`` mode.
    Keyword ``overrides`` replace individual spec keys (same names as the
    grammar).

    ``buckets=auto`` specs plan the fused layout here (see
    :mod:`repro.core.fusion`): the alpha-beta model is calibrated by a
    startup micro-benchmark on the transport — priced by ``network``
    (a :class:`~repro.comm.network.NetworkProfile`, default
    :data:`~repro.comm.network.ETHERNET`) on simulated backends, measured
    wall-clock on real-process ones — and ``compute_profile`` (a
    :class:`~repro.training.timing.ComputeProfile`) supplies the
    per-bucket backward times the planner overlaps communication against.
    Both are ignored by non-``auto`` specs.  The resulting plan is kept on
    the synchroniser as ``fusion_plan``.

    ``cluster`` may be any :class:`~repro.comm.transport.Transport`; with a
    ``backend=KIND:P`` spec key it may be omitted and the transport is
    built here (the synchroniser's ``.cluster`` owns it — ``close()`` it,
    or use it as a context manager, when the backend runs real processes).
    """
    parsed = parse_spec(spec)
    if overrides:
        values = {key: getattr(parsed, key) for key in _SPEC_KEYS}
        values["extras"] = dict(parsed.extras)
        for key, value in overrides.items():
            if key in _SPEC_KEYS:
                values[key] = value
            else:
                values["extras"][key] = value
        parsed = SyncSpec(method=parsed.method, **values)
    _validate_schedule_spec(parsed)
    cluster = _resolve_backend(parsed, cluster)
    default_bits, bits_overrides = _split_bits(parsed.bits)
    dense_below = _hybrid_threshold(parsed.hybrid)
    if not parsed.is_bucketed:
        if bits_overrides:
            raise ValueError(
                f"per-bucket bits overrides ({parsed.bits!r}) need a "
                "non-flat buckets mode (layer, size:N or auto); the "
                "patterns match bucket names")
        if dense_below is not None:
            raise ValueError(
                "hybrid=dense<SIZE is a per-bucket policy; use a non-flat "
                "buckets mode (layer, size:N or auto) so there are bucket "
                "sizes to switch on")

    if parsed.is_bucketed:
        layout = _bucket_layout(parsed, model)
        names = [name for name, _ in layout]
        sizes = [size for _, size in layout]
        flat_spec = dataclasses.replace(parsed, buckets="flat", hybrid=None,
                                        bits=default_bits,
                                        extras=dict(parsed.extras))
        if flat_spec.k is not None:
            # An absolute k is a *global* budget: replicating it into every
            # bucket would multiply the selection by the bucket count, so
            # convert it to the equivalent density, which buckets pro-rata
            # (each bucket still keeps at least one entry).
            flat_spec = dataclasses.replace(
                flat_spec, k=None,
                density=min(1.0, flat_spec.k / float(sum(sizes))))
        plan = None
        if parsed.buckets.startswith("auto"):
            from .comm.network import ETHERNET
            plan = plan_buckets(
                layout,
                planner=_bucket_planner(parsed.buckets),
                method=parsed.method,
                num_workers=cluster.num_workers,
                density=flat_spec.density,
                teams=parsed.teams,
                num_bits=default_bits,
                transport=cluster,
                network=network if network is not None else ETHERNET,
                compute_profile=compute_profile,
            )
            layout = plan.bucket_layout()
            names = [name for name, _ in layout]
            sizes = [size for _, size in layout]

        def bucket_factory(bucket_cluster: Transport, bucket_elements: int,
                           bucket_name: str) -> GradientSynchronizer:
            # Hybrid policy: buckets below the dense switch run an exact
            # full-precision dense All-Reduce (momentum correction, when on,
            # carries over — dense keeps the velocity unmasked, which is
            # exactly naive momentum).  Per-bucket bits overrides match
            # case-insensitive substrings of the bucket name; fused buckets
            # join their tensor names with "+", so a pattern matches the
            # fused bucket when it matches any member tensor.
            if dense_below is not None and bucket_elements < dense_below:
                dense_spec = SyncSpec(method="Dense",
                                      momentum=flat_spec.momentum)
                return _build_flat(dense_spec, bucket_cluster, bucket_elements)
            bits = default_bits
            lowered = bucket_name.lower()
            for pattern, width in bits_overrides:
                if pattern in lowered:
                    bits = width
            bucket_spec = flat_spec
            if bits != flat_spec.bits:
                bucket_spec = dataclasses.replace(
                    flat_spec, bits=bits, extras=dict(flat_spec.extras))
            return _build_flat(bucket_spec, bucket_cluster, bucket_elements)

        synchronizer: GradientSynchronizer = BucketedSynchronizer(
            cluster, sizes,
            factory=bucket_factory,
            bucket_names=names,
            plan=plan,
        )
    else:
        if num_elements is None:
            if model is None:
                raise ValueError("give num_elements=... or model=...")
            num_elements = int(model.num_parameters())
        synchronizer = _build_flat(parsed, cluster, num_elements)
    if parsed.backend is not None or getattr(cluster, "spec_name", "sim") != "sim":
        # Record the *effective* backend (always with its worker count) so
        # describe() round-trips e.g. "spardl?density=0.01&backend=mp:4".
        parsed = dataclasses.replace(parsed, backend=transport_spec(cluster),
                                     extras=dict(parsed.extras))
    if parsed.trace != "off":
        # One tracer per built synchroniser, spanning the inner bucketed
        # sessions and the transport; trace=off constructs nothing.
        attach_tracer(synchronizer, Tracer(parsed.trace))
    synchronizer._spec = parsed.canonical()
    return synchronizer


def make_factory(spec: "str | SyncSpec",
                 **overrides) -> Callable[[Transport, Any], GradientSynchronizer]:
    """A deferred :func:`make`: ``factory(cluster, model)`` builds the
    synchroniser once the model (and hence the gradient layout) is known.

    This is the construction interface of
    :class:`~repro.training.trainer.DistributedTrainer`, which calls the
    factory with its cluster and reference replica — plus, for factories
    like this one that accept them, the trainer's ``network`` and
    ``compute_profile``, so ``buckets=auto`` specs plan their fusion
    against the very setting the run is timed with.  Keywords given here
    win over that trainer-supplied context.
    """
    parsed = parse_spec(spec)  # fail fast on malformed specs

    def factory(cluster: Transport, model, **context) -> GradientSynchronizer:
        return make(parsed, cluster, model=model, **{**context, **overrides})

    factory.spec = parsed.canonical()
    return factory


def describe(target) -> str:
    """The canonical spec string of ``target``.

    Accepts a spec string (canonicalised), a :class:`SyncSpec`, a
    facade-built synchroniser, or a :func:`make_factory` factory.
    ``parse_spec(describe(x))`` round-trips.
    """
    if isinstance(target, (str, SyncSpec)):
        return parse_spec(target).canonical()
    spec = getattr(target, "_spec", None) or getattr(target, "spec", None)
    if isinstance(spec, str):
        return parse_spec(spec).canonical()
    raise ValueError(
        f"cannot describe {type(target).__name__}: only spec strings and facade-built "
        "synchronisers / factories carry a spec")


# ---------------------------------------------------------------------------
# registry-compatible interface
# ---------------------------------------------------------------------------
def available_methods(num_workers: int, include_dense: bool = False) -> List[str]:
    """Method names runnable on a cluster of ``num_workers`` (gTopk requires a
    power-of-two worker count)."""
    methods = ["SparDL", "Ok-Topk", "TopkA", "TopkDSA"]
    if _is_power_of_two(num_workers):
        methods.append("gTopk")
    if include_dense:
        methods.append("Dense")
    return methods


def make_synchronizer(
    name: str,
    cluster: Transport,
    num_elements: int,
    *,
    k: Optional[int] = None,
    density: Optional[float] = None,
    num_teams: int = 1,
    sag_mode: SAGMode | str = SAGMode.AUTO,
    residual_policy: ResidualPolicy | str = ResidualPolicy.GLOBAL,
    sparsify_all_blocks: bool = False,
    schedule: Optional[str] = None,
    num_bits: Optional[int] = None,
    momentum: Optional[float] = None,
) -> GradientSynchronizer:
    """Build a synchroniser by (case-insensitive) method name or spec string.

    The pre-facade factory interface, kept verbatim: ``num_teams``,
    ``sag_mode``, ``residual_policy`` and ``sparsify_all_blocks`` only
    affect SparDL; the baselines use the residual policies of their
    original papers.  ``name`` may also be a full spec string
    (``"spardl?density=0.01&schedule=warmup:5"``); explicit keyword
    arguments override the spec's keys.
    """
    parsed = parse_spec(name)
    overrides: Dict[str, Any] = {}
    if k is not None:
        overrides["k"] = k
    if density is not None:
        overrides["density"] = density
    if num_teams != 1:
        overrides["teams"] = num_teams
    mode = SAGMode.coerce(sag_mode)
    if mode is not SAGMode.AUTO:
        overrides["sag"] = mode.value
    policy = ResidualPolicy.coerce(residual_policy)
    if policy is not ResidualPolicy.GLOBAL:
        overrides["residuals"] = policy.value
    if sparsify_all_blocks:
        overrides["sparsify_all_blocks"] = True
    if schedule is not None:
        overrides["schedule"] = schedule
    if num_bits is not None:
        overrides["bits"] = num_bits
    if momentum is not None:
        overrides["momentum"] = momentum
    return make(parsed, cluster, num_elements=num_elements, **overrides)
