"""One facade for building any synchroniser from a spec string.

Experiments select communication methods the way the paper's figures do —
by short names — but a configuration is more than a name: sparsity, team
count, SAG variant, residual policy, sparsity *schedule* and bucketing all
ride along.  The facade folds all of it into one URL-style spec string::

    spardl?density=0.01&schedule=warmup:5&buckets=layer
    ok-topk?k=500
    gtopk?density=0.01&schedule=warmup:5
    dense?bits=8&momentum=0.9

Grammar
-------
``name[?key=value[&key=value]...]`` where ``name`` is any method name or
alias (case-insensitive, as in the paper's figures) and the keys are:

========== ===================================================================
``k``       entries selected per worker (mutually exclusive with
            ``density``); sparse methods
``density`` selected fraction ``k/n`` (mutually exclusive with ``k``);
            sparse methods
``schedule`` sparsity schedule: ``constant`` (default), ``warmup:STEPS`` /
            ``warmup:STEPS:START_DENSITY`` (DGC-style ramp); sparse methods
``teams``   SparDL team count ``d`` (default 1)
``sag``     SparDL Spar-All-Gather mode: ``auto`` / ``rsag`` / ``bsag``
``residuals`` SparDL residual policy: ``global`` / ``partial`` / ``local`` / ``none``
``buckets`` ``flat`` (default), ``layer`` (one selection per parameter
            tensor, one exchange for all of them), or ``auto`` (plan the
            fused layout with :mod:`repro.core.fusion`'s MG-WFBP planner,
            which merges while it keeps the critical path, over the
            ``network=`` alpha-beta profile; every planned bucket is an
            exchange of its own); SparDL only.  Non-flat specs need a
            ``model``, and ``auto`` planning reads the optional
            ``network=`` / ``compute_profile=`` arguments of :func:`make`
``bits``    wire value quantization (SparDL and dense): bits per value in
            ``[1, 32]``; values are quantized QSGD-style with exact error
            feedback, sparse messages bill the ``(1 + bits/32)/2`` COO
            accounting plus one scale element, and dense payloads bill
            ``bits/32`` per value (absent = full precision, the
            pre-quantization pipeline bit for bit); one width for every
            bucket
``momentum`` DGC momentum correction (Lin et al., ICLR'18; SparDL and
            dense): a factor in ``(0, 1)`` makes the residual manager
            accumulate velocity ``u = m*u + g`` with momentum-factor
            masking at the final global indices, so delayed coordinates
            keep their momentum history.  The factor is fixed when the
            synchroniser is built; train it with
            ``TrainerConfig(momentum=0.0)`` (momentum-free optimizers) so
            velocity is not applied twice.  Absent = plain error feedback,
            bit for bit
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

Each key is one row of :data:`_SPEC_KEYS` — its default, how it is read
from a spec string, how it is validated and normalised (for spec strings
and keyword arguments alike) and how it is printed — and that table drives
:class:`SyncSpec`, :func:`parse_spec`, :meth:`SyncSpec.canonical` and the
keyword overrides of :func:`make`.  Each method reads only the keys its
row of :data:`_METHODS` names (``backend`` and ``trace`` on every method);
any other key set to a value other than its default raises, so a spec
never names a key its synchroniser ignores.

:func:`make` builds a ready synchroniser (``buckets=layer``: one
:class:`~repro.core.spardl.SparDLSynchronizer` over the layer sizes;
``buckets=auto``: a :class:`~repro.core.bucketed.BucketedSynchronizer`
of one SparDL per planned bucket),
:func:`make_factory` defers construction until the model is known (the
:class:`~repro.training.trainer.DistributedTrainer` calls the factory with
its cluster and model replica), and :func:`describe` maps any
facade-built synchroniser back to its canonical spec string —
``parse_spec(describe(x))`` round-trips.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from .baselines.dense import DenseAllReduceSynchronizer
from .baselines.gtopk import GTopkSynchronizer
from .baselines.ok_topk import OkTopkSynchronizer
from .baselines.topk_a import TopkASynchronizer
from .baselines.topk_dsa import TopkDSASynchronizer
from .comm.transport import Transport, make_transport, parse_backend_spec, transport_spec
from .core.base import GradientSynchronizer
from .core.bucketed import BucketedSynchronizer, layer_buckets
from .core.config import SAGMode, SparDLConfig, is_power_of_two
from .core.fusion import plan_buckets
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
    "describe",
    "available_methods",
]

# ---------------------------------------------------------------------------
# the spec keys
# ---------------------------------------------------------------------------
def _text(value: Any) -> str:
    return str(value).strip().lower()


def _show_float(value: float) -> str:
    """The shortest ``%g`` form that reads back as the same float (plain
    ``:g`` keeps six significant digits)."""
    return next((text for text in (f"{value:.{digits}g}" for digits in range(6, 18))
                 if float(text) == value), str(value))


def _momentum(value: Any) -> float:
    momentum = float(value)
    if not 0.0 < momentum < 1.0:
        raise ValueError("momentum must be in (0, 1)")
    return momentum


def _removed(spelling: str, instead: str) -> ValueError:
    """The error a removed spelling raises (see "Migration" in docs/api.md)."""
    return ValueError(
        f"{spelling} was removed (see the migration table in docs/api.md); {instead}")


def _schedule(value: Any) -> str:
    text = _text(value)
    if text.partition(":")[0] == "adaptive":
        raise _removed(f"schedule={text}", "use constant or warmup:STEPS[:START]")
    return text


def _buckets(value: Any) -> str:
    text = _text(value)
    kind, _, argument = text.partition(":")
    if text in ("flat", "layer", "auto"):
        return text
    if kind == "auto":
        raise _removed(f"buckets={text}", "buckets=auto is the MG-WFBP planner")
    if kind == "size" and argument.isdigit() and int(argument) > 0:
        raise _removed(f"buckets={text}",
                       "buckets=layer selects per tensor and exchanges once")
    raise ValueError(
        f"unknown buckets mode {value!r}; expected flat, layer or auto")


def _validate_bits_value(value: "str | int") -> int:
    if isinstance(value, str) and ("," in value or ":" in value):
        raise _removed(f"bits={value.strip()}", "bits= is one width for every bucket")
    message = f"bits must be an integer between 1 and 32, got {value!r}"
    if not isinstance(value, (int, str)):
        raise ValueError(message)
    try:
        bits = int(value)
    except ValueError:
        raise ValueError(message) from None
    if not 1 <= bits <= 32:
        raise ValueError(message)
    return bits


def _backend(value: Any) -> str:
    kind, workers = parse_backend_spec(value)
    return kind if workers is None else f"{kind}:{workers}"


class _Key(NamedTuple):
    """One spec key: its default, how a spec string's value is read, how a
    value is validated and normalised, and how it is printed."""

    default: Any
    parse: Callable[[str], Any]
    normalise: Callable[[Any], Any]
    show: Callable[[Any], str] = str


#: Every spec key, in canonical serialisation order.
_SPEC_KEYS: Dict[str, _Key] = {
    "k": _Key(None, int, int),
    "density": _Key(None, float, float, _show_float),
    "teams": _Key(1, int, int),
    "sag": _Key("auto", _text, lambda value: SAGMode.coerce(value).value),
    "residuals": _Key("global", _text, lambda value: ResidualPolicy.coerce(value).value),
    "schedule": _Key("constant", _text, _schedule),
    "buckets": _Key("flat", _text, _buckets),
    "bits": _Key(None, str.strip, _validate_bits_value),
    "momentum": _Key(None, float, _momentum, _show_float),
    "backend": _Key(None, _text, _backend),
    "trace": _Key("off", _text, lambda value: TraceLevel.coerce(value).name.lower()),
}


class _Method(NamedTuple):
    """One method: the spellings a spec may use for it (case-insensitive;
    the first is the one :meth:`SyncSpec.canonical` prints), the class that
    runs it and the spec keys it reads."""

    spellings: Tuple[str, ...]
    cls: type
    keys: Tuple[str, ...]


#: The keys the sparse baselines read: the paper's competitors as published.
_SPARSE_KEYS = ("k", "density", "schedule", "backend", "trace")

#: Every method by its canonical name (as in the paper's figures).
_METHODS: Dict[str, _Method] = {
    "SparDL": _Method(("spardl",), SparDLSynchronizer, tuple(_SPEC_KEYS)),
    "Ok-Topk": _Method(("ok-topk", "oktopk", "ok_topk"), OkTopkSynchronizer, _SPARSE_KEYS),
    "TopkA": _Method(("topka", "topk-a", "topk_a"), TopkASynchronizer, _SPARSE_KEYS),
    "TopkDSA": _Method(("topkdsa", "topk-dsa", "topk_dsa"), TopkDSASynchronizer,
                       _SPARSE_KEYS),
    "gTopk": _Method(("gtopk", "gtop-k"), GTopkSynchronizer, _SPARSE_KEYS),
    "Dense": _Method(("dense", "allreduce"), DenseAllReduceSynchronizer,
                     ("bits", "momentum", "backend", "trace")),
}

#: Canonical method names (as used in the paper's figures).
SYNCHRONIZER_NAMES = tuple(_METHODS)

_SPELLINGS = {spelling: name for name, method in _METHODS.items()
              for spelling in method.spellings}


def _unknown_key(key: str) -> ValueError:
    if key == "hybrid":
        return _removed("hybrid=dense<SIZE",
                        "drop the key: every bucket of a bucketed spec runs SparDL")
    return ValueError(
        f"unknown spec key {key!r}; expected one of {', '.join(_SPEC_KEYS)}")


class SyncSpec:
    """Parsed form of one spec string: a method and one attribute per spec
    key (see the module grammar), each normalised by its row of
    :data:`_SPEC_KEYS`.  Keys left out take their defaults."""

    def __init__(self, method: str, **keys: Any) -> None:
        self.method = method if method in _METHODS else _SPELLINGS.get(_text(method))
        if self.method is None:
            raise ValueError(
                f"unknown synchroniser {method!r}; expected one of "
                f"{', '.join(SYNCHRONIZER_NAMES)}")
        for key in keys:
            if key not in _SPEC_KEYS:
                raise _unknown_key(key)
        reads = _METHODS[self.method].keys
        for key, entry in _SPEC_KEYS.items():
            value = keys.get(key, entry.default)
            value = None if value is None else entry.normalise(value)
            if value != entry.default and key not in reads:
                raise _removed(f"{key}={entry.show(value)} on {self.method}",
                               f"{self.method} reads only {', '.join(reads)}: drop the key")
            setattr(self, key, value)
        if self.k is not None and self.density is not None:
            raise ValueError("give only one of k and density")
        # A sparse method without k/density is allowed here (keyword
        # overrides of make() may still supply the target); make() fails
        # loudly when it is truly missing.

    def replace(self, **keys: Any) -> "SyncSpec":
        """A copy with the given keys replaced (same names as the grammar)."""
        return SyncSpec(**{**vars(self), **keys})

    def canonical(self) -> str:
        """The canonical spec string (non-default keys only, fixed order)."""
        params = "&".join(f"{key}={entry.show(value)}" for key, entry in _SPEC_KEYS.items()
                          if (value := getattr(self, key)) != entry.default)
        name = _METHODS[self.method].spellings[0]
        return f"{name}?{params}" if params else name

    @property
    def is_bucketed(self) -> bool:
        return self.buckets != "flat"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SyncSpec) and vars(self) == vars(other)

    def __repr__(self) -> str:
        return f"SyncSpec({self.canonical()!r})"


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
    keys: Dict[str, Any] = {}
    for item in filter(None, query.split("&")):
        key, separator, value = item.partition("=")
        key = key.strip().lower()
        if not separator or not value:
            raise ValueError(f"malformed spec parameter {item!r} (expected key=value)")
        if key not in _SPEC_KEYS:
            raise _unknown_key(key)
        if key in keys:
            raise ValueError(f"duplicate spec key {key!r}")
        keys[key] = _SPEC_KEYS[key].parse(value)
    return SyncSpec(name, **keys)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------
def _validate_schedule_spec(spec: SyncSpec) -> None:
    """Fail on malformed schedule specs before any construction happens."""
    if "schedule" in _METHODS[spec.method].keys:
        parse_schedule(spec.schedule, k=spec.k, density=spec.density)


def _spardl_config(spec: SyncSpec, **fields: Any) -> SparDLConfig:
    """The :class:`SparDLConfig` of a SparDL spec, ``fields`` replaced."""
    return SparDLConfig(**{
        "k": spec.k, "density": spec.density, "num_teams": spec.teams,
        "sag_mode": spec.sag, "residual_policy": spec.residuals,
        "schedule": None if spec.schedule == "constant" else spec.schedule,
        "num_bits": spec.bits, "momentum": spec.momentum, **fields})


def _build_flat(spec: SyncSpec, cluster: Transport,
                num_elements: int) -> GradientSynchronizer:
    """Build one flat-vector synchroniser for ``num_elements`` gradients."""
    cls = _METHODS[spec.method].cls
    if spec.method == "Dense":
        return cls(cluster, num_elements, num_bits=spec.bits, momentum=spec.momentum)
    if spec.method == "SparDL":
        return cls(cluster, num_elements, _spardl_config(spec))
    return cls(cluster, num_elements, k=spec.k, density=spec.density,
               schedule=None if spec.schedule == "constant" else spec.schedule)


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
    if cluster is None:
        return make_transport(parsed.backend)  # raises without a worker count
    actual = transport_spec(cluster)
    if parsed.backend not in (actual, actual.partition(":")[0]):
        raise ValueError(
            f"spec requests backend={parsed.backend} but the passed cluster is "
            f"{actual}; drop the backend key or pass a matching transport")
    return cluster


def _build_bucketed(parsed: SyncSpec, cluster: Transport, model, network,
                    compute_profile) -> GradientSynchronizer:
    """Build the synchroniser of a non-flat ``buckets`` spec: one
    :class:`SparDLSynchronizer` over the layer sizes for ``buckets=layer``,
    a :class:`BucketedSynchronizer` of one SparDL per planned bucket for
    ``buckets=auto``."""
    if model is None:
        raise ValueError(
            f"buckets={parsed.buckets} needs the model: pass model=... (anything with "
            "parameters()) so the bucket layout can be derived from its tensor shapes")
    layout = layer_buckets(model)
    density = parsed.density
    if parsed.k is not None:
        # An absolute k is a *global* budget: replicating it into every
        # bucket would multiply the selection by the bucket count, so
        # convert it to the equivalent density, which buckets pro-rata
        # (each bucket still keeps at least one entry).
        density = min(1.0, parsed.k / float(sum(size for _, size in layout)))
    config = _spardl_config(parsed, k=None, density=density)
    if parsed.buckets == "layer":
        return SparDLSynchronizer(cluster, [size for _, size in layout], config)
    from .comm.network import ETHERNET
    plan = plan_buckets(
        layout,
        num_workers=cluster.num_workers,
        density=density,
        teams=parsed.teams,
        num_bits=parsed.bits,
        network=network or ETHERNET,
        compute_profile=compute_profile,
    )
    layout = plan.bucket_layout()
    return BucketedSynchronizer(cluster, [size for _, size in layout], config,
                                bucket_names=[name for name, _ in layout], plan=plan)


def make(spec: "str | SyncSpec", cluster: Optional[Transport] = None, *,
         num_elements: Optional[int] = None, model=None,
         network=None, compute_profile=None,
         **keys) -> GradientSynchronizer:
    """Build a synchroniser from a spec string.

    ``num_elements`` gives the flat gradient length directly; ``model``
    (anything exposing ``parameters()``, e.g. a :class:`repro.nn.Module`)
    derives it — and is required for any non-flat ``buckets`` mode.
    Keyword ``keys`` replace individual spec keys (same names as the
    grammar: ``make("spardl", cluster, num_elements=n, density=0.01,
    teams=4)``); any other keyword raises.

    ``buckets=auto`` specs plan the fused layout here (see
    :mod:`repro.core.fusion`): every bucket is priced on ``network``
    (a :class:`~repro.comm.network.NetworkProfile`, default
    :data:`~repro.comm.network.ETHERNET`; a
    :class:`~repro.comm.network.HeterogeneousNetwork` plans on its slowest
    profile) without sending a message, so
    every backend plans the same layout — and ``compute_profile`` (a
    :class:`~repro.training.timing.ComputeProfile`) supplies the
    per-bucket backward times the planner overlaps communication against.
    Both are ignored by non-``auto`` specs.  The resulting plan is kept on
    the synchroniser as ``fusion_plan``.

    ``cluster`` may be any :class:`~repro.comm.transport.Transport`; with a
    ``backend=KIND:P`` spec key it may be omitted and the transport is
    built here (the synchroniser's ``.cluster`` owns it — ``close()`` it,
    or use it as a context manager, when the backend runs real processes).
    """
    parsed = parse_spec(spec).replace(**keys)
    _validate_schedule_spec(parsed)
    cluster = _resolve_backend(parsed, cluster)
    if parsed.is_bucketed:
        synchronizer: GradientSynchronizer = _build_bucketed(
            parsed, cluster, model, network, compute_profile)
    else:
        if num_elements is None:
            if model is None:
                raise ValueError("give num_elements=... or model=...")
            num_elements = int(model.num_parameters())
        synchronizer = _build_flat(parsed, cluster, num_elements)
    if parsed.backend is not None or getattr(cluster, "spec_name", "sim") != "sim":
        # Record the *effective* backend (always with its worker count) so
        # describe() round-trips e.g. "spardl?density=0.01&backend=mp:4".
        parsed = parsed.replace(backend=transport_spec(cluster))
    if parsed.trace != "off":
        # One tracer per built synchroniser, spanning the inner bucketed
        # sessions and the transport; trace=off constructs nothing.
        attach_tracer(synchronizer, Tracer(parsed.trace))
    synchronizer._spec = parsed.canonical()
    return synchronizer


#: Keywords of :func:`make` a factory forwards besides spec keys.
_CONTEXT = ("network", "compute_profile")


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
    (spec keys, ``network``, ``compute_profile``) win over that
    trainer-supplied context; the spec and its keys are checked here, not
    when the trainer builds.
    """
    context = {key: overrides.pop(key) for key in _CONTEXT if key in overrides}
    parsed = parse_spec(spec).replace(**overrides)

    def factory(cluster: Transport, model, **trainer_context) -> GradientSynchronizer:
        return make(parsed, cluster, model=model, **{**trainer_context, **context})

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


def available_methods(num_workers: int, include_dense: bool = False) -> List[str]:
    """Method names runnable on a cluster of ``num_workers`` (gTopk requires a
    power-of-two worker count)."""
    methods = ["SparDL", "Ok-Topk", "TopkA", "TopkDSA"]
    if is_power_of_two(num_workers):
        methods.append("gTopk")
    if include_dense:
        methods.append("Dense")
    return methods
