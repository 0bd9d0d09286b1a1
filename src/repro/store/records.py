"""Typed result-record schema and codec of the content-addressed store.

Every sweep in this repository — ``table1``, ``mixed``, ``energy``,
``e2e``, ``campaign`` and the adaptive, rare-event and scenario
estimators — decomposes into independent cells described by frozen
dataclasses of primitives.  This module is the single place where those
descriptions and their results cross the JSON boundary:

* :func:`encode` and :func:`decode` are the one codec of every stored
  cell and result, driven by the dataclass fields and their
  annotations: a field is a key of the same name, a nested dataclass a
  nested dict, a tuple a list; the :data:`FLAT_TYPES` are written flat
  into the enclosing dict, a controller policy by
  :func:`policy_config`, and :data:`FIELD_EXCEPTIONS` lists the fields
  that break these rules;
* a **config dict** is the canonical JSON form of one cell (the
  content-address basis): its :func:`encode`, plus one fixed key for
  the phase and Monte Carlo kinds (:func:`phase_task_config`,
  :func:`campaign_cell_config`);
* :func:`derive_key` hashes ``(kind, schema version, config)`` into the
  store's content address, so two cells share an entry exactly when
  their full configuration is identical;
* :data:`RECORDS` maps each task type to its :class:`Record` — kind,
  config and result type — which is all
  :meth:`~repro.store.store.ResultStore.load` and
  :meth:`~repro.store.store.ResultStore.save` need.

Round-trips are **bit-identical**: every payload value is an int, a
str, or a float serialized through :func:`json.dumps` (whose
``repr``-based float formatting is exact — ``float(repr(x)) == x`` for
every finite ``x``), so a loaded record compares ``==`` to the object
that was stored, exact float equality included.  The batteries in
``tests/store/test_records.py`` pin that for every record kind, and
``tests/store/test_record_keys.py`` pins the saved bytes of each.

Versioning: bump :data:`SCHEMA_VERSION` whenever a payload layout or a
config-dict field changes (renaming a stored field renames its key) —
the version participates in the content address, so stale entries from
older code *miss* instead of resurfacing.  The Monte Carlo kinds
additionally fold in :data:`repro.system.campaign.CACHE_VERSION`, the
pre-store cache's evaluation version, preserving its
bump-on-semantics-change contract.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
from functools import lru_cache, partial
from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
    Type,
    TypeVar,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from repro.channel.codeword import CodewordConfig
from repro.channel.gilbert_elliott import GilbertElliottParams
from repro.dram.controller import ControllerConfig
from repro.dram.policy import POLICY_FRFCFS_CAP, POLICY_OPEN_PAGE
from repro.interleaver.two_stage import TwoStageConfig
from repro.system.campaign import CACHE_VERSION

if TYPE_CHECKING:
    from repro.system.adaptive import AdaptiveCell, RareEventCell, ScenarioCell
    from repro.system.campaign import CampaignCell
    from repro.system.parallel import PhaseTask

#: JSON-friendly dictionary (config and payload shape).
JSONDict = Dict[str, Any]

_T = TypeVar("_T")

#: Bump when any record layout or config-dict field changes: the
#: version participates in every content address, so entries written by
#: older code miss instead of being misread.
SCHEMA_VERSION = 2

#: Record kinds known to the store (one namespace per result type).
KIND_PHASE = "phase"
KIND_MIXED = "mixed"
KIND_E2E = "e2e"
KIND_CAMPAIGN = "campaign"
KIND_ADAPTIVE = "adaptive"
KIND_RARE_EVENT = "rare-event"
KIND_SCENARIO = "scenario"
KIND_JOB = "job"

if TYPE_CHECKING:
    #: The cells of the four Monte Carlo estimators; see
    #: :func:`campaign_cell_config`.
    MonteCarloCell = Union[CampaignCell, AdaptiveCell, RareEventCell,
                           ScenarioCell]


def canonical_json(value: Any) -> str:
    """Serialize ``value`` to the canonical JSON the content address hashes.

    Sorted keys and tight separators make the encoding unique for a
    given structure; ``allow_nan=False`` fails loud instead of emitting
    the non-RFC ``NaN``/``Infinity`` tokens.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def derive_key(kind: str, config: JSONDict) -> str:
    """Content address of a record: hash of (kind, schema, config).

    Args:
        kind: record namespace (:data:`KIND_PHASE` … :data:`KIND_JOB`).
        config: canonical cell description (JSON-friendly primitives).

    Returns:
        A 32-hex-digit sha256 prefix — the same truncation the
        campaign cache used, with a collision guard at load time
        (stored configs are compared to the requested one).
    """
    payload = {"kind": kind, "schema": SCHEMA_VERSION, "config": config}
    digest = hashlib.sha256(canonical_json(payload).encode("ascii"))
    return digest.hexdigest()[:32]


def policy_config(policy: Optional[ControllerConfig]) -> Optional[JSONDict]:
    """Canonical description of a controller policy (``None`` passes through).

    The scheduling discipline folds in **omit-when-default** style: the
    ``discipline`` key appears only for a non-default discipline, and
    the ``cap`` key only under :data:`~repro.dram.policy
    .POLICY_FRFCFS_CAP` (the one discipline that reads it).  Open-page
    policies therefore serialize to the exact pre-policy-zoo dict, so
    every content address derived before the discipline field existed
    stays byte-identical and existing caches stay warm — pinned by
    ``tests/store/test_policy_store_keys.py``.
    """
    if policy is None:
        return None
    config: JSONDict = {
        "queue_depth": policy.queue_depth,
        "per_bank_depth": policy.per_bank_depth,
        "refresh_enabled": policy.refresh_enabled,
        "record_commands": policy.record_commands,
    }
    if policy.discipline != POLICY_OPEN_PAGE:
        config["discipline"] = policy.discipline
        if policy.discipline == POLICY_FRFCFS_CAP:
            config["cap"] = policy.cap
    return config


def policy_from_config(data: Optional[JSONDict]) -> Optional[ControllerConfig]:
    """Inverse of :func:`policy_config`."""
    if data is None:
        return None
    return ControllerConfig(
        queue_depth=int(data["queue_depth"]),
        per_bank_depth=int(data["per_bank_depth"]),
        refresh_enabled=bool(data["refresh_enabled"]),
        record_commands=bool(data["record_commands"]),
        discipline=str(data.get("discipline", POLICY_OPEN_PAGE)),
        cap=int(data.get("cap", 4)),
    )


# ---------------------------------------------------------------------------
# the codec — one JSON form for every stored dataclass
# ---------------------------------------------------------------------------

#: Dataclasses whose fields are written flat into the enclosing dict:
#: the channel/interleaver/code layout every cell kind shares.
FLAT_TYPES = (GilbertElliottParams, TwoStageConfig, CodewordConfig)

#: The fields that break the format rules, by ``(class, field)`` with
#: the class as its dotted name: the key prefix of a flattened field, or
#: ``None`` for a field the store does not keep.
FIELD_EXCEPTIONS: Dict[Tuple[str, str], Optional[str]] = {
    # the proposal chain's keys must not collide with the channel's
    ("repro.system.adaptive.RareEventCell", "proposal"): "q_",
    # an execution annotation, excluded from equality
    ("repro.dram.stats.PhaseStats", "kernel_fallback"): None,
    # recorded commands are a debugging artifact; see record_for
    ("repro.dram.mixed.MixedResult", "commands"): None,
    # a shared-memory handle, excluded from equality
    ("repro.system.parallel.PhaseTask", "chunks"): None,
}

#: Value converter pair: to JSON and back.
_Converters = Tuple[Callable[[Any], Any], Callable[[Any], Any]]

#: One stored field: name, JSON key, getter, whether it is flattened and
#: its converters.  A flattened field's key is the prefix of its own
#: keys, and its second converter is its dataclass.
_Field = Tuple[str, str, Callable[[Any], Any], bool, Callable[[Any], Any],
               Any]

_PRIMITIVES = (int, float, str, bool)


def _dotted(cls: Type[Any]) -> str:
    """The dotted name of a class: its module and qualified name."""
    return f"{cls.__module__}.{cls.__qualname__}"


def _as_is(value: Any) -> Any:
    """A primitive's JSON form: the value itself."""
    return value


def _converters(hint: Any) -> _Converters:
    """The converter pair of one resolved annotation.

    Raises:
        TypeError: for an annotation the JSON form cannot represent.
    """
    if hint in _PRIMITIVES:
        return _as_is, hint
    if hint is ControllerConfig:
        return policy_config, policy_from_config
    if dataclasses.is_dataclass(hint):
        return encode, partial(decode, hint)
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union and len(args) == 2 and args[1] is type(None):
        to_json, from_json = _converters(args[0])
        return (lambda value: None if value is None else to_json(value),
                lambda value: None if value is None else from_json(value))
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        to_json, from_json = _converters(args[0])
        return (lambda items: [to_json(item) for item in items],
                lambda items: tuple(map(from_json, items)))
    if origin is dict and all(arg in _PRIMITIVES for arg in args):
        key_type, value_type = args
        return dict, lambda data: {key_type(key): value_type(value)
                                   for key, value in data.items()}
    raise TypeError(f"the store codec cannot represent {hint!r}")


@lru_cache(maxsize=None)
def _plan(cls: Type[Any], prefix: str) -> Tuple[_Field, ...]:
    """How ``cls`` crosses the JSON boundary, keys prefixed: built once.

    Raises:
        TypeError: naming the first field the codec cannot represent.
    """
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"the store codec cannot represent {cls!r}")
    hints = get_type_hints(cls)
    name = _dotted(cls)
    plan: List[_Field] = []
    for field in dataclasses.fields(cls):
        rule = FIELD_EXCEPTIONS.get((name, field.name), "")
        if rule is None:
            continue
        hint = hints[field.name]
        get = attrgetter(field.name)
        if hint in FLAT_TYPES:
            plan.append((field.name, prefix + rule, get, True, _as_is, hint))
            continue
        try:
            to_json, from_json = _converters(hint)
        except TypeError as error:
            raise TypeError(f"{cls.__name__}.{field.name}: {error}") from None
        plan.append((field.name, prefix + field.name, get, False, to_json,
                     from_json))
    return tuple(plan)


def encode(obj: Any) -> JSONDict:
    """The JSON form of a stored cell or result (see the module rules)."""
    data: JSONDict = {}
    _encode_into(data, obj, "")
    return data


def _encode_into(data: JSONDict, obj: Any, prefix: str) -> None:
    """Write ``obj``'s fields into ``data``, keys prefixed by ``prefix``."""
    for _, key, get, flat, to_json, _ in _plan(type(obj), prefix):
        if flat:
            _encode_into(data, get(obj), key)
        else:
            data[key] = to_json(get(obj))


def decode(cls: Type[_T], data: JSONDict) -> _T:
    """Inverse of :func:`encode`: rebuild a ``cls`` from its JSON form."""
    return _decode_from(data, cls, "")


def _decode_from(data: JSONDict, cls: Type[_T], prefix: str) -> _T:
    """Rebuild a ``cls`` whose keys in ``data`` carry ``prefix``."""
    return cls(**{
        name: (_decode_from(data, from_json, key) if flat
               else from_json(data[key]))
        for name, key, _, flat, _, from_json in _plan(cls, prefix)})


# ---------------------------------------------------------------------------
# config dicts and the task table — how each task type crosses the store
# ---------------------------------------------------------------------------


def phase_task_config(task: PhaseTask) -> JSONDict:
    """Canonical description of one phase simulation cell.

    The shared currency of cross-sweep reuse: ``table1`` persists its
    phases under this config, and any later sweep needing the same
    (config, mapping, op, n, policy) phase — the energy table's
    write/read halves, an ablation variant — hits the same entry.  The
    retired ``PhaseTask.use_arrays`` field stays at the only value any
    production sweep stored, so every phase key stays byte-identical.
    """
    return dict(encode(task), use_arrays=None)


def campaign_cell_config(cell: MonteCarloCell) -> JSONDict:
    """Canonical description of one Monte Carlo cell of any estimator.

    The cell's :func:`encode` plus
    :data:`repro.system.campaign.CACHE_VERSION`, the campaign
    evaluation's version, so bumping either version retires stale
    entries.  The naive, adaptive, rare-event and scenario kinds all
    use it: their results embed or mirror a
    :class:`~repro.system.campaign.CellResult`, so a bump of the
    campaign evaluation semantics must retire them too.
    """
    return dict(encode(cell), cache_version=CACHE_VERSION)


class Record(NamedTuple):
    """How the results of one task type are stored.

    Attributes:
        kind: the record namespace (:data:`KIND_PHASE` …
            :data:`KIND_SCENARIO`): the entry's file-name prefix and a
            key input.
        config: task -> canonical description, the content-address
            basis.
        result: the result type, which :func:`decode` rebuilds from a
            payload.
    """

    kind: str
    config: Callable[[Any], JSONDict]
    result: Type[Any]


class _RecordTable(Mapping[Type[Any], Record]):
    """Task type -> its :class:`Record`, resolved one kind at a time.

    The table names each task type and result type by its dotted name
    and imports a result type's module only when a task of its kind is
    first looked up.  A task's own module is loaded already, so a
    ``table1``, ``e2e`` or ``campaign`` run never imports the adaptive
    estimators.  Iterating resolves every kind.
    """

    def __init__(self, names: Dict[str, Tuple[str, Callable[[Any], JSONDict],
                                              str]]) -> None:
        self._names = names
        self._resolved: Dict[Type[Any], Record] = {}

    def __getitem__(self, task_type: Type[Any]) -> Record:
        record = self._resolved.get(task_type)
        if record is None:
            kind, config, result = self._names[_dotted(task_type)]
            record = self._resolved[task_type] = Record(kind, config,
                                                        _resolve(result))
        return record

    def __iter__(self) -> Iterator[Type[Any]]:
        return (_resolve(name) for name in self._names)

    def __len__(self) -> int:
        return len(self._names)


def _resolve(dotted: str) -> Any:
    """The object a dotted name names, importing its module."""
    module, _, name = dotted.rpartition(".")
    return getattr(importlib.import_module(module), name)


#: Task type -> its :class:`Record`: the one place the store learns
#: what a task is.
RECORDS: Mapping[Type[Any], Record] = _RecordTable({
    "repro.system.parallel.PhaseTask": (
        KIND_PHASE, phase_task_config, "repro.dram.stats.PhaseStats"),
    "repro.system.parallel.MixedTask": (
        KIND_MIXED, encode, "repro.dram.mixed.MixedResult"),
    "repro.system.e2e.E2ECell": (
        KIND_E2E, encode, "repro.system.e2e.E2EResult"),
    "repro.system.campaign.CampaignCell": (
        KIND_CAMPAIGN, campaign_cell_config,
        "repro.system.campaign.CellResult"),
    "repro.system.adaptive.AdaptiveCell": (
        KIND_ADAPTIVE, campaign_cell_config,
        "repro.system.adaptive.AdaptiveResult"),
    "repro.system.adaptive.RareEventCell": (
        KIND_RARE_EVENT, campaign_cell_config,
        "repro.system.adaptive.RareEventResult"),
    "repro.system.adaptive.ScenarioCell": (
        KIND_SCENARIO, campaign_cell_config,
        "repro.system.adaptive.ScenarioResult"),
})


def record_for(task: Any) -> Optional[Record]:
    """The :class:`Record` of ``task``, or ``None`` if it bypasses the store.

    Mixed cells whose policy records per-command traces bypass it: the
    command list is a debugging artifact the JSON form deliberately
    omits, and serving a recorded run from the store would silently
    drop it.

    Raises:
        KeyError: for a task type :data:`RECORDS` does not list.
    """
    record = RECORDS[type(task)]
    if (record.kind == KIND_MIXED and task.policy is not None
            and task.policy.record_commands):
        return None
    return record
