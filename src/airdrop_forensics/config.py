"""The pipeline config: one tree of frozen dataclasses.

Field defaults are the config's defaults and field annotations its schema:
`from_json` checks parsed JSON against the annotations (JSON types, unknown
keys, enum values, nested sections), and each section's `__post_init__`
checks its range rules. `to_json` gives what config.resolved.json holds.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing
from dataclasses import dataclass, field
from enum import Enum

from . import artifacts, clustering, eligibility, flows, forensics, ingest
from .forensics import PatternKind
from .synth import PatternSpec


class ConfigInvalidError(artifacts.UserError, ValueError):
    code = "config_invalid"


def _ensure(ok: bool, where: str, what: str, value) -> None:
    if not ok:
        raise ConfigInvalidError(f"{where} must be {what}, got {value!r}")


@dataclass(frozen=True)
class Inputs:
    token_transfers: str | None = None
    external_txs: str | None = None
    contracts: str | None = None
    claims: str | None = None
    balances: str | None = None


@dataclass(frozen=True)
class Window:
    start: str | None = ingest.DEFAULT_WINDOW_START  # ISO dates, inclusive; null: no window
    end: str | None = ingest.DEFAULT_WINDOW_END

    def __post_init__(self):
        ingest.IngestConfig(self.start, self.end).window_bounds()


def _positive_weights(weights) -> None:
    for op, w in dataclasses.asdict(weights).items():
        _ensure(0 < w < math.inf, op, "a finite number > 0", w)


# One weight per operation kind, with the fields in flows.OPERATION_ORDER, so
# dataclasses.astuple gives the weights of the feature slots.
Weights = dataclasses.make_dataclass(
    "Weights", [(op.value, float, 1.0) for op in flows.OPERATION_ORDER],
    namespace={"__module__": __name__, "__post_init__": _positive_weights}, frozen=True,
)


class Preset(str, Enum):
    """An eligibility preset, named after its EligibilityRules constructor."""

    THRESHOLD_DIFFERENTIAL = "threshold_differential"
    DIFFERENTIAL = "differential"
    FAIR = "fair"


# The default of an eligibility field: the preset's value
_PRESET: typing.Any = object()


@dataclass(frozen=True)
class Eligibility:
    """The preset's rules with every field the config sets replaced.

    The number fields are written back, so config.resolved.json shows what
    ran; `min_native_balance` and `tier_table` appear there only when set.
    """

    preset: Preset = Preset.THRESHOLD_DIFFERENTIAL
    min_tx_count: int = _PRESET
    min_native_balance: dict[str, float] = _PRESET
    min_interactions: int = _PRESET
    interaction_window_days: int = _PRESET
    max_clique: int | None = _PRESET
    tier_table: tuple[tuple[int, ingest.Tier], ...] = _PRESET
    rules: eligibility.EligibilityRules = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        floors = {} if self.min_native_balance is _PRESET else self.min_native_balance
        _ensure(all(0 <= v < math.inf for v in floors.values()), "min_native_balance",
                "an object of chain names to finite numbers >= 0", floors)
        _ensure(self.tier_table != (), "tier_table",
                "a non-empty list of [min interactions, tier] pairs", [])
        preset = getattr(eligibility.EligibilityRules, self.preset.value)()
        rules = dataclasses.replace(preset, **{
            f.name: getattr(self, f.name) for f in dataclasses.fields(preset)
            if getattr(self, f.name) is not _PRESET
        })
        object.__setattr__(self, "rules", rules)
        for name in ("min_tx_count", "min_interactions", "interaction_window_days", "max_clique"):
            object.__setattr__(self, name, getattr(rules, name))


@dataclass(frozen=True)
class Synth:
    seed: int = 7
    population_total: int = 400
    tier_mix: tuple[float, float, float] = (0.3, 0.5, 0.2)
    noise_rate: float = 0.05
    patterns: tuple[PatternSpec, ...] = (
        PatternSpec(PatternKind.CHAIN, 2, 4),
        PatternSpec(PatternKind.SUNFLOWER, 2, 8),
        PatternSpec(PatternKind.SUNFLOWER_RELAY, 1, 8),
        PatternSpec(PatternKind.STAGING_AGGREGATION, 1, 8),
        PatternSpec(PatternKind.SPONSORSHIP_CLIQUE, 1, 17),
        PatternSpec(PatternKind.CAUTIOUS_CLIQUE, 1, 19),
        PatternSpec(PatternKind.BLATANT_CLIQUE, 2, 5),
    )

    def __post_init__(self):
        _ensure(self.population_total >= 0, "population_total", "a whole number >= 0",
                self.population_total)
        _ensure(all(0 <= v < math.inf for v in self.tier_mix), "tier_mix",
                "three finite numbers >= 0", self.tier_mix)
        _ensure(0 <= self.noise_rate < math.inf, "noise_rate", "a finite number >= 0",
                self.noise_rate)
        for p in self.patterns:
            _ensure(p.count >= 0 and p.size >= 0, "patterns", "count and size >= 0", p)


@dataclass(frozen=True)
class Config:
    inputs: Inputs = Inputs()
    window: Window = Window()
    allow_self_transfers: bool = False
    slice_interval_days: int = 7
    weights: Weights = Weights()
    clustering: clustering.ClusterConfig = clustering.ClusterConfig()
    detectors: forensics.DetectorConfig = forensics.DetectorConfig()
    eligibility: Eligibility = Eligibility()
    synth: Synth = Synth()
    output_dir: str = "out"

    def __post_init__(self):
        _ensure(self.slice_interval_days > 0, "slice_interval_days",
                "a positive whole number of days", self.slice_interval_days)

    def ingest_config(self) -> ingest.IngestConfig:
        return ingest.IngestConfig(self.window.start, self.window.end, self.allow_self_transfers)


def load_config(path: str | None) -> Config:
    if path is None:
        return Config()
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8 or not JSON
        raise ConfigInvalidError(f"cannot read config {path} as JSON: {exc}") from exc
    return from_json(Config, data, "config")


# For each scalar annotation: the JSON values it accepts, and their name
_SCALARS = {bool: ((bool,), "true or false"), int: ((int,), "a whole number"),
            float: ((int, float), "a number"), str: ((str,), "a string")}
_type_hints = functools.cache(typing.get_type_hints)  # read-only, one entry per section class


def from_json(tp, value, where: str):
    """`value`, as parsed from JSON, as an instance of the annotation `tp`."""
    if dataclasses.is_dataclass(tp):
        _ensure(isinstance(value, dict), where, "a JSON object", value)
        fields = {f.name: f for f in dataclasses.fields(tp) if f.init}
        unknown = set(value) - set(fields)
        if unknown:
            raise ConfigInvalidError(f"unknown {where} keys {sorted(unknown)}, "
                                     f"not among {sorted(fields)}")
        missing = [name for name, f in fields.items() if name not in value
                   and f.default is f.default_factory is dataclasses.MISSING]
        _ensure(not missing, where, f"an object that sets {missing}", value)
        hints = _type_hints(tp)
        values = {key: from_json(hints[key], v, f"{where}.{key}") for key, v in value.items()}
        try:
            return tp(**values)
        except ValueError as exc:
            raise ConfigInvalidError(f"{where}: {exc}") from exc
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if type(None) in args:  # X | None
        return None if value is None else from_json(args[0], value, where)
    if origin is tuple:
        size = None if args[-1] is Ellipsis else len(args)
        _ensure(isinstance(value, list) and size in (None, len(value)), where,
                f"a list of {size or 'any number of'} values", value)
        return tuple(from_json(args[0] if size is None else args[i], v, f"{where}[{i}]")
                     for i, v in enumerate(value))
    if origin is dict:
        _ensure(isinstance(value, dict), where, "a JSON object", value)
        return {key: from_json(args[1], v, f"{where}.{key}") for key, v in value.items()}
    if issubclass(tp, Enum):
        choices = [m.value for m in tp]
        scalar = from_json(type(choices[0]), value, where)
        _ensure(scalar in choices, where, f"one of {choices}", value)
        return tp(scalar)
    kinds, what = _SCALARS[tp]
    _ensure(type(value) in kinds, where, what, value)  # exact: true is not a whole number
    return value


def to_json(value):
    """The JSON form of a config tree, as config.resolved.json holds it."""
    if dataclasses.is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name)) for f in dataclasses.fields(value)
                if f.init and getattr(value, f.name) is not _PRESET}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [to_json(v) for v in value]
    if isinstance(value, dict):
        return {key: to_json(v) for key, v in value.items()}
    return value
