"""The pipeline config: one tree of frozen dataclasses.

Every section is declared here, so loading a config loads no stage module.
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

from . import artifacts, flows, ingest
from .ingest import Tier


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


class Linkage(str, Enum):
    SINGLE = "single"
    COMPLETE = "complete"
    AVERAGE = "average"


@dataclass(frozen=True)
class ClusterConfig:
    """Linkage and the K range select_k searches; the distance weights
    are the config's `weights` section, which cli.cmd_cluster passes to
    select_k."""

    linkage: Linkage = Linkage.SINGLE
    k_min: int = 2
    k_max: int = 20

    def __post_init__(self):
        if self.k_min > self.k_max:
            raise ValueError(f"k_min {self.k_min} > k_max {self.k_max}")


class PatternKind(str, Enum):
    CHAIN = "chain"
    SUNFLOWER = "sunflower"
    SUNFLOWER_RELAY = "sunflower_relay"
    STAGING_AGGREGATION = "staging_aggregation"
    SPONSORSHIP_CLIQUE = "sponsorship_clique"
    CAUTIOUS_CLIQUE = "cautious_clique"
    BLATANT_CLIQUE = "blatant_clique"


@dataclass(frozen=True)
class DetectorConfig:
    min_chain_len: int = 3  # edges along the path
    max_chain_in: int = 2  # interior in-degree bound (allows simple merges)
    accumulation_slack: int = 0  # absolute weight slack; 0 = non-decreasing
    min_spokes: int = 5
    forward_frac: float = 0.9
    min_beneficiaries: int = 5
    min_sponsors: int = 2
    min_cautious_size: int = 6
    max_cautious_density: float = 0.2
    min_clique: int = 3
    max_clique: int = 5

    def __post_init__(self):
        for name, value in dataclasses.asdict(self).items():
            if name in ("forward_frac", "max_cautious_density"):
                _ensure(0 <= value <= 1, name, "a number in [0, 1]", value)
            else:
                least = 0 if name == "accumulation_slack" else 1
                _ensure(value >= least, name, f"a whole number >= {least}", value)
        _ensure(self.min_clique <= self.max_clique, "max_clique",
                f"at least min_clique {self.min_clique}", self.max_clique)


class Preset(str, Enum):
    """An eligibility preset: a row of PRESETS."""

    THRESHOLD_DIFFERENTIAL = "threshold_differential"
    DIFFERENTIAL = "differential"
    FAIR = "fair"


# Native-balance floors per chain, in native units.
DEFAULT_MIN_BALANCES = {"ethereum": 0.028, "bsc": 0.25, "polygon": 20.0, "avalanche": 0.9}

# Each preset's rules. Tier tables are (min interactions, tier), highest
# first; the threshold-differential one is a non-canonical stand-in whose
# lowest breakpoint matches the recency threshold, so the table has no gaps
# for eligible addresses.
PRESETS: dict[Preset, dict[str, typing.Any]] = {
    Preset.THRESHOLD_DIFFERENTIAL: {
        "min_tx_count": 50, "min_native_balance": DEFAULT_MIN_BALANCES, "min_interactions": 6,
        "interaction_window_days": 183,  # "last six months"
        "max_clique": 5, "tier_table": ((26, Tier.T10400), (11, Tier.T7800), (6, Tier.T5200)),
    },
    # Tiered rewards without the strict filters.
    Preset.DIFFERENTIAL: {
        "min_tx_count": 1, "min_native_balance": {}, "min_interactions": 1,
        "interaction_window_days": 183, "max_clique": None,
        "tier_table": ((26, Tier.T10400), (11, Tier.T7800), (1, Tier.T5200)),
    },
    # Single tier, no thresholds: every interacting address gets in.
    Preset.FAIR: {
        "min_tx_count": 0, "min_native_balance": {}, "min_interactions": 1,
        "interaction_window_days": 183, "max_clique": None, "tier_table": ((1, Tier.T5200),),
    },
}

# The default of a rule field: the preset's value
_PRESET: typing.Any = object()


@dataclass(frozen=True)
class EligibilityRules:
    """The preset's rules with every field the config sets replaced.

    The number fields are written back, so config.resolved.json shows what
    ran; `min_native_balance` and `tier_table` appear there only when set,
    and what applies for them is in `floors` and `tiers`.
    """

    preset: Preset = Preset.THRESHOLD_DIFFERENTIAL
    min_tx_count: int = _PRESET
    min_native_balance: dict[str, float] = _PRESET
    min_interactions: int = _PRESET
    interaction_window_days: int = _PRESET
    max_clique: int | None = _PRESET  # None disables the clique rule
    tier_table: tuple[tuple[int, Tier], ...] = _PRESET
    floors: dict[str, float] = field(init=False, repr=False, compare=False)
    tiers: tuple[tuple[int, Tier], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        preset = PRESETS[self.preset]
        rules = {name: preset[name] if getattr(self, name) is _PRESET else getattr(self, name)
                 for name in preset}
        for name in ("min_tx_count", "min_interactions", "interaction_window_days", "max_clique"):
            object.__setattr__(self, name, rules[name])
        object.__setattr__(self, "floors", rules["min_native_balance"])
        object.__setattr__(self, "tiers", rules["tier_table"])
        _ensure(all(0 <= v < math.inf for v in self.floors.values()), "min_native_balance",
                "an object of chain names to finite numbers >= 0", self.floors)
        _ensure(self.tiers != (), "tier_table",
                "a non-empty list of [min interactions, tier] pairs", [])
        lowest = min(self.tiers)[0]
        if self.min_interactions < lowest:
            raise ValueError(f"tier table leaves a gap: breakpoints must cover every eligible "
                             f"score (lowest {lowest} > min_interactions {self.min_interactions})")

    def tier_for(self, score: int) -> Tier:
        for threshold, tier in sorted(self.tiers, reverse=True):
            if score >= threshold:
                return tier
        return min(self.tiers)[1]


@dataclass(frozen=True)
class PatternSpec:
    kind: PatternKind
    count: int = 1
    size: int = 0  # pattern-specific; 0 picks the default


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
    clustering: ClusterConfig = ClusterConfig()
    detectors: DetectorConfig = DetectorConfig()
    eligibility: EligibilityRules = EligibilityRules()
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
