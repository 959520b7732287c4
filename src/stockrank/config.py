"""Declarative run configuration: one JSON file drives the whole pipeline.

Defaults reproduce the documented reference setup, so an empty JSON
object (plus data paths) is the canonical profile. Validation is
fail-fast: a bad config never produces partial artifacts.

Each setting and each rule is stated once. RunConfig holds the one default
of every run setting and ``validate`` checks every config rule; no stage
function restates a default or a rule, so each takes its settings from its
caller. RunConfig builds what the stages take from it: ``feature_names``
is the panel's features and ``arch()`` the network. ArchConfig holds every
network rule, so ``RunConfig.validate`` builds the network instead of
restating them. A loss's own settings (its CLI alias, output arity,
learning rates and default dropout) are its row of ``losses.LOSSES``,
which every reader looks up.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import math
import os
import types
import typing
from dataclasses import asdict, dataclass, field

from .backtest import REBALANCE_MODES, STRATEGIES
from .errors import ConfigError
from .indicators import BASIC_FEATURE_NAMES, DEFAULT_TECHNICAL_16, TECHNICAL_NAMES
from .losses import LOSSES, LossKind

#: How an ensemble weights its members: by their recent returns, or equally.
COMBINE_MODES = ("moe", "simple_average")


@dataclass(frozen=True)
class ArchConfig:
    """Shape of the network, and every rule it must meet.

    ``dropout`` None is the loss's rate (``losses.LOSSES``), so a built
    ArchConfig always holds the rate training uses. The conv stack is a
    non-empty list of (kernel, channels) pairs, each at least 1, since the
    sector embedding enters the network through the first conv, and the
    time axis must survive it.
    """

    m: int
    n: int
    conv: tuple[tuple[int, int], ...]
    dense: tuple[int, ...]
    dropout: float | None
    leaky_slope: float
    loss: str

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise ConfigError(f"unknown loss {self.loss!r}")
        if self.dropout is None:
            object.__setattr__(self, "dropout", LOSSES[self.loss].dropout)
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if not 0.0 < self.leaky_slope < 1.0:
            raise ConfigError(f"leaky_slope must be in (0, 1), got {self.leaky_slope}")
        if not self.conv or any(len(c) != 2 or min(c) < 1 for c in self.conv):
            raise ConfigError(f"conv must be a non-empty list of [k, channels] pairs >= 1, "
                              f"got {self.conv}")
        if sum(k - 1 for k, _ in self.conv) >= self.m:
            raise ConfigError("conv stack consumes the whole time axis")
        object.__setattr__(self, "conv", tuple(tuple(c) for c in self.conv))
        object.__setattr__(self, "dense", tuple(self.dense))

    @property
    def loss_kind(self) -> LossKind:
        return LOSSES[self.loss]


@dataclass
class RunConfig:
    # data
    ohlcv_path: str = ""
    sector_path: str = ""
    rf_path: str | None = None
    start: str | None = None  # ISO dates; None = full span
    end: str | None = None
    dollar_volume_floor: float = 10_000_000.0
    price_floor: float = 0.1
    # features
    use_basic: bool = True
    technical: list[str] = field(default_factory=lambda: list(DEFAULT_TECHNICAL_16))
    # windowing
    m: int = 20
    std_days: int = 200
    trainval_days: int = 200
    test_days: int = 20
    val_days: int = 20
    # labeling
    label_thresholds: tuple[float, float] = (0.01, 0.03)
    return_cap: float = 0.5
    # model
    loss: str = "return_weighted_ce"
    conv: list[list[int]] = field(default_factory=lambda: [[3, 48], [3, 64], [3, 96]])
    dense: list[int] = field(default_factory=lambda: [64])
    dropout: float | None = None  # None: the per-loss profile default
    leaky_slope: float = 0.01
    batch_size: int = 256
    max_epochs: int = 200
    # ensemble
    n_members: int = 3
    combine_mode: str = "moe"
    moe_window: int = 6
    n_ensembles: int = 1
    # backtest
    strategies: list[str] = field(default_factory=lambda: list(STRATEGIES))
    k: int = 10
    rebalance_mode: str = "drift"
    paired_t_test: bool = True
    # run
    seed: int = 0
    max_periods: int | None = None

    def validate(self) -> None:
        for label, path in (("ohlcv_path", self.ohlcv_path), ("sector_path", self.sector_path),
                            ("rf_path", self.rf_path)):
            if path is None:  # only rf_path is optional
                continue
            if not path:
                raise ConfigError(f"{label} is required")
            if not os.path.exists(path):
                raise ConfigError(f"{label} does not exist: {path}")
            if not os.path.isfile(path):  # a directory would fail on open, mid-run
                raise ConfigError(f"{label} is not a regular file: {path}")
        for key, value in asdict(self).items():
            if any(isinstance(v, float) and not math.isfinite(v)
                   for v in (value if isinstance(value, (list, tuple)) else [value])):
                raise ConfigError(f"{key} must be finite, got {value!r}")
        for label in ("start", "end"):
            value = getattr(self, label)
            if value is not None:
                try:
                    dt.date.fromisoformat(value)
                except ValueError:
                    raise ConfigError(f"{label} is not an ISO date: {value!r}")
        if self.dollar_volume_floor <= 0:
            raise ConfigError("dollar_volume_floor must be > 0")
        if self.price_floor <= 0:
            raise ConfigError("price_floor must be > 0")
        for i, name in enumerate(self.technical):
            if name not in TECHNICAL_NAMES:
                raise ConfigError(f"unknown technical feature {name!r}")
            if name in self.technical[:i]:
                raise ConfigError(f"technical lists {name!r} twice")
        if not self.use_basic and not self.technical:
            raise ConfigError("no features selected")
        if min(self.m, self.std_days, self.trainval_days, self.test_days, self.val_days) < 1:
            raise ConfigError("window lengths must be positive")
        if self.val_days >= self.trainval_days:
            raise ConfigError("val_days must be smaller than trainval_days")
        lo, hi = self.label_thresholds
        if not 0 < lo < hi:
            raise ConfigError(f"label thresholds must satisfy 0 < lo < hi, got {lo}, {hi}")
        if self.return_cap <= 0:
            raise ConfigError("return_cap must be > 0")
        self.arch()  # the network's rules
        if self.batch_size < 1 or self.max_epochs < 0:
            raise ConfigError("batch_size must be >= 1 and max_epochs >= 0")
        if self.n_members < 1 or self.n_ensembles < 1:
            raise ConfigError("n_members and n_ensembles must be >= 1")
        if self.combine_mode not in COMBINE_MODES:
            raise ConfigError(f"unknown combine_mode {self.combine_mode!r}")
        if self.moe_window < 1:
            raise ConfigError("moe_window must be >= 1")
        for s in self.strategies:
            if s not in STRATEGIES:
                raise ConfigError(f"unknown strategy {s!r}")
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.rebalance_mode not in REBALANCE_MODES:
            raise ConfigError(f"unknown rebalance_mode {self.rebalance_mode!r}")
        if self.max_periods is not None and self.max_periods < 1:
            raise ConfigError("max_periods must be >= 1 when given")

    @property
    def feature_names(self) -> list[str]:
        """The panel's features, in column order."""
        return list(BASIC_FEATURE_NAMES) * self.use_basic + self.technical

    def arch(self) -> ArchConfig:
        """The network of this run."""
        return ArchConfig(m=self.m, n=len(self.feature_names), conv=self.conv,
                          dense=self.dense, dropout=self.dropout,
                          leaky_slope=self.leaky_slope, loss=self.loss)

    def to_json(self) -> str:
        payload = asdict(self)
        payload["label_thresholds"] = list(self.label_thresholds)
        return json.dumps(payload, sort_keys=True, indent=2)

    def sha256(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()


def _fits(value, hint) -> bool:
    """Whether a JSON value has the type of a RunConfig annotation: a bool is
    no int, an int is a float, and a tuple takes a list of its length."""
    if isinstance(hint, types.UnionType):
        return any(_fits(value, h) for h in typing.get_args(hint))
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is list:
        return isinstance(value, list) and all(_fits(v, args[0]) for v in value)
    if origin is tuple:
        return (isinstance(value, (list, tuple)) and len(value) == len(args)
                and all(map(_fits, value, args)))
    if hint is bool or isinstance(value, bool):
        return hint is bool and isinstance(value, bool)
    return isinstance(value, (int, float) if hint is float else hint)


def _as_declared(value, hint):
    """A JSON value that fits a RunConfig annotation, in the declared type:
    an int given for a float becomes that float and a list given for a
    tuple a tuple, so equal configs write equal bytes and hashes."""
    if isinstance(hint, types.UnionType):
        if value is None:
            return None
        hint = next(h for h in typing.get_args(hint) if h is not type(None) and _fits(value, h))
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is list:
        return [_as_declared(v, args[0]) for v in value]
    if origin is tuple:
        return tuple(map(_as_declared, value, args))
    return float(value) if hint is float else value


def load_config(path: str, overrides: dict | None = None) -> RunConfig:
    """Read and validate a config JSON; relative data paths resolve against
    the config file's directory. Unknown keys and values of the wrong type
    are errors."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    known = set(RunConfig.__dataclass_fields__)
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"config {path} has unknown keys: {unknown}")
    if overrides:
        raw.update(overrides)
    hints = typing.get_type_hints(RunConfig)
    for key, value in sorted(raw.items()):
        if not _fits(value, hints[key]):
            kind = RunConfig.__dataclass_fields__[key].type
            raise ConfigError(f"config {path}: {key} must be {kind}, got {value!r}")
    cfg = RunConfig(**{key: _as_declared(value, hints[key]) for key, value in raw.items()})
    base = os.path.dirname(os.path.abspath(path))
    for attr in ("ohlcv_path", "sector_path", "rf_path"):
        value = getattr(cfg, attr)
        if value and not os.path.isabs(value):
            setattr(cfg, attr, os.path.join(base, value))
    cfg.validate()
    return cfg
