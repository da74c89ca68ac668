"""Run configuration: INI-style ``key = value`` files with [section] headers.

Every key is validated against the known schema before any work starts;
unknown keys and malformed values are errors that name the offending key.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .model import ModelConfig
from .pool import ConfigError
from .synth import SynthError, SyntheticEventConfig
from .train import TrainConfig, TrainError

DEFAULT_THRESHOLDS = (16.0, 74.0, 133.0, 160.0, 181.0, 219.0)


@dataclass
class DataConfig:
    manifest: str | None = None
    n_events: int = 16
    train_frac: float = 0.8
    seed: int | None = None  # generator seed; falls back to [train] seed
    # the generator's settings; its seed and grid come from seed and [model]
    synth: SyntheticEventConfig = field(default_factory=SyntheticEventConfig)


@dataclass
class EvalConfig:
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS
    model_tag: str = ""


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def synth_config(self, seed: int | None = None) -> SyntheticEventConfig:
        if seed is None:
            seed = self.data.seed if self.data.seed is not None else self.train.seed
        return replace(self.data.synth, seed=seed, hw=self.model.hw, t_in=self.model.t_in,
                       k_out=self.model.k_out)

    def tag(self) -> str:
        if self.eval.model_tag:
            return self.eval.model_tag
        parts = [name for name, on in (
            ("pfm", self.model.enable_pfm),
            ("fm", self.model.enable_fm),
            ("ifa", self.model.enable_ifa),
        ) if on]
        return "+".join(parts) if parts else "baseline"


class _Section:
    """One section's keys; every access marks the key as consumed."""

    def __init__(self, name: str, values: dict[str, str]):
        self.name = name
        self.values = dict(values)

    def parse(self, key: str, kind):
        """The parsed value of ``key``, or None when the section does not set it."""
        raw = self.values.pop(key, None)
        if raw is None:
            return None
        try:
            return kind(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid value for [{self.name}] {key}: {raw!r} ({exc})")

    def parse_fields(self, cls, skip: frozenset[str] = frozenset()) -> dict:
        """Values for the fields of dataclass ``cls`` present in the section.

        Keys are field names, except where ``_KEYS`` renames one; a field's
        parser follows its annotation.
        """
        out = {}
        for f in fields(cls):
            if f.name in skip:
                continue
            key = _KEYS.get(f.name, f.name)
            value = self.parse(key, _PARSER_BY_TYPE[f.type])
            if value is not None:
                out[f.name] = value
        return out

    def leftovers(self):
        if self.values:
            key = sorted(self.values)[0]
            raise ConfigError(f"unknown key [{self.name}] {key}")


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _pair(raw: str) -> tuple[float, float]:
    parts = [p for p in raw.replace(",", " ").split() if p]
    if len(parts) != 2:
        raise ValueError(f"expected two numbers, got {raw!r}")
    return float(parts[0]), float(parts[1])


def _floats(raw: str) -> tuple[float, ...]:
    parts = [p for p in raw.replace(",", " ").split() if p]
    if not parts:
        raise ValueError("empty list")
    return tuple(float(p) for p in parts)


def _three_ints(raw: str) -> tuple[int, int, int]:
    vals = tuple(int(p) for p in raw.replace(",", " ").split() if p)
    if len(vals) != 3:
        raise ValueError("needs exactly three values")
    return vals


def _modules(raw: str) -> set[str]:
    cleaned = raw.strip().strip("{}")
    toks = {t for t in cleaned.replace(",", " ").split() if t}
    unknown = toks - {"pfm", "fm", "ifa"}
    if unknown:
        raise ValueError(f"unknown module(s) {sorted(unknown)}")
    return toks


# Config keys that differ from their field names.
_KEYS = {
    "lam": "lambda", "advect_range": "advect", "growth_range": "growth",
    "anisotropy_range": "anisotropy", "turn_range": "turn", "size_range": "size",
}
# Parsers by field annotation (the modules use postponed annotations).
_PARSER_BY_TYPE = {
    "int": int,
    "int | None": int,
    "float": float,
    "bool": _bool,
    "str": str,
    "str | None": str,
    "tuple[float, float]": _pair,
    "tuple[float, ...]": _floats,
    "tuple[int, int, int]": _three_ints,
}
# Fields set through other keys, or not configurable.
_MODULE_FLAGS = frozenset({"enable_pfm", "enable_fm", "enable_ifa"})  # modules_enabled
_OPTIMIZER_CONSTANTS = frozenset({"beta1", "beta2", "eps"})
_SYNTH_FROM_RUN = frozenset({"seed", "hw", "t_in", "k_out"})  # RunConfig.synth_config


def load_config(path: str | Path) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}")

    known_sections = {"model", "train", "data", "eval"}
    for section in parser.sections():
        if section not in known_sections:
            raise ConfigError(f"unknown section [{section}]")

    def section(name: str) -> _Section:
        return _Section(name, dict(parser[name]) if parser.has_section(name) else {})

    m = section("model")
    model_kw = m.parse_fields(ModelConfig, skip=_MODULE_FLAGS)
    enabled = m.parse("modules_enabled", _modules)
    if enabled is not None:
        model_kw.update({flag: flag.removeprefix("enable_") in enabled for flag in _MODULE_FLAGS})
    m.leftovers()
    model = ModelConfig(**model_kw)
    try:
        model.validate()
    except ValueError as exc:
        raise ConfigError(f"[model] {exc}")

    t = section("train")
    train = TrainConfig(**t.parse_fields(TrainConfig, skip=_OPTIMIZER_CONSTANTS))
    t.leftovers()
    try:
        train.validate()
    except TrainError as exc:
        raise ConfigError(f"[train] {exc}")

    d = section("data")
    synth = SyntheticEventConfig(**d.parse_fields(SyntheticEventConfig, skip=_SYNTH_FROM_RUN))
    data = DataConfig(**d.parse_fields(DataConfig, skip={"synth"}), synth=synth)
    d.leftovers()
    if not 0.0 <= data.train_frac <= 1.0:
        raise ConfigError("[data] train_frac must lie in [0, 1]")
    if data.n_events < 0:
        raise ConfigError("[data] n_events must be nonnegative")

    e = section("eval")
    ev = EvalConfig(**e.parse_fields(EvalConfig))
    e.leftovers()
    for th in ev.thresholds:
        if not 0.0 <= th <= 255.0:
            raise ConfigError(f"[eval] thresholds entry {th} outside [0, 255]")

    run = RunConfig(model=model, train=train, data=data, eval=ev)
    try:
        run.synth_config().validate()
    except SynthError as exc:
        raise ConfigError(f"[data] {exc}")
    return run
