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
from .synth import SyntheticEventConfig, split_problem
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

    def validate(self) -> None:
        if problem := split_problem(self.n_events, self.train_frac):
            raise ConfigError(problem)


@dataclass
class EvalConfig:
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS
    model_tag: str = ""  # the first column of every metric CSV row

    def validate(self) -> None:
        for i, th in enumerate(self.thresholds):
            if not 0.0 <= th <= 255.0:
                raise ConfigError(f"thresholds entry {th} outside [0, 255]")
            if th in self.thresholds[:i]:
                raise ConfigError(f"thresholds entry {th} appears more than once")
        if any(c in self.model_tag for c in ",\r\n"):
            raise ConfigError(f"model_tag = {self.model_tag!r} must not contain a comma "
                              "or line break")


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
            raise ConfigError(f"unknown key [{self.name}] {min(self.values)}")


def _bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


def _numbers(cast, count: int | None = None):
    """Parser of a comma- or space-separated list of ``count`` (else >= 1) ``cast`` values."""
    def parse(raw: str) -> tuple:
        vals = tuple(cast(p) for p in raw.replace(",", " ").split())
        if not vals or count and len(vals) != count:
            raise ValueError(f"needs exactly {count} values" if count else "empty list")
        return vals
    return parse


def _modules(raw: str) -> set[str]:
    toks = set(raw.strip().strip("{}").replace(",", " ").split())
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
    "tuple[float, float]": _numbers(float, 2),
    "tuple[float, ...]": _numbers(float),
    "tuple[int, int, int]": _numbers(int, 3),
}
# Fields set through other keys, or not configurable.
_MODULE_FLAGS = frozenset({"enable_pfm", "enable_fm", "enable_ifa"})  # modules_enabled
_SYNTH_FROM_RUN = frozenset({"seed", "hw", "t_in", "k_out"})  # RunConfig.synth_config


def _checked(name: str, check) -> None:
    """Run ``check``; its failure is a ConfigError naming section ``name``."""
    try:
        check()
    except (ValueError, TrainError) as exc:
        raise ConfigError(f"[{name}] {exc}") from None


def _model_settings(s: _Section) -> ModelConfig:
    kw = s.parse_fields(ModelConfig, skip=_MODULE_FLAGS)
    enabled = s.parse("modules_enabled", _modules)
    if enabled is not None:
        kw.update({flag: flag.removeprefix("enable_") in enabled for flag in _MODULE_FLAGS})
    return ModelConfig(**kw)


def _data_settings(s: _Section) -> DataConfig:
    synth = SyntheticEventConfig(**s.parse_fields(SyntheticEventConfig, skip=_SYNTH_FROM_RUN))
    return DataConfig(**s.parse_fields(DataConfig, skip={"synth"}), synth=synth)


# Per section, the settings built from its keys, in load (and error) order.
_SECTIONS = {
    "model": _model_settings,
    "train": lambda s: TrainConfig(**s.parse_fields(TrainConfig)),
    "data": _data_settings,
    "eval": lambda s: EvalConfig(**s.parse_fields(EvalConfig)),
}


def load_config(path: str | Path) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}")

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")

    settings = {}
    for name, build in _SECTIONS.items():
        s = _Section(name, dict(parser[name]) if parser.has_section(name) else {})
        settings[name] = build(s)
        s.leftovers()
        _checked(name, settings[name].validate)
    run = RunConfig(**settings)
    _checked("data", run.synth_config().validate)  # the generator also needs [model]'s grid
    return run
