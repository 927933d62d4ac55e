"""Plain-text key-value run configuration.

Format: one ``section.key = value`` per line; ``#`` starts a comment; blank
lines ignored. Tuple values are whitespace separated; booleans are
true/1/yes or false/0/no. Unknown and repeated keys are errors.

The frozen dataclasses below (with ``geometry.MeshConfig``) are the schema:
each field is one key, its type annotation says how the value parses, and its
default is the only default. The probe seed and the norm tolerance take
theirs from the `resolvent` constants that `resolvent.sweep` defaults to.
``format_config`` prints a config in the same format, so
``DEFAULT_CONFIG_TEXT`` is ``format_config(RunConfig())``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import reduce
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .evolution import MAX_STEPS, check_fit_window
from .geometry import MeshConfig, MeshConfigError
from .resolvent import MAX_POINTS, OPNORM_TOL, PROBE_SEED, in_top_decade


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SimulateConfig:
    T: float = 60.0
    tau: float = 0.01
    seed: int = 1
    fit_window: tuple[float, float] = (1.0, 50.0)
    initial: str = "smooth"     # smooth | zero


@dataclass(frozen=True)
class SweepConfig:
    beta_min: float = 1.0
    beta_max: float = 200.0
    points: int = 25
    probe_seed: int = PROBE_SEED
    opnorm_tol: float = OPNORM_TOL

    def grid(self):
        """The frequencies of the sweep, log-spaced on [beta_min, beta_max]."""
        return np.logspace(np.log10(self.beta_min), np.log10(self.beta_max), self.points)


@dataclass(frozen=True)
class ProbeConfig:
    manufactured: bool = True
    refinements: tuple[int, ...] = (4, 8, 16)
    beta: float = 2.0


@dataclass(frozen=True)
class RunConfig:
    geometry: MeshConfig = field(default_factory=MeshConfig)
    simulate: SimulateConfig = field(default_factory=SimulateConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    probe: ProbeConfig = field(default_factory=ProbeConfig)

    def validate(self):
        for key, hint in SCHEMA.items():
            value = reduce(getattr, key.split("."), self)
            if float in (hint, *get_args(hint)) and not np.all(np.isfinite(value)):
                raise ConfigError(f"{key} must be finite, got {_format_value(value)}")
        self.geometry.validate()
        s = self.simulate
        if s.T <= 0 or s.tau <= 0:
            raise ConfigError("simulate.T and simulate.tau must be positive")
        if s.T / s.tau > MAX_STEPS:     # ceil(T / tau) > MAX_STEPS, T / tau = inf included
            raise ConfigError(f"simulate.T / simulate.tau = {s.T / s.tau:g} steps, above {MAX_STEPS}")
        ta, tb = s.fit_window
        if not (0 <= ta < tb <= s.T):
            raise ConfigError(f"fit window [{ta}, {tb}] must lie within [0, T]")
        if s.initial not in ("smooth", "zero"):
            raise ConfigError(f"simulate.initial must be smooth or zero, got {s.initial!r}")
        if s.initial == "smooth":
            try:
                check_fit_window(s.T, s.tau, s.fit_window)
            except ValueError as exc:
                raise ConfigError(f"simulate.fit_window: {exc}") from exc
        w = self.sweep
        for key, seed in (("simulate.seed", s.seed), ("sweep.probe_seed", w.probe_seed)):
            if seed < 0:
                raise ConfigError(f"{key} must be non-negative, got {seed}")
        if w.beta_min < 1:
            raise ConfigError("sweep.beta_min must be >= 1")
        if w.beta_max <= w.beta_min:
            raise ConfigError("sweep.beta_max must exceed sweep.beta_min")
        if w.points < 2:
            raise ConfigError(f"insufficient points: a growth fit needs at least 2 frequencies, "
                              f"got sweep.points = {w.points}")
        if w.points > MAX_POINTS:
            raise ConfigError(f"sweep.points = {w.points}, above {MAX_POINTS}")
        betas = w.grid()
        if np.count_nonzero(in_top_decade(betas)) < 2:
            raise ConfigError(f"insufficient points: the growth-fit window [{betas.max() / 10:g}, "
                              f"{betas.max():g}] holds fewer than 2 of {w.points} frequencies")
        if w.opnorm_tol <= 0:
            raise ConfigError("sweep.opnorm_tol must be positive")
        if len(self.probe.refinements) < 2:
            raise ConfigError(f"probe.refinements needs at least 2 levels, got "
                              f"{len(self.probe.refinements)}: the order fit needs two h")
        for i, n in enumerate(self.probe.refinements):
            if n in self.probe.refinements[:i]:
                raise ConfigError(f"probe.refinements repeats n = {n}: "
                                  "the order fit needs distinct h")
            try:
                _, ilo, ihi = replace(self.geometry, n=n).grid_counts()
            except MeshConfigError as exc:
                raise ConfigError(f"probe.refinements: n = {n}: {exc}") from exc
            if np.any(ihi - ilo < 2):
                axis = int(np.argmin(ihi - ilo))
                raise ConfigError(f"probe.refinements: n = {n}: axis {axis}: the cube spans "
                                  "one grid cell, so it has no interior vertex for the "
                                  "manufactured field")


def _schema(cls, prefix=""):
    """(key, annotation) of every leaf field, nested dataclasses flattened."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        if is_dataclass(hints[f.name]):
            yield from _schema(hints[f.name], f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, hints[f.name]


# key ("section.field") -> type annotation
SCHEMA = dict(_schema(RunConfig))

_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_value(hint, raw):
    if hint is bool:
        if raw.lower() not in _BOOLS:
            raise ValueError(f"expected a boolean, got {raw!r}")
        return _BOOLS[raw.lower()]
    if get_origin(hint) is tuple:
        types, parts = get_args(hint), raw.split()
        if types[-1] is Ellipsis:
            types = (types[0],) * len(parts)
        elif len(parts) != len(types):
            raise ValueError(f"expected {len(types)} values, got {raw!r}")
        return tuple(t(p) for t, p in zip(types, parts))
    return hint(raw)


def _format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return " ".join(map(_format_value, value))
    return str(value)


def parse_config(text: str) -> RunConfig:
    sections, seen = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: key {key!r} repeats line {seen[key]}")
        seen[key] = lineno
        try:
            parsed = _parse_value(SCHEMA[key], value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
        section, _, name = key.partition(".")
        sections.setdefault(section, {})[name] = parsed

    cfg = RunConfig()
    cfg = replace(cfg, **{s: replace(getattr(cfg, s), **kv) for s, kv in sections.items()})
    cfg.validate()
    return cfg


def format_config(cfg: RunConfig) -> str:
    """``cfg`` as ``parse_config`` text, every key in schema order, one per line;
    ``parse_config`` reads it back to ``cfg`` whenever ``cfg`` is valid."""
    values = (reduce(getattr, key.split("."), cfg) for key in SCHEMA)
    return "".join(f"{key} = {_format_value(value)}\n" for key, value in zip(SCHEMA, values))


DEFAULT_CONFIG_TEXT = format_config(RunConfig())


def load_config(path) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def with_overrides(cfg: RunConfig, *, seed=None) -> RunConfig:
    """``cfg`` with the command-line seed override applied, validated again."""
    if seed is not None:
        cfg = replace(cfg, simulate=replace(cfg.simulate, seed=seed),
                      sweep=replace(cfg.sweep, probe_seed=seed))
    cfg.validate()
    return cfg
