"""Sectioned key-value run configuration: parsing, defaults, rendering.

Format: ``[section]`` headers, ``key = value`` lines, ``#`` comments,
whitespace-separated vectors, scalars broadcast to length n where a vector
is expected.  Unknown sections or keys are hard errors.

One table, ``_SCHEMA``, gives each key's section, ``RunConfig`` field and
parser; ``parse_config`` checks values in its order.  ``render_config``
writes [noise], [dynamics] and [run] always, any other section when one of
its fields differs from its default, and in each section every field that
is not None (``auto`` for the three deferred floats), so every parsed key
is echoed and an output header reproduces the run.  A ``cluster.n`` over
``MAX_SPINS`` raises ``CapacityError`` as soon as it is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from .cluster import MAX_SPINS, ClusterParams, uniform_couplings
from .errors import CapacityError, ConfigError
from .sweep import CHANNELS, SweepGrid
from .transition import NOISE_KINDS, CouplingSpec


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration.

    Vector-valued fields are stored as tuples so configurations compare
    exactly; ``None`` means "absent" for optional sections and "auto" for
    deferred numeric defaults.
    """

    # [cluster]
    n: int | None = None
    j_uniform: float | None = None
    j_upper: tuple[float, ...] | None = None
    bias: tuple[float, ...] | None = None
    tunneling: tuple[float, ...] | None = None
    a_typ: float | None = None
    # [noise]
    z_noise: tuple[float, ...] | None = None
    x_noise: tuple[float, ...] | None = None
    noise_kind: str = "ou"
    noise_tau: float | None = None
    # [dynamics]
    time_step: float | None = None
    total_time: float | None = None
    trajectories: int = 200
    anchors: tuple[str, str] | None = None
    # [sweep]
    sweep_n: tuple[int, ...] | None = None
    sweep_ratios: tuple[float, ...] | None = None
    sweep_channels: tuple[str, ...] = ("overlaps", "rates", "pathsum")
    sweep_bias: float = 0.1
    sweep_j: float = -1.0
    # [output]
    output_path: str | None = None
    # [run]
    seed: int = 0

    def cluster_params(self) -> ClusterParams:
        if self.n is None:
            raise ConfigError("configuration has no [cluster] section")
        n = self.n
        if self.j_upper is not None:
            m = np.zeros((n, n))
            k = 0
            for i in range(n):
                for j in range(i + 1, n):
                    m[i, j] = m[j, i] = self.j_upper[k]
                    k += 1
        else:
            m = uniform_couplings(n, self.j_uniform or 0.0)
        return ClusterParams(
            n=n,
            couplings=m,
            bias=np.array(self.bias),
            tunneling=np.array(self.tunneling),
        )

    def coupling_spec(self) -> CouplingSpec:
        if self.n is None:
            raise ConfigError("configuration has no [cluster] section")
        return CouplingSpec(
            z_noise=np.array(self.z_noise if self.z_noise is not None else [0.0] * self.n),
            x_noise=np.array(self.x_noise if self.x_noise is not None else [0.0] * self.n),
            kind=self.noise_kind,
            correlation_time=self.noise_tau,
        )

    def sweep_grid(self) -> SweepGrid:
        if self.sweep_n is None or self.sweep_ratios is None:
            raise ConfigError("configuration has no complete [sweep] section")
        return SweepGrid(
            n_values=self.sweep_n,
            ratio_values=self.sweep_ratios,
            channels=self.sweep_channels,
            bias=self.sweep_bias,
            coupling_j=self.sweep_j,
            trajectory_count=self.trajectories,
        )


Parser = Callable[[str, str, dict], Any]  # (raw text, "line L: section.key", fields so far)


def _text(raw: str, where: str, values: dict) -> str:
    return raw


def _number(convert: Callable[[str], Any], noun: str) -> Parser:
    def parse_number(raw: str, where: str, values: dict):
        try:
            return convert(raw)
        except ValueError:
            raise ConfigError(f"{where}: not {noun}: {raw!r}") from None

    return parse_number


def _each(parse: Parser) -> Parser:
    return lambda raw, where, values: tuple(parse(p, where, values) for p in raw.split())


def _checked(parse: Parser, ok: Callable[[Any], bool], problem: str) -> Parser:
    def parse_checked(raw: str, where: str, values: dict):
        value = parse(raw, where, values)
        if not ok(value):
            raise ConfigError(f"{where} {problem}")
        return value

    return parse_checked


_float = _checked(_number(float, "a number"), math.isfinite, "must be finite")
_int = _number(lambda raw: int(raw, 0), "an integer")


def _positive(parse: Parser) -> Parser:
    return _checked(parse, lambda v: v > 0, "must be positive")


def _cluster_size(raw: str, where: str, values: dict) -> int:
    n = _positive(_int)(raw, where, values)
    if n > MAX_SPINS:
        raise CapacityError(f"{where} = {n} exceeds the dense budget of {MAX_SPINS} spins")
    return n


def _upper_triangle(raw: str, where: str, values: dict) -> tuple[float, ...]:
    n = values["n"]
    want, got = n * (n - 1) // 2, len(raw.split())
    if got != want:
        raise ConfigError(
            f"{where.split(':')[0]}: j_upper needs {want} entries "
            f"(row-major upper triangle for n={n}), got {got}"
        )
    return _each(_float)(raw, where, values)


def _vector(raw: str, where: str, values: dict) -> tuple[float, ...]:
    n = values.get("n")
    if n is None:
        raise ConfigError(f"{where} requires a [cluster] section for its length")
    vector = _each(_float)(raw, where, values)
    if len(vector) == 1:
        return vector * n  # scalar broadcast
    if len(vector) != n:
        raise ConfigError(f"{where}: expected 1 or {n} values, got {len(vector)}")
    return vector


def _amplitudes(raw: str, where: str, values: dict) -> tuple[float, ...]:
    vector = _vector(raw, where, values)
    if any(v < 0 for v in vector):
        raise ConfigError(f"{where} amplitudes must be non-negative")
    return vector


def _anchors(raw: str, where: str, values: dict) -> tuple[str, ...]:
    words = tuple(raw.split())
    if len(words) != 2 or not all(set(w) <= set("01") for w in words):
        raise ConfigError(f"{where} needs two bitstrings (ground lem)")
    n = values.get("n")
    if n is not None and any(len(w) != n for w in words):
        raise ConfigError(f"{where} needs bitstrings of cluster.n = {n} spins, got {raw!r}")
    return words


def _channels(raw: str, where: str, values: dict) -> tuple[str, ...]:
    for ch in raw.split():
        if ch not in CHANNELS:
            raise ConfigError(
                f"{where.split(':')[0]}: unknown sweep channel {ch!r}; choose from {CHANNELS}"
            )
    return tuple(raw.split())


@dataclass(frozen=True)
class _Key:
    """One configuration key: where it lives, the field it sets, how it parses."""

    section: str
    key: str
    field: str
    parse: Parser
    auto: bool = False  # "auto" reads as None and None renders as "auto"
    fill: str | None = None  # text parsed when absent, under a [cluster], with no excluded key
    excludes: str | None = None  # a key of the same section that may not appear too
    required: bool = False  # needed whenever its section has any key


_SCHEMA = (
    _Key("cluster", "n", "n", _cluster_size, required=True),
    _Key("cluster", "j_upper", "j_upper", _upper_triangle, excludes="j"),
    _Key("cluster", "j", "j_uniform", _float, fill="0", excludes="j_upper"),
    _Key("cluster", "bias", "bias", _vector, fill="0"),
    _Key("cluster", "tunneling", "tunneling", _vector, fill="0"),
    _Key("cluster", "a_typ", "a_typ", _positive(_float)),
    _Key("noise", "z_noise", "z_noise", _amplitudes, fill="0"),
    _Key("noise", "x_noise", "x_noise", _amplitudes, fill="0"),
    _Key("noise", "kind", "noise_kind",
         _checked(_text, lambda v: v in NOISE_KINDS, f"must be one of {NOISE_KINDS}")),
    _Key("noise", "tau", "noise_tau", _positive(_float), auto=True),
    _Key("dynamics", "time_step", "time_step", _positive(_float), auto=True),
    _Key("dynamics", "total_time", "total_time", _positive(_float), auto=True),
    _Key("dynamics", "trajectories", "trajectories", _positive(_int)),
    _Key("dynamics", "anchors", "anchors", _anchors),
    _Key("sweep", "n_values", "sweep_n", _each(_int)),
    _Key("sweep", "ratios", "sweep_ratios", _each(_float)),
    _Key("sweep", "channels", "sweep_channels", _channels),
    _Key("sweep", "bias", "sweep_bias", _float),
    _Key("sweep", "j", "sweep_j", _float),
    _Key("output", "path", "output_path", _text),
    _Key("run", "seed", "seed",
         _checked(_int, lambda s: 0 <= s < 2**64, "must fit in 64 unsigned bits")),
)
_SECTIONS = {  # section -> {key: _Key}, both in table order
    s: {k.key: k for k in _SCHEMA if k.section == s}
    for s in dict.fromkeys(k.section for k in _SCHEMA)
}
_DEFAULTS = vars(RunConfig())  # field name -> default value


def parse_config(text: str) -> RunConfig:
    """Parse and validate configuration text, resolving every default."""
    entries: dict[tuple[str, str], tuple[str, int]] = {}
    section = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: malformed section header: {rawline.strip()!r}")
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            section = name
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {rawline.strip()!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SECTIONS[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{section}]")
        if (section, key) in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in section [{section}]")
        entries[(section, key)] = (value, lineno)

    values: dict[str, Any] = {}
    for k in _SCHEMA:
        got = entries.get((k.section, k.key))
        if got is None:
            if k.required and any(sec == k.section for sec, _ in entries):
                raise ConfigError(f"section [{k.section}] is missing the required key {k.key!r}")
            if k.fill is not None and "n" in values and (k.section, k.excludes) not in entries:
                values[k.field] = k.parse(k.fill, "", values)
            continue
        raw, lineno = got
        if (k.section, k.excludes) in entries:
            raise ConfigError(f"line {lineno}: give either {k.excludes!r} or {k.key!r}, not both")
        where = f"line {lineno}: {k.section}.{k.key}"
        values[k.field] = None if k.auto and raw == "auto" else k.parse(raw, where, values)
    return RunConfig(**values)


def _fmt(value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, tuple):
        return " ".join(map(_fmt, value))
    return repr(value) if isinstance(value, float) else str(value)


def render_config(cfg: RunConfig) -> str:
    """Canonical text form listing every resolved value; parses back equal."""
    blocks = []
    for section, keys in _SECTIONS.items():
        keys = [(k, getattr(cfg, k.field)) for k in keys.values()]
        if section in ("noise", "dynamics", "run") or any(v != _DEFAULTS[k.field] for k, v in keys):
            lines = [f"{k.key} = {_fmt(v)}" for k, v in keys if k.auto or v is not None]
            blocks.append("\n".join([f"[{section}]", *lines]))
    return "\n\n".join(blocks) + "\n"


def with_overrides(cfg: RunConfig, seed: int | None = None) -> RunConfig:
    """Apply command-line overrides on top of a parsed configuration, each
    checked by its key's schema row."""
    if seed is None:
        return cfg
    return replace(cfg, seed=_SECTIONS["run"]["seed"].parse(str(seed), "--seed", {}))
