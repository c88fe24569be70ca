"""Run and sweep configuration documents.

The on-disk format is a strict sectioned key = value text file::

    [model]
    chi = 0.5
    k = 1
    n = 2
    geometry = cartesian2d
    Lx = 2
    Ly = 2
    nx = 64
    ny = 64

    [initial]
    kind = gaussian
    amplitude = 1.5
    v0_base = 1
    v0_min = 0.1

    [scheme]
    dt_safety = 0.4
    dt_min = 1e-10
    t_end = 10
    blowup_factor = 1e6
    output_interval = 0.1

    [monitors]
    q_list = 1, 2
    pr_source = bootstrap
    theta = 0.5
    tolerance_rel = 0.05

Blank lines and lines starting with ``#`` or ``;`` are ignored; a value
cannot carry a trailing comment.  A radial geometry uses ``R`` and ``m``
instead of the four Cartesian keys; explicit monitor pairs use
``pr_source = explicit`` plus ``pr_pairs = p:r, p:r, ...``.  Sweep
documents add a ``[sweep]`` section with axis definitions (``chi_values``
or ``chi_range = start:stop:step``, same for ``k``), ``parallelism``, and
an optional ``max_points`` cap.

The key table below is the format's one declaration: each key's section,
field, kind and range rule.  One loop reads every section from it, and the
serializer writes its keys.  An absent optional key is not passed on, so it
takes ``RunConfig``'s (or ``SweepSpec``'s) own default.  Unknown sections or
keys, duplicates, bad value types, non-finite numbers (list entries
included), out-of-range values, and a range with more than ``max_points``
values are rejected with their 1-based line number, before anything is
built.  A ``RunConfig`` built in code is checked by ``__post_init__`` for
the rules that tie its fields together, and by the constructors that the
``build_*`` functions call for its values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .diagnostics import MonitorConfig
from .errors import ConfigError, DomainError, NotApplicable, WindowUndefined
from .exponents import ModelParams, bootstrap
from .meshes import CartesianMesh2D, Mesh, RadialShellMesh, State
from .solver import SchemeConfig, initial_state

GEOMETRIES = ("cartesian2d", "radial")
INITIAL_KINDS = ("constant_cosine", "gaussian")
PR_SOURCES = ("bootstrap", "explicit")
_FLOATS = "a list of floats"  # the two list kinds of the key table
_PAIRS = "a list of p:r pairs"


# ---------------------------------------------------------------------------
# document scanner
# ---------------------------------------------------------------------------


def _scan(text: str) -> dict[str, tuple[int, dict[str, tuple[str, int]]]]:
    """Split a document into {section: (line, {key: (raw_value, line)})}."""
    sections: dict[str, tuple[int, dict[str, tuple[str, int]]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise ConfigError("empty section name", lineno)
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", lineno)
            sections[name] = (lineno, {})
            current = sections[name][1]
            continue
        if current is None:
            raise ConfigError(f"entry before any [section]: {line!r}", lineno)
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        key = key.strip()
        if not key:
            raise ConfigError("empty key", lineno)
        if key in current:
            raise ConfigError(f"duplicate key {key!r} in [{name}]", lineno)
        current[key] = (value.strip(), lineno)
    return sections


def _finite(text: str, what: str, line: int) -> float:
    """``text`` as a finite float, or a ConfigError at ``line`` naming ``what``."""
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{what} must be a number, got {text!r}", line) from None
    if not math.isfinite(value):
        raise ConfigError(f"{what} must be finite, got {text!r}", line)
    return value


def _value(key: str, raw: str, line: int, kind, rule, text: str):
    """The value of ``key = raw`` at ``line``, read as ``kind``; each number
    read, a list's entries included, must pass ``rule``."""
    if isinstance(kind, tuple):
        if raw not in kind:
            raise ConfigError(f"{key} must be one of {', '.join(kind)}; got {raw!r}", line)
        return raw
    if kind is int:
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {raw!r}", line) from None
    elif kind is float:
        value = _finite(raw, key, line)
    else:
        return tuple(_entry(key, tok, line, kind, rule, text) for tok in raw.replace(",", " ").split())
    if rule is not None and not rule(value):
        raise ConfigError(f"{key} = {raw} is out of range ({text})", line)
    return value


def _entry(key: str, tok: str, line: int, kind, rule, text: str):
    """One entry of a list value: a number that passes ``rule``, or a pair p:r."""
    what = f"{key} entry"
    if kind is _FLOATS:
        value = _finite(tok, what, line)
        if not rule(value):
            raise ConfigError(f"{what} {tok} is out of range ({text})", line)
        return value
    left, sep, right = tok.partition(":")
    if not sep:
        raise ConfigError(f"{key} entries must look like p:r, got {tok!r}", line)
    return _finite(left, what, line), _finite(right, what, line)


def _take(sec, row, out: dict) -> int | None:
    """Move ``row``'s key out of ``sec = (name, line, entries)`` into ``out``,
    under the row's field; return the key's line, or None when it is absent."""
    key, field, kind, required, rule, text = row
    name, line, entries = sec
    if key not in entries:
        if required:
            raise ConfigError(f"[{name}] is missing required key {key!r}", line)
        return None
    raw, at = entries.pop(key)
    out[field] = _value(key, raw, at, kind, rule, text)
    return at


def _reject_unknown(sec) -> None:
    name, _, entries = sec
    for key, (_, line) in entries.items():
        raise ConfigError(f"unknown key {key!r} in [{name}]", line)


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    # [model]
    chi: float
    k: float
    n: int
    geometry: str
    lx: float | None = None
    ly: float | None = None
    nx: int | None = None
    ny: int | None = None
    radius: float | None = None
    shells: int | None = None
    # [initial]
    kind: str = "constant_cosine"
    amplitude: float = 1.0
    v0_base: float = 1.0
    v0_min: float = 0.1
    # [scheme]
    dt_safety: float = SchemeConfig.dt_safety
    dt_min: float = SchemeConfig.dt_min
    t_end: float = 1.0
    blowup_factor: float = SchemeConfig.blowup_factor
    output_interval: float = 0.1
    # [monitors]
    q_list: tuple[float, ...] = ()
    pr_source: str = "bootstrap"
    pr_pairs: tuple[tuple[float, float], ...] = ()
    theta: float = 0.5
    tolerance_rel: float = MonitorConfig.tolerance_rel

    def __post_init__(self):
        # Values are checked where they enter (module docstring); these rules
        # tie fields together, so no reader or constructor sees them.
        cartesian = (self.lx, self.ly, self.nx, self.ny)
        radial = (self.radius, self.shells)
        problems = []
        if self.geometry not in GEOMETRIES:
            problems.append(f"geometry must be one of {GEOMETRIES}, got {self.geometry!r}")
        elif self.geometry == "cartesian2d":
            if self.n != 2:
                problems.append("cartesian2d geometry requires n = 2")
            if None in cartesian:
                problems.append("cartesian2d geometry requires Lx, Ly, nx, ny")
            if radial != (None, None):
                problems.append("cartesian2d geometry forbids R and m")
        else:
            if None in radial:
                problems.append("radial geometry requires R and m")
            if cartesian != (None,) * 4:
                problems.append("radial geometry forbids Lx, Ly, nx, ny")
        if self.pr_source not in PR_SOURCES:
            problems.append(f"pr_source must be one of {PR_SOURCES}, got {self.pr_source!r}")
        elif self.pr_source == "bootstrap" and self.pr_pairs:
            problems.append("pr_pairs is only valid with pr_source = explicit")
        if problems:
            raise ConfigError("; ".join(problems))


# The key table, in reading order.  A row is (key, field, kind, required,
# rule, rule text); a kind is float, int, a tuple of choices, _FLOATS or
# _PAIRS, and the rule tests each number read.  A section is required when
# one of its keys is.  A geometry's keys follow [model]'s own.
_KEYS = {
    "model": (
        ("chi", "chi", float, True, lambda v: v >= 0, "chi >= 0"),
        ("k", "k", float, True, lambda v: v > 0, "k > 0"),
        ("n", "n", int, True, lambda v: v >= 2, "n >= 2"),
        ("geometry", "geometry", GEOMETRIES, True, None, ""),
    ),
    "initial": (
        ("kind", "kind", INITIAL_KINDS, False, None, ""),
        ("amplitude", "amplitude", float, False, lambda v: v >= 0, "amplitude >= 0"),
        ("v0_base", "v0_base", float, False, None, ""),
        ("v0_min", "v0_min", float, False, lambda v: v > 0, "v0_min > 0"),
    ),
    "scheme": (
        ("dt_safety", "dt_safety", float, False, lambda v: 0 < v <= 1, "0 < dt_safety <= 1"),
        ("dt_min", "dt_min", float, False, lambda v: v > 0, "dt_min > 0"),
        ("t_end", "t_end", float, True, lambda v: v > 0, "t_end > 0"),
        ("blowup_factor", "blowup_factor", float, False, lambda v: v > 1, "blowup_factor > 1"),
        ("output_interval", "output_interval", float, True, lambda v: v > 0, "output_interval > 0"),
    ),
    "monitors": (
        ("q_list", "q_list", _FLOATS, False, lambda v: v >= 1, "q >= 1"),
        ("pr_source", "pr_source", PR_SOURCES, False, None, ""),
        ("theta", "theta", float, False, lambda v: 0 < v < 1, "0 < theta < 1"),
        ("tolerance_rel", "tolerance_rel", float, False, lambda v: v > 0, "tolerance_rel > 0"),
        ("pr_pairs", "pr_pairs", _PAIRS, False, None, ""),
    ),
}
_GEOMETRY_KEYS = {
    "cartesian2d": (
        ("Lx", "lx", float, True, lambda v: v > 0, "Lx > 0"),
        ("Ly", "ly", float, True, lambda v: v > 0, "Ly > 0"),
        ("nx", "nx", int, True, lambda v: v >= 4, "nx >= 4"),
        ("ny", "ny", int, True, lambda v: v >= 4, "ny >= 4"),
    ),
    "radial": (
        ("R", "radius", float, True, lambda v: v > 0, "R > 0"),
        ("m", "shells", int, True, lambda v: v >= 4, "m >= 4"),
    ),
}
_SWEEP_KEYS = (
    ("max_points", "max_points", int, False, lambda v: v >= 1, "max_points >= 1"),
    ("chi_values", "chi_values", _FLOATS, False, lambda v: v >= 0, "chi >= 0"),
    ("k_values", "k_values", _FLOATS, False, lambda v: v > 0, "k > 0"),
    ("parallelism", "parallelism", int, False, lambda v: v >= 1, "parallelism >= 1"),
)


def _read_run(sections) -> dict:
    """``RunConfig``'s keyword arguments from the run sections of a scanned
    document, which it empties; an unknown section left in it is an error."""
    out: dict = {}
    for name, rows in _KEYS.items():
        if name not in sections:
            if any(row[3] for row in rows):
                raise ConfigError(f"missing required section [{name}]")
            continue
        sec = (name, *sections.pop(name))
        lines = {row[1]: _take(sec, row, out) for row in rows}
        # the rules that tie keys together
        if name == "model":
            if out["geometry"] == "cartesian2d" and out["n"] != 2:
                raise ConfigError("cartesian2d geometry requires n = 2", sec[1])
            for row in _GEOMETRY_KEYS[out["geometry"]]:
                _take(sec, row, out)
        elif name == "initial" and out.get("kind", RunConfig.kind) == "constant_cosine":
            if out.get("amplitude", RunConfig.amplitude) > 1:
                why = "constant_cosine amplitude must be <= 1 to keep u nonnegative"
                raise ConfigError(f"{why}, got {out['amplitude']}", lines["amplitude"])
        elif name == "monitors" and (out.get("pr_source") == "explicit") != ("pr_pairs" in out):
            if "pr_pairs" in out:
                raise ConfigError("pr_pairs is only valid with pr_source = explicit", sec[1])
            raise ConfigError("pr_source = explicit requires pr_pairs", sec[1])
        _reject_unknown(sec)
    for name, (line, _) in sections.items():
        raise ConfigError(f"unknown section [{name}]", line)
    return out


def parse_run_config(text: str) -> RunConfig:
    return RunConfig(**_read_run(_scan(text)))


def load_run_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_run_config(fh.read())


def serialize_run_config(cfg: RunConfig) -> str:
    """Canonical text form; parsing it back yields an identical RunConfig."""
    lines = []
    for name, rows in _KEYS.items():
        lines.append(f"[{name}]")
        for key, field, kind, *_ in rows + (_GEOMETRY_KEYS[cfg.geometry] if name == "model" else ()):
            value = getattr(cfg, field)
            if kind is _PAIRS and cfg.pr_source != "explicit":
                continue  # pr_pairs is only valid with pr_source = explicit
            if kind in (_FLOATS, _PAIRS):
                value = ", ".join(":".join(map(repr, v)) if kind is _PAIRS else repr(v) for v in value)
            lines.append(f"{key} = {value!r}" if kind is float else f"{key} = {value}".rstrip())
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# object builders
# ---------------------------------------------------------------------------


def build_mesh(cfg: RunConfig) -> Mesh:
    if cfg.geometry == "cartesian2d":
        return CartesianMesh2D(cfg.lx, cfg.ly, cfg.nx, cfg.ny)
    return RadialShellMesh(cfg.n, cfg.radius, cfg.shells)


def build_params(cfg: RunConfig) -> ModelParams:
    return ModelParams(chi=cfg.chi, k=cfg.k, n=cfg.n)


def build_scheme(cfg: RunConfig) -> SchemeConfig:
    return SchemeConfig(
        t_end=cfg.t_end,
        output_interval=cfg.output_interval,
        dt_safety=cfg.dt_safety,
        dt_min=cfg.dt_min,
        blowup_factor=cfg.blowup_factor,
    )


def build_initial(cfg: RunConfig, mesh: Mesh) -> State:
    return initial_state(mesh, cfg.kind, cfg.amplitude, cfg.v0_base, cfg.v0_min)


def bootstrap_pairs(params: ModelParams, theta: float) -> tuple[tuple[float, float], ...]:
    """(p, r) pairs collected along the bootstrap chain, deduplicated in order."""
    chain = bootstrap(params, theta=theta)
    seen: dict[tuple[float, float], None] = {}
    for step_rec in chain.steps:
        seen.setdefault((step_rec.p, step_rec.r), None)
    return tuple(seen)


def resolve_monitors(cfg: RunConfig, params: ModelParams, missing_ok: bool = False) -> MonitorConfig:
    """Turn the [monitors] section into a validated MonitorConfig.

    With ``pr_source = bootstrap`` the pairs come from the exponent chain for
    (chi, k, n).  Above the threshold no chain exists: that raises unless
    ``missing_ok`` (used by sweeps, which explore both sides of the
    threshold), in which case the pair set is simply empty.  ``theta`` is
    checked whatever the source of the pairs.
    """
    if not 0.0 < cfg.theta < 1.0:  # a RunConfig built in code; a document's is checked when read
        raise ConfigError(f"theta must be in (0, 1), got {cfg.theta}")
    if cfg.pr_source == "bootstrap":
        try:
            if params.chi == 0.0:
                pairs: tuple[tuple[float, float], ...] = ()
            else:
                pairs = bootstrap_pairs(params, cfg.theta)
        except NotApplicable:
            if not missing_ok:
                raise ConfigError(
                    f"pr_source = bootstrap needs chi < chi_star: chi={params.chi}, "
                    f"k={params.k}, n={params.n}"
                ) from None
            pairs = ()
    else:
        pairs = cfg.pr_pairs
    try:
        return MonitorConfig(
            q_list=cfg.q_list, pr_pairs=pairs, tolerance_rel=cfg.tolerance_rel
        ).validate(params.chi, params.k)
    except (DomainError, WindowUndefined) as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# sweep specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    base: RunConfig
    chi_values: tuple[float, ...]
    k_values: tuple[float, ...]
    parallelism: int = 1
    max_points: int = 10_000

    def __post_init__(self):
        if not self.chi_values or not self.k_values:
            raise ConfigError("empty sweep")
        if self.parallelism < 1:
            raise ConfigError(f"parallelism must be >= 1, got {self.parallelism}")
        if len(self.chi_values) * len(self.k_values) > self.max_points:
            raise ConfigError(
                f"sweep has {len(self.chi_values) * len(self.k_values)} points, "
                f"cap is {self.max_points}"
            )

    @property
    def points(self) -> list[tuple[float, float]]:
        """chi-major, k-minor deterministic ordering."""
        return [(chi, k) for chi in self.chi_values for k in self.k_values]


def _read_axis(sec, row, out: dict, fallback: float, max_points: int) -> None:
    """Put one axis into ``out``: its ``*_values`` row, its ``*_range``, or
    else ``(fallback,)``."""
    _take(sec, row, out)
    field, rule, name = row[1], row[4], row[0].removesuffix("_values")
    item = sec[2].pop(f"{name}_range", None)
    if field in out and item is not None:
        raise ConfigError(f"give {name}_values or {name}_range, not both", item[1])
    if item is not None:
        raw, line = item
        parts = raw.split(":")
        if len(parts) != 3:
            raise ConfigError(f"{name}_range must be start:stop:step, got {raw!r}", line)
        start, stop, step_w = (_finite(x, f"each part of {name}_range", line) for x in parts)
        if step_w <= 0 or stop < start:
            raise ConfigError(f"{name}_range needs stop >= start and step > 0", line)
        span = (stop - start) / step_w + 1e-9  # floor(span) + 1 values, refused before they exist
        if not span < max_points:
            raise ConfigError(
                f"{name}_range has more than {max_points} values, cap is {max_points} points", line
            )
        out[field] = tuple(start + i * step_w for i in range(int(math.floor(span)) + 1))
        if not all(math.isfinite(v) and rule(v) for v in out[field]):
            raise ConfigError(f"{name}_range leaves the valid domain", line)
    out.setdefault(field, (fallback,))
    if not out[field]:
        raise ConfigError("empty sweep", sec[1])


def parse_sweep_spec(text: str) -> SweepSpec:
    sections = _scan(text)
    if "sweep" not in sections:
        raise ConfigError("missing required section [sweep]")
    sec = ("sweep", *sections.pop("sweep"))
    base = RunConfig(**_read_run(sections))
    cap, chi, k, parallelism = _SWEEP_KEYS
    out: dict = {}
    _take(sec, cap, out)
    max_points = out.get("max_points", SweepSpec.max_points)
    _read_axis(sec, chi, out, base.chi, max_points)
    _read_axis(sec, k, out, base.k, max_points)
    _take(sec, parallelism, out)
    _reject_unknown(sec)
    return SweepSpec(base=base, **out)


def load_sweep_spec(path) -> SweepSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_sweep_spec(fh.read())


def point_config(spec: SweepSpec, chi: float, k: float) -> RunConfig:
    return replace(spec.base, chi=chi, k=k)
