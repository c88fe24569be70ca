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
serializer writes its keys.  An absent optional key takes ``RunConfig``'s
(or ``SweepSpec``'s) own default.  Each rule has one home: a range rule (an
``errors.Rule``) is in the ``RULES`` of the constructor that owns the value,
in ``solver.INITIAL_RULES`` or is ``exponents.THETA``, and its row points at
it; the tie rules are ``_check_ties`` and ``solver.check_amplitude``.  The
reader calls each rule and rejects a fault at its 1-based line before
anything is built, as it does unknown keys, duplicates, bad or non-finite
values and ranges of over ``max_points`` values.  A ``RunConfig`` built in
code calls the tie rules, and each value meets its rule in the constructor
that its ``build_*`` step calls (theta in ``resolve_monitors``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

from .diagnostics import MonitorConfig
from .errors import ConfigError, DomainError, NotApplicable, Rule, WindowUndefined, check_rules
from .exponents import THETA, ModelParams, bootstrap
from .meshes import CartesianMesh2D, Mesh, RadialShellMesh, State
from .solver import INITIAL_RULES, SchemeConfig, check_amplitude, initial_state

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


def _value(key: str, raw: str, line: int, kind, rule):
    """The value of ``key = raw`` at ``line``, read as ``kind``; each number
    read, a list's entries included, must pass ``rule`` (a ``Rule`` or None)."""
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
        return tuple(_entry(key, tok, line, kind, rule) for tok in raw.replace(",", " ").split())
    if rule is not None and not rule.passes(value):
        raise ConfigError(f"{key} = {raw} is out of range ({rule.text})", line)
    return value


def _entry(key: str, tok: str, line: int, kind, rule):
    """One entry of a list value: a number that passes ``rule``, or a pair p:r."""
    what = f"{key} entry"
    if kind is _FLOATS:
        value = _finite(tok, what, line)
        if not rule.passes(value):
            raise ConfigError(f"{what} {tok} is out of range ({rule.text})", line)
        return value
    left, sep, right = tok.partition(":")
    if not sep:
        raise ConfigError(f"{key} entries must look like p:r, got {tok!r}", line)
    return _finite(left, what, line), _finite(right, what, line)


def _take(sec, row, out: dict) -> int | None:
    """Move ``row``'s key out of ``sec = (name, line, entries)`` into ``out``,
    under the row's field; return the key's line, or None when it is absent."""
    key, field, kind, required, rule = row
    name, line, entries = sec
    if key not in entries:
        if required:
            raise ConfigError(f"[{name}] is missing required key {key!r}", line)
        return None
    raw, at = entries.pop(key)
    out[field] = _value(key, raw, at, kind, rule)
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
    pr_pairs: tuple[tuple[float, float], ...] | None = None  # given exactly with pr_source = explicit
    theta: float = 0.5
    tolerance_rel: float = MonitorConfig.tolerance_rel

    def __post_init__(self):
        # the rules that tie fields together; values meet theirs in build_*
        _value("geometry", self.geometry, None, GEOMETRIES, None)  # the reader's choice rules
        _value("pr_source", self.pr_source, None, PR_SOURCES, None)
        for geometry, rows in _GEOMETRY_KEYS.items():
            mine = geometry == self.geometry
            if any((getattr(self, row[1]) is None) == mine for row in rows):
                keys = ", ".join(row[0] for row in rows)
                raise ConfigError(f"{self.geometry} geometry {'requires' if mine else 'forbids'} {keys}")
        _check_ties(vars(self), {})


def _check_ties(cfg: dict, starts: dict) -> None:
    """The rules that tie two sections' values of ``cfg`` (fields by name)
    together; a document's fault is at its section's line in ``starts``."""
    if cfg["geometry"] == "cartesian2d" and cfg["n"] != 2:
        raise ConfigError("cartesian2d geometry requires n = 2", starts.get("model"))
    if cfg["pr_source"] == "explicit" and cfg["pr_pairs"] is None:
        raise ConfigError("pr_source = explicit requires pr_pairs", starts.get("monitors"))
    if cfg["pr_source"] == "bootstrap" and cfg["pr_pairs"] is not None:
        raise ConfigError("pr_pairs is only valid with pr_source = explicit", starts.get("monitors"))


# The key table, in reading order.  A row is (key, field, kind, required,
# rule); a kind is float, int, a tuple of choices, _FLOATS or _PAIRS, and the
# rule, its owner's, tests each number read.  A section is required when one
# of its keys is.  A geometry's keys follow [model]'s own.
_KEYS = {
    "model": (
        ("chi", "chi", float, True, ModelParams.RULES["chi"]),
        ("k", "k", float, True, ModelParams.RULES["k"]),
        ("n", "n", int, True, ModelParams.RULES["n"]),
        ("geometry", "geometry", GEOMETRIES, True, None),
    ),
    "initial": (
        ("kind", "kind", INITIAL_KINDS, False, None),
        ("amplitude", "amplitude", float, False, INITIAL_RULES["amplitude"]),
        ("v0_base", "v0_base", float, False, None),
        ("v0_min", "v0_min", float, False, INITIAL_RULES["v0_min"]),
    ),
    "scheme": (
        ("dt_safety", "dt_safety", float, False, SchemeConfig.RULES["dt_safety"]),
        ("dt_min", "dt_min", float, False, SchemeConfig.RULES["dt_min"]),
        ("t_end", "t_end", float, True, SchemeConfig.RULES["t_end"]),
        ("blowup_factor", "blowup_factor", float, False, SchemeConfig.RULES["blowup_factor"]),
        ("output_interval", "output_interval", float, True, SchemeConfig.RULES["output_interval"]),
    ),
    "monitors": (
        ("q_list", "q_list", _FLOATS, False, MonitorConfig.RULES["q"]),
        ("pr_source", "pr_source", PR_SOURCES, False, None),
        ("theta", "theta", float, False, THETA),
        ("tolerance_rel", "tolerance_rel", float, False, MonitorConfig.RULES["tolerance_rel"]),
        ("pr_pairs", "pr_pairs", _PAIRS, False, None),
    ),
}
_GEOMETRY_KEYS = {
    "cartesian2d": (
        ("Lx", "lx", float, True, CartesianMesh2D.RULES["lx"]),
        ("Ly", "ly", float, True, CartesianMesh2D.RULES["ly"]),
        ("nx", "nx", int, True, CartesianMesh2D.RULES["nx"]),
        ("ny", "ny", int, True, CartesianMesh2D.RULES["ny"]),
    ),
    "radial": (
        ("R", "radius", float, True, RadialShellMesh.RULES["radius"]),
        ("m", "shells", int, True, RadialShellMesh.RULES["m"]),
    ),
}


def _read_run(sections) -> dict:
    """``RunConfig``'s keyword arguments from the run sections of a scanned
    document, which it empties; an unknown section left in it is an error."""
    out: dict = {}
    starts = {name: line for name, (line, _) in sections.items()}
    for name, rows in _KEYS.items():
        if name not in sections:
            if any(row[3] for row in rows):
                raise ConfigError(f"missing required section [{name}]")
            continue
        sec = (name, *sections.pop(name))
        lines = {row[1]: _take(sec, row, out) for row in rows}
        if name == "model":
            for row in _GEOMETRY_KEYS[out["geometry"]]:
                _take(sec, row, out)
        elif name == "initial":  # the rule that ties amplitude to kind
            error = partial(ConfigError, line=lines["amplitude"])
            check_amplitude(out.get("kind", RunConfig.kind), out.get("amplitude", RunConfig.amplitude), error)
        _reject_unknown(sec)
    for name, (line, _) in sections.items():
        raise ConfigError(f"unknown section [{name}]", line)
    _check_ties({"pr_source": RunConfig.pr_source, "pr_pairs": None, **out}, starts)
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
            if value is None:
                continue  # pr_pairs without pr_source = explicit
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
    THETA.check(cfg.theta, error=ConfigError)
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

    RULES = {
        "max_points": Rule(lambda v: v >= 1, "max_points >= 1", int),
        "parallelism": Rule(lambda v: v >= 1, "parallelism >= 1", int),
    }

    def __post_init__(self):
        if not self.chi_values or not self.k_values:
            raise ConfigError("empty sweep")
        check_rules(self.RULES, vars(self), ConfigError)
        ModelParams.RULES["chi"].check(*self.chi_values, error=ConfigError)
        ModelParams.RULES["k"].check(*self.k_values, error=ConfigError)
        if len(self.chi_values) * len(self.k_values) > self.max_points:
            raise ConfigError(
                f"sweep has {len(self.chi_values) * len(self.k_values)} points, "
                f"cap is {self.max_points}"
            )

    @property
    def points(self) -> list[tuple[float, float]]:
        """chi-major, k-minor deterministic ordering."""
        return [(chi, k) for chi in self.chi_values for k in self.k_values]


_SWEEP_KEYS = (
    ("max_points", "max_points", int, False, SweepSpec.RULES["max_points"]),
    ("chi_values", "chi_values", _FLOATS, False, ModelParams.RULES["chi"]),
    ("k_values", "k_values", _FLOATS, False, ModelParams.RULES["k"]),
    ("parallelism", "parallelism", int, False, SweepSpec.RULES["parallelism"]),
)


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
        if not all(map(rule.passes, out[field])):
            raise ConfigError(f"{name}_range leaves the valid domain", line)
    out.setdefault(field, (fallback,))


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
    try:
        return SweepSpec(base=base, **out)
    except ConfigError as exc:  # an empty axis, or more points than max_points
        raise ConfigError(str(exc), sec[1]) from None


def load_sweep_spec(path) -> SweepSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_sweep_spec(fh.read())


def point_config(spec: SweepSpec, chi: float, k: float) -> RunConfig:
    return replace(spec.base, chi=chi, k=k)
