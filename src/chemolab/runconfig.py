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

Blank lines and lines starting with ``#`` or ``;`` are ignored.  Unknown
sections or keys, duplicates, bad value types, non-finite numbers (list
entries included), and out-of-range values are all rejected with the
offending 1-based line number.  A radial geometry uses ``R`` and ``m``
instead of the four Cartesian keys; explicit monitor pairs use
``pr_source = explicit`` plus ``pr_pairs = p:r, p:r, ...``.

Sweep documents carry the same four sections plus a ``[sweep]`` section with
axis definitions (``chi_values`` or ``chi_range = start:stop:step``, same
for ``k``), ``parallelism``, and an optional ``max_points`` cap.  A range
with more than ``max_points`` values is rejected, with its line number,
before any of them is built.

Each value is checked once, where it enters: the readers below check a
document's values, and the constructors that the ``build_*`` functions call
check those of a ``RunConfig`` built in code.  ``RunConfig`` itself checks
only the rules that tie its fields together.
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


# ---------------------------------------------------------------------------
# document scanner
# ---------------------------------------------------------------------------


def _scan(text: str):
    """Split a document into {section: {key: (raw_value, line)}} plus section lines."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    section_lines: dict[str, int] = {}
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
            sections[name] = {}
            section_lines[name] = lineno
            current = name
            continue
        if current is None:
            raise ConfigError(f"entry before any [section]: {line!r}", lineno)
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        key = key.strip()
        if not key:
            raise ConfigError("empty key", lineno)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in [{current}]", lineno)
        sections[current][key] = (value.strip(), lineno)
    return sections, section_lines


def _finite(text: str, what: str, line: int) -> float:
    """``text`` as a finite float, or a ConfigError at ``line`` naming ``what``."""
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{what} must be a number, got {text!r}", line) from None
    if not math.isfinite(value):
        raise ConfigError(f"{what} must be finite, got {text!r}", line)
    return value


class _Section:
    def __init__(self, name: str, entries: dict[str, tuple[str, int]], line: int):
        self.name = name
        self.entries = dict(entries)
        self.line = line

    def take(self, key: str):
        return self.entries.pop(key, None)

    def _raw(self, key: str, required: bool):
        item = self.take(key)
        if item is None:
            if required:
                raise ConfigError(f"[{self.name}] is missing required key {key!r}", self.line)
            return None
        return item

    def get_float(self, key, required=False, default=None, check=None, describe=""):
        item = self._raw(key, required)
        if item is None:
            return default
        raw, line = item
        value = _finite(raw, key, line)
        if check is not None and not check(value):
            raise ConfigError(f"{key} = {raw} is out of range ({describe})", line)
        return value

    def get_int(self, key, required=False, default=None, check=None, describe=""):
        item = self._raw(key, required)
        if item is None:
            return default
        raw, line = item
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {raw!r}", line) from None
        if check is not None and not check(value):
            raise ConfigError(f"{key} = {raw} is out of range ({describe})", line)
        return value

    def get_choice(self, key, choices, required=False, default=None):
        item = self._raw(key, required)
        if item is None:
            return default
        raw, line = item
        if raw not in choices:
            raise ConfigError(f"{key} must be one of {', '.join(choices)}; got {raw!r}", line)
        return raw

    def get_float_list(self, key, required=False, default=(), check=None, describe=""):
        item = self._raw(key, required)
        if item is None:
            return tuple(default) if default is not None else None
        raw, line = item
        values = []
        for tok in raw.replace(",", " ").split():
            v = _finite(tok, f"{key} entry", line)
            if check is not None and not check(v):
                raise ConfigError(f"{key} entry {tok} is out of range ({describe})", line)
            values.append(v)
        return tuple(values)

    def get_pair_list(self, key, required=False):
        item = self._raw(key, required)
        if item is None:
            return None
        raw, line = item
        pairs = []
        for tok in raw.replace(",", " ").split():
            left, sep, right = tok.partition(":")
            if not sep:
                raise ConfigError(f"{key} entries must look like p:r, got {tok!r}", line)
            what = f"{key} entry"
            pairs.append((_finite(left, what, line), _finite(right, what, line)))
        return tuple(pairs)

    def reject_leftovers(self):
        for key, (_, line) in self.entries.items():
            raise ConfigError(f"unknown key {key!r} in [{self.name}]", line)


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
    dt_safety: float = 0.4
    dt_min: float = 1e-10
    t_end: float = 1.0
    blowup_factor: float = 1e6
    output_interval: float = 0.1
    # [monitors]
    q_list: tuple[float, ...] = ()
    pr_source: str = "bootstrap"
    pr_pairs: tuple[tuple[float, float], ...] = ()
    theta: float = 0.5
    tolerance_rel: float = 0.05

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


def _read_model(sec: _Section) -> dict:
    out = dict(
        chi=sec.get_float("chi", required=True, check=lambda v: v >= 0, describe="chi >= 0"),
        k=sec.get_float("k", required=True, check=lambda v: v > 0, describe="k > 0"),
        n=sec.get_int("n", required=True, check=lambda v: v >= 2, describe="n >= 2"),
        geometry=sec.get_choice("geometry", GEOMETRIES, required=True),
    )
    if out["geometry"] == "cartesian2d":
        if out["n"] != 2:
            raise ConfigError("cartesian2d geometry requires n = 2", sec.line)
        out["lx"] = sec.get_float("Lx", required=True, check=lambda v: v > 0, describe="Lx > 0")
        out["ly"] = sec.get_float("Ly", required=True, check=lambda v: v > 0, describe="Ly > 0")
        out["nx"] = sec.get_int("nx", required=True, check=lambda v: v >= 4, describe="nx >= 4")
        out["ny"] = sec.get_int("ny", required=True, check=lambda v: v >= 4, describe="ny >= 4")
    else:
        out["radius"] = sec.get_float("R", required=True, check=lambda v: v > 0, describe="R > 0")
        out["shells"] = sec.get_int("m", required=True, check=lambda v: v >= 4, describe="m >= 4")
    sec.reject_leftovers()
    return out


def _read_initial(sec: _Section) -> dict:
    out = dict(
        kind=sec.get_choice("kind", INITIAL_KINDS, default="constant_cosine"),
        amplitude=sec.get_float(
            "amplitude", default=1.0, check=lambda v: v >= 0, describe="amplitude >= 0"
        ),
        v0_base=sec.get_float("v0_base", default=1.0),
        v0_min=sec.get_float("v0_min", default=0.1, check=lambda v: v > 0, describe="v0_min > 0"),
    )
    sec.reject_leftovers()
    return out


def _read_scheme(sec: _Section) -> dict:
    out = dict(
        dt_safety=sec.get_float(
            "dt_safety", default=0.4, check=lambda v: 0 < v <= 1, describe="0 < dt_safety <= 1"
        ),
        dt_min=sec.get_float("dt_min", default=1e-10, check=lambda v: v > 0, describe="dt_min > 0"),
        t_end=sec.get_float("t_end", required=True, check=lambda v: v > 0, describe="t_end > 0"),
        blowup_factor=sec.get_float(
            "blowup_factor", default=1e6, check=lambda v: v > 1, describe="blowup_factor > 1"
        ),
        output_interval=sec.get_float(
            "output_interval",
            required=True,
            check=lambda v: v > 0,
            describe="output_interval > 0",
        ),
    )
    sec.reject_leftovers()
    return out


def _read_monitors(sec: _Section) -> dict:
    out = dict(
        q_list=sec.get_float_list("q_list", default=(), check=lambda v: v >= 1, describe="q >= 1"),
        pr_source=sec.get_choice("pr_source", PR_SOURCES, default="bootstrap"),
        theta=sec.get_float(
            "theta", default=0.5, check=lambda v: 0 < v < 1, describe="0 < theta < 1"
        ),
        tolerance_rel=sec.get_float(
            "tolerance_rel", default=0.05, check=lambda v: v > 0, describe="tolerance_rel > 0"
        ),
    )
    pairs_item = sec.get_pair_list("pr_pairs")
    if out["pr_source"] == "explicit":
        if pairs_item is None:
            raise ConfigError("pr_source = explicit requires pr_pairs", sec.line)
        out["pr_pairs"] = pairs_item
    elif pairs_item is not None:
        raise ConfigError("pr_pairs is only valid with pr_source = explicit", sec.line)
    sec.reject_leftovers()
    return out


_RUN_SECTIONS = {
    "model": (_read_model, True),
    "initial": (_read_initial, False),
    "scheme": (_read_scheme, True),
    "monitors": (_read_monitors, False),
}


def _sections_to_kwargs(sections, section_lines, known) -> dict:
    kwargs: dict = {}
    for name, (reader, required) in known.items():
        if name in sections:
            sec = _Section(name, sections.pop(name), section_lines[name])
            kwargs.update(reader(sec))
        elif required:
            raise ConfigError(f"missing required section [{name}]")
    for name in sections:
        raise ConfigError(f"unknown section [{name}]", section_lines[name])
    return kwargs


def parse_run_config(text: str) -> RunConfig:
    sections, section_lines = _scan(text)
    return RunConfig(**_sections_to_kwargs(sections, section_lines, _RUN_SECTIONS))


def load_run_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_run_config(fh.read())


def serialize_run_config(cfg: RunConfig) -> str:
    """Canonical text form; parsing it back yields an identical RunConfig."""
    lines = ["[model]", f"chi = {cfg.chi!r}", f"k = {cfg.k!r}", f"n = {cfg.n}",
             f"geometry = {cfg.geometry}"]
    if cfg.geometry == "cartesian2d":
        lines += [f"Lx = {cfg.lx!r}", f"Ly = {cfg.ly!r}", f"nx = {cfg.nx}", f"ny = {cfg.ny}"]
    else:
        lines += [f"R = {cfg.radius!r}", f"m = {cfg.shells}"]
    lines += [
        "",
        "[initial]",
        f"kind = {cfg.kind}",
        f"amplitude = {cfg.amplitude!r}",
        f"v0_base = {cfg.v0_base!r}",
        f"v0_min = {cfg.v0_min!r}",
        "",
        "[scheme]",
        f"dt_safety = {cfg.dt_safety!r}",
        f"dt_min = {cfg.dt_min!r}",
        f"t_end = {cfg.t_end!r}",
        f"blowup_factor = {cfg.blowup_factor!r}",
        f"output_interval = {cfg.output_interval!r}",
        "",
        "[monitors]",
    ]
    if cfg.q_list:
        lines.append("q_list = " + ", ".join(repr(q) for q in cfg.q_list))
    lines.append(f"pr_source = {cfg.pr_source}")
    if cfg.pr_source == "explicit":
        lines.append("pr_pairs = " + ", ".join(f"{p!r}:{r!r}" for p, r in cfg.pr_pairs))
    lines += [f"theta = {cfg.theta!r}", f"tolerance_rel = {cfg.tolerance_rel!r}", ""]
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


def _read_axis(sec: _Section, name: str, fallback: float, max_points: int, nonneg: bool):
    check = (lambda v: v >= 0) if nonneg else (lambda v: v > 0)
    values = sec.get_float_list(
        f"{name}_values",
        default=None,
        check=check,
        describe=f"{name} {'>= 0' if nonneg else '> 0'}",
    )
    item = sec.take(f"{name}_range")
    if values is not None and item is not None:
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
        values = tuple(start + i * step_w for i in range(int(math.floor(span)) + 1))
        if not all(math.isfinite(v) and check(v) for v in values):
            raise ConfigError(f"{name}_range leaves the valid domain", line)
    if values is None:
        return (fallback,)
    if not values:
        raise ConfigError("empty sweep", sec.line)
    return values


def parse_sweep_spec(text: str) -> SweepSpec:
    sections, section_lines = _scan(text)
    if "sweep" not in sections:
        raise ConfigError("missing required section [sweep]")
    sweep_sec = _Section("sweep", sections.pop("sweep"), section_lines["sweep"])
    base = RunConfig(**_sections_to_kwargs(sections, section_lines, _RUN_SECTIONS))
    max_points = sweep_sec.get_int(
        "max_points", default=10_000, check=lambda v: v >= 1, describe="max_points >= 1"
    )
    chi_values = _read_axis(sweep_sec, "chi", base.chi, max_points, nonneg=True)
    k_values = _read_axis(sweep_sec, "k", base.k, max_points, nonneg=False)
    parallelism = sweep_sec.get_int(
        "parallelism", default=1, check=lambda v: v >= 1, describe="parallelism >= 1"
    )
    sweep_sec.reject_leftovers()
    return SweepSpec(
        base=base,
        chi_values=chi_values,
        k_values=k_values,
        parallelism=parallelism,
        max_points=max_points,
    )


def load_sweep_spec(path) -> SweepSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_sweep_spec(fh.read())


def point_config(spec: SweepSpec, chi: float, k: float) -> RunConfig:
    return replace(spec.base, chi=chi, k=k)
