"""Configuration parsing, serialization round-trips, and the CLI surface."""

import ast
import dataclasses
import io
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import chemolab.cli as cli
import chemolab.meshes as meshes
from chemolab.cli import CSV_CHUNK_ROWS, main, timeseries_csv
from chemolab.diagnostics import MonitorConfig, TimeSeries
from chemolab.errors import ConfigError, DomainError
from chemolab.exponents import THETA, ModelParams, chi_star, is_below_threshold
from chemolab.runconfig import (
    _GEOMETRY_KEYS,
    _KEYS,
    _SWEEP_KEYS,
    RunConfig,
    SweepSpec,
    build_initial,
    build_mesh,
    build_params,
    build_scheme,
    parse_run_config,
    parse_sweep_spec,
    resolve_monitors,
    serialize_run_config,
)
from chemolab.solver import INITIAL_RULES, SchemeConfig

CART_CONFIG = """\
[model]
chi = 0.5
k = 1
n = 2
geometry = cartesian2d
Lx = 2
Ly = 2
nx = 16
ny = 16

[initial]
kind = gaussian
amplitude = 1.5
v0_base = 1
v0_min = 0.1

[scheme]
dt_safety = 0.4
dt_min = 1e-10
t_end = 0.5
blowup_factor = 1e6
output_interval = 0.1

[monitors]
q_list = 1, 2
pr_source = bootstrap
theta = 0.5
tolerance_rel = 0.05
"""

RADIAL_CONFIG = """\
[model]
chi = 0.5
k = 1
n = 3
geometry = radial
R = 1
m = 16

[scheme]
t_end = 0.4
output_interval = 0.1

[monitors]
pr_source = explicit
pr_pairs = 2.5:0.75
"""

# Every key at a value other than its default; the radial form swaps the
# four Cartesian keys for R and m.
FULL_CART = """\
[model]
chi = 0.25
k = 1.5
n = 2
geometry = cartesian2d
Lx = 3
Ly = 1.5
nx = 12
ny = 10

[initial]
kind = gaussian
amplitude = 0.75
v0_base = 2
v0_min = 0.25

[scheme]
dt_safety = 0.3
dt_min = 1e-9
t_end = 0.7
blowup_factor = 1e5
output_interval = 0.05

[monitors]
q_list = 1, 3
pr_source = explicit
theta = 0.25
tolerance_rel = 0.1
pr_pairs = 2.5:0.75, 2:0.5
"""

FULL_RADIAL = FULL_CART.replace(
    "n = 2\ngeometry = cartesian2d\nLx = 3\nLy = 1.5\nnx = 12\nny = 10",
    "n = 3\ngeometry = radial\nR = 1.5\nm = 12",
)

FULL_SWEEP_TAIL = """\

[sweep]
max_points = 500
chi_values = 0.2, 0.4
k_values = 1, 2
parallelism = 2
"""

# A value just outside each range rule, one per range-checked key.
RANGE_FAULTS = [
    ("chi", "-1e-12"), ("k", "0"), ("n", "1"), ("Lx", "0"), ("Ly", "-1e-12"),
    ("nx", "3"), ("ny", "3"), ("R", "0"), ("m", "3"), ("amplitude", "-1e-12"),
    ("v0_min", "0"), ("dt_safety", "1.0000000000000002"), ("dt_min", "0"), ("t_end", "0"),
    ("blowup_factor", "1"), ("output_interval", "0"), ("q_list", "1, 0.99"), ("theta", "1"),
    ("tolerance_rel", "0"), ("max_points", "0"), ("parallelism", "0"),
    ("chi_values", "0.2, -1e-12"), ("k_values", "1, 0"),
]
# The in-range neighbour of each, or a small value inside an open bound; the
# sweep's max_points is its own point count, the least that also passes the cap.
IN_RANGE = {
    "chi": "0", "k": "1e-12", "n": "2", "Lx": "1e-12", "Ly": "1e-12", "nx": "4", "ny": "4", "R": "1e-12",
    "m": "4", "amplitude": "0", "v0_min": "1e-12", "dt_safety": "1", "dt_min": "1e-12", "t_end": "1e-12",
    "blowup_factor": "1.0000000000000002", "output_interval": "1e-12", "q_list": "1, 1",
    "theta": "0.9999999999999999", "tolerance_rel": "1e-12", "max_points": "4", "parallelism": "1",
    "chi_values": "0.2, 0", "k_values": "1, 1e-12",
}
SWEEP_KEYS = ("max_points", "parallelism", "chi_values", "k_values")
RUN_ROWS = [row for rows in (*_KEYS.values(), *_GEOMETRY_KEYS.values()) for row in rows]
FIELDS = {row[0]: row[1] for row in RUN_ROWS}


def document(key, raw):
    """FULL_CART (FULL_RADIAL for R and m), with the sweep tail for a sweep
    key, where ``key = raw`` replaces the key's line; and that line's number."""
    text = (FULL_RADIAL if key in ("R", "m") else FULL_CART) + (FULL_SWEEP_TAIL if key in SWEEP_KEYS else "")
    lines = text.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith(f"{key} = "))
    lines[at] = f"{key} = {raw}"
    return "\n".join(lines) + "\n", at + 1


def code_built(key, raw):
    """FULL_CART, or FULL_RADIAL for R, m and n, with the field of run key
    ``key`` set to the value ``raw`` in code, where no reader rule sees it."""
    cfg = parse_run_config(FULL_RADIAL if key in ("R", "m", "n") else FULL_CART)
    return dataclasses.replace(cfg, **{FIELDS[key]: ast.literal_eval(raw)})

README = Path(__file__).resolve().parent.parent / "README.md"


class TestParsing:
    def test_cartesian_document(self):
        cfg = parse_run_config(CART_CONFIG)
        assert cfg.chi == 0.5 and cfg.k == 1.0 and cfg.n == 2
        assert cfg.geometry == "cartesian2d" and cfg.nx == 16
        assert cfg.kind == "gaussian" and cfg.amplitude == 1.5
        assert cfg.q_list == (1.0, 2.0)
        assert cfg.pr_source == "bootstrap"

    def test_radial_document_with_defaults(self):
        cfg = parse_run_config(RADIAL_CONFIG)
        assert cfg.geometry == "radial" and cfg.radius == 1.0 and cfg.shells == 16
        assert cfg.kind == "constant_cosine"  # [initial] omitted entirely
        assert cfg.dt_safety == 0.4 and cfg.blowup_factor == 1e6
        assert cfg.pr_pairs == ((2.5, 0.75),)

    def test_comments_and_blanks_ignored(self):
        text = "# leading comment\n; another\n\n" + CART_CONFIG
        assert parse_run_config(text) == parse_run_config(CART_CONFIG)

    def test_unknown_key_reports_line(self):
        text = CART_CONFIG.replace("ny = 16", "ny = 16\nnz = 4")
        with pytest.raises(ConfigError, match="line 10.*nz"):
            parse_run_config(text)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown section \[plotting\]"):
            parse_run_config(CART_CONFIG + "\n[plotting]\nstyle = fancy\n")

    def test_duplicate_key_reports_line(self):
        text = CART_CONFIG.replace("k = 1", "k = 1\nk = 2")
        with pytest.raises(ConfigError, match="line 4.*duplicate"):
            parse_run_config(text)

    def test_bad_number_reports_line(self):
        text = CART_CONFIG.replace("chi = 0.5", "chi = fast")
        with pytest.raises(ConfigError, match="line 2.*must be a number"):
            parse_run_config(text)

    def test_missing_required_key(self):
        text = CART_CONFIG.replace("t_end = 0.5\n", "")
        with pytest.raises(ConfigError, match="missing required key 't_end'"):
            parse_run_config(text)

    def test_missing_required_section(self):
        text = CART_CONFIG.replace("[scheme]", "[schema]")
        with pytest.raises(ConfigError):
            parse_run_config(text)

    def test_geometry_cross_checks(self):
        with pytest.raises(ConfigError, match="cartesian2d geometry requires n = 2"):
            parse_run_config(CART_CONFIG.replace("n = 2", "n = 3"))
        with pytest.raises(ConfigError, match="unknown key 'Lx'"):
            parse_run_config(RADIAL_CONFIG.replace("R = 1", "R = 1\nLx = 2"))

    def test_out_of_range_value_reports_line(self):
        with pytest.raises(ConfigError, match="line 8.*out of range"):
            parse_run_config(CART_CONFIG.replace("nx = 16", "nx = 2"))

    @pytest.mark.parametrize("key, bad", RANGE_FAULTS)
    def test_each_range_rule_reports_its_keys_line(self, key, bad):
        parse = parse_sweep_spec if key in SWEEP_KEYS else parse_run_config
        text, line = document(key, bad)
        with pytest.raises(ConfigError, match="out of range") as err:
            parse(text)
        assert err.value.line == line and key in str(err.value)
        parse(document(key, IN_RANGE[key])[0])

    @pytest.mark.parametrize("kind", ["kind = constant_cosine\n", ""])
    def test_constant_cosine_amplitude_above_one_reports_its_line(self, kind, tmp_path, capsys):
        # the kind given, or left to its default
        text = CART_CONFIG.replace("kind = gaussian\n", kind)
        line = text.splitlines().index("amplitude = 1.5") + 1
        with pytest.raises(ConfigError, match="constant_cosine amplitude must be <= 1") as err:
            parse_run_config(text)
        assert err.value.line == line
        path = write_config(tmp_path, text)
        assert main(["run", str(path), "--outdir", str(tmp_path / "out")]) == 1
        assert f"line {line}: constant_cosine amplitude" in capsys.readouterr().err
        assert parse_run_config(text.replace("amplitude = 1.5", "amplitude = 1")).amplitude == 1.0

    def test_readme_config_examples_parse_as_written(self):
        run_block, sweep_block = re.findall(r"```ini\n(.*?)```", README.read_text("utf-8"), re.S)
        cfg = parse_run_config(run_block)
        assert cfg.geometry == "cartesian2d" and cfg.kind == "gaussian" and cfg.q_list == (1.0, 2.0)
        spec = parse_sweep_spec(run_block + "\n" + sweep_block)
        assert spec.base == cfg and len(spec.points) == 9 and spec.parallelism == 4

    def test_pr_pairs_only_with_explicit_source(self):
        text = CART_CONFIG.replace("pr_source = bootstrap", "pr_source = bootstrap\npr_pairs = 2:0.5")
        with pytest.raises(ConfigError, match="pr_pairs"):
            parse_run_config(text)
        text2 = RADIAL_CONFIG.replace("pr_pairs = 2.5:0.75\n", "")
        with pytest.raises(ConfigError, match="explicit requires pr_pairs"):
            parse_run_config(text2)

    def test_entry_outside_section(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_run_config("chi = 0.5\n" + CART_CONFIG)


class TestRoundTrip:
    @pytest.mark.parametrize("text", [CART_CONFIG, RADIAL_CONFIG, FULL_CART, FULL_RADIAL])
    def test_serialize_parse_identity(self, text):
        cfg = parse_run_config(text)
        assert parse_run_config(serialize_run_config(cfg)) == cfg

    @pytest.mark.parametrize("text", [FULL_CART, FULL_RADIAL])
    def test_full_documents_set_every_key_off_its_default(self, text):
        cfg = parse_run_config(text)
        other_geometry = {"cartesian2d": {"radius", "shells"}, "radial": {"lx", "ly", "nx", "ny"}}
        fields = [f for f in dataclasses.fields(RunConfig) if f.name not in other_geometry[cfg.geometry]]
        assert all(getattr(cfg, f.name) != f.default for f in fields)
        assert cfg.pr_pairs == ((2.5, 0.75), (2.0, 0.5)) and cfg.q_list == (1.0, 3.0)

    def test_every_field_has_exactly_one_table_row(self):
        assert sorted(row[1] for row in RUN_ROWS) == sorted(f.name for f in dataclasses.fields(RunConfig))
        sweep_fields = sorted(f.name for f in dataclasses.fields(SweepSpec) if f.name != "base")
        assert sorted(row[1] for row in _SWEEP_KEYS) == sweep_fields
        keys = [row[0] for row in RUN_ROWS + list(_SWEEP_KEYS)]
        assert len(keys) == len(set(keys))

    def test_each_range_rule_is_the_one_its_constructor_checks(self):
        # a rule written into the table again would be a new object
        owned = {
            **{field: ModelParams.RULES[field] for field in ("chi", "k", "n")},
            **meshes.CartesianMesh2D.RULES,
            "radius": meshes.RadialShellMesh.RULES["radius"],
            "shells": meshes.RadialShellMesh.RULES["m"],
            **INITIAL_RULES,
            **SchemeConfig.RULES,
            "q_list": MonitorConfig.RULES["q"],
            "theta": THETA,
            "tolerance_rel": MonitorConfig.RULES["tolerance_rel"],
            **SweepSpec.RULES,
            "chi_values": ModelParams.RULES["chi"],
            "k_values": ModelParams.RULES["k"],
        }
        ruled = {row[1]: row[4] for row in RUN_ROWS + list(_SWEEP_KEYS) if row[4] is not None}
        assert ruled.keys() == owned.keys()
        assert all(ruled[field] is owned[field] for field in owned)
        assert meshes.RadialShellMesh.RULES["n_dim"] is ModelParams.RULES["n"]

    def test_awkward_floats_survive(self):
        cfg = parse_run_config(CART_CONFIG.replace("chi = 0.5", "chi = 0.1234567890123456"))
        assert parse_run_config(serialize_run_config(cfg)) == cfg


class TestResolveMonitors:
    def test_bootstrap_pairs_for_2d(self):
        cfg = parse_run_config(CART_CONFIG)
        monitors = resolve_monitors(cfg, build_params(cfg))
        assert monitors.pr_pairs == ((2.5, 0.75),)
        assert monitors.v_orders == (1.75,)

    def test_above_threshold_raises_unless_tolerated(self):
        cfg = parse_run_config(CART_CONFIG.replace("chi = 0.5", "chi = 1.2"))
        with pytest.raises(ConfigError, match="chi < chi_star"):
            resolve_monitors(cfg, build_params(cfg))
        monitors = resolve_monitors(cfg, build_params(cfg), missing_ok=True)
        assert monitors.pr_pairs == ()

    def test_explicit_pairs_validated(self):
        bad = RADIAL_CONFIG.replace("pr_pairs = 2.5:0.75", "pr_pairs = 2.5:3.5")
        cfg = parse_run_config(bad)
        with pytest.raises(ConfigError, match="admissible window"):
            resolve_monitors(cfg, build_params(cfg))
        # p beyond p_max has no window at all; still a config error
        no_window = RADIAL_CONFIG.replace("pr_pairs = 2.5:0.75", "pr_pairs = 6.5:0.75")
        cfg2 = parse_run_config(no_window)
        with pytest.raises(ConfigError, match="no admissible window"):
            resolve_monitors(cfg2, build_params(cfg2))


SWEEP_TAIL = """\

[sweep]
chi_values = 0.4, 0.8
k_range = 1:2:0.5
parallelism = 2
"""


class TestSweepSpec:
    def test_values_and_range_axes(self):
        spec = parse_sweep_spec(CART_CONFIG + SWEEP_TAIL)
        assert spec.chi_values == (0.4, 0.8)
        assert spec.k_values == pytest.approx((1.0, 1.5, 2.0))
        assert spec.parallelism == 2
        assert spec.points[:3] == [(0.4, 1.0), (0.4, 1.5), (0.4, 2.0)]

    def test_missing_axis_falls_back_to_base_value(self):
        spec = parse_sweep_spec(CART_CONFIG + "\n[sweep]\nchi_values = 0.3, 0.6\n")
        assert spec.k_values == (1.0,)

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError, match="empty sweep"):
            parse_sweep_spec(CART_CONFIG + "\n[sweep]\nchi_values =\n")

    def test_both_axis_forms_rejected(self):
        text = CART_CONFIG + "\n[sweep]\nchi_values = 0.4\nchi_range = 0.1:0.9:0.1\n"
        with pytest.raises(ConfigError, match="not both"):
            parse_sweep_spec(text)

    def test_point_cap(self):
        text = CART_CONFIG + "\n[sweep]\nchi_range = 0:1:0.01\nk_range = 0.1:10:0.1\nmax_points = 50\n"
        with pytest.raises(ConfigError, match="cap"):
            parse_sweep_spec(text)
        # each axis under the cap, the grid over it
        text = CART_CONFIG + "\n[sweep]\nchi_values = 0.1, 0.2, 0.3\nk_values = 1, 2\nmax_points = 5\n"
        with pytest.raises(ConfigError, match="sweep has 6 points, cap is 5"):
            parse_sweep_spec(text)

    def test_oversize_range_refused_before_it_is_built(self):
        text = CART_CONFIG + "\n[sweep]\nchi_range = 0:1:1e-6\n"  # 10^6 + 1 values
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="cap"):
                parse_sweep_spec(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


DIRECT_CART = dict(
    chi=0.5, k=1.0, n=2, geometry="cartesian2d", lx=2.0, ly=2.0, nx=8, ny=8,
    t_end=0.2, output_interval=0.1,
)
DIRECT_RADIAL = dict(chi=0.5, k=1.0, n=3, geometry="radial", radius=1.0, shells=8,
                     t_end=0.2, output_interval=0.1)


def _initial(cfg):
    return build_initial(cfg, build_mesh(cfg))


def _monitors(cfg):
    return resolve_monitors(cfg, build_params(cfg))


# The step that checks a run key's value in a RunConfig built in code: the
# builder whose constructor owns the key's range rule, or resolve_monitors.
BUILDERS = {
    **dict.fromkeys(("chi", "k", "n"), build_params),
    **dict.fromkeys(("Lx", "Ly", "nx", "ny", "R", "m"), build_mesh),
    **dict.fromkeys(("amplitude", "v0_min"), _initial),
    **dict.fromkeys(("dt_safety", "dt_min", "t_end", "blowup_factor", "output_interval"), build_scheme),
    **dict.fromkeys(("q_list", "theta", "tolerance_rel"), _monitors),
}


class TestDirectRunConfig:
    """A RunConfig built in code checks the rules that tie its fields
    together, with the functions that the reader calls for them.  Each value
    is checked by the constructor that its build_* step calls (monitor values
    by resolve_monitors), with the rule that the key table points at, so a
    value fails in code exactly where it fails in a document."""

    @pytest.mark.parametrize(
        "base, fault",
        [
            (DIRECT_CART, dict(geometry="spherical")),
            (DIRECT_CART, dict(n=3)),
            (DIRECT_CART, dict(nx=None)),
            (DIRECT_CART, dict(shells=8)),
            (DIRECT_RADIAL, dict(radius=None)),
            (DIRECT_RADIAL, dict(lx=2.0)),
            (DIRECT_CART, dict(pr_source="both")),
            (DIRECT_CART, dict(pr_pairs=((2.0, 0.5),))),
            (DIRECT_CART, dict(pr_source="explicit")),
        ],
    )
    def test_cross_field_fault_is_a_config_error(self, base, fault):
        with pytest.raises(ConfigError):
            RunConfig(**{**base, **fault})

    @pytest.mark.parametrize(
        "key, bad", [f for f in RANGE_FAULTS if BUILDERS.get(f[0]) not in (None, _monitors)]
    )
    def test_out_of_range_value_fails_in_its_builder(self, key, bad):
        rule = next(row[4] for row in RUN_ROWS if row[0] == key)
        with pytest.raises(DomainError, match=re.escape(rule.text)):
            BUILDERS[key](code_built(key, bad))
        BUILDERS[key](parse_run_config(document(key, IN_RANGE[key])[0]))

    @pytest.mark.parametrize(
        "base, fault, build",
        [(DIRECT_CART, dict(chi=math.inf), build_params), (DIRECT_CART, dict(kind="square"), _initial)],
    )
    def test_non_finite_or_unknown_value_fails_in_its_builder(self, base, fault, build):
        with pytest.raises(DomainError):
            build(RunConfig(**{**base, **fault}))

    @pytest.mark.parametrize("key, bad", [f for f in RANGE_FAULTS if BUILDERS.get(f[0]) is _monitors])
    def test_out_of_range_monitor_value_is_a_config_error(self, key, bad):
        # FULL_CART's pairs are explicit: theta is checked where no chain reads it
        rule = next(row[4] for row in RUN_ROWS if row[0] == key)
        with pytest.raises(ConfigError, match=re.escape(rule.text)):
            _monitors(code_built(key, bad))
        _monitors(parse_run_config(document(key, IN_RANGE[key])[0]))

    @pytest.mark.parametrize("fault", [dict(theta=1.0), dict(theta=0.0, chi=0.0)])
    def test_theta_is_checked_with_or_without_a_chain(self, fault):
        with pytest.raises(ConfigError, match=re.escape(THETA.text)):
            _monitors(RunConfig(**{**DIRECT_CART, **fault}))

    @pytest.mark.parametrize("key", ["max_points", "parallelism"])
    def test_out_of_range_sweep_value_fails_in_sweep_spec(self, key):
        # SweepSpec checks max_points >= 1 before its cap on the point count
        spec = parse_sweep_spec(FULL_CART + FULL_SWEEP_TAIL)
        with pytest.raises(ConfigError, match=f"^need an integer {key} >= 1, got 0$"):
            dataclasses.replace(spec, **{key: 0})
        dataclasses.replace(spec, **{key: int(IN_RANGE[key])})

    @pytest.mark.parametrize("axis", ["chi", "k"])
    def test_grid_value_outside_the_model_domain_fails_in_sweep_spec(self, axis):
        # a grid built in code is refused where it is built, not by the
        # sweep planner, whose error rows ask chi_star of every point
        spec = parse_sweep_spec(FULL_CART + FULL_SWEEP_TAIL)
        rule = ModelParams.RULES[axis]
        with pytest.raises(ConfigError, match=f"^{re.escape(f'need a finite {rule.text}, got -1.0')}$"):
            dataclasses.replace(spec, **{f"{axis}_values": (0.5, -1.0)})
        dataclasses.replace(spec, **{f"{axis}_values": (0.5, 1.0)})


class TestExponentsCli:
    def test_worked_chain(self, capsys, tmp_path):
        csv_path = tmp_path / "chain.csv"
        code = main(["exponents", "--chi", "0.4", "--k", "1", "--n", "6", "--csv", str(csv_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert f"{math.sqrt(1.0 / 3.0):.17g}" in out  # chi_star(1, 6)
        assert "applicable" in out
        assert "terminated after 3 step(s)" in out
        rows = csv_path.read_text().strip().splitlines()
        assert rows[0] == "l,p,r,q,upper_used"
        ps = [float(r.split(",")[1]) for r in rows[1:]]
        assert ps == pytest.approx([1.5, 2.75, 4.5], abs=1e-12)

    def test_not_applicable_exit_code(self, capsys):
        code = main(["exponents", "--chi", "1.2", "--k", "1", "--n", "2"])
        assert code == 2
        assert "not applicable" in capsys.readouterr().out

    def test_low_k_high_chi_is_applicable(self, capsys):
        code = main(["exponents", "--chi", "0.9", "--k", "0.05", "--n", "4"])
        assert code == 0
        assert "is below the threshold" in capsys.readouterr().out

    def test_malformed_input_exit_one(self, capsys):
        assert main(["exponents", "--chi", "0.4", "--k", "-1", "--n", "6"]) == 1
        assert main(["exponents", "--chi", "abc", "--k", "1", "--n", "6"]) == 1
        assert main(["exponents"]) == 1


def doubled_decay(euler_update):
    """``euler_update`` with the v-update k lap v - 2 v + u at k = 1."""

    def binder(rates, uv, k):
        update = euler_update(rates, uv, k)

        def step(dt):
            np.subtract(rates[1], uv[1], rates[1])  # k = 1: one more -v
            update(dt)

        return step

    return binder


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


STEADY_CONFIG = """\
[model]
chi = 0.5
k = 1
n = 2
geometry = cartesian2d
Lx = 1
Ly = 1
nx = 8
ny = 8

[initial]
kind = constant_cosine
amplitude = 0
v0_base = 1

[scheme]
t_end = 0.3
output_interval = 0.1

[monitors]
q_list = 2
pr_source = explicit
pr_pairs = 2:0.5
"""


class TestRunCli:
    def test_timeseries_csv_writes_each_value_as_17_significant_digits(self):
        # the bytes of each value, special values and numpy scalars included
        cases = [
            (math.nan, "nan"), (-math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"),
            (-0.0, "-0"), (0.0, "0"), (5e-324, "4.9406564584124654e-324"),
            (-2.2250738585072009e-308, "-2.2250738585072009e-308"), (1e16, "10000000000000000"),
            (0.1, "0.10000000000000001"), (1.0 / 3.0, "0.33333333333333331"),
            (np.float64(-0.0), "-0"), (np.float64(math.nan), "nan"),
            (np.float64(2.0**-1074), "4.9406564584124654e-324"),
        ]
        series = TimeSeries(MonitorConfig(q_list=(1.0,), pr_pairs=((2.5, 0.75),)))
        for x, _ in cases:
            series.values.extend([x] * 8)
        out = io.StringIO()
        timeseries_csv(series, out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "t,mass,min_v,max_u,u_Lq_1,E_2.5_0.75,D_2.5_0.75,v_L1.75"
        assert lines[1:] == [",".join([text] * 8) for _, text in cases]

    @pytest.mark.parametrize("rows", [1, CSV_CHUNK_ROWS, 3 * CSV_CHUNK_ROWS + 17])
    def test_timeseries_csv_in_chunks_writes_the_bytes_of_one_string(self, rows, rng):
        series = TimeSeries(MonitorConfig(q_list=(1.0, 2.0), pr_pairs=((2.5, 0.75),)))
        width = series.width
        values = rng.standard_normal(rows * width) * 10.0 ** rng.integers(-320, 300, rows * width)
        values[::11] = np.resize([math.nan, -0.0, -math.inf, 0.1], values[::11].size)
        series.values.extend(values.tolist())
        out = io.StringIO()
        timeseries_csv(series, out)
        flat = series.values.tolist()
        lines = [",".join(series.names)]
        lines += [",".join([f"{x:.17g}" for x in flat[i : i + width]]) for i in range(0, len(flat), width)]
        assert out.getvalue() == "\n".join(lines) + "\n"

    def test_steady_state_run_exits_zero(self, tmp_path, capsys):
        # amplitude 0 means u = 0: E and D vanish, checks pass on flat zeros
        cfg = write_config(tmp_path, STEADY_CONFIG)
        code = main(["run", str(cfg), "--outdir", str(tmp_path / "out")])
        assert code == 0
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "status: completed" in report
        assert "min_v_floor:" in report and "dissipation:" in report
        assert "\nmass_drift: 0\n" in report
        csv_text = (tmp_path / "out" / "timeseries.csv").read_text()
        lines = csv_text.splitlines()
        assert lines[0] == "t,mass,min_v,max_u,u_Lq_2,E_2_0.5,D_2_0.5,v_L1.5"
        # u = v = 1 is the exact steady state: every column after t is flat
        assert all(line.split(",")[1:] == lines[1].split(",")[1:] for line in lines[1:])

    def test_smooth_subthreshold_run_all_checks_pass(self, tmp_path):
        cfg = write_config(tmp_path, CART_CONFIG)
        code = main(["run", str(cfg), "--outdir", str(tmp_path / "out")])
        assert code == 0
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "gronwall: pass" in report
        assert "dissipation: pass" in report
        assert "min_v_floor: pass" in report

    def test_report_gives_the_mass_drift_of_the_timeseries(self, tmp_path):
        cfg = write_config(tmp_path, CART_CONFIG)
        assert main(["run", str(cfg), "--outdir", str(tmp_path / "out")]) == 0
        report = dict(line.split(": ", 1) for line in (tmp_path / "out" / "report.txt").read_text().splitlines())
        lines = (tmp_path / "out" / "timeseries.csv").read_text().splitlines()
        mass = [float(line.split(",")[1]) for line in lines[1:]]
        drift = max(abs(m - mass[0]) for m in mass) / mass[0]
        assert report["mass_drift"] == f"{drift:.17g}"
        assert 0.0 < drift <= 1e-12

    def test_zero_mass_run_reports_zero_drift(self, tmp_path):
        # a Gaussian of amplitude 0 is u = 0: every mass is 0, and v decays
        # at the factor 1 - dt per step, the floor the check tests
        cfg = write_config(tmp_path, CART_CONFIG.replace("amplitude = 1.5", "amplitude = 0"))
        assert main(["run", str(cfg), "--outdir", str(tmp_path / "out")]) == 0
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "status: completed" in report and "\nmass_drift: 0\n" in report
        assert "\nmin_v_floor: pass\n" in report

    def test_report_gives_the_gap_to_the_continuum_floor(self, tmp_path):
        # u = 0: min v is v0 times the floor factor, to rounding
        cfg = write_config(tmp_path, CART_CONFIG.replace("amplitude = 1.5", "amplitude = 0"))
        assert main(["run", str(cfg), "--outdir", str(tmp_path / "out")]) == 0
        report = dict(line.split(": ", 1) for line in (tmp_path / "out" / "report.txt").read_text().splitlines())
        lines = (tmp_path / "out" / "timeseries.csv").read_text().splitlines()
        t, min_v = (float(x) for x in np.array(lines[-1].split(","))[[0, 2]])
        gap = float(report["min_v_floor_gap"])
        assert t == 0.5 and 0.0 < gap < 1e-3
        assert min_v == pytest.approx(math.exp(-t) - gap, rel=1e-13)

    def test_a_scheme_that_decays_v_too_fast_fails_the_floor(self, tmp_path, monkeypatch):
        # the v-update k lap v - 2 v + u: v falls below the product of (1 - dt)
        monkeypatch.setattr(meshes, "euler_update", doubled_decay(meshes.euler_update))
        cfg = write_config(tmp_path, CART_CONFIG.replace("amplitude = 1.5", "amplitude = 0"))
        assert main(["run", str(cfg), "--outdir", str(tmp_path / "out")]) == 3
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "status: completed" in report and "\nmin_v_floor: fail\n" in report

    def test_zero_chi_heat_decay(self, tmp_path):
        text = CART_CONFIG.replace("chi = 0.5", "chi = 0").replace("q_list = 1, 2", "q_list = 1")
        cfg = write_config(tmp_path, text)
        code = main(["run", str(cfg), "--outdir", str(tmp_path / "out")])
        assert code == 0
        lines = (tmp_path / "out" / "timeseries.csv").read_text().strip().splitlines()
        cols = lines[0].split(",")
        max_u = [float(line.split(",")[cols.index("max_u")]) for line in lines[1:]]
        assert all(a >= b * (1.0 - 1e-13) for a, b in zip(max_u, max_u[1:]))
        mass = [float(line.split(",")[cols.index("mass")]) for line in lines[1:]]
        assert all(m == pytest.approx(mass[0], rel=1e-12) for m in mass)

    def test_radial_run_via_cli(self, tmp_path):
        text = RADIAL_CONFIG.replace("m = 16", "m = 16\n")
        cfg = write_config(tmp_path, text)
        code = main(["run", str(cfg), "--outdir", str(tmp_path / "out")])
        assert code == 0
        lines = (tmp_path / "out" / "timeseries.csv").read_text().splitlines()
        assert lines[0] == "t,mass,min_v,max_u,E_2.5_0.75,D_2.5_0.75,v_L1.75"
        assert len(lines) == 6  # t = 0.0 .. 0.4 by 0.1

    def test_repeated_runs_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, CART_CONFIG)
        main(["run", str(cfg), "--outdir", str(tmp_path / "a")])
        main(["run", str(cfg), "--outdir", str(tmp_path / "b")])
        assert (tmp_path / "a" / "timeseries.csv").read_bytes() == (
            tmp_path / "b" / "timeseries.csv"
        ).read_bytes()

    def test_blowup_proxy_exit_code(self, tmp_path):
        text = """\
[model]
chi = 5
k = 0.05
n = 2
geometry = cartesian2d
Lx = 1
Ly = 1
nx = 16
ny = 16

[initial]
kind = gaussian
amplitude = 10
v0_base = 0.1

[scheme]
t_end = 5
output_interval = 0.5
blowup_factor = 1.5

[monitors]
# above the threshold no admissible pair exists; run with an empty set
pr_source = explicit
pr_pairs =
"""
        cfg = write_config(tmp_path, text)
        code = main(["run", str(cfg), "--outdir", str(tmp_path / "out")])
        assert code == 4
        assert "status: suspected_blowup" in (tmp_path / "out" / "report.txt").read_text()

    def test_dt_collapse_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, CART_CONFIG.replace("dt_min = 1e-10", "dt_min = 1"))
        code = main(["run", str(cfg), "--outdir", str(tmp_path / "out")])
        assert code == 5

    def test_csv_header_is_a_function_of_monitors_only(self, tmp_path):
        # different dynamics, same [monitors] -> identical column sets
        cfg_a = write_config(tmp_path, CART_CONFIG, "a.cfg")
        cfg_b = write_config(tmp_path, CART_CONFIG.replace("amplitude = 1.5", "amplitude = 0.7"), "b.cfg")
        main(["run", str(cfg_a), "--outdir", str(tmp_path / "ha")])
        main(["run", str(cfg_b), "--outdir", str(tmp_path / "hb")])
        header_a = (tmp_path / "ha" / "timeseries.csv").read_text().splitlines()[0]
        header_b = (tmp_path / "hb" / "timeseries.csv").read_text().splitlines()[0]
        assert header_a == header_b

    def test_dissipation_skipped_with_too_few_rows(self, tmp_path):
        text = CART_CONFIG.replace("t_end = 0.5", "t_end = 0.1")  # 2 rows only
        cfg = write_config(tmp_path, text)
        code = main(["run", str(cfg), "--outdir", str(tmp_path / "out")])
        assert code == 0  # a skipped check is not a failed check
        assert "dissipation: skipped" in (tmp_path / "out" / "report.txt").read_text()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, CART_CONFIG.replace("chi = 0.5", "chi = oops"))
        code = main(["run", str(cfg), "--outdir", str(tmp_path / "out")])
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    def test_bootstrap_monitors_above_threshold_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, CART_CONFIG.replace("chi = 0.5", "chi = 1.2"))
        assert main(["run", str(cfg), "--outdir", str(tmp_path / "out")]) == 1


SWEEP_SMALL = CART_CONFIG.replace("t_end = 0.5", "t_end = 0.2") + """\

[sweep]
chi_values = 0.6, 1.2
k_values = 0.5, 1
parallelism = 1
"""


class TestSweepCli:
    def test_summary_rows(self, tmp_path):
        spec = write_config(tmp_path, SWEEP_SMALL, "sweep.cfg")
        code = main(["sweep", str(spec), "--outdir", str(tmp_path / "out")])
        assert code == 0
        lines = (tmp_path / "out" / "sweep_summary.csv").read_text().strip().splitlines()
        assert lines[0] == "chi,k,chi_star,below_threshold,status,max_u_over_run,worst_gronwall_ratio"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert float(first[0]) == 0.6 and float(first[1]) == 0.5
        assert first[3] == "true" and first[4] == "completed"
        # chi = 1.2 > chi_star(k, 2) = 1: above threshold, bootstrap pairs empty
        above = [ln.split(",") for ln in lines[1:] if ln.split(",")[0] == "1.2"]
        assert above and all(row[3] == "false" for row in above)
        assert all(row[6] == "nan" for row in above)

    def test_parallelism_levels_byte_identical(self, tmp_path, monkeypatch):
        spec = write_config(tmp_path, SWEEP_SMALL, "sweep.cfg")
        monkeypatch.setenv("CHEMOLAB_THREADS", "1")
        main(["sweep", str(spec), "--outdir", str(tmp_path / "p1")])
        monkeypatch.setenv("CHEMOLAB_THREADS", "4")
        main(["sweep", str(spec), "--outdir", str(tmp_path / "p4")])
        assert (tmp_path / "p1" / "sweep_summary.csv").read_bytes() == (
            tmp_path / "p4" / "sweep_summary.csv"
        ).read_bytes()

    def test_empty_sweep_exit_one(self, tmp_path, capsys):
        spec = write_config(tmp_path, CART_CONFIG + "\n[sweep]\nk_values =\n", "sweep.cfg")
        assert main(["sweep", str(spec)]) == 1
        assert "empty sweep" in capsys.readouterr().err

    def test_per_point_failures_recorded_in_row(self, tmp_path):
        # explicit pair (2.5, 0.75) is admissible at chi = 0.5 but not at
        # chi = 0.9 (p_max = 1/0.81 < 2.5): that point must fail in-row only
        text = CART_CONFIG.replace("t_end = 0.5", "t_end = 0.2").replace(
            "pr_source = bootstrap", "pr_source = explicit\npr_pairs = 2.5:0.75"
        )
        spec = write_config(tmp_path, text + "\n[sweep]\nchi_values = 0.5, 0.9\n", "sweep.cfg")
        assert main(["sweep", str(spec), "--outdir", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "sweep_summary.csv").read_text().strip().splitlines()
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert rows["0.5"][4] == "completed"
        assert rows["0.90000000000000002"][4] == "error:ConfigError"
        assert rows["0.90000000000000002"][6] == "nan"


class TestSweepRowThreshold:
    @pytest.mark.parametrize("k, n", [(1.0, 2), (1.0, 3), (0.5, 4), (2.0, 6)])
    @pytest.mark.parametrize("factor", [1.0 - 2e-12, 1.0 - 0.5e-12, 1.0])
    def test_below_threshold_field_is_the_band_of_is_below_threshold(self, k, n, factor):
        chi = chi_star(k, n) * factor
        field = cli._sweep_row(chi, k, n, "completed", 1.0, 0.5).split(",")[3]
        assert field == ("true" if is_below_threshold(chi, k, n) else "false")
        assert field == ("true" if factor < 1.0 - 1e-12 else "false")

    def test_chi_zero_is_below_threshold(self):
        assert cli._sweep_row(0.0, 1.0, 2, "completed", 1.0, 0.5).split(",")[3] == "true"


class TestMalformedEntryCli:
    @pytest.mark.parametrize(
        "command, entry",
        [
            ("sweep", "k_values = 1, inf"),
            ("sweep", "chi_values = 0.5, inf"),
            ("sweep", "chi_range = 0:1:1e-6"),
            ("sweep", "chi_range = 0:1:1e-320"),
            ("sweep", "chi_range = 0:inf:0.1"),
            ("sweep", "chi_range = nan:1:0.1"),
            ("sweep", "chi_range = 0:1:nan"),
            ("sweep", "chi_range = 1.6976931348624157e308:1.7976931348623157e308:1e307"),
            ("run", "q_list = 2, inf"),
            ("run", "pr_pairs = inf:0.5"),
        ],
    )
    def test_malformed_entry_exits_one_with_its_line(self, command, entry, tmp_path, capsys):
        if command == "sweep":
            text = SWEEP_SMALL.replace("chi_values = 0.6, 1.2\nk_values = 0.5, 1", entry)
        elif entry.startswith("q_list"):
            text = CART_CONFIG.replace("q_list = 1, 2", entry)
        else:
            text = CART_CONFIG.replace("pr_source = bootstrap", "pr_source = explicit\n" + entry)
        line = text.splitlines().index(entry) + 1
        path = write_config(tmp_path, text)
        assert main([command, str(path), "--outdir", str(tmp_path / "out")]) == 1
        assert f"line {line}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
