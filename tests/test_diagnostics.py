"""Norm/functional reductions vs brute force, and the trajectory checks."""

import math
import struct
import sys
import tracemalloc

import numpy as np
import pytest

from chemolab.diagnostics import (
    FLOOR_ULPS_PER_STEP,
    MonitorConfig,
    TimeSeries,
    compute_row,
    dissipation,
    dissipation_check,
    energy,
    floor_gap,
    gronwall_check,
    lq_norm,
    min_v_floor_check,
    smoothing_ratio,
)
from chemolab.errors import (
    DomainError,
    ExponentConditionError,
    InsufficientRows,
    PositivityViolation,
)
from chemolab.meshes import CartesianMesh2D, RadialShellMesh, State


def brute_sum(vols, values):
    total = 0.0
    for w, x in zip(vols, values):
        total += w * x
    return total


def random_state(rng, mesh, u_hi=3.0):
    u = rng.uniform(0.0, u_hi, mesh.cell_count)
    v = rng.uniform(0.2, 2.5, mesh.cell_count)
    return State(u, v)


class TestNorms:
    def test_constant_field(self):
        mesh = CartesianMesh2D(2.0, 1.5, 6, 4)
        f = np.full(mesh.cell_count, 1.7)
        vol = 2.0 * 1.5
        for q in (1.0, 2.0, 3.5):
            assert lq_norm(f, q, mesh) == pytest.approx(1.7 * vol ** (1.0 / q), rel=1e-13)

    def test_q_one_is_the_mass(self, rng):
        mesh = RadialShellMesh(3, 1.0, 8)
        f = rng.uniform(0.0, 2.0, 8)
        assert lq_norm(f, 1.0, mesh) == pytest.approx(mesh.integrate(f), rel=1e-14)

    def test_against_brute_force(self, rng):
        mesh = RadialShellMesh(4, 1.2, 8)
        for _ in range(200):
            f = rng.uniform(0.0, 4.0, 8)
            q = float(rng.uniform(1.0, 5.0))
            expected = brute_sum(mesh.volumes, [x**q for x in f]) ** (1.0 / q)
            assert lq_norm(f, q, mesh) == pytest.approx(expected, rel=1e-12)

    def test_rejects_order_below_one(self):
        mesh = RadialShellMesh(3, 1.0, 8)
        with pytest.raises(DomainError):
            lq_norm(np.ones(8), 0.5, mesh)

    def test_the_order_is_tested_by_the_rule_of_q(self):
        # MonitorConfig.RULES["q"].test, not its finite check: an infinite
        # order passes, NaN does not
        mesh = RadialShellMesh(3, 1.0, 8)
        assert lq_norm(np.ones(8), math.inf, mesh) == 1.0
        with pytest.raises(DomainError, match=r"^norm order must be >= 1, got nan$"):
            lq_norm(np.ones(8), math.nan, mesh)


class TestEnergyFunctionals:
    def test_unit_state_gives_domain_volume(self):
        mesh = CartesianMesh2D(2.0, 2.0, 4, 4)
        st = State(np.ones(16), np.ones(16))
        assert energy(st, 2.5, 0.75, mesh) == pytest.approx(4.0, rel=1e-13)
        assert dissipation(st, 2.5, 0.75, mesh) == pytest.approx(4.0, rel=1e-13)

    def test_zero_r_reduces_to_norm_power(self, rng):
        mesh = RadialShellMesh(3, 1.0, 8)
        st = random_state(rng, mesh)
        p = 2.3
        assert energy(st, p, 0.0, mesh) == pytest.approx(lq_norm(st.u, p, mesh) ** p, rel=1e-12)

    def test_against_brute_force(self, rng):
        mesh = RadialShellMesh(5, 0.9, 8)
        for _ in range(200):
            st = random_state(rng, mesh)
            p = float(rng.uniform(1.2, 4.0))
            r = float(rng.uniform(0.05, p - 1.0))
            exp_e = brute_sum(mesh.volumes, [a**p * b**-r for a, b in zip(st.u, st.v)])
            exp_d = brute_sum(
                mesh.volumes, [a ** (p + 1) * b ** (-r - 1) for a, b in zip(st.u, st.v)]
            )
            assert energy(st, p, r, mesh) == pytest.approx(exp_e, rel=1e-12)
            assert dissipation(st, p, r, mesh) == pytest.approx(exp_d, rel=1e-12)

    def test_rejects_nonpositive_chemical(self):
        mesh = RadialShellMesh(3, 1.0, 8)
        v = np.ones(8)
        v[2] = -0.5
        with pytest.raises(PositivityViolation):
            energy(State(np.ones(8), v), 2.0, 0.5, mesh)


class TestHolderAndInterpolation:
    def test_norm_splitting_inequality(self, rng):
        # integral(u^q) <= E_{p,r}^(q/p) * (integral v^(rq/(p-q)))^((p-q)/p)
        mesh = RadialShellMesh(3, 1.0, 8)
        for _ in range(1000):
            st = random_state(rng, mesh)
            p = float(rng.uniform(1.5, 4.0))
            q = float(rng.uniform(1.0, p - 0.2))
            r = float(rng.uniform(0.05, p - 1.0))
            lhs = mesh.integrate(st.u**q)
            rhs = energy(st, p, r, mesh) ** (q / p) * mesh.integrate(
                st.v ** (r * q / (p - q))
            ) ** ((p - q) / p)
            assert lhs <= rhs * (1.0 + 1e-10)

    def test_energy_interpolation_inequality(self, rng):
        # E_{p,r} <= D_{p,r}^(p/(p+1)) * (integral v^(p-r))^(1/(p+1))
        mesh = RadialShellMesh(3, 1.0, 8)
        for _ in range(1000):
            st = random_state(rng, mesh)
            p = float(rng.uniform(1.5, 4.0))
            r = float(rng.uniform(0.05, p - 1.0))
            lhs = energy(st, p, r, mesh)
            rhs = dissipation(st, p, r, mesh) ** (p / (p + 1)) * mesh.integrate(
                st.v ** (p - r)
            ) ** (1.0 / (p + 1))
            assert lhs <= rhs * (1.0 + 1e-10)


def separate_compute_row(state, mesh, monitors):
    """compute_row as one lq_norm, energy or dissipation call per quantity,
    the values in column order."""
    row = [state.t, mesh.integrate(state.u), float(state.v.min()), float(state.u.max())]
    row += [lq_norm(state.u, q, mesh) for q in monitors.q_list]
    for p, r in monitors.pr_pairs:
        row += [energy(state, p, r, mesh), dissipation(state, p, r, mesh)]
    row += [lq_norm(state.v, s, mesh) for s in monitors.v_orders]
    return row


def row_bytes(values):
    return struct.pack(f"<{len(values)}d", *values)


def series_of(monitors, rows):
    """The series laid out for ``monitors`` holding ``rows``, each a
    sequence of values in column order."""
    series = TimeSeries(monitors)
    for row in rows:
        series.values.extend(row)
    return series


def computed_series(states, mesh, monitors):
    series = TimeSeries(monitors)
    for state in states:
        compute_row(state, mesh, series)
    return series


class TestComputeRow:
    def test_row_contents(self, rng):
        mesh = CartesianMesh2D(1.0, 1.0, 4, 4)
        st = random_state(rng, mesh)
        mon = MonitorConfig(q_list=(1.0, 2.0), pr_pairs=((2.0, 0.4), (3.0, 0.9)))
        series = computed_series([st], mesh, mon)
        assert series.mass[0] == pytest.approx(mesh.integrate(st.u), rel=1e-14)
        assert series.min_v == [st.v.min()] and series.max_u == [st.u.max()]
        assert {q for kind, q in series.index if kind == "u"} == {1.0, 2.0}
        assert {pair for kind, pair in series.index if kind == "E"} == {(2.0, 0.4), (3.0, 0.9)}
        assert {s for kind, s in series.index if kind == "v"} == {1.6, 2.1}  # p - r per pair

    @pytest.mark.parametrize(
        "mesh",
        [CartesianMesh2D(2.0, 2.0, 32, 32), RadialShellMesh(3, 2.0, 37)],
        ids=["cart_32x32", "radial3_m37"],
    )
    def test_matches_one_call_per_quantity(self, mesh, rng):
        # the monitors of the benchmark's monitor_dense workload: u^2.5, u^3
        # and u^4 are each asked for two or three times per row
        mon = MonitorConfig(
            q_list=(1.0, 2.0, 3.0, 4.0), pr_pairs=((1.5, 0.25), (2.0, 0.5), (2.5, 0.75), (3.0, 1.0))
        )
        for _ in range(5):
            st = State(rng.uniform(0.0, 3.0, mesh.cell_count), rng.uniform(0.05, 2.5, mesh.cell_count), 0.3)
            got = computed_series([st], mesh, mon).values
            assert row_bytes(got) == row_bytes(separate_compute_row(st, mesh, mon))

    def test_rejects_nonpositive_chemical_once(self, rng):
        mesh = CartesianMesh2D(1.0, 1.0, 4, 4)
        st = random_state(rng, mesh)
        st.v[5] = 0.0
        mon = MonitorConfig(q_list=(2.0,), pr_pairs=((2.0, 0.4), (3.0, 0.9)))
        with pytest.raises(PositivityViolation, match="strictly positive"):
            computed_series([st], mesh, mon)
        assert computed_series([st], mesh, MonitorConfig(q_list=(2.0,))).min_v == [0.0]  # no pairs, no check

    def test_rejects_nan_chemical(self, rng):
        mesh = CartesianMesh2D(1.0, 1.0, 4, 4)
        st = random_state(rng, mesh)
        st.v[5] = math.nan
        series = TimeSeries(MonitorConfig(q_list=(2.0,), pr_pairs=((2.0, 0.4),)))
        with pytest.raises(PositivityViolation, match="strictly positive"):
            compute_row(st, mesh, series)
        assert len(series) == 0  # a row that raises is not appended

    def test_monitor_validation(self):
        with pytest.raises(DomainError):
            MonitorConfig(q_list=(0.5,))
        with pytest.raises(DomainError):
            MonitorConfig(q_list=(2.0, math.inf))
        with pytest.raises(DomainError):
            MonitorConfig(tolerance_rel=0.0)
        # r outside the admissible window for (chi, k) = (0.5, 1), p = 2
        with pytest.raises(DomainError):
            MonitorConfig(pr_pairs=((2.0, 0.99),)).validate(0.5, 1.0)
        MonitorConfig(pr_pairs=((2.0, 0.5),)).validate(0.5, 1.0)


class TestTimeSeries:
    def test_columns_of_the_table(self, rng):
        mesh = RadialShellMesh(3, 1.0, 8)
        mon = MonitorConfig(q_list=(1.0, 3.0), pr_pairs=((2.0, 0.4), (3.0, 0.9)))
        states = [State(*random_state(rng, mesh).uv(), t) for t in (0.0, 0.5, 1.0)]
        series = computed_series(states, mesh, mon)
        assert series.names == [
            "t", "mass", "min_v", "max_u", "u_Lq_1", "u_Lq_3",
            "E_2_0.4", "D_2_0.4", "E_3_0.9", "D_3_0.9", "v_L1.6", "v_L2.1",
        ]
        assert len(series) == 3 and len(series.values) == 3 * 12
        assert series.values.tolist() == [x for st in states for x in separate_compute_row(st, mesh, mon)]
        assert series.t == [0.0, 0.5, 1.0]
        assert series.lq_norm(3.0) == [lq_norm(st.u, 3.0, mesh) for st in states]
        assert series.energy((3.0, 0.9)) == [energy(st, 3.0, 0.9, mesh) for st in states]
        assert series.dissipation((2.0, 0.4)) == [dissipation(st, 2.0, 0.4, mesh) for st in states]
        assert series.v_norm(2.1) == [lq_norm(st.v, 2.1, mesh) for st in states]

    def test_a_v_order_below_one_is_refused_when_the_layout_is_built(self):
        with pytest.raises(DomainError, match=r"^norm order must be >= 1, got 0\.75$"):
            TimeSeries(MonitorConfig(pr_pairs=((2.0, 0.5), (2.0, 1.25))))  # v orders 0.75 and 1.5
        with pytest.raises(DomainError, match=r"^norm order must be >= 1, got 0\.5$"):
            TimeSeries(MonitorConfig(pr_pairs=((2.0, 1.5),)))

    def test_a_repeated_order_or_pair_keeps_its_columns_and_the_accessors_read_the_last(self, rng):
        from chemolab.exponents import ModelParams
        from chemolab.runconfig import parse_run_config, resolve_monitors
        from test_config_cli import CART_CONFIG

        document = CART_CONFIG.replace("q_list = 1, 2", "q_list = 1, 2, 2").replace(
            "pr_source = bootstrap", "pr_source = explicit\npr_pairs = 2:0.5, 2:0.5"
        )
        monitors = resolve_monitors(parse_run_config(document), ModelParams(chi=0.5, k=1.0, n=2))
        assert monitors.q_list == (1.0, 2.0, 2.0) and monitors.pr_pairs == ((2.0, 0.5), (2.0, 0.5))
        mesh = CartesianMesh2D(1.0, 1.0, 4, 4)
        st = random_state(rng, mesh)
        series = computed_series([st], mesh, monitors)
        assert series.names == [
            "t", "mass", "min_v", "max_u", "u_Lq_1", "u_Lq_2", "u_Lq_2",
            "E_2_0.5", "D_2_0.5", "E_2_0.5", "D_2_0.5", "v_L1.5",
        ]
        assert series.v_orders == (1.5,)  # p - r once, however often the pair repeats
        assert series.index == {
            ("u", 1.0): 4, ("u", 2.0): 6, ("E", (2.0, 0.5)): 9, ("D", (2.0, 0.5)): 10, ("v", 1.5): 11,
        }
        assert series.values.tolist() == separate_compute_row(st, mesh, monitors)
        series.values[5], series.values[7], series.values[8] = -1.0, -2.0, -3.0  # the first duplicates
        assert series.lq_norm(2.0) == [lq_norm(st.u, 2.0, mesh)]
        assert series.energy((2.0, 0.5)) == [energy(st, 2.0, 0.5, mesh)]
        assert series.dissipation((2.0, 0.5)) == [dissipation(st, 2.0, 0.5, mesh)]

    def test_an_order_or_pair_not_monitored_is_a_domain_error_naming_it(self):
        series = pair_series((2.0, 0.5), [0.0, 0.1, 0.2], [1.0] * 3, [1.0] * 3)
        with pytest.raises(DomainError, match=r"does not monitor \('E', \(2\.5, 0\.75\)\)$"):
            gronwall_check(series, (2.5, 0.75))
        with pytest.raises(DomainError, match=r"does not monitor \('E', \(2\.5, 0\.75\)\)$"):
            dissipation_check(series, (2.5, 0.75))
        with pytest.raises(DomainError, match=r"does not monitor \('u', 2\.0\)$"):
            series.lq_norm(2.0)
        with pytest.raises(DomainError, match=r"does not monitor \('v', 1\.0\)$"):
            series.v_norm(1.0)
        assert series.v_norm(1.5) == [1.0] * 3

    def test_a_run_of_2000_rows_keeps_8_bytes_per_value(self):
        from chemolab.exponents import ModelParams
        from chemolab.solver import SchemeConfig, initial_state, run

        mesh = CartesianMesh2D(1.0, 1.0, 4, 4)
        init = initial_state(mesh, "gaussian", 1.5, v0_base=1.0)
        params = ModelParams(chi=0.5, k=1.0, n=2)
        mon = MonitorConfig(q_list=(1.0, 2.0), pr_pairs=((2.0, 0.5),))
        cfg = SchemeConfig(t_end=20.0, output_interval=0.01)
        tracemalloc.start()
        try:
            report = run(init, params, mesh, cfg, mon)
            held = tracemalloc.get_traced_memory()[0]
            rows, width = len(report.series), report.series.width
            report.series = None
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert report.status == "completed" and rows == 2001 and width == 9
        table = 8 * width * rows
        assert table <= freed <= 1.5 * table


def pair_series(pair, times, energies, dissipations):
    """A series of ``pair`` alone with the given E and D columns; the mass,
    min v, max u and v norm columns are 1."""
    rows = [(t, 1.0, 1.0, 1.0, e, d, 1.0) for t, e, d in zip(times, energies, dissipations, strict=True)]
    return series_of(MonitorConfig(pr_pairs=(pair,)), rows)


def floor_series(times, min_v, mass=1.0, max_u=1.0):
    """A series of no norm or pair with the given min v column."""
    return series_of(MonitorConfig(), [(t, mass, m, max_u) for t, m in zip(times, min_v, strict=True)])


class TestGronwall:
    def test_flat_series_passes(self):
        pair = (2.0, 0.5)
        series = pair_series(pair, np.linspace(0, 2, 11), [3.0] * 11, [3.0] * 11)
        verdict = gronwall_check(series, pair, tol=0.05)
        assert verdict.passed and verdict.worst <= 1.0

    def test_bound_rate_series_fails(self):
        pair = (2.0, 0.5)
        times = np.linspace(0, 4, 21)
        energies = [math.exp(2 * 0.5 * t) for t in times]  # twice the admissible rate
        verdict = gronwall_check(pair_series(pair, times, energies, [1.0] * 21), pair, tol=0.05)
        assert not verdict.passed
        assert verdict.worst == pytest.approx(math.exp(0.5 * 4.0), rel=1e-12)

    def test_growth_just_inside_envelope_passes(self):
        pair = (3.0, 1.0)
        times = np.linspace(0, 2, 9)
        energies = [1.02 * math.exp(1.0 * t) if t > 0 else 1.0 for t in times]
        assert gronwall_check(pair_series(pair, times, energies, [1.0] * 9), pair, tol=0.05).passed


class TestDissipationCheck:
    def test_constant_steady_rows_pass(self):
        pair = (2.0, 0.5)
        series = pair_series(pair, np.linspace(0, 1, 5), [4.0] * 5, [4.0] * 5)
        verdict = dissipation_check(series, pair, tol=0.05)
        assert verdict.passed
        assert verdict.worst == pytest.approx(0.0, abs=1e-15)

    def test_violating_series_fails(self):
        pair = (2.0, 0.5)
        times = np.linspace(0, 1, 9)
        energies = [math.exp(3.0 * t) for t in times]  # dE/dt = 3E > rE - rD bounds
        assert not dissipation_check(pair_series(pair, times, energies, energies), pair, tol=0.05).passed

    def test_decaying_series_passes(self):
        pair = (2.0, 0.5)
        times = np.linspace(0, 1, 9)
        energies = [math.exp(-t) for t in times]
        series = pair_series(pair, times, energies, [3.0 * e for e in energies])
        assert dissipation_check(series, pair, tol=0.05).passed

    def test_insufficient_rows(self):
        pair = (2.0, 0.5)
        with pytest.raises(InsufficientRows):
            dissipation_check(pair_series(pair, [0.0, 0.1], [1.0] * 2, [1.0] * 2), pair)


class TestMinVFloor:
    def test_exponential_decay_with_margin_passes(self):
        times = np.linspace(0, 3, 13)
        min_v = [1.0] + [1.001 * math.exp(-t) for t in times[1:]]
        assert min_v_floor_check(floor_series(times, min_v)).passed

    def test_fast_decay_fails(self):
        times = np.linspace(0, 3, 13)
        assert not min_v_floor_check(floor_series(times, [math.exp(-2 * t) for t in times])).passed

    def test_discrete_floor_has_a_rounding_slack(self):
        # v0 = 2 decaying at 1 - dt per step, dt = 0.01, ten steps per row:
        # below exp(-t) by about t dt / 2, on the product of (1 - dt) up to
        # a few ulps per step
        steps = 40
        factors = [(1.0 - 0.01) ** (10 * j) for j in range(5)]
        series = floor_series([0.1 * j for j in range(5)], [2.0 * f for f in factors], mass=0.0, max_u=0.0)
        assert not min_v_floor_check(series).passed  # the continuum floor
        assert min_v_floor_check(series, floor_factors=factors, steps=steps).passed
        slack = FLOOR_ULPS_PER_STEP * steps * sys.float_info.epsilon * 2.0
        series.values[2 + 3 * series.width] -= 0.5 * slack
        verdict = min_v_floor_check(series, floor_factors=factors, steps=steps)
        assert verdict.passed and verdict.worst == pytest.approx(-0.5 * slack, rel=1e-3)
        series.values[2 + 3 * series.width] -= slack
        assert not min_v_floor_check(series, floor_factors=factors, steps=steps).passed

    def test_one_floor_factor_per_row(self):
        with pytest.raises(DomainError, match="one floor factor per row"):
            min_v_floor_check(floor_series([0.0, 0.1], [1.0, 1.0]), floor_factors=[1.0], steps=1)

    @pytest.mark.parametrize("k", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize(
        "mesh", [RadialShellMesh(3, 1.0, 16), CartesianMesh2D(1.0, 1.0, 8, 8)], ids=["radial", "cart"]
    )
    def test_floor_gap_of_a_mild_run_is_order_t_dt(self, mesh, k):
        # exp(-t) - prod(1 - dt) is about t dt / 2, and no dt of a mild run
        # at dt_safety 0.4 exceeds the first: the report prints the gap
        from chemolab.cli import _fmt, evaluate_checks, report_text
        from chemolab.exponents import ModelParams
        from chemolab.solver import SchemeConfig, initial_state, run, stable_dt

        start = initial_state(mesh, "gaussian", 1.5, v0_base=1.0)
        params = ModelParams(chi=0.4, k=k, n=3 if mesh.geometry == "radial" else 2)
        cfg, monitors = SchemeConfig(t_end=0.1, output_interval=0.05), MonitorConfig()
        report = run(start, params, mesh, cfg, monitors)
        gap = floor_gap(report.series, report.floor_factors)
        assert report.status == "completed" and report.t_final == 0.1
        assert 0.0 < gap <= report.t_final * stable_dt(start, params, mesh, cfg)
        assert f"\nmin_v_floor_gap: {_fmt(gap)}\n" in report_text(report, evaluate_checks(report, monitors))


class TestSmoothingRatio:
    def test_constant_steady_state_ratio(self):
        mesh = CartesianMesh2D(2.0, 2.0, 4, 4)  # volume 4
        st = State(np.ones(16), np.ones(16))
        mon = MonitorConfig(q_list=(1.0,), pr_pairs=((3.0, 1.0),))  # p - r = 2
        series = TimeSeries(mon)
        for t in (0.0, 0.5, 1.0):
            compute_row(State(st.u, st.v, t), mesh, series)
        ratios = smoothing_ratio(series, p_v=2.0, q_u=1.0, n=2)
        expected = 4.0 ** (1.0 / 2.0) / (1.0 + 4.0)
        assert ratios == pytest.approx([expected] * 3, rel=1e-13)

    def test_exponent_condition_rejected(self):
        with pytest.raises(ExponentConditionError):
            smoothing_ratio([], p_v=3.0, q_u=1.0, n=4)  # (1 - 1/3) * 2 = 4/3 >= 1
        with pytest.raises(ExponentConditionError):
            smoothing_ratio([], p_v=1.0, q_u=2.0, n=2)  # q_u > p_v

    def test_missing_norms_raise(self):
        with pytest.raises(DomainError):
            smoothing_ratio(floor_series([0.0], [1.0]), p_v=2.0, q_u=1.0, n=2)

    def test_ratio_bounded_along_a_subthreshold_run(self):
        from chemolab.exponents import ModelParams
        from chemolab.solver import SchemeConfig, initial_state, run

        mesh = CartesianMesh2D(2.0, 2.0, 16, 16)
        init = initial_state(mesh, "gaussian", 1.5, v0_base=1.0)
        params = ModelParams(chi=0.5, k=1.0, n=2)
        mon = MonitorConfig(q_list=(1.0,), pr_pairs=((2.5, 0.75),))  # tracks v_L1.75
        report = run(init, params, mesh, SchemeConfig(t_end=3.0, output_interval=0.25), mon)
        assert report.status == "completed"
        ratios = smoothing_ratio(report.series, p_v=1.75, q_u=1.0, n=2)
        # bounded, with a non-increasing trend once the transient passes
        half = len(ratios) // 2
        assert max(ratios) == max(ratios[:half])
        assert ratios[-1] <= ratios[half] <= max(ratios)
