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
    TimeSeriesRow,
    compute_row,
    dissipation,
    dissipation_check,
    energy,
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
    """compute_row as one lq_norm, energy or dissipation call per quantity."""
    row = TimeSeriesRow(
        t=state.t,
        mass=mesh.integrate(state.u),
        min_v=float(state.v.min()),
        max_u=float(state.u.max()),
    )
    for q in monitors.q_list:
        row.lq_norms[q] = lq_norm(state.u, q, mesh)
    for p, r in monitors.pr_pairs:
        row.energies[(p, r)] = energy(state, p, r, mesh)
        row.dissipations[(p, r)] = dissipation(state, p, r, mesh)
    for s in monitors.v_orders:
        row.v_norms[s] = lq_norm(state.v, s, mesh)
    return row


def row_bytes(row):
    """Every key and value of a row in a fixed order, packed."""
    floats = [row.t, row.mass, row.min_v, row.max_u]
    for table in (row.lq_norms, row.energies, row.dissipations, row.v_norms):
        floats += [x for key in table for x in (*np.ravel(key), table[key])]
    return struct.pack(f"<{len(floats)}d", *floats)


class TestComputeRow:
    def test_row_contents(self, rng):
        mesh = CartesianMesh2D(1.0, 1.0, 4, 4)
        st = random_state(rng, mesh)
        mon = MonitorConfig(q_list=(1.0, 2.0), pr_pairs=((2.0, 0.4), (3.0, 0.9)))
        row = compute_row(st, mesh, mon)
        assert row.mass == pytest.approx(mesh.integrate(st.u), rel=1e-14)
        assert row.min_v == st.v.min() and row.max_u == st.u.max()
        assert set(row.lq_norms) == {1.0, 2.0}
        assert set(row.energies) == {(2.0, 0.4), (3.0, 0.9)}
        assert set(row.v_norms) == {1.6, 2.1}  # p - r per pair

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
            assert row_bytes(compute_row(st, mesh, mon)) == row_bytes(separate_compute_row(st, mesh, mon))

    def test_rejects_nonpositive_chemical_once(self, rng):
        mesh = CartesianMesh2D(1.0, 1.0, 4, 4)
        st = random_state(rng, mesh)
        st.v[5] = 0.0
        mon = MonitorConfig(q_list=(2.0,), pr_pairs=((2.0, 0.4), (3.0, 0.9)))
        with pytest.raises(PositivityViolation, match="strictly positive"):
            compute_row(st, mesh, mon)
        assert compute_row(st, mesh, MonitorConfig(q_list=(2.0,))).min_v == 0.0  # no pairs, no check

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
    def test_rows_round_trip_through_the_table(self, rng):
        mesh = RadialShellMesh(3, 1.0, 8)
        mon = MonitorConfig(q_list=(1.0, 3.0), pr_pairs=((2.0, 0.4), (3.0, 0.9)))
        rows = [compute_row(State(*random_state(rng, mesh).uv(), t), mesh, mon) for t in (0.0, 0.5, 1.0)]
        series = TimeSeries.from_rows(rows)
        assert series.columns.names == [
            "t", "mass", "min_v", "max_u", "u_Lq_1", "u_Lq_3",
            "E_2_0.4", "D_2_0.4", "E_3_0.9", "D_3_0.9", "v_L1.6", "v_L2.1",
        ]
        assert len(series) == 3 and len(series.values) == 3 * 12
        assert list(series) == rows
        assert series[-1] == rows[2] and series[::2] == [rows[0], rows[2]]
        assert series.t == [0.0, 0.5, 1.0]
        assert series.energy((3.0, 0.9)) == [row.energies[(3.0, 0.9)] for row in rows]
        assert series.v_norm(2.1) == [row.v_norms[2.1] for row in rows]
        with pytest.raises(IndexError):
            series[3]

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
            rows, width = len(report.series), report.series.columns.width
            report.series = None
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert report.status == "completed" and rows == 2001 and width == 9
        table = 8 * width * rows
        assert table <= freed <= 1.5 * table


def flat_series(e0, d0, times, pair):
    rows = []
    for t in times:
        rows.append(
            TimeSeriesRow(
                t=t, mass=1.0, min_v=1.0, max_u=1.0,
                energies={pair: e0}, dissipations={pair: d0},
            )
        )
    return rows


class TestGronwall:
    def test_flat_series_passes(self):
        pair = (2.0, 0.5)
        rows = flat_series(3.0, 3.0, np.linspace(0, 2, 11), pair)
        verdict = gronwall_check(TimeSeries.from_rows(rows), pair, tol=0.05)
        assert verdict.passed and verdict.worst <= 1.0

    def test_bound_rate_series_fails(self):
        pair = (2.0, 0.5)
        times = np.linspace(0, 4, 21)
        rows = flat_series(1.0, 1.0, times, pair)
        for row in rows:
            row.energies[pair] = math.exp(2 * 0.5 * row.t)  # twice the admissible rate
        verdict = gronwall_check(TimeSeries.from_rows(rows), pair, tol=0.05)
        assert not verdict.passed
        assert verdict.worst == pytest.approx(math.exp(0.5 * 4.0), rel=1e-12)

    def test_growth_just_inside_envelope_passes(self):
        pair = (3.0, 1.0)
        times = np.linspace(0, 2, 9)
        rows = flat_series(1.0, 1.0, times, pair)
        for row in rows:
            row.energies[pair] = 1.02 * math.exp(1.0 * row.t) if row.t > 0 else 1.0
        assert gronwall_check(TimeSeries.from_rows(rows), pair, tol=0.05).passed


class TestDissipationCheck:
    def test_constant_steady_rows_pass(self):
        pair = (2.0, 0.5)
        rows = flat_series(4.0, 4.0, np.linspace(0, 1, 5), pair)
        verdict = dissipation_check(TimeSeries.from_rows(rows), pair, tol=0.05)
        assert verdict.passed
        assert verdict.worst == pytest.approx(0.0, abs=1e-15)

    def test_violating_series_fails(self):
        pair = (2.0, 0.5)
        times = np.linspace(0, 1, 9)
        rows = flat_series(1.0, 1.0, times, pair)
        for row in rows:
            row.energies[pair] = math.exp(3.0 * row.t)  # dE/dt = 3E > rE - rD bounds
            row.dissipations[pair] = row.energies[pair]
        assert not dissipation_check(TimeSeries.from_rows(rows), pair, tol=0.05).passed

    def test_decaying_series_passes(self):
        pair = (2.0, 0.5)
        times = np.linspace(0, 1, 9)
        rows = flat_series(1.0, 1.0, times, pair)
        for row in rows:
            row.energies[pair] = math.exp(-row.t)
            row.dissipations[pair] = 3.0 * row.energies[pair]
        assert dissipation_check(TimeSeries.from_rows(rows), pair, tol=0.05).passed

    def test_insufficient_rows(self):
        pair = (2.0, 0.5)
        rows = flat_series(1.0, 1.0, [0.0, 0.1], pair)
        with pytest.raises(InsufficientRows):
            dissipation_check(TimeSeries.from_rows(rows), pair)


class TestMinVFloor:
    def test_exponential_decay_with_margin_passes(self):
        times = np.linspace(0, 3, 13)
        rows = [
            TimeSeriesRow(t=t, mass=1.0, min_v=1.001 * math.exp(-t), max_u=1.0)
            for t in times
        ]
        rows[0].min_v = 1.0
        assert min_v_floor_check(TimeSeries.from_rows(rows)).passed

    def test_fast_decay_fails(self):
        times = np.linspace(0, 3, 13)
        rows = [
            TimeSeriesRow(t=t, mass=1.0, min_v=math.exp(-2 * t), max_u=1.0) for t in times
        ]
        assert not min_v_floor_check(TimeSeries.from_rows(rows)).passed

    def test_discrete_floor_has_a_rounding_slack(self):
        # v0 = 2 decaying at 1 - dt per step, dt = 0.01, ten steps per row:
        # below exp(-t) by about t dt / 2, on the product of (1 - dt) up to
        # a few ulps per step
        steps = 40
        factors = [(1.0 - 0.01) ** (10 * j) for j in range(5)]
        rows = [TimeSeriesRow(t=0.1 * j, mass=0.0, min_v=2.0 * f, max_u=0.0) for j, f in enumerate(factors)]
        series = TimeSeries.from_rows(rows)
        assert not min_v_floor_check(series).passed  # the continuum floor
        assert min_v_floor_check(series, floor_factors=factors, steps=steps).passed
        slack = FLOOR_ULPS_PER_STEP * steps * sys.float_info.epsilon * 2.0
        series.values[2 + 3 * series.columns.width] -= 0.5 * slack
        verdict = min_v_floor_check(series, floor_factors=factors, steps=steps)
        assert verdict.passed and verdict.worst == pytest.approx(-0.5 * slack, rel=1e-3)
        series.values[2 + 3 * series.columns.width] -= slack
        assert not min_v_floor_check(series, floor_factors=factors, steps=steps).passed

    def test_one_floor_factor_per_row(self):
        rows = [TimeSeriesRow(t=t, mass=1.0, min_v=1.0, max_u=1.0) for t in (0.0, 0.1)]
        with pytest.raises(DomainError, match="one floor factor per row"):
            min_v_floor_check(TimeSeries.from_rows(rows), floor_factors=[1.0], steps=1)


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
        rows = [TimeSeriesRow(t=0.0, mass=1.0, min_v=1.0, max_u=1.0)]
        with pytest.raises(DomainError):
            smoothing_ratio(TimeSeries.from_rows(rows), p_v=2.0, q_u=1.0, n=2)

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
