"""Stepping, conservation, positivity, and run-status tests."""

import math

import numpy as np
import pytest

import chemolab.meshes as meshes
from chemolab.diagnostics import MonitorConfig, TimeSeries, compute_row, min_v_floor_check
from chemolab.errors import DomainError
from chemolab.exponents import ModelParams
from chemolab.meshes import CartesianMesh2D, RadialShellMesh, State, StepPlan
from chemolab.solver import SchemeConfig, _dt_rule, initial_state, run, stable_dt, step

from test_config_cli import doubled_decay
from test_fused_step import plain_step
from test_meshes import (
    cart_chemdiv_oracle,
    cart_laplacian_oracle,
    radial_chemdiv_oracle,
    radial_laplacian_oracle,
)


def small_cfg(**kw):
    base = dict(t_end=1.0, output_interval=0.25)
    base.update(kw)
    return SchemeConfig(**base)


class TestSchemeConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            SchemeConfig(t_end=1.0, output_interval=0.1, dt_safety=0.0)
        with pytest.raises(DomainError):
            SchemeConfig(t_end=1.0, output_interval=0.1, dt_safety=1.5)
        with pytest.raises(DomainError):
            SchemeConfig(t_end=-1.0, output_interval=0.1)
        with pytest.raises(DomainError):
            SchemeConfig(t_end=1.0, output_interval=0.0)
        with pytest.raises(DomainError):
            SchemeConfig(t_end=1.0, output_interval=0.1, blowup_factor=1.0)
        with pytest.raises(DomainError):
            SchemeConfig(t_end=1.0, output_interval=0.1, dt_min=0.0)
        with pytest.raises(DomainError):  # a run to t_end = inf of a steady state never returned
            SchemeConfig(t_end=math.inf, output_interval=0.1)


class TestInitialState:
    def test_constant_cosine_formula(self):
        mesh = CartesianMesh2D(2.0, 1.0, 8, 4)
        st = initial_state(mesh, "constant_cosine", 0.5, v0_base=0.8, v0_min=0.1)
        x, y = mesh.cell_centers()
        expected = 1.0 + 0.5 * np.cos(math.pi * x / 2.0) * np.cos(math.pi * y / 1.0)
        assert st.u == pytest.approx(expected, rel=1e-15)
        assert (st.v == 0.8).all()
        assert (st.u > 0).all()

    def test_constant_cosine_zero_amplitude_is_flat(self):
        mesh = RadialShellMesh(3, 1.0, 8)
        st = initial_state(mesh, "constant_cosine", 0.0, v0_base=1.0)
        assert (st.u == 1.0).all()

    def test_constant_cosine_rejects_negative_dip(self):
        mesh = RadialShellMesh(3, 1.0, 8)
        with pytest.raises(DomainError):
            initial_state(mesh, "constant_cosine", 1.5, v0_base=1.0)

    def test_gaussian_center_and_floor(self):
        mesh = RadialShellMesh(3, 1.0, 16)
        st = initial_state(mesh, "gaussian", 2.0, v0_base=0.02, v0_min=0.1)
        (r,) = mesh.cell_centers()
        sigma = 1.0 / 4.0
        assert st.u == pytest.approx(2.0 * np.exp(-(r**2) / (2 * sigma**2)), rel=1e-15)
        assert (st.v == 0.1).all()  # floored at v0_min

    def test_rejects_unknown_kind(self):
        mesh = RadialShellMesh(3, 1.0, 8)
        with pytest.raises(DomainError):
            initial_state(mesh, "tophat", 1.0, 1.0)

    def test_rejects_an_unsupported_mesh_before_the_kind(self):
        for kind in ("gaussian", "tophat"):
            with pytest.raises(DomainError, match="^unsupported mesh type object$"):
                initial_state(object(), kind, 1.0, 1.0)
        with pytest.raises(DomainError, match="^unknown initial kind 'tophat'$"):
            initial_state(CartesianMesh2D(1.0, 1.0, 4, 4), "tophat", 1.0, 1.0)

    @pytest.mark.parametrize(
        "mesh",
        [
            CartesianMesh2D(2.0, 2.0, 64, 64),
            CartesianMesh2D(2.0, 2.0, 16, 16),
            CartesianMesh2D(1.0, 0.8, 9, 7),
            CartesianMesh2D(3.7, 1.3, 48, 33),
            RadialShellMesh(3, 1.0, 7),
            RadialShellMesh(2, 1.5, 37),
            RadialShellMesh(3, 2.0, 128),
        ],
        ids=["cart_64x64", "cart_16x16", "cart_9x7", "cart_48x33", "radial_m7", "radial_m37", "radial_m128"],
    )
    @pytest.mark.parametrize(
        "kind, amplitudes",
        [("constant_cosine", (0.0, 0.3, 0.5, 1.0)), ("gaussian", (0.0, 1.5, 2.0, 7.25))],
    )
    def test_bytes_of_the_per_geometry_formulas(self, mesh, kind, amplitudes):
        """One formula per kind over ``cell_centers``, ``extents`` and
        ``center`` gives the bytes of the two per-geometry formulas it
        replaced, kept here as the reference."""
        for amplitude in amplitudes:
            for v0_base, v0_min in ((1.0, 0.1), (0.02, 0.1), (0.5, 0.25)):
                st = initial_state(mesh, kind, amplitude, v0_base, v0_min)
                u = per_geometry_initial_u(mesh, kind, amplitude)
                assert st.u.tobytes() == u.tobytes(), (kind, amplitude)
                assert st.v.tobytes() == np.full(mesh.cell_count, max(v0_base, v0_min)).tobytes()


def per_geometry_initial_u(mesh, kind, amplitude):
    """u0 of ``initial_state`` as it was written once per geometry."""
    if isinstance(mesh, CartesianMesh2D):
        x, y = mesh.cell_centers()
        if kind == "constant_cosine":
            return 1.0 + amplitude * np.cos(math.pi * x / mesh.lx) * np.cos(math.pi * y / mesh.ly)
        sigma = min(mesh.lx, mesh.ly) / 4.0
        d2 = (x - mesh.lx / 2.0) ** 2 + (y - mesh.ly / 2.0) ** 2
        return amplitude * np.exp(-d2 / (2.0 * sigma * sigma))
    (r,) = mesh.cell_centers()
    if kind == "constant_cosine":
        return 1.0 + amplitude * np.cos(math.pi * r / mesh.radius)
    sigma = mesh.radius / 4.0
    return amplitude * np.exp(-(r * r) / (2.0 * sigma * sigma))


class TestStableDt:
    def test_constant_state_hits_diffusive_or_reaction_limit(self):
        mesh = CartesianMesh2D(1.0, 1.0, 8, 8)  # hx = hy = 0.125
        st = State(np.ones(64), np.ones(64))
        for k in (1.0, 2.0, 0.5):
            params = ModelParams(chi=0.5, k=k, n=2)
            cfg = small_cfg()
            expected = 0.4 * min(0.125**2 / (2 * 2 * max(1.0, k)), 0.5)
            assert stable_dt(st, params, mesh, cfg) == pytest.approx(expected, rel=1e-14)

    def test_doubling_k_halves_the_diffusive_limit(self):
        mesh = CartesianMesh2D(1.0, 1.0, 16, 16)
        st = State(np.ones(256), np.ones(256))
        cfg = small_cfg()
        dt1 = stable_dt(st, ModelParams(chi=0.2, k=2.0, n=2), mesh, cfg)
        dt2 = stable_dt(st, ModelParams(chi=0.2, k=4.0, n=2), mesh, cfg)
        assert dt2 == pytest.approx(dt1 / 2.0, rel=1e-14)

    def test_reaction_cap_on_coarse_mesh(self):
        # large cells make the diffusive limit exceed 1/2
        mesh = CartesianMesh2D(100.0, 100.0, 4, 4)
        st = State(np.ones(16), np.ones(16))
        got = stable_dt(st, ModelParams(chi=0.0, k=1.0, n=2), mesh, small_cfg())
        assert got == pytest.approx(0.4 * 0.5, rel=1e-14)

    def test_steep_chemical_gradient_forces_advective_limit(self):
        # face velocities saturate near 2*chi/h, so chi must exceed max(1, k)
        # before advection can undercut the diffusive limit
        mesh = CartesianMesh2D(1.0, 1.0, 8, 8)
        v = np.ones(64)
        v[0] = 1e-3  # huge relative jump at one face
        st = State(np.ones(64), v)
        params = ModelParams(chi=3.0, k=1.0, n=2)
        dt_adv = stable_dt(st, params, mesh, small_cfg())
        dt_flat = stable_dt(State(np.ones(64), np.ones(64)), params, mesh, small_cfg())
        assert dt_adv < dt_flat
        w = mesh.face_velocities(v, 3.0)
        assert dt_adv == pytest.approx(0.4 / mesh.advective_outflow_max(w), rel=1e-14)

    @pytest.mark.parametrize(
        "mesh", [CartesianMesh2D(1.0, 1.0, 16, 16), RadialShellMesh(3, 1.0, 32)], ids=["cart", "radial"]
    )
    def test_exact_path_reads_the_face_velocities_of_a_plan(self, monkeypatch, mesh):
        # above dt_safety 1/2 every dt takes the exact advective limit, from
        # the faces of a one-point StepPlan, not the per-call operator
        start = initial_state(mesh, "gaussian", 2.0, v0_base=0.5)
        state = State(start.u, 0.2 + start.u)
        params = ModelParams(chi=0.6, k=1.0, n=3 if mesh.geometry == "radial" else 2)
        cfg = small_cfg(dt_safety=0.8)
        v_range = (float(state.v.min()), float(state.v.max()))
        want = _dt_rule(params, mesh, cfg)(mesh.face_velocities(state.v, params.chi), v_range)
        calls, real = [], meshes._PaddedFluxMesh.face_velocities
        monkeypatch.setattr(meshes._PaddedFluxMesh, "face_velocities", lambda *a: calls.append(a) or real(*a))
        assert stable_dt(state, params, mesh, cfg) == want
        assert calls == []


class TestStep:
    def test_constant_steady_state_is_bit_exact(self):
        for mesh in (CartesianMesh2D(2.0, 2.0, 8, 8), RadialShellMesh(3, 1.0, 16)):
            state = State(np.ones(mesh.cell_count), np.ones(mesh.cell_count))
            params = ModelParams(chi=0.7, k=2.5, n=3 if mesh.geometry == "radial" else 2)
            cfg = small_cfg()
            for _ in range(50):
                state = step(state, params, mesh, cfg)
            assert (state.u == 1.0).all()
            assert (state.v == 1.0).all()

    def test_single_step_matches_hand_assembly_on_four_shells(self):
        mesh = RadialShellMesh(3, 1.0, 4)
        u = np.array([2.0, 1.0, 0.5, 0.25])
        v = np.array([0.5, 1.0, 1.5, 2.0])
        params = ModelParams(chi=0.8, k=1.5, n=3)
        dt = 1e-3
        got = step(State(u, v), params, mesh, small_cfg(), dt=dt)
        exp_u = u + dt * (
            radial_laplacian_oracle(u, mesh) - radial_chemdiv_oracle(u, v, 0.8, mesh)
        )
        exp_v = v + dt * (1.5 * radial_laplacian_oracle(v, mesh) - v + u)
        assert got.u == pytest.approx(exp_u, rel=1e-14)
        assert got.v == pytest.approx(exp_v, rel=1e-14)
        assert got.t == pytest.approx(dt)

    def test_single_step_matches_hand_assembly_cartesian(self, rng):
        mesh = CartesianMesh2D(1.0, 1.0, 4, 4)
        u = rng.uniform(0.0, 2.0, 16)
        v = rng.uniform(0.5, 2.0, 16)
        params = ModelParams(chi=0.5, k=0.7, n=2)
        dt = 5e-4
        got = step(State(u, v), params, mesh, small_cfg(), dt=dt)
        exp_u = u + dt * (cart_laplacian_oracle(u, mesh) - cart_chemdiv_oracle(u, v, 0.5, mesh))
        exp_v = v + dt * (0.7 * cart_laplacian_oracle(v, mesh) - v + u)
        assert got.u == pytest.approx(exp_u, rel=1e-13)
        assert got.v == pytest.approx(exp_v, rel=1e-13)

    @pytest.mark.parametrize("chi", [0.6, 0.0])
    @pytest.mark.parametrize(
        "mesh", [CartesianMesh2D(1.0, 1.0, 5, 4), RadialShellMesh(3, 1.0, 7)], ids=["cart", "radial"]
    )
    def test_new_state_shares_no_memory_with_the_old(self, mesh, chi):
        # a caller that keeps old states must never see them overwritten
        params = ModelParams(chi=chi, k=1.0, n=3 if mesh.geometry == "radial" else 2)
        states = [initial_state(mesh, "gaussian", 2.0, v0_base=0.5)]
        kept = [(states[0].u.copy(), states[0].v.copy())]
        for _ in range(3):
            states.append(step(states[-1], params, mesh, small_cfg()))
            kept.append((states[-1].u.copy(), states[-1].v.copy()))
        for i, old in enumerate(states):
            for new in states[i + 1 :]:
                assert not any(np.shares_memory(a, b) for a in (old.u, old.v) for b in (new.u, new.v))
        for s, (u, v) in zip(states, kept):
            assert np.array_equal(s.u, u) and np.array_equal(s.v, v)

    @pytest.mark.parametrize(
        "mesh, k",
        [
            (CartesianMesh2D(1.0, 1.0, 5, 4), 1.3),
            (RadialShellMesh(3, 1.0, 7), 1.3),
            (CartesianMesh2D(1.0, 1.0, 5, 4), 1.0),
            (RadialShellMesh(3, 1.0, 7), 1.0),
        ],
        ids=["cart", "radial", "cart-unit_k", "radial-unit_k"],
    )
    def test_a_plan_steps_only_its_own_state(self, mesh, k):
        # a plan overwrites the state it holds: stepping any other state must
        # fail, not silently advance the plan's; k = 1 skips the k product
        params = ModelParams(chi=0.6, k=k, n=3 if mesh.geometry == "radial" else 2)
        start = initial_state(mesh, "gaussian", 2.0, v0_base=0.5)
        plan = StepPlan(mesh, start.uv()[:, None], [params.chi], [params.k])
        with pytest.raises(ValueError):
            step(State.stacked(plan.uv.copy(), 0.0), plan, mesh, small_cfg(), 1e-3)
        plan.face_velocities()
        state = State.stacked(plan.uv, 0.25)
        got = step(state, plan, mesh, small_cfg(), 1e-3)
        want = plain_step(start, params, mesh, 1e-3)
        assert got is state and got.t == 0.25 + 1e-3
        assert got.uv() is plan.uv
        assert got.uv()[:, 0].tobytes() == want.uv().tobytes()

    @pytest.mark.parametrize(
        "mesh", [CartesianMesh2D(1.0, 1.0, 5, 4), RadialShellMesh(3, 1.0, 7)], ids=["cart", "radial"]
    )
    def test_plans_with_unit_and_other_k_match_step(self, mesh):
        # one point at k = 1 next to one at 1.3 takes the k-column product; a
        # plan of the k = 1 point alone skips it: each row has the bytes of
        # the separate operators
        n = 3 if mesh.geometry == "radial" else 2
        params_seq = [ModelParams(chi=0.6, k=k, n=n) for k in (1.0, 1.3)]
        start = initial_state(mesh, "gaussian", 2.0, v0_base=0.5)
        pair = StepPlan(mesh, np.stack([start.uv()] * 2, axis=1), [0.6, 0.6], [1.0, 1.3])
        alone = StepPlan(mesh, start.uv()[:, None], [0.6], [1.0])
        wants = [start, start]
        for _ in range(3):
            wants = [plain_step(want, params, mesh, 1e-3) for want, params in zip(wants, params_seq)]
            for plan in (pair, alone):
                plan.face_velocities()
                plan.advance(1e-3)
            assert alone.uv[:, 0].tobytes() == wants[0].uv().tobytes()
            for j, want in enumerate(wants):
                assert pair.uv[:, j].tobytes() == want.uv().tobytes()

    @pytest.mark.parametrize(
        "mesh", [CartesianMesh2D(1.0, 1.0, 5, 4), RadialShellMesh(3, 1.0, 7)], ids=["cart", "radial"]
    )
    def test_a_plan_without_taxis_differences_its_state_at_each_step(self, mesh):
        # with no taxis term, face_velocities() writes only the differences
        # of the current state, which advance scales: the steps have the
        # bytes of the separate operators
        params = ModelParams(chi=0.0, k=1.3, n=3 if mesh.geometry == "radial" else 2)
        want = initial_state(mesh, "gaussian", 2.0, v0_base=0.5)
        plan = StepPlan(mesh, want.uv()[:, None], [params.chi], [params.k])
        for _ in range(3):
            want = plain_step(want, params, mesh, 1e-3)
            plan.face_velocities()
            plan.advance(1e-3)
            assert plan.uv[:, 0].tobytes() == want.uv().tobytes()

    @pytest.mark.parametrize("chi", [0.6, 0.0], ids=["taxis", "no_taxis"])
    @pytest.mark.parametrize(
        "mesh", [CartesianMesh2D(1.0, 1.0, 5, 4), RadialShellMesh(3, 1.0, 7)], ids=["cart", "radial"]
    )
    def test_a_write_between_steps_is_stepped_from(self, mesh, chi):
        # a plan keeps nothing from one step to the next but its state, so a
        # step after a write to that state is the step of a plan built on it
        start = initial_state(mesh, "gaussian", 2.0, v0_base=0.5)
        plan = StepPlan(mesh, start.uv()[:, None], [chi], [1.3])
        plan.face_velocities()
        plan.advance(1e-3)
        state = State.stacked(plan.uv, 1e-3)
        state.u[0, 3], state.v[0, 5] = 2.5, 1.7
        fresh = StepPlan(mesh, plan.uv.copy(), [chi], [1.3])
        for stepped in (plan, fresh):
            stepped.face_velocities()
            stepped.advance(1e-3)
        assert plan.uv.tobytes() == fresh.uv.tobytes()

    @pytest.mark.parametrize(
        "mesh, u, v, chi, k",
        [
            (CartesianMesh2D(1.0, 1.0, 8, 8), np.ones(64), np.r_[1e-3, np.ones(63)], 3.0, 1.0),
            (CartesianMesh2D(1.0, 1.0, 8, 8), None, None, 0.0, 1.3),
            (RadialShellMesh(3, 1.0, 12), None, None, 0.6, 1.0),
        ],
        ids=["advective_limit", "no_taxis", "radial"],
    )
    def test_step_without_dt_takes_stable_dt(self, mesh, u, v, chi, k):
        # a step given no dt takes stable_dt of its state; the first case is
        # the advective limit of
        # test_steep_chemical_gradient_forces_advective_limit
        state = initial_state(mesh, "gaussian", 2.0, v0_base=0.5) if u is None else State(u, v)
        params = ModelParams(chi=chi, k=k, n=3 if mesh.geometry == "radial" else 2)
        assert step(state, params, mesh, small_cfg()).t == stable_dt(state, params, mesh, small_cfg())

    @pytest.mark.parametrize("dt_safety", [0.4, 0.8])
    @pytest.mark.parametrize(
        "mesh", [CartesianMesh2D(1.0, 1.0, 16, 16), RadialShellMesh(3, 1.0, 32)], ids=["cart", "radial"]
    )
    def test_step_without_dt_differences_its_state_once(self, monkeypatch, mesh, dt_safety):
        # v spans 0.2 to 2.2, so the screen fails at dt_safety 0.4 too: both
        # cases read face velocities, which a step takes from its own plan
        start = initial_state(mesh, "gaussian", 2.0, v0_base=0.5)
        state = State(start.u, 0.2 + start.u)
        params = ModelParams(chi=0.6, k=1.0, n=3 if mesh.geometry == "radial" else 2)
        cfg = small_cfg(dt_safety=dt_safety)
        given = step(state, params, mesh, cfg, dt=stable_dt(state, params, mesh, cfg))
        bindings, differences = [], meshes._PaddedFluxMesh._differences

        def counted(self, f, faces):
            bindings.append(f.size)
            return differences(self, f, faces)

        monkeypatch.setattr(meshes._PaddedFluxMesh, "_differences", counted)
        got = step(state, params, mesh, cfg)
        assert bindings == [2 * mesh.cell_count]
        assert got.t == given.t
        assert got.uv().tobytes() == given.uv().tobytes()

    def test_run_and_step_share_one_update_binder(self, monkeypatch):
        # a v-update of k lap v - 2 v + u bound in meshes reaches both paths
        mesh = RadialShellMesh(3, 1.0, 12)
        params = ModelParams(chi=0.6, k=1.0, n=3)
        start = initial_state(mesh, "gaussian", 2.0, v0_base=0.5)
        dt = 1e-4  # below stable_dt, so a run to t = dt takes this one step
        cfg = small_cfg(t_end=dt, output_interval=dt)
        unpatched = run(start, params, mesh, cfg)
        monkeypatch.setattr(meshes, "euler_update", doubled_decay(meshes.euler_update))
        u, v = start.u, start.v
        du = mesh.laplacian(u) - mesh.chemotactic_divergence(u, mesh.face_velocities(v, params.chi))
        dv = mesh.laplacian(v) - v - v + u
        got = step(start, params, mesh, cfg, dt)
        assert got.u.tobytes() == (u + dt * du).tobytes()
        assert got.v.tobytes() == (v + dt * dv).tobytes()
        report = run(start, params, mesh, cfg)
        assert report.steps == 1 and report.min_v_over_run == float(got.v.min())
        assert report.min_v_over_run < unpatched.min_v_over_run
        alone = TimeSeries(MonitorConfig())
        compute_row(got, mesh, alone)
        assert report.series.values[-alone.width :] == alone.values

    def test_zero_chi_heat_decay(self):
        mesh = CartesianMesh2D(1.0, 1.0, 16, 16)
        state = initial_state(mesh, "gaussian", 3.0, v0_base=1.0)
        params = ModelParams(chi=0.0, k=1.0, n=2)
        cfg = small_cfg()
        mass0 = mesh.integrate(state.u)
        prev_max = state.u.max()
        for _ in range(300):
            state = step(state, params, mesh, cfg)
            assert state.u.max() <= prev_max * (1.0 + 1e-13)
            prev_max = state.u.max()
        assert mesh.integrate(state.u) == pytest.approx(mass0, rel=1e-12)

    def test_mass_conservation_and_positivity_with_chemotaxis(self):
        mesh = RadialShellMesh(3, 1.0, 32)
        state = initial_state(mesh, "gaussian", 2.0, v0_base=0.5)
        params = ModelParams(chi=0.6, k=1.0, n=3)
        cfg = small_cfg()
        mass0 = mesh.integrate(state.u)
        for _ in range(500):
            state = step(state, params, mesh, cfg)
            assert (state.u >= 0.0).all()
            assert (state.v > 0.0).all()
        assert mesh.integrate(state.u) == pytest.approx(mass0, rel=1e-12)

    @pytest.mark.parametrize(
        "n,k,chi_frac,mesh_args",
        [
            (8, 1.0, 0.4, ("radial", 8, 1.0, 24)),  # high-dimension inner-cell CFL
            (3, 50.0, 0.5, ("radial", 3, 1.0, 24)),  # strongly diffusive chemical
            (2, 0.01, None, ("cartesian", 1.0, 1.0, 12)),  # chi = 0.9 near the k->0 range
        ],
    )
    def test_positivity_in_parameter_corners(self, n, k, chi_frac, mesh_args):
        from chemolab.exponents import chi_star

        chi = 0.9 if chi_frac is None else chi_frac * chi_star(k, n)
        if mesh_args[0] == "radial":
            mesh = RadialShellMesh(mesh_args[1], mesh_args[2], mesh_args[3])
        else:
            mesh = CartesianMesh2D(mesh_args[1], mesh_args[2], mesh_args[3], mesh_args[3])
        params = ModelParams(chi=chi, k=k, n=n)
        state = initial_state(mesh, "gaussian", 2.0, v0_base=0.5)
        mass0 = mesh.integrate(state.u)
        cfg = small_cfg()
        for _ in range(600):
            state = step(state, params, mesh, cfg)
            assert (state.u >= 0.0).all()
            assert (state.v > 0.0).all()
        assert mesh.integrate(state.u) == pytest.approx(mass0, rel=1e-12)


class TestRun:
    def test_constant_initial_data_completes_flat(self):
        mesh = CartesianMesh2D(1.0, 1.0, 8, 8)
        init = State(np.ones(64), np.ones(64))
        params = ModelParams(chi=0.5, k=1.0, n=2)
        cfg = SchemeConfig(t_end=0.5, output_interval=0.1)
        mon = MonitorConfig(q_list=(2.0,), pr_pairs=((2.0, 0.5),))
        report = run(init, params, mesh, cfg, mon)
        assert report.status == "completed"
        assert report.t_final == pytest.approx(0.5)
        assert report.max_u_over_run == 1.0
        assert report.min_v_over_run == 1.0
        masses = report.series.mass
        assert masses == pytest.approx([1.0] * len(masses), rel=1e-14)
        energies = report.series.energy((2.0, 0.5))
        assert energies == pytest.approx([1.0] * len(energies), rel=1e-14)

    def test_output_rows_at_exact_times(self):
        mesh = CartesianMesh2D(1.0, 1.0, 8, 8)
        init = initial_state(mesh, "constant_cosine", 1.0, v0_base=1.0)
        params = ModelParams(chi=0.3, k=1.0, n=2)
        cfg = SchemeConfig(t_end=0.33, output_interval=0.1)
        report = run(init, params, mesh, cfg)
        assert report.series.t == [0.0, 0.1, 0.2, 0.30000000000000004, 0.33]
        assert report.status == "completed"

    def test_growth_factor_trips_blowup_proxy(self):
        # a chemical peak pulls mass together, raising max u past a tiny factor
        mesh = CartesianMesh2D(1.0, 1.0, 16, 16)
        x, y = mesh.cell_centers()
        u = np.ones(mesh.cell_count)
        v = 1.0 + 2.0 * np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2) / 0.02)
        params = ModelParams(chi=2.0, k=0.05, n=2)
        cfg = SchemeConfig(t_end=5.0, output_interval=0.5, blowup_factor=1.05)
        report = run(State(u, v), params, mesh, cfg)
        assert report.status == "suspected_blowup"
        assert report.t_final < 5.0
        assert report.max_u_over_run > 1.05

    def test_dt_collapse_status(self):
        mesh = CartesianMesh2D(1.0, 1.0, 8, 8)
        init = State(np.ones(64), np.ones(64))
        params = ModelParams(chi=0.5, k=1.0, n=2)
        cfg = SchemeConfig(t_end=1.0, output_interval=0.25, dt_min=1.0)
        report = run(init, params, mesh, cfg)
        assert report.status == "dt_collapse"
        assert report.t_final == 0.0
        assert len(report.series) == 1

    def test_bit_identical_reports(self):
        mesh = RadialShellMesh(3, 1.0, 24)
        params = ModelParams(chi=0.5, k=1.0, n=3)
        cfg = SchemeConfig(t_end=0.4, output_interval=0.1)
        mon = MonitorConfig(q_list=(1.0, 2.0), pr_pairs=((2.5, 0.75),))
        reports = []
        for _ in range(2):
            init = initial_state(mesh, "gaussian", 1.5, v0_base=1.0)
            reports.append(run(init, params, mesh, cfg, mon))
        a, b = reports
        assert a.status == b.status and a.t_final == b.t_final
        assert a.max_u_over_run == b.max_u_over_run
        assert a.series.names == b.series.names
        bits_a, bits_b = (np.asarray(r.series.values).view(np.int64) for r in reports)
        assert len(a.series) == 5 and np.array_equal(bits_a, bits_b)

    def test_v_floor_on_realistic_run(self):
        mesh = CartesianMesh2D(2.0, 2.0, 16, 16)
        init = initial_state(mesh, "gaussian", 1.5, v0_base=1.0)
        params = ModelParams(chi=0.5, k=1.0, n=2)
        report = run(init, params, mesh, SchemeConfig(t_end=2.0, output_interval=0.25))
        assert report.status == "completed"
        verdict = min_v_floor_check(report.series, tol_rel=1e-8)
        assert verdict.passed

    def test_pure_decay_tracks_discrete_rate(self):
        # with u = 0 the chemical decays at the per-step factor (1 - dt),
        # which lags exp(-t) by about t*dt/2 -- the honest discrete bound
        mesh = CartesianMesh2D(1.0, 1.0, 8, 8)
        init = State(np.zeros(64), np.ones(64))
        params = ModelParams(chi=0.5, k=1.0, n=2)
        cfg = SchemeConfig(t_end=2.0, output_interval=0.5)
        dt = stable_dt(init, params, mesh, cfg)
        report = run(init, params, mesh, cfg)
        assert report.status == "completed"
        for t, min_v in zip(report.series.t, report.series.min_v):
            ideal = math.exp(-t)
            assert min_v <= ideal * (1.0 + 1e-12)
            assert min_v >= ideal * math.exp(-t * dt / 2.0) * (1.0 - 1e-5)

    def test_refinement_agreement_on_smooth_scenario(self):
        params = ModelParams(chi=0.5, k=1.0, n=2)
        sup_norms = {}
        for nx in (32, 64):
            mesh = CartesianMesh2D(2.0, 2.0, nx, nx)
            init = initial_state(mesh, "gaussian", 1.5, v0_base=1.0)
            report = run(init, params, mesh, SchemeConfig(t_end=1.0, output_interval=0.5))
            assert report.status == "completed"
            sup_norms[nx] = report.series.max_u[-1]
        assert abs(sup_norms[32] - sup_norms[64]) < 0.05 * sup_norms[64]

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 3: at dt_safety 1.0 the 64x64 reference grows a checkerboard in u "
        "while the run reports completed",
    )
    def test_top_of_the_dt_safety_range_stays_accurate_or_says_why(self):
        # at 1.0 the positivity caps set every dt; a fix keeps max u within
        # first-order error of the 0.995 run, or names the fault by status
        mesh = CartesianMesh2D(2.0, 2.0, 64, 64)
        init = initial_state(mesh, "gaussian", 1.5, v0_base=1.0)
        params = ModelParams(chi=0.5, k=1.0, n=2)
        near, top = (
            run(init, params, mesh, SchemeConfig(t_end=1.0, output_interval=0.5, dt_safety=safety))
            for safety in (0.995, 1.0)
        )
        assert near.status == "completed" and len(near.series) == 3
        if top.status == "completed":
            assert top.series.max_u == pytest.approx(near.series.max_u, rel=1e-3)
