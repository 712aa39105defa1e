"""Unit tests for the PERT/RED, TCP/RED and PERT/PI fluid models."""

import math

import pytest

from repro.fluid import make_fluid_model

FIG13 = dict(capacity=100.0, n_flows=5, p_max=0.1, t_min=0.05, t_max=0.1,
             alpha=0.99, delta=1e-4)


class TestPertRed:
    def test_equilibrium_formula(self):
        m = make_fluid_model("pert_red", rtt=0.1, **FIG13)
        w, p, tq = m.equilibrium()
        assert w == pytest.approx(0.1 * 100.0 / 5)  # RC/N
        assert p == pytest.approx(2 * 25 / (0.01 * 10000))  # 2N^2/(RC)^2
        assert tq == pytest.approx(m.t_min + p / m.l_pert)

    def test_l_pert_and_k(self):
        m = make_fluid_model("pert_red", rtt=0.1, **FIG13)
        assert m.l_pert == pytest.approx(0.1 / 0.05)
        assert m.k_lpf == pytest.approx(math.log(0.99) / 1e-4)
        assert m.k_lpf < 0

    def test_stable_trajectory_converges_to_equilibrium(self):
        m = make_fluid_model("pert_red", rtt=0.1, **FIG13)
        sol = m.simulate(duration=40.0, dt=2e-3)
        w_star, _, tq_star = m.equilibrium()
        assert sol.y[-1, 0] == pytest.approx(w_star, rel=0.02)
        assert sol.y[-1, 2] == pytest.approx(tq_star, rel=0.05)

    def test_unstable_at_paper_boundary(self):
        from repro.fluid.stability import trajectory_is_stable

        def run(rtt):
            model = make_fluid_model("pert_red", rtt=rtt, **FIG13)
            return model.simulate(60.0, dt=2e-3)

        assert trajectory_is_stable(run(0.16))
        assert not trajectory_is_stable(run(0.171))

    def test_validation(self):
        with pytest.raises(ValueError):
            make_fluid_model("pert_red", capacity=0.0)
        with pytest.raises(ValueError):
            make_fluid_model("pert_red", alpha=1.5)
        with pytest.raises(ValueError):
            make_fluid_model("pert_red", t_min=0.2, t_max=0.1)

    def test_clamped_variant_keeps_probability_physical(self):
        m = make_fluid_model("pert_red", rtt=0.19, clamp=True, **FIG13)
        sol = m.simulate(duration=30.0, dt=2e-3)
        assert (sol.y[:, 0] >= 0).all()  # window never negative


class TestTcpRed:
    def test_equilibrium(self):
        m = make_fluid_model("tcp_red", capacity=100.0, n_flows=5, rtt=0.1,
                             p_max=0.1, min_th=5.0, max_th=10.0)
        w, p, q = m.equilibrium()
        assert w == pytest.approx(2.0)
        assert q == pytest.approx(5.0 + p / m.law.slope)

    def test_default_delta_is_per_packet(self):
        m = make_fluid_model("tcp_red", capacity=200.0)
        assert m.delta == pytest.approx(1.0 / 200.0)

    def test_converges_when_stable(self):
        m = make_fluid_model("tcp_red", capacity=100.0, n_flows=5, rtt=0.05,
                             p_max=0.1, min_th=5.0, max_th=10.0, alpha=0.9,
                             delta=0.01)
        sol = m.simulate(duration=30.0, dt=1e-3)
        w_star, _, _ = m.equilibrium()
        assert sol.y[-1, 0] == pytest.approx(w_star, rel=0.05)

    def test_pert_red_stability_edge_matches_scaled_tcp_red(self):
        """Paper Sec. 5.4: with L_PERT = L_RED * C the conditions coincide.

        Build a TCP/RED model whose curve slope equals the PERT model's
        slope divided by C; their linearized dynamics are then the same
        up to the queue/delay change of variables, so the stable case
        must be stable for both.
        """
        from repro.fluid.stability import trajectory_is_stable

        pert = make_fluid_model("pert_red", rtt=0.1, **FIG13)
        red = make_fluid_model(
            "tcp_red", capacity=100.0, n_flows=5, rtt=0.1, p_max=0.1,
            min_th=0.05 * 100.0, max_th=0.1 * 100.0, alpha=0.99, delta=1e-4,
        )
        assert red.law.slope == pytest.approx(pert.l_pert / 100.0)
        s1 = pert.simulate(40.0, dt=2e-3)
        s2 = red.simulate(40.0, dt=2e-3)
        assert trajectory_is_stable(s1) and trajectory_is_stable(s2)


class TestPertPi:
    def test_equilibrium_hits_target_delay(self):
        m = make_fluid_model("pert_pi", capacity=100.0, n_flows=5, rtt=0.1,
                             k=0.05, m=0.5, tq_ref=0.03)
        w, p, tq = m.equilibrium()
        assert tq == pytest.approx(0.03)
        assert w == pytest.approx(2.0)

    def test_integrator_drives_delay_to_reference(self):
        from repro.fluid.stability import pert_pi_gains

        k, mm = pert_pi_gains(capacity=100.0, n_minus=5, r_plus=0.12)
        m = make_fluid_model("pert_pi", capacity=100.0, n_flows=5, rtt=0.1,
                             k=k, m=mm, tq_ref=0.05)
        sol = m.simulate(duration=120.0, dt=2e-3, x0=(1.0, 0.0, 0.0))
        assert sol.y[-1, 1] == pytest.approx(0.05, abs=0.01)

    def test_probability_stays_clamped(self):
        # the derivative is gated at the [0, 1] boundaries; a fixed-step
        # integrator may undershoot by O(dt * |dp|) between samples
        m = make_fluid_model("pert_pi", capacity=100.0, n_flows=5, rtt=0.1,
                             k=50.0, m=0.01, tq_ref=0.01, clamp=True)
        sol = m.simulate(duration=20.0, dt=1e-3)
        assert (sol.y[:, 2] >= -0.05).all()
        assert (sol.y[:, 2] <= 1.05).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            make_fluid_model("pert_pi", k=0.0)
        with pytest.raises(ValueError):
            make_fluid_model("pert_pi", n_flows=0)


# ----------------------------------------------------------------------
# one dynamics() per model, bound once per simulate() call
# ----------------------------------------------------------------------
MODELS = ("pert_red", "tcp_red", "pert_pi")


@pytest.mark.parametrize("name", MODELS)
def test_rhs_is_one_evaluation_of_what_simulate_integrates(name):
    m = make_fluid_model(name)
    x0, dt = m.x0_default, 1e-3
    dx = m.rhs(0.0, x0, x0)  # at t = 0, x(t - rtt) is the pre-history
    assert len(dx) == 3 and all(type(v) is float for v in dx)
    step = m.simulate(dt, dt=dt, method="euler").y[1].tolist()
    assert step == [a + dt * b for a, b in zip(x0, dx)]


@pytest.mark.parametrize("name", MODELS)
def test_parameter_changed_between_runs_is_honoured(name):
    m = make_fluid_model(name)
    m.simulate(0.5)
    m.rtt, m.clamp = 0.05, not m.clamp
    fresh = make_fluid_model(name, rtt=0.05, clamp=m.clamp)
    assert m.simulate(0.5).y.tobytes() == fresh.simulate(0.5).y.tobytes()


# ----------------------------------------------------------------------
# non-finite parameters are refused at construction, by field name
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name, field, value", [
    ("pert_pi", "k", math.nan),
    ("pert_pi", "k", math.inf),
    ("pert_pi", "m", math.nan),
    ("pert_pi", "m", math.inf),
    ("pert_pi", "tq_ref", math.nan),
    ("pert_pi", "tq_ref", math.inf),
    ("pert_pi", "rtt", math.inf),
    ("pert_red", "rtt", math.inf),
    ("pert_red", "capacity", math.inf),
    ("tcp_red", "capacity", math.inf),
    ("pert_red", "n_flows", math.nan),
    ("pert_red", "delta", math.inf),
])
def test_non_finite_parameters_are_refused(name, field, value):
    named = {"tq_ref": "target_delay"}.get(field, field)
    with pytest.raises(ValueError, match=named):
        make_fluid_model(name, **{field: value})


@pytest.mark.parametrize("field", ["k", "m", "delta", "target_delay"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_pi_response_refuses_non_finite_values(field, value):
    from repro.laws import PiResponse

    kwargs = dict(k=0.1, m=1.0, target_delay=0.003, delta=0.001)
    kwargs[field] = value
    with pytest.raises(ValueError, match=field):
        PiResponse(**kwargs)
