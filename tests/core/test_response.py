"""Unit tests for the response curves (gentle RED, RED, PI)."""

import pytest

from repro.core.response import GentleRedCurve, PiResponse, RedCurve


class TestGentleRedCurve:
    def setup_method(self):
        # the paper's parameters, on the queuing-delay axis
        self.curve = GentleRedCurve(t_min=0.005, t_max=0.010, p_max=0.05)

    def test_zero_below_t_min(self):
        assert self.curve(0.0) == 0.0
        assert self.curve(0.005) == 0.0

    def test_linear_ramp_to_p_max(self):
        assert self.curve(0.0075) == pytest.approx(0.025)
        assert self.curve(0.010 - 1e-12) == pytest.approx(0.05, abs=1e-6)

    def test_gentle_ramp_to_one(self):
        assert self.curve(0.015) == pytest.approx(0.05 + 0.95 * 0.5)
        assert self.curve(0.020) == 1.0

    def test_one_beyond_twice_t_max(self):
        assert self.curve(0.5) == 1.0

    def test_monotone_nondecreasing(self):
        xs = [i * 1e-4 for i in range(300)]
        ps = [self.curve(x) for x in xs]
        assert all(b >= a for a, b in zip(ps, ps[1:]))
        assert all(0.0 <= p <= 1.0 for p in ps)

    def test_validation(self):
        with pytest.raises(ValueError):
            GentleRedCurve(t_min=0.01, t_max=0.005)
        with pytest.raises(ValueError):
            GentleRedCurve(p_max=0.0)
        with pytest.raises(ValueError):
            GentleRedCurve(p_max=1.5)


class TestRedCurve:
    def test_jumps_to_one_at_t_max(self):
        c = RedCurve(t_min=0.005, t_max=0.010, p_max=0.05)
        assert c(0.0099) < 0.05 + 1e-9
        assert c(0.0101) == 1.0


class TestPiResponse:
    def test_integrates_positive_error(self):
        pi = PiResponse(k=1.0, m=0.5, target_delay=0.0, delta=0.01)
        p1 = pi.update(0.01)
        p2 = pi.update(0.01)
        assert 0 < p1 < p2  # persistent error accumulates

    def test_decays_on_negative_error(self):
        pi = PiResponse(k=1.0, m=0.5, target_delay=0.05, delta=0.01)
        pi.p = 0.5
        pi._prev_err = 0.0
        for _ in range(10):
            pi.update(0.0)  # delay below target
        assert pi.p < 0.5

    def test_clamped_to_unit_interval(self):
        pi = PiResponse(k=100.0, m=0.1, target_delay=0.0, delta=0.01)
        for _ in range(100):
            pi.update(1.0)
        assert pi.p == 1.0
        for _ in range(200):
            pi.update(-1.0)
        assert pi.p == 0.0

    def test_gamma_beta_from_bilinear_transform(self):
        pi = PiResponse(k=2.0, m=4.0, target_delay=0.0, delta=0.1)
        assert pi.gamma == pytest.approx(2.0 / 4.0 + 2.0 * 0.1 / 2.0)
        assert pi.beta == pytest.approx(2.0 / 4.0 - 2.0 * 0.1 / 2.0)

    def test_steady_state_holds_target(self):
        # at exactly the target there is no drift
        pi = PiResponse(k=1.0, m=1.0, target_delay=0.01, delta=0.01)
        pi.update(0.05)
        p = pi.update(0.01)
        pprev = pi.p
        for _ in range(5):
            pi.update(0.01)
        assert pi.p == pytest.approx(pprev, abs=1e-12)

    def test_reset(self):
        pi = PiResponse(k=1.0, m=1.0)
        pi.update(0.5)
        pi.reset()
        assert pi.p == 0.0 and pi._prev_err == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PiResponse(k=0.0, m=1.0)
        with pytest.raises(ValueError):
            PiResponse(k=1.0, m=1.0, delta=0.0)
