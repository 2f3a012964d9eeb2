import math

import numpy as np
import pytest

from qesolve import (
    GridInsufficient,
    IntegralKind,
    InvalidParameter,
    NodeSingularity,
    NormIntegralSpec,
    NotIntegrable,
    UnsupportedKind,
    count_nodes,
    eval_log_psi,
    eval_psi_log_derivatives,
    node_positions,
    norm_closed_form,
    norm_quadrature,
    solve_family,
    wavefunction,
)
from qesolve.oracle import default_fd_grid

import quadrature_reference
from conftest import decatic, octic_harmonic, quartic_harmonic, sextic
from quadrature_reference import integrate_adaptive
from test_acceptance import _FAMILY_CASES, _synthetic_solution
from test_bethe import _sweep_problem
from test_oracle import _sweep_problems, _verify_pool


def fixed_gauss_legendre(f, a: float, b: float, panels: int, order: int = 24):
    """Composite fixed-resolution Gauss-Legendre rule (oracle-style)."""
    x0, w0 = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        total += half * float(np.dot(w0, np.asarray(f(mid + half * x0), dtype=float)))
    return total


@pytest.fixture(scope="module")
def quartic0(cfg_small):
    return solve_family(quartic_harmonic(n=0), cfg_small)[0]


@pytest.fixture(scope="module")
def quartic1(cfg):
    return solve_family(quartic_harmonic(n=1), cfg)[0]


@pytest.fixture(scope="module")
def sextic1(cfg):
    return solve_family(sextic(n=1, omega=1.0, e=0.0, d=0.5), cfg)[0]


class TestEvalLogPsi:
    def test_quartic_ground_state_at_one(self, quartic0):
        log_mag, sign = eval_log_psi(quartic0, 1.0)
        assert log_mag == pytest.approx(-1.5, abs=1e-14)
        assert sign == 1.0

    def test_octic_ground_state_at_one(self, cfg_small):
        s = solve_family(octic_harmonic(n=0), cfg_small)[0]
        log_mag, sign = eval_log_psi(s, 1.0)
        assert log_mag == pytest.approx(-0.5 - 1.0 / 3.0, abs=1e-14)
        assert sign == 1.0

    def test_node_marker(self, cfg):
        # Build a solution document-style object whose polynomial root is
        # exactly representable, then hit the node exactly.
        s = solve_family(quartic_harmonic(n=1), cfg)[0]
        r1 = s.roots.roots[0].real
        log_mag, sign = eval_log_psi(s, r1)
        assert sign == 0.0 and log_mag == -math.inf

    def test_rejects_nonpositive_r(self, quartic0):
        with pytest.raises(InvalidParameter):
            eval_log_psi(quartic0, 0.0)
        with pytest.raises(InvalidParameter):
            eval_log_psi(quartic0, -1.0)

    @pytest.mark.parametrize(
        "r", [math.nan, math.inf, [1.0, math.nan], [math.inf, 1.0]], ids=["nan", "inf", "array_nan", "array_inf"]
    )
    def test_rejects_non_finite_r(self, quartic1, r):
        for evaluate in (eval_log_psi, eval_psi_log_derivatives):
            with pytest.raises(InvalidParameter, match="finite r > 0 required"):
                evaluate(quartic1, r)

    def test_sign_changes_across_node(self, sextic1):
        # Polynomial factor r^2 - t1 with t1 = 1 - sqrt(2) < 0: no node.
        _, sign_lo = eval_log_psi(sextic1, 0.2)
        _, sign_hi = eval_log_psi(sextic1, 3.0)
        assert sign_lo == sign_hi == 1.0

    def test_no_overflow_extremes(self, quartic0):
        for r in (1e-8, 1e6):
            log_mag, sign = eval_log_psi(quartic0, r)
            assert math.isfinite(log_mag) or log_mag == -math.inf
            assert sign in (-1.0, 0.0, 1.0)


class TestLogDerivatives:
    def test_quartic_ground_state_at_one(self, quartic0):
        psi1, psi2 = eval_psi_log_derivatives(quartic0, 1.0)
        # gamma/r - omega r + sqrt(2d)/r^2 = 1 - 1 + 1 = 1.
        assert psi1 == pytest.approx(1.0, abs=1e-14)

    def test_finite_difference_cross_check(self, quartic1, sextic1):
        # First derivative with h = 1e-5 (roundoff ~ 1e-11), second with
        # h = 1e-4 (second differences amplify roundoff by 1/h^2).
        for sol in (quartic1, sextic1):
            for r in (0.5, 2.0, 7.0):
                psi1, psi2 = eval_psi_log_derivatives(sol, r)
                h = 1e-5
                fd1 = (eval_log_psi(sol, r + h)[0] - eval_log_psi(sol, r - h)[0]) / (2 * h)
                assert psi1 == pytest.approx(fd1, rel=1e-8, abs=1e-8)
                h = 1e-4
                lp = [eval_log_psi(sol, r + k * h)[0] for k in (-1, 0, 1)]
                fd1c = (lp[2] - lp[0]) / (2 * h)
                fd2 = (lp[2] - 2 * lp[1] + lp[0]) / (h * h) + fd1c * fd1c
                assert psi2 == pytest.approx(fd2, rel=1e-5, abs=1e-5)

    def test_log_grid_derivative_sweep(self, quartic1):
        # Relative agreement to 1e-6 across r in [1e-2, 1e2], away from the
        # node; step scaled with r.
        node = quartic1.roots.roots[0].real
        for r in np.geomspace(1e-2, 1e2, 25):
            if abs(r - node) < 1e-2:
                continue
            h = 1e-6 * r
            psi1, _ = eval_psi_log_derivatives(quartic1, float(r))
            fd1 = (eval_log_psi(quartic1, r + h)[0] - eval_log_psi(quartic1, r - h)[0]) / (2 * h)
            assert psi1 == pytest.approx(fd1, rel=1e-6, abs=1e-6)

    def test_node_singularity(self, quartic1):
        r1 = quartic1.roots.roots[0].real
        with pytest.raises(NodeSingularity):
            eval_psi_log_derivatives(quartic1, r1)


class TestNodes:
    def test_ground_states_have_no_nodes(self, quartic0, cfg_small):
        assert count_nodes(quartic0) == 0
        assert count_nodes(solve_family(octic_harmonic(n=0), cfg_small)[0]) == 0

    def test_quartic_first_excited_has_one(self, quartic1):
        assert count_nodes(quartic1) == 1
        assert node_positions(quartic1)[0] == pytest.approx(1.3247179572447460, abs=1e-12)

    def test_negative_root_gives_none(self, sextic1):
        assert count_nodes(sextic1) == 0

    def test_sqrt_mapping_for_squared_variable(self, cfg):
        sols = solve_family(sextic(n=1, omega=0.1, e=1.0, d=0.5), cfg)
        pos = [s for s in sols if s.roots.roots[0].real > 0][0]
        t1 = pos.roots.roots[0].real
        assert node_positions(pos) == [pytest.approx(math.sqrt(t1), abs=1e-12)]


class TestNormQuadrature:
    def test_quartic_against_fixed_rule_oracle(self, quartic0):
        val = norm_quadrature(quartic0)
        # Oracle: fixed composite Gauss-Legendre at ~10x the resolution the
        # adaptive rule needs, on the same log-axis integrand.
        def integrand(u):
            arr = np.atleast_1d(np.asarray(u, dtype=float))
            log_mag, _ = eval_log_psi(quartic0, np.exp(arr))
            return np.exp(2.0 * log_mag + arr)

        oracle = fixed_gauss_legendre(integrand, -9.0, 4.0, panels=160, order=30)
        assert val == pytest.approx(oracle, rel=1e-8)

    def test_scaling_is_quadratic(self, quartic0):
        # Scaling Psi by k scales the norm by k^2 (linearity of the
        # integral); emulate k Psi through the log-integrand directly.
        def integrand(k):
            def f(u):
                arr = np.atleast_1d(np.asarray(u, dtype=float))
                log_mag, _ = eval_log_psi(quartic0, np.exp(arr))
                return np.exp(2.0 * (log_mag + math.log(k)) + arr)

            return integrate_adaptive(f, -9.0, 4.0, rel_tol=1e-11)[0]

        base = integrand(1.0)
        assert integrand(3.0) == pytest.approx(9.0 * base, rel=1e-9)

    def test_sextic_matches_closed_form(self, cfg_small):
        # Ground-state sextic norm is a GAUSS_INV2 integral with
        # nu = 2 * leading exponent, mu1 = omega, mu2 = sqrt(2d).
        s = solve_family(sextic(n=0, omega=1.0, e=0.5, d=0.5), cfg_small)[0]
        spec = NormIntegralSpec(
            2.0 * s.waveform.leading_exponent, 1.0, math.sqrt(2 * 0.5), IntegralKind.GAUSS_INV2
        )
        assert norm_quadrature(s) == pytest.approx(norm_closed_form(spec), rel=1e-8)

    def test_decatic_norm_finite(self, cfg_small):
        s = solve_family(decatic(n=0, omega=1.0, b=0.0, c=1.0, d=0.5), cfg_small)[0]
        val = norm_quadrature(s)
        assert math.isfinite(val) and val > 0


@pytest.fixture(scope="module")
def draws():
    """Every branch of one acceptance draw per family and case, n = 0..5."""
    return [
        sol
        for family, cases in _FAMILY_CASES.items()
        for draw in range(len(cases))
        for n in range(6)
        for sol in solve_family(_sweep_problem(family, draw, n))
    ]


@pytest.fixture()
def psi_evaluations(monkeypatch):
    """The number of abscissae of each evaluation of Psi (`_log_psi_rows`)."""
    calls, evaluate = [], wavefunction._log_psi_rows

    def counted(solutions, r, *args, **kwargs):
        calls.append(len(r))
        return evaluate(solutions, r, *args, **kwargs)

    monkeypatch.setattr(wavefunction, "_log_psi_rows", counted)
    return calls


# r^nu exp(-mu1 r^2 - mu2 / r^2): a peak near u = ln r = 1/2 with a standard
# deviation of ~0.002 in u, under half a step of the support scan.
NARROW = NormIntegralSpec(1e5, 1e5 / (2.0 * math.e), 1.0, IntegralKind.GAUSS_INV2)


class TestOneSupportScan:
    """`norm_quadrature` runs the trapezoidal rule on the support that
    `default_fd_grid` also cuts; the references are the adaptive GK15 norm
    and the grid scan it replaced (tests/quadrature_reference.py)."""

    def test_norm_agrees_with_gauss_kronrod(self, draws, cfg):
        # The wide synthetic state needs more than one trapezoid level.
        wide = _synthetic_solution(NormIntegralSpec(6.0, 1e-3, 1e-3, IntegralKind.GAUSS_INV2))
        for sol in draws + _verify_pool(cfg) + [wide]:
            ref = quadrature_reference.norm_quadrature(sol, rel_tol=1e-13)
            assert abs(norm_quadrature(sol) - ref) <= 1e-12 * ref

    def test_grid_is_the_reference_grid_bit_for_bit(self, draws, cfg):
        # The coarse scan's ends, refined onto the fine scan, are the fine
        # scan's own: on the draws, the pool and every `sweep` branch.
        sweep = [sol for problem in _sweep_problems() for sol in solve_family(problem)]
        assert len(sweep) == 630
        for sol in draws + _verify_pool(cfg) + sweep:
            assert default_fd_grid(sol, 2400) == quadrature_reference.default_fd_grid(sol, 2400)

    def test_looser_tolerance_stops_no_later(self, draws, psi_evaluations):
        calls = psi_evaluations
        for sol in draws + [_synthetic_solution(NARROW)]:
            norm_quadrature(sol, rel_tol=1e-6)
            loose = sum(calls)
            calls.clear()
            norm_quadrature(sol, rel_tol=1e-12)
            assert loose <= sum(calls)
            calls.clear()
        # exp(-u^2) on [-40, 40] leaves 1e-3 at 64 intervals and 1e-11 at
        # 128, so 1e-6 stops at 256 intervals and 1e-12 at 512.
        for tol, evaluated in ((1e-6, 257), (1e-12, 513)):
            value = wavefunction.integrate_adaptive(lambda u: calls.append(len(u)) or np.exp(-u * u), -40.0, 40.0, tol)
            assert value == pytest.approx(math.sqrt(math.pi), rel=tol)
            assert sum(calls) == evaluated
            calls.clear()

    def test_norm_is_summed_from_the_scan(self, draws, psi_evaluations):
        # The draws' states need no sample past the scan's 751 (every 4th
        # point of the fine scan).  NARROW fails the every-other-sample
        # check, so its norm integrates the support afresh
        # (`integrate_adaptive`), and agrees with GK15.
        calls = psi_evaluations
        for sol in draws:
            norm_quadrature(sol)
            assert calls == [751]
            calls.clear()
        narrow = _synthetic_solution(NARROW)
        value = norm_quadrature(narrow)
        assert calls[0] == 751 and len(calls) > 2
        assert abs(value - quadrature_reference.norm_quadrature(narrow, rel_tol=1e-13)) <= 1e-11 * value

    def test_scan_grid_is_read_only(self):
        u, r, log_r = wavefunction._scan_grid(2.0)
        r2 = wavefunction._scan_power(2.0, 2)
        assert len(u) == 3001 and np.array_equal(r2, r * r)
        for cached in (u, r, log_r, r2):
            with pytest.raises(ValueError):
                cached[0] = 0.0
        assert wavefunction._scan_grid(2.0)[1] is r and wavefunction._scan_power(2.0, 2) is r2

    def test_non_converging_integrand_raises(self):
        # sqrt has a branch point at 0: the rule converges only as h^1.5.
        with pytest.raises(NotIntegrable):
            wavefunction.integrate_adaptive(np.sqrt, 0.0, 1.0, 1e-10)

    def test_no_support_raises(self):
        # r^(1/2) exp(-1e-30 r^2 / 2) peaks at u = ln r = 34, past the scan's 28.
        wide = _synthetic_solution(NormIntegralSpec(1.0, 1e-30, 1.0, IntegralKind.GAUSS_INV2))
        with pytest.raises(NotIntegrable):
            norm_quadrature(wide)
        with pytest.raises(GridInsufficient):
            default_fd_grid(wide)


class TestNormClosedForm:
    def test_exp_inv1_against_quadrature(self):
        spec = NormIntegralSpec(1.0, 1.0, 1.0, IntegralKind.EXP_INV1)
        oracle, _ = integrate_adaptive(
            lambda r: r * np.exp(-r - 1.0 / r), 1e-9, 70.0, rel_tol=1e-12
        )
        assert norm_closed_form(spec) == pytest.approx(oracle, rel=1e-9)

    def test_gauss_inv2_against_quadrature(self):
        spec = NormIntegralSpec(1.0, 1.0, 1.0, IntegralKind.GAUSS_INV2)
        oracle, _ = integrate_adaptive(
            lambda r: r * np.exp(-r * r - 1.0 / (r * r)), 1e-9, 30.0, rel_tol=1e-12
        )
        assert norm_closed_form(spec) == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("kind", [IntegralKind.EXP_INV1, IntegralKind.GAUSS_INV2])
    def test_random_sweep_against_quadrature(self, kind):
        rng = np.random.default_rng(42)
        for _ in range(12):
            nu = rng.uniform(0.05, 6.0)
            mu1 = rng.uniform(0.1, 5.0)
            mu2 = rng.uniform(0.1, 5.0)
            spec = NormIntegralSpec(nu, mu1, mu2, kind)
            if kind is IntegralKind.EXP_INV1:
                f = lambda r: r**nu * np.exp(-mu1 * r - mu2 / r)
                hi = 80.0 / mu1 + 10.0
            else:
                f = lambda r: r**nu * np.exp(-mu1 * r * r - mu2 / (r * r))
                hi = math.sqrt(80.0 / mu1) + 5.0
            oracle, _ = integrate_adaptive(f, 1e-9, hi, rel_tol=1e-12)
            assert norm_closed_form(spec) == pytest.approx(oracle, rel=1e-8)

    def test_unsupported_kind(self):
        spec = NormIntegralSpec(1.0, 1.0, 1.0, IntegralKind.GAUSS_INV1)
        with pytest.raises(UnsupportedKind):
            norm_closed_form(spec)

    def test_invariants_enforced(self):
        with pytest.raises(InvalidParameter):
            NormIntegralSpec(-1.0, 1.0, 1.0, IntegralKind.EXP_INV1)
        with pytest.raises(InvalidParameter):
            NormIntegralSpec(1.0, 0.0, 1.0, IntegralKind.EXP_INV1)
