import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qesolve import (
    DenominatorBlowup,
    Family,
    FamilyProblem,
    InvalidParameter,
    NonRealCoefficients,
    PolyODE,
    SolverConfig,
    Variable,
    bae_residuals,
    compute_w_coefficients,
    solve_bae,
    verify_polynomial_identity,
)
from qesolve import bethe
from qesolve.families import build_ode

import newton_reference
from identity_reference import poly_from_roots
from conftest import max_abs
from newton_reference import _coefficient_newton, _coefficient_starts, _make_starts, _newton_batch
from test_acceptance import _FAMILY_CASES, SWEEP_CFG, _draw_couplings

# Working ODE of the inverse-quartic oscillator with omega=1, c=0, sqrt(2d)=1:
# P = t^2, Q = 2(-t^3 + t + 1).
QUARTIC_ODE = PolyODE((0, 0, 1, 0, 0), (2.0, 2.0, 0.0, -2.0, 0.0, 0.0))
# Sextic working ODE (t = r^2) with omega=1, e=0.5, sqrt(2d)=1.
SEXTIC_ODE = PolyODE((0, 0, 1, 0, 0), (1.0, 2.5, -1.0, 0.0, 0.0, 0.0))

PLASTIC = float(np.real(next(z for z in np.roots([1.0, 0.0, -1.0, -1.0]) if abs(z.imag) < 1e-12)))


class TestComputeW:
    def test_n0_all_zero(self):
        w = compute_w_coefficients(QUARTIC_ODE, [])
        assert w == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_n1_closed_form(self):
        # For a single root the closing coefficients reduce to nested
        # Horner-style combinations of the q-array.
        rng = np.random.default_rng(7)
        for _ in range(25):
            q = rng.uniform(-3, 3, size=6)
            p = rng.uniform(-3, 3, size=5)
            t1 = rng.uniform(-4, 4)
            ode = PolyODE(tuple(p), tuple(q))
            w0, w1, w2, w3, w4 = compute_w_coefficients(ode, [t1])
            q0, q1, q2, q3, q4, q5 = q
            assert w4 == pytest.approx(-q5, abs=1e-14)
            assert w3 == pytest.approx(-q5 * t1 - q4, abs=1e-13)
            assert w2 == pytest.approx(-q5 * t1**2 - q4 * t1 - q3, abs=1e-13)
            assert w1 == pytest.approx(-q5 * t1**3 - q4 * t1**2 - q3 * t1 - q2, abs=1e-12)
            assert w0 == pytest.approx(
                -q5 * t1**4 - q4 * t1**3 - q3 * t1**2 - q2 * t1 - q1, abs=1e-12
            )

    def test_n2_oracle_values(self):
        # Oracle (independent): 2-variable Newton from a start grid, then the
        # closing formulas.  Frozen from that run; re-checked against the
        # engine and the exact polynomial identity.
        oracle_roots = [
            (-0.47016011025237653 - 0.3405806521330948j, -0.47016011025237653 + 0.3405806521330948j),
            (0.9780422395881885 + 0j, 1.895630028312913 + 0j),
        ]
        oracle_w = [
            (-5.579778605339509, -1.8806404410095061, 4.0, 0.0, 0.0),
            (3.0999596533205906, 5.747344535802203, 4.0, 0.0, 0.0),
        ]
        for roots, expected in zip(oracle_roots, oracle_w):
            w = compute_w_coefficients(QUARTIC_ODE, list(roots))
            assert w == pytest.approx(expected, abs=1e-10)
            ident = verify_polynomial_identity(QUARTIC_ODE, list(roots), w)
            assert ident < 1e-10

    def test_permutation_exact(self):
        roots = [1.25, -0.5 + 0.25j, -0.5 - 0.25j, 3.0]
        base = compute_w_coefficients(SEXTIC_ODE, roots)
        for perm in itertools.permutations(roots):
            assert compute_w_coefficients(SEXTIC_ODE, list(perm)) == base

    def test_non_real_power_sums_rejected(self):
        with pytest.raises(NonRealCoefficients):
            compute_w_coefficients(QUARTIC_ODE, [1.0 + 0.5j])


class TestBaeResiduals:
    def test_n0_empty(self):
        assert bae_residuals(QUARTIC_ODE, []).shape == (0,)

    def test_quartic_n1_true_root(self):
        # The single residue condition for this ODE is the cubic
        # t^3 - t - 1 = 0 (real root: the plastic number).
        res = bae_residuals(QUARTIC_ODE, [PLASTIC])
        assert max_abs(res) < 1e-12

    def test_quartic_n1_non_root_value(self):
        # Direct evaluation of Q/P at t = 1: 2(-1 + 1 + 1)/1 = 2.
        res = bae_residuals(QUARTIC_ODE, [1.0])
        assert res[0] == pytest.approx(2.0, abs=1e-14)

    def test_golden_ratio_is_not_a_root(self):
        # (1 + sqrt 5)/2 solves t^2 - t - 1 = 0, not the residue condition
        # of this working ODE; its residual is -2/phi.
        phi = (1.0 + np.sqrt(5.0)) / 2.0
        res = bae_residuals(QUARTIC_ODE, [phi])
        assert abs(res[0]) == pytest.approx(2.0 / phi, abs=1e-12)

    def test_denominator_guard(self):
        with pytest.raises(DenominatorBlowup):
            bae_residuals(QUARTIC_ODE, [1e-13])
        with pytest.raises(DenominatorBlowup):
            bae_residuals(SEXTIC_ODE, [2.0, 2.0 + 1e-12])

    def test_roots_exactly_sep_tol_apart_are_one_root(self):
        # The distinctness rule of `_accept` (sep <= SEP_TOL rejects), so
        # verification reports no finite residual for a set the solve rejects.
        roots = np.array([1.0 + 5e-9j, 1.0 - 5e-9j])
        assert bethe._separations(roots[None, :])[0] == bethe.SEP_TOL
        with pytest.raises(DenominatorBlowup, match="^roots are closer than SEP_TOL$"):
            bae_residuals(SEXTIC_ODE, roots)
        with np.errstate(all="ignore"):
            assert bethe._accept(SEXTIC_ODE, roots[None, :], Variable.R) == [None]

    @pytest.mark.parametrize(
        "coeffs",
        [(1.0, -2.5, 3.0, 0.0, 1e-3), (0.1, 0.2, -0.3, 7.0, 0.0, 2.5e8),
         np.random.default_rng(7).normal(size=(6, 3, 1))],
        ids=["p_tuple", "q_tuple", "columns"],
    )
    def test_derivative_has_polyders_bits(self, coeffs):
        # The derivative of one ODE's P or Q, or of a column per row.
        from numpy.polynomial.polynomial import polyder

        assert np.array_equal(bethe._derivative(coeffs), polyder(coeffs))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 3), n=st.integers(0, 4), real=st.booleans(), per_row=st.booleans())
    def test_values_have_polyvals_bits(self, data, rows, n, real, per_row):
        # Each polynomial of a stack, zero-padded to six coefficients, gets
        # the floats that polyval gives it unpadded, at real and complex
        # roots, for a coefficient column per row or one that every row
        # shares; its own top coefficients may be zero too.
        from numpy.polynomial.polynomial import polyval

        def floats(count):
            value = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 1.0])
            return np.array(data.draw(st.lists(value, min_size=count, max_size=count)))

        T = floats(2 * rows * n).reshape(2, rows, n)
        T = T[0] if real else T[0] + 1j * T[1]
        polys = []
        for length in data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=6)):
            c = floats(length * (rows if per_row else 1)).reshape(length, -1, 1)
            c[length - data.draw(st.integers(0, length)) :] = 0.0
            polys.append(c)
        values = bethe._values(bethe._stack(*polys), T)
        assert values.shape == (len(polys), rows, n)
        for got, c in zip(values, polys):
            assert got.tobytes() == polyval(T, c, tensor=False).tobytes()


class TestSolveBae:
    def test_n0_single_empty(self):
        sets = solve_bae(QUARTIC_ODE, 0)
        assert len(sets) == 1 and sets[0].roots == ()

    def test_quartic_n1_cubic_branch(self):
        sets = solve_bae(QUARTIC_ODE, 1)
        # One conjugate-closed branch: the real cubic root.  The complex
        # pair of the cubic cannot appear as single-root sets.
        assert len(sets) == 1
        assert sets[0].roots[0] == pytest.approx(PLASTIC, abs=1e-12)
        assert sets[0].bae_residual < 1e-10

    def test_sextic_n1_both_signs(self):
        ode = PolyODE((0, 0, 1, 0, 0), (1.0, 2.0, -1.0, 0.0, 0.0, 0.0))
        sets = solve_bae(ode, 1, variable=Variable.T_EQ_R2)
        got = sorted(s.roots[0].real for s in sets)
        assert got == pytest.approx([1.0 - np.sqrt(2.0), 1.0 + np.sqrt(2.0)], abs=1e-12)

    def test_sextic_n2_oracle(self):
        # Oracle (independent): eliminate to the cubic
        # s^3 - 11.5 s^2 + 27.5 s + 14 = 0 with p = s/(s-7), roots
        # t = (s +- sqrt(s^2 - 4p))/2, obtained by matching coefficients of
        # the expanded operator identity by hand.
        s_roots = sorted(np.roots([1.0, -11.5, 27.5, 14.0]).real)
        expected = []
        for s in s_roots:
            p = s / (s - 7.0)
            sq = np.sqrt(complex(s * s - 4.0 * p))
            expected.append(sorted([(s - sq) / 2.0, (s + sq) / 2.0], key=lambda z: (z.real, z.imag)))
        sets = solve_bae(SEXTIC_ODE, 2, variable=Variable.T_EQ_R2)
        assert len(sets) == 3
        got = [list(s.roots) for s in sets]
        got.sort(key=lambda r: (r[0].real, r[0].imag))
        expected.sort(key=lambda r: (r[0].real, r[0].imag))
        for g, e in zip(got, expected):
            assert max_abs(np.array(g) - np.array(e)) < 1e-10

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_n1_matches_companion_matrix(self, seed):
        # For n = 1 the residue condition reduces to Q(t) = 0 away from
        # zeros of P; every returned root must be a root of Q and every
        # real root of Q (with P not tiny) must be recovered.
        rng = np.random.default_rng(seed)
        q = rng.uniform(-2, 2, size=6)
        q[5] = rng.choice([-1.5, 1.5])
        ode = PolyODE((0, 0, 1, 0, 0), tuple(q))
        sets = solve_bae(ode, 1)
        companion = np.roots(q[::-1])
        for s in sets:
            root = s.roots[0]
            assert min(abs(root - z) for z in companion) < 1e-10
        real_qroots = [
            z.real
            for z in companion
            if abs(z.imag) < 1e-10 and abs(np.polyval(np.array([0, 0, 1, 0, 0])[::-1], z)) > 1e-6
        ]
        found = [s.roots[0].real for s in sets]
        for z in real_qroots:
            assert min(abs(z - f) for f in found) < 1e-9

    def test_deterministic_for_fixed_seed(self):
        a = solve_bae(SEXTIC_ODE, 2, variable=Variable.T_EQ_R2)
        b = solve_bae(SEXTIC_ODE, 2, variable=Variable.T_EQ_R2)
        assert [s.roots for s in a] == [s.roots for s in b]
        assert [s.bae_residual for s in a] == [s.bae_residual for s in b]

    def test_rootsets_pass_both_checks(self):
        for sets, ode in (
            (solve_bae(QUARTIC_ODE, 1), QUARTIC_ODE),
            (solve_bae(SEXTIC_ODE, 2, variable=Variable.T_EQ_R2), SEXTIC_ODE),
        ):
            for s in sets:
                assert max_abs(bae_residuals(ode, s)) < 1e-10
                w = compute_w_coefficients(ode, s)
                assert verify_polynomial_identity(ode, s, w) < 1e-10


class TestConjugatePairs:
    """A conjugate pair whose two real parts differ by one ulp is one pair."""

    @pytest.fixture(scope="class")
    def pair_branch(self):
        # Sextic n = 3 branch [-0.2124 -+ 0.1055i, 6.526].
        sets = solve_bae(SEXTIC_ODE, 3, variable=Variable.T_EQ_R2)
        branch = next(s.as_array() for s in sets if abs(s.roots[-1] - 6.526) < 1e-3)
        assert abs(branch[0].imag) > 0.1
        return branch

    @pytest.mark.parametrize("member", [0, 1])
    @pytest.mark.parametrize("toward", [-np.inf, np.inf])
    def test_pair_one_ulp_apart_is_accepted(self, pair_branch, member, toward):
        nudged = pair_branch.copy()
        nudged[member] = complex(np.nextafter(nudged[member].real, toward), nudged[member].imag)
        exact, accepted = bethe._accept(SEXTIC_ODE, np.array([pair_branch, nudged]), Variable.T_EQ_R2)
        assert exact is not None and accepted is not None
        roots = accepted.as_array()
        assert roots[0] == np.conj(roots[1]) and roots[2].imag == 0.0
        assert max_abs(roots - exact.as_array()) < bethe.DEDUP_TOL

    def test_a_set_not_closed_under_conjugation_is_rejected(self, pair_branch):
        lopsided = pair_branch.copy()
        lopsided[0] += 1e-6j
        assert bethe._accept(SEXTIC_ODE, lopsided[None, :], Variable.T_EQ_R2)[0] is None


class TestSingularNewtonStep:
    """The Newton passes of the reference search (`newton_reference`)."""

    @pytest.mark.parametrize(
        "newton, make_starts",
        [(_newton_batch, _make_starts), (_coefficient_newton, _coefficient_starts)],
        ids=["root_space", "coefficient_space"],
    )
    def test_one_singular_row_leaves_the_others_converging(self, monkeypatch, newton, make_starts):
        starts = make_starts(2, SolverConfig(seed=0, starts=40))
        others = newton(SEXTIC_ODE, starts[1:])
        assert len(others) > 0
        real_solve = np.linalg.solve
        calls = []

        def solve_with_singular_first_row(J, b):
            if not calls:
                J[0] = 0.0  # the batch's first Newton system turns singular
            calls.append(len(J))
            return real_solve(J, b)

        monkeypatch.setattr(np.linalg, "solve", solve_with_singular_first_row)
        got = newton(SEXTIC_ODE, starts)
        assert len(calls) > 1
        for row in others:
            assert min(max_abs(row - g) for g in got) < 1e-9


MANY_STARTS = SolverConfig(seed=2026, starts=600)


def _sweep_problem(family: Family, draw: int, n: int) -> FamilyProblem:
    """Coupling draw `draw` of `family` in the acceptance sweep, at degree n."""
    cases = _FAMILY_CASES[family]
    rng = np.random.default_rng(sum(map(ord, family.value)))
    for k in range(draw + 1):
        free, ell = _draw_couplings(family, cases[k % len(cases)], rng)
    return FamilyProblem(family, cases[draw % len(cases)], n, ell, free)


def _solve(problem: FamilyProblem):
    """`solve_bae` on the problem's working ODE."""
    ode, variable = build_ode(problem)
    return solve_bae(ode, problem.n, variable=variable)


def _same_branch(a, b) -> bool:
    return max_abs(a - b) < 1e-8


# Operations of the acceptance sweep, (family, draw, n), for which the
# 48-start Newton search of SWEEP_CFG returned fewer than n + 1 branches.
NEWTON_SHORT = [
    (Family.SEXTIC, 1, 5),
    (Family.SEXTIC, 11, 5),
    (Family.SEXTIC, 12, 5),
    (Family.SEXTIC, 17, 5),
    (Family.SEXTIC, 19, 5),
    (Family.QUARTIC, 1, 5),
]
# Operations of the acceptance sweep whose two-parameter enumeration finds
# branches that the Newton passes of SWEEP_CFG miss.
NEWTON_MISSES = [
    (Family.QUARTIC, 2, 5),
    (Family.QUARTIC, 4, 5),
    (Family.QUARTIC, 6, 5),
    (Family.QUARTIC, 8, 5),
    (Family.QUARTIC, 10, 5),
    (Family.QUARTIC, 12, 4),
    (Family.QUARTIC, 12, 5),
    (Family.QUARTIC, 14, 5),
    (Family.DECATIC, 5, 5),
]
# Octic operations of the acceptance sweep, (draw, n), where the Newton
# search of SWEEP_CFG missed branches: harmonic draws 0 and 2 and coulombic
# draws 1 and 3 at n = 3..5 (each misses at n = 5, most at n = 3 and 4
# too), and harmonic draws 4 and 14 at n = 5.
OCTIC_MISSES = [(draw, n) for draw in range(4) for n in range(3, 6)] + [(4, 5), (14, 5)]
# The enumerated draws of the acceptance sweep.  With w0 the only
# root-dependent W coefficient: every sextic draw, and the coulombic quartic
# ones (omega = 0, so q3 = 0).  With w1 and w0: the harmonic quartic draws
# and every decatic draw.  With three (coulombic) or four (harmonic): the
# octic draws.
SQUARE = [(Family.SEXTIC, draw) for draw in range(20)] + [(Family.QUARTIC, draw) for draw in range(1, 20, 2)]
RECTANGULAR = [(Family.QUARTIC, draw) for draw in range(0, 20, 2)] + [(Family.DECATIC, draw) for draw in range(20)]
OCTIC = [(Family.OCTIC, draw) for draw in range(20)]
ENUMERATED = SQUARE + RECTANGULAR


def _newton_accepted(problem: FamilyProblem) -> list[np.ndarray]:
    """The roots of every row of both reference Newton passes (SWEEP_CFG
    starts) that the filters (`_accept`) accept."""
    ode, variable = build_ode(problem)
    n = problem.n
    rows = list(_newton_batch(ode, _make_starts(n, SWEEP_CFG)))
    for coeffs in _coefficient_newton(ode, _coefficient_starts(n, SWEEP_CFG)):
        rows.append(np.roots(np.concatenate([coeffs, [1.0]])[::-1]).astype(complex))
    with np.errstate(all="ignore"):
        return [a.as_array() for a in bethe._accept(ode, np.array(rows), variable) if a]


def _near(roots, branches) -> bool:
    return any(max_abs(roots - b) < bethe.DEDUP_TOL for b in branches)


# What the Newton search left in `bethe` for `newton_reference`.
NEWTON_NAMES = [
    "_newton_batch", "_coefficient_newton", "_coefficient_residual", "_make_starts",
    "_coefficient_starts", "_newton_steps", "BOX", "NEWTON_FLOOR", "NEWTON_ITERATIONS", "COEFF_TOL",
]


def _square_eig_branches(ode: PolyODE, n: int, variable: Variable) -> list[np.ndarray]:
    """The square eigenproblem that m = 1 once solved apart from the other
    families: the real eigenvalues of -A (T0 is the identity) whose
    eigenvector c has c_n != 0, the roots of each polished and filtered."""
    x, vecs = np.linalg.eig(-bethe._ode_matrix(ode, n))
    branches = []
    for c in vecs.T[(x.imag == 0.0) & (vecs[-1].real != 0.0)].real:
        start = bethe._canonical_order(np.roots(c[::-1]).astype(complex))
        accepted = bethe._branches(ode, start[None, :], variable)[0]
        if accepted and not _near(accepted.as_array(), branches):
            branches.append(accepted.as_array())
    return branches


class TestEnumeration:
    """The branches are the null vectors of the ODE's matrix on polynomials
    of degree n at the real solutions of its m-parameter eigenproblem, for
    m = 1 to 4."""

    @pytest.mark.parametrize("family, draw", SQUARE)
    def test_m1_branches_are_the_real_eigenvectors_of_the_square_matrix(self, family, draw):
        for n in range(1, 6):
            ode, variable = build_ode(_sweep_problem(family, draw, n))
            assert bethe._ode_matrix(ode, n).shape == (n + 1, n + 1)
            enumerated = [s.as_array() for s in solve_bae(ode, n, variable=variable)]
            reference = _square_eig_branches(ode, n, variable)
            assert len(enumerated) == len(reference) == n + 1
            for roots in reference:
                assert _near(roots, enumerated)

    @pytest.mark.parametrize("family, draw, n", NEWTON_SHORT)
    def test_operation_newton_left_short_gets_every_branch(self, family, draw, n):
        assert len(_solve(_sweep_problem(family, draw, n))) == n + 1

    @pytest.mark.parametrize("family, draw, n", NEWTON_MISSES)
    def test_operation_newton_misses_gets_every_branch_and_more(self, family, draw, n):
        problem = _sweep_problem(family, draw, n)
        enumerated = [s.as_array() for s in _solve(problem)]
        newton = _newton_accepted(problem)
        assert newton
        for roots in newton:
            assert _near(roots, enumerated)
        assert any(not _near(b, newton) for b in enumerated)

    @pytest.mark.parametrize("draw, n", OCTIC_MISSES)
    def test_every_octic_branch_of_600_newton_starts_is_enumerated(self, draw, n):
        problem = _sweep_problem(Family.OCTIC, draw, n)
        ode, variable = build_ode(problem)
        enumerated = [s.as_array() for s in _solve(problem)]
        reference = newton_reference.newton_branches(ode, n, MANY_STARTS, variable)
        assert reference
        for s in reference:
            assert _near(s.as_array(), enumerated)

    @pytest.mark.parametrize("family, draw", SQUARE)
    def test_n_plus_one_branches_whatever_the_starts(self, family, draw):
        for n in range(1, 6):
            problem = _sweep_problem(family, draw, n)
            branches = _solve(problem)
            assert len(branches) == n + 1
            assert branches == _solve(problem)

    @pytest.mark.parametrize("family, draw", RECTANGULAR + OCTIC)
    def test_same_branches_whatever_the_starts(self, family, draw):
        # Two calls give bit-identical RootSets: no seed or start count
        # takes part.
        for n in range(1, 6):
            problem = _sweep_problem(family, draw, n)
            branches = _solve(problem)
            assert branches
            assert branches == _solve(problem)

    @pytest.mark.parametrize("family, draw", ENUMERATED + OCTIC)
    def test_every_branch_newton_accepts_is_enumerated(self, family, draw):
        for n in range(1, 6):
            problem = _sweep_problem(family, draw, n)
            enumerated = [s.as_array() for s in _solve(problem)]
            accepted = _newton_accepted(problem)
            assert accepted
            for roots in accepted:
                assert _near(roots, enumerated)

    def test_another_projection_gives_the_same_branches(self, monkeypatch):
        # m = 1 (sextic, coulombic quartic), 2 (harmonic quartic, decatic),
        # 3 (coulombic octic) and 4 (harmonic octic).
        fixed = {
            (family, draw, n): [s.as_array() for s in _solve(_sweep_problem(family, draw, n))]
            for family, draw in ENUMERATED + OCTIC
            for n in range(1, 6)
        }
        monkeypatch.setattr(bethe, "_PROJECTION_SEED", bethe._PROJECTION_SEED + 1)
        for (family, draw, n), branches in fixed.items():
            other = [s.as_array() for s in _solve(_sweep_problem(family, draw, n))]
            assert len(other) == len(branches)
            for a, b in zip(other, branches):
                assert max_abs(a - b) < bethe.DEDUP_TOL

    def test_no_family_runs_newton(self, monkeypatch):
        # No solve draws random starts: once the fixed change of parameters
        # is cached, a solve of any family makes no random generator.
        problems = [
            _sweep_problem(family, draw, 5)
            for family, draw in [(Family.SEXTIC, 0), (Family.QUARTIC, 0), (Family.QUARTIC, 1),
                                 (Family.OCTIC, 0), (Family.OCTIC, 1), (Family.DECATIC, 0)]
        ]
        expected = [_solve(p) for p in problems]

        def no_generator(*args, **kwargs):
            raise AssertionError("a random generator was made")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        assert [_solve(p) for p in problems] == expected
        assert not [name for name in NEWTON_NAMES if hasattr(bethe, name)]


class TestBranch:
    """`_branches` polishes a candidate and filters it.  No gate on the
    singular values of A + w0 T0 follows: a candidate off its null space
    either polishes back onto a branch or fails the filters."""

    @pytest.mark.parametrize("draw, n", [(0, 1), (0, 3), (7, 5)])
    def test_a_candidate_off_the_null_space_is_rejected(self, monkeypatch, draw, n):
        ode, variable = build_ode(_sweep_problem(Family.SEXTIC, draw, n))
        A = bethe._ode_matrix(ode, n)
        coeffs = bethe._multiparameter(A, bethe._shifts(n, 1))
        assert len(coeffs) == n + 1

        def start(c):
            return bethe._canonical_order(np.roots(c[::-1]).astype(complex))

        for c in coeffs:
            w0 = -(c @ A @ c) / (c @ c)  # A c = -w0 c
            off = c + 1e-6 * max_abs(c) * np.eye(n + 1)[0]
            M = A + w0 * np.eye(n + 1)
            assert np.linalg.norm(M @ off) > 1e-8 * np.linalg.norm(M, 2) * np.linalg.norm(off)
            branch = bethe._branches(ode, start(c)[None, :], variable)[0]
            polished = bethe._branches(ode, start(off)[None, :], variable)[0]
            assert branch is not None and polished is not None
            assert max_abs(polished.as_array() - branch.as_array()) < bethe.DEDUP_TOL
            with monkeypatch.context() as mp:
                mp.setattr(bethe, "_polish", lambda ode, roots: roots)
                assert bethe._branches(ode, start(off)[None, :], variable)[0] is None


def _kronecker_pencil(A: np.ndarray, Bs: list, seed: int):
    """Delta_0 and Delta_m of the problem after bethe's change of parameters,
    projected by m random P_i: (n+1)^m-square Kronecker determinants."""
    n, m = A.shape[1] - 1, len(Bs)
    Q = bethe._parameter_change(m, bethe._PROJECTION_SEED)
    M = np.tensordot(Q.T, np.array([A, *Bs]), axes=1)
    P = np.random.default_rng(seed).standard_normal((m, n + 1, n + m))

    def determinant(V):
        total = 0.0
        for perm in itertools.permutations(range(m)):
            term = np.ones((1, 1))
            for i, j in enumerate(perm):
                term = np.kron(term, V[i][j])
            total = total + np.linalg.det(np.eye(m)[list(perm)]) * term
        return total

    V = [[P[i] @ M[j] for j in range(1, m + 1)] for i in range(m)]
    delta0 = determinant(V)
    for i in range(m):
        V[i][m - 1] = -P[i] @ M[0]
    return delta0, determinant(V)


class TestPencil:
    """`_multiparameter` solves the exterior pencil in place of the Galerkin
    pencil S^T Delta_k S of the projected Kronecker problem."""

    @pytest.mark.parametrize("family, draw", [(Family.QUARTIC, 0), (Family.OCTIC, 1), (Family.OCTIC, 0)])
    @pytest.mark.parametrize("n", [1, 2])
    def test_same_eigenvalues_as_the_projected_galerkin_pencil(self, family, draw, n):
        ode, _ = build_ode(_sweep_problem(family, draw, n))
        A = bethe._ode_matrix(ode, n)
        m = A.shape[0] - n
        Bs = bethe._shifts(n, m)
        of, _, _, value, _ = bethe._symmetric_basis(n, m)
        S = np.zeros(((n + 1) ** m, of.max() + 1))
        S[np.arange(len(of)), of] = value
        assert max_abs(S.T @ S - np.eye(S.shape[1])) < 1e-14
        Q = bethe._parameter_change(m, bethe._PROJECTION_SEED)
        M = np.tensordot(Q.T, np.array([A, *Bs]), axes=1)
        W = bethe._exterior_pencil([*M[1:m], np.vstack([M[m], -M[0]])], n)
        ours = np.linalg.eigvals(np.linalg.solve(W[0], W[1]))
        for seed in (0, 1):
            delta0, deltam = _kronecker_pencil(A, Bs, seed)
            galerkin = np.linalg.eigvals(np.linalg.solve(S.T @ delta0 @ S, S.T @ deltam @ S))
            assert len(galerkin) == len(ours) == math.comb(n + m, m)
            for mu in galerkin:
                assert np.min(np.abs(ours - mu)) < 1e-8 * max(1.0, abs(mu))

    def test_peak_memory_of_the_largest_sweep_solve(self):
        # Harmonic octic draw 2 at n = 5: m = 4, so a 126-square pencil, here
        # with its tables built afresh.  Its Kronecker determinants would be
        # 1296 square, 13 MB each.
        import tracemalloc

        ode, variable = build_ode(_sweep_problem(Family.OCTIC, 2, 5))
        bethe._symmetric_basis.cache_clear()
        bethe._laplace_steps.cache_clear()
        tracemalloc.start()
        try:
            solve_bae(ode, 5, variable=variable)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


# Harmonic octic draw 0 of the acceptance sweep at n = 4: its working ODE
# has four root-dependent W coefficients, and the reference Newton search
# finds the 12 branches that solve_bae enumerates from 48 starts and from 600.
SEARCHED = _sweep_problem(Family.OCTIC, 0, 4)


def _searched_branches(cfg=MANY_STARTS):
    steps = []
    real_steps = newton_reference._newton_steps

    def counted(J, R):
        steps.append(len(J))
        return real_steps(J, R)

    ode, variable = build_ode(SEARCHED)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(newton_reference, "_newton_steps", counted)
        branches = [s.as_array() for s in newton_reference.newton_branches(ode, SEARCHED.n, cfg, variable)]
    assert steps, "the Newton passes did not run"
    return branches


@pytest.fixture(scope="module")
def searched_rows():
    """The start rows of both Newton passes and the branches they give."""
    n = SEARCHED.n
    return _make_starts(n, MANY_STARTS), _coefficient_starts(n, MANY_STARTS), _searched_branches()


def _branches_from_rows(root_rows, coeff_rows):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(newton_reference, "_make_starts", lambda n, cfg: root_rows)
        mp.setattr(newton_reference, "_coefficient_starts", lambda n, cfg: coeff_rows)
        return _searched_branches()


class TestBranchSetIndependentOfStarts:
    """The reference search at SEARCHED: its branch set does not depend on
    the order of the starts, and is the enumerated one."""

    def test_more_starts_keep_every_branch(self):
        few = _searched_branches(SolverConfig(seed=2026, starts=48))
        many = _searched_branches()
        enumerated = [s.as_array() for s in _solve(SEARCHED)]
        assert len(few) == len(many) == len(enumerated) == 12
        for a, b, c in zip(few, many, enumerated):
            assert _same_branch(a, b) and _same_branch(b, c)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        root_perm=st.permutations(range(MANY_STARTS.starts)),
        coeff_perm=st.permutations(range(MANY_STARTS.starts)),
    )
    def test_permuted_starts_give_the_same_branches(self, searched_rows, root_perm, coeff_perm):
        root_rows, coeff_rows, full = searched_rows
        got = _branches_from_rows(root_rows[root_perm], coeff_rows[coeff_perm])
        assert len(got) == len(full)
        for a, b in zip(got, full):
            assert _same_branch(a, b)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(k_root=st.integers(1, MANY_STARTS.starts), k_coeff=st.integers(1, MANY_STARTS.starts))
    def test_a_prefix_of_the_starts_gives_a_subset(self, searched_rows, k_root, k_coeff):
        root_rows, coeff_rows, full = searched_rows
        got = _branches_from_rows(root_rows[:k_root], coeff_rows[:k_coeff])
        for a in got:
            assert any(_same_branch(a, b) for b in full)


# Sextic draw 0 of the acceptance sweep at n = 5: six branches on very
# different scales, with roots up to about 45.
SWEEP_SEXTIC_N5 = _sweep_problem(Family.SEXTIC, 0, 5)


class TestNewtonStopsWhenSettled:
    """Started at an accepted branch, each reference pass returns it within
    two steps.

    The sextic's roots reach about 45 here, so the coefficients' rounding
    floor lies above the absolute convergence floor; a pass must stop on a
    rounding-level step instead of running out its iterations.
    """

    @pytest.fixture
    def steps(self, monkeypatch):
        real_steps = newton_reference._newton_steps
        calls = []

        def counted(J, R):
            calls.append(len(J))
            return real_steps(J, R)

        monkeypatch.setattr(newton_reference, "_newton_steps", counted)
        return calls

    def test_each_pass_returns_a_branch_it_starts_at(self, steps):
        ode, _ = build_ode(SWEEP_SEXTIC_N5)
        full = [s.as_array() for s in _solve(SWEEP_SEXTIC_N5)]
        assert len(full) == 6
        for branch in full:
            steps.clear()
            coeffs = _coefficient_newton(ode, poly_from_roots(branch).real[None, :-1])
            assert len(steps) <= 2
            assert len(coeffs) == 1
            roots = np.roots(np.concatenate([coeffs[0], [1.0]])[::-1])
            assert _same_branch(bethe._canonical_order(roots), branch)
            steps.clear()
            rows = _newton_batch(ode, branch[None, :])
            assert len(steps) <= 2
            assert len(rows) == 1
            assert _same_branch(bethe._canonical_order(rows[0]), branch)


class TestPolynomialIdentity:
    def test_n0_exactly_zero(self):
        w = compute_w_coefficients(QUARTIC_ODE, [])
        assert verify_polynomial_identity(QUARTIC_ODE, [], w) == 0.0

    def test_n1_exact_root(self):
        w = compute_w_coefficients(QUARTIC_ODE, [PLASTIC])
        assert verify_polynomial_identity(QUARTIC_ODE, [PLASTIC], w) < 1e-12

    def test_n1_perturbed_root(self):
        t = PLASTIC + 1e-3
        w = compute_w_coefficients(QUARTIC_ODE, [t])
        assert verify_polynomial_identity(QUARTIC_ODE, [t], w) > 1e-4


class TestNoSolution:
    def test_unsolvable_system_raises(self):
        from qesolve import NoSolutionFound

        # Q a nonzero constant: the single residue condition Q(t)/P(t) = 0
        # has no solution anywhere, but far out every root set passes the
        # filters, so deg Q < deg P is refused before any candidate.
        ode = PolyODE((0, 0, 1, 0, 0), (1.0, 0, 0, 0, 0, 0))
        with pytest.raises(NoSolutionFound, match="^deg Q < deg P: "):
            solve_bae(ode, 1)
        # Q = 0 has no degree: every root of degree 1 solves Q/P = 0.
        with pytest.raises(NoSolutionFound, match="^deg Q < deg P: "):
            solve_bae(PolyODE((1.0,), ()), 1)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_no_candidate_accepted_raises(self, n):
        from qesolve import NoSolutionFound

        # Q/P = 1: the residue conditions sum to n, never to 0.
        ode = PolyODE((0, 0, 1, 0, 0), (0, 0, 1.0, 0, 0, 0))
        with pytest.raises(NoSolutionFound, match=f"^no enumerated candidate of degree {n} was accepted$"):
            solve_bae(ode, n)


class TestInputChecks:
    def test_p_identically_zero_is_rejected(self):
        with pytest.raises(ValueError, match="P\\(t\\) must not be identically zero"):
            PolyODE((0, 0, 0, 0, 0), (1.0, 0, 0, 0, 0, 0))

    @pytest.mark.parametrize("p, q, name, length", [((0, 0, 1, 0, 0, 0), (1.0,), "p", 5), ((0, 0, 1), (1.0,) * 7, "q", 6)])
    def test_too_many_coefficients_are_rejected(self, p, q, name, length):
        with pytest.raises(ValueError, match=f"^{name} accepts at most {length} coefficients$"):
            PolyODE(p, q)

    @pytest.mark.parametrize(
        "field, value", [("seed", -1), ("seed", 1.0), ("seed", True), ("starts", 0), ("starts", 2.0), ("starts", True)]
    )
    def test_solver_config_rejects(self, field, value):
        # A bool is an Integral, but no seed or start count: FamilyProblem
        # rejects a boolean n the same way.
        with pytest.raises(InvalidParameter, match=f"^{field} must be a"):
            SolverConfig(**{field: value})

    def test_negative_degree_is_rejected(self):
        with pytest.raises(ValueError, match="n must be non-negative"):
            solve_bae(QUARTIC_ODE, -1)
