import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qesolve import (
    Case,
    bae_residuals,
    compute_w_coefficients,
    Family,
    FamilyProblem,
    InvalidCase,
    InvalidParameter,
    ReductionLimit,
    RootSet,
    schrodinger_residual,
    SolverConfig,
    Variable,
    build_ode,
    derive_parameters,
    reduction_check,
    solve_bae,
    solve_family,
    solve_family_detailed,
    verify_solution,
)
from qesolve import bethe, families, oracle, wavefunction

from conftest import (
    decatic,
    max_abs,
    octic_coulombic,
    octic_harmonic,
    quartic_coulombic,
    quartic_harmonic,
    sextic,
)
from scan_reference import _follow, scan_matches

PLASTIC = 1.3247179572447460


# (id, problem factory, the constraint it violates)
VALIDATION_CASES = [
    ("quartic-d", lambda: quartic_harmonic(d=-1.0), "d > 0"),
    ("quartic-omega", lambda: quartic_harmonic(omega=0.0), "omega > 0"),
    ("quartic-match_ell-omega", lambda: quartic_harmonic(omega=0.0, match_ell=True), "omega > 0"),
    ("quartic-coulombic-a", lambda: quartic_coulombic(a=1.0), "a < 0"),
    ("quartic-coulombic-d", lambda: quartic_coulombic(d=0.0), "d > 0"),
    ("sextic-d", lambda: sextic(d=0.0), "d > 0"),
    ("sextic-omega", lambda: sextic(omega=-1.0), "omega > 0"),
    ("sextic-match_ell-d", lambda: sextic(d=-0.5, match_ell=True), "d > 0"),
    ("octic-h", lambda: octic_harmonic(h=0.0), "h > 0"),
    ("octic-omega", lambda: octic_harmonic(omega=0.0), "omega > 0"),
    (
        "octic-match_ell-omega",
        lambda: FamilyProblem(
            Family.OCTIC, Case.HARMONIC, 0, 0,
            {"omega": 0.0, "e": 0.0, "f": 0.0, "g": 0.0, "h": 0.5}, True,
        ),
        "omega > 0",
    ),
    ("octic-coulombic-a", lambda: octic_coulombic(a=1.0), "a < 0"),
    ("octic-coulombic-h", lambda: octic_coulombic(h=-0.5), "h > 0"),
    ("decatic-d", lambda: decatic(d=0.0), "d > 0"),
    ("decatic-omega", lambda: decatic(omega=0.0), "omega > 0"),
    ("decatic-match_ell-d", lambda: decatic(d=-0.5, match_ell=True), "d > 0"),
    ("quartic-n-non-integral", lambda: quartic_harmonic(n=2.5), "n is an integer"),
    ("sextic-n-float", lambda: sextic(n=2.0), "n is an integer"),
    ("sextic-d-inf", lambda: sextic(d=math.inf), "couplings are finite"),
    ("octic-e-nan", lambda: octic_harmonic(e=math.nan), "couplings are finite"),
    ("quartic-coulombic-a-minus-inf", lambda: quartic_coulombic(a=-math.inf), "couplings are finite"),
    ("decatic-ell-nan", lambda: decatic(ell=math.nan), "ell is finite"),
    ("sextic-match_ell-ell-inf", lambda: sextic(ell=math.inf, match_ell=True), "ell is finite"),
    ("quartic-n-string", lambda: quartic_harmonic(n="2"), "n is an integer"),
    ("octic-n-none", lambda: octic_harmonic(n=None), "n is an integer"),
    ("quartic-n-bool", lambda: quartic_harmonic(n=True), "n is an integer"),
    ("quartic-ell-bool", lambda: quartic_harmonic(ell=True), "ell is a real number"),
    ("quartic-omega-bool", lambda: quartic_harmonic(omega=True), "couplings are finite"),
    ("decatic-ell-string", lambda: decatic(ell="0"), "ell is a real number"),
    ("sextic-ell-none", lambda: sextic(ell=None, match_ell=True), "ell is a real number"),
    ("quartic-c-string", lambda: quartic_harmonic(c="0"), "couplings are finite"),
    ("sextic-match_ell-string", lambda: sextic(match_ell="false"), "match_ell is true or false"),
] + [
    # A starting omega given in match-ell mode must be positive too.
    (
        f"{family.value}-match_ell-omega{omega:+g}",
        lambda family=family, omega=omega, others=others: FamilyProblem(
            family, Case.HARMONIC, 2, 0, {"omega": omega, **others}, True
        ),
        "omega > 0",
    )
    for family, others in (
        (Family.SEXTIC, {"e": 0.5, "d": 0.5}),
        (Family.DECATIC, {"b": 0.0, "c": 1.0, "d": 0.5}),
    )
    for omega in (-1.0, 0.0)
]


class TestBuildOde:
    def test_quartic_harmonic_example(self):
        ode, var = build_ode(quartic_harmonic())
        assert ode.p == (0.0, 0.0, 1.0, 0.0, 0.0)
        assert ode.q == (2.0, 2.0, 0.0, -2.0, 0.0, 0.0)
        assert var is Variable.R

    def test_sextic_example(self):
        ode, var = build_ode(sextic(omega=1.0, e=0.5, d=0.5))
        assert ode.p == (0.0, 0.0, 1.0, 0.0, 0.0)
        assert ode.q == (1.0, 2.5, -1.0, 0.0, 0.0, 0.0)
        assert var is Variable.T_EQ_R2

    def test_decatic_example(self):
        # b=0, c=1, d=0.5 gives eta = 2.75 and q encoding -z^3+3.25z^2+z+1.
        ode, var = build_ode(decatic(omega=1.0, b=0.0, c=1.0, d=0.5))
        assert ode.p == (0.0, 0.0, 0.0, 1.0, 0.0)
        assert ode.q == pytest.approx((1.0, 1.0, 3.25, -1.0, 0.0, 0.0), abs=1e-15)
        assert var is Variable.Z_EQ_R2

    def test_octic_coulombic_q_has_linear_exponential_term(self):
        prob = octic_coulombic(n=0, a=-1.0)
        ode, _ = build_ode(prob)
        # beta = 2, B = a/(n+beta) = -1/2, so q4 = 2B = -1.
        assert ode.q == pytest.approx((2.0, 0.0, 0.0, 4.0, -1.0, 0.0), abs=1e-15)

    @pytest.mark.parametrize(
        "make, rule",
        [case[1:] for case in VALIDATION_CASES],
        ids=[case[0] for case in VALIDATION_CASES],
    )
    def test_validation_table(self, make, rule):
        # n must be an int, ell and every coupling finite, and match_ell a
        # bool.  The top coupling (h for the octic, d otherwise) must be
        # positive, coulombic cases need a < 0 and the others omega > 0;
        # match_ell lets the sextic and decatic leave omega out, but not
        # give one <= 0.
        with pytest.raises(InvalidParameter, match=rf"^constraint violated: {re.escape(rule)}$"):
            make()

    @pytest.mark.parametrize("make", [sextic, decatic], ids=["sextic", "decatic"])
    def test_match_ell_without_omega_needs_one_given(self, make):
        # Match-ell mode may leave omega out; building the ODE or deriving
        # the couplings then needs an omega passed in.
        problem = make(n=0, match_ell=True)
        with pytest.raises(InvalidParameter, match="omega is required unless match_ell is set"):
            build_ode(problem)
        _, variable = build_ode(problem, 1.0)
        with pytest.raises(InvalidParameter, match="omega is required unless match_ell is set"):
            derive_parameters(problem, RootSet(0, (), variable, 0.0, math.inf))
        assert derive_parameters(problem, RootSet(0, (), variable, 0.0, math.inf), 1.0)[0]["omega"] == 1.0

    def test_validation_messages(self):
        with pytest.raises(InvalidCase):
            FamilyProblem(Family.SEXTIC, Case.COULOMBIC, 0, 0, {"a": -1.0, "e": 0.0, "d": 0.5})
        with pytest.raises(InvalidParameter, match="expects couplings"):
            FamilyProblem(Family.QUARTIC, Case.HARMONIC, 0, 0, {"omega": 1.0, "d": 0.5})

    def test_case_none_is_not_a_case(self):
        # "none" was an alias of harmonic that no caller passed.
        with pytest.raises(ValueError):
            Case("none")
        with pytest.raises(ValueError):
            FamilyProblem(Family.QUARTIC, "none", 0, 0, {"omega": 1.0, "c": 0.0, "d": 0.5})


class TestQuartic:
    def test_ground_state_values(self, cfg_small):
        sols = solve_family(quartic_harmonic(n=0), cfg_small)
        assert len(sols) == 1
        s = sols[0]
        assert s.energy == pytest.approx(1.5, abs=1e-13)
        assert s.derived["a"] == pytest.approx(-1.0, abs=1e-13)
        assert s.derived["b"] == pytest.approx(0.0, abs=1e-13)
        assert s.waveform.leading_exponent == 1.0
        assert s.waveform.exp_coeffs == {2: -0.5, -1: -1.0}

    def test_first_excited_branch(self, cfg):
        # The n = 1 residue condition is cubic; its only conjugation-closed
        # solution is the real root of t^3 - t - 1 (the other two roots of
        # the cubic form a complex pair and cannot appear alone).
        sols = solve_family(quartic_harmonic(n=1), cfg)
        assert len(sols) == 1
        s = sols[0]
        r1 = s.roots.roots[0].real
        assert r1 == pytest.approx(PLASTIC, abs=1e-12)
        assert s.energy == pytest.approx(2.5, abs=1e-13)
        # Printed single-root constraint shapes: a = -omega (r1 + sqrt(2d)),
        # b = (1 + c/sqrt(2d)) - omega r1^2 - ell(ell+1)/2 at gamma = 1.
        assert s.derived["a"] == pytest.approx(-(1.0 + r1), abs=1e-12)
        assert s.derived["b"] == pytest.approx(1.0 - r1 * r1, abs=1e-12)
        assert s.diagnostics["schrodinger_residual"] < 1e-9

    def test_derive_rejects_non_solution_roots(self, cfg):
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        bad = RootSet(1, (complex(phi),), Variable.R, 0.0, math.inf)
        with pytest.raises(InvalidParameter, match="do not solve"):
            derive_parameters(quartic_harmonic(n=1), bad)

    def test_coulombic_ground_state(self, cfg_small):
        sols = solve_family(quartic_coulombic(n=0, a=-1.0, c=0.0, d=0.5), cfg_small)
        assert len(sols) == 1
        s = sols[0]
        assert s.derived["B"] == pytest.approx(-1.0, abs=1e-14)
        assert s.energy == pytest.approx(-0.5, abs=1e-14)
        # The 1/r^2 coupling solving the radial equation for these inputs
        # (checked against the equation itself, see oracle tests).
        assert s.derived["b"] == pytest.approx(-1.0, abs=1e-13)
        assert s.diagnostics["schrodinger_residual"] < 1e-10

    def test_coulombic_n1_printed_root_equation(self, cfg):
        # B r^2 + gamma r + sqrt(2d) = 0 for n = 1 (omega = 0 case).
        prob = quartic_coulombic(n=1, a=-1.0, c=0.0, d=0.5)
        sols = solve_family(prob, cfg)
        assert sols
        bexp = -1.0 / 2.0  # a / (n + gamma)
        for s in sols:
            r1 = s.roots.roots[0]
            assert abs(bexp * r1**2 + r1 + 1.0) < 1e-10
            assert s.derived["B"] == pytest.approx(bexp, abs=1e-14)
            assert s.derived["B"] < 0.0

    def test_harmonic_b_includes_gamma_term(self, cfg_small):
        # For c != 0 the 1/r^2 constraint carries gamma(gamma-1); the
        # radial-equation residual (diagnostics) certifies the value.
        s = solve_family(quartic_harmonic(n=0, c=1.0, d=0.5), cfg_small)[0]
        assert s.derived["b"] == pytest.approx(1.0, abs=1e-13)
        assert s.energy == pytest.approx(2.5, abs=1e-13)
        assert s.diagnostics["schrodinger_residual"] < 1e-10

    def test_state_too_wide_to_normalize_is_a_failure(self):
        # omega = 1e-25 spreads the ground state past the support scan: its
        # norm raises NotIntegrable, which is recorded for the branch.
        solutions, failures = solve_family_detailed(quartic_harmonic(n=0, omega=1e-25, c=0.0, d=0.5))
        assert solutions == []
        assert [(f.error, f.roots.n) for f in failures] == [("NotIntegrable", 0)]

    def test_norm_beyond_the_largest_float_is_a_failure(self):
        # c = 400 makes |Psi|^2 integrate to about e^2003: its norm raises
        # NotIntegrable, recorded for the branch, and not an OverflowError
        # out of the solve.  c = 100 (norm about 3.8e158) still normalizes.
        solutions, failures = solve_family_detailed(quartic_harmonic(n=0, omega=1.0, c=400.0, d=0.5))
        assert solutions == []
        assert [(f.error, f.roots.n) for f in failures] == [("NotIntegrable", 0)]
        assert "exceeds the largest float" in failures[0].detail
        (s,) = solve_family(quartic_harmonic(n=0, omega=1.0, c=100.0, d=0.5))
        assert 1e158 < s.diagnostics["norm"] < 1e159


class TestSextic:
    def test_n1_roots_both_signs(self):
        ode, var = build_ode(sextic(n=1, omega=1.0, e=0.0, d=0.5))
        from qesolve import solve_bae

        roots = sorted(s.roots[0].real for s in solve_bae(ode, 1, variable=var))
        assert roots == pytest.approx([1 - math.sqrt(2), 1 + math.sqrt(2)], abs=1e-12)

    def test_n1_feasibility_split(self, cfg):
        sols, fails = solve_family_detailed(sextic(n=1, omega=1.0, e=0.0, d=0.5), cfg)
        assert len(sols) == 1
        assert sols[0].roots.roots[0].real == pytest.approx(1 - math.sqrt(2), abs=1e-12)
        assert sols[0].derived["l_half_sq"] == pytest.approx(3 + 4 * math.sqrt(2), abs=1e-12)
        assert len(fails) == 1 and fails[0].error == "ConstraintInfeasible"

    def test_n0_derived_ell(self, cfg_small):
        s = solve_family(sextic(n=0, omega=1.0, e=0.5, d=0.5), cfg_small)[0]
        assert s.derived["l_half_sq"] == pytest.approx(0.25, abs=1e-14)
        assert s.derived["ell"] == pytest.approx(0.0, abs=1e-14)
        assert s.energy == pytest.approx(2.5, abs=1e-14)

    def test_match_ell_recovers_omega(self, cfg_small):
        s = solve_family(sextic(n=0, e=0.5, d=0.5, match_ell=True), cfg_small)[0]
        assert s.derived["omega"] == pytest.approx(1.0, abs=1e-12)
        assert s.energy == pytest.approx(2.5, abs=1e-12)

    # n = 3: the sextic has exactly n + 1 branches, and each one reaches
    # ell = 0 at some omega.
    EVERY_BRANCH = sextic(n=3, e=-0.08210087335611532, d=1.3674567281270278, match_ell=True)

    def test_match_ell_matches_every_branch(self, monkeypatch):
        # The match is an eigenproblem: no root system is solved at a
        # starting omega, and no branch is followed in omega.
        def solve_bae(*args):
            raise AssertionError("match-ell mode solved the root system at a starting omega")

        monkeypatch.setattr(families, "solve_bae", solve_bae)
        solutions, failures = solve_family_detailed(self.EVERY_BRANCH, SolverConfig(seed=2026, starts=48))
        assert failures == []
        assert len(solutions) == 4
        for s in solutions:
            # Matched at rounding level, as a bisection to machine width is.
            assert abs(s.derived["l_half_sq"] - 0.25) <= 1e-13
            assert abs(s.derived["ell"]) <= 1e-9

    def test_match_ell_lands_where_the_branch_is_followed(self):
        # Each branch at omega = 1, followed hop by hop (the scan's `_follow`)
        # to the omega of one returned match, lands on that match's roots,
        # and every match is reached from a different branch.
        prob = self.EVERY_BRANCH
        ode, variable = build_ode(prob, 1.0)
        solutions = solve_family(prob)
        reached = []
        for branch in solve_bae(ode, prob.n, variable=variable):
            landed = [
                j for j, s in enumerate(solutions)
                if (moved := _follow(prob, branch, 1.0, s.derived["omega"])) is not None
                and max_abs(moved.as_array() - s.roots.as_array()) <= 1e-8
            ]
            assert len(landed) == 1
            reached += landed
        assert sorted(reached) == [0, 1, 2, 3]

    @pytest.mark.parametrize("omega0", [0.1, 1.0, 3.0])
    def test_match_ell_picks_the_match_a_scan_picks(self, omega0):
        # n = 2, ell = 4: the top branch has the requested ell at omega =
        # 0.227 and 1.68, and neither other branch has it at any omega > 0.
        # Both are returned whatever the given omega, and the match that the
        # scan down, then up, from omega0 picks is one of them.
        prob = FamilyProblem(Family.SEXTIC, Case.HARMONIC, 2, 4, {"omega": omega0, "e": -0.72, "d": 1.0}, True)
        solutions, failures = solve_family_detailed(prob)
        assert failures == []
        omegas = sorted(s.derived["omega"] for s in solutions)
        assert omegas == [pytest.approx(0.2272, abs=1e-4), pytest.approx(1.6816, abs=1e-4)]
        scanned = scan_matches(prob, omega0)
        assert [om for _, om in scanned] == [pytest.approx(1.6816 if omega0 > 1.6816 else 0.2272, abs=1e-4)]
        for roots, omega in scanned:
            assert any(
                s.derived["omega"] == pytest.approx(omega, rel=1e-12)
                and max_abs(s.roots.as_array() - roots.as_array()) <= 1e-8
                for s in solutions
            )

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from([Family.SEXTIC, Family.DECATIC]),
        n=st.integers(1, 3),
        ell=st.integers(0, 2),
        e=st.floats(-0.5, 1.2),
        d=st.floats(0.3, 1.5),
    )
    def test_match_ell_does_not_depend_on_the_starting_omega(self, family, n, ell, e, d):
        # A given omega is validated but not used: every match in range is
        # returned, bit for bit the same.
        others = {"e": e} if family is Family.SEXTIC else {"b": 0.2, "c": e / 2.0}
        problems = [
            FamilyProblem(family, Case.HARMONIC, n, ell, {"omega": omega0, "d": d, **others}, True)
            for omega0 in (0.3, 1.0, 3.0)
        ]
        cfg = SolverConfig(seed=0, starts=40)
        matched = [[(s.derived["omega"], s.roots) for s in solve_family(p, cfg)] for p in problems]
        assert matched[1] == matched[0] and matched[2] == matched[0]

    def test_match_ell_no_positive_omega_is_recorded(self):
        # n = 1: the pencil's determinant is omega (omega + 1) / 4, so its
        # eigenvalues are 0 and -1, and the problem has no match: one record.
        prob = sextic(n=1, ell=3, e=0.5, d=0.5, match_ell=True)
        solutions, failures = solve_family_detailed(prob, SolverConfig(seed=0, starts=40))
        no_match = "no omega in (0, 1e3] matches the requested ell"
        assert solutions == []
        assert [(f.roots, f.error, f.detail) for f in failures] == [(None, "ConstraintInfeasible", no_match)]

    def test_positive_root_feasible_at_small_omega(self, cfg):
        # Small omega keeps (l+1/2)^2 positive on the positive-root branch.
        sols = solve_family(sextic(n=1, omega=0.1, e=1.0, d=0.5), cfg)
        positive = [s for s in sols if s.roots.roots[0].real > 0]
        assert positive
        assert positive[0].diagnostics["schrodinger_residual"] < 1e-9


class TestOctic:
    def test_ground_state_example(self, cfg_small):
        s = solve_family(octic_harmonic(n=0), cfg_small)[0]
        assert s.energy == pytest.approx(2.5, abs=1e-13)
        for key, val in {"a": 0.0, "b": 1.0, "c": -1.0, "d": 0.0}.items():
            assert s.derived[key] == pytest.approx(val, abs=1e-13)
        assert s.waveform.leading_exponent == pytest.approx(2.0, abs=1e-15)

    def test_n1_printed_root_equation(self, cfg):
        # -omega r^5 + beta r^3 + fh r^2 + (g/sqrt(2h)) r + sqrt(2h) = 0.
        prob = octic_harmonic(n=1, omega=1.0, e=0.2, f=0.1, g=0.3, h=0.5)
        h, g, f, e = 0.5, 0.3, 0.1, 0.2
        s2h = math.sqrt(2 * h)
        fh = (f - g * g / (4 * h)) / s2h
        beta = 2 + e / s2h + 0.25 * g * math.sqrt(2 / h**3) * (g * g / (4 * h) - f)
        sols = solve_family(prob, cfg)
        assert sols
        for s in sols:
            r1 = s.roots.roots[0]
            val = -(r1**5) + beta * r1**3 + fh * r1**2 + (g / s2h) * r1 + s2h
            assert abs(val) < 1e-10

    def test_coulombic_n0(self, cfg_small):
        s = solve_family(octic_coulombic(n=0, a=-1.0), cfg_small)[0]
        assert s.derived["B"] == pytest.approx(-0.5, abs=1e-14)
        assert s.energy == pytest.approx(-0.125, abs=1e-14)
        assert s.derived["b"] == pytest.approx(1.0, abs=1e-13)
        assert s.derived["c"] == pytest.approx(0.0, abs=1e-13)
        assert s.derived["d"] == pytest.approx(-0.5, abs=1e-13)

    def test_coulombic_n1_printed_root_equation(self, cfg):
        # (a/(1+beta)) r^4 + beta r^3 + fh r^2 + (g/sqrt(2h)) r + sqrt(2h) = 0.
        prob = octic_coulombic(n=1, a=-1.0, e=0.0, f=0.0, g=0.0, h=0.5)
        sols = solve_family(prob, cfg)
        assert sols
        for s in sols:
            r1 = s.roots.roots[0]
            val = (-1.0 / 3.0) * r1**4 + 2.0 * r1**3 + 1.0
            assert abs(val) < 1e-10
            assert s.derived["B"] < 0.0


class TestDecatic:
    def test_match_ell_ground_state_example(self, cfg_small):
        s = solve_family(decatic(n=0, b=0.0, c=1.0, d=0.5, match_ell=True), cfg_small)[0]
        assert s.derived["omega"] == pytest.approx(2.40625, abs=1e-13)
        assert s.derived["a"] == pytest.approx(-1.15625, abs=1e-13)
        assert s.energy == pytest.approx(7.8203125, abs=1e-13)
        assert s.waveform.leading_exponent == pytest.approx(2.75, abs=1e-15)
        # 1/r^6 coupling the constructed state actually solves.
        assert s.derived["b_pot"] == pytest.approx(0.75, abs=1e-13)

    def test_n1_printed_root_equation(self, cfg):
        # -omega sqrt(2d) z^3 + (3 sqrt(2d) + c^2/(8d)) z^2 + c z + 2d = 0
        # (shape parameter b = 0).
        prob = decatic(n=1, omega=1.0, b=0.0, c=1.0, d=0.5)
        sols = solve_family(prob, cfg)
        assert sols
        for s in sols:
            z1 = s.roots.roots[0]
            val = -(z1**3) + (3.0 + 1.0 / (8 * 0.5)) * z1**2 + z1 + 2 * 0.5
            assert abs(val) < 1e-10

    # The scan this mode replaced carried one branch back to the lower end
    # of an omega bracket found scanning up.
    BRACKET_END = decatic(
        n=2,
        b=0.04433974825910281,
        c=0.7109152504047087,
        d=0.34297060582762845,
        match_ell=True,
    )

    def test_match_ell_matches_the_branch_carried_to_a_bracket_end(self):
        solutions, failures = solve_family_detailed(self.BRACKET_END, SolverConfig(seed=2026, starts=48))
        assert failures == []
        assert len(solutions) == 2
        assert all(verify_solution(s).passed for s in solutions)

    def test_match_ell_rejected_candidate_is_recorded_with_its_roots(self, monkeypatch):
        # Make the root filters reject the candidate at the smaller omega:
        # it becomes a record with its roots, and the other match stays.
        accept = bethe._accept

        def reject_below_2(ode, T, variable):  # -q3 is each row's omega
            return [None if -q3 < 2.0 else b for q3, b in zip(np.ravel(ode.q[3]), accept(ode, T, variable))]

        monkeypatch.setattr(bethe, "_accept", reject_below_2)
        solutions, failures = solve_family_detailed(self.BRACKET_END)
        assert [s.derived["omega"] for s in solutions] == [pytest.approx(48.362, rel=1e-4)]
        assert len(failures) == 1
        (failure,) = failures
        assert failure.error == "ConstraintInfeasible"
        assert re.fullmatch(r"the match at omega = 1\.1666\d+: the root filters reject it", failure.detail)
        assert failure.roots.n == 2 and len(failure.roots.roots) == 2
        assert failure.roots.variable is Variable.Z_EQ_R2

    def test_match_ell_no_match_is_one_record(self):
        # Both branches at omega = 1 were scanned over the whole range without
        # a sign change, and the two-parameter problem has no real solution in
        # range: the problem, not each branch, gets one record.
        prob = decatic(n=2, ell=2, b=0.0, c=-0.5, d=1.0, match_ell=True)
        assert scan_matches(prob) == []
        solutions, failures = solve_family_detailed(prob)
        no_match = "no omega in (0, 1e3] matches the requested ell"
        assert solutions == []
        assert [(f.roots, f.error, f.detail) for f in failures] == [(None, "ConstraintInfeasible", no_match)]

    def test_default_mode_derives_ell(self, cfg_small):
        s = solve_family(decatic(n=0, omega=1.0, b=0.0, c=1.0, d=0.5), cfg_small)[0]
        # (l+1/2)^2 = (eta-1/2)^2 - 2 omega c / sqrt(2d) = 2.25^2 - 2.
        assert s.derived["l_half_sq"] == pytest.approx(2.25**2 - 2.0, abs=1e-13)
        assert s.diagnostics["schrodinger_residual"] < 1e-9


class TestEnergyLadder:
    @pytest.mark.parametrize(
        "factory,step",
        [
            (lambda n: quartic_harmonic(n=n, c=0.3, d=0.8, omega=1.25), 1.25),
            (lambda n: sextic(n=n, omega=0.75, e=0.4, d=0.6), 1.5),
            (lambda n: octic_harmonic(n=n, omega=1.1, e=0.1, f=0.1, g=0.2, h=0.7), 1.1),
            (lambda n: decatic(n=n, omega=0.9, b=0.1, c=0.5, d=0.8), 1.8),
        ],
    )
    def test_ladder_spacing(self, factory, step, cfg_small):
        # Spacing is omega (quartic, octic) or 2 omega (sextic, decatic),
        # independent of the roots; exact up to final rounding.
        energies = []
        for n in (0, 1, 2):
            sols, fails = solve_family_detailed(factory(n), cfg_small)
            pool = sols if sols else None
            assert pool is not None, f"no branch at n={n}"
            energies.append(pool[0].energy)
        for e_prev, e_next in zip(energies, energies[1:]):
            assert abs((e_next - e_prev) - step) <= 8 * math.ulp(max(abs(e_next), step))


class TestReduction:
    def test_eps_zero_is_exact(self):
        base = octic_harmonic(n=1, omega=1.0, e=-0.007, f=0.01, g=0.0, h=0.5e-4)
        rep = reduction_check(base, ReductionLimit.TO_QUARTIC, 0.0)
        assert rep.matched >= 1
        assert all(v == 0.0 for v in rep.diffs.values())

    def test_to_quartic_linear_shrink(self):
        base = octic_harmonic(n=1, omega=1.0, e=-0.007, f=0.01, g=0.0, h=0.5e-4)
        r1 = reduction_check(base, ReductionLimit.TO_QUARTIC, 1e-3)
        r2 = reduction_check(base, ReductionLimit.TO_QUARTIC, 1e-4)
        assert r1.matched == r2.matched >= 1
        for key, d1 in r1.diffs.items():
            d2 = r2.diffs[key]
            assert d2 <= max(0.2 * d1, 1e-12), key

    def test_to_sextic_linear_shrink(self):
        base = FamilyProblem(
            Family.OCTIC,
            Case.HARMONIC,
            2,
            0,
            {"omega": 0.25, "e": -1e-3, "f": 0.5, "g": 1e-2, "h": 0.5e-4},
        )
        r1 = reduction_check(base, ReductionLimit.TO_SEXTIC, 1e-2)
        r2 = reduction_check(base, ReductionLimit.TO_SEXTIC, 1e-3)
        assert r1.matched == r2.matched == 2
        for key, d1 in r1.diffs.items():
            d2 = r2.diffs[key]
            assert d2 <= max(0.2 * d1, 1e-12), key

    @pytest.mark.parametrize("eps", [-1e-3, math.nan, math.inf])
    def test_eps_below_zero_or_not_finite_raises(self, eps):
        # s2h = eps on the path: a negative eps left it, and the report
        # read matched 0 and diffs {}.
        base = FamilyProblem(Family.OCTIC, Case.HARMONIC, 2, 0, {"omega": 0.25, "e": -1e-3, "f": 0.5, "g": 1e-2, "h": 0.5e-4})
        with pytest.raises(InvalidParameter, match="finite eps >= 0"):
            reduction_check(base, ReductionLimit.TO_SEXTIC, eps)


# The octics of criterion 9: TO_QUARTIC at eps 1e-3 and 1e-4, TO_SEXTIC at
# eps 1e-2 and 1e-3.
TO_QUARTIC_BASE = dict(n=1, omega=1.0, e=-0.007, f=0.01, g=0.0, h=0.5e-4)
TO_SEXTIC_BASE = dict(n=2, omega=0.25, e=-1e-3, f=0.5, g=1e-2, h=0.5e-4)
DIFF_KEYS = ["energy", "exponent"] + [f"r^-{k}" for k in range(1, 9)]


def _shrinks(r1, r2) -> bool:
    """Criterion 9's check: every difference above 1e-12 at the larger eps
    shrinks at least 5x at the smaller one."""
    return all(r2.diffs[k] <= d1 / 5.0 for k, d1 in r1.diffs.items() if d1 > 1e-12)


class TestReductionPath:
    def test_diffs_keys_in_one_order_at_every_eps(self):
        for eps in (0.0, 1e-3):
            rep = reduction_check(octic_harmonic(**TO_QUARTIC_BASE), ReductionLimit.TO_QUARTIC, eps)
            assert list(rep.diffs) == DIFF_KEYS
        rep = reduction_check(octic_harmonic(**TO_SEXTIC_BASE), ReductionLimit.TO_SEXTIC, 0.0)
        assert list(rep.diffs) == DIFF_KEYS and set(rep.diffs.values()) == {0.0}

    def test_diffs_keys_do_not_depend_on_the_hash_seed(self):
        import os
        import subprocess
        import sys

        code = (
            "from qesolve import FamilyProblem, ReductionLimit, reduction_check\n"
            "p = FamilyProblem('octic', 'harmonic', 2, 0, "
            "{'omega': 0.25, 'e': -1e-3, 'f': 0.5, 'g': 1e-2, 'h': 0.5e-4})\n"
            "print(list(reduction_check(p, ReductionLimit.TO_SEXTIC, 1e-2).diffs))\n"
        )
        src = os.path.dirname(os.path.dirname(families.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        printed = {
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
            ).stdout
            for seed in ("1", "2")
        }
        assert printed == {f"{DIFF_KEYS}\n"}

    def test_vanishing_octic_couplings_are_compared(self):
        # e, f and h (r^-5, r^-6, r^-8) vanish on the quartic path, e, g and
        # h (r^-5, r^-7, r^-8) on the sextic's; each difference is that
        # coupling, doubled.
        rep = reduction_check(octic_harmonic(**TO_QUARTIC_BASE), ReductionLimit.TO_QUARTIC, 1e-3)
        assert rep.diffs["r^-8"] == pytest.approx(1e-6) and rep.diffs["r^-7"] == 0.0
        assert rep.diffs["r^-5"] > 0 and rep.diffs["r^-6"] > 0
        rep = reduction_check(octic_harmonic(**TO_SEXTIC_BASE), ReductionLimit.TO_SEXTIC, 1e-2)
        assert rep.diffs["r^-8"] == pytest.approx(1e-4) and rep.diffs["r^-7"] == pytest.approx(2e-2)
        assert rep.diffs["r^-5"] > 0

    @pytest.mark.parametrize(
        "couplings,limit,message",
        [
            (dict(TO_QUARTIC_BASE, g=1e-5), ReductionLimit.TO_QUARTIC, "TO_QUARTIC path requires g = 0"),
            (dict(TO_QUARTIC_BASE, f=-0.01), ReductionLimit.TO_QUARTIC, "TO_QUARTIC path requires fh > 0"),
            (dict(TO_SEXTIC_BASE, f=0.5001), ReductionLimit.TO_SEXTIC, "TO_SEXTIC path requires f = g^2/(4h)"),
            (dict(TO_SEXTIC_BASE, g=-1e-2), ReductionLimit.TO_SEXTIC, "TO_SEXTIC path requires g > 0"),
            (dict(TO_SEXTIC_BASE, n=3), ReductionLimit.TO_SEXTIC, "TO_SEXTIC comparison needs an even octic degree"),
        ],
    )
    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    def test_guards(self, couplings, limit, message, eps):
        with pytest.raises(InvalidParameter, match=re.escape(message)):
            reduction_check(octic_harmonic(**couplings), limit, eps)

    @pytest.mark.parametrize(
        "couplings,limit,epss,key",
        [
            (TO_QUARTIC_BASE, ReductionLimit.TO_QUARTIC, (1e-3, 1e-4), "c"),
            (TO_SEXTIC_BASE, ReductionLimit.TO_SEXTIC, (1e-2, 1e-3), "e"),
        ],
    )
    def test_a_target_off_the_limit_does_not_shrink(self, couplings, limit, epss, key, monkeypatch):
        import dataclasses

        base = octic_harmonic(**couplings)
        r1, r2 = (reduction_check(base, limit, eps) for eps in epss)
        assert _shrinks(r1, r2)
        path = families._limit_path

        def moved(*args):
            target, octic = path(*args)
            free = dict(target.free, **{key: 1.001 * target.free[key]})
            return dataclasses.replace(target, free=free), octic

        monkeypatch.setattr(families, "_limit_path", moved)
        r1, r2 = (reduction_check(base, limit, eps) for eps in epss)
        assert r1.matched == r2.matched >= 1
        assert not _shrinks(r1, r2)


class _Reads(dict):
    """A dict that records the keys read from it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


class TestFamilyTables:
    """The facts of a family that `_FREE_KEYS`, `_POWERS` and `_chi` each
    hold agree."""

    @pytest.mark.parametrize("key", list(families._FREE_KEYS), ids=lambda key: "-".join(k.value for k in key))
    def test_chi_reads_the_free_couplings_but_the_rates(self, key):
        names = families._FREE_KEYS[key]
        problem = FamilyProblem(*key, 1, 0, {k: -0.5 if k == "a" else 0.5 for k in names})
        reads = _Reads(problem.free)
        object.__setattr__(problem, "free", reads)
        families._chi(problem)
        assert reads.read == set(names) - {"omega", "a"}

    @pytest.mark.parametrize("key", list(families._FREE_KEYS), ids=lambda key: "-".join(k.value for k in key))
    def test_free_couplings_name_powers(self, key):
        # The one exception is the decatic's b, which fixes eta; its r^-6
        # coupling is the derived b_pot.
        family, names = key[0], families._FREE_KEYS[key]
        powers = families._POWERS[family]
        unnamed = {"b"} if family is Family.DECATIC else set()
        assert set(names) - {"omega"} - set(powers.values()) == unnamed

    def test_the_families_that_derive_ell(self):
        assert {f for f in Family if families._derives_ell(f)} == {Family.SEXTIC, Family.DECATIC}


class TestDeterminism:
    def test_identical_seed_identical_output(self):
        cfg = SolverConfig(seed=11, starts=48)
        a = solve_family(sextic(n=2, omega=1.0, e=0.5, d=0.5), cfg)
        b = solve_family(sextic(n=2, omega=1.0, e=0.5, d=0.5), cfg)
        assert [s.roots.roots for s in a] == [s.roots.roots for s in b]
        assert [s.energy for s in a] == [s.energy for s in b]
        assert [s.derived for s in a] == [s.derived for s in b]


class TestCouplingAssignment:
    @pytest.mark.parametrize(
        "factory,potential_keys",
        [
            (lambda: quartic_harmonic(n=1), {"a", "b", "c", "d"}),
            (lambda: quartic_coulombic(n=1), {"a", "b", "c", "d"}),
            (lambda: octic_harmonic(n=1), {"a", "b", "c", "d", "e", "f", "g", "h"}),
            (lambda: octic_coulombic(n=1), {"a", "b", "c", "d", "e", "f", "g", "h"}),
        ],
    )
    def test_disjoint_and_complete(self, factory, potential_keys, cfg):
        sols = solve_family(factory(), cfg)
        assert sols
        for s in sols:
            free = set(s.problem.free)
            derived = set(s.derived) - {"B"}
            assert free | derived >= potential_keys
            assert not (free & derived)


class TestEllMinusOne:
    def test_ell_minus_one_admitted(self, cfg_small):
        # ell = -1 makes the centrifugal strength ell(ell+1) vanish, like
        # ell = 0 but with a distinct 1/r^2 constraint bookkeeping.
        s = solve_family(quartic_harmonic(n=0, ell=-1), cfg_small)[0]
        assert s.energy == pytest.approx(1.5, abs=1e-13)
        assert s.diagnostics["schrodinger_residual"] < 1e-10


class TestWaveFormInvariants:
    def test_shape_constraints_enforced(self):
        from qesolve import InvalidExponent, WaveForm

        with pytest.raises(InvalidExponent):
            WaveForm(-1.0, {2: -0.5, -1: -1.0})
        with pytest.raises(InvalidParameter):
            WaveForm(1.0, {2: 0.5, -1: -1.0})
        with pytest.raises(InvalidParameter):
            WaveForm(1.0, {-1: -1.0})
        with pytest.raises(InvalidParameter):
            WaveForm(1.0, {2: -0.5, -2: 0.1})


# Settings that no caller set, removed with the value each always had: a
# call that still passes one raises TypeError.  Each entry takes a solution
# of the harmonic quartic at n = 1.
REMOVED_SETTINGS = {
    "solve_bae-cfg": lambda s: solve_bae(build_ode(s.problem)[0], 1, SolverConfig()),
    "reduction_check-cfg": lambda s: reduction_check(
        octic_harmonic(n=1, g=0.0), ReductionLimit.TO_QUARTIC, 0.0, SolverConfig()
    ),
    "bae_residuals-denom_tol": lambda s: bae_residuals(build_ode(s.problem)[0], s.roots, denom_tol=1e-12),
    "bae_residuals-sep_tol": lambda s: bae_residuals(build_ode(s.problem)[0], s.roots, sep_tol=1e-8),
    "compute_w_coefficients-conj_tol": lambda s: compute_w_coefficients(
        build_ode(s.problem)[0], s.roots, conj_tol=1e-8
    ),
    "_closing_rows-conj_tol": lambda s: bethe._closing_rows(
        build_ode(s.problem)[0], s.roots.as_array()[None, :], conj_tol=1e-8
    ),
    "derive_parameters-check_tol": lambda s: derive_parameters(s.problem, s.roots, check_tol=1e-8),
    "verify_solution-bae_tol": lambda s: verify_solution(s, bae_tol=1e-10),
    "verify_solution-ident_tol": lambda s: verify_solution(s, ident_tol=1e-10),
    "verify_solution-res_tol": lambda s: verify_solution(s, res_tol=1e-9),
    "schrodinger_residual-node_excl": lambda s: schrodinger_residual(s, node_excl=1e-6),
    "_default_residual_grid-num": lambda s: oracle._default_residual_grid(s, num=200),
    "_split_roots-conj_tol": lambda s: wavefunction._real(s.roots.as_array(), conj_tol=1e-10),
}


@pytest.mark.parametrize("call", REMOVED_SETTINGS.values(), ids=REMOVED_SETTINGS.keys())
def test_removed_setting_raises_type_error(call):
    solution = solve_family(quartic_harmonic(n=1))[0]
    with pytest.raises(TypeError):
        call(solution)
