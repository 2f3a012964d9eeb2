"""Match-ell mode by enumeration: every match in range, checked against the
scan that it replaced (`scan_reference`), and its determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qesolve import Case, Family, FamilyProblem, bethe, families, solve_family, solve_family_detailed
from qesolve.bethe import DEDUP_TOL

from conftest import decatic, max_abs
from coupling_reference import derived_couplings, match_problem
from scan_reference import scan_matches


def workload_problems(family: str) -> list[FamilyProblem]:
    """The match-ell benchmark's 32 problems of one family (8 draws, n = 0..3),
    drawn as `perfbench/workloads.py` draws them, none left out."""
    rng = np.random.default_rng(sum(map(ord, "match_ell")))
    problems = []
    for _ in range(8):
        for fam in ("sextic", "decatic"):
            if fam == "sextic":
                free = {"e": rng.uniform(-0.5, 1.2), "d": rng.uniform(0.3, 1.5)}
            else:
                free = {"b": rng.uniform(-0.4, 0.8), "c": rng.uniform(-0.8, 0.8), "d": rng.uniform(0.3, 1.5)}
            ell = int(rng.integers(0, 3))
            if fam == family:
                problems += [FamilyProblem(Family(fam), Case.HARMONIC, n, ell, free, True) for n in range(4)]
    return problems


DECATIC_WORKLOAD = workload_problems("decatic")


def matches(problem: FamilyProblem) -> list[tuple[np.ndarray, float]]:
    return [(s.roots.as_array(), s.derived["omega"]) for s in solve_family(problem)]


def assert_scan_matches_returned(problem: FamilyProblem):
    """Every match the scan from omega = 1 finds is returned, within 1e-9
    relative in omega and 1e-8 in roots."""
    returned = matches(problem)
    for roots, omega in scan_matches(problem):
        assert any(
            abs(om - omega) <= 1e-9 * omega and max_abs(r - roots.as_array()) <= 1e-8 for r, om in returned
        ), f"the scan's match at omega = {omega!r} is not returned: {[om for _, om in returned]}"


def same_matches(a, b) -> bool:
    return len(a) == len(b) and all(
        abs(oa - ob) <= DEDUP_TOL * oa and max_abs(ra - rb) <= DEDUP_TOL for (ra, oa), (rb, ob) in zip(a, b)
    )


class TestEveryScanMatchIsReturned:
    @pytest.mark.parametrize("problem", DECATIC_WORKLOAD, ids=lambda p: f"n{p.n}-ell{p.ell}-b{p.free['b']:.3f}")
    def test_workload_problem(self, problem):
        assert_scan_matches_returned(problem)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 3),
        ell=st.integers(0, 2),
        b=st.floats(-0.4, 0.8),
        c=st.floats(-0.8, 0.8),
        d=st.floats(0.3, 1.5),
    )
    def test_drawn_problem(self, n, ell, b, c, d):
        assert_scan_matches_returned(decatic(n=n, ell=ell, b=b, c=c, d=d, match_ell=True))

    # Without the projective change of (1, omega, w0), the pencil's E_0 of
    # these two problems has a condition number of ~4e16 and ~1e10 (with
    # it, ~2e4), and the match at omega ~ 1.516 (and ~ 1.016) was lost.
    def test_near_singular_delta0_ell0(self):
        prob = decatic(n=3, ell=0, b=0.18090178094964438, c=-0.03003563625515171, d=1.2390857883838382,
                       match_ell=True)
        assert_scan_matches_returned(prob)
        assert [om for _, om in matches(prob)] == [pytest.approx(1.516379046988272, rel=1e-9)]

    def test_near_singular_delta0_ell1(self):
        prob = decatic(n=3, ell=1, b=0.5217534032658914, c=0.28123426600397794, d=1.4730384336327116,
                       match_ell=True)
        assert_scan_matches_returned(prob)
        assert sorted(om for _, om in matches(prob)) == [
            pytest.approx(1.015824033293721, rel=1e-9),
            pytest.approx(138.9166, rel=1e-6),
        ]


class TestEnumeratedMatches:
    def test_no_root_system_is_solved_at_a_starting_omega(self, monkeypatch):
        def solve_bae(*args):
            raise AssertionError("match-ell mode solved the root system at a starting omega")

        monkeypatch.setattr(families, "solve_bae", solve_bae)
        for problem in DECATIC_WORKLOAD[:8] + workload_problems("sextic")[:8]:
            solve_family_detailed(problem)

    def test_two_calls_are_bit_identical(self):
        def output(problem):
            sols, fails = solve_family_detailed(problem)
            return repr([(s.roots, s.derived, s.energy) for s in sols]), repr(fails)

        for problem in DECATIC_WORKLOAD:
            assert output(problem) == output(problem)

    def test_another_projection_gives_the_same_matches(self, monkeypatch):
        # m = 1 (sextic) and m = 2 (decatic).
        problems = workload_problems("sextic") + DECATIC_WORKLOAD
        expected = [matches(p) for p in problems]
        monkeypatch.setattr(bethe, "_PROJECTION_SEED", bethe._PROJECTION_SEED + 1)
        for problem, before in zip(problems, expected):
            assert same_matches(matches(problem), before)

    def test_no_two_solutions_coincide(self, monkeypatch):
        # A conjugate pair of near-real solutions has one real part: feed
        # every candidate twice, the second a rounding away (its constant
        # coefficient 1e-14 off), and each match must still come back once.
        expected = [matches(p) for p in DECATIC_WORKLOAD]
        multiparameter, calls = bethe._multiparameter, []

        def twice(A, Bs):
            calls.append(len(Bs))
            c = multiparameter(A, Bs)
            return np.concatenate([c, c * np.r_[1 + 1e-14, np.ones(c.shape[1] - 1)]])

        monkeypatch.setattr(families, "_multiparameter", twice)
        for problem, before in zip(DECATIC_WORKLOAD, expected):
            after = matches(problem)
            assert calls.pop() == 2
            assert same_matches(after, before)
            for i, (ra, oa) in enumerate(after):
                for rb, ob in after[i + 1 :]:
                    assert not (abs(oa - ob) <= DEDUP_TOL * oa and max_abs(ra - rb) <= DEDUP_TOL)

    def test_every_match_hits_the_requested_ell(self):
        for problem in DECATIC_WORKLOAD:
            for s in solve_family(problem):
                assert abs(s.derived["l_half_sq"] - (problem.ell + 0.5) ** 2) <= families.MATCH_TOL
                lo, hi = families.OMEGA_RANGE
                assert lo <= s.derived["omega"] <= hi


class TestMatchProblemReference:
    def test_a_and_l_match_the_interpolation(self):
        # The top W coefficient set directly at the requested ell gives the
        # A and L that interpolating it in s1 gave.
        for problem in workload_problems("sextic") + DECATIC_WORKLOAD:
            (A, L), (A_ref, L_ref) = families._match_problem(problem), match_problem(problem)
            for got, ref in ((A, A_ref), (L, L_ref)):
                assert got.shape == ref.shape
                assert max_abs(got - ref) <= 1e-12 * max(1.0, max_abs(ref)), problem

    def test_derived_couplings_match_the_power_sum_reference(self):
        for problem in workload_problems("sextic") + DECATIC_WORKLOAD:
            for s in solve_family(problem):
                expected = derived_couplings(problem, s.roots, s.derived["omega"])
                assert sorted(s.derived) == sorted(expected)
                for k, v in expected.items():
                    assert abs(s.derived[k] - v) <= 1e-12 * max(1.0, abs(v)), (problem, k)
