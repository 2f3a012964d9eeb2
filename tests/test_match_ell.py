"""Match-ell mode by enumeration: every match in range, checked against the
scan that it replaced (`scan_reference`), and its determinism; the
bordered polish of its candidates, checked against the secant rounds that
it replaced (`match_reference`), on a regression set of draws and under
negative controls."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qesolve import Case, Family, FamilyProblem, bethe, families, solve_family, solve_family_detailed
from qesolve.bethe import DEDUP_TOL, compute_w_coefficients, verify_polynomial_identity

import match_reference
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
# Without the projective change of (1, omega, w0), the pencil's E_0 of these
# two problems has a condition number of ~4e16 and ~1e10 (with it, ~2e4), and
# the match at omega ~ 1.516 (and ~ 1.016) was lost.
NEAR_SINGULAR_ELL0 = decatic(n=3, ell=0, b=0.18090178094964438, c=-0.03003563625515171, d=1.2390857883838382,
                             match_ell=True)
NEAR_SINGULAR_ELL1 = decatic(n=3, ell=1, b=0.5217534032658914, c=0.28123426600397794, d=1.4730384336327116,
                             match_ell=True)


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

    def test_near_singular_delta0_ell0(self):
        assert_scan_matches_returned(NEAR_SINGULAR_ELL0)
        assert [om for _, om in matches(NEAR_SINGULAR_ELL0)] == [pytest.approx(1.516379046988272, rel=1e-9)]

    def test_near_singular_delta0_ell1(self):
        assert_scan_matches_returned(NEAR_SINGULAR_ELL1)
        assert sorted(om for _, om in matches(NEAR_SINGULAR_ELL1)) == [
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

        monkeypatch.setattr(bethe, "_multiparameter", twice)
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
        # The pencil built from the match condition of `_border`, whose top
        # W coefficient is set directly at the requested ell, has the A and
        # L that interpolating that coefficient in s1 gave.
        for problem in workload_problems("sextic") + DECATIC_WORKLOAD:
            A, L = bethe._border_pencil(families._border(problem)[0], problem.n)
            A_ref, L_ref = match_problem(problem)
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


STACKED = workload_problems("sextic") + DECATIC_WORKLOAD + [NEAR_SINGULAR_ELL0, NEAR_SINGULAR_ELL1]


def regression_problems() -> list[FamilyProblem]:
    """60 draws from default_rng(12345), each a sextic and a decatic problem
    at one ell in 0..3 with the couplings of the benchmark's draws, at
    n = 0..6: 840 problems."""
    rng = np.random.default_rng(12345)
    problems = []
    for _ in range(60):
        for fam in ("sextic", "decatic"):
            if fam == "sextic":
                free = {"e": rng.uniform(-0.5, 1.2), "d": rng.uniform(0.3, 1.5)}
            else:
                free = {"b": rng.uniform(-0.4, 0.8), "c": rng.uniform(-0.8, 0.8), "d": rng.uniform(0.3, 1.5)}
            ell = int(rng.integers(0, 4))
            problems += [FamilyProblem(Family(fam), Case.HARMONIC, n, ell, free, True) for n in range(7)]
    return problems


def _counted(monkeypatch) -> list[list[int]]:
    """Hooks `families._bordered_branches` to record, per `_match_ell`
    solve, the rows of each batch."""
    batch, sizes = families._bordered_branches, []

    def counted(border, starts, omega, variable):
        sizes[-1].append(len(starts))
        return batch(border, starts, omega, variable)

    monkeypatch.setattr(families, "_bordered_branches", counted)
    return sizes


def _omega(gauge) -> float:
    return -gauge.chi[1]


def _masked(failures) -> list:
    """The failure records with their numbers masked."""
    return [(f.roots, f.error, re.sub(r"[-+]?\d[\d.]*(e[-+]\d+)?", "#", f.detail)) for f in failures]


def _batch(problem):
    """The candidates' starts and omegas and the match condition, as
    `_match_ell` hands them to its batch."""
    found = match_reference.candidates(problem)
    omegas = np.array([om for om, _ in found])
    starts = np.array([start for _, start in found]).reshape(len(found), problem.n)
    return starts, omegas, *families._border(problem)


def _row_omegas(ode) -> np.ndarray:
    """The omega of each row of the ODE that `bethe._accept` sees: minus
    Q's top coefficient (q2 for the sextic, q3 for the decatic)."""
    q = np.asarray(ode.q).reshape(6, -1)
    return -q[np.flatnonzero(np.any(q != 0.0, axis=1))[-1]]


class TestBorderedPolish:
    """`_match_ell` polishes every candidate of a solve in its roots and
    omega together, as one `bethe._bordered_branches` batch.  The
    three-round secant loop that it replaced (`match_reference`) finds the
    same matches and failures, to rounding level."""

    def test_the_matches_of_the_three_round_loop(self, monkeypatch):
        sizes = _counted(monkeypatch)
        for problem in STACKED:
            sizes.append([])
            (branches, failures), (ref_branches, ref_failures) = (
                families._match_ell(problem), match_reference.match_ell(problem))
            assert len(branches) == len(ref_branches), problem
            assert _masked(failures) == _masked(ref_failures), problem
            for (roots, g), (ref_roots, ref_g) in zip(branches, ref_branches):
                assert abs(_omega(g) - _omega(ref_g)) <= 1e-12 * _omega(ref_g), problem
                assert max_abs(roots.as_array() - ref_roots.as_array()) <= 1e-10, problem
            candidates = len(match_reference.candidates(problem))
            assert sizes[-1] == ([candidates] if candidates else []), problem  # one batch
        assert max(max(s, default=0) for s in sizes) > 1  # some batches stack candidates

    def test_a_start_far_from_its_roots(self):
        # The pencil's roots of the match at omega ~ 0.155 (6 roots up to
        # ~124) are up to 1.3 off; bordered from the start, the closing
        # formulas' powers of them threw omega off and the filters rejected
        # the row.  Its roots are polished at its omega first.
        problem = decatic(n=6, ell=1, b=-0.3380746377805217, c=0.7617470916624771, d=1.0918790901317559,
                          match_ell=True)
        (branches, failures), (ref_branches, _) = families._match_ell(problem), match_reference.match_ell(problem)
        assert failures == [] and len(branches) == len(ref_branches) == 3
        for (_, g), (_, ref_g) in zip(branches, ref_branches):
            assert abs(_omega(g) - _omega(ref_g)) <= 1e-12 * _omega(ref_g)
        assert _omega(branches[0][1]) == pytest.approx(0.155138319, rel=1e-8)

    def test_each_match_carries_the_w_of_its_final_omega(self, monkeypatch):
        # The filters see each row's ODE at its final omega: the W and the
        # identity residual that acceptance computed are the public
        # functions' at the gauge of that omega, bit for bit.
        seen, accept = [], bethe._accept

        def recorded(ode, T, variable):
            seen.extend(_row_omegas(ode).tolist())
            return accept(ode, T, variable)

        monkeypatch.setattr(bethe, "_accept", recorded)
        for problem in STACKED:
            seen.clear()
            for roots, g in families._match_ell(problem)[0]:
                assert repr(roots.w) == repr(compute_w_coefficients(g.ode, roots))
                assert roots.identity_residual == verify_polynomial_identity(g.ode, roots, roots.w)
                assert _omega(g) in seen

    def test_a_row_rejected_at_its_final_omega(self, monkeypatch):
        # The filters reject the row of each problem's first candidate at its
        # final omega (within 1e-9 of the candidate's); the other rows of its
        # batch are not rejected.
        problems = [p for p in STACKED if len(match_reference.candidates(p)) > 1]
        firsts = [match_reference.candidates(p)[0][0] for p in problems]
        expected = [[_omega(g) for _, g in families._match_ell(p)[0] if abs(_omega(g) - first) > 1e-9 * first]
                    for p, first in zip(problems, firsts)]
        accept = bethe._accept

        def reject_first(ode, T, variable):
            rows = accept(ode, T, variable)
            return [None if any(abs(om - first) <= 1e-9 * first for first in firsts) else b
                    for om, b in zip(_row_omegas(ode), rows)]

        monkeypatch.setattr(bethe, "_accept", reject_first)
        for problem, first, others in zip(problems, firsts, expected):
            branches, failures = families._match_ell(problem)
            assert failures[0].detail == f"the match at omega = {first:.9g}: the root filters reject it"
            assert [_omega(g) for _, g in branches] == others, problem


class TestRegressionDraws:
    def test_every_candidate_accepted_at_its_pencil_omega_matches(self):
        # Every candidate that the filters accept at its pencil omega ends as
        # a match, also the ones that start more than MATCH_TOL off the ell
        # (up to ~5e-2), which need omega to move.
        accepted, off = 0, 0
        for problem in regression_problems():
            target, at_pencil = (problem.ell + 0.5) ** 2, []
            for omega, start in match_reference.candidates(problem):
                g = families._gauge(problem, omega)
                roots = bethe._branches(g.ode, start[None, :], g.variable)[0]
                if roots is not None:
                    at_pencil.append(f"the match at omega = {omega:.9g}")
                    off += abs(families._closing(g, roots.w)[-2] + 0.25 - target) > families.MATCH_TOL
            failed = {f.detail.split(":")[0] for f in families._match_ell(problem)[1]}
            assert not failed.intersection(at_pencil), problem
            accepted += len(at_pencil)
        assert accepted == 1890
        assert off >= 1


class TestBorderedControls:
    @pytest.mark.parametrize("factor", [1 - 1e-3, 1 + 1e-3])
    def test_a_displaced_start_omega_reaches_the_same_match(self, factor):
        moved = 0
        for problem in STACKED:
            starts, omegas, border, variable = _batch(problem)
            if not len(omegas):
                continue
            branches, finals = bethe._bordered_branches(border, starts, omegas, variable)
            displaced, displaced_finals = bethe._bordered_branches(border, starts, omegas * factor, variable)
            for b, d, om, dom in zip(branches, displaced, finals, displaced_finals):
                assert (b is None) == (d is None), problem
                if b is not None:
                    assert abs(dom - om) <= 1e-12 * om, problem
                    assert max_abs(d.as_array() - b.as_array()) <= 1e-10, problem
                    moved += 1
        assert moved > 100

    def test_a_row_whose_residual_is_not_finite_is_dropped(self, monkeypatch):
        # A root on P's zero at t = 0 makes its row's residue conditions
        # infinite: the bordered steps drop the row before the stacked solve,
        # so it keeps its start and omega, and the other rows end on the
        # floats they reach alone.
        starts, omegas, border, _ = _batch(STACKED[3])
        stack = starts.astype(complex)
        stack[1, 0] = 0.0
        solved, solve = [], bethe._solve_rows
        monkeypatch.setattr(bethe, "_solve_rows", lambda J, R: solved.append(R) or solve(J, R))
        with np.errstate(all="ignore"):
            assert not np.isfinite(bethe._residual_batch(bethe._at(border, omegas), stack)[1]).all()
            T, omega = bethe._bordered_polish(border, stack, omegas)
            alone = [bethe._bordered_polish(border, stack[i : i + 1], omegas[i : i + 1]) for i in (0, 2, 3)]
        assert all(np.isfinite(R).all() for R in solved)
        assert np.array_equal(T[1], stack[1]) and omega[1] == omegas[1]
        for i, (t, om) in zip((0, 2, 3), alone):
            assert np.array_equal(T[i], t[0]) and omega[i] == om[0] and not np.array_equal(T[i], stack[i])

    def test_a_mismatch_that_cannot_drop_below_1e_7_misses_the_ell(self, monkeypatch):
        # At a branch's W (not at the zero W of the match condition), the
        # closing formulas' mismatch is shifted by 2e-7, beyond any omega
        # the polish can find; the gates keep their values.
        problems = [p for p in STACKED if p.n]
        expected = [len(families._match_ell(p)[0]) for p in problems]
        closing = families._closing

        def shifted(g, w):
            out = closing(g, w)
            if any(w):
                out[-2] += 2e-7
            return out

        monkeypatch.setattr(families, "_closing", shifted)
        for problem, count in zip(problems, expected):
            branches, failures = families._match_ell(problem)
            missed = [f for f in failures if "it misses the ell by" in f.detail]
            assert branches == [] and len(missed) >= count, problem
            assert all(1e-7 <= abs(float(f.detail.rsplit(" ", 1)[1])) for f in missed)
        assert sum(expected) > 50
        assert (families.MATCH_TOL, bethe.BAE_TOL, bethe.IDENT_TOL, bethe.ROUNDING_STEP) == (1e-8, 1e-10, 1e-10, 1e-15)
