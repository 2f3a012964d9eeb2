"""The batched candidate step of `solve_bae`: stacked starts, one Newton
polish of every row, array filters, and the W coefficients and identity
residual that each accepted branch carries on to the derivation."""

import math

import numpy as np
import pytest

from qesolve import (
    Family,
    InvalidParameter,
    PolyODE,
    RootSet,
    Variable,
    compute_w_coefficients,
    derive_parameters,
    solve_bae,
    solve_family,
    verify_polynomial_identity,
)
from qesolve import bethe, families
from qesolve.families import build_ode

import candidate_reference
from test_bethe import _solve, _sweep_problem

# A sample of the acceptance sweep: every family at n = 1..5, m = 1 to 4.
SAMPLE = [
    _sweep_problem(family, draw, n)
    for family, draws in [(Family.SEXTIC, (0, 7)), (Family.QUARTIC, (0, 1)), (Family.OCTIC, (0, 1)), (Family.DECATIC, (0, 5))]
    for draw in draws
    for n in range(1, 6)
]
# P = t^2 and Q = (t^2 - 1)^2, whose double zeros at t = +-1 make Q'P - QP'
# vanish there exactly, so the Jacobian at the roots (-1, 1) is exactly
# singular; P vanishes at t = 0.
FREEZING_ODE = PolyODE((0.0, 0.0, 1.0), (1.0, 0.0, -2.0, 0.0, 1.0))


def _candidate_rows(problem):
    ode, variable = build_ode(problem)
    A = bethe._ode_matrix(ode, problem.n)
    return ode, variable, bethe._multiparameter(A, bethe._shifts(problem.n, A.shape[0] - problem.n))


def _bits(x) -> bytes:
    return np.asarray(x, dtype=complex).tobytes()


class TestStarts:
    """One stacked companion-matrix eigensolve gives each row the roots
    that np.roots gives it, bit for bit, trailing zeros included."""

    def _reference(self, coeffs):
        return [bethe._canonical_order(np.roots(c[::-1]).astype(complex)) for c in coeffs]

    def test_sweep_candidates(self):
        for problem in SAMPLE:
            coeffs = _candidate_rows(problem)[2]
            got = bethe._starts(coeffs)
            assert got.shape == (len(coeffs), problem.n)
            for row, expected in zip(got, self._reference(coeffs)):
                assert _bits(row) == _bits(expected)

    def test_trailing_zero_coefficients(self):
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal((9, 6))
        coeffs[1, 0] = 0.0  # c_0 = 0: one zero root
        coeffs[4, :2] = 0.0  # c_0 = c_1 = 0: two
        coeffs[5, :2] = 0.0
        coeffs[7, :5] = 0.0  # S = c_5 t^5: every root zero
        got = bethe._starts(coeffs)
        assert np.count_nonzero(got[1] == 0) == 1 and np.count_nonzero(got[4] == 0) == 2
        assert not got[7].any()
        for row, expected in zip(got, self._reference(coeffs)):
            assert _bits(row) == _bits(expected)

    def test_degree_zero_rows_are_empty(self):
        assert bethe._starts(np.ones((3, 1))).shape == (3, 0)


class TestBatchedPolish:
    """Every row of the batch ends on the floats that the one-row polish
    (`candidate_reference.polish`) gives it alone."""

    @pytest.fixture(scope="class")
    def settled(self):
        # A complex-pair solution of FREEZING_ODE's n = 2 system, polished
        # until one more step is at rounding level.
        roots = np.array([-0.4 - 0.25j, -0.4 + 0.25j])
        with np.errstate(all="ignore"):
            for _ in range(3):
                roots = candidate_reference.polish(FREEZING_ODE, roots)[0]
        return roots

    def test_frozen_rows_leave_the_others_alone(self, settled):
        singular = np.array([-1.0 + 0j, 1.0 + 0j])
        on_a_pole = np.array([0.0 + 0j, 2.0 + 0j])
        moving = [np.array([-0.5 - 0.2j, -0.3 + 0.3j]), np.array([2 + 1j, 2 - 1j]), np.array([-3 + 0.5j, -3 - 0.5j])]
        stack = np.array([moving[0], singular, settled, moving[1], on_a_pole, moving[2]])
        with np.errstate(all="ignore"):
            reference = [candidate_reference.polish(FREEZING_ODE, row) for row in stack]
            got = bethe._polish(FREEZING_ODE, stack)
            alone = [bethe._polish(FREEZING_ODE, row[None, :])[0] for row in stack]
            R = bethe._residual_batch(FREEZING_ODE, stack)
        # The singular row's Jacobian fails the stacked solve, the pole row's
        # residual is infinite, and the settled row stops after one step.
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(bethe._jacobian_batch(FREEZING_ODE, singular[None, :]), R[1:2, :, None])
        assert np.isfinite(R[1]).all() and not np.isfinite(R[4]).all()
        assert [steps for _, steps in reference] == [7, 0, 1, 6, 0, 8]
        for row, (expected, _), single in zip(got, reference, alone):
            assert _bits(row) == _bits(expected) == _bits(single)
        assert _bits(got[1]) == _bits(singular) and _bits(got[4]) == _bits(on_a_pole)

    def test_sweep_candidates(self):
        for problem in SAMPLE:
            ode, variable, coeffs = _candidate_rows(problem)
            starts = bethe._starts(coeffs)
            with np.errstate(all="ignore"):
                got = bethe._polish(ode, starts)
                for row, start in zip(got, starts):
                    assert _bits(row) == _bits(candidate_reference.polish(ode, start)[0])


class TestBatchedFilters:
    """The array filters and the identity test accept the rows that the
    one-row filters accept, with the same roots, residual, separation, W
    and identity residual."""

    def test_sweep_candidates_and_their_starts(self):
        for problem in SAMPLE:
            ode, variable, coeffs = _candidate_rows(problem)
            starts = bethe._starts(coeffs)
            with np.errstate(all="ignore"):
                rows = np.concatenate([bethe._polish(ode, starts), starts])
                got = bethe._accept(ode, rows, variable)
                expected = [candidate_reference.accept_candidate(ode, row) for row in rows]
            assert any(expected)
            for branch, ref in zip(got, expected):
                assert (branch is None) == (ref is None)
                if ref is not None:
                    ordered, res, sep, w, identity = ref
                    assert _bits(branch.roots) == _bits(ordered)
                    assert (branch.bae_residual, branch.separation) == (res, sep)
                    assert branch.w == w and branch.identity_residual == identity

    def test_the_filters_reject_rows_as_the_one_row_filters_do(self):
        # An escaped row, a lone complex root, two coincident roots and a
        # root on the zero of P, beside an accepted row.
        ode, variable = build_ode(_sweep_problem(Family.SEXTIC, 0, 3))
        branch = solve_bae(ode, 3, variable=variable)[0].as_array()
        rows = np.array([
            branch,
            branch + [0, 0, 2000],
            branch + [0, 0, 0.5j],
            np.array([branch[0], branch[0], branch[2]]),
            np.array([0.0, branch[1], branch[2]]),
        ])
        with np.errstate(all="ignore"):
            got = bethe._accept(ode, rows, variable)
            expected = [candidate_reference.accept_candidate(ode, row) for row in rows]
        assert [b is not None for b in got] == [a is not None for a in expected] == [True] + [False] * 4


class TestBatchIndependence:
    """The branch set does not depend on the order of the candidate rows or
    on which rows share a batch."""

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_permuted_rows(self, monkeypatch, order):
        expected = [_solve(p) for p in SAMPLE]
        multiparameter, rng = bethe._multiparameter, np.random.default_rng(11)

        def permuted(A, Bs):
            c = multiparameter(A, Bs)
            return c[::-1] if order == "reversed" else c[rng.permutation(len(c))]

        monkeypatch.setattr(bethe, "_multiparameter", permuted)
        for problem, before in zip(SAMPLE, expected):
            after = _solve(problem)
            assert after == before
            assert [(b.w, b.identity_residual) for b in after] == [(b.w, b.identity_residual) for b in before]

    @pytest.mark.parametrize("size", [1, 2, 5])
    def test_split_batches(self, monkeypatch, size):
        expected = [_solve(p) for p in SAMPLE]
        branches = bethe._branches

        def in_pieces(ode, starts, variable):
            return [b for lo in range(0, len(starts), size) for b in branches(ode, starts[lo : lo + size], variable)]

        monkeypatch.setattr(bethe, "_branches", in_pieces)
        for problem, before in zip(SAMPLE, expected):
            after = _solve(problem)
            assert after == before
            assert [(b.w, b.identity_residual) for b in after] == [(b.w, b.identity_residual) for b in before]


class TestPassedOn:
    """Each branch carries the W and identity residual that acceptance
    computed, bit for bit what the closing checks recompute, and the
    pipeline uses them in place of a re-check."""

    @pytest.mark.parametrize("family", list(Family))
    def test_every_sweep_branch(self, family):
        for draw in range(20):
            for n in range(6):
                problem = _sweep_problem(family, draw, n)
                ode, variable = build_ode(problem)
                for branch in solve_bae(ode, n, variable=variable):
                    w = compute_w_coefficients(ode, branch)
                    assert branch.w == w
                    assert branch.identity_residual == verify_polynomial_identity(ode.with_w(w), branch)

    def test_solutions_match_the_checked_derivation(self, monkeypatch):
        problems = [_sweep_problem(family, 0, n) for family in Family for n in (0, 2)]
        expected = []
        for problem in problems:
            for s in solve_family(problem):
                derived, energy, _ = derive_parameters(problem, s.roots)
                identity = verify_polynomial_identity(build_ode(problem)[0].with_w(s.roots.w), s.roots)
                expected.append((s.derived, s.energy, s.diagnostics["identity_residual"]))
                assert (derived, energy, identity) == expected[-1]

        def no_recheck(*args, **kwargs):
            raise AssertionError("the pipeline re-ran a closing check")

        for name in ("bae_residuals", "compute_w_coefficients", "verify_polynomial_identity"):
            monkeypatch.setattr(families, name, no_recheck)
        got = [(s.derived, s.energy, s.diagnostics["identity_residual"]) for p in problems for s in solve_family(p)]
        assert got == expected

    def test_derive_parameters_rechecks_the_roots(self):
        # The public derivation ignores what a RootSet carries: roots moved
        # off the branch fail its residual check even with the branch's W.
        problem = _sweep_problem(Family.QUARTIC, 1, 2)
        ode, variable = build_ode(problem)
        branch = solve_bae(ode, 2, variable=variable)[0]
        moved = RootSet(2, tuple(z + 1e-3 for z in branch.roots), variable, branch.bae_residual,
                        branch.separation, branch.w, branch.identity_residual)
        with pytest.raises(InvalidParameter, match="do not solve"):
            derive_parameters(problem, moved)

    def test_a_root_set_built_elsewhere_carries_nothing(self):
        bare = RootSet(0, (), Variable.R, 0.0, math.inf)
        assert bare.w is None and bare.identity_residual is None
        ode, variable = build_ode(_sweep_problem(Family.QUARTIC, 0, 0))
        (branch,) = solve_bae(ode, 0, variable=variable)
        assert branch == bare and repr(branch) == repr(bare)
        assert branch.w == (0.0,) * 5 and branch.identity_residual == 0.0
