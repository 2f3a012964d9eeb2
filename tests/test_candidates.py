"""The batched candidate step of `solve_bae`: stacked starts, one Newton
polish of every row, array filters, and the W coefficients and identity
residual that each accepted branch carries on to the derivation."""

import dataclasses
import math

import numpy as np
import pytest

from qesolve import (
    Case,
    Family,
    FamilyProblem,
    InvalidParameter,
    PolyODE,
    RootSet,
    Variable,
    VerifyLevel,
    compute_w_coefficients,
    derive_parameters,
    solve_bae,
    solve_family,
    solve_family_detailed,
    verify_polynomial_identity,
    verify_solution,
)
from qesolve import bethe, families
from qesolve.errors import NonRealCoefficients
from qesolve.families import build_ode

import candidate_reference
import identity_reference
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


def _branch_bits(branch) -> str:
    """Every float a branch carries, bit for bit (repr round-trips)."""
    if branch is None:
        return "None"
    return repr((branch.roots, branch.bae_residual, branch.separation, branch.w, branch.identity_residual))


def _mixed_batch(n: int):
    """The candidate starts of every SAMPLE problem of degree n, each row
    with its own problem's ODE."""
    odes, starts = [], []
    for problem in SAMPLE:
        if problem.n == n:
            ode, _, coeffs = _candidate_rows(problem)
            odes += [ode] * len(coeffs)
            starts.append(bethe._starts(coeffs))
    return odes, np.concatenate(starts)


# The sweep benchmark's 192 solves: every sextic draw and the first four of
# each other family, n = 0..5.
SWEEP = [
    _sweep_problem(family, draw, n)
    for family, draws in [(Family.SEXTIC, 20), (Family.QUARTIC, 4), (Family.OCTIC, 4), (Family.DECATIC, 4)]
    for draw in range(draws)
    for n in range(6)
]


class TestStarts:
    """One stacked companion-matrix eigensolve gives each row the roots
    that np.roots gives it: bit for bit for every candidate, whose c_0 is
    not 0."""

    def _reference(self, coeffs):
        return [bethe._canonical_order(np.roots(c[::-1]).astype(complex)) for c in coeffs]

    def test_sweep_candidates(self):
        for problem in SAMPLE:
            coeffs = _candidate_rows(problem)[2]
            got = bethe._starts(coeffs)
            assert got.shape == (len(coeffs), problem.n)
            for row, expected in zip(got, self._reference(coeffs)):
                assert _bits(row) == _bits(expected)

    def test_zero_low_coefficients_give_exact_zero_roots(self):
        # No candidate has c_0 = 0, but such a row still gets one exactly
        # zero root per vanishing low coefficient, and np.roots' others.
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal((9, 6))
        coeffs[1, 0] = 0.0  # c_0 = 0: one zero root
        coeffs[4, :2] = 0.0  # c_0 = c_1 = 0: two
        coeffs[5, :2] = 0.0
        coeffs[7, :5] = 0.0  # S = c_5 t^5: every root zero
        got = bethe._starts(coeffs)
        zeros = [np.count_nonzero(row == 0) for row in got]
        assert zeros == [0, 1, 0, 0, 2, 2, 0, 5, 0]
        for row, expected in zip(got, self._reference(coeffs)):
            assert np.count_nonzero(expected == 0) == np.count_nonzero(row == 0)
            assert np.max(np.abs(row - expected), initial=0.0) <= 1e-14 * np.max(np.abs(expected), initial=1.0)

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
            np.linalg.solve(candidate_reference.jacobian(FREEZING_ODE, singular[None, :]), R[1:2, :, None])
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

    @pytest.mark.parametrize("draw, count", [(1, 6), (7, 5)])
    def test_a_step_that_does_not_shrink_stops_only_a_converged_row(self, draw, count):
        # Coulombic quartics at a = -1e-6, whose roots reach 6e7.  Some rows
        # take a step no smaller than the one before while their residual
        # is still above BAE_TOL: stopped there, they fail the filters, and
        # these solves return 5 and 4 branches.
        problem = _sweep_problem(Family.QUARTIC, draw, 5)
        problem = dataclasses.replace(problem, free={**problem.free, "a": -1e-6})
        assert len(_solve(problem)) == count
        ode, _, coeffs = _candidate_rows(problem)
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
        # A root moved 2000 out (the residual filter rejects it), a lone
        # complex root, two coincident roots and a root on the zero of P,
        # beside an accepted row.
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


    @pytest.mark.parametrize("order", ["built", "reversed", "shuffled"])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_rows_with_different_odes(self, n, order):
        # Rows of four families and two draws each, one ODE per row as
        # coefficient columns (the rows of a match-ell batch): each row gets
        # the bits it gets alone with its PolyODE, in whatever order the
        # rows come.
        odes, starts = _mixed_batch(n)
        alone = [_branch_bits(bethe._branches(ode, row[None, :], Variable.R)[0]) for ode, row in zip(odes, starts)]
        perm = np.arange(len(odes))
        if order == "reversed":
            perm = perm[::-1]
        elif order == "shuffled":
            perm = np.random.default_rng(n).permutation(len(odes))
        got = _per_row([odes[i] for i in perm], starts[perm])
        assert len({ode for ode in odes}) > 1 and any(b is not None for b in got)
        assert [_branch_bits(b) for b in got] == [alone[i] for i in perm]

    @pytest.mark.parametrize("size", [1, 2, 5])
    def test_rows_with_different_odes_in_pieces(self, size):
        for n in range(1, 6):
            odes, starts = _mixed_batch(n)
            whole = [_branch_bits(b) for b in _per_row(odes, starts)]
            pieces = [
                _branch_bits(b)
                for lo in range(0, len(odes), size)
                for b in _per_row(odes[lo : lo + size], starts[lo : lo + size])
            ]
            assert pieces == whole


def _per_row(odes, starts):
    """`bethe._polish` and `bethe._accept` on a batch whose rows each have
    their own ODE, as `bethe._Columns`."""
    columns = bethe._Columns(*(np.array(c).T[:, :, None] for c in ([o.p for o in odes], [o.q for o in odes])))
    with np.errstate(all="ignore"):
        return bethe._accept(columns, bethe._polish(columns, starts), Variable.R)


# An octic whose identity gate sits at its rounding floor at n = 8..10
# (ROADMAP item 9): rows there pass or fail by the last bits of their roots.
FLOOR_OCTIC = {"a": -0.84, "e": -0.29, "f": 0.33, "g": 0.05, "h": 1.05}


def _identity_batches(monkeypatch, problems) -> list:
    """The (ODE, roots in canonical order) batches that `_accept` hands to
    the identity filter in solving the problems, one per solve."""
    closing, batches = bethe._closing_rows, []

    def recorded(ode, ordered):
        batches.append((ode, ordered))
        return closing(ode, ordered)

    monkeypatch.setattr(bethe, "_closing_rows", recorded)
    for problem in problems:
        _solve(problem)
    monkeypatch.undo()
    return batches


def _batch(ode, ordered) -> list:
    """The identity filter of `_accept` on every row at once: per row,
    (W, identity residual), or None where S or a power sum is not real."""
    w, real = bethe._closing_rows(ode, ordered)
    identity, real_s = bethe._identity_rows(bethe._columns(ode), w, ordered)
    return [
        (tuple(w[:, i, 0]), float(identity[i])) if real[i] and real_s[i] else None for i in range(len(ordered))
    ]


def _public(ode, roots):
    """`_batch` for one row, from `compute_w_coefficients` and
    `verify_polynomial_identity`."""
    try:
        w = compute_w_coefficients(ode, roots)
        return w, verify_polynomial_identity(ode, roots, w)
    except NonRealCoefficients:
        return None


def _reference(ode, roots) -> float | None:
    """The identity residual by convolution (`identity_reference`), or None
    where S or a power sum is not real."""
    try:
        return identity_reference.identity(ode.p, ode.q, compute_w_coefficients(ode, roots), roots)
    except NonRealCoefficients:
        return None


def _passes(value) -> bool:
    return value is not None and not value >= bethe.IDENT_TOL


class TestIdentityFilter:
    """The identity filter runs on every row of a solve at once, as the band
    product of `_operator`.  Each row gets the bits of the public one-row
    checks, and the gate decides as the convolution of the tests' reference
    does."""

    def test_every_sweep_candidate_row(self, monkeypatch):
        batches = _identity_batches(monkeypatch, SWEEP)
        # A row whose power sums pass but whose S has complex coefficients,
        # and a real row that is no solution, beside a sweep ODE.
        ode = batches[-1][0]
        complex_s = np.array([
            -2.745455868487624 + 1.887751987026556e-09j, -1.3802251793464104 + 9.512564837047197e-09j,
            -0.4546186387942779 - 8.878441502571015e-09j, 0.48948487266890295 - 4.992951708685542e-09j,
        ])
        no_solution = np.array([0.25 + 0j, 1.5 + 0j, 3.0 + 0j])
        with pytest.raises(NonRealCoefficients, match="polynomial factor"):
            verify_polynomial_identity(ode, complex_s, compute_w_coefficients(ode, complex_s))
        assert verify_polynomial_identity(ode, no_solution, compute_w_coefficients(ode, no_solution)) >= 1e-3
        batches += [(ode, complex_s[None, :]), (ode, no_solution[None, :])]
        rows = accepted = 0
        for ode, ordered in batches:
            for row, got in zip(ordered, _batch(ode, ordered)):
                assert repr(got) == repr(_public(ode, row))
                reference = _reference(ode, row)
                identity = None if got is None else got[1]
                assert (identity is None) == (reference is None)
                assert _passes(identity) == _passes(reference)
                if identity is not None:
                    assert abs(identity - reference) <= 1e-13
                rows += 1
                accepted += _passes(identity)
        assert (rows, accepted) == (730, 728)

    def test_the_gate_decides_as_the_convolution(self, monkeypatch):
        """Near the gate as well: every sweep row of degree n >= 1 with its
        roots scaled by 1 +- 1e-9, 1e-11 and 1e-12, and every row of the
        floor octic at n = 8, 9 and 10.  Moved by 1e-9, no row passes."""
        batches = [
            (size, ode, ordered * (1.0 + sign * size))
            for ode, ordered in _identity_batches(monkeypatch, SWEEP)
            if ordered.shape[1]
            for size in (1e-9, 1e-11, 1e-12)
            for sign in (1.0, -1.0)
        ]
        floor = [FamilyProblem(Family.OCTIC, Case.COULOMBIC, n, 0, FLOOR_OCTIC) for n in (8, 9, 10)]
        batches += [("floor", ode, ordered) for ode, ordered in _identity_batches(monkeypatch, floor)]
        counts = {}
        for label, ode, ordered in batches:
            for row, got in zip(ordered, _batch(ode, ordered)):
                passes = _passes(None if got is None else got[1])
                assert passes == _passes(_reference(ode, row))
                counts[label, passes] = counts.get((label, passes), 0) + 1
        assert sum(counts.values()) == 6 * 696 + 82
        assert (1e-9, True) not in counts
        assert all(counts[label, passes] for label in (1e-11, "floor") for passes in (True, False))

    def test_ode_matrix_is_the_band_construction(self):
        for problem in SAMPLE:
            ode, _ = build_ode(problem)
            for n in range(9):
                got, expected = bethe._ode_matrix(ode, n), identity_reference.ode_matrix(ode, n)
                assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


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
                    assert branch.identity_residual == verify_polynomial_identity(ode, branch, w)

    def test_solutions_match_the_checked_derivation(self, monkeypatch):
        problems = [_sweep_problem(family, 0, n) for family in Family for n in (0, 2)]
        expected = []
        for problem in problems:
            for s in solve_family(problem):
                derived, energy, _ = derive_parameters(problem, s.roots)
                identity = verify_polynomial_identity(build_ode(problem)[0], s.roots, s.roots.w)
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


def _acceptance_problems() -> list[FamilyProblem]:
    """The 480 solves of the acceptance sweep: 20 coupling draws per family,
    split over its cases, each at n = 0..5."""
    return [_sweep_problem(family, draw, n) for family in Family for draw in range(20) for n in range(6)]


def _candidate_counts(monkeypatch, problems) -> list[tuple[FamilyProblem, int, int]]:
    """Per solve: the problem, its near-real candidates (the rows that
    `_multiparameter` returns; one at n = 0, which runs no pencil), and its
    branches plus BranchFailures."""
    multiparameter, rows = bethe._multiparameter, []

    def counted(A, Bs):
        coeffs = multiparameter(A, Bs)
        rows.append(len(coeffs))
        return coeffs

    monkeypatch.setattr(bethe, "_multiparameter", counted)
    counts = []
    for problem in problems:
        rows.clear()
        solutions, failures = solve_family_detailed(problem)
        counts.append((problem, sum(rows) if problem.n else 1, len(solutions) + len(failures)))
    return counts


class TestCandidateCount:
    """The pencil's near-real candidates, each of which ends as a branch or
    a BranchFailure: on the acceptance sweep the count is exact, so a row
    lost between the pencil and the output shows."""

    def test_every_acceptance_candidate_is_accounted_for(self, monkeypatch):
        counts = _candidate_counts(monkeypatch, _acceptance_problems())
        assert [(p, c, a) for p, c, a in counts if c != a] == []
        assert sum(c for _, c, _ in counts) == 2048

    def test_a_dropped_row_is_caught(self, monkeypatch):
        # The filters drop the first passing row of the first solve that
        # has two (with one, the solve would fail, and report it); the
        # quartic's first five draws hold such a solve.
        accept, dropped = bethe._accept, []

        def drop_one(ode, T, variable):
            rows = accept(ode, T, variable)
            passing = [i for i, branch in enumerate(rows) if branch is not None]
            if len(passing) > 1 and not dropped:
                rows[passing[0]] = None
                dropped.append(T.shape[1])
            return rows

        monkeypatch.setattr(bethe, "_accept", drop_one)
        off = [(p.n, c - a) for p, c, a in _candidate_counts(monkeypatch, _acceptance_problems()[:30]) if c != a]
        assert len(dropped) == 1 and off == [(dropped[0], 1)]

    def test_small_couplings_keep_their_far_branches(self, monkeypatch):
        # At a small rate the states are wide and most roots lie far out,
        # up to 1.6e7: every candidate is a branch, and each passes FAST.
        problems = [
            FamilyProblem(Family.QUARTIC, Case.HARMONIC, 2, 0.0, {"omega": 1e-8, "c": 0.0, "d": 0.5}),
            FamilyProblem(Family.QUARTIC, Case.HARMONIC, 3, 0.0, {"omega": 1e-6, "c": 0.0, "d": 0.5}),
            FamilyProblem(Family.SEXTIC, Case.HARMONIC, 3, 0.0, {"omega": 1e-6, "e": 0.5, "d": 0.5}),
            FamilyProblem(Family.QUARTIC, Case.COULOMBIC, 3, 0.0, {"a": -1e-6, "c": 0.0, "d": 0.5}),
            FamilyProblem(Family.DECATIC, Case.HARMONIC, 2, 0.0, {"omega": 1e-4, "b": 0.1, "c": 0.1, "d": 0.5}),
        ]
        counts = _candidate_counts(monkeypatch, problems)
        assert [c for _, c, _ in counts] == [a for _, _, a in counts] == [6, 10, 4, 4, 2]
        for problem in problems:
            solutions, failures = solve_family_detailed(problem)
            assert failures == [] and len(solutions) > 1
            assert all(verify_solution(s, VerifyLevel.FAST).passed for s in solutions)
            assert max(abs(z) for s in solutions for z in s.roots.roots) > 1000.0
