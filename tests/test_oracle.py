import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qesolve import (
    FdGrid,
    InvalidParameter,
    PotentialSpec,
    QESSolution,
    RootSet,
    SolverConfig,
    Variable,
    VerifyLevel,
    assemble_potential,
    default_fd_grid,
    fd_spectrum,
    schrodinger_residual,
    solve_family,
    verify_solution,
)

from qesolve import oracle, solve_bae, solve_family_detailed, wavefunction
from qesolve.families import Family, WaveForm, build_ode

import residual_reference
import sturm_reference
from test_bethe import _sweep_problem
from test_match_ell import workload_problems

from conftest import decatic, octic_coulombic, octic_harmonic, quartic_coulombic, quartic_harmonic, sextic


@pytest.fixture(scope="module")
def quartic0(cfg_small):
    return solve_family(quartic_harmonic(n=0), cfg_small)[0]


@pytest.fixture(scope="module")
def quartic1(cfg):
    return solve_family(quartic_harmonic(n=1), cfg)[0]


def _check(report, name):
    (check,) = [c for c in report.checks if c.name == name]
    return check


def _tweak(solution, **changes):
    """Copy a solution with selected stored fields replaced."""
    roots = changes.pop("roots", solution.roots)
    derived = dict(solution.derived)
    derived.update(changes.pop("derived", {}))
    energy = changes.pop("energy", solution.energy)
    assert not changes
    return QESSolution(
        solution.problem, roots, derived, energy, solution.waveform, dict(solution.diagnostics)
    )


class TestAssemblePotential:
    def test_quartic_example(self, quartic0):
        pot = assemble_potential(quartic0)
        assert pot.inverse_powers == {1: -1.0, 2: 0.0, 3: 0.0, 4: 0.5}
        assert pot.omega == 1.0 and pot.ell == 0.0

    def test_octic_example(self, cfg_small):
        s = solve_family(octic_harmonic(n=0), cfg_small)[0]
        pot = assemble_potential(s)
        assert pot.inverse_powers == pytest.approx(
            {1: 0.0, 2: 1.0, 3: -1.0, 4: 0.0, 5: 0.0, 6: 0.0, 7: 0.0, 8: 0.5}
        )

    def test_decatic_example(self, cfg_small):
        # The 1/r^6 coupling carried by the radial equation is the derived
        # b_pot = b + 3 c^2 / (8 d), not the raw shape parameter b.
        s = solve_family(decatic(n=0, b=0.0, c=1.0, d=0.5, match_ell=True), cfg_small)[0]
        pot = assemble_potential(s)
        assert pot.omega == pytest.approx(2.40625, abs=1e-13)
        assert pot.inverse_powers == pytest.approx({4: -1.15625, 6: 0.75, 8: 1.0, 10: 0.5})
        # ... and with that coupling the equation is satisfied pointwise.
        assert schrodinger_residual(s) < 1e-12

    def test_sextic_uses_derived_ell(self, cfg_small):
        s = solve_family(sextic(n=0, omega=1.0, e=0.5, d=0.5), cfg_small)[0]
        pot = assemble_potential(s)
        assert pot.ell == pytest.approx(0.0, abs=1e-13)
        assert pot.inverse_powers == {4: 0.5, 6: 0.5}


class TestSchrodingerResidual:
    def test_exact_solutions_are_at_rounding(self, quartic0, quartic1):
        assert schrodinger_residual(quartic0) < 1e-12
        assert schrodinger_residual(quartic1) < 1e-10

    def test_explicit_grid(self, quartic0):
        grid = np.geomspace(1e-2, 20.0, 300)
        assert schrodinger_residual(quartic0, grid) < 1e-10

    def test_energy_perturbation_detected(self, quartic0):
        bad = _tweak(quartic0, energy=quartic0.energy + 1e-3)
        assert schrodinger_residual(bad) > 1e-6

    def test_coupling_perturbation_detected(self, quartic0):
        bad = _tweak(quartic0, derived={"a": quartic0.derived["a"] + 1e-4})
        assert schrodinger_residual(bad) > 1e-6

    def test_node_exclusion(self, quartic1):
        node = quartic1.roots.roots[0].real
        grid = np.array([0.5, node, 2.0])
        assert schrodinger_residual(quartic1, grid) < 1e-10


def _sweep_problems():
    """The `sweep` benchmark's 192 solves: every sextic draw of the
    acceptance sweep and the first four of each other family, n = 0..5."""
    draws = {Family.SEXTIC: 20, Family.QUARTIC: 4, Family.OCTIC: 4, Family.DECATIC: 4}
    return [_sweep_problem(f, d, n) for f, count in draws.items() for d in range(count) for n in range(6)]


class TestOneResidualPass:
    """`solve_family` computes the radial residual of all the branches of a
    solve as the rows of one real-arithmetic array pass
    (`oracle._residual_rows`); the reference is the one-branch residual it
    replaced (tests/residual_reference.py), in complex arithmetic on its own
    geomspace grid, so the two agree to rounding (1e-12 absolute against
    the 1e-9 gate), and each row is its one-row call bit for bit."""

    @staticmethod
    def _same(rows, expected, tol=0.0):
        assert len(rows) == len(expected)
        for got, want in zip(rows, expected):
            assert abs(got - want) <= tol or (math.isnan(got) and math.isnan(want))

    @pytest.mark.parametrize(
        "problems",
        [_sweep_problems, lambda: workload_problems("sextic") + workload_problems("decatic")],
        ids=["sweep", "match_ell"],
    )
    def test_rows_are_the_reference_bit_for_bit(self, problems):
        grid = np.geomspace(3e-3, 40.0, 257)
        rows = 0
        for problem in problems():
            solutions = solve_family(problem)
            if not solutions:
                continue
            stored = [s.diagnostics["schrodinger_residual"] for s in solutions]
            self._same(stored, [schrodinger_residual(s) for s in solutions])
            self._same(oracle._residual_rows(solutions), stored)
            self._same(stored, [residual_reference.schrodinger_residual(s) for s in solutions], 1e-12)
            self._same(
                oracle._residual_rows(solutions, grid),
                [residual_reference.schrodinger_residual(s, grid) for s in solutions],
                1e-12,
            )
            rows += len(solutions)
        assert rows > 100

    def test_one_row_is_the_reference_bit_for_bit(self, cfg):
        grid = np.geomspace(1e-2, 20.0, 300)
        for sol in _verify_pool(cfg):
            assert abs(schrodinger_residual(sol) - residual_reference.schrodinger_residual(sol)) <= 1e-12
            assert abs(schrodinger_residual(sol, grid) - residual_reference.schrodinger_residual(sol, grid)) <= 1e-12

    def test_rows_are_their_one_row_calls_bit_for_bit(self):
        # Each row of a solve's residual pass and support scan
        # (`wavefunction._supports`) is its own one-row call, whichever
        # rows share the pass and in whatever order.
        rows = 0
        for problem in _sweep_problems():
            solutions = solve_family(problem)
            for batch in (solutions, solutions[::-1]) if solutions else ():
                for sol, residual, support in zip(batch, oracle._residual_rows(batch), wavefunction._supports(batch)):
                    assert residual == oracle._residual_rows([sol])[0]
                    alone = wavefunction._supports([sol])[0]
                    assert support[:5] == alone[:5]
                    assert all(np.array_equal(x, y) for x, y in zip(support[5:], alone[5:]))
            rows += len(solutions)
        assert rows == 630

    def test_emptied_row_fails_alone_in_branch_order(self, monkeypatch):
        # Every point of a branch with a node is made a node, so node
        # exclusion empties its grid: each such branch fails with
        # InvalidParameter, in the order solve_bae returns the branches, and
        # the rest are solved.
        problem = octic_harmonic(n=2)
        nodes = oracle.node_positions

        def every_point_a_node(solution):
            return list(residual_reference.default_grid(solution)) if nodes(solution) else []

        ode, variable = build_ode(problem)
        branches = solve_bae(ode, problem.n, variable=variable)
        with_node = [b.roots for b in branches if any(z.imag == 0.0 and z.real > 0.0 for z in b.roots)]
        assert len(branches) == 5 and len(with_node) == 3
        monkeypatch.setattr(oracle, "node_positions", every_point_a_node)
        solutions, failures = solve_family_detailed(problem)
        assert [f.roots.roots for f in failures] == with_node
        assert {(f.error, f.detail) for f in failures} == {
            ("InvalidParameter", "residual grid is empty after node exclusion")
        }
        assert len(solutions) == 2
        for s in solutions:
            assert abs(s.diagnostics["schrodinger_residual"] - residual_reference.schrodinger_residual(s)) <= 1e-12

    @pytest.mark.parametrize("points", [[], [1.0, 1.001]], ids=["no_points", "near_the_node"])
    def test_emptied_grid_raises_for_one_row(self, quartic1, points):
        grid = oracle.node_positions(quartic1)[0] * np.array(points)
        for residual in (schrodinger_residual, residual_reference.schrodinger_residual):
            with pytest.raises(InvalidParameter, match="empty after node exclusion"):
                residual(quartic1, grid)

    @pytest.mark.parametrize(
        "grid", [[-1.0, 1.0], [0.0, 1.0], [math.nan, 1.0], [1.0, math.inf]], ids=["negative", "zero", "nan", "inf"]
    )
    def test_grid_must_be_finite_and_positive(self, quartic1, grid):
        with pytest.raises(InvalidParameter, match="finite r > 0 required"):
            schrodinger_residual(quartic1, np.array(grid))


class TestFdSpectrum:
    def test_radial_oscillator_levels(self):
        pot = PotentialSpec(0.0, 1.0, {})
        evs = fd_spectrum(pot, (0.0, 8.0), FdGrid(1e-3, 12.0, 3000))
        assert len(evs) == 2
        assert evs[0] == pytest.approx(3.0, abs=5e-3)
        assert evs[1] == pytest.approx(7.0, abs=5e-3)

    def test_empty_window(self):
        pot = PotentialSpec(0.0, 1.0, {})
        assert fd_spectrum(pot, (4.0, 6.0), FdGrid(1e-3, 12.0, 3000)) == []

    def test_second_order_convergence(self, quartic0):
        pot = assemble_potential(quartic0)
        two_e = 2.0 * quartic0.energy
        grid = default_fd_grid(quartic0, 2400)
        fine = FdGrid(grid.r_min, grid.r_max, 2 * 2400 + 1)
        err = []
        for g in (grid, fine):
            evs = fd_spectrum(pot, (two_e - 0.75, two_e + 0.75), g)
            err.append(min(abs(v - two_e) for v in evs))
        order = math.log2(err[0] / err[1])
        assert order == pytest.approx(2.0, abs=0.2)

    def test_first_excited_convergence(self, quartic1):
        pot = assemble_potential(quartic1)
        two_e = 2.0 * quartic1.energy
        grid = default_fd_grid(quartic1, 2400)
        fine = FdGrid(grid.r_min, grid.r_max, 2 * 2400 + 1)
        err = []
        for g in (grid, fine):
            evs = fd_spectrum(pot, (two_e - 0.75, two_e + 0.75), g)
            err.append(min(abs(v - two_e) for v in evs))
        assert err[1] < err[0]
        assert math.log2(err[0] / err[1]) == pytest.approx(2.0, abs=0.2)

    def test_grid_validation(self):
        # Bounds must be finite (an infinite r_max gave a NaN matrix, on
        # which fd_spectrum returned []) and n_points integral (2000.5
        # failed later with a bare TypeError).
        bad = [(0.0, 1.0, 3000), (0.1, 1.0, 100), (1.0, math.inf, 3000), (math.nan, 5.0, 3000),
               (0.1, math.nan, 3000), (0.1, 5.0, 2000.5), (0.1, 5.0, "3000")]
        for r_min, r_max, n_points in bad:
            with pytest.raises(InvalidParameter):
                FdGrid(r_min, r_max, n_points)


def _fd_matrix(potential, grid):
    """Diagonal and squared off-diagonal of the FD operator."""
    r = np.linspace(grid.r_min, grid.r_max, grid.n_points + 2)[1:-1]
    h = (grid.r_max - grid.r_min) / (grid.n_points + 1)
    return 2.0 / (h * h) + potential.bracket(r), 1.0 / h**4


def _assert_at_their_ordinals(potential, window, grid, tol, got):
    """The window holds len(got) eigenvalues by the LDL^T reference counts,
    and the k-th value lies within tol / 2 of the k-th of them, to the
    rounding of the matrix."""
    diag, off_sq = _fd_matrix(potential, grid)
    below, above = sturm_reference._sturm_counts(diag, off_sq, np.array(window, dtype=float))
    assert len(got) == above - below
    slack = 0.5 * tol + _rounding_bound(grid)
    ordinals = below + 1 + np.arange(len(got))
    assert np.all(sturm_reference._sturm_counts(diag, off_sq, np.array(got) - slack) < ordinals)
    assert np.all(ordinals <= sturm_reference._sturm_counts(diag, off_sq, np.array(got) + slack))


class TestFdSpectrumBisection:
    """One bisection level per step, each distinct midpoint counted once
    by the elimination's negative pivots."""

    @settings(max_examples=12, deadline=None, derandomize=True)
    @example(ell=0, omega=1.0, b=0.5, level=0, held=1, tol=1e-12, n_points=5000)
    @example(ell=1, omega=1.3, b=0.2, level=2, held=7, tol=1e-12, n_points=3001)
    @example(ell=2, omega=0.9, b=0.1, level=4, held=0, tol=1e-12, n_points=2000)
    @given(
        ell=st.integers(0, 2),
        omega=st.floats(0.8, 1.5),
        b=st.floats(0.01, 1.0),
        level=st.integers(0, 4),
        held=st.sampled_from([0, 1, 3, 7]),
        tol=st.sampled_from([1e-6, 1e-12, "wide"]),
        n_points=st.integers(2000, 5000),
    )
    def test_each_eigenvalue_lies_within_half_tol_of_its_ordinal(self, ell, omega, b, level, held, tol, n_points):
        # omega^2 r^2 plus 2b/r^2 on top of the centrifugal term: the levels
        # are 2E_n = omega (4n + 2L + 3) with L(L+1) = ell(ell+1) + 2b, 4 omega
        # apart, and the FD ones lie within 0.1 of a spacing of them.  The
        # k-th value returned lies within tol / 2 of the k-th eigenvalue in
        # the window, by the LDL^T reference counts to the rounding of the
        # matrix.
        big_l = -0.5 + math.sqrt((ell + 0.5) ** 2 + 2.0 * b)
        levels = [omega * (4 * k + 2 * big_l + 3) for k in range(level + max(held, 1))]
        gap = 4.0 * omega
        if held == 0:
            window = (levels[level] + 0.3 * gap, levels[level] + 0.7 * gap)
        else:
            window = (levels[level] - 0.4 * gap, levels[-1] + 0.4 * gap)
        if tol == "wide":
            tol = 2.0 * (window[1] - window[0])
        pot = PotentialSpec(float(ell), omega, {2: b})
        grid = FdGrid(1e-3, 12.0, n_points)
        got = fd_spectrum(pot, window, grid, tol)
        assert len(got) == held
        _assert_at_their_ordinals(pot, window, grid, tol, got)

    def test_pivot_calls_per_call(self, cfg, monkeypatch):
        # Per call: the two window ends, then one count per distinct
        # midpoint of each level.  The oscillator's level near 3 takes 41
        # levels from a window 1.5 wide to 1e-12, and an empty window none.
        # The octic coulombic ground state of the spectral-oracle pool has
        # 18 FD eigenvalues in its FULL-verification window; ordinals that
        # share an interval share its midpoint's count.
        sol = solve_family(octic_coulombic(n=0), cfg)[0]
        calls = _recording_pivots(monkeypatch)
        pot, grid = PotentialSpec(0.0, 1.0, {}), FdGrid(1e-3, 12.0, 3000)
        assert len(fd_spectrum(pot, (2.25, 3.75), grid)) == 1 and len(calls) == 2 + 41
        calls.clear()
        assert fd_spectrum(pot, (4.0, 6.0), grid) == [] and len(calls) == 2
        calls.clear()
        pot, window, _, (coarse, _) = _pool_grids(sol)
        assert len(fd_spectrum(pot, window, coarse)) == 18 and len(calls) <= 2 + 18 * 41

    @pytest.mark.parametrize("n_points", [2000, 2001, 4801])
    @pytest.mark.parametrize("potential", [PotentialSpec(0.0, 1.0, {}), PotentialSpec(1.0, 0.0, {1: -1.0, 8: 0.5})])
    def test_windows_from_the_ldl_check_shifts(self, potential, n_points):
        # Windows 20 wide from the first ten `_ldl_check` shifts: low and
        # mid-spectrum ends, and ends on exact diagonal entries, where
        # pivots are small or zero.  Even and odd row counts end cyclic
        # reduction on different rows.
        grid = FdGrid(1e-3, 12.0, n_points)
        _, _, shifts = _ldl_check(potential, n_points)
        for lo in shifts[:10].tolist():
            window = (lo, lo + 20.0)
            _assert_at_their_ordinals(potential, window, grid, 1e-12, fd_spectrum(potential, window, grid))

    @pytest.mark.parametrize("held", [3, 0])
    def test_mid_spectrum_window(self, held, monkeypatch):
        # From 1.5 / h^2 the oscillator's levels lie about 127 apart, and
        # a window 300 wide there holds three, where no row is dominant
        # enough for a cyclic-reduction level.  The empty window lies
        # between the first two.  Each ordinal takes at most 49 levels from
        # 300 wide to 1e-12, or fewer where the float spacing (1.5e-11
        # there) stops the splitting first.
        pot, grid = PotentialSpec(0.0, 1.0, {}), FdGrid(1e-3, 12.0, 3000)
        h = (grid.r_max - grid.r_min) / (grid.n_points + 1)
        window = (1.5 / (h * h), 1.5 / (h * h) + 300.0)
        if held == 0:
            first, second = fd_spectrum(pot, window, grid)[:2]
            window = (0.5 * (first + second) - 5.0, 0.5 * (first + second) + 5.0)
        calls = _recording_pivots(monkeypatch)
        got = fd_spectrum(pot, window, grid)
        assert len(got) == held and len(calls) <= 2 + 49 * held
        _assert_at_their_ordinals(pot, window, grid, 1e-12, got)

    @pytest.mark.parametrize("n_points", [2000, 4801])
    def test_zero_pivot_midpoint_raises_no_floating_point_error(self, n_points):
        # The window's first midpoint is the oscillator's first diagonal
        # entry, where the first LDL^T pivot is exactly 0 and the next one
        # infinite.
        pot, grid = PotentialSpec(0.0, 1.0, {}), FdGrid(1e-3, 12.0, n_points)
        d0 = float(_fd_matrix(pot, grid)[0][0])
        window = (d0 - 64.0, d0 + 64.0)
        assert 0.5 * (window[0] + window[1]) == d0
        with np.errstate(all="raise"):
            got = fd_spectrum(pot, window, grid)
        assert got
        _assert_at_their_ordinals(pot, window, grid, 1e-12, got)

    def test_memory_of_many_eigenvalues(self):
        # 25 eigenvalues on 4801 rows: bisection keeps an interval per
        # ordinal and one elimination at a time.
        import tracemalloc

        pot, grid = PotentialSpec(0.0, 1.0, {}), FdGrid(1e-3, 12.0, 4801)
        tracemalloc.start()
        try:
            got = fd_spectrum(pot, (2.0, 102.0), grid, 1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(got) == 25
        assert peak < 1 << 20

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_tol_must_be_finite_positive(self, tol):
        with pytest.raises(InvalidParameter):
            fd_spectrum(PotentialSpec(0.0, 1.0, {}), (2.5, 3.5), FdGrid(1e-3, 12.0, 2000), tol)

    @pytest.mark.parametrize("window", [(-math.inf, 3.5), (2.5, math.inf), (math.nan, 3.5), (3.5, 2.5)])
    def test_window_must_be_finite(self, window):
        with pytest.raises(InvalidParameter):
            fd_spectrum(PotentialSpec(0.0, 1.0, {}), window, FdGrid(1e-3, 12.0, 2000))

    def test_tol_below_float_spacing_ends_at_float_resolution(self):
        # A loop that stops at tol alone never ends here: 0.5 * (low + high)
        # reaches an end of the interval before the width drops under it.
        pot, grid = PotentialSpec(0.0, 1.0, {}), FdGrid(1e-3, 12.0, 2000)
        (ev,) = fd_spectrum(pot, (2.5, 3.5), grid, 1e-20)
        assert ev == pytest.approx(fd_spectrum(pot, (2.5, 3.5), grid)[0], abs=1e-12)
        # ev and a float next to it bracket the eigenvalue.
        diag, off_sq = _fd_matrix(pot, grid)
        c = np.full(len(diag) - 1, -math.sqrt(off_sq))
        shifts = [np.nextafter(ev, -math.inf), ev, np.nextafter(ev, math.inf)]
        below = [oracle._negative_pivots(diag - s, c) for s in shifts]
        assert below in ([0, 0, 1], [0, 1, 1])


def _verify_pool(cfg):
    """The spectral-oracle pool of criterion 6 and the `verify` benchmark."""
    return [
        solve_family(quartic_harmonic(n=0), cfg)[0],
        solve_family(quartic_harmonic(n=1), cfg)[0],
        solve_family(quartic_coulombic(n=0), cfg)[0],
        solve_family(octic_harmonic(n=0), cfg)[0],
        max(solve_family(octic_harmonic(n=1), cfg), key=lambda s: s.roots.roots[0].real),
        solve_family(octic_coulombic(n=0), cfg)[0],
        solve_family(sextic(n=0), cfg)[0],
        [s for s in solve_family(sextic(n=1, omega=0.1, e=1.0), cfg) if s.roots.roots[0].real > 0][0],
        solve_family(decatic(n=0), cfg)[0],
        solve_family(decatic(n=1), cfg)[0],
    ]


def _reference_spectrum(potential, window, grid):
    """The eigenvalues in the window by the LDL^T reference counts: each
    pass cuts every interval into 64 equal parts and keeps, for each
    ordinal, the part that holds it, until every part is at most 1e-12
    wide or no part can be cut in floating point (where the float spacing
    exceeds 1e-12, as `oracle._bisect` stops).  Returns the midpoints of
    the final parts."""
    diag, off_sq = _fd_matrix(potential, grid)
    lo, hi = window
    count_lo, count_hi = sturm_reference._sturm_counts(diag, off_sq, np.array([lo, hi]))
    ordinals = np.arange(count_lo + 1, count_hi + 1)
    lows, highs = np.full(len(ordinals), float(lo)), np.full(len(ordinals), float(hi))
    rows = np.arange(len(ordinals))
    while len(ordinals) and np.max(highs - lows) > 1e-12:
        cuts = lows[:, None] + (highs - lows)[:, None] * (np.arange(1, 64) / 64)
        if not np.any((lows[:, None] < cuts) & (cuts < highs[:, None])):
            break
        counts = sturm_reference._sturm_counts(diag, off_sq, cuts.ravel()).reshape(cuts.shape)
        part = np.count_nonzero(counts < ordinals[:, None], axis=1)
        edges = np.concatenate([lows[:, None], cuts, highs[:, None]], axis=1)
        lows, highs = edges[rows, part], edges[rows, part + 1]
    return [float(x) for x in 0.5 * (lows + highs)]


def _rounding_bound(grid) -> float:
    """8 eps times the FD diagonal's 2/h^2: the rounding of the matrix."""
    h = (grid.r_max - grid.r_min) / (grid.n_points + 1)
    return 8.0 * np.finfo(float).eps * 2.0 / (h * h)


def _ldl_check(potential, n_points):
    """The FD matrix on n_points, and shifts to compare its Sturm counts
    at.  Mid-spectrum shifts and exact diagonal entries make pivots small
    or zero, where the elimination order matters without the guard.  Entry
    0 is left out: there the reference's first pivot is 0, which it counts
    as non-negative but continues from as negative."""
    diag, off_sq = _fd_matrix(potential, FdGrid(1e-3, 12.0, n_points))
    h_sq = 1.0 / math.sqrt(off_sq)
    rows = np.random.default_rng(n_points).choice(np.arange(1, n_points), 40, replace=False)
    return diag, off_sq, np.concatenate([[0.0, 2.0 / h_sq, 4.0 / h_sq, -5.0, 3.0, 50.0], diag[rows]])


class TestSturmCounts:
    """The negative pivots of the guarded elimination count what the LDL^T
    recurrence counts."""

    @pytest.mark.parametrize("n_points", [2000, 2001, 4801])
    @pytest.mark.parametrize("potential", [PotentialSpec(0.0, 1.0, {}), PotentialSpec(1.0, 0.0, {1: -1.0, 8: 0.5})])
    def test_proof_counts_are_the_ldl_counts(self, potential, n_points):
        # Bisection and the verification proof count by `_negative_pivots`,
        # on the pivots of `_tridiagonal_solve`'s elimination.
        diag, off_sq, shifts = _ldl_check(potential, n_points)
        c = np.full(n_points - 1, -math.sqrt(off_sq))
        got = [oracle._negative_pivots(diag - shift, c) for shift in shifts]
        assert got == list(sturm_reference._sturm_counts(diag, off_sq, shifts))

    def test_zero_pivot_counts_between_its_neighbours(self):
        # A shift equal to the first diagonal entry makes the first LDL^T
        # pivot exactly 0.  The count there lies between those of the floats
        # on either side; the reference's count falls one below both.
        diag, off_sq = _fd_matrix(PotentialSpec(0.0, 1.0, {}), FdGrid(1e-3, 12.0, 2000))
        c = np.full(len(diag) - 1, -math.sqrt(off_sq))
        d0 = diag[0]
        shifts = [np.nextafter(d0, -math.inf), d0, np.nextafter(d0, math.inf)]
        low, mid, high = (oracle._negative_pivots(diag - s, c) for s in shifts)
        assert low <= mid <= high

    @pytest.mark.parametrize("n_points", [2000, 4801])
    @pytest.mark.parametrize("potential", [PotentialSpec(0.0, 1.0, {}), PotentialSpec(1.0, 1.0, {4: 0.5, 6: 0.5})])
    def test_adversarial_shifts_raise_no_floating_point_error(self, potential, n_points):
        # Shifts on exact diagonal entries give zero pivots (the first one
        # in the LDL^T tail for the oscillator, after which the next pivot
        # is infinite); huge shifts drive every coupling towards underflow.
        diag, off_sq = _fd_matrix(potential, FdGrid(1e-3, 12.0, n_points))
        c = np.full(n_points - 1, -math.sqrt(off_sq))
        shifts = np.concatenate([diag[:20], diag[-5:], [0.0, 1e30, -1e30, 2.0 * math.sqrt(off_sq)]])
        with np.errstate(all="raise"):
            counts = [oracle._negative_pivots(diag - s, c) for s in shifts]
        assert counts[-3] == n_points and counts[-2] == 0


class TestTridiagonalSolve:
    """The inverse-iteration solve agrees with a dense solve."""

    @pytest.mark.parametrize("n", [257, 258])
    @pytest.mark.parametrize("shift", [3.0, 1.5, "mid-spectrum"])
    def test_against_dense_solve(self, n, shift):
        # The radial oscillator on 257 or 258 rows (h about 0.047), shifted
        # near its lowest level (four cyclic-reduction levels, then 17 rows
        # for the LDL^T recurrence), below it (nine levels, one row left)
        # and to 2/h^2, mid-spectrum (the guard fails at once and the
        # recurrence solves every row).
        h = 12.0 / (n + 1)
        r = h * np.arange(1, n + 1)
        a = 2.0 / (h * h) + r * r - (2.0 / (h * h) if shift == "mid-spectrum" else shift)
        c = np.full(n - 1, -1.0 / (h * h))
        f = np.random.default_rng(n).standard_normal(n)
        want = np.linalg.solve(np.diag(a) + np.diag(c, 1) + np.diag(c, -1), f)
        got = oracle._tridiagonal_solve(a, c, f)
        assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))

    def test_zero_diagonal_in_an_odd_row(self):
        # Cyclic reduction would divide by row 3's zero diagonal; the guard
        # hands every row to the LDL^T recurrence, whose pivots are not 0.
        a = np.array([2.0, 3.0, -1.0, 0.0, 2.5, 1.0, -2.0, 4.0, 1.5])
        c = np.ones(len(a) - 1)
        f = np.arange(1.0, len(a) + 1)
        want = np.linalg.solve(np.diag(a) + np.diag(c, 1) + np.diag(c, -1), f)
        assert np.max(np.abs(oracle._tridiagonal_solve(a, c, f) - want)) <= 1e-12 * np.max(np.abs(want))


class TestKatoTemple:
    def test_bounds_contain_the_eigenvalue(self):
        # A random symmetric tridiagonal matrix, each interior eigenvalue
        # isolated by the midpoints to its neighbours, and vectors near its
        # eigenvector (their Rayleigh quotients on either side of it).
        rng = np.random.default_rng(7)
        diag = np.sort(rng.uniform(-5.0, 5.0, 40))
        t = np.diag(diag) - np.diag(np.ones(39), 1) - np.diag(np.ones(39), -1)
        lams, vecs = np.linalg.eigh(t)
        for k in range(1, 39):
            alpha, beta = 0.5 * (lams[k - 1] + lams[k]), 0.5 * (lams[k] + lams[k + 1])
            for _ in range(5):
                x = vecs[:, k] + 0.02 * rng.standard_normal(40)
                rho, eps = oracle._rayleigh(diag, -1.0, x)
                if not alpha < rho < beta:
                    continue
                low, high = oracle._kato_temple(rho, eps, alpha, beta)
                assert low - 1e-12 <= lams[k] <= high + 1e-12
                assert high - low <= eps * eps * (1.0 / (beta - rho) + 1.0 / (rho - alpha)) * (1.0 + 1e-12)


@pytest.fixture()
def bisect_calls(monkeypatch):
    """The calls to `oracle._bisect`, which still bisects."""
    calls = []
    bisect = oracle._bisect

    def counted(*args):
        calls.append(args)
        return bisect(*args)

    monkeypatch.setattr(oracle, "_bisect", counted)
    return calls


def _recording_pivots(mp) -> list:
    """Each `_negative_pivots` call's diagonal."""
    calls = []
    inner = oracle._negative_pivots

    def counted(a, c):
        calls.append(a)
        return inner(a, c)

    mp.setattr(oracle, "_negative_pivots", counted)
    return calls


def _counting_pivots(mp) -> list:
    """Each `_negative_pivots` call's diagonal; `_bisect` must not run,
    since a proof makes its two counts alone."""
    mp.setattr(oracle, "_bisect", _no_bisection)
    return _recording_pivots(mp)


class TestOnePassIsolation:
    """g is sized from the trial vector's data, and one pass of two Sturm
    counts at rho +- g decides whether that interval isolates one
    eigenvalue.  The radial oscillator's FD levels lie near 3, 7 and 11."""

    @pytest.fixture()
    def oscillator(self):
        pot, grid = PotentialSpec(0.0, 1.0, {}), FdGrid(1e-3, 12.0, 3000)
        r = oracle._fd_points(grid)[0]
        return pot, grid, *_fd_matrix(pot, grid), r * np.exp(-0.5 * r * r)

    def test_a_vector_near_level_3_is_proven(self, oscillator, monkeypatch):
        pot, grid, diag, off_sq, ground = oscillator
        (want,) = fd_spectrum(pot, (2.25, 3.75), grid)
        calls = _counting_pivots(monkeypatch)
        got = oracle._enclosed_eigenvalue(diag, off_sq, 2.25, 3.75, 3.0, ground)
        assert got is not None and abs(got[0] - want) <= _rounding_bound(grid) and got[1] == 0
        # One pass: two shifts, symmetric about rho.
        rho, _ = oracle._rayleigh(diag, -math.sqrt(off_sq), ground)
        below, above = (float(diag[0] - a[0]) for a in calls)
        assert 0.5 * (below + above) == pytest.approx(rho, abs=1e-9) and below < want < above

    def test_rho_5_with_no_level_within_g_proves_nothing(self, oscillator):
        # Equal parts of the levels near 3 and 7 have rho near 5; g is half
        # the window (4.5, 5.5), and 5 +- 0.5 holds no level.
        pot, grid, diag, off_sq, ground = oscillator
        r = oracle._fd_points(grid)[0]
        first = (r * r - 1.5) * ground
        mix = ground / np.linalg.norm(ground) + first / np.linalg.norm(first)
        assert oracle._rayleigh(diag, -math.sqrt(off_sq), mix)[0] == pytest.approx(5.0, abs=1e-3)
        c = np.full(len(diag) - 1, -math.sqrt(off_sq))
        assert oracle._negative_pivots(diag - 4.5, c) == oracle._negative_pivots(diag - 5.5, c) == 1
        assert oracle._enclosed_eigenvalue(diag, off_sq, 4.5, 5.5, 5.0, mix) is None

    def test_a_g_holding_two_levels_takes_the_bisection_verdict(self, oscillator, quartic0, bisect_calls, monkeypatch):
        # With the target 1.25 above rho near 3, g = 4 |rho - target| = 5,
        # and 3 +- 5 holds the levels near 3 and 7.  The enclosure of the
        # level near 3 passes every other check; the counts refuse it.
        pot, grid, diag, off_sq, ground = oscillator
        window, target = (-0.75, 9.25), 4.25
        want = _bisected_nearest(pot, window, grid, target)
        with monkeypatch.context() as mp:
            calls = _counting_pivots(mp)
            assert oracle._enclosed_eigenvalue(diag, off_sq, *window, target, ground) is None
        c = np.full(len(diag) - 1, -math.sqrt(off_sq))
        assert [oracle._negative_pivots(a, c) for a in calls] == [0, 2]
        # The same trial vector through `_nearest_fd_eigenvalue`: bisection
        # decides, and its float is the result.
        monkeypatch.setattr(oracle, "eval_log_psi", lambda solution, r: (np.log(r) - 0.5 * r * r, np.ones_like(r)))
        bisect_calls.clear()
        assert _nearest(pot, window, grid, target, quartic0) == want
        assert len(bisect_calls) == 1

    @pytest.mark.parametrize("diag, v", [([3.0, 3.0], [1.0, 1.0]), ([2.0, 2.0, 2.0], [1.0, 0.0, -1.0])])
    def test_an_exact_eigenvector_gives_g_0_and_no_proof(self, diag, v):
        # T v = 2 v exactly, so rho = 2 = target, and the step from it gives
        # rho1 = 2 with eps1 = 0: g is 0, where Kato-Temple would divide 0
        # by 0.
        diag, v = np.array(diag), np.array(v)
        assert oracle._rayleigh(diag, -1.0, v) == (2.0, 0.0)
        assert oracle._enclosed_eigenvalue(diag, 1.0, 1.5, 2.5, 2.0, v) is None


class TestFdSpectrumAgainstLdl:
    """fd_spectrum agrees with a multisection on the LDL^T reference counts
    to the rounding of the matrix."""

    def test_verify_pool(self, cfg, monkeypatch):
        # Entry 5, the octic coulombic ground state, has 18 eigenvalues in
        # its window, all of which the nearest entry's bisection refines.
        # The enclosure is switched off, so the nearest entry is the
        # bisection fallback's; TestNearestFdEigenvalue checks the enclosure.
        monkeypatch.setattr(oracle, "_enclosed_eigenvalue", lambda *args: None)
        for sol in _verify_pool(cfg):
            two_e = 2.0 * sol.energy
            delta = max(0.75, 0.02 * abs(two_e))
            window = (two_e - delta, two_e + delta)
            pot, coarse = assemble_potential(sol), default_fd_grid(sol, 2400)
            for grid in (coarse, FdGrid(coarse.r_min, coarse.r_max, 2 * 2400 + 1)):
                got, want = fd_spectrum(pot, window, grid), _reference_spectrum(pot, window, grid)
                assert len(got) == len(want) >= 1
                assert np.max(np.abs(np.subtract(got, want))) <= _rounding_bound(grid)
                nearest = _nearest(pot, window, grid, two_e, sol)
                assert nearest in got
                assert abs(nearest - two_e) == min(abs(v - two_e) for v in got)

    def test_mid_spectrum_window(self):
        # The oscillator's window 1.5 / h^2 + [0, 300] holds three levels,
        # where the float spacing (1.5e-11) stops both searches before
        # 1e-12.
        pot, grid = PotentialSpec(0.0, 1.0, {}), FdGrid(1e-3, 12.0, 3000)
        h = (grid.r_max - grid.r_min) / (grid.n_points + 1)
        window = (1.5 / (h * h), 1.5 / (h * h) + 300.0)
        got, want = fd_spectrum(pot, window, grid), _reference_spectrum(pot, window, grid)
        assert len(got) == len(want) == 3
        assert np.max(np.abs(np.subtract(got, want))) <= _rounding_bound(grid)

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(
        ell=st.integers(0, 2),
        omega=st.floats(0.5, 2.0),
        lam=st.floats(0.05, 2.0),
        power=st.sampled_from([4, 6, 8]),
        low=st.floats(0.0, 30.0),
        width=st.floats(0.5, 10.0),
        n_points=st.integers(2000, 5000),
    )
    def test_drawn_potentials(self, ell, omega, lam, power, low, width, n_points):
        pot = PotentialSpec(float(ell), omega, {power: lam})
        grid = FdGrid(0.05, 10.0, n_points)
        got, want = fd_spectrum(pot, (low, low + width), grid), _reference_spectrum(pot, (low, low + width), grid)
        assert len(got) == len(want)
        if got:
            assert np.max(np.abs(np.subtract(got, want))) <= _rounding_bound(grid)


def _pool_grids(sol):
    """The FD problems FULL verification solves for one branch: potential,
    window, 2E and its coarse and fine grids."""
    two_e = 2.0 * sol.energy
    delta = max(0.75, 0.02 * abs(two_e))
    coarse = default_fd_grid(sol, 2400)
    fine = FdGrid(coarse.r_min, coarse.r_max, 2 * 2400 + 1)
    return assemble_potential(sol), (two_e - delta, two_e + delta), two_e, (coarse, fine)


def _nearest(potential, window, grid, target, sol):
    """The eigenvalue `_nearest_fd_eigenvalue` finds on one grid built on
    its own (the FD matrix of `_fd_problem`, and `sol`'s Psi sampled on the
    grid's points), or None."""
    lo, hi, diag, off_sq = oracle._fd_problem(potential, window, grid, 1e-12)
    log_mag, sign = oracle.eval_log_psi(sol, oracle._fd_points(grid)[0])
    found = oracle._nearest_fd_eigenvalue(diag, off_sq, (lo, hi), target, log_mag, sign)
    return None if found is None else found[0]


def _no_bisection(*args, **kwargs):
    raise AssertionError("the eigenvalue was not proven from the trial vector")


def _bisected_nearest(potential, window, grid, target) -> float:
    """The nearest eigenvalue as bisection alone finds it."""
    lo, hi, diag, off_sq = oracle._fd_problem(potential, window, grid, 1e-12)
    _, found = oracle._bisect(diag, off_sq, lo, hi, 1e-12)
    return float(found[np.argmin(np.abs(found - target))])


class TestNearestFdEigenvalue:
    """The eigenvalue nearest 2E, proven from the sampled Psi by a
    Kato-Temple enclosure, with bisection as the fallback."""

    def test_empty_window(self, quartic0):
        # Any trial vector: an enclosure outside the window is not taken.
        pot, grid = PotentialSpec(0.0, 1.0, {}), FdGrid(1e-3, 12.0, 3000)
        assert _nearest(pot, (4.0, 6.0), grid, 5.0, quartic0) is None

    def test_pool_is_proven_without_bisection(self, cfg, monkeypatch):
        # On both grids of every pool entry the enclosure proves the
        # eigenvalue (no fallback) with one pass of two Sturm counts, and it
        # lies within the rounding of the matrix of the fd_spectrum entry
        # nearest 2E.
        for sol in _verify_pool(cfg):
            pot, window, two_e, grids = _pool_grids(sol)
            for grid in grids:
                want = min(fd_spectrum(pot, window, grid), key=lambda v: abs(v - two_e))
                with monkeypatch.context() as mp:
                    calls = _counting_pivots(mp)
                    got = _nearest(pot, window, grid, two_e, sol)
                assert abs(got - want) <= _rounding_bound(grid)
                assert len(calls) == 2

    def test_full_verification_of_the_pool_without_bisection(self, cfg, monkeypatch):
        # One two-shift count pass per grid: 10 entries, 2 grids each.
        calls = _counting_pivots(monkeypatch)
        for sol in _verify_pool(cfg):
            report = verify_solution(sol, VerifyLevel.FULL)
            assert report.passed, report.lines()
        assert len(calls) == 2 * 2 * 10

    @pytest.mark.parametrize("draw", [3, 17])
    def test_a_dense_spectrum_near_0_is_proven_in_one_pass(self, draw, monkeypatch):
        # The octic coulombic branches of the acceptance sweep at n = 2 with
        # real positive roots: 2E near -0.05, with coarse-grid neighbours
        # about 0.02 away.  The sample's own residual (about 1e-2) would
        # size g to take in two eigenvalues; the step's data size it to
        # about 1e-4.
        sol = solve_family(_sweep_problem(Family.OCTIC, draw, 2), SolverConfig(seed=2026, starts=48))[3]
        pot, window, two_e, (coarse, _) = _pool_grids(sol)
        lo, hi, diag, off_sq = oracle._fd_problem(pot, window, coarse, 1e-12)
        log_mag, sign = oracle.eval_log_psi(sol, oracle._fd_points(coarse)[0])
        rho, eps0 = oracle._rayleigh(diag, -math.sqrt(off_sq), sign * np.exp(log_mag - log_mag.max()))
        c = np.full(len(diag) - 1, -math.sqrt(off_sq))
        below, above = (oracle._negative_pivots(diag - s, c) for s in (rho - 2.0 * eps0, rho + 2.0 * eps0))
        assert above - below == 2
        calls = _counting_pivots(monkeypatch)
        assert verify_solution(sol, VerifyLevel.FULL).passed
        assert len(calls) == 4

    def test_neighbouring_eigenvalue_takes_the_fallback(self, quartic0, quartic1, bisect_calls):
        # The n = 1 Psi has its Rayleigh quotient on the n = 0 matrix near
        # the second eigenvalue (7.60), outside the window about 2E = 3: the
        # enclosure fails and bisection gives its own float.
        pot, window, two_e, grids = _pool_grids(quartic0)
        for grid in grids:
            lo, hi, diag, off_sq = oracle._fd_problem(pot, window, grid, 1e-12)
            lm, sign = oracle.eval_log_psi(quartic1, oracle._fd_points(grid)[0])
            rho, _ = oracle._rayleigh(diag, -math.sqrt(off_sq), sign * np.exp(lm - lm.max()))
            assert rho == pytest.approx(7.6, abs=0.2)
            want = _bisected_nearest(pot, window, grid, two_e)
            bisect_calls.clear()
            assert _nearest(pot, window, grid, two_e, quartic1) == want
            assert len(bisect_calls) == 1

    def test_root_moved_falls_back_to_the_bisection_verdict(self, quartic1, bisect_calls, monkeypatch):
        # A Psi with its root moved by 1e-2 fails the FAST checks.  One
        # inverse-iteration step from it leaves the enclosure wider than
        # 1e-12 on both grids, so bisection decides, and the report is the
        # one bisection alone gives.
        roots = quartic1.roots
        moved = RootSet(roots.n, (roots.roots[0] + 1e-2,), roots.variable, roots.bae_residual, roots.separation)
        bad = _tweak(quartic1, roots=moved)
        got = verify_solution(bad, VerifyLevel.FULL)
        assert len(bisect_calls) == 2
        monkeypatch.setattr(oracle, "_enclosed_eigenvalue", lambda *args: None)
        assert got.lines() == verify_solution(bad, VerifyLevel.FULL).lines()
        failed = [c.name for c in got.checks if not c.passed]
        assert failed == ["bae_residual", "identity_residual", "schrodinger_residual"]

    def test_enclosure_of_a_known_spectrum(self):
        # The ell = 2 radial oscillator's eigenfunctions for 2E = 7 and 11,
        # sampled, prove their FD levels within the rounding of the matrix
        # of fd_spectrum.  A cruder vector (residual 0.39, after which one
        # step leaves the enclosure about 4e-5 wide) proves nothing.
        pot, grid = PotentialSpec(2.0, 1.0, {}), FdGrid(1e-3, 12.0, 3000)
        diag, off_sq = _fd_matrix(pot, grid)
        r = oracle._fd_points(grid)[0]
        gauss = r**3 * np.exp(-0.5 * r * r)
        for ordinal, (trial, (lo, hi)) in enumerate(((gauss, (6.25, 7.75)), ((r * r - 3.5) * gauss, (10.25, 11.75)))):
            (want,) = fd_spectrum(pot, (lo, hi), grid)
            got = oracle._enclosed_eigenvalue(diag, off_sq, lo, hi, 0.5 * (lo + hi), trial)
            assert got is not None and abs(got[0] - want) <= _rounding_bound(grid) and got[1] == ordinal
        assert oracle._enclosed_eigenvalue(diag, off_sq, 6.25, 7.75, 7.0, r**3 * np.exp(-0.45 * r * r)) is None
        # In the window (6.25, 11.75) the level near 7 is proven, but it is
        # not the one nearest 10.
        assert oracle._enclosed_eigenvalue(diag, off_sq, 6.25, 11.75, 10.0, gauss) is None


class TestOneFdGrid:
    """FULL verification builds one FD grid of 2 * 2400 + 1 points and reads
    the 2400-point grid off its odd points, with h doubled."""

    @pytest.mark.parametrize("k", [2000, 2400, 3001])
    def test_odd_points_are_the_k_point_grid(self, cfg, k):
        for sol in _verify_pool(cfg):
            coarse = default_fd_grid(sol, k)
            (r_c, h_c), (r_f, h_f) = (oracle._fd_points(FdGrid(coarse.r_min, coarse.r_max, n)) for n in (k, 2 * k + 1))
            assert np.array_equal(r_f[1::2], r_c) and 2.0 * h_f == h_c

    def test_both_resolutions_are_those_of_grids_built_apart(self, cfg, monkeypatch):
        # The reference: a 2400-point and a 4801-point grid built apart on
        # the same support, each with its own FD matrix and sample of Psi.
        got = []
        nearest = oracle._nearest_fd_eigenvalue
        monkeypatch.setattr(oracle, "_nearest_fd_eigenvalue", lambda *args: got.append(nearest(*args)) or got[-1])
        for sol in _verify_pool(cfg):
            pot, window, two_e, grids = _pool_grids(sol)
            want = [_nearest(pot, window, grid, two_e, sol) for grid in grids]
            got.clear()
            verify_solution(sol, VerifyLevel.FULL)
            assert [found[0] for found in got] == want

    def test_one_bracket_and_one_psi_on_the_fd_grid(self, quartic1, monkeypatch):
        # The residual and the support scan read neither, so each FULL
        # verification makes one call of each, on the 4801 points.
        calls = []
        bracket, log_psi = PotentialSpec.bracket, oracle.eval_log_psi
        monkeypatch.setattr(PotentialSpec, "bracket", lambda self, r: calls.append(("bracket", len(r))) or bracket(self, r))
        monkeypatch.setattr(oracle, "eval_log_psi", lambda sol, r: calls.append(("psi", len(r))) or log_psi(sol, r))
        for _ in range(2):
            calls.clear()
            assert verify_solution(quartic1, VerifyLevel.FULL).passed
            assert sorted(calls) == [("bracket", 4801), ("psi", 4801)]


class TestVerifySolution:
    def test_fast_pass(self, quartic0):
        report = verify_solution(quartic0, VerifyLevel.FAST)
        assert report.passed
        assert {c.name for c in report.checks} == {
            "bae_residual",
            "identity_residual",
            "schrodinger_residual",
        }

    def test_full_pass(self, quartic1):
        report = verify_solution(quartic1, VerifyLevel.FULL)
        assert report.passed
        names = [c.name for c in report.checks]
        assert "fd_eigenvalue_error" in names and "node_count" in names

    def test_energy_ordering_note(self, cfg):
        # A first-excited branch with a negative root has no node on r > 0;
        # flagged in the notes, not failed: it is the ground state, and the
        # FD eigenvalue nearest 2E has none below it.
        sols = solve_family(sextic(n=1, omega=1.0, e=0.0, d=0.5), cfg)
        report = verify_solution(sols[0], VerifyLevel.FULL)
        assert report.passed
        assert any("0 node" in note for note in report.notes)
        assert _check(report, "node_count").value == 0.0

    def test_node_count_of_the_pool_is_the_ordinal(self, cfg):
        # Each pool state's nodes equal the fine-grid eigenvalues below the
        # one nearest 2E, as the reference LDL^T counts them.
        for sol in _verify_pool(cfg):
            pot, window, two_e, (_, fine) = _pool_grids(sol)
            nearest = _nearest(pot, window, fine, two_e, sol)
            (below,) = sturm_reference._sturm_counts(*_fd_matrix(pot, fine), np.array([nearest - 1e-6]))
            assert below == oracle.count_nodes(sol)
            check = _check(verify_solution(sol, VerifyLevel.FULL), "node_count")
            assert (check.value, check.tolerance, check.passed) == (0.0, 0.0, True)

    def test_wrong_node_count_for_the_energy_fails(self, quartic1, bisect_calls):
        # The n = 1 Psi (one node) with 2E at the lowest FD level of its own
        # potential: its sample proves nothing there, bisection finds that
        # level with no eigenvalue below it, and the check reads |0 - 1|.
        pot = assemble_potential(quartic1)
        fine = _pool_grids(quartic1)[3][1]
        ground = fd_spectrum(pot, (-100.0, 2.0 * quartic1.energy - 1.0), fine)[0]
        bisect_calls.clear()
        report = verify_solution(_tweak(quartic1, energy=0.5 * ground), VerifyLevel.FULL)
        check = _check(report, "node_count")
        assert (check.value, check.passed) == (1.0, False)
        assert len(bisect_calls) == 2
        # The nodes match the label n = 1, so only the check sees this.
        assert not any("energy ordering" in note for note in report.notes)

    def test_support_beyond_the_scan_fails_three_checks(self, quartic0):
        # exp(-1e-30 r^2) in place of exp(-r^2 / 2) puts the peak of |Psi|
        # past the scan: the norm, the FD eigenvalue and the node count are
        # not computed.
        waveform = WaveForm(quartic0.waveform.leading_exponent, {**quartic0.waveform.exp_coeffs, 2: -1e-30})
        wide = dataclasses.replace(quartic0, waveform=waveform)
        report = verify_solution(wide, VerifyLevel.FULL)
        failed = {c.name: c.value for c in report.checks if not c.passed}
        assert {k: failed[k] for k in ("norm_finite", "node_count", "fd_eigenvalue_error")} == dict.fromkeys(
            ("norm_finite", "node_count", "fd_eigenvalue_error"), math.inf
        )
        assert "norm: could not bracket the support of |Psi|^2" in report.notes
        assert "fd oracle: wavefunction support exceeds the scan range" in report.notes

    def test_corrupted_root_fails_fast(self, quartic1):
        roots = quartic1.roots
        bad_roots = RootSet(
            roots.n,
            (roots.roots[0] + 1e-2,),
            roots.variable,
            roots.bae_residual,
            roots.separation,
        )
        report = verify_solution(_tweak(quartic1, roots=bad_roots), VerifyLevel.FAST)
        failed = {c.name for c in report.checks if not c.passed}
        assert "bae_residual" in failed and "identity_residual" in failed

    def test_tampered_energy_fails(self, quartic0):
        report = verify_solution(_tweak(quartic0, energy=quartic0.energy + 1e-3), VerifyLevel.FAST)
        failed = {c.name for c in report.checks if not c.passed}
        assert failed == {"schrodinger_residual"}


class TestMissingCoupling:
    def test_unassigned_coupling_detected(self, quartic0):
        from qesolve import MissingCoupling

        stripped = _tweak(quartic0)
        stripped.derived.pop("b")
        with pytest.raises(MissingCoupling):
            assemble_potential(stripped)
