"""Phase-1 simplex for equality-form feasibility with dual certificates.

Decides whether {x >= 0 : A x = b} is nonempty by minimizing the sum of
artificial variables with Bland's anti-cycling pivot rule.  Feasible systems
yield a basic nonnegative solution; infeasible ones yield a Farkas vector y
with y.A <= 0 componentwise (up to the pivot tolerance) and y.b > 0, i.e. a
machine-checkable linear inequality separating b from the column cone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure

# Phase-1 optimum at or below this counts as feasible.
FEAS_TOL = 1e-9
# Tableau entries and reduced costs within this of zero count as zero.
PIVOT_TOL = 1e-12


@dataclass
class FeasibilityResult:
    feasible: bool
    x: np.ndarray | None
    dual: np.ndarray | None
    infeasibility: float
    iterations: int


def solve_equality_feasibility(
    a,
    b,
    *,
    max_iterations: int | None = None,
) -> FeasibilityResult:
    """Phase-1 feasibility for A x = b, x >= 0 (dense, double precision)."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float).reshape(-1)
    m, n = a.shape
    if b.size != m:
        raise NumericalFailure(f"A has {m} rows but b has {b.size} entries")
    flips = np.where(b < 0, -1.0, 1.0)
    tableau = np.hstack([a * flips[:, None], np.eye(m)])
    rhs = b * flips
    basis = np.arange(n, n + m)
    # Reduced costs for phase-1 (artificial costs 1, original costs 0) with
    # the artificial columns basic: r = c - colsums over [A | I].
    reduced = np.concatenate([np.zeros(n), np.ones(m)]) - tableau.sum(axis=0)
    if max_iterations is None:
        max_iterations = 1000 + 50 * (m + n)
    iterations = 0
    while True:
        entering_candidates = np.flatnonzero(reduced < -PIVOT_TOL)
        if entering_candidates.size == 0:
            break
        j = int(entering_candidates[0])  # Bland: lowest eligible index
        rows = np.flatnonzero(tableau[:, j] > PIVOT_TOL)
        if rows.size == 0:
            raise NumericalFailure(
                "phase-1 column with no positive pivot (objective is bounded; "
                "this indicates numerical breakdown)"
            )
        ratios = rhs[rows] / tableau[rows, j]
        # Bland: ratio ties go to the lowest basic index.
        pivot_row = int(rows[np.lexsort((basis[rows], ratios))[0]])
        pivot = tableau[pivot_row, j]
        tableau[pivot_row] /= pivot
        rhs[pivot_row] /= pivot
        factors = tableau[:, j].copy()
        factors[pivot_row] = 0.0
        hit = factors != 0.0
        tableau[hit] -= np.outer(factors[hit], tableau[pivot_row])
        rhs[hit] -= factors[hit] * rhs[pivot_row]
        rhs[hit & (rhs < 0.0)] = 0.0
        factor = reduced[j]
        reduced -= factor * tableau[pivot_row]
        reduced[j] = 0.0
        basis[pivot_row] = j
        iterations += 1
        if iterations > max_iterations:
            raise NumericalFailure(
                f"simplex exceeded {max_iterations} pivots; presumed cycling"
            )
    artificial = basis >= n
    # A Python float sum in row order keeps the value bit-stable.
    infeasibility = float(sum(rhs[artificial].tolist()))
    if infeasibility <= FEAS_TOL:
        x = np.zeros(n)
        x[basis[~artificial]] = rhs[~artificial]
        return FeasibilityResult(True, x, None, infeasibility, iterations)
    # Simplex multipliers: the reduced cost of artificial column i equals
    # 1 - y_i throughout, so y falls out of the final cost row.
    y = (1.0 - reduced[n:]) * flips
    return FeasibilityResult(False, None, y, infeasibility, iterations)
