"""Co-assignment probability matrices and the inequality index.

For every unordered pot pair (k, l) the n x n matrix P[(k, l)] holds the
probability that pot-k team i and pot-l team j share a group.  Each matrix
is doubly stochastic: every team meets exactly one team per other pot, so
rows and columns sum to one.  The inequality index averages the
Herfindahl-Hirschman concentration of those rows and columns; because row
and column square-sums coincide over a full matrix, each pot pair
contributes (1/n) * sum(p_ij^2):

    I_hat = 2 / (m (m - 1)) * sum over pot pairs of (1/n) * sum(p_ij^2)
    I     = (I_hat - 1/n) / (1 - 1/n)

I = 0 means every permitted opponent is equally likely; I = 1 means the
draw is deterministic.  All accumulation is in 64-bit integer counts so
shards merge exactly; division happens only at reporting time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np


def pot_pairs(m: int):
    """Canonical unordered pot pairs, 1-based: (1,2), (1,3), ..., (m-1,m)."""
    return [(k, l) for k in range(1, m + 1) for l in range(k + 1, m + 1)]


class PairMatrixSet:
    """Co-assignment probability matrices for all pot pairs.

    ``matrices[(k, l)]`` is an (n, n) numpy array; dtype float64 for
    empirical estimates, dtype object holding ``Fraction`` for exact ones.
    """

    def __init__(self, m, n, matrices, provenance, team_names=None):
        self.m = m
        self.n = n
        self.matrices = dict(matrices)
        self.provenance = provenance  # "exact" or ("empirical", trials)
        self.team_names = team_names  # per pot: tuple of n names

    @property
    def exact(self) -> bool:
        return self.provenance == "exact"

    def matrix(self, k: int, l: int) -> np.ndarray:
        return self.matrices[(k, l)]

    def stochastic_error(self) -> float:
        """Largest deviation of any row or column sum from 1."""
        worst = 0.0
        for mat in self.matrices.values():
            rows = mat.sum(axis=1)
            cols = mat.sum(axis=0)
            for s in list(rows) + list(cols):
                worst = max(worst, abs(float(s - 1)))
        return worst

    def check_doubly_stochastic(self, tol: float = 1e-9) -> None:
        err = self.stochastic_error()
        if err > tol:
            raise ValueError(
                f"matrices are not doubly stochastic: max row/col deviation {err:.3e} > {tol:.1e}"
            )


@dataclass
class InequalityReport:
    i_hat: object  # float or Fraction
    inequality: object
    pair_contributions: dict  # (k, l) -> (1/n) * sum of squared entries


class MatrixAccumulator:
    """Mergeable co-occurrence counts behind the empirical pair matrices.

    Each complete assignment adds one count per group per pot pair, so after
    N trials every row and column of every count slice sums to exactly N.
    """

    def __init__(self, m: int, n: int):
        self.m = m
        self.n = n
        self.pairs = pot_pairs(m)
        self.pair_index = {p: i for i, p in enumerate(self.pairs)}
        self.counts = np.zeros((len(self.pairs), n, n), dtype=np.int64)
        self.trials = 0

    def add_pos_batch(self, pos: np.ndarray) -> None:
        """Accumulate a (T, m*n) batch of team->group assignments."""
        T = pos.shape[0]
        if T == 0:
            return
        n = self.n
        cols = [pos[:, k * n : (k + 1) * n] for k in range(self.m)]
        invs = [np.argsort(c, axis=1) for c in cols]
        local = np.arange(n, dtype=np.int64)[None, :] * n
        for idx, (k, l) in enumerate(self.pairs):
            partner = np.take_along_axis(invs[l - 1], cols[k - 1], axis=1)
            flat = (local + partner).ravel()
            self.counts[idx] += np.bincount(flat, minlength=n * n).reshape(n, n)
        self.trials += T

    def add_raw(self, counts: np.ndarray, trials: int) -> None:
        self.counts += counts
        self.trials += trials


def pair_matrices(acc: MatrixAccumulator, team_names=None) -> PairMatrixSet:
    """Empirical probabilities: counts divided by the trial count."""
    if acc.trials <= 0:
        raise ValueError("no trials accumulated")
    mats = {
        pair: acc.counts[i].astype(np.float64) / acc.trials
        for i, pair in enumerate(acc.pairs)
    }
    return PairMatrixSet(acc.m, acc.n, mats, ("empirical", acc.trials), team_names)


def _square_sum(mat: np.ndarray):
    if mat.dtype == object:
        return sum(x * x for x in mat.ravel())
    return float(np.square(mat).sum())


def hhi_index(matrices: PairMatrixSet, tol: float = 1e-9):
    """Average row/column HHI over all pair matrices (the raw index I_hat).

    Exact (Fraction) inputs give an exact Fraction back; float inputs give a
    float.  Raises if the matrices are not doubly stochastic within ``tol``.
    """
    return _hhi(matrices, tol)[0]


def _hhi(matrices: PairMatrixSet, tol: float):
    """I_hat and its per-pair contributions (1/n) * sum of squared entries."""
    matrices.check_doubly_stochastic(tol=0 if matrices.exact else tol)
    n = matrices.n
    m = matrices.m
    contributions = {}
    for pair in pot_pairs(m):
        ss = _square_sum(matrices.matrix(*pair))
        contributions[pair] = ss * Fraction(1, n) if isinstance(ss, Fraction) else ss / n
    total = sum(contributions.values())
    if isinstance(total, Fraction):
        return total * Fraction(2, m * (m - 1)), contributions
    return total * 2.0 / (m * (m - 1)), contributions


def inequality(i_hat, n: int, tol: float = 1e-9):
    """Rescale I_hat from [1/n, 1] to the unit interval."""
    if isinstance(i_hat, Fraction):
        lo = Fraction(1, n)
        if i_hat < lo or i_hat > 1:
            raise ValueError(f"I_hat {i_hat} outside [1/{n}, 1]")
        return (i_hat - lo) / (1 - lo)
    lo = 1.0 / n
    if i_hat < lo - tol or i_hat > 1 + tol:
        raise ValueError(f"I_hat {i_hat} outside [{lo}, 1]")
    clamped = min(max(i_hat, lo), 1.0)
    return (clamped - lo) / (1.0 - lo)


def inequality_report(matrices: PairMatrixSet, tol: float = 1e-9) -> InequalityReport:
    i_hat, contributions = _hhi(matrices, tol)
    return InequalityReport(i_hat, inequality(i_hat, matrices.n, tol=tol), contributions)


def export_matrices(matrices: PairMatrixSet) -> str:
    """Tab-delimited export: one block per pot pair, 6-decimal probabilities."""
    lines = ["# drawlab-pair-matrices v1"]
    names = matrices.team_names
    n = matrices.n
    for k, l in pot_pairs(matrices.m):
        mat = matrices.matrix(k, l)
        row_names = names[k - 1] if names else [f"pot{k}#{i}" for i in range(n)]
        col_names = names[l - 1] if names else [f"pot{l}#{j}" for j in range(n)]
        lines.append(f"# pots {k}-{l}")
        lines.append("\t".join([""] + list(col_names)))
        for i in range(n):
            vals = [f"{float(mat[i, j]):.6f}" for j in range(n)]
            lines.append("\t".join([row_names[i]] + vals))
        lines.append("")
    return "\n".join(lines)
