"""Brute-force references for ``score --oracle`` and ``estimate --oracle``.

These routines are desk-scale ground truth: they expand every assignment
of the missing entries, compute the exact complete-data quantities per
completion with naive per-case loops (independent of the aggregated
tally path used by the estimators), and average the results over the
completions, each equally likely.  Costs are exponential in the number of
missing entries, so enumeration is refused beyond a cap.
``exact_expectation`` is the reference for a family's estimated posterior
means, and ``exact_marginal`` for a model's score.  Neither runs the
scorer or the search it checks.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .counts import ParentContext
from .data import MISSING, Dataset
from .estimate import PriorSpec

DEFAULT_CAP = 4096


class OracleError(ValueError):
    """Raised when enumeration would exceed the cap or inputs are invalid."""


def _completions(dataset: Dataset, cap=DEFAULT_CAP, columns=None):
    """Yield the code matrix of every completion of the missing entries.

    One code matrix is filled in place and yielded each time, so a caller
    that keeps a completion must copy it.  Only entries in ``columns``
    (default: all) are expanded; the cap applies to the completions of the
    whole dataset.
    """
    rows, cols = np.nonzero(dataset.codes == MISSING)
    n_completions = math.prod(dataset.variables[col].cardinality for col in cols)
    if n_completions > cap:
        raise OracleError(
            f"{n_completions} completions exceeds the enumeration cap {cap}"
        )
    positions = [
        (row, col) for row, col in zip(rows.tolist(), cols.tolist())
        if columns is None or col in columns
    ]
    codes = dataset.codes.copy()
    for assignment in itertools.product(
        *(range(dataset.variables[col].cardinality) for _, col in positions)
    ):
        for (row, col), state in zip(positions, assignment):
            codes[row, col] = state
        yield codes


def _family_counts(codes: np.ndarray, ctx: ParentContext) -> np.ndarray:
    """Naive per-case (configuration, state) counts over complete family
    columns of a code matrix."""
    counts = np.zeros((ctx.n_configs, ctx.child_cardinality), dtype=np.int64)
    for row in codes:
        j = ctx.config_index([int(row[p]) for p in ctx.parents])
        counts[j, int(row[ctx.child])] += 1
    return counts


def exact_expectation(
    dataset: Dataset,
    ctx: ParentContext,
    prior: PriorSpec,
    cap: int = DEFAULT_CAP,
) -> np.ndarray:
    """Mean over completions of the exact posterior means per cell.

    Under alpha = a/b a cell's posterior mean is (a + b n_jk) / (c a + b n_j):
    the integer numerators are summed per distinct row total n_j, and each
    cell's exact rational mean is rounded once, so it compares against
    interval endpoints without slack.  Only family columns are expanded:
    entries outside the family repeat every family completion equally often
    (the cap still applies to the full dataset).
    """
    q, c = ctx.n_configs, ctx.child_cardinality
    a, b = prior.alpha.as_integer_ratio()
    # numerators[j][n_j][k]: summed a + b n_jk over completions with row total n_j
    numerators = [{} for _ in range(q)]
    n_completions = 0
    for codes in _completions(dataset, cap, columns={ctx.child, *ctx.parents}):
        n_completions += 1
        for j, row in enumerate(_family_counts(codes, ctx).tolist()):
            sums = numerators[j].setdefault(sum(row), [0] * c)
            for k, n in enumerate(row):
                sums[k] += a + b * n
    out = np.empty((q, c))
    for j, by_total in enumerate(numerators):
        for k in range(c):
            mean = sum(
                Fraction(sums[k], c * a + b * n_j) for n_j, sums in by_total.items()
            )
            out[j, k] = float(mean / n_completions)
    return out


def _rising(a: int, b: int, n: int) -> int:
    """b**n Gamma(x + n) / Gamma(x) for x = a/b and a natural n:
    a (a + b) ... (a + (n - 1) b)."""
    return math.prod(range(a, a + n * b, b))


def _marginal_complete(codes: np.ndarray, model, a: int, b: int) -> Fraction:
    """Closed-form marginal likelihood of a complete code matrix as an exact
    rational under alpha = a/b, every Gamma ratio being a rising factorial;
    computed with its own counting loop so it can vouch for the main scorer.

    A configuration row's b**n factors cancel between its child states and
    its total, so the likelihood is one ratio of integer products.
    """
    numerator = denominator = 1
    for child in range(len(model.variables)):
        ctx = ParentContext.of(model.variables, child, model.parent_sets[child])
        a_sum = a * ctx.child_cardinality
        for row in _family_counts(codes, ctx).tolist():
            denominator *= _rising(a_sum, b, sum(row))
            for n in row:
                numerator *= _rising(a, b, n)
    return Fraction(numerator, denominator)


def exact_marginal(
    dataset: Dataset,
    model,
    alpha: float = 1.0,
    cap: int = DEFAULT_CAP,
) -> float:
    """Mean over completions of the complete-data marginal likelihood.

    Returned on the probability scale; desk-scale inputs only.  The
    likelihoods are exact rationals, so the mean is rounded once.
    """
    a, b = Fraction(alpha).as_integer_ratio()
    total, n_completions = Fraction(0), 0
    for codes in _completions(dataset, cap):
        total += _marginal_complete(codes, model, a, b)
        n_completions += 1
    return float(total / n_completions)
