"""Brute-force references: every completion, every structure, every state.

These routines are desk-scale ground truth: they expand every assignment
of the missing entries, compute the exact complete-data quantities per
completion with naive per-case loops (independent of the aggregated
tally path used by the estimators), and average the results over the
completions, each equally likely.  Costs are exponential in the number of
missing entries, so enumeration is refused beyond a cap.  The per-case
``enumerate_completions`` is the reference the aggregated tally is
checked against, and ``log_g_exact``, the closed-form score of a complete
family, the reference for the estimated score.

Two more references are exponential in the number of variables:
``enumerate_models`` scores every structure an order allows, the reference
for the greedy search, and ``joint_distribution`` multiplies out the full
joint table, the reference for ``search.marginals``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .counts import CountTable, ParentContext
from .data import MISSING, Dataset
from .estimate import PriorSpec
from .score import FamilyScorer
from .search import Model, OrderConstraint

DEFAULT_CAP = 4096


class OracleError(ValueError):
    """Raised when enumeration would exceed the cap or inputs are invalid."""


@dataclass(frozen=True)
class EnumeratedModel:
    model: Model
    log_marginal: float
    posterior: float


def _consistent_configs(ctx: ParentContext, parent_entries) -> list[int]:
    """All configuration indices the (possibly missing) parent entries allow,
    the last parent varying fastest."""
    choices = [
        range(card) if entry == MISSING else (int(entry),)
        for entry, card in zip(parent_entries, ctx.parent_cardinalities)
    ]
    return [ctx.config_index(states) for states in itertools.product(*choices)]


def enumerate_completions(case, ctx: ParentContext) -> list[tuple[int, int]]:
    """The (configuration, child state) cells a single case is consistent with.

    ``case`` is a full row of entries; only the family columns are read.
    A fully observed case yields its single cell.  This is the per-case
    reference for the aggregated ``counts.tally``.
    """
    child_entry = case[ctx.child]
    parent_entries = [case[p] for p in ctx.parents]
    ks = (
        range(ctx.child_cardinality)
        if child_entry == MISSING
        else (int(child_entry),)
    )
    return [(j, k) for j in _consistent_configs(ctx, parent_entries) for k in ks]


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


def log_g_exact(table: CountTable, prior: PriorSpec) -> float:
    """Closed-form log score of a family with complete data, the value
    ``score.log_g_bc`` must reproduce there; every lgamma argument is an
    exact rational rounded once."""
    if not table.is_complete:
        raise OracleError("exact score requires complete family data")
    alpha = Fraction(prior.alpha)
    alpha_sum = table.context.child_cardinality * alpha
    total = 0.0
    for row in table.obs_matrix().tolist():
        total += math.lgamma(alpha_sum) - math.lgamma(alpha_sum + sum(row))
        for n in row:
            total += math.lgamma(alpha + n) - math.lgamma(alpha)
    return total


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


def enumerate_models(
    dataset: Dataset,
    order: OrderConstraint,
    alpha: float = 1.0,
    beta: float = 1.0,
    phi: str = "mar",
    cap: int = 1024,
) -> list[EnumeratedModel]:
    """Score every model consistent with the order, best first, with
    posterior probabilities under a uniform prior over the enumerated set."""
    order.validate(dataset.n_variables)
    n_models = 1
    for position in range(len(order.order)):
        n_models *= 2 ** position
        if n_models > cap:
            raise OracleError(
                f"{n_models}+ models consistent with the order exceeds cap {cap}"
            )
    scorer = FamilyScorer(dataset, alpha=alpha, beta=beta, phi_policy=phi)

    choices_per_child: dict[int, list[tuple[int, ...]]] = {}
    for position, child in enumerate(order.order):
        predecessors = order.order[:position]
        subsets = []
        for r in range(len(predecessors) + 1):
            subsets.extend(
                tuple(sorted(combo))
                for combo in itertools.combinations(predecessors, r)
            )
        choices_per_child[child] = subsets

    children = sorted(choices_per_child)
    scored = []
    for combo in itertools.product(*(choices_per_child[c] for c in children)):
        parent_sets = [()] * dataset.n_variables
        for child, parents in zip(children, combo):
            parent_sets[child] = parents
        score = scorer.model_score(parent_sets)
        model = Model(dataset.variables, tuple(parent_sets), score=score)
        scored.append((score.total, model))

    best = max(total for total, _ in scored)
    weights = [math.exp(total - best) for total, _ in scored]
    normalizer = sum(weights)
    results = [
        EnumeratedModel(model, total, weight / normalizer)
        for (total, model), weight in zip(scored, weights)
    ]
    results.sort(key=lambda em: (-em.log_marginal, em.model.arcs))
    return results


def joint_distribution(model: Model) -> np.ndarray:
    """Exact joint probability table of a fully parameterized model: one
    product of CPT entries per joint state, in variable order."""
    if model.cpts is None:
        raise OracleError("model has no CPTs")
    cards = tuple(v.cardinality for v in model.variables)
    contexts = [ParentContext.of(model.variables, child, parents)
                for child, parents in enumerate(model.parent_sets)]
    joint = np.zeros(cards)
    for states in itertools.product(*(range(c) for c in cards)):
        p = 1.0
        for ctx, cpt in zip(contexts, model.cpts):
            j = ctx.config_index([states[parent] for parent in ctx.parents])
            p *= cpt[j][states[ctx.child]]
        joint[states] = p
    return joint
