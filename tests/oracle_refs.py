"""Brute-force references that only the tests use.

Each one enumerates, so its cost is exponential in the size of its input:

- ``enumerate_completions`` lists the cells one case is consistent with,
  with a naive per-case loop; it is the reference for ``counts.tally``.
- ``log_g_exact`` is the closed-form score of a complete family; it is the
  reference for ``score.log_g_bc``.
- ``enumerate_models`` scores every structure an order allows; it is the
  reference for the greedy search.
- ``joint_distribution`` multiplies out the full joint table; it is the
  reference for ``search.marginals``.

The package's own oracle, ``bclearn.oracle``, keeps only what
``score --oracle`` and ``estimate --oracle`` run.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from bclearn.counts import CountTable, ParentContext
from bclearn.data import MISSING, Dataset
from bclearn.estimate import PriorSpec
from bclearn.oracle import OracleError
from bclearn.score import FamilyScorer
from bclearn.search import Model, OrderConstraint


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
