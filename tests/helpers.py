"""Shared builders for the test suite."""

import math
from fractions import Fraction

import numpy as np

from bclearn import MISSING, Dataset, Variable
from bclearn.score import FamilyScorer
from bclearn.search import Model, _finalize
from bclearn.estimate import _on_grid, _phi_ints


def make_dataset(cards, rows, names=None):
    """Dataset from explicit state-index rows; -1 marks a missing entry."""
    variables = tuple(
        Variable(
            names[i] if names else f"X{i + 1}",
            tuple(str(s + 1) for s in range(card)),
        )
        for i, card in enumerate(cards)
    )
    codes = np.asarray(rows, dtype=np.int16).reshape(len(rows), len(cards))
    return Dataset(variables, codes)


def five_case_db() -> Dataset:
    """The worked five-case binary example used across the suite.

    Case entries (1-based states, ? missing):
        (1,2,2) (2,?,1) (?,1,2) (?,?,1) (1,?,?)
    """
    return make_dataset(
        (2, 2, 2),
        [
            [0, 1, 1],
            [1, MISSING, 0],
            [MISSING, 0, 1],
            [MISSING, MISSING, 0],
            [0, MISSING, MISSING],
        ],
    )


# (alpha, beta) pairs for seeded tests: integer and fractional grids, with
# each value appearing once as alpha and once as beta.
PRIORS = ((1.0, 1.0), (0.5, 2.5), (0.1, 0.5), (2.5, 0.1))


FIVE_CASE_CSV = "X1,X2,X3\n1,2,2\n2,?,1\n?,1,2\n?,?,1\n1,?,?\n"


def random_complete(rng, max_vars=4, max_card=3, max_cases=50) -> Dataset:
    n_vars = int(rng.integers(1, max_vars + 1))
    cards = [int(rng.integers(2, max_card + 1)) for _ in range(n_vars)]
    n = int(rng.integers(0, max_cases + 1))
    rows = np.column_stack(
        [rng.integers(0, card, size=n) for card in cards]
    ).astype(np.int16) if n else np.zeros((0, n_vars), dtype=np.int16)
    return make_dataset(cards, rows)


def punch_holes(rng, dataset: Dataset, n_holes: int) -> Dataset:
    """Mask n distinct entries chosen uniformly."""
    codes = dataset.codes.copy()
    total = codes.size
    positions = rng.choice(total, size=min(n_holes, total), replace=False)
    codes.reshape(-1)[positions] = MISSING
    return Dataset(dataset.variables, codes)


def random_incomplete(rng, max_vars=3, max_card=3, max_cases=6, max_completions=1024):
    """Tiny dataset with a few holes, enumeration kept under the cap."""
    while True:
        base = random_complete(rng, max_vars, max_card, max_cases)
        if base.n_cases == 0:
            continue
        n_holes = int(rng.integers(1, min(7, base.codes.size + 1)))
        dataset = punch_holes(rng, base, n_holes)
        product = 1
        for row, col in zip(*np.nonzero(dataset.codes == MISSING)):
            product *= dataset.variables[col].cardinality
        if 1 < product <= max_completions:
            return dataset


def random_network(rng, variables, max_parents=3) -> Model:
    """Variable i draws up to ``max_parents`` parents among 0..i-1 and one
    Dirichlet(1) CPT row per parent configuration."""
    cards = [v.cardinality for v in variables]
    parent_sets, cpts = [], []
    for i, card in enumerate(cards):
        k = int(rng.integers(0, min(i, max_parents) + 1))
        parents = tuple(sorted(int(p) for p in rng.choice(i, size=k, replace=False)))
        parent_sets.append(parents)
        cpts.append(rng.dirichlet(np.ones(card), size=math.prod(cards[p] for p in parents)))
    return Model(tuple(variables), tuple(parent_sets), cpts=tuple(cpts))


def ancestral_submodel(model: Model, i: int) -> Model:
    """Variable i and its ancestors with their CPTs: a network in its own
    right whose marginal of variable i is the full network's."""
    keep = {i}
    frontier = [i]
    while frontier:
        for p in model.parent_sets[frontier.pop()]:
            if p not in keep:
                keep.add(p)
                frontier.append(p)
    keep = sorted(keep)
    new_index = {old: new for new, old in enumerate(keep)}
    return Model(
        tuple(model.variables[old] for old in keep),
        tuple(tuple(new_index[p] for p in model.parent_sets[old]) for old in keep),
        cpts=tuple(model.cpts[old] for old in keep),
    )


def phi_rows(table, prior, policy):
    """The phi rows bc_estimate mixes with, as exact Fractions."""
    a, _ = _on_grid(prior.alpha, table.obs_matrix(), table.comp_matrix())
    nums, dens = _phi_ints(policy, a, a.sum(axis=1, keepdims=True))
    return [
        [Fraction(n, den) for n in row]
        for row, (den,) in zip(nums.tolist(), dens.tolist())
    ]


def sequential_k2(dataset, order, alpha=1.0, beta=1.0, phi="mar") -> Model:
    """``search.k2_bc`` searched one node after another: each node's empty
    family is scored alone and each of its rounds as one stack, until no
    candidate strictly improves the node.  A reference for the lockstep
    search, whose every step it should take."""
    order.validate(dataset.n_variables)
    scorer = FamilyScorer(dataset, alpha=alpha, beta=beta, phi_policy=phi)
    parent_sets = [()] * dataset.n_variables
    for position, child in enumerate(order.order):
        parents = []
        current = scorer.score(child, parents).log_g
        while order.max_parents is None or len(parents) < order.max_parents:
            candidates = [c for c in order.order[:position] if c not in parents]
            [[_, *trials]] = scorer.scores([(child, parents, candidates)])
            best_candidate, best_score = None, -math.inf
            for candidate, trial in zip(candidates, trials):
                if trial.log_g > best_score:
                    best_candidate, best_score = candidate, trial.log_g
            if best_candidate is None or not best_score > current:
                break
            parents.append(best_candidate)
            current = best_score
        parent_sets[child] = tuple(sorted(parents))
    return _finalize(dataset, parent_sets, scorer)
