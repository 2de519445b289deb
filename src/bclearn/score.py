"""Log marginal-likelihood scores for families and whole models.

The local family score is the Gamma-function ratio of posterior to prior
Dirichlet normalizers, under one uniform prior shared by every family
(weight alpha per cell, c * alpha per configuration of a c-state child).
The posterior is the moment-matched Dirichlet built from the
bound-and-collapse estimates, whose hyperparameters for a complete family
reduce to the exact posterior counts, so the score is then the closed
form.

Scores are computed and kept in natural-log space throughout: the raw
products underflow by a thousand cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma

import numpy as np

from .counts import GROUP_PATTERNS, ParentContext, joints, tally
from .data import Dataset
from .estimate import PHI_POLICIES, BcCellEstimate, PriorSpec, bc_estimate


class ScoreError(ValueError):
    """Raised for scoring preconditions (cyclic model, unknown phi, a prior
    too large to score)."""


@dataclass(frozen=True)
class FamilyScore:
    child: int
    parents: tuple[int, ...]
    log_g: float
    exact: bool


@dataclass(frozen=True)
class ModelScore:
    families: tuple[FamilyScore, ...]

    @property
    def total(self) -> float:
        return sum(f.log_g for f in self.families)


def log_g_bc(tables, prior: PriorSpec, est: BcCellEstimate) -> list[FamilyScore]:
    """Score of each family of ``tables`` under the moment-matched posterior
    Dirichlet of ``est``, their ``bc_estimate`` under ``prior``, in table
    order.  Reduces to the exact score when the family data are complete.

    One ``lgamma`` pass covers the stack: every row, or one row per distinct
    row when ``est.inverse`` says which rows share their fields, whose
    values are then gathered back to every row.  Each family's terms are
    then added one at a time in row order, lg_alpha_sum - lgamma(alpha_hat)
    and then each lgamma(weight) - lg_alpha, by ``np.cumsum``, which adds
    sequentially as a Python loop does; grouping changes no bit.
    """
    c = tables[0].context.child_cardinality
    alpha_hat, dirichlet, inverse = est.alpha_hat, est.dirichlet, est.inverse
    if inverse is not None:
        # any row of a distinct row stands for it: their fields are equal
        rep = np.empty(inverse.max() + 1, dtype=np.intp)
        rep[inverse] = np.arange(inverse.size)
        alpha_hat, dirichlet = alpha_hat[rep], dirichlet[rep]
    try:
        lg_alpha = lgamma(prior.alpha)
        lg_alpha_sum = lgamma(c * prior.alpha)
        values = np.concatenate((alpha_hat[:, None], dirichlet), axis=1)
        values = values.ravel().tolist()
        lg = np.fromiter(map(lgamma, values), dtype=float, count=len(values))
    except OverflowError:
        raise ScoreError(
            f"prior alpha={prior.alpha!r}, beta={prior.beta!r} is too large: "
            "the log Gamma of a Dirichlet weight exceeds the largest float"
        ) from None
    if inverse is not None:
        lg = lg.reshape(-1, c + 1)[inverse].ravel()
    # each row is alpha_hat's term, then one per Dirichlet weight
    terms = lg - lg_alpha
    terms[:: c + 1] = lg_alpha_sum - lg[:: c + 1]
    scores, start = [], 0
    for table in tables:
        stop = start + (c + 1) * table.context.n_configs
        total = float(np.cumsum(terms[start:stop])[-1])
        scores.append(FamilyScore(
            table.context.child, table.context.parents, total, exact=table.is_complete
        ))
        start = stop
    return scores


class FamilyScorer:
    """Scores (child, parent set) families over one dataset, with a memo
    cache keyed by the sorted parent set so identical queries are free.
    Each family's CPT point estimate is memoised with its score.

    Every family, of ``score``, ``estimate``, ``model_score`` or ``scores``,
    goes from its key to the cache through ``_add``: it is counted by
    ``tally`` from the joint ``counts.joints`` hands it, then estimated and
    scored by one ``bc_estimate`` and one ``log_g_bc`` call per child
    cardinality over the stack of new tables.  A family gets the same bits
    in any stack, and the same counts from any joint that covers it.

    Between calls the scorer keeps the joints counted or reused by the last
    ``_add`` call that used any, in order of first use, as long as their
    bytes stay within the dataset's codes' or one full pack's, whichever is
    more; the next call takes its covered families' counts from them.  A
    search whose joint fits one pack thus makes one pass over the cases,
    and a wider one keeps no more bytes of counts than its codes take."""

    def __init__(
        self,
        dataset: Dataset,
        alpha: float = 1.0,
        beta: float = 1.0,
        phi_policy: str = "mar",
    ):
        if phi_policy not in PHI_POLICIES:
            names = " or ".join(map(repr, PHI_POLICIES))
            raise ScoreError(f"score with phi {names}, not {phi_policy!r}")
        self.dataset = dataset
        self.prior = PriorSpec(alpha, beta)
        self.phi_policy = phi_policy
        self._kept: list = []  # the joints the class docstring describes
        self._cache: dict[
            tuple[int, tuple[int, ...]], tuple[FamilyScore, np.ndarray]
        ] = {}

    def _add(self, keys) -> None:
        """Tally each uncached ``(child, sorted parents)`` key from its
        ``counts.joints`` joint, given the kept joints, estimate and score
        the new tables as one stack per child cardinality, in order of first
        appearance, and cache each family's score and CPT point estimate.
        The joints this call counted or reused then replace the kept ones,
        in order of first use, each that fits the room left; a call that used
        none leaves them."""
        new = [key for key in keys if key not in self._cache]
        if not new:  # a cache hit builds no index of the kept joints
            return
        stacks: dict[int, list] = {}
        kept = {}  # id -> joint; holding the joint keeps its id unique
        # the codes' bytes, or a full pack's int64 slots
        room = max(self.dataset.codes.nbytes, 8 * GROUP_PATTERNS)
        for key, joint in zip(new, joints(self.dataset, new, self._kept)):
            ctx = ParentContext.of(self.dataset.variables, *key)
            stacks.setdefault(ctx.child_cardinality, []).append(
                tally(self.dataset, ctx, joint)
            )
            if joint and id(joint) not in kept and joint[0].nbytes <= room:
                kept[id(joint)] = joint
                room -= joint[0].nbytes
        self._kept = list(kept.values()) or self._kept
        for tables in stacks.values():
            est = bc_estimate(tables, self.prior, self.phi_policy)
            splits = np.cumsum([t.context.n_configs for t in tables[:-1]])
            for score, p_hat in zip(
                log_g_bc(tables, self.prior, est), np.split(est.p_hat, splits)
            ):
                self._cache[score.child, score.parents] = score, p_hat

    def _family(self, child: int, parents) -> tuple[FamilyScore, np.ndarray]:
        key = (child, tuple(sorted(parents)))
        self._add([key])
        return self._cache[key]

    def score(self, child: int, parents) -> FamilyScore:
        return self._family(child, parents)[0]

    def scores(self, rounds) -> list[list[FamilyScore]]:
        """The scores of one greedy search level's ``(child, parents,
        candidates)`` rounds, of distinct children: for each round, the
        score of ``child`` given ``parents``, then given ``parents`` plus
        each candidate, in candidate order.  The candidates are distinct
        and not in ``parents``.  The level's families go to ``_add`` as one
        list, so every new one is checked before any is counted."""
        families = [
            [(child, tuple(sorted(parents)))]
            + [(child, tuple(sorted((*parents, c)))) for c in candidates]
            for child, parents, candidates in rounds
        ]
        self._add([key for keys in families for key in keys])
        return [[self._cache[key][0] for key in keys] for keys in families]

    def estimate(self, child: int, parents) -> np.ndarray:
        """The family's (q, c) CPT point estimate, ``bc_estimate().p_hat``."""
        return self._family(child, parents)[1]

    def model_score(self, parent_sets) -> ModelScore:
        """The score of the model whose variable ``i`` has ``parent_sets[i]``."""
        return ModelScore(tuple(
            self.score(child, parents) for child, parents in enumerate(parent_sets)
        ))


def log_marginal(
    model, dataset: Dataset, alpha: float = 1.0, beta: float = 1.0, phi: str = "mar"
) -> ModelScore:
    """Sum of family scores for a model; families with fully observed
    columns get the exact closed form automatically."""
    scorer = FamilyScorer(dataset, alpha=alpha, beta=beta, phi_policy=phi)
    return scorer.model_score(model.parent_sets)
