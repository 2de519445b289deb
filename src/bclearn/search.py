"""Order-constrained greedy structure search, model I/O and marginals.

The search requires a total order on the variables: a node's candidate
parents are exactly its predecessors in the order, which makes every
explored graph acyclic by construction.  Parents are added one at a time,
keeping the single candidate that most increases the family score, and a
node stops as soon as no candidate strictly improves it.  Ties between
equal-scoring candidates go to the candidate earliest in the order.

Each node's search depends on no other node's, so every node's rounds run
in lockstep: level r holds round r + 1 of each node still growing, and one
``FamilyScorer.scores`` call scores the whole level, counting its
families by ``counts.joints``' rule.  One ``bc_estimate`` and one
``log_g_bc`` call per child cardinality then estimate and score the
level's new tables as one stack.
A family's score has the same bits in any stack, so the search takes the
same steps as one node after another would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counts import MAX_PATTERNS, ParentContext
from .data import Dataset, Variable
from .score import FamilyScorer, ModelScore, ScoreError


class SearchError(ValueError):
    """Raised for invalid orders, structures or models."""


def ensure_dag(parent_sets) -> list[int]:
    """Topological order of the variables, or ScoreError on a cycle."""
    n = len(parent_sets)
    remaining = {i: set(parent_sets[i]) for i in range(n)}
    order = []
    while remaining:
        roots = sorted(i for i, ps in remaining.items() if not ps)
        if not roots:
            raise ScoreError("model is not a DAG")
        for r in roots:
            del remaining[r]
            order.append(r)
        for ps in remaining.values():
            ps.difference_update(roots)
    return order


@dataclass(frozen=True)
class Model:
    """A DAG over the dataset's variables, with optional CPTs and score.

    ``parent_sets[i]`` lists the parent indices of variable i (sorted);
    ``cpts[i]`` is the (configurations x states) conditional table of
    variable i given its parents, rows in the configuration order of
    ``ParentContext.of(variables, i, parent_sets[i])``.
    """

    variables: tuple[Variable, ...]
    parent_sets: tuple[tuple[int, ...], ...]
    cpts: tuple[np.ndarray, ...] | None = None
    score: ModelScore | None = None

    def __post_init__(self):
        object.__setattr__(
            self,
            "parent_sets",
            tuple(tuple(sorted(ps)) for ps in self.parent_sets),
        )
        n = len(self.variables)
        if len(self.parent_sets) != n:
            raise SearchError("one parent set per variable required")
        for child, ps in enumerate(self.parent_sets):
            if child in ps:
                raise SearchError("a variable cannot be its own parent")
            if any(not 0 <= p < n for p in ps):
                raise SearchError("parent index out of range")
        ensure_dag(self.parent_sets)

    @property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (p, child)
            for child, ps in enumerate(self.parent_sets)
            for p in ps
        )

    def named_arcs(self) -> list[tuple[str, str]]:
        return [
            (self.variables[p].name, self.variables[c].name) for p, c in self.arcs
        ]


@dataclass(frozen=True)
class OrderConstraint:
    """A total order (ancestors first) plus an optional parent-count cap."""

    order: tuple[int, ...]
    max_parents: int | None = None

    def validate(self, n_variables: int) -> None:
        if sorted(self.order) != list(range(n_variables)):
            raise SearchError("order must be a permutation of all variables")
        if self.max_parents is not None and self.max_parents < 0:
            raise SearchError("max_parents must be nonnegative")

    @classmethod
    def from_names(
        cls, dataset: Dataset, names, max_parents: int | None = None
    ) -> "OrderConstraint":
        indices = tuple(dataset.variable_index(name) for name in names)
        constraint = cls(indices, max_parents)
        constraint.validate(dataset.n_variables)
        return constraint


def _finalize(dataset: Dataset, parent_sets, scorer: FamilyScorer) -> Model:
    """Attach CPTs (collapsed estimates) and the model score."""
    return Model(
        variables=dataset.variables,
        parent_sets=tuple(parent_sets),
        score=scorer.model_score(parent_sets),
        cpts=tuple(scorer.estimate(c, ps) for c, ps in enumerate(parent_sets)),
    )


def k2_bc(
    dataset: Dataset,
    order: OrderConstraint,
    alpha: float = 1.0,
    beta: float = 1.0,
    phi: str = "mar",
) -> Model:
    """Greedy parent selection per node, driven by the estimated family
    score, with every node's rounds run in lockstep, one level at a time."""
    order.validate(dataset.n_variables)
    scorer = FamilyScorer(dataset, alpha=alpha, beta=beta, phi_policy=phi)
    parent_sets: list[tuple[int, ...]] = [()] * dataset.n_variables
    cap = math.inf if order.max_parents is None else order.max_parents
    # the first level scores each node's empty family with its first round
    level = [
        (child, (), order.order[:position] if cap else ())
        for position, child in enumerate(order.order)
    ]
    while level:
        grown = []
        for (child, parents, candidates), (current, *trials) in zip(
            level, scorer.scores(level)
        ):
            best_candidate = None
            best_score = -math.inf
            for candidate, trial in zip(candidates, trials):
                if trial.log_g > best_score:
                    best_candidate, best_score = candidate, trial.log_g
            if best_candidate is None or not best_score > current.log_g:
                continue
            parents = (*parents, best_candidate)
            parent_sets[child] = tuple(sorted(parents))
            candidates = tuple(c for c in candidates if c != best_candidate)
            if candidates and len(parents) < cap:
                grown.append((child, parents, candidates))
        level = grown
    return _finalize(dataset, parent_sets, scorer)


def model_from_arcs(variables, arcs) -> Model:
    """Structure-only model from (parent name, child name) pairs."""
    variables = tuple(variables)
    index = {v.name: i for i, v in enumerate(variables)}
    parent_sets = [set() for _ in variables]
    for parent, child in arcs:
        if parent not in index or child not in index:
            raise SearchError(f"arc ({parent!r}, {child!r}) names unknown variable")
        parent_sets[index[child]].add(index[parent])
    return Model(variables, tuple(tuple(sorted(ps)) for ps in parent_sets))


def score_to_json(variables, score: ModelScore) -> dict:
    """JSON form of a model score: the total and one entry per family."""
    return {
        "total_log_marginal": score.total,
        "families": [
            {
                "child": variables[f.child].name,
                "parents": [variables[p].name for p in f.parents],
                "log_g": f.log_g,
                "exact": f.exact,
            }
            for f in score.families
        ],
    }


def model_to_json(model: Model) -> dict:
    """JSON form: variables, arcs, CPT rows keyed by parent-state labels,
    and the score breakdown when present."""
    data: dict = {
        "variables": [
            {"name": v.name, "states": list(v.states)} for v in model.variables
        ],
        "arcs": [[p, c] for p, c in model.named_arcs()],
    }
    if model.cpts is not None:
        cpts = {}
        for child, cpt in enumerate(model.cpts):
            ctx = ParentContext.of(model.variables, child, model.parent_sets[child])
            cpts[model.variables[child].name] = {
                ctx.config_label(j, model.variables): [float(x) for x in row]
                for j, row in enumerate(cpt)
            }
        data["cpts"] = cpts
    if model.score is not None:
        data["score"] = score_to_json(model.variables, model.score)
    return data


def model_from_json(data: dict, variables=None) -> Model:
    """Rebuild a structure from its JSON form.  When ``variables`` is given
    (typically from the dataset being scored) the file's arcs are mapped
    onto them; otherwise the file must carry its own variable list."""
    if not isinstance(data, dict):
        raise SearchError(f"model JSON must be an object, not {type(data).__name__}")
    if variables is None:
        try:
            entries = [(v["name"], v["states"]) for v in data["variables"]]
        except (KeyError, TypeError) as exc:
            raise SearchError(f"model JSON lacks a variable list: {exc}") from exc
        for name, states in entries:
            if not isinstance(states, list) or not all(
                isinstance(s, str) for s in states
            ):
                raise SearchError(
                    f"states of variable {name!r} must be a list of strings, "
                    f"not {states!r}"
                )
        variables = tuple(Variable(name, tuple(states)) for name, states in entries)
    arcs = data.get("arcs", [])
    if not isinstance(arcs, list):
        raise SearchError(f"model arcs must be a list, not {type(arcs).__name__}")
    for arc in arcs:
        if not isinstance(arc, (list, tuple)) or len(arc) != 2:
            raise SearchError(f"arc {arc!r} is not a [parent, child] pair")
    return model_from_arcs(variables, [(str(p), str(c)) for p, c in arcs])


def model_to_dot(model: Model) -> str:
    lines = ["digraph model {"]
    for v in model.variables:
        lines.append(f'  "{v.name}";')
    for parent, child in model.named_arcs():
        lines.append(f'  "{parent}" -> "{child}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# numpy's einsum takes 52 labels (a-z, A-Z) per call; marginals uses one per ancestor.
MAX_MARGINAL_VARIABLES = 52


def _ancestors(parent_sets, i: int) -> list[int]:
    """``i`` and every variable with a directed path to it, in index order."""
    seen, stack = {i}, [i]
    while stack:
        for p in parent_sets[stack.pop()]:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return sorted(seen)


def marginals(model: Model) -> dict[str, np.ndarray]:
    """Per-variable marginal distributions implied by the model's CPTs.

    Each marginal is one ``np.einsum`` over the CPTs of the variable and its
    ancestors by variable elimination, never the joint table: every other
    CPT sums to one.  A CPT's rows are in configuration order with the last
    parent varying fastest, so it reshapes to a tensor over its parents'
    states followed by the child's.  numpy's einsum takes 52 labels per
    call, so each call labels only the variable's ancestors.  Its greedy
    path may grow intermediates to ``MAX_PATTERNS``, the bound every count
    table keeps; numpy's default caps them at the largest CPT, which is
    near-naive on a dense graph.  When no pairwise step fits, the path
    falls back to one contraction over every remaining label, so each
    step's index space is checked against the same bound before any
    contraction runs.
    """
    if model.cpts is None:
        raise SearchError("model has no CPTs")
    ancestry = [_ancestors(model.parent_sets, i) for i in range(len(model.cpts))]
    for variable, ancestors in zip(model.variables, ancestry):
        if len(ancestors) > MAX_MARGINAL_VARIABLES:
            raise SearchError(
                f"marginals are limited to {MAX_MARGINAL_VARIABLES} ancestors "
                f"per variable, itself included; {variable.name} has {len(ancestors)}"
            )
    cards = [v.cardinality for v in model.variables]
    margs = {}
    for i, ancestors in enumerate(ancestry):
        label = {a: k for k, a in enumerate(ancestors)}
        operands = []
        for a in ancestors:
            family = (*model.parent_sets[a], a)
            operands.append(model.cpts[a].reshape([cards[x] for x in family]))
            operands.append([label[x] for x in family])
        path, _ = np.einsum_path(
            *operands, [label[i]], optimize=("greedy", MAX_PATTERNS)
        )
        _refuse_wide_steps(model, ancestors, path, i)
        # copy: with a single CPT, einsum returns a view of it
        margs[model.variables[i].name] = np.einsum(
            *operands, [label[i]], optimize=path
        ).copy()
    return margs


def _refuse_wide_steps(model: Model, ancestors, path, i: int) -> None:
    """Raise SearchError if a step of ``path``, ``np.einsum_path``'s over
    the CPTs of ``ancestors`` (in that order) towards variable ``i``'s
    marginal, spans more than ``MAX_PATTERNS`` index combinations."""
    terms = [{*model.parent_sets[a], a} for a in ancestors]
    for step in path[1:]:
        joined = set().union(*(terms[k] for k in step))
        space = math.prod(model.variables[x].cardinality for x in joined)
        if space > MAX_PATTERNS:
            raise SearchError(
                f"the marginal of {model.variables[i].name} needs a contraction "
                f"over {space} state combinations, more than {MAX_PATTERNS}"
            )
        terms = [t for k, t in enumerate(terms) if k not in step]
        terms.append(joined & set().union({i}, *terms))
