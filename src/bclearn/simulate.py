"""Forward sampling from a parameterized network and random entry deletion.

Sampling draws cases ancestrally (each node after its parents) with a
numpy PCG64 generator, so a (spec, seed) pair reproduces byte-identical
datasets.  Deletion derives a single random permutation of all entry
positions (row-major) from the plan's seed and masks a prefix of it: the
same seed with a larger fraction deletes a superset of entries, which is
exactly the cumulative ladder used by the benchmark protocol.
``delete_ladder`` makes every rung of such a ladder from one draw of the
permutation, each rung masking its own prefix; ``delete_entries`` is its
one-rung case.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .counts import ParentContext
from .data import MISSING, Dataset
from .search import Model, ensure_dag, model_from_json, model_to_json

RNG_ALGORITHM = "numpy PCG64 (default_rng)"

CPT_ROW_TOLERANCE = 1e-9

BUILTIN_NAMES = ("M1", "M2", "M3", "M4")


class SimulateError(ValueError):
    """Raised for malformed generative specs or deletion plans."""


@dataclass(frozen=True)
class GenerativeSpec:
    """A fully parameterized model plus sample size and seed."""

    model: Model
    n: int
    seed: int | None = None
    name: str | None = None

    def __post_init__(self):
        if self.model.cpts is None:
            raise SimulateError("generative spec needs CPTs for every variable")
        if self.n < 0:
            raise SimulateError("sample size must be nonnegative")
        for child, cpt in enumerate(self.model.cpts):
            rows = np.asarray(cpt, dtype=float)
            if not np.isfinite(rows).all():
                raise SimulateError(f"non-finite CPT entry for variable {child}")
            if (rows < 0).any():
                raise SimulateError(f"negative CPT entry for variable {child}")
            if np.abs(rows.sum(axis=1) - 1.0).max() > CPT_ROW_TOLERANCE:
                raise SimulateError(
                    f"CPT rows of variable {child} must sum to 1 within 1e-9"
                )

    def with_overrides(self, n: int | None = None, seed: int | None = None):
        return GenerativeSpec(
            model=self.model,
            n=self.n if n is None else n,
            seed=self.seed if seed is None else seed,
            name=self.name,
        )


@dataclass(frozen=True)
class DeletionPlan:
    """Delete a fraction of all entries, uniformly without replacement.

    Entries are drawn across the whole case-by-variable matrix (the one
    deletion scheme), so missingness is completely at random."""

    fraction: float
    seed: int | None = None

    def __post_init__(self):
        _check_fraction(self.fraction)


def _check_fraction(fraction) -> None:
    if not 0.0 <= fraction <= 1.0:
        raise SimulateError("deletion fraction must lie in [0, 1]")


def sample(spec: GenerativeSpec) -> Dataset:
    """Draw n independent cases from the network."""
    model = spec.model
    n = spec.n
    cards = tuple(v.cardinality for v in model.variables)
    rng = np.random.default_rng(spec.seed)
    codes = np.zeros((n, len(model.variables)), dtype=np.int16)
    for node in ensure_dag(model.parent_sets):
        parents = model.parent_sets[node]
        rows = np.zeros(n, dtype=np.int64)
        for parent in parents:
            rows = rows * cards[parent] + codes[:, parent]
        cumulative = np.cumsum(np.asarray(model.cpts[node], dtype=float), axis=1)
        draws = rng.random(n)
        # A case's state is the number of cumulative entries its draw reaches,
        # counted one state column at a time.
        states = np.zeros(n, dtype=np.int64)
        for column in cumulative.T:
            states += draws >= column[rows]
        codes[:, node] = np.minimum(states, cards[node] - 1)
    return Dataset(model.variables, codes)


def delete_entries(dataset: Dataset, plan: DeletionPlan) -> Dataset:
    """Return a copy with round(fraction * entries) positions masked, or
    ``dataset`` itself if that is none."""
    return delete_ladder(dataset, [plan.fraction], plan.seed)[0]


def delete_ladder(dataset: Dataset, fractions, seed=None) -> list[Dataset]:
    """``delete_entries`` of ``dataset`` at each fraction with one seed: the
    rungs mask nested prefixes of one permutation of the entry positions,
    drawn once, by the first rung that deletes anything."""
    for fraction in fractions:
        _check_fraction(fraction)
    total = dataset.codes.size
    positions = None
    rungs = []
    for fraction in fractions:
        n_delete = int(round(fraction * total))
        if not n_delete:
            rungs.append(dataset)  # immutable, so a rung may share it
            continue
        if positions is None:
            positions = np.random.default_rng(seed).permutation(total)
        codes = dataset.codes.copy()
        codes.reshape(-1)[positions[:n_delete]] = MISSING
        rungs.append(Dataset(dataset.variables, codes))
    return rungs


def spec_from_dict(data: dict) -> GenerativeSpec:
    """Build a generative spec from its JSON form: a model JSON with a CPT
    for every variable, each row keyed by its configuration label, plus
    ``n`` and an optional ``seed`` (a non-negative integer) and ``name``
    (a string)."""
    try:
        skeleton = model_from_json(data)
        if "arcs" not in data:  # a model JSON may omit them, a spec may not
            raise KeyError("arcs")
        cpt_rows = data["cpts"]
        n = data["n"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SimulateError(f"malformed generative spec: {exc}") from exc
    if isinstance(n, bool) or not isinstance(n, int):
        raise SimulateError(f"spec n must be an integer, not {n!r}")
    seed, name = data.get("seed"), data.get("name")
    if seed is not None and (
        isinstance(seed, bool) or not isinstance(seed, int) or seed < 0
    ):
        raise SimulateError(
            f"spec seed must be null or a non-negative integer, not {seed!r}"
        )
    if name is not None and not isinstance(name, str):
        raise SimulateError(f"spec name must be null or a string, not {name!r}")
    if not isinstance(cpt_rows, dict):
        raise SimulateError(
            f"spec cpts must be an object {{variable: rows}}, "
            f"not {type(cpt_rows).__name__}"
        )
    variables = skeleton.variables
    cpts = []
    for child, variable in enumerate(variables):
        if variable.name not in cpt_rows:
            raise SimulateError(f"spec has no CPT for variable {variable.name!r}")
        ctx = ParentContext.of(variables, child, skeleton.parent_sets[child])
        try:
            cpts.append(ctx.table_from_rows(cpt_rows[variable.name], variables))
        except ValueError as exc:
            raise SimulateError(f"CPT of {variable.name!r}: {exc}") from exc
    unknown = set(cpt_rows) - {v.name for v in variables}
    if unknown:
        raise SimulateError(f"spec has CPTs for unknown variables {sorted(unknown)}")
    model = Model(variables, skeleton.parent_sets, cpts=tuple(cpts))
    return GenerativeSpec(model=model, n=n, seed=seed, name=name)


def spec_to_dict(spec: GenerativeSpec) -> dict:
    """JSON form read by ``spec_from_dict``: the model JSON, name, n, seed."""
    return {"name": spec.name, **model_to_json(spec.model),
            "n": spec.n, "seed": spec.seed}


def load_spec(source) -> GenerativeSpec:
    """The builtin network named ``source`` (M1..M4), else the spec file at
    that path."""
    if source in BUILTIN_NAMES:
        return builtin_spec(source)
    with open(source, encoding="utf-8") as fh:
        return spec_from_dict(json.load(fh))


def builtin_spec(name: str, n: int | None = None, seed: int | None = None):
    """One of the shipped generating networks M1..M4."""
    if name not in BUILTIN_NAMES:
        raise SimulateError(
            f"unknown builtin spec {name!r}; choose from {', '.join(BUILTIN_NAMES)}"
        )
    text = (
        resources.files("bclearn")
        .joinpath(f"builtin/{name.lower()}.json")
        .read_text(encoding="utf-8")
    )
    return spec_from_dict(json.loads(text)).with_overrides(n=n, seed=seed)
