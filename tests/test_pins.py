"""The frozen constants must match a fresh run of scripts/compute_pins.py,
which recomputes them longhand in exact rational arithmetic."""

import ast
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bclearn import (
    ParentContext,
    PriorSpec,
    bc_estimate,
    exact_marginal,
    log_g_bc,
    model_from_arcs,
    tally,
)

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compute_pins.py"


@pytest.fixture(scope="module")
def pins():
    """{label: value} from the script's ``label: value`` lines."""
    out = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True,
        check=True, timeout=120,
    ).stdout
    return dict(line.rsplit(": ", 1) for line in out.splitlines())


def test_worked_family_score_and_precision_are_bit_identical(pins, worked_db):
    ctx = ParentContext.of(worked_db.variables, 2, (0, 1))
    table = tally(worked_db, ctx)
    prior = PriorSpec()
    log_g = float(pins["worked-example family log score (X3 | X1,X2), MAR phi"])
    alpha_hat = ast.literal_eval(pins["alpha_hat per configuration"])
    assert log_g_bc([table], prior, bc_estimate([table], prior))[0].log_g == log_g
    assert bc_estimate([table], prior).alpha_hat.tolist() == alpha_hat


def test_collider_mixture_matches_exact_rational(pins, worked_db):
    exact = Fraction(pins["collider mixture marginal (exact rational)"])
    assert exact == Fraction(23, 2073600)
    model = model_from_arcs(worked_db.variables, [("X1", "X3"), ("X2", "X3")])
    assert exact_marginal(worked_db, model) == float(exact)
