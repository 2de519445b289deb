#!/usr/bin/env python3
"""Check that another source tree writes the same bytes as the working tree.

    python3 scripts/compare_trees.py REV [--matrix full|tiny]

REV is a git revision of this repository, extracted with ``git archive`` into
a temporary directory, or the path of a directory that holds a source tree.
The same artifact matrix runs once per tree, each in a child process whose
``PYTHONPATH`` is that tree's ``src/``, through the in-process CLI
(``bclearn.cli.main``).  The script prints every path whose sha256 differs
between the two trees, or that only one tree wrote, and exits 1 if there is
any; it exits 0 when every artifact is equal.  Its last line gives the
number of artifacts and the wall time.

The full matrix:

- ``simulate`` of each of M1-M4 at each n in ``cases`` with each deleted
  fraction in ``deleted``; on each such file, for each alpha and phi,
  ``learn`` (JSON and DOT, also with ``--max-parents 1``), ``score`` of the
  learned model and ``estimate`` of the last column given the two before
  it, and for each alpha an ``estimate`` under a user phi file;
- ``bench`` of each network, as JSON and as CSV;
- a family of 8 ternary parents (q = 6561), scored and estimated, on cases
  of a noisy chain at each n in ``dense_cases`` and each deleted fraction
  in ``dense_deleted``;
- one instance of each perfbench workload's ops, set up by that tree's own
  ``perfbench/workloads.py``.

A call that exits nonzero or writes to standard error leaves a ``.exit``
file with its exit code and its standard error, so a refusal counts as an
artifact too.  Standard output is not compared, as ``learn`` prints its
time.  Only the standard library and numpy are used.  Nothing is written
under ``.git`` or into either tree: every artifact goes to a temporary
directory, and the children write no bytecode.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MATRICES = {
    "full": {
        "specs": ("M1", "M2", "M3", "M4"),
        "cases": (40, 3000),
        "deleted": (0.0, 0.3),
        "alphas": (1.0, 0.1),
        "phis": ("mar", "uniform"),
        "bench_cases": 3000,
        "dense_cases": (2000, 200_000),
        "dense_deleted": (0.0, 0.2, 0.6),
        "workloads": True,
    },
    # a few seconds per tree, for the test suite
    "tiny": {
        "specs": ("M1",),
        "cases": (40,),
        "deleted": (0.3,),
        "alphas": (0.1,),
        "phis": ("mar",),
        "bench_cases": 100,
        "dense_cases": (200,),
        "dense_deleted": (0.2,),
        "workloads": False,
    },
}


def emit(matrix: str, tree: str, out: str) -> None:
    """Write every artifact of ``matrix`` under ``out`` with the package in
    ``tree``/src, which must be the one ``PYTHONPATH`` imports."""
    import numpy as np

    import bclearn
    from bclearn.cli import main

    tree, out = Path(tree).resolve(), Path(out)
    if Path(bclearn.__file__).resolve().parent != tree / "src" / "bclearn":
        sys.exit(f"compare_trees: imported bclearn from {bclearn.__file__}, not {tree}")
    m = MATRICES[matrix]

    def run(name, *argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([str(arg) for arg in argv])
        if code or stderr.getvalue():
            text = f"{code}\n{stderr.getvalue()}"
            (out / f"{name}.exit").write_text(
                text.replace(str(out), "<out>").replace(str(tree), "<tree>")
            )

    for spec, n, deleted in itertools.product(m["specs"], m["cases"], m["deleted"]):
        data = out / f"{spec}-n{n}-d{deleted}.csv"
        run(data.stem, "simulate", "--spec", spec, "--n", n, "--seed", 1,
            "--delete-fraction", deleted, "--out", data)
        header = data.read_text().split("\n", 1)[0].split(",")
        family = ["--child", header[-1], "--parents", ",".join(header[-3:-1])]
        for alpha, phi in itertools.product(m["alphas"], m["phis"]):
            tag = out / f"{data.stem}-a{alpha}-{phi}"
            options = ["--data", data, "--alpha", alpha, "--phi", phi]
            for suffix, cap in (("", []), ("1", ["--max-parents", 1])):
                learned = f"{tag}-learn{suffix}"
                run(Path(learned).name, "learn", *options, *cap,
                    "--out", f"{learned}.json", "--dot", f"{learned}.dot")
            run(tag.name + "-score", "score", *options, "--model", f"{tag}-learn.json",
                "--out", f"{tag}-score.json")
            run(tag.name + "-estimate", "estimate", *options, *family,
                "--out", f"{tag}-estimate.json")
            if phi != m["phis"][0]:
                continue
            # a user phi: row j of a c-state child is (1, ..., c) turned by j, over its sum
            rows = json.loads(Path(f"{tag}-estimate.json").read_text())["configurations"]
            c = len(rows[0]["p_hat"])
            table = {row["config"]: [(1 + (k + j) % c) / (c * (c + 1) / 2) for k in range(c)]
                     for j, row in enumerate(rows)}
            phi_file = out / f"{data.stem}-a{alpha}-phi.json"
            phi_file.write_text(json.dumps(table))
            run(phi_file.stem + "-estimate", "estimate", "--data", data, "--alpha", alpha,
                "--phi", phi_file, *family, "--out", f"{phi_file.with_suffix('')}-estimate.json")

    for spec in m["specs"]:
        for fmt in ("json", "csv"):
            run(f"{spec}-bench-{fmt}", "bench", "--spec", spec, "--n", m["bench_cases"],
                "--seeds", "1,2", "--ladder", "100,60,20", "--format", fmt,
                "--out", out / f"{spec}-bench.{fmt}")

    # X0 given X1..X8, on a chain X0 -> X1 -> ... -> X8 that copies 60 % of cases
    rng = np.random.default_rng(6561)
    model = out / "dense-model.json"
    model.write_text(json.dumps({"arcs": [[f"X{i}", "X0"] for i in range(1, 9)]}))
    for n in m["dense_cases"]:
        codes = rng.integers(0, 3, size=(n, 9))
        for i in range(1, 9):
            keep = rng.random(n) < 0.6
            codes[keep, i] = codes[keep, i - 1]
        for deleted in m["dense_deleted"]:
            cells = np.where(rng.random(codes.shape) < deleted, "?", codes.astype(str))
            data = out / f"dense-n{n}-d{deleted}.csv"
            data.write_text(
                ",".join(f"X{i}" for i in range(9)) + "\n"
                + "".join(",".join(row) + "\n" for row in cells.tolist())
            )
            run(data.stem + "-score", "score", "--data", data, "--model", model,
                "--out", out / f"{data.stem}-score.json")
            run(data.stem + "-estimate", "estimate", "--data", data, "--child", "X0",
                "--parents", ",".join(f"X{i}" for i in range(1, 9)),
                "--out", out / f"{data.stem}-estimate.json")

    if m["workloads"]:
        sys.path.insert(0, str(tree / "perfbench"))
        from workloads import WORKLOADS

        for name, workload in WORKLOADS.items():
            workdir = out / name
            workdir.mkdir()
            instance = workload().setup(1, workdir)
            for kind, op in instance.ops.items():
                run(f"{name}-{kind}", *op.argv)
                if op.sidecar is not None:
                    op.sidecar.unlink()  # timings


def _extract(rev: str, dest: Path) -> Path:
    """The tree of REV, read with ``git archive`` and unpacked under ``dest``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extraction_filter = tarfile.data_filter
        tar.extractall(dest)
    return dest


def _manifest(out: Path) -> dict[str, str]:
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*")) if path.is_file()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="a git revision, or a directory holding a source tree")
    parser.add_argument("--matrix", choices=MATRICES, default="full")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="compare-trees-") as tmp:
        tmp = Path(tmp)
        other = Path(args.rev)
        if not other.is_dir():
            other = _extract(args.rev, tmp / "tree")
        manifests = []
        for tree, out in ((other.resolve(), tmp / "rev"), (ROOT, tmp / "work")):
            out.mkdir()
            env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
            code = (f"import sys; sys.path.append({str(ROOT / 'scripts')!r}); "
                    f"from compare_trees import emit; "
                    f"emit({args.matrix!r}, {str(tree)!r}, {str(out)!r})")
            tree_start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=out, check=True)
            print(f"{tree}: {time.perf_counter() - tree_start:.1f} s")
            manifests.append(_manifest(out))
    theirs, ours = manifests
    differences = 0
    for path in sorted(theirs.keys() | ours.keys()):
        if path not in ours:
            print(f"only in {args.rev}: {path}")
        elif path not in theirs:
            print(f"only in the working tree: {path}")
        elif theirs[path] != ours[path]:
            print(f"differs: {path}")
        else:
            continue
        differences += 1
    elapsed = time.perf_counter() - start
    verdict = f"{differences} differ" if differences else "every one equal"
    print(f"compare_trees: {len(theirs | ours)} artifacts, {verdict} ({elapsed:.1f} s)")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
