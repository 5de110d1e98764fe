"""The benchmark's workloads: inputs, discovery parameters and seeds.

Every input comes from :mod:`repro.datasets` at the workload's fixed data
seed and is written to CSV; the program under test sees only that CSV
(batch) or rows read back from it (service).  ``layers.json`` records why
each workload exists and what each per-layer metric should move on it.

The run seed (``--seed``) orders the rows: seed 0 keeps the generator's
order, any other seed applies a seeded shuffle.  Row order is an input
property the program depends on -- the phi=0 DCF tree places values by
insertion order -- while the work a run does stays the same size, so runs
at different seeds are comparable.  Different data seeds are not: on DB2
the number of mined dependencies, and with it the cover's cost, changes by
a third from one data seed to the next.
"""

from __future__ import annotations

import csv
import random
from pathlib import Path

#: Discovery parameters of the approximate workload.
APPROX = {"phi_t": 0.1, "phi_v": 0.1, "fd_mode": "topk", "fd_k": 10}

#: Data seed of every generated relation: the ``repro dataset`` default,
#: which the ROADMAP baseline used.
DATA_SEED = 7

#: name -> kind, data set, row count, StructureDiscovery kwargs.
WORKLOADS = {
    "db2": {"kind": "batch", "dataset": "db2", "rows": 90, "params": {}},
    "dblp-2200": {"kind": "batch", "dataset": "dblp", "rows": 2200,
                  "params": {}},
    "dblp-2200-approx": {"kind": "batch", "dataset": "dblp", "rows": 2200,
                         "params": APPROX},
    "serve": {"kind": "serve", "dataset": "dblp", "rows": None,
              "params": {}},
}

#: Service workload shape: rows the relation is seeded with, held-out rows
#: the reader assigns, and the writer's chunk size and period.
SERVE_SEED_ROWS = 2000
SERVE_HELD_OUT = 200
SERVE_CHUNK_ROWS = 10
SERVE_CHUNK_PERIOD_S = 0.2
SERVE_REMINE_AFTER = 500
SERVE_MAX_INFLIGHT = 2
#: Reader mix: share of ``GET /fds``; the rest is ``POST /assign``.
SERVE_FDS_SHARE = 0.6
#: Longest run the generated stream covers.
MAX_SECONDS = 60


def serve_rows_needed() -> int:
    stream = int(MAX_SECONDS / SERVE_CHUNK_PERIOD_S + 1) * SERVE_CHUNK_ROWS
    return SERVE_SEED_ROWS + SERVE_HELD_OUT + stream


def write_input(name: str, seed: int, path: Path) -> None:
    """Generate the workload's relation, order its rows by ``seed`` and
    write it as CSV."""
    from repro.datasets import db2_sample, dblp
    from repro.relation import Relation
    from repro.relation.io import write_csv

    spec = WORKLOADS[name]
    if spec["dataset"] == "db2":
        relation = db2_sample(seed=DATA_SEED).relation
    else:
        rows = spec["rows"] if spec["rows"] is not None else serve_rows_needed()
        relation = dblp(n_tuples=rows, seed=DATA_SEED)
    rows = list(relation.rows)
    if seed:
        random.Random(seed).shuffle(rows)
    write_csv(Relation(relation.schema, rows), path)


def read_rows(path: Path) -> tuple[list, list]:
    """Header and rows of a CSV as a client would send them (empty -> null)."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = [[cell if cell != "" else None for cell in row]
                for row in reader]
    return header, rows
