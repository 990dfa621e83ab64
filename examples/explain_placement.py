"""Provenance walkthrough: why did the search place each op where it did?

Runs ``repro.optimize`` on LeNet over 2 simulated V100s with the search
**provenance journal** enabled, then interrogates it:

* ``explain_placement(op)`` — the chosen device with every alternative
  the scheduler scored, and (for split ops) the accept/reject
  verdict chain that produced them;
* ``result.calibration`` — the cost models' decision-time predictions
  joined against the realized simulated step: per-family residual
  quantiles, worst offenders, and cost-model drift;
* ``run.provenance.json`` — the persisted journal, queryable offline
  with ``python -m repro.obs explain <dir> --op <name>``.

Provenance is off by default (a shared no-op recorder); enabling it
never changes the computed strategy — only what gets remembered.

    python examples/explain_placement.py [output-dir]
"""

import sys

import repro
from repro.cluster import single_server
from repro.obs import Observability, ensure_dir


def main() -> None:
    out = ensure_dir(sys.argv[1] if len(sys.argv) > 1 else "traces")

    obs = Observability(provenance=True)
    result = repro.optimize("lenet", single_server(2), obs=obs)
    print(result.summary())
    print()

    # 1. Why did one op land on its device?  Pick the op the search
    #    deemed most interesting: a split sub-op if any split committed,
    #    otherwise the first critical-path op of the journal.
    journal = obs.provenance.journal
    search = journal.searches[-1]
    committed = search.committed_splits
    if committed:
        focus = committed[-1].sub_ops[0]
    elif search.candidate_ops:
        focus = search.candidate_ops[0]
    else:
        focus = next(iter(search.decisions))
    print(f"=== explain_placement({focus!r}) ===")
    print(result.explain_placement(focus).render())
    print()

    # 2. How good were the numbers the search planned with?
    print(result.calibration.render())
    print()

    # 3. Persist and query offline (what CI's trace-smoke job does).
    path = obs.export_provenance(f"{out}/run.provenance.json")
    print(f"journal: {path} "
          f"({len(journal.searches)} search(es), "
          f"{len(journal.ops())} op(s))")
    print(f"query:   python -m repro.obs explain {out} --op {focus}")


if __name__ == "__main__":
    main()
