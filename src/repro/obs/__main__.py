"""``python -m repro.obs``: one command line over recorded runs.

    python -m repro.obs [--runs-dir DIR] COMMAND ...

    list [--fingerprint HASH]          table of recorded runs
    show TARGET... [--json]            manifests, step-trace analyses,
                                       journal summaries
    diff A B [--json]                  manifest header (two runs), then
                                       the makespan delta, attributed
    explain TARGET... [--op NAME] [--json]
                                       journaled ops, or one op's chain
    validate TARGET...                 check Chrome traces and journals
    gc [--keep N] [--older-than-days D] [--dry-run]

A TARGET on disk is a file, or a directory walked recursively, holding
artifacts of kind ``step``, ``provenance`` or ``trace``: ``K.json`` in
a run directory, ``<stem>.K.json`` in a ``--trace-dir``.  Any other
TARGET is a run id or unique prefix in the registry (default
``$REPRO_RUNS_DIR`` or ``~/.repro/runs``), with the artifacts its
manifest links.  ``--json`` prints the document to stdout.  Exit status
is 0 on success and 2 on any failure: nothing found, a failed
``validate``, or bad input (one ``error:`` line on stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..profiling.trace import StepTrace, TraceSchemaError
from .analyze import analyze_step, diff_traces
from .chrome_trace import TraceValidationError, validate_trace
from .events import EventSchemaError
from .provenance import ProvenanceError, ProvenanceJournal, ProvenanceSchemaError
from .runs import (
    ManifestSchemaError,
    RunManifest,
    RunNotFoundError,
    RunRegistry,
    render_manifest,
)

ARTIFACT_KINDS = ("step", "provenance", "trace")


class CliError(Exception):
    """A command found nothing to answer with."""


#: Failures reported as one ``error:`` line and exit status 2.
_ERRORS = (CliError, OSError, RunNotFoundError, ManifestSchemaError,
           EventSchemaError, TraceSchemaError, ProvenanceSchemaError,
           TraceValidationError)


class Target(NamedTuple):
    """One resolved TARGET: a run's manifest and/or artifact files."""

    label: str
    manifest: Optional[RunManifest]
    artifacts: List[Tuple[str, str]]  # (kind, path)

    def paths(self, kind: str) -> List[str]:
        return [path for k, path in self.artifacts if k == kind]


def artifact_kind(path: str) -> Optional[str]:
    """``K`` for a file named ``K.json`` or ``<stem>.K.json``, else None."""
    name = os.path.basename(path)
    for kind in ARTIFACT_KINDS:
        if name == f"{kind}.json" or name.endswith(f".{kind}.json"):
            return kind
    return None


def resolve(target: str, registry: RunRegistry) -> Target:
    """A path on disk, walked for artifacts; else a run id or prefix."""
    if os.path.exists(target):
        paths = [target] if not os.path.isdir(target) else sorted(
            os.path.join(root, name)
            for root, _dirs, names in os.walk(target) for name in names
        )
        found = [(artifact_kind(path), path) for path in paths]
        return Target(target, None, [(k, p) for k, p in found if k])
    manifest = registry.load(target)
    run_dir = registry.run_dir(manifest.run_id)
    linked = [(k, manifest.artifact_path(run_dir, k)) for k in ARTIFACT_KINDS]
    return Target(manifest.run_id, manifest,
                  [(k, p) for k, p in linked if p and os.path.isfile(p)])


def _nothing(what: str, targets: Sequence[str]) -> CliError:
    return CliError(f"no {what} in {', '.join(targets)}")


def _list(args: argparse.Namespace, registry: RunRegistry) -> int:
    manifests = registry.list_runs()
    if args.fingerprint:
        # Any axis matches: a graph hash finds every run over one model,
        # the combined hash finds exact repeats of one problem.
        manifests = [m for m in manifests if any(
            v and v.startswith(args.fingerprint)
            for v in m.fingerprints.values()
        )]
    if not manifests:
        which = (f" matching fingerprint {args.fingerprint!r}"
                 if args.fingerprint else "")
        print(f"no runs{which} under {registry.root}")
        return 0
    print(f"{'RUN':<24} {'CREATED':<20} {'MODEL':<14} "
          f"{'DEV':>3} {'STATUS':<10} {'MAKESPAN':>12} {'IDENTITY':<12}")
    for m in manifests:
        makespan = "-" if m.makespan is None else f"{m.makespan * 1e3:.3f}ms"
        identity = (m.fingerprints.get("combined") or "-")[:12]
        print(f"{m.run_id:<24} {m.created_at:<20} {m.model[:14]:<14} "
              f"{m.devices:>3} {m.status:<10} {makespan:>12} {identity:<12}")
    return 0


def _show(args: argparse.Namespace, registry: RunRegistry) -> int:
    documents: Dict[str, object] = {}
    texts: List[str] = []
    for name in args.targets:
        target = resolve(name, registry)
        if target.manifest is not None:
            documents[target.label] = target.manifest.to_json()
            texts.append(render_manifest(registry, target.manifest))
            continue
        for kind, path in target.artifacts:
            if kind == "step":
                label = os.path.basename(path).rsplit(".step.json", 1)[0]
                analysis = analyze_step(StepTrace.load(path), label=label)
                documents[path] = analysis.to_json()
                texts.append(analysis.render())
            elif kind == "provenance":
                journal = ProvenanceJournal.load(path)
                documents[path] = journal.to_json()
                texts.append(journal.summary(path))
    if not documents:
        raise _nothing("run, step trace or provenance journal", args.targets)
    print(json.dumps(documents, indent=1, default=repr) if args.json
          else "\n\n".join(texts))
    return 0


def _diff(args: argparse.Namespace, registry: RunRegistry) -> int:
    a, b = resolve(args.a, registry), resolve(args.b, registry)
    document: Dict[str, object] = {}
    lines: List[str] = []
    if a.manifest is not None and b.manifest is not None:
        ma, mb = a.manifest, b.manifest
        document.update(run_a=ma.to_json(), run_b=mb.to_json())
        lines += [f"A: {ma.run_id}  {ma.model}  {ma.strategy_label}",
                  f"B: {mb.run_id}  {mb.model}  {mb.strategy_label}"]
        if ma.makespan is not None and mb.makespan is not None:
            delta = mb.makespan - ma.makespan
            lines.append(f"manifest makespan: {ma.makespan * 1e3:.3f}ms -> "
                         f"{mb.makespan * 1e3:.3f}ms ({delta * 1e3:+.3f}ms)")
        fp_a = ma.fingerprints.get("combined")
        fp_b = mb.fingerprints.get("combined")
        if fp_a and fp_b:
            lines.append("config: "
                         + ("identical" if fp_a == fp_b else "DIFFERENT"))
    steps_a, steps_b = a.paths("step"), b.paths("step")
    if len(steps_a) == 1 and len(steps_b) == 1:
        diff = diff_traces(
            StepTrace.load(steps_a[0]), StepTrace.load(steps_b[0]),
            label_a=a.label, label_b=b.label,
        )
        document.update(diff.to_json())
        lines += ["", diff.render()] if lines else [diff.render()]
    elif document:
        lines.append("(no step traces recorded on both sides; "
                     "manifest diff only)")
    else:
        raise CliError(
            f"diff needs two runs or one step trace per side; "
            f"{a.label} has {len(steps_a)}, {b.label} has {len(steps_b)}"
        )
    print(json.dumps(document, indent=1, default=repr) if args.json
          else "\n".join(lines))
    return 0


def _explain(args: argparse.Namespace, registry: RunRegistry) -> int:
    journals = [
        (path, ProvenanceJournal.load(path))
        for name in args.targets
        for path in resolve(name, registry).paths("provenance")
    ]
    if not journals:
        raise _nothing("provenance journal", args.targets)
    if args.op is None:
        names = sorted({name for _, j in journals for name in j.ops()})
        print(json.dumps(names) if args.json else "\n".join(names))
        return 0
    for path, journal in journals:
        try:
            explanation = journal.explain(args.op)
        except ProvenanceError:
            continue
        print(json.dumps(explanation.to_json(), indent=1) if args.json
              else f"[{path}]\n{explanation.render()}")
        return 0
    raise CliError(f"op {args.op!r} not found in any journal")


def _validate(args: argparse.Namespace, registry: RunRegistry) -> int:
    valid = invalid = 0
    for name in args.targets:
        for kind, path in resolve(name, registry).artifacts:
            try:
                if kind == "trace":
                    counts = validate_trace(path)
                    detail = (f"{counts['events']} events, "
                              f"{counts['spans']} spans, "
                              f"{counts['instants']} instants, "
                              f"{counts['counters']} counter samples")
                elif kind == "provenance":
                    journal = ProvenanceJournal.load(path)
                    detail = f"{len(journal.searches)} search(es)"
                else:
                    continue
            except (TraceValidationError, ProvenanceSchemaError) as exc:
                invalid += 1
                message = str(exc)  # a JSON error already names the file
                if not message.startswith(path):
                    message = f"{path}: {message}"
                print(f"INVALID  {message}")
                continue
            valid += 1
            print(f"ok       {path}: {detail}")
    if not valid + invalid:
        raise _nothing("Chrome trace or provenance journal", args.targets)
    print(f"{valid} valid, {invalid} invalid")
    return 2 if invalid else 0


def _gc(args: argparse.Namespace, registry: RunRegistry) -> int:
    if args.keep is None and args.older_than_days is None:
        raise CliError("gc needs --keep N and/or --older-than-days D")
    removed = registry.gc(keep=args.keep, dry_run=args.dry_run,
                          older_than_days=args.older_than_days)
    verb = "would remove" if args.dry_run else "removed"
    print(f"{verb} {len(removed)} run(s)")
    for run_id in removed:
        print(f"  {run_id}")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--runs-dir", help="run registry root")
    commands = parser.add_subparsers(dest="command", required=True)
    cmd = commands.add_parser("list")
    cmd.add_argument("--fingerprint", metavar="HASH")
    cmd.set_defaults(run=_list)
    for name, run in (("show", _show), ("explain", _explain),
                      ("validate", _validate)):
        cmd = commands.add_parser(name)
        cmd.add_argument("targets", nargs="+", metavar="TARGET")
        cmd.set_defaults(run=run)
        if run is not _validate:
            cmd.add_argument("--json", action="store_true")
        if run is _explain:
            cmd.add_argument("--op", metavar="NAME")
    cmd = commands.add_parser("diff")
    cmd.add_argument("a", metavar="A")
    cmd.add_argument("b", metavar="B")
    cmd.add_argument("--json", action="store_true")
    cmd.set_defaults(run=_diff)
    cmd = commands.add_parser("gc")
    cmd.add_argument("--keep", type=int, metavar="N")
    cmd.add_argument("--older-than-days", type=float, metavar="D")
    cmd.add_argument("--dry-run", action="store_true")
    cmd.set_defaults(run=_gc)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.run(args, RunRegistry(args.runs_dir))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Piped into `head` and the like: stop quietly (CI runs with
        # pipefail), and keep the interpreter's final flush from failing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except _ERRORS as exc:
        # RunNotFoundError is a KeyError, whose str() adds quotes.
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
