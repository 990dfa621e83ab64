"""Inject the benchmark suite's printed tables into EXPERIMENTS.md.

Usage::

    pytest benchmarks/ --benchmark-only -s --trace-dir traces | tee bench_output.txt
    python benchmarks/update_experiments_md.py bench_output.txt [traces]
    python benchmarks/update_experiments_md.py --from-analysis traces

Each table printed by a benchmark starts with a known title line; this
script lifts the table block (title + header + rows) into the matching
``<!-- TAG -->`` placeholder of EXPERIMENTS.md as a fenced code block.

When the optional trace-dir argument is given (the directory the suite's
``--trace-dir`` flag wrote to), each injected table also gets a
per-cell-breakdown line linking the table's raw CSV and the per-trial
Chrome-trace timelines behind its numbers.

``--from-analysis TRACE_DIR`` instead runs ``repro.obs.analyze`` over the
serialized step traces (``*.step.json``) in the directory and embeds the
resulting per-device utilization and critical-path attribution tables
between the ``<!-- ANALYSIS -->`` / ``<!-- /ANALYSIS -->`` markers —
the single source of truth for Fig. 5-style breakdowns instead of ad hoc
recomputation here.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: placeholder tag -> list of table-title prefixes to capture (in order).
SECTIONS = {
    "TABLE1": ["Table 1:"],
    "TABLE2": ["Table 2:"],
    "TABLE3": ["Table 3:"],
    "TABLE4": ["Table 4:"],
    "TABLE5": ["Table 5:"],
    "TABLE6": ["Table 6:"],
    "FIG2": ["Fig. 2:"],
    "FIG3": ["Fig. 3:"],
    "FIG4": ["Fig. 4:"],
    "FIG5": ["Fig. 5:"],
    "ABLATIONS": [
        "Ablation: DPOS idle-slot insertion",
        "Ablation: learned vs oracle cost models",
        "Extension: micro-batch pipelining",
    ],
}

#: placeholder tag -> CSV files export_rows() writes for it (in order).
CSV_FILES = {
    "TABLE1": ["table1.csv"],
    "TABLE2": ["table2.csv"],
    "TABLE3": ["table3.csv"],
    "TABLE4": ["table4.csv"],
    "TABLE5": ["table5.csv"],
    "TABLE6": ["table6.csv"],
    "FIG2": ["fig2.csv"],
    "FIG3": ["fig3.csv"],
    "FIG4": ["fig4.csv"],
    "FIG5": ["fig5.csv"],
    "ABLATIONS": [
        "ablation_insertion.csv",
        "ablation_costmodel.csv",
        "ext_pipeline.csv",
    ],
}


def breakdown_line(tag: str, trace_dir: Path, repo_root: Path) -> str:
    """A markdown line linking the tag's CSV(s) and the trial timelines.

    Empty when nothing was exported for the tag.
    """
    try:
        rel = trace_dir.resolve().relative_to(repo_root.resolve())
    except ValueError:
        rel = trace_dir
    links = []
    for name in CSV_FILES.get(tag, []):
        if (trace_dir / name).exists():
            links.append(f"[{name}]({rel.as_posix()}/{name})")
    traces = sorted(trace_dir.glob("*.trace.json"))
    if traces:
        links.append(
            f"{len(traces)} Chrome-trace timeline"
            f"{'s' if len(traces) != 1 else ''} in "
            f"[`{rel.as_posix()}/`]({rel.as_posix()}/) "
            "(load in chrome://tracing or Perfetto)"
        )
    if not links:
        return ""
    return "\n\nPer-cell breakdowns: " + " · ".join(links)


def extract_block(lines, start_index):
    """A table block: the title, header, separator, and aligned rows."""
    block = [lines[start_index]]
    i = start_index + 1
    while i < len(lines):
        line = lines[i]
        if ("|" in line) or set(line.strip()) <= {"-", "+"} and line.strip():
            block.append(line)
            i += 1
        else:
            break
    return block


def collect_tables(output_text):
    lines = output_text.splitlines()
    found = {}
    for i, line in enumerate(lines):
        for tag, prefixes in SECTIONS.items():
            for prefix in prefixes:
                if line.strip().startswith(prefix):
                    found.setdefault(tag, []).append(
                        "\n".join(extract_block(lines, i))
                    )
    return found


def _markdown_table(headers, rows) -> str:
    lines = ["| " + " | ".join(str(h) for h in headers) + " |"]
    lines.append("|" + "|".join("---" for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(v) for v in row) + " |")
    return "\n".join(lines)


def render_analysis_markdown(trace_dir: Path) -> str:
    """Utilization + attribution tables from the analyzer, as markdown.

    One row per (trial, device) and one critical-path attribution row per
    trial, both produced by ``repro.obs.analyze`` over the serialized
    ``*.step.json`` traces a ``--trace-dir`` benchmark run wrote.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.obs.analyze import analyze_step
    from repro.profiling.trace import StepTrace

    paths = sorted(trace_dir.glob("*.step.json"))
    if not paths:
        raise SystemExit(f"no *.step.json step traces under {trace_dir}")
    util_rows = []
    path_rows = []
    for path in paths:
        stem = path.name[: -len(".step.json")]
        analysis = analyze_step(StepTrace.load(str(path)), label=stem)
        for dev in analysis.devices:
            util_rows.append([
                stem,
                dev.device + (" *" if dev.device == analysis.straggler else ""),
                dev.num_ops,
                f"{dev.compute * 1000:.3f}",
                f"{dev.transfer * 1000:.3f}",
                f"{dev.wait * 1000:.3f}",
                f"{dev.idle * 1000:.3f}",
                f"{dev.busy_fraction * 100:.1f}%",
                f"{dev.overlap_fraction * 100:.1f}%",
            ])
        attribution = analysis.critical_path.attribution()
        path_rows.append([
            stem,
            f"{analysis.makespan * 1000:.3f}",
            f"{attribution['compute'] * 1000:.3f}",
            f"{attribution['transfer'] * 1000:.3f}",
            f"{attribution['wait'] * 1000:.3f}",
            f"{attribution['idle'] * 1000:.3f}",
            "exact" if analysis.critical_path.exact else "inferred",
        ])
    sections = [
        f"Produced by `repro.obs.analyze`, the analyzer behind "
        f"`python -m repro.obs show`, over {len(paths)} "
        f"step trace(s) in `{trace_dir.name}/`.",
        "**Per-device utilization** (`*` marks the straggler; the four "
        "time columns partition the step makespan):",
        _markdown_table(
            ["trial", "device", "ops", "compute (ms)", "xfer stall (ms)",
             "wait (ms)", "idle (ms)", "busy", "comm overlap"],
            util_rows,
        ),
        "**Critical-path attribution** (the blocking chain, every "
        "nanosecond in one of four buckets — Fig. 5 programmatically):",
        _markdown_table(
            ["trial", "makespan (ms)", "compute (ms)", "transfer (ms)",
             "wait (ms)", "idle (ms)", "edges"],
            path_rows,
        ),
    ]
    return "\n\n".join(sections)


def inject_analysis(trace_dir: Path) -> None:
    experiments = REPO_ROOT / "EXPERIMENTS.md"
    text = experiments.read_text()
    begin, end = "<!-- ANALYSIS -->", "<!-- /ANALYSIS -->"
    if begin not in text or end not in text:
        raise SystemExit(f"EXPERIMENTS.md lacks {begin} ... {end} markers")
    rendered = render_analysis_markdown(trace_dir)
    pattern = re.compile(
        re.escape(begin) + r".*?" + re.escape(end), flags=re.DOTALL
    )
    text = pattern.sub(f"{begin}\n{rendered}\n{end}", text, count=1)
    experiments.write_text(text)
    print(f"updated {experiments} analysis section from {trace_dir}")


def main() -> None:
    if len(sys.argv) == 3 and sys.argv[1] == "--from-analysis":
        inject_analysis(Path(sys.argv[2]))
        return
    if len(sys.argv) not in (2, 3):
        raise SystemExit(__doc__)
    output_text = Path(sys.argv[1]).read_text()
    trace_dir = Path(sys.argv[2]) if len(sys.argv) == 3 else None
    tables = collect_tables(output_text)
    repo_root = REPO_ROOT
    experiments = repo_root / "EXPERIMENTS.md"
    text = experiments.read_text()
    for tag, blocks in tables.items():
        rendered = "```\n" + "\n\n".join(blocks) + "\n```"
        if trace_dir is not None and trace_dir.is_dir():
            rendered += breakdown_line(tag, trace_dir, repo_root)
        marker = f"<!-- {tag} -->"
        pattern = re.compile(
            re.escape(marker)
            + r"(?:\n```.*?```(?:\n\nPer-cell breakdowns: [^\n]*)?)?",
            flags=re.DOTALL,
        )
        text = pattern.sub(marker + "\n" + rendered, text, count=1)
    experiments.write_text(text)
    print(f"updated {experiments} with {sorted(tables)} ")


if __name__ == "__main__":
    main()
