"""Spans around speclap's layers, recorded from outside the package.

`Tracer.install()` replaces each traced function with a timing wrapper at
every binding inside the loaded speclap modules that refers to it: a
function imported with `from .linalg import jacobi_eigen` is bound in
`linalg`, `nlspec`, `scans` and the package itself, and each of those
bindings is where a caller looks it up.  `uninstall()` puts the originals
back.  No file under src/ changes.

A span is (name, start, end, parent, op): `parent` indexes the enclosing
span (-1 at the top) and `op` numbers the CLI call of the pass it belongs
to.  Self time is a span's duration minus the durations of its direct
children; children of one span never overlap, because the program is
single-threaded.  Inclusive times count only spans with no enclosing span of
the same name, so a recursive call is not counted twice.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

#: nlspec check function -> the verify suite it implements
SUITES = {
    "check_spectrum_fundamentals": "lemma22",
    "check_eigenvalue_product": "eq1",
    "check_three_ev_identities": "three-ev",
    "check_three_ev_degree_bounds": "lemma24",
    "check_four_ev_diagonal": "four-ev",
    "check_bipartite_four_ev": "four-ev",
    "check_duplicate_classes": "lemma23",
    "check_classification": "thm21",
    "check_bipartite_duplicate_parity": "cor21",
    "check_second_least_one": "cor20",
    "check_pendant_join_family": "thm41",
}
SUITE_NAMES = tuple(dict.fromkeys(SUITES.values()))

#: (span name, module, function)
TARGETS = (
    ("cli.main", "speclap.cli", "main"),
    ("scans.scan", "speclap.scans", "scan_connected"),
    ("scans.scan", "speclap.scans", "scan_bipartite_pendant"),
    ("scans.scan", "speclap.scans", "scan_unicyclic"),
    ("scans.canonical_form", "speclap.scans", "canonical_form"),
    ("linalg.jacobi", "speclap.linalg", "jacobi_eigen"),
    ("linalg.cluster_spectrum", "speclap.linalg", "cluster_spectrum"),
    ("nlspec.build", "speclap.nlspec", "build"),
    ("nlspec.l_spectrum", "speclap.nlspec", "l_spectrum"),
    *((f"nlspec.suite.{suite}", "speclap.nlspec", fn) for fn, suite in SUITES.items()),
    ("designs.construct", "speclap.designs", "sylvester_of_order"),
    ("designs.construct", "speclap.designs", "paley1"),
    ("designs.construct", "speclap.designs", "paley2"),
    ("designs.to_design", "speclap.designs", "hadamard_to_design"),
    ("designs.incidence_graph", "speclap.designs", "incidence_graph"),
    ("families.parse_family", "speclap.families", "parse_family"),
    ("families.unicyclic", "speclap.families", "unicyclic"),
    ("graph.from_graph6", "speclap.graph", "from_graph6"),
    ("graph.to_graph6", "speclap.graph", "to_graph6"),
)

#: Jacobi matrix-order buckets; orders above 32 fall in the last one
JACOBI_BUCKETS = ("le8", "9-16", "17-32", "33-64")


def jacobi_bucket(order: int) -> str:
    return JACOBI_BUCKETS[(order > 8) + (order > 16) + (order > 32)]


#: per-layer metrics (name, unit, better) in report order
PER_LAYER = (
    ("cli.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("scans.self_s", "s", "lower"),
    ("scans.scanned", "count", "lower"),
    ("scans.eigensolved", "count", "lower"),
    ("scans.candidates", "count", "lower"),
    ("scans.hits", "count", "higher"),
    ("scans.borderline", "count", "lower"),
    ("scans.eigensolved_per_scanned", "ratio", "lower"),
    ("scans.hits_per_candidate", "ratio", "higher"),
    ("scans.canonical_form.calls", "count", "lower"),
    ("scans.canonical_form.s", "s", "lower"),
    *((f"linalg.jacobi.calls.{b}", "count", "lower") for b in JACOBI_BUCKETS),
    *((f"linalg.jacobi.s.{b}", "s", "lower") for b in JACOBI_BUCKETS),
    ("linalg.cluster_spectrum.s", "s", "lower"),
    ("nlspec.build.s", "s", "lower"),
    ("nlspec.l_spectrum.calls", "count", "lower"),
    *((f"nlspec.suite.{s}.self_s", "s", "lower") for s in SUITE_NAMES),
    ("nlspec.checks_applicable", "count", "higher"),
    ("nlspec.checks_passed", "count", "higher"),
    ("designs.construct.s", "s", "lower"),
    ("designs.from_text.s", "s", "lower"),
    ("designs.to_design.s", "s", "lower"),
    ("designs.incidence_graph.s", "s", "lower"),
    ("families.parse_family.s", "s", "lower"),
    ("families.unicyclic.s", "s", "lower"),
    ("graph.from_graph6.s", "s", "lower"),
    ("graph.to_graph6.s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


class Tracer:
    """Records spans for one pass while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, open_ = self.spans, self._open
        bucketed = name == "linalg.jacobi"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name
            if bucketed:
                m = args[0] if args else kwargs["m"]
                label = f"{name}.{jacobi_bucket(len(m))}"
            idx = len(spans)
            span = [label, 0.0, 0.0, open_[-1] if open_ else -1, self.op]
            spans.append(span)
            open_.append(idx)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_.pop()

        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k == "speclap" or k.startswith("speclap.")]
        for name, module, attr in TARGETS:
            original = getattr(sys.modules[module], attr)
            wrapped = self._wrap(original, name)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
                        self._restore.append((m, key, original))
        cls = sys.modules["speclap.designs"].HadamardMatrix
        original = vars(cls)["from_text"]
        cls.from_text = classmethod(self._wrap(original.__func__, "designs.from_text"))
        self._restore.append((cls, "from_text", original))

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._restore):
            setattr(obj, key, original)
        self._restore.clear()

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        durations = [end - start for _, start, end, _, _ in self.spans]
        own = list(durations)
        for (_, _, _, parent, _), d in zip(self.spans, durations):
            if parent >= 0:
                own[parent] -= d
        return own

    def outermost(self) -> list[bool]:
        """Per span: no enclosing span carries the same name."""
        out = []
        for name, _, _, parent, _ in self.spans:
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            out.append(parent < 0)
        return out

    def write(self, path: Path, pass_index: int) -> None:
        with path.open("a") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"pass": pass_index, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op}) + "\n")


def span_totals(tracer: Tracer) -> dict[str, float]:
    """Counts, inclusive seconds and self seconds keyed `<name>.calls`,
    `<name>.s` and `<name>.self_s`."""
    totals: dict[str, float] = {}
    for (name, start, end, _, _), own, top in zip(tracer.spans, tracer.self_times(), tracer.outermost()):
        totals[f"{name}.calls"] = totals.get(f"{name}.calls", 0) + 1
        totals[f"{name}.self_s"] = totals.get(f"{name}.self_s", 0.0) + own
        if top:
            totals[f"{name}.s"] = totals.get(f"{name}.s", 0.0) + (end - start)
    return totals


def report_counts(ops, out: Path) -> dict[str, float]:
    """Work counts from the JSON reports that a pass's `enumerate` and
    `verify` calls wrote under `out`.  A unicyclic scan tests every family
    member exactly, so its members count as scanned, eigensolved and
    candidates alike."""
    c = dict.fromkeys(("scanned", "eigensolved", "candidates", "hits", "borderline",
                       "applicable", "passed"), 0)
    for op in ops:
        if op.argv[0] == "enumerate":
            report = json.loads(op.output(out).read_text())
            counts = report["counts"]
            per_n = [dict.fromkeys(("scanned", "eigensolved", "candidates"), counts["members"])] \
                if "members" in counts else counts.values()
            for row in per_n:
                for key in ("scanned", "eigensolved", "candidates"):
                    c[key] += row[key]
            c["hits"] += len(report["hits"])
            c["borderline"] += len(report["borderline"])
        elif op.argv[0] == "verify":
            entries = json.loads(op.output(out).read_text())
            for entry in entries if isinstance(entries, list) else [entries]:
                for r in entry["report"]["results"]:
                    c["applicable"] += r["applicable"]
                    c["passed"] += r["applicable"] and r["pass"]
    return c


def layer_metrics(
    tracers: list[Tracer],
    counts: list[dict[str, float]],
    traced_pass_s: list[float],
    untraced_pass_s: list[float],
) -> dict[str, float]:
    """Every PER_LAYER metric, per traced pass (averaged over passes)."""
    passes = len(tracers)
    spans: dict[str, float] = {}
    for t in tracers:
        for key, value in span_totals(t).items():
            spans[key] = spans.get(key, 0.0) + value / passes
    c = {key: sum(x[key] for x in counts) / passes for key in counts[0]}

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out = {
        "cli.calls": spans.get("cli.main.calls", 0.0),
        "cli.self_s": spans.get("cli.main.self_s", 0.0),
        "scans.self_s": spans.get("scans.scan.self_s", 0.0),
        "scans.scanned": c["scanned"],
        "scans.eigensolved": c["eigensolved"],
        "scans.candidates": c["candidates"],
        "scans.hits": c["hits"],
        "scans.borderline": c["borderline"],
        "scans.eigensolved_per_scanned": ratio(c["eigensolved"], c["scanned"]),
        "scans.hits_per_candidate": ratio(c["hits"], c["candidates"]),
        "nlspec.l_spectrum.calls": spans.get("nlspec.l_spectrum.calls", 0.0),
        "nlspec.checks_applicable": c["applicable"],
        "nlspec.checks_passed": c["passed"],
        "trace.overhead_frac": statistics.median(traced_pass_s) / statistics.median(untraced_pass_s) - 1,
    }
    for name, _, _ in PER_LAYER:
        if name.startswith("linalg.jacobi."):
            kind, bucket = name.split(".")[2:]
            out[name] = spans.get(f"linalg.jacobi.{bucket}.{kind}", 0.0)
        else:
            out.setdefault(name, spans.get(name, 0.0))
    return {name: out[name] for name, _, _ in PER_LAYER}
