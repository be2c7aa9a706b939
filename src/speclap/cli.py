"""Command-line front end.

Subcommands: `spectrum` (clustered L-spectrum of graphs), `construct`
(named graph families), `hadamard` (build / normalize / check Hadamard
matrices), `design` (Hadamard-to-design conversion, complement, validation,
incidence graphs), `verify` (named check suites), and `enumerate` (the
exhaustive scans).

Graphs travel between commands as graph6 lines on stdin/stdout, Hadamard
matrices as +/- text and designs as JSON, so commands compose:

    speclap construct U2:1 | speclap spectrum --paper-precision
    speclap hadamard --method paley1 --q 7 | speclap design --to-design
    speclap verify thm41 --t 2

Exit codes: 0 success, 1 a verification failed, 2 usage error, 3 I/O error.
Numeric output uses 10 significant digits unless --paper-precision rounds it
to 4 decimals.  The SPECLAP_TOL environment variable overrides the default
eigenvalue clustering tolerance; --tol wins over both.  Only `spectrum`,
`verify` and `enumerate` cluster eigenvalues, so only they take --tol.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import designs, families, nlspec, scans
from .graph import (
    Graph,
    from_graph6,
    to_graph6,
    to_json_dict as graph_to_json_dict,
)
from .linalg import DEFAULT_CLUSTER_TOL, Spectrum, format_value


# -- shared plumbing ----------------------------------------------------


def _json_fallback(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return str(obj)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, default=_json_fallback)


def _emit(args, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if getattr(args, "output", None):
        _write_file(args.output, text)
    else:
        sys.stdout.write(text)


def _write_file(path: str, text: str) -> None:
    """Write `text` to `path` atomically: a reader sees the old file or the
    whole new one, and a failed write leaves no temp file behind.

    A path that cannot name a regular file (an existing device, pipe or
    directory, or one ending in a separator) is opened directly, so it writes
    or fails as a plain open() would.  Other errors name `path` too.
    """
    target = os.path.realpath(path) if os.path.islink(path) else path
    if path.endswith(os.sep) or os.path.exists(target) and not os.path.isfile(target):
        with open(path, "w") as fh:
            fh.write(text)
        return
    tmp = os.path.join(os.path.dirname(target), f".speclap-{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def _cluster_tol(args) -> float:
    """--tol, else SPECLAP_TOL, else the default; a given value must be
    positive and finite (NaN and infinity are rejected)."""
    if getattr(args, "tol", None) is not None:
        source, tol = "--tol", args.tol
    elif "SPECLAP_TOL" in os.environ:
        source, text = "SPECLAP_TOL", os.environ["SPECLAP_TOL"]
        try:
            tol = float(text)
        except ValueError:
            raise ValueError(f"{source} must be positive and finite, got {text!r}") from None
    else:
        return DEFAULT_CLUSTER_TOL
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"{source} must be positive and finite, got {tol!r}")
    return tol


def _read_source(args) -> str:
    """Raw text from --file or stdin (used by hadamard/design)."""
    if getattr(args, "file", None):
        with open(args.file) as fh:
            return fh.read()
    return sys.stdin.read()


def _graph_from_token(token: str) -> Graph:
    """Family name first, graph6 as fallback.

    Family names win on collision (e.g. "C4" is also decodable graph6);
    feed raw graph6 through --file or stdin to avoid the ambiguity.  A
    token of a family's form that the family cannot build (bad parameters,
    over the vertex cap) and that is not graph6 either gets the family's
    own error.
    """
    family_error = None
    try:
        return families.parse_family(token)
    except families.UnknownFamilyError:
        pass
    except ValueError as exc:
        family_error = exc
    try:
        return from_graph6(token)
    except ValueError:
        raise family_error or ValueError(
            f"cannot read {token!r} as a family name or graph6 string"
        ) from None


def _input_graphs(args) -> list[tuple[str, Graph]]:
    """(label, graph) pairs from exactly one input source."""
    if getattr(args, "graph", None) is not None and getattr(args, "file", None):
        raise ValueError("give an inline graph or --file, not both")
    if getattr(args, "graph", None) is not None:
        return [(args.graph, _graph_from_token(args.graph))]
    if getattr(args, "file", None):
        with open(args.file) as fh:
            lines = fh.read().splitlines()
    else:
        lines = sys.stdin.read().splitlines()
    pairs = []
    for line in lines:
        line = line.strip()
        if line:
            pairs.append((line, from_graph6(line)))
    if not pairs:
        raise ValueError("no input graphs")
    return pairs


def _spectrum_text(spec: Spectrum, paper_precision: bool = False) -> str:
    parts = []
    for v, m in spec.pairs:
        s = format_value(v, paper_precision)
        parts.append(s if m == 1 else f"{s}^{m}")
    return ", ".join(parts)


# -- spectrum -----------------------------------------------------------


def cmd_spectrum(args) -> int:
    tol = _cluster_tol(args)
    rows: list[str] = []
    blocks: list[dict] = []
    for label, g in _input_graphs(args):
        lspec = nlspec.l_spectrum(g, cluster_tol=tol)
        aspec = nlspec.adjacency_spectrum(g, cluster_tol=tol) if args.adjacency else None
        if args.format == "json":
            entry = {"input": label, "n": g.n, "l_spectrum": lspec.as_dict()}
            if aspec is not None:
                entry["adjacency_spectrum"] = aspec.as_dict()
            blocks.append(entry)
        elif args.format == "csv":
            if not rows:
                rows.append(
                    "matrix,value,multiplicity" if args.adjacency else "value,multiplicity"
                )
            for v, m in lspec.pairs:
                val = format_value(v, args.paper_precision)
                rows.append(f"laplacian,{val},{m}" if args.adjacency else f"{val},{m}")
            if aspec is not None:
                for v, m in aspec.pairs:
                    rows.append(f"adjacency,{format_value(v, args.paper_precision)},{m}")
        else:
            line = _spectrum_text(lspec, args.paper_precision)
            if aspec is not None:
                line += " | adjacency: " + _spectrum_text(aspec, args.paper_precision)
            rows.append(line)
    if args.format == "json":
        _emit(args, _dump_json(blocks[0] if len(blocks) == 1 else blocks))
    else:
        _emit(args, "\n".join(rows))
    return 0


# -- construct ----------------------------------------------------------


def cmd_construct(args) -> int:
    g = families.parse_family(args.family)
    if args.format == "json":
        _emit(args, _dump_json(graph_to_json_dict(g)))
    elif args.format == "text":
        edges = ", ".join(f"({u},{v})" for u, v in g.edges())
        _emit(args, f"{args.family}: n={g.n} m={g.m} edges: {edges}")
    else:
        _emit(args, to_graph6(g))
    return 0


# -- hadamard -----------------------------------------------------------


def _build_hadamard(args) -> designs.HadamardMatrix:
    if args.method == "sylvester":
        if args.order is None:
            raise ValueError("--method sylvester needs --order")
        return designs.sylvester_of_order(args.order)
    if args.q is None:
        raise ValueError(f"--method {args.method} needs --q")
    # bound q before the trial division in prime_power, which is O(sqrt q)
    designs.check_hadamard_order(args.q + 1 if args.method == "paley1" else 2 * (args.q + 1))
    pp = designs.prime_power(args.q)
    if pp is None:
        raise ValueError(f"q = {args.q} is not a prime power")
    f = designs.FiniteField(*pp)
    return designs.paley1(f) if args.method == "paley1" else designs.paley2(f)


def cmd_hadamard(args) -> int:
    if args.method:
        h = _build_hadamard(args)
    else:
        text = _read_source(args)
        if not text.strip():
            raise ValueError("no Hadamard matrix on input and no --method given")
        if args.check:
            try:
                h = designs.HadamardMatrix.from_text(text)
            except designs.HadamardOrderError:
                raise  # too large to check: a usage error, not a verdict
            except ValueError as exc:
                _emit(args, _dump_json({"hadamard": False, "error": str(exc)}))
                return 1
        else:
            h = designs.HadamardMatrix.from_text(text)
    if args.normalize:
        h = h.normalized()
    if args.check:
        _emit(
            args,
            _dump_json(
                {"hadamard": True, "order": h.order, "normalized": h.is_normalized()}
            ),
        )
        return 0
    if args.format == "json":
        _emit(args, _dump_json({"order": h.order, "rows": h.to_text().split("\n")}))
    else:
        _emit(args, h.to_text())
    return 0


# -- design -------------------------------------------------------------


def _design_summary(d: designs.Design) -> str:
    shape = "symmetric" if d.is_symmetric else f"b={d.b}, r={d.r}"
    return f"2-({d.v}, {d.k}, {d.lam}) design, {shape}"


def cmd_design(args) -> int:
    actions = [args.to_design, args.complement, args.incidence_graph, args.validate]
    if sum(actions) != 1:
        raise ValueError(
            "choose exactly one of --to-design / --complement / --incidence-graph / --validate"
        )
    text = _read_source(args)
    if args.to_design:
        h = designs.HadamardMatrix.from_text(text)
        d = designs.hadamard_to_design(h)
    elif args.validate:
        try:
            d = designs.design_from_json_dict(json.loads(text))
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            _emit(args, _dump_json({"valid": False, "error": str(exc)}))
            return 1
        _emit(
            args,
            _dump_json(
                {
                    "valid": True,
                    "v": d.v,
                    "b": d.b,
                    "r": d.r,
                    "k": d.k,
                    "lambda": d.lam,
                    "symmetric": d.is_symmetric,
                }
            ),
        )
        return 0
    else:
        d = designs.design_from_json_dict(json.loads(text))
        if args.complement:
            d = designs.complement(d)
        else:
            g, split = designs.incidence_graph(d)
            if args.format == "json":
                n1, n2 = split.sides()
                _emit(
                    args,
                    _dump_json(
                        {
                            "graph": graph_to_json_dict(g),
                            "points": sorted(n1),
                            "blocks": sorted(n2),
                        }
                    ),
                )
            else:
                _emit(args, to_graph6(g))
            return 0
    if args.format == "json":
        _emit(args, _dump_json(designs.design_to_json_dict(d)))
    else:
        _emit(args, _design_summary(d))
    return 0


# -- verify -------------------------------------------------------------


def cmd_verify(args) -> int:
    tol = _cluster_tol(args)
    if args.suite == "thm41":
        if args.t is None:
            raise ValueError("verify thm41 needs --t")
        if args.graph is not None or args.file:
            raise ValueError("thm41 builds its own graph; drop the graph input")
        report = nlspec.check_pendant_join_family(args.t)
        out = {"input": f"thm41:{args.t}", "report": report.to_json_dict()}
        _emit(args, _dump_json(out))
        return 0 if report.passed or not report.applicable else 1
    if args.t is not None:
        raise ValueError("--t only applies to the thm41 suite")
    run = nlspec.SUITES[args.suite]
    failed = False
    entries = []
    for label, g in _input_graphs(args):
        report = run(nlspec.SpectralContext(g, tol))
        if report.applicable and not report.passed:
            failed = True
        entries.append({"input": label, "report": report.to_json_dict()})
    _emit(args, _dump_json(entries[0] if len(entries) == 1 else entries))
    return 1 if failed else 0


# -- enumerate ----------------------------------------------------------


def cmd_enumerate(args) -> int:
    tol = _cluster_tol(args)
    predicate = scans.parse_predicate(args.predicate) if args.predicate else None
    if args.scan == "connected":
        if predicate is None:
            predicate = scans.parse_predicate("distinct-with-one:3")
        report = scans.scan_connected(args.nmax, predicate, cluster_tol=tol)
    elif args.scan == "unicyclic":
        report = scans.scan_unicyclic(args.param_max, predicate, cluster_tol=tol)
    else:
        if predicate is not None:
            raise ValueError(
                "the bipartite-pendant scan has a fixed predicate (distinct:4)"
            )
        report = scans.scan_bipartite_pendant(n=args.n, cluster_tol=tol)
    if args.format == "csv":
        _emit(args, report.to_csv())
    else:
        _emit(args, _dump_json(report.to_json_dict()))
    return 0


# -- parser -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """A new parser on every call; changing it does not affect `main`."""
    parser = argparse.ArgumentParser(
        prog="speclap",
        description="normalized-Laplacian spectra: compute, construct, verify, enumerate",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, clusters: bool = False):
        p.add_argument("-o", "--output", metavar="PATH", help="write to a file instead of stdout")
        if clusters:
            p.add_argument(
                "--tol",
                type=float,
                help="eigenvalue clustering tolerance (default from SPECLAP_TOL or 1e-6)",
            )

    p_spec = sub.add_parser("spectrum", help="clustered L-spectrum of input graphs")
    p_spec.add_argument("graph", nargs="?", help="family name or graph6 string")
    p_spec.add_argument("--file", help="read graph6 lines from a file")
    p_spec.add_argument("--adjacency", action="store_true", help="also print the adjacency spectrum")
    p_spec.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_spec.add_argument(
        "--paper-precision",
        action="store_true",
        help="round to 4 decimals instead of 10 significant digits",
    )
    add_common(p_spec, clusters=True)
    p_spec.set_defaults(func=cmd_spectrum)

    p_con = sub.add_parser("construct", help="build a named family graph")
    p_con.add_argument("family", help=f"family name, one of: {families.FAMILY_GRAMMAR}")
    p_con.add_argument("--format", choices=("graph6", "json", "text"), default="graph6")
    add_common(p_con)
    p_con.set_defaults(func=cmd_construct)

    p_had = sub.add_parser("hadamard", help="build, normalize or check Hadamard matrices")
    p_had.add_argument("--method", choices=("sylvester", "paley1", "paley2"))
    p_had.add_argument("--order", type=int, help="target order (sylvester: a power of 2)")
    p_had.add_argument("--q", type=int, help="prime power for the paley constructions")
    p_had.add_argument("--normalize", action="store_true", help="normalize first row and column to +1")
    p_had.add_argument("--check", action="store_true", help="report whether the input is Hadamard")
    p_had.add_argument("--file", help="read a +/- matrix from a file instead of stdin")
    p_had.add_argument("--format", choices=("text", "json"), default="text")
    add_common(p_had)
    p_had.set_defaults(func=cmd_hadamard)

    p_des = sub.add_parser("design", help="Hadamard designs: convert, complement, validate")
    p_des.add_argument("--to-design", action="store_true", help="Hadamard +/- text -> design")
    p_des.add_argument("--complement", action="store_true", help="complement a design (JSON input)")
    p_des.add_argument(
        "--incidence-graph",
        action="store_true",
        help="bipartite point-block graph of a design (JSON input)",
    )
    p_des.add_argument("--validate", action="store_true", help="check design parameters (JSON input)")
    p_des.add_argument("--file", help="read input from a file instead of stdin")
    p_des.add_argument("--format", choices=("text", "json", "graph6"), default="text")
    add_common(p_des)
    p_des.set_defaults(func=cmd_design)

    p_ver = sub.add_parser("verify", help="run a named check suite, JSON report out")
    p_ver.add_argument("suite", choices=(*nlspec.SUITES, "thm41"))
    p_ver.add_argument("graph", nargs="?", help="family name or graph6 string")
    p_ver.add_argument("--file", help="read graph6 lines from a file")
    p_ver.add_argument("--t", type=int, help="family parameter for the thm41 suite")
    add_common(p_ver, clusters=True)
    p_ver.set_defaults(func=cmd_verify)

    p_enum = sub.add_parser("enumerate", help="exhaustive scans over small graphs")
    p_enum.add_argument(
        "--scan", choices=("connected", "unicyclic", "bipartite-pendant"), required=True
    )
    p_enum.add_argument(
        "--nmax", type=int, default=7, help="largest order for the connected scan, 1..8"
    )
    p_enum.add_argument(
        "--n", type=int, default=8, help="order for the bipartite-pendant scan, 2..10"
    )
    p_enum.add_argument("--param-max", type=int, default=6, help="unicyclic parameter bound, 1..20")
    p_enum.add_argument("--predicate", help=f"spectrum predicate: {scans.PREDICATE_GRAMMAR}")
    p_enum.add_argument(
        "--jobs", type=int, default=1, help="ignored; scans run in one process"
    )
    p_enum.add_argument("--format", choices=("json", "csv"), default="json")
    add_common(p_enum, clusters=True)
    p_enum.set_defaults(func=cmd_enumerate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser `main` uses in this process.  Reusing it is safe
    because parsing leaves it unchanged: every action stores a value and
    `set_defaults` is only read."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command; may be called any number of times in one process."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
