"""The benchmark's three workloads.

A workload is a list of operations, each one `speclap.cli.main(argv)` call
that reads its input from a file and writes its output with `-o`, paired
with the oracle its output must satisfy.  `{out}` in an argv stands for the
directory of the pass being run, so consecutive passes keep their outputs
apart and later operations of a chain read what earlier ones wrote.

* exhaustive -- the labeled-mask scans behind the paper's classifications:
  `enumerate --scan connected --nmax 6` with the criterion-6 predicates and
  `--scan bipartite-pendant` for n = 2..7.  Mask generation, structural
  filtering, batched `eigvalsh`, Jacobi confirmation and `canonical_form`.
* verify-batch -- one `verify` call per (suite, graph) over 36 seeded random
  connected graphs (n = 3..16), 9 random connected bipartite graphs and 14
  named family members, plus `verify thm41 --t 1..3`.  Per-call CLI cost, the
  nlspec suites and Jacobi with eigenvectors at n <= 16; no scan code.
* families-designs -- a Hadamard -> design -> complement -> incidence graph
  -> spectrum chain per matrix, `construct | spectrum` on the paper's table
  tokens and the unicyclic classification scan (`--param-max 5`).  The
  only workload that reaches `designs` and Jacobi at n = 17..62.

Only verify-batch draws its graphs from the seed; the other two run the
fixed inputs the paper's classifications and constructions are about.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles

SUITES = ("lemma22", "eq1", "three-ev", "four-ev", "lemma23", "lemma24", "thm21", "cor21", "cor20")
FAMILY_MEMBERS = (
    "U2:1", "U4:1,1,1", "U7", "U10", "U13", "U14", "C5", "C6", "P4",
    "Kmulti:2,3", "Kmulti:3,3", "Kmulti:2,2,2", "thm41:1", "thm41:2",
)
HADAMARDS = (  # (method, size flag, value, order)
    *[("sylvester", "--order", m, m) for m in (4, 8, 16, 32)],
    *[("paley1", "--q", q, q + 1) for q in (3, 7, 11, 19, 23, 27, 31)],
    *[("paley2", "--q", q, 2 * (q + 1)) for q in (5, 9, 13)],
)

Check = Callable[[Path], "str | None"]


@dataclass(frozen=True)
class Op:
    """One CLI call and the oracle for the file it writes."""

    argv: tuple[str, ...]
    check: Check

    def args(self, out: Path) -> list[str]:
        return [a.replace("{out}", str(out)) for a in self.argv]

    def output(self, out: Path) -> Path:
        return Path(self.args(out)[self.argv.index("-o") + 1])


@dataclass(frozen=True)
class Workload:
    name: str
    warmup: list[Op]
    ops: list[Op]


def build(name: str, seed: int, inputs: Path, cli_main, small: bool = False) -> Workload:
    """Generate the inputs of a workload under `inputs` and return its ops.
    `small` shrinks every dimension for the benchmark's own tests."""
    inputs.mkdir(parents=True, exist_ok=True)
    if name == "exhaustive":
        return _exhaustive(small)
    if name == "verify-batch":
        return _verify_batch(seed, inputs, cli_main, small)
    if name == "families-designs":
        return _families_designs(small)
    raise ValueError(f"unknown workload {name!r}")


def _out_path(name: str) -> Callable[[Path], Path]:
    return lambda out: Path(name.replace("{out}", str(out)))


# -- exhaustive ----------------------------------------------------------


def _connected_scan(nmax: int, predicate: str) -> Op:
    name = f"{{out}}/connected-{predicate.replace(':', '')}-{nmax}.json"
    return Op(
        ("enumerate", "--scan", "connected", "--nmax", str(nmax), "--predicate", predicate,
         "--jobs", "1", "-o", name),
        lambda out: oracles.check_connected_scan(_out_path(name)(out), predicate, nmax),
    )


def _bipartite_pendant_scan(n: int) -> Op:
    name = f"{{out}}/bipartite-pendant-{n}.json"
    return Op(
        ("enumerate", "--scan", "bipartite-pendant", "--n", str(n), "--jobs", "1", "-o", name),
        lambda out: oracles.check_bipartite_pendant_scan(_out_path(name)(out), n),
    )


def _exhaustive(small: bool) -> Workload:
    nmax, bp_max = (5, 5) if small else (6, 7)
    ops = [_connected_scan(nmax, p) for p in ("distinct-with-one:3", "second-least-one")]
    ops += [_bipartite_pendant_scan(n) for n in range(2, bp_max + 1)]
    warmup = [_connected_scan(4, "distinct-with-one:3"), _bipartite_pendant_scan(4)]
    return Workload("exhaustive", warmup, ops)


# -- verify-batch --------------------------------------------------------


def random_connected(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """A random spanning tree plus each other pair with probability p."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    return sorted(edges)


def random_connected_bipartite(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """Sides of random sizes, a spanning tree across them, then each other
    cross pair with probability p."""
    left = rng.randint(1, n - 1)
    side = [0] * left + [1] * (n - left)
    rng.shuffle(side)
    first = {s: side.index(s) for s in (0, 1)}
    edges = {tuple(sorted(first.values()))}
    placed = [first[0], first[1]]
    for v in range(n):
        if v not in first.values():
            partner = rng.choice([u for u in placed if side[u] != side[v]])
            edges.add(tuple(sorted((v, partner))))
            placed.append(v)
    edges |= {
        (u, v) for u in range(n) for v in range(u + 1, n) if side[u] != side[v] and rng.random() < p
    }
    return sorted(edges)


def stratified(count: int, n_lo: int, n_hi: int, p_lo: float, p_hi: float) -> list[tuple[int, float]]:
    """(order, density) for each of `count` graphs: orders cycle through
    n_lo..n_hi and densities step evenly through [p_lo, p_hi], so the work in
    a pass does not depend on the seed, only which graphs carry it."""
    orders = n_hi - n_lo + 1
    rounds = -(-count // orders)
    return [
        (n_lo + i % orders, p_lo + (p_hi - p_lo) * (i // orders + 0.5) / rounds)
        for i in range(count)
    ]


def _verify_op(suite: str, path: Path, label: str, facts: Callable) -> Op:
    name = f"{{out}}/{path.stem}-{suite}.json"

    def check(out: Path):
        entry = json.loads(_out_path(name)(out).read_text())
        return oracles.check_verify_report(suite, label, entry, facts())

    return Op(("verify", suite, "--file", str(path), "-o", name), check)


def _thm41_op(t: int) -> Op:
    name = f"{{out}}/thm41-{t}.json"
    return Op(
        ("verify", "thm41", "--t", str(t), "-o", name),
        lambda out: oracles.check_thm41_report(t, json.loads(_out_path(name)(out).read_text())),
    )


def _graph_facts(path: Path) -> Callable[[], oracles.GraphFacts]:
    """Facts about the graph in a graph6 file, computed on first use."""
    cache: list[oracles.GraphFacts] = []

    def facts() -> oracles.GraphFacts:
        if not cache:
            nx = oracles.load_networkx()
            g = nx.from_graph6_bytes(path.read_text().strip().encode())
            cache.append(oracles.GraphFacts(nx.to_numpy_array(g, nodelist=sorted(g))))
        return cache[0]

    return facts


def _verify_batch(seed: int, inputs: Path, cli_main, small: bool) -> Workload:
    rng = random.Random(seed)
    n_random, n_bipartite, members = (6, 3, FAMILY_MEMBERS[:3]) if small else (36, 9, FAMILY_MEMBERS)
    shapes = [(random_connected, n, p) for n, p in stratified(n_random, 3, 16, 0.1, 0.7)]
    shapes += [(random_connected_bipartite, n, p) for n, p in stratified(n_bipartite, 4, 16, 0.1, 0.6)]
    files = []
    for i, (make, n, p) in enumerate(shapes):
        path = inputs / f"g{i:03d}.g6"
        path.write_text(oracles.graph6(n, make(n, p, rng)) + "\n")
        files.append(path)
    for i, token in enumerate(members):
        path = inputs / f"family{i:02d}.g6"
        if cli_main(["construct", token, "-o", str(path)]) != 0:
            raise RuntimeError(f"construct {token} failed while generating inputs")
        files.append(path)
    ops = []
    for path in files:
        label = path.read_text().strip()
        facts = _graph_facts(path)
        ops += [_verify_op(suite, path, label, facts) for suite in SUITES]
    ops += [_thm41_op(t) for t in ((1,) if small else (1, 2, 3))]
    warmup = ops[: len(SUITES)] + [_thm41_op(1)]
    return Workload("verify-batch", warmup, ops)


# -- families-designs ----------------------------------------------------


def _hadamard_chain(method: str, flag: str, value: int, order: int) -> list[Op]:
    """hadamard -> --check -> --to-design -> --complement -> --validate ->
    --incidence-graph x2 -> spectrum --adjacency x2, all through files."""
    stem = f"{{out}}/{method}-{value}"
    f = {key: stem + suffix for key, suffix in (
        ("h", ".txt"), ("check", "-check.json"), ("d", "-design.json"), ("dc", "-complement.json"),
        ("valid", "-valid.json"), ("g", "-inc.g6"), ("gc", "-inc-complement.g6"),
        ("s", "-inc-spectrum.txt"), ("sc", "-inc-complement-spectrum.txt"),
    )}
    p = {key: _out_path(name) for key, name in f.items()}

    def hadamard_check(out: Path):
        got = json.loads(p["check"](out).read_text())
        return None if (got.get("hadamard"), got.get("order")) == (True, order) else f"--check said {got}"

    return [
        Op(("hadamard", "--method", method, flag, str(value), "-o", f["h"]),
           lambda out: oracles.check_hadamard(p["h"](out), order)),
        Op(("hadamard", "--check", "--file", f["h"], "-o", f["check"]), hadamard_check),
        Op(("design", "--to-design", "--format", "json", "--file", f["h"], "-o", f["d"]),
           lambda out: oracles.check_design_json(p["d"](out), order, complemented=False)),
        Op(("design", "--complement", "--format", "json", "--file", f["d"], "-o", f["dc"]),
           lambda out: oracles.check_complement_json(p["dc"](out), p["d"](out), order)),
        Op(("design", "--validate", "--file", f["dc"], "-o", f["valid"]),
           lambda out: oracles.check_validate_json(p["valid"](out), order)),
        Op(("design", "--incidence-graph", "--file", f["d"], "-o", f["g"]),
           lambda out: oracles.check_incidence_graph(p["g"](out), p["d"](out))),
        Op(("design", "--incidence-graph", "--file", f["dc"], "-o", f["gc"]),
           lambda out: oracles.check_incidence_graph(p["gc"](out), p["dc"](out))),
        Op(("spectrum", "--adjacency", "--file", f["g"], "-o", f["s"]),
           lambda out: oracles.check_incidence_spectrum(p["s"](out), order, complemented=False)),
        Op(("spectrum", "--adjacency", "--file", f["gc"], "-o", f["sc"]),
           lambda out: oracles.check_incidence_spectrum(p["sc"](out), order, complemented=True)),
    ]


def _paper_token(token: str) -> list[Op]:
    stem = "{out}/token-" + token.replace(":", "_").replace(",", "_")
    g, s = _out_path(stem + ".g6"), _out_path(stem + ".txt")
    return [
        Op(("construct", token, "-o", stem + ".g6"), lambda out: oracles.check_graph6_connected(g(out))),
        Op(("spectrum", "--paper-precision", "--file", stem + ".g6", "-o", stem + ".txt"),
           lambda out: oracles.check_paper_spectrum(s(out), token)),
    ]


def _unicyclic_scan(param_max: int, k: int) -> Op:
    name = f"{{out}}/unicyclic-{param_max}-distinct{k}.json"
    return Op(
        ("enumerate", "--scan", "unicyclic", "--param-max", str(param_max),
         "--predicate", f"distinct:{k}", "--jobs", "1", "-o", name),
        lambda out: oracles.check_unicyclic_scan(_out_path(name)(out), k),
    )


def _families_designs(small: bool) -> Workload:
    hadamards = [h for h in HADAMARDS if h[3] <= 12] if small else HADAMARDS
    tokens = ("C4", "P4", "U2:1") if small else tuple(oracles.PAPER_SPECTRA)
    ops = [op for h in hadamards for op in _hadamard_chain(*h)]
    ops += [op for token in tokens for op in _paper_token(token)]
    ops += [_unicyclic_scan(1 if small else 5, k) for k in (3, 4)]
    warmup = _hadamard_chain(*HADAMARDS[0]) + _paper_token("C4") + [_unicyclic_scan(1, 3)]
    return Workload("families-designs", warmup, ops)
