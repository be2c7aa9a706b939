"""Tests of the benchmark itself: python3 -m pytest perfbench

Reduced-size passes of every workload must come out clean, span self times
must be consistent, and every oracle must reject a deliberately wrong
answer.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import run
import tracing
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
P5 = oracles.graph6(5, [(0, 1), (1, 2), (2, 3), (3, 4)])  # no hit of any scan here


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """One small pass of each workload, the traced ones alongside."""
    out = {}
    for name in run.WORKLOADS:
        work = tmp_path_factory.mktemp(name)
        cli, wl, warm_codes, _ = run.set_up(name, 5, work, small=True)
        tracer = tracing.Tracer()
        _, latencies, codes = run.run_pass(cli, wl.ops, work / "pass", tracer)
        out[name] = dict(work=work, wl=wl, warm_codes=warm_codes, codes=codes,
                         latencies=latencies, tracer=tracer)
    return out


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_reduced_pass_has_no_errors(passes, name):
    p = passes[name]
    failures = run.check_outputs(p["wl"].warmup, p["work"] / "warm", p["warm_codes"])
    failures += run.check_outputs(p["wl"].ops, p["work"] / "pass", p["codes"])
    assert failures == []
    assert len(p["latencies"]) == len(p["wl"].ops)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_self_times_within_spans(passes, name):
    tracer = passes[name]["tracer"]
    assert tracer.spans, "the traced pass recorded no spans"
    for (_, start, end, parent, _), own in zip(tracer.spans, tracer.self_times()):
        assert end >= start
        assert -1e-9 <= own <= end - start + 1e-12
        if parent >= 0:
            assert tracer.spans[parent][1] <= start and end <= tracer.spans[parent][2]
    assert sum(1 for s in tracer.spans if s[0] == "cli.main") == len(passes[name]["wl"].ops)


def test_uninstall_restores_the_program():
    import speclap.cli
    import speclap.nlspec

    before = (speclap.cli.main, speclap.nlspec.jacobi_eigen, vars(speclap.designs.HadamardMatrix)["from_text"])
    tracer = tracing.Tracer()
    tracer.install()
    assert speclap.nlspec.jacobi_eigen is not before[1]
    tracer.uninstall()
    after = (speclap.cli.main, speclap.nlspec.jacobi_eigen, vars(speclap.designs.HadamardMatrix)["from_text"])
    assert after == before


def test_layer_metrics_cover_every_per_layer_name(passes):
    tracers = [p["tracer"] for p in passes.values()]
    counts = [tracing.report_counts(p["wl"].ops, p["work"] / "pass") for p in passes.values()]
    metrics = tracing.layer_metrics(tracers, counts, [1.1], [1.0])
    assert list(metrics) == [name for name, _, _ in tracing.PER_LAYER]
    assert metrics["trace.overhead_frac"] == pytest.approx(0.1)
    assert metrics["scans.scanned"] > 0 and metrics["nlspec.checks_applicable"] > 0
    assert all(metrics[f"linalg.jacobi.calls.{b}"] > 0 for b in ("le8", "9-16"))


def test_benchmark_json_matches_the_harness():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == [n for n, _, _ in tracing.PER_LAYER]
    assert [m["unit"] for m in BENCHMARK["per_layer"]] == [u for _, u, _ in tracing.PER_LAYER]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(8) == 100.0
    assert run.tail_percentile(150) == 90.0
    assert run.tail_percentile(750) == 95.0
    values = [float(i) for i in range(150)]
    assert sum(v > run.percentile(values, 90.0) for v in values) == 15


def test_exits_without_result_when_the_program_is_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "exhaustive", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""


# -- oracles reject wrong answers ----------------------------------------


def _op_output(p, prefix):
    op = next(op for op in p["wl"].ops if op.args(p["work"] / "pass")[-1].split("/")[-1].startswith(prefix))
    return op.output(p["work"] / "pass")


def _rewrite(path, tmp_path, change):
    data = json.loads(path.read_text())
    change(data)
    bad = tmp_path / path.name
    bad.write_text(json.dumps(data))
    return bad


def test_connected_oracles_reject_wrong_hit_sets(passes, tmp_path):
    p = passes["exhaustive"]
    for prefix, predicate in (("connected-distinct-with-one3", "distinct-with-one:3"),
                              ("connected-second-least-one", "second-least-one")):
        path = _op_output(p, prefix)
        assert oracles.check_connected_scan(path, predicate, 5) is None
        dropped = _rewrite(path, tmp_path, lambda d: d["hits"].pop())
        assert oracles.check_connected_scan(dropped, predicate, 5)
        swapped = _rewrite(path, tmp_path, lambda d: d["hits"][-1].update(graph6=P5))
        assert oracles.check_connected_scan(swapped, predicate, 5)
        miscounted = _rewrite(path, tmp_path, lambda d: d["counts"]["4"].update(connected=37))
        assert oracles.check_connected_scan(miscounted, predicate, 5)


def test_bipartite_pendant_oracle_rejects_wrong_hit_sets(passes, tmp_path):
    p = passes["exhaustive"]
    path = _op_output(p, "bipartite-pendant-4")
    assert oracles.check_bipartite_pendant_scan(path, 4) is None
    assert oracles.check_bipartite_pendant_scan(path, 5)  # P4 is no hit on 5 vertices
    star = _rewrite(path, tmp_path, lambda d: d["hits"][0].update(graph6="Cs"))  # K_{1,3}
    assert oracles.check_bipartite_pendant_scan(star, 4)


def test_unicyclic_oracle_rejects_wrong_hit_sets(passes, tmp_path):
    p = passes["families-designs"]
    for k in (3, 4):
        path = _op_output(p, f"unicyclic-1-distinct{k}")
        assert oracles.check_unicyclic_scan(path, k) is None
        assert oracles.check_unicyclic_scan(_rewrite(path, tmp_path, lambda d: d["hits"].pop()), k)
        wrong_graph = _rewrite(path, tmp_path, lambda d: d["hits"][0].update(graph6=P5))
        assert oracles.check_unicyclic_scan(wrong_graph, k)


def test_spectrum_oracles_reject_wrong_values(tmp_path):
    lap, adj = oracles.incidence_spectra(7, 3, 1)
    assert adj == [(3, 1), (2 ** 0.5, 6), (-(2 ** 0.5), 6), (-3, 1)]

    def text(pairs):
        return ", ".join(f"{v:.10g}^{m}" if m > 1 else f"{v:.10g}" for v, m in pairs)

    good = tmp_path / "good.txt"
    good.write_text(f"{text(lap)} | adjacency: {text(adj)}\n")
    assert oracles.check_incidence_spectrum(good, 8, complemented=False) is None
    bad = tmp_path / "bad.txt"
    bad.write_text(f"{text(lap)} | adjacency: {text([(3, 1), (2 ** 0.5, 5), (-(2 ** 0.5), 7), (-3, 1)])}\n")
    assert oracles.check_incidence_spectrum(bad, 8, complemented=False)

    paper = tmp_path / "p4.txt"
    paper.write_text("2.0000, 1.5000, 0.5000, 0.0000\n")
    assert oracles.check_paper_spectrum(paper, "P4") is None
    paper.write_text("2.0000, 1.5010, 0.5000, 0.0000\n")
    assert oracles.check_paper_spectrum(paper, "P4")


def test_verify_oracle_rejects_wrong_reports(passes):
    p = passes["verify-batch"]
    checked = 0
    for op in p["wl"].ops:
        if op.argv[1] not in ("three-ev", "cor20", "thm21"):
            continue
        entry = json.loads(op.output(p["work"] / "pass").read_text())
        assert op.check(p["work"] / "pass") is None
        facts = workloads._graph_facts(Path(op.argv[3]))()
        label, suite = entry["input"], op.argv[1]
        flipped = copy.deepcopy(entry)
        for r in flipped["report"]["results"]:
            r["applicable"] = not r["applicable"]
        assert oracles.check_verify_report(suite, label, flipped, facts)
        failed = copy.deepcopy(entry)
        failed["report"]["pass"] = False
        assert oracles.check_verify_report(suite, label, failed, facts)
        checked += 1
    assert checked


def test_graph6_writer_matches_networkx():
    nx = pytest.importorskip("networkx")
    import random

    rng = random.Random(3)
    for n in range(1, 20):
        edges = workloads.random_connected(n, 0.4, rng) if n > 1 else []
        g = nx.from_graph6_bytes(oracles.graph6(n, edges).encode())
        assert sorted(tuple(sorted(e)) for e in g.edges()) == sorted(edges)
