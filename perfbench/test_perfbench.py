"""Tests of the benchmark harness itself (not part of the package's suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import random
from pathlib import Path

import pytest

import gen
import run
from spans import PER_LAYER, SELF_KEYS, Tracer, layer_metrics

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _st():
    from shrinktarget import _scan, bestapprox, cli, construct, criteria, exact, orbit
    return {"cli": cli, "bestapprox": bestapprox, "criteria": criteria,
            "construct": construct, "orbit": orbit, "_scan": _scan, "exact": exact}


def _small_study(out: Path):
    """One quick job of each command the workloads use."""
    st = gen._Study(out)
    a33 = st.transcript("bounded_a33_d3", gen._build(gen._const(33), 3))
    st.add("approx", "small_den", {"theta": "3/1000003,7/1000003", "mode": "simultaneous",
                                   "limit": 20000}, dim=2)
    center, radius = gen.quadratic_convergent(random.Random(0), 70)
    st.add("approx", "big_den", {"theta": center, "radius": radius,
                                 "mode": "simultaneous", "limit": 3000}, dim=1)
    st.add("approx", "linear_d3", {"theta": "123457/1000003,654321/1000003,271828/1000003", "mode": "linear",
                                   "limit": 6}, dim=3)
    st.add("transfer", "transfer_d2", {"theta": "3/101,7/101", "h": "5,17"}, dim=2, rows=2)
    st.add("criteria", "lemma22", {"series": "lemma22", "theta": "3/7", "k_max": 20,
                                   "delta": 1}, terms=20)
    st.add("simulate", "census_big", {"transcript": a33, "refined": 1, "delta": 2,
                                      "n_max": 300, "samples": 2, "precision_bits": 128},
           samples=2)
    st.add("simulate", "window_early", {"transcript": a33, "refined": 1, "delta": 2,
                                        "n_max": 400, "samples": 20, "precision_bits": 64,
                                        "window": "100,400"},
           samples=20, union_bound="1")
    st.finish("small", 0)
    return st.jobs


def _traced_pass(cli, st, jobs, inputs, out):
    tr = Tracer("t")
    tr.install(st)
    try:
        spans, codes = run.run_pass(cli, jobs, inputs, out,
                                    before=lambda job_id: setattr(tr, "job", job_id))
    finally:
        tr.uninstall()
    return spans[-1][1] - spans[0][0], codes, tr


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    gen.generate(workload, 7, tmp_path / "a")
    gen.generate(workload, 7, tmp_path / "b")
    gen.generate(workload, 8, tmp_path / "c")
    assert run.same_tree(tmp_path / "a", tmp_path / "b")
    assert not run.same_tree(tmp_path / "a", tmp_path / "c")


def test_traced_and_untraced_passes_give_identical_digests(tmp_path):
    st = _st()
    jobs = _small_study(tmp_path / "in")
    bench = run.Run(jobs, tmp_path / "in", tmp_path, None)
    _spans, codes = run.run_pass(st["cli"], jobs, tmp_path / "in", tmp_path / "p0")
    bench.check_pass("p0", codes)
    batch, codes, tr = _traced_pass(st["cli"], st, jobs, tmp_path / "in", tmp_path / "p1")
    bench.check_pass("p1", codes)
    assert bench.attempted == 2 * len(jobs)
    assert (bench.failed, bench.problems) == (0, [])
    # the tracer restored every seam
    assert st["cli"].main.__module__ == "shrinktarget.cli"
    m = layer_metrics(tr, batch, Tracer("setup"))
    assert sum(m[k] for k in SELF_KEYS) == pytest.approx(batch, rel=1e-9)
    # transfer h = 5, 17 scans C h^2 = 4 and 48 multipliers; the d = 1
    # lemma22 profile of 3/7 stops at the exact zero q = 7
    assert m["_scan.sim.small_den.multipliers"] == 20000 + 4 + 48 + 7
    assert m["_scan.sim.big_den.multipliers"] == 3000
    assert m["_scan.lin.d3.cells"] == 13 ** 3
    assert m["orbit.census.big.steps"] == 600
    assert m["orbit.window.64.sample_steps"] == 20 * 300
    assert m["exact.compare.calls"] > 0 and m["roots.orbit.calls"] > 0
    assert m["criteria.terms"] == 20


def test_tampered_artifact_counts_as_a_failed_job(tmp_path):
    st = _st()
    jobs = _small_study(tmp_path / "in")[:2]
    bench = run.Run(jobs, tmp_path / "in", tmp_path, None)
    _spans, codes = run.run_pass(st["cli"], jobs, tmp_path / "in", tmp_path / "p0")
    bench.check_pass("p0", codes)
    _spans, codes = run.run_pass(st["cli"], jobs, tmp_path / "in", tmp_path / "p1")
    csv_path = tmp_path / "p1" / jobs[0]["id"] / "approx.csv"
    csv_path.write_text(csv_path.read_text().replace("0.", "1.", 1))
    bench.check_pass("p1", codes)
    assert (bench.attempted, bench.failed) == (4, 1)
    assert "differ from the first pass" in bench.problems[0]


def test_unexpected_exit_code_counts_as_a_failed_job(tmp_path):
    st = _st()
    jobs = _small_study(tmp_path / "in")[:2]
    (tmp_path / "in" / jobs[0]["config"]).write_text("command=approx\ntheta=1/3\n")
    bench = run.Run(jobs, tmp_path / "in", tmp_path, None)
    _spans, codes = run.run_pass(st["cli"], jobs, tmp_path / "in", tmp_path / "p0")
    bench.check_pass("p0", codes)
    assert codes == [2, 0]
    assert (bench.attempted, bench.failed) == (2, 1)
    assert "exit code 2" in bench.problems[0]

    def boom(argv):
        raise RuntimeError("escaped")
    assert run.call_job(boom, []) == -1
    assert run.call_job(lambda argv: (_ for _ in ()).throw(SystemExit(4)), []) == 4


def test_tail_keeps_ten_values_beyond_it():
    values = list(range(40))
    assert run.tail(values) == (29, 75.0)
    assert run.tail([3, 1, 2]) == (3, 100.0)


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads(BENCHMARK.read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "batch_s", "job_p50_s", "job_tail_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
