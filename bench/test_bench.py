"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads as wl  # noqa: E402


def _parse_table(text: str) -> tuple[list[str], dict[tuple[str, str], str]]:
    elements, product = [], {}
    for line in text.splitlines():
        head, _, rest = line.partition(" ")
        if head == "elements":
            elements = rest.split()
        else:
            name, _, cells = rest.partition(" : ")
            for b, c in zip(elements, cells.split()):
                product[(name, b)] = c
    return elements, product


def test_seeded_tables_are_reproducible_relabelings():
    g = wl.symmetric_3()
    a, b = wl.seeded_table(g, 7), wl.seeded_table(g, 7)
    assert a == b
    assert wl.seeded_table(g, 8).text != a.text
    elements, product = _parse_table(a.text)
    assert sorted(elements) == sorted(a.names)
    for x in range(g.order):
        for y in range(g.order):
            assert product[(a.names[x], a.names[y])] == a.names[g.table[x][y]]


def test_closed_forms():
    assert wl.nerve_horns(5, 3) == 577
    assert wl.nerve_horns(3, 3) == 137
    assert wl.simplex_product_generators(1, 1) == [4, 5, 2]
    counts = wl.simplex_product_generators(4, 4)
    assert sum(counts) == 10271 and counts[8] == 70
    assert wl.group_homology(wl.cyclic_group(5), 5) == [(1, []), (0, [5]), (0, []), (0, [5]), (0, [])]
    assert sorted(wl.symmetric_3().element_orders()) == [1, 2, 2, 2, 3, 3]


def test_pi_check_rejects_a_wrong_group():
    z6_as_s3 = wl.pi_check(wl.symmetric_3())
    table = [[(a + b) % 6 for b in range(6)] for a in range(6)]
    doc = {"order": 6, "closure_needed": False, "table": table, "basepoint_class": 0}
    assert z6_as_s3(0, doc) == "abelianness differs from the group"
    assert wl.pi_check(wl.cyclic_group(6))(0, doc) is None


def _runner(tmp_path, deadline=1e9):
    return run.Runner(tmp_path, deadline)


def test_planted_wrong_expectation_counts_as_failed(tmp_path):
    right = wl.Job(
        "z2 homology",
        ["homology", "fixtures/nerve_z2.sset", "--max-dim", "4"],
        wl.homology_check(wl.group_homology(wl.cyclic_group(2), 4)),
    )
    planted = wl.Job(
        "z2 homology, planted Z/3",
        right.args,
        wl.homology_check([(1, []), (0, [3]), (0, []), (0, [2])]),
    )
    runner = _runner(tmp_path)
    p = run.run_jobs(runner, [right, planted], run.cli_prefix)
    assert [o.failure is None for o in p.outcomes] == [True, False]
    assert runner.attempted == 2 and len(runner.failures) == 1
    metrics = run.end_to_end([p], [p], runner)
    assert metrics["ok_ratio"][0] == 0.5


def test_time_cap_kills_and_counts(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "JOB_CAP_S", 0.05)
    job = wl.Job("slow", ["homology", "fixtures/nerve_z2.sset", "--max-dim", "4"], wl._expect(0))
    runner = _runner(tmp_path)
    outcome = run.run_jobs(runner, [job], run.cli_prefix).outcomes[0]
    assert outcome.failure.startswith("killed at the time cap")


def test_jobs_after_the_deadline_are_failed_not_run(tmp_path):
    job = wl.Job("late", ["euler", "fixtures/sphere2.sset"], wl._expect(0, euler=2))
    runner = _runner(tmp_path, deadline=0.0)
    outcome = run.run_jobs(runner, [job], run.cli_prefix).outcomes[0]
    assert outcome.code == -1 and runner.failures == ["late: not started: run deadline passed"]


def test_self_time_subtracts_children(tmp_path):
    doc = {
        "spans": [["cli.main", -1, 0.0, 10.0], ["homotopy.pi", 0, 1.0, 9.0],
                  ["kan.fill", 1, 2.0, 5.0], ["kan.fill", 1, 6.0, 7.0]],
        "counts": {"core.face_calls": 12},
    }
    (tmp_path / "0.json").write_text(json.dumps(doc))
    spans, counts = run.read_traces(tmp_path)
    assert spans["homotopy.pi"]["self"] == 4.0
    assert spans["kan.fill"] == {"total": 4.0, "self": 4.0, "max": 3.0, "calls": 2}
    assert counts == {"core.face_calls": 12}


def test_verdicts():
    before = [10.0, 10.2, 9.9, 10.1, 10.0]
    assert run.verdict(before, [7.0, 7.1, 6.9, 7.0, 7.2], "lower", 0.1) == "better"
    assert run.verdict(before, [12.0, 12.1, 11.9, 12.2, 12.0], "lower", 0.1) == "worse"
    assert run.verdict(before, [10.1, 10.0, 10.2, 9.9, 10.1], "lower", 0.1) == "same"
    assert run.verdict(before, [5.0, 15.0, 8.0, 12.0, 10.0], "lower", 0.1) == "unresolved"
    assert run.verdict([1.0, 1.0], [0.5, 0.5], "higher", 0.01) == "worse"


def test_benchmark_json_names_every_metric_with_its_unit():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    fake = run.Runner(Path("."), 0.0)
    fake.attempted = 1
    e2e = run.end_to_end([], [], fake)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(k, u) for k, (_, u) in e2e.items()]
    layers = run.per_layer({}, {}, 0.0, 0.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(k, u) for k, (_, u) in layers.items()]
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_compare_prints_a_verdict_per_metric(tmp_path, capsys):
    def record(wall):
        metrics = {"wall_s": wall, "cpu_s": wall, "job_p50_ms": 200.0, "peak_rss_mb": 30.0,
                   "ok_ratio": 1.0, "setup_s": 1.0}
        return json.dumps({"workload": "horn", "trace": 0,
                           "metrics": {k: {"value": v} for k, v in metrics.items()}})

    before, after = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    before.write_text("\n".join(record(w) for w in (3.0, 3.1, 2.9, 3.0)) + "\n")
    after.write_text("\n".join(record(w) for w in (1.5, 1.6, 1.4, 1.5)) + "\n")
    assert run.compare(str(before), str(after)) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "horn: 4 runs before, 4 runs after"
    assert "better" in out[1] and "x0.500" in out[1]
    assert out[4].split()[0] == "peak_rss_mb" and "same" in out[4]
