"""Tests of the benchmark itself: `python3 -m pytest perfbench -q`."""

import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench_trace as bt  # noqa: E402
import bench_workloads as bw  # noqa: E402
import run  # noqa: E402
from crossnum import graphs, pipeline  # noqa: E402
from crossnum.embedding import Emb  # noqa: E402
from crossnum.oracle import oracle_cr  # noqa: E402

K34 = bw.Instance("K3,4", "compressed", "3\nh 7 4\n", 2, True, True)


def test_gate_accepts_true_value_and_rejects_tampered_one():
    assert bw.solve(K34).ok
    cg = graphs.parse_compressed(K34.text)
    report = pipeline.crossing_number(cg)
    assert bw.check(K34, report, None).ok
    tampered = replace(report, value=report.value + 1)
    assert not bw.check(K34, tampered, None).ok
    assert not bw.solve(replace(K34, expect=3)).ok


def test_gate_counts_cap_exception_as_failure():
    big = bw.Instance("K3,n", "compressed", "3\nh 7 1000000\n",
                      bw.zarankiewicz3(10**6))
    out = bw.solve(big, pipeline.PipelineOptions(iqp_cap=10))
    assert not out.ok and out.detail.startswith("IqpCapExceeded")
    ledger = run.Ledger()
    ledger.record([big], [out], [""], "pass 1")
    assert ledger.attempted == 1 and len(ledger.failures) == 1


def test_ledger_counts_changed_report_bytes():
    out = bw.solve(K34)
    ledger = run.Ledger()
    ledger.record([K34], [out], [out.report_json + " "], "pass 2")
    assert len(ledger.failures) == 1


def _bindings():
    owners = [m for n, m in sys.modules.items()
              if n == "crossnum" or n.startswith("crossnum.")] + [Emb]
    return {(id(o), a): v for o in owners for a, v in list(vars(o).items())}


def test_wrappers_leave_patched_functions_unchanged():
    before = _bindings()
    patch = bt.Patched()
    with patch as tracer:
        assert pipeline.enumerate_embeddings is not before[
            (id(pipeline), "enumerate_embeddings")]
        assert bw.solve(K34).ok
    assert patch.restored()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    s = tracer.summary()
    assert s["pipeline.crossing_number"]["calls"] == 1
    assert s["oracle.oracle_cr"]["calls"] == 1
    assert s["enumeration.enumerate_embeddings"]["yields"] > 0


def test_k12n_reference_agrees_with_oracle():
    for n in range(1, 5):
        _, edges = bw.multipartite_edges((1, 2, n))
        assert oracle_cr(graphs.Graph.from_edges(edges)) == bw.zarankiewicz3(n)


def test_traced_counts_repeat_and_answers_match_untraced():
    insts = [i for i in bw.instances("clusterings", 0)
             if i.text.startswith("3\ngx 1 2\nh 5 4")] + [K34]
    _, _, plain = run.run_pass(bw, insts)
    patch = bt.Patched()
    sigs = []
    with patch as tracer:
        for _ in range(2):
            tracer.reset()
            _, _, traced = run.run_pass(bw, insts, tracer)
            sigs.append(bt.count_signature(tracer.summary()))
            assert [o.report_json for o in traced] == \
                [o.report_json for o in plain]
    assert sigs[0] == sigs[1]
    assert all(o.ok for o in plain)


def test_instances_are_seeded_and_relabelling_keeps_the_graph():
    for w in bw.WORKLOADS:
        assert bw.instances(w, 3) == bw.instances(w, 3)
    assert bw.instances("huge-h", 3) != bw.instances("huge-h", 4)
    base = graphs.expand(graphs.CompressedGraph.make(3, [(0, 1)], {7: 1, 3: 1, 5: 1}))
    for i in bw.instances("clusterings", 3):
        cg = graphs.parse_compressed(i.text)
        small = graphs.CompressedGraph.make(cg.k, cg.gx_edges,
                                            {m: 1 for m, _ in cg.h})
        assert graphs.isomorphic(graphs.expand(small), base)


def test_refuses_to_run_without_solver_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "huge-h",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())

