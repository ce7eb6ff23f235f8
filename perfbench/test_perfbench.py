"""Tests of the benchmark itself:

    python3 -m pytest perfbench -q
"""
import json
import shutil
import subprocess
import sys

import check
import gen
import run
from tracing import Tracer

SEED = run.DEFAULT_SEED
cli = run.import_cli()


def reports(jobs):
    out = []
    for job in jobs:
        cfg = cli.RunConfig(command=job.command, source=job.doc, p=None,
                            guard_enum=run.GUARD_ENUM,
                            guard_iter=run.GUARD_ITER, seed=0, fmt="json")
        rep, code = cli.run(cfg)
        out.append((job, code, cli.render(rep, "json")))
    return out


def first_of(workload, command):
    return next(j for j in gen.Stream(workload, SEED).next_deck()
                if j.command == command)


def test_same_seed_gives_identical_documents():
    for w in run.WORKLOADS:
        a, b = gen.Stream(w, 11), gen.Stream(w, 11)
        docs_a = [j.doc for _ in range(2) for j in a.next_deck()]
        docs_b = [j.doc for _ in range(2) for j in b.next_deck()]
        assert docs_a == docs_b
        other = [j.doc for j in gen.Stream(w, 12).next_deck()]
        assert docs_a[:len(other)] != other


def test_split_stream_never_repeats_a_bundle():
    s = gen.Stream("split", SEED)
    docs = [j.doc for _ in range(4) for j in s.next_deck()]
    assert len(set(docs)) == len(docs)


def test_planted_answers_pass_the_checker():
    jobs = [first_of("discriminants", "discriminants"),
            first_of("split", "split"), first_of("higgs", "flow"),
            first_of("higgs", "cartier")]
    for job, code, text in reports(jobs):
        assert check.check(job.expect, code, text) is None, job.doc


def tampered(text, edit):
    rep = json.loads(text)
    edit(rep)
    return json.dumps(rep)


def test_checker_rejects_tampered_reports():
    (d, dc, dt), (s, sc, st), (f, fc, ft), (c, cc, ct) = reports(
        [first_of("discriminants", "discriminants"),
         first_of("split", "split"), first_of("higgs", "flow"),
         first_of("higgs", "cartier")])

    def off_by_one(rep):
        rep["splitting_type"][0] += 1

    def wrong_delta2(rep):
        names = d.expect["names"]
        wrong = check.parse_qpoly(rep["delta"][1], names)
        mono = (2,) + (0,) * (len(names) - 1)
        wrong[mono] = wrong.get(mono, 0) + 1
        rep["delta"][1] = gen.q_str(wrong, names)

    def not_periodic(rep):
        rep["verdict"] = "no period"

    def wrong_degree(rep):
        rep["degree_V"] += 1

    assert check.check(s.expect, sc, tampered(st, off_by_one))
    assert check.check(d.expect, dc, tampered(dt, wrong_delta2))
    assert check.check(f.expect, fc, tampered(ft, not_periodic))
    assert check.check(c.expect, cc, tampered(ct, wrong_degree))
    # a planted answer never accepts a violation or an input error
    assert check.check(s.expect, 2, st)
    assert check.check({"kind": "decided-or-undecided"}, 4, "{}")
    assert check.check({"kind": "decided-or-undecided"}, 3, "{}") is None


def test_traced_run_renders_the_untraced_digest():
    plain = run.timed_run(cli, "local", SEED, seconds=0.01)
    traced, reference, _ = run.traced_run(cli, "local", SEED)
    assert traced.digest_jobs == plain.digest_jobs >= run.MIN_JOBS
    assert traced.digest.hexdigest() == plain.digest.hexdigest()
    assert traced.failed == reference.failed == plain.failed == 0


def traced_deck(workload):
    tracer = Tracer()
    tracer.install()
    try:
        reports(gen.Stream(workload, SEED).next_deck())
    finally:
        tracer.uninstall()
    return tracer.metrics()


def test_split_inputs_repeat_in_higgs_but_not_in_split():
    assert traced_deck("split")["p1.birkhoff_split.distinct_ratio"] == 1
    m = traced_deck("higgs")
    assert 0 < m["p1.birkhoff_split.distinct_ratio"] < 1
    assert m["flow.detect_periodicity.calls"] > 0


def test_uninstall_restores_every_function():
    import hdrflow.p1 as p1
    import hdrflow.cli as hcli
    before = (p1.birkhoff_split, hcli.birkhoff_split, hcli.run)
    tracer = Tracer()
    tracer.install()
    assert hcli.birkhoff_split is not before[1]
    assert hcli.birkhoff_split is p1.birkhoff_split
    tracer.uninstall()
    assert (p1.birkhoff_split, hcli.birkhoff_split, hcli.run) == before
    assert not tracer.absent


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "split",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
