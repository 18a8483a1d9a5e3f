"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest benchmarks
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

import jobs
import oracle
import run
import spans

#: The layers each workload is meant to stress.
STRESSED = {
    "expand": {"cli", "series", "closedform"},
    "table": {"cli", "paths"},
    "guess": {"cli", "holonomic", "linalg"},
    "check": set(spans.LAYERS),
}


@pytest.fixture(scope="module")
def cli():
    return run.load_cli()


@pytest.fixture(scope="module")
def traced():
    return {w: run.run_workload(w, 3, 0.0, 1, sizes=jobs.TINY) for w in jobs.WORKLOADS}


def installed_wrappers() -> list[str]:
    """Names of package callables that are currently wrapped."""
    names = [f"{cls.__name__}.{attr}" for cls, attr, _ in spans.public_callables()[1]
             if hasattr(getattr(vars(cls)[attr], "__func__", vars(cls)[attr]), "__wrapped__")]
    for module in spans._package_modules():
        for attr, value in vars(module).items():
            if hasattr(value, "__wrapped__"):
                names.append(f"{module.__name__}.{attr}")
    return names


def _tiny_end_to_end(workload: str) -> dict:
    return run.run_workload(workload, 3, 0.0, 0, sizes=jobs.TINY)


def test_seed_fixes_the_jobs():
    def first(seed):
        return [j.argv for j in next(jobs.rounds("table", seed))]

    assert first(5) == first(5)
    assert first(5) != first(6)


def test_expand_never_repeats_a_kernel_order():
    played = jobs.rounds("expand", 9)
    orders = []
    for _ in range(10):
        for job in next(played):
            terms = int(job.argv[job.argv.index("--terms") + 1])
            orders.append(terms + 1 if job.argv[0] == "open" else terms)
    assert len(orders) == len(set(orders))


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_stressed_layers_record_calls(traced, workload):
    calls = Counter(name.split(".", 1)[0] for name, *_ in traced[workload]["spans"])
    assert all(calls[layer] > 0 for layer in STRESSED[workload])


def test_table_uses_no_closed_form(traced):
    named = {f"{e},{o}" for e, o in jobs.MODEL_WEIGHTS.values()}
    played = jobs.rounds("table", 9)
    for _ in range(20):
        for job in next(played):
            assert job.argv[job.argv.index("--weights") + 1] not in named
    layers = {name.split(".", 1)[0] for name, *_ in traced["table"]["spans"]}
    assert "closedform" not in layers


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_self_times_and_unattributed_add_up_to_wall(traced, workload):
    m = traced[workload]["metrics"]
    total = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS) + m["trace.unattributed_s"]
    assert total == pytest.approx(m["trace.wall_s"], rel=1e-9, abs=1e-9)
    assert m["trace.unattributed_s"] >= 0


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_traced_run_reports_every_declared_metric(traced, workload):
    with open(run.ROOT / "BENCHMARK.json") as f:
        declared = [m["name"] for m in json.load(f)["per_layer"]]
    assert set(declared) <= set(traced[workload]["metrics"])


def test_untraced_run_reports_all_six_end_to_end_metrics():
    with open(run.ROOT / "BENCHMARK.json") as f:
        declared = {m["name"] for m in json.load(f)["end_to_end"]}
    six = declared | set(run.UNDECLARED)
    assert len(six) == 6
    assert six <= set(_tiny_end_to_end("expand")["metrics"])


def test_tracer_wraps_every_holder_and_restores(cli):
    from motzkin_parity import closedform, holonomic, linalg, series

    originals = (cli.f0_series, holonomic.nullspace, series.Series.__mul__)
    with spans.Tracer():
        assert cli.f0_series is closedform.f0_series
        assert cli.f0_series.__wrapped__ is originals[0]
        assert holonomic.nullspace is linalg.nullspace
        assert series.Series.__mul__.__wrapped__ is originals[2]
        assert series.Series.__rmul__ is series.Series.__mul__
    assert (cli.f0_series, holonomic.nullspace, series.Series.__mul__) == originals
    assert installed_wrappers() == []


def test_untraced_run_installs_no_wrappers(cli, monkeypatch):
    seen = []
    real = cli.run

    def probe(argv):
        seen.append(installed_wrappers())
        return real(argv)

    monkeypatch.setattr(cli, "run", probe)
    result = _tiny_end_to_end("guess")
    assert seen and all(names == [] for names in seen)
    assert "spans" not in result


def test_corrupted_output_is_counted_as_failed(cli, monkeypatch):
    real = cli.run

    def corrupt(argv):
        import io
        from contextlib import redirect_stdout

        buf = io.StringIO()
        with redirect_stdout(buf):
            code = real(argv)
        text = buf.getvalue()
        print(text.replace("5", "7", 1) if "5" in text else text + "0\n", end="")
        return code

    monkeypatch.setattr(cli, "run", corrupt)
    result = _tiny_end_to_end("expand")
    assert result["failed"] == result["attempted"]
    assert not result["correct"]
    assert all(r["status"] == "wrong" for r in result["jobs"])


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_only_the_terms_17_jobs_may_fail(workload):
    result = _tiny_end_to_end(workload)
    assert result["correct"]
    failed = {tuple(r["argv"]) for r in result["jobs"] if r["status"] != "ok"}
    assert failed <= {jobs.DERIVE_17, jobs.PIPELINE_17}
    assert result["metrics"]["failed_ratio"] == result["failed"] / result["attempted"]


def test_metrics_cover_only_the_leading_rounds(monkeypatch):
    monkeypatch.setitem(jobs.MIN_ROUNDS, "table", 1)
    monkeypatch.setattr(run, "setup_seconds", lambda: 0.1)
    # half a second of job time takes many tiny rounds
    result = run.run_workload("table", 3, 0.5, 0, sizes=jobs.TINY)
    measured = [r for r in result["jobs"] if r["round"] == 0]
    assert result["attempted"] > len(measured)
    assert result["samples"]["job_p50_s"]["n"] == len(measured)
    assert result["samples"]["wall_s"]["n"] == len(measured)
    assert result["metrics"]["wall_s"] == pytest.approx(sum(r["seconds"] for r in measured))
    assert result["metrics"]["peak_rss_mib"] == measured[-1]["maxrss_mib"]


def test_result_records_jobs_and_environment():
    result = _tiny_end_to_end("table")
    assert {"python", "nproc", "cpu", "commit", "seed"} <= set(result["env"])
    assert result["samples"]["job_tail_s"]["n"] == result["attempted"]
    record = result["jobs"][0]
    assert {"argv", "exit", "sha256"} <= set(record)
    assert len(record["sha256"]) == 64


def test_oracle_dp_matches_known_counts():
    # OEIS A176677, model A paths returning to height 0
    assert oracle.walk_counts(1, 2, 10, 0) == [1, 1, 2, 5, 14, 41, 123, 375, 1158, 3615]
    assert oracle.walk_counts(1, 2, 5, None) == [1, 2, 6, 19, 62]
    assert oracle.walk_counts(0, 0, 7, 1) == [0, 1, 0, 2, 0, 5, 0]


def test_oracle_rejects_a_wrong_relation():
    a = oracle.walk_counts(1, 2, 60, 0)
    good = {"coeff_polys": [["4", "4"], ["4"], ["-32", "-9"], ["28", "6"], ["-6", "-1"]],
            "rhs": [], "valid_from": 0}
    bad = dict(good, coeff_polys=[["4", "4"], ["4"], ["-32", "-9"], ["28", "6"], ["-6", "-2"]])
    assert oracle.recurrence_holds(good, a)
    assert not oracle.recurrence_holds(bad, a)
    quadratic = [["-1", "2"], ["1", "-3", "2"], ["0", "0", "-1", "1"]]
    assert oracle.algebraic_holds(quadratic, a)
    assert not oracle.algebraic_holds([["-1", "2"], ["1", "-3", "2"], ["0", "0", "-1", "2"]], a)
    assert not oracle.algebraic_holds([[], []], a)


def test_oracle_reads_bfiles_coefficient_by_coefficient():
    spec = ("sequence", 1, 2, 0, 4)
    assert oracle.verify(spec, "0 1\n1 1\n2 2\n3 5\n") is None
    assert "coefficient 3" in oracle.verify(spec, "0 1\n1 1\n2 2\n3 6\n")
    assert oracle.verify(spec, "0 1\n1 1\n2 2\n") is not None
