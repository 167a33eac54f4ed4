"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench
"""

import contextlib
import io
import json
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from lensdirac import cli  # noqa: E402


# ------------------------------------------------------------- query mix

def test_query_plan_is_a_pure_function_of_the_seed():
    pool = workloads.load_pool()
    first = workloads.query_plan(7, pool)
    assert first == workloads.query_plan(7, workloads.load_pool())
    other = workloads.query_plan(8, pool)
    assert [q.argv for q in first] != [q.argv for q in other]
    assert len(first) >= 200
    # every seed draws the same number of queries from each stratum
    assert Counter(q.stratum for q in first) == Counter(q.stratum for q in other)
    kinds = Counter(q.argv[0] for q in first)
    assert set(kinds) == {"spectrum", "isospec", "family", "oracle"}


def test_pool_positives_carry_the_flag_they_need():
    """81:1,8,19,37 and 81:1,8,26,37 share a census family but are only
    isospectral after reversing one orientation: strict isospec exits 1,
    so a positive drawn from that family must carry --unoriented."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["isospec", "81:1,8,19,37", "81:1,8,26,37"]) == 1
        assert cli.main(["isospec", "--unoriented",
                         "81:1,8,19,37", "81:1,8,26,37"]) == 0
    pool = workloads.load_pool()
    positives = [c for s in pool["strata"] if s["name"].endswith("/pos")
                 for variants in s["slots"] for c in variants]
    assert positives and all(c["rc"] == 0 for c in positives)
    for c in positives:
        if set(c["argv"][-2:]) == {"81:1,8,19,37", "81:1,8,26,37"}:
            assert "--unoriented" in c["argv"]


# ----------------------------------------------------------------- spans

def test_self_time_subtracts_direct_children():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 9.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    a = tracer.open("a")
    b = tracer.open("b")
    c = tracer.open("c")
    tracer.close(c)      # c: 2..4
    tracer.close(b)      # b: 1..5, child c covers 2
    d = tracer.open("d")
    tracer.close(d)      # d: 6..9
    tracer.close(a)      # a: 0..10, children b and d cover 4 + 3
    got = tracer.summary()
    self_s = {k: v["self_s"] for k, v in got["by_name"].items()}
    assert self_s == {"a": 3.0, "b": 2.0, "c": 2.0, "d": 3.0}
    assert got["root_s"] == 10.0 == sum(self_s.values())


def test_wrapped_calls_nest_and_restore():
    ticks = iter(float(t) for t in range(100))
    tracer = spans.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    got = tracer.summary()["by_name"]
    assert got["outer"]["calls"] == 1 and got["inner"]["calls"] == 2
    assert got["outer"]["self_s"] == got["outer"]["total_s"] - 2.0

    import lensdirac.search as search
    original = search.fingerprint
    restore = spans.install(spans.Tracer())
    try:
        assert search.fingerprint is not original
        assert search.fingerprint.__wrapped__ is original
    finally:
        restore()
    assert search.fingerprint is original


# ----------------------------------------------------------------- gates

def _search(tmp_path, q):
    census = workloads.Census(7, q, q)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(census.argv(tmp_path)) == 0
    return census


def test_census_gate_flags_a_tampered_family_list(tmp_path):
    census = _search(tmp_path, 49)
    listed = [[((1, 6, 8, 22), None), ((1, 6, 8, 20), None)]]
    assert workloads.census_failures(census, tmp_path, {7: {49: listed}}) == []
    # a family the table does not list
    assert workloads.census_failures(census, tmp_path, {7: {}}) == [49]
    # a member swapped for a class outside the family
    wrong = [[((1, 6, 8, 22), None), ((1, 6, 8, 15), None)]]
    assert workloads.census_failures(census, tmp_path, {7: {49: wrong}}) == [49]
    # a saved results file with a family removed
    json_path, _ = census.files(tmp_path)
    doc = json.loads(json_path.read_text())
    doc["censuses"][0]["families"] = []
    json_path.write_text(json.dumps(doc))
    assert workloads.census_failures(census, tmp_path, {7: {49: listed}}) == [49]


def test_query_gate_flags_a_wrong_exit_code():
    argv = ("isospec", "49:1,6,8,22", "49:1,6,8,29")
    text = "isospectral\n"
    q = workloads.Query("isospec/n7/pos", argv, 0,
                        workloads.output_digest(argv, text))
    assert workloads.query_ok(q, 0, text)
    assert not workloads.query_ok(q, 1, text)
    assert not workloads.query_ok(q, 0, "not isospectral\n")


def test_oracle_digest_ignores_float_diagnostics():
    argv = ("oracle", "-q", "7", "-s", "1,2")
    a = "ok: L(7; 1,2) k <= 40  max |delta| 1.968e-41  max imag 0.000e+00  tol 1.0e-06\n"
    b = "ok: L(7; 1,2) k <= 40  max |delta| 3.1e-40  max imag 1.0e-45  tol 1.0e-06\n"
    assert workloads.output_digest(argv, a) == workloads.output_digest(argv, b)
    assert workloads.output_digest(argv, a) != workloads.output_digest(
        argv, a.replace("k <= 40", "k <= 30"))


# ---------------------------------------------------------------- run loop

def test_times_are_scaled_to_the_nominal_probe_speed():
    """A sample on a host at half speed, where the probe takes twice as
    long, reports the same times as one at full speed."""
    def sample(slow):
        probe_s = [run.PROBE_NOMINAL_S * slow * f for f in (0.9, 1.0, 1.3)]
        return {"wall_s": 2.0 * slow, "cpu_s": 3.0 * slow, "items": 10,
                "peak_rss_mb": 100.0, "op_s": [0.5 * slow, 1.5 * slow],
                "speed": run.host_speed(probe_s)}

    fast = run.end_to_end([sample(1.0)], [0.2])
    assert fast == run.end_to_end([sample(2.0)], [0.2])
    assert fast["wall_s"] == (2.0, "s") and fast["cpu_s"] == (3.0, "s")
    assert fast["items_per_s"] == (5.0, "1/s")
    assert fast["op_p50_ms"] == (1000.0, "ms")


def test_timed_out_sample_is_not_a_failed_operation(tmp_path, monkeypatch,
                                                    capsys):
    (tmp_path / "src" / "lensdirac").mkdir(parents=True)
    (tmp_path / "src" / "lensdirac" / "__init__.py").write_text("")

    def spawn(*args, timeout, **kwargs):
        raise run.SampleTimeout(f"timeout after {timeout:.0f} s")

    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "spawn", spawn)
    monkeypatch.setattr(sys, "argv", ["run.py", "--workload", "queries",
                                      "--seed", "1", "--seconds", "1"])
    assert run.main() == 3
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1  # the env line, no result
    env = json.loads(lines[0])
    assert env["timeout"].startswith("timeout after")
    assert env["fail_ratio"] == 0
