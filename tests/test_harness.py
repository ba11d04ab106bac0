import numpy as np
import pytest

import relubab.harness
from relubab.harness import (RunRecord, aggregate, brute_force_verify,
                             cumulative_curve, gen_random_suite,
                             load_instance, read_records_csv, run_suite,
                             write_records_csv)
from relubab.model import Layer, Network
from relubab.query import OutputConstraint, Query, check_witness
from relubab.search import Budget, verify


def affine_only_net():
    return Network(layers=(Layer(np.array([[1.0, -1.0]]), np.array([0.25]),
                                 False),),
                   input_lower=-np.ones(2), input_upper=np.ones(2))


class TestBruteForce:
    def test_toy_example_sat(self, toy, toy_query):
        verdict = brute_force_verify(toy, toy_query)
        assert verdict.outcome == "SAT"
        assert check_witness(toy, toy_query, verdict.witness)
        # patterns in counting order: both-inactive is infeasible, the
        # second pattern (n1 active, n2 inactive) is SAT
        assert verdict.iterations == 2

    def test_toy_unsat_checks_all_patterns(self, toy):
        query = Query(input_lower=toy.input_lower.copy(),
                      input_upper=toy.input_upper.copy(),
                      constraints=(OutputConstraint(np.array([1.0]), -2.5),),
                      label="u")
        verdict = brute_force_verify(toy, query)
        assert verdict.outcome == "UNSAT"
        assert verdict.iterations == 4

    def test_no_relu_single_lp(self):
        net = affine_only_net()
        query = Query(input_lower=net.input_lower.copy(),
                      input_upper=net.input_upper.copy(),
                      constraints=(OutputConstraint(np.array([1.0]), 0.0),),
                      label="affine")
        verdict = brute_force_verify(net, query)
        assert verdict.outcome == "SAT"
        assert verdict.iterations == 1

    def test_relu_guard(self):
        rng = np.random.default_rng(0)
        net = Network(layers=(Layer(rng.uniform(-1, 1, (21, 2)),
                                    np.zeros(21), True),
                              Layer(rng.uniform(-1, 1, (1, 21)),
                                    np.zeros(1), False)),
                      input_lower=-np.ones(2), input_upper=np.ones(2))
        query = Query(input_lower=net.input_lower.copy(),
                      input_upper=net.input_upper.copy(),
                      constraints=(OutputConstraint(np.array([1.0]), 0.0),),
                      label="big")
        with pytest.raises(ValueError):
            brute_force_verify(net, query)


class TestGenRandomSuite:
    def test_reproducible_files(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        gen_random_suite(seed=3, count=4, out_dir=a)
        gen_random_suite(seed=3, count=4, out_dir=b)
        for name in sorted(p.name for p in a.iterdir()):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_shapes_in_range(self):
        instances = gen_random_suite(seed=5, count=20)
        assert len(instances) == 20
        for inst in instances:
            assert 2 <= inst.net.input_dim <= 5
            assert 6 <= inst.net.num_relus <= 12

    def test_files_load_back(self, tmp_path):
        instances = gen_random_suite(seed=7, count=3, out_dir=tmp_path)
        for inst in instances:
            loaded = load_instance(inst.net_path, inst.prop_path)
            x = np.zeros(inst.net.input_dim)
            from relubab.model import evaluate
            np.testing.assert_allclose(evaluate(loaded.net, x),
                                       evaluate(inst.net, x))
            assert loaded.query.constraints[0].bound == \
                inst.query.constraints[0].bound

    def test_sat_fraction_calibrated(self):
        instances = gen_random_suite(seed=11, count=40)
        sats = sum(brute_force_verify(i.net, i.query).outcome == "SAT"
                   for i in instances)
        assert 0.3 <= sats / len(instances) <= 0.7


class TestRunSuite:
    def test_grid_of_records(self, tmp_path):
        instances = gen_random_suite(seed=13, count=2)
        records = run_suite(instances, ["babsr", "polarity", "soi"],
                            Budget(seed=1), out_dir=tmp_path)
        assert len(records) == 6
        assert (tmp_path / "records.csv").exists()
        loaded = read_records_csv(tmp_path / "records.csv")
        assert len(loaded) == 6

    def test_timeout_row(self):
        instances = gen_random_suite(seed=13, count=1)
        (record,) = run_suite(instances, ["babsr"],
                              Budget(timeout_s=1e-9, seed=1))
        assert record.verdict == "TIMEOUT"

    def test_rerun_identical_modulo_wall_time(self):
        instances = gen_random_suite(seed=17, count=3)
        rows = []
        for _ in range(2):
            records = run_suite(instances, ["babsr", "soi"], Budget(seed=2))
            rows.append([(r.query_id, r.strategy, r.verdict, r.iterations,
                          r.splits, r.seed) for r in records])
        assert rows[0] == rows[1]

    def test_records_in_job_order(self, trained_checkpoint, tmp_path):
        # jobs run query by query, each strategy in the order given, and the
        # returned list is the CSV's rows in the same order
        instances = gen_random_suite(seed=19, count=3)
        records = run_suite(instances, ["babsr", "agent"], Budget(seed=3),
                            out_dir=tmp_path, checkpoint=trained_checkpoint)
        assert all(r.verdict in ("SAT", "UNSAT") for r in records)
        assert [(r.query_id, r.strategy) for r in records] == \
            [(inst.query_id, name) for inst in instances
             for name in ("babsr", "agent")]
        assert [r.row() for r in records] == \
            [r.row() for r in read_records_csv(tmp_path / "records.csv")]

    def test_raising_job_becomes_error_row(self, tmp_path, monkeypatch,
                                           capsys):
        real_verify = relubab.harness.verify

        def flaky(net, query, policy, budget, tighten):
            if policy == "soi":
                raise RuntimeError("boom")
            return real_verify(net, query, policy, budget, tighten=tighten)

        monkeypatch.setattr(relubab.harness, "verify", flaky)
        records = run_suite(gen_random_suite(seed=13, count=1),
                            ["soi", "babsr"], Budget(seed=1), out_dir=tmp_path)
        assert records[0].verdict == "ERROR"
        assert records[1].verdict in ("SAT", "UNSAT")
        assert "RuntimeError: boom" in capsys.readouterr().err
        assert [r.row() for r in records] == \
            [r.row() for r in read_records_csv(tmp_path / "records.csv")]

    def test_empty_config_rejected(self):
        with pytest.raises(ValueError):
            run_suite([], ["babsr"])
        with pytest.raises(ValueError):
            run_suite(gen_random_suite(seed=13, count=1), [])

    @pytest.mark.parametrize("strategies", [["babsr", "sio"], ["agent"]],
                             ids=["unknown-name", "agent-no-checkpoint"])
    def test_bad_strategy_raises_before_any_job(self, strategies, tmp_path,
                                                monkeypatch):
        calls = []
        monkeypatch.setattr(relubab.harness, "verify",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError):
            run_suite(gen_random_suite(seed=13, count=2), strategies,
                      Budget(seed=1), out_dir=tmp_path)
        assert calls == []
        assert not (tmp_path / "records.csv").exists()


def rec(query_id, strategy, verdict, ms, iters=10):
    return RunRecord(query_id=query_id, strategy=strategy, verdict=verdict,
                     wall_time_ms=ms, iterations=iters, splits=0, seed=0)


class TestAggregate:
    def test_timeout_counted_at_budget(self):
        records = [rec("a", "s", "SAT", 10), rec("b", "s", "UNSAT", 20),
                   rec("c", "s", "SAT", 30), rec("d", "s", "TIMEOUT", 59000)]
        (summary,) = aggregate(records, budget_ms=60000.0)
        assert summary.sats == 2 and summary.unsats == 1
        assert summary.timeouts == 1
        assert summary.avg_time_ms == pytest.approx((10 + 20 + 30 + 60000) / 4)

    def test_empty_records(self):
        assert aggregate([], budget_ms=1000.0) == []

    def test_common_set_excludes_missing(self):
        records = [rec("a", "s1", "SAT", 10), rec("b", "s1", "SAT", 10),
                   rec("a", "s2", "UNSAT", 40)]
        summaries = {s.strategy: s for s in aggregate(records, 1000.0)}
        assert summaries["s1"].common_queries == 1
        assert summaries["s1"].avg_time_ms == pytest.approx(10.0)
        assert summaries["s1"].sats == 2  # counts still cover every row

    def test_identity_counts(self):
        records = [rec("a", "s", "SAT", 1), rec("b", "s", "UNSAT", 1),
                   rec("c", "s", "TIMEOUT", 1), rec("d", "s", "ERROR", 0)]
        (summary,) = aggregate(records, 1000.0)
        assert summary.sats + summary.unsats + summary.timeouts \
            + summary.errors == len(records)


class TestCumulativeCurve:
    def test_sorted_steps(self):
        records = [rec("a", "s", "SAT", 5), rec("b", "s", "UNSAT", 1),
                   rec("c", "s", "SAT", 3)]
        assert cumulative_curve(records, "s") == [(1, 1), (3, 2), (5, 3)]

    def test_all_timeouts_empty(self):
        records = [rec("a", "s", "TIMEOUT", 100)]
        assert cumulative_curve(records, "s") == []

    def test_identical_times_stack(self):
        records = [rec("a", "s", "SAT", 2), rec("b", "s", "SAT", 2)]
        assert cumulative_curve(records, "s") == [(2, 1), (2, 2)]

    def test_monotone(self):
        rng = np.random.default_rng(3)
        records = [rec(f"q{i}", "s", "SAT", float(rng.uniform(1, 100)))
                   for i in range(25)]
        curve = cumulative_curve(records, "s")
        times = [t for t, _ in curve]
        counts = [c for _, c in curve]
        assert times == sorted(times)
        assert counts == sorted(counts)


class TestCsvRoundTrip:
    def test_write_read(self, tmp_path):
        records = [rec("a", "s", "SAT", 1.5), rec("b", "s", "TIMEOUT", 2.25)]
        path = tmp_path / "records.csv"
        write_records_csv(path, records)
        loaded = read_records_csv(path)
        assert [(r.query_id, r.verdict) for r in loaded] == \
            [("a", "SAT"), ("b", "TIMEOUT")]
