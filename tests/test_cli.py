import numpy as np
import pytest

import relubab.agent
from relubab.cli import main
from relubab.harness import gen_random_suite, read_records_csv
from relubab.model import Layer, Network, emit_nnet, toy_network
from relubab.search import VerdictEvent, parse_event_log


@pytest.fixture
def toy_files(tmp_path):
    net_path = tmp_path / "toy.nnet"
    prop_path = tmp_path / "toy.prop"
    net_path.write_text(emit_nnet(toy_network()))
    prop_path.write_text("out 1 <= -0.5\n")
    return net_path, prop_path


def test_verify_command(toy_files, capsys):
    net, prop = toy_files
    assert main(["verify", "--net", str(net), "--prop", str(prop),
                 "--strategy", "babsr"]) == 0
    out = capsys.readouterr().out
    assert "SAT" in out and "witness=" in out


def test_verify_writes_event_log(toy_files, tmp_path, capsys):
    net, prop = toy_files
    log = tmp_path / "run.log"
    assert main(["verify", "--net", str(net), "--prop", str(prop),
                 "--log", str(log)]) == 0
    text = log.read_text()
    assert text.startswith("# query toy\nnode id=0")
    assert "verdict outcome=sat" in text


def test_verify_logs_every_query(tmp_path, capsys):
    # a 3-output network and one manifest point give two queries
    rng = np.random.default_rng(0)
    hidden = Layer(weight=rng.uniform(-1, 1, (4, 2)), bias=np.zeros(4),
                   has_relu=True)
    outs = Layer(weight=rng.uniform(-1, 1, (3, 4)),
                 bias=np.array([0.0, 0.4, -0.2]), has_relu=False)
    net_path = tmp_path / "m.nnet"
    net_path.write_text(emit_nnet(Network(layers=(hidden, outs),
                                          input_lower=-np.ones(2),
                                          input_upper=np.ones(2))))
    manifest = tmp_path / "points.txt"
    manifest.write_text("0.1 0.2 ; 0.05\n")
    log = tmp_path / "run.log"
    assert main(["verify", "--net", str(net_path), "--robust-manifest",
                 str(manifest), "--log", str(log)]) == 0
    labels = [line.split()[0] for line in capsys.readouterr().out.splitlines()
              if line.startswith("rob")]
    assert len(labels) == 2
    text = log.read_text()
    headers = [line for line in text.splitlines() if line.startswith("#")]
    assert headers == [f"# query {label}" for label in labels]
    verdicts = [ev for ev in parse_event_log(text)
                if isinstance(ev, VerdictEvent)]
    assert len(verdicts) == 2


def test_oracle_command(toy_files, capsys):
    net, prop = toy_files
    assert main(["oracle", "--net", str(net), "--prop", str(prop)]) == 0
    assert "SAT" in capsys.readouterr().out


def test_gen_bench_report_pipeline(tmp_path, capsys):
    suite = tmp_path / "suite"
    out = tmp_path / "out"
    assert main(["gen", "--seed", "3", "--count", "3",
                 "--out", str(suite)]) == 0
    assert main(["bench", "--suite-dir", str(suite),
                 "--strategies", "babsr,polarity",
                 "--timeout-s", "60", "--out", str(out)]) == 0
    assert (out / "records.csv").exists()
    assert main(["report", "--records", str(out / "records.csv"),
                 "--budget-ms", "60000", "--out", str(out)]) == 0
    assert (out / "summary.csv").exists()
    assert (out / "curve_babsr.csv").exists()


def test_bench_rejects_unknown_strategy(tmp_path):
    suite = tmp_path / "suite"
    out = tmp_path / "out"
    gen_random_suite(seed=7, count=4, out_dir=suite)
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--suite-dir", str(suite), "--strategies", "sio,babsr",
              "--out", str(out)])
    assert "'sio'" in str(exc.value.code)
    assert not (out / "records.csv").exists()


def test_verify_rejects_truncated_checkpoint(toy_files, tmp_path):
    net, prop = toy_files
    ckpt = tmp_path / "ck.txt"
    relubab.agent.save_checkpoint(
        ckpt, relubab.agent.QNet.create(np.random.default_rng(0)),
        relubab.agent.TrainerConfig())
    ckpt.write_text("".join(ckpt.read_text().splitlines(True)[:6]))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--net", str(net), "--prop", str(prop),
              "--strategy", "agent", "--checkpoint", str(ckpt)])
    assert str(ckpt) in str(exc.value.code)


def test_bench_agent_matches_verify(tmp_path, capsys, monkeypatch,
                                    trained_checkpoint):
    suite = tmp_path / "suite"
    gen_random_suite(seed=7, count=4, out_dir=suite)
    loads = []
    real_load = relubab.agent.load_checkpoint

    def counting_load(path):
        loads.append(path)
        return real_load(path)

    monkeypatch.setattr(relubab.agent, "load_checkpoint", counting_load)
    out = tmp_path / "out"
    assert main(["bench", "--suite-dir", str(suite), "--strategies",
                 "babsr,agent", "--checkpoint", str(trained_checkpoint),
                 "--out", str(out)]) == 0
    assert len(loads) == 1
    benched = {r.query_id: (r.verdict, r.iterations)
               for r in read_records_csv(out / "records.csv")
               if r.strategy == "agent"}
    capsys.readouterr()
    verified = {}
    for net_path in sorted(suite.glob("*.nnet")):
        assert main(["verify", "--net", str(net_path), "--prop",
                     str(net_path.with_suffix(".prop")), "--strategy",
                     "agent", "--checkpoint", str(trained_checkpoint)]) == 0
        label, outcome, its = capsys.readouterr().out.split()[:3]
        verified[label] = (outcome, int(its.split("=")[1]))
    assert len(benched) == 4
    assert benched == verified


def test_robustness_manifest_flow(tmp_path, capsys):
    rng = np.random.default_rng(0)
    from conftest import make_random_net
    from relubab.model import Layer, Network

    hidden = Layer(weight=rng.uniform(-1, 1, (4, 2)), bias=np.zeros(4),
                   has_relu=True)
    outs = Layer(weight=rng.uniform(-1, 1, (3, 4)),
                 bias=np.array([0.0, 0.4, -0.2]), has_relu=False)
    net = Network(layers=(hidden, outs), input_lower=-np.ones(2),
                  input_upper=np.ones(2))
    net_path = tmp_path / "m.nnet"
    net_path.write_text(emit_nnet(net))
    manifest = tmp_path / "points.txt"
    manifest.write_text("0.1 0.2 ; 0.05\n")
    assert main(["verify", "--net", str(net_path),
                 "--robust-manifest", str(manifest),
                 "--comparator", "argmin"]) == 0
    out = capsys.readouterr().out
    assert "comparator=argmin" in out
    assert "group-verdict" in out


def test_normalize_inputs_flag(tmp_path, capsys):
    # a network whose NNet header carries nontrivial input normalization:
    # raw manifest points are mapped into network coordinates on request
    rng = np.random.default_rng(1)
    from relubab.model import Layer, Network, load_nnet

    hidden = Layer(weight=rng.uniform(-1, 1, (3, 2)), bias=np.zeros(3),
                   has_relu=True)
    outs = Layer(weight=rng.uniform(-1, 1, (2, 3)),
                 bias=np.array([0.0, 0.5]), has_relu=False)
    net = Network(layers=(hidden, outs), input_lower=-np.ones(2),
                  input_upper=np.ones(2),
                  normalization=((10.0, 20.0), (-5.0, 10.0), (0.0, 1.0)))
    net_path = tmp_path / "n.nnet"
    net_path.write_text(emit_nnet(net))
    loaded = load_nnet(net_path.read_text())
    np.testing.assert_allclose(loaded.normalize_input([10.0, -5.0]),
                               [0.0, 0.0])
    manifest = tmp_path / "points.txt"
    manifest.write_text("12.0 -4.0 ; 0.1\n")  # normalizes to (0.1, 0.1)
    assert main(["verify", "--net", str(net_path),
                 "--robust-manifest", str(manifest),
                 "--normalize-inputs"]) == 0
    out = capsys.readouterr().out
    assert "rob0000" in out and ("SAT" in out or "UNSAT" in out)
    verified = {label: (outcome, int(its.split("=")[1]))
                for label, outcome, its, *_ in
                (line.split() for line in out.splitlines()
                 if line.startswith("rob"))}
    # bench builds the same queries from the same manifest and flags
    bench_out = tmp_path / "bench"
    assert main(["bench", "--net", str(net_path),
                 "--robust-manifest", str(manifest), "--normalize-inputs",
                 "--strategies", "babsr", "--out", str(bench_out)]) == 0
    benched = {r.query_id: (r.verdict, r.iterations)
               for r in read_records_csv(bench_out / "records.csv")}
    assert benched == verified


def test_train_command(tmp_path, capsys):
    suite = tmp_path / "suite"
    gen_random_suite(seed=29, count=4, out_dir=suite, n_relus=(9, 12))
    out = tmp_path / "agent"
    assert main(["train", "--suite-dir", str(suite), "--out", str(out),
                 "--demo-fraction", "0.25", "--no-tighten",
                 "--demo-epochs", "1", "--demo-steps", "20",
                 "--finetune-epochs", "1", "--finetune-steps", "20",
                 "--max-iterations", "500", "--seed", "5"]) == 0
    ckpts = list(out.glob("checkpoint_*.txt"))
    assert ckpts
    final = out / "checkpoint_final.txt"
    assert final.exists()
    # the trained checkpoint drives verification
    net_path = tmp_path / "toy.nnet"
    prop_path = tmp_path / "toy.prop"
    net_path.write_text(emit_nnet(toy_network()))
    prop_path.write_text("out 1 <= -0.5\n")
    assert main(["verify", "--net", str(net_path), "--prop", str(prop_path),
                 "--strategy", "agent", "--checkpoint", str(final)]) == 0
    assert "SAT" in capsys.readouterr().out
