import logging

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


@pytest.mark.parametrize("command, option", [
    ("oracle", ["--no-tighten"]), ("oracle", ["--seed", "3"]),
    ("oracle", ["--timeout-s", "5"]), ("oracle", ["--max-iterations", "5"]),
    ("verify", ["--seed", "1"]), ("bench", ["--workers", "2"]),
], ids=["oracle-no-tighten", "oracle-seed", "oracle-timeout-s",
        "oracle-max-iterations", "verify-seed", "bench-workers"])
def test_commands_reject_options_they_do_not_read(toy_files, capsys, command,
                                                  option):
    net, prop = toy_files
    with pytest.raises(SystemExit) as exc:
        main([command, "--net", str(net), "--prop", str(prop), *option])
    assert exc.value.code == 2  # argparse's usage error
    assert f"unrecognized arguments: {' '.join(option)}" \
        in capsys.readouterr().err


# a network cut after its header lines, and a property with a bad keyword
TRUNCATED_NET = "".join(emit_nnet(toy_network()).splitlines(True)[:5])
BAD_PROP = "output 1 <= 0\n"


@pytest.mark.parametrize("command, suite_dir, target, text", [
    ("verify", False, "toy.nnet", TRUNCATED_NET),
    ("oracle", False, "toy.nnet", TRUNCATED_NET),
    ("bench", True, "toy.nnet", TRUNCATED_NET),
    ("bench", True, "toy.prop", BAD_PROP),
], ids=["verify-net", "oracle-net", "bench-suite-net", "bench-suite-prop"])
def test_malformed_inputs_exit_with_one_line(toy_files, command, suite_dir,
                                             target, text):
    net, prop = toy_files
    (net.parent / target).write_text(text)
    args = ["--suite-dir", str(net.parent)] if suite_dir \
        else ["--net", str(net), "--prop", str(prop)]
    with pytest.raises(SystemExit) as exc:
        main([command, *args])
    message = str(exc.value.code)
    assert str(net.parent / target) in message and "line" in message
    assert "\n" not in message


@pytest.mark.parametrize("command", ["verify", "oracle", "bench", "train"])
@pytest.mark.parametrize("option", ["--net", "--prop", "--robust-manifest"])
def test_missing_inputs_exit_with_one_line(toy_files, tmp_path, command,
                                           option):
    net, prop = toy_files
    missing = str(tmp_path / "nope.txt")
    paths = {"--net": str(net), "--prop": str(prop), option: missing}
    args = [command, *(word for pair in paths.items() for word in pair)]
    if command == "train":
        args += ["--out", str(tmp_path / "agent")]
    with pytest.raises(SystemExit) as exc:
        main(args)
    message = str(exc.value.code)
    assert message.startswith(f"cannot read {missing}: ")
    assert "\n" not in message


@pytest.mark.parametrize("command", ["verify", "bench"])
@pytest.mark.parametrize("name", ["nope.txt", "."], ids=["missing", "dir"])
def test_unreadable_checkpoint_exits_with_one_line(toy_files, tmp_path,
                                                  command, name):
    net, prop = toy_files
    ckpt = str(tmp_path / name)
    option = "--strategy" if command == "verify" else "--strategies"
    with pytest.raises(SystemExit) as exc:
        main([command, "--net", str(net), "--prop", str(prop), option,
              "agent", "--checkpoint", ckpt])
    message = str(exc.value.code)
    assert message.startswith(f"cannot read {ckpt}: ")
    assert "\n" not in message


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


# identical output rows tie at every point
TIED = Network(layers=(Layer(np.array([[1.0], [1.0]]), np.zeros(2), False),),
               input_lower=-np.ones(1), input_upper=np.ones(1))


@pytest.mark.parametrize("net, source, text, reason", [
    (toy_network(), "--prop", "in 5 >= 0\nout 1 <= 0\n", "out of range"),
    (toy_network(), "--robust-manifest", "0.1 -0.2 ; 0.05\n",
     "the network has 1"),
    (TIED, "--robust-manifest", "0.3 ; 0.05\n", "tie"),
], ids=["property-format", "one-output", "tie"])
def test_bad_queries_exit_with_one_line(tmp_path, net, source, text, reason):
    net_path = tmp_path / "net.nnet"
    net_path.write_text(emit_nnet(net))
    path = tmp_path / "queries.txt"
    path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--net", str(net_path), source, str(path)])
    message = str(exc.value.code)
    assert reason in message and "\n" not in message


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
    # one progress line per pretraining and fine-tuning epoch
    progress = [ln for ln in capsys.readouterr().out.splitlines()
                if ln.startswith("phase=")]
    assert len(progress) == 2
    fields = [dict(kv.split("=") for kv in ln.split()) for ln in progress]
    assert [(f["phase"], f["epoch"], f["steps"]) for f in fields] == [
        ("pretrain", "0", "20"), ("finetune", "0", "40")]
    for f in fields:
        assert set(f) == {"phase", "epoch", "steps", "loss", "lambda",
                          "beta", "epsilon", "buffer", "episodes", "sat",
                          "unsat", "timeout"}
        assert np.isfinite(float(f["loss"]))
    assert (fields[0]["lambda"], fields[0]["beta"]) == ("1", "0.4")
    assert fields[0]["episodes"] == "0"
    episodes = int(fields[1]["episodes"])
    assert episodes >= 1
    assert sum(int(fields[1][k]) for k in ("sat", "unsat", "timeout")) \
        == episodes
    assert int(fields[1]["buffer"]) >= int(fields[0]["buffer"])
    # the handler is the command's; the library stays silent
    assert not logging.getLogger("relubab.train").handlers
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
