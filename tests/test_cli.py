import numpy as np
import pytest

from relubab.cli import main
from relubab.harness import gen_random_suite, read_records_csv
from relubab.model import emit_nnet, toy_network


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
    assert text.startswith("node id=0")
    assert "verdict outcome=sat" in text


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
