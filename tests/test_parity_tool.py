"""``tools/parity.py``: run list, artifact normalization and the report."""
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "parity.py"


@pytest.fixture(scope="module")
def parity():
    spec = importlib.util.spec_from_file_location("parity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(exit=0, stdout="", stderr="", **artifacts):
    return {"exit": exit, "stdout": stdout, "stderr": stderr, "artifacts": artifacts}


def test_every_command_on_every_config_and_seed(parity, tmp_path):
    configs = [Path("configs/a.cfg"), Path("configs/b.cfg")]
    runs = dict(parity._runs(configs, tmp_path))
    # per seed setting: twirl-check, then each command and the analyze per config
    assert len(runs) == len(parity.SEEDS) * (1 + len(configs) * (len(parity.COMMANDS) + 1))
    assert runs["twirl-check/no-seed"] == ["twirl-check"]
    assert runs["b/seed-101/invariants-sampled"] == [
        "invariants", "--sampled", "--exact-reference", "--config", "configs/b.cfg",
        "--seed", "101"]
    records = tmp_path / "a" / "seed-100" / "campaign-export" / "campaign.records"
    assert runs["a/seed-100/campaign-analyze"] == ["campaign-analyze", "--records", str(records)]


def test_json_artifacts_drop_created_at(parity, tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "x.json").write_text('{\n  "created_at": "now",\n  "value": 1\n}\n')
    (tmp_path / "x.csv").write_text('"created_at": kept\n')
    assert parity._artifacts(tmp_path) == {"sub/x.json": b'{\n  "value": 1\n}\n',
                                           "x.csv": b'"created_at": kept\n'}
    assert parity._artifacts(tmp_path / "missing") == {}


def test_differences_name_each_mismatch(parity):
    parent = {"a": run(stdout="x\n", **{"r.json": b'{"v": 1}\n', "old.csv": b""}),
              "b": run(), "gone": run()}
    change = {"a": run(exit=2, stdout="y\n", **{"r.json": b'{"v": 2}\n', "new.csv": b""}),
              "b": run()}
    assert parity.differences(parent, change) == [
        "a: exit code 0 -> 2",
        "a: stdout differs", "    @@ -1 +1 @@", "    -x", "    +y",
        "a: new.csv written only by the change",
        "a: old.csv written only by the parent",
        "a: r.json differs (9 -> 9 bytes)", "    numbers differ by at most 1",
        "    @@ -1 +1 @@", '    -{"v": 1}', '    +{"v": 2}',
        "gone: run only in the parent",
    ]
    assert parity.differences(parent, parent) == []


def test_differences_give_largest_number_difference(parity):
    # only where the text outside the numbers matches, in CSV and JSON
    parent = {"a": run(**{"x.csv": b"k,n\nfig4,1.5,-2e-3\n", "y.json": b'{"v": 1}\n',
                          "z.csv": b"a,1\n", "w.records": b"1\n"})}
    change = {"a": run(**{"x.csv": b"k,n\nfig4,1.5000000000000002,-2.5e-03\n",
                          "y.json": b'{"w": 1}\n', "z.csv": b"a,1,2\n", "w.records": b"2\n"})}
    assert parity.differences(parent, change) == [
        "a: w.records differs (2 -> 2 bytes)",
        "a: x.csv differs (19 -> 37 bytes)", "    numbers differ by at most 0.0005",
        "    @@ -2 +2 @@", "    -fig4,1.5,-2e-3", "    +fig4,1.5000000000000002,-2.5e-03",
        "a: y.json differs (9 -> 9 bytes)", "    @@ -1 +1 @@", '    -{"v": 1}', '    +{"w": 1}',
        "a: z.csv differs (4 -> 6 bytes)", "    @@ -1 +1 @@", "    -a,1", "    +a,1,2",
    ]
    assert parity._largest_number_difference(b"a 1e-3 b", b"a 0.001 b") == 0.0
    assert parity._largest_number_difference(b"a 1 b", b"a 1 c") is None
