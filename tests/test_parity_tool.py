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
        "a: r.json differs (9 -> 9 bytes)", "    @@ -1 +1 @@", '    -{"v": 1}', '    +{"v": 2}',
        "gone: run only in the parent",
    ]
    assert parity.differences(parent, parent) == []
