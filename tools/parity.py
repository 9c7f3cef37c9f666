"""Compare what two checkouts of this repository write from the command line.

    python tools/parity.py PARENT CHANGE

In each checkout, runs every ``topoprobe`` command on each shipped config
(``configs/*.cfg``) with ``--seed`` 100, 101 and 102 and with no ``--seed``,
``campaign-analyze`` on each ``campaign-export``, and ``twirl-check`` with the
same seeds: one subprocess per command, ``python -m topoprobe.cli`` with the
checkout's ``src`` on ``PYTHONPATH``. Then compares, run by run, the exit
codes, stdout and stderr (the output directory and the checkout path replaced
by placeholders) and every artifact byte for byte, with the ``created_at``
lines of JSON artifacts dropped. Lists each difference and exits 1 if there
is any, else exits 0. Standard library only.
"""
from __future__ import annotations

import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (None, 100, 101, 102)
COMMANDS = {
    "ground-state": ["ground-state"],
    "invariants-exact": ["invariants", "--exact"],
    "invariants-sampled": ["invariants", "--sampled", "--exact-reference"],
    "sweep": ["sweep"],
    "adiabatic": ["adiabatic"],
    "error-scan": ["error-scan"],
    "campaign-export": ["campaign-export"],
}
TIMEOUT_S = 900
DIFF_LINES = 12


def _runs(configs: list[Path], work: Path):
    """(run name, command arguments without --out) in run order."""
    for seed in SEEDS:
        flags = [] if seed is None else ["--seed", str(seed)]
        tag = "no-seed" if seed is None else f"seed-{seed}"
        yield f"twirl-check/{tag}", ["twirl-check", *flags]
        for config in configs:
            for name, command in COMMANDS.items():
                yield f"{config.stem}/{tag}/{name}", [*command, "--config", str(config), *flags]
            records = work / config.stem / tag / "campaign-export" / "campaign.records"
            yield f"{config.stem}/{tag}/campaign-analyze", ["campaign-analyze", "--records",
                                                            str(records)]


def _artifacts(out: Path) -> dict[str, bytes]:
    files = {}
    for path in sorted(out.rglob("*")) if out.is_dir() else ():
        if path.is_file():
            data = path.read_bytes()
            if path.suffix == ".json":
                data = b"".join(line for line in data.splitlines(keepends=True)
                                if not line.lstrip().startswith(b'"created_at":'))
            files[str(path.relative_to(out))] = data
    return files


def run_checkout(checkout: Path, work: Path) -> dict[str, dict]:
    """Run every command of one checkout with outputs under ``work``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    configs = sorted((checkout / "configs").glob("*.cfg"))
    results = {}
    for name, args in _runs(configs, work):
        out = work / name
        proc = subprocess.run([sys.executable, "-m", "topoprobe.cli", *args, "--out", str(out)],
                              cwd=work, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)

        def clean(text):
            return text.replace(str(work), "<out>").replace(str(checkout), "<checkout>")

        results[name] = {"exit": proc.returncode, "stdout": clean(proc.stdout),
                         "stderr": clean(proc.stderr), "artifacts": _artifacts(out)}
    return results


def _text_diff(old: str, new: str) -> list[str]:
    lines = list(difflib.unified_diff(old.splitlines(), new.splitlines(), "parent", "change",
                                      lineterm="", n=0))[2:]
    return lines[:DIFF_LINES] + ([f"... {len(lines) - DIFF_LINES} more lines"]
                                 if len(lines) > DIFF_LINES else [])


def differences(parent: dict[str, dict], change: dict[str, dict]) -> list[str]:
    found = []
    for name in sorted(parent.keys() | change.keys()):
        if name not in parent or name not in change:
            found.append(f"{name}: run only in the {'change' if name in change else 'parent'}")
            continue
        old, new = parent[name], change[name]
        if old["exit"] != new["exit"]:
            found.append(f"{name}: exit code {old['exit']} -> {new['exit']}")
        for stream in ("stdout", "stderr"):
            if old[stream] != new[stream]:
                found.append(f"{name}: {stream} differs")
                found.extend("    " + line for line in _text_diff(old[stream], new[stream]))
        for artifact in sorted(old["artifacts"].keys() | new["artifacts"].keys()):
            a, b = old["artifacts"].get(artifact), new["artifacts"].get(artifact)
            if a is None or b is None:
                side = "change" if a is None else "parent"
                found.append(f"{name}: {artifact} written only by the {side}")
            elif a != b:
                found.append(f"{name}: {artifact} differs ({len(a)} -> {len(b)} bytes)")
                if artifact.endswith((".json", ".csv")):
                    found.extend("    " + line for line in _text_diff(a.decode(), b.decode()))
    return found


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (Path(arg).resolve() for arg in argv)
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        results = {}
        for side, checkout in (("parent", parent), ("change", change)):
            print(f"running {checkout}", file=sys.stderr, flush=True)
            work = Path(tmp) / side
            work.mkdir()
            results[side] = run_checkout(checkout, work)
    found = differences(results["parent"], results["change"])
    runs = len(results["change"])
    artifacts = sum(len(run["artifacts"]) for run in results["change"].values())
    for line in found:
        print(line)
    print(f"{runs} runs, {artifacts} artifacts: "
          f"{'identical' if not found else 'differences listed above'}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
