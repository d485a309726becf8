"""scripts/run_all.py runs the desk configs that ``--only`` names through the
harness into ``--out``, with the bytes that tests/test_golden.py pins, and
writes nothing anywhere else."""

import importlib.util
from pathlib import Path

import pytest

from test_golden import GOLDEN, _digest

_REPO = Path(__file__).resolve().parents[1]


def _main():
    spec = importlib.util.spec_from_file_location("run_all", _REPO / "scripts" / "run_all.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def _tree():
    """Every file of the checkout outside .git, with its modification time."""
    return {(path, path.stat().st_mtime_ns)
            for top in _REPO.iterdir() if top.name != ".git"
            for path in ([top] if top.is_file() else top.rglob("*")) if path.is_file()}


def test_run_all_writes_the_golden_artifacts_of_the_configs_it_is_given(tmp_path, monkeypatch,
                                                                         capsys):
    main = _main()
    # a relative default output path would land in the working directory
    cwd, out = tmp_path / "cwd", tmp_path / "out"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    before = _tree()
    assert main(["--out", str(out), "--only", "gap", "connect"]) == 0
    # one status line per config, after the harness's own summary lines
    status = [line.split()[:2] for line in capsys.readouterr().out.splitlines()
              if line.startswith("[")]
    assert status == [["[ok]", "connect"], ["[ok]", "gap"]]
    got = {f"{d.name}/{p.name}": _digest(p)
           for d in sorted(out.iterdir()) for p in sorted(d.iterdir())}
    assert got == {k: v for k, v in GOLDEN.items() if k.split("/")[0] in ("gap", "connect")}
    with pytest.raises(SystemExit) as exit_:
        main(["--out", str(out), "--only", "nosuch"])
    assert exit_.value.code == 2
    assert "no config for: nosuch" in capsys.readouterr().err
    assert list(cwd.iterdir()) == [] and sorted(p.name for p in out.iterdir()) == ["connect", "gap"]
    assert _tree() == before
