"""The public surface: the README's library example runs, and `__all__` is what it documents."""

from __future__ import annotations

import re
import types
from pathlib import Path

import numpy as np

import smoothmask

_README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
_LIBRARY = re.search(r"^## Library example\n(.*?)^## ", _README, re.S | re.M).group(1)


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    example = re.search(r"```python\n(.*?)```", _README, re.S).group(1)
    rng = np.random.default_rng(11)
    n = 30
    locs = rng.uniform(-1.0, 1.0, (n, 2))
    x1 = rng.uniform(0.0, 1.0, n)
    y = rng.poisson(np.exp(1.0 + x1))
    (tmp_path / "data.csv").write_text("id,s1,s2,x1,y\n" + "".join(
        f"r{i},{locs[i, 0]},{locs[i, 1]},{x1[i]},{y[i]}\n" for i in range(n)))
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme_example"}
    exec(compile(example, "README.md", "exec"), namespace)
    assert namespace["masked"].n_records == n
    assert namespace["result"].converged
    assert namespace["probs"].shape == (n, n)
    assert capsys.readouterr().out.count("\n") >= 2


def test_star_import_binds_exactly_the_documented_names():
    assert isinstance(smoothmask.__all__, tuple)
    assert len(set(smoothmask.__all__)) == len(smoothmask.__all__)
    namespace: dict = {}
    exec("from smoothmask import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(smoothmask.__all__)
    assert [name for name, value in namespace.items()
            if isinstance(value, types.ModuleType)] == []
    # every public name the package root imports is listed
    public = {name for name, value in vars(smoothmask).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(smoothmask.__all__)
    assert [name for name in smoothmask.__all__ if f"`{name}`" not in _LIBRARY] == []
