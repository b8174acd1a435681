"""The package namespace is the union of its modules' public names."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import zittersim
from zittersim import cli, entropy, errors, kinematics, scales, simulate, verification

MODULES = (errors, kinematics, entropy, simulate, scales, verification)
README = Path(__file__).resolve().parent.parent / "README.md"
PYPROJECT = README.with_name("pyproject.toml")
BENCHMARK = README.with_name("BENCHMARK.json")
SRC = Path(zittersim.__file__).resolve().parent


def test_all_is_version_plus_the_modules_all():
    names = {"__version__"}.union(*(m.__all__ for m in MODULES))
    assert sorted(zittersim.__all__) == sorted(names)


def test_version_has_one_source():
    # the package metadata reads __version__, which every manifest records
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads(PYPROJECT.read_text())
    assert "version" not in pyproject["project"] and "version" in pyproject["project"]["dynamic"]
    assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "zittersim.__version__"}


def test_every_exported_name_resolves():
    owner = {name: m for m in MODULES for name in m.__all__}
    for name in zittersim.__all__:
        value = getattr(zittersim, name)
        if name != "__version__":
            assert value is getattr(owner[name], name), name


def test_shared_constants_are_assigned_once_in_the_package():
    # the parser and the manifests read them without importing their users
    for name, users in (("DYNAMICS", (cli, simulate)), ("STREAM_LAYOUT", (cli,)),
                        ("LEVELS", (cli, verification)), ("PARTICLES", (cli, scales)),
                        ("MAX_TICKS", (cli, simulate))):
        assert all(getattr(m, name) is getattr(zittersim, name) for m in users), name
        assigned = [p.name for p in sorted(SRC.glob("*.py"))
                    if re.search(rf"^{name}\s*=", p.read_text(), re.MULTILINE)]
        assert assigned == ["__init__.py"], name


def test_readme_library_example_runs():
    # fails as soon as the README imports a name the package no longer exports
    library = README.read_text().split("## Library", 1)[1]
    example = library.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(example, str(README), "exec"), {})


def test_readme_names_every_formula():
    # the README sentence that lists the array functions names exactly the
    # public functions of kinematics and entropy, so a rename cannot leave it stale
    text = " ".join(README.read_text().split())
    sentence = re.search(r"Each formula has one numpy implementation: (.*?)\.\s", text).group(1)
    named = set(re.findall(r"`(\w+)`", sentence))
    public = {
        name
        for m in (kinematics, entropy)
        for name in m.__all__
        if callable(getattr(m, name)) and not isinstance(getattr(m, name), type)
    }
    assert named == public


def test_readme_names_every_error():
    # a caller learns from the README which errors to expect
    named = set(re.findall(r"`(\w+)`", README.read_text()))
    assert sorted(set(errors.__all__) - named) == []


def test_readme_exit_codes_are_the_classes():
    # "N for `A`, `B` ...;" in README's exit-code bullet: each class named there
    # has that exit_code, and every other class ZitterError's
    text = " ".join(README.read_text().split())
    bullet = re.search(r"- \*\*Exit codes\.\*\* (.*?) - \*\*", text).group(1)
    documented = {
        name: int(code)
        for code, names in re.findall(r"(\d) for (.*?)[;.]", bullet)
        for name in re.findall(r"`(\w+)`", names)
        if name in errors.__all__
    }
    for name in errors.__all__:
        code = documented.get(name, documented["ZitterError"])
        assert getattr(errors, name).exit_code == code, name


def test_every_benchmark_record_names_its_tree_and_metrics():
    # the committed BENCH_<pr>.json trajectory, read against BENCHMARK.json alone
    spec = json.loads(BENCHMARK.read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"]}
    records = sorted(BENCHMARK.parent.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text())
        assert record["pr"] == int(path.stem.removeprefix("BENCH_")), path.name
        results = record["results"]
        assert set(results) == workloads, path.name
        hashes = [r["provenance"]["source_sha256"] for r in results.values()]
        commit = re.fullmatch("[0-9a-f]{40}", record.get("commit") or "")
        parent = re.fullmatch("[0-9a-f]{40}", record.get("parent_commit") or "")
        assert commit or (parent and all(re.fullmatch("[0-9a-f]{64}", h) for h in hashes)), path.name
        assert isinstance(record["bytecode"]["pycache"], bool), path.name
        for name, result in results.items():
            assert metrics <= set(result["result"]["metrics"]), (path.name, name)
