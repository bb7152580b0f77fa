"""The package namespace: the README's library API, loaded name by name."""

import re
import types
from pathlib import Path

import pytest

import templex
from helpers import fixture_path, fixture_text

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_library_example():
    text = README.read_text(encoding="utf-8")
    return text.split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]


def readme_library_names():
    names = re.search(r"from templex import \(([^)]*)\)", readme_library_example()).group(1)
    return [n.strip() for n in names.split(",") if n.strip()]


def test_readme_library_example_prints_the_golden_instances(capsys):
    # the example's files are the succession domain's fixtures
    files = {f"domain.{ext}": f"succession.{ext}" for ext in ("onto", "fglex", "bglex",
                                                               "collapse")}
    files["corpus.vrt"] = "succession.vrt"
    code = re.sub(r'"([\w.]+)"', lambda m: repr(fixture_path(files[m.group(1)])),
                  readme_library_example())
    exec(code, {})
    golden = fixture_text("succession_gold.jsonl").split("\n", 1)[1]
    assert capsys.readouterr().out == golden


def test_readme_library_names_are_exported():
    names = readme_library_names()
    assert "match_foreground" in names
    assert set(names) <= set(templex.__all__)


def test_every_exported_name_imports_and_is_listed():
    listed = dir(templex)
    for name in templex.__all__:
        namespace = {}
        exec(f"from templex import {name}", namespace)
        assert namespace[name] is getattr(templex, name)
        assert name in listed


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from templex import *", namespace)
    assert set(templex.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        templex.nope  # noqa: B018
    assert not hasattr(templex, "nope")


def test_submodules_still_import_from_the_package():
    from templex import cli, wsd
    assert isinstance(cli, types.ModuleType) and cli.__name__ == "templex.cli"
    assert isinstance(wsd, types.ModuleType) and wsd.__name__ == "templex.wsd"
    assert templex.SenseTag is wsd.SenseTag
