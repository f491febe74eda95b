"""The public surface: the names the package exports, as README lists them;
exported dataclasses, which compare by identity when they hold arrays; and
the scripts in tools/, which import the package."""

import copy
import dataclasses
import importlib.util
import re
import sys
import types
from functools import lru_cache
from pathlib import Path

import pytest

import weakdrive
from weakdrive import (
    Drive,
    Ensemble,
    FarFieldConfig,
    Liouvillian,
    Partition,
    PlaneWave,
    build_pt_matrix,
    coupling_matrix,
    dilute_product_state,
    negativity_report,
    regime_check,
    steady_state,
)

ROOT = Path(__file__).resolve().parents[1]
EXPORTS = sorted(name for name in dir(weakdrive)
                 if not name.startswith("_")
                 and not isinstance(getattr(weakdrive, name), types.ModuleType))


def test_readme_lists_every_export_once_under_its_module():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    listing = section.split("each under the module that defines it:\n", 1)[1].split("\n\n", 1)[0]
    groups = re.findall(r"^- `weakdrive\.(\w+)`:(.*?)(?=^- |\Z)", listing, flags=re.M | re.S)
    listed = [(module, name) for module, names in groups for name in re.findall(r"`(\w+)`", names)]
    names = [name for _, name in listed]
    assert len(names) == len(set(names))
    assert sorted(names) == EXPORTS
    for module, name in listed:
        assert getattr(weakdrive, name).__module__ == f"weakdrive.{module}"


@lru_cache(maxsize=1)
def _instances() -> dict:
    """One instance of each exported dataclass."""
    ens = Ensemble([[0, 0, 0], [1.1, 0, 0], [0, 1.3, 0.2]], [0, 0, 1])
    beam = PlaneWave([0.0, 1.0, 0.0], mask=[2])
    drive = Drive(delta=0.3, eta=0.05, beam=beam)
    coupling = coupling_matrix(ens)
    state = steady_state(coupling, drive, ens)
    part = Partition((0,), (1, 2))
    report = negativity_report(state, part)
    return {
        "DiluteProductState": dilute_product_state(drive.w(ens), 0.3, 0.05),
        "Drive": drive,
        "Ensemble": ens,
        "FarFieldConfig": FarFieldConfig(1e4, 1.0, 3, 3, e=[0.0, 1.0, 0.0]),
        "Liouvillian": Liouvillian(coupling, 0.3, drive.w(ens)),
        "NegativityReport": report,
        "PartialTransposeMatrix": build_pt_matrix(state, part),
        "Partition": part,
        "PerturbState": state,
        "PlaneWave": beam,
        "RegimeReport": regime_check(ens, drive, part),
    }


# the exported dataclasses without array fields, which compare by value
BY_VALUE = ("Partition", "RegimeReport")


def test_every_exported_dataclass_has_an_instance():
    exported = [name for name in EXPORTS if dataclasses.is_dataclass(getattr(weakdrive, name))]
    assert exported == sorted(_instances())


@pytest.mark.parametrize("name", sorted(_instances()))
def test_exported_dataclasses_compare_and_hash(name):
    # an ndarray field made the generated __eq__ raise "truth value of an
    # array is ambiguous" and __hash__ raise "unhashable type"
    x = _instances()[name]
    assert type(x).__name__ == name
    twin = copy.copy(x)
    assert x == x and not x != x
    if name in BY_VALUE:
        assert twin == x and hash(twin) == hash(x)
    else:
        assert type(x).__eq__ is object.__eq__
        assert twin != x and not twin == x
    if type(x).__dataclass_params__.frozen:
        assert hash(x) == hash(x) and x in {x}


@pytest.mark.parametrize("script", ["layer_timings", "compare_outputs"])
def test_tools_import_as_modules(monkeypatch, script):
    # the tools run only in CI steps that may fail without failing the
    # build, so a stale import there would otherwise go unseen; importing
    # runs no measurement and no comparison
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(f"_tool_{script}", ROOT / "tools" / f"{script}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
