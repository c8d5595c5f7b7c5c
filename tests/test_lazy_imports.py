"""Start-up: each command loads only the modules it runs.

``import mrtpower`` loads the sizing core; ``estimator`` and ``simulate``
names resolve on first access.  The start-up tests launch fresh interpreters
and list the ``mrtpower``, ``concurrent`` and ``multiprocessing`` modules
each launch holds.  The CLI launches run ``mrtpower.cli`` through ``runpy``,
as ``python -m mrtpower.cli`` does, so the CLI module itself runs as
``__main__``.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mrtpower
from mrtpower.cli import write_dataset
from mrtpower.design import TrialDesign, elicit_quadratic_effect, make_availability
from mrtpower.simulate import ErrorProcess, GenerativeModel, generate_dataset

CORE = {"mrtpower", "mrtpower.exceptions", "mrtpower.design", "mrtpower.distributions",
        "mrtpower.samplesize"}
ANALYSIS = CORE | {"mrtpower.estimator"}
SIMULATION = ANALYSIS | {"mrtpower.simulate"}

DESIGN = {"days": 3, "decisions_per_day": 4, "rho": 0.4}
SIZED_DESIGN = {"days": 42, "decisions_per_day": 5, "rho": 0.4}
SIZED_EFFECT = {"form": "quadratic", "initial": 0.0, "average": 0.10, "max_day": 29}


def loaded(code):
    """The ``mrtpower*``, ``concurrent*`` and ``multiprocessing*`` modules held
    after running ``code``."""
    code += (
        "\nimport json, sys"
        "\nprint(json.dumps([m for m in sys.modules"
        " if m.startswith(('mrtpower', 'concurrent', 'multiprocessing'))]))"
    )
    env = dict(os.environ)
    env.pop("MRTPOWER_THREADS", None)
    package_root = str(Path(mrtpower.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def cli_loaded(*args):
    """Modules held after one CLI command, which must exit 0."""
    return loaded(
        "import runpy, sys\n"
        f"sys.argv = ['mrtpower', *{list(args)!r}]\n"
        "try:\n"
        "    runpy.run_module('mrtpower.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code"
    )


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def sim_config(tmp_path):
    return write_json(tmp_path / "simulate.json", {
        "design": DESIGN,
        "availability": {"kind": "constant", "average": 0.6},
        "effect": {"form": "quadratic", "initial": 0.0, "average": 0.3, "max_day": 2},
        "errors": {"family": "iid-normal"},
        "scenario": {"name": "working-true"},
        "n": 9,
        "alpha0": 0.05,
        "reps": 2,
        "seed": 3,
    })


class TestStartUp:
    def test_import_package_loads_the_sizing_core(self):
        assert loaded("import mrtpower") == CORE

    def test_import_cli_adds_only_the_cli(self):
        assert loaded("import mrtpower.cli") == CORE | {"mrtpower.cli"}

    def test_size_grid(self, tmp_path):
        config = write_json(tmp_path / "size.json", {
            "design": SIZED_DESIGN,
            "availability": {"kind": "constant", "average": 0.5},
            "effect": SIZED_EFFECT,
            "alpha0": 0.05,
            "power": 0.8,
            "grid": {"effect_averages": [0.1], "availability_averages": [0.5, 0.7]},
        })
        assert cli_loaded("size", config, "--grid") == CORE

    def test_power_without_monte_carlo(self, tmp_path):
        config = write_json(tmp_path / "power.json", {
            "design": SIZED_DESIGN,
            "availability": {"kind": "constant", "average": 0.5},
            "effect": SIZED_EFFECT,
            "alpha0": 0.05,
            "n": 40,
        })
        assert cli_loaded("power", config) == CORE

    def test_a_design_name_read_through_the_package_loads_no_estimator(self):
        assert loaded("import mrtpower\nmrtpower.GRAM_KINDS") == CORE

    def test_analyze(self, tmp_path):
        design = TrialDesign(**DESIGN)
        model = GenerativeModel.working_true(
            design, elicit_quadratic_effect(0.0, 0.3, 2, design),
            make_availability("constant", 0.6, design), ErrorProcess("iid-normal"),
        )
        dataset = str(tmp_path / "trial.csv")
        write_dataset(generate_dataset(model, 9, seed=3), dataset)
        config = write_json(tmp_path / "analyze.json", {"design": DESIGN, "alpha0": 0.05})
        assert cli_loaded("analyze", dataset, config) == ANALYSIS

    def test_one_worker_simulate_loads_no_process_pool(self, tmp_path):
        assert cli_loaded("simulate", sim_config(tmp_path), "--threads", "1") == SIMULATION

    def test_two_worker_simulate_loads_the_process_pool(self, tmp_path):
        modules = cli_loaded("simulate", sim_config(tmp_path), "--threads", "2")
        assert "multiprocessing" in modules - SIMULATION
        assert not {m for m in modules if m.startswith("concurrent")}
        assert {m for m in modules if m.startswith("mrtpower")} == SIMULATION


class TestLazyNamespace:
    def test_every_public_name_is_its_submodules_object(self):
        for name in mrtpower.__all__:
            if name in ("__version__", "backend_name"):
                continue
            home = importlib.import_module(f"mrtpower.{mrtpower._HOME[name]}")
            assert getattr(mrtpower, name) is getattr(home, name), name

    def test_every_public_name_is_defined_at_the_top_level_of_its_home(self):
        # a name listed under a module that only imports it loads that module
        package = Path(mrtpower.__file__).parent
        defined = {}
        for home in set(mrtpower._HOME.values()):
            tree = ast.parse((package / f"{home}.py").read_text(encoding="utf-8"))
            defined[home] = {node.name for node in tree.body
                             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
            defined[home].update(name.id for node in tree.body if isinstance(node, ast.Assign)
                                 for target in node.targets for name in ast.walk(target)
                                 if isinstance(name, ast.Name))
        assert [name for name, home in mrtpower._HOME.items() if name not in defined[home]] == []

    def test_every_home_modules_all_lists_its_public_names(self):
        for home in set(mrtpower._HOME.values()):
            module = importlib.import_module(f"mrtpower.{home}")
            names = {name for name, where in mrtpower._HOME.items() if where == home}
            assert set(module.__all__) == names, home

    def test_star_import_and_dir_list_every_public_name(self):
        namespace = {}
        exec("from mrtpower import *", namespace)
        assert set(mrtpower.__all__) <= set(namespace)
        assert set(mrtpower.__all__) <= set(dir(mrtpower))

    def test_unknown_name_raises_the_standard_error(self):
        with pytest.raises(AttributeError, match=r"^module 'mrtpower' has no attribute 'nope'$"):
            mrtpower.nope  # noqa: B018
        assert not hasattr(mrtpower, "nope")

    def test_lazy_submodules_resolve(self):
        assert mrtpower.estimator is importlib.import_module("mrtpower.estimator")
        assert mrtpower.simulate is importlib.import_module("mrtpower.simulate")

    def test_a_rebinding_in_the_submodule_shows_and_its_undoing_too(self, monkeypatch):
        original = mrtpower.simulate.monte_carlo

        def wrapper(*args, **kwargs):
            return original(*args, **kwargs)

        monkeypatch.setattr(mrtpower.simulate, "monte_carlo", wrapper)
        assert mrtpower.monte_carlo is wrapper
        monkeypatch.undo()
        assert mrtpower.monte_carlo is original
        assert "monte_carlo" not in vars(mrtpower)
