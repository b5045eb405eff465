"""`runall`'s registry: every experiment module is run exactly once, and
its ``--fast`` arguments are parameters of its ``run()``.  Import-only:
no experiment runs here."""

import importlib
import inspect
import pkgutil

import repro.experiments
from repro.experiments.runall import EXPERIMENTS


def experiment_modules():
    for info in pkgutil.iter_modules(repro.experiments.__path__):
        module = importlib.import_module(f"repro.experiments.{info.name}")
        if callable(getattr(module, "run", None)):
            yield module


def test_every_experiment_module_is_registered_once():
    registered = [module for _, _, module in EXPERIMENTS]
    found = list(experiment_modules())
    assert found
    for module in found:
        assert registered.count(module) == 1, module.__name__
    assert len(registered) == len(found)


def test_experiment_ids_are_unique():
    ids = [exp_id for exp_id, _, _ in EXPERIMENTS]
    assert len(ids) == len(set(ids))


def test_fast_arguments_are_run_parameters():
    for exp_id, _, module in EXPERIMENTS:
        assert isinstance(module.FAST, dict), exp_id
        params = inspect.signature(module.run).parameters
        assert set(module.FAST) <= set(params), (exp_id, module.FAST)
