"""Every exported name resolves, so a deletion cannot leave one dangling."""

import importlib
import pkgutil

import pytest

import mgstrat

MODULES = sorted(info.name for info in pkgutil.iter_modules(mgstrat.__path__))

# The package's exports as of 0.10.0; a name joins or leaves only by a deliberate edit.
PACKAGE_EXPORTS = {
    "LambdaTable", "NumericError", "indifference_residual", "solve_lambda", "solve_p_finite",
    "CheatCheck", "PayoffQuadruple", "expected_payoffs", "verify_no_cheat",
    "StrategyConfig", "Trajectory", "derive_rng", "run",
    "c_autocorrelation", "delta_histogram", "episode_lengths", "inefficiency_eta",
    "s_autocorrelation",
    "KPRRunResult", "KPRState", "kpr_run",
}


def test_every_module_is_found():
    assert {"engine", "stats", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"mgstrat.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), exported
    assert [item for item in exported if not hasattr(module, item)] == []


def test_package_reexports_resolve():
    # Each lazy export is the very object the module it names holds.
    assert set(mgstrat.__all__) == PACKAGE_EXPORTS
    for name, module_name in mgstrat._EXPORTS.items():
        module = importlib.import_module(f"mgstrat.{module_name}")
        assert getattr(mgstrat, name) is getattr(module, name), (module_name, name)


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from mgstrat import *", namespace)
    unbound = [n for n in mgstrat.__all__ if namespace.get(n) is not getattr(mgstrat, n)]
    assert unbound == []


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        mgstrat.no_such_name  # noqa: B018
