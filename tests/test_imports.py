"""Import boundaries: ``factors``, ``breakdown`` and a bare ``import
robustfinite`` start without numpy or the Monte Carlo engine, and the
package resolves its public names on first access.  Each check runs in a
fresh interpreter, since this process has imported everything already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ENGINE = ("multiprocessing", "concurrent.futures")

# Every name the package exported when its __init__ imported each submodule.
EXPORTS = {
    "breakdown": ("BreakdownResult", "breakdown_hl1", "breakdown_hl2", "breakdown_hl3",
                  "breakdown_median", "breakdown_oracle", "breakdown_point",
                  "breakdown_table"),
    "calibration": ("FitInput", "SimulationConfig", "SimulationResult", "fit_hayes",
                    "fit_williams", "regenerate_table", "simulate"),
    "estimators": ("Estimator", "hl1", "hl2", "hl3", "hodges_lehmann", "mad", "mean",
                   "median", "select_kth", "shamos", "std_dev"),
    "factors": ("BiasModel", "FactorSet", "asymptotic_relative_efficiency", "c4", "c5",
                "c6", "factor_set", "relative_efficiency", "unbiased_mad",
                "unbiased_mad_sq", "unbiased_shamos", "unbiased_shamos_sq", "v5", "v6",
                "variance_model_eval"),
    "spc": ("ChartLimits", "SubgroupSeries", "a3", "a5", "a6", "chart_limits",
            "contamination_experiment", "points_out_of_control", "read_subgroups"),
}


def python(*args, timeout=60):
    """Run a fresh interpreter that imports the package from this tree."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=pythonpath), timeout=timeout)
    assert result.returncode == 0, result.stderr
    return result


def loaded_after(code: str, modules) -> list[str]:
    """Which of ``modules`` are in ``sys.modules`` after ``code`` ran in a
    fresh interpreter."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps([m for m in {list(modules)!r} " \
            "if m in sys.modules]))"
    return json.loads(python("-c", probe).stdout.splitlines()[-1])


@pytest.mark.parametrize("argv", [["factors", "--n", "50"], ["factors", "--n", "500"],
                                  ["breakdown", "--n-max", "10"]],
                         ids=["factors-table", "factors-model", "breakdown"])
def test_table_subcommands_start_without_numpy(argv):
    code = f"from robustfinite.cli import main\nassert main({argv!r}) == 0"
    assert loaded_after(code, ("numpy", *ENGINE)) == []


def test_bare_import_loads_no_submodule():
    modules = ("numpy", *ENGINE, *(f"robustfinite.{m}" for m in EXPORTS))
    assert loaded_after("import robustfinite", modules) == []


def test_estimate_leaves_out_the_engine(tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("3\n1\n4\n1\n5\n")
    code = ("from robustfinite.cli import main\n"
            f"assert main(['estimate', '--estimator', 'mad', '--unbiased', "
            f"'--input', {str(path)!r}]) == 0")
    assert loaded_after(code, ENGINE) == []


def test_every_old_export_resolves_lazily():
    code = f"""
import robustfinite, importlib
exports = {EXPORTS!r}
names = dir(robustfinite)
for module, attrs in exports.items():
    sub = importlib.import_module("robustfinite." + module)
    for name in attrs:
        assert name in names and name in robustfinite.__all__, name
        assert getattr(robustfinite, name) is getattr(sub, name), name
assert "__version__" in robustfinite.__all__
"""
    python("-c", code)


def test_unknown_name_is_an_attribute_error():
    import robustfinite

    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        robustfinite.nonesuch  # noqa: B018


def test_module_entry_point_prints_no_runtime_warning():
    result = python("-W", "default", "-m", "robustfinite.cli", "factors", "--n", "5")
    assert "RuntimeWarning" not in result.stderr, result.stderr
    assert result.stdout.splitlines()[1:] == [
        "n,c4,c5,c6,v5,v6,source",
        "5,0.9399856,0.8218750,1.1011748,0.2306304,0.2162400,table"]
