"""The public surface: the package namespace, the imports the demos and the
README make from it, the benchmark's trace targets, and the demos and
README code that run in about a second."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import irs_swipt

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = {
    "SystemConfig", "Geometry", "generate_scenario", "load_scenario",
    "path_loss_linear",
    "effective_channels", "weighted_sum_rate", "user_rate", "harvested_power",
    "harvested_power_quadratic",
    "feasibility_check", "bcd_solve", "solve_with_init", "SolveReport",
    "SolverError",
    "ExperimentSpec", "TrialResult", "run_experiment", "summarize",
    "emit_results", "load_experiment_spec",
}

# trace targets whose functions were folded into others; the tracer skips them
STALE_TRACE_TARGETS = {
    "feasibility.assemble_eh_qcqp", "bcd.update_decoders",
    "bcd.update_weights", "bcd.weighted_sum_rate",
    "precoder.effective_channels", "harness.spread_streams",
}


def irs_swipt_imports(source: str) -> list[tuple[str, str]]:
    """(module, name) of every `from irs_swipt... import name` in source."""
    return [(node.module, alias.name)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "irs_swipt"
            for alias in node.names]


def readme_code(heading: str) -> str:
    """The first Python block of the README section under heading."""
    text = (ROOT / "README.md").read_text()
    section = text.split(f"## {heading}", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def readme_quickstart() -> str:
    return readme_code("Library quickstart")


def run_python(args, cwd):
    """A child interpreter importing the same package as this process,
    installed or not."""
    src = str(Path(irs_swipt.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_all_is_the_public_surface():
    assert len(irs_swipt.__all__) == len(PUBLIC)
    assert set(irs_swipt.__all__) == PUBLIC
    for name in irs_swipt.__all__:
        assert getattr(irs_swipt, name) is not None


@pytest.mark.parametrize("source", sorted(
    [p.name for p in (ROOT / "demos").glob("*.py")] + ["README.md"]))
def test_documented_imports_resolve(source):
    text = (readme_quickstart() if source == "README.md"
            else (ROOT / "demos" / source).read_text())
    imports = irs_swipt_imports(text)
    assert imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), (module, name)


def test_trace_targets_resolve():
    tree = ast.parse((ROOT / "perfbench" / "bench.py").read_text())
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "TRACE_TARGETS"
                           for t in node.targets))
    missing = set()
    for target in targets:
        module, attr = target.rsplit(".", 1)
        if not hasattr(importlib.import_module(f"irs_swipt.{module}"), attr):
            missing.add(target)
    assert missing == STALE_TRACE_TARGETS


@pytest.mark.parametrize("demo", ["01_channels_and_rates.py",
                                  "02_joint_solve.py",
                                  "03_harvest_range.py"])
def test_demo_runs(demo, tmp_path):
    proc = run_python([str(ROOT / "demos" / demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_code_runs(tmp_path):
    # the quickstart, then the baselines run by hand on its draw
    code = readme_quickstart() + readme_code("Baselines")
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
