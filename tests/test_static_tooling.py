"""Static-tooling gates: lint, types and coverage.

Runs ruff and mypy over ``src/repro/analysis``, and a coverage session
with a floor over ``repro.sim`` + ``repro.codesign`` +
``repro.nets.inference`` (the sweep executor and the recording both of
its backends evaluate) + ``repro.model.traffic``,
``repro.model.gemm_model`` and ``repro.model.winograd_model`` (the
traffic columns the recording condenses), when the tools are installed (the ``dev``
extra) — and skips cleanly when they are not, so the tier-1 suite has
no dependencies beyond numpy/pytest/hypothesis.  The configuration
itself lives in pyproject.toml; these tests just keep it honest.
"""

import importlib
import inspect
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
ANALYSIS = REPO / "src" / "repro" / "analysis"

#: Tests exercising repro.sim + repro.codesign + repro.nets.inference +
#: repro.model.traffic + repro.model.gemm_model +
#: repro.model.winograd_model + repro.rvv, run under coverage.
COVERAGE_TESTS = [
    "tests/test_model.py",
    "tests/test_columnar_traffic.py",
    "tests/test_stackdist_properties.py",
    "tests/test_sweep_fastpath.py",
    "tests/test_record_replay.py",
    "tests/test_axis_replay.py",
    "tests/test_replay_certificate.py",
    "tests/test_column_traffic.py",
    "tests/test_column_result.py",
    "tests/test_layer_memo.py",
    "tests/test_codesign_executor.py",
    "tests/test_golden_sweep.py",
    "tests/test_sim_cache.py",
    "tests/test_sim_system.py",
    "tests/test_schedule_tune.py",
    "tests/test_tracer_rows.py",
    "tests/test_machine.py",
    "tests/test_memory.py",
    "tests/test_cli_and_traceio.py",
    "tests/test_proposed_extensions.py",
]


def _run(cmd, timeout=300, env=None):
    return subprocess.run(
        cmd, cwd=REPO, capture_output=True, text=True, timeout=timeout,
        env=env)


#: The strict-mypy slice of repro.obs (pyproject override + gate below).
STRICT_OBS_MODULES = [
    "repro.obs.analytics",
    "repro.obs.attribution",
    "repro.obs.baseline",
    "repro.obs.export",
    "repro.obs.metrics",
]

#: The strict-mypy bit-identity critical path: the batched cache
#: engine, the trace simulator, the traffic columns, the GEMM model,
#: the tracer and the register file.
STRICT_SIM_MODULES = [
    "repro.sim.cache",
    "repro.sim.system",
    "repro.model.traffic",
    "repro.model.gemm_model",
    "repro.model.winograd_model",
    "repro.rvv.tracer",
    "repro.rvv.registers",
]

#: The strict-mypy kernel-generation layer: the schedule DSL and the
#: tuner that searches it (generator bugs become silent kernel bugs).
STRICT_SCHEDULE_MODULES = [
    "repro.schedule",
    "repro.codesign.tuner",
]

#: The strict-mypy serving layer: the query protocol, the
#: content-addressed store, the async service, and the env-knob parser
#: (schema slips here silently corrupt cached answers).
STRICT_SERVE_MODULES = [
    "repro.serve",
    "repro.envknobs",
]


def test_pyproject_configures_the_tools():
    text = (REPO / "pyproject.toml").read_text()
    assert "[tool.ruff]" in text
    assert "[tool.mypy]" in text
    assert 'module = "repro.analysis.*"' in text
    assert "repro.analysis.symbolic" in text, (
        "the strict-mypy scope must name the symbolic analyzer "
        "(covered by the repro.analysis.* glob)"
    )
    assert "strict = true" in text
    assert '"repro.schedule.*"' in text, (
        "the kernel-generation DSL must be in the strict-mypy scope"
    )
    assert '"repro.codesign.tuner"' in text, (
        "the schedule tuner must be in the strict-mypy scope"
    )
    for mod in STRICT_OBS_MODULES + STRICT_SIM_MODULES:
        assert f'"{mod}"' in text, (
            f"{mod} missing from the strict-mypy override in pyproject.toml"
        )


def test_pyproject_configures_coverage_and_markers():
    text = (REPO / "pyproject.toml").read_text()
    assert "[tool.coverage.run]" in text
    assert "[tool.coverage.report]" in text
    assert "fail_under" in text
    assert "differential:" in text
    assert "bench:" in text
    assert "traceio:" in text
    assert "dsl:" in text
    assert "serve:" in text
    assert "loadtest:" in text, (
        "the loadtest marker must be registered so `-m 'not loadtest'` "
        "can skip the concurrent-client runs"
    )


def test_pyproject_holds_serve_layer_strict():
    text = (REPO / "pyproject.toml").read_text()
    assert '"repro.serve.*"' in text, (
        "the serving layer must be in the strict-mypy scope"
    )
    assert '"repro.envknobs"' in text, (
        "the env-knob parser must be in the strict-mypy scope"
    )


def test_coverage_floor_on_sim_and_codesign():
    try:
        import coverage  # noqa: F401
    except ImportError:
        pytest.skip("coverage not installed (dev extra)")
    missing = [t for t in COVERAGE_TESTS if not (REPO / t).exists()]
    assert not missing, f"coverage test set out of date: {missing}"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = _run(
        [sys.executable, "-m", "coverage", "run", "-m", "pytest", "-q", "-x",
         *COVERAGE_TESTS],
        timeout=600, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # fail_under comes from [tool.coverage.report] in pyproject.toml.
    proc = _run([sys.executable, "-m", "coverage", "report"], env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_ruff_clean_on_analysis_package():
    if shutil.which("ruff") is None:
        pytest.skip("ruff not installed (dev extra)")
    proc = _run(["ruff", "check", str(ANALYSIS)])
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_mypy_clean_on_analysis_package():
    try:
        import mypy  # noqa: F401
    except ImportError:
        pytest.skip("mypy not installed (dev extra)")
    proc = _run([sys.executable, "-m", "mypy", "-p", "repro.analysis"])
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_mypy_clean_on_symbolic_package():
    try:
        import mypy  # noqa: F401
    except ImportError:
        pytest.skip("mypy not installed (dev extra)")
    proc = _run(
        [sys.executable, "-m", "mypy", "-p", "repro.analysis.symbolic"])
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_mypy_clean_on_strict_obs_modules():
    try:
        import mypy  # noqa: F401
    except ImportError:
        pytest.skip("mypy not installed (dev extra)")
    mods = [a for m in STRICT_OBS_MODULES for a in ("-m", m)]
    proc = _run([sys.executable, "-m", "mypy", *mods])
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_mypy_clean_on_strict_sim_modules():
    try:
        import mypy  # noqa: F401
    except ImportError:
        pytest.skip("mypy not installed (dev extra)")
    mods = [a for m in STRICT_SIM_MODULES for a in ("-m", m)]
    proc = _run([sys.executable, "-m", "mypy", *mods])
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_mypy_clean_on_schedule_dsl():
    try:
        import mypy  # noqa: F401
    except ImportError:
        pytest.skip("mypy not installed (dev extra)")
    proc = _run([sys.executable, "-m", "mypy", "-p", "repro.schedule",
                 "-m", "repro.codesign.tuner"])
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_mypy_clean_on_serve_layer():
    try:
        import mypy  # noqa: F401
    except ImportError:
        pytest.skip("mypy not installed (dev extra)")
    proc = _run([sys.executable, "-m", "mypy", "-p", "repro.serve",
                 "-m", "repro.envknobs"])
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_ruff_clean_on_serve_layer():
    if shutil.which("ruff") is None:
        pytest.skip("ruff not installed (dev extra)")
    proc = _run(["ruff", "check", str(REPO / "src" / "repro" / "serve"),
                 str(REPO / "src" / "repro" / "envknobs.py"),
                 str(REPO / "src" / "repro" / "obs" / "metrics.py")])
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_benchmark_span_targets_resolve(monkeypatch):
    """Every function the end-to-end benchmark wraps in a span
    (``benchmarks/e2e/tracing.py``, ``TARGETS``) still exists where the
    benchmark looks it up; a renamed one would make its per-layer
    metrics read null."""
    monkeypatch.syspath_prepend(str(REPO))
    tracing = importlib.import_module("benchmarks.e2e.tracing")
    missing = []
    for module, path, name in tracing.TARGETS:
        try:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            target = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            missing.append(f"{module}.{path}")
            continue
        if not callable(getattr(target, "__func__", target)):
            missing.append(f"{module}.{path}")
    assert missing == []


#: Sweep-side wrapper targets (modules under ``repro.codesign``,
#: ``repro.nets`` and ``repro.model``) a cold sweep column never calls,
#: with the reason; their benchmark metrics read 0 by design.
NOT_ON_THE_SWEEP = {
    "codesign.profile_network": "a former name kept resolvable; the "
                                "executor calls record_inference",
    "model.stats_from_model": "the per-point path of simulate_inference",
    "model.direct1x1_model": "the sweep's policies never pick direct 1x1",
}


def test_benchmark_sweep_wrappers_are_called(monkeypatch):
    """One small cold column per network and backend, run with the
    benchmark's own wrappers installed on every sweep-side ``TARGETS``
    entry, calls each of them, and ``model.condense`` reads its class
    count off the result: a sweep that stopped calling one would leave
    its per-layer metric silently null or 0."""
    from repro.codesign import codesign_sweep
    from repro.nets import vgg16_layers, yolov3_layers

    monkeypatch.syspath_prepend(str(REPO))
    tracing = importlib.import_module("benchmarks.e2e.tracing")
    targets = [t for t in tracing.TARGETS if t[0].startswith(
        ("repro.codesign.", "repro.nets.", "repro.model."))]
    recorder = tracing.SpanRecorder()
    recorder.install(targets)
    try:
        for name, layers in (("vgg16", vgg16_layers(height=32, width=32)),
                             ("yolov3", yolov3_layers(height=32, width=32))):
            for mode in ("exact", "fast"):
                codesign_sweep(name, layers, vlens=(2048,), l2_mbs=(1, 16),
                               mode=mode)
    finally:
        recorder.uninstall()
    assert recorder.missing == []
    called = {sp.name for sp in recorder.spans}
    expected = {name for _, _, name in targets} - set(NOT_ON_THE_SWEEP)
    assert sorted(expected - called) == []
    assert not called & set(NOT_ON_THE_SWEEP)
    condensed = [sp.count for sp in recorder.spans
                 if sp.name == "model.condense"]
    assert condensed and min(condensed) > 0
