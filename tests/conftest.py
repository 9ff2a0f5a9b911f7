"""Shared fixtures: small rendered datasets and the full benchmark run."""

import time

import pytest

import mvdesc.bench
import mvdesc.image
import mvdesc.tracking
from mvdesc.bench import run_benchmark
from mvdesc.scene import default_scene_spec, generate_dataset

# one line per acceptance criterion, printed at the end of the session
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def acceptance_log():
    def log(criterion: int, ok: bool, detail: str) -> None:
        word = "PASS" if ok else "FAIL"
        ACCEPTANCE_LINES.append(f"criterion {criterion}: {word} ({detail})")
    return log


def small_spec(name: str, kind: str, seed: int, **overrides) -> dict:
    """Scene spec trimmed for unit tests (short orbit, default resolution)."""
    spec = default_scene_spec(name, kind=kind, seed=seed)
    spec["n_frames"] = 8
    spec.update(overrides)
    return spec


@pytest.fixture(scope="session")
def plane_ds(tmp_path_factory):
    spec = small_spec("uplane", "plane", 31)
    return generate_dataset(spec, tmp_path_factory.mktemp("plane_ds"))


@pytest.fixture(scope="session")
def relief_ds(tmp_path_factory):
    spec = small_spec("urelief", "heightfield", 32)
    return generate_dataset(spec, tmp_path_factory.mktemp("relief_ds"))


@pytest.fixture(scope="session")
def full_bench(tmp_path_factory):
    """The five-scene benchmark at default settings, run once per session."""
    out = tmp_path_factory.mktemp("bench_full")
    t0 = time.perf_counter()
    report = run_benchmark({}, out)
    elapsed = time.perf_counter() - t0
    return {"report": report, "elapsed": elapsed, "out": out}


@pytest.fixture
def pyramid_builds(monkeypatch):
    """Records ``build_pyramid`` calls through every module that binds it:
    the returned list gets the depth of each pyramid built."""
    real, depths = mvdesc.image.build_pyramid, []

    def counted(img, levels):
        depths.append(levels)
        return real(img, levels)

    for module in (mvdesc.bench, mvdesc.image, mvdesc.tracking):
        monkeypatch.setattr(module, "build_pyramid", counted)
    return depths
