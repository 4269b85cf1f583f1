"""Both native engines under UndefinedBehaviorSanitizer.

The functional engine (``simfunc``) and the sweep library (``sweep``:
the scheduling loop, the LRU stack pass, the table predictors and the
lane kernel) are each one fixed C source, so one sanitized build of
each covers every program, geometry and predictor; the lane suite also
builds the sweep library at every narrower lane width the host runs.
In a subprocess with a fresh cache dir, the shared compiler invocation
gains ``-fsanitize=undefined,float-cast-overflow
-fno-sanitize-recover=all`` and the corpus, clone and lane
differentials run against the sanitized libraries: any undefined
behaviour (an out-of-range float cast, a signed overflow, a misaligned
access) aborts the run and fails the test.  Skipped where the compiler
cannot build a sanitized library.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.native import toolchain

SANITIZE = ("-fsanitize=undefined,float-cast-overflow",
            "-fno-sanitize-recover=all")

#: The differential suites rerun against the sanitized libraries.
DIFFERENTIALS = (
    "tests/test_sim_native.py::TestCorpusEquivalence",
    "tests/test_sim_native.py::TestFcvtws",
    "tests/test_sim_native.py::test_random_programs_native_matches_interp",
    "tests/test_uarch_sweep.py::TestCorpusEquivalence",
    "tests/test_uarch_sweep.py::TestPredictorEquivalence",
    "tests/test_uarch_sweep.py::TestLanes",
    "tests/test_cache_sweep.py::test_corpus_sweep_matches_spec",
    "tests/test_cache_sweep.py::test_random_streams_match_spec",
    "tests/test_cache_sweep.py::TestPerAccessHits",
)

#: Subprocess body: sanitize every compile, insist both engines load
#: (the lane kernel at the host's width included), then run the suites
#: named on the command line (capturing Python output only, so a
#: sanitizer report reaches the subprocess's stderr).
RUNNER = f"""
import sys
from repro.native import toolchain
toolchain.CC = toolchain.CC + {SANITIZE!r}
from repro.sim import native
from repro.uarch import native as uarch_native
assert native.available() and uarch_native.available(), "no engine"
assert uarch_native.lane_width() == toolchain.lane_width(), "no lane kernel"
import pytest
sys.exit(pytest.main(["-x", "-p", "no:cacheprovider", "--capture=sys",
                      *sys.argv[1:]]))
"""


def _sanitizer_builds(directory):
    source = directory / "probe.c"
    source.write_text("int repro_ub_probe(double v) { return (int)v; }\n")
    try:
        subprocess.run([*toolchain.CC, *SANITIZE, "-o",
                        str(directory / "probe.so"), str(source)],
                       check=True, capture_output=True, timeout=120)
    except (OSError, subprocess.SubprocessError):
        return False
    return True


def test_differentials_pass_under_ubsan(tmp_path):
    if not toolchain.enabled() or not _sanitizer_builds(tmp_path):
        pytest.skip("no C compiler that builds UBSan libraries")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path / "cache"))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", RUNNER, *DIFFERENTIALS], cwd=root, env=env,
        capture_output=True, text=True, timeout=1800)
    assert result.returncode == 0, (result.stdout[-4000:]
                                    + result.stderr[-4000:])
    assert " passed" in result.stdout
