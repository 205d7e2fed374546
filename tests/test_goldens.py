"""Golden outputs: whole user-facing reports, pinned byte for byte.

A refactor that claims "same behaviour" must leave these reports as
they are.  Each one is compared with the checked-in file under
``tests/golden/`` after masking the fields named in
:data:`TIMING_FIELDS`, which differ from run to run:

* ``all --iterations 20`` (every paper artifact, the ``stages``
  section included);
* ``fuzz --loops 200 --seed 0 --workers 1 --json``: its text report
  and its JSON report;
* ``codegen``;
* 36 ``schedule --emit`` reports: the four paper loops with a source
  text (Fig. 7, Livermore 18, the elliptic filter and the adaptive
  filter) at 2/4/8 processors and k = 0/1/3.  Each one ends in
  "codegen verified against sequential semantics", so they run the
  partitioner and the message-passing interpreter too.

``all`` and ``fuzz`` run in fresh processes, started together: the
``stages`` memo counters depend on what ran earlier in a process.

After an intended output change, regenerate the files and say why in
CHANGES.md::

    PYTHONPATH=src python -m tests.test_goldens
"""

from __future__ import annotations

import contextlib
import difflib
import io
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from repro.cli import main
from repro.workloads import (
    ADAPTIVE_SOURCE,
    ELLIPTIC_SOURCE,
    FIG7_SOURCE,
    LIVERMORE18_SOURCE,
)

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

#: fields that time the run rather than describe its result: each
#: pattern's second group is masked to ``<name>`` before comparing
TIMING_FIELDS = {
    # per-pass and per-pattern columns: "0.169ms", "mean    5.6 ms";
    # a right-aligned column's padding goes with its number, so a time
    # that gains a digit masks to the same text
    "ms": re.compile(r"( ?) *(\b\d+(?:\.\d+)? ?ms)\b"),
    # "wall time: 1.214s" and JSON "...seconds": 0.25
    "seconds": re.compile(r"(wall time: |seconds\": )([\d.e-]+s?)"),
    # JSON "latency...": 0.5
    "latency": re.compile(r"(latency\w*\": )([\d.e-]+)"),
    # the share of Cyclic-sched's time spent in pattern detection
    "detect_share": re.compile(r"(detect_share=)([\d.]+)"),
}

#: CLI runs that need a process of their own: name -> argv
FRESH_RUNS = {
    "all": ["all", "--iterations", "20"],
    "fuzz": ["fuzz", "--loops", "200", "--seed", "0", "--workers", "1",
             "--json", "fuzz.json"],
}

LOOPS = {
    "fig7": FIG7_SOURCE,
    "livermore18": LIVERMORE18_SOURCE,
    "elliptic": ELLIPTIC_SOURCE,
    "adaptive": ADAPTIVE_SOURCE,
}


def mask(text: str) -> str:
    for name, pattern in TIMING_FIELDS.items():
        text = pattern.sub(rf"\1<{name}>", text)
    return text


def test_mask_absorbs_column_padding():
    assert mask("mean    5.6 ms") == mask("mean   10.2 ms") == "mean <ms>"
    assert mask("  X  0.169ms  -") == mask("  X 10.169ms  -")


def _start(name: str, workdir: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    ))
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *FRESH_RUNS[name]],
        cwd=workdir, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )


def _finish(proc: subprocess.Popen) -> str:
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    return out


def _cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


def codegen_report() -> str:
    return _cli(["codegen"])


def schedule_reports(workdir: str) -> str:
    """The 36 ``schedule --emit`` reports, each under a header line."""
    chunks = []
    cwd = os.getcwd()
    os.chdir(workdir)  # the report names its file: keep the path short
    try:
        for name, source in LOOPS.items():
            Path(f"{name}.loop").write_text(source)
            for procs in (2, 4, 8):
                for k in (0, 1, 3):
                    argv = ["schedule", f"{name}.loop", "--processors",
                            str(procs), "-k", str(k), "--emit"]
                    chunks.append(f"### {' '.join(argv)}\n" + _cli(argv))
    finally:
        os.chdir(cwd)
    return "".join(chunks)


def _check(name: str, got: str) -> None:
    want = (GOLDEN / name).read_text()
    got = mask(got)
    if got != want:
        diff = difflib.unified_diff(
            want.splitlines(), got.splitlines(), f"golden/{name}", "now",
            lineterm="", n=2,
        )
        pytest.fail(
            f"{name} differs from its golden (regenerate with "
            "`PYTHONPATH=src python -m tests.test_goldens` if the change "
            "is intended):\n" + "\n".join(list(diff)[:60]),
            pytrace=False,
        )


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """``all`` and ``fuzz``, started at once in processes of their own."""
    workdir = str(tmp_path_factory.mktemp("golden"))
    procs = {name: _start(name, workdir) for name in FRESH_RUNS}
    yield workdir, procs
    for proc in procs.values():
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


# the in-process reports run first, while the fresh processes work
def test_schedule_emit_reports(fresh, tmp_path):
    _check("schedule_emit.txt", schedule_reports(str(tmp_path)))


def test_codegen(fresh):
    _check("codegen.txt", codegen_report())


def test_all(fresh):
    _check("all.txt", _finish(fresh[1]["all"]))


def test_fuzz(fresh):
    workdir, procs = fresh
    _check("fuzz.txt", _finish(procs["fuzz"]))
    _check("fuzz.json", Path(workdir, "fuzz.json").read_text())


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        procs = {name: _start(name, workdir) for name in FRESH_RUNS}
        outputs = {
            "schedule_emit.txt": schedule_reports(workdir),
            "codegen.txt": codegen_report(),
            "all.txt": _finish(procs["all"]),
            "fuzz.txt": _finish(procs["fuzz"]),
        }
        outputs["fuzz.json"] = Path(workdir, "fuzz.json").read_text()
    for name, text in outputs.items():
        (GOLDEN / name).write_text(mask(text))
        print(f"wrote {GOLDEN / name}")


if __name__ == "__main__":
    regenerate()
