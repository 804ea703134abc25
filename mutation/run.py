"""Run the mutation gate: every mutant in catalogue.py must be killed.

    python mutation/run.py

The runner copies src, tests and README.md into a temporary directory. It
first runs the tests that the mutants name on the unmutated copy, which must
pass. Then, for each mutant, it applies the mutant, runs the mutant's tests
with `pytest -x`, and restores the file. It prints killed or survived with
the time taken. It exits 1 if a mutant survives, if a mutant's text no
longer occurs exactly once (a stale catalogue), or if the unmutated copy
fails.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from catalogue import MUTANTS  # beside this script, which is first on sys.path

ROOT = Path(__file__).resolve().parent.parent


def pytest(work: Path, tests: list[str]) -> int:
    """Exit code of pytest -x over `tests` in the copy at `work`."""
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        # no bytecode: a restored file may keep the size and mtime second of its mutant
        cwd=work, env={**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    failed = False
    for m in MUTANTS:
        count = (ROOT / m["file"]).read_text().count(m["text"])
        if count != 1:
            print(f"{m['id']}: stale, its text occurs {count} times in {m['file']}")
            failed = True
    if failed:
        return 1
    with tempfile.TemporaryDirectory(prefix="pmpsim-mutation-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "README.md", work)
        tests = sorted({t for m in MUTANTS for t in m["tests"]})
        start = time.perf_counter()
        if pytest(work, tests) != 0:
            print("the unmutated copy fails its tests; no mutant can be judged")
            return 1
        print(f"unmutated: passed ({time.perf_counter() - start:.1f} s)")
        for m in MUTANTS:
            path = work / m["file"]
            original = path.read_text()
            path.write_text(original.replace(m["text"], m["replacement"]))
            start = time.perf_counter()
            code = pytest(work, m["tests"])
            path.write_text(original)
            # 1 is a failed test; any other code (an error, no tests run) kills nothing
            verdict = {0: "survived", 1: "killed"}.get(code, f"not judged (pytest exit {code})")
            print(f"{m['id']}: {verdict} ({time.perf_counter() - start:.1f} s)")
            failed |= code != 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
