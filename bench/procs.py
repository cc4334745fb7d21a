"""Child processes: the real CLI in fresh single-threaded interpreters.

Every command runs as ``python -c BOOT <stamp> <cli args...>``. BOOT imports
``moodcast.cli`` from ``src/``, writes ``time.perf_counter()`` to the stamp
file the moment the import is done, then calls ``moodcast.cli.main``. The
perf counter is CLOCK_MONOTONIC on Linux, so the stamp minus the parent's
spawn time is the child's start-up cost. Resource usage comes from
``os.wait4`` on that one child: ``RUSAGE_CHILDREN`` would report the
high-water RSS of every child the benchmark ever waited for.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

BOOT = (
    "import sys, time\n"
    "import moodcast.cli as cli\n"
    "stamp = time.perf_counter()\n"
    "with open(sys.argv[1], 'w') as handle:\n"
    "    handle.write(repr(stamp))\n"
    "if len(sys.argv) > 2:\n"
    "    sys.exit(cli.main(sys.argv[2:]))\n"
)

# One process at a time, each on one thread: BLAS pools would otherwise
# compete for the two cores with the benchmark itself.
_SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(_SINGLE_THREAD)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass(frozen=True)
class ChildResult:
    """Outcome of one CLI process."""

    code: int
    wall_s: float
    setup_s: float
    cpu_s: float
    max_rss_mb: float
    stderr: str


def _spawn(cmd: list[str], stamp: Path, log: Path) -> ChildResult:
    if stamp.exists():
        stamp.unlink()
    with open(log, "w+", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    setup = float(stamp.read_text()) - start if stamp.exists() else float("nan")
    return ChildResult(
        code=proc.returncode,
        wall_s=end - start,
        setup_s=setup,
        cpu_s=usage.ru_utime + usage.ru_stime,
        max_rss_mb=usage.ru_maxrss / 1024.0,
        stderr=stderr,
    )


def run_cli(args: list[str], scratch: Path) -> ChildResult:
    """Run ``moodcast <args>`` in a fresh interpreter and wait for it."""
    cmd = [sys.executable, "-c", BOOT, str(scratch / "stamp"), *args]
    return _spawn(cmd, scratch / "stamp", scratch / "stderr.log")


def probe_setup(scratch: Path) -> ChildResult:
    """Start an interpreter that only imports ``moodcast.cli``."""
    return run_cli([], scratch)


# Import metric -> module-name prefix whose self times it sums. scipy loads
# its subpackages lazily, so ``scipy.stats`` has no line (and no cumulative
# time) of its own; the sums over names are what stays well defined.
IMPORT_GROUPS = {"scipy_stats": "scipy.stats", "scipy": "scipy", "numpy": "numpy", "moodcast_self": "moodcast"}


def import_times(scratch: Path, repeats: int = 3) -> dict[str, float]:
    """Import seconds of ``moodcast.cli`` from ``python -X importtime``.

    ``total`` sums every module's self time; each key of IMPORT_GROUPS sums
    the self time of the package with that name and its submodules. Each
    figure is the median of ``repeats`` fresh interpreters.
    """
    samples: dict[str, list[float]] = {key: [] for key in ("total", *IMPORT_GROUPS)}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import moodcast.cli"],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            check=True,
        )
        found = dict.fromkeys(samples, 0.0)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "[us]" in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            name, seconds = name.strip(), int(self_us) / 1e6
            found["total"] += seconds
            for key, prefix in IMPORT_GROUPS.items():
                if name == prefix or name.startswith(prefix + "."):
                    found[key] += seconds
        for key, value in found.items():
            samples[key].append(value)
    return {key: statistics.median(values) for key, values in samples.items()}
