"""Cold and warm time of each benchmark CLI command, and the modules it loads.

    python tools/cli_layout.py [--runs N]

For each of the nine commands of bench/workloads.CLI_COMMANDS (read, never
edited) it prints the median wall time of N child runs with the package
compiled from source (cold) and of N with the package read from bytecode
(warm), the confcoalg modules the child loads and their source lines.  The
children run python -m confcoalg.cli from the root of the checkout with src
on PYTHONPATH, as the benchmark's children do, and alternate cold and warm
per command.

Every child runs with PYTHONDONTWRITEBYTECODE=1 and a temporary
PYTHONPYCACHEPREFIX, so nothing is written into the repository and no
__pycache__ of the checkout is read.  compileall compiles once, into that
prefix, the standard library modules the commands load, for both kinds of
run, since the benchmark's children read the installed standard library's
bytecode; the warm prefix holds the package's bytecode too.  verify --in
reads K_3's JSON document, written into the temporary directory.  The last
line is one JSON object with every figure.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True      # importing bench/workloads and the package writes nothing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "confcoalg"
sys.path[:0] = [str(ROOT / "bench"), str(SRC)]

from workloads import CLI_COMMANDS  # noqa: E402

# a child's program: the command of its other arguments, and at exit the file of
# every module it loaded written into the path of its first argument
_FOOTPRINT = ("import atexit, json, sys\n"
              "out = sys.argv.pop(1)\n"
              "atexit.register(lambda: open(out, 'w').write(json.dumps(\n"
              "    sorted({getattr(m, '__file__', None) or '' for m in list(sys.modules.values())}))))\n"
              "from confcoalg.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")


def env(prefix):
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1",
                PYTHONPYCACHEPREFIX=str(prefix))


def child(argv, prefix):
    """Seconds of one command child under the bytecode prefix."""
    t0 = time.perf_counter()
    # no timeout: without pipes, a timed wait polls the child every 50 ms
    subprocess.run([sys.executable, "-m", "confcoalg.cli", *argv], cwd=ROOT, env=env(prefix),
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


def loaded(argv, prefix, out):
    """The source files of every module one command child loads."""
    subprocess.run([sys.executable, "-c", _FOOTPRINT, str(out), *argv], cwd=ROOT,
                   env=env(prefix), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return [Path(f) for f in json.loads(out.read_text()) if f.endswith(".py")]


def compile_into(prefix, files):
    subprocess.run([sys.executable, "-m", "compileall", "-q", *map(str, files)],
                   env=dict(os.environ, PYTHONPYCACHEPREFIX=str(prefix)), check=True)


def lines(module):
    """Source lines of a module of the package, the package root named confcoalg."""
    with open(PACKAGE / f"{'__init__' if module == 'confcoalg' else module}.py") as fh:
        return sum(1 for _ in fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=21)
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    from confcoalg import families, serialize

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cold, warm = tmp / "cold", tmp / "warm"
        table = tmp / "k3.json"
        table.write_text(serialize.dumps(families.make_K(3)))
        commands = [(name, [str(table) if a == "{table}" else a for a in argv])
                    for name, argv, _ in CLI_COMMANDS]
        files = {name: loaded(argv, cold, tmp / "modules.json") for name, argv in commands}
        package = {name: sorted(f.stem if f.name != "__init__.py" else "confcoalg"
                                for f in fs if f.parent == PACKAGE)
                   for name, fs in files.items()}
        stdlib = {f for fs in files.values() for f in fs if PACKAGE not in f.parents}
        compile_into(cold, stdlib)
        shutil.copytree(cold, warm)
        compile_into(warm, sorted(PACKAGE.glob("*.py")))
        times = {name: {"cold": [], "warm": []} for name, _ in commands}
        for r in range(args.runs):
            for name, argv in commands:
                for kind, prefix in ((("cold", cold), ("warm", warm)) if r % 2 == 0
                                     else (("warm", warm), ("cold", cold))):
                    times[name][kind].append(child(argv, prefix))
    rows = {}
    for name, _ in commands:
        rows[name] = {"cold_ms": statistics.median(times[name]["cold"]) * 1e3,
                      "warm_ms": statistics.median(times[name]["warm"]) * 1e3,
                      "modules": package[name],
                      "lines": sum(map(lines, package[name]))}
        row = rows[name]
        print(f"{name:<16} cold {row['cold_ms']:6.1f} ms  warm {row['warm_ms']:6.1f} ms  "
              f"{row['lines']:5,} lines  {', '.join(m for m in row['modules'] if m != 'confcoalg')}")
    total = {key: sum(row[key] for row in rows.values()) for key in ("cold_ms", "warm_ms", "lines")}
    print(f"{'one pass':<16} cold {total['cold_ms']:6.1f} ms  warm {total['warm_ms']:6.1f} ms  "
          f"{total['lines']:5,} lines  ({args.runs} runs of each, {sys.version.split()[0]})")
    print(json.dumps({"runs": args.runs, "python": sys.version.split()[0], "commands": rows,
                      "pass": total}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
