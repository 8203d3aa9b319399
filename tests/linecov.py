"""The lines of `src/botdetect` that the tier-1 tests never run, per module.

    python tests/linecov.py [pytest arguments]

It copies `src/` to a temporary directory beside a `sitecustomize.py` that
installs a `sys.settrace` line hook, then runs the tier-1 command from the
repository root with ``PYTHONPATH`` at the copy. Python imports
`sitecustomize` at start-up, so the hook also runs in every subprocess the
tests start: they set ``PYTHONPATH`` from `botdetect.__file__`, which is the
copy. Each process writes the lines it ran when it exits. A module's
executable lines are the line starts of its compiled code objects.

The report goes to stdout, one line per module and a total; pytest's own
output goes to stderr. The exit code is pytest's. Stdlib only: no coverage
package is installed. The run takes about half as long again as tier-1.
"""

from __future__ import annotations

import dis
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]

HOOK = '''\
import atexit, os, sys, threading

_PACKAGE, _OUT, _seen = {package!r}, {out!r}, set()


def _lines(frame, event, arg):
    if event == "line":
        _seen.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    if not frame.f_code.co_filename.startswith(_PACKAGE):
        return None
    _seen.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


@atexit.register
def _write():
    sys.settrace(None)
    path = os.path.join(_OUT, f"{{os.getpid()}}-{{os.urandom(8).hex()}}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{{line}} {{name}}\\n" for name, line in _seen)


sys.settrace(_calls)
threading.settrace(_calls)
'''


def executable_lines(path: str) -> set[int]:
    """The line starts of every code object compiled from the file."""
    with open(path, encoding="utf-8") as fh:
        stack = [compile(fh.read(), path, "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(const for const in code.co_consts if hasattr(const, "co_code"))
    return lines


def _ranges(lines: list[int]) -> str:
    """Sorted line numbers as comma-separated runs, such as `3, 7-9`."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def report(package: str, ran: set[tuple[str, int]]) -> list[str]:
    """One line per module of the package directory, then the total."""
    out, total, unrun_total = [], 0, 0
    for folder, _, names in sorted(os.walk(package)):
        for name in sorted(n for n in names if n.endswith(".py")):
            path = os.path.join(folder, name)
            lines = executable_lines(path)
            unrun = sorted(line for line in lines if (path, line) not in ran)
            total, unrun_total = total + len(lines), unrun_total + len(unrun)
            shown = os.path.relpath(path, os.path.dirname(package))
            out.append(f"{shown}: {len(unrun)} of {len(lines)} lines unrun"
                       + (f": {_ranges(unrun)}" if unrun else ""))
    share = 100.0 * (total - unrun_total) / total if total else 100.0
    out.append(f"total: {unrun_total} of {total} lines unrun ({share:.1f}% run)")
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    with tempfile.TemporaryDirectory(prefix="linecov-") as work:
        src, out = os.path.join(work, "src"), os.path.join(work, "lines")
        shutil.copytree(os.path.join(ROOT, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        os.mkdir(out)
        package = os.path.join(src, "botdetect")
        with open(os.path.join(src, "sitecustomize.py"), "w", encoding="utf-8") as fh:
            fh.write(HOOK.format(package=package + os.sep, out=out))
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        code = subprocess.run([sys.executable, *TIER1, *args], cwd=ROOT, env=env,
                              stdout=sys.stderr).returncode
        ran = set()
        for name in os.listdir(out):
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                for entry in fh:
                    line, path = entry.rstrip("\n").split(" ", 1)
                    ran.add((path, int(line)))
        print("\n".join(report(package, ran)))
    return code


if __name__ == "__main__":
    sys.exit(main())
