#!/usr/bin/env python3
"""Check that every header the library ships has a caller outside tests.

A header under src/ is reached when some file other than its own .cpp and
other than the tests includes it: another library source, a tool, a bench,
an example or the benchmark harness.  A header that only its own .cpp and
tests/ include is a test oracle or dead code; it belongs in tests/support
or nowhere, not in the library.

Usage:
  python3 tools/check_library_reach.py [REPO_ROOT]

Prints each unreached header and exits 1 when there is one.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)
# Where a caller may live; tests/ is left out on purpose.
SOURCE_DIRS = ("src", "tools", "bench", "examples", "benchmark")
SUFFIXES = {".hpp", ".cpp"}


def main() -> int:
    root = Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    src = root / "src"
    headers = {p.relative_to(src).as_posix() for p in src.rglob("*.hpp")}

    includers: dict[str, set[Path]] = {h: set() for h in headers}
    for top in SOURCE_DIRS:
        for path in (root / top).rglob("*"):
            if path.suffix not in SUFFIXES or not path.is_file():
                continue
            for name in INCLUDE.findall(path.read_text(errors="replace")):
                if name in includers:
                    includers[name].add(path.relative_to(root))

    unreached = []
    for header in sorted(headers):
        own_cpp = Path("src") / Path(header).with_suffix(".cpp")
        if not includers[header] - {own_cpp}:
            unreached.append(header)

    for header in unreached:
        print(f"src/{header}: included only by its own .cpp and tests/")
    if unreached:
        print(f"{len(unreached)} library header(s) with no caller outside "
              "tests: move them to tests/support or delete them")
        return 1
    print(f"all {len(headers)} library headers have a caller outside tests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
