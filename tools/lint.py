#!/usr/bin/env python
"""Format-only lint gate — a shim over the ``repro`` analyzer.

The standalone checker this file used to contain now lives in
``repro.lint`` as the ``format`` pass family (rules
``REPRO001``-``REPRO005``: syntax errors, tabs, trailing whitespace,
over-long lines, missing trailing newline). This entry point keeps the
historical interface — ``python tools/lint.py [paths...]``, one
clickable ``path:line:`` per problem, non-zero exit on any — while
delegating the checking itself, so the rules can never drift between
the lint gate and ``repro analyze``.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
FORMAT_CODES = "REPRO001,REPRO002,REPRO003,REPRO004,REPRO005"


def main(argv: Optional[List[str]] = None) -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.lint import Analyzer
    argv = list(sys.argv[1:] if argv is None else argv)
    analyzer = Analyzer(REPO_ROOT, select=FORMAT_CODES)
    report = analyzer.run(argv or None)
    for violation in report.violations:
        print(violation.render())
    if report.violations:
        print(f"lint: {len(report.violations)} problem(s) in "
              f"{report.files_checked} file(s)", file=sys.stderr)
        return 1
    print(f"lint: {report.files_checked} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
