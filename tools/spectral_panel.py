"""Check every delay-margin report of the analysis-sweep panel against the
spectrum of the linearised delay equation.

    python tools/spectral_panel.py

Renders `delay-margin` for all 2500 draws of the panel that
`perfbench/run.py --workload analysis-sweep` sweeps and runs
`tests/test_spectral.py`'s check_report on each (Tier-1 checks the first
150). Prints one line per disagreement, including a report that could not
be rendered, then the count of each verdict. It is a check: the exit code
is 1 on any disagreement and 0 when there is none.
"""
import collections
import pathlib
import sys
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_spectral  # noqa: E402


def main() -> int:
    start = time.perf_counter()
    verdicts = collections.Counter()
    disagreements = 0
    for j, draw in enumerate(test_spectral.panel(test_spectral.PANEL_SIZE)):
        try:
            rep = test_spectral.delay_margin_report(*draw)
            verdicts[rep["verdict"]] += 1
            test_spectral.check_report(rep)
        except Exception as exc:
            disagreements += 1
            where = traceback.extract_tb(exc.__traceback__)[-1]
            print(f"draw {j} {draw}: {exc!r} at {where.name}: {where.line}")
    for verdict, n in sorted(verdicts.items()):
        print(f"{n:5d}  {verdict}")
    print(f"{disagreements} disagreements in {test_spectral.PANEL_SIZE} draws "
          f"({time.perf_counter() - start:.1f} s)")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
