import sys

import numpy as np

from run import Launcher


def test_peak_rss_is_the_childs_own(tmp_path):
    held = np.ones(200 * 2**20 // 8)  # 200 MB touched in this process
    with Launcher() as launcher:
        wall, rss_mb, code, text = launcher.run(
            [sys.executable, "-c", "print('hello')"], tmp_path / "child.log"
        )
    assert held.sum() > 0
    assert code == 0 and text == "hello\n" and wall > 0
    assert rss_mb < 100


def test_nonzero_exit_is_reported(tmp_path):
    with Launcher() as launcher:
        _, _, code, text = launcher.run(
            [sys.executable, "-c", "raise SystemExit('boom')"], tmp_path / "child.log"
        )
    assert code == 1 and "boom" in text
