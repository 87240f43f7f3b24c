"""Suite-wide hooks: the run's CPU time, printed at the end of the run.

Wall time on a shared host includes the time other processes hold the CPU;
CPU time counts only the work of the suite's own processes.
"""

import os


def pytest_terminal_summary(terminalreporter):
    t = os.times()
    cpu = t.user + t.system + t.children_user + t.children_system
    terminalreporter.write_line(f"CPU time: {cpu:.2f} s (user + system, child processes included)")
