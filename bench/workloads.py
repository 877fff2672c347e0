"""Workload definitions: generated config and command sequence per workload.

Every workload is a closed loop: one caller issues one bolomux command
after another at --threads 1 in a single process.  The seed reaches the
program only through the generated config's "seed" field and --seed.
Output directories are fixed names under the repetition's directory, so
the output checks can find them.
"""
import os

MUX_DIR = "mux"
PSWEEP_DIR = "psweep"
CHAR_DIR = "char"
FSCAN_DIR = "fscan"

# steady-dense grids: denser than the shipped ones, still inside the schema
DENSE_POWERS_DBM = [-160.0 + 3.75 * k for k in range(9)]   # -160 .. -130 dBm
DENSE_CHAR_POINTS = 801
DENSE_SCAN_POINTS = 2001


def config_doc(workload, seed):
    """User config merged by bolomux over its shipped defaults."""
    doc = {"seed": seed}
    if workload == "steady-dense":
        doc["sweeps"] = {
            "characterize": {"powers_dbm": DENSE_POWERS_DBM,
                             "span_linewidths": 8.0,
                             "n_points": DENSE_CHAR_POINTS},
            "filterscan": {"f_min_hz": 4.0e9, "f_max_hz": 8.0e9,
                           "n_points": DENSE_SCAN_POINTS,
                           "heater_power_dbm": -145.0},
        }
    return doc


def commands(workload, seed, config_path, rep_dir):
    """argv lists for bolomux.cli.main, in the order they are issued."""
    common = ["--config", config_path, "--seed", str(seed), "--threads", "1"]

    def run(cmd, name):
        return [cmd, *common, "--out", os.path.join(rep_dir, name)]

    def read(cmd, name):
        return [cmd, os.path.join(rep_dir, name), "--config", config_path]

    if workload == "mux-desk":
        return [run("multiplex", MUX_DIR), read("analyze", MUX_DIR),
                read("report", MUX_DIR)]
    if workload == "powersweep-desk":
        return [run("powersweep", PSWEEP_DIR), read("analyze", PSWEEP_DIR)]
    if workload == "steady-dense":
        return [run("characterize", CHAR_DIR), run("filterscan", FSCAN_DIR),
                read("analyze", CHAR_DIR), read("analyze", FSCAN_DIR)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("mux-desk", "powersweep-desk", "steady-dense")
