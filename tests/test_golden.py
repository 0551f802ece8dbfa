"""Golden run-directory digests: a refactor that keeps run bytes keeps these.

One subprocess, with BLAS and OpenMP pinned to one thread, runs
``growcl run`` for four small configs and then ``growcl report`` over the
four run directories; each run directory's ``tree_digest``
(``bench/rundiff.py``) and the report directory's must equal the constants
recorded for them.  A change that alters numerics on purpose updates the
constants once and says so.  A second test runs one small grown run under 1
and then 2 BLAS threads and asserts the two run directories are identical.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
RUNDIFF = REPO / "bench" / "rundiff.py"

BASE = {"seed": 0, "tasks": {"n_tasks": 2},
        "epochs": {"task1": 1, "pick": 1, "expand": 1, "scratch": 1}}

# run name -> tree_digest, recorded with numpy 2.4.6; the name is the mode,
# and a "-gn" suffix adds arch.group_norm
GOLDEN = {
    "grown": "348e9beec6f4cb507fa9bb23626698e26a28a67338e15ec6544168768d5c7c89",
    "grow_only": "e7e88a35c347467dbd4ded0722bd1696b229b037324d02b674830eb091840373",
    "scratch": "177252d9d62c42a17f901aea848eb58ed20fc96bd0cbfd9cb20edc9b4f6595df",
    "grown-gn": "c48296b026d5a1e2bbb5db277e005183c887bf7463ceec94e0d8a2735f9ef28d",
}

# tree_digest of ``growcl report`` over the four runs above, in GOLDEN order;
# each run's config names its own output_dir, so no two share a config digest
# and the report pairs none of them into deltas.csv
GOLDEN_REPORT = "91ff4022e18dbd1752b719626a99d8c5151edc22cf04b3ab42baf5e28373d227"

RUNNER = """
import sys
from pathlib import Path
from growcl.cli import main
names, modes, configs = sys.argv[1::3], sys.argv[2::3], sys.argv[3::3]
for mode, config in zip(modes, configs):
    if main(["run", "--config", config, "--mode", mode]) != 0:
        sys.exit(f"growcl run --mode {mode} failed")
run_dirs = [str(d) for name in names for d in Path(name).iterdir()]
if main(["report", *run_dirs, "--out", "report"]) != 0:
    sys.exit("growcl report failed")
"""


def load_rundiff():
    spec = importlib.util.spec_from_file_location("bench_rundiff", RUNDIFF)
    rundiff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(rundiff)
    return rundiff


def test_run_directories_match_golden_digests(tmp_path):
    args = []
    for name in GOLDEN:
        data = dict(BASE, output_dir=name)
        if name.endswith("-gn"):
            data["arch"] = {"group_norm": True}
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(data))
        args += [name, name.removesuffix("-gn"), str(config)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("GROWCL_OUTPUT_ROOT", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-c", RUNNER, *args], env=env, check=True,
                   cwd=tmp_path)

    tree_digest = load_rundiff().tree_digest
    digests = {}
    for name in GOLDEN:
        (run_dir,) = (tmp_path / name).iterdir()
        digests[name] = tree_digest(run_dir)
    assert digests == GOLDEN
    assert tree_digest(tmp_path / "report") == GOLDEN_REPORT


def test_run_directory_bytes_do_not_depend_on_blas_threads(tmp_path):
    # one small grown run at the 48/64 arch, under 1 and then 2 BLAS and
    # OpenMP threads, each in its own working directory: a GEMM split across
    # threads may sum in another order, and no run byte may show it
    config = tmp_path / "wide.json"
    config.write_text(json.dumps(dict(BASE, output_dir="wide", arch={"layers": [
        {"capacity": 48, "seed_channels": 16}, {"capacity": 64, "seed_channels": 16}]})))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env.pop("GROWCL_OUTPUT_ROOT", None)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
        cwd = tmp_path / f"threads{threads}"
        cwd.mkdir()
        subprocess.run([sys.executable, "-c", RUNNER, "wide", "grown", str(config)],
                       env=env, check=True, cwd=cwd)
        (run_dir,) = (cwd / "wide").iterdir()
        digests.append(load_rundiff().tree_digest(run_dir))
    assert digests[0] == digests[1]
