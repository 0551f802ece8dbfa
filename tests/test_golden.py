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
# and a "-gn" suffix adds arch.group_norm.  Re-pinned once for run directory
# format 2: containers end in a sha256 and drop the records nothing reads,
# manifests drop ratio_labels, and the config digest leaves out output_dir
GOLDEN = {
    "grown": "e25b708d88f5ec9028de792db2e0d79e82b242da328b2f64c6bd100c70d5f51e",
    "grow_only": "b0fb5ccf4abd0b3c78747c479860f219e348201592e4056ff1b797fd35afd514",
    "scratch": "ac5feb96a66de752a4e6a89b6bf99236834811f2c842232d5fdc3fc6e05d73a5",
    "grown-gn": "0299c09fd0d4a3b5c297d9b49a24dedb416f9ea9941ce809bd40c16dd1ba2da5",
}

# tree_digest of ``growcl report`` over the four runs above, in GOLDEN order,
# recorded with numpy 2.4.6; the scratch, grown and grow_only configs differ
# only in output_dir, which the config digest leaves out, so the report pairs
# grown with grow_only into deltas.csv (grown-gn has a config of its own)
GOLDEN_REPORT = "da941e5f273f57754f3681a91977a5d2f67b22434a4ef34974f0612f9e699a1a"

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
