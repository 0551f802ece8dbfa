"""Set-up probe: what a fresh process does before its first pipeline call.

Imports growcl from the checkout's ``src``, parses the workload config given
as JSON in argv[1], makes one BLAS call, then prints ``ready``.  The parent
times it from process start to that line.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from growcl import cli, config, driver, persist  # noqa: E402,F401

config.parse_config_data(json.loads(sys.argv[1]))
np.dot(np.ones((64, 64)), np.ones((64, 64)))
print("ready", flush=True)
