"""Command-line front door: run pipelines, verify oracles, merge reports.

Exit codes: 0 success, 1 invariant failure, 2 usage error.  The output root
is the config's ``output_dir``, overridable by the GROWCL_OUTPUT_ROOT
environment variable, defaulting to ./runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import __version__
from .config import ConfigError, parse_config
from .driver import MODES, run_id, run_pipeline
from .enumcheck import run_sweep
from .growth import ContractViolation, GrowthCapError
from .persist import accuracy_csv, read_manifest, save_run, size_csv
from .rng import SeededRng
from .store import StoreFormatError, write_text_atomic

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2

OUTPUT_ROOT_ENV = "GROWCL_OUTPUT_ROOT"


def _output_root(config_output_dir: str | None) -> Path:
    env = os.environ.get(OUTPUT_ROOT_ENV)
    if env:
        return Path(env)
    if config_output_dir:
        return Path(config_output_dir)
    return Path("runs")


def cmd_run(args: argparse.Namespace) -> int:
    try:
        config = parse_config(args.config)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    run_dir = _output_root(config.output_dir) / run_id(args.mode, config)
    try:   # fail before training, not after it
        run_dir.parent.mkdir(parents=True, exist_ok=True)
        if run_dir.exists() and not run_dir.is_dir():
            raise FileExistsError(f"{run_dir} exists and is not a directory")
    except OSError as e:
        print(f"error: cannot write run directory {run_dir}: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        result = run_pipeline(config, args.mode)
    except (OSError, ValueError) as e:   # unreadable data, IdxFormatError included
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ContractViolation, GrowthCapError, FloatingPointError) as e:
        print(f"invariant failure: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    try:
        save_run(result, run_dir)
    except OSError as e:
        print(f"error: cannot write run directory {run_dir}: {e}", file=sys.stderr)
        return EXIT_USAGE
    print(f"{run_dir.name}: avg accuracy {result.avg_accuracy:.4f} -> {run_dir}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.instances < 1:
        print("error: --instances must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if args.out and (Path(args.out).is_dir() or not Path(args.out).parent.is_dir()):
        print(f"error: --out {args.out} is not a file in an existing directory",
              file=sys.stderr)
        return EXIT_USAGE
    try:   # SeededRng owns the seed's range
        SeededRng(args.seed)
    except ValueError as e:
        print(f"error: --seed: {e}", file=sys.stderr)
        return EXIT_USAGE
    failures = []

    report = run_sweep(args.instances, args.seed,
                       force_identity_mask=(args.plant_fault == "identity-mask"))
    if args.out:
        write_text_atomic(args.out, report.to_csv())
    print(f"enumeration sweep: {args.instances} instances, "
          f"{report.strict_count} strict, "
          f"{'all passed' if report.all_passed else 'FAILURES'}")
    if not report.all_passed:
        failures.append("enumeration sweep found a minimum-ordering violation")
    if report.suspicious_equality:
        failures.append(
            "suspicious equality: no instance showed a strict gap "
            "(free branch may be evaluating the constrained space)"
        )

    grad_fail = _gradient_suite(plant_fault=(args.plant_fault == "gradient"))
    if grad_fail:
        failures.append(grad_fail)

    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return EXIT_INVARIANT if failures else EXIT_OK


def _gradient_suite(plant_fault: bool = False) -> str | None:
    """Finite-difference checks of three gradients: conv2d's filter
    gradient, linear plus cross-entropy's weight gradient, and the
    straight-through logit gradient of the Gumbel-sigmoid mask."""
    import numpy as np

    from .masks import gumbel_noise, gumbel_sigmoid, ste_logit_grad
    from .ops import (
        conv2d, conv2d_backward, cross_entropy, finite_diff_check, linear,
        linear_backward,
    )

    rng = np.random.default_rng(0)
    worst = 0.0

    x = rng.normal(size=(2, 2, 5, 5))
    w0 = rng.normal(size=(2, 2, 3, 3)) * 0.5
    b = rng.normal(size=2) * 0.1
    dout = rng.normal(size=(2, 2, 5, 5))

    def f_conv(wflat):
        w = wflat.reshape(w0.shape)
        out, cache = conv2d(x, w, b, pad=1)
        _, dw, _ = conv2d_backward(dout, cache)
        scale = 2.0 if plant_fault else 1.0
        return float((out * dout).sum()), scale * dw.ravel()

    worst = max(worst, finite_diff_check(f_conv, w0.ravel().copy()))

    xl = rng.normal(size=(3, 4))
    wl = rng.normal(size=(2, 4))

    def f_linear(wflat):
        w = wflat.reshape(wl.shape)
        out, cache = linear(xl, w, np.zeros(2))
        loss, dz = cross_entropy(out, np.array([0, 1, 1]))
        _, dw, _ = linear_backward(dz, cache)
        return loss, dw.ravel()

    worst = max(worst, finite_diff_check(f_linear, wl.ravel().copy()))

    srng = SeededRng(1).substream("gumbel")
    logits0 = rng.normal(size=8)
    g0 = gumbel_noise(srng, logits0.shape)
    g1 = gumbel_noise(srng, logits0.shape)
    up = rng.normal(size=8)

    def f_ste(logits):
        p = gumbel_sigmoid(logits, g0, g1, 0.7)
        return float((up * p).sum()), ste_logit_grad(up, logits, g0, g1, 0.7)

    worst = max(worst, finite_diff_check(f_ste, logits0.copy()))

    if worst >= 1e-5:
        return f"gradient check failed: max relative error {worst:.3g}"
    return None


def cmd_report(args: argparse.Namespace) -> int:
    try:
        manifests = [read_manifest(d) for d in args.run_dirs]
    except (OSError, StoreFormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    if len({m["n_tasks"] for m in manifests}) != 1:
        print("error: runs have different task counts", file=sys.stderr)
        return EXIT_USAGE
    # runs of one config pair up: grown and grow_only share its digest
    pairs: dict[tuple[int, str], dict[str, float]] = {}   # (seed, digest) -> mode -> avg
    for run_dir, m in zip(args.run_dirs, manifests):
        modes = pairs.setdefault((m["seed"], m["config_digest"]), {})
        if m["mode"] in modes:
            print(f"error: {run_dir} repeats the seed, mode and config digest of "
                  f"another run", file=sys.stderr)
            return EXIT_USAGE
        modes[m["mode"]] = m["avg_accuracy"]

    out_dir = Path(args.out) if args.out else Path(".")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        print(f"error: cannot use --out {out_dir}: {e}", file=sys.stderr)
        return EXIT_USAGE
    write_text_atomic(out_dir / "consolidated.csv", accuracy_csv(manifests))
    write_text_atomic(out_dir / "consolidated_size.csv", size_csv(manifests))

    # paired deltas: full pipeline minus growth-only baseline
    delta_lines = ["seed,grown_avg,grow_only_avg,delta"]
    for (seed, _), pair in sorted(pairs.items()):
        if "grown" in pair and "grow_only" in pair:
            delta = pair["grown"] - pair["grow_only"]
            delta_lines.append(
                f"{seed},{pair['grown']:.4f},{pair['grow_only']:.4f},{delta:+.4f}"
            )
    if len(delta_lines) > 1:
        write_text_atomic(out_dir / "deltas.csv", "\n".join(delta_lines) + "\n")
        print((out_dir / "deltas.csv").read_text(), end="")
    print(f"report written to {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="growcl",
        description="Continual learning by sparse channel growth of a seed CNN",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a pipeline and write a run directory")
    p_run.add_argument("--config", required=True, help="JSON config path")
    p_run.add_argument("--mode", required=True, choices=MODES)
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser(
        "verify", help="run the enumeration sweep and gradient checks")
    p_verify.add_argument("--instances", type=int, default=200)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", help="write the sweep CSV here")
    p_verify.add_argument("--plant-fault", choices=["identity-mask", "gradient"],
                          help="inject a known fault to prove the checks catch it")
    p_verify.set_defaults(func=cmd_verify)

    p_report = sub.add_parser("report", help="merge run directories into one table")
    p_report.add_argument("run_dirs", nargs="+")
    p_report.add_argument("--out", help="output directory (default: cwd)")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
