"""Byte-compare two run directories.

Every regular file under each directory is hashed with sha256; the two
trees match when they hold the same relative paths with the same digests.
The first difference, in sorted path order, is named.

    python3 bench/rundiff.py RUN_DIR_A RUN_DIR_B

exits 0 when the directories are byte-identical and 1 otherwise, printing
the first difference.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path


def file_digests(run_dir: str | Path) -> dict[str, str]:
    """sha256 of every regular file, keyed by its path relative to run_dir."""
    root = Path(run_dir)
    if not root.is_dir():
        raise FileNotFoundError(f"not a directory: {root}")
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def tree_digest(run_dir: str | Path) -> str:
    """One sha256 over the sorted (path, file digest) list of a directory."""
    h = hashlib.sha256()
    for rel, digest in sorted(file_digests(run_dir).items()):
        h.update(f"{rel}\0{digest}\n".encode())
    return h.hexdigest()


def first_difference(dir_a: str | Path, dir_b: str | Path) -> str | None:
    """None when both trees are byte-identical, else the first difference."""
    a, b = file_digests(dir_a), file_digests(dir_b)
    for rel in sorted(a.keys() | b.keys()):
        if rel not in b:
            return f"{rel}: only in {dir_a}"
        if rel not in a:
            return f"{rel}: only in {dir_b}"
        if a[rel] != b[rel]:
            return f"{rel}: sha256 {a[rel][:16]} != {b[rel][:16]}"
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: rundiff.py RUN_DIR_A RUN_DIR_B", file=sys.stderr)
        return 2
    diff = first_difference(*argv)
    if diff is None:
        print("identical")
        return 0
    print(f"differ: {diff}")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
