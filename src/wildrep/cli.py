"""Command line interface and canonical report serialization.

Commands: construct, table, restrict, simplicity, bound, certify.  All
output is deterministic given (seed, prime): JSON is emitted with sorted
keys, two-space indent, integers only, and a trailing newline, so a
repeated run is byte-identical.  Exit codes: 0 on success or a true
verdict, 1 on a failed certificate or refused precondition, 2 on invalid
input, which includes a request whose matrices would not fit in memory.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from functools import lru_cache

from . import __version__
from .exactfield import DEFAULT_PRIME, FieldSpec, SamplingError, SeededRng
from .cohomology import CohomologyTable, default_window
from .moduli import (
    RefusalError,
    WildnessReport,
    embedding_dimension,
    family_dimension,
    stabilizer_dimension,
    veronese_bound,
    wildness_certificate,
)
from .polyspace import RegularityError, basis_dim, hilbert_function
from .presentation import (
    SURJECTIVITY_SEARCH_MAX,
    GenericityError,
    ShapeError,
    build_kernel_bundle,
)
from .restriction import DimensionError, ci_dimension, make_ci_variety, restricted_cohomology_table

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2

# requests whose largest matrix has more int64 cells than this are refused
# before anything is sampled: 2^26 cells take 512 MiB, and row reduction
# works on a second copy
MAX_MATRIX_CELLS = 1 << 26

# every twist of a window costs a rank; on X the maps do not grow as the
# window extends below zero, so the matrix size check alone admits any width
MAX_TWISTS = 4096

# the Koszul data of c forms lists all 2^c sub-multisets of the degrees
MAX_FORMS = 16

# re-embedding degree of bound and certify when --s is not given
DEFAULT_S = 3

# each command's help text and the optional flags it reads; run refuses any
# other flag it is given.  Commands without "--format markdown" write JSON only
_COMMANDS = {
    "construct": ("sample a kernel bundle and report its certificates", ()),
    "table": (
        "exact cohomology table on the ambient projective space",
        ("--t-min", "--t-max", "--format markdown"),
    ),
    "restrict": (
        "exact cohomology table on a complete intersection",
        ("--t-min", "--t-max", "--ci-degrees", "--format markdown"),
    ),
    "simplicity": ("stabilizer dimension of a sampled presentation", ()),
    "bound": ("dimension counts: family, Veronese bound, embedding", ("--s", "--ci-degrees")),
    "certify": ("full wildness certificate for one (X, s, a) instance", ("--s", "--ci-degrees")),
}


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation; one instance fully determines one run.

    A window end or s of None, or an empty ci_degrees, means the flag was
    not given; format None is the command's own default, and s None is
    DEFAULT_S for the commands that read it.
    """

    command: str
    n: int
    a: int = 1
    s: int | None = None
    prime: int = DEFAULT_PRIME
    seed: int = 0
    t_min: int | None = None
    t_max: int | None = None
    ci_degrees: tuple[int, ...] = ()
    format: str | None = None
    output: str | None = None


def table_dict(table: CohomologyTable) -> dict:
    return {
        "dim": table.dim,
        "t_min": table.t_min,
        "t_max": table.t_max,
        "cells": table.as_rows(),
        "provenance": table.provenance_rows(),
    }


def phi_dict(phi) -> dict:
    return {
        "n": phi.n,
        "a_tgt": phi.a_tgt,
        "b_src": phi.b_src,
        "coeffs": phi.coeffs.tolist(),
    }


def wildness_dict(rep: WildnessReport) -> dict:
    return {
        "n": rep.n,
        "a": rep.a,
        "s": rep.s,
        "prime": rep.prime,
        "seed": rep.seed,
        "counter": rep.counter,
        "variety": {
            # the only kind of variety; the key is part of the canonical format
            "mode": "complete_intersection",
            "degrees": list(rep.variety_degrees),
            "ambient": rep.n,
            "dim": rep.variety_dim,
        },
        "bundle_rank": rep.bundle_rank,
        "family_dim": rep.family_dim,
        "veronese_bound": rep.veronese,
        "embedding_dim": rep.embedding_dim,
        "certificate": asdict(rep.certificate),
        "stabilizer": asdict(rep.stabilizer),
        # a trace lists its failures only when it has some
        "vanishing_traces": [
            {k: v for k, v in asdict(tr).items() if k != "failures" or v}
            for tr in rep.traces
        ],
        "acm": asdict(rep.acm),
        "checks": dict(rep.checks),
        "table": table_dict(rep.table),
        "verdict": rep.verdict,
    }


def serialize_report(payload: dict) -> str:
    """Canonical JSON: sorted keys, indent 2, ints only, trailing newline."""
    body = dict(payload)
    body["tool_version"] = __version__
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


def render_table_markdown(table: CohomologyTable, header: str) -> str:
    lines = [header, ""]
    twists = list(table.twists())
    lines.append("| h^i \\ t | " + " | ".join(str(t) for t in twists) + " |")
    lines.append("|" + "---|" * (len(twists) + 1))
    for i in range(table.dim + 1):
        row = [str(table.cell(i, t)) for t in twists]
        lines.append(f"| h^{i} | " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def _window(config: RunConfig, dim: int) -> tuple[int, int]:
    lo, hi = default_window(dim)
    if config.t_min is not None:
        lo = config.t_min
    if config.t_max is not None:
        hi = config.t_max
    if lo > hi:
        raise ValueError(f"empty twist window: t-min {lo} > t-max {hi}")
    if hi - lo + 1 > MAX_TWISTS:
        raise ValueError(
            f"twist window [{lo}, {hi}] has {hi - lo + 1} twists, more than "
            f"the {MAX_TWISTS} allowed"
        )
    return (lo, hi)


def largest_matrix(config: RunConfig) -> tuple[int, int]:
    """Shape of the largest matrix a request builds, from closed forms.

    Counts the maps of the surjectivity search, the stabilizer's system in
    C and, over the twist window, the P^n map in degree 1 + t, on X its
    lift [M | F] by the ideal span, and the Serre-dual maps on P^n.  The
    right kernel of A_all has at most a_tgt (n+1) columns whatever the
    sample, so a_tgt b_src (n+1) x a_tgt^2 bounds the stabilizer's system
    and the product that forms it.  The lift is built only when M is short
    of onto and I_(2+t) is not 0, so the count stays an upper bound of
    what is built.  Each grows monotonically in its degree, so the last
    search degree and the two ends of the window bound the rest.  A form
    of degree e is drawn as C(n+e, n) coefficients whatever the window, so
    its own degree counts too, as the degree-e ideal span with at least
    H_X(e) rows: a form too large to draw is refused before it is drawn.
    Parts that a later check refuses to build count as empty.
    """
    n, a = config.n, config.a
    if config.command == "bound" or n < 2 or a < 1:
        return (0, 0)
    a_tgt, b_src = 2 * a, (n + 2) * a
    m = SURJECTIVITY_SEARCH_MAX
    shapes = [(a_tgt * basis_dim(n, m + 1), b_src * basis_dim(n, m))]
    if config.command in ("simplicity", "certify"):
        shapes.append((a_tgt * b_src * (n + 1), a_tgt * a_tgt))
    degrees = config.ci_degrees
    d = n - len(degrees)
    if config.command in ("table", "restrict", "certify") and d >= 2:
        # the Hilbert function refuses a degree < 1 before the window is read
        form_rows = [hilbert_function(n, degrees, e) for e in degrees]

        def span_rows(k: int) -> int:
            return sum(basis_dim(n, k - e) for e in degrees)

        for k in (2 + t for t in _window(config, d)):
            shapes.append(
                (a_tgt * basis_dim(n, k), b_src * basis_dim(n, k - 1) + a_tgt * span_rows(k))
            )
            if not degrees:
                shapes.append(
                    (b_src * basis_dim(n, -k - n), a_tgt * basis_dim(n, -k - n - 1))
                )
        for e, rows in zip(degrees, form_rows):
            shapes.append((max(span_rows(e), rows), basis_dim(n, e)))
    return max(shapes, key=lambda shape: shape[0] * shape[1])


def _emit(text: str, config: RunConfig) -> None:
    if config.output:
        try:
            with open(config.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {config.output}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def run(config: RunConfig) -> int:
    """Execute one command; returns the exit code, writing output as asked."""
    if config.command not in _COMMANDS:
        raise ValueError(f"unknown command {config.command!r}")
    if not 0 <= config.seed < 1 << 64:
        raise ValueError(f"seed {config.seed} outside [0, 2^64)")
    if config.command == "certify" and (config.t_min, config.t_max) != (None, None):
        raise ValueError("certify always uses the default twist window; drop --t-min/--t-max")
    given = {
        "--s": config.s is not None,
        "--t-min": config.t_min is not None,
        "--t-max": config.t_max is not None,
        "--ci-degrees": bool(config.ci_degrees),
        "--format markdown": config.format == "markdown",
    }
    _, reads = _COMMANDS[config.command]
    unused = [flag for flag, on in given.items() if on and flag not in reads]
    if unused:
        raise ValueError(f"{config.command} does not use {', '.join(unused)}")
    if len(config.ci_degrees) > MAX_FORMS:
        raise ValueError(
            f"--ci-degrees lists {len(config.ci_degrees)} forms, more than the "
            f"{MAX_FORMS} allowed"
        )
    field = FieldSpec.prime(config.prime)
    rows, cols = largest_matrix(config)
    if rows * cols > MAX_MATRIX_CELLS:
        raise ValueError(
            f"request needs a {rows}x{cols} matrix, more than the "
            f"{MAX_MATRIX_CELLS} cells allowed"
        )
    rng = SeededRng(config.seed)
    n, a, degrees = config.n, config.a, config.ci_degrees
    s = DEFAULT_S if config.s is None else config.s
    payload = {"prime": config.prime, "seed": config.seed, "n": n, "a": a}
    code = EXIT_OK
    if config.command == "construct":
        kb, cert = build_kernel_bundle(n, a, rng, field)
        payload.update(bundle_rank=kb.rank, certificate=asdict(cert), phi=phi_dict(kb.phi))
    elif config.command in ("table", "restrict"):
        # table is restrict on P^n, the complete intersection of no forms
        x = make_ci_variety(n, degrees, rng, field)
        window = _window(config, x.d)
        kb, cert = build_kernel_bundle(n, a, rng, field)
        table = restricted_cohomology_table(kb, x, window)
        if config.format != "json":
            if config.command == "table":
                about = f"cohomology of the rank-{kb.rank} kernel bundle on P^{n}"
            else:
                about = (
                    f"cohomology restricted to a degree-{list(degrees)} "
                    f"complete intersection in P^{n}"
                )
            header = (
                f"{about}, a = {a}, seed {config.seed}, "
                f"prime {config.prime}, tool {__version__}"
            )
            _emit(render_table_markdown(table, header), config)
            return EXIT_OK
        payload.update(certificate=asdict(cert), table=table_dict(table))
        if config.command == "restrict":
            payload["ci_degrees"] = list(degrees)
    elif config.command == "simplicity":
        kb, cert = build_kernel_bundle(n, a, rng, field)
        rep = stabilizer_dimension(kb.phi.transpose())
        payload.update(certificate=asdict(cert), stabilizer=asdict(rep))
        code = EXIT_OK if rep.simple else EXIT_FAILED
    elif config.command == "bound":
        d = ci_dimension(n, degrees)
        payload.update(
            s=s,
            family_dim=family_dimension(n, a),
            veronese_bound=veronese_bound(n),
            embedding_dim=embedding_dimension(n, degrees, s),
            variety_dim=d,
        )
    else:
        x = make_ci_variety(n, degrees, rng, field)
        rep = wildness_certificate(x, s, a, rng)
        payload = wildness_dict(rep)
        code = EXIT_OK if rep.verdict else EXIT_FAILED
    _emit(serialize_report(payload), config)
    return code


@lru_cache(maxsize=1)  # built on first use, then shared: parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wildrep",
        description="exact certificates for families of simple ACM bundles",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, reads) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--n", type=int, required=True, help="ambient projective dimension")
        p.add_argument("--a", type=int, default=1, help="family parameter (bundle rank is n*a)")
        p.add_argument("--s", type=int, default=None, help="re-embedding degree")
        p.add_argument("--prime", type=int, default=DEFAULT_PRIME)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--t-min", type=int, default=None, dest="t_min")
        p.add_argument("--t-max", type=int, default=None, dest="t_max")
        p.add_argument(
            "--ci-degrees", type=int, nargs="*", default=[], dest="ci_degrees",
            help="degrees of the complete intersection forms (empty for P^n)",
        )
        default_fmt = "markdown" if "--format markdown" in reads else "json"
        p.add_argument("--format", choices=("markdown", "json"), default=default_fmt)
        p.add_argument("--output", default=None, help="write to a file instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = RunConfig(**{**vars(args), "ci_degrees": tuple(args.ci_degrees)})
    try:
        code = run(config)
    except (GenericityError, RefusalError, RegularityError) as exc:
        sys.stderr.write(f"certificate failed: {exc}\n")
        code = EXIT_FAILED
    except (ShapeError, DimensionError, SamplingError, ValueError) as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        code = EXIT_USAGE
    if argv is None:  # invoked as a console script
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
