"""Batch front end: config ingestion, suite orchestration, report emission,
and operator export.

Exit codes are a contract: 0 all applicable relations pass, 1 relation
failure, 2 configuration/usage error, 3 instance too large.  The JSON report
embeds the exact configuration and its hash so every number in it can be
reproduced from the report alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from collections import Counter

import numpy as np
import scipy.sparse as sp

from . import __version__
from .algebra import (
    DELTA,
    EPS,
    RootLabel,
    cached_basis,
    cached_generators,
    cartan_weyl_generators,
    cartan_weyl_h,
    central_charge_diag,
)
from .fock import (
    ConfigError,
    Corruption,
    InstanceTooLargeError,
    LatticeConfig,
    diag_operator,
)
from .report import CATALOG, reports_ok
from .verify import SUITES, run_suites

ENV_CONFIG = "ANYONREP_CONFIG"
SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_RELATION_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_TOO_LARGE = 3

CONTROL_NAMES = {
    "qalpha": "flip_q_alpha",
    "h0delta": "drop_h0_delta",
    "disorder": "flip_boson_disorder",
}

CONFIG_KEYS = ("M", "N", "sites", "lines", "nmax", "ordering", "q", "tol",
               "dim_cap", "suites", "negative_controls", "q_samples")


# ---------------------------------------------------------------------------
# configuration ingestion
# ---------------------------------------------------------------------------

def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except ValueError as exc:  # not UTF-8, malformed, or an int past Python's digit limit
        raise ConfigError(f"config file {path!r} cannot be read as UTF-8 JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = sorted(set(data) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}; accepted: "
                          + " ".join(CONFIG_KEYS))
    for key in ("suites", "negative_controls"):
        if key in data:
            data[key] = _name_list(key, data[key])
    return data


def _name_list(key: str, val) -> list:
    """Names given as a list of comma-separated strings, as the --suites
    flag takes them, or as one such string."""
    parts = [val] if isinstance(val, str) else val
    if not (isinstance(parts, list) and all(isinstance(v, str) for v in parts)):
        raise ConfigError(f'config key "{key}" must be a list of names such as '
                          f'["central", "serre"] (or one comma-separated '
                          f'string), got {val!r}')
    return [s for part in parts for s in part.split(",") if s]


def _merge_run_config(args) -> dict:
    """File values first, command-line flags override."""
    raw = {}
    path = args.config or os.environ.get(ENV_CONFIG)
    if path:
        raw.update(_load_config_file(path))
    for key in ("M", "N", "sites", "lines", "nmax", "tol", "dim_cap"):
        val = getattr(args, key, None)
        if val is not None:
            raw[key] = val
    if getattr(args, "ordering", None) is not None:
        raw["ordering"] = args.ordering
    if getattr(args, "nu", None) is not None:
        raw["q"] = {"nu": args.nu}
    if getattr(args, "q_real", None) is not None:
        raw["q"] = {"real": args.q_real}
    if getattr(args, "suites", None):
        raw["suites"] = _name_list("suites", args.suites)
    if getattr(args, "negative_control", None):
        raw.setdefault("negative_controls", [])
        raw["negative_controls"] = list(raw["negative_controls"]) + args.negative_control
    if getattr(args, "q_samples", None) is not None:
        raw["q_samples"] = args.q_samples
    return raw


def _typed(raw: dict, key: str, kind: type, default):
    """``raw[key]`` (or the default) as an int or a float; a value of
    another type (a string, a list, a bool, a float for an int) is a config
    error naming the key."""
    val = raw.get(key, default)
    ok = (int,) if kind is int else (int, float)
    if isinstance(val, bool) or not isinstance(val, ok):
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f'config key "{key}" must be {expected}, got {val!r}')
    return kind(val)


def lattice_config_from_raw(raw: dict) -> LatticeConfig:
    q = raw.get("q", {"nu": 0.3})
    if not isinstance(q, dict) or len(q) != 1 or not set(q) <= {"nu", "real"}:
        raise ConfigError('config key "q" must be {"nu": x} or {"real": x}')
    ordering = raw.get("ordering", "sea")
    if isinstance(ordering, str) and "," in ordering:
        ordering = tuple(ordering.split(","))
    elif isinstance(ordering, list):
        ordering = tuple(ordering)
    elif not isinstance(ordering, str):
        raise ConfigError('config key "ordering" must be a string or a list '
                          f'of strings, got {ordering!r}')
    kwargs = dict(
        M=_typed(raw, "M", int, 2),
        N=_typed(raw, "N", int, 1),
        S=_typed(raw, "sites", int, 2),
        K=_typed(raw, "lines", int, LatticeConfig.K),
        n_max=_typed(raw, "nmax", int, LatticeConfig.n_max),
        ordering=ordering,
        tol=_typed(raw, "tol", float, LatticeConfig.tol),
        dim_cap=_typed(raw, "dim_cap", int, LatticeConfig.dim_cap),
    )
    if "nu" in q:
        kwargs["nu"] = _typed(q, "nu", float, None)
    else:
        kwargs["q_real"] = _typed(q, "real", float, None)
    return LatticeConfig(**kwargs)


def corruption_from_names(names) -> Corruption:
    flags = {}
    for name in names or []:
        if name not in CONTROL_NAMES:
            raise ConfigError(
                f"unknown negative control {name!r}; choose from "
                f"{sorted(CONTROL_NAMES)}")
        flags[CONTROL_NAMES[name]] = True
    return Corruption(**flags)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """One validated verification run; built before any basis exists."""

    lattice: LatticeConfig
    suites: tuple
    negative_controls: tuple
    q_samples: int = 0
    report_path: str | None = None
    summary_path: str | None = None

    @property
    def corruption(self) -> Corruption:
        return self.lattice.corruption


def run_config_from(args) -> RunConfig:
    raw = _merge_run_config(args)
    lattice = lattice_config_from_raw(raw)
    # a name given twice runs once: the report and its hash list it once
    suites = tuple(dict.fromkeys(raw.get("suites") or SUITES))
    unknown = [s for s in suites if s not in SUITES]
    if unknown:
        raise ConfigError(f"unknown suites {unknown}; available: {list(SUITES)}")
    controls = tuple(dict.fromkeys(raw.get("negative_controls", [])))
    # the one place a run's negative controls enter its config
    lattice = dataclasses.replace(lattice, corruption=corruption_from_names(controls))
    q_samples = _typed(raw, "q_samples", int, 0)
    if q_samples < 0:
        raise ConfigError(f"q_samples must be >= 0, got {q_samples}")
    if q_samples and lattice.nu is None:
        raise ConfigError("q_samples draws nu values, so it needs q on the "
                          "unit circle (nu), not a real q")
    return RunConfig(lattice=lattice, suites=suites,
                     negative_controls=controls, q_samples=q_samples,
                     report_path=getattr(args, "report", None),
                     summary_path=getattr(args, "summary", None))


def config_fields(cfg: LatticeConfig) -> dict:
    """The report's ``config`` block and the hashed config: the lattice
    config without its corruption, which the ``run`` block names."""
    return {k: v for k, v in dataclasses.asdict(cfg).items() if k != "corruption"}


def config_digest(cfg: LatticeConfig, extra: dict | None = None) -> str:
    payload = config_fields(cfg)
    if extra:
        payload["run"] = extra
    blob = json.dumps(payload, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    run = run_config_from(args)
    cfg = run.lattice
    results = run_suites(cfg, run.suites, run.q_samples)

    all_ok = all(reports_ok(reps) for reps in results.values())
    run_meta = {"suites": list(run.suites),
                "negative_controls": list(run.negative_controls),
                "q_samples": run.q_samples}
    payload = {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "config": json.loads(json.dumps(config_fields(cfg), default=repr)),
        "config_hash": config_digest(cfg, run_meta),
        "run": run_meta,
        "all_ok": all_ok,
        "counts": _counts(results),
        "suites": {
            # each report's own field dict, not a copy
            name: {"ok": reports_ok(reps), "reports": [*map(vars, reps)]}
            for name, reps in results.items()
        },
    }
    if run.report_path:
        with open(run.report_path, "w") as fh:
            _write_report(fh, payload)
    if run.summary_path:
        with open(run.summary_path, "w") as fh:
            fh.write(_markdown_summary(cfg, results, payload["config_hash"]))
    if not args.quiet:
        for name, reps in results.items():
            status = "ok" if reports_ok(reps) else "FAILED"
            print(f"suite {name}: {len(reps)} relations, {status}")
            for r in reps:
                if not r.satisfied:
                    print("  " + r.summary_line())
        print(f"overall: {'ok' if all_ok else 'FAILED'} "
              f"(config {payload['config_hash'][:12]})")
    return EXIT_OK if all_ok else EXIT_RELATION_FAILURE


def _write_report(fh, payload: dict) -> None:
    """Write what ``json.dump(payload, fh, indent=2, default=repr)`` parses
    to, one relation report a line: line 1 holds every top-level field but
    ``suites``, each suite opens on its own line, and each report is one call
    of json's C encoder, written as it is encoded."""
    encode = json.JSONEncoder(default=repr).encode
    # `suites` and `reports` are their object's last field: an opening is that
    # object with the field emptied, less its two closing brackets
    fh.write(encode(dict(payload, suites={}))[:-2])
    for i, (name, block) in enumerate(payload["suites"].items()):
        fh.write(f"{',' if i else ''}\n{encode(name)}: {encode(dict(block, reports=[]))[:-2]}")
        fh.writelines(f"{',' if j else ''}\n{encode(r)}" for j, r in enumerate(block["reports"]))
        fh.write("\n]}")
    fh.write("}}\n")


def _counts(results: dict) -> dict:
    seen = Counter(r.status for reps in results.values() for r in reps)
    return {"total": sum(seen.values()), "passed": seen["pass"],
            "failed": seen["FAIL"], "not_applicable": seen["n/a"],
            "controls": seen["fails-as-expected"] + seen["UNEXPECTED-PASS"],
            "informational": seen["info"]}


def _markdown_summary(cfg: LatticeConfig, results: dict, digest: str) -> str:
    lines = [
        "# Relation verification summary",
        "",
        f"Configuration: M={cfg.M} N={cfg.N} S={cfg.S} K={cfg.K} "
        f"n_max={cfg.n_max} ordering={','.join(cfg.ordering)} "
        + (f"nu={cfg.nu}" if cfg.nu is not None else f"q={cfg.q_real}")
        + f" tol={cfg.tol}",
        f"Config hash: `{digest}`",
        "",
    ]
    for name, reps in results.items():
        ok = reports_ok(reps)
        lines.append(f"## {name} ({'ok' if ok else 'FAILED'})")
        lines.append("")
        lines.append("| relation | eq. | residual | projector | status |")
        lines.append("|---|---|---|---|---|")
        for r in reps:
            lines.append(f"| {r.relation_id} | {r.equation} | "
                         f"{r.residual:.3e} | {r.projector} | {r.status} |")
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def _parse_root_token(token: str) -> tuple[str, int]:
    for prefix, kind in (("eps", EPS), ("delta", DELTA)):
        if token.startswith(prefix):
            return (kind, int(token[len(prefix):]))
    raise ConfigError(f"bad weight token {token!r}; use epsI or deltaK")


def resolve_operator(cfg: LatticeConfig, op_id: str) -> sp.csr_matrix:
    """Map a generator id to its matrix.

    E+:a / E-:a  deformed set;  h:a / e+:a / e-:a  undeformed set;  H:a is
    h:a, as H reads no q;  Gamma  the central element;  CW:<pos>-<neg>:m=<int>
    a root generator;  CWH:a:m=<int> a shifted Cartan generator.
    """
    parts = op_id.split(":")
    head = parts[0]
    if head in ("H", "E+", "E-", "h", "e+", "e-"):
        try:
            (alpha,) = map(int, parts[1:])
        except ValueError:
            raise ConfigError(f"bad generator id {op_id!r}; expected "
                              f"{head}:<node>") from None
        if not 0 <= alpha <= cfg.R:
            raise ConfigError(f"bad generator id {op_id!r}: node {alpha} "
                              f"out of range 0..{cfg.R}")
        gs = cached_generators(cfg, deformed=head[0] == "E")
        if head in ("H", "h"):
            return gs.H[alpha]
        return gs.E[(alpha, head[1])]
    if head.lower() == "gamma":
        return diag_operator(central_charge_diag(cached_generators(cfg, False)))
    if head == "CWH":
        if len(parts) != 3 or not parts[2].startswith("m="):
            raise ConfigError(f"bad id {op_id!r}; expected CWH:a:m=<int>")
        try:
            return cartan_weyl_h(cached_basis(cfg), int(parts[1]), int(parts[2][2:]))
        except ValueError as exc:
            raise ConfigError(f"bad id {op_id!r}: {exc}") from None
    if head == "CW":
        if len(parts) != 3 or not parts[2].startswith("m="):
            raise ConfigError(f"bad id {op_id!r}; expected CW:<root>:m=<int>")
        try:
            pos_tok, neg_tok = parts[1].split("-")
        except ValueError:
            raise ConfigError(f"bad root {parts[1]!r}; expected pos-neg") from None
        try:
            label = RootLabel(_parse_root_token(pos_tok),
                              _parse_root_token(neg_tok), m=int(parts[2][2:]))
            return cartan_weyl_generators(cached_basis(cfg), label)
        except ValueError as exc:
            raise ConfigError(f"bad id {op_id!r}: {exc}") from None
    raise ConfigError(f"unknown generator id {op_id!r}")


def write_operator(op: sp.spmatrix, path: str):
    """Coordinate-list text format: 'dim nnz' header, then one
    'row col re im' line per entry, 1-based, 17 significant digits."""
    coo = op.tocoo()
    coo.eliminate_zeros()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w") as fh:
        fh.write(f"{op.shape[0]} {coo.nnz}\n")
        for k in order:
            fh.write(f"{coo.row[k] + 1} {coo.col[k] + 1} "
                     f"{coo.data[k].real:.17g} {coo.data[k].imag:.17g}\n")


def read_operator(path: str) -> sp.csr_matrix:
    with open(path) as fh:
        dim, nnz = map(int, fh.readline().split())
        rows, cols, vals = [], [], []
        for _ in range(nnz):
            r, c, re, im = fh.readline().split()
            rows.append(int(r) - 1)
            cols.append(int(c) - 1)
            vals.append(complex(float(re), float(im)))
    return sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim), dtype=complex)


def cmd_export(args) -> int:
    raw = _merge_run_config(args)
    cfg = lattice_config_from_raw(raw)
    op = resolve_operator(cfg, args.generator)
    write_operator(op, args.output)
    if not args.quiet:
        print(f"wrote {args.generator} ({op.shape[0]}x{op.shape[0]}, "
              f"{op.nnz} entries) to {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# list
# ---------------------------------------------------------------------------

def cmd_list(args) -> int:
    print(f"suites: {', '.join(SUITES)}")
    print()
    width = max(len(rid) for _, rid, _, _ in CATALOG) + 2
    tag_width = max(len(tag) for _, _, tag, _ in CATALOG) + 2
    for suite, rid, tag, desc in CATALOG:
        print(f"{suite:<12} {rid:<{width}} {tag:<{tag_width}} {desc}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="anyonrep",
        description="verify oscillator/anyonic realizations of a deformed "
                    "affine Lie superalgebra on a finite lattice")
    sub = p.add_subparsers(dest="command", required=True)

    def add_cfg_flags(sp_):
        sp_.add_argument("--config", help=f"JSON config file (default: ${ENV_CONFIG})")
        sp_.add_argument("--M", type=int, help="fermionic flavors")
        sp_.add_argument("--N", type=int, help="bosonic flavors")
        sp_.add_argument("--sites", type=int, help="sites per line (even)")
        sp_.add_argument("--lines", type=int, help="number of lines")
        sp_.add_argument("--nmax", type=int, help="boson cutoff")
        sp_.add_argument("--ordering", help='"sea", "empty", or comma list per line')
        q = sp_.add_mutually_exclusive_group()  # a config takes one q
        q.add_argument("--nu", type=float, help="statistics parameter, q = exp(i pi nu)")
        q.add_argument("--q-real", dest="q_real", type=float, help="positive real q")
        sp_.add_argument("--tol", type=float, help="verification tolerance")
        sp_.add_argument("--dim-cap", dest="dim_cap", type=int,
                         help=f"basis dimension cap (default {LatticeConfig.dim_cap})")
        sp_.add_argument("--quiet", action="store_true")

    v = sub.add_parser("verify", help="run relation suites")
    add_cfg_flags(v)
    v.add_argument("--suites", action="append",
                   help="comma-separated suite names (default: all)")
    v.add_argument("--negative-control", action="append",
                   choices=sorted(CONTROL_NAMES),
                   help="inject a known defect; the run is then expected to fail")
    v.add_argument("--q-samples", dest="q_samples", type=int,
                   help="additionally rerun at this many sampled nu values")
    v.add_argument("--report", help="write JSON report here")
    v.add_argument("--summary", help="write markdown summary here")
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("export", help="export one generator as a text matrix")
    add_cfg_flags(e)
    e.add_argument("generator", help='id such as "H:1", "E+:0", "e-:2", '
                   '"Gamma", "CW:eps1-delta1:m=1", "CWH:1:m=0"')
    e.add_argument("-o", "--output", required=True, help="output path")
    e.set_defaults(func=cmd_export)

    l = sub.add_parser("list", help="catalog of suites and relation ids")
    l.set_defaults(func=cmd_list)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except InstanceTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE


if __name__ == "__main__":
    sys.exit(main())
