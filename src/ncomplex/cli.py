"""Batch front door.

Every subcommand is a thin wrapper over the library with deterministic
output: identical inputs give byte-identical output, randomized probes
draw from an explicit seed that is echoed in the report.

Exit codes: 0 when all requested checks pass, 1 when a check fails,
2 on usage errors or malformed input.

Each run executes one subcommand, so this module loads at import only
what building the parser and reporting errors need (`diagrams`,
`errors`). Each handler imports the library modules it calls when it
runs, with a plain function-local ``from . import ...``: `dim` loads no
further module, `cohomology` loads `cohomology` and what that imports
(`fields`, `tensor_core`, `linalg`, `report`), and only the subcommands
that use them load `multiforms`, `gauge` or `quotient_algebra`. A module
is imported once per process; a later import is a dictionary lookup.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .diagrams import Diagram, conjugate, partitions, schur_dim
from .errors import ShapeError, VerificationError


def _parse_ints(text):
    """Comma-separated integers; the empty string is the empty list, an empty item an error."""
    if text == "":
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}")


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load(path, parse, what):
    """Parse a JSON document with parse, turning every input fault into a UsageError."""
    try:
        return parse(_read_text(path))
    except OSError as exc:
        raise UsageError(f"{path}: cannot read: {exc.strerror or exc}")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise UsageError(f"{path}: malformed {what} document: {exc}")


class UsageError(Exception):
    pass


def _emit(text):
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _report(rep, fmt):
    """Emit a check report as text or JSON; exit 0 when it passes, 1 when not."""
    _emit(rep.to_json() if fmt == "json" else str(rep))
    return 0 if rep.ok else 1


# -- subcommand handlers ----------------------------------------------------

def _cmd_dim(args):
    _emit(str(schur_dim(Diagram(_parse_ints(args.shape)), args.D)))
    return 0


def _cmd_project(args):
    from . import tensor_core as tc
    Y = Diagram(_parse_ints(args.shape))
    T = _load(args.input, tc.Tensor.from_json, "tensor")
    _emit(tc.young_project(Y, T).to_json())
    return 0


def _cmd_diff(args):
    from . import fields as fl
    F = _load(args.input, fl.PolyTensorField.from_json, "field")
    _emit(fl.d_power(F, args.power).to_json())
    return 0


def _cmd_delta(args):
    from . import fields as fl
    F = _load(args.input, fl.PolyTensorField.from_json, "field")
    _emit(fl.delta(F).to_json())
    return 0


def _cmd_dual(args):
    from . import fields as fl
    F = _load(args.input, fl.PolyTensorField.from_json, "field")
    _emit(fl.dual_star_field(F).to_json())
    return 0


def _cmd_cohomology(args):
    from . import cohomology as co
    p_values = [args.p] if args.p is not None else None
    k_values = [args.k] if args.k is not None else None
    table = co.compute_table(args.N, args.D, args.qmax,
                             p_values=p_values, k_values=k_values)
    if args.format == "json":
        _emit(table.to_json())
    else:
        _emit(table.to_csv())
    return 0


def _cmd_poincare(args):
    from . import cohomology as co
    return _report(co.poincare_suite(args.N, args.D, args.nmax, args.qmax), args.format)


def _cmd_hexagon(args):
    from . import cohomology as co
    return _report(co.hexagon_check(args.N, args.D, args.k, args.l, args.qmax), args.format)


def _cmd_theorem2(args):
    from . import multiforms as mf
    K = _parse_ints(args.K)
    seen = set()
    for j in K:
        if j in seen:
            # the library reads K as a set; on the command line a repeat is a typo
            raise UsageError(f"--K names slot {j} more than once")
        seen.add(j)
    if args.multidegree is not None:
        md = _parse_ints(args.multidegree)
        reports = [mf.theorem2_check(args.N, args.D, K, args.m, md, args.qcap)]
    else:
        reports = mf.theorem2_suite(args.N, args.D, K, args.m, args.qcap)
    ok = True  # streamed; the first report checks the arguments before any output
    for n, r in enumerate(reports):
        ok = ok and r.ok
        if args.format == "json":
            sys.stdout.write(("[" if n == 0 else ", ") + r.to_json())
        else:
            _emit(str(r))
    if args.format == "json":
        _emit("]")
    return 0 if ok else 1


def _cmd_green(args):
    from . import fields as fl
    from . import multiforms as mf
    rng = random.Random(args.seed)
    F = fl.random_field(args.N, args.D, args.p, args.q, rng)
    c = mf.green_factor(F)
    doc = {"N": args.N, "D": args.D, "p": args.p, "q": args.q,
           "seed": args.seed, "constant": str(c)}
    _emit(json.dumps(doc))
    return 0


def _cmd_spin2(args):
    from . import fields as fl
    from . import gauge as gg
    if args.qmax < 0:
        raise UsageError(f"--qmax must be nonnegative, got {args.qmax}")
    given = _load(args.input, fl.PolyTensorField.from_json, "field") if args.input else None
    if given is not None and given.D != args.D:
        raise UsageError(f"{args.input}: field dimension {given.D} differs from --D {args.D}")
    rng = random.Random(args.seed)
    results = {"D": args.D, "seed": args.seed}
    X = fl.random_field(3, args.D, 1, args.qmax + 2, rng)
    h = gg.spin2_d1(X)
    results["curvature_of_pure_gauge_vanishes"] = gg.spin2_d2(h).is_zero
    ok = results["curvature_of_pure_gauge_vanishes"]
    # the chain commutes with GL_D, so the highest-weight vectors decide the block
    chain_ok = all(gg.spin2_d3(gg.spin2_d2(hb)).is_zero
                   for hb in fl.hw_basis(3, args.D, 2, args.qmax + 2))
    results["cyclic_identity_of_curvatures_vanishes"] = chain_ok
    ok = ok and chain_ok
    consts = gg.spin2_constants(args.D, min(args.qmax + 2, 3))
    results["constants"] = {name: None if c is None else str(c) for name, c in
                            zip(("d1_vs_d", "d2_vs_d2", "d3_vs_d"), consts)}
    if given is not None:
        h = gg.spin2_d1(given)
        R = gg.spin2_d2(h)
        results["chain"] = [json.loads(h.to_json()), json.loads(R.to_json())]
    _emit(json.dumps(results))
    return 0 if ok else 1


def _cmd_spins(args):
    from . import fields as fl
    from . import gauge as gg
    rng = random.Random(args.seed)
    S = args.S
    phi = fl.random_field(S + 1, args.D, S, args.q, rng)
    curv = gg.spin_s_curvature(S, phi)
    bianchi = fl.n_diff(curv).is_zero
    chi = fl.random_field(S + 1, args.D, S - 1, args.q, rng)
    gauge_inv = gg.spin_s_curvature(S, fl.n_diff(chi)).is_zero
    doc = {"S": S, "D": args.D, "q": args.q, "seed": args.seed,
           "bianchi": bianchi, "gauge_invariance": gauge_inv}
    _emit(json.dumps(doc))
    return 0 if bianchi and gauge_inv else 1


def _cmd_stress_potential(args):
    from . import fields as fl
    from . import gauge as gg
    T = _load(args.input, fl.PolyTensorField.from_json, "field")
    R = gg.stress_potential(T)
    _emit(R.to_json())
    return 0


def _cmd_algebra(args):
    from . import quotient_algebra as qa
    rep = qa.relation_checks(args.N, args.D, args.cap)
    return _report(rep, args.format)


def _cmd_verify_all(args):
    from . import cohomology as co
    from . import fields as fl
    from . import multiforms as mf
    from . import quotient_algebra as qa
    rng = random.Random(args.seed)
    lines = []
    ok = True

    def run(label, passed):
        nonlocal ok
        lines.append(f"{'PASS' if passed else 'FAIL'}  {label}")
        ok = ok and passed

    small = args.small
    Ns = (2, 3) if small else (2, 3, 4)
    D = 2
    qmax = 2 if small else 3

    run("conjugation involution",
        all(conjugate(conjugate(Y)) == Y for n in range(0, 9) for Y in partitions(n)))

    dn_ok = True
    for N in Ns:
        for p in range(0, (N - 1) * D + 1):
            for q in range(0, qmax + 1):
                F = fl.random_field(N, D, p, q, rng)
                if not fl.d_power(F, N).is_zero:
                    dn_ok = False
    run("vanishing N-th power of the differential", dn_ok)

    pc_ok = True
    for N in Ns:
        rep = co.poincare_suite(N, D, 1 if small else 2, qmax)
        pc_ok = pc_ok and rep.ok
    run("vanishing at filled degrees", pc_ok)

    g_ok = True
    for N in Ns:
        for p in range(0, (N - 1) * D):
            F = fl.random_field(N, D, p, 2, rng)
            try:
                mf.green_factor(F)
            except VerificationError:
                g_ok = False
    run("slot realization of the differential", g_ok)

    t2 = mf.theorem2_check(3, D, (1, 2), 1, (1, 1), qmax)
    run("splitting of simultaneous cocycles", t2.ok)

    run("duality constants",
        bool(fl.star_relation_constants(3, D, q_values=(1,) if small else (1, 2))))

    # the degree cap stays below the top degree of the complex here; the
    # ideal-vs-kernel comparison at the top degree is a documented finding
    # reported by the dedicated `algebra` subcommand
    alg = qa.relation_checks(3, D, 3)
    run("algebra relations", alg.ok)

    _emit("\n".join(lines))
    _emit(f"seed: {args.seed}")
    _emit("RESULT: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


# -- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ncomplex",
        description="Exact checks for complexes of mixed-symmetry tensor fields.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=fn)
        return p

    p = add("dim", _cmd_dim, help="dimension of a symmetry type")
    p.add_argument("--shape", required=True, help="row lengths, e.g. 2,1")
    p.add_argument("--D", type=int, required=True)

    p = add("project", _cmd_project, help="apply a Young symmetrizer to a tensor")
    p.add_argument("--shape", required=True)
    p.add_argument("--input", default="-", help="tensor JSON file or - for stdin")

    p = add("diff", _cmd_diff, help="apply the differential to a field")
    p.add_argument("--input", default="-")
    p.add_argument("--power", type=int, default=1)

    p = add("delta", _cmd_delta, help="apply the codifferential to a field")
    p.add_argument("--input", default="-")

    p = add("dual", _cmd_dual, help="epsilon-dualize a field")
    p.add_argument("--input", default="-")

    p = add("cohomology", _cmd_cohomology, help="exact cohomology dimensions")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--p", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--qmax", type=int, default=3)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = add("poincare", _cmd_poincare, help="vanishing at filled degrees")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--nmax", type=int, default=2)
    p.add_argument("--qmax", type=int, default=3)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = add("hexagon", _cmd_hexagon, help="four-term exact sequences")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--qmax", type=int, default=3)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = add("theorem2", _cmd_theorem2, help="multiform splitting checks")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--K", required=True, help="slot subset, e.g. 1,2")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--multidegree", help="slot degrees, e.g. 1,1; all when omitted")
    p.add_argument("--qcap", type=int, default=3)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = add("green", _cmd_green, help="slot-realization constant of one block")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = add("spin2", _cmd_spin2, help="rank-2 gauge chain with verdicts")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--qmax", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--input", help="optional covector field JSON to chain")

    p = add("spinS", _cmd_spins, help="higher-rank curvature checks")
    p.add_argument("--S", type=int, required=True)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--q", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)

    p = add("stress-potential", _cmd_stress_potential,
            help="potential of a conserved symmetric two-tensor")
    p.add_argument("--input", default="-")

    p = add("algebra", _cmd_algebra, help="word-action relation report")
    p.add_argument("--N", type=int, default=3)
    p.add_argument("--D", type=int, default=2)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--seed", type=int, default=0,
                   help="accepted and ignored: the algebra report does not depend on it")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = add("verify-all", _cmd_verify_all, help="aggregate property suite")
    p.add_argument("--small", action="store_true")
    p.add_argument("--seed", type=int, default=0)

    return ap


def run(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        # argparse reads an option value of exactly "--" as an empty list
        for name, value in vars(args).items():
            if isinstance(value, list):
                ap.error(f"argument --{name}: expected one argument")
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.handler(args)
    except (UsageError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory; ask for a smaller block", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send the unflushed rest to devnull so exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
