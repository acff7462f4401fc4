"""Command-line driver: model tables, generating functions, transforms,
mn-system solving, and the identity verification sweep.

Exit codes: 0 success / verified, 1 verification failure, 2 usage error.
All polynomial output is JSON with decimal string keys (integer exponents,
ascending) and decimal string coefficients, so runs are byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import ExitStack
from itertools import chain, groupby, islice
from operator import itemgetter

from .model import Model, continued_fraction, coprime_pairs, format_model_tables
from .paths import (
    Path, chi, chi_block, chi_tilde_restricted, path_from_json,
    path_to_json, striking_sequence, weight_wt, weight_wtilde,
)
from .qpoly import QPoly, guard_width, unpack_poly
from .transforms import (
    _first_mismatch, b1, b2, b3, bd_transform, d_transform, decompose,
)
from .characters import (
    _bosonic_terms, _fermionic_walk, _form_terms, _packed_sum, bosonic, build_system,
    c_from_b, c_from_b_info, fermionic_classical, fermionic_modified, mn_solutions,
)

def _print_poly(poly: QPoly, fmt: str) -> None:
    if fmt == "text":
        print(poly)
    else:
        print(json.dumps(poly.to_json_dict()))


# -- verification sweep --------------------------------------------------------

ALL_FORMS = ("enumerate", "bosonic", "fermionic-classical", "fermionic-modified")


def _identity_record(task) -> dict:
    """The record of a sweep task extended by its width, its base exponent
    and the packed value of each of its forms, as one argument so that a
    caller can wrap it (perfbench/traced_cli.py does).

    A value is the form times q^-low packed into one signed int, at one
    width that keeps a guard bit above every form's bound
    (qpoly.guard_width), so the ints of two forms are equal exactly when
    the polynomials are.  Only a mismatch is unpacked, to name its first
    differing coefficient.
    """
    p, pp, a, b, c, L, forms, width, low, values = task
    names = sorted(forms)
    ref_name = names[0]
    ref = values[ref_name]
    mismatch = None
    for name in names[1:]:
        other = values[name]
        if other != ref:
            bad, c_ref, c_other = _first_mismatch(unpack_poly(ref, width, low),
                                                  unpack_poly(other, width, low))
            mismatch = {"forms": [ref_name, name], "exponent": bad,
                        ref_name: c_ref, name: c_other}
            break
    return {"p": p, "pp": pp, "a": a, "b": b, "c": c, "L": L,
            "forms": names, "equal": mismatch is None, "mismatch": mismatch}


def _identity_block(tasks: list[tuple]) -> tuple[str, int, int]:
    """(report lines, record count, failure count) of the tasks of one
    (p, p', a) block, every value of the block a signed int at one width.

    The fermionic summands of each (b, L) are walked once, first, for their
    bounds; the transfer and the bosonic sum are bounded by the 2^Lmax
    paths.  The width is the guard_width of the largest bound, and one
    chi_block transfer at that width gives chi for every task.  Every other
    form is its (exponent, keys, sign) terms packed by _packed_sum: the
    bosonic terms, or a fermionic form's (_form_terms), and only the forms a
    task asks for.  A task whose fermionic summands reach below q^0
    (low < 0) packs all its forms from q^low.
    """
    p, pp, a = tasks[0][:3]
    lmax = max(t[5] for t in tasks)
    walks, bounds = {}, [1 << lmax]
    for _, _, _, b, _, L, forms in tasks:
        if forms[-1].startswith("fermionic"):  # the fermionic forms come last
            system = build_system(p, pp, a, b)
            split, low, *form_bounds = _fermionic_walk(system, L)
            walks[b, L] = system, split, low
            bounds += form_bounds
    width = guard_width(max(bounds))
    table = chi_block(Model(p, pp), a, lmax, width) if "enumerate" in tasks[0][6] else {}
    records = []
    for p, pp, a, b, c, L, forms in tasks:
        low, values = 0, {}
        if forms[-1].startswith("fermionic"):
            system, split, low = walks[b, L]
        for name in forms:
            if name == "enumerate":
                values[name] = table.get((b, c, L), 0) << -8 * width * low
            elif name == "bosonic":
                values[name] = _packed_sum(_bosonic_terms(p, pp, a, b, c, L), width, low)
            else:
                terms = _form_terms(system, L, split, name == "fermionic-modified")
                values[name] = _packed_sum(terms, width, low)
        records.append(_identity_record((p, pp, a, b, c, L, forms, width, low, values)))
    return ("".join(json.dumps(rec) + "\n" for rec in records), len(records),
            sum(not rec["equal"] for rec in records))


def iter_identity_tasks(ppmax: int, lmax: int, forms):
    """Sweep tuples: all (a,b,c) for the enumeration/bosonic pair, Takahashi
    endpoints with the canonical c for the fermionic forms."""
    boson_side = tuple(f for f in forms if f in ("enumerate", "bosonic"))
    fermi_side = tuple(f for f in forms if f.startswith("fermionic"))
    for p, pp in coprime_pairs(ppmax):
        tak = continued_fraction(p, pp)
        members = tak.T | tak.T_prime
        for a in range(1, pp):
            for b in range(1, pp):
                for c in (b - 1, b + 1):
                    if not 1 <= c <= pp - 1:
                        continue
                    fc = fermi_side and a in members and b in members \
                        and c == c_from_b(p, pp, b)
                    use = boson_side + (fermi_side if fc else ())
                    if len(use) >= 2:
                        for L in range((a + b) % 2, lmax + 1, 2):
                            yield (p, pp, a, b, c, L, use)


def run_verify_identity(ppmax: int, lmax: int, jobs: int, forms, out) -> int:
    """Verify the sweep in (p, p', a) blocks, writing each block's records
    as it arrives, in report order, then the summary line."""
    t0 = time.time()
    blocks = (list(run) for _, run in groupby(iter_identity_tasks(ppmax, lmax, forms),
                                              itemgetter(0, 1, 2)))
    head = list(islice(blocks, jobs))  # a grid of fewer blocks starts fewer workers
    blocks = chain(head, blocks)
    records = failures = 0
    with ExitStack() as stack:
        if len(head) > 1:
            from multiprocessing import Pool  # only the parallel sweep pays for it
            results = stack.enter_context(Pool(len(head))).imap(_identity_block, blocks)
        else:
            results = map(_identity_block, blocks)
        for text, n, fails in results:
            out.write(text)
            records += n
            failures += fails
    summary = {"records": records, "failures": failures,
               "wall_time_s": round(time.time() - t0, 3)}
    out.write(json.dumps({"summary": summary}) + "\n")
    return 0 if failures == 0 else 1


# -- argument parsing ------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fbpaths")
    sub = ap.add_subparsers(dest="cmd")

    mp = sub.add_parser("model", help="band model inspection")
    msub = mp.add_subparsers(dest="subcmd", required=True)
    mshow = msub.add_parser("show")
    mshow.add_argument("--p", type=int, required=True)
    mshow.add_argument("--pp", type=int, required=True)
    mshow.add_argument("--format", choices=["json", "text"], default="text")

    cp = sub.add_parser("chi", help="generating functions")
    csub = cp.add_subparsers(dest="subcmd", required=True)
    for name in ("enumerate", "bosonic", "fermionic"):
        c = csub.add_parser(name)
        c.add_argument("--p", type=int, required=True)
        c.add_argument("--pp", type=int, required=True)
        c.add_argument("--a", type=int, required=True)
        c.add_argument("--b", type=int, required=True)
        c.add_argument("--L", type=int, required=True)
        c.add_argument("--c", type=int, default=None)
        c.add_argument("--format", choices=["json", "text"], default="json")
        if name == "enumerate":
            c.add_argument("--e", type=int, choices=[0, 1], default=None)
            c.add_argument("--f", type=int, choices=[0, 1], default=None)
            c.add_argument("--m", type=int, default=None)
            c.add_argument("--with-heights", dest="with_heights", default=None,
                           help="comma-separated heights every path must attain")
        if name == "fermionic":
            c.add_argument("--form", choices=["classical", "modified"], default="classical")
            c.add_argument("--tprime", action="store_true",
                           help="prefer the complemented Takahashi reading (n = 0 models)")

    pp_ = sub.add_parser("path", help="weights and striking sequences")
    psub = pp_.add_subparsers(dest="subcmd", required=True)
    pw = psub.add_parser("weight")
    pw.add_argument("--variant", choices=["wt", "wtilde"], required=True)
    pw.add_argument("--input", required=True)
    ps = psub.add_parser("striking")
    ps.add_argument("--input", required=True)

    tp = sub.add_parser("transform", help="path transforms")
    tp.add_argument("kind", choices=["b1", "b2", "b3", "d", "bd", "decompose"])
    tp.add_argument("--input", required=True)
    tp.add_argument("--k", type=int, default=0)
    tp.add_argument("--lambda", dest="lam", default="",
                    help="comma-separated partition, e.g. 3,2,1")
    tp.add_argument("--direction", choices=["B", "BD"], default="B",
                    help="decomposition direction")

    mn = sub.add_parser("mn", help="the mn-system")
    mnsub = mn.add_subparsers(dest="subcmd", required=True)
    mns = mnsub.add_parser("solve")
    mns.add_argument("--p", type=int, required=True)
    mns.add_argument("--pp", type=int, required=True)
    mns.add_argument("--a", type=int, required=True)
    mns.add_argument("--b", type=int, required=True)
    mns.add_argument("--L", type=int, required=True)
    mns.add_argument("--tprime", action="store_true")

    vp = sub.add_parser("verify", help="identity sweeps")
    vsub = vp.add_subparsers(dest="subcmd", required=True)
    vi = vsub.add_parser("identity")
    vi.add_argument("--ppmax", type=int, default=8)
    vi.add_argument("--Lmax", type=int, default=12)
    vi.add_argument("--jobs", type=int, default=1)
    vi.add_argument("--forms", default=",".join(ALL_FORMS),
                    help="comma list from: " + ",".join(ALL_FORMS))
    vi.add_argument("--output", default=None, help="report file (default stdout)")
    return ap


def _load_path(fname: str) -> Path:
    with open(fname) as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError(f"path JSON in {fname} nests too deeply") from None
    return path_from_json(doc)


def _parse_lambda(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    return tuple(int(x) for x in text.split(","))


def _cmd_chi(args) -> int:
    model = Model(args.p, args.pp)
    if args.subcmd == "enumerate":
        S = {int(x) for x in args.with_heights.split(",")} if args.with_heights else None
        if args.e is not None or args.f is not None:
            if args.e is None or args.f is None:
                raise ValueError("winged enumeration needs both --e and --f")
            poly = chi_tilde_restricted(model, args.a, args.b, args.e, args.f,
                                        args.L, m=args.m, S=S)
        else:
            if args.m is not None:
                raise ValueError("--m restricts winged enumeration; give --e and --f")
            c = args.c if args.c is not None else c_from_b(args.p, args.pp, args.b)
            poly = chi(model, args.a, args.b, c, args.L, attain=S)
    elif args.subcmd == "bosonic":
        c = args.c if args.c is not None else c_from_b(args.p, args.pp, args.b)
        poly = bosonic(args.p, args.pp, args.a, args.b, c, args.L)
    else:
        c, ambiguous = c_from_b_info(args.p, args.pp, args.b)
        allowed = (args.b - 1, args.b + 1) if ambiguous else (c,)
        if args.c is not None and args.c not in allowed:
            raise ValueError(f"the fermionic forms fix c = {' or '.join(map(str, allowed))}"
                             f" for b = {args.b}")
        fn = fermionic_classical if args.form == "classical" else fermionic_modified
        poly = fn(args.p, args.pp, args.a, args.b, args.L, prefer_t_prime=args.tprime)
    _print_poly(poly, args.format)
    return 0


def _cmd_path(args) -> int:
    path = _load_path(args.input)
    if args.subcmd == "weight":
        w = weight_wt(path) if args.variant == "wt" else weight_wtilde(path)
        print(json.dumps({"weight": w}))
    else:
        ss = striking_sequence(path)
        print(json.dumps({"columns": [list(col) for col in ss.columns],
                          "e": ss.e, "f": ss.f, "d": ss.d}))
    return 0


def _cmd_transform(args) -> int:
    path = _load_path(args.input)
    lam = _parse_lambda(args.lam)
    trace: list = []
    if args.kind == "b1":
        out = b1(path)
    elif args.kind == "b2":
        out = b2(path, args.k)
    elif args.kind == "b3":
        out = b3(path, lam, k=args.k or None, trace=trace)
    elif args.kind == "d":
        out = d_transform(path)
    elif args.kind == "bd":
        out = bd_transform(path, args.k, lam, trace=trace)
    else:  # decompose
        base, k, lam_found = decompose(path, args.direction)
        print(json.dumps({"path": path_to_json(base), "k": k,
                          "lambda": list(lam_found)}))
        return 0
    print(json.dumps({"path": path_to_json(out), "trace": trace}))
    return 0


def _cmd_mn(args) -> int:
    system = build_system(args.p, args.pp, args.a, args.b,
                          prefer_t_prime=args.tprime)
    sols = mn_solutions(system, args.L)
    print(json.dumps({
        "t": system.t,
        "Q": list(system.Q),
        "solutions": [{"m": list(s.m_hat), "n": list(s.n)} for s in sols],
    }))
    return 0


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    if not args.cmd:
        ap.print_usage(sys.stderr)
        return 2
    try:
        if args.cmd == "model":
            if args.format == "text":
                print(format_model_tables(args.p, args.pp))
            else:
                tak = continued_fraction(args.p, args.pp)
                model = Model(args.p, args.pp)
                print(json.dumps({
                    "p": args.p, "pp": args.pp, "cf": list(tak.cf),
                    "n": tak.n, "t": tak.t,
                    "t_bounds": list(tak.t_bounds),
                    "y": [tak.y_of(k) for k in range(-1, tak.n + 2)],
                    "z": [tak.z_of(k) for k in range(-1, tak.n + 2)],
                    "kappa": list(tak.kappa),
                    "kappa_tilde": list(tak.kappa_tilde),
                    "string_lengths": list(tak.ell),
                    "T": sorted(tak.T), "T_prime": sorted(tak.T_prime),
                    "band_parities": list(model.band_parities()),
                    "interfacial": list(model.interfacial_heights()),
                }))
            return 0
        if args.cmd == "chi":
            return _cmd_chi(args)
        if args.cmd == "path":
            return _cmd_path(args)
        if args.cmd == "transform":
            return _cmd_transform(args)
        if args.cmd == "mn":
            return _cmd_mn(args)
        # verify
        forms = tuple(f.strip() for f in args.forms.split(",") if f.strip())
        for f in forms:
            if f not in ALL_FORMS:
                raise ValueError(f"unknown form {f!r}")
        if len(set(forms)) != len(forms) or len(forms) < 2:
            raise ValueError("--forms needs two or more forms, none of them twice")
        cpus = os.cpu_count() or 1
        if not 1 <= args.jobs <= cpus:
            raise ValueError(f"--jobs must lie in 1..{cpus}")
        if next(iter_identity_tasks(args.ppmax, args.Lmax, forms), None) is None:
            raise ValueError(f"the sweep grid p' <= {args.ppmax}, L <= {args.Lmax} is empty")
        if args.output:
            with open(args.output, "w") as fh:
                return run_verify_identity(args.ppmax, args.Lmax, args.jobs, forms, fh)
        return run_verify_identity(args.ppmax, args.Lmax, args.jobs, forms, sys.stdout)
    except (ValueError, OSError) as exc:  # TransformError and JSONDecodeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # no input has a fixed bound: a large --L, --Lmax or --ppmax can need
        # more memory than the machine has
        print("error: out of memory; try a smaller --L, --Lmax or --ppmax", file=sys.stderr)
        return 2
    except OverflowError as exc:  # an int too large to index, range over or shift by
        print(f"error: a number is too large ({exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
