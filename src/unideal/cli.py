"""Command-line surface.

Every run prints a provenance block (algorithm, trials, error bound, seed) so
results are auditable, and --json emits the same data as one machine-readable
object.  Output is a deterministic function of argv and --seed; wall-clock
timings are only included when --timings is passed, since they would break
byte-for-byte reproducibility.

Exit codes: 0 success, 2 usage error, 3 expansion cap exceeded, 4 undecided.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import random
import sys
import time
from fractions import Fraction

from . import io as uio
from .apps import permanent_lowrank, ryser_permanent, vc_degrees, vertex_cover_lowrank
from .certifier import Undecided, compute_threshold, search_nonmembership, verify_certificate
from .circuits import syntactic_degree
from .division import is_member_brute, random_zero_test, zero_test_miss_bound
from .hadamard import PowerIdealSpec, in_ideal_coverage_bound, membership_powers
from .lowrank import LowRankInput, RemEvaluator, rem_eval
from .poly import CapExceeded
from .reductions import (
    graph_coloring_instance,
    reduce_independent_set,
    reduce_klineq,
    reduce_one_in_three,
)

__all__ = ["main"]


def _emit(args, fields: dict):
    timing = fields.pop("timings", None)
    payload = {
        "decision": None,
        "value": None,
        "error_bound": None,
        "seed": getattr(args, "seed", None),
        "algorithm": None,
        "timings": timing if getattr(args, "timings", False) else None,
    }
    payload.update(fields)
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        for key in ("decision", "value", "algorithm", "trials", "error_bound", "seed"):
            if payload.get(key) is not None:
                print(f"{key}: {payload[key]}")
        if payload.get("timings") is not None:
            print(f"timings: {payload['timings']}")
        for key, val in fields.items():
            if key not in ("decision", "value", "algorithm", "trials", "error_bound") and val is not None:
                print(f"{key}: {val}")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _positive_trials(trials: int) -> int:
    if trials < 1:
        raise ValueError(f"--trials must be at least 1, got {trials}")
    return trials


def _format_bound(x: Fraction) -> str:
    """An exact error bound to 3 significant digits, as `f"{float(x):.3g}"`
    prints it; a bound below the normal float range, where the float would
    underflow to 0, is rounded from the exact value instead."""
    f = float(x)
    if f >= sys.float_info.min or not x:
        return f"{f:.3g}"
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emin = 3, decimal.MIN_EMIN
        return f"{decimal.Decimal(x.numerator) / x.denominator:.3g}"


def _power_ideal_error(ideal, n: int) -> str | None:
    """Why the ideal is not <x_0^e_0, ..., x_{n-1}^e_{n-1}>, or None if it is."""
    if any(any(p.coeffs[:-1]) or p.lc() != 1 for _, p in ideal.generators):
        return "powers mode needs every generator to be a power of its variable"
    # The variables are distinct, so n of them below n are 0 .. n-1; no list of n is built.
    if len(ideal.generators) != n or any(v >= n for v, _ in ideal.generators):
        return "powers mode needs one generator per circuit variable"
    return None


def _cmd_member(args) -> int:
    _positive_trials(args.trials)
    circuit = uio.parse_circuit(_read(args.circuit))
    ideal = uio.parse_ideal(_read(args.ideal))
    forms = uio.parse_forms(_read(args.forms)) if args.forms else None
    rng = random.Random(args.seed)
    mode = args.mode
    if mode == "auto":
        if forms is not None:
            mode = "lowrank"
        elif _power_ideal_error(ideal, circuit.n) is None:
            mode = "powers"
        else:
            mode = "brute"
    if mode == "lowrank":
        if forms is None:
            raise ValueError("lowrank mode needs --forms")
        sd = syntactic_degree(circuit)
        d = max(sd, max(p.degree() for _, p in ideal.generators))
        ev = RemEvaluator(LowRankInput(circuit, forms), ideal)
        nonzero = random_zero_test(ev.schedule(), ev.inp.n, d, args.trials, rng)
        # The remainder has degree < deg p_i in each x_i, and at most the circuit's.
        deg_rem = min(sd, sum(p.degree() - 1 for _, p in ideal.generators))
        err = 0 if nonzero else zero_test_miss_bound(deg_rem, d, args.trials)
        _emit(args, {
            "decision": "NOT-MEMBER" if nonzero else "MEMBER",
            "algorithm": f"dispatch={args.mode}->lowrank remainder evaluation + zero test",
            "trials": args.trials,
            "error_bound": _format_bound(err) if err else "0 (one-sided)",
        })
        return 0
    if mode == "powers":
        error = _power_ideal_error(ideal, circuit.n)
        if error is not None:
            raise ValueError(error)
        exponents = tuple(p.degree() for _, p in sorted(ideal.generators))
        k = syntactic_degree(circuit)
        spec = PowerIdealSpec(exponents, k)
        not_member = membership_powers(circuit, spec, rng=rng)
        _emit(args, {
            "decision": "NOT-MEMBER" if not_member else "MEMBER",
            "algorithm": f"dispatch={args.mode}->scaled Hadamard power-ideal test (k={k})",
            "error_bound": "0 (one-sided)" if not_member else _power_ideal_bound(spec, None),
        })
        return 0
    member = is_member_brute(circuit, ideal, args.cap)
    _emit(args, {
        "decision": "MEMBER" if member else "NOT-MEMBER",
        "algorithm": f"dispatch={args.mode}->expand-and-divide (cap {args.cap})",
        "error_bound": "0 (exact)",
    })
    return 0


def _cmd_rem_eval(args) -> int:
    inp = uio.parse_lowrank(_read(args.input))
    ideal = uio.parse_ideal(_read(args.ideal))
    point = uio.parse_point(args.point)
    t0 = time.perf_counter()
    value = rem_eval(inp, ideal, point)
    _emit(args, {
        "value": uio.format_scalar(value),
        "algorithm": "recursive low-rank remainder evaluation",
        "error_bound": "0 (exact)",
        "timings": f"{time.perf_counter() - t0:.6f}s",
    })
    return 0


def _cmd_perm(args) -> int:
    matrix = uio.parse_matrix(_read(args.matrix))
    n = matrix.nrows
    rank = matrix.rank()
    mode = args.mode
    if mode == "auto":
        mode = "lowrank" if rank < n or n > 20 else "ryser"
    t0 = time.perf_counter()
    value = permanent_lowrank(matrix) if mode == "lowrank" else ryser_permanent(matrix)
    _emit(args, {
        "value": uio.format_scalar(value),
        "algorithm": f"dispatch={args.mode}->{mode} (rank {rank})",
        "error_bound": "0 (exact)",
        "timings": f"{time.perf_counter() - t0:.6f}s",
    })
    return 0


def _cmd_vc(args) -> int:
    _positive_trials(args.trials)
    graph = uio.parse_graph(_read(args.graph))
    rng = random.Random(args.seed)
    t0 = time.perf_counter()
    has = vertex_cover_lowrank(graph, args.k, args.trials, rng, tight=args.tight)
    _, deg_bound = vc_degrees(graph, args.k, args.tight)
    err = 0 if has else zero_test_miss_bound(min(graph.n, deg_bound), deg_bound, args.trials)
    _emit(args, {
        "decision": "HAS-VC" if has else "NO-VC",
        "algorithm": "low-rank remainder evaluation on the cover polynomial"
        + (" (tight edge range)" if args.tight else ""),
        "trials": args.trials,
        "error_bound": "0 (one-sided)" if has else _format_bound(err),
        "timings": f"{time.perf_counter() - t0:.6f}s",
    })
    return 0


def _power_ideal_bound(spec: PowerIdealSpec, trials) -> str:
    """The IN-IDEAL error bound of `membership_powers(..., trials=trials)`."""
    return f"<= {_format_bound(in_ideal_coverage_bound(spec, trials))} coverage + zero-test/prime terms"


def _cmd_mlmd(args) -> int:
    circuit = uio.parse_circuit(_read(args.circuit))
    exponents = tuple(int(t) for t in args.exponents.split())
    if len(exponents) != circuit.n:
        raise ValueError("need one exponent per circuit variable")
    k = syntactic_degree(circuit)
    spec = PowerIdealSpec(exponents, k)
    rng = random.Random(args.seed)
    trials = None if args.trials == "auto" else _positive_trials(int(args.trials))
    t0 = time.perf_counter()
    not_member = membership_powers(circuit, spec, trials=trials, rng=rng)
    err = "0 (one-sided)" if not_member else _power_ideal_bound(spec, trials)
    _emit(args, {
        "decision": "NOT-IN-IDEAL" if not_member else "IN-IDEAL",
        "algorithm": f"scaled Hadamard detection, degrees 0..{min(k, spec.m)}",
        "trials": args.trials,
        "error_bound": err,
        "timings": f"{time.perf_counter() - t0:.6f}s",
    })
    return 0


def _cmd_certify(args) -> int:
    circuit = uio.parse_circuit(_read(args.circuit))
    ideal = uio.parse_ideal(_read(args.ideal))
    budget = compute_threshold(circuit, ideal)
    if args.verify:
        cert = uio.parse_certificate(_read(args.verify))
        ok = verify_certificate(circuit, ideal, cert, budget)
        _emit(args, {
            "decision": "ACCEPT" if ok else "REJECT",
            "algorithm": "residual + threshold certificate verifier",
            "error_bound": "0 (acceptance is sound)",
            "threshold_M": uio.format_scalar(budget.M),
        })
        return 0
    decision, cert = search_nonmembership(circuit, ideal, budget)
    fields = {
        "decision": "NONMEMBER" if decision == "nonmember" else "MEMBER",
        "algorithm": "approximate root-grid sweep with exact thresholds",
        "error_bound": "0 (gap certified)",
        "threshold_M": uio.format_scalar(budget.M),
    }
    if cert is not None and args.out_cert:
        _write(args.out_cert, uio.write_certificate(cert))
        fields["certificate"] = args.out_cert
    _emit(args, fields)
    return 0


def _cmd_reduce(args) -> int:
    if args.kind == "indep-set":
        graph = uio.parse_graph(_read(args.infile))
        if args.k is None:
            raise ValueError("indep-set reduction needs --k")
        circuit, ideal = reduce_independent_set(graph, args.k)
    elif args.kind == "klineq":
        inst = uio.parse_klineq(_read(args.infile))
        circuit, ideal = reduce_klineq(inst)
    elif args.kind == "coloring":
        graph = uio.parse_graph(_read(args.infile))
        if args.k is None:
            raise ValueError("coloring instance needs --k")
        circuit, ideal = graph_coloring_instance(graph, args.k)
    else:  # one-in-three
        inst = uio.parse_one_in_three(_read(args.infile))
        packed = reduce_one_in_three(inst, rows=args.rows)
        if args.out_instance:
            _write(args.out_instance, uio.write_klineq(packed))
        circuit, ideal = reduce_klineq(packed)
    if args.out_circuit:
        _write(args.out_circuit, uio.write_circuit(circuit))
    if args.out_ideal:
        _write(args.out_ideal, uio.write_ideal(ideal))
    _emit(args, {
        "decision": "WRITTEN",
        "algorithm": f"{args.kind} instance generator",
        "out_circuit": args.out_circuit,
        "out_ideal": args.out_ideal,
    })
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    failures = run_selftest(args.seed)
    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print("selftest: all oracle-equivalence checks passed")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="unideal", description="Univariate ideal membership toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true")
        sp.add_argument("--timings", action="store_true")
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("member", help="decide ideal membership")
    sp.add_argument("--circuit", required=True)
    sp.add_argument("--ideal", required=True)
    sp.add_argument("--forms")
    sp.add_argument("--mode", choices=["auto", "brute", "lowrank", "powers"], default="auto")
    sp.add_argument("--cap", type=int, default=10**6)
    sp.add_argument("--trials", type=int, default=20)
    common(sp)
    sp.set_defaults(fn=_cmd_member)

    sp = sub.add_parser("rem-eval", help="evaluate a low-rank remainder at a point")
    sp.add_argument("--input", required=True)
    sp.add_argument("--ideal", required=True)
    sp.add_argument("--point", required=True)
    common(sp)
    sp.set_defaults(fn=_cmd_rem_eval)

    sp = sub.add_parser("perm", help="matrix permanent")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--mode", choices=["auto", "ryser", "lowrank"], default="auto")
    common(sp)
    sp.set_defaults(fn=_cmd_perm)

    sp = sub.add_parser("vc", help="vertex cover on a low-rank graph")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--tight", action="store_true")
    common(sp)
    sp.set_defaults(fn=_cmd_vc)

    sp = sub.add_parser("mlmd", help="power-ideal membership / multilinear detection")
    sp.add_argument("--circuit", required=True)
    sp.add_argument("--exponents", required=True)
    sp.add_argument("--trials", default="auto")
    common(sp)
    sp.set_defaults(fn=_cmd_mlmd)

    sp = sub.add_parser("certify", help="nonmembership certificates (distinct roots)")
    sp.add_argument("--circuit", required=True)
    sp.add_argument("--ideal", required=True)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--verify")
    group.add_argument("--search", action="store_true")
    sp.add_argument("--out-cert")
    common(sp)
    sp.set_defaults(fn=_cmd_certify)

    sp = sub.add_parser("reduce", help="hardness-reduction instance generators")
    sp.add_argument("kind", choices=["indep-set", "klineq", "one-in-three", "coloring"])
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--rows", type=int, default=1)
    sp.add_argument("--out-circuit")
    sp.add_argument("--out-ideal")
    sp.add_argument("--out-instance")
    common(sp)
    sp.set_defaults(fn=_cmd_reduce)

    sp = sub.add_parser("selftest", help="run the oracle-equivalence suite")
    common(sp)
    sp.set_defaults(fn=_cmd_selftest)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CapExceeded as e:
        print(f"cap exceeded: {e}", file=sys.stderr)
        return 3
    except Undecided as e:
        print(f"undecided: {e}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
