"""The three benchmark workloads: inputs from a seed, timed passes, exact checks.

Every workload is a closed loop with one client: an op starts when the
previous one has returned.  A pass is one walk over the workload's task list;
`run` repeats passes until the measuring time is used up, `run_traced` makes
one untraced and one traced pass over the same tasks.  README.md explains
why each workload exists and which layers it loads.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from math import gcd
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_tmp"
CLI = ("-m", "fbpaths.cli")


class Deadline(Exception):
    """The run's hard time limit was reached."""


class Result:
    """Timings and failures of the passes of one run."""

    def __init__(self):
        self.pass_s: list[float] = []
        self.op_s: list[float] = []
        self.attempted = 0
        self.failed = 0


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_child(argv, deadline: float) -> tuple[float, int, bytes]:
    """Run argv to completion: (wall seconds, exit code, stdout).

    The child gets its own session, so on the deadline its whole process
    group (pool workers too) is killed and reaped before Deadline is raised.
    """
    left = deadline - time.monotonic()
    if left <= 0:
        raise Deadline
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=left)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise Deadline from None
    wall = time.perf_counter() - t0
    if proc.returncode:
        sys.stderr.write(f"child {' '.join(map(str, argv))} exited {proc.returncode}:\n"
                         + err.decode(errors="replace")[-2000:])
    return wall, proc.returncode, out


def traced_child(argv, deadline: float) -> tuple[float, int, bytes, dict]:
    """As run_child, through traced_cli.py; also returns the merged span totals."""
    WORK_DIR.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        wall, code, out = run_child([str(HERE / "traced_cli.py"), out_dir, *argv], deadline)
        return wall, code, out, tracing.read_dir(out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def count_paths(pp: int, a: int, b: int, L: int) -> int:
    """Height sequences a -> b with L unit steps inside 1..p'-1 (q = 1 oracle)."""
    ways = {a: 1}
    for _ in range(L):
        nxt: dict[int, int] = {}
        for h, n in ways.items():
            for nh in (h - 1, h + 1):
                if 1 <= nh <= pp - 1:
                    nxt[nh] = nxt.get(nh, 0) + n
        ways = nxt
    return ways.get(b, 0)


# -- machine speed ---------------------------------------------------------------

# Seconds calibrate.py takes from spawn to exit at the reference speed (a
# 2-vCPU x86-64 virtual machine, Python 3.11.7).  It only sets the scale.
C_REF = 0.20
SAMPLE_EVERY_S = 2.0


class Speed:
    """Follows the machine's speed over one run.

    On a shared machine the speed drifts by up to 1.6x within minutes and
    moves every timing with it.  Between ops, at most every SAMPLE_EVERY_S,
    `jobs` copies of calibrate.py run side by side (as many processes as the
    workload keeps busy) and are timed from spawn to exit, as the workloads'
    child processes are; the run's times are scaled by C_REF over the median
    sample.
    """

    def __init__(self, jobs: int):
        self.jobs = jobs
        self.samples: list[float] = []
        self.last = float("-inf")

    def sample(self) -> None:
        t0 = time.perf_counter()
        procs = [subprocess.Popen([sys.executable, str(HERE / "calibrate.py")], cwd=ROOT)
                 for _ in range(self.jobs)]
        for p in procs:
            p.wait()
        self.samples.append(time.perf_counter() - t0)
        self.last = time.monotonic()

    def maybe_sample(self) -> None:
        if time.monotonic() - self.last >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self) -> float:
        return C_REF / statistics.median(self.samples)


# -- char-large-L ---------------------------------------------------------------

class CharLargeL:
    """Single characters at large L, each route in a fresh `fbpaths chi` process.

    The pool is a fixed list of endpoint orbits.  For each orbit the seed picks
    one image under a <-> b and h -> p'-h (all Takahashi members, so all three
    routes apply), and it shuffles the order of the ops.  Orbits are fixed so
    that every seed asks for the same amount of work.
    """

    name = "char-large-L"
    ORBITS = ((3, 8, 1, 2), (3, 8, 1, 3), (3, 8, 2, 3),
              (11, 38, 1, 1), (11, 38, 2, 4), (11, 38, 17, 17))
    L0 = {(3, 8): 33, (11, 38): 22}
    ROUTES = (("bosonic",), ("fermionic", "--form", "modified"),
              ("fermionic", "--form", "classical"))

    def build(self, seed: int) -> list[tuple]:
        rng = random.Random(f"{self.name}/{seed}")
        ops = []
        for p, pp, a, b in self.ORBITS:
            a, b = rng.choice(sorted({(a, b), (b, a), (pp - a, pp - b), (pp - b, pp - a)}))
            L = self.L0[p, pp] + (self.L0[p, pp] + a - b) % 2
            ops += [(p, pp, a, b, L, route) for route in self.ROUTES]
        rng.shuffle(ops)
        return ops

    @staticmethod
    def argv(op) -> list[str]:
        p, pp, a, b, L, route = op
        return [*CLI, "chi", route[0], "--p", str(p), "--pp", str(pp), "--a", str(a),
                "--b", str(b), "--L", str(L), *route[1:]]

    @staticmethod
    def check(ops, outputs) -> list[bool]:
        """Per-op verdicts: each tuple's routes must agree term by term, have
        positive coefficients and sum to the number of paths."""
        verdict = [False] * len(ops)
        groups: dict[tuple, list[int]] = {}
        for i, op in enumerate(ops):
            groups.setdefault(op[:5], []).append(i)
        for (p, pp, a, b, L), idx in groups.items():
            polys = {}
            for i in idx:
                try:
                    polys[i] = {int(e): int(c) for e, c in json.loads(outputs[i]).items()}
                except (TypeError, ValueError, AttributeError):
                    continue
            want = count_paths(pp, a, b, L)
            for i in polys:
                agree = sum(polys[j] == polys[i] for j in polys)
                verdict[i] = (2 * agree > len(idx) and want > 0
                              and all(c > 0 for c in polys[i].values())
                              and sum(polys[i].values()) == want)
        return verdict

    def run(self, ops, seconds: float, deadline: float, speed: Speed) -> Result:
        res = Result()
        t_end = time.monotonic() + seconds
        while not res.pass_s or time.monotonic() < t_end:
            outputs, pass_s = [], 0.0
            for op in ops:
                wall, code, out = run_child(self.argv(op), deadline)
                speed.maybe_sample()
                res.op_s.append(wall)
                pass_s += wall
                outputs.append(out if code == 0 else None)
            res.pass_s.append(pass_s)
            verdict = self.check(ops, outputs)
            res.attempted += len(ops)
            res.failed += verdict.count(False)
        return res

    def run_traced(self, ops, deadline: float):
        plain, traced, totals = [], [], {}
        plain_s = traced_s = 0.0
        for op in ops:
            wall, code, out = run_child(self.argv(op), deadline)
            plain_s += wall
            plain.append(out if code == 0 else None)
        for op in ops:
            wall, code, out, tot = traced_child(self.argv(op)[len(CLI):], deadline)
            traced_s += wall
            traced.append(out if code == 0 else None)
            totals.setdefault((op[0], op[1]), []).append(tot)
        verdict = self.check(ops, traced)
        failed = sum(not ok or t != u for ok, t, u in zip(verdict, traced, plain))
        by_model = {m: tracing.merge(t) for m, t in totals.items()}
        extra = {"trace.overhead_frac": traced_s / plain_s - 1}
        for (p, pp), tot in by_model.items():
            share = tracing.layer_shares(tot)
            for layer in ("qpoly", "characters"):
                extra[f"char.m{p}_{pp}.{layer}.self_frac"] = share.get(layer, 0.0)
        return tracing.merge(sum(totals.values(), [])), len(ops), len(ops), failed, extra


# -- identity-sweep -------------------------------------------------------------

class IdentitySweep:
    """`fbpaths verify identity --ppmax 8 --Lmax 12 --jobs 2`, as a user runs it.

    The sweep is the same for every seed: it is the fixed grid the CLI
    defines.  Each pass is one fresh CLI process and one op.
    """

    name = "identity-sweep"
    GRID = ("verify", "identity", "--ppmax", "8", "--Lmax", "12")
    JOBS = 2
    _WALL = re.compile(rb'"wall_time_s": [^,}]*')

    def build(self, seed: int) -> list[tuple]:
        import fbpaths.cli as cli
        return list(cli.iter_identity_tasks(8, 12, cli.ALL_FORMS))

    def argv(self, jobs: int) -> list[str]:
        return [*CLI, *self.GRID, "--jobs", str(jobs)]

    @classmethod
    def digest(cls, report: bytes) -> str:
        """SHA-256 of the report with the summary's wall_time_s blanked."""
        return hashlib.sha256(cls._WALL.sub(b'"wall_time_s": null', report)).hexdigest()

    @classmethod
    def check(cls, report: bytes | None) -> bool:
        """Byte-for-byte match with the reference (wall time aside), no failures."""
        if not report:
            return False
        ref = json.loads((HERE / "reference.json").read_text())["identity-sweep"]
        try:
            summary = json.loads(report.splitlines()[-1])["summary"]
        except (ValueError, KeyError, IndexError):
            return False
        return (summary.get("failures") == 0 and summary.get("records") == ref["records"]
                and cls.digest(report) == ref["sha256"])

    def run(self, tasks, seconds: float, deadline: float, speed: Speed) -> Result:
        res = Result()
        t_end = time.monotonic() + seconds
        while not res.pass_s or time.monotonic() < t_end:
            wall, code, out = run_child(self.argv(self.JOBS), deadline)
            speed.sample()
            res.pass_s.append(wall)
            res.op_s.append(wall)
            res.attempted += 1
            res.failed += not (code == 0 and self.check(out))
        return res

    def run_traced(self, tasks, deadline: float):
        wall, code, plain = run_child(self.argv(self.JOBS), deadline)
        serial, code1, out1 = run_child(self.argv(1), deadline)
        t_wall, t_code, traced, tot = traced_child(self.argv(self.JOBS)[len(CLI):], deadline)
        failed = sum(not (c == 0 and self.check(o)) for c, o in
                     ((code, plain), (code1, out1), (t_code, traced)))
        failed += self.digest(traced or b"") != self.digest(plain or b"")
        extra = {
            "trace.overhead_frac": t_wall / wall - 1,
            "cli.report_bytes": len(traced or b""),
            "cli.pool_efficiency": serial / (self.JOBS * wall),
        }
        return tot, 1, 3, failed, extra


# -- transform-suite ------------------------------------------------------------

MODELS = tuple((p, pp) for pp in range(3, 9) for p in range(1, pp) if gcd(p, pp) == 1)
WIDE = tuple(m for m in MODELS if m[1] > 2 * m[0])        # b3 and decompose apply
NARROW = tuple(m for m in MODELS if m[1] < 2 * m[0])
B_MODELS = tuple(m for m in MODELS if m[1] <= 6)           # dilation identity grid
BD_MODELS = tuple(m for m in MODELS if m[0] < m[1] < 2 * m[0])


def _delta(p: int, pp: int, a: int, e: int) -> int:
    """Parity of the band holding a pre/post segment at height a, direction e."""
    return 0 if (a + (1 if e == 0 else -1)) * p // pp == a * p // pp else 1


def _random_walk(rng: random.Random, pp: int, a: int, L: int) -> tuple[int, ...]:
    """A path chosen uniformly among the L-step paths from a inside 1..p'-1."""
    ways = [[1] * (pp + 1)]
    for _ in range(L):
        prev = ways[-1]
        ways.append([0] + [(prev[h - 1] if h > 1 else 0) + (prev[h + 1] if h < pp - 1 else 0)
                           for h in range(1, pp)] + [0])
    hs = [a]
    for left in range(L - 1, -1, -1):
        h = hs[-1]
        up = ways[left][h + 1] if h < pp - 1 else 0
        down = ways[left][h - 1] if h > 1 else 0
        hs.append(h + 1 if rng.randrange(up + down) < up else h - 1)
    return tuple(hs)


class TransformSuite:
    """The lemma chain, particle moves and bijection checks on small paths.

    Ops are drawn from the seed: 60 % lemma chains on paths of the p' < 2p
    models, 25 % on the p' > 2p models (the op then also runs b3 and the
    decompose round trip), 15 % verify_b_bijection/verify_bd_bijection
    tuples.  A pass is OPS_PER_PASS consecutive ops of the list, cycling, and
    starts with every fbpaths cache cleared, so each pass does the same work
    and enumeration behind chi_tilde stays inside the measured ops.
    """

    name = "transform-suite"
    OPS = 4000
    OPS_PER_PASS = 400
    LMAX = 10

    def build(self, seed: int) -> list[tuple]:
        rng = random.Random(f"{self.name}/{seed}")
        return [self._op(rng) for _ in range(self.OPS)]

    def _op(self, rng: random.Random) -> tuple:
        r = rng.random()
        if r < 0.15:
            if rng.random() < 0.5:
                kind, (p, pp) = "b", rng.choice(B_MODELS)
                dp, dpp = p, pp
            else:
                kind, (p, pp) = "bd", rng.choice(BD_MODELS)
                dp, dpp = pp - p, pp
            while True:
                a, b, e, f = rng.randint(1, pp - 1), rng.randint(1, pp - 1), rng.randint(0, 1), rng.randint(0, 1)
                if _delta(dp, dpp, a, e) == 0:
                    break
            return ("bij", kind, (p, pp, a, b, e, f, rng.randint(0, 8), rng.randint(0, 8)))
        p, pp = rng.choice(NARROW if r < 0.75 else WIDE)
        L = rng.randint(0, self.LMAX)
        e, f = rng.randint(0, 1), rng.randint(0, 1)
        heights = _random_walk(rng, pp, rng.randint(1, pp - 1), L)
        k, lam = 0, ()
        if pp > 2 * p and not (L == 0 and e != f):
            k = rng.randint(1, 3)
            # m of the dilated path is L, so lambda fits the k x L box
            lam = tuple(sorted((rng.randint(0, L) for _ in range(k)), reverse=True))
        return ("chain", p, pp, heights, e, f, k, lam)

    def __init__(self):
        self._fb = None
        self._caches = []

    def _load(self):
        if self._fb is None:
            import fbpaths
            import fbpaths.cli  # noqa: F401  (every module, for the cache list)
            self._fb = fbpaths
            seen = {}
            for name, mod in sys.modules.items():
                if mod is not None and (name == "fbpaths" or name.startswith("fbpaths.")):
                    for v in vars(mod).values():
                        if hasattr(v, "cache_clear"):
                            seen[id(v)] = v
            self._caches = list(seen.values())
        return self._fb

    def clear_caches(self, tracer=None) -> None:
        if tracer:
            tracer.fold_caches()
        for c in self._caches:
            c.cache_clear()
        if tracer:
            tracer.caches_cleared()

    def _chain(self, op) -> tuple[bool, tuple]:
        fb = self._fb
        _, p, pp, heights, e, f, k, lam = op
        model = fb.Model(p, pp)
        h = fb.Path(model, heights, fb.Wings(e, f))
        L, a, b = h.L, h.a, h.b
        st = fb.path_stats(h)
        w = fb.weight_wtilde(h)
        ss = fb.striking_sequence(h)
        ok = fb.weight_from_striking(ss) == w
        ok &= st.alpha == b - a and st.beta == b * p // pp - a * p // pp + f - e
        ok &= 4 * (w + fb.weight_wtilde(fb.d_transform(h))) == L * L - st.alpha ** 2
        fp = [w, st.m, st.beta, ss.columns]
        if not (L == 0 and e != f):
            img = fb.b1(h)
            sti = fb.path_stats(img)
            ok &= sti.m == L and sti.alpha == st.alpha + st.beta and sti.beta == st.beta
            ok &= 4 * (fb.weight_wtilde(img) - w) == (img.L - sti.m) ** 2 - st.beta ** 2
            for kk in (1, 2, 3):
                hk = fb.b2(img, kk)
                stk = fb.path_stats(hk)
                ok &= stk.m == sti.m and hk.L == img.L + 2 * kk
                ok &= 4 * (fb.weight_wtilde(hk) - w) == (hk.L - stk.m) ** 2 - st.beta ** 2
            fp.append(img.heights)
        if _delta(p, pp, a, e) == 0 and 1 <= a + (1 if e == 0 else -1) <= pp - 1:
            hl = fb.extend_left(h)
            sign = 1 if e == 0 else -1
            ok &= fb.path_stats(hl).m == st.m
            ok &= 2 * (fb.weight_wtilde(hl) - w) == L - st.m + sign * st.beta
        if _delta(p, pp, b, f) == 0 and 1 <= b + (1 if f == 0 else -1) <= pp - 1:
            hr = fb.extend_right(h)
            sign = 1 if f == 0 else -1
            ok &= fb.path_stats(hr).m == st.m
            ok &= 2 * (fb.weight_wtilde(hr) - w) == L - sign * st.alpha
        if pp > 2 * p and L >= 1:
            if (a == 1 and e == 0) or (a == pp - 1 and e == 1):
                ht = fb.truncate_left(h)
                back = fb.extend_left(ht)
                stt = fb.path_stats(ht)
                sign = 1 if ht.boundary.e == 0 else -1
                ok &= back.heights == h.heights and back.boundary == h.boundary
                ok &= 2 * (w - fb.weight_wtilde(ht)) == ht.L - stt.m + sign * stt.beta
            if (b == 1 and f == 0) or (b == pp - 1 and f == 1):
                back = fb.extend_right(fb.truncate_right(h))
                ok &= back.heights == h.heights and back.boundary == h.boundary
        if k:
            hk = fb.b2(fb.b1(h), k)
            w0 = fb.weight_wtilde(hk)
            img = fb.b3(hk, lam, k=k)
            ok &= fb.weight_wtilde(img) == w0 + sum(lam)
            ok &= fb.path_stats(img).m == L and img.L == hk.L
            base, k2, lam2 = fb.decompose(img)
            ok &= (base.heights, base.boundary, k2, lam2) == \
                (h.heights, h.boundary, k, tuple(x for x in lam if x))
            fp.append(img.heights)
        return bool(ok), tuple(fp)

    def _bijection(self, op) -> tuple[bool, tuple]:
        fb = self._fb
        _, kind, args = op
        verify = fb.verify_b_bijection if kind == "b" else fb.verify_bd_bijection
        rep = verify(*args)
        return rep.equal, tuple(sorted(rep.lhs.terms.items()))

    def do_op(self, op) -> tuple[bool, tuple]:
        """Run one op: (all checks held, fingerprint of its outputs)."""
        try:
            return (self._chain if op[0] == "chain" else self._bijection)(op)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            sys.stderr.write(f"op {op!r} raised {exc!r}\n")
            return False, ()

    def _pass(self, ops, res: Result, tracer=None) -> list[tuple]:
        self.clear_caches(tracer)
        clock = time.perf_counter
        fps, times = [], []
        start = clock()
        for op in ops:
            t0 = clock()
            ok, fp = self.do_op(op)
            times.append(clock() - t0)
            if tracer:
                tracer.drain()
            res.failed += not ok
            fps.append(fp)
        res.pass_s.append(clock() - start)
        res.op_s += times
        res.attempted += len(ops)
        return fps

    def _slices(self, ops):
        n = self.OPS_PER_PASS
        return [ops[i:i + n] for i in range(0, len(ops), n)]

    def run(self, ops, seconds: float, deadline: float, speed: Speed) -> Result:
        self._load()
        res = Result()
        t_end = time.monotonic() + seconds
        slices = self._slices(ops)
        i = 0
        while not res.pass_s or time.monotonic() < t_end:
            if time.monotonic() > deadline:
                raise Deadline
            self._pass(slices[i % len(slices)], res)
            speed.maybe_sample()
            i += 1
        return res

    def run_traced(self, ops, deadline: float):
        self._load()
        warm, plain, traced = Result(), Result(), Result()
        for s in self._slices(ops):  # warm-up, so the overhead compares warm passes
            self._pass(s, warm)
        fps_plain = [fp for s in self._slices(ops) for fp in self._pass(s, plain)]
        tracer = tracing.Tracer()
        tracer.install()
        fps_traced = [fp for s in self._slices(ops) for fp in self._pass(s, traced, tracer)]
        failed = warm.failed + plain.failed + traced.failed
        failed += sum(a != b for a, b in zip(fps_plain, fps_traced))
        extra = {"trace.overhead_frac": sum(traced.pass_s) / sum(plain.pass_s) - 1}
        return tracing.merge([tracer.snapshot()]), len(ops), 3 * len(ops), failed, extra


WORKLOADS = {w.name: w for w in (CharLargeL(), IdentitySweep(), TransformSuite())}
