"""The four benchmark workloads: inputs, operations and output checks.

A workload is built once per set-up from the run's seed.  `operations()`
returns the round's list of `Op`s; each op calls into gwfract through
module attributes looked up at call time, so the tracer's wrappers see it.
`check(op, result)` returns None when the output is right, else a message.
Every check compares against arithmetic done here, apart from gwfract, or
against a property the method must have.

Realizations (the seeds handed to the samplers) are fixed and listed below:
their cost differs by up to 40x from one seed to the next, so drawing them
from the run's seed would make `wall_s` measure the draw.  The run's seed
drives what does not change the amount of work: ball centres, Monte-Carlo
streams and the order of the block list.
"""

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np

import gwfract as gw


def derive_seed(seed, label):
    """A 31-bit stream seed for `label`, independent of gwfract's own mixing."""
    h = hashlib.blake2b(("perfbench:%s:%d" % (label, seed)).encode(), digest_size=4)
    return int.from_bytes(h.digest(), "big") >> 1


class Op:
    """One timed call.  `known_fault` names a fault whose check fails every time."""

    __slots__ = ("name", "call", "known_fault", "spec")

    def __init__(self, name, call, known_fault=None, spec=None):
        self.name = name
        self.call = call
        self.known_fault = known_fault
        self.spec = spec


def _close(a, b, tol):
    return abs(float(a) - float(b)) <= tol


# ---------------------------------------------------------------------------
# block-extract


# (b, d, p, c, k, depth, realization seed)
BLOCK_RUNS = (
    (2, 2, 0.9, 2, 4, 12, 0),   # scan-bound: 12.8k child tests
    (2, 2, 0.9, 2, 4, 12, 1),   # scan-bound: 17.0k child tests
    (2, 3, 0.9, 2, 6, 12, 1),   # sampler-bound: 5.75M nodes, 256 child tests
    (3, 2, 0.99, 3, 4, 8, 1),   # gallery grid: 81-map block-family certificate
)


class BlockExtract:
    name = "block-extract"

    def __init__(self, seed, workdir):
        k = seed % len(BLOCK_RUNS)
        self.runs = BLOCK_RUNS[k:] + BLOCK_RUNS[:k]

    def before_round(self):
        # percolation_pipeline keeps its block-family certificate in a module
        # global; a fresh process (one CLI call) pays for it every time
        gw.extraction._BLOCK_CONSTANT.clear()

    def operations(self):
        def make(run):
            b, d, p, c, k, depth, sd = run
            return lambda: gw.percolation_pipeline(b, d, p, c, k, depth=depth, seed=sd)
        return [Op("percolation b=%d d=%d seed=%d" % (r[0], r[1], r[6]), make(r), spec=r)
                for r in self.runs]

    def check(self, op, es):
        b, d, p, c, k, depth, sd = op.spec
        n = b ** d
        arity = round(c ** k)
        tree = es.subtree
        for w, kids in tree.children.items():
            if len(w) == tree.depth:
                continue
            if len(kids) != arity:
                return "node %r has %d children, want %d" % (w, len(kids), arity)
            by_prefix = {}
            for lab in kids:
                letters = []
                for _ in range(k):
                    lab, r = divmod(lab, n)
                    letters.append(r)
                letters.reverse()
                by_prefix.setdefault(tuple(letters[:-2]), set()).add(tuple(letters[-2:]))
            if max(len(s) for s in by_prefix.values()) != n * n:
                return "node %r holds no full two-level block" % (w,)
        lazy = gw.LazyGW(gw.Binomial(n, p), sd)
        for word in es.leaf_words():
            for i, letter in enumerate(word):
                if letter not in lazy.children(word[:i]):
                    return "leaf %s is dead at letter %d" % (word.text, i)
        cb = es.stats["block_constant"]
        if not (0.0 < cb <= 0.5 * (1.0 - 2.0 * b ** -2.0)):
            return "block_constant %r outside (0, (1 - 2/b^2)/2]" % cb
        return None


# ---------------------------------------------------------------------------
# section-extract


class SectionExtract:
    name = "section-extract"

    # name, ifs, law, rho, alpha, c, n_levels, realization seed
    def __init__(self, seed, workdir):
        self.runs = [
            ("grid", gw.percolation_ifs(3, 2), gw.Binomial(9, 0.7), 3.0 ** -4, 1.0, 0.05, 2, 20),
            ("sierpinski", gw.sierpinski_ifs(), gw.Binomial(3, 0.95), 1.0 / 64, 7.0 / 6, 0.05, None, 3),
        ]
        if seed % 2:
            self.runs.reverse()

    def before_round(self):
        pass

    def operations(self):
        def make(run):
            _, ifs, law, rho, alpha, c, levels, sd = run
            return lambda: gw.general_pipeline(ifs, law, rho=rho, alpha=alpha, c=c,
                                               seed=sd, n_levels=levels)
        return [Op("general %s seed=%d" % (r[0], r[7]), make(r), spec=r) for r in self.runs]

    def check(self, op, es):
        kind = op.spec[0]
        words = es.leaf_words()
        levels = es.levels()
        if len(words) != es.arity ** levels:
            return "%d leaves, want arity^levels = %d" % (len(words), es.arity ** levels)
        if len(set(words)) != len(words):
            return "leaves repeat"
        mass = float(np.sum(es.measured_cloud().masses))
        if not _close(mass, 1.0, 1e-9):
            return "measured masses sum to %r" % mass
        if kind == "grid":
            pts = es.cloud().points
            m = len(es.root_word)
            step = round(math.log(1.0 / es.rho, 3))
            for j in range(1, levels + 1):
                cells = np.floor(pts * float(3 ** (m + step * j))).astype(np.int64)
                got = len(np.unique(cells, axis=0))
                if got != es.arity ** j:
                    return "level %d: %d cells, want %d" % (j, got, es.arity ** j)
        return None


# ---------------------------------------------------------------------------
# verify


VERIFY_PERC = "b=3,d=2,p=0.7"
VERIFY_TREE = (0.7, 6, 2)          # p, depth, realization seed of the rendered tree
VERIFY_SUBSET = (2, 2, 0.99, 2, 4, 12, 1)  # block extraction behind the cloud CSVs
VERIFY_FULL_DEPTH = 5
VERIFY_EXPERIMENT = ("b=3,d=2,p=0.6", 6, 1000, 42)  # percolation, depth, budget, seed


def read_points(path):
    """Rows of a headerless two-column CSV, parsed here rather than by gwfract."""
    with open(path) as fh:
        return np.array(fh.read().replace("\n", ",").rstrip(",").split(","),
                        dtype=float).reshape(-1, 2)


def run_cli(argv):
    """gwfract.cli.main in this process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = gw.cli.main(argv)
    return code, out.getvalue()


class Verify:
    name = "verify"

    def __init__(self, seed, workdir):
        self.dir = workdir
        p, depth, sd = VERIFY_TREE
        tree = gw.sample_gw(gw.Binomial(9, p), depth, sd).tree
        self.tree_path = os.path.join(workdir, "tree.txt")
        with open(self.tree_path, "w") as fh:
            fh.write(tree.to_text())
        b, d, pp, c, k, dep, ssd = VERIFY_SUBSET
        es = gw.percolation_pipeline(b, d, pp, c, k, depth=dep, seed=ssd)
        cloud = es.cloud()
        self.eps = float(cloud.eps)
        self.alpha = float(es.alpha)
        self.subset_path = os.path.join(workdir, "subset.csv")
        self.measured_path = os.path.join(workdir, "measured.csv")
        with open(self.subset_path, "w") as fh:
            fh.write(gw.cloud_to_csv(cloud))
        with open(self.measured_path, "w") as fh:
            fh.write(gw.cli.measured_to_csv(es.measured_cloud()))
        self.ball_seed = derive_seed(seed, "balls")
        self.render_csv = os.path.join(workdir, "render.csv")
        self.translations = [m.trans for m in gw.percolation_ifs(3, 2).maps]

    def before_round(self):
        pass

    def operations(self):
        def cli(*argv):
            return lambda: run_cli(list(argv) + ["--json"])

        full_scales = ",".join(repr(3.0 ** -j) for j in range(1, VERIFY_FULL_DEPTH))
        perc, depth, budget, exp_seed = VERIFY_EXPERIMENT
        sub = ["--cloud", self.subset_path, "--eps", repr(self.eps), "--balls", "200",
               "--seed", str(self.ball_seed)]
        return [
            Op("render", cli("render", "--percolation", VERIFY_PERC, "--tree", self.tree_path,
                             "--out", os.path.join(self.dir, "render.pgm"),
                             "--cloud-out", self.render_csv)),
            Op("boxdim realization", cli("boxdim", "--cloud", self.render_csv)),
            Op("boxdim full grid", cli("boxdim", "--percolation", VERIFY_PERC,
                                       "--depth", str(VERIFY_FULL_DEPTH), "--anchor", "origin",
                                       "--scales", full_scales)),
            Op("check-diffuse beta 0.01", cli("check-diffuse", "--beta", "0.01", *sub)),
            Op("check-diffuse beta 0.9", cli("check-diffuse", "--beta", "0.9", *sub)),
            Op("check-ahlfors", cli("check-ahlfors", "--measured", self.measured_path,
                                    "--alpha", repr(self.alpha), "--balls", "1000",
                                    "--max-spread", "1000", "--seed", str(self.ball_seed))),
            Op("non-diffuseness", cli("experiment", "non-diffuseness", "--percolation", perc,
                                      "--depth", str(depth), "--budget", str(budget),
                                      "--seed", str(exp_seed))),
        ]

    def _rendered_points_ok(self):
        with open(self.tree_path) as fh:
            words = [tuple(int(x) for x in line.split("-")) for line in fh.read().split("\n") if line]
        depth = max(len(w) for w in words)
        leaves = np.array(sorted(w for w in words if len(w) == depth), dtype=np.int64)
        trans = np.array(self.translations)
        want = np.full((len(leaves), 2), 0.5 * 3.0 ** -depth)
        for i in range(depth):
            want += trans[leaves[:, i]] * 3.0 ** -i
        got = read_points(self.render_csv)
        if got.shape != want.shape:
            return "render wrote %d points for %d leaves" % (len(got), len(want))
        err = float(np.abs(got - want).max())
        return None if err <= 1e-12 else "rendered point off its cell centre by %.3g" % err

    def check(self, op, result):
        code, out = result
        doc = json.loads(out)
        if op.name == "render":
            if code != 0:
                return "render exited %d" % code
            return self._rendered_points_ok()
        if op.name == "boxdim realization":
            pts = read_points(self.render_csv)
            lo = pts.min(axis=0)
            for delta, count in doc["table"]:
                own = len(np.unique(np.floor((pts - lo) / delta).astype(np.int64), axis=0))
                if own != count:
                    return "boxdim counted %d boxes of side %g, want %d" % (count, delta, own)
            return None if code == 0 else "boxdim exited %d" % code
        if op.name == "boxdim full grid":
            return None if code == 0 and _close(doc["dim"], 2.0, 1e-9) else \
                "full-grid boxdim %r (exit %d), want 2" % (doc.get("dim"), code)
        if op.name == "check-diffuse beta 0.01":
            return None if code == 0 and doc["pass"] else "check-diffuse failed at beta 0.01"
        if op.name == "check-diffuse beta 0.9":
            return None if code == 3 and not doc["pass"] else "check-diffuse passed at beta 0.9"
        if op.name == "check-ahlfors":
            ok = code == 0 and 0.0 < doc["c1_hat"] <= doc["c2_hat"] and doc["spread"] <= 1000
            return None if ok else "check-ahlfors: exit %d spread %r" % (code, doc.get("spread"))
        if op.name == "non-diffuseness":
            est = {e["name"]: e for e in doc["estimates"]}
            beta = min(doc["params"]["beta_ladder"])
            if code != 0 or doc["verdict"] != "pass":
                return "non-diffuseness verdict %r (exit %d)" % (doc.get("verdict"), code)
            if not est["raw_search_best_ratio"]["value"] <= beta:
                return "raw best ratio %r above beta %r" % (est["raw_search_best_ratio"]["value"], beta)
            if not est["control_best_ratio"]["value"] > beta:
                return "control best ratio %r not above beta %r" % (est["control_best_ratio"]["value"], beta)
            return None
        return "unknown op %s" % op.name


# ---------------------------------------------------------------------------
# solve


NEAR_CRITICAL_P = 8.0 / 9.0 - 1e-11
ENUM_P_12 = 0.5
ENUM_P_16 = 0.45
ENUM_GENERATORS_12 = [(i, (i + 1) % 12) for i in range(12)] + [(0, 6, 9)]
ENUM_GENERATORS_16 = [(i, (i + 1) % 16) for i in range(16)] + [(0, 5, 10)]
ENUM_PROBS_20 = [0.4 + 0.01 * i for i in range(20)]
ENUM_GENERATORS_20 = [(i, (i + 3) % 20) for i in range(20)]
MC_GENERATORS_9 = [(i, (i + 1) % 9) for i in range(9)]
MC_SAMPLES = 400_000


def pair_tau(p):
    """tau for Binomial(3, p) and ary(2): larger root of 2p^3 t^2 - 3p^2 t + 1, or 0."""
    disc = 9.0 * p ** 4 - 8.0 * p ** 3
    if disc < 0.0:
        return 0.0
    return (3.0 * p * p + math.sqrt(disc)) / (4.0 * p ** 3)


def pgf_coefficients(law):
    """Coefficients (lowest degree first) of the offspring pgf."""
    if isinstance(law, gw.Binomial):
        return [math.comb(law.n, j) * law.p ** j * (1.0 - law.p) ** (law.n - j)
                for j in range(law.n + 1)]
    coef = [1.0]
    for p in law.probs:
        coef = [a * (1.0 - p) + (coef[j - 1] * p if j else 0.0)
                for j, a in enumerate(coef + [0.0])]
    return coef


def extinction_root(law):
    """Smallest root in [0, 1] of pgf(s) - s."""
    coef = pgf_coefficients(law)
    coef[1] -= 1.0
    roots = np.roots(coef[::-1])
    real = [r.real for r in roots if abs(r.imag) < 1e-9 and -1e-9 <= r.real <= 1.0 + 1e-9]
    return min(real)


def enum_g(keep_probs, generators, s):
    """g(s): probability that the thinned child set contains no generator,
    summed over every subset of the letters."""
    n = len(keep_probs)
    masks = np.arange(1 << n, dtype=np.int64)
    hit = np.zeros(len(masks), dtype=bool)
    for g in generators:
        gm = sum(1 << x for x in g)
        hit |= (masks & gm) == gm
    q = np.array(keep_probs) * (1.0 - s)
    pr = np.ones(len(masks))
    for i in range(n):
        pr *= np.where(masks >> i & 1, q[i], 1.0 - q[i])
    return float(pr[~hit].sum())


def enum_fixed_point(keep_probs, generators):
    q = 0.0
    for _ in range(100_000):
        v = enum_g(keep_probs, generators, q)
        if abs(v - q) < 1e-13:
            return v
        q = v
    return q


class Solve:
    name = "solve"

    EXTINCTION_LAWS = (("bin9", (9, 0.6)), ("bin3", (3, 0.5)), ("bin2", (2, 0.55)),
                       ("bern4", (0.9, 0.5, 0.3, 0.2)))
    PAIR_PS = (0.85, 0.9, 0.95)

    def __init__(self, seed, workdir):
        self.mc_seed = derive_seed(seed, "mc")
        self.gfn_seed = derive_seed(seed, "gfn")
        self.gap_seed = derive_seed(seed, "gap")

    def before_round(self):
        pass

    @staticmethod
    def _law(spec):
        if len(spec) == 2 and isinstance(spec[0], int):
            return gw.Binomial(*spec)
        return gw.PerLetterBernoulli(list(spec))

    def operations(self):
        ops = []
        for name, spec in self.EXTINCTION_LAWS:
            ops.append(Op("extinction %s" % name,
                          lambda spec=spec: gw.extinction_prob(self._law(spec)), spec=spec))
        ops.append(Op("mc extinction bin9", lambda: gw.mc_extinction_frequency(
            gw.Binomial(9, 0.6), depth=30, trials=200_000, seed=self.mc_seed)))

        def pair(p):
            return gw.GFunction(gw.Binomial(3, p), gw.ary_collection(2))

        for p in self.PAIR_PS:
            ops.append(Op("closed-form iterate p=%g" % p,
                          lambda p=p: gw.smallest_fixed_point(pair(p)), spec=p))
            ops.append(Op("closed-form bisect p=%g" % p,
                          lambda p=p: gw.smallest_fixed_point_bisect(pair(p)), spec=p))

        def enum12():
            return gw.GFunction(gw.Binomial(12, ENUM_P_12), gw.generator_collection(ENUM_GENERATORS_12),
                                strategy="enum")

        ops.append(Op("enum12 iterate", lambda: (gw.smallest_fixed_point(enum12()), enum12())))
        ops.append(Op("enum12 bisect", lambda: gw.smallest_fixed_point_bisect(enum12())))

        def enum16():
            return gw.GFunction(gw.Binomial(16, ENUM_P_16), gw.generator_collection(ENUM_GENERATORS_16),
                                strategy="enum")

        ops.append(Op("enum16 iterate", lambda: gw.smallest_fixed_point(enum16())))
        ops.append(Op("enum16 bisect", lambda: gw.smallest_fixed_point_bisect(enum16())))

        def enum20():
            return gw.GFunction(gw.PerLetterBernoulli(ENUM_PROBS_20),
                                gw.generator_collection(ENUM_GENERATORS_20), strategy="enum")

        ops.append(Op("enum20 iterate and bisect", lambda: (
            gw.smallest_fixed_point(enum20()),
            gw.smallest_fixed_point_bisect(enum20(), scan_steps=64))))
        # smallest_fixed_point on a Monte-Carlo g is left out: its interval
        # misses the exact fixed point on some seeds (see CHANGES.md)
        ops.append(Op("mc bisect", lambda: gw.smallest_fixed_point_bisect(gw.GFunction(
            gw.Binomial(9, 0.6), gw.generator_collection(MC_GENERATORS_9), strategy="mc",
            sample_size=MC_SAMPLES, seed=self.gfn_seed))))
        for c in (2, 6):
            ops.append(Op("g_k_a curve c=%d" % c, lambda c=c: [
                gw.g_k_a_curve(gw.Binomial(9, 0.6), k, math.ceil(float(c) ** k), 0.5)
                for k in range(1, 7)], spec=c))
        ops.append(Op("appendix B gap", lambda: gw.appendix_b_gap(
            0.9, 0.01, trials=100_000, seed=self.gap_seed)))
        ops.append(Op("near-critical iterate", lambda: gw.smallest_fixed_point(
            gw.GFunction(gw.Binomial(3, NEAR_CRITICAL_P), gw.ary_collection(2))),
            spec=NEAR_CRITICAL_P, known_fault="smallest_fixed_point stops on |g(q) - q| < tol in the "
                        "saddle-node bottleneck and reports converged tau > 0"))
        return ops

    def check(self, op, res):
        name = op.name
        if name.startswith("extinction "):
            want = extinction_root(self._law(op.spec))
            return None if _close(res, want, 1e-9) else "q %r, pgf root %r" % (res, want)
        if name == "mc extinction bin9":
            want = extinction_root(gw.Binomial(9, 0.6))
            ok = abs(res["frequency"] - want) <= 5.0 * res["se"] + 1e-12
            return None if ok else "mc frequency %r vs q %r (se %r)" % (res["frequency"], want, res["se"])
        if name.startswith("closed-form") or name == "near-critical iterate":
            tau = 1.0 - res if "bisect" in name else res["tau"]
            if "bisect" not in name and not res["converged"]:
                return "not converged"
            want = pair_tau(op.spec)
            return None if _close(tau, want, 1e-8) else "tau %r, closed form %r" % (tau, want)
        if name.startswith(("enum12", "enum16")):
            probs, gens = ([ENUM_P_12] * 12, ENUM_GENERATORS_12) if "12" in name \
                else ([ENUM_P_16] * 16, ENUM_GENERATORS_16)
            if name == "enum12 iterate":
                res, gf = res
                for s in (0.0, 0.25, 0.5, res["s0"]):
                    own = enum_g(probs, gens, s)
                    if not _close(gf.eval(s)[0], own, 1e-12):
                        return "g(%r) = %r, subset sum %r" % (s, gf.eval(s)[0], own)
            s0 = res["s0"] if isinstance(res, dict) else res
            want = enum_fixed_point(probs, gens)
            return None if _close(s0, want, 1e-8) else "s0 %r, subset-sum fixed point %r" % (s0, want)
        if name == "enum20 iterate and bisect":
            res, s0_bisect = res
            its = res["iterates"]
            ok = res["converged"] and all(b >= a - 1e-15 for a, b in zip(its, its[1:])) \
                and _close(res["s0"], s0_bisect, 1e-8)
            return None if ok else "enum20: iterate s0 %r, bisect s0 %r" % (res["s0"], s0_bisect)
        if name == "mc bisect":
            # delta method: the sampling error of g, over 1 - g' at the fixed point
            probs = [0.6] * 9
            want = enum_fixed_point(probs, MC_GENERATORS_9)
            h = 1e-4
            slope = (enum_g(probs, MC_GENERATORS_9, want + h)
                     - enum_g(probs, MC_GENERATORS_9, want - h)) / (2 * h)
            se = math.sqrt(want * (1.0 - want) / MC_SAMPLES) / (1.0 - slope)
            return None if abs(res - want) <= 6.0 * se else \
                "mc s0 %r, exact %r, %.1f standard errors apart" % (res, want, abs(res - want) / se)
        if name.startswith("g_k_a curve"):
            c = op.spec
            vals = [r["value"] for r in res]
            want1 = sum(math.comb(9, j) * 0.3 ** j * 0.7 ** (9 - j) for j in range(c))
            if not _close(vals[0], want1, 1e-12):
                return "g_1 %r, binomial sum %r" % (vals[0], want1)
            if c == 2:
                ok = all(b < a for a, b in zip(vals, vals[1:])) and vals[-1] < 0.05
            else:
                ok = vals[-1] > 0.95
            return None if ok else "g_k curve for c=%d off: %r" % (c, vals)
        if name == "appendix B gap":
            alpha = pair_tau(0.9)
            want = {"alpha": alpha, "q": 1.0 - alpha, "g_of_q": 1.0 - (alpha + 0.01) * alpha ** 2}
            want["gap"] = want["g_of_q"] - want["q"]
            for key, v in want.items():
                if not _close(res[key], v, 1e-10):
                    return "%s %r, closed form %r" % (key, res[key], v)
            return None
        return "unknown op %s" % name


WORKLOADS = {w.name: w for w in (BlockExtract, SectionExtract, Verify, Solve)}
