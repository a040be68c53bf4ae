"""Suite orchestration: build everything for one algebra, check, report.

Every check is exact: a pass means the stated identity or rank condition
holds in rational arithmetic at every tested input, a fail carries a
witness.  Sampling-based existence searches that find nothing report
"inconclusive", never "fail".  Reports are deterministic functions of the
configuration: all sampling is driven by per-check seeded generators and the
serialized form contains no timing or environment data, so two runs with an
identical configuration produce identical bytes.

What several checks of one pass read is computed once per pass and held
by that pass alone (SuiteRun): one sample of Hess with one
symplectic.HessVisit per point, and the compiled shift of the invariants
along f.  Checks 12 to 15, omega_well_defined and polarization's random
base read prefixes of that sample through its visits: check 12 strong
regularity and regularity, check 13 the Hamiltonian frame and the commuting
of the underived gradients with x, check 14 the slice's dimension and
isotropy, check 15 transversality, so only check 13's isotropy is computed
here; the visit alone chooses between its pairing certificate and
elimination.  Check 16 reads the slice of a HessVisit of its own base,
which evaluates no gradient.

Points are drawn as canonical cleared vectors (rational.draw) and stay so
to the verdict, and witnesses are formatted on integers (_vec_str).  Hess
points come from sample_points, the orbit slices of checks 16 and
polarization from hessenberg.slice_sample.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, asdict, field
from functools import cached_property

from . import linalg
from .rational import cleared, combine, draw, ratio_str
from .rootdata import (CartanMatrix, UnsupportedType,
                       build_root_system, cartan_matrix_for_label,
                       dual_partition, SUPPORTED_LABELS, FLAGGED_LABELS)
from .liealgebra import (chevalley_algebra, principal_triple, principal_decomposition,
                         is_regular, signature_hash, validate_algebra, cartan_from_root_values)
from .polyring import CompiledPolys, GradientContext, coefficient_rows
from . import invariants as invmod
from .invariants import invariant_generators, trace_oracle_type_A
from .argshift import (choose_regular_y, shift_family, shifted_invariants,
                       pairwise_commute, phi, gradient_span,
                       zeta_chain, mv_membership, load_family_cache, save_family_cache)
from .hessenberg import (build_chart, hess_section, point_in_hess, poincare_series,
                         restrict_to_hess, slice_sample)
from .symplectic import HessVisit, omega, isotropy_witness, slice_polarization


class RegionExhausted(Exception):
    """Sampling did not produce a point satisfying a region predicate."""


SCHEMA = "report_v4"
GENERATOR_ORDER_RULE = "degree-major, source-invariant ascending within a degree"
SIGN_RULE = "extraspecial pairs positive, positive roots ordered by height then coordinates"


# How many points each sampled check visits and how large the sampled
# coefficients are; check 11 expands its series to twice the Coxeter number.
# Checks 12 to 15 read prefixes of one sample of the largest of their counts.
HESS_POINTS = 20            # checks 12 and 13
LAGRANGIAN_POINTS = 10      # check 14
TRANSVERSALITY_POINTS = 10  # check 15
REGULAR_POINTS = 10         # check 4
ROUNDTRIP_POINTS = 20       # check 10, two round trips each
SLICE_POINTS = 5            # check 16 and each slice of polarization
MEMBERSHIP_SAMPLES = 8      # family.membership_samples, per direction
COEFF_BOUND = 5


@dataclass
class SuiteConfig:
    algebra: str = "A2"
    seed: int = 42
    determinism_trials: int = 1
    enable_g2: bool = False
    cache_dir: str | None = None

    def validate(self) -> None:
        if self.determinism_trials < 1:
            raise ValueError("determinism trials must be >= 1")


@dataclass
class CheckRecord:
    check_id: str
    claim: str
    status: str                 # pass | fail | inconclusive | skipped
    criterion: int | None = None
    witness: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"id": self.check_id, "claim": self.claim, "status": self.status,
                "criterion": self.criterion, "witness": self.witness}


@dataclass
class VerificationReport:
    config: SuiteConfig
    convention: dict
    checks: list

    @property
    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "inconclusive": 0, "skipped": 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    @property
    def failed(self) -> bool:
        return self.counts["fail"] > 0

    def as_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "config": asdict(self.config),
            "convention": self.convention,
            "summary": self.counts,
            "checks": [c.as_dict() for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    def to_text(self) -> str:
        lines = [f"algebra {self.config.algebra}  seed {self.config.seed}"]
        lines.append(f"convention {self.convention['hash']}")
        for c in self.checks:
            crit = f" [criterion {c.criterion}]" if c.criterion else ""
            lines.append(f"{c.status.upper():12s} {c.check_id}{crit}: {c.claim}")
        counts = self.counts
        lines.append("summary: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
        return "\n".join(lines)


# -- context -----------------------------------------------------------------


@dataclass
class SuiteContext:
    label: str
    rs: object
    L: object
    ctx: GradientContext
    triple: object
    inv: object
    y: tuple
    family: object
    chart: object


def resolve_cartan(config: SuiteConfig) -> tuple:
    """Label or inline JSON matrix -> (label, CartanMatrix)."""
    spec = config.algebra.strip()
    if spec.startswith("["):
        try:
            return "custom", CartanMatrix.from_rows(json.loads(spec))
        except (ValueError, TypeError) as exc:  # bad JSON, entries or shape
            raise UnsupportedType(f"invalid inline Cartan matrix: {exc}") from exc
    parts = spec.split("x")
    for part in parts:
        if part in FLAGGED_LABELS and not config.enable_g2:
            raise UnsupportedType(
                f"type {part} is behind the g2 feature flag; rerun with it enabled")
        if part not in SUPPORTED_LABELS and part not in FLAGGED_LABELS:
            raise UnsupportedType(f"unsupported algebra label {part!r}")
    return spec, CartanMatrix.from_rows(cartan_matrix_for_label(spec))


def build_context(config: SuiteConfig) -> SuiteContext:
    """Build every object the checks need, stage by stage.

    An exception raised on the way carries the name of the stage that raised
    it as its build_stage attribute: resolve, roots, algebra, invariants,
    family or chart.
    """
    stage = "resolve"
    try:
        label, cm = resolve_cartan(config)
        stage = "roots"
        rs = build_root_system(cm)
        stage = "algebra"
        L = chevalley_algebra(rs)
        ctx = GradientContext(L)
        triple = principal_triple(L)
        stage = "invariants"
        inv = None
        if config.cache_dir:
            inv = invmod.load_family(config.cache_dir, label, L)
        if inv is None:
            inv = invariant_generators(L)
            if config.cache_dir:
                invmod.save_family(config.cache_dir, label, L, inv)
        stage = "family"
        y = choose_regular_y(L, config.seed)
        family = None
        if config.cache_dir:
            family = load_family_cache(config.cache_dir, label, config.seed, L, ctx, triple)
            if family is not None and family.y != y:
                family = None
        if family is None:
            family = shift_family(L, inv, y, ctx, triple)
            if config.cache_dir:
                save_family_cache(config.cache_dir, label, config.seed, family)
        stage = "chart"
        chart = build_chart(family)
    except Exception as exc:
        exc.build_stage = stage
        raise
    return SuiteContext(label=label, rs=rs, L=L, ctx=ctx, triple=triple,
                        inv=inv, y=y, family=family, chart=chart)


# -- sampling ----------------------------------------------------------------


def sample_points(sc: SuiteContext, seed: int, count: int) -> list:
    """Deterministic cleared points of Hess, each re-verified to lie on the
    slice plane."""
    rng = random.Random(f"{seed}:sample:hess")
    out = []
    for _ in range(count):
        v = sc.chart.point_from_cleared(*draw(rng, sc.family.b, COEFF_BOUND, 3))
        if not point_in_hess(sc.L, sc.triple, v):
            raise RegionExhausted("the chart produced a point off the slice")
        out.append(v)
    return out


def _sample_regular(sc: SuiteContext, seed: int, count: int, bound: int,
                    max_tries: int = 2000) -> list:
    rng = random.Random(f"{seed}:sample:regular")
    out = []
    tries = 0
    while len(out) < count:
        tries += 1
        if tries > max_tries:
            raise RegionExhausted("no regular point found within the retry bound")
        x = draw(rng, sc.L.dim, bound, 3)
        if is_regular(sc.L, x):
            out.append(x)
    return out


class SuiteRun:
    """What one suite pass shares between checks, each built when first read:
    its one sample of Hess with one HessVisit per point, of which checks 12
    to 15, omega_well_defined and polarization read prefixes, and the shift
    of the invariants along f, compiled, that checks 8 and membership read.
    A run belongs to one _suite_payload pass, never to the context, family
    or chart."""

    def __init__(self, sc: SuiteContext, config: SuiteConfig):
        self.sc, self.config = sc, config
        self._visits = {}

    @cached_property
    def hess_points(self) -> list:
        count = max(HESS_POINTS, LAGRANGIAN_POINTS, TRANSVERSALITY_POINTS)
        return sample_points(self.sc, self.config.seed, count)

    def hess_visit(self, i: int) -> HessVisit:
        if i not in self._visits:
            self._visits[i] = HessVisit(self.sc.family, self.hess_points[i])
        return self._visits[i]

    @cached_property
    def along_f(self) -> CompiledPolys:
        return CompiledPolys(p for _, _, p in shifted_invariants(self.sc.inv, self.sc.triple.f))


def _vec_str(v) -> list:
    nums, den = v
    return [ratio_str(c, den) for c in nums]


# -- individual checks -------------------------------------------------------


def _record(check_id, claim, criterion=None, reads_run=False):
    """Name a check.  A check with reads_run takes the pass's SuiteRun as a
    third argument."""
    def wrap(fn):
        fn.check_id = check_id
        fn.claim = claim
        fn.criterion = criterion
        fn.reads_run = reads_run
        return fn
    return wrap


@_record("roots.degree_partition_duality",
         "invariant degrees sum to b and are dual to the layer dimensions", 1)
def check_degree_duality(sc: SuiteContext, config: SuiteConfig) -> dict:
    rs = sc.rs
    b = rs.rank + rs.num_positive
    ok = sum(rs.degrees) == b
    ok = ok and sum(rs.layer_dims) == b
    ok = ok and tuple(dual_partition(rs.degrees)) == tuple(rs.layer_dims)
    ok = ok and tuple(sorted(dual_partition(rs.layer_dims))) == tuple(rs.degrees)
    ok = ok and list(rs.degrees) == sorted(rs.degrees)
    ok = ok and list(rs.layer_dims) == sorted(rs.layer_dims, reverse=True)
    ok = ok and rs.coxeter_number == max(rs.degrees) == 1 + max(rs.heights)
    return {"ok": ok, "witness": {"degrees": list(rs.degrees),
                                  "layers": list(rs.layer_dims), "b": b}}


@_record("algebra.jacobi_and_killing",
         "bracket satisfies antisymmetry and Jacobi on all basis triples; "
         "the trace form is invariant and nondegenerate", 2)
def check_algebra_soundness(sc: SuiteContext, config: SuiteConfig) -> dict:
    errs = validate_algebra(sc.L)
    return {"ok": not errs,
            "witness": {"dim": sc.L.dim, "violations": errs[:3]}}


@_record("algebra.principal_decomposition",
         "the algebra splits into rank-many irreducible modules of dimensions "
         "2m+1 whose lowering chains give a basis of the lower Borel", 3)
def check_principal_decomposition(sc: SuiteContext, config: SuiteConfig) -> dict:
    """principal_decomposition builds each module from 2m + 1 vectors and
    raises unless the chains span the lower Borel, so what is left to
    compare is its exponents with the root data's."""
    dec = principal_decomposition(sc.L, sc.triple)
    return {"ok": tuple(sorted(dec.exponents)) == sc.rs.exponents,
            "witness": {"module_dims": [len(m) for m in dec.modules],
                        "exponents": list(dec.exponents)}}


@_record("invariants.gradient_rank_criterion",
         "invariant gradients have rank equal to the rank of the algebra exactly "
         "at regular points, drop rank at singular points, and centralize the "
         "centralizer of the point", 4)
def check_gradient_rank(sc: SuiteContext, config: SuiteConfig) -> dict:
    L, ctx, inv = sc.L, sc.ctx, sc.inv
    pts = _sample_regular(sc, config.seed, REGULAR_POINTS, COEFF_BOUND)
    bad = None
    for x in pts:
        grads, den = inv.compiled.int_gradients(ctx, x)
        if linalg.rank(grads) != L.rank:
            bad = {"kind": "rank at regular point", "point": _vec_str(x)}
            break
        # x is regular, so z(x) has dimension rank, and the rank independent
        # gradients span it once each commutes with x.  As x lies in z(x), the
        # gradients centralize z(x) exactly when each commutes with x and with
        # every other gradient.  Each bracket is tested on its numerators.
        vecs = [(g, den) for g in grads]
        if any(any(L.int_bracket(a, g)[0]) for i, g in enumerate(vecs) for a in [x] + vecs[:i]):
            bad = {"kind": "gradient outside the centralizer center", "point": _vec_str(x)}
            break
    singular = [cleared(L.zero())]
    if L.rank >= 2:
        # a simple root vector, the highest root vector, and a Cartan element
        # on a root hyperplane are all singular in rank >= 2
        candidates = [cleared(L.basis_vector(L.pos_indices[0])),
                      cleared(L.basis_vector(L.pos_indices[-1])),
                      cartan_from_root_values(L, [0] + [1] * (L.rank - 1))]
        singular += [c for c in candidates if not is_regular(L, c)]
    singular_ranks = []
    if bad is None:
        for x in singular:
            r = linalg.rank(inv.compiled.int_gradients(ctx, x)[0])
            singular_ranks.append(r)
            if r >= L.rank:
                bad = {"kind": "full rank at a singular point", "point": _vec_str(x)}
                break
    return {"ok": bad is None,
            "witness": bad or {"regular_points": len(pts),
                               "singular_ranks": singular_ranks}}


@_record("invariants.shifted_gradient_span",
         "invariant gradients along the line through w in the f direction span "
         "the lower Borel once the number of line points reaches the Coxeter "
         "number, and a proper subspace for a single point", 5)
def check_shifted_gradient_span(sc: SuiteContext, config: SuiteConfig) -> dict:
    L = sc.L
    line = [combine(sc.triple.w, sc.triple.f, t) for t in range(sc.rs.coxeter_number)]
    dim_full, rows = gradient_span(sc.ctx, sc.inv.compiled, line)
    bminus = [L.basis_vector(i) for i in L.bminus_indices]
    ok = dim_full == sc.family.b and linalg.same_span(rows, bminus)
    dim_single, _ = gradient_span(sc.ctx, sc.inv.compiled, line[:1])
    ok = ok and dim_single == L.rank and dim_single < sc.family.b
    return {"ok": ok, "witness": {"span_dim": dim_full, "single_t_dim": dim_single}}


@_record("family.pairwise_commutativity",
         "all pairwise Poisson brackets of the ordered generators vanish "
         "identically as polynomials", 6)
def check_commutativity(sc: SuiteContext, config: SuiteConfig) -> dict:
    ok, data = pairwise_commute(sc.family)
    if ok:
        return {"ok": True, "witness": {"pairs": data}}
    i, j, br = data
    return {"ok": False, "witness": {"pair": [i + 1, j + 1],
                                     "bracket_terms": len(br.nums)}}


@_record("family.nilpotent_span_and_chain",
         "the family's gradient span at the nilpositive element (and its "
         "normalization) is the full upper Borel dimension, and the chain map "
         "relations between expansion coefficients hold exactly", 7)
def check_span_and_chain(sc: SuiteContext, config: SuiteConfig) -> dict:
    de, de1 = (linalg.rank(sc.family.gradient_rows(x)[0]) for x in (sc.triple.e, sc.triple.e1))
    ok = de == sc.family.b and de1 == sc.family.b
    witness = {"dim_at_e": de, "dim_at_e1": de1}
    try:
        zeta_chain(sc.family)
        witness["chain"] = "verified"
    except Exception as exc:
        ok = False
        witness["chain_error"] = str(exc)
    return {"ok": ok, "witness": witness}


@_record("family.principal_shift_span",
         "shifting along the principal nilpotent f and taking gradients at w "
         "spans exactly the lower Borel", 8, reads_run=True)
def check_principal_shift_span(sc: SuiteContext, config: SuiteConfig, run: SuiteRun) -> dict:
    L = sc.L
    dim, rows = gradient_span(sc.ctx, run.along_f, [sc.triple.w])
    bminus = [L.basis_vector(i) for i in L.bminus_indices]
    ok = dim == sc.family.b and linalg.same_span(rows, bminus)
    return {"ok": ok, "witness": {"dim": dim}}


@_record("family.graded_dimensions",
         "the shifted family is a basis of a b-dimensional space whose graded "
         "dimensions equal the layer dimensions", 9)
def check_graded_dimensions(sc: SuiteContext, config: SuiteConfig) -> dict:
    dims = sc.family.graded_dims()
    expected = {m + 1: r for m, r in enumerate(sc.rs.layer_dims)}
    total = sum(dims.values())
    ok = dims == expected and total == sc.family.b
    return {"ok": ok, "witness": {"graded": {str(k): v for k, v in dims.items()},
                                  "total": total}}


@_record("chart.unitriangular_and_section",
         "restricted generators are unitriangular in the dual gradient frame "
         "and the value map on the slice inverts exactly in both directions", 10)
def check_chart_section(sc: SuiteContext, config: SuiteConfig) -> dict:
    chart = sc.chart
    F = sc.family
    rng = random.Random(f"{config.seed}:roundtrip")
    e1, bad = sc.triple.e1, None
    for _ in range(ROUNDTRIP_POINTS):
        svals = draw(rng, F.b, COEFF_BOUND, 3)
        v = chart.point_from_cleared(*svals)
        if hess_section(chart, phi(F, v)) != v:
            bad = {"kind": "section after values", "s": _vec_str(svals)}
            break
        cvals = draw(rng, F.b, COEFF_BOUND, 3)
        w = hess_section(chart, cvals)
        if phi(F, w) != cvals or not point_in_hess(sc.L, sc.triple, w):
            bad = {"kind": "values after section", "c": _vec_str(cvals)}
            break
    if bad is None and hess_section(chart, phi(F, e1)) != e1:
        bad = {"kind": "base point is not fixed"}
    return {"ok": bad is None,
            "witness": bad or {"round_trips": 2 * ROUNDTRIP_POINTS}}


@_record("chart.poincare_series",
         "the degree-wise and layer-wise product forms of the graded series "
         "agree coefficientwise to the truncation order", 11)
def check_poincare(sc: SuiteContext, config: SuiteConfig) -> dict:
    order = 2 * sc.rs.coxeter_number
    try:
        ser = poincare_series(sc.rs, order)
    except ValueError as exc:
        return {"ok": False, "witness": {"error": str(exc)}}
    ok = ser[0] == 1 and ser[1] == sc.rs.rank
    return {"ok": ok, "witness": {"order": order,
                                  "head": [str(c) for c in ser[:5]]}}


@_record("hess.strong_regularity",
         "random points of the affine slice are strongly regular (independent "
         "generator gradients), hence regular", 12, reads_run=True)
def check_strong_regularity(sc: SuiteContext, config: SuiteConfig, run: SuiteRun) -> dict:
    for visit in map(run.hess_visit, range(HESS_POINTS)):
        if not visit.strongly_regular:
            return {"ok": False, "witness": {"point": _vec_str(visit.x)}}
        if not visit.regular:
            return {"ok": False,
                    "witness": {"point": _vec_str(visit.x), "kind": "not regular"}}
    return {"ok": True, "witness": {"points": HESS_POINTS}}


@_record("symplectic.hamiltonian_frame",
         "at sampled slice points the Hamiltonian vectors of the derived "
         "generators span an isotropic space of dimension n while the "
         "underived generators have vanishing Hamiltonian vectors", 13, reads_run=True)
def check_hamiltonian_frame(sc: SuiteContext, config: SuiteConfig, run: SuiteRun) -> dict:
    for visit in map(run.hess_visit, range(HESS_POINTS)):
        wit = isotropy_witness(sc.L, visit.frame)
        if wit is not None:
            return {"ok": False, "witness": {"point": _vec_str(visit.x),
                                             "pair": [wit[0], wit[1]],
                                             "value": ratio_str(*wit[2])}}
        if not visit.casimirs_commute:
            return {"ok": False,
                    "witness": {"point": _vec_str(visit.x),
                                "kind": "invariant with nonzero Hamiltonian vector"}}
    return {"ok": True, "witness": {"points": HESS_POINTS, "frame_dim": sc.L.n}}


@_record("symplectic.slice_lagrangian",
         "at sampled slice points the lower-nilradical tangents have dimension "
         "n and the orbit form vanishes on them", 14, reads_run=True)
def check_slice_lagrangian(sc: SuiteContext, config: SuiteConfig, run: SuiteRun) -> dict:
    for visit in map(run.hess_visit, range(LAGRANGIAN_POINTS)):
        if not (visit.slice_dim == sc.L.n and visit.slice_isotropic):
            return {"ok": False, "witness": {"point": _vec_str(visit.x)}}
    return {"ok": True, "witness": {"points": LAGRANGIAN_POINTS}}


@_record("symplectic.transversality",
         "at sampled slice points the Hamiltonian frame and the slice tangents "
         "decompose the orbit tangent space and pair nonsingularly", 15, reads_run=True)
def check_transversality(sc: SuiteContext, config: SuiteConfig, run: SuiteRun) -> dict:
    for visit in map(run.hess_visit, range(TRANSVERSALITY_POINTS)):
        res = visit.transversality
        if not res.passed:
            return {"ok": False,
                    "witness": {"point": _vec_str(visit.x),
                                "dims": [res.zx_dim, res.slice_dim, res.combined_dim,
                                         res.orbit_dim],
                                "det": ratio_str(*res.pairing_det),
                                "jacobian_rank": res.jacobian_rank}}
    return {"ok": True, "witness": {"points": TRANSVERSALITY_POINTS}}


@_record("hess.slice_infinitesimal",
         "slice points have trivial isotropy in the lower nilradical and the "
         "exponential orbit stays in the slice with unchanged invariant values", 16)
def check_slice_infinitesimal(sc: SuiteContext, config: SuiteConfig) -> dict:
    L = sc.L
    [base] = sample_points(sc, config.seed + 3, 1)
    values = sc.inv.compiled.values(base)
    rng = random.Random(f"{config.seed + 4}:sample:slice")
    pts = [base] + slice_sample(L, base, SLICE_POINTS, rng)
    for k, v in enumerate(pts):
        if HessVisit(sc.family, v).slice.dim != L.n:
            return {"ok": False, "witness": {"point": _vec_str(v),
                                             "kind": "nontrivial isotropy"}}
        if not point_in_hess(L, sc.triple, v):
            return {"ok": False, "witness": {"point": _vec_str(v),
                                             "kind": "left the slice plane"}}
        if k and sc.inv.compiled.values(v) != values:
            return {"ok": False, "witness": {"point": _vec_str(v),
                                             "kind": "invariant values changed"}}
    return {"ok": True, "witness": {"points": len(pts),
                                    "values": _vec_str(values)}}


@_record("invariants.trace_oracle_agreement",
         "for type A the solved generators and the matrix trace powers span the "
         "same spaces modulo products of lower generators")
def check_trace_oracle(sc: SuiteContext, config: SuiteConfig) -> dict:
    if not invmod._is_type_a(sc.rs):
        return {"ok": None, "witness": {"note": "matrix oracle applies to type A only"}}
    oracle = trace_oracle_type_A(sc.L)
    fam = sc.inv
    for d in sorted(set(fam.degrees)):
        monos = invmod.zero_weight_exponents(sc.L, d)
        dec = invmod.decomposable_products(fam.polys, fam.degrees, d)
        sol = [p for p, dd in zip(fam.polys, fam.degrees) if dd == d]
        orc = [p for p, dd in zip(oracle.polys, oracle.degrees) if dd == d]
        if not linalg.same_span(coefficient_rows(dec + sol, monos),
                                coefficient_rows(dec + orc, monos)):
            return {"ok": False, "witness": {"degree": d}}
    return {"ok": True, "witness": {"degrees": list(fam.degrees)}}


@_record("family.membership_samples",
         "sampled certification of maximal gradient span: the principal "
         "nilpotent and the chosen Cartan direction certify, scaling preserves "
         "certification, and the zero direction never certifies", reads_run=True)
def check_membership(sc: SuiteContext, config: SuiteConfig, run: SuiteRun) -> dict:
    def member(members):
        return mv_membership(sc.ctx, sc.triple, members, MEMBERSHIP_SAMPLES,
                             config.seed, COEFF_BOUND)

    def shifted(u):
        return CompiledPolys(p for _, _, p in shifted_invariants(sc.inv, u))

    ok_f, wit_f = member(run.along_f)
    fn, fd = sc.triple.f
    ok_2f, _ = member(shifted((tuple(2 * c for c in fn), fd)))
    ok_y, _ = member(sc.family.compiled)   # the family is the shift along y
    ok_0, _ = member(shifted(cleared(sc.L.zero())))
    if not (ok_f and ok_2f and ok_y):
        # a miss is inconclusive, not a refutation
        return {"ok": None, "witness": {"f": ok_f, "2f": ok_2f, "y": ok_y}}
    if ok_0:
        return {"ok": False, "witness": {"kind": "zero direction certified"}}
    return {"ok": True, "witness": {"f_witness": _vec_str(wit_f)}}


@_record("symplectic.omega_well_defined",
         "the orbit form evaluated on bracket preimages is unchanged when a "
         "preimage is shifted by a centralizer element", reads_run=True)
def check_omega_well_defined(sc: SuiteContext, config: SuiteConfig, run: SuiteRun) -> dict:
    L = sc.L
    rng = random.Random(f"{config.seed}:omega")
    pts = [run.hess_visit(i).x for i in range(3)]
    for x in pts:
        cent, kden = linalg.sparse_kernel([dict(enumerate(r)) for r in L.int_ad(x)[0]], L.dim)
        z1, z2 = draw(rng, L.dim, 3, 3), draw(rng, L.dim, 3, 3)
        base = omega(L, x, z1, z2)
        for k in cent:
            if omega(L, x, combine(z1, (k, kden)), z2) != base:
                return {"ok": False, "witness": {"point": _vec_str(x)}}
        if omega(L, x, z1, z1)[0]:
            return {"ok": False, "witness": {"kind": "form not alternating"}}
    return {"ok": True, "witness": {"points": len(pts)}}


@_record("hess.leading_term_frame",
         "the gradient frame at the base point matches the first-order "
         "expansion of each restricted generator in the lower Borel directions")
def check_leading_term(sc: SuiteContext, config: SuiteConfig) -> dict:
    L = sc.L
    # independent route: the linear terms of each member restricted to Hess
    # in the Chevalley frame are its first derivatives at e1 along that frame
    restricted = restrict_to_hess(L, sc.triple, sc.family.qs)
    units = [tuple(int(h == g) for h in range(sc.family.b)) for g in range(sc.family.b)]
    zrows, zd = sc.chart.zvecs   # (z, e_i) is sum_j K[i][j] z_j / zd
    for entry, zn, rp in zip(sc.family.entries, zrows, restricted):
        for unit, i in zip(units, L.bminus_indices):
            if rp.nums.get(unit, 0) * zd != rp.den * sum(k * zn[j] for j, k in L.int_killing[i]):
                return {"ok": False,
                        "witness": {"position": entry.beta, "direction": L.labels[i]}}
    return {"ok": True, "witness": {"positions": sc.family.b}}


@_record("symplectic.polarization",
         "over sampled orbit slices every point is strongly regular with "
         "Lagrangian Hamiltonian frame, Lagrangian slice tangents, and "
         "transversal pairing on a full 2n-dimensional orbit", reads_run=True)
def check_polarization(sc: SuiteContext, config: SuiteConfig, run: SuiteRun) -> dict:
    total = 0
    for base in (HessVisit(sc.family, sc.triple.e1), run.hess_visit(0)):
        verdicts = slice_polarization(sc.chart, sc.inv, base, SLICE_POINTS, config.seed)
        total += len(verdicts)
        if not all(verdicts):
            return {"ok": False,
                    "witness": {"base": _vec_str(base.x), "index": verdicts.index(False)}}
    return {"ok": True, "witness": {"points": total}}


ALL_CHECKS = [
    check_degree_duality,
    check_algebra_soundness,
    check_principal_decomposition,
    check_gradient_rank,
    check_trace_oracle,
    check_shifted_gradient_span,
    check_commutativity,
    check_span_and_chain,
    check_principal_shift_span,
    check_graded_dimensions,
    check_membership,
    check_chart_section,
    check_leading_term,
    check_poincare,
    check_strong_regularity,
    check_hamiltonian_frame,
    check_slice_lagrangian,
    check_transversality,
    check_slice_infinitesimal,
    check_omega_well_defined,
    check_polarization,
]

DETERMINISM_CLAIM = ("rebuilding and rerunning the whole suite from the same "
                     "configuration yields byte-identical serialized checks")


def _convention(sc: SuiteContext, config: SuiteConfig) -> dict:
    import hashlib
    base, y = signature_hash(sc.L), _vec_str(sc.y)
    blob = "|".join([base, ",".join(y), GENERATOR_ORDER_RULE])
    return {
        "hash": hashlib.sha256(blob.encode()).hexdigest()[:16],
        "structure_constants": SIGN_RULE,
        "structure_constant_hash": base,
        "shift_direction": y,
        "generator_order": GENERATOR_ORDER_RULE,
    }


def _suite_payload(config: SuiteConfig) -> tuple:
    """(convention dict, list of CheckRecord) for one full pass."""
    try:
        sc = build_context(config)
    except Exception as exc:  # any build failure is a failed record, never a traceback
        records = [CheckRecord(check_id="build.algebra",
                               claim="the configured algebra builds",
                               status="fail", criterion=None,
                               witness={"error": f"{type(exc).__name__}: {exc}",
                                        "stage": exc.build_stage})]
        for fn in ALL_CHECKS:
            records.append(CheckRecord(check_id=fn.check_id, claim=fn.claim,
                                       status="skipped", criterion=fn.criterion,
                                       witness={"reason": "algebra build failed"}))
        return {"hash": "unavailable"}, records
    records = []
    run = SuiteRun(sc, config)
    for fn in ALL_CHECKS:
        try:
            out = fn(sc, config, run) if fn.reads_run else fn(sc, config)
            if out["ok"] is None:
                status = "inconclusive" if "note" not in out["witness"] else "skipped"
            else:
                status = "pass" if out["ok"] else "fail"
            records.append(CheckRecord(check_id=fn.check_id, claim=fn.claim,
                                       status=status, criterion=fn.criterion,
                                       witness=out["witness"]))
        except Exception as exc:  # propagate as a failed check, never abort
            records.append(CheckRecord(check_id=fn.check_id, claim=fn.claim,
                                       status="fail", criterion=fn.criterion,
                                       witness={"error": f"{type(exc).__name__}: {exc}"}))
    return _convention(sc, config), records


def run_suite(config: SuiteConfig) -> VerificationReport:
    """All checks in dependency order; deterministic for a fixed config."""
    config.validate()
    convention, records = _suite_payload(config)

    def blob(recs):
        return json.dumps([r.as_dict() for r in recs], sort_keys=True,
                          separators=(",", ":"))

    if config.determinism_trials >= 2:
        first = blob(records)
        identical = True
        for _ in range(config.determinism_trials - 1):
            _, again = _suite_payload(config)
            if blob(again) != first:
                identical = False
                break
        records.append(CheckRecord(
            check_id="suite.determinism", claim=DETERMINISM_CLAIM,
            status="pass" if identical else "fail", criterion=17,
            witness={"trials": config.determinism_trials}))
    else:
        records.append(CheckRecord(
            check_id="suite.determinism", claim=DETERMINISM_CLAIM,
            status="skipped", criterion=17,
            witness={"reason": "single trial configured"}))
    return VerificationReport(config=config, convention=convention, checks=records)
