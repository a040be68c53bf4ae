"""Suite orchestration: build everything for one algebra, check, report.

Every check is exact: a pass means the stated identity or rank condition
holds in rational arithmetic at every tested input, a fail carries a
witness.  Sampling-based existence searches that find nothing report
"inconclusive", never "fail".  Reports are deterministic functions of the
configuration: all sampling is driven by per-check seeded generators and the
serialized form contains no timing or environment data, so two runs with an
identical configuration produce identical bytes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, asdict, field

from . import linalg
from .rational import R0, R1, rat, to_rat, rat_str
from .rootdata import (CartanMatrix, NonFiniteType, UnsupportedType,
                       build_root_system, cartan_matrix_for_label,
                       dual_partition, SUPPORTED_LABELS, FLAGGED_LABELS)
from .liealgebra import (chevalley_algebra, principal_triple, principal_decomposition,
                         is_regular, signature_hash, validate_algebra)
from .polyring import GradientContext, coefficient_rows, gradient
from . import invariants as invmod
from .invariants import invariant_generators, trace_oracle_type_A
from .argshift import (choose_regular_y, shift_family, shifted_invariants,
                       pairwise_commute, phi, is_strongly_regular, gradient_span,
                       zeta_chain, mv_membership, cartan_from_root_values,
                       load_family_cache, save_family_cache)
from .hessenberg import (build_chart, hess_section, orbit_slice, slice_membership,
                         point_in_hess, poincare_series, slice_sample,
                         slice_tangent_dim, slice_isotropy_dim)
from .symplectic import (omega, zx_frame, isotropy_witness, hess_lagrangian_check,
                         transversality_check, polarization_report, orbit_frame)


class RegionExhausted(Exception):
    """Sampling did not produce a point satisfying a region predicate."""


SCHEMA = "report_v2"
GENERATOR_ORDER_RULE = "degree-major, source-invariant ascending within a degree"
SIGN_RULE = "extraspecial pairs positive, positive roots ordered by height then coordinates"


@dataclass
class SuiteConfig:
    algebra: str = "A2"
    seed: int = 42
    hess_points: int = 20
    lagrangian_points: int = 10
    transversality_points: int = 10
    regular_points: int = 10
    roundtrip_points: int = 20
    slice_points: int = 5
    membership_samples: int = 8
    determinism_trials: int = 1
    coeff_bound: int = 5
    series_order: int = 0          # 0 means twice the Coxeter number
    enable_g2: bool = False
    output_format: str = "text"    # "text" | "json"
    cache_dir: str | None = None

    def validate(self) -> None:
        counts = (self.hess_points, self.lagrangian_points, self.transversality_points,
                  self.regular_points, self.roundtrip_points, self.slice_points,
                  self.membership_samples, self.determinism_trials)
        if any(c < 1 for c in counts):
            raise ValueError("sample counts must be >= 1")
        if self.coeff_bound < 1:
            raise ValueError("coefficient bound must be >= 1")
        if self.series_order < 0:
            raise ValueError("series order must be >= 0")
        if self.output_format not in ("text", "json"):
            raise ValueError("output format must be text or json")


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
    y: list
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
    label, cm = resolve_cartan(config)
    rs = build_root_system(cm)
    L = chevalley_algebra(rs)
    ctx = GradientContext(L)
    triple = principal_triple(L)
    inv = None
    if config.cache_dir:
        inv = invmod.load_family(config.cache_dir, label, L)
    if inv is None:
        inv = invariant_generators(L, rs, ctx)
        if config.cache_dir:
            invmod.save_family(config.cache_dir, label, L, inv)
    y = choose_regular_y(L, rs, config.seed, bound=config.coeff_bound)
    family = None
    if config.cache_dir:
        family = load_family_cache(config.cache_dir, label, config.seed, L, ctx, triple)
        if family is not None and family.y != y:
            family = None
    if family is None:
        family = shift_family(L, inv, y, ctx, triple)
        if config.cache_dir:
            save_family_cache(config.cache_dir, label, config.seed, family)
    chart = build_chart(family)
    return SuiteContext(label=label, rs=rs, L=L, ctx=ctx, triple=triple,
                        inv=inv, y=y, family=family, chart=chart)


# -- sampling ----------------------------------------------------------------


def _rand_rat(rng: random.Random, bound: int):
    return rat(rng.randint(-bound, bound), rng.randint(1, 3))


def sample_points(sc: SuiteContext, seed: int, region: str, count: int,
                  coeff_bound: int = 5, v0=None) -> list:
    """Deterministic rational points of "hess" or of the "slice" through v0;
    region predicates re-verified exactly."""
    rng = random.Random(f"{seed}:sample:{region}")
    L = sc.L
    if region == "hess":
        out = []
        for _ in range(count):
            v = sc.chart.point_from_s([_rand_rat(rng, coeff_bound) for _ in range(sc.family.b)])
            if not point_in_hess(L, sc.triple, v):
                raise RegionExhausted("the chart produced a point off the slice")
            out.append(v)
        return out
    if region == "slice":
        if v0 is None:
            raise ValueError("slice region needs a base point")
        s = orbit_slice(sc.inv, v0)
        pts = slice_sample(L, v0, count, rng, coeff_bound=min(coeff_bound, 3))
        if not all(slice_membership(s, sc.inv, v) for v in pts):
            raise RegionExhausted("slice sampling produced a point off the slice")
        return pts
    raise ValueError(f"unknown region {region!r}")


def _sample_regular(sc: SuiteContext, seed: int, count: int, bound: int,
                    max_tries: int = 2000) -> list:
    rng = random.Random(f"{seed}:sample:regular")
    out = []
    tries = 0
    while len(out) < count:
        tries += 1
        if tries > max_tries:
            raise RegionExhausted("no regular point found within the retry bound")
        x = [_rand_rat(rng, bound) for _ in range(sc.L.dim)]
        if is_regular(sc.L, x):
            out.append(x)
    return out


def _vec_str(v) -> list:
    return [rat_str(c) for c in v]


# -- individual checks -------------------------------------------------------


def _record(check_id, claim, criterion=None):
    def wrap(fn):
        fn.check_id = check_id
        fn.claim = claim
        fn.criterion = criterion
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
    dec = principal_decomposition(sc.L, sc.triple)
    dims = [len(m) for m in dec.modules]
    want = [2 * m + 1 for m in dec.exponents]
    flat = [v for ch in dec.chains for v in ch]
    ok = dims == want and linalg.rank(flat) == sc.family.b
    ok = ok and tuple(sorted(dec.exponents)) == sc.rs.exponents
    return {"ok": ok, "witness": {"module_dims": dims, "exponents": list(dec.exponents)}}


@_record("invariants.gradient_rank_criterion",
         "invariant gradients have rank equal to the rank of the algebra exactly "
         "at regular points, drop rank at singular points, and centralize the "
         "centralizer of the point", 4)
def check_gradient_rank(sc: SuiteContext, config: SuiteConfig) -> dict:
    L, ctx, inv = sc.L, sc.ctx, sc.inv
    pts = _sample_regular(sc, config.seed, config.regular_points, config.coeff_bound)
    bad = None
    for x in pts:
        grads = [gradient(ctx, p, x) for p in inv.polys]
        if linalg.rank(grads) != L.rank:
            bad = {"kind": "rank at regular point", "point": _vec_str(x)}
            break
        cent = linalg.kernel(L.ad(x), L.dim)
        for g in grads:
            if any(any(L.bracket(g, k)) for k in cent):
                bad = {"kind": "gradient outside the centralizer center",
                       "point": _vec_str(x)}
                break
        if bad:
            break
    singular = [L.zero()]
    if L.rank >= 2:
        # a simple root vector, the highest root vector, and a Cartan element
        # on a root hyperplane are all singular in rank >= 2
        candidates = [L.basis_vector(L.pos_indices[0]),
                      L.basis_vector(L.pos_indices[-1]),
                      cartan_from_root_values(L, [0] + [1] * (L.rank - 1))]
        singular += [c for c in candidates if not is_regular(L, c)]
    singular_ranks = []
    if bad is None:
        for x in singular:
            r = linalg.rank([gradient(ctx, p, x) for p in inv.polys])
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
    from .liealgebra import vandermonde_span
    L = sc.L
    h = sc.rs.coxeter_number
    dim_full, basis = vandermonde_span(L, sc.ctx, sc.inv.polys, list(range(h)))
    bminus = [L.basis_vector(i) for i in L.bminus_indices]
    ok = dim_full == sc.family.b and linalg.same_span(basis, bminus)
    dim_single, _ = vandermonde_span(L, sc.ctx, sc.inv.polys, [0])
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
                                     "bracket_terms": len(br.terms)}}


@_record("family.nilpotent_span_and_chain",
         "the family's gradient span at the nilpositive element (and its "
         "normalization) is the full upper Borel dimension, and the chain map "
         "relations between expansion coefficients hold exactly", 7)
def check_span_and_chain(sc: SuiteContext, config: SuiteConfig) -> dict:
    de, _ = gradient_span(sc.ctx, sc.family.qs, sc.triple.e)
    de1, _ = gradient_span(sc.ctx, sc.family.qs, sc.triple.e1)
    ok = de == sc.family.b and de1 == sc.family.b
    witness = {"dim_at_e": de, "dim_at_e1": de1}
    try:
        zeta_chain(sc.L, sc.triple, sc.y, sc.inv, sc.ctx)
        witness["chain"] = "verified"
    except Exception as exc:
        ok = False
        witness["chain_error"] = str(exc)
    return {"ok": ok, "witness": witness}


@_record("family.principal_shift_span",
         "shifting along the principal nilpotent f and taking gradients at w "
         "spans exactly the lower Borel", 8)
def check_principal_shift_span(sc: SuiteContext, config: SuiteConfig) -> dict:
    L = sc.L
    members = [p for _, _, p in shifted_invariants(L, sc.ctx, sc.inv, sc.triple.f)]
    dim, basis = gradient_span(sc.ctx, members, sc.triple.w)
    bminus = [L.basis_vector(i) for i in L.bminus_indices]
    ok = dim == sc.family.b and linalg.same_span(basis, bminus)
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
    bad = None
    for _ in range(config.roundtrip_points):
        svals = [_rand_rat(rng, config.coeff_bound) for _ in range(F.b)]
        v = chart.point_from_s(svals)
        if hess_section(chart, phi(F, v)) != v:
            bad = {"kind": "section after values", "s": _vec_str(svals)}
            break
        cvals = [_rand_rat(rng, config.coeff_bound) for _ in range(F.b)]
        w = hess_section(chart, cvals)
        if phi(F, w) != cvals or not point_in_hess(sc.L, sc.triple, w):
            bad = {"kind": "values after section", "c": _vec_str(cvals)}
            break
    if bad is None and hess_section(chart, phi(F, sc.triple.e1)) != sc.triple.e1:
        bad = {"kind": "base point is not fixed"}
    return {"ok": bad is None,
            "witness": bad or {"round_trips": 2 * config.roundtrip_points}}


@_record("chart.poincare_series",
         "the degree-wise and layer-wise product forms of the graded series "
         "agree coefficientwise to the truncation order", 11)
def check_poincare(sc: SuiteContext, config: SuiteConfig) -> dict:
    order = config.series_order or 2 * sc.rs.coxeter_number
    try:
        ser = poincare_series(sc.rs, order)
    except ValueError as exc:
        return {"ok": False, "witness": {"error": str(exc)}}
    ok = ser[0] == R1 and ser[1] == rat(sc.rs.rank)
    return {"ok": ok, "witness": {"order": order,
                                  "head": [rat_str(c) for c in ser[:5]]}}


@_record("hess.strong_regularity",
         "random points of the affine slice are strongly regular (independent "
         "generator gradients), hence regular", 12)
def check_strong_regularity(sc: SuiteContext, config: SuiteConfig) -> dict:
    pts = sample_points(sc, config.seed, "hess", config.hess_points,
                        config.coeff_bound)
    for x in pts:
        if not is_strongly_regular(sc.family, x):
            return {"ok": False, "witness": {"point": _vec_str(x)}}
        if not is_regular(sc.L, x):
            return {"ok": False,
                    "witness": {"point": _vec_str(x), "kind": "not regular"}}
    return {"ok": True, "witness": {"points": len(pts)}}


@_record("symplectic.hamiltonian_frame",
         "at sampled slice points the Hamiltonian vectors of the derived "
         "generators span an isotropic space of dimension n while the "
         "underived generators have vanishing Hamiltonian vectors", 13)
def check_hamiltonian_frame(sc: SuiteContext, config: SuiteConfig) -> dict:
    L = sc.L
    F = sc.family
    pts = sample_points(sc, config.seed, "hess", config.hess_points,
                        config.coeff_bound)
    for x in pts:
        frame = zx_frame(F, x)
        if frame.dim != L.n:
            return {"ok": False, "witness": {"point": _vec_str(x), "dim": frame.dim}}
        wit = isotropy_witness(L, x, frame.preimages)
        if wit is not None:
            return {"ok": False, "witness": {"point": _vec_str(x),
                                             "pair": [wit[0], wit[1]],
                                             "value": rat_str(wit[2])}}
        rows = F.gradient_rows(x)
        for pos in F.I_positions:
            if any(L.bracket(rows[pos], x)):
                return {"ok": False,
                        "witness": {"point": _vec_str(x),
                                    "kind": "invariant with nonzero Hamiltonian vector"}}
    return {"ok": True, "witness": {"points": len(pts), "frame_dim": L.n}}


@_record("symplectic.slice_lagrangian",
         "at sampled slice points the lower-nilradical tangents have dimension "
         "n and the orbit form vanishes on them", 14)
def check_slice_lagrangian(sc: SuiteContext, config: SuiteConfig) -> dict:
    pts = sample_points(sc, config.seed + 1, "hess", config.lagrangian_points,
                        config.coeff_bound)
    for v in pts:
        if not hess_lagrangian_check(sc.L, v):
            return {"ok": False, "witness": {"point": _vec_str(v)}}
    return {"ok": True, "witness": {"points": len(pts)}}


@_record("symplectic.transversality",
         "at sampled slice points the Hamiltonian frame and the slice tangents "
         "decompose the orbit tangent space and pair nonsingularly", 15)
def check_transversality(sc: SuiteContext, config: SuiteConfig) -> dict:
    pts = sample_points(sc, config.seed + 2, "hess", config.transversality_points,
                        config.coeff_bound)
    for x in pts:
        res = transversality_check(sc.family, sc.chart, x)
        if not res.passed:
            return {"ok": False,
                    "witness": {"point": _vec_str(x),
                                "dims": [res.zx_dim, res.slice_dim, res.combined_dim,
                                         res.orbit_dim],
                                "det": rat_str(res.pairing_det),
                                "jacobian_rank": res.jacobian_rank}}
    return {"ok": True, "witness": {"points": len(pts)}}


@_record("hess.slice_infinitesimal",
         "slice points have trivial isotropy in the lower nilradical and the "
         "exponential orbit stays in the slice with unchanged invariant values", 16)
def check_slice_infinitesimal(sc: SuiteContext, config: SuiteConfig) -> dict:
    L = sc.L
    base = sample_points(sc, config.seed + 3, "hess", 1, config.coeff_bound)[0]
    s = orbit_slice(sc.inv, base)
    pts = [base] + sample_points(sc, config.seed + 4, "slice",
                                 config.slice_points, config.coeff_bound, v0=base)
    for v in pts:
        if slice_isotropy_dim(L, v) != 0 or slice_tangent_dim(L, v) != L.n:
            return {"ok": False, "witness": {"point": _vec_str(v),
                                             "kind": "nontrivial isotropy"}}
        if not point_in_hess(L, sc.triple, v):
            return {"ok": False, "witness": {"point": _vec_str(v),
                                             "kind": "left the slice plane"}}
        if not slice_membership(s, sc.inv, v):
            return {"ok": False, "witness": {"point": _vec_str(v),
                                             "kind": "invariant values changed"}}
    return {"ok": True, "witness": {"points": len(pts),
                                    "values": [rat_str(c) for c in s.values]}}


@_record("invariants.trace_oracle_agreement",
         "for type A the solved generators and the matrix trace powers span the "
         "same spaces modulo products of lower generators")
def check_trace_oracle(sc: SuiteContext, config: SuiteConfig) -> dict:
    if not invmod._is_type_a(sc.rs):
        return {"ok": None, "witness": {"note": "matrix oracle applies to type A only"}}
    oracle = trace_oracle_type_A(sc.rs.rank, sc.L)
    fam = sc.inv
    for d in sorted(set(fam.degrees)):
        monos = invmod._zero_weight_monomials(sc.L, d)
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
         "certification, and the zero direction never certifies")
def check_membership(sc: SuiteContext, config: SuiteConfig) -> dict:
    L = sc.L
    n_samples = config.membership_samples
    ok_f, wit_f = mv_membership(L, sc.inv, sc.triple.f, n_samples, config.seed,
                                sc.ctx, config.coeff_bound)
    ok_2f, _ = mv_membership(L, sc.inv, linalg.vec_scale(sc.triple.f, rat(2)),
                             n_samples, config.seed, sc.ctx, config.coeff_bound)
    ok_y, _ = mv_membership(L, sc.inv, sc.y, n_samples, config.seed, sc.ctx,
                            config.coeff_bound)
    ok_0, _ = mv_membership(L, sc.inv, L.zero(), n_samples, config.seed, sc.ctx,
                            config.coeff_bound)
    if not (ok_f and ok_2f and ok_y):
        # a miss is inconclusive, not a refutation
        return {"ok": None, "witness": {"f": ok_f, "2f": ok_2f, "y": ok_y}}
    if ok_0:
        return {"ok": False, "witness": {"kind": "zero direction certified"}}
    return {"ok": True, "witness": {"f_witness": _vec_str(wit_f)}}


@_record("symplectic.omega_well_defined",
         "the orbit form evaluated on bracket preimages is unchanged when a "
         "preimage is shifted by a centralizer element")
def check_omega_well_defined(sc: SuiteContext, config: SuiteConfig) -> dict:
    L = sc.L
    rng = random.Random(f"{config.seed}:omega")
    pts = sample_points(sc, config.seed + 5, "hess", 3, config.coeff_bound)
    for x in pts:
        cent = linalg.kernel(L.ad(x), L.dim)
        z1 = [_rand_rat(rng, 3) for _ in range(L.dim)]
        z2 = [_rand_rat(rng, 3) for _ in range(L.dim)]
        base = omega(L, x, z1, z2)
        for k in cent:
            shifted = omega(L, x, linalg.vec_add(z1, k), z2)
            if shifted != base:
                return {"ok": False, "witness": {"point": _vec_str(x)}}
        if omega(L, x, z1, z1):
            return {"ok": False, "witness": {"kind": "form not alternating"}}
    fr = orbit_frame(L, pts[0])
    expected = L.dim - L.centralizer_dim(pts[0])
    if fr.dim != expected:
        return {"ok": False, "witness": {"kind": "orbit tangent dimension",
                                         "dim": fr.dim, "expected": expected}}
    return {"ok": True, "witness": {"points": len(pts)}}


@_record("hess.leading_term_frame",
         "the gradient frame at the base point matches the first-order "
         "expansion of each restricted generator in the lower Borel directions")
def check_leading_term(sc: SuiteContext, config: SuiteConfig) -> dict:
    L = sc.L
    e1 = sc.triple.e1
    for entry, z in zip(sc.family.entries, sc.chart.zvecs):
        # independent route: differentiate q(e1 + t z_dir) at t = 0
        for i in L.bminus_indices:
            zdir = L.basis_vector(i)
            line = [to_rat(e1[c]) for c in range(L.dim)]
            # first-order coefficient of q along zdir
            p = entry.poly
            val = R0
            for mono, coeff in p.terms.items():
                # expand product of (e1_c + t zdir_c)^k, keep t^1 coefficient
                const = R1
                lin = R0
                for c, k in enumerate(mono):
                    if not k:
                        continue
                    a, bc = line[c], zdir[c]
                    if bc:
                        lin = lin * a ** k + const * k * a ** (k - 1) * bc
                    else:
                        lin = lin * a ** k
                    const = const * a ** k
                val = val + coeff * lin
            if val != L.killing_pair(z, zdir):
                return {"ok": False,
                        "witness": {"position": entry.beta, "direction": L.labels[i]}}
    return {"ok": True, "witness": {"positions": sc.family.b}}


@_record("symplectic.polarization",
         "over sampled orbit slices every point is strongly regular with "
         "Lagrangian Hamiltonian frame, Lagrangian slice tangents, and "
         "transversal pairing on a full 2n-dimensional orbit")
def check_polarization(sc: SuiteContext, config: SuiteConfig) -> dict:
    L = sc.L
    bases = [sc.triple.e1]
    bases += sample_points(sc, config.seed + 6, "hess", 1, config.coeff_bound)
    total = 0
    for v0 in bases:
        rep = polarization_report(sc.family, sc.chart, sc.inv, v0,
                                  config.slice_points, config.seed)
        total += len(rep.verdicts)
        if not rep.all_pass:
            idx = next(i for i, v in enumerate(rep.verdicts) if not v.all_ok)
            return {"ok": False, "witness": {"base": _vec_str(v0), "index": idx}}
        if any(v.orbit_dim != 2 * L.n for v in rep.verdicts):
            return {"ok": False, "witness": {"base": _vec_str(v0),
                                             "kind": "orbit dimension"}}
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
    base = signature_hash(sc.L)
    blob = "|".join([base, ",".join(rat_str(c) for c in sc.y), GENERATOR_ORDER_RULE])
    return {
        "hash": hashlib.sha256(blob.encode()).hexdigest()[:16],
        "structure_constants": SIGN_RULE,
        "structure_constant_hash": base,
        "shift_direction": _vec_str(sc.y),
        "generator_order": GENERATOR_ORDER_RULE,
    }


def _suite_payload(config: SuiteConfig) -> tuple:
    """(convention dict, list of CheckRecord) for one full pass."""
    try:
        sc = build_context(config)
    except (UnsupportedType, NonFiniteType) as exc:
        records = [CheckRecord(check_id="build.algebra",
                               claim="the configured algebra builds",
                               status="fail", criterion=None,
                               witness={"error": str(exc)})]
        for fn in ALL_CHECKS:
            records.append(CheckRecord(check_id=fn.check_id, claim=fn.claim,
                                       status="skipped", criterion=fn.criterion,
                                       witness={"reason": "algebra build failed"}))
        return {"hash": "unavailable"}, records
    records = []
    for fn in ALL_CHECKS:
        try:
            out = fn(sc, config)
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
