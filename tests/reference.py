"""Test data, oracles and the Fraction forms of the package's integer values.

The package computes in bulk and in integers: every face circulation,
every curvature row, partitions chosen by the exact pass, and each matrix,
five-point configuration and point set held as integers over a common
denominator.  The paper works single values and fixed choices by hand, in
rationals, and the tests check the package against them:

* the fixed sphere geometry and the sphere's and projective space's
  hand-chosen basis partitions, written with the chain's basis names
  (``chain.basis_label``) and converted to the positions a
  ``BasisPartition`` holds (``positions``), with the
  tetrahedron-0 edge bookkeeping that the projective partition reads;
* a partition's sign eps by sorting its positions, the oracle of
  ``BasisPartition.sign``, and the determinants of the combinatorial
  Laplacians of the complex, with a dense ``Fraction`` determinant: a
  partition-free acyclicity check and square of the torsion;
* the integer cellular boundaries d1 and d2 of a triangulation, a Smith
  normal form in plain ints, and from them H_1: its Betti number and the
  order of its torsion;
* a matrix from rows of ints and Fractions, dense or by column
  (``rat_matrix``), cleared into the integer rows ``RatMatrix`` takes, and
  one entry of a matrix as a Fraction (``entry``);
* a geometry from rational x, y and kappa (``geometry_of``), cleared
  into the integer table ``GeometryAssignment`` holds, and a geometry's
  coordinates (``coordinates``) and face circulations (``face_values``)
  as Fractions;
* the seeded geometry sampler drawn with ``randint`` in Fractions, the
  oracle of ``geometry.assign_geometry``, and the point sets of the
  ``pentagon`` command drawn the same way;
* the rational draws of ``geometry.draw_rationals`` made with
  ``randrange``, the stream its ``getrandbits`` loop must reproduce;
* an edge value by the paper's formula (``lambda_of``), the oracle of
  ``geometry.edge_values``;
* the oriented area of a plane triangle, the oracle of a circulation;
* a single dihedral-angle value, ``geometry.curvature`` on one angle
  whose six sides are looked up with ``Triangulation.edge_class``;
* five-point configurations from edge values on every ordered pair, or
  induced by plane points, cleared into the table ``FivePointConfig``
  takes; a configuration's values, curvature at E->D, circulations and
  bilinear flatness relation in Fractions; and rational plane points
  cleared to the integer points over one denominator that
  ``verify_vector_identities`` takes;
* the seeded five-point sampler drawn with ``randint`` and solved for the
  flat lambda_ED in Fractions, the oracle of ``FivePointConfig.random``,
  and the holonomy generator in Fractions, the oracle of
  ``geometry.holonomy_numerators``;
* the identity and transposition slot permutations, and a label-free
  canonical form of a gluing table, so that tests can compare the
  triangulations that moves and relabelings produce up to isomorphism;
* the seeded Pachner walk that lists every site of every kind at each
  step, the oracle of ``pachner.walk_states``;
* the barycentric subdivision of a triangulation and the lens spaces
  L(p, q), built from their gluing rules, and the subdivided inputs named
  as ``s3''`` or ``L(7,2)'``, one subdivision per prime: inputs whose
  eliminations fill in far more than those of the grown ladder.
"""

import random
from collections.abc import Mapping
from fractions import Fraction
from itertools import permutations
from math import gcd, lcm, prod

from pentachain import BasisPartition, FivePointConfig, GeometryAssignment, RatMatrix, Triangulation
from pentachain import KINDS, apply_move, enumerate_sites, load_builtin
from pentachain.chain import basis_label
from pentachain.exact import clear_denominators, independent_rows, permutation_sign
from pentachain.geometry import SAMPLE_DRAWS as GEOMETRY_DRAWS, curvature, face_circulations, subseed
from pentachain.pachner import _GROWING, _keeps_sampler_solvable
from pentachain.pentagon import ANGLES, ED_PAIR, PAIRS, SAMPLE_BOUND, SAMPLE_DRAWS, _where
from pentachain.triangulation import Gluing, compose, inverse

# the basis choice used for the sphere's by-hand minor ratios: vertex
# classes in slot order are A, B, C, D
SPHERE_C1_ROWS = ("dx_v0", "dy_v0", "dk_v0", "dx_v1", "dy_v1", "dx_v2")


def positions(k, dim, names):
    """The positions in C_k, of dimension ``dim``, of the basis vectors
    ``names``, in the order given."""
    labels = [basis_label(k, i) for i in range(dim)]
    return tuple(labels.index(name) for name in names)


def rat_matrix(rows, ncols=None):
    """The matrix with the given rows of ints and Fractions, each a
    ``{column position: value}`` mapping or a dense sequence, ``ncols``
    columns wide: by default as many as the first dense row has."""
    rows = list(rows)
    if ncols is None:
        ncols = next((len(r) for r in rows if not isinstance(r, Mapping)), 0)
    cleared = [clear_denominators(row if isinstance(row, Mapping) else dict(enumerate(row))) for row in rows]
    return RatMatrix([n for _, n in cleared], [d for d, _ in cleared], ncols)


def entry(m, i, j):
    """The entry of ``m`` at row position i and column position j."""
    return Fraction(m.numerators[i].get(j, 0), m.denominators[i])


def geometry_of(x, y, kappa):
    """The geometry with the rational ``x``, ``y`` and ``kappa`` per vertex
    class, cleared into the integer table ``GeometryAssignment`` holds."""
    nv = len(x)
    den, cleared = clear_denominators(dict(enumerate(Fraction(v) for v in (*x, *y, *kappa))))
    values = [cleared[i] for i in range(3 * nv)]
    return GeometryAssignment(den, *(tuple(values[k * nv:(k + 1) * nv]) for k in range(3)))


def coordinates(g):
    """The x, y and kappa of a geometry, each a tuple of Fractions."""
    return tuple(tuple(Fraction(n, g.den) for n in values) for values in (g.x, g.y, g.kappa))


def face_values(tri, lam):
    """The face circulations under an edge-value table as Fractions, by
    face class id."""
    d, circulations = face_circulations(tri, lam)
    return tuple(Fraction(c, d) for c in circulations)


def lambda_of(tri, g, edge_id):
    """Edge value of a canonically oriented edge class a -> b: the area of
    (O, a, b) plus kappa_b - kappa_a."""
    x, y, kappa = coordinates(g)
    e = tri.edges[edge_id]
    a, b = e.tail, e.head
    return (x[a] * y[b] - x[b] * y[a]) / 2 + kappa[b] - kappa[a]


def fraction_geometry(tri, seed):
    """The coordinates of ``assign_geometry(tri, seed)``, drawn in
    Fractions, and the number of draws made.

    Each draw gives every vertex class Fraction(randint(-64, 64),
    randint(1, 16)) as x, then every one a y, then every one a kappa.  A
    draw is redrawn while some face circulation, the signed sum of the
    paper's edge values around the face's stored sides, is zero.
    """
    rng = random.Random(seed)
    nv = len(tri.vertices)
    for draws in range(1, GEOMETRY_DRAWS + 1):
        x = tuple(Fraction(rng.randint(-64, 64), rng.randint(1, 16)) for _ in range(nv))
        y = tuple(Fraction(rng.randint(-64, 64), rng.randint(1, 16)) for _ in range(nv))
        kappa = tuple(Fraction(rng.randint(-64, 64), rng.randint(1, 16)) for _ in range(nv))
        lam = {e.id: (x[e.tail] * y[e.head] - x[e.head] * y[e.tail]) / 2 + kappa[e.head] - kappa[e.tail]
               for e in tri.edges}
        if all(sum(sign * lam[key] for key, sign in sides) for sides in tri.face_sides):
            return (x, y, kappa), draws
    raise ValueError(f"no nondegenerate geometry in {GEOMETRY_DRAWS} draws")


def fraction_pentagon_points(seed, samples):
    """The point sets the ``pentagon`` command checks at ``seed``, drawn in
    Fractions: per sample, x then y of A..E, each
    Fraction(randint(-20, 20), randint(1, 7))."""
    rng = random.Random(subseed(seed, "points"))
    out = []
    for _ in range(samples):
        values = [Fraction(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(10)]
        out.append({label: (values[2 * i], values[2 * i + 1]) for i, label in enumerate("ABCDE")})
    return out


def randrange_rationals(randrange, count, bound, den_bound):
    """``geometry.draw_rationals`` drawn with ``randrange``: each value
    ``lo + randrange(n)``, numerator first, over the lcm of the drawn
    denominators."""
    draws = [(randrange(2 * bound + 1) - bound, 1 + randrange(den_bound)) for _ in range(count)]
    den = lcm(*(q for _, q in draws))
    return den, [p * (den // q) for p, q in draws]


def fixed_sphere_geometry():
    """The reference assignment A(0,0), B(1,0), C(0,1), D(1,1), kappa = 0."""
    return geometry_of(x=(0, 1, 0, 1), y=(0, 0, 1, 1), kappa=(0,) * 4)


def sphere_paper_partition(c):
    """The sphere partition with the hand-calculation's C1 rows.

    C2 and C3 splits are forced (E = 3V - 6 leaves the curvature minor
    empty); the C4 rows are completed greedily.
    """
    c2_rows = tuple(range(c.f2.nrows))  # all six edge rows
    k3 = range(c.f3.nrows)  # all six curvature columns feed f4
    c4_rows = tuple(independent_rows(c.f4.block(range(c.f4.nrows), k3))[0])
    return BasisPartition(positions(1, c.f1.nrows, SPHERE_C1_ROWS), c2_rows, (), c4_rows)


def tet0_edges(tri):
    """Edge classes meeting tetrahedron 0, ordered by its slot pairs.

    For rp3 these are the six "unprimed" classes.
    """
    out = []
    for i in range(4):
        for j in range(i + 1, 4):
            eid, _ = tri.edge_class(0, i, j)
            if eid not in out:
                out.append(eid)
    return tuple(out)


def opposite_edge_pairs(tri):
    """The three pairs of opposite tetrahedron-0 edge classes."""
    pairs = []
    for (i, j), (k, l) in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
        a, _ = tri.edge_class(0, i, j)
        b, _ = tri.edge_class(0, k, l)
        pairs.append((a, b))
    return tuple(pairs)


def projective_paper_partition(c, tri):
    """The projective-space partition: primed edge rows for the f2 minor,
    unprimed curvature rows for the f3 minor, primed curvature columns for
    f4; C1 rows as for the sphere, C4 rows completed greedily."""
    unprimed = set(tet0_edges(tri))
    ne = c.f2.nrows
    c2_rows = positions(2, ne, [f"dl_e{e.id}" for e in tri.edges if e.id not in unprimed])
    c3_rows = positions(3, ne, [f"dw_e{e.id}" for e in tri.edges if e.id in unprimed])
    k3 = positions(3, ne, [f"dw_e{e.id}" for e in tri.edges if e.id not in unprimed])
    c4_rows = tuple(independent_rows(c.f4.block(range(c.f4.nrows), k3))[0])
    return BasisPartition(positions(1, c.f1.nrows, SPHERE_C1_ROWS), c2_rows, c3_rows, c4_rows)


def label_sort_sign(c, p):
    """eps of a partition by sorting positions, the oracle of
    ``BasisPartition.sign``: over C1..C4, the sign of the permutation that
    puts R_k, then K_k, into C_k's order, ascending positions."""
    eps = 1
    for rows, cols in zip(p.rows(), p.cols(c)):
        listed = (*rows, *cols)
        eps *= permutation_sign(sorted(range(len(listed)), key=listed.__getitem__))
    return eps


def fraction_det(rows):
    """Determinant of a dense square matrix of Fractions, by elimination."""
    a = [list(row) for row in rows]
    out = Fraction(1)
    for k in range(len(a)):
        pivot = next((i for i in range(k, len(a)) if a[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            out = -out
        out *= a[k][k]
        for i in range(k + 1, len(a)):
            if a[i][k]:
                r = a[i][k] / a[k][k]
                a[i] = [x - r * y for x, y in zip(a[i], a[k])]
    return out


def laplacian_dets(c):
    """det(Delta_k) for k = 0..5, the combinatorial Laplacians with the
    bases of C0..C5 orthonormal: Delta_k = f_k f_k^T + f_{k+1}^T f_{k+1}
    on C_k, with f_0 = f_6 = 0.  Each f_k is the dense matrix with rows C_k and columns
    C_(k-1).  Given the chain property, Delta_k is singular exactly when
    H_k is not zero, so the complex is acyclic when no det is zero."""
    f = [m.entries for m in c.maps]
    dims = [c.maps[0].ncols] + [m.nrows for m in c.maps]
    dets = []
    for k, n in enumerate(dims):
        lap = [[Fraction(0)] * n for _ in range(n)]
        if k > 0:  # f_k f_k^T
            for i, row_i in enumerate(f[k - 1]):
                for j, row_j in enumerate(f[k - 1]):
                    lap[i][j] += sum(x * y for x, y in zip(row_i, row_j))
        if k < 5:  # f_{k+1}^T f_{k+1}
            for row in f[k]:
                for i in range(n):
                    if row[i]:
                        for j in range(n):
                            lap[i][j] += row[i] * row[j]
        dets.append(fraction_det(lap))
    return tuple(dets)


def laplacian_tau_squared(dets):
    """The square of the torsion from the six ``laplacian_dets`` of an
    acyclic complex, with no basis partition: tau^2 = prod_k
    det(Delta_k)^((-1)^(k+1) k)."""
    return prod(d ** ((-1) ** (k + 1) * k) for k, d in enumerate(dets))


def boundary_maps(tri):
    """The integer cellular boundaries of a triangulation as rows of ints:
    d1, one row per edge class, -1 at its tail's vertex class and +1 at its
    head's (a loop edge's row is zero), and d2, one row per face class, the
    signed edge classes of its stored boundary."""
    d1 = []
    for edge in tri.edges:
        row = [0] * len(tri.vertices)
        row[edge.tail] -= 1
        row[edge.head] += 1
        d1.append(row)
    d2 = []
    for sides in tri.face_sides:
        row = [0] * len(tri.edges)
        for eid, sign in sides:
            row[eid] += sign
        d2.append(row)
    return d1, d2


def smith_invariants(rows):
    """The nonzero invariant factors of an integer matrix, each dividing the
    next: the diagonal of its Smith normal form.  Each step takes a nonzero
    entry of least absolute value as pivot and reduces its column by row
    operations and its row by column operations; once both are clear but
    for the pivot, the pivot is a diagonal entry and its row and column are
    dropped.  Any diagonal form has the same product and count as the
    invariant factors; gcd and lcm swaps then make each divide the next."""
    a = [list(row) for row in rows]
    diagonal = []
    while True:
        nonzero = [(abs(v), i, j) for i, row in enumerate(a) for j, v in enumerate(row) if v]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        pivot_row, pivot = a[i], a[i][j]
        clear = True
        for r, row in enumerate(a):
            if r != i and row[j]:
                q = row[j] // pivot
                a[r] = row = [x - q * y for x, y in zip(row, pivot_row)]
                clear = clear and not row[j]
        for k, v in enumerate(pivot_row):
            if k != j and v:
                q = v // pivot
                for row in a:
                    row[k] -= q * row[j]
                clear = clear and not pivot_row[k]
        if clear:
            diagonal.append(abs(pivot))
            del a[i]
            for row in a:
                del row[j]
    for x in range(len(diagonal)):
        for y in range(x + 1, len(diagonal)):
            g = gcd(diagonal[x], diagonal[y])
            diagonal[x], diagonal[y] = g, diagonal[x] * diagonal[y] // g
    return diagonal


def first_homology(tri):
    """H_1 of a triangulation with integer coefficients, as its Betti number
    b1 = E - rank d1 - rank d2 and the order of its torsion, the product of
    d2's invariant factors: the kernel of d1 is a direct summand of the edge
    lattice, so the torsion of Z^E / im d2 is that of H_1."""
    d1, d2 = boundary_maps(tri)
    factors = smith_invariants(d2)
    return len(tri.edges) - len(smith_invariants(d1)) - len(factors), prod(factors)


def triangle_area(ax, ay, bx, by, cx, cy):
    """Oriented area of a plane triangle (half the cross product)."""
    return ((bx - ax) * (cy - ay) - (cx - ax) * (by - ay)) / 2


def angle_sides(tri, tet, pq, ed):
    """The six sides ph, hq, qp, pe, eq, he of the angle of tetrahedron
    ``tet`` at the edge ``ed`` = (tail e, head h) with off-edge slots
    ``pq``, each the (edge class id, sign) of that directed edge."""
    (p, q), (e, h) = pq, ed
    return tuple(tri.edge_class(tet, a, b) for a, b in ((p, h), (h, q), (q, p), (p, e), (e, q), (h, e)))


def angle(tri, lam, tet, pq, ed):
    """Dihedral-angle value at an oriented edge of an oriented tetrahedron.

    ``pq`` are the two off-edge slots and ``ed`` the (tail, head) slots.
    The raw circulation formula is already antisymmetric in P and Q; the
    edge direction is signed against the edge class's canonical
    orientation, so the value also flips under a reversal of the edge.
    """
    _, direction = tri.edge_class(tet, *ed)

    def where(contribution, opposite):
        return f"face class {tri.face_class(tet, opposite)} of tetrahedron {tet}"

    angles = ((angle_sides(tri, tet, pq, ed), (tet, pq, ed)),)
    return direction * Fraction(*curvature(lam, angles, where)[0])


def five_point_from_lambdas(values):
    """The configuration with edge value ``values[(a, b)]`` on a -> b,
    each pair given in either direction."""
    lam = {}
    for (a, b), v in values.items():
        key, sign = ((a, b), 1) if a < b else ((b, a), -1)
        lam[key] = sign * Fraction(v)
    missing = [p for p in PAIRS if p not in lam]
    if missing:
        raise ValueError(f"missing edge values for pairs {missing}")
    return FivePointConfig(*clear_denominators(lam))


def five_point_from_points(points):
    """Edge values induced by plane points (kappa identically zero)."""
    lam = {}
    for a, b in PAIRS:
        (ax, ay), (bx, by) = points[a], points[b]
        lam[(a, b)] = (Fraction(ax) * by - Fraction(bx) * ay) / 2
    return FivePointConfig(*clear_denominators(lam))


def values(cfg):
    """The values of a configuration as Fractions, by stored pair."""
    d, numerators = cfg.table
    return {key: Fraction(n, d) for key, n in numerators.items()}


def omega_ed(cfg):
    """Curvature around E->D of a configuration as a Fraction, read off
    the integer value pair of ``geometry.curvature`` on its table."""
    return Fraction(*curvature(cfg.table, ANGLES, _where)[0])


def circulation(cfg, a, b, c):
    """Circulation of a configuration's values around a -> b -> c."""
    lam = values(cfg)
    return sum(lam[x, y] if x < y else -lam[y, x] for x, y in ((a, b), (b, c), (c, a)))


def bilinear_relation(cfg):
    """The flatness relation S_ADB S_CDE + S_BDC S_ADE + S_CDA S_BDE,
    zero exactly when the curvature at E->D vanishes."""
    return sum(circulation(cfg, x, "D", y) * circulation(cfg, z, "D", "E") for x, y, z in ("ABC", "BCA", "CAB"))


def integer_points(points):
    """Rational plane points as ``(integer points, L)``: each coordinate
    times L, the lcm of their denominators."""
    coords = [Fraction(v) for xy in points.values() for v in xy]
    den = lcm(*(v.denominator for v in coords))
    return {k: (int(x * den), int(y * den)) for k, (x, y) in points.items()}, den


def fraction_random_lam(seed):
    """The values of ``FivePointConfig.random(seed)``, drawn and solved in
    Fractions.

    Each draw gives the nine pairs other than D-E the value
    randint(-SAMPLE_BOUND, SAMPLE_BOUND) / randint(1, 9).  The bilinear
    relation S_ADB S_CDE + S_BDC S_ADE + S_CDA S_BDE is affine in
    lambda_ED with slope -(S_ADB + S_BDC + S_CDA), since each S_xDE holds
    lambda_DE = -lambda_ED once; its root is the flat value.  A draw is
    redrawn when the slope vanishes or the root makes one of S_ADE,
    S_BDE, S_CDE, the angle denominators at E->D, zero.
    """
    rng = random.Random(seed)
    for _ in range(SAMPLE_DRAWS):
        lam = {p: Fraction(rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND), rng.randint(1, 9)) for p in PAIRS if p != ED_PAIR}
        lam[ED_PAIR] = Fraction(0)

        def s(a, b, c):
            return sum(lam[x, y] if x < y else -lam[y, x] for x, y in ((a, b), (b, c), (c, a)))

        terms = [(s(x, "D", y), s(z, "D", "E")) for x, y, z in ("ABC", "BCA", "CAB")]
        slope = -sum(a for a, _ in terms)
        at0 = sum(a * b for a, b in terms)
        if slope == 0:
            continue
        lam[ED_PAIR] = at0 / slope  # lambda_DE = -lambda_ED
        if all(s(x, "D", "E") for x in "ABC"):
            return lam
    raise ValueError(f"no flat configuration in {SAMPLE_DRAWS} draws")


def fraction_holonomy_generator(edge_vector, domega):
    """The holonomy generator in Fractions: domega / 2 times
    ((-xy, x^2), (-y^2, xy)) at the edge vector (x, y)."""
    x, y = edge_vector
    half = Fraction(domega) / 2
    return (-x * y * half, x * x * half), (-y * y * half, x * y * half)


IDENTITY = (0, 1, 2, 3)


def transposition(a, b):
    """The slot permutation that swaps a and b."""
    out = [0, 1, 2, 3]
    out[a], out[b] = out[b], out[a]
    return tuple(out)


def sequence_parity(tri, tet, seq):
    """Parity of a slot sequence of tetrahedron ``tet`` relative to its
    positive ordering, which is (0, 1, 2, 3) for sign +1 and one
    transposition away for -1."""
    return int(permutation_sign(seq) != tri.orientation_signs[tet])


def canonical_form(tri):
    """Label-independent encoding of the gluing table.

    Relabels tetrahedra by breadth-first search and minimizes the encoding
    over every (start tetrahedron, starting frame) choice.  The table is
    connected (construction rejects any other), so the search from any
    start reaches every tetrahedron, and two triangulations are
    combinatorially isomorphic iff their canonical forms are equal.
    Intended for modest sizes; the search is O(T^2 * 24).
    """
    best = None
    for start in range(tri.size):
        for frame in permutations(range(4)):
            table = _bfs_relabel(tri, start, frame)
            if best is None or table < best:
                best = table
    return best


def eager_walk_states(tri, steps, seed, max_tets=12):
    """The seeded walk of ``pachner.walk_states``, listing every usable
    site of every kind at each step before it draws a kind, then a site."""
    rng = random.Random(seed)
    current = tri
    for _ in range(steps):
        options = {}
        for kind in KINDS:
            sites = [s for s in enumerate_sites(current, kind) if _keeps_sampler_solvable(current, s)]
            if sites:
                options[kind] = sites
        kinds = sorted(options)
        if current.size > max_tets:
            shrinking = [k for k in kinds if k not in _GROWING]
            if shrinking:
                kinds = shrinking
        kind = kinds[rng.randrange(len(kinds))]
        sites = options[kind]
        site = sites[rng.randrange(len(sites))]
        current = apply_move(current, site)
        yield site, current


def _bfs_relabel(tri, start, frame):
    """The gluing table renumbered in breadth-first order from ``start``,
    whose slots ``frame`` maps to new slots."""
    index = {start: 0}
    slot_map = {start: frame}  # old slots -> new slots
    order = [start]
    out = []
    for t in order:
        sigma = slot_map[t]
        row = [None] * 4
        for s in range(4):
            g = tri.tets[t][s]
            if g.neighbor not in index:
                index[g.neighbor] = len(order)
                slot_map[g.neighbor] = compose(sigma, inverse(g.perm))
                order.append(g.neighbor)
            row[sigma[s]] = (index[g.neighbor], compose(slot_map[g.neighbor], compose(g.perm, inverse(sigma))))
        out.append(tuple(row))
    return tuple(out)


def isomorphic(a, b):
    """Whether two triangulations are combinatorially isomorphic."""
    if a.size != b.size or a.f_vector() != b.f_vector():
        return False
    return canonical_form(a) == canonical_form(b)


def barycentric(tri):
    """The barycentric subdivision: one small tetrahedron (t, sigma) for each
    tetrahedron t and each ordering sigma of its slots, whose slot k is the
    barycentre of sigma[0..k].  For k < 3 its face k is glued by the
    identity to (t, sigma with positions k and k+1 swapped); face 3 lies in
    t's face sigma[3] and is glued by the identity to (g.neighbor, g.perm o
    sigma), with g the gluing across that face."""
    orders = list(permutations(range(4)))
    index = {sigma: i for i, sigma in enumerate(orders)}
    rows = []
    for t, gluings in enumerate(tri.tets):
        for sigma in orders:
            row = [Gluing(24 * t + index[compose(sigma, transposition(k, k + 1))], IDENTITY) for k in range(3)]
            g = gluings[sigma[3]]
            row.append(Gluing(24 * g.neighbor + index[compose(g.perm, sigma)], IDENTITY))
            rows.append(row)
    return Triangulation(rows)


def lens(p, q):
    """The lens space L(p, q) on p tetrahedra T_0..T_{p-1}: T_i glues face 0
    to T_{i-q} and face 1 to T_{i+q}, both by (1,0,2,3), and face 2 to
    T_{i+1} and face 3 to T_{i-1}, both by (0,1,3,2).  Its f-vector is
    (2, p+2, 2p, p), and its edges join a vertex class to itself, so only
    its subdivision has a geometry."""
    swap01, swap23 = (1, 0, 2, 3), (0, 1, 3, 2)
    return Triangulation([
        [Gluing((i - q) % p, swap01), Gluing((i + q) % p, swap01),
         Gluing((i + 1) % p, swap23), Gluing((i - 1) % p, swap23)]
        for i in range(p)
    ])


def subdivided(name):
    """The input a name such as ``s3''`` or ``L(7,2)'`` stands for: a
    builtin or the lens space L(p, q), subdivided once per prime."""
    base = name.rstrip("'")
    if base.startswith("L("):
        tri = lens(*map(int, base[2:-1].split(",")))
    else:
        tri = load_builtin(base)
    for _ in range(len(name) - len(base)):
        tri = barycentric(tri)
    return tri
