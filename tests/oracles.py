"""Independent brute-force oracles.

Everything here recomputes expected values from first principles with its
own plain gaussian elimination, so the library's elimination, quotient and
structure-constant paths are checked against a second implementation.
"""


def oracle_rank(field, rows):
    """Rank by straightforward gaussian elimination over the field."""
    return len(oracle_rref(field, rows)[1])


def oracle_rref(field, rows):
    """Reduced row echelon form by straightforward gaussian elimination.

    Returns (reduced rows, pivot columns); zero rows stay at the bottom.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    rank = 0
    pivots = []
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col] != field.zero:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [field.mul(inv, x) for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != field.zero:
                factor = rows[i][col]
                rows[i] = [
                    field.sub(x, field.mul(factor, y))
                    for x, y in zip(rows[i], rows[rank])
                ]
        pivots.append(col)
        rank += 1
    return rows, pivots


def oracle_matmul(field, a, b):
    """Row-major entries of the product of two matrices, one sum per entry."""
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = field.zero
            for k in range(a.cols):
                acc = field.add(acc, field.mul(a[i, k], b[k, j]))
            out.append(acc)
    return out


def oracle_apply(field, m, v):
    """Matrix-vector product, one sum per row."""
    out = []
    for i in range(m.rows):
        acc = field.zero
        for j in range(m.cols):
            acc = field.add(acc, field.mul(m[i, j], v[j]))
        out.append(acc)
    return tuple(out)


def oracle_kernel(field, m):
    """Right null space basis read off oracle_rref, one vector per free column."""
    rows, pivots = oracle_rref(field, m.row_list())
    basis = []
    for free in (c for c in range(m.cols) if c not in pivots):
        v = [field.zero] * m.cols
        v[free] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(rows[r][free])
        basis.append(tuple(v))
    return basis


def oracle_kron(field, a, b):
    """Row-major entries of the Kronecker product, entry by entry."""
    return [
        field.mul(a[i, j], b[k, l])
        for i in range(a.rows)
        for k in range(b.rows)
        for j in range(a.cols)
        for l in range(b.cols)
    ]


def flatten_row_major(m):
    """Row-major flattening, deliberately different from the library's
    column-stacking coordinates."""
    return [m[i, j] for i in range(m.rows) for j in range(m.cols)]


def oracle_commutator_span_dim(field, span, dim):
    """Rank of the span of all commutators of span matrices with units.

    Enumerates A*T - T*A for every span matrix A and every unit matrix T
    and ranks the row-major flattenings.
    """
    from fixtures import unit_matrix

    rows = []
    for a in span:
        for i in range(dim):
            for j in range(dim):
                t = unit_matrix(field, dim, i, j)
                rows.append(flatten_row_major(a * t - t * a))
    return oracle_rank(field, rows)


def oracle_comatrix_delta(field, d):
    """Direct expansion of the matrix-coefficient coproduct.

    Returns (delta_entries, epsilon_entries) as dense row-major lists for
    an n^2 x n and 1 x n matrix, n = d*d, basis C_ij ordered
    lexicographically, coproduct of C_ij the sum over k of C_ik (x) C_kj.
    """
    n = d * d
    delta = [[field.zero] * n for _ in range(n * n)]
    eps = [field.zero] * n
    for i in range(d):
        for j in range(d):
            col = i * d + j
            for k in range(d):
                left = i * d + k
                right = k * d + j
                delta[left * n + right][col] = field.one
            if i == j:
                eps[col] = field.one
    return delta, eps


def oracle_saturated_span_dims(field, diagram):
    """Close the spans under composition by repeated pairwise products.

    Keeps one independently-maintained echelon per pair (fresh elimination
    code, not the library's) and multiplies all independent matrices until
    nothing new appears; returns the stable dimension per object pair.
    """
    names = diagram.names()
    mats = {(x, y): [] for x in names for y in names}
    echelons = {pair: [] for pair in mats}

    def try_add(pair, matrix):
        v = flatten_row_major(matrix)
        # reduce in increasing-lead order so cleared positions stay cleared
        for row in sorted(
            echelons[pair],
            key=lambda r: next(i for i, x in enumerate(r) if x != field.zero),
        ):
            lead = next(i for i, x in enumerate(row) if x != field.zero)
            if v[lead] != field.zero:
                factor = field.mul(v[lead], field.inv(row[lead]))
                v = [field.sub(x, field.mul(factor, y)) for x, y in zip(v, row)]
        if all(x == field.zero for x in v):
            return False
        echelons[pair].append(v)
        mats[pair].append(matrix)
        return True

    from coendcalc import Matrix

    for x in names:
        for y in names:
            for m in diagram.span(x, y):
                try_add((x, y), m)
    for name, dim in diagram.objects:
        if dim > 0:
            try_add((name, name), Matrix.identity(field, dim))

    changed = True
    while changed:
        changed = False
        for x in names:
            for y in names:
                for z in names:
                    for a in list(mats[(x, y)]):
                        for b in list(mats[(y, z)]):
                            if try_add((x, z), b * a):
                                changed = True
    return {pair: len(rows) for pair, rows in echelons.items()}


def oracle_relation_rows(field, diagram):
    """Spanning rows of the relation space, assembled with plain loops.

    For every pair and every span matrix A: X -> Y, every unit
    T: F(Y) -> F(X) contributes the row-major flattening of T*A in block
    X minus that of A*T in block Y.
    """
    names = diagram.names()
    sizes = [diagram.dim(n) ** 2 for n in names]
    offsets = {}
    total = 0
    for name, size in zip(names, sizes):
        offsets[name] = total
        total += size
    rows = []
    from coendcalc import Matrix

    for x in names:
        dx = diagram.dim(x)
        for y in names:
            dy = diagram.dim(y)
            for a in diagram.span(x, y):
                for r in range(dx):
                    for c in range(dy):
                        t = Matrix(
                            field,
                            dx,
                            dy,
                            [
                                field.one if (i, j) == (r, c) else field.zero
                                for i in range(dx)
                                for j in range(dy)
                            ],
                        )
                        vec = [field.zero] * total
                        for k, val in enumerate(flatten_row_major(t * a)):
                            vec[offsets[x] + k] = val
                        for k, val in enumerate(flatten_row_major(a * t)):
                            vec[offsets[y] + k] = field.sub(vec[offsets[y] + k], val)
                        rows.append(vec)
    return rows


def oracle_relation_basis(field, diagram):
    """The nonzero rref rows of the relation space in the library's
    coordinates, where coordinate i*dim + j of a block is entry (j, i):
    each block of oracle_relation_rows, flattened row-major, is transposed
    first."""
    order = []
    for name in diagram.names():
        dim, base = diagram.dim(name), len(order)
        order += [base + j * dim + i for i in range(dim) for j in range(dim)]
    rows = [[row[k] for k in order] for row in oracle_relation_rows(field, diagram)]
    reduced, pivots = oracle_rref(field, rows)
    return [tuple(r) for r in reduced[: len(pivots)]]


def oracle_relation_rank(field, diagram):
    """Rank of the relation space spanned by oracle_relation_rows."""
    return oracle_rank(field, oracle_relation_rows(field, diagram))


def oracle_relation_space(diagram):
    """The relation vectors of ``relation_space``, built with products.

    For every pair (X, Y), span basis matrix A: X -> Y and elementary
    T: F(Y) -> F(X), in that order, the vector is vec(T*A) in block X
    minus vec(A*T) in block Y, with T and both products formed as
    matrices.
    """
    from coendcalc import Matrix
    from coendcalc.coend import BlockLayout
    from coendcalc.diagram import hom_basis
    from coendcalc.linalg import vec_matrix

    field = diagram.field
    layout = BlockLayout(diagram)
    relations = []
    names = diagram.names()
    for x in names:
        dx = diagram.dim(x)
        for y in names:
            dy = diagram.dim(y)
            basis = hom_basis(diagram, x, y).basis
            if not basis or dx == 0 or dy == 0:
                continue
            for a in basis:
                for r in range(dx):
                    for c in range(dy):
                        t = Matrix(
                            field,
                            dx,
                            dy,
                            [
                                field.one if (i, j) == (r, c) else field.zero
                                for i in range(dx)
                                for j in range(dy)
                            ],
                        )
                        vec = [field.zero] * layout.total
                        off_x = layout.offsets[x]
                        for k, val in enumerate(vec_matrix(t * a)):
                            vec[off_x + k] = val
                        off_y = layout.offsets[y]
                        for k, val in enumerate(vec_matrix(a * t)):
                            vec[off_y + k] = field.sub(vec[off_y + k], val)
                        relations.append(tuple(vec))
    return relations


def oracle_end_basis(diagram):
    """The commuting tuples of ``compute_end``, solved from A*T_X = T_Y*A.

    The unknowns are the library's block coordinates: coordinate
    i*dim + j of the block of X is entry (j, i) of T_X.  Column k of the
    system holds the entries of A*T_X - T_Y*A, multiplied out with
    oracle_matmul for every input span matrix A: X -> Y, at the tuple that
    is one at coordinate k and zero elsewhere; the basis is oracle_kernel's,
    one vector per free column.
    """
    from coendcalc import Matrix

    field, names = diagram.field, diagram.names()
    unknowns = [
        (name, i, j) for name in names for i in range(diagram.dim(name)) for j in range(diagram.dim(name))
    ]
    columns = []
    for of, i, j in unknowns:
        tup = {}
        for name in names:
            dim = diagram.dim(name)
            tup[name] = Matrix(field, dim, dim, [
                field.one if (name, r, c) == (of, j, i) else field.zero
                for r in range(dim)
                for c in range(dim)
            ])
        col = []
        for x in names:
            for y in names:
                for a in diagram.span(x, y):
                    left = oracle_matmul(field, a, tup[x])
                    right = oracle_matmul(field, tup[y], a)
                    col += [field.sub(p, q) for p, q in zip(left, right)]
        columns.append(col)
    rows = len(columns[0]) if columns else 0
    system = Matrix(field, rows, len(unknowns), [col[r] for r in range(rows) for col in columns])
    return oracle_kernel(field, system)


def oracle_comodule_hom_span(c, m, n):
    """The comodule morphism basis of ``comodule_hom_span``, built with products.

    Each elementary g (flat index in vec order) contributes the column
    vec(rho_n * g - kron(g, I) * rho_m), with g, kron(g, I) and both
    products formed as matrices; the basis is the kernel of the stacked
    columns, solved by ``oracle_kernel``.
    """
    from coendcalc import Matrix, kron
    from coendcalc.linalg import unvec_matrix, vec_matrix

    field = c.field
    dm, dn, nc = m.dim, n.dim, c.dim
    cols = []
    ident = Matrix.identity(field, nc)
    for flat in range(dn * dm):
        g = unvec_matrix(
            field,
            [field.one if k == flat else field.zero for k in range(dn * dm)],
            dn,
            dm,
        )
        defect = n.rho * g - kron(g, ident) * m.rho
        cols.append(vec_matrix(defect))
    if cols:
        system = Matrix(field, len(cols[0]), len(cols), [x for row in zip(*cols) for x in row])
    else:
        system = Matrix(field, dn * nc * dm, 0, [])
    return [unvec_matrix(field, v, dn, dm) for v in oracle_kernel(field, system)]


def oracle_coherence(diagram, tensor):
    """The first object triple (x, y, z) whose comparison maps are not
    coherent, or None, checked one triple at a time with dense products.

    The two sides Phi_{xy,z} (Phi_{x,y} (x) 1) and Phi_{x,yz} (1 (x) Phi_{y,z})
    map into F((xy)z) and F(x(yz)).  A triple whose source has a nonzero
    dimension fails when those objects differ or the two matrices do.
    """
    from itertools import product

    from coendcalc import Matrix, kron

    field, table, phi = diagram.field, tensor.table, tensor.pair_isos
    for x, y, z in product(diagram.names(), repeat=3):
        one_x = Matrix.identity(field, diagram.dim(x))
        one_z = Matrix.identity(field, diagram.dim(z))
        left = phi[(table[(x, y)], z)] * kron(phi[(x, y)], one_z)
        right = phi[(x, table[(y, z)])] * kron(one_x, phi[(y, z)])
        if left.cols and (
            table[(table[(x, y)], z)] != table[(x, table[(y, z)])] or left != right
        ):
            return x, y, z
    return None
