"""The pruned scan, the tensor split and the memoised basis against oracles.

The oracle scan ranks every map (times ell^d): M_i -> M_{i+d}, as the
scan did before maps implied by a longer injective or surjective map were
skipped, by exact elimination only.  It builds each map by adding exponent
tuples, as the package did before it packed exponents into integers.  Both
live only here.
"""

import random
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from lefschetz import (
    ExactMatrix,
    LinearForm,
    MapFailure,
    Monomial,
    MonomialIdeal,
    QuotientModule,
    Summand,
    TensorCondition,
    algebra_quotient,
    check_slp,
    direct_sum_check,
    monomials_of_degree,
    mult_matrix,
    parse_ideal,
    tensor_slp_condition,
    tensor_truncation_failures,
    type_two_ideal,
    variable_power,
)
import lefschetz.lefschetz as lefschetz_module
from lefschetz.exact import CERTIFICATE_PRIME
from lefschetz.lefschetz import (
    _failures_of,
    _images,
    _module_strings,
    _pack,
    _packed_power,
    _scan_maps,
    _split_strings,
    _strings,
)
from lefschetz.series import HilbertSeries, sum_series
from lefschetz.sweeps import (
    _tensor_module,
    _tensor_params,
    _type_two_params,
    algebra_corpus,
    two_variable_corpus,
)
from test_monomials import artinian_modules


def tuple_matrix_between(source, target, expansion):
    """Matrix of multiplication by an expanded form power, target x source."""
    index = {m.exponents: i for i, m in enumerate(target)}
    data = [[0] * len(source) for _ in range(len(target))]
    for j, u in enumerate(source):
        for exps, coeff in expansion:
            w = tuple(a + b for a, b in zip(u.exponents, exps))
            i = index.get(w)
            if i is not None:
                data[i][j] += coeff
    if not target:
        return ExactMatrix.zeros(0, len(source))
    return ExactMatrix.from_rows(data)


def unpruned_failures(summands, only_d_one):
    """Every map of the block-diagonal scan ranked, failures in (d, i) order."""
    series = sum_series(s.series() for s in summands)
    if series.is_zero:
        return ()
    p, q = series.start, series.end

    def basis(s, d):
        return s.module.degree_basis(d - s.shift) if d >= s.shift else []

    failures = []
    for d in range(1, (1 if only_d_one else q - p) + 1):
        for i in range(p, q - d + 1):
            sources = [basis(s, i) for s in summands]
            targets = [basis(s, i + d) for s in summands]
            expected = min(sum(map(len, sources)), sum(map(len, targets)))
            if expected == 0:
                continue
            blocks = [
                tuple_matrix_between(src, tgt, s.resolved_form().power_expansion(d))
                for s, src, tgt in zip(summands, sources, targets)
            ]
            rank = ExactMatrix.block_diagonal(blocks).rank()
            if rank != expected:
                failures.append(MapFailure(i=i, d=d, rank=rank, expected=expected))
    return tuple(failures)


def unpruned_jordan_type(module, form):
    """Block sizes of (times form), from the unpruned scan's exact ranks.

    A map the oracle passes has rank min(h_i, h_(i+d)); the rank r_d of
    ell^d on the module sums over i, r_(s-1) - r_s blocks have size at
    least s, and the partition is the conjugate of those counts.
    """
    h = module.hilbert_series().coeffs
    ranks = [sum(h)] + [sum(min(a, b) for a, b in zip(h, h[d:])) for d in range(1, len(h) + 1)]
    for failure in unpruned_failures([Summand(module, form=form)], only_d_one=False):
        ranks[failure.d] -= failure.expected - failure.rank
    at_least = [ranks[s - 1] - ranks[s] for s in range(1, len(h) + 1)]
    blocks = at_least[0] if at_least else 0
    return tuple(sum(1 for count in at_least if count >= j) for j in range(1, blocks + 1))


def strings_series(strings):
    """The Hilbert series of a graded Jordan type: h_i counts the strings through i."""
    top = max((s + m for s, m in strings), default=0)
    return HilbertSeries.from_coefficients(
        0, [sum(s <= i < s + m for s, m in strings) for i in range(top)]
    )


def filtered_basis(module, d):
    """The degree-d basis by filtering every degree-d monomial."""
    return [
        m
        for m in monomials_of_degree(module.nvars, d)
        if module.numerator.contains(m) and not module.denominator.contains(m)
    ]


def assert_scans_agree(summands):
    """The direct sum's decision, and the pruned scan of a lone unshifted
    module, against the unpruned scan under both properties."""
    for prop in ("WLP", "SLP"):
        only_d_one = prop == "WLP"
        unpruned = unpruned_failures(summands, only_d_one)
        assert direct_sum_check(summands, property=prop).failures == unpruned
        if len(summands) == 1 and not summands[0].shift:
            summand = summands[0]
            assert _scan_maps(summand.module, summand.resolved_form(), only_d_one) == unpruned
    return bool(unpruned)


def random_module(rng, nvars):
    """A small Artinian quotient (I + J)/J with random mixed generators."""
    box = [rng.randint(2, 4) for _ in range(nvars)]
    den = [Monomial(tuple(box[v] if v == u else 0 for v in range(nvars))) for u in range(nvars)]
    for _ in range(rng.randint(0, 2)):
        den.append(Monomial(tuple(rng.randint(0, b - 1) for b in box)))
    num = [Monomial(tuple(rng.randint(0, 2) for _ in range(nvars)))
           for _ in range(rng.randint(0, 2))]
    numerator = (
        MonomialIdeal.from_generators(num, nvars) if num else MonomialIdeal.unit(nvars)
    )
    return QuotientModule(numerator, MonomialIdeal.from_generators(den, nvars))


def random_form(rng, nvars):
    """All-ones, or small coefficients that include zeros, so that some scans fail."""
    if rng.random() < 0.3:
        return LinearForm.all_ones(nvars)
    coeffs = [rng.randint(-1, 2) for _ in range(nvars)]
    if not any(coeffs):
        coeffs[0] = 1
    return LinearForm(tuple(coeffs))


def test_pruned_scan_matches_oracle_on_seeded_modules():
    rng = random.Random(2024)
    failing = 0
    for case in range(150):
        nvars = 2 + case % 2
        module = random_module(rng, nvars)
        failing += assert_scans_agree([Summand(module, form=random_form(rng, nvars))])
    assert 10 <= failing <= 140


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pruned_scan_matches_oracle_on_generated_modules(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    nvars = data.draw(st.integers(2, 3))
    rng = random.Random(seed)
    module = random_module(rng, nvars)
    assert_scans_agree([Summand(module, form=random_form(rng, nvars))])


def test_pruned_scan_matches_oracle_on_direct_sums():
    rng = random.Random(7)
    failing = 0
    for _ in range(40):
        nvars = rng.randint(2, 3)
        summands = [
            Summand(random_module(rng, nvars), shift=rng.randint(0, 3),
                    form=random_form(rng, nvars))
            for _ in range(rng.randint(2, 3))
        ]
        failing += assert_scans_agree(summands)
    assert failing


def test_pruned_scan_matches_oracle_on_sweep_corpora():
    modules = []
    for alpha, beta, a, b in _tensor_params(3):
        numerator = MonomialIdeal.from_generators([Monomial((alpha, 0)), Monomial((0, beta))])
        box = MonomialIdeal.from_generators([Monomial((a, 0)), Monomial((0, b))])
        base = QuotientModule(numerator, box)
        if tensor_slp_condition(alpha, beta, a, b) is not TensorCondition.NONE:
            modules.extend(base.tensor_truncation(c) for c in range(1, a + b + 1))
    modules.extend(algebra_quotient(type_two_ideal(*p)) for p in _type_two_params(3))
    assert len(modules) > 100
    for module in modules:
        assert_scans_agree([Summand(module)])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 4),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.lists(st.integers(-4, 4), min_size=4, max_size=4),
    st.booleans(),
)
def test_packed_assembly_matches_tuple_reference(nvars, seed, numerator, coeffs, negate):
    module = random_module(random.Random(seed), nvars)
    if not numerator:
        module = QuotientModule(MonomialIdeal.unit(nvars), module.denominator)
    coeffs = coeffs[:nvars] if any(coeffs[:nvars]) else [1] * nvars
    form = LinearForm(tuple(-abs(c) for c in coeffs) if negate else tuple(coeffs))
    top = module.top_degree_bound()
    # Degrees up to top + 1, so some sources and targets are empty.
    for i in range(top + 2):
        for d in range(1, top + 3 - i):
            packed = mult_matrix(module, form, d, i)
            reference = tuple_matrix_between(
                module.degree_basis(i), module.degree_basis(i + d), form.power_expansion(d)
            )
            assert packed == reference


# Form coefficients that are negative, multiples of the certificate prime,
# or large, so a power's coefficients are rarely residues already.
form_coefficients = st.one_of(
    st.integers(-5, 5),
    st.sampled_from([CERTIFICATE_PRIME, -CERTIFICATE_PRIME, 2 * CERTIFICATE_PRIME + 1]),
    st.integers(-(2**20), 2**20),
)


def codes(module, degree, shift):
    return [_pack(m.exponents, shift) for m in module.degree_basis(degree)]


def unpack(code, shift, nvars):
    """The exponent vector of a code, read one digit of radix 2^shift per slot."""
    digits = []
    for _ in range(nvars):
        digits.append(code & ((1 << shift) - 1))
        code >>= shift
    return tuple(reversed(digits))


@settings(max_examples=80, deadline=None)
@given(
    artinian_modules(),
    st.lists(form_coefficients, min_size=4, max_size=4),
    st.integers(1, 4),
)
def test_images_mod_p_are_the_matrix_columns_mod_p(module, coeffs, d):
    _packed_power.cache_clear()
    coeffs = coeffs[: module.nvars]
    form = LinearForm(tuple(coeffs) if any(coeffs) else (1,) * module.nvars)
    p = CERTIFICATE_PRIME
    for i in range(module.top_degree_bound() + 1):
        matrix = mult_matrix(module, form, d, i)
        # mult_matrix's radix, so its integer table is cached beside this one
        shift = (i + d).bit_length()
        images = _images(
            codes(module, i, shift), codes(module, i + d, shift), _packed_power(form, d, shift, p)
        )
        assert len(images) == matrix.cols
        for j, image in enumerate(images):
            assert image == [matrix.at(r, j) % p for r in range(matrix.rows)]


class Steered(dict):
    """A packed power that reports a chosen length, so that :func:`_images`
    takes the lookup branch (a length at least the target's) or the
    scatter branch (a shorter one) whatever its true length."""

    def __init__(self, table, length):
        super().__init__(table)
        self.length = length

    def __len__(self):
        return self.length


@st.composite
def packed_modules(draw):
    """(I + J)/J in 1, 3 or 4 variables; top degrees reach 2^k - 1 and 2^k."""
    nvars = draw(st.sampled_from([1, 3, 4]))
    top_cap = {1: 18, 3: 5, 4: 3}[nvars]
    caps = draw(st.tuples(*[st.integers(1, top_cap)] * nvars))
    exps = st.tuples(*[st.integers(0, top_cap - 1)] * nvars).map(Monomial)
    den = [variable_power(nvars, v, c) for v, c in enumerate(caps)]
    den += draw(st.lists(exps, max_size=2))
    num = draw(st.lists(exps, max_size=2))
    return QuotientModule(
        MonomialIdeal.from_generators(num, nvars) if num else MonomialIdeal.unit(nvars),
        MonomialIdeal.from_generators(den, nvars),
    )


def algebra(den, nvars):
    return algebra_quotient(parse_ideal(den, nvars))


# Top degrees 7, 8, 15, 16 and 17 sit next to a radix boundary; the forms
# hold zero, negative, 32749-multiple and large coefficients.
@example(algebra("x^3, y^3, z^4", 3), (1, -2, CERTIFICATE_PRIME, 0))
@example(algebra("x^3, y^3, z^5, x*y*z^2", 3), (2 * CERTIFICATE_PRIME + 1, 0, -1, 0))
@example(algebra("x^3, y^3, z^3, t^2", 4), (-(2**20), 3, 0, 1))
@example(algebra("x^3, y^3, z^3, t^3, x^2*y^2*z^2*t^2", 4), (1, 1, 1, 1))
@example(algebra("x^16", 1), (-3, 0, 0, 0))
@example(algebra("x^17", 1), (-CERTIFICATE_PRIME, 0, 0, 0))
@example(QuotientModule(parse_ideal("x^8", 1), parse_ideal("x^18", 1)), (2**20, 0, 0, 0))
@settings(max_examples=60, deadline=None)
@given(packed_modules(), st.lists(form_coefficients, min_size=4, max_size=4))
def test_packed_images_match_tuple_oracle(module, coeffs):
    _packed_power.cache_clear()
    coeffs = coeffs[: module.nvars]
    form = LinearForm(tuple(coeffs) if any(coeffs) else (1,) * module.nvars)
    p = CERTIFICATE_PRIME
    series = module.hilbert_series()
    top = 0 if series.is_zero else series.end
    for i in range(top + 1):
        for d in range(1, top + 1 - i):
            reference = tuple_matrix_between(
                module.degree_basis(i), module.degree_basis(i + d), form.power_expansion(d)
            )
            assert mult_matrix(module, form, d, i) == reference
            columns = [[reference.at(r, j) for r in range(reference.rows)]
                       for j in range(reference.cols)]
            residues = [[e % p for e in column] for column in columns]
            # the map's own radix, as in mult_matrix, and the scan's
            for shift in {(i + d).bit_length(), top.bit_length()}:
                source, target = codes(module, i, shift), codes(module, i + d, shift)
                for modulus, expected in ((None, columns), (p, residues)):
                    table = _packed_power(form, d, shift, modulus)
                    assert _images(source, target, table) == expected
                    for length in (0, len(target)):
                        assert _images(source, target, Steered(table, length)) == expected
    # every map the scan assembles, mod p or over the integers when it falls
    # short, on the radix it chose, is the oracle's
    powers = {}

    def spy_packed(ell, d, shift, modulus):
        table = _packed_power(ell, d, shift, modulus)
        powers[id(table)] = (d, shift, modulus)
        return table

    def spy_images(source, target, table):
        d, shift, modulus = powers[id(table)]
        bases = []
        for packed in (source, target):
            vectors = [unpack(code, shift, module.nvars) for code in packed]
            # the codes are one degree's basis, packed with no digit overflowing
            bases.append(module.degree_basis(sum(vectors[0])))
            assert vectors == [m.exponents for m in bases[-1]]
        reference = tuple_matrix_between(*bases, form.power_expansion(d))
        images = _images(source, target, table)
        for j, image in enumerate(images):
            column = [reference.at(r, j) for r in range(reference.rows)]
            assert image == (column if modulus is None else [e % modulus for e in column])
        return images

    with mock.patch.object(lefschetz_module, "_packed_power", spy_packed), \
            mock.patch.object(lefschetz_module, "_images", spy_images):
        failures = _scan_maps(module, form, False)
    assert failures == unpruned_failures([Summand(module, form=form)], only_d_one=False)


@st.composite
def two_variable_modules(draw):
    """(I + J)/J in k[x, y]: I has 1-5 generators, J mixed ones besides its pure powers."""
    exps = st.tuples(st.integers(0, 5), st.integers(0, 5)).map(Monomial)
    mixed = st.tuples(st.integers(1, 5), st.integers(1, 5)).map(Monomial)
    caps = draw(st.tuples(st.integers(1, 7), st.integers(1, 7)))
    den = [variable_power(2, v, c) for v, c in enumerate(caps)]
    den += draw(st.lists(mixed, min_size=1, max_size=3))
    num = draw(st.lists(exps, min_size=1, max_size=5))
    return QuotientModule(
        MonomialIdeal.from_generators(num, 2), MonomialIdeal.from_generators(den, 2)
    )


def parsed_module(num, den):
    return QuotientModule(parse_ideal(num, 2), parse_ideal(den, 2))


# Connected failing modules under the all-ones form, a negative form, a zero
# coefficient and a multiple of the certificate prime.
@example(parsed_module("x^6, y", "x^9, x^6*y^2, y^3"), (1, 1))
@example(parsed_module("x^4, y", "x^7, x^4*y^2, y^3"), (-2, 3))
@example(parsed_module("x, y^2", "x^4, x*y^3, y^5"), (1, 0))
@example(parsed_module("1", "x^3, x*y, y^3"), (0, -1))
@example(parsed_module("x^6, y", "x^9, x^6*y^2, y^3"), (CERTIFICATE_PRIME, -1))
@settings(max_examples=150, deadline=None)
@given(two_variable_modules(), st.tuples(form_coefficients, form_coefficients))
def test_window_rank_scan_matches_oracle_on_two_variable_modules(module, coeffs):
    form = LinearForm(coeffs if any(coeffs) else (1, 1))
    for only_d_one in (True, False):
        unpruned = unpruned_failures([Summand(module, form=form)], only_d_one)
        assert _scan_maps(module, form, only_d_one) == unpruned


def test_packed_assembly_handles_empty_bases():
    # (x)/(x^2, y^2): M_0 is empty, M_2 = <xy>, M_3 is empty
    module = QuotientModule(
        MonomialIdeal.from_generators([Monomial((1, 0))]),
        MonomialIdeal.from_generators([Monomial((2, 0)), Monomial((0, 2))]),
    )
    form = LinearForm((-1, 3))
    for d, i, shape in [(1, 0, (1, 0)), (2, 0, (1, 0)), (1, 2, (0, 1)), (1, 3, (0, 0))]:
        packed = mult_matrix(module, form, d, i)
        assert (packed.rows, packed.cols) == shape
        assert packed == tuple_matrix_between(
            module.degree_basis(i), module.degree_basis(i + d), form.power_expansion(d)
        )
    assert mult_matrix(module, form, 1, 1) == ExactMatrix.from_rows([[3]])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_memoised_basis_matches_filtered_enumeration(data):
    nvars = data.draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * nvars).map(Monomial)
    num = data.draw(st.lists(exps, max_size=3))
    caps = data.draw(st.lists(st.integers(1, 4), min_size=nvars, max_size=nvars))
    den = [variable_power(nvars, v, c) for v, c in enumerate(caps)]
    den += data.draw(st.lists(exps, max_size=3))
    module = QuotientModule(
        MonomialIdeal.from_generators(num, nvars) if num else MonomialIdeal.unit(nvars),
        MonomialIdeal.from_generators(den, nvars),
    )
    for d in range(8):
        # The first call builds the index, the second reads it.
        assert module.degree_basis(d) == filtered_basis(module, d)
        assert module.degree_basis(d) == filtered_basis(module, d)


def test_memoised_basis_is_not_shared_with_callers():
    module = algebra_quotient(MonomialIdeal.from_generators([Monomial((2, 0)), Monomial((0, 2))]))
    module.degree_basis(1).clear()
    assert module.degree_basis(1) == [Monomial((1, 0)), Monomial((0, 1))]


def test_pruned_scan_skips_implied_maps(monkeypatch):
    module = algebra_quotient(
        MonomialIdeal.from_generators([Monomial((4, 0, 0)), Monomial((0, 4, 0)), Monomial((0, 0, 4))])
    )
    ranked = []
    rank = ExactMatrix.rank
    kernel = lefschetz_module._rank_mod_p

    def counting_rank(matrix):
        ranked.append(matrix.rows)
        return rank(matrix)

    def counting_kernel(lines):
        ranked.append(len(lines))
        return kernel(lines)

    monkeypatch.setattr(ExactMatrix, "rank", counting_rank)
    monkeypatch.setattr(lefschetz_module, "_rank_mod_p", counting_kernel)
    assert _scan_maps(module, LinearForm.all_ones(3), False) == ()
    pruned = len(ranked)
    ranked.clear()
    assert unpruned_failures([Summand(module)], only_d_one=False) == ()
    assert 0 < pruned < len(ranked) // 4


def split_module(rng, nvars):
    """A module that is a tensor product over at least two variable classes.

    Each class gets its own box and mixed generators, and the numerator
    lives in one class, so no generator joins two classes.
    """
    labels = [0, 1] + [rng.randint(0, 2) for _ in range(nvars - 2)]
    rng.shuffle(labels)
    classes = [[v for v in range(nvars) if labels[v] == k] for k in set(labels)]
    box = [rng.randint(1, 4 if nvars < 4 else 3) for _ in range(nvars)]
    den = [variable_power(nvars, v, box[v]) for v in range(nvars)]
    for variables in classes:
        for _ in range(rng.randint(0, 2) if len(variables) > 1 else 0):
            exps = [rng.randint(1, box[v]) if v in variables else 0 for v in range(nvars)]
            den.append(Monomial(tuple(exps)))
    home = rng.choice(classes)
    num = [
        Monomial(tuple(rng.randint(0, 2) if v in home else 0 for v in range(nvars)))
        for _ in range(rng.randint(0, 2))
    ]
    numerator = MonomialIdeal.from_generators(num, nvars) if num else MonomialIdeal.unit(nvars)
    return QuotientModule(numerator, MonomialIdeal.from_generators(den, nvars)), classes


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 4),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["ones", "signed", "partial", "zero"]),
)
def test_split_decision_matches_scan(nvars, seed, kind):
    rng = random.Random(seed)
    module, classes = split_module(rng, nvars)
    coeffs = [1] * nvars if kind == "ones" else [rng.choice([-2, -1, 1, 2]) for _ in range(nvars)]
    if kind == "partial":
        # zero on one variable of a class, so that factor often fails and
        # the split reports failures read from the factors
        coeffs[rng.choice(max(classes, key=len))] = 0
    if kind == "zero":
        # zero on a whole class, which leaves the module to the scan
        for v in rng.choice(classes):
            coeffs[v] = 0
    form = LinearForm(tuple(coeffs))
    assert check_slp(module, form).failures == _scan_maps(module, form, False)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2**32 - 1), st.booleans())
def test_jordan_type_matches_every_ranked_map(nvars, seed, split):
    rng = random.Random(seed)
    module = split_module(rng, nvars)[0] if split else random_module(rng, min(nvars, 3))
    form = random_form(rng, module.nvars)
    summands = [Summand(module, form=form)]
    strings = _module_strings(module, form)
    # the string lengths are the ungraded Jordan type
    lengths = tuple(sorted((m for _, m in strings), reverse=True))
    assert lengths == unpruned_jordan_type(module, form)
    # every r(i, d) and h_i = r(i, 0) pin the graded type
    assert _failures_of(strings) == unpruned_failures(summands, only_d_one=False)
    assert strings_series(strings) == module.hilbert_series()
    # the scan route, which split modules skip in the helper
    scanned = _scan_maps(module, form, False)
    assert sorted(_strings(module.hilbert_series(), scanned)) == sorted(strings)
    split = _split_strings(module, form)
    if split is not None:
        assert sorted(split) == sorted(strings)


def test_split_decision_matches_scan_on_lemma_corpora():
    tensored = []
    for alpha, beta, a, b in _tensor_params(3):
        numerator = MonomialIdeal.from_generators([Monomial((alpha, 0)), Monomial((0, beta))])
        box = MonomialIdeal.from_generators([Monomial((a, 0)), Monomial((0, b))])
        tensored.append((QuotientModule(numerator, box), a + b))
    for module in [*two_variable_corpus(2), *algebra_corpus(3)]:
        tensored.append((module, module.socle_degree() + 2))
    cases = split_failing = 0
    for module, bound in tensored:
        forms = [LinearForm.all_ones(module.nvars + 1), LinearForm((2, -1, 3)[-module.nvars - 1:])]
        for c in range(1, bound + 1):
            truncation = module.tensor_truncation(c)
            for form in forms:
                report = check_slp(truncation, form)
                assert report.failures == _scan_maps(truncation, form, False)
                cases += 1
                split = _split_strings(truncation, form) is not None
                split_failing += split and not report.holds
    # some split modules fail, and their failures are read from the factors
    assert cases > 1000 and split_failing


def scanned_failing_heights(module, heights, form, property):
    """The heights whose truncation fails the scan with the form (form, 1)."""
    extended = LinearForm(form.coefficients + (1,))
    return [
        c
        for c in heights
        if _scan_maps(module.tensor_truncation(c), extended, property == "WLP")
    ]


def signed_form(nvars):
    return LinearForm((2, -3)[-nvars:])


def test_truncation_failures_match_scan_on_tensor_params():
    failing = 0
    for alpha, beta, a, b in _tensor_params(4):
        module = _tensor_module(alpha, beta, a, b)
        heights = range(1, a + b + 3)
        for form in (LinearForm.all_ones(2), signed_form(2)):
            got = tensor_truncation_failures(module, heights, form)
            assert got == scanned_failing_heights(module, heights, form, "SLP")
            failing += len(got)
    assert failing


def test_truncation_failures_match_scan_on_lemma_corpora():
    failing = {"SLP": 0, "WLP": 0}
    for module in [*two_variable_corpus(3), *algebra_corpus(3)]:
        heights = range(1, module.socle_degree() + 3)
        # y alone fails the WLP on some truncations; the other two do not here
        partial = LinearForm((0, 1)[-module.nvars:])
        for form in (LinearForm.all_ones(module.nvars), signed_form(module.nvars), partial):
            for property in failing:
                got = tensor_truncation_failures(module, heights, form, property)
                assert got == scanned_failing_heights(module, heights, form, property)
                failing[property] += len(got)
    assert all(failing.values())
