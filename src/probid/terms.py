"""The closed term language of the "simple" pmf family: p(j) proportional
to term(j) on symbols 1..size.  Only a config that names a `simple_pmf`
loads this module (see `hypotheses.build_hypothesis`).
"""

from fractions import Fraction

from .errors import BadSymbol, NonpositiveMass, ProbidError, ZeroDenominator
from .hypotheses import _MAX_PMF_SIZE, HypothesisSpec
from .pmfs import FinitePmf

# Terms are integer functions of one variable j built from constants, j,
# +, * and ^ (a constant on either side of ^ is the intended use, as in
# "j^2" or "2^j"); composition is parenthesization.
# Grammar:  expr := prod ('+' prod)* ; prod := pow ('*' pow)* ;
#           pow := atom ('^' atom)? ; atom := integer | 'j' | '(' expr ')'


class _TermSyntax(ProbidError):
    pass


def _tokenize_term(text):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j])))
            i = j
        elif c == "j":
            tokens.append(("var", None))
            i += 1
        elif c in "+*^()":
            tokens.append((c, None))
            i += 1
        else:
            raise _TermSyntax("bad character %r in term" % c)
    return tokens


def _parse_expr(tokens, pos):
    node, pos = _parse_prod(tokens, pos)
    while pos < len(tokens) and tokens[pos][0] == "+":
        rhs, pos = _parse_prod(tokens, pos + 1)
        node = ("add", node, rhs)
    return node, pos


def _parse_prod(tokens, pos):
    node, pos = _parse_pow(tokens, pos)
    while pos < len(tokens) and tokens[pos][0] == "*":
        rhs, pos = _parse_pow(tokens, pos + 1)
        node = ("mul", node, rhs)
    return node, pos


def _parse_pow(tokens, pos):
    node, pos = _parse_atom(tokens, pos)
    if pos < len(tokens) and tokens[pos][0] == "^":
        rhs, pos = _parse_atom(tokens, pos + 1)
        node = ("pow", node, rhs)
    return node, pos


def _parse_atom(tokens, pos):
    if pos >= len(tokens):
        raise _TermSyntax("unexpected end of term")
    kind, value = tokens[pos]
    if kind == "int":
        return ("int", value), pos + 1
    if kind == "var":
        return ("var",), pos + 1
    if kind == "(":
        node, pos = _parse_expr(tokens, pos + 1)
        if pos >= len(tokens) or tokens[pos][0] != ")":
            raise _TermSyntax("unbalanced parenthesis")
        return node, pos + 1
    raise _TermSyntax("unexpected token %r" % kind)


def _eval_term(node, j):
    op = node[0]
    if op == "int":
        return node[1]
    if op == "var":
        return j
    lhs, rhs = _eval_term(node[1], j), _eval_term(node[2], j)
    if op == "add":
        return lhs + rhs
    if op == "mul":
        _check_bits(lhs.bit_length() + rhs.bit_length(), j)
        return lhs * rhs
    if op == "pow":
        _check_bits(lhs.bit_length() * rhs, j)
        return lhs**rhs
    raise AssertionError(op)


def _check_bits(bits, j):
    """Reject a product or power, before it is computed, whose operands
    allow a result longer than the cap."""
    if bits > _MAX_TERM_BITS:
        raise _TermSyntax("term value past %d bits at j = %d" % (_MAX_TERM_BITS, j))


# The parser recurses four frames per parenthesis and `_eval_term` one per
# operator, so a cap on the tokens of a term keeps both far inside the
# interpreter's recursion limit.  The bit cap bounds each product and power
# from the bit lengths of its operands (sums add a bit each), so a short
# term such as "(2^j)^(2^24)" is rejected at once instead of normalising
# masses of millions of bits; "2^j" evaluates up to j = 32768.
_MAX_TERM_TOKENS = 256
_MAX_TERM_BITS = 1 << 16


def parse_term(text):
    """Compile a closed term over the variable j into an int -> int function."""
    tokens = _tokenize_term(text)
    if len(tokens) > _MAX_TERM_TOKENS:
        raise _TermSyntax("term longer than %d tokens" % _MAX_TERM_TOKENS)
    node, pos = _parse_expr(tokens, 0)
    if pos != len(tokens):
        raise _TermSyntax("trailing input in term %r" % text)
    return lambda j: _eval_term(node, j)


def make_simple_pmf(term, size):
    """Pmf on symbols 1..size with p(j) proportional to term(j).

    `term` is either a term string ("j*j+1", "2^j", ...) or an int -> int
    callable.  Raises ZeroDenominator when the values sum to zero,
    NonpositiveMass when some value is not positive, and BadSymbol, before
    any term is evaluated, when size exceeds `_MAX_PMF_SIZE`.
    """
    if size > _MAX_PMF_SIZE:
        raise BadSymbol("size %d past %d symbols" % (size, _MAX_PMF_SIZE))
    fn = parse_term(term) if isinstance(term, str) else term
    values = [fn(j) for j in range(1, size + 1)]
    total = sum(values)
    if total == 0:
        raise ZeroDenominator("term sums to zero over 1..%d" % size)
    if any(v <= 0 for v in values):
        raise NonpositiveMass("term must be positive on 1..%d" % size)
    spec = None
    if isinstance(term, str):
        spec = HypothesisSpec("simple_pmf", {"term": term, "size": size})
    return FinitePmf(
        [(j, Fraction(values[j - 1], total)) for j in range(1, size + 1)],
        spec=spec,
    )
