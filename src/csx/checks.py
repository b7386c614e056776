"""The audits of csx check, loaded only by it.  No import of csx.cli, which under
python -m csx.cli would load the CLI twice: the CLI passes in its object builders.
"""

from __future__ import annotations

import os
import random
from functools import lru_cache
from itertools import chain, repeat
from operator import itemgetter

from .perms import all_perms, degeneracy_perm, face_perm, inverse
from .simpset import audit_identities


_IDENTITY_TARGETS = ("S", "C", "SC", "delta", "twisted")


def _check_result(name: str, cases: int, counterexample: str | None) -> dict:
    return {"name": name, "cases": cases, "pass": counterexample is None, "counterexample": counterexample}


def _check_identities(args, target: str, objects) -> dict:
    if target not in _IDENTITY_TARGETS:
        raise ValueError(f"unknown identities target {target!r}")
    X, _ = objects[target](args.max_dim, args)
    bad = audit_identities(X)
    cases = sum(X.simplex_count(m) for m in range(X.max_dim + 1))
    return _check_result(f"identities:{target}", cases, bad[0] if bad else None)


@lru_cache(maxsize=4)
def _product_ids(n: int) -> list[tuple[int, ...]]:
    """products[h][f] is the id of h.f, for the words of degree n in lexicographic order.

    The rows of the transpositions t of adjacent values a, a + 1 are computed
    letter by letter.  A word h other than the identity places some a after
    a + 1; then t.h, which swaps them, comes earlier in the order, and since
    h.f = t.(t.h.f), row h is row t read at the entries of row t.h.
    """
    words = all_perms(n)
    index = {w: k for k, w in enumerate(words)}
    size = n + 1
    flat = tuple(chain.from_iterable(words))
    swaps = []
    for a in range(size - 1):
        t = [*range(a), a + 1, a, *range(a + 2, size)]
        # t applied to every letter of every word, cut back into words
        swaps.append(tuple(map(index.__getitem__, zip(*[map(t.__getitem__, flat)] * size))))
    products = [tuple(range(len(words)))]
    for k, h in enumerate(words[1:], start=1):
        place = inverse(h)
        row = swaps[next(a for a in range(size - 1) if place[a] > place[a + 1])]
        products.append(tuple(map(row.__getitem__, products[row[k]])))
    return products


def _crossed_block(op, words, products):
    """The least (f, h, i), as ids, at which op breaks the crossed relation on words.

    products[h][f] is the id of h.f.  The words op(i, w), tabulated once per
    word, are laid end to end over all w in flat[i].  For each (h, i) the
    letters of the words op(i, h.f) over all f, read out of flat[i] by one
    getter per h, are compared in one pass with op(i, h) read at the letters
    of flat[j], j = h^-1(i), by one getter per j.
    """
    rows = [[op(i, w) for i in range(len(w))] for w in words]
    size = len(rows[0][0])
    flat = [tuple(chain.from_iterable(col)) for col in zip(*rows)]
    at_letters = [itemgetter(*letters) for letters in flat]
    spans = [range(k * size, (k + 1) * size) for k in range(len(words))]
    bad = []
    for h, (hf, row) in enumerate(zip(products, rows)):
        at_hf = itemgetter(*chain.from_iterable(map(spans.__getitem__, hf)))
        for i, j in enumerate(inverse(words[h])):
            got, want = at_hf(flat[i]), at_letters[j](row[i])
            if got != want:
                f = next(f for f, s in enumerate(spans) if got[s.start : s.stop] != want[s.start : s.stop])
                bad.append((f, h, i))
    return min(bad, default=None)


# seeded word pairs drawn per relation at each degree above 4
_SAMPLES = 2000


def _draws(rng, n: int, count: int):
    """count seeded words of degree n, each tuple(rng.sample(range(n + 1), n + 1)), drawn for less.

    For a population of at most 21 values, random.Random.sample draws from a
    pool: at each of the n + 1 places it takes j below the pool size from
    _randbelow, which calls rng.getrandbits(size.bit_length()) until the
    value is below the size, and moves the pool's last value into place j.
    This is that loop written out, so it makes the same getrandbits calls in
    the same order and yields the same words, leaving the rng in the same
    state; it skips sample's argument checks and set-size estimate, and
    works out each place's pool size and bit count once for all the words.
    """
    getrandbits = rng.getrandbits
    places = [(size, size.bit_length()) for size in range(n + 1, 0, -1)]
    for _ in range(count):
        pool = list(range(n + 1))
        word = []
        for size, bits in places:
            j = getrandbits(bits)
            while j >= size:
                j = getrandbits(bits)
            word.append(pool[j])
            pool[j] = pool[size - 1]
        yield tuple(word)


class _Rows(dict):
    """The row (op(0, w), ..., op(n, w)) of each word w, a tuple computed on its first read."""

    def __init__(self, op, n: int):
        super().__init__()
        self.op, self.indices = op, range(n + 1)

    def __missing__(self, w):
        row = self[w] = tuple(map(self.op, self.indices, repeat(w)))
        return row


def _crossed_sampled(op, n: int, rng):
    """The first (h, f, i) among the seeded pairs of degree n at which op breaks the relation.

    Every pair is drawn and compared, whatever fails, so the rng stream does
    not depend on op.  The rows op(i, w) are kept per degree, so each
    distinct word h, f or h.f has its row computed once.  The n + 1 words
    op(i, h.f) of a pair are compared with their values at once, taken in
    the order i = h(0), h(1), ..., where op(i, h.f) = op(i, h) . op(j, f)
    with h(j) = i; each composite, h.f among them, is read through a getter.
    """
    rows = _Rows(op, n)
    words = _draws(rng, n, 2 * _SAMPLES)
    first = None
    for f, h in zip(words, words):
        at_h = itemgetter(*h)
        got, op_h, op_f = at_h(rows[itemgetter(*f)(h)]), at_h(rows[h]), rows[f]
        want = [itemgetter(*b)(a) for a, b in zip(op_h, op_f)]
        if list(got) != want and first is None:
            first = (h, f, min(i for i, a, b in zip(h, got, want) if a != b))
    return first


def _check_crossed(args) -> list[dict]:
    """The records of d_i(h.f) = d_i h . d_{h^-1(i)} f, then of the same for s_i.

    Through degree 4 every pair of words is checked on blocks of ids, with
    the ids of h.f tabulated once per degree for both relations; above,
    seeded samples, drawn from one rng by the face relation and then the
    degeneracy relation.  Each relation stops after its first degree with a
    counterexample.
    """
    rng = random.Random(args.seed)
    out = []
    for rel, op in (("face", face_perm), ("degeneracy", degeneracy_perm)):
        cases, counterexample = 0, None
        for n in range(1, args.max_dim + 1):
            if n <= 4:
                words = all_perms(n)
                cases += len(words) ** 2 * (n + 1)
                bad = _crossed_block(op, words, _product_ids(n))
                if bad:
                    f, h, i = bad
                    counterexample = f"n={n} h={words[h]} f={words[f]} i={i}"
            else:
                cases += _SAMPLES * (n + 1)
                bad = _crossed_sampled(op, n, rng)
                if bad:
                    h, f, i = bad
                    counterexample = f"n={n} h={h} f={f} i={i}"
            if counterexample:
                break
        out.append(_check_result(f"crossed:{rel}", cases, counterexample))
    return out


def _check_lemmas(args, suite: str) -> list[dict]:
    """The pullback and upsilon lemmas the suite names, sharing one E(g) per word.

    Both lemmas walk the same words: every word through degree 3, and two
    seeded words at degree 4.  The comparison of g reads E(g) for the
    pullback lemma and E(g^-1) for the upsilon lemma, so the comparisons of
    a degree are grouped by the word of the E they read, which takes the
    words in pairs {g, g^-1}.  Each E is built once, through bundles.E_of,
    and dropped once every comparison reading it has run.  The pullback P
    that the pullback lemma compares E(g) with depends only on the rotation
    class of g, so the Es are walked class by class, and each class builds
    its P on its first pullback comparison and drops it when it is done.
    Each lemma reports its own first failing word and stops after that
    degree.
    """
    from . import bundles

    lemmas = [
        (name, reads)
        for key, name, reads in (("lemma", "lemma:pullback", lambda g: g), ("upsilon", "lemma:upsilon", inverse))
        if suite in (key, "all")
    ]
    rng = random.Random(args.seed)
    cases = [0] * len(lemmas)
    found = [None] * len(lemmas)
    for n in range(min(args.max_dim - 1, 4) + 1):
        live = [k for k, bad in enumerate(found) if bad is None]
        if not live:
            break
        if n <= 3:
            words = all_perms(n)
        else:
            words = list(_draws(rng, n, 2))
        readers, classes = {}, {}
        for g in words:
            for k in live:
                readers.setdefault(lemmas[k][1](g), []).append((k, g))
        for w in readers:
            # the 0-first word of w's rotation class
            classes.setdefault(w[w.index(0) :] + w[: w.index(0)], []).append(w)
        failed = set()
        for c, ws in classes.items():
            pulled = None
            for w in ws:
                bundle = bundles.E_of(w, n + 1)
                for k, g in readers[w]:
                    if lemmas[k][0] == "lemma:upsilon":
                        ok = bundles.upsilon_comparison(g, n + 1, bundle)
                    else:
                        pulled = pulled or bundles.class_pullback(c, n + 1)
                        ok = bundles.pullback_comparison(g, n + 1, bundle, pulled)
                    if not ok:
                        failed.add((k, g))
                # before the next E is built, which would otherwise raise the peak by one E
                del bundle
        for k in live:
            cases[k] += len(words)
            found[k] = next((f"g={g}" for g in words if (k, g) in failed), None)
    return [_check_result(name, c, bad) for (name, _), c, bad in zip(lemmas, cases, found)]


def _fork_call(fn, *args):
    """Start fn(*args) in a forked child; return (pid, read end of its pipe), or None.

    None means os.fork is missing or failed, and the caller runs fn itself.
    The child sends pickle.dumps((True, value)), or (False, exception,
    traceback text) if fn raises, then leaves by os._exit: it runs no atexit
    handler and never flushes the stdio buffers it shares with the parent.
    The CLI starts no thread, so the child inherits no lock held elsewhere.
    """
    import pickle

    fork = getattr(os, "fork", None)
    if fork is None:
        return None
    r, w = os.pipe()
    try:
        pid = fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid:
        os.close(w)
        return pid, r
    code = 1
    try:
        os.close(r)
        try:
            result = pickle.dumps((True, fn(*args)))
        except Exception as e:
            import traceback

            result = pickle.dumps((False, e, traceback.format_exc()))
        with os.fdopen(w, "wb") as fh:
            fh.write(result)
        code = 0
    finally:
        os._exit(code)


def _reap(child) -> tuple[bytes, int]:
    """Read what the child sent to EOF, then reap it: those bytes and its wait status."""
    pid, r = child
    with os.fdopen(r, "rb") as fh:
        sent = fh.read()
    return sent, os.waitpid(pid, 0)[1]


def _child_value(sent: bytes, status: int):
    """The value the child sent, or its exception raised here with its traceback as the cause."""
    import pickle

    if status:
        raise RuntimeError(f"forked child ended without a result (wait status {status})")
    ok, value, *text = pickle.loads(sent)
    if not ok:
        raise value from RuntimeError(f"in the forked child:\n{text[0]}")
    return value


def cmd_check(args, objects) -> tuple[dict, int]:
    """Run the suite named: identity audits, then crossed relations, then lemmas.

    args are the CLI's parsed arguments, and objects maps each object the
    identity audits read to its builder of (max_dim, args).

    For check all on two or more CPUs, the crossed sweep (no object built,
    its own seeded rng) runs in a forked child while this process runs the
    other suites, with the same records; on one CPU, or where os.fork is
    unavailable, it runs here, in turn.  The child is read to EOF and
    reaped on every path.
    """
    suite = args.suite
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    child = _fork_call(_check_crossed, args) if suite == "all" and cpus >= 2 else None
    identities, crossed, lemmas = [], [], []
    try:
        if suite in ("identities", "all"):
            targets = [args.target] if suite == "identities" and args.target else _IDENTITY_TARGETS
            identities = [_check_identities(args, t, objects) for t in targets]
        if suite == "crossed" or suite == "all" and child is None:
            crossed = _check_crossed(args)
        if suite in ("lemma", "upsilon", "all"):
            lemmas = _check_lemmas(args, suite)
    finally:
        if child:
            sent, status = _reap(child)
    if child:
        crossed = _child_value(sent, status)
    checks = identities + crossed + lemmas
    if not checks:
        raise ValueError(f"unknown check suite {suite!r}")
    ok = all(c["pass"] for c in checks)
    report = {
        "command": "check",
        "suite": suite,
        "max_dim": args.max_dim,
        "seed": args.seed,
        "checks": checks,
        "pass": ok,
    }
    return report, 0 if ok else 1
