"""The audits of csx check, loaded only by it.  No import of csx.cli, which under
python -m csx.cli would load the CLI twice: the CLI passes in its object builder.
"""

from __future__ import annotations

import os
import random
from functools import partial
from itertools import chain
from math import factorial
from operator import itemgetter

from .perms import all_perms, degeneracy_perm, face_perm, inverse
from .simpset import audit_identities


_IDENTITY_TARGETS = ("S", "C", "SC", "delta", "twisted")


def _check_result(name: str, cases: int, counterexample: str | None) -> dict:
    return {"name": name, "cases": cases, "pass": counterexample is None, "counterexample": counterexample}


def _check_identities(cfg, target: str, build) -> dict:
    X, _ = build(target, _IDENTITY_TARGETS, "identities target", cfg)
    bad = audit_identities(X)
    cases = sum(X.simplex_count(m) for m in range(X.max_dim + 1))
    return _check_result(f"identities:{target}", cases, bad[0] if bad else None)


def _product_ids(words) -> list[list[int]]:
    """products[h][f] is the id of h.f, for words numbered in the order given."""
    index = {w: k for k, w in enumerate(words)}
    flat = tuple(chain.from_iterable(words))
    # h applied to every letter of every word, cut back into words
    return [list(map(index.__getitem__, zip(*[map(h.__getitem__, flat)] * len(h)))) for h in words]


def _crossed_block(op, words, products):
    """The least (f, h, i), as ids, at which op breaks the crossed relation on words.

    products[h][f] is the id of h.f.  For each (h, i) the words op(i, h.f)
    over all f, gathered from the rows op(i, w) tabulated once per word, are
    compared in one pass with op(i, h) applied to the letters of the words
    op(h^-1(i), f) laid end to end.
    """
    rows = [[op(i, w) for i in range(len(w))] for w in words]
    cols = list(zip(*rows))
    size = len(rows[0][0])
    flat = [tuple(chain.from_iterable(col)) for col in cols]
    bad = []
    for h, (hf, row) in enumerate(zip(products, rows)):
        at_hf = itemgetter(*hf)
        for i, j in enumerate(inverse(words[h])):
            got = at_hf(cols[i])
            want = tuple(zip(*[map(row[i].__getitem__, flat[j])] * size))
            if got != want:
                bad.append((next(f for f, (a, b) in enumerate(zip(got, want)) if a != b), h, i))
    return min(bad, default=None)


# seeded word pairs drawn per relation at each degree above 4
_SAMPLES = 2000


def _draw(rng, n: int) -> tuple[int, ...]:
    """A seeded word of degree n: tuple(rng.sample(range(n + 1), n + 1)), drawn for less.

    For a population of at most 21 values, random.Random.sample draws from a
    pool: at each of the n + 1 places it takes j below the pool size from
    _randbelow, which calls rng.getrandbits(size.bit_length()) until the
    value is below the size, and moves the pool's last value into place j.
    This is that loop written out, so it makes the same getrandbits calls in
    the same order and returns the same word, leaving the rng in the same
    state; it skips sample's argument checks and set-size estimate.
    """
    getrandbits = rng.getrandbits
    pool = list(range(n + 1))
    word = []
    for size in range(n + 1, 0, -1):
        bits = size.bit_length()
        j = getrandbits(bits)
        while j >= size:
            j = getrandbits(bits)
        word.append(pool[j])
        pool[j] = pool[size - 1]
    return tuple(word)


def _crossed_sampled(op, n: int, rng):
    """The first (h, f, i) among the seeded pairs of degree n at which op breaks the relation.

    Every pair is drawn, whatever fails, so the rng stream does not depend on
    op.  A degree with fewer words than pairs has its rows op(i, w) tabulated
    once per word; above, each pair computes its three rows.  The n + 1
    words op(i, h.f) of a pair are compared with their values at once.
    """

    def row(w):
        return [op(i, w) for i in range(n + 1)]

    if factorial(n + 1) < _SAMPLES:
        row = {w: row(w) for w in all_perms(n)}.__getitem__
    first = None
    for _ in range(_SAMPLES):
        f = _draw(rng, n)
        h = _draw(rng, n)
        got, op_h, op_f = row(tuple(map(h.__getitem__, f))), row(h), row(f)
        want = [tuple(map(a.__getitem__, op_f[j])) for a, j in zip(op_h, inverse(h))]
        if got != want and first is None:
            first = (h, f, next(i for i, (a, b) in enumerate(zip(got, want)) if a != b))
    return first


def _check_crossed(cfg) -> list[dict]:
    # d_i(h.f) = d_i h . d_{h^-1(i)} f, and likewise for s_i.  Through degree
    # 4 every pair of words is checked on blocks of ids, with the ids of h.f
    # tabulated once per degree for both relations; above, seeded samples.
    rng = random.Random(cfg.seed)
    products = {}
    out = []
    for rel, op in (("face", face_perm), ("degeneracy", degeneracy_perm)):
        cases = 0
        counterexample = None
        for n in range(1, cfg.max_dim + 1):
            if n <= 4:
                words = all_perms(n)
                if n not in products:
                    products[n] = _product_ids(words)
                cases += len(words) ** 2 * (n + 1)
                bad = _crossed_block(op, words, products[n])
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


def _check_lemmas(cfg, suite: str) -> list[dict]:
    """The pullback and upsilon lemmas the suite names, sharing one E(g) per word.

    Both lemmas walk the same words: every word through degree 3, and two
    seeded words at degree 4.  The comparison of g reads E(g) for the
    pullback lemma and E(g^-1) for the upsilon lemma, so the comparisons of
    a degree are grouped by the word of the E they read, which takes the
    words in pairs {g, g^-1}.  Each E is built once, through bundles.E_of,
    and dropped once every comparison reading it has run.  Each lemma
    reports its own first failing word and stops after that degree.
    """
    from . import bundles

    lemmas = [
        (name, compare, reads)
        for key, name, compare, reads in (
            ("lemma", "lemma:pullback", bundles.pullback_comparison, lambda g: g),
            ("upsilon", "lemma:upsilon", bundles.upsilon_comparison, inverse),
        )
        if suite in (key, "all")
    ]
    rng = random.Random(cfg.seed)
    cases = [0] * len(lemmas)
    found = [None] * len(lemmas)
    for n in range(min(cfg.max_dim - 1, 4) + 1):
        live = [k for k, bad in enumerate(found) if bad is None]
        if not live:
            break
        if n <= 3:
            words = all_perms(n)
        else:
            words = [_draw(rng, n), _draw(rng, n)]
        readers = {}
        for g in words:
            for k in live:
                readers.setdefault(lemmas[k][2](g), []).append((k, g))
        failed = set()
        for w, comparisons in readers.items():
            bundle = bundles.E_of(w, n + 1)
            failed.update((k, g) for k, g in comparisons if not lemmas[k][1](g, n + 1, bundle))
        for k in live:
            cases[k] += len(words)
            found[k] = next((f"g={g}" for g in words if (k, g) in failed), None)
    return [_check_result(name, c, bad) for (name, _, _), c, bad in zip(lemmas, cases, found)]


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


def cmd_check(cfg, args, build) -> tuple[dict, int]:
    """Run the suite named: identity audits, then crossed relations, then lemmas.

    cfg is the CLI's RunConfig, and build(name, accepted, what, cfg, args)
    its builder of the objects the identity audits read.

    For check all on two or more CPUs, the crossed sweep (no object built,
    its own seeded rng) runs in a forked child while this process runs the
    other suites, with the same records; on one CPU, or where os.fork is
    unavailable, it runs here, in turn.  The child is read to EOF and
    reaped on every path.
    """
    suite = args.suite
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    child = _fork_call(_check_crossed, cfg) if suite == "all" and cpus >= 2 else None
    identities, crossed, lemmas = [], [], []
    try:
        if suite in ("identities", "all"):
            targets = [args.target] if suite == "identities" and args.target else _IDENTITY_TARGETS
            identities = [_check_identities(cfg, t, partial(build, args=args)) for t in targets]
        if suite == "crossed" or suite == "all" and child is None:
            crossed = _check_crossed(cfg)
        if suite in ("lemma", "upsilon", "all"):
            lemmas = _check_lemmas(cfg, suite)
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
        "max_dim": cfg.max_dim,
        "seed": cfg.seed,
        "checks": checks,
        "pass": ok,
    }
    return report, 0 if ok else 1
