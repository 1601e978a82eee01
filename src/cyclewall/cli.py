"""Command-line interface: word reduction, ball exports, the verify harness,
and automorphism utilities.

Exit codes: 0 pass (and ``--help``), 1 audit failure, 2 usage, resource or
validation error (any other ``CycleWallError`` too, running out of memory,
and a stdout closed before the output was written), 3 no failures but at
least one inconclusive check.  The argv is read with ``getopt`` off one
table of the commands, their options and their positionals.
"""

from __future__ import annotations

import getopt
import itertools
import json
import os
import random
import re
import sys
from array import array
from math import isqrt
from types import SimpleNamespace
from typing import Iterable, Optional

from . import algebraic, davis, diagrams, walls
from .autgroup import (
    AutElement,
    aut_decompose,
    aut_serialize,
    enumerate_loc,
    generator_images,
    loc_stabilizes_P_audit,
    witness_details,
    witness_fixator_check,
)
from .errors import (
    CycleWallError,
    DecompositionError,
    ValidationError,
)
from .localgroups import cyclic_group, integers_group, table_group
from .reports import Report
from .words import (
    GroupElement,
    Presentation,
    Syllable,
    coset_rep,
    enumerate_ball_elements,
    format_word,
    identity,
    parse_word,
    reduce_word,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_RESOURCE = 2
EXIT_INCONCLUSIVE = 3

_S3_NAME = "S3"


def _builtin_s3():
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(a[b[x]] for x in range(3))] for b in perms]
             for a in perms]
    names = ["".join(map(str, p)) for p in perms]
    return table_group(table, names=names, name=_S3_NAME)


def _group_from_json(spec):
    if isinstance(spec, str):
        text = spec.strip()
        if text == "Z":
            return integers_group()
        if text.upper() == _S3_NAME:
            return _builtin_s3()
        if text.startswith("Z/"):
            digits = text[2:]
            if not (digits.isascii() and digits.isdigit()):
                raise ValidationError(f"bad cyclic order in {text!r}")
            return cyclic_group(int(digits), name=text)
        raise ValidationError(f"unknown group {text!r} (use 'Z/k', 'Z', 'S3', or a table)")
    if isinstance(spec, dict):
        kind = spec.get("kind")
        if not isinstance(spec.get("name", ""), str):
            raise ValidationError(f"group name must be a JSON string, got {spec['name']!r}")
        try:
            if kind == "cyclic":
                order = spec["order"]
                if not isinstance(order, int) or isinstance(order, bool):
                    raise ValidationError(f"cyclic order must be a JSON integer, got {order!r}")
                return cyclic_group(order, name=spec.get("name", ""))
            if kind == "integers":
                return integers_group(name=spec.get("name", ""))
            if kind == "table":
                names = spec.get("names")
                if names is not None and not (isinstance(names, list)
                                              and all(isinstance(x, str) for x in names)):
                    raise ValidationError("table names must be a list of strings")
                return table_group(spec["table"], names=names, name=spec.get("name", ""))
        except KeyError as exc:
            raise ValidationError(f"{kind} group needs field {exc}")
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"malformed {kind} group: {exc}")
        raise ValidationError(f"unknown group kind {kind!r}")
    raise ValidationError("a group is a string or an object")


def _read_json(path: str, what: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {what} file: {exc}")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 at byte {exc.start}")
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}")
    except RecursionError:
        raise ValidationError(f"{path}: JSON nested too deeply")


def load_presentation(path: str) -> Presentation:
    doc = _read_json(path, "presentation")
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    n = doc.get("n")
    groups = doc.get("groups")
    if not isinstance(n, int) or isinstance(n, bool) or not isinstance(groups, list):
        raise ValidationError(f"{path}: required fields: n (int), groups (list)")
    if len(groups) != n:
        raise ValidationError(f"{path}: n={n} but {len(groups)} groups given")
    built = []
    for i, g in enumerate(groups):   # every group error names its group once
        try:
            built.append(_group_from_json(g))
        except ValidationError as exc:
            raise ValidationError(f"{path}: groups[{i}]: {exc}") from None
    return Presentation(tuple(built))


# -- suites --------------------------------------------------------------------


def words_suite(p: Presentation, depth: int, seed: int) -> Report:
    report = Report()
    rng = random.Random(seed)
    if p.all_finite:
        davis.check_budget(p, min(depth, 3))
        pool = enumerate_ball_elements(p, min(depth, 3))
    else:
        pool = [identity(p)]

    bad = [format_word(g) for g in pool if parse_word(p, format_word(g)) != g]
    report.add("words.parse-format-roundtrip", f"elements={len(pool)}",
               not bad, bad[:5] or None)

    # words with no two equal or adjacent consecutive supports come back verbatim
    verbatim_bad = []
    for _ in range(200):
        word = []
        last = None
        for _ in range(rng.randrange(1, 7)):
            choices = [v for v in range(p.n)
                       if last is None or (v != last and not p.adjacent(v, last))]
            v = rng.choice(choices)
            last = v
            group = p.group(v)
            word.append(Syllable(v, rng.randrange(
                1, group.size if group.is_finite else 5)))
        g = reduce_word(p, word)
        if g.word != tuple(word):
            verbatim_bad.append(format_word(GroupElement(p, tuple(word))))
    report.add("words.rigid-words-come-back-verbatim", "samples=200",
               not verbatim_bad, verbatim_bad[:5] or None)

    windows = [frozenset({i, (i + 1) % p.n}) for i in range(p.n)]
    rep_bad = []
    for g in pool[:400]:
        for S in windows:
            r = coset_rep(g, S)
            if coset_rep(r, S) != r:
                rep_bad.append((format_word(g), sorted(S)))
    report.add("words.coset-representative-idempotent",
               f"elements={min(len(pool), 400)}", not rep_bad, rep_bad[:5] or None)
    return report


def davis_suite(b: davis.ComplexBall) -> Report:
    report = Report()
    report.extend(davis.t4_audit(b))
    report.extend(davis.polygon_pair_audit(b))
    report.extend(davis.free_face_audit(b))
    report.extend(davis.links_audit(b))
    return report


def walls_suite(b: davis.ComplexBall, depth: int, seed: int) -> Report:
    cg = walls.crossing_graph(b)
    report = Report()
    report.extend(walls.tree_property_audit(b))
    report.extend(walls.wall_no_shared_polygon_audit(b))
    report.extend(walls.wall_fixator_audit(b, depth))
    report.extend(walls.wall_stabilizer_audit(b, depth))
    report.extend(walls.no_triple_crossing_audit(cg))
    report.extend(walls.min_set_audit(b, cg))
    report.extend(walls.hyperplane_treewall_audit(b))
    report.extend(walls.vertex_stabilizer_criterion_audit(b))
    report.extend(walls.adjacency_criterion_audit(b))
    # 25 pairs of walls, drawn as the shuffle of the list of all pairs would
    # draw them: its draws depend on the length alone, so the ranks of the
    # pairs in combinations order are shuffled instead, and each is unranked
    w = len(cg.walls)
    ranks = array("I", range(w * (w - 1) // 2))
    random.Random(seed).shuffle(ranks)
    for m in ranks[:25]:
        i = w - 2 - (isqrt(8 * (len(ranks) - 1 - m) + 1) - 1) // 2   # pair m is (i, j)
        j = m - i * (2 * w - i - 1) // 2 + i + 1
        report.extend(walls.classify_pair(b, cg, i, j, depth))
    return report


def algebraic_suite(b: davis.ComplexBall, seed: int) -> Report:
    report = Report()
    report.extend(algebraic.phi_iso_check(b, seed=seed))
    report.extend(algebraic.induced_cycle_audit(b))
    report.extend(algebraic.join_agreement_audit(b))
    return report


def aut_suite(p: Presentation, depth: int, seed: int) -> Report:
    report = Report()
    davis.check_budget(p, min(depth, 3))
    loc = enumerate_loc(p)
    report.extend(loc_stabilizes_P_audit(p, loc[:60], seed=seed))

    rng = random.Random(seed)
    pool = enumerate_ball_elements(p, min(depth, 3))
    bad = []
    trials = 60
    for _ in range(trials):
        a = AutElement(rng.choice(pool), rng.choice(loc))
        try:
            got = aut_decompose(p, generator_images(a))
        except CycleWallError as exc:
            bad.append({"aut": aut_serialize(a), "error": str(exc)})
            continue
        if got != a:
            bad.append({"aut": aut_serialize(a), "got": aut_serialize(got)})
    report.add("aut.decompose-roundtrip", f"samples={trials}",
               not bad, bad[:3] or None)

    d = witness_details(p)
    if d["degenerate"]:
        report.add("aut.witness-degenerate-case-reported",
                   "all vertex groups have trivial automorphism groups", True)
    else:
        report.extend(witness_fixator_check(p, d["element"]))
    return report


def diagrams_suite(b: davis.ComplexBall, seed: int) -> Report:
    return diagrams.filling_audit(b, seed=seed, count=20)


_SUITES = ("words", "davis", "walls", "algebraic", "aut", "diagrams", "all")


def run_suite(p: Presentation, suite: str, radius: int, depth: int,
              seed: int) -> Report:
    """Run the chosen suites; each ball radius is built once and shared, so
    its subdivision, walls and stabilizers are built once too."""
    if radius < 0:
        raise ValidationError("radius must be >= 0")
    if depth < 0:
        raise ValidationError("depth must be >= 0")
    balls: dict[int, davis.ComplexBall] = {}

    def ball(r: int) -> davis.ComplexBall:
        if r not in balls:
            balls[r] = davis.build_ball(p, r)
        return balls[r]

    report = Report()
    if suite in ("words", "all"):
        report.extend(words_suite(p, depth, seed))
    if suite in ("davis", "all"):
        report.extend(davis_suite(ball(radius)))
    if suite in ("walls", "all"):
        report.extend(walls_suite(ball(radius), depth, seed))
    if suite in ("algebraic", "all"):
        report.extend(algebraic_suite(ball(radius), seed))
    if suite in ("aut", "all"):
        report.extend(aut_suite(p, depth, seed))
    if suite in ("diagrams", "all"):
        report.extend(diagrams_suite(ball(max(radius, 2)), seed))
    return report


# -- commands ----------------------------------------------------------------------


def cmd_reduce(args) -> int:
    p = load_presentation(args.presentation)
    words = args.word if args.word else [line.rstrip("\n") for line in sys.stdin]
    for text in words:
        print(format_word(parse_word(p, text)))
    return EXIT_PASS


def cmd_ball(args) -> int:
    p = load_presentation(args.presentation)
    export = davis.iter_ball_json if args.format == "json" else davis.iter_ball_dot
    _write(args.output, export(davis.ball_table(p, args.radius), args.subdivide))
    return EXIT_PASS


def cmd_verify(args) -> int:
    p = load_presentation(args.presentation)
    report = run_suite(p, args.suite, args.radius, args.depth, args.seed)
    _write(args.output, report.to_json())
    if report.failures:
        return EXIT_FAIL
    if report.inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


def cmd_aut(args) -> int:
    p = load_presentation(args.presentation)
    if args.action == "witness":
        d = witness_details(p)
        doc = {"schema": "cyclewall/1",
               "element": format_word(d["element"]),
               "degenerate": d["degenerate"],
               "m": d["m"],
               "vertex_sequence": d.get("vertex_sequence", [])}
        _write(args.output, json.dumps(doc, indent=2, sort_keys=True))
        return EXIT_PASS
    if args.action == "fixator":
        d = witness_details(p)
        g = parse_word(p, args.element) if args.element is not None \
            else d["element"]
        report = witness_fixator_check(p, g)
        _write(args.output, report.to_json())
        return EXIT_PASS if report.ok else EXIT_FAIL
    # decompose
    if args.images is None:
        raise ValidationError("aut decompose requires --images FILE")
    doc = _read_json(args.images, "images")
    if not isinstance(doc, dict) or "images" not in doc:
        raise ValidationError("images file must contain an 'images' field")
    rows = doc["images"]
    if not (isinstance(rows, list) and len(rows) == p.n
            and all(isinstance(row, list) and all(isinstance(w, str) for w in row)
                    for row in rows)):
        raise ValidationError(
            f"images must be a list of {p.n} lists of words, one per vertex")
    images = [[parse_word(p, w) for w in row] for row in rows]
    try:
        a = aut_decompose(p, images)
    except DecompositionError as exc:
        _write(args.output, json.dumps(
            {"schema": "cyclewall/1", "error": str(exc),
             "witness": exc.witness}, indent=2, sort_keys=True, default=str))
        return EXIT_FAIL
    _write(args.output, json.dumps(aut_serialize(a), indent=2, sort_keys=True))
    return EXIT_PASS


def _write(path: Optional[str], text: str | Iterable[str]) -> None:
    """Write ``text``, or its chunks in turn, and then a newline."""
    chunks = itertools.chain([text] if isinstance(text, str) else text, ["\n"])
    if path:
        try:
            with open(path, "w") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise ValidationError(f"cannot write output file: {exc}")
    else:
        sys.stdout.writelines(chunks)


# -- argument parsing ----------------------------------------------------------------

# the valued options of every command: name -> (default, type), where a type
# is int, str or a tuple of choices
_COMMON = {"presentation": (None, str), "radius": (2, int), "depth": (3, int),
           "seed": (0, int), "output": (None, str)}
# command -> (handler, summary, its own valued options, its flags, its
# positional): the choices of ``action``, None for any number of ``word``
# arguments, or () for none
_COMMANDS = {
    "reduce": (cmd_reduce, "print canonical forms of words, or of stdin's lines", {}, (), None),
    "ball": (cmd_ball, "build and export a bounded ball, or its square subdivision",
             {"format": ("json", ("json", "dot"))}, ("subdivide",), ()),
    "verify": (cmd_verify, "run an audit suite and print the report",
               {"suite": ("all", _SUITES)}, (), ()),
    "aut": (cmd_aut, "automorphism utilities", {"images": (None, str), "element": (None, str)},
            (), ("decompose", "witness", "fixator")),
}


def _value(name: str, text: str, kind):
    """``text`` read as the value of ``name``, of type ``kind``."""
    try:   # a text that is no choice raises ValueError, as one that is no int does
        return kind[kind.index(text)] if isinstance(kind, tuple) else kind(text)
    except ValueError:
        raise ValidationError(f"argument {name}: invalid value: {text!r}" + (
            f" (choose from {', '.join(kind)})" if isinstance(kind, tuple) else "")) from None


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """The command, its handler ``func`` and the value of each of its options
    and positionals, read off ``argv`` by ``getopt.gnu_getopt``: options and
    positionals in any order, ``--name value`` or ``--name=value``, any
    unique prefix of an option's name, and ``--`` before positionals.
    ``-h``/``--help`` gives the handler ``_help``.  A usage error raises
    ``ValidationError``.  As with argparse, a value given as an argument of
    its own may not look like an option (``--output --seed``), so that a
    missing value is an error."""
    command = argv[0] if argv[:1] and argv[0] in _COMMANDS else None
    func, _, own, flags, positional = _COMMANDS.get(command, (None, "", {}, (), ()))
    options = {**_COMMON, **own} if command else {}   # before a command, only --help
    try:
        opts, words = getopt.gnu_getopt(argv[1:] if command else argv[:1], "h",
                                        ["help", *flags, *(o + "=" for o in options)])
    except getopt.GetoptError as exc:
        raise ValidationError(exc.msg) from None
    args = SimpleNamespace(command=command, func=func, **dict.fromkeys(flags, False),
                           **{o: default for o, (default, _) in options.items()})
    for opt, text in opts:
        if opt in ("-h", "--help"):
            return SimpleNamespace(command=command, func=_help)
        # a value given as an argument of its own (one after "=" is not in
        # argv) that argparse read as an option: no "-", negative number or space
        if text in argv and text[:1] == "-" != text and " " not in text \
                and not re.fullmatch(r"-\d+|-\d*\.\d+", text):
            raise ValidationError(f"argument {opt}: expected one argument")
        name = opt[2:]
        setattr(args, name, True if name in flags else _value(opt, text, options[name][1]))
    if command is None:
        raise ValidationError(f"the first argument is a command: {', '.join(_COMMANDS)}")
    if args.presentation is None or positional and not words:
        raise ValidationError("the following arguments are required: "
                              + ("--presentation" if args.presentation is None else "action"))
    if positional is None:
        args.word, words = words, []
    elif positional:
        args.action = _value("action", words.pop(0), positional)
    if words:
        raise ValidationError(f"unrecognized arguments: {' '.join(words)}")
    return args


def _help(args) -> int:
    """Print the usage of ``args.command``, or of every command, off
    ``_COMMANDS``: each option with its default, or its choices with the
    default first."""
    print("usage: cyclewall COMMAND --presentation=FILE [OPTION ...]; an option is --name "
          "value, --name=value or a unique prefix of --name; its default is shown, first")
    for name in [args.command] if args.command else _COMMANDS:
        _, about, own, flags, positional = _COMMANDS[name]
        shown = [f"--{o}=" + ("|".join(dict.fromkeys((default, *kind))) if isinstance(kind, tuple)
                              else o.upper() if default is None else str(default))
                 for o, (default, kind) in {**_COMMON, **own}.items()] + [f"--{f}" for f in flags]
        shown.append("[WORD ...]" if positional is None else "|".join(positional))
        print(f"  cyclewall {name} {' '.join(shown).rstrip()}\n      {about}")
    return EXIT_PASS


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        return args.func(args)
    except CycleWallError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        pass   # reported below, once the handler has let go of the failing frames
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so that the
        # flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed before the output was "
              "written", file=sys.stderr)
        return EXIT_RESOURCE
    print("error: out of memory", file=sys.stderr)
    return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
