#!/usr/bin/env python3
"""Record the benchmark's goldens from the program as it is now.

    python3 perfbench/make_goldens.py

Run from the root of a checkout.  Writes perfbench/goldens/:

- verify.json: for each verify workload and MUTATION seed, the report's
  sha256 and each lemma entry's sha256 and instance count;
- catalog.json: the ordered expression list of each catalog workload;
- shapes.json: the pool of single-shape commands the shapes streams draw
  from, each with its exit code and stdout sha256, and a summary of the mix.

Rerun only when a change is meant to alter the program's output, and say so
with the change.  A recording is refused unless every lemma passes and
MUTATION detects its fault.
"""

from __future__ import annotations

import json
import random
import sys

import spec
from child import run_command
from run import SRC, WORK, sha256, spawn

sys.path.insert(0, str(SRC))

from ogpkit import cli  # noqa: E402
from ogpkit.exprlang import eval_text  # noqa: E402
from ogpkit.harness import Bounds, enumerate_catalog, enumerate_marked_horns  # noqa: E402
from ogpkit.ids import sid  # noqa: E402

PER_CELL = 16        # pool entries kept per (kind, size class)
TRIES = 400          # candidates tried per cell
MAX_ELEMENTS = 729   # the cube of cubes, gray(cube,cube)
# pp marked-horn re-recognises the product's marked horn by a derivation
# search that grows fast with size: past about 250 elements one command takes
# 0.3 to 1.3 s, and three of them would be a third of a pass.
MAX_MARKED_ELEMENTS = 243


def refuse_unless(ok, why):
    if not ok:
        raise SystemExit(f"not recording goldens: {why}")


def record_verify():
    goldens = {}
    for workload, (_, _, _, lemmas, seeded) in spec.VERIFY.items():
        keys = range(spec.MUTATION_SEEDS) if seeded else [None]
        goldens[workload] = {}
        for seed in keys:
            out = WORK / "golden-verify.json"
            argv = spec.verify_argv(workload, seed or 0)
            code, _, _ = spawn([sys.executable, "-m", "ogpkit", *argv], out)
            data = out.read_bytes()
            refuse_unless(code == 0, f"{workload} seed {seed} exited with {code}")
            doc = json.loads(data)
            refuse_unless(all(r["status"] == "pass" for r in doc["reports"]),
                          f"{workload} seed {seed} has a failing lemma")
            if "MUTATION" in lemmas:
                mutation = [r for r in doc["reports"] if r["lemma"] == "MUTATION"][0]
                refuse_unless("detected" in mutation.get("warning", ""),
                              f"{workload} seed {seed}: mutation went undetected")
            goldens[workload]["default" if seed is None else str(seed)] = {
                "report_sha256": sha256(data),
                "lemmas": {
                    r["lemma"]: {"sha256": sha256(json.dumps(r, sort_keys=True).encode()),
                                 "instances": r["instances"]}
                    for r in doc["reports"]
                },
            }
            print(workload, seed, {r["lemma"]: r["instances"] for r in doc["reports"]},
                  file=sys.stderr)
    return goldens


def record_catalog():
    goldens = {}
    for workload, bounds in spec.CATALOG.items():
        out = WORK / "catalog.json"
        code, _, _ = spawn([sys.executable, str(spec.HERE / "child.py"),
                            "catalog", *map(str, bounds), str(out)])
        refuse_unless(code == 0, f"{workload} exited with {code}")
        goldens[workload] = json.loads(out.read_text())
        print(workload, len(goldens[workload]), "entries", file=sys.stderr)
    return goldens


# -- shapes pool --------------------------------------------------------------


def universe(rng):
    """Expressions with their molecules: the depth-2 catalog (small), Gray
    products of catalog entries (medium and large) and products of three
    factors, up to the 729-element cube of cubes."""
    catalog = enumerate_catalog(Bounds())
    small = [(e.expr, e.molecule) for e in catalog.entries]
    pairs = [(a, b) for a in small for b in small if len(a[1]) * len(b[1]) > 16]
    rng.shuffle(pairs)
    products = [f"gray({a[0]},{b[0]})" for a, b in pairs[:600]]
    cube = "gray(gray(arrow,arrow),arrow)"
    products.append(f"gray({cube},{cube})")
    for a, b in pairs[600:800]:
        for c, size in (("arrow", 3), ("globe(2)", 6)):
            if len(a[1]) * len(b[1]) * size <= MAX_ELEMENTS:
                products.append(f"gray(gray({a[0]},{b[0]}),{c})")
    return small + [(expr, eval_text(expr)) for expr in products]


def shape_candidate(kind, exprs, rng):
    """A random build, check, render, boundary or iso command: (argv, elements)."""
    expr, m = rng.choice(exprs)
    if kind == "build":
        return ["build", expr], len(m)
    if kind == "check":
        return ["check", expr], len(m)
    if kind == "render":
        return ["render", expr, "--format", rng.choice(["json", "dot"])], len(m)
    if kind == "boundary":
        n = rng.randrange(max(m.dim, 1))
        return ["boundary", expr, str(n), rng.choice(["-", "+"])], len(m)
    if kind == "iso":
        other, m2 = (expr, m) if rng.random() < 0.5 else rng.choice(exprs)
        return ["iso", expr, other], max(len(m), len(m2))
    raise ValueError(kind)


def pair_cells(us, vs, limit):
    """(u, v) pairs by size class of their product u x v, up to limit."""
    cells = {}
    for u in us:
        for v in vs:
            n = len(u[1]) * len(v[1])
            if n <= limit:
                cells.setdefault(spec.size_class(n), []).append((u, v))
    return cells


def horn_candidate(kind, size, atoms, pairs, marked, rng):
    """A random horn, pp horn or pp marked-horn command: (argv, elements).
    Markings come from the harness's enumeration of marked horns."""
    if kind == "horn":
        u_expr, u = rng.choice(atoms[size])
        if u_expr in marked and rng.random() < 0.5:
            mh = rng.choice(marked[u_expr])
            return ["horn", u_expr, sid(mh.horn.facet), "--marking",
                    *sorted(map(sid, mh.marking))], len(u)
        facet = rng.choice(sorted(map(sid, u.poset.faces(u.top(), rng.choice("-+")))))
        return ["horn", u_expr, facet], len(u)
    order = rng.choice(["uv", "vu"])
    if kind == "pp-horn":
        (u_expr, u), (v_expr, v) = rng.choice(pairs["plain"][size])
        facet = rng.choice(sorted(map(sid, u.poset.faces(u.top(), rng.choice("-+")))))
        return ["pp", "horn", u_expr, facet, v_expr, "--order", order], len(u) * len(v)
    (u_expr, u), (v_expr, v) = rng.choice(pairs["marked"][size])
    mh = rng.choice(marked[u_expr])
    return (["pp", "marked-horn", u_expr, sid(mh.horn.facet), v_expr, "--order", order,
             "--family", rng.choice(["minbd", "markbd"]),
             "--marking", *sorted(map(sid, mh.marking))], len(u) * len(v))


def record_shapes():
    rng = random.Random(20250501)
    by_size = {}
    for expr, m in universe(rng):
        by_size.setdefault(spec.size_class(len(m)), []).append((expr, m))
    atoms = {size: [(e, m) for e, m in group if m.is_atom() and m.dim >= 1]
             for size, group in by_size.items()}
    all_atoms = [a for group in atoms.values() for a in group]
    marked = {e: enumerate_marked_horns(m) for e, m in atoms["small"] if len(m) <= 9}
    marked = {e: hs for e, hs in marked.items() if hs}
    with_point = [("point", eval_text("point"))] + all_atoms
    pairs = {"plain": pair_cells(all_atoms, with_point, MAX_ELEMENTS),
             "marked": pair_cells([a for a in all_atoms if a[0] in marked], with_point,
                                  MAX_MARKED_ELEMENTS)}
    pool, mix = [], {}
    for kind in spec.SHAPE_KINDS:
        for size, _ in spec.SIZE_CLASSES:
            kept, seen = [], set()
            for _ in range(TRIES):
                if len(kept) >= PER_CELL:
                    break
                if kind in ("horn", "pp-horn", "pp-marked-horn"):
                    argv, elements = horn_candidate(kind, size, atoms, pairs, marked, rng)
                else:
                    argv, elements = shape_candidate(kind, by_size[size], rng)
                key = json.dumps(argv)
                if spec.size_class(elements) != size or key in seen:
                    continue
                seen.add(key)
                code, data, _ = run_command(cli, argv)
                if code != 0:
                    continue
                kept.append({"argv": argv, "kind": kind, "size": size,
                             "elements": elements, "exit": code, "sha256": sha256(data)})
            pool += kept
            mix[f"{kind}/{size}"] = {
                "pool": len(kept),
                "elements": [min(e["elements"] for e in kept),
                             max(e["elements"] for e in kept)],
            }
            print(kind, size, mix[f"{kind}/{size}"], file=sys.stderr)
    return {"mix": mix, "pool": pool}


def main():
    WORK.mkdir(exist_ok=True)
    spec.GOLDENS.mkdir(exist_ok=True)
    shapes = record_shapes()
    for name, doc in (("shapes.json", shapes), ("catalog.json", record_catalog()),
                      ("verify.json", record_verify())):
        with open(spec.GOLDENS / name, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
