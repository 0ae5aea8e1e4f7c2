"""Expression language and CLI behaviour."""

import json
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ogpkit.cli import EXIT_DOMAIN, main
from ogpkit.contexts import atomic_horn, marked_horn
from ogpkit.errors import EvalError, ExprSyntaxError
from ogpkit.exprlang import Expr, eval_text, parse, print_expr
from ogpkit.harness import Bounds, enumerate_catalog
from ogpkit.marked import MarkedShape
from ogpkit.molecule import Molecule, globe, poset_of
from ogpkit.poset import MINUS, PLUS, SIGNS, build, find_iso
from ogpkit.render import poset_to_dict, render, shape_json_bytes, to_dot_bytes, to_json_bytes


class TestParse:
    def test_simple(self):
        e = parse("gray(arrow, arrow)")
        assert e.head == "gray"
        assert e.args[0].head == "arrow"

    def test_nested(self):
        e = parse("atom(arrow, paste(arrow, arrow, 0))")
        assert e.args[1].head == "paste"
        assert e.args[1].args[2] == 0

    def test_arity_error(self):
        with pytest.raises(ExprSyntaxError):
            parse("paste(arrow, arrow)")

    def test_position_reported(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("gray(arrow,\n  nonsense)")
        assert err.value.line == 2

    def test_ids_and_sets(self):
        e = parse('cyl(arrow, {"0-", "0+"})')
        assert e.args[1] == frozenset({"0-", "0+"})
        e = parse('horn(gray(arrow,arrow), "(0-,1)")')
        assert e.args[1] == "(0-,1)"

    def test_trailing_input(self):
        with pytest.raises(ExprSyntaxError):
            parse("arrow arrow")


class TestEval:
    def test_globe_sugar(self):
        g = eval_text("globe(2)")
        assert len(g) == 5 and g.dim == 2

    def test_one_to_two_atom(self):
        m = eval_text("atom(arrow, paste(arrow, arrow, 0))")
        assert len(m) == 7

    def test_op_gray_swap(self):
        lhs = eval_text("op(gray(arrow,arrow))")
        rhs = eval_text("gray(op(arrow),op(arrow))")
        assert find_iso(lhs.poset, rhs.poset) is not None

    def test_error_path(self):
        with pytest.raises(EvalError) as err:
            eval_text("atom(arrow, globe(2))")
        assert "atom" in err.value.path

    def test_nested_error_path(self):
        with pytest.raises(EvalError) as err:
            eval_text("gray(arrow, atom(arrow, globe(2)))")
        assert err.value.path.startswith("gray.arg2.atom")

    def test_unitors(self):
        for text in ("lunitor(arrow)", "runitor(arrow)"):
            m = eval_text(text)
            assert isinstance(m, Molecule) and m.dim == 2

    def test_deterministic(self):
        a = eval_text("gray(unit(arrow), arrow)")
        b = eval_text("gray(unit(arrow), arrow)")
        assert a.poset == b.poset


# parse . print = identity on ASTs


@st.composite
def expr_asts(draw, depth=3):
    leaf = st.sampled_from([Expr("point"), Expr("arrow"),
                            Expr("globe", (draw(st.integers(0, 3)),))])
    if depth == 0:
        return draw(leaf)
    sub = expr_asts(depth=depth - 1)
    builders = st.one_of(
        leaf,
        st.tuples(sub, sub, st.integers(0, 2)).map(
            lambda t: Expr("paste", (t[0], t[1], t[2]))),
        st.tuples(sub, sub).map(lambda t: Expr("atom", t)),
        st.tuples(sub, sub).map(lambda t: Expr("gray", t)),
        sub.map(lambda e: Expr("op", (e,))),
        sub.map(lambda e: Expr("unit", (e,))),
        sub.map(lambda e: Expr("merger", (e,))),
        st.tuples(st.sets(st.integers(1, 3)).map(frozenset), sub).map(
            lambda t: Expr("dual", t)),
        st.tuples(sub, st.integers(0, 3),
                  st.sampled_from(["-", "+"])).map(
            lambda t: Expr("boundary", t)),
        st.tuples(st.text(alphabet="LR", max_size=3), sub).map(
            lambda t: Expr("inv", t)),
    )
    return draw(builders)


@given(expr_asts())
@settings(max_examples=120, deadline=None)
def test_parse_print_roundtrip(e):
    # parsing the printed form gives the same tree
    assert parse(print_expr(e)) == e


def test_catalog_names_print_as_written(d3_catalog):
    # enumerate_catalog names its entries with exprlang.text, the printer
    # print_expr is built on
    for entry in d3_catalog.entries:
        assert print_expr(parse(entry.expr)) == entry.expr


def poset_from_dict(doc: dict):
    """Parse the JSON document of poset_to_dict back into a poset."""
    elements = {e["id"]: e["dim"] for e in doc["elements"]}
    faces = {
        x: (set(sides.get(MINUS, ())), set(sides.get(PLUS, ())))
        for x, sides in doc.get("faces", {}).items()
    }
    return build(elements, faces)


class TestRender:
    def test_json_roundtrip_byte_exact(self):
        m = eval_text("gray(arrow,arrow)")
        first = render(m, "json")
        rebuilt = poset_from_dict(json.loads(first))
        second = to_json_bytes(poset_to_dict(rebuilt))
        doc1, doc2 = json.loads(first), json.loads(second)
        assert doc1["elements"] == doc2["elements"]
        assert doc1["faces"] == doc2["faces"]
        # rebuilding from the emitted json and re-emitting is stable
        third = to_json_bytes(poset_to_dict(poset_from_dict(json.loads(second))))
        assert second == third

    def test_dot_square_counts(self):
        out = render(eval_text("gray(arrow,arrow)"), "dot").decode()
        assert out.count("label=") == 9
        assert out.count("->") == 12

    def test_dot_point(self):
        out = render(eval_text("point"), "dot").decode()
        assert out.count("label=") == 1
        assert "->" not in out


def dumps_bytes(doc) -> bytes:
    """to_json_bytes as json.dumps writes it, the oracle for the writer."""
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


ODD_STRINGS = ["", '"', "\\", "\x00\x1f\n\t\x7f", "é☃ 𝄞", "\ud800", 'a"b\\c']
ODD_SCALARS = [None, True, False, 0, 1, -1, 10**30, -(2**70), 1.5, -0.0,
               float("nan"), float("inf"), float("-inf"), *ODD_STRINGS]


def json_values():
    scalars = st.one_of(
        st.none(), st.booleans(), st.integers(), st.integers(min_value=2**63),
        st.floats(), st.text(), st.sampled_from(ODD_STRINGS),
    )
    return st.recursive(scalars, lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(st.text(), kids, max_size=4),
        st.dictionaries(st.sampled_from(ODD_STRINGS), kids, max_size=4),
        st.dictionaries(st.integers(), kids, max_size=4),
        st.dictionaries(st.text(), kids, max_size=4).map(
            lambda d: OrderedDict(reversed(d.items()))),
    ), max_leaves=24)


class TestJsonWriter:
    """to_json_bytes lays out what json.dumps(indent=2, sort_keys=True)
    would, byte for byte, and hands everything it does not lay out itself
    to json.dumps."""

    @pytest.mark.parametrize("doc", [
        *ODD_SCALARS,
        [], {}, (), [[]], [{}], {"a": [], "b": {}, "c": [[], {}]},
        ODD_SCALARS, tuple(ODD_STRINGS), {s: s for s in ODD_STRINGS},
        {"b": [1, True, None], "a": {"y": (2, ("t",)), "x": [-0.0, float("nan")]}},
        {2: "two", 10: "ten", -1: [{}]},
        {"outer": {1: "int key", 2: [None]}, "list": [{"k": OrderedDict(z=1, a=2)}]},
        OrderedDict([("b", 1), ("a", [OrderedDict([("d", "x"), ("c", "y")])])]),
        [["a", "b"], ["c"], "d", ["é", "\\"]],
    ])
    def test_fixed_cases(self, doc):
        assert to_json_bytes(doc) == dumps_bytes(doc)

    @given(json_values())
    @settings(max_examples=500, deadline=None)
    def test_matches_json_dumps(self, doc):
        assert to_json_bytes(doc) == dumps_bytes(doc)


def label_view_dict(shape) -> dict:
    """poset_to_dict as written on the label views, the oracle for the id
    path."""
    p = poset_of(shape)
    dim_of, faces_in, faces_out = p.dim_of, p.faces_in, p.faces_out
    order = sorted(dim_of, key=lambda x: (dim_of[x], x))
    doc = {
        "elements": [{"id": x, "dim": dim_of[x]} for x in order],
        "faces": {
            x: {MINUS: sorted(faces_in[x]), PLUS: sorted(faces_out[x])}
            for x in order
            if dim_of[x] > 0
        },
    }
    if isinstance(shape, Molecule):
        doc["certificate"] = shape.certificate
    if isinstance(shape, MarkedShape):
        doc["marked"] = p.sids(shape.marking)
    return doc


def label_view_dot(shape) -> bytes:
    """to_dot_bytes as written on the label views."""
    p = poset_of(shape)
    dim_of = p.dim_of
    order = sorted(dim_of, key=lambda x: (dim_of[x], x))
    lines = ["digraph shape {"]
    for x in order:
        lines.append(f'  "{x}" [label="{x}:{dim_of[x]}"];')
    edges = []
    for x in order:
        if dim_of[x] == 0:
            continue
        for faces, color in ((p.faces_in, "crimson"), (p.faces_out, "navy")):
            for f in sorted(faces[x]):
                edges.append(f'  "{f}" -> "{x}" [color={color}];')
    lines.extend(sorted(edges))
    lines.append("}")
    return ("\n".join(lines) + "\n").encode()


def assert_renders_as_label_views(shape):
    expected = dumps_bytes(label_view_dict(shape))
    assert shape_json_bytes(shape) == expected
    assert render(shape, "json") == expected
    # json.loads turns the certificates' tuples into lists, so the dict is
    # compared with the oracle's bytes read back
    assert poset_to_dict(shape) == json.loads(expected)
    assert to_dot_bytes(shape) == label_view_dot(shape)


def assert_writes_with_extra(shape, extra):
    assert shape_json_bytes(shape, extra) == dumps_bytes({**label_view_dict(shape), **extra})


def label_order_breaks_id_order(shape) -> bool:
    """Whether some dimension's ids are not in label order, so rendering
    in id order would differ."""
    p = poset_of(shape)
    by_id = sorted(range(len(p)), key=lambda i: p.dims[i])
    return by_id != sorted(by_id, key=lambda i: (p.dims[i], p.labels[i]))


class TestRenderOnIds:
    """The id path renders what the label views rendered."""

    def test_catalog_entries_and_their_boundaries(self):
        cat = enumerate_catalog(Bounds(depth=2, max_dim=4, max_elements=16))
        assert len(cat.entries) == 86
        for entry in cat.entries:
            m = entry.molecule
            assert_renders_as_label_views(m)
            for n in range(m.dim):
                for sign in SIGNS:
                    assert_renders_as_label_views(m.boundary_molecule(n, sign))

    def test_horn_restriction(self):
        u = eval_text("gray(arrow,globe(2))")
        p = u.poset
        h = atomic_horn(u, p.id_of("(0-,2)"))
        sub = p.restrict_mask(h.horn)
        assert len(sub) == len(p) - 2
        assert_renders_as_label_views(sub)

    @pytest.mark.parametrize("expr", [
        "gray(arrow,globe(2))",
        "paste(globe(2),gray(arrow,arrow),0)",
        "dual({1},gray(arrow,arrow))",
    ])
    def test_product_paste_dual(self, expr):
        m = eval_text(expr)
        assert label_order_breaks_id_order(m)
        assert_renders_as_label_views(m)


# Labels that json escapes: a quote, a backslash, control characters, and
# "é" beside "z", whose escaped forms sort the other way ("\\u00e9" < "z").
# The 2-cell "A" sorts before the 1-cells "a" and "b" but comes after them
# in (dimension, label) order.
ODD_LABELS = build(
    {"z": 0, "é": 0, 'q"': 0, "b\\": 0, "\x07": 0,
     "a": 1, "b": 1, "\t1": 1, "A": 2},
    {"a": (["z", "é"], ['q"']), "b": (["z", "é"], ['q"']),
     "\t1": (["b\\"], ["\x07"]), "A": (["a"], ["b"])},
)


class TestShapeJsonBytes:
    """shape_json_bytes writes json.dumps's bytes of the label-view
    document, with its extra keys, straight from the ids."""

    def test_odd_labels(self):
        assert_renders_as_label_views(ODD_LABELS)
        assert_writes_with_extra(ODD_LABELS, {"facet": "é", "sign": "-", "marking": []})

    def test_marked_shapes(self):
        m = eval_text("gray(arrow,globe(2))")
        p = m.poset
        marking = p.encode(["(1,2)", "(0-,2)", "(1,1+)"])
        assert_renders_as_label_views(MarkedShape(m, marking))
        assert_renders_as_label_views(MarkedShape(p, marking))
        assert_renders_as_label_views(MarkedShape(ODD_LABELS, ODD_LABELS.encode(["A", "b"])))

    @pytest.mark.parametrize("expr,facet,marking", [
        ("globe(2)", "1-", None),
        ("globe(2)", "1-", ["1+"]),
        ("dual({1},gray(arrow,unit(arrow)))", "(1,(0-,1))", None),
        ('unit(cyl(arrow,{"0+"}))', "(0-,(1,1))", ["(0+,1)", "(1,0-)"]),
        ('unit(cyl(arrow,{"0-"}))', "(0-,(1,1))", ["(1,0+)"]),
        ("gray(arrow,gray(arrow,arrow))", "(0+,(1,1))", None),
    ])
    def test_horn_documents(self, capsysbinary, expr, facet, marking):
        u = eval_text(expr)
        p = u.poset
        h = atomic_horn(u, p.id_of(facet))
        extra = {"facet": facet, "sign": h.sign}
        argv = ["horn", expr, facet]
        if marking is not None:
            mh = marked_horn(h, p.encode(marking))
            extra["marking"] = p.sids(mh.marking)
            extra["enlarged"] = p.sids(mh.enlarged)
            argv += ["--marking", *marking]
        sub = p.restrict_mask(h.horn)
        assert_writes_with_extra(sub, extra)
        assert main(argv) == 0
        assert capsysbinary.readouterr().out == shape_json_bytes(sub, extra)


class TestCli:
    def test_build_ok(self, capsys):
        assert main(["build", "arrow"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["elements"]) == 3

    def test_syntax_error_exit_2(self, capsys):
        assert main(["build", "paste(arrow,arrow)"]) == 2

    def test_domain_error_exit_1(self, capsys):
        assert main(["build", "atom(arrow, globe(2))"]) == 1

    @pytest.mark.parametrize("argv", [
        ["horn", "arrow", "(a"],
        ["build", 'cyl(arrow, {"(a"})'],
        ["horn", "globe(2)", "1-", "--marking", "(x"],
    ])
    def test_malformed_id_is_an_unknown_element(self, capsys, argv):
        # ids are matched as written; one that names no element is a
        # domain error, whatever its brackets
        assert main(argv) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith("error:") and "unknown element" in err

    @pytest.mark.parametrize("head", ["lunitor", "runitor"])
    def test_unitor_of_a_non_round_shape(self, capsys, head):
        # refused as the invertors refuse it, before any hole is read
        assert main(["build", f"{head}(paste(globe(2),arrow,0))"]) == EXIT_DOMAIN
        assert "round" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["boundary", 'horn(globe(2),"1-")', "1", "-"],
        ["horn", 'horn(globe(2),"1-")', "1-"],
        ["pp", "horn", 'horn(globe(2),"1-")', "1-", "arrow"],
        ["pp", "horn", "arrow", "0-", 'horn(globe(2),"1-")'],
    ])
    def test_horn_expression_where_a_molecule_is_needed(self, capsys, argv):
        assert main(argv) == EXIT_DOMAIN
        assert f"{argv[0]} needs a molecule expression" in capsys.readouterr().err

    def test_boundary(self, capsys):
        assert main(["boundary", "gray(arrow,arrow)", "1", "-"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["elements"]) == 5

    def test_iso_none_is_ok_exit(self, capsys):
        assert main(["iso", "arrow", "globe(2)"]) == 0
        assert json.loads(capsys.readouterr().out) is None

    def test_horn(self, capsys):
        assert main(["horn", "globe(2)", "1-"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["facet"] == "1-"
        assert len(doc["elements"]) == 3

    def test_marked_horn(self, capsys):
        assert main(["horn", "globe(2)", "1-", "--marking", "1+"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["enlarged"] == ["1+", "1-", "2"]

    def test_pp_horn(self, capsys):
        assert main(["pp", "horn", "arrow", "0-", "arrow"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["facet"] == "(0-,1)"

    def test_pp_marked_horn(self, capsys):
        assert main(["pp", "marked-horn", "arrow", "0+", "arrow",
                     "--family", "minbd"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["facet"] == "(0+,1)"

    def test_render_dot(self, capsys):
        assert main(["render", "point", "--format", "dot"]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_verify_single_lemma(self, capsys):
        rc = main(["verify", "--lemma", "ISO_UNIQUE", "--depth", "1",
                   "--max-dim", "2", "--max-elems", "9"])
        captured = capsys.readouterr()
        assert rc == 0
        doc = json.loads(captured.out)
        assert doc["reports"][0]["lemma"] == "ISO_UNIQUE"
        assert doc["reports"][0]["status"] == "pass"

    def test_verify_unknown_lemma(self, capsys):
        assert main(["verify", "--lemma", "NOPE"]) == 1

    def test_repeated_calls_share_nothing(self, capsysbinary):
        # main keeps one parser; repeated --lemma values must not pile up
        argv = ["verify", "--lemma", "MUTATION", "--depth", "1",
                "--max-dim", "2", "--max-elems", "9"]
        outs = []
        for _ in range(2):
            assert main(argv) == 0
            outs.append(capsysbinary.readouterr().out)
        assert outs[0] == outs[1]
        assert json.loads(outs[1])["config"]["lemmas"] == ["MUTATION"]


class TestCertificateRoundTrip:
    def test_certificate_serializes_bit_exactly(self):
        m = eval_text("paste(unit(arrow), arrow, 0)")
        doc = poset_to_dict(m)
        assert "certificate" in doc
        once = to_json_bytes(doc)
        again = to_json_bytes(json.loads(once))
        assert once == again

    def test_certificate_records_construction(self):
        m = eval_text("paste(arrow, arrow, 0)")
        cert = m.certificate
        assert cert["kind"] == "paste" and cert["k"] == 0
        assert cert["left"]["kind"] == "arrow"
        assert cert["glue"] == {"0+": "0-"}


class TestVerifyExitCode:
    def test_failures_exit_3(self, capsys, monkeypatch):
        from ogpkit import harness
        from ogpkit.harness import LemmaReport

        def always_fails(catalog, config):
            rep = LemmaReport("STUB")
            rep.instances = 1
            rep.record({"x": "y"}, "a", "b")
            return rep

        monkeypatch.setitem(harness.LEMMAS, "STUB", always_fails)
        rc = main(["verify", "--lemma", "STUB", "--depth", "0",
                   "--max-dim", "0", "--max-elems", "1"])
        captured = capsys.readouterr()
        assert rc == 3
        doc = json.loads(captured.out)
        failure = doc["reports"][0]["failures"][0]
        assert set(failure) == {"lemma", "inputs", "expected", "got"}


def test_every_public_name_resolves():
    import ogpkit

    missing = [name for name in ogpkit.__all__ if not hasattr(ogpkit, name)]
    assert not missing
