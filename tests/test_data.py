import numpy as np
import pytest

from seqrel import data as D
from seqrel.exceptions import (
    EmptyInputError,
    ParameterError,
    ParseError,
    SchemaViolationError,
    TaskMismatchError,
)


def make_dataset():
    records = [
        D.Record("a", [{"amt": 2.0, "kind": "B"}, {"amt": 5.0, "kind": "A"}], 0),
        D.Record("b", [{"amt": 3.0, "kind": "B"}, {"amt": 2.0, "kind": "B"}], 1),
    ]
    return D.SequenceDataset(records)


def test_fit_schema_numeric_range_and_vocab_order():
    schema = D.fit_field_schema(make_dataset())
    amt, kind = schema.fields
    assert (amt.kind, amt.vmin, amt.vmax) == ("numerical", 2.0, 5.0)
    assert kind.vocab == ("B", "A")
    assert schema.width == 3


def test_fit_schema_rejects_empty():
    with pytest.raises(EmptyInputError):
        D.fit_field_schema(D.SequenceDataset([]))


def test_encode_event_endpoints_and_onehot():
    schema = D.fit_field_schema(make_dataset())
    lo = D.encode_event(schema, {"amt": 2.0, "kind": "B"})
    hi = D.encode_event(schema, {"amt": 5.0, "kind": "A"})
    assert np.array_equal(lo, [0.0, 1.0, 0.0])
    assert np.array_equal(hi, [1.0, 0.0, 1.0])


def test_encode_event_clamps_out_of_range():
    schema = D.fit_field_schema(make_dataset())
    assert D.encode_event(schema, {"amt": -10.0, "kind": "B"})[0] == 0.0
    assert D.encode_event(schema, {"amt": 99.0, "kind": "B"})[0] == 1.0


def test_encode_event_unseen_category_is_zero_block():
    schema = D.fit_field_schema(make_dataset())
    out = D.encode_event(schema, {"amt": 2.0, "kind": "C"})
    assert np.array_equal(out[1:], [0.0, 0.0])


def test_encode_event_constant_numeric_maps_to_zero():
    ds = D.SequenceDataset([D.Record("a", [{"v": 7.0}, {"v": 7.0}], 0)])
    schema = D.fit_field_schema(ds)
    assert D.encode_event(schema, {"v": 7.0})[0] == 0.0


def test_encode_event_missing_field_names_it():
    schema = D.fit_field_schema(make_dataset())
    with pytest.raises(SchemaViolationError, match="kind"):
        D.encode_event(schema, {"amt": 2.0})


@pytest.mark.parametrize("value, message", [
    ("zz", "holds a str"), ("1.5", "holds a str"), (True, "holds a bool"),
    (None, "holds a NoneType"), (float("inf"), "holds a non-finite number"),
    (float("-inf"), "holds a non-finite number"), (float("nan"), "holds a non-finite number"),
    (10 ** 400, "holds a non-finite number"),
], ids=["word", "numeral string", "bool", "null", "inf", "-inf", "nan", "huge int"])
def test_encode_event_rejects_bad_numerical_value(value, message):
    schema = D.fit_field_schema(make_dataset())
    with pytest.raises(SchemaViolationError, match=f"'amt' {message}") as err:
        D.encode_event(schema, {"amt": value, "kind": "B"})
    assert err.value.exit_code == 3


def test_encode_event_accepts_int_for_numerical_field():
    schema = D.fit_field_schema(make_dataset())
    assert np.array_equal(D.encode_event(schema, {"amt": 5, "kind": "A"}),
                          D.encode_event(schema, {"amt": 5.0, "kind": "A"}))


def test_encode_event_range_property():
    rng = np.random.default_rng(0)
    records = [D.Record(str(i), [{"a": float(rng.normal()), "b": str(rng.integers(3))}
                                 for _ in range(3)], 0) for i in range(20)]
    ds = D.SequenceDataset(records)
    schema = D.fit_field_schema(ds)
    for rec in records:
        for event in rec.events:
            out = D.encode_event(schema, event)
            assert out.shape == (schema.width,)
            assert np.all(out >= 0.0) and np.all(out <= 1.0)


def test_dataset_rejects_ragged_and_mixed_labels():
    with pytest.raises(SchemaViolationError):
        D.SequenceDataset([D.Record("a", [{"v": 1}], 0), D.Record("b", [{"v": 1}, {"v": 2}], 0)])
    with pytest.raises(TaskMismatchError):
        D.SequenceDataset([D.Record("a", [{"v": 1}], 0), D.Record("b", [{"v": 1}], 0.5)])


def test_schema_dict_round_trip():
    schema = D.fit_field_schema(make_dataset())
    again = D.FieldSchema.from_dict(schema.to_dict())
    assert again == schema


def test_sequences_jsonl_round_trip(tmp_path):
    ds = make_dataset()
    path = tmp_path / "seqs.jsonl"
    D.write_sequences(path, ds)
    back = D.read_sequences(path)
    assert back.ids == ds.ids
    assert [r.label for r in back] == [0, 1]
    assert back.records[0].events == ds.records[0].events


def test_sequences_parse_error_carries_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "events": [{"v": 1}], "label": 0}\n{broken\n')
    with pytest.raises(ParseError, match="line 2"):
        D.read_sequences(path)


def test_sequences_missing_label_rejected_unless_optional(tmp_path):
    path = tmp_path / "nolabel.jsonl"
    path.write_text('{"id": "a", "events": [{"v": 1}]}\n')
    with pytest.raises(ParseError, match="label"):
        D.read_sequences(path)
    ds = D.read_sequences(path, require_label=False)
    assert ds.records[0].label is None


HUGE = "9" * 400  # an integer literal too large for a float


@pytest.mark.parametrize("line", [
    f'{{"id": "a", "events": [{{"v": {HUGE}}}], "label": 0}}',
    f'{{"id": "a", "events": [{{"v": -{HUGE}}}], "label": 0}}',
    f'{{"id": "a", "events": [{{"v": 1}}], "label": {HUGE}}}',
], ids=["event", "negative event", "label"])
def test_sequences_reject_integers_too_large_for_a_float(line):
    ok = '{"id": "z", "events": [{"v": 2}], "label": 1}'
    with pytest.raises(ParseError, match="line 2.*finite") as err:
        D.parse_sequence_lines([ok, line])
    assert err.value.exit_code == 3


def test_sequences_integer_over_the_digit_limit_is_a_parse_error():
    line = f'{{"id": "a", "events": [{{"v": {"9" * 5000}}}], "label": 0}}'
    with pytest.raises(ParseError, match="line 1.*invalid JSON"):
        D.parse_sequence_lines([line])


def test_sequences_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(EmptyInputError):
        D.read_sequences(path)


def test_embeddings_round_trip_is_identity(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 4))
    ids = [f"r{i}" for i in range(5)]
    labels = [0, 1, 0, 1, 1]
    path = tmp_path / "emb.csv"
    D.save_embeddings(path, ids, x, labels)
    ids2, x2, labels2 = D.load_embeddings(path)
    assert ids2 == ids and labels2 == labels
    assert np.array_equal(x2, x)


def test_embeddings_regression_labels_round_trip(tmp_path):
    path = tmp_path / "emb.csv"
    D.save_embeddings(path, ["a"], np.array([[0.25]]), [0.125])
    _, _, labels = D.load_embeddings(path)
    assert labels == [0.125] and isinstance(labels[0], float)


def test_embeddings_file_order_preserved(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text("id,f0,f1,label\nb,1.0,2.0,1\na,3.0,4.0,0\n")
    ids, x, labels = D.load_embeddings(path)
    assert ids == ["b", "a"]
    assert np.array_equal(x, [[1.0, 2.0], [3.0, 4.0]])


def test_embeddings_header_only_rejected(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text("id,f0,label\n")
    with pytest.raises(EmptyInputError):
        D.load_embeddings(path)


def test_embeddings_ragged_row_names_line(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text("id,f0,f1,label\na,1.0,2.0,0\nb,1.0,0\n")
    with pytest.raises(ParseError, match="line 3"):
        D.load_embeddings(path)


def test_embeddings_non_numeric_cell_names_line(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text("id,f0,label\na,oops,0\n")
    with pytest.raises(ParseError, match="line 2"):
        D.load_embeddings(path)


@pytest.mark.parametrize("row", ["b,nan,1.0,0", "b,1.0,inf,0", "b,-inf,1.0,0",
                                 "b,1.0,2.0,nan", "b,1.0,2.0,-Infinity"])
def test_embeddings_non_finite_cell_names_line(tmp_path, row):
    path = tmp_path / "emb.csv"
    path.write_text(f"id,f0,f1,label\na,1.0,2.0,0\n\n{row}\n")
    with pytest.raises(ParseError, match="line 4") as err:
        D.load_embeddings(path)
    assert err.value.exit_code == 3


def test_embeddings_label_too_large_for_a_float(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text(f"id,f0,f1,label\na,1.0,2.0,0\nb,1.0,2.0,{HUGE}\n")
    with pytest.raises(ParseError, match="line 3.*non-finite label"):
        D.load_embeddings(path)


# ---------------------------------------------------------------------------
# splits and demand CSV


def test_split_dataset_411():
    records = [D.Record(id=f"r{i}", events=[{"a": 1.0}], label=0)
               for i in range(13)]
    parts = D.split_dataset(D.SequenceDataset(records))
    sizes = [len(p.records) for p in parts]
    assert sizes == [8, 2, 3]
    assert parts[0].ids[0] == "r0"
    assert parts[1].ids[0] == "r8"
    assert parts[2].ids[-1] == "r12"
    with pytest.raises(EmptyInputError):
        D.split_dataset(D.SequenceDataset(records[:4]))
    with pytest.raises(ParameterError):
        D.split_dataset(D.SequenceDataset(records), parts=(0, 1))


def test_read_demand_csv(tmp_path):
    p = tmp_path / "demand.csv"
    p.write_text("id,h0,h1,h2,target\n"
                 "d0,1.0,2.0,3.0,4.0\n"
                 "d1,0.5,0.25,0.125,0.0625\n")
    ds = D.read_demand_csv(p)
    assert ds.task == D.REGRESSION
    assert ds.ids == ["d0", "d1"]
    assert ds.records[0].events == [{"demand": 1.0}, {"demand": 2.0},
                                    {"demand": 3.0}]
    assert ds.records[1].label == 0.0625


def test_read_demand_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("id,a,b,target\nd0,1,2,3\n")
    with pytest.raises(ParseError) as err:
        D.read_demand_csv(p)
    assert err.value.line == 1
    p.write_text("id,h0,h1,target\nd0,1,2\n")
    with pytest.raises(ParseError) as err:
        D.read_demand_csv(p)
    assert err.value.line == 2
    p.write_text("id,h0,h1,target\nd0,1,x,3\n")
    with pytest.raises(ParseError):
        D.read_demand_csv(p)
    p.write_text("id,h0,h1,target\n")
    with pytest.raises(EmptyInputError):
        D.read_demand_csv(p)


@pytest.mark.parametrize("row", ["d1,1.0,nan,2.0", "d1,1.0,2.0,inf",
                                 "d1,-inf,2.0,3.0", "d1,1.0,2.0,NaN"])
def test_read_demand_csv_rejects_non_finite_cells(tmp_path, row):
    p = tmp_path / "demand.csv"
    p.write_text(f"id,h0,h1,target\nd0,1.0,2.0,3.0\n{row}\n")
    with pytest.raises(ParseError, match="finite") as err:
        D.read_demand_csv(p)
    assert err.value.line == 3
    assert err.value.exit_code == 3
